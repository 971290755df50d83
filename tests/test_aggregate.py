"""G2/G3/G4 aggregation semantics + end-to-end pipeline determinism."""

from __future__ import annotations

import pyarrow as pa
import pytest

from fashion_knowledge_graph_ray.stages.aggregate import (
    _merge_edges_bucket,
    partial_edge_agg,
)
from fashion_knowledge_graph_ray.vocab import EVIDENCE_CAP


def _pairs_table(rows):
    return pa.table(
        {
            "src": [r[0] for r in rows],
            "dst": [r[1] for r in rows],
            "rel": [r[2] for r in rows],
            "url": [r[3] for r in rows],
            "warc_ts": pa.array([0] * len(rows), type=pa.timestamp("us", tz="UTC")),
        }
    )


def test_partial_edge_agg_counts_and_collects():
    t = _pairs_table([
        ("a", "b", "worn_with", "u1"),
        ("a", "b", "worn_with", "u2"),
        ("b", "a", "worn_with", "u1"),
    ])
    out = partial_edge_agg(t).to_pylist()
    by_key = {(r["src"], r["dst"]): r for r in out}
    assert by_key[("a", "b")]["weight"] == 2
    assert by_key[("a", "b")]["pages"] == ["u1", "u2"]
    assert by_key[("b", "a")]["weight"] == 1


def test_merge_edges_bucket_weight_sum_and_dedup_evidence():
    # two partials of the same key: weights add, evidence set-unions sorted
    partials = pa.table(
        {
            "src": ["a", "a"], "dst": ["b", "b"], "rel": ["worn_with"] * 2,
            "weight": pa.array([2, 3], type=pa.int64()),
            "pages": pa.array([["u2", "u1"], ["u1", "u3"]],
                              type=pa.list_(pa.string())),
            "ptrunc": pa.array([False, False], type=pa.bool_()),
        }
    )
    out = _merge_edges_bucket(partials).to_pylist()
    assert len(out) == 1
    r = out[0]
    assert r["weight"] == 5
    assert r["pages"] == ["u1", "u2", "u3"]
    # weight counts OBSERVATIONS (incl. duplicate urls); nothing was
    # actually truncated (no partial capped, union under the cap), so the
    # flag stays False — weight > len(pages) alone must NOT flag
    assert r["evidence_truncated"] is False


def test_merge_edges_bucket_cap():
    many = [f"u{i:03d}" for i in range(EVIDENCE_CAP + 5)]
    partials = pa.table(
        {
            "src": ["a"], "dst": ["b"], "rel": ["worn_with"],
            "weight": pa.array([len(many)], type=pa.int64()),
            "pages": pa.array([many], type=pa.list_(pa.string())),
            "ptrunc": pa.array([False], type=pa.bool_()),
        }
    )
    r = _merge_edges_bucket(partials).to_pylist()[0]
    assert len(r["pages"]) == EVIDENCE_CAP
    assert r["evidence_truncated"] is True
    assert r["weight"] == EVIDENCE_CAP + 5  # weight never capped


def test_capped_partial_flags_even_when_union_small():
    # a capped partial proves true distinct count > cap, even though the
    # union of shipped lists is exactly EVIDENCE_CAP entries
    many = [f"u{i:03d}" for i in range(EVIDENCE_CAP)]
    partials = pa.table(
        {
            "src": ["a"], "dst": ["b"], "rel": ["worn_with"],
            "weight": pa.array([EVIDENCE_CAP + 3], type=pa.int64()),
            "pages": pa.array([many], type=pa.list_(pa.string())),
            "ptrunc": pa.array([True], type=pa.bool_()),
        }
    )
    r = _merge_edges_bucket(partials).to_pylist()[0]
    assert r["evidence_truncated"] is True


def test_partial_edge_agg_dedups_within_batch():
    # duplicate urls inside one batch must not evict distinct urls
    t = _pairs_table([("a", "b", "worn_with", "u1")] * 3
                     + [("a", "b", "worn_with", "u2")])
    out = partial_edge_agg(t).to_pylist()
    r = out[0]
    assert r["weight"] == 4
    assert r["pages"] == ["u1", "u2"]
    assert r["ptrunc"] is False


# ── Arrow edge kernels vs the former pandas kernels ─────────────────────

def _oracle_partial(batch: pa.Table) -> pa.Table:
    """The former per-key Python combiner, kept as the parity oracle."""
    g = batch.group_by(["src", "dst", "rel"]).aggregate(
        [("url", "list"), ("url", "count")])
    distinct = [sorted(set(u)) for u in g["url_list"].to_pylist()]
    return pa.table({
        "src": g["src"], "dst": g["dst"], "rel": g["rel"],
        "weight": g["url_count"].cast(pa.int64()),
        "pages": pa.array([d[:EVIDENCE_CAP] for d in distinct],
                          type=pa.list_(pa.string())),
        "ptrunc": pa.array([len(d) > EVIDENCE_CAP for d in distinct],
                           type=pa.bool_()),
    })


def _oracle_merge(t: pa.Table) -> pa.Table:
    """The former pandas explode/drop_duplicates merge (parity oracle)."""
    keys = ["src", "dst", "rel"]
    df = t.to_pandas()
    w = df.groupby(keys, sort=True)["weight"].sum()
    pt = df.groupby(keys, sort=True)["ptrunc"].any()
    ex = df[keys + ["pages"]].explode("pages").dropna(subset=["pages"])
    ex = ex.drop_duplicates().sort_values(keys + ["pages"])
    pages = ex.groupby(keys, sort=True)["pages"].agg(list)
    out = w.to_frame().join(pages, how="left").join(pt).reset_index()
    out["pages"] = out["pages"].map(
        lambda v: v if isinstance(v, list) else [])
    out["evidence_truncated"] = [
        (len(p) > EVIDENCE_CAP) or bool(pflag)
        for p, pflag in zip(out["pages"], out["ptrunc"])
    ]
    out["pages"] = out["pages"].map(lambda p: p[:EVIDENCE_CAP])
    return pa.table({
        "src": pa.array(out["src"], type=pa.string()),
        "dst": pa.array(out["dst"], type=pa.string()),
        "rel": pa.array(out["rel"], type=pa.string()),
        "weight": pa.array(out["weight"], type=pa.int64()),
        "pages": pa.array(out["pages"].tolist(), type=pa.list_(pa.string())),
        "evidence_truncated": pa.array(out["evidence_truncated"],
                                       type=pa.bool_()),
    })


def _by_key(t: pa.Table) -> pa.Table:
    return t.sort_by([("src", "ascending"), ("dst", "ascending"),
                      ("rel", "ascending")])


def _assert_kernels_match(batches: list[pa.Table], *,
                          same_partials: bool = True):
    """Per-batch partials then one merge, new kernels vs the oracle: the
    merged edges must be equal row for row, both end to end and with both
    merges fed the same partials; so must the partials themselves unless
    ``same_partials`` is off."""
    new_parts = [partial_edge_agg(b) for b in batches]
    old_parts = [_oracle_partial(b) for b in batches]
    for n, o in zip(new_parts, old_parts):
        assert n.schema == o.schema
        if same_partials:
            assert _by_key(n).to_pylist() == _by_key(o).to_pylist()
    parts = pa.concat_tables(new_parts)
    got = _by_key(_merge_edges_bucket(parts))
    for want in (_oracle_merge(parts),
                 _oracle_merge(pa.concat_tables(old_parts))):
        assert got.schema == want.schema
        assert got.to_pylist() == want.to_pylist()
    return got


@pytest.mark.parametrize("n_urls", [EVIDENCE_CAP, EVIDENCE_CAP + 1])
def test_edge_kernels_match_oracle_at_cap(n_urls):
    # urls listed out of order and split over two batches, so the merge
    # has to union, sort and cap two partials
    urls = [f"u{i:03d}" for i in reversed(range(n_urls))]
    rows = [("a", "b", "worn_with", u) for u in urls]
    out = _assert_kernels_match([_pairs_table(rows[:7]),
                                 _pairs_table(rows[7:])])
    r = out.to_pylist()[0]
    assert len(r["pages"]) == min(n_urls, EVIDENCE_CAP)
    assert r["evidence_truncated"] is (n_urls > EVIDENCE_CAP)


def test_edge_kernels_capped_partial_union_at_cap():
    # one partial was capped; the union of the shipped lists is exactly
    # EVIDENCE_CAP entries, so only the partial's flag proves truncation
    over = [f"u{i:03d}" for i in range(EVIDENCE_CAP + 1)]
    batches = [_pairs_table([("a", "b", "worn_with", u) for u in over]),
               _pairs_table([("a", "b", "worn_with", over[0])])]
    out = _assert_kernels_match(batches)
    r = out.to_pylist()[0]
    assert len(r["pages"]) == EVIDENCE_CAP
    assert r["evidence_truncated"] is True


def test_edge_kernels_duplicate_observations():
    # dedup_pages disabled: the same url is observed several times, in one
    # batch and across batches; weight counts them all, pages stay distinct
    rows = ([("a", "b", "worn_with", "u1")] * 3
            + [("a", "b", "worn_with", "u2"), ("b", "a", "worn_with", "u1")])
    out = _assert_kernels_match([_pairs_table(rows), _pairs_table(rows[:2])])
    r = out.to_pylist()[0]
    assert r["weight"] == 6 and r["pages"] == ["u1", "u2"]


def test_edge_kernels_null_url():
    # a key seen only with a null url: weight 0, no evidence. The oracle's
    # partial ships that null as [None] and its merge drops it; the Arrow
    # partial drops it at once, so only the merged edges are compared.
    # (The oracle's Python sort cannot order None against a string, so a
    # null next to a real url is checked on the merge alone, below.)
    rows = [("a", "b", "worn_with", None), ("a", "c", "worn_with", "u1")]
    out = _assert_kernels_match([_pairs_table(rows)], same_partials=False)
    assert [(r["weight"], r["pages"]) for r in out.to_pylist()] == \
        [(0, []), (1, ["u1"])]
    partials = pa.table({
        "src": ["a", "a"], "dst": ["b", "b"], "rel": ["worn_with"] * 2,
        "weight": pa.array([2, 1], type=pa.int64()),
        "pages": pa.array([["u2", None], []], type=pa.list_(pa.string())),
        "ptrunc": pa.array([False, False], type=pa.bool_()),
    })
    assert _by_key(_merge_edges_bucket(partials)).to_pylist() == \
        _oracle_merge(partials).to_pylist()


def test_edge_kernels_empty_table_keeps_schema():
    empty = _pairs_table([("a", "b", "worn_with", "u1")]).slice(0, 0)
    _assert_kernels_match([empty])
    out = _merge_edges_bucket(partial_edge_agg(empty))
    assert out.num_rows == 0
    assert out.schema == pa.schema([
        ("src", pa.string()), ("dst", pa.string()), ("rel", pa.string()),
        ("weight", pa.int64()), ("pages", pa.list_(pa.string())),
        ("evidence_truncated", pa.bool_())])


@pytest.mark.parametrize("n_ents,n_rows", [(6, 3000), (80, 60000)])
def test_edge_kernels_random_batches_match_oracle(n_ents, n_rows):
    # few keys with long evidence lists, and thousands of keys (most with a
    # short list, some capped in one partial) over many batches
    import random

    rng = random.Random(n_ents)
    ents = [f"e{i}" for i in range(n_ents)]
    # five hot keys open the first batch with 25 distinct urls each
    rows = [(f"e{k}", "hot", "worn_with", f"u{i:02d}")
            for k in range(5) for i in range(25)]
    rows += [(rng.choice(ents), rng.choice(ents),
              rng.choice(["worn_with", "complemented_by"]),
              f"u{rng.randrange(40):02d}") for _ in range(n_rows)]
    cuts = sorted(rng.sample(range(126, len(rows)), 9))
    batches = [_pairs_table(rows[a:b])
               for a, b in zip([0] + cuts, cuts + [len(rows)])]
    out = _assert_kernels_match(batches)
    assert any(r["evidence_truncated"] for r in out.to_pylist())


def test_same_pair_k_pages_weight_k(ray_session, tmp_path):
    """FIXTURES.md §4: same pair on k pages -> weight k (per direction)."""
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.aggregate import aggregate_edges

    k = 7
    rows = []
    for i in range(k):
        rows += [("e1", "e2", "worn_with", f"p{i}"), ("e2", "e1", "worn_with", f"p{i}")]
    edges = aggregate_edges(rd.from_arrow(_pairs_table(rows))).to_pandas()
    assert len(edges) == 2
    assert set(edges["weight"]) == {k}
    for pages in edges["pages"]:
        assert list(pages) == [f"p{i}" for i in range(k)]


def test_node_merge_lww(ray_session):
    """G4: attrs of the LAST (warc_ts, url, mention_id) mention win."""
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.aggregate import merge_nodes

    def attrs(color):
        return {"type": "top", "color": color, "style": [], "season": [],
                "occasion": [], "price": "low", "material": [], "fit": "slim",
                "gender": "men", "age_group": "adult"}

    t = pa.table(
        {
            "url": ["u2", "u1", "u3"],
            "warc_ts": pa.array([20, 10, 30], type=pa.timestamp("us", tz="UTC")),
            "mention_id": ["u2#m0", "u1#m0", "u3#m0"],
            "form": ["black blouse", "blk blouse", "black blouse"],
            "entity_id": ["e1", "e1", "e1"],
            "attrs": [attrs("red"), attrs("blue"), attrs("green")],
        }
    )
    nodes = merge_nodes(rd.from_arrow(t)).take_all()
    assert len(nodes) == 1
    n = nodes[0]
    assert n["attrs"]["color"] == "green"  # warc_ts=30 wins
    assert n["surface_forms"] == ["black blouse", "blk blouse"]


def test_pipeline_partition_invariance(ray_session, tmp_path):
    """North-rule determinism: identical outputs at 1 vs 16 input blocks."""
    import pandas as pd
    import ray.data as rd

    from fashion_knowledge_graph_ray.datagen import gen_pages_table, gen_taxonomy
    from fashion_knowledge_graph_ray.pipelines.build_graph import build_graph

    tax = gen_taxonomy(42)
    pages = gen_pages_table(42, 300, tax)

    def run(n_blocks, out):
        ds = rd.from_arrow(pages).repartition(n_blocks)
        res = build_graph(ds, tax, str(tmp_path / out), link_mode="embedding")
        tr = res.dataset("triples").to_pandas().sort_values(
            ["subj", "pred", "obj", "url"]).reset_index(drop=True)
        ed = res.dataset("edges").to_pandas().sort_values(
            ["src", "dst", "rel"]).reset_index(drop=True)
        ed["pages"] = ed["pages"].map(list)
        return tr, ed

    tr1, ed1 = run(1, "o1")
    tr16, ed16 = run(16, "o16")
    pd.testing.assert_frame_equal(tr1, tr16)
    pd.testing.assert_frame_equal(ed1, ed16)
    assert len(tr1) > 0 and len(ed1) > 0


def test_order_pairs_empty_bucket(ray_session, tmp_path):
    # regression: a bucket containing ONLY single-part orders emits zero
    # pairs; pandas .map on the resulting empty int64 frame kept int64
    # dtype and the typed string arrays raised ArrowTypeError (hit at
    # sf0.1 once integer keys hashed natively and rebalanced buckets)
    import pyarrow as pa
    import pyarrow.parquet as pq

    import __ray_entry__ as E

    li = pa.table({
        "l_orderkey": pa.array([1, 2, 3, 4, 4], type=pa.int64()),
        "l_partkey": pa.array([10, 11, 12, 10, 11], type=pa.int64()),
    })
    part = pa.table({
        "p_partkey": pa.array([10, 11, 12], type=pa.int64()),
        "p_type": ["STANDARD BRASS", "STANDARD BRASS", "SMALL TIN"],
    })
    pq.write_table(li, str(tmp_path / "lineitem.parquet"))
    pq.write_table(part, str(tmp_path / "part.parquet"))
    # 32 buckets over 4 orders: most buckets are empty or singleton-only
    out = E._order_pairs(str(tmp_path)).take_all()
    pairs = {(r["src"], r["dst"]) for r in out}
    assert ("p000010", "p000011") in pairs and ("p000011", "p000010") in pairs
    assert all(isinstance(r["src"], str) for r in out)
