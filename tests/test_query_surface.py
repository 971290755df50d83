"""Query-layer surface added for reference parity: persisted embeddings
(K2), second embedding profile (T3), M10 rewrite, dual-path RRF search,
page-driven outfit query, composed catalog ETL (§3.4), G9 value counts,
edge property passthrough, and the minor source readers (S2/S3/S5)."""

from __future__ import annotations

import json

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from fashion_knowledge_graph_ray.datagen import gen_taxonomy
from fashion_knowledge_graph_ray.functions.vectors import (
    euclidean_distance,
    hash_embed,
    style_embed,
)
from fashion_knowledge_graph_ray.pipelines.build_graph import (
    taxonomy_embeddings_table,
)
from fashion_knowledge_graph_ray.pipelines.query import (
    outfit_from_page,
    outfit_from_text,
    style_query_rewrite,
)


@pytest.fixture(scope="module")
def tax():
    return gen_taxonomy(42)


@pytest.fixture(scope="module")
def emb_tbl(tax):
    return taxonomy_embeddings_table(tax)


def test_euclidean_distance_batched():
    a = np.array([[0.0, 0.0], [1.0, 1.0]])
    b = np.array([[3.0, 4.0], [1.0, 1.0]])
    assert np.allclose(euclidean_distance(a, b), [5.0, 0.0])


def test_style_embed_is_distinct_profile():
    texts = ["crimson silk blouse", "navy denim jeans"]
    e1, e2 = hash_embed(texts), style_embed(texts)
    assert e1.shape == (2, 256) and e2.shape == (2, 384)
    # both L2-normalized
    assert np.allclose(np.linalg.norm(e2, axis=1), 1.0)


def test_embeddings_table_schema(tax, emb_tbl):
    assert emb_tbl.num_rows == tax.num_rows
    assert emb_tbl.schema.names == [
        "entity_id", "surface", "category", "embedding", "style_embedding"]
    assert len(emb_tbl["embedding"][0].as_py()) == 256
    assert len(emb_tbl["style_embedding"][0].as_py()) == 384


def test_style_query_rewrite_rules():
    s = style_query_rewrite("I want a CRIMSON silk blouse for a party")
    assert "crimson" in s and "silk" in s
    # no vocabulary signal -> normalized query fallback
    assert style_query_rewrite("  ZzXx   Qq  ") == "zzxx qq"
    assert style_query_rewrite("") == ""


def test_outfit_from_text_exact_surface_ranks_first(tax, emb_tbl):
    surface = tax["surface"][0].as_py()
    eid = tax["entity_id"][0].as_py()
    out = outfit_from_text(surface, emb_tbl, top_k=5)
    assert out.num_rows >= 1
    assert out["entity_id"][0].as_py() == eid
    # scores strictly descending (RRF deterministic order)
    scores = out["rrf_score"].to_pylist()
    assert scores == sorted(scores, reverse=True)


def test_outfit_from_page_matches_mentions(tax, emb_tbl):
    s0 = tax["surface"][0].as_py()
    s1 = tax["surface"][1].as_py()
    html = f"<html><body><p>Look: a {s0} with a {s1}.</p></body></html>"
    out = outfit_from_page(html.encode(), tax, emb_tbl,
                           top_k=3, threshold=0.7)
    by_surface = {}
    for r in out.to_pylist():
        by_surface.setdefault(r["surface"], []).append(r)
    # each detected mention's top match is its own entity at score ~1
    for srf, eid in ((s0, tax["entity_id"][0].as_py()),
                     (s1, tax["entity_id"][1].as_py())):
        rows = by_surface.get(srf.lower()) or by_surface.get(srf)
        assert rows, f"no match rows for {srf}"
        top = min(rows, key=lambda r: r["rank"])
        assert top["entity_id"] == eid
        assert top["score"] > 0.99


def test_build_graph_writes_embeddings_table(ray_session, tmp_path, tax):
    import ray.data as rd

    from fashion_knowledge_graph_ray.datagen import gen_pages_table
    from fashion_knowledge_graph_ray.pipelines.build_graph import build_graph

    pages = gen_pages_table(42, 50, tax)
    res = build_graph(rd.from_arrow(pages), tax, str(tmp_path / "kg"),
                      link_mode="gazetteer")
    t = pq.read_table(res.embeddings_path)
    assert t.num_rows == tax.num_rows
    assert "style_embedding" in t.schema.names


def test_preprocess_catalog_composition(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.pipelines.preprocess import (
        preprocess_catalog,
    )

    new = pa.table({
        "pid": [1, 2, 3, 4, 5, 6],
        "cat": ["a", "a", "b", "b", "c", "a"],
        "name": [f"n{i}" for i in range(1, 7)],
    })
    base = pa.table({"product_id": [2, 9],
                     "name": ["base2", "base9"]})
    out = preprocess_catalog(
        rd.from_arrow(new), rd.from_arrow(base),
        key_col="pid", category_col="cat",
        include_categories=["a", "b"],   # drops pid 5 (cat c)
        sample_n=1,                       # one per category by md5 order
        rename={"pid": "product_id", "name": "name"})
    rows = {r["product_id"]: r for r in out.take_all()}
    # base rows always survive and win
    assert rows[2]["name"] == "base2" and rows[2]["src"] == "base"
    assert rows[9]["src"] == "base"
    # exactly one sampled row per surviving category (a: {1,6}, b: {3,4})
    new_rows = [r for r in rows.values() if r["src"] == "new"]
    assert len(new_rows) == 2
    assert all(r["product_id"] in (1, 6, 3, 4) for r in new_rows)


def test_filter_valid(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.relational import filter_valid

    t = pa.table({"id": [1, 2, 3, 4],
                  "text": ["long enough", None, "", "x"]})
    out = [r["id"] for r in
           filter_valid(rd.from_arrow(t), "text", min_len=2).take_all()]
    assert out == [1]
    # binary column path
    tb = pa.table({"id": [1, 2], "html": pa.array([b"abc", b""],
                                                  type=pa.binary())})
    out = [r["id"] for r in
           filter_valid(rd.from_arrow(tb), "html", min_len=1).take_all()]
    assert out == [1]


def test_value_counts(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.metrics import value_counts

    t = pa.table({"label": ["x", "y", "x", "z", "x", "y"]})
    out = {r["value"]: r["n"]
           for r in value_counts(rd.from_arrow(t), "label").take_all()}
    assert out == {"x": 3, "y": 2, "z": 1}


def test_edge_property_passthrough(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.aggregate import aggregate_edges

    pairs = pa.table({
        "src": ["a", "a"], "dst": ["b", "b"], "rel": ["worn_with"] * 2,
        "url": ["u1", "u2"],
        "warc_ts": pa.array([0, 0], type=pa.timestamp("us", tz="UTC")),
    })
    out = aggregate_edges(rd.from_arrow(pairs),
                          properties={"collection": "gq-2025"},
                          source="GQ Trend 2025").take_all()
    assert len(out) == 1
    r = out[0]
    assert r["weight"] == 2
    assert r["source"] == "GQ Trend 2025"
    assert r["collection"] == "gq-2025"
    with pytest.raises(ValueError):
        aggregate_edges(rd.from_arrow(pairs),
                        properties={"weight": 1})


def test_source_readers(ray_session, tmp_path):
    from fashion_knowledge_graph_ray.sources.catalog import (
        list_dir_filtered,
        read_json_metadata,
        read_path_list,
    )

    meta = {"p2": {"semantic_category": "top", "path": "x2"},
            "p1": {"semantic_category": "bag"}}
    jp = tmp_path / "meta.json"
    jp.write_text(json.dumps(meta))
    rows = read_json_metadata(str(jp)).take_all()
    assert [r["index"] for r in rows] == ["p1", "p2"]  # sorted keys
    assert rows[0]["semantic_category"] == "bag"
    assert rows[0]["path"] is None  # missing field -> null

    lp = tmp_path / "paths.txt"
    lp.write_text("  /a/b.jpg  \n\n/c/d.jpg\n")
    paths = [r["path"] for r in read_path_list(str(lp)).take_all()]
    # row order follows block completion order, not file order (see S3
    # docstring) — compare as a multiset
    assert sorted(paths) == ["/a/b.jpg", "/c/d.jpg"]

    d = tmp_path / "imgs"
    d.mkdir()
    for n in ["b_full.jpg", "a_full.jpg", "c_thumb.jpg"]:
        (d / n).write_text("x")
    got = [r["path"] for r in
           list_dir_filtered(str(d), suffix="_full.jpg", limit=1).take_all()]
    assert len(got) == 1 and got[0].endswith("a_full.jpg")


def test_curate_corpus_near_dedup(ray_session):
    # Composed curation with the MinHash near-dedup stage: two
    # near-identical survivors collapse to the min-id representative,
    # an exact duplicate collapses via md5, gated docs never appear.
    import ray.data as rd

    from fashion_knowledge_graph_ray.pipelines.curate import curate_corpus

    base = ("the quick brown fox jumps over a lazy dog while the sun is "
            "shining and children play near the old stone bridge beside "
            "a quiet river full of fish and song today")
    near = base.replace("quiet river", "silent river")
    corpus = pa.table({
        "doc_id": pa.array([1, 2, 3, 4, 5], type=pa.int64()),
        "text": [
            base,                      # survivor, cluster representative
            near,                      # near-dup of 1 -> dropped
            base,                      # exact dup of 1 -> dropped by md5
            "der die und das ein " * 8,   # fails the language gate
            "la la " * 30,             # fails the top-bigram gate
        ],
    })
    out = curate_corpus(rd.from_arrow(corpus), near_dedup=True,
                        minhash_threshold=0.5).take_all()
    assert [r["doc_id"] for r in out] == [1]
    assert "text" not in out[0]
    assert out[0]["n_tokens"] == len(base.split())


def test_curate_corpus_exact_only_keeps_min_id(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.pipelines.curate import curate_corpus

    base = ("the quick brown fox jumps over a lazy dog while the sun is "
            "shining and children play near the old stone bridge beside "
            "a quiet river full of fish and song today")
    corpus = pa.table({"doc_id": pa.array([7, 3, 9], type=pa.int64()),
                       "text": [base, base, base]})
    out = curate_corpus(rd.from_arrow(corpus)).take_all()
    assert [r["doc_id"] for r in out] == [3]
