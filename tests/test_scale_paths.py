"""The dense-regime (shuffle) variants must equal their broadcast twins:
candidate-pair verification, anti-join, embedding near-dup routing."""

from __future__ import annotations

import numpy as np
import pyarrow as pa


def _docs_table():
    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy dog!",   # near-dup of 0
        "a completely different document about sailing boats",
        "the quick brown fox jumped over a lazy dog",     # near-dup-ish
        "yet another unrelated text concerning gardening tips",
        "",                                                # empty text
    ]
    return pa.table({"id": [f"d{i}" for i in range(len(texts))],
                     "text": texts})


def test_candidate_pairs_shuffle_equals_broadcast(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.canonicalize import (
        candidate_pairs,
        lsh_band_rows,
    )

    docs = rd.from_arrow(_docs_table())
    bands = lsh_band_rows(docs, "text", "id").materialize()

    def pairs(max_broadcast_pairs):
        out = candidate_pairs(bands, rd.from_arrow(_docs_table()),
                              threshold=0.5,
                              max_broadcast_pairs=max_broadcast_pairs)
        return sorted((r["a"], r["b"]) for r in out.take_all())

    broadcast = pairs(10**9)
    shuffle = pairs(0)  # force the bucketed semi-join path
    assert broadcast == shuffle
    assert ("d0", "d1") in broadcast  # the near-dups actually verify


def test_anti_join_shuffle_equals_broadcast(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.relational import (
        anti_join_auto,
        anti_join_keys,
        anti_join_shuffle,
    )

    left = pa.table({"k": list(range(20)),
                     "v": [f"v{i}" for i in range(20)]})
    right = pa.table({"rk": [1, 3, 3, 5, 7, 9, 11, 13, 15, 17, 19, 99]})

    bcast = sorted(r["k"] for r in anti_join_keys(
        rd.from_arrow(left), "k", right["rk"].to_pylist()).take_all())
    shuf = sorted(r["k"] for r in anti_join_shuffle(
        rd.from_arrow(left), "k", rd.from_arrow(right), "rk").take_all())
    assert bcast == shuf == sorted(set(range(20)) - {1, 3, 5, 7, 9, 11,
                                                     13, 15, 17, 19})
    # routed: tiny key side -> broadcast; max_broadcast_keys=0 -> shuffle
    auto = sorted(r["k"] for r in anti_join_auto(
        rd.from_arrow(left), "k", rd.from_arrow(right), "rk",
        max_broadcast_keys=0).take_all())
    assert auto == bcast
    # shuffle path preserves the full row payload
    rows = anti_join_shuffle(rd.from_arrow(left), "k",
                             rd.from_arrow(right), "rk").take_all()
    assert all(r["v"] == f"v{r['k']}" for r in rows)


def test_shuffle_join_inner_and_left(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.relational import shuffle_join

    left = pa.table({"k": [1, 2, 3, 3], "lv": ["a", "b", "c", "d"]})
    right = pa.table({"rk": [2, 3, 9], "rv": [20, 30, 90],
                      "lv": ["x2", "x3", "x9"]})  # name collision -> lv_r
    inner = sorted((r["k"], r["lv"], r["rv"], r["lv_r"]) for r in
                   shuffle_join(rd.from_arrow(left), rd.from_arrow(right),
                                "k", "rk").take_all())
    assert inner == [(2, "b", 20, "x2"), (3, "c", 30, "x3"),
                     (3, "d", 30, "x3")]
    lefty = sorted((r["k"], r["rv"]) for r in
                   shuffle_join(rd.from_arrow(left), rd.from_arrow(right),
                                "k", "rk", how="left").take_all())
    assert lefty == [(1, None), (2, 20), (3, 30), (3, 30)]


def test_null_keys_never_match(ray_session):
    # SQL semantics (DuckDB's inner join and NOT IN over non-null keys): a
    # null key matches nothing, on either side of any join shape
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.relational import (
        anti_join_auto,
        anti_join_keys,
        anti_join_shuffle,
        asof_join,
        band_join,
        shuffle_join,
    )

    left = pa.table({"k": pa.array([1, None, 2], type=pa.int64()),
                     "lv": ["a", "n", "b"],
                     "t": pa.array([10, 10, 10], type=pa.int64()),
                     "x": [1.0, 1.0, 1.0]})
    right = pa.table({"rk": pa.array([1, None], type=pa.int64()),
                      "rv": [100, 999],
                      "rt": pa.array([5, 5], type=pa.int64()),
                      "y": [1.0, 1.0]})

    def ds(t):
        return rd.from_arrow(t)

    inner = shuffle_join(ds(left), ds(right), "k", "rk").take_all()
    assert [(r["k"], r["lv"], r["rv"]) for r in inner] == [(1, "a", 100)]
    lefty = sorted((r["lv"], r["rv"]) for r in shuffle_join(
        ds(left), ds(right), "k", "rk", how="left").take_all())
    assert lefty == [("a", 100), ("b", None), ("n", None)]

    asof = asof_join(ds(left), ds(right), key="k", right_key="rk",
                     left_time="t", right_time="rt").take_all()
    assert [(r["lv"], r["rv"]) for r in asof] == [("a", 100)]

    band = band_join(ds(left), ds(right), left_val="x", right_val="y",
                     eps=0.5, key=["k"], right_keys=["rk"]).take_all()
    assert [(r["lv"], r["rv"]) for r in band] == [("a", 100)]

    kept = ["b", "n"]  # the null-key left row has no match: kept
    assert sorted(r["lv"] for r in anti_join_shuffle(
        ds(left), "k", ds(right), "rk").take_all()) == kept
    assert sorted(r["lv"] for r in anti_join_keys(
        ds(left), "k", right["rk"].to_pylist()).take_all()) == kept
    for gate in (0, 10):  # both regimes of the routed anti-join
        assert sorted(r["lv"] for r in anti_join_auto(
            ds(left), "k", ds(right), "rk",
            max_broadcast_keys=gate).take_all()) == kept


def test_hopping_window_membership(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.windows import hopping_window

    ts = pa.array([3600 * 10**6, 5400 * 10**6],
                  type=pa.timestamp("us"))  # t=3600s and t=5400s
    ev = pa.table({"user_id": [1, 1], "ts": ts,
                   "value": pa.array([5.0, 7.0])})
    out = {(r["user_id"], r["ws_sec"]): (r["n_events"], r["max_value"])
           for r in hopping_window(rd.from_arrow(ev), width_sec=3600,
                                   slide_sec=900).take_all()}
    # event at 3600 -> windows starting 900,1800,2700,3600
    # event at 5400 -> windows starting 2700,3600,4500,5400
    assert out[(1, 900)] == (1, 5.0)
    assert out[(1, 2700)] == (2, 7.0)
    assert out[(1, 3600)] == (2, 7.0)
    assert out[(1, 5400)] == (1, 7.0)
    assert len(out) == 6


def test_ivf_topk_exact_on_duplicates(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.ann import (
        brute_force_topk,
        ivf_topk,
    )

    rng = np.random.Generator(np.random.PCG64(11))
    mat = rng.standard_normal((60, 8))
    t = pa.table({"vec_id": list(range(60)),
                  "embedding": [v.tolist() for v in mat]})
    q = mat[:3]
    exact = {}
    for r in brute_force_topk(rd.from_arrow(t), q, 1,
                              query_ids=[0, 1, 2]).take_all():
        exact[r["query_id"]] = r["vec_id"]
    # a query identical to a corpus vector lands in that vector's own
    # centroid cell, so rank-1 self-retrieval is exact under IVF
    got = {}
    for r in ivf_topk(rd.from_arrow(t), q, 1, query_ids=[0, 1, 2],
                      ncentroids=4, nprobe=1).take_all():
        if r["rank"] == 1:
            got[r["query_id"]] = r["vec_id"]
    assert got == exact == {0: 0, 1: 1, 2: 2}


def test_embedding_neardup_routes_to_lsh(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.dedup import (
        embedding_neardup_pairs,
        lsh_neardup_pairs,
    )

    rng = np.random.Generator(np.random.PCG64(7))
    base = rng.standard_normal((40, 16))
    # rows 50..54 duplicate rows 0..4 -> cosine 1.0 pairs (i, i+50)
    vecs = np.concatenate([base, base[:5]])
    ids = list(range(40)) + [50 + i for i in range(5)]
    t = pa.table({"vec_id": ids,
                  "embedding": [v.tolist() for v in vecs]})

    exact = embedding_neardup_pairs(rd.from_arrow(t), threshold=0.95,
                                    max_driver_vecs=10**6)
    exact_pairs = sorted((r["a"], r["b"]) for r in exact.take_all())
    assert exact_pairs == [(i, 50 + i) for i in range(5)]

    # max_driver_vecs=0 forces the LSH route; identical vectors share every
    # hyperplane sign, so recall on exact duplicates is 1.0
    lsh = embedding_neardup_pairs(rd.from_arrow(t), threshold=0.95,
                                  max_driver_vecs=0)
    lsh_pairs = sorted((r["a"], r["b"]) for r in lsh.take_all())
    assert lsh_pairs == exact_pairs

    direct = lsh_neardup_pairs(rd.from_arrow(t), threshold=0.95)
    assert sorted((r["a"], r["b"]) for r in direct.take_all()) == exact_pairs


def test_chunk_dedup_first_wins(ray_session):
    import hashlib

    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.dedup import chunk_dedup

    # 3-token chunks; doc 7's first chunk repeats doc 3's first chunk,
    # doc 3's own second chunk repeats its first
    tbl = pa.table({
        "doc_id": pa.array([3, 7, 9], type=pa.int64()),
        "text": ["a b c a b c x", "a b c q r s", ""],
    })
    out = chunk_dedup(rd.from_arrow(tbl).repartition(3),
                      chunk_tokens=3).to_pandas()
    got = set(zip(out["doc_id"], out["chunk_no"]))
    # kept: (3,0) wins "a b c"; (3,2) "x"; (7,1) "q r s"; doc 9 no chunks
    assert got == {(3, 0), (3, 2), (7, 1)}
    h = out.set_index(["doc_id", "chunk_no"])["chunk_hash"]
    assert h[(3, 0)] == hashlib.md5(b"a b c").hexdigest()
    assert h[(3, 2)] == hashlib.md5(b"x").hexdigest()


def test_chunk_dedup_partition_invariance(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.dedup import chunk_dedup

    rng = np.random.default_rng(3)
    words = ["w%d" % i for i in range(12)]
    texts = [" ".join(rng.choice(words, size=int(rng.integers(0, 30))))
             for _ in range(80)]
    texts[10] = texts[4]  # full-doc duplicate
    tbl = pa.table({"doc_id": pa.array(range(80), type=pa.int64()),
                    "text": texts})

    outs = []
    for parts in (1, 9):
        df = chunk_dedup(rd.from_arrow(tbl).repartition(parts),
                         chunk_tokens=5).to_pandas()
        outs.append(sorted(map(tuple, df.to_numpy())))
    assert outs[0] == outs[1]
    # the duplicate doc contributes no kept chunks
    kept_ids = {r[0] for r in outs[0]}
    assert 10 not in kept_ids


def test_incremental_dedup_exact_and_bloom_gate(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.dedup import incremental_dedup

    ref = pa.table({"doc_id": pa.array(range(50), type=pa.int64()),
                    "text": [f"ref doc {i}" for i in range(50)]})
    new = pa.table({
        "doc_id": pa.array(range(100, 160), type=pa.int64()),
        "text": [f"new doc {i}" for i in range(40)]       # fresh
        + [f"ref doc {i}" for i in range(20)],            # dups of ref
    })
    out = incremental_dedup(rd.from_arrow(new).repartition(4),
                            rd.from_arrow(ref).repartition(3)).to_pandas()
    assert sorted(out["doc_id"]) == list(range(100, 140))
    assert set(out.columns) == {"doc_id", "text"}

    # tiny bloom (high FP rate) must not change results — exactness comes
    # from the verify anti-join, the bloom only prunes
    out2 = incremental_dedup(rd.from_arrow(new).repartition(4),
                             rd.from_arrow(ref).repartition(3), bloom_bits=64,
                             bloom_hashes=2).to_pandas()
    assert sorted(out2["doc_id"]) == list(range(100, 140))


def _rand_vecs(n=120, dim=16, seed=11):
    rng = np.random.default_rng(seed)
    return pa.table({
        "vec_id": pa.array(range(n), type=pa.int64()),
        "embedding": pa.array(
            [rng.standard_normal(dim).tolist() for _ in range(n)],
            type=pa.list_(pa.float64())),
    })


def test_knn_graph_exact_matches_numpy(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.ann import _normalize, knn_graph

    tbl = _rand_vecs()
    out = knn_graph(rd.from_arrow(tbl).repartition(5), 3).to_pandas()

    mat = _normalize(np.stack([np.asarray(v)
                               for v in tbl["embedding"].to_pylist()]))
    sims = mat @ mat.T
    np.fill_diagonal(sims, -np.inf)
    exp = set()
    for i in range(len(mat)):
        order = np.lexsort((np.arange(len(mat)), -sims[i]))[:3]
        for r, j in enumerate(order, start=1):
            exp.add((i, int(j), r))
    assert set(zip(out["src"], out["dst"], out["rank"])) == exp
    assert (out["src"] != out["dst"]).all()


def test_knn_graph_ivf_full_probe_equals_exact(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.ann import knn_graph

    tbl = _rand_vecs(80)
    ds = rd.from_arrow(tbl).repartition(4)
    exact = knn_graph(ds, 4).to_pandas()
    # forcing the IVF regime with nprobe == ncentroids scans every cell:
    # the approximate path must then reproduce the exact graph
    ivf = knn_graph(ds, 4, max_broadcast=0, ncentroids=6, nprobe=6).to_pandas()
    key = ["src", "dst", "rank"]
    assert sorted(map(tuple, exact[key].to_numpy())) == \
        sorted(map(tuple, ivf[key].to_numpy()))


def test_semantic_dedup_drops_planted_dups(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.ann import semantic_dedup

    tbl = _rand_vecs(60)
    # plant exact duplicates of vectors 0..9 under ids 1000..1009
    dup = pa.table({
        "vec_id": pa.array(range(1000, 1010), type=pa.int64()),
        "embedding": tbl["embedding"].slice(0, 10),
    })
    ds = rd.from_arrow(pa.concat_tables([tbl, dup])).repartition(5)
    out = semantic_dedup(ds, 0.99, 4).to_pandas()
    dropped = out[~out["kept"]]
    # every planted clone is shadowed by its lower-id original
    assert sorted(dropped["vec_id"]) == list(range(1000, 1010))
    assert dropped.set_index("vec_id")["dup_of"].to_dict() == {
        1000 + i: i for i in range(10)}

    # partitioning invariance
    out2 = semantic_dedup(
        rd.from_arrow(pa.concat_tables([tbl, dup])).repartition(1),
        0.99, 4).to_pandas()
    a = sorted(map(tuple, out.fillna(-1).to_numpy()))
    b = sorted(map(tuple, out2.fillna(-1).to_numpy()))
    assert a == b


def test_knn_graph_tie_break_with_duplicate_vectors(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.ann import knn_graph

    # ids 0..7 all share ONE identical vector -> every neighbor score
    # ties at 1.0 and the (score DESC, dst ASC) rule fully determines
    # the graph; chunking must not disturb the tie order
    rng = np.random.default_rng(2)
    v = rng.standard_normal(8).tolist()
    tbl = pa.table({
        "vec_id": pa.array(range(8), type=pa.int64()),
        "embedding": pa.array([v] * 8, type=pa.list_(pa.float64())),
    })
    out = knn_graph(rd.from_arrow(tbl).repartition(3), 3).to_pandas()
    for src in range(8):
        dsts = out[out["src"] == src].sort_values("rank")["dst"].tolist()
        exp = [i for i in range(8) if i != src][:3]
        assert dsts == exp
