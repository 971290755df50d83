"""Tests for stages/graph.py — integer-quantized PageRank: distributed
result must be BIT-identical to a sequential Python-int reference."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from fashion_knowledge_graph_ray.stages.graph import pagerank

SCALE = 10 ** 12


def _seq_pagerank(edges, iters=10, d=85, scale=SCALE):
    ids = sorted({u for u, _ in edges} | {v for _, v in edges})
    n = len(ids)
    deg: dict = {}
    for u, _ in edges:
        deg[u] = deg.get(u, 0) + 1
    rank = {i: scale // n for i in ids}
    for _ in range(iters):
        dangling = sum(rank[i] for i in ids if deg.get(i, 0) == 0)
        base = (scale * (100 - d)) // (100 * n) + (dangling * d) // (100 * n)
        acc = {i: 0 for i in ids}
        for u, v in edges:
            acc[v] += (rank[u] * d) // (100 * deg[u])
        rank = {i: base + acc[i] for i in ids}
    return rank


def _edges_ds(edges, parts=3):
    tbl = pa.table({"src": pa.array([a for a, _ in edges], type=pa.int64()),
                    "dst": pa.array([b for _, b in edges], type=pa.int64())})
    return rd.from_arrow(tbl).repartition(parts)


def test_pagerank_matches_sequential_ints(ray_session):
    # parallel edge, a dangling node (7), a cycle
    edges = [(1, 2), (1, 3), (2, 3), (3, 1), (4, 3), (1, 2), (3, 7)]
    out = pagerank(_edges_ds(edges), iters=10).to_pandas()
    exp = _seq_pagerank(edges)
    assert dict(zip(out["id"], out["rank"])) == exp
    # conservation: total mass stays within floor-leak of scale
    assert 0 <= SCALE - out["rank"].sum() < SCALE // 10**6


def test_pagerank_partition_invariance_random_graph(ray_session):
    rng = np.random.default_rng(5)
    edges = [(int(rng.integers(0, 40)), int(rng.integers(0, 40)))
             for _ in range(300)]
    exp = _seq_pagerank(edges, iters=6)
    for parts in (1, 8):
        # one shard and eight shards must both reproduce the sequential
        # ints exactly
        out = pagerank(_edges_ds(edges, parts), iters=6).to_pandas()
        assert dict(zip(out["id"], out["rank"])) == exp


def test_pagerank_empty(ray_session):
    ds = pagerank(_edges_ds([], 1), iters=3)
    sch = ds.schema()
    assert sch is not None
    assert list(sch.names) == ["id", "rank"]
    assert list(sch.types) == [pa.int64(), pa.int64()]
    assert ds.count() == 0


def test_pagerank_runs_no_dataset_exchange(ray_session, monkeypatch):
    # set-up and iterations are raw tasks over shards partitioned once:
    # no Dataset.sort and no bucketed_* exchange anywhere in the call
    from fashion_knowledge_graph_ray.stages import bucketed, graph

    calls = []

    def spy(name, fn):
        def wrapped(*a, **k):
            calls.append(name)
            return fn(*a, **k)
        return wrapped

    monkeypatch.setattr(rd.Dataset, "sort", spy("sort", rd.Dataset.sort))
    for mod in (bucketed, graph):
        for name in ("bucketed_aggregate", "bucketed_group_apply",
                     "bucketed_cogroup"):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
    edges = [(1, 2), (1, 3), (2, 3), (3, 1), (4, 3), (1, 2), (3, 7)]
    out = pagerank(_edges_ds(edges, 4), iters=3).to_pandas()
    assert calls == []
    assert dict(zip(out["id"], out["rank"])) == _seq_pagerank(edges, iters=3)


def test_pagerank_cycle_over_mostly_empty_shards(ray_session):
    # 3 edges over 16 blocks: most blocks are empty (column-less after the
    # narrow map) and most shards own no node
    edges = [(1, 2), (2, 3), (3, 1)]
    ds = _edges_ds(edges, 16)
    assert ds.materialize().num_blocks() == 16
    out = pagerank(ds, iters=7).to_pandas()
    assert dict(zip(out["id"], out["rank"])) == _seq_pagerank(edges, iters=7)


def test_pagerank_weighted_matches_sequential(ray_session):
    # weighted edges == replicating each edge `w` times in the classic
    # formulation (exact integer identity: w scales both numerator and
    # out-mass)
    edges_w = [(1, 2, 3), (1, 3, 1), (2, 3, 2), (3, 1, 5)]
    tbl = pa.table({
        "src": pa.array([a for a, _, _ in edges_w], type=pa.int64()),
        "dst": pa.array([b for _, b, _ in edges_w], type=pa.int64()),
        "weight": pa.array([w for _, _, w in edges_w], type=pa.int64()),
    })
    out = pagerank(rd.from_arrow(tbl).repartition(2),
                   weight_col="weight", iters=8).to_pandas()

    ids = [1, 2, 3]
    n = len(ids)
    W = {1: 4, 2: 2, 3: 5}
    d = 85
    rank = {i: SCALE // n for i in ids}
    for _ in range(8):
        dangling = sum(rank[i] for i in ids if W.get(i, 0) == 0)
        base = (SCALE * 15) // (100 * n) + (dangling * d) // (100 * n)
        acc = {i: 0 for i in ids}
        for u, v, w in edges_w:
            acc[v] += (rank[u] * d * w) // (100 * W[u])
        rank = {i: base + acc[i] for i in ids}
    assert dict(zip(out["id"], out["rank"])) == rank


def _seq_triangles(edges):
    und = {tuple(sorted(e)) for e in edges if e[0] != e[1]}
    adj: dict = {}
    for a, b in und:
        adj.setdefault(a, set()).add(b)
        adj.setdefault(b, set()).add(a)
    counts: dict = {}
    for a, b in und:
        for c in adj[a] & adj[b]:
            for node in (a, b, c):
                counts[node] = counts.get(node, 0) + 1
    # each triangle seen via 3 edges -> corner counted 3x
    return {k: v // 3 for k, v in counts.items() if v // 3 > 0}


def test_triangle_counts_random_vs_bruteforce(ray_session):
    from fashion_knowledge_graph_ray.stages.graph import triangle_counts

    rng = np.random.default_rng(17)
    # skewed degrees: a few hubs force wedge pairs whose value order
    # disagrees with the (deg, id) orientation order — the case the
    # closing-edge join must still match
    edges = [(int(rng.integers(0, 12)), int(rng.integers(0, 60)))
             for _ in range(250)]
    exp = _seq_triangles(edges)
    for gate in (2_000_000, 0):  # broadcast-deg and shuffle-orient regimes
        out = triangle_counts(_edges_ds(edges, 5),
                              max_broadcast_nodes=gate).to_pandas()
        assert dict(zip(out["id"], out["triangles"])) == exp


def test_triangle_counts_string_ids(ray_session):
    import pyarrow as pa
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.graph import triangle_counts

    edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
    tbl = pa.table({"src": [e[0] for e in edges],
                    "dst": [e[1] for e in edges]})
    out = triangle_counts(rd.from_arrow(tbl).repartition(2)).to_pandas()
    assert dict(zip(out["id"], out["triangles"])) == \
        {"a": 1, "b": 1, "c": 1}


def test_pagerank_zero_weight_source_no_divide(ray_session):
    # a src whose weights sum to 0 must contribute nothing (and must not
    # floor-divide by zero in the vectorized contribution kernel)
    import warnings

    tbl = pa.table({
        "src": pa.array([1, 1, 2], type=pa.int64()),
        "dst": pa.array([2, 3, 3], type=pa.int64()),
        "weight": pa.array([0, 0, 5], type=pa.int64()),
    })
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # RuntimeWarning -> failure
        out = pagerank(rd.from_arrow(tbl), weight_col="weight",
                       iters=4).to_pandas()
    ranks = dict(zip(out["id"], out["rank"]))
    # node 1 has zero out-mass -> dangling; sequential reference
    edges = [(2, 3, 5)]
    ids = [1, 2, 3]
    W = {2: 5}
    rank = {i: SCALE // 3 for i in ids}
    for _ in range(4):
        dangling = sum(rank[i] for i in ids if W.get(i, 0) == 0)
        base = (SCALE * 15) // 300 + (dangling * 85) // 300
        acc = {i: 0 for i in ids}
        for u, v, w in edges:
            acc[v] += (rank[u] * 85 * w) // (100 * W[u])
        rank = {i: base + acc[i] for i in ids}
    assert ranks == rank


def test_pagerank_partitioned_single_bucket(ray_session):
    # a one-block edge table gives one shard: it used to hand 1-tuples of
    # tables through num_returns=1 remotes, so the shard tasks received
    # tuples instead of tables. The B==1 unwrap must keep ranks exact.
    edges = [(1, 2), (1, 3), (2, 3), (3, 1), (4, 3), (1, 2), (3, 7)]
    exp = _seq_pagerank(edges)
    one_block = _edges_ds(edges, 1)
    assert one_block.materialize().num_blocks() == 1
    out = pagerank(one_block, iters=10).to_pandas()
    assert dict(zip(out["id"], out["rank"])) == exp


_STR_EMPTY = pa.table({"src": pa.array([], type=pa.string()),
                       "dst": pa.array([], type=pa.string())})


@pytest.mark.parametrize("name", ["empty", "self_loops", "path"])
def test_triangle_counts_none_found_is_typed_empty(ray_session, name):
    # no non-loop edge (empty / self-loops only) used to raise on the
    # schema-less oriented table; a triangle-free path returned a
    # schema-less Dataset. All three give a typed empty (id, triangles),
    # id typed as the input's src column.
    from fashion_knowledge_graph_ray.stages.graph import triangle_counts

    ds, id_type = {
        "empty": lambda: (rd.from_arrow([_STR_EMPTY] * 3), pa.string()),
        "self_loops": lambda: (_edges_ds([(1, 1), (2, 2), (2, 2)], 2),
                               pa.int64()),
        "path": lambda: (_edges_ds([(1, 2), (2, 3)], 2), pa.int64()),
    }[name]()
    for gate in (2_000_000, 0):  # broadcast-deg and shuffle-orient regimes
        out = triangle_counts(ds, max_broadcast_nodes=gate)
        sch = out.schema()
        assert sch is not None, gate
        assert dict(zip(sch.names, sch.types)) == \
            {"id": id_type, "triangles": pa.int64()}, gate
        assert out.count() == 0, gate
