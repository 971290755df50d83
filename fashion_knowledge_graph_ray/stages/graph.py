"""Graph analytics over the materialized KG edge table.

The reference's only graph computation is the 1-hop weighted-neighbor
query (`/root/reference/src/database/graph_database.py:206-355`); node
IMPORTANCE is implicit in Neo4j edge weights. A batch KG engine wants a
global importance measure — PageRank — as a first-class operator (rank
entities for retrieval cutoffs, crawl prioritization, display order).

``pagerank`` here is **integer-quantized**: ranks live in fixed-point
``scale`` units (default 1e12) and every per-edge contribution is an
integer floor division. Rationale (same as the tf-idf integer idf in
stages/corpus.py): integer addition is associative/commutative in every
engine, so the result is BIT-IDENTICAL regardless of partitioning, sum
order, or the engine computing it — a float PageRank differs in final
ulps between any two execution orders and can never be hash-compared.
The floor quantization leaks ≤1 unit of mass per edge per iteration
(bounded, deterministic); at scale=1e12 the relative error per iteration
is ≤ E/1e12 of total mass — noise.

Scale shape (per iteration, all tables narrow int64 columns):
1. dangling mass = one filtered integer sum (aggregate, driver scalar);
2. contributions = one hash-shuffle join of edges (src,dst) with the
   rank state on src — per-batch pre-aggregation of (dst, contrib)
   partials bounds hot destinations to one row per block;
3. new state = one bucketed sum of partials left-joined onto the node
   table (nodes with no in-edges keep the base mass).

Above the broadcast gate the edge table is hash-partitioned by src ONCE
into object-store shards that persist across iterations
(``_pagerank_partitioned``); only the narrow (id, rank) state and
(dst, contrib) partials move per iteration. Multigraph semantics:
parallel (src,dst) duplicates each contribute; out-degree counts edges.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .bucketed import (
    bucketed_aggregate,
    bucketed_cogroup,
    bucketed_group_apply,
)


def _distinct_ids(edges_ds, src_col: str, dst_col: str):
    def explode(t: pa.Table) -> pa.Table:
        ids = pa.concat_arrays([t[src_col].combine_chunks().cast(pa.int64()),
                                t[dst_col].combine_chunks().cast(pa.int64())])
        return pa.table({"id": ids})

    return bucketed_aggregate(
        edges_ds.map_batches(explode, batch_format="pyarrow",
                             zero_copy_batch=True),
        ["id"], {})


def pagerank(edges_ds, *, src_col: str = "src", dst_col: str = "dst",
             weight_col: str | None = None, damping_pct: int = 85,
             iters: int = 10, scale: int = 10 ** 12,
             max_broadcast_nodes: int = 2_000_000):
    """Integer-quantized PageRank over a directed edge Dataset.

    Returns ``(id, rank)`` with ``rank`` in ``scale`` fixed-point units
    (sum over nodes ≈ scale, minus deterministic floor leakage).
    ``damping_pct`` is the damping factor in integer percent (85 = 0.85).

    Per iteration, for every node v::

        rank'[v] = floor(scale * (100-d) / (100 * n))          # teleport
                 + floor(dangling * d / (100 * n))             # dangling
                 + Σ_{u→v} floor(rank[u] * d * w(u,v)
                                 / (100 * W[u]))               # links

    with n = node count, dangling = Σ rank of out-mass-0 nodes, w = the
    integer edge weight (1 when ``weight_col`` is None — then W[u] is the
    out-degree and this is classic PageRank) and W[u] = Σ out-weights —
    every term an integer, so the fixpoint trajectory is exact. With
    ``weight_col`` this ranks the engine's own KG edge table (weighted
    co-occurrence edges, stages/aggregate.py) directly.

    Two regimes, identical results (same integer formula, switched on the
    node count — the usual two-regime design of this engine):

    - **broadcast ranks** (n ≤ ``max_broadcast_nodes``): the rank vector
      (8 B/node — 16 MB at the 2M default) broadcasts via ``ray.put``
      each iteration; the STATIC materialized edge table streams through
      a vectorized batch-local contribution kernel and ONE bucketed sum
      per iteration collects per-dst totals (≤ n tiny rows) back to the
      driver. Edges never re-shuffle.
    - **persistent partitions** (above the gate): edges hash-partition
      by src ONCE into object-store shards; per iteration only the
      narrow (id, rank) state and (dst, contrib) partials move
      (``_pagerank_partitioned``) — nothing driver-resident beyond B
      refs, B being the block count of the edge table.
    """

    def narrow(t: pa.Table) -> pa.Table:
        w = (t[weight_col].cast(pa.int64()) if weight_col
             else pa.array([1] * t.num_rows, type=pa.int64()))
        return pa.table({"src": t[src_col].cast(pa.int64()),
                         "dst": t[dst_col].cast(pa.int64()),
                         "w": w})

    edges = edges_ds.map_batches(narrow, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()

    nodes = _distinct_ids(edges, "src", "dst").materialize()
    n = nodes.count()
    if n == 0:
        return nodes.map_batches(
            lambda t: t.append_column("rank", pa.array([], type=pa.int64())),
            batch_format="pyarrow")

    # out-mass per src (Σ weights; = out-degree when unweighted)
    degs = bucketed_aggregate(edges, ["src"], {"deg": ("w", "sum")}) \
        .rename_columns({"src": "id"})

    if n <= max_broadcast_nodes:
        return _pagerank_broadcast(edges, nodes, degs, n, damping_pct,
                                   iters, scale)
    return _pagerank_partitioned(edges, nodes, degs, n, damping_pct,
                                 iters, scale)


def _contributions(src, dst, w, ids, deg, rank, d):
    """Per-edge link term ``floor(rank[u] * d * w / (100 * W[u]))`` for the
    edges ``src -> dst`` with weights ``w``; ``ids`` is sorted and holds
    every ``src``, ``deg`` (out-mass W) and ``rank`` align with it. Returns
    ``(dst, contrib)`` of the edges with a positive term.

    int64 vector math when ``rank*d*w`` provably fits, else exact Python
    ints — both compute the identical floor expression."""
    si = np.searchsorted(ids, src)
    sd, sr = deg[si], rank[si]
    valid = sd > 0
    w_max = int(w.max()) if len(w) else 0
    c = np.zeros(len(sd), dtype=np.int64)
    if w_max and int(sr.max()) * d * w_max < (1 << 62):
        # mask BEFORE the divide: zero out-mass sources would floor-divide
        # by zero
        c[valid] = (sr[valid] * d * w[valid]) // (100 * sd[valid])
    else:
        c = np.array([(int(r) * d * int(ww)) // (100 * int(g)) if g else 0
                      for r, ww, g in zip(sr, w, sd)], dtype=np.int64)
    mask = valid & (c > 0)
    return dst[mask], c[mask]


def _pagerank_partitioned(edges, nodes, degs, n, d, iters, scale):
    """Iteration-persistent hash-partitioned PageRank regime (above the
    broadcast gate).

    The Dataset API cannot express "partition once, iterate in place" —
    a ``groupby`` re-exchanges its whole input every call — so this
    regime drops to raw Ray tasks (the engine's documented last-resort
    tier) to pin the partitioning:

    - **setup, once**: the static narrow edge table is hash-partitioned
      by ``hash(src) % B`` into B object-store shards (B = the block count
      of the materialized edge table) that NEVER move again; the state
      table (id, deg, rank) is partitioned by ``hash(id) % B``, so every
      edge source is co-located with its rank.
    - **per iteration**: shard-local contribution kernels (vectorized
      searchsorted join + the integer floor formula) emit per-bucket
      ``(dst, contrib)`` partials via ``num_returns=B`` multi-returns —
      the ONLY bytes that move are those narrow partials plus the new
      state shards; dangling mass rides back as one int per shard.

    Bit-identical to the broadcast regime (integer sums are
    order-independent); bounded driver state (B refs + B ints)."""
    import ray
    import ray.data as rd

    from .bucketed import BUCKET_COL, _polars_hash_ok, add_bucket_column

    B = edges.num_blocks()
    up = _polars_hash_ok()

    _empty_contrib = pa.table({"dst": pa.array([], type=pa.int64()),
                               "contrib": pa.array([], type=pa.int64())})

    def _split_by(tbl: pa.Table, key: str):
        # B == 1: return the bare table — with num_returns=1 Ray hands the
        # remote fn's single return value through unchanged, so a 1-tuple
        # here would reach concat/_apply as a tuple instead of a table
        if B == 1:
            return tbl
        t = add_bucket_column(tbl, [key], use_polars=up)
        bc = t[BUCKET_COL].to_numpy(zero_copy_only=False) % B
        t = t.drop_columns([BUCKET_COL])
        return tuple(t.filter(pa.array(bc == j)) for j in range(B))

    def _multi(remote_fn, *args):
        refs = remote_fn.options(num_returns=B).remote(*args)
        return refs if isinstance(refs, list) else [refs]

    split_src = ray.remote(lambda tb: _split_by(tb, "src"))
    split_id = ray.remote(lambda tb: _split_by(tb, "id"))
    concat = ray.remote(lambda *ts: pa.concat_tables(ts))

    # edges: partition ONCE; shards stay in the object store across all
    # iterations
    epieces = [_multi(split_src, rb) for rb in edges.to_arrow_refs()]
    edge_shards = [concat.remote(*[p[j] for p in epieces])
                   for j in range(B)]

    npieces = [_multi(split_id, rb) for rb in nodes.to_arrow_refs()]
    dpieces = [_multi(split_id, rb) for rb in degs.materialize()
               .to_arrow_refs()]

    def _seed(node_t: pa.Table, deg_t: pa.Table):
        ids = np.sort(node_t["id"].to_numpy(zero_copy_only=False))
        deg = np.zeros(len(ids), dtype=np.int64)
        if deg_t.num_rows:
            idx = np.searchsorted(ids,
                                  deg_t["id"].to_numpy(zero_copy_only=False))
            deg[idx] = deg_t["deg"].to_numpy(zero_copy_only=False)
        state = pa.table({
            "id": pa.array(ids, type=pa.int64()),
            "deg": pa.array(deg, type=pa.int64()),
            "rank": pa.array(np.full(len(ids), scale // n, dtype=np.int64),
                             type=pa.int64())})
        return state, int((scale // n) * int((deg == 0).sum()))

    seed = ray.remote(num_returns=2)(_seed)
    seeded = [seed.remote(concat.remote(*[p[j] for p in npieces]),
                          concat.remote(*[p[j] for p in dpieces]))
              for j in range(B)]
    state = [s for s, _ in seeded]
    dangle_refs = [g for _, g in seeded]

    def _contrib(edge_t: pa.Table, state_t: pa.Table) -> tuple:
        import pandas as pd

        if edge_t.num_rows == 0 or state_t.num_rows == 0:
            return _empty_contrib if B == 1 \
                else tuple(_empty_contrib for _ in range(B))
        # every src is co-located with its state row by the shared hash
        dst, c = _contributions(
            *(edge_t[k].to_numpy(zero_copy_only=False)
              for k in ("src", "dst", "w")),
            *(state_t[k].to_numpy(zero_copy_only=False)
              for k in ("id", "deg", "rank")), d)
        df = pd.DataFrame({"dst": dst, "contrib": c})
        g = df.groupby("dst", sort=True)["contrib"].sum().reset_index()
        out = pa.table({"dst": pa.array(g["dst"], type=pa.int64()),
                        "contrib": pa.array(g["contrib"], type=pa.int64())})
        return _split_by(out, "dst")

    def _apply(state_t: pa.Table, base: int, *pieces: pa.Table):
        ids = state_t["id"].to_numpy(zero_copy_only=False)
        deg = state_t["deg"].to_numpy(zero_copy_only=False)
        acc = np.zeros(len(ids), dtype=np.int64)
        for p in pieces:
            if p.num_rows:
                idx = np.searchsorted(
                    ids, p["dst"].to_numpy(zero_copy_only=False))
                np.add.at(acc, idx,
                          p["contrib"].to_numpy(zero_copy_only=False))
        rank = acc + base
        new_state = pa.table({
            "id": state_t["id"], "deg": state_t["deg"],
            "rank": pa.array(rank, type=pa.int64())})
        return new_state, int(rank[deg == 0].sum())

    contrib = ray.remote(_contrib)
    apply_ = ray.remote(num_returns=2)(_apply)

    for _ in range(iters):
        dangling = sum(ray.get(dangle_refs))
        base = (scale * (100 - d)) // (100 * n) + (dangling * d) // (100 * n)
        cons = [_multi(contrib, edge_shards[j], state[j]) for j in range(B)]
        stepped = [apply_.remote(state[j], base,
                                 *[cons[i][j] for i in range(B)])
                   for j in range(B)]
        state = [s for s, _ in stepped]
        dangle_refs = [g for _, g in stepped]

    return rd.from_arrow_refs(state).map_batches(
        lambda t: t.select(["id", "rank"]),
        batch_format="pyarrow", zero_copy_batch=True)


def _pagerank_broadcast(edges, nodes, degs, n, d, iters, scale):
    """Broadcast-ranks PageRank regime (see ``pagerank`` docstring).

    Driver state: the sorted node-id array and one int64 rank vector
    (8 B/node). Per iteration: ranks ``ray.put`` once; the static edge
    table runs a vectorized contribution kernel (searchsorted src->index,
    int64 multiply/divide, ``_contributions``); one bucketed sum of the
    contributions streams ≤ n (dst, contrib) rows back.
    """
    import ray
    import ray.data as rd

    ids_sorted = np.sort(np.concatenate(
        [b["id"].to_numpy(zero_copy_only=False) for b in
         nodes.iter_batches(batch_format="pyarrow")] or
        [np.array([], dtype=np.int64)]))
    deg_arr = np.zeros(n, dtype=np.int64)
    for b in degs.iter_batches(batch_format="pyarrow"):
        idx = np.searchsorted(ids_sorted,
                              b["id"].to_numpy(zero_copy_only=False))
        deg_arr[idx] = b["deg"].to_numpy(zero_copy_only=False)
    ids_ref = ray.put((ids_sorted, deg_arr)) if ray.is_initialized() \
        else (ids_sorted, deg_arr)

    rank = np.full(n, scale // n, dtype=np.int64)
    dangling_mask = deg_arr == 0

    for _ in range(iters):
        dangling = int(rank[dangling_mask].sum())
        base = (scale * (100 - d)) // (100 * n) + (dangling * d) // (100 * n)
        rank_ref = ray.put(rank) if ray.is_initialized() else rank

        def contrib_batch(t: pa.Table) -> pa.Table:
            ids_s, degs_s = (ray.get(ids_ref)
                             if not isinstance(ids_ref, tuple) else ids_ref)
            rk = rank_ref if isinstance(rank_ref, np.ndarray) \
                else ray.get(rank_ref)
            dst, c = _contributions(
                *(t[k].to_numpy(zero_copy_only=False)
                  for k in ("src", "dst", "w")), ids_s, degs_s, rk, d)
            return pa.table({"dst": pa.array(dst, type=pa.int64()),
                             "contrib": pa.array(c, type=pa.int64())})

        sums = bucketed_aggregate(
            edges.map_batches(contrib_batch, batch_format="pyarrow",
                              zero_copy_batch=True),
            ["dst"], {"contrib": ("contrib", "sum")})
        acc = np.zeros(n, dtype=np.int64)
        for b in sums.iter_batches(batch_format="pyarrow"):
            idx = np.searchsorted(ids_sorted,
                                  b["dst"].to_numpy(zero_copy_only=False))
            acc[idx] = b["contrib"].to_numpy(zero_copy_only=False)
        rank = base + acc

    return rd.from_arrow(pa.table({
        "id": pa.array(ids_sorted, type=pa.int64()),
        "rank": pa.array(rank, type=pa.int64()),
    }))


def triangle_counts(edges_ds, *, src_col: str = "src",
                    dst_col: str = "dst",
                    max_broadcast_nodes: int = 2_000_000):
    """Per-node triangle counts of the UNDIRECTED simple graph underlying
    a directed edge Dataset (direction and parallel edges collapse).
    Output: ``(id, triangles)`` for nodes in ≥1 triangle.

    The degree-ordered wedge-join algorithm (the MapReduce-classic
    node-iterator++):

    1. distinct undirected pairs ``(a<b)`` — one bucketed distinct;
    2. degrees over those pairs — one bucketed sum;
    3. orient every edge from its lower-``(deg, id)`` endpoint to the
       higher — out-degrees are then O(sqrt(m)), the standard bound that
       keeps the wedge set near-linear in m on power-law graphs;
    4. wedges: group oriented edges by source, emit each out-neighbor
       pair — a bucketed groupby;
    5. close: hash-join wedge endpoint pairs against the oriented edge
       set on the pair key — one more bucketed exchange; every match is
       one triangle, credited to all three corners via a final keyed
       count.

    The degree map broadcasts via ``ray.put`` under
    ``max_broadcast_nodes`` (8–30 B/node); above the gate step 3 becomes
    two ``shuffle_join``s against the degree table (same orientation
    rule, nothing driver-resident). Ids may be any hashable Arrow type
    (the KG's string entity ids included).
    """
    import ray

    from .relational import shuffle_join

    def undirected(t: pa.Table) -> pa.Table:
        a, b = t[src_col], t[dst_col]
        lt = pc.less(a, b)
        return pa.table({"a": pc.if_else(lt, a, b),
                         "b": pc.if_else(lt, b, a)}) \
            .filter(pc.not_equal(a, b))

    und = bucketed_aggregate(
        edges_ds.map_batches(undirected, batch_format="pyarrow",
                             zero_copy_batch=True),
        ["a", "b"], {}).materialize()

    def ends(t: pa.Table) -> pa.Table:
        return pa.table({"id": pa.concat_arrays(
            [t["a"].combine_chunks(), t["b"].combine_chunks()])})

    degs = bucketed_aggregate(
        und.map_batches(ends, batch_format="pyarrow", zero_copy_batch=True),
        ["id"], {"deg": ("id", "count_all")})

    n = degs.count()
    if n <= max_broadcast_nodes:
        dm: dict = {}
        for b in degs.iter_batches(batch_format="pyarrow"):
            dm.update(zip(b["id"].to_pylist(), b["deg"].to_pylist()))
        dref = ray.put(dm) if ray.is_initialized() else dm

        def orient(t: pa.Table) -> pa.Table:
            d = dref if isinstance(dref, dict) else ray.get(dref)
            a = t["a"].to_pylist()
            b = t["b"].to_pylist()
            lo, hi, dv = [], [], []
            for x, y in zip(a, b):
                # orient from lower (deg, id) to higher; carry the head's
                # degree so wedge pairs can be ordered by the SAME total
                # order the closing edge was stored under
                if (d[x], x) <= (d[y], y):
                    lo.append(x)
                    hi.append(y)
                    dv.append(d[y])
                else:
                    lo.append(y)
                    hi.append(x)
                    dv.append(d[x])
            return pa.table({"u": pa.array(lo, type=t["a"].type),
                             "v": pa.array(hi, type=t["b"].type),
                             "dv": pa.array(dv, type=pa.int64())})

        oriented = und.map_batches(orient, batch_format="pyarrow",
                                   zero_copy_batch=True)
    else:
        j1 = shuffle_join(und, degs, "a", "id", suffix="_da")
        j1 = j1.map_batches(
            lambda t: t.rename_columns(
                [{"deg": "deg_a"}.get(c, c) for c in t.column_names]),
            batch_format="pyarrow", zero_copy_batch=True)
        j2 = shuffle_join(j1, degs, "b", "id", suffix="_db")

        def orient_j(t: pa.Table) -> pa.Table:
            import pandas as pd

            df = pd.DataFrame({
                "a": t["a"].to_pandas(), "b": t["b"].to_pandas(),
                "da": t["deg_a"].to_pandas(), "db": t["deg"].to_pandas()})
            fwd = (df["da"] < df["db"]) | ((df["da"] == df["db"])
                                           & (df["a"] <= df["b"]))
            u = df["a"].where(fwd, df["b"])
            v = df["b"].where(fwd, df["a"])
            dv = df["db"].where(fwd, df["da"])
            return pa.table({"u": pa.Array.from_pandas(u),
                             "v": pa.Array.from_pandas(v),
                             "dv": pa.array(dv, type=pa.int64())})

        oriented = j2.map_batches(orient_j, batch_format="pyarrow",
                                  zero_copy_batch=True)

    oriented = oriented.materialize()

    def wedges_of(t: pa.Table) -> pa.Table:
        import pandas as pd

        df = pd.DataFrame({"u": t["u"].to_pandas(),
                           "v": t["v"].to_pandas(),
                           "dv": t["dv"].to_pandas()})
        out_u, out_v, out_w = [], [], []
        for u, grp in df.groupby("u", sort=True):
            # neighbor pairs ordered by the orientation total order
            # (deg, id) — the closing edge between them is stored under
            # exactly this order, so the join key matches
            nbrs = sorted(zip(grp["dv"], grp["v"]))
            for i in range(len(nbrs)):
                for j in range(i + 1, len(nbrs)):
                    out_u.append(u)
                    out_v.append(nbrs[i][1])
                    out_w.append(nbrs[j][1])
        return pa.table({"cu": pa.array(out_u, type=t["u"].type),
                         "v": pa.array(out_v, type=t["v"].type),
                         "w": pa.array(out_w, type=t["v"].type)})

    wedges = bucketed_group_apply(oriented, ["u"], wedges_of)

    # close wedges against oriented edges on the (v, w) pair key
    def close_bucket(wt: pa.Table, et: pa.Table) -> pa.Table:
        import pandas as pd

        edf = pd.DataFrame({"v": et["u"].to_pandas(),
                            "w": et["v"].to_pandas()})
        m = wt.to_pandas().merge(edf.drop_duplicates(), on=["v", "w"],
                                 how="inner")
        # one row per triangle corner; the aggregate below counts them
        corners = pd.concat([m["cu"], m["v"], m["w"]])
        return pa.table({"id": pa.Array.from_pandas(corners, type=ut)})

    os_ = oriented.schema()  # materialized above: no re-execution
    ut, vt = (dict(zip(os_.names, os_.types))[c] for c in ("u", "v"))
    corners = bucketed_cogroup(
        wedges, oriented, ["v", "w"], close_bucket,
        left_schema=pa.schema([("cu", ut), ("v", vt), ("w", vt)]),
        right_schema=pa.schema([("u", ut), ("v", vt)]),
        right_keys=["u", "v"])
    return bucketed_aggregate(corners, ["id"],
                              {"triangles": ("id", "count_all")})
