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

Scale shape: one Ray Data execution materializes the narrow
``(src, dst, w)`` edge table; raw tasks then hash-partition it by src
ONCE into object-store shards that persist across iterations, each shard
building its own node ids and out-mass from its edges and the dst ids
routed to it. Per iteration only the narrow ``(dst, contrib)`` partials
(per-shard pre-aggregated, so a hot destination is one row per shard)
and the new ``(id, deg, rank)`` state shards move; dangling mass is one
int per shard. Multigraph semantics: parallel (src,dst) duplicates each
contribute; out-degree counts edges.
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


def pagerank(edges_ds, *, src_col: str = "src", dst_col: str = "dst",
             weight_col: str | None = None, damping_pct: int = 85,
             iters: int = 10, scale: int = 10 ** 12):
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

    One Ray Data execution (the narrow ``(src, dst, w)`` map,
    materialized into B blocks), then raw Ray tasks: the Dataset API
    cannot express "partition once, iterate in place" — a ``groupby``
    re-exchanges its whole input every call — so this drops to the
    engine's documented last-resort tier to pin the partitioning:

    - **set-up, once**: each block splits into B edge pieces by
      ``hash(src) % B`` and B dst-id pieces by ``hash(dst) % B``. Shard j
      concatenates its edge pieces into an object-store shard that NEVER
      moves again, and builds its own node state: ids = the distinct
      sources plus routed dst ids, out-mass W = Σ w per source (every
      edge of a source is in that source's shard). n = Σ shard sizes.
    - **per iteration**: shard-local contribution kernels (vectorized
      searchsorted join + the integer floor formula) emit per-bucket
      ``(dst, contrib)`` partials via ``num_returns=B`` multi-returns —
      the ONLY bytes that move are those narrow partials plus the new
      state shards; dangling mass rides back as one int per shard.

    Integer sums are order-independent, so ranks do not depend on B or
    on the block layout; driver state is B refs + B ints. There is no
    broadcast-ranks regime for small graphs: one (ranks ``ray.put`` plus
    one sort exchange per iteration) was slower at every size measured,
    medians on 4 CPUs: lineitem edges 0.86 / 1.48 / 5.10 s at sf0.001 /
    sf0.01 / sf0.1 against 0.72 / 0.80 / 1.34 s here (5 iterations).
    """
    import ray
    import ray.data as rd

    from .bucketed import _route

    def narrow(t: pa.Table) -> pa.Table:
        w = (t[weight_col].cast(pa.int64()) if weight_col
             else pa.array([1] * t.num_rows, type=pa.int64()))
        return pa.table({"src": t[src_col].cast(pa.int64()),
                         "dst": t[dst_col].cast(pa.int64()),
                         "w": w})

    edges = edges_ds.map_batches(narrow, batch_format="pyarrow",
                                 zero_copy_batch=True).materialize()
    B = edges.num_blocks()
    d = damping_pct

    def _typed(*cols: str) -> pa.Table:
        return pa.table({c: pa.array([], type=pa.int64()) for c in cols})

    def _split(tbl: pa.Table, key: str) -> list:
        # hash_partition's routing split: piece j holds hash(key) mod B == j
        return [tbl] if B == 1 else _route(tbl, [key], B)

    def _split_block(t: pa.Table) -> tuple:
        # Ray never maps a 0-row block, so the materialized narrow map can
        # hold column-less empty blocks: they split into typed empties
        if t.num_rows == 0:
            t = _typed("src", "dst", "w")
        ids = t.select(["dst"]).rename_columns(["id"])
        return (*_split(t, "src"), *_split(ids, "id"))

    def _setup(*pieces: pa.Table) -> tuple:
        edge_t = pa.concat_tables(pieces[:B])
        src = edge_t["src"].to_numpy(zero_copy_only=False)
        ids = np.unique(np.concatenate(
            [src, *(p["id"].to_numpy(zero_copy_only=False)
                    for p in pieces[B:])]))
        deg = np.zeros(len(ids), dtype=np.int64)
        np.add.at(deg, np.searchsorted(ids, src),
                  edge_t["w"].to_numpy(zero_copy_only=False))
        state = pa.table({"id": pa.array(ids, type=pa.int64()),
                          "deg": pa.array(deg, type=pa.int64())})
        return edge_t, state, len(ids)

    def _contrib(edge_t: pa.Table, state_t: pa.Table):
        import pandas as pd

        out = _typed("dst", "contrib")
        if edge_t.num_rows and state_t.num_rows:
            # every src is co-located with its state row by the shared hash
            dst, c = _contributions(
                *(edge_t[k].to_numpy(zero_copy_only=False)
                  for k in ("src", "dst", "w")),
                *(state_t[k].to_numpy(zero_copy_only=False)
                  for k in ("id", "deg", "rank")), d)
            g = pd.DataFrame({"dst": dst, "contrib": c}) \
                .groupby("dst", sort=True)["contrib"].sum()
            out = pa.table({"dst": pa.array(g.index, type=pa.int64()),
                            "contrib": pa.array(g.values, type=pa.int64())})
        parts = _split(out, "dst")
        # with num_returns=1 Ray hands the single return value (and its
        # single ref) through unwrapped: one shard returns the bare table
        return parts[0] if B == 1 else tuple(parts)

    def _apply(state_t: pa.Table, base: int, *pieces: pa.Table) -> tuple:
        ids = state_t["id"].to_numpy(zero_copy_only=False)
        deg = state_t["deg"].to_numpy(zero_copy_only=False)
        rank = np.full(len(ids), base, dtype=np.int64)
        for p in pieces:
            if p.num_rows:
                np.add.at(rank, np.searchsorted(
                    ids, p["dst"].to_numpy(zero_copy_only=False)),
                    p["contrib"].to_numpy(zero_copy_only=False))
        new_state = pa.table({"id": state_t["id"], "deg": state_t["deg"],
                              "rank": pa.array(rank, type=pa.int64())})
        return new_state, int(rank[deg == 0].sum())

    split_block = ray.remote(num_returns=2 * B)(_split_block)
    setup = ray.remote(num_returns=3)(_setup)
    contrib = ray.remote(num_returns=B)(_contrib)
    apply_ = ray.remote(num_returns=2)(_apply)

    pieces = [split_block.remote(rb) for rb in edges.to_arrow_refs()]
    shards = [setup.remote(*[p[j] for p in pieces],
                           *[p[B + j] for p in pieces]) for j in range(B)]
    edge_shards = [e for e, _, _ in shards]
    del edges, pieces  # the shards hold the only copy the iterations read
    n = sum(ray.get([k for _, _, k in shards]))
    if n == 0:
        return rd.from_arrow(_typed("id", "rank"))

    # the seed state is an apply with no partials: rank = scale // n
    stepped = [apply_.remote(s, scale // n) for _, s, _ in shards]
    for _ in range(iters):
        dangling = sum(ray.get([g for _, g in stepped]))
        base = (scale * (100 - d)) // (100 * n) + (dangling * d) // (100 * n)
        state = [s for s, _ in stepped]
        cons = [contrib.remote(edge_shards[j], state[j]) for j in range(B)]
        cons = [[c] for c in cons] if B == 1 else cons
        stepped = [apply_.remote(state[j], base,
                                 *[cons[i][j] for i in range(B)])
                   for j in range(B)]

    return rd.from_arrow_refs([s for s, _ in stepped]).map_batches(
        lambda t: t.select(["id", "rank"]),
        batch_format="pyarrow", zero_copy_batch=True)


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
    (the KG's string entity ids included); with no triangle the result
    is a typed empty table, ``id`` typed as ``src_col`` (int64 when the
    input Dataset carries no schema).

    Both sides timed on the ``triangles_parts`` edges (medians of 5
    alternating runs, 4 CPUs, equal answers): broadcast orient 0.75 s
    against shuffle orient 1.20 s at sf0.01 (11,910 edges), 3.08 s
    against 4.31 s at sf0.1 (121,336 edges). Both inputs sit far below
    the gate, so the crossover is unmeasured.
    """
    import ray
    import ray.data as rd

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

    def none_found():
        # a typed empty result: Ray Data never maps a 0-row block, so the
        # exchanges below return schema-less Datasets on an empty input
        sch = edges_ds.schema()
        it = dict(zip(sch.names, sch.types))[src_col] if sch else pa.int64()
        return rd.from_arrow(pa.table({
            "id": pa.array([], type=it),
            "triangles": pa.array([], type=pa.int64())}))

    n = degs.count()
    if n == 0:  # no non-loop edge
        return none_found()
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
    out = bucketed_aggregate(corners, ["id"],
                             {"triangles": ("id", "count_all")}).materialize()
    return out if out.count() else none_found()
