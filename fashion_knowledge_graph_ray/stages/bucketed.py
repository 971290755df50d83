"""Bucketed group application — the scale-shape for keyed reductions and
two-sided keyed exchanges (``bucketed_group_apply`` for one input,
``bucketed_cogroup`` for two, ``bucketed_aggregate`` for a decomposable
keyed aggregate over one input), the raw-task exchanges of the KG builds
(``hash_partition`` routes rows to shards by a key hash,
``bucketed_write_kinds`` reduces and writes several tables, each on its
own key), and the one ordered exchange, ``prefix_scan`` (a global sort
plus an exclusive prefix sum, the scan under packing, quantiles and
global row indexes).

``Dataset.groupby(keys).map_groups(fn)`` invokes ``fn`` once per group; with
millions of tiny groups (edge keys, triple keys) the per-group Python
dispatch dominates. The idiomatic fix at scale is to shuffle by a hash of
the key and run ONE vectorized function per shuffled block — each block
holds one or more whole keys — that does the per-key work with
Arrow/pandas groupby kernels inside.

The bucket is the 64-bit key hash itself, and ``Dataset.sort`` on it
sizes the Dataset exchanges: its range partitioner makes as many output
blocks as the sort has input blocks (``ray/data/_internal/planner/sort.py``)
and never splits one value across two of them. So all rows of a key land in one
block and per-key semantics are exact, while the fan-out follows the
input instead of a per-query constant (*Hyper Dimension Shuffle*, VLDB
2019); the tag stage batches 16384 rows, so small blocks coalesce before
the sort. ``hash_partition`` and ``bucketed_write_kinds`` size their
fan-out the same way, S shards for S input blocks or units, but route
``__bucket mod S`` with raw tasks that share one split (``_split_rows``):
a build's url dedup and KG finals are a few short tasks, and Ray Data's
streaming executor, which polls running tasks every 100 ms, made up most
of their wall time. The halves of ``bucketed_write_kinds``,
``map_kinds`` and ``merge_kinds``, serve a caller that fixes S from its
input and submits maps as their units become known.
There is one bucket hash, polars' xxhash ``Expr.hash`` with seed 0: it
is process-stable, so every task of a run buckets a key alike and bucket
assignment is deterministic (never use builtin ``hash``). polars is a
required dependency, imported inside ``add_bucket_column`` so that only
the processes that hash load it: with numpy, pyarrow and pandas loaded,
importing polars 1.42 takes a Python 3.11 process from 101 to 124-125 MB
RSS.

Skewed keys: a single hot KEY cannot be split across blocks, but every
caller here pre-aggregates per input batch first (partial combine;
``bucketed_aggregate`` is that combine for sums, counts, min and max), so a
hot key arrives as at most one row per upstream batch. There is no salted
two-phase path (SURVEY.md §4.3): it never beat this on any measured skew
fixture. Split a key only where a measured hot bucket calls for it
(*FP-Hadoop*, VLDB 2015).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BUCKET_COL = "__bucket"
_KIND_COL = "__kind"


def add_bucket_column(batch: pa.Table, keys: list[str]) -> pa.Table:
    """Vectorized int64 bucket: the hash of the concatenated key columns,
    polars' xxhash-based ``Expr.hash`` (seed 0) viewed as int64 — stable
    across worker processes, which is all bucketing needs (outputs never
    depend on WHICH bucket a key lands in, only on co-location)."""
    if batch.num_rows == 0:
        return batch.append_column(BUCKET_COL, pa.array([], type=pa.int64()))
    import polars as pl

    df = pl.from_arrow(batch.select(keys))
    if len(keys) == 1 and pa.types.is_integer(
            batch.schema.field(keys[0]).type):
        # integer keys (band_key, content hashes) hash natively —
        # no per-row int->utf8 cast on the tag stage of every shuffle
        expr = pl.col(keys[0])
    elif len(keys) > 1:
        expr = pl.concat_str([pl.col(k).cast(pl.Utf8) for k in keys],
                             separator="\x1f")
    else:
        expr = pl.col(keys[0]).cast(pl.Utf8)
    b = df.select(expr.hash(seed=0).alias("h"))["h"].to_numpy() \
        .view(np.int64)
    return batch.append_column(BUCKET_COL, pa.array(b))


def bucketed_group_apply(ds, keys: list[str], bucket_fn):
    """Shuffle ``ds`` by the hash of ``keys`` and apply ``bucket_fn``
    (pa.Table -> pa.Table, vectorized) once per shuffled block. There is
    one shuffled block per block of ``ds``, except that the tag stage
    coalesces blocks smaller than its 16384-row batch.

    Contract: each call receives ALL rows of every key it sees, never
    part of a key. Which keys share a call depends on the block layout,
    so ``bucket_fn`` must be keyed (per-key results independent of the
    other keys in the table). ``bucket_fn`` receives the table without
    the bucket column; empty blocks are skipped."""

    def tag(batch: pa.Table) -> pa.Table:
        return add_bucket_column(batch, keys)

    def apply(t: pa.Table):
        if t.num_rows:
            yield bucket_fn(t.drop_columns([BUCKET_COL]))

    tagged = ds.map_batches(tag, batch_format="pyarrow",
                            batch_size=16384, zero_copy_batch=True)
    # Ray's range-partitioned sort never splits one key value across
    # output blocks, and batch_size=None hands each block to ``apply``
    # whole — the same two guarantees ``map_groups`` is built on (it is
    # ``sort`` + ``map_batches(batch_size=None)``, ray/data/grouped_data.py),
    # minus its per-group split, which cost one ``bucket_fn`` set-up per
    # bucket inside a single serial task.
    return tagged.sort(BUCKET_COL).map_batches(
        apply, batch_format="pyarrow", batch_size=None)


def _group_by(t: pa.Table, keys: list[str], spec) -> pa.Table:
    """``t.group_by(keys).aggregate(spec)`` with each null key one group.

    pyarrow 16's multi-column grouper can split one key that holds a null
    into several groups (seen whenever an integer key column is among the
    keys). So with several key columns, each one that has nulls is
    grouped by its dictionary codes (the null encoded as one code) and
    decoded afterwards."""
    dicts = {}
    if len(keys) > 1:
        for k in keys:
            if t[k].null_count:
                enc = pc.dictionary_encode(t[k].combine_chunks(),
                                           null_encoding="encode")
                dicts[k] = enc.dictionary
                t = t.set_column(t.schema.get_field_index(k), k, enc.indices)
    g = t.group_by(keys, use_threads=False).aggregate(spec)
    for k, d in dicts.items():
        g = g.set_column(g.schema.get_field_index(k), k, d.take(g[k]))
    return g


# how each partial merges in the final group_by: counts add up
_MERGE_OP = {"sum": "sum", "count": "sum", "count_all": "sum",
             "min": "min", "max": "max"}


def bucketed_aggregate(ds, keys: list[str], aggs: dict):
    """Keyed aggregate: one row per distinct ``keys`` tuple with one column
    per ``aggs`` entry, ``{name: (col, op)}`` with ``op`` one of ``sum``,
    ``count`` (non-null values of ``col``), ``count_all`` (rows; ``col``
    is ignored), ``min`` or ``max``. An empty ``aggs`` gives the distinct
    keys. Output columns: ``keys``, then the ``aggs`` names in order.

    Partial/final split: one Arrow ``group_by`` per input block (a hot key
    ships one row per block), then ``bucketed_group_apply`` with the final
    ``group_by`` — counts merge by sum and come out as int64, min and max
    by themselves. Null keys form one group, as in SQL ``GROUP BY``."""
    keys = list(keys)
    names = list(aggs)
    first = [([], "count_all") if op == "count_all" else (col, op)
             for col, op in aggs.values()]
    final = [(n, _MERGE_OP[op]) for n, (_, op) in aggs.items()]

    def group(spec):
        def fn(t: pa.Table) -> pa.Table:
            # pyarrow puts the keys first, then one column per aggregate
            return _group_by(t, keys, spec).rename_columns(keys + names)
        return fn

    partials = ds.map_batches(group(first), batch_format="pyarrow",
                              zero_copy_batch=True)
    return bucketed_group_apply(partials, keys, group(final))


def _padded_schema(schemas) -> pa.Schema:
    """The one row layout of a multi-input exchange: ``__bucket``,
    ``__kind``, then every kind's columns under the names ``__{k}_{i}``
    (so kinds that share a column name never collide)."""
    return pa.schema([(BUCKET_COL, pa.int64()), (_KIND_COL, pa.int8())]
                     + [(f"__{k}_{i}", typ) for k, s in enumerate(schemas)
                        for i, typ in enumerate(s.types)])


def _pad(t: pa.Table, bucket, kind: int, schemas,
         padded: pa.Schema) -> pa.Table:
    """Kind ``kind``'s rows in the padded layout: its own columns cast to
    ``schemas[kind]``, every other kind's columns typed nulls."""
    n = t.num_rows
    cols = []
    for k, s in enumerate(schemas):
        if k == kind:
            cols += [t[c] if t[c].type == typ else t[c].cast(typ)
                     for c, typ in zip(s.names, s.types)]
        else:
            cols += [pa.nulls(n, type=typ) for typ in s.types]
    return pa.Table.from_arrays(
        [bucket, pa.array(np.full(n, kind, np.int8))] + cols, schema=padded)


def _unpad(t: pa.Table, kind: int, schemas) -> pa.Table:
    """Kind ``kind``'s rows of a padded block, under its own names."""
    s = schemas[kind]
    return t.select([f"__{kind}_{i}" for i in range(len(s.names))]) \
        .filter(pc.equal(t[_KIND_COL], kind)).rename_columns(s.names)


def tag_kinds(tables, keys, schemas) -> pa.Table:
    """Several tables in one padded layout for ``bucketed_write_kinds``.

    ``tables[k]`` (None or empty for none) holds kind ``k``'s rows with
    the columns of ``schemas[k]``; each row's ``__bucket`` is the hash of
    its own kind's ``keys[k]``, so one sort co-locates the whole keys of
    every kind."""
    padded = _padded_schema(schemas)
    parts = [_pad(t, add_bucket_column(t, kk)[BUCKET_COL], k, schemas,
                  padded)
             for k, (t, kk) in enumerate(zip(tables, keys))
             if t is not None and t.num_rows]
    return pa.concat_tables(parts) if parts else padded.empty_table()


def write_empty_if_bare(path: str, schema: pa.Schema) -> None:
    """Leave a typed empty parquet file in ``path`` if it holds no parquet
    file, so the directory always reads back with ``schema``."""
    import pyarrow.parquet as pq

    if not any(f.endswith(".parquet") for f in os.listdir(path)):
        pq.write_table(schema.empty_table(), os.path.join(path,
                                                          "empty.parquet"))


def _split_rows(t: pa.Table, s: int) -> list[pa.Table]:
    """``t`` in ``s`` pieces, piece j holding the rows whose ``__bucket
    mod s`` is j. Each piece is its own ``take``: a pickled slice would
    carry the whole table's buffers."""
    shard = np.mod(t[BUCKET_COL].to_numpy(), s)
    order = np.argsort(shard, kind="stable")
    ends = np.cumsum(np.bincount(shard, minlength=s))
    return [t.take(order[lo:hi]) for lo, hi in zip(
        np.concatenate([[0], ends[:-1]]), ends)]


def _split_kinds(i: int, unit, map_fn, s: int, *parts):
    """Map task of ``bucketed_write_kinds``: ``map_fn(i, unit)`` (rows of
    ``tag_kinds``) in ``s`` pieces by ``__bucket mod s``, then None, the
    task's done object. A list unit arrives as ``parts`` (``unit`` None),
    each ObjectRef in it resolved."""
    return [*_split_rows(map_fn(i, list(parts) if unit is None else unit),
                         s), None]


def _route(t: pa.Table, keys: list[str], s: int):
    """Routing task of ``hash_partition``: ``t`` in ``s`` pieces by the
    hash of ``keys`` mod ``s``, without the bucket column."""
    pieces = [p.drop_columns([BUCKET_COL]) for p in _split_rows(
        add_bucket_column(t, keys), s)]
    return pieces if s > 1 else pieces[0]


def hash_partition(blocks, keys: list[str]) -> list[list]:
    """The rows of ``blocks`` (tables or ObjectRefs of them) in S shards
    by the hash of ``keys`` mod S, S being the number of blocks: shard j
    is the list of piece j of every block (ObjectRefs), so all rows of a
    key are in one shard. One raw routing task per block, splitting as
    ``bucketed_write_kinds`` does; one block is its own shard, with no
    task.
    A consumer passes a shard to a task as separate arguments (or as a
    list unit of ``bucketed_write_kinds``) so its pieces arrive resolved."""
    import ray

    s = len(blocks)
    if s <= 1:
        return [list(blocks)] if s else []
    route = ray.remote(_route).options(num_returns=s)
    pieces = [route.remote(b, keys, s) for b in blocks]
    return [[p[j] for p in pieces] for j in range(s)]


def _merge_kinds(j: int, spec, *pieces) -> None:
    """Merge task of ``bucketed_write_kinds``: shard ``j``'s pieces, each
    kind's rows through its fn, one file per kind at a path fixed by
    ``j``, so a retried task overwrites its own files."""
    import pyarrow.parquet as pq

    schemas, fns, paths = spec
    t = pa.concat_tables(pieces)
    for k, fn in enumerate(fns):
        rows = _unpad(t, k, schemas)
        if rows.num_rows:
            pq.write_table(fn(rows), os.path.join(paths[k],
                                                  f"part-{j:05d}.parquet"))


def map_kinds(units, map_fn, s: int) -> list[list]:
    """The map half of ``bucketed_write_kinds``: submit one map task per
    unit, ``map_fn(i, unit)``, whose ``tag_kinds`` rows split by
    ``__bucket mod s`` into ``s`` pieces; return each task's refs: its
    ``s`` pieces, then its done object. An ObjectRef unit arrives
    resolved; a list unit (a ``hash_partition`` shard, a group of files)
    goes to its task as separate arguments, so each ObjectRef in it
    arrives resolved too.
    Several calls with the same ``s`` may feed one ``merge_kinds``, so
    maps start before every unit is known.

    The done object is None: ``ray.get`` on the done refs raises if a
    task failed and fetches no piece to the driver."""
    import ray

    if not units:
        return []
    split = ray.remote(_split_kinds).options(num_returns=s + 1)
    fn_ref = ray.put(map_fn)
    return [split.remote(i, None, fn_ref, s, *u) if isinstance(u, list)
            else split.remote(i, u, fn_ref, s)
            for i, u in enumerate(units)]


def merge_kinds(pieces, schemas, fns, paths, out_schemas, *,
                meanwhile=None) -> None:
    """The merge half of ``bucketed_write_kinds``: merge task j
    concatenates piece j of every map in ``pieces`` (``map_kinds``'
    refs), applies ``fns[k]`` (pa.Table -> pa.Table, keyed, as in
    ``bucketed_group_apply``) to kind ``k``'s rows and writes
    ``paths[k]/part-{j:05d}.parquet``. ``meanwhile`` (no arguments) runs
    on the driver once every merge is submitted; then the merges are
    awaited, and a path that got no file gets a typed empty one of
    ``out_schemas[k]``, so every output reads back with its schema."""
    import ray

    for p in paths:
        os.makedirs(p, exist_ok=True)
    done = []
    if pieces:
        merge = ray.remote(_merge_kinds)
        spec = ray.put((list(schemas), list(fns), list(paths)))
        done = [merge.remote(j, spec, *[p[j] for p in pieces])
                for j in range(len(pieces[0]) - 1)]
    if meanwhile is not None:
        meanwhile()
    ray.get(done)
    for p, schema in zip(paths, out_schemas):
        write_empty_if_bare(p, schema)


def bucketed_write_kinds(units, map_fn, schemas, fns, paths, out_schemas, *,
                         meanwhile=None) -> None:
    """The multi-table exchange, on raw Ray tasks: several tables, each
    reduced on its own key and written under its own path.

    ``map_kinds`` runs one map task per unit with S = the number of
    units (as ``Dataset.sort`` makes one output block per input block),
    then ``merge_kinds`` one merge task per shard. Every row of a key of
    a kind lands in one shard.

    No Ray Data execution runs. Its streaming executor polls running
    tasks every 100 ms: through it (one read, map, sort and multi-table
    sink) the ``resume_one_part`` finals took 0.47-0.49 s on 4 CPUs, on
    raw tasks 0.17-0.19 s (medians of 5, seeds 1-3)."""
    merge_kinds(map_kinds(units, map_fn, len(units)), schemas, fns, paths,
                out_schemas, meanwhile=meanwhile)


def bucketed_cogroup(left, right, keys: list[str], fn, *, left_schema,
                     right_schema, right_keys: list[str] | None = None):
    """Two-sided ``bucketed_group_apply``: shuffle ``left`` and ``right``
    by the SAME hash of their keys and call ``fn(l, r)`` (two
    pa.Tables -> pa.Table) once per shuffled block.

    ``l`` and ``r`` carry each side's own column names and the types of
    ``left_schema`` / ``right_schema`` (anything with ``.names`` and
    ``.types``; each side is projected to its schema's columns and cast to
    its types). Either may be empty, never both. As in
    ``bucketed_group_apply``, a call holds ALL rows of every key it sees
    from both sides, so ``fn`` must be keyed.

    ``right_keys`` (default ``keys``) pair up with ``keys`` by position;
    the right keys hash as the left key types, so equal keys share a
    bucket. Right rows with a null in any key are dropped before the
    exchange: a null key never matches (SQL semantics). Left rows keep
    theirs — an anti- or outer join still owes them a row.

    Layout: one union of both sides in the padded layout of
    ``tag_kinds`` (each side a kind), then one sort on the bucket — the
    exchange is paid once for both inputs."""
    lk, rk = list(keys), list(right_keys or keys)
    if len(lk) != len(rk):
        raise ValueError("right_keys must match keys in length")
    schemas = (left_schema, right_schema)
    key_types = [left_schema.types[list(left_schema.names).index(k)]
                 for k in lk]
    padded = _padded_schema(schemas)

    def tagger(side: int):
        kn = rk if side else lk

        def tag(t: pa.Table) -> pa.Table:
            if side:
                for k in kn:
                    if t[k].null_count:
                        t = t.filter(pc.is_valid(t[k]))
            # hash the right keys as the left key types (an int key and a
            # float or string key hash apart); an unsafe cast can only
            # co-locate keys that then fail to match
            kt = pa.table([t[k].cast(typ, safe=False)
                           for k, typ in zip(kn, key_types)], names=lk)
            return _pad(t, add_bucket_column(kt, lk)[BUCKET_COL], side,
                        schemas, padded)
        return tag

    def apply(t: pa.Table):
        if t.num_rows:
            yield fn(_unpad(t, 0, schemas), _unpad(t, 1, schemas))

    both = left.map_batches(
        tagger(0), batch_format="pyarrow", batch_size=16384,
        zero_copy_batch=True).union(right.map_batches(
            tagger(1), batch_format="pyarrow", batch_size=16384,
            zero_copy_batch=True))
    return both.sort(BUCKET_COL).map_batches(
        apply, batch_format="pyarrow", batch_size=None)


def _block_total(t: pa.Table, weight_col: str | None) -> tuple[int, int]:
    # an empty sort partition has no columns, so no weight column either
    if weight_col is None or not t.num_rows:
        return t.num_rows, t.num_rows
    return t.num_rows, int(pc.sum(t[weight_col]).as_py() or 0)


def _add_prefix(t: pa.Table, offset: int, out_col: str,
                weight_col: str | None) -> pa.Table:
    if weight_col is None:
        pos = np.arange(t.num_rows, dtype=np.int64)
    else:
        w = t[weight_col].fill_null(0).to_numpy(zero_copy_only=False)
        pos = np.cumsum(w, dtype=np.int64) - w
    return t.append_column(out_col, pa.array(offset + pos, type=pa.int64()))


def prefix_scan(ds, order_col: str, out_col: str,
                weight_col: str | None = None):
    """The ordered scan: ``ds`` sorted ascending on ``order_col`` with an
    int64 ``out_col`` appended, the exclusive prefix sum of ``weight_col``
    (an integer column; nulls count 0) in that order, or the 0-based row
    position when ``weight_col`` is None.

    ``Dataset.sort`` is the one exchange: its sampled range partitioner
    cuts on the data, so a skewed column still spreads over many blocks.
    The sorted blocks come back in order (``to_arrow_refs``), one task per
    block reports its total, the driver takes the exclusive prefix of those
    B integers, and one task per block adds its offset to its in-block
    exclusive cumsum. Offsets follow the block order, never a block's first
    key: equal keys may fill several blocks. Rows with equal ``order_col``
    values come out in an order that depends on the partitioning.

    Sorting an empty input gives column-less 0-row blocks, which are
    skipped; an empty input gives a typed empty table of ``ds.schema()``
    plus ``out_col``."""
    import ray
    import ray.data as rd

    refs = ds.sort(order_col).to_arrow_refs()
    total = ray.remote(_block_total)
    counts = ray.get([total.remote(r, weight_col) for r in refs])
    add = ray.remote(_add_prefix)
    out, acc = [], 0
    for r, (rows, block_total) in zip(refs, counts):
        if rows:
            out.append(add.remote(r, acc, out_col, weight_col))
            acc += block_total
    if out:
        return rd.from_arrow_refs(out)
    s = ds.schema()
    if s is None:  # nothing upstream left a schema to type the result by
        return ds.limit(0)
    return rd.from_arrow(pa.schema(
        list(zip(s.names, s.types)) + [(out_col, pa.int64())]).empty_table())
