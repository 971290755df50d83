"""Bucketed group application — the scale-shape for keyed reductions.

``Dataset.groupby(keys).map_groups(fn)`` invokes ``fn`` once per group; with
millions of tiny groups (edge keys, triple keys) the per-group Python
dispatch dominates. The idiomatic fix at scale is to shuffle by a BUCKET of
the key (``crc32(key) % B``) and run ONE vectorized function per shuffled
block — each block holds one or more whole buckets — that does the per-key
work with Arrow/pandas groupby kernels inside.

All rows of a key always land in the same bucket, so per-key semantics are
exact; ``B`` bounds the shuffle fan-in (pick ``B ≈ 4 × total cores`` on a
real cluster). crc32 is process-stable, so bucket assignment is
deterministic (never use builtin ``hash``).

Skewed keys: a single hot KEY cannot be split below one bucket, but every
caller here pre-aggregates per input batch first (partial combine), so a
hot key arrives as at most one row per upstream batch — the salted
two-phase design of SURVEY.md §4.3.
"""

from __future__ import annotations

import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

BUCKET_COL = "__bucket"


def _polars_hash_ok() -> bool:
    """Probed ONCE on the DRIVER at pipeline-construction time; the result
    is captured in the stage closures shipped to workers, so every task of
    a run buckets with the SAME engine even if a worker's local polars
    import would have resolved differently. (Cross-worker polars *version*
    skew is out of scope: Ray clusters ship one runtime image; this guard
    removes the presence/absence hazard, which is the realistic one.)"""
    try:
        import polars as pl

        return bool(
            pl.DataFrame({"k": ["probe"]})
            .select(pl.col("k").hash(seed=0))
            .height == 1
        )
    except Exception:
        return False


def add_bucket_column(batch: pa.Table, keys: list[str], num_buckets: int,
                      use_polars: bool | None = None) -> pa.Table:
    """Vectorized bucket id from the concatenated key columns.

    Fast path: polars' xxhash-based ``Expr.hash`` (seed 0) — vectorized and
    stable across worker processes within a run, which is all bucketing
    needs (outputs never depend on WHICH bucket a key lands in, only on
    co-location). Fallback: per-row crc32. ``use_polars`` should be the
    driver-probed ``_polars_hash_ok()`` decision; ``None`` probes locally
    (only correct on the driver)."""
    if batch.num_rows == 0:
        return batch.append_column(BUCKET_COL, pa.array([], type=pa.int64()))
    if use_polars is None:
        use_polars = _polars_hash_ok()
    if use_polars:
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
        h = df.select(expr.hash(seed=0).alias("h"))["h"].to_numpy()
        b = (h % np.uint64(num_buckets)).astype(np.int64)
    else:
        sep = pa.scalar("\x1f")
        cols = [batch[k].cast(pa.string()) for k in keys]
        joined = cols[0]
        for c in cols[1:]:
            joined = pc.binary_join_element_wise(joined, c, sep)
        vals = joined.to_pylist()
        b = np.fromiter(
            (zlib.crc32(v.encode("utf-8")) % num_buckets for v in vals),
            dtype=np.int64, count=len(vals),
        )
    return batch.append_column(BUCKET_COL, pa.array(b))


def salted_group_apply(ds, keys: list[str], partial_fn, merge_fn, *,
                       salt: int = 16, num_buckets: int = 64,
                       batch_size: int = 16384):
    """Explicit salted two-phase aggregation for HOT keys (SURVEY.md §4.3).

    ``bucketed_group_apply`` relies on callers pre-combining per input
    batch, which bounds a hot key to one row per upstream block. When the
    per-key reduction itself is heavy (large collect-lists, wide merges), a
    hot key's phase-2 work can still dominate one task. This operator
    splits it: phase 1 shuffles on ``(bucket(keys), salt)`` — the hot key's
    rows spread across ``salt`` tasks, each applying ``partial_fn`` — and
    phase 2 re-shuffles the (tiny) partials on ``bucket(keys)`` alone,
    applying ``merge_fn``. Both fns are vectorized pa.Table -> pa.Table
    over ALL keys in their slice; ``merge_fn`` must be able to merge
    ``partial_fn`` outputs (associative/commutative reduction).

    The salt is derived from a row-content hash (crc32 of the row index
    within batch + batch id is NOT stable, so we hash the whole key row
    set position-independently: salt = crc32(serialized row) % salt) —
    deterministic given the data, independent of partitioning.
    """

    up = _polars_hash_ok()  # driver decision, captured in the closures

    def tag(batch: pa.Table) -> pa.Table:
        t = add_bucket_column(batch, keys, num_buckets, use_polars=up)
        if t.num_rows == 0:
            return t.append_column("__salt", pa.array([], type=pa.int64()))
        # row-content salt: hash of ALL columns so identical rows co-locate
        # deterministically but a hot key's rows spread uniformly
        if up:
            import polars as pl

            df = pl.from_arrow(t)
            h = df.select(pl.concat_str(
                [pl.col(c).cast(pl.Utf8).fill_null("\x00")
                 for c in t.column_names],
                separator="\x1f").hash(seed=7).alias("h"))["h"].to_numpy()
            s = (h % np.uint64(salt)).astype(np.int64)
        else:
            s = np.fromiter(
                (zlib.crc32(repr(r).encode()) % salt
                 for r in t.to_pylist()),
                dtype=np.int64, count=t.num_rows)
        return t.append_column("__salt", pa.array(s))

    def apply_partial(t: pa.Table) -> pa.Table:
        out = partial_fn(t.drop_columns([BUCKET_COL, "__salt"]))
        return add_bucket_column(out, keys, num_buckets, use_polars=up)

    def apply_merge(t: pa.Table) -> pa.Table:
        return merge_fn(t.drop_columns([BUCKET_COL]))

    tagged = ds.map_batches(tag, batch_format="pyarrow",
                            batch_size=batch_size, zero_copy_batch=True)
    partials = tagged.groupby([BUCKET_COL, "__salt"]).map_groups(
        apply_partial, batch_format="pyarrow")
    return partials.groupby(BUCKET_COL).map_groups(
        apply_merge, batch_format="pyarrow")


def bucketed_group_apply(ds, keys: list[str], bucket_fn, *,
                         num_buckets: int = 64, batch_size: int = 16384):
    """Shuffle ``ds`` by hash-bucket of ``keys`` and apply ``bucket_fn``
    (pa.Table -> pa.Table, vectorized) once per shuffled block.

    Contract: each call receives ALL rows of one or more whole buckets —
    so all rows of every key it sees — never part of a bucket. Which
    buckets share a call depends on the block layout, so ``bucket_fn``
    must be keyed (per-key results independent of the other keys in the
    table). ``bucket_fn`` receives the table without the bucket column;
    empty blocks are skipped."""

    up = _polars_hash_ok()  # driver decision, captured in the closure

    def tag(batch: pa.Table) -> pa.Table:
        return add_bucket_column(batch, keys, num_buckets, use_polars=up)

    def apply(t: pa.Table):
        if t.num_rows:
            yield bucket_fn(t.drop_columns([BUCKET_COL]))

    tagged = ds.map_batches(tag, batch_format="pyarrow",
                            batch_size=batch_size, zero_copy_batch=True)
    # Ray's range-partitioned sort never splits one key value across
    # output blocks, and batch_size=None hands each block to ``apply``
    # whole — the same two guarantees ``map_groups`` is built on (it is
    # ``sort`` + ``map_batches(batch_size=None)``, ray/data/grouped_data.py),
    # minus its per-group split, which cost one ``bucket_fn`` set-up per
    # bucket inside a single serial task.
    return tagged.sort(BUCKET_COL).map_batches(
        apply, batch_format="pyarrow", batch_size=None)
