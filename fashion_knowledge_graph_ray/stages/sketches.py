"""Mergeable sketches — approximate aggregates whose PARTIALS are tiny,
fixed-size arrays with commutative merges, the canonical 100-TB shape for
"how many distinct X per Y" questions where an exact distinct would
shuffle every value.

The reference has no approximate aggregates (SURVEY.md §2.6); these are
task-brief/corpus-hygiene additions. Both sketches here are DETERMINISTIC
given the data: hashing is blake2b (process-stable), and the merge ops
(element-wise max / element-wise add) are commutative and associative, so
results are partitioning-independent and a sequential reference computes
the bit-identical answer — which is what makes them oracle-checkable at
all (a sampling-based estimator would not be).

- ``hll_distinct``: HyperLogLog, ``2^p`` one-byte registers per group.
  Shuffle volume: one (key, 2^p-byte blob) row per group per input block
  instead of one row per distinct value. Standard error ≈ 1.04/sqrt(2^p)
  (~1.6% at p=12).
- ``cms_counts``: count-min sketch for frequency estimates of a fixed
  query-key set. ``depth × width`` uint64 counters; merge = element-wise
  sum; estimate = min over rows. Always an over-estimate; error ≤
  2n/width with prob 1-(1/2)^depth.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from .bucketed import bucketed_group_apply


def _hash64(values: list) -> np.ndarray:
    """64-bit hashes of the non-null values. Nulls are SKIPPED (matching
    SQL ``COUNT(DISTINCT)``, which ignores NULLs) and the hash input is
    prefixed with the Python type name so cross-type collisions (int 1
    vs string '1', None vs the literal 'None') cannot occur."""
    return np.array(
        [int.from_bytes(
            hashlib.blake2b(
                f"{type(v).__name__}\x1f{v}".encode("utf-8"),
                digest_size=8).digest(), "big")
         for v in values if v is not None], dtype=np.uint64)


def _clz64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized count-leading-zeros over uint64 (callers
    guarantee x > 0): 6-step binary search in pure integer ops — no
    float log2 (imprecise ≥ 2^53), no per-element Python."""
    clz = np.zeros(len(x), dtype=np.int64)
    y = x.copy()
    for s in (32, 16, 8, 4, 2, 1):
        m = (y >> np.uint64(64 - s)) == 0
        clz[m] += s
        y[m] = y[m] << np.uint64(s)
    return clz


def _hll_registers(h: np.ndarray, p: int) -> np.ndarray:
    """Register array (2^p uint8) from 64-bit hashes: index = top p bits,
    rho = leading-zero count of the remaining 64-p bits + 1."""
    m = 1 << p
    reg = np.zeros(m, dtype=np.uint8)
    if len(h) == 0:
        return reg
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = (h << np.uint64(p)) | np.uint64((1 << p) - 1)  # pad low bits
    rho = _clz64(rest) + 1
    np.maximum.at(reg, idx, rho.astype(np.uint8))
    return reg


def _hll_estimate(reg: np.ndarray) -> int:
    """Classic HLL estimator with the small-range linear-counting
    correction — fixed float evaluation order, so identical across
    engines for identical registers."""
    m = len(reg)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    e = alpha * m * m / float(np.sum(np.power(2.0, -reg.astype(np.float64))))
    zeros = int(np.count_nonzero(reg == 0))
    if e <= 2.5 * m and zeros > 0:
        e = m * np.log(m / zeros)
    return int(round(e))


def hll_distinct(ds, key_cols: list[str], value_col: str, *,
                 p: int = 12):
    """Approximate ``COUNT(DISTINCT value_col)`` per ``key_cols`` group.

    Output: ``(key_cols..., approx_distinct)``. Per input batch ONE
    register blob per group ships to the merge (2^p bytes — 4 KiB at
    p=12), independent of value cardinality; the merge is element-wise
    max. An exact per-group distinct on the same data is one shuffle of
    EVERY distinct value — this is the sketch trade, and the error bound
    (±1.04/sqrt(2^p)) is part of the operator's contract, not noise:
    results are deterministic and partitioning-independent."""

    # null group keys are kept (they are a real group, matching SQL
    # GROUP BY): grouping uses Python dicts keyed on to_pylist() values
    # (None stays None), and the bucket hash takes null keys
    def _kstr(key: tuple) -> str:
        return "\x1f".join("\x00" if kv is None else str(kv)
                           for kv in key)

    def partial(t: pa.Table) -> pa.Table:
        groups: dict[tuple, list] = {}
        key_rows = list(zip(*(t[c].to_pylist() for c in key_cols)))
        for key, v in zip(key_rows, t[value_col].to_pylist()):
            groups.setdefault(key, []).append(v)
        cols = {c: pa.array([k[i] for k in groups], type=t[c].type)
                for i, c in enumerate(key_cols)}
        cols["reg"] = pa.array(
            [_hll_registers(_hash64(v), p).tobytes()
             for v in groups.values()], type=pa.binary())
        return pa.table(cols)

    def merge(t: pa.Table) -> pa.Table:
        regs: dict[tuple, np.ndarray] = {}
        key_rows = list(zip(*(t[c].to_pylist() for c in key_cols)))
        for key, raw in zip(key_rows, t["reg"].to_pylist()):
            reg = regs.setdefault(key, np.zeros(1 << p, dtype=np.uint8))
            np.maximum(reg, np.frombuffer(raw, dtype=np.uint8), out=reg)
        keys_sorted = sorted(regs, key=_kstr)
        cols = {c: pa.array([k[i] for k in keys_sorted],
                            type=t[c].type)
                for i, c in enumerate(key_cols)}
        cols["approx_distinct"] = pa.array(
            [_hll_estimate(regs[k]) for k in keys_sorted],
            type=pa.int64())
        return pa.table(cols)

    partials = ds.map_batches(partial, batch_format="pyarrow",
                              zero_copy_batch=True)
    return bucketed_group_apply(partials, key_cols, merge)


def cms_counts(ds, value_col: str, query_values: list, *,
               depth: int = 4, width: int = 2048):
    """Count-min-sketch frequency estimates for a fixed ``query_values``
    set over ``value_col``.

    Shape: per-batch ``depth × width`` uint64 partial sketches stream to
    the driver and merge by element-wise ADD (the driver holds one
    ``depth*width*8``-byte array — 64 KiB at the default — never values);
    estimates = min over rows. Deterministic over-estimates (row hashing
    is seeded blake2b), suitable when the interesting keys are known
    up front (vocab terms, tracked entities) and the stream is too wide
    to count exactly. Returns a small in-memory Arrow table
    ``(value, approx_count)``."""

    def row_idx(vals: list, r: int) -> np.ndarray:
        h = np.array(
            [int.from_bytes(hashlib.blake2b(
                str(v).encode("utf-8"), digest_size=8,
                salt=r.to_bytes(2, "big")).digest(), "big")
             for v in vals], dtype=np.uint64)
        return (h % np.uint64(width)).astype(np.int64)

    def partial(t: pa.Table) -> pa.Table:
        sk = np.zeros((depth, width), dtype=np.uint64)
        vals = t[value_col].to_pylist()
        for r in range(depth):
            np.add.at(sk[r], row_idx(vals, r), 1)
        return pa.table({"sk": pa.array([sk.tobytes()], type=pa.binary())})

    sketch = np.zeros((depth, width), dtype=np.uint64)
    for b in ds.select_columns([value_col]).map_batches(
            partial, batch_format="pyarrow",
            zero_copy_batch=True).iter_batches(batch_format="pyarrow"):
        for raw in b["sk"].to_pylist():
            sketch += np.frombuffer(raw, dtype=np.uint64).reshape(
                depth, width)

    ests = []
    for v in query_values:
        est = min(int(sketch[r, row_idx([v], r)[0]]) for r in range(depth))
        ests.append(est)
    return pa.table({
        "value": pa.array([str(v) for v in query_values], type=pa.string()),
        "approx_count": pa.array(ests, type=pa.int64()),
    })
