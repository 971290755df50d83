"""Windowed aggregates over an event-time column.

The reference has no streaming semantics (SURVEY.md §2.10) — these are
training-data-pipeline additions: the three window shapes a batch engine
needs when re-processing event logs at scale.

All are deterministic batch re-expressions:

- ``tumbling_window`` — fixed-width windows = pure key derivation
  (``floor(ts)``), so it is a partial-combine + bucketed merge with NO
  per-row Python: each input batch pre-aggregates to at most one row per
  (key, window) before the shuffle, which is what keeps the exchange tiny
  at 10^12-event scale.
- ``hopping_window`` — overlapping windows; the per-event ``width/slide``
  expansion happens INSIDE the partial combiner so the exchange still
  moves at most one row per (key, window) per block.
- ``session_windows`` — gap-based windows cannot pre-combine (a session
  boundary depends on neighboring rows), so ALL rows of one key must
  co-locate: one bucketed shuffle on the key, then a vectorized
  sort + gap-cumsum per bucket. Hot users are bounded by the per-key data
  volume itself (a key's sessions cannot be split across tasks by
  definition).

Aggregates exposed are order-independent exact ones (count, max) — no
float accumulation whose value would depend on shuffle order.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from .bucketed import bucketed_aggregate, bucketed_group_apply

_TICKS_PER_SEC = {"s": 1, "ms": 10**3, "us": 10**6, "ns": 10**9}


def _epoch_ticks(t: pa.Table, ts_col: str):
    """(ticks:int64 ndarray, ticks-per-second, original timestamp type).

    cast(int64) yields epoch ticks in the column's own unit for BOTH naive
    and tz-aware timestamps (Arrow stores UTC epoch internally), where a
    pandas .astype('datetime64[ns]') route raises on tz-aware columns."""
    ty = t.schema.field(ts_col).type
    per_sec = _TICKS_PER_SEC[ty.unit]
    ticks = t[ts_col].cast(pa.int64()).to_numpy(zero_copy_only=False)
    return ticks, per_sec, ty


def tumbling_window(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                    value_col: str = "value", width: str = "h"):
    """Per (key, window_start) count + max over fixed windows.

    ``width`` is a pandas-style frequency string ("h", "15min", "d"),
    parsed ONCE at pipeline build; the per-batch kernel is pure Arrow —
    integer epoch floor + ``Table.group_by`` — with no pandas frame in the
    hot path. Returns (key, window_start, n_events, max_value);
    ``window_start`` keeps the input column's timestamp type.
    """
    import pandas as pd

    width_ns = int(pd.tseries.frequencies.to_offset(width).nanos)

    def window(t: pa.Table) -> pa.Table:
        ticks, per_sec, ty = _epoch_ticks(t, ts_col)
        width_ticks = width_ns * per_sec // 10**9
        # int64 // floors toward -inf, matching pandas dt.floor pre-epoch
        ws = pa.array(ticks // width_ticks * width_ticks,
                      type=pa.int64()).cast(ty)
        return pa.table({key_col: t[key_col], "window_start": ws,
                         value_col: t[value_col]})

    return bucketed_aggregate(
        ds.map_batches(window, batch_format="pyarrow", zero_copy_batch=True),
        [key_col, "window_start"], {"n_events": (value_col, "count_all"),
                                     "max_value": (value_col, "max")})


def hopping_window(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                   value_col: str = "value", width_sec: int = 3600,
                   slide_sec: int = 900):
    """Per (key, window_start) count + max over OVERLAPPING windows of
    ``width_sec`` sliding every ``slide_sec`` (``slide_sec`` must divide
    ``width_sec``): each event lands in ``width/slide`` windows.

    Same scale shape as tumbling: the per-event expansion runs in the same
    task as the per-batch partial combine, so the shuffle still moves at
    most one row per (key, window) per input block — the expansion factor
    never crosses the exchange. Window starts are integer epoch seconds
    (timezone-free, engine-portable). Returns (key, ws_sec, n_events,
    max_value)."""
    if width_sec % slide_sec:
        raise ValueError("slide_sec must divide width_sec")
    hops = width_sec // slide_sec

    def expand(t: pa.Table) -> pa.Table:
        ticks, per_sec, _ = _epoch_ticks(t, ts_col)
        slide_idx = (ticks // per_sec) // slide_sec
        # expand hops× by concatenating Arrow slices (keeps key/value
        # columns zero-copy and null-exact); only ws_sec is fresh per hop
        base = pa.table({key_col: t[key_col], value_col: t[value_col]})
        return pa.concat_tables([base.append_column(
            "ws_sec", pa.array((slide_idx - k) * slide_sec,
                               type=pa.int64())) for k in range(hops)])

    return bucketed_aggregate(
        ds.map_batches(expand, batch_format="pyarrow", zero_copy_batch=True),
        [key_col, "ws_sec"], {"n_events": (value_col, "count_all"),
                               "max_value": (value_col, "max")})


def session_windows(ds, *, key_col: str = "user_id", ts_col: str = "ts",
                    id_col: str = "event_id", gap_minutes: int = 30):
    """Gap-based sessions per key: a new session starts when the gap to the
    previous event of the same key exceeds ``gap_minutes``.

    Ordering inside a key is pinned to (ts, id) so ties are deterministic.
    Returns (key, session_start, session_end, n_events).
    """

    def sessions(t: pa.Table) -> pa.Table:
        import numpy as np

        if t.num_rows == 0:
            return pa.table({key_col: t[key_col],
                             "session_start": t[ts_col],
                             "session_end": t[ts_col],
                             "n_events": pa.array([], type=pa.int64())})
        # one Arrow sort on (key, ts, id), then the gap scan runs on
        # int64 epoch ticks — no pandas frame round-trip (the former
        # kernel built a DataFrame, Timedelta-diffed and groupby-agged)
        order = pc.sort_indices(t, sort_keys=[
            (key_col, "ascending"), (ts_col, "ascending"),
            (id_col, "ascending")])
        t = t.take(order)
        ticks, per_sec, _ = _epoch_ticks(t, ts_col)
        gap_ticks = gap_minutes * 60 * per_sec
        # key-change boundaries via dictionary codes (works for any type)
        codes = pc.dictionary_encode(t[key_col].combine_chunks()) \
            .indices.to_numpy(zero_copy_only=False)
        new = np.ones(len(ticks), dtype=bool)
        new[1:] = (codes[1:] != codes[:-1]) \
            | (ticks[1:] - ticks[:-1] > gap_ticks)
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:] - 1, len(ticks) - 1)
        # within a session rows are ts-sorted, so start/end rows hold the
        # min/max timestamps directly
        return pa.table({
            key_col: t[key_col].take(pa.array(starts)),
            "session_start": t[ts_col].take(pa.array(starts)),
            "session_end": t[ts_col].take(pa.array(ends)),
            "n_events": pa.array(ends - starts + 1, type=pa.int64()),
        })

    return bucketed_group_apply(ds, [key_col], sessions)
