"""Windowed aggregates, broadcast join, union-upsert, and the exact
n-gram-Jaccard similarity join (prefix filtering)."""

from __future__ import annotations

import datetime as dt

import pyarrow as pa
import pytest

from fashion_knowledge_graph_ray.stages.dedup import (
    _word_ngram_hashes,
    jaccard_ngram_pairs,
)
from fashion_knowledge_graph_ray.stages.relational import (
    broadcast_join,
    union_upsert,
)
from fashion_knowledge_graph_ray.stages.windows import (
    session_windows,
    tumbling_window,
)


def _ts(h, m=0):
    return dt.datetime(2024, 1, 1, h, m)


def _events_ds(ray_session, rows):
    import ray.data as rd

    return rd.from_arrow(pa.table({
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "event_id": pa.array(list(range(len(rows))), type=pa.int64()),
        "ts": pa.array([r[1] for r in rows], type=pa.timestamp("us")),
        "value": pa.array([float(r[2]) for r in rows], type=pa.float64()),
    }))


def test_tumbling_window_counts_and_max(ray_session):
    ds = _events_ds(ray_session, [
        (1, _ts(9, 5), 1.0), (1, _ts(9, 55), 7.0),   # same 9:00 window
        (1, _ts(10, 1), 3.0),                          # next window
        (2, _ts(9, 30), 2.0),
    ])
    out = tumbling_window(ds).take_all()
    got = {(r["user_id"], r["window_start"].hour): (r["n_events"],
                                                    r["max_value"])
           for r in out}
    assert got == {(1, 9): (2, 7.0), (1, 10): (1, 3.0), (2, 9): (1, 2.0)}


def test_windows_tz_aware_timestamps(ray_session):
    # tz-aware event logs (warc_ts convention is tz-free, but user event
    # tables routinely carry tz='UTC') must not crash any window shape;
    # hopping must agree with its tz-naive twin on the same instants
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.windows import hopping_window

    rows = [(1, _ts(9, 5), 1.0), (1, _ts(9, 55), 7.0), (2, _ts(9, 30), 2.0)]

    def mk(tz):
        return rd.from_arrow(pa.table({
            "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
            "event_id": pa.array(list(range(len(rows))), type=pa.int64()),
            "ts": pa.array([r[1] for r in rows],
                           type=pa.timestamp("us", tz=tz)),
            "value": pa.array([float(r[2]) for r in rows],
                              type=pa.float64()),
        }))

    def key(out):
        return sorted((r["user_id"], r["ws_sec"], r["n_events"],
                       r["max_value"]) for r in out)

    aware = hopping_window(mk("UTC"), width_sec=3600,
                           slide_sec=1800).take_all()
    naive = hopping_window(mk(None), width_sec=3600,
                           slide_sec=1800).take_all()
    assert key(aware) == key(naive) and len(aware) > 0

    t = tumbling_window(mk("UTC")).take_all()
    assert sum(r["n_events"] for r in t) == 3
    s = session_windows(mk("UTC"), gap_minutes=30).take_all()
    assert sum(r["n_events"] for r in s) == 3


def test_session_windows_gap_split(ray_session):
    # user 1: events at 9:00, 9:20, 10:30 with a 30-min gap -> two sessions
    ds = _events_ds(ray_session, [
        (1, _ts(9, 0), 0.0), (1, _ts(9, 20), 0.0), (1, _ts(10, 30), 0.0),
        (2, _ts(9, 0), 0.0),
    ])
    out = session_windows(ds, gap_minutes=30).take_all()
    sess = sorted(((r["user_id"], r["session_start"], r["session_end"],
                    r["n_events"]) for r in out))
    assert sess == [
        (1, _ts(9, 0), _ts(9, 20), 2),
        (1, _ts(10, 30), _ts(10, 30), 1),
        (2, _ts(9, 0), _ts(9, 0), 1),
    ]


def test_session_windows_exact_gap_is_same_session(ray_session):
    # gap == threshold does NOT split (strictly-greater rule)
    ds = _events_ds(ray_session, [(1, _ts(9, 0), 0.0), (1, _ts(9, 30), 0.0)])
    out = session_windows(ds, gap_minutes=30).take_all()
    assert len(out) == 1 and out[0]["n_events"] == 2


def test_broadcast_join_inner_drops_misses(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"k": [1, 2, 3], "v": ["a", "b", "c"]}))
    lut = {1: ("one", 10), 3: ("three", 30)}
    out = broadcast_join(ds, "k", lut, ["name", "ten"], how="inner").take_all()
    assert sorted((r["k"], r["name"], r["ten"]) for r in out) == [
        (1, "one", 10), (3, "three", 30)]


def test_broadcast_join_left_keeps_with_nulls(ray_session):
    import ray.data as rd

    ds = rd.from_arrow(pa.table({"k": [1, 2]}))
    out = broadcast_join(ds, "k", {1: ("x",)}, ["name"], how="left").take_all()
    got = {r["k"]: r["name"] for r in out}
    assert got == {1: "x", 2: None}


def test_union_upsert_base_wins(ray_session):
    import ray.data as rd

    base = rd.from_arrow(pa.table({"id": [1, 2], "val": ["b1", "b2"]}))
    new = rd.from_arrow(pa.table({"id": [2, 3], "val": ["n2", "n3"]}))
    out = union_upsert(base, new, "id").take_all()
    got = {r["id"]: (r["val"], r["src"]) for r in out}
    assert got == {1: ("b1", "base"), 2: ("b2", "base"), 3: ("n3", "new")}


def test_word_ngram_hashes_distinct_sorted():
    h = _word_ngram_hashes("a b a b a", 2)
    assert h.size == 2 and list(h) == sorted(set(h))  # {"a b", "b a"}
    assert _word_ngram_hashes("one two", 3).size == 0


def test_jaccard_ngram_pairs_exact_vs_bruteforce(ray_session):
    # prefix filtering must find EXACTLY the brute-force result set
    import itertools

    import ray.data as rd

    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy cat",
        "a completely different sentence about ray data pipelines",
        "the quick brown fox leaps over the lazy dog",
        "short text",
    ]
    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(texts))),
                                 "text": texts}))
    out = jaccard_ngram_pairs(ds, n=3, threshold=0.3).take_all()
    got = {(r["a"], r["b"]): r["jac"] for r in out}

    def grams(t):
        return set(_word_ngram_hashes(t, 3).tolist())

    want = {}
    for i, j in itertools.combinations(range(len(texts)), 2):
        gi, gj = grams(texts[i]), grams(texts[j])
        if not gi or not gj:
            continue
        inter = len(gi & gj)
        if inter == 0:
            continue
        jac = inter / (len(gi) + len(gj) - inter)
        if jac >= 0.3:
            want[(i, j)] = jac
    assert got == want and len(want) >= 2
