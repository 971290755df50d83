"""Tests for stages/sketches.py — HLL and count-min: deterministic,
partitioning-independent, within published error bounds vs exact."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from fashion_knowledge_graph_ray.stages.sketches import cms_counts, hll_distinct


def _events(n=6000, seed=9):
    rng = np.random.default_rng(seed)
    types = rng.choice(["a", "b", "c"], size=n)
    users = rng.integers(0, 900, size=n)
    return pa.table({"event_type": pa.array(types.tolist()),
                     "user_id": pa.array(users.tolist(), type=pa.int64())})


def test_hll_within_error_bound_and_partition_invariant(ray_session):
    tbl = _events()
    import pandas as pd

    df = tbl.to_pandas()
    exact = df.groupby("event_type")["user_id"].nunique()

    outs = []
    for parts in (1, 8):
        out = hll_distinct(rd.from_arrow(tbl).repartition(parts),
                           ["event_type"], "user_id").to_pandas()
        outs.append(out.sort_values("event_type").reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])

    # 1.04/sqrt(4096) ~ 1.6% standard error; assert a generous 6% bound
    for _, row in outs[0].iterrows():
        e = exact[row["event_type"]]
        assert abs(row["approx_distinct"] - e) <= max(3, 0.06 * e)


def test_hll_exact_at_tiny_cardinality(ray_session):
    # linear-counting regime: estimates are exact for tiny sets
    tbl = pa.table({"k": pa.array(["x"] * 50),
                    "v": pa.array(list(range(5)) * 10, type=pa.int64())})
    out = hll_distinct(rd.from_arrow(tbl).repartition(4), ["k"],
                       "v").to_pandas()
    assert out["approx_distinct"].tolist() == [5]


def test_cms_overestimates_and_is_partition_invariant(ray_session):
    tbl = _events()
    df = tbl.to_pandas()
    exact = df["event_type"].value_counts()

    res = []
    for parts in (1, 7):
        out = cms_counts(rd.from_arrow(tbl).repartition(parts),
                         "event_type", ["a", "b", "c", "zzz"]).to_pandas()
        res.append(list(map(tuple, out.to_numpy())))
    assert res[0] == res[1]
    got = dict(res[0])
    for k in ("a", "b", "c"):
        assert got[k] >= exact[k]                 # never under
        assert got[k] <= exact[k] + 2 * len(df) // 2048 + 1
    assert got["zzz"] <= 2 * len(df) // 2048 + 1  # absent key ~ 0


def test_hll_keeps_null_group_keys(ray_session):
    tbl = pa.table({
        "k": pa.array(["a", None, "a", None, None], type=pa.string()),
        "v": pa.array([1, 2, 3, 4, 9], type=pa.int64()),
    })
    out = hll_distinct(rd.from_arrow(tbl).repartition(3), ["k"],
                       "v").to_pandas()
    got = {(None if isinstance(k, float) or k is None else k): n
           for k, n in zip(out["k"], out["approx_distinct"])}
    assert got == {"a": 2, None: 3}  # null-key values {2,4,9}


def test_hll_keeps_null_keys_across_several_key_columns(ray_session):
    # the exchange buckets on the key columns themselves: a null in any
    # of them is still one group, whichever block its rows are in
    k1 = ["a", None, "a", None, "a", None, "b", None]
    k2 = [1, 1, None, None, 1, 1, None, None]
    tbl = pa.table({"k1": pa.array(k1, type=pa.string()),
                    "k2": pa.array(k2, type=pa.int64()),
                    "v": pa.array([1, 2, 3, 4, 5, 2, 7, 8], type=pa.int64())})
    out = hll_distinct(rd.from_arrow(tbl).repartition(4), ["k1", "k2"],
                       "v").take_all()
    got = {(r["k1"], r["k2"]): r["approx_distinct"] for r in out}
    assert got == {("a", 1): 2, (None, 1): 1, ("a", None): 1,
                   (None, None): 2, ("b", None): 1}
