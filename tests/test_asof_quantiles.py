"""Tests for asof_join (stages/relational.py) and exact_quantiles
(stages/corpus.py) against sequential references, covering the paths the
sf-oracle queries don't hit: left rows with no prior match, (key, time)
ties, and skewed/duplicate-valued quantile columns."""

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from fashion_knowledge_graph_ray.stages.corpus import exact_quantiles
from fashion_knowledge_graph_ray.stages.relational import asof_join


def test_asof_join_matches_merge_asof(ray_session):
    rng = np.random.default_rng(11)
    n_l, n_r = 400, 150
    left = pa.table({
        "eid": pa.array(range(n_l), type=pa.int64()),
        "k": pa.array(rng.integers(0, 12, n_l), type=pa.int64()),
        "t": pa.array(rng.integers(0, 1000, n_l), type=pa.int64()),
    })
    right = pa.table({
        "k2": pa.array(rng.integers(0, 15, n_r), type=pa.int64()),
        "rt": pa.array(rng.integers(0, 1000, n_r), type=pa.int64()),
        "payload": pa.array(range(n_r), type=pa.int64()),
    })
    out = asof_join(
        rd.from_arrow(left).repartition(7),
        rd.from_arrow(right).repartition(4),
        key="k", right_key="k2", left_time="t", right_time="rt",
        tie_col="payload",
    ).to_pandas().sort_values("eid").reset_index(drop=True)

    ldf = left.to_pandas().sort_values("t", kind="mergesort")
    rdf = (right.to_pandas().rename(columns={"k2": "k"})
           .sort_values(["k", "rt", "payload"])
           .drop_duplicates(["k", "rt"], keep="last")
           .sort_values("rt", kind="mergesort"))
    exp = pd.merge_asof(ldf, rdf, left_on="t", right_on="rt", by="k",
                        direction="backward")
    exp = exp[exp["rt"].notna()].sort_values("eid").reset_index(drop=True)

    assert len(out) == len(exp)
    assert len(out) < n_l  # some left rows had no prior match (dropped)
    for c in ["eid", "k", "t", "rt", "payload"]:
        assert (out[c].to_numpy() == exp[c].to_numpy()).all(), c


def test_asof_join_tie_keeps_max_tie_col(ray_session):
    left = pa.table({"eid": pa.array([1], type=pa.int64()),
                     "k": pa.array([5], type=pa.int64()),
                     "t": pa.array([100], type=pa.int64())})
    right = pa.table({"k2": pa.array([5, 5, 5], type=pa.int64()),
                      "rt": pa.array([100, 100, 90], type=pa.int64()),
                      "payload": pa.array([7, 9, 1], type=pa.int64())})
    out = asof_join(rd.from_arrow(left), rd.from_arrow(right),
                    key="k", right_key="k2", left_time="t",
                    right_time="rt", tie_col="payload").to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["payload"] == 9  # exact-time tie -> max payload


def _seq_quantiles(vals, permilles):
    v = np.sort(np.asarray(vals))
    n = len(v)
    out = {}
    for p in permilles:
        k = max(1, -(-p * n // 1000))
        out[p] = (k, v[k - 1])
    return out


def test_exact_quantiles_uniform(ray_session):
    rng = np.random.default_rng(3)
    vals = rng.normal(50, 20, size=5000)
    ds = rd.from_arrow(pa.table({"value": pa.array(vals)})).repartition(9)
    permilles = [1, 100, 500, 900, 999, 1000]
    out = exact_quantiles(ds, "value", permilles) \
        .to_pandas().set_index("q_permille")
    exp = _seq_quantiles(vals, permilles)
    assert len(out) == len(permilles)
    for p, (k, val) in exp.items():
        assert out.loc[p, "rank"] == k
        assert out.loc[p, "value"] == val


def test_exact_quantiles_constant_and_duplicates(ray_session):
    # degenerate: all-equal column collapses to one range; heavy
    # duplicates must still select by exact rank
    vals = [5.0] * 400 + [7.0] * 100
    ds = rd.from_arrow(pa.table({"value": pa.array(vals)})).repartition(5)
    out = exact_quantiles(ds, "value", [500, 950]) \
        .to_pandas().set_index("q_permille")
    assert out.loc[500, "value"] == 5.0
    assert out.loc[950, "value"] == 7.0

    const = rd.from_arrow(pa.table({"value": pa.array([2.5] * 100)}))
    out2 = exact_quantiles(const, "value", [500]).to_pandas()
    assert len(out2) == 1 and out2.iloc[0]["value"] == 2.5


def test_exact_quantiles_empty(ray_session):
    ds = rd.from_arrow(pa.table({"value": pa.array([], type=pa.float64())}))
    out = exact_quantiles(ds, "value", [500])
    assert out.count() == 0
    # Dataset-level schema survives even though Ray's to_pandas() drops
    # columns for 0-row datasets
    assert sorted(out.schema().names) == ["q_permille", "rank", "value"]


def test_band_join_matches_sequential(ray_session):
    from fashion_knowledge_graph_ray.stages.relational import band_join

    rng = np.random.default_rng(23)
    n = 500
    left = pa.table({
        "lid": pa.array(range(n), type=pa.int64()),
        "g": pa.array(rng.integers(0, 3, n), type=pa.int64()),
        "v": pa.array(rng.uniform(0, 20, n)),
    })
    right = pa.table({
        "rid": pa.array(range(n, 2 * n), type=pa.int64()),
        "g2": pa.array(rng.integers(0, 3, n), type=pa.int64()),
        "u": pa.array(rng.uniform(0, 20, n)),
    })
    eps = 0.05
    out = band_join(rd.from_arrow(left).repartition(5),
                    rd.from_arrow(right).repartition(4),
                    left_val="v", right_val="u", eps=eps,
                    key=["g"], right_keys=["g2"]).to_pandas()

    ldf, rdf = left.to_pandas(), right.to_pandas().rename(columns={"g2": "g"})
    exp = ldf.merge(rdf, on="g")
    exp = exp[(exp["u"] >= exp["v"] - eps) & (exp["u"] <= exp["v"] + eps)]
    assert len(out) == len(exp)
    got = set(zip(out["lid"], out["rid"]))
    want = set(zip(exp["lid"], exp["rid"]))
    assert got == want
    assert len(got) > 0


def test_band_join_keyless_and_boundary(ray_session):
    from fashion_knowledge_graph_ray.stages.relational import band_join

    # values exactly eps apart must match (inclusive band); NaN dropped
    left = pa.table({"lid": pa.array([1, 2], type=pa.int64()),
                     "v": pa.array([1.0, float("nan")])})
    right = pa.table({"rid": pa.array([10, 11, 12], type=pa.int64()),
                      "u": pa.array([1.5, 1.51, 0.5])})
    out = band_join(rd.from_arrow(left), rd.from_arrow(right),
                    left_val="v", right_val="u", eps=0.5).to_pandas()
    assert set(zip(out["lid"], out["rid"])) == {(1, 10), (1, 12)}


def test_kmeans_assign_partitioning_independent(ray_session):
    from fashion_knowledge_graph_ray.stages.ann import kmeans_assign

    rng = np.random.default_rng(5)
    mat = rng.normal(size=(300, 16))
    tbl = pa.table({"vec_id": pa.array(range(300), type=pa.int64()),
                    "embedding": pa.array([list(map(float, r))
                                           for r in mat])})
    a = kmeans_assign(rd.from_arrow(tbl).repartition(2), 4) \
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    b = kmeans_assign(rd.from_arrow(tbl).repartition(9), 4) \
        .to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert a.equals(b)
    assert set(a["cluster"]) == {0, 1, 2, 3}
