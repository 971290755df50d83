"""``bucketed_group_apply``: one ``bucket_fn`` call per shuffled block, each
call holding every row of the keys it sees, and the output of a plain
per-key groupby. ``bucketed_cogroup``: the same for two inputs, checked
against a brute-force pandas grouping of both sides. ``bucketed_aggregate``:
every op against a brute-force pandas grouping. ``add_bucket_column``: the
one bucket hash gives a key the same bucket in every process.
``bucketed_write_kinds``: several tables through one exchange, each key of
each table whole in one call, against a pandas grouping; a merge task run
again overwrites its own files. ``prefix_scan``:
a numpy exclusive cumsum in sorted order, on skewed and duplicate keys."""

from __future__ import annotations

import os
import uuid
from collections import defaultdict

import numpy as np
import pandas as pd
import pyarrow as pa

import pyarrow.compute as pc
import pytest

from fashion_knowledge_graph_ray.stages import bucketed
from fashion_knowledge_graph_ray.stages.bucketed import (
    add_bucket_column,
    bucketed_aggregate,
    bucketed_cogroup,
    bucketed_group_apply,
    bucketed_write_kinds,
    prefix_scan,
    tag_kinds,
)


def _blocks(n_blocks: int, n_hot: int, n_cold: int) -> list[pa.Table]:
    """Round-robin rows over ``n_blocks`` input blocks: the hot key has
    rows in every block, each cold key in one or two."""
    rows = [("hot", i) for i in range(n_hot)] + \
        [(f"k{i % n_cold:03d}", i) for i in range(2 * n_cold)]
    return [pa.table({"key": pa.array([k for k, _ in rows[b::n_blocks]],
                                      type=pa.string()),
                      "v": pa.array([v for _, v in rows[b::n_blocks]],
                                    type=pa.int64())})
            for b in range(n_blocks)]


def test_one_call_per_block_whole_keys_match_groupby(ray_session):
    import ray.data as rd

    # nested, so Ray ships it by value (workers cannot import test modules)
    def seen_keys(t: pa.Table) -> pa.Table:
        """Per call: every key it saw, with its row count and value sum,
        tagged with an id unique to the call."""
        g = t.group_by(["key"]).aggregate([("v", "count"), ("v", "sum")])
        return pa.table({"key": g["key"], "n": g["v_count"],
                         "s": g["v_sum"],
                         "call": pa.array([uuid.uuid4().hex] * g.num_rows)})

    n_blocks = 5
    blocks = _blocks(n_blocks, n_hot=3000, n_cold=200)
    ds = rd.from_arrow(blocks)
    assert ds.materialize().num_blocks() == n_blocks
    out = bucketed_group_apply(ds, ["key"], seen_keys).take_all()

    # no key appears in two calls: every key's rows arrived in ONE call
    keys = [r["key"] for r in out]
    assert len(keys) == len(set(keys))
    # one call per shuffled block (the sort keeps the block count), not
    # one per key
    calls = {r["call"] for r in out}
    assert len(calls) <= n_blocks

    want: dict[str, list[int]] = defaultdict(list)
    for b in blocks:
        for k, v in zip(b["key"].to_pylist(), b["v"].to_pylist()):
            want[k].append(v)
    assert {r["key"]: (r["n"], r["s"]) for r in out} == \
        {k: (len(v), sum(v)) for k, v in want.items()}
    assert want["hot"] and len(want) == 201


def test_empty_blocks_never_reach_bucket_fn(ray_session):
    import ray.data as rd

    def strict(t: pa.Table) -> pa.Table:
        assert t.num_rows > 0
        g = t.group_by(["key"]).aggregate([("v", "count")])
        return pa.table({"key": g["key"], "n": g["v_count"]})

    # two keys over three sort partitions, one per input block (blocks of
    # the tag stage's 16384-row batch, so it keeps them apart): at least
    # one partition comes out empty
    rows = 16384
    t = pa.table({"key": ["a", "b"] * (rows // 2),
                  "v": pa.array(range(rows))})
    ds = rd.from_arrow([t, t, t])
    out = bucketed_group_apply(ds, ["key"], strict).take_all()
    assert sorted((r["key"], r["n"]) for r in out) == \
        [("a", 3 * rows // 2), ("b", 3 * rows // 2)]


def test_fan_out_follows_input_block_count(ray_session):
    """The sort makes one shuffled block per input block, so 100 input
    blocks and 4,099 keys give more than 64 ``bucket_fn`` calls (a fixed
    64-bucket hash capped them at 64), and every key still arrives in
    exactly one call."""
    import numpy as np
    import ray.data as rd

    def seen(t: pa.Table) -> pa.Table:
        keys = pc.unique(t["key"])
        return pa.table({"key": keys,
                         "call": pa.array([uuid.uuid4().hex] * len(keys))})

    # 16384-row blocks: the tag stage's batch, so it keeps them apart
    n_blocks, rows, n_keys = 100, 16384, 4099
    ds = rd.range(n_blocks * rows, override_num_blocks=n_blocks).map_batches(
        lambda t: pa.table({"key": pa.array(
            t["id"].to_numpy() % np.int64(n_keys))}),
        batch_format="pyarrow")
    out = bucketed_group_apply(ds, ["key"], seen).take_all()
    keys = sorted(r["key"] for r in out)
    assert keys == list(range(n_keys))  # each key in exactly one call
    assert len({r["call"] for r in out}) > 64


def _cogroup_calls(left, right, keys, right_keys):
    """Run ``bucketed_cogroup`` with an ``fn`` that checks both tables
    carry the declared schemas and reports, per call, every key it saw
    (right keys read as the left key types) with its left and right row
    counts and value sums."""
    import ray.data as rd

    ls, rs = left.schema, right.schema

    def seen(lt: pa.Table, rt: pa.Table) -> pa.Table:
        assert lt.schema == ls and rt.schema == rs
        assert lt.num_rows or rt.num_rows
        call = uuid.uuid4().hex
        rows = defaultdict(lambda: [0, 0, 0.0, 0.0])
        for t, kc, i in ((lt, keys, 0), (rt, right_keys, 1)):
            vals = t["v"].to_pylist()
            cols = [t[c].cast(ls.field(k).type).to_pylist()
                    for c, k in zip(kc, keys)]
            for j, k in enumerate(zip(*cols)):
                rows[repr(k)][i] += 1
                rows[repr(k)][2 + i] += vals[j]
        return pa.table({
            "key": list(rows), "nl": [r[0] for r in rows.values()],
            "nr": [r[1] for r in rows.values()],
            "sl": [float(r[2]) for r in rows.values()],
            "sr": [float(r[3]) for r in rows.values()],
            "call": [call] * len(rows),
            "one_side": [not (lt.num_rows and rt.num_rows)] * len(rows)})

    out = bucketed_cogroup(
        rd.from_arrow(left).repartition(3), rd.from_arrow(right)
        .repartition(2), keys, seen, left_schema=ls, right_schema=rs,
        right_keys=right_keys).to_pandas()
    return out


def _brute_cogroup(left, right, keys, right_keys) -> dict:
    """key -> (left rows, right rows, left v sum, right v sum) by pandas
    grouping; right rows with a null key are dropped (never match)."""
    ldf = left.to_pandas()
    rdf = right.to_pandas().dropna(subset=right_keys)
    want: dict = defaultdict(lambda: [0, 0, 0.0, 0.0])
    for df, kc, i in ((ldf, keys, 0), (rdf, right_keys, 1)):
        for k, g in df.groupby(kc, dropna=False):
            k = k if isinstance(k, tuple) else (k,)
            k = tuple(None if pd.isna(x) else int(x)
                      if isinstance(x, (int, float)) and not
                      isinstance(x, bool) and x == int(x) else x for x in k)
            want[repr(k)][i] += len(g)
            want[repr(k)][2 + i] += float(g["v"].sum())
    return {k: tuple(v) for k, v in want.items()}


def _got(out) -> dict:
    assert out["key"].is_unique  # every key's rows arrived in ONE call
    return {r.key: (r.nl, r.nr, r.sl, r.sr) for r in out.itertuples()}


def test_cogroup_int32_left_int64_right_shared_names(ray_session):
    # int32 left key against an int64 (and a float64) right key; both
    # sides name their value column "v"; keys 0-9 on both sides, 10-19
    # left only, 20-29 right only; a null right key never arrives
    left = pa.table({"k": pa.array([i % 20 for i in range(200)],
                                   type=pa.int32()),
                     "v": pa.array(range(200), type=pa.int64()),
                     "tag": [f"l{i}" for i in range(200)]})
    rk = [(i % 20) if i % 20 < 10 else 10 + i % 20 for i in range(150)]
    for typ in (pa.int64(), pa.float64()):
        right = pa.table({"rk": pa.array(rk + [None], type=typ),
                          "v": pa.array([0.5 * i for i in range(151)])})
        out = _cogroup_calls(left, right, ["k"], ["rk"])
        got, want = _got(out), _brute_cogroup(left, right, ["k"], ["rk"])
        assert got == want, typ
        assert len(want) == 30 and repr((None,)) not in want
        assert out["call"].nunique() <= 5  # 3 left + 2 right blocks


def test_cogroup_multi_column_keys(ray_session):
    left = pa.table({"a": [f"s{i % 7}" for i in range(120)],
                     "b": pa.array([i % 3 for i in range(120)],
                                   type=pa.int64()),
                     "v": pa.array(range(120), type=pa.int64())})
    right = pa.table({"x": [f"s{i % 9}" for i in range(90)] + [None],
                      "y": pa.array([i % 4 for i in range(91)],
                                    type=pa.int64()),
                      "v": pa.array(range(91), type=pa.int64())})
    out = _cogroup_calls(left, right, ["a", "b"], ["x", "y"])
    assert _got(out) == _brute_cogroup(left, right, ["a", "b"],
                                       ["x", "y"])


def test_cogroup_empty_side_gets_typed_empty_table(ray_session):
    left = pa.table({"k": pa.array([1, 2, 2, 5], type=pa.int64()),
                     "v": pa.array([1, 2, 3, 4], type=pa.int64())})
    right = pa.table({"k": pa.array([2, 7], type=pa.int64()),
                      "v": pa.array([10.0, 20.0])})
    for lt, rt in ((left, right.slice(0, 0)), (left.slice(0, 0), right)):
        out = _cogroup_calls(lt, rt, ["k"], ["k"])
        assert _got(out) == _brute_cogroup(lt, rt, ["k"], ["k"])
        assert out["one_side"].all()


def test_write_kinds_whole_keys_per_call_match_pandas(ray_session,
                                                     tmp_path):
    """Three tables through one exchange: kinds 0 and 1 share the column
    names ``key`` and ``v`` (a string key and an int64 key), kind 2 has
    no rows. Every key of every kind arrives whole in exactly one call,
    the results match a pandas grouping, and kind 2 reads back as a typed
    empty table."""
    import pyarrow.parquet as pq

    schemas = [pa.schema([("key", pa.string()), ("v", pa.int64())]),
               pa.schema([("key", pa.int64()), ("v", pa.float64())]),
               pa.schema([("g", pa.string()), ("w", pa.int32())])]
    keys = [["key"], ["key"], ["g"]]
    out_schema = pa.schema([("key", pa.string()), ("n", pa.int64()),
                            ("s", pa.float64()), ("call", pa.string())])
    out_schemas = [out_schema, out_schema,
                   pa.schema([("g", pa.string()), ("n", pa.int64())])]

    def kind1(t: pa.Table) -> pa.Table:
        return pa.table({"key": pc.divide(t["v"], 7),
                         "v": pc.multiply(t["v"].cast(pa.float64()), 0.5)})

    def tag(t: pa.Table) -> pa.Table:
        return tag_kinds([t, kind1(t), None], keys, schemas)

    def per_key(t: pa.Table) -> pa.Table:
        """Per call: every key it saw, with its row count and value sum."""
        g = t.group_by(["key"]).aggregate([("v", "count"), ("v", "sum")])
        return pa.table({"key": g["key"].cast(pa.string()),
                         "n": g["v_count"],
                         "s": g["v_sum"].cast(pa.float64()),
                         "call": pa.array([uuid.uuid4().hex] * g.num_rows)})

    def never(t: pa.Table) -> pa.Table:
        raise AssertionError("a kind with no rows got a call")

    blocks = _blocks(5, n_hot=3000, n_cold=200)
    paths = [str(tmp_path / f"kind{k}") for k in range(3)]
    bucketed_write_kinds(blocks, lambda i, t: tag(t), schemas,
                         [per_key, per_key, never], paths, out_schemas)

    df = pa.concat_tables(blocks).to_pandas()
    brute = [df.groupby("key")["v"], df.assign(
        key=df["v"] // 7, v=df["v"] * 0.5).groupby("key")["v"]]
    for k in (0, 1):
        got = pq.read_table(paths[k]).to_pandas()
        assert got["key"].is_unique, k  # each key arrived in ONE call
        assert got["call"].nunique() <= len(blocks), k
        want = {str(key): (len(g), float(g.sum())) for key, g in brute[k]}
        assert {r.key: (r.n, r.s) for r in got.itertuples()} == want, k
    assert len(want) == 2999 // 7 + 1  # v runs 0..2999
    empty = pq.read_table(paths[2])
    assert empty.num_rows == 0 and empty.schema.equals(out_schemas[2])


def test_write_kinds_merge_retry_overwrites_its_own_files(ray_session,
                                                         tmp_path):
    """A merge task run again (as Ray retries a task) writes the same
    files under the same names: one file per kind and shard, the same
    rows, no duplicate."""
    import pyarrow.parquet as pq

    schemas = [pa.schema([("key", pa.string()), ("v", pa.int64())]),
               pa.schema([("key", pa.string()), ("n", pa.int64())])]
    keys = [["key"], ["key"]]

    def tag(i: int, t: pa.Table) -> pa.Table:
        return tag_kinds([t, t.rename_columns(["key", "n"])], keys, schemas)

    def total(col):
        def fn(t: pa.Table) -> pa.Table:
            g = t.group_by(["key"]).aggregate([(col, "sum")])
            return pa.table({"key": g["key"], "s": g[f"{col}_sum"]})
        return fn

    blocks = _blocks(3, n_hot=500, n_cold=50)
    paths = [str(tmp_path / f"kind{k}") for k in range(2)]
    fns = [total("v"), total("n")]
    out_schema = pa.schema([("key", pa.string()), ("s", pa.int64())])
    bucketed_write_kinds(blocks, tag, schemas, fns, paths,
                         [out_schema, out_schema])

    def snapshot():
        return {p: {f: pq.read_table(os.path.join(p, f)).sort_by("key")
                    for f in sorted(os.listdir(p))} for p in paths}

    first = snapshot()
    assert all(len(files) == len(blocks) for files in first.values())
    pieces = [bucketed._split_kinds(i, t, tag, len(blocks))
              for i, t in enumerate(blocks)]
    for j in range(len(blocks)):  # every shard's merge, once more
        bucketed._merge_kinds(j, (schemas, fns, paths),
                              *[p[j] for p in pieces])
    again = snapshot()
    assert {p: list(f) for p, f in again.items()} == \
        {p: list(f) for p, f in first.items()}
    assert all(again[p][f].equals(first[p][f])
               for p in paths for f in first[p])
    for p in paths:
        t = pq.read_table(p)
        assert t["key"].to_pylist() and len(set(t["key"].to_pylist())) == \
            t.num_rows


def _brute_aggregate(t: pa.Table, keys, aggs) -> dict:
    """key tuple -> tuple of aggregates by pandas grouping (null keys form
    one group; sum/min/max of no non-null value is None)."""
    df = pd.DataFrame({c: pd.Series(t[c].to_pylist(), dtype=object)
                       for c in t.column_names})
    want = {}
    for k, g in df.groupby(keys, dropna=False):
        k = k if isinstance(k, tuple) else (k,)
        out = []
        for col, op in aggs.values():
            if op == "count_all":
                out.append(len(g))
                continue
            vals = [v for v in g[col] if v is not None and not pd.isna(v)]
            out.append(len(vals) if op == "count" else
                       ({"sum": sum, "min": min, "max": max}[op](vals)
                        if vals else None))
        want[tuple(None if pd.isna(x) else x for x in k)] = tuple(out)
    return want


def _aggregate(blocks, keys, aggs) -> tuple[dict, dict]:
    """(key tuple -> tuple of aggregates, output column -> type)."""
    import ray.data as rd

    out = bucketed_aggregate(rd.from_arrow(blocks), keys, aggs).materialize()
    rows = out.take_all()
    got = {tuple(r[k] for k in keys): tuple(r[n] for n in aggs)
           for r in rows}
    assert len(got) == len(rows)  # one row per key
    schema = out.schema()  # None when no block had rows
    return got, dict(zip(schema.names, schema.types)) if schema else {}


def test_aggregate_every_op_matches_pandas(ray_session):
    # 6 blocks; "hot" and the null key have rows in every block, "allnull"
    # has only null values; floats are halves, so every sum is exact
    n = 600
    keys = [("hot" if i % 3 == 0 else None if i % 3 == 1 and i % 2 else
             "allnull" if i % 30 == 4 else f"k{i % 23}") for i in range(n)]
    blank = [k == "allnull" or i % 7 == 0 for i, k in enumerate(keys)]
    t = pa.table({
        "key": pa.array(keys, type=pa.string()),
        "i": pa.array([None if b else i - 300 for i, b in enumerate(blank)],
                      type=pa.int64()),
        "f": pa.array([None if b else 0.5 * (i % 41) for i, b in
                       enumerate(blank)], type=pa.float64()),
        "s": pa.array([None if b else f"s{(i * 7) % 53:02d}" for i, b in
                       enumerate(blank)], type=pa.string())})
    aggs = {f"{c}_{op}": (c, op) for c in ("i", "f", "s")
            for op in ("sum", "count", "min", "max")
            if (c, op) != ("s", "sum")}
    aggs["rows"] = ("i", "count_all")
    blocks = [t.slice(b * 100, 100) for b in range(6)]
    got, types = _aggregate(blocks, ["key"], aggs)
    want = _brute_aggregate(t, ["key"], aggs)
    assert got == want
    assert (None,) in got and ("hot",) in got
    nulls = dict(zip(aggs, got[("allnull",)]))
    assert nulls["i_count"] == 0 and nulls["rows"] > 0
    assert nulls["i_sum"] is None and nulls["s_min"] is None
    assert list(types) == ["key"] + list(aggs)
    for name, (_, op) in aggs.items():
        if op.startswith("count"):
            assert types[name] == pa.int64()
    assert types["i_min"] == pa.int64()
    assert types["f_max"] == pa.float64()
    assert types["s_max"] == pa.string()


def test_aggregate_multi_column_int32_key(ray_session):
    n = 400
    t = pa.table({
        "a": pa.array([f"g{i % 5}" for i in range(n)], type=pa.string()),
        "b": pa.array([None if i % 11 == 0 else i % 4 for i in range(n)],
                      type=pa.int32()),
        "v": pa.array([i % 13 for i in range(n)], type=pa.int32())})
    aggs = {"s": ("v", "sum"), "lo": ("v", "min"), "n": ("v", "count")}
    got, types = _aggregate([t.slice(b * 80, 80) for b in range(5)],
                             ["a", "b"], aggs)
    assert got == _brute_aggregate(t, ["a", "b"], aggs)
    assert any(k[1] is None for k in got)
    assert types["b"] == pa.int32() and types["lo"] == pa.int32()
    assert types["s"] == pa.int64()


def test_aggregate_distinct_keys_and_empty_input(ray_session):
    t = pa.table({"a": pa.array([3, 1, None, 3, 1, None], type=pa.int64()),
                  "b": ["x", "y", "x", "x", "y", None]})
    got, types = _aggregate([t.slice(0, 3), t.slice(3, 3)], ["a", "b"], {})
    assert set(got) == {(3, "x"), (1, "y"), (None, "x"), (None, None)}
    assert all(v == () for v in got.values())
    assert list(types) == ["a", "b"]
    got, _ = _aggregate([t.slice(0, 0)], ["a"], {"n": ("b", "count_all")})
    assert got == {}


def test_bucket_is_the_same_in_every_process(ray_session):
    """``add_bucket_column`` gives every row the same ``__bucket`` on the
    driver and in two worker processes, for a string key with nulls, an
    int64 key and the three string columns of ``EDGE_KEYS`` (with nulls);
    equal keys, null ones included, share a bucket."""
    import ray

    from fashion_knowledge_graph_ray.stages.aggregate import EDGE_KEYS

    n = 60
    t = pa.table({
        "s": [None if i % 4 == 1 else f"w{i % 9}" for i in range(n)],
        "i": pa.array([i % 13 - 6 for i in range(n)], type=pa.int64()),
        "src": [f"e{i % 5}" for i in range(n)],
        "dst": [None if i % 7 == 3 else f"e{i % 3}" for i in range(n)],
        "rel": [("worn_with", "complemented_by")[i % 2] for i in range(n)]})
    shapes = [["s"], ["i"], list(EDGE_KEYS)]

    def buckets(t: pa.Table):
        return os.getpid(), [add_bucket_column(t, k)[bucketed.BUCKET_COL]
                             .to_pylist() for k in shapes]

    # max_calls=1: a worker exits after one task, so each task runs in a
    # process of its own
    task = ray.remote(max_calls=1)(buckets)
    runs = [buckets(t)] + ray.get([task.remote(t) for _ in range(2)])
    assert len({pid for pid, _ in runs}) == 3
    assert all(b == runs[0][1] for _, b in runs)
    for keys, b in zip(shapes, runs[0][1]):
        first = {}
        for key, v in zip(zip(*(t[k].to_pylist() for k in keys)), b):
            assert first.setdefault(key, v) == v, (keys, key)
        assert len(set(b)) > 1, keys


def test_value_counts_without_polars_counts_nulls(ray_session):
    # the null value is one value with its count, through the exchange
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.metrics import value_counts

    vals = pa.array([None if i % 5 == 0 else f"v{i % 7}"
                     for i in range(300)])
    ds = rd.from_arrow([pa.table({"c": vals.slice(i * 60, 60)})
                        for i in range(5)])
    got = {r["value"]: r["n"] for r in value_counts(ds, "c").take_all()}
    vc = pc.value_counts(vals)
    assert got == dict(zip(vc.field("values").to_pylist(),
                           vc.field("counts").to_pylist()))
    assert got[None] == 60


def test_prefix_scan_matches_numpy(ray_session):
    import ray
    import ray.data as rd

    rng = np.random.default_rng(5)
    n = 4000
    skewed = np.append(rng.random(n - 1) * 1000, 1e9)  # one far outlier
    dups = rng.integers(0, 3, n).astype(np.float64)    # 3 distinct values
    w = rng.integers(1, 50, n)
    for keys, blocks in ((skewed, 20), (dups, 40)):
        t = pa.table({"k": keys, "w": w, "i": np.arange(n)})
        ds = rd.from_arrow(t).repartition(blocks)
        for weight in (None, "w"):
            out = prefix_scan(ds, "k", "pos", weight)
            got = out.to_pandas().sort_values("pos")
            step = np.ones(n, np.int64) if weight is None \
                else got["w"].to_numpy()
            assert got["pos"].tolist() == (np.cumsum(step) - step).tolist()
            assert got["k"].tolist() == np.sort(keys).tolist()
            # every input row exactly once, its columns untouched
            assert sorted(zip(got["i"], got["k"], got["w"])) == \
                sorted(zip(range(n), keys, w))
            assert list(out.schema().names) == ["k", "w", "i", "pos"]
        if keys is skewed:  # the sampled cuts spread the skewed column
            sizes = [b.num_rows for b in ray.get(out.to_arrow_refs())]
            assert sum(1 for x in sizes if x) > 1
