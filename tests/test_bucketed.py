"""``bucketed_group_apply``: one ``bucket_fn`` call per shuffled block, each
call holding every row of the keys it sees, and the output of a plain
per-key groupby."""

from __future__ import annotations

import uuid
from collections import defaultdict

import pyarrow as pa

from fashion_knowledge_graph_ray.stages.bucketed import bucketed_group_apply


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

    n_blocks, num_buckets = 5, 16  # more buckets than blocks
    blocks = _blocks(n_blocks, n_hot=3000, n_cold=200)
    ds = rd.from_arrow(blocks)
    assert ds.materialize().num_blocks() == n_blocks
    out = bucketed_group_apply(ds, ["key"], seen_keys,
                               num_buckets=num_buckets).take_all()

    # no key appears in two calls: every key's rows arrived in ONE call
    keys = [r["key"] for r in out]
    assert len(keys) == len(set(keys))
    # one call per shuffled block (the sort keeps the block count), not
    # one per bucket
    calls = {r["call"] for r in out}
    assert len(calls) <= n_blocks < num_buckets

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
        return t

    # two keys over 64 buckets: most sort partitions come out empty
    t = pa.table({"key": ["a", "b", "a"], "v": pa.array([1, 2, 3])})
    ds = rd.from_arrow([t.slice(0, 1), t.slice(1, 1), t.slice(2, 1)])
    out = bucketed_group_apply(ds, ["key"], strict).take_all()
    assert sorted((r["key"], r["v"]) for r in out) == \
        [("a", 1), ("a", 3), ("b", 2)]
