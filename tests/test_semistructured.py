"""Tests for stages/semistructured.py — JSON flattening: typed nulls for
every failure mode, passthrough columns intact."""

import pyarrow as pa
import ray.data as rd

from fashion_knowledge_graph_ray.stages.semistructured import json_flatten


def test_json_flatten_paths_types_and_errors(ray_session):
    rows = [
        '{"a": {"b": 3}, "s": "x", "f": 1.5, "t": true}',
        '{"a": {"b": "7"}, "s": 9, "f": "2.5", "t": "true"}',  # casts
        '{"a": []}',                  # non-dict intermediate
        'not json',                   # malformed
        None,                         # null doc
        '{"a": {"b": true}}',         # bool is NOT silently int
    ]
    tbl = pa.table({"id": pa.array(range(len(rows)), type=pa.int64()),
                    "props": pa.array(rows, type=pa.string())})
    out = json_flatten(
        rd.from_arrow(tbl).repartition(3), "props",
        {"ab": ("a.b", pa.int64()), "s": ("s", pa.string()),
         "f": ("f", pa.float64()), "t": ("t", pa.bool_())},
    ).to_pandas().sort_values("id").reset_index(drop=True)

    assert out["ab"].tolist()[0] == 3
    assert out["ab"].tolist()[1] == 7          # "7" casts
    assert out["ab"].isna().tolist()[2:] == [True, True, True, True]
    assert out["s"].tolist()[:2] == ["x", "9"]
    assert out["f"].tolist()[:2] == [1.5, 2.5]
    assert out["t"].tolist()[0] is True
    assert out["t"].isna().tolist()[1]         # "true" str is not bool
    assert list(out.columns) == ["id", "ab", "s", "f", "t"]


def test_json_flatten_rejects_unsupported_type(ray_session):
    import pytest

    tbl = pa.table({"props": pa.array(['{"k": 1}'])})
    with pytest.raises(ValueError):
        json_flatten(rd.from_arrow(tbl), "props",
                     {"k": ("k", pa.list_(pa.int64()))})


def test_ngram_counts_matches_sequential(ray_session):
    from collections import Counter

    import numpy as np

    from fashion_knowledge_graph_ray.functions.textstats import tokens
    from fashion_knowledge_graph_ray.stages.corpus import ngram_counts

    rng = np.random.default_rng(4)
    words = ["a", "bb", "ccc", "dd"]
    texts = [" ".join(rng.choice(words, size=int(rng.integers(0, 9))))
             for _ in range(100)]
    tbl = pa.table({"text": pa.array(texts)})
    out = ngram_counts(rd.from_arrow(tbl).repartition(6), 2).to_pandas()
    exp: Counter = Counter()
    for x in texts:
        w = tokens(x)
        exp.update(" ".join(w[i:i + 2]) for i in range(len(w) - 1))
    assert dict(zip(out["gram"], out["n"])) == dict(exp)
