"""Tests for stages/corpus.py: sequence packing and corpus-frequency
scoring (distributed results == sequential reference on the same data)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data as rd

from fashion_knowledge_graph_ray.functions.textstats import tokens
from fashion_knowledge_graph_ray.stages.corpus import (
    corpus_token_counts,
    pack_bins,
    token_freq_scores,
)


def _docs(n=200, seed=7):
    rng = np.random.default_rng(seed)
    words = ["red", "blue", "silk", "denim", "jacket", "dress", "x1",
             "zz9", "the", "a"]
    texts = [
        " ".join(rng.choice(words, size=int(rng.integers(0, 12))))
        for _ in range(n)
    ]
    texts[5] = ""           # empty doc
    texts[6] = "   "        # whitespace-only doc
    # non-dense, shuffled ids: exercises range partitioning on gaps
    ids = rng.permutation(np.arange(0, n * 3, 3)).tolist()
    return pa.table({"doc_id": pa.array(ids, type=pa.int64()),
                     "text": pa.array(texts, type=pa.string())})


def test_pack_bins_matches_sequential(ray_session):
    tbl = _docs()
    ds = rd.from_arrow(tbl).repartition(9)
    out = pack_bins(ds, 32).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)

    order = sorted(range(tbl.num_rows),
                   key=lambda i: tbl["doc_id"][i].as_py())
    off, exp = 0, {}
    for i in order:
        n = len(tokens(tbl["text"][i].as_py()))
        exp[tbl["doc_id"][i].as_py()] = (n, off, off // 32)
        off += n

    assert len(out) == tbl.num_rows
    for _, row in out.iterrows():
        n, start, b = exp[row["doc_id"]]
        assert (row["n_tokens"], row["start_offset"], row["bin_id"]) \
            == (n, start, b)


def test_pack_bins_same_result_for_any_block_layout(ray_session):
    tbl = _docs(80)
    a = pack_bins(rd.from_arrow(tbl), 16).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    b = pack_bins(rd.from_arrow(tbl).repartition(5), 16).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)


def test_pack_bins_empty_input_is_typed(ray_session):
    empty = pa.table({"doc_id": pa.array([], type=pa.int64()),
                      "text": pa.array([], type=pa.string())})
    out = pack_bins(rd.from_arrow(empty), 16)
    assert out.count() == 0
    assert out.schema().names == ["doc_id", "n_tokens", "start_offset",
                                  "bin_id"]


def test_pack_bins_rejects_bad_budget(ray_session):
    ds = rd.from_arrow(_docs(10))
    with pytest.raises(ValueError):
        pack_bins(ds, 0)


def test_corpus_token_counts(ray_session):
    tbl = _docs(150)
    ds = rd.from_arrow(tbl).repartition(6)
    got = {r["token"]: r["n"]
           for r in corpus_token_counts(ds).take_all()}
    from collections import Counter

    exp = Counter()
    for t in tbl["text"].to_pylist():
        exp.update(tokens(t))
    assert got == dict(exp)


def test_token_freq_scores_matches_sequential(ray_session):
    tbl = _docs(150)
    ds = rd.from_arrow(tbl).repartition(6)
    out = token_freq_scores(ds, rare_threshold=2).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)

    from collections import Counter

    vocab = Counter()
    for t in tbl["text"].to_pylist():
        vocab.update(tokens(t))
    for i in range(tbl.num_rows):
        did = tbl["doc_id"][i].as_py()
        tks = tokens(tbl["text"][i].as_py())
        cs = [vocab[t] for t in tks]
        row = out[out["doc_id"] == did].iloc[0]
        assert row["n_tokens"] == len(tks)
        assert row["tf_sum"] == sum(cs)
        assert row["sum_log2_floor"] == sum(c.bit_length() - 1 for c in cs)
        assert row["rare_count"] == sum(1 for c in cs if c <= 2)
        assert row["mean_token_freq"] == (sum(cs) / len(cs) if cs else 0.0)


def test_token_freq_min_count_lower_bounds(ray_session):
    # approximate regime: singletons dropped from the broadcast default
    # to count 1 (exact); counts in (1, min_count) floor to 1
    tbl = pa.table({
        "doc_id": pa.array([1, 2], type=pa.int64()),
        "text": pa.array(["aa aa aa bb bb cc", "aa cc"], type=pa.string()),
    })
    ds = rd.from_arrow(tbl).repartition(2)
    out = token_freq_scores(ds, min_count=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # aa count=4 kept; bb count=2 dropped->1; cc count=2 dropped->1
    assert out.iloc[0]["tf_sum"] == 4 * 3 + 1 * 2 + 1
    assert out.iloc[1]["tf_sum"] == 4 + 1


def test_with_global_index(ray_session):
    from fashion_knowledge_graph_ray.stages.corpus import with_global_index

    rng = np.random.default_rng(31)
    keys = [f"{x:08x}" for x in rng.choice(2**32, 700, replace=False)]
    tbl = pa.table({"k": pa.array(keys, type=pa.string()),
                    "payload": pa.array(range(700), type=pa.int64())})
    out = with_global_index(
        rd.from_arrow(tbl).repartition(8), "k",
        index_col="idx").to_pandas().sort_values("idx")
    # contiguous 0..n-1 ranks, ascending with the key order
    assert out["idx"].tolist() == list(range(700))
    assert out["k"].is_monotonic_increasing
    # payload rides through untouched
    exp = sorted(range(700), key=lambda i: keys[i])
    assert out["payload"].tolist() == exp


def test_with_global_index_single_block(ray_session):
    from fashion_knowledge_graph_ray.stages.corpus import with_global_index

    tbl = pa.table({"k": pa.array(["b", "a", "c"], type=pa.string())})
    out = with_global_index(rd.from_arrow(tbl), "k").to_pandas() \
        .sort_values("index")
    assert out["k"].tolist() == ["a", "b", "c"]
    assert out["index"].tolist() == [0, 1, 2]


def test_with_global_index_empty_input_is_typed(ray_session):
    from fashion_knowledge_graph_ray.stages.corpus import with_global_index

    empty = pa.table({"k": pa.array([], type=pa.string())})
    out = with_global_index(rd.from_arrow(empty), "k")
    assert out.count() == 0
    assert out.schema().names == ["k", "index"]


def test_tfidf_topk_matches_sequential(ray_session):
    from collections import Counter

    from fashion_knowledge_graph_ray.stages.corpus import tfidf_topk

    tbl = _docs(120)
    ds = rd.from_arrow(tbl).repartition(6)
    out = tfidf_topk(ds, 2).to_pandas()

    n = tbl.num_rows
    df_counts: Counter = Counter()
    for t in tbl["text"].to_pylist():
        df_counts.update(set(tokens(t)))
    exp_rows = set()
    for i in range(n):
        did = tbl["doc_id"][i].as_py()
        tf = Counter(tokens(tbl["text"][i].as_py()))
        scored = sorted((-c * ((1000 * n) // df_counts[tok]), tok)
                        for tok, c in tf.items())[:2]
        for r, (neg, tok) in enumerate(scored, start=1):
            exp_rows.add((did, tok, -neg, r))
    got = set(zip(out["doc_id"], out["token"], out["score"], out["rank"]))
    assert got == exp_rows
    # empty/whitespace docs contribute no keyword rows
    assert (out["doc_id"] != tbl["doc_id"][5].as_py()).all()


def test_inverted_index_matches_sequential(ray_session):
    from fashion_knowledge_graph_ray.stages.corpus import inverted_index

    tbl = _docs(150)
    ds = rd.from_arrow(tbl).repartition(7)
    out = inverted_index(ds).to_pandas()

    exp: dict = {}
    for i in range(tbl.num_rows):
        did = tbl["doc_id"][i].as_py()
        for tok in set(tokens(tbl["text"][i].as_py())):
            exp.setdefault(tok, []).append(did)
    assert len(out) == len(exp)
    for _, row in out.iterrows():
        ids = sorted(exp[row["token"]])
        assert row["df"] == len(ids)
        assert row["postings"] == ",".join(map(str, ids))
        assert not row["postings_truncated"]


def test_inverted_index_postings_cap(ray_session):
    from fashion_knowledge_graph_ray.stages.corpus import inverted_index

    tbl = pa.table({
        "doc_id": pa.array(range(10), type=pa.int64()),
        "text": pa.array(["hot word"] * 10),
    })
    out = inverted_index(rd.from_arrow(tbl).repartition(3),
                         postings_cap=4).to_pandas()
    row = out[out["token"] == "hot"].iloc[0]
    assert row["df"] == 10                      # df counts ALL docs
    assert row["postings"] == "0,1,2,3"          # capped ascending
    assert bool(row["postings_truncated"])


def test_inverted_index_hot_token_capped(ray_session):
    """A token in every doc (the hot key) keeps its full ``df`` while its
    postings are capped to the smallest ids and flagged."""
    from fashion_knowledge_graph_ray.stages.corpus import inverted_index

    tbl = pa.table({
        "doc_id": pa.array(range(60), type=pa.int64()),
        # 'the' in every doc (hot), tail words sparse; cap forces
        # truncation of the hot token only
        "text": pa.array([f"the w{i % 7} w{i % 13}" for i in range(60)]),
    })
    out = inverted_index(rd.from_arrow(tbl).repartition(8),
                         postings_cap=20).to_pandas()
    hot = out[out["token"] == "the"].iloc[0]
    assert hot["df"] == 60 and bool(hot["postings_truncated"])
    assert hot["postings"] == ",".join(map(str, range(20)))
    assert not out[out["token"] != "the"]["postings_truncated"].any()


def test_source_stats_matches_sequential(ray_session):
    from fashion_knowledge_graph_ray.stages.metrics import source_stats

    tbl = pa.table({
        "source": ["a", "a", "b", "b", "b"],
        "text": ["one two", "three", "", "x y z", "x"],
        "n_chars": pa.array([6, 5, 0, 3, 1], type=pa.int64()),
        "lang": ["en", "de", "en", "en", None],
    })
    out = source_stats(rd.from_arrow(tbl).repartition(3)) \
        .to_pandas().sort_values("source").reset_index(drop=True)
    assert out["source"].tolist() == ["a", "b"]
    assert out["n_docs"].tolist() == [2, 3]
    assert out["sum_tokens"].tolist() == [3, 4]
    assert out["avg_chars_milli"].tolist() == [(1000 * 11) // 2,
                                               (1000 * 4) // 3]
    assert out["n_langs"].tolist() == [2, 1]  # None lang not counted


def test_bm25_topk_matches_sequential(ray_session):
    from fashion_knowledge_graph_ray.stages.corpus import bm25_topk

    tbl = _docs(120)
    ds = rd.from_arrow(tbl).repartition(6)
    out = bm25_topk(ds, ["red", "silk"], 10).to_pandas()

    # sequential integer reference
    texts = tbl["text"].to_pylist()
    ids = tbl["doc_id"].to_pylist()
    docs = [tokens(x) for x in texts]
    n = len(docs)
    avgdl = max(1, sum(len(d) for d in docs) // n)
    scores = {}
    for w in ("red", "silk"):
        df = sum(1 for d in docs if w in d)
        if not df:
            continue
        idf = (1000 * n) // df
        for i, d in zip(ids, docs):
            tf = d.count(w)
            if tf:
                norm = 250 + (750 * len(d)) // avgdl
                scores[i] = scores.get(i, 0) + idf * (tf * 2200) // (
                    tf * 1000 + (1200 * norm) // 1000)
    exp = sorted(((s, i) for i, s in scores.items()),
                 key=lambda t: (-t[0], t[1]))[:10]
    assert list(zip(out["score"], out["doc_id"])) == exp


def test_bm25_rejects_empty_query(ray_session):
    from fashion_knowledge_graph_ray.stages.corpus import bm25_topk

    with pytest.raises(ValueError):
        bm25_topk(rd.from_arrow(_docs(50)), [], 5)
