"""End-to-end test of pipelines/prepare_training.py: composition result
equals a sequential reference; partitioning-invariant."""

import numpy as np
import pyarrow as pa
import ray.data as rd

from fashion_knowledge_graph_ray.functions.textstats import (
    predict_lang,
    tokens,
)
from fashion_knowledge_graph_ray.pipelines.prepare_training import (
    prepare_training_set,
)
from fashion_knowledge_graph_ray.stages.decontam import (
    benchmark_gram_set,
    text_ngrams,
)


def _corpus(n=300, seed=13):
    rng = np.random.default_rng(seed)
    en = ["the", "and", "of", "fast", "table", "query", "spark", "row"]
    texts = []
    for i in range(n):
        words = rng.choice(en, size=int(rng.integers(10, 60))).tolist()
        texts.append(" ".join(words))
    texts[7] = texts[3]          # exact duplicate (higher id loses)
    sources = [f"src{i % 4}" for i in range(n)]
    return pa.table({
        "doc_id": pa.array(range(n), type=pa.int64()),
        "text": pa.array(texts),
        "source": pa.array(sources),
    })


def _sequential(tbl, grams, rates, default_rate, budget=64):
    import hashlib

    rows = list(zip(tbl["doc_id"].to_pylist(), tbl["text"].to_pylist(),
                    tbl["source"].to_pylist()))
    # gate
    kept = [(i, t, s) for i, t, s in rows
            if 25 <= len(tokens(t)) <= 90 and predict_lang(t) == "en"]
    # exact dedup first-wins
    seen: dict = {}
    for i, t, s in kept:
        seen.setdefault(t, i)
    kept = [(i, t, s) for i, t, s in kept if seen[t] == i]
    # decontam
    out = []
    for i, t, s in kept:
        g = text_ngrams(t, 5)
        h = sum(1 for x in g if x in grams)
        if not (len(g) > 0 and h * 100 >= len(g) * 10):
            out.append((i, t, s))
    # stratified mix
    def cut(r):
        return format(min(int(r * (1 << 32)), (1 << 32) - 1), "08x")

    mixed = [(i, t) for i, t, s in out
             if hashlib.md5(str(i).encode()).hexdigest()[:8]
             < cut(rates.get(s, default_rate))]
    # pack
    mixed.sort()
    res = {}
    off = 0
    for i, t in mixed:
        n = len(tokens(t))
        res[i] = (n, off, off // budget)
        off += n
    return res


def test_prepare_training_matches_sequential(ray_session):
    tbl = _corpus()
    bench = [t for i, t in zip(tbl["doc_id"].to_pylist(),
                               tbl["text"].to_pylist()) if i % 20 == 0]
    grams = benchmark_gram_set(bench, 5)
    rates = {"src0": 0.9, "src1": 0.4}
    exp = _sequential(tbl, grams, rates, 0.2)

    for parts in (1, 7):
        out = prepare_training_set(
            rd.from_arrow(tbl).repartition(parts), grams, rates,
            default_rate=0.2, budget=64).to_pandas()
        got = {r.doc_id: (r.n_tokens, r.start_offset, r.bin_id)
               for r in out.itertuples()}
        assert got == exp
    # the planted duplicate pair (3, 7) share one text: at most one
    # survives, and if any did it must be the lower id
    assert not (3 in exp and 7 in exp)
    assert 7 not in exp
