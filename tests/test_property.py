"""Property-based checks (hypothesis): the distributed operators must
equal their obvious in-memory reference implementations on arbitrary small
inputs — catching edge cases fixed fixtures miss (empty strings, duplicate
keys, all-identical rows)."""

from __future__ import annotations

import itertools

import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

SET = settings(max_examples=8, deadline=None,
               suppress_health_check=list(HealthCheck))

WORDS = ["alpha", "beta", "gamma", "delta", "x", "yy"]
texts = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=0, max_size=12).map(" ".join),
    min_size=1, max_size=12)


@SET
@given(texts=texts, threshold=st.sampled_from([0.3, 0.5, 0.8]))
def test_jaccard_join_equals_bruteforce(ray_session, texts, threshold):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.dedup import (
        _word_ngram_hashes,
        jaccard_ngram_pairs,
    )

    ds = rd.from_arrow(pa.table({"doc_id": list(range(len(texts))),
                                 "text": texts}))
    got = {(r["a"], r["b"]): r["jac"]
           for r in jaccard_ngram_pairs(ds, n=2, threshold=threshold,
                                        demote_sample=4).take_all()}
    want = {}
    grams = [set(_word_ngram_hashes(t, 2).tolist()) for t in texts]
    for i, j in itertools.combinations(range(len(texts)), 2):
        gi, gj = grams[i], grams[j]
        if not gi or not gj:
            continue
        inter = len(gi & gj)
        if inter == 0:
            continue
        jac = inter / (len(gi) + len(gj) - inter)
        if jac >= threshold:
            want[(i, j)] = jac
    assert got == want


keys = st.lists(st.integers(min_value=0, max_value=5), min_size=0,
                max_size=10)


@SET
@given(lk=keys, rk=keys)
def test_shuffle_join_equals_nested_loop(ray_session, lk, rk):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.relational import shuffle_join

    if not lk or not rk:
        return
    left = pa.table({"k": lk, "lv": [f"l{i}" for i in range(len(lk))]})
    right = pa.table({"rk": rk, "rv": [f"r{i}" for i in range(len(rk))]})
    got = sorted((r["k"], r["lv"], r["rv"]) for r in
                 shuffle_join(rd.from_arrow(left), rd.from_arrow(right),
                              "k", "rk").take_all())
    want = sorted((a, f"l{i}", f"r{j}")
                  for i, a in enumerate(lk)
                  for j, b in enumerate(rk) if a == b)
    assert got == want


@SET
@given(lk=keys, rk=keys)
def test_anti_join_shuffle_equals_setminus(ray_session, lk, rk):
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.relational import (
        anti_join_shuffle,
    )

    if not lk:
        return
    left = pa.table({"k": lk})
    right = pa.table({"rk": rk or [999]})
    got = sorted(r["k"] for r in
                 anti_join_shuffle(rd.from_arrow(left), "k",
                                   rd.from_arrow(right), "rk").take_all())
    want = sorted(a for a in lk if a not in set(rk or [999]))
    assert got == want


@SET
@given(vals=st.lists(st.sampled_from(["a", "b", "c", None]), min_size=1,
                     max_size=20))
def test_value_counts_equals_counter(ray_session, vals):
    from collections import Counter

    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.metrics import value_counts

    ds = rd.from_arrow(pa.table({"c": vals}))
    out = {r["value"]: r["n"] for r in value_counts(ds, "c").take_all()}
    assert out == dict(Counter(vals))


multiline = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=0, max_size=6).map(" ".join),
    min_size=1, max_size=8).map("\n".join)


@SET
@given(text=multiline)
def test_repetition_kernels_match_bruteforce(text):
    from collections import Counter

    from fashion_knowledge_graph_ray.functions.textstats import (
        line_dup_stats,
        tokens,
        top_bigram_frac,
    )

    n_lines, dup = line_dup_stats(text)
    lines = text.split("\n")
    assert n_lines == len(lines)
    assert dup == 1.0 - len(set(lines)) / len(lines)
    assert 0.0 <= dup < 1.0

    tb = top_bigram_frac(text)
    toks = tokens(text)
    if len(toks) < 2:
        assert tb == 0.0
    else:
        grams = list(zip(toks, toks[1:]))
        assert tb == Counter(grams).most_common(1)[0][1] / len(grams)
        assert 0.0 < tb <= 1.0


def test_repetition_known_values():
    from fashion_knowledge_graph_ray.functions.textstats import (
        line_dup_stats,
        top_bigram_frac,
    )

    assert line_dup_stats("") == (1, 0.0)
    assert line_dup_stats("a\nb\na") == (3, 1.0 - 2 / 3)
    assert top_bigram_frac("a b a b a") == 0.5  # 'a b' twice of 4 slots
    assert top_bigram_frac("one") == 0.0


def test_scrub_pii_known_values():
    import pyarrow as pa

    from fashion_knowledge_graph_ray.stages.scrub import scrub_pii_batch

    t = pa.table({
        "doc_id": pa.array([0, 1, 2, 3], type=pa.int64()),
        "text": pa.array([
            "mail me at jo.doe+x@sub.example.org today",
            "server 192.168.0.1 and 10.0.0.255 up",
            # an IPv4 must be scrubbed as <IP>, never double-counted as a
            # phone (counts are taken AFTER the previous pattern's scrub)
            "call +1 (555) 010-9999 from 10.1.2.3",
            None,
        ]),
    })
    out = scrub_pii_batch(t)
    rows = out.to_pylist()
    assert rows[0]["scrubbed"] == "mail me at <EMAIL> today"
    assert (rows[0]["n_emails"], rows[0]["n_ips"], rows[0]["n_phones"]) \
        == (1, 0, 0)
    assert rows[1]["scrubbed"] == "server <IP> and <IP> up"
    assert rows[1]["n_ips"] == 2 and rows[1]["n_phones"] == 0
    assert rows[2]["scrubbed"] == "call <PHONE> from <IP>"
    assert (rows[2]["n_emails"], rows[2]["n_ips"], rows[2]["n_phones"]) \
        == (0, 1, 1)
    assert rows[3]["scrubbed"] == "" and rows[3]["n_emails"] == 0
