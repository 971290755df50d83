"""The shared co-group pair kernel (G1) and relation rule of
``stages/pairs.py`` against brute-force oracles, and ``simhash_pairs``
(which composes the kernel) against pairwise Hamming distance."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from fashion_knowledge_graph_ray.stages.pairs import (
    group_pairs,
    pair_relations,
    rel_type,
)


def _oracle(groups, ids, cap=None) -> set:
    members: dict = {}
    for g, i in zip(groups, ids):
        members.setdefault(g, set()).add(i)
    out = set()
    for g, s in members.items():
        kept = sorted(s)[:cap] if cap is not None else sorted(s)
        out.update((g, a, b) for a, b in itertools.combinations(kept, 2))
    return out


def _pairs(groups, ids, cap=None) -> list:
    g, a, b = group_pairs(np.asarray(groups), np.asarray(ids), cap=cap)
    assert len(g) == len(a) == len(b)
    return list(zip(g.tolist(), a.tolist(), b.tolist()))


@pytest.mark.parametrize("cap", [None, 1, 2, 3])
@pytest.mark.parametrize("kind", ["int", "str"])
def test_group_pairs_matches_oracle(kind, cap):
    rng = random.Random(7)
    groups = [rng.randrange(12) for _ in range(300)]
    # few ids per group, so (group, id) rows repeat; some groups end up
    # with a single distinct id
    ids = [rng.randrange(40) if g % 3 else g for g in groups]
    if kind == "str":
        ids = [f"e{i:03d}" for i in ids]
    got = _pairs(groups, ids, cap)
    assert len(got) == len(set(got))          # each pair once per group
    assert all(a < b for _, a, b in got)
    assert set(got) == _oracle(groups, ids, cap)
    assert (len(got) == 0) == (cap == 1)    # one id per group: no pair


def test_group_pairs_repeats_and_singletons():
    got = _pairs([1, 1, 1, 1, 2, 2, 3],
                 ["b", "a", "b", "a", "z", "z", "q"])
    assert got == [(1, "a", "b")]


def test_group_pairs_cap_keeps_smallest_ids():
    got = _pairs([5] * 6, [9, 3, 7, 3, 1, 8], cap=3)
    assert sorted(got) == [(5, 1, 3), (5, 1, 7), (5, 3, 7)]


def test_group_pairs_empty():
    g, a, b = group_pairs(np.array([], dtype=np.int64),
                          np.array([], dtype=object))
    assert len(g) == len(a) == len(b) == 0


def test_pair_relations_is_rel_type_over_arrays():
    cats = {"a": "top", "b": "top", "c": "shoes", "d": None, "e": "",
            "f": ""}
    ids = list(cats) + ["missing"]
    a, b = zip(*itertools.product(ids, ids))
    got = pair_relations(np.array(a, dtype=object),
                         np.array(b, dtype=object), pd.Series(cats))
    want = [rel_type(cats.get(x), cats.get(y)) for x, y in zip(a, b)]
    assert got.tolist() == want


def test_simhash_pairs_match_brute_force(ray_session):
    import ray.data as rd

    from fashion_knowledge_graph_ray.functions.textstats import (
        hamming64,
        simhash64,
    )
    from fashion_knowledge_graph_ray.stages.dedup import simhash_pairs

    rng = random.Random(11)
    vocab = [f"w{i}" for i in range(400)]
    texts = []
    for _ in range(25):
        base = [rng.choice(vocab) for _ in range(80)]
        texts.append(" ".join(base))
        # planted near-duplicates: an exact copy and 1-3 word edits
        texts.append(" ".join(base))
        for edits in (1, 2, 3):
            near = list(base)
            for _ in range(edits):
                near[rng.randrange(len(near))] = rng.choice(vocab)
            texts.append(" ".join(near))
    ids = [str(i) for i in range(len(texts))]
    sh = [simhash64(x) for x in texts]
    want = set()
    for i, j in itertools.combinations(range(len(texts)), 2):
        d = hamming64(sh[i], sh[j])
        if d <= 3:
            a, b = sorted((ids[i], ids[j]))
            want.add((a, b, d))
    assert any(d > 0 for *_, d in want)   # not only exact copies

    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": texts})).repartition(5)
    rows = simhash_pairs(ds, max_hamming=3).take_all()
    got = [(r["a"], r["b"], r["hamming"]) for r in rows]
    assert len(got) == len(set(got))
    assert set(got) == want
