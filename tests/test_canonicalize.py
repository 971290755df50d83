"""MinHash-LSH canonicalization: signatures, blocking, CC, cluster ids;
the vectorized driver regime against the pure oracle; the sparse
candidate verify spread over several tasks."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from fashion_knowledge_graph_ray.stages.canonicalize import (
    canonicalize_taxonomy,
    jaccard,
    minhash_signature,
    shingles,
)


def test_minhash_deterministic_and_partition_free():
    s1 = minhash_signature("black blouse")
    s2 = minhash_signature("black blouse")
    assert np.array_equal(s1, s2)
    assert s1.shape == (64,)


def test_minhash_estimates_jaccard():
    a, b = "crimson blazer", "crimson balzer"
    est = float(np.mean(minhash_signature(a) == minhash_signature(b)))
    true = jaccard(a, b)
    assert abs(est - true) < 0.25  # 64 perms -> coarse but unbiased


def test_shingles_and_jaccard():
    assert jaccard("abc", "abc") == 1.0
    assert jaccard("abc", "xyz") == 0.0
    assert shingles("ab") == {" ab", "ab ", "b "} or len(shingles("ab")) > 0


def test_canonicalize_merges_near_dups_only(ray_session):
    t = pa.table(
        {
            "entity_id": ["prod-9", "prod-2", "prod-5", "prod-7", "prod-1"],
            "surface": ["black blouse", "black  blouse", "black blouse",
                        "teal tote", "blue blouse"],
            "aliases": [[], [], ["balck blouse"], [], []],
            "category": ["top"] * 3 + ["bag", "top"],
            "gender": ["unisex"] * 5,
            "color": ["black"] * 3 + ["teal", "blue"],
            "material": [[]] * 5,
            "style": [[]] * 5,
        }
    )
    m = canonicalize_taxonomy(t)
    # exact + spacing + typo variants merge; canonical = min entity_id
    assert m["prod-9"] == "prod-2"
    assert m["prod-5"] == "prod-2"
    assert m["prod-2"] == "prod-2"
    # distinct surfaces stay distinct (J("black blouse","blue blouse")=0.4)
    assert m["prod-7"] == "prod-7"
    assert m["prod-1"] == "prod-1"


def test_pure_map_equals_distributed_map(ray_session):
    # canonical_map_pure is the no-Ray reference implementation backing
    # the DuckDB oracle; the distributed path must compute the SAME map
    from fashion_knowledge_graph_ray.datagen import gen_taxonomy
    from fashion_knowledge_graph_ray.stages.canonicalize import (
        canonical_map_pure,
    )

    tax = gen_taxonomy(42)
    pure = canonical_map_pure(tax)
    # max_driver_forms=0 forces the DISTRIBUTED path (the small-taxonomy
    # default would route to the pure path and compare pure to itself)
    dist = canonicalize_taxonomy(tax, max_driver_forms=0)
    assert pure == dist
    assert any(k != v for k, v in pure.items())  # real merges exist


def test_distributed_cc_long_chain_pointer_jumping(ray_session):
    # Chain of 40 nodes (diameter 39): one-hop-per-round propagation would
    # need 39 rounds; pointer jumping must converge well within
    # max_iters=12. max_driver_pairs=0 forces the distributed path.
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.canonicalize import (
        connected_components,
    )

    ids = [f"n{i:03d}" for i in range(40)]
    pairs = rd.from_arrow(pa.table({
        "a": ids[:-1], "b": ids[1:]}))
    nodes = rd.from_arrow(pa.table({"id": ids + ["z-solo"]}))
    out = {r["id"]: r["component"]
           for r in connected_components(pairs, nodes,
                                         max_driver_pairs=0).take_all()}
    assert all(out[i] == "n000" for i in ids)
    assert out["z-solo"] == "z-solo"


def test_canonicalize_transitive_cluster(ray_session):
    # a-b similar, b-c similar, a-c not: one component via transitivity
    t = pa.table(
        {
            "entity_id": ["prod-3", "prod-1", "prod-2"],
            "surface": ["black blouse", "balck blouse", "balck bluose"],
            "aliases": [[], [], []],
            "category": ["top"] * 3,
            "gender": ["unisex"] * 3,
            "color": ["black"] * 3,
            "material": [[]] * 3,
            "style": [[]] * 3,
        }
    )
    m = canonicalize_taxonomy(t)
    assert len(set(m.values())) <= 2  # at least the similar ones merged
    assert m["prod-3"] == m["prod-1"] == "prod-1"


def test_minhash_signatures_batch_parity():
    # the batched kernel must be numerically identical to the per-doc
    # reference for every length class (empty, sub-shingle, realistic)
    import numpy as np

    from fashion_knowledge_graph_ray.stages.canonicalize import (
        minhash_signature,
        minhash_signatures_batch,
    )

    texts = ["", "a", "ab", "  ", "İİ", "black blouse",
             "a rather longer document " * 40,
             "denim jacket with straße and İstanbul mentions",
             None]
    texts = [t or "" for t in texts]
    for num_perm, k in [(64, 3), (64, 5), (16, 4)]:
        exp = np.stack([minhash_signature(t, num_perm, k) for t in texts])
        got = minhash_signatures_batch(texts, num_perm, k)
        assert np.array_equal(exp, got), (num_perm, k)


def test_candidate_pairs_no_candidates(ray_session):
    # all-distinct corpus: incidental LSH band collisions (English
    # sentences share char shingles) may still yield candidates, but
    # exact-Jaccard verification at 0.9 rejects every one of them, so the
    # output is empty and must still be an (a, b) string-typed dataset
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.canonicalize import (
        candidate_pairs,
        lsh_band_rows,
    )

    docs = pa.table({
        "id": [f"d{i}" for i in range(6)],
        "text": [
            "alpha bravo charlie delta echo foxtrot golf",
            "one two three four five six seven eight nine",
            "the rain in spain falls mainly on the plain",
            "pack my box with five dozen liquor jugs today",
            "sphinx of black quartz judge my vow tonight",
            "how vexingly quick daft zebras jump around",
        ],
    })
    bands = lsh_band_rows(rd.from_arrow(docs), "text", "id").materialize()
    out = candidate_pairs(bands, rd.from_arrow(docs),
                          threshold=0.9)
    assert out.take_all() == []
    # downstream contract: CC over the empty pair set -> all singletons
    from fashion_knowledge_graph_ray.stages.canonicalize import (
        connected_components,
    )

    comp = {r["id"]: r["component"]
            for r in connected_components(
                out, rd.from_arrow(docs.select(["id"]))).take_all()}
    assert comp == {f"d{i}": f"d{i}" for i in range(6)}


def test_band_exchange_fans_out_over_band_blocks(ray_session, monkeypatch,
                                                 tmp_path):
    """``candidate_pairs`` materializes the band rows before the band-key
    exchange. Fused with its 16384-row tag stage, ``lsh_band_rows``
    bundled the whole 5,000-record corpus into one task, so the exchange
    sorted into one block and ``pairs_in_buckets`` ran as one call."""
    import os
    import uuid

    import ray.data as rd

    from fashion_knowledge_graph_ray.stages import canonicalize as cz

    calls = tmp_path / "calls"
    calls.mkdir()
    real = cz.bucketed_group_apply

    def counted(ds, keys, bucket_fn):
        def fn(t: pa.Table) -> pa.Table:
            (calls / uuid.uuid4().hex).touch()
            return bucket_fn(t)
        return real(ds, keys, fn)

    monkeypatch.setattr(cz, "bucketed_group_apply", counted)
    # 2,500 distinct random texts, each twice (ids i and i + 2,500)
    rng = np.random.default_rng(7)
    vocab = ["".join(rng.choice(list("abcdefghijklmnop"), 6))
             for _ in range(4000)]
    texts = [" ".join(rng.choice(vocab, 8)) for _ in range(2500)] * 2
    n = len(texts)
    docs = pa.table({"id": [f"d{i:05d}" for i in range(n)], "text": texts})
    ds = rd.from_arrow([docs.slice(i, 250) for i in range(0, n, 250)])
    out = cz.candidate_pairs(cz.lsh_band_rows(ds, "text", "id"), ds,
                             threshold=0.9)
    assert len(os.listdir(calls)) > 1
    assert {(r["a"], r["b"]) for r in out.take_all()} == \
        {(f"d{i:05d}", f"d{i + 2500:05d}") for i in range(2500)}


def _spy_verify_tasks(monkeypatch, calls) -> None:
    """Touch one file per Ray task that runs ``candidate_pairs``'
    ``verify``, named by its task id."""
    import ray
    import ray.data as rd

    real = rd.Dataset.map_batches

    def spy(self, fn, *a, **kw):
        if getattr(fn, "__name__", "") == "verify":
            inner = fn

            def fn(t: pa.Table) -> pa.Table:  # noqa: F811
                task = ray.get_runtime_context().get_task_id()
                (calls / str(task)).touch()
                return inner(t)
        return real(self, fn, *a, **kw)

    monkeypatch.setattr(rd.Dataset, "map_batches", spy)


def test_sparse_verify_runs_on_several_tasks(ray_session, monkeypatch,
                                            tmp_path):
    """The sparse regime splits its candidates into about one block per
    CPU, so the exact-Jaccard ``verify`` runs on more than one task; from
    one ``from_arrow`` block it ran as one task on one core."""
    import os

    import ray.data as rd

    from fashion_knowledge_graph_ray.stages import canonicalize as cz

    calls = tmp_path / "calls"
    calls.mkdir()
    _spy_verify_tasks(monkeypatch, calls)
    rng = np.random.default_rng(11)
    vocab = ["".join(rng.choice(list("abcdefghijklmnop"), 6))
             for _ in range(2000)]
    texts = [" ".join(rng.choice(vocab, 8)) for _ in range(400)] * 2
    n = len(texts)
    docs = pa.table({"id": [f"d{i:04d}" for i in range(n)], "text": texts})
    ds = rd.from_arrow([docs.slice(i, 100) for i in range(0, n, 100)])
    out = cz.candidate_pairs(cz.lsh_band_rows(ds, "text", "id"), ds,
                             threshold=0.9)
    assert {(r["a"], r["b"]) for r in out.take_all()} == \
        {(f"d{i:04d}", f"d{i + 400:04d}") for i in range(400)}
    assert len(os.listdir(calls)) > 1


def _tax(rows) -> pa.Table:
    """A taxonomy of ``(entity_id, surface, aliases)`` rows."""
    from fashion_knowledge_graph_ray.schemas import TAXONOMY_SCHEMA

    n = len(rows)
    return pa.table({
        "entity_id": [r[0] for r in rows], "surface": [r[1] for r in rows],
        "aliases": [r[2] for r in rows], "category": ["top"] * n,
        "gender": ["unisex"] * n, "color": ["black"] * n,
        "material": [[]] * n, "style": [[]] * n}, schema=TAXONOMY_SCHEMA)


@pytest.mark.parametrize("case", [
    "gen_taxonomy", "short_forms", "shared_form", "empty_null_aliases",
    "empty"])
def test_driver_regime_equals_pure_oracle(case):
    """``canonicalize_taxonomy``'s in-process regime returns
    ``canonical_map_pure``'s map: on ``gen_taxonomy`` seeds 1-10, on
    forms shorter than the shingle width, on one form owned by two
    entities, on empty and null aliases, and on an empty taxonomy."""
    from fashion_knowledge_graph_ray.datagen import gen_taxonomy
    from fashion_knowledge_graph_ray.stages.canonicalize import (
        canonical_map_pure,
    )

    taxes = {
        "gen_taxonomy": [gen_taxonomy(seed) for seed in range(1, 11)],
        "short_forms": [_tax([("p-3", "ab", ["a", "ab "]), ("p-1", "ab", []),
                              ("p-2", "x", ["a"]), ("p-4", "", [])])],
        "shared_form": [_tax([("p-9", "navy blazer", ["navy blazr"]),
                              ("p-4", "navy blazer", []),
                              ("p-6", "navy blazr", ["red scarf"]),
                              ("p-5", "red scarf", [])])],
        "empty_null_aliases": [_tax([
            ("p-2", "black tee", ["", None, "black tee"]),
            ("p-1", "black tee", None), ("p-3", None, ["", None]),
            ("p-0", "", [None])])],
        "empty": [_tax([])],
    }[case]
    for tax in taxes:
        want = canonical_map_pure(tax)
        assert canonicalize_taxonomy(tax) == want
        if case == "gen_taxonomy":
            assert sum(k != v for k, v in want.items()) == 163
    if case in ("short_forms", "shared_form", "empty_null_aliases"):
        assert any(k != v for k, v in want.items())
