"""MinHash-LSH canonicalization: signatures, blocking, CC, cluster ids."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

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
                                         max_driver_pairs=0,
                                         num_buckets=4).take_all()}
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
                          threshold=0.9, num_buckets=4)
    assert out.take_all() == []
    # downstream contract: CC over the empty pair set -> all singletons
    from fashion_knowledge_graph_ray.stages.canonicalize import (
        connected_components,
    )

    comp = {r["id"]: r["component"]
            for r in connected_components(
                out, rd.from_arrow(docs.select(["id"])),
                num_buckets=4).take_all()}
    assert comp == {f"d{i}": f"d{i}" for i in range(6)}
