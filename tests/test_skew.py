"""Skew handling: the bucketed, per-batch pre-combined aggregation under
a hot key, and the hot-key pages corpus end-to-end (datagen ``skew=True``
concentrates ~50% of pages on entity 0 — the 'hot brand' shape of
SURVEY.md §4.3)."""

from __future__ import annotations

import pyarrow as pa
import pytest

from fashion_knowledge_graph_ray.stages.aggregate import (
    merge_edge_counts,
    partial_edge_count,
)
from fashion_knowledge_graph_ray.stages.bucketed import bucketed_group_apply


def _hot_pairs(n_hot: int, n_cold: int) -> pa.Table:
    src = ["hot"] * n_hot + [f"c{i}" for i in range(n_cold)]
    dst = ["x"] * n_hot + ["y"] * n_cold
    return pa.table({
        "src": pa.array(src, type=pa.string()),
        "dst": pa.array(dst, type=pa.string()),
        "rel": pa.array(["worn_with"] * (n_hot + n_cold), type=pa.string()),
        "url": pa.array([f"u{i}" for i in range(n_hot + n_cold)],
                        type=pa.string()),
    })


def test_hot_key_edge_weight_exact(ray_session):
    # a hot key arrives as one pre-combined row per upstream batch and
    # the bucketed merge sums those partials to the exact total
    import ray.data as rd

    t = _hot_pairs(5000, 200)
    out = bucketed_group_apply(
        rd.from_arrow(t).map_batches(partial_edge_count,
                                     batch_format="pyarrow", batch_size=256),
        ["src", "dst", "rel"], merge_edge_counts)
    got = {(r["src"], r["dst"]): r["weight"] for r in out.take_all()}
    assert got[("hot", "x")] == 5000
    assert len(got) == 201
    assert all(w == 1 for k, w in got.items() if k != ("hot", "x"))


def test_skewed_corpus_edges_deterministic(ray_session):
    # end-to-end: hot-entity corpus aggregates identically at 1 vs 16 blocks
    import ray.data as rd

    from fashion_knowledge_graph_ray.datagen import gen_pages_table, gen_taxonomy
    from fashion_knowledge_graph_ray.stages.aggregate import aggregate_edges
    from fashion_knowledge_graph_ray.stages.extract import dedup_pages
    from fashion_knowledge_graph_ray.stages.linker import enrich_pages
    from fashion_knowledge_graph_ray.stages.pairs import generate_pairs

    import ray

    tax = gen_taxonomy(42)
    tax_ref = ray.put(tax)
    pages = gen_pages_table(seed=7, n_pages=200, skew=True)

    def edges_at(nblocks: int):
        ds = rd.from_arrow(pages).repartition(nblocks)
        linked = dedup_pages(enrich_pages(ds, tax_ref, link_mode="gazetteer",
                                          concurrency=2))
        e = aggregate_edges(generate_pairs(linked, tax_ref))
        return sorted(
            ((r["src"], r["dst"], r["rel"], r["weight"],
              tuple(r["pages"])) for r in e.take_all()))

    one, many = edges_at(1), edges_at(16)
    assert one == many and len(one) > 0
    # hot entity participates in far more edges than any cold entity
    hot_edges = [r for r in one if "prod-000000" in (r[0], r[1])]
    assert len(hot_edges) > 0
