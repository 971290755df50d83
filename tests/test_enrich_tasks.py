"""The fused enrichment runs as a task stage with per-worker state.

- the build path plans no actor pool, and the enrichment operator keeps
  the ``EnrichmentStage`` name its stats are found by;
- the per-process memo never serves a previous build's state: builds in
  one Ray session over different taxonomies and link modes each equal an
  in-process ``EnrichmentStage``, and no worker holds more than one entry.
"""

import os

import pyarrow as pa
import pytest

from fashion_knowledge_graph_ray.datagen import gen_pages_table, gen_taxonomy
from fashion_knowledge_graph_ray.stages import linker
from fashion_knowledge_graph_ray.stages.linker import (
    EmbeddingLinker,
    EnrichmentStage,
    EnrichmentStageTask,
    enrich_pages,
)


@pytest.fixture(scope="module")
def taxes():
    # the second taxonomy drops entities the pages mention, so a detector
    # or linker left over from the first gives visibly different output
    return gen_taxonomy(42), gen_taxonomy(42, n_entities=250)


@pytest.fixture(scope="module")
def pages(taxes):
    return gen_pages_table(42, 240, taxes[0])


def _physical_ops(ds):
    from ray.data._internal.logical.optimizers import get_execution_plan

    todo, ops = [get_execution_plan(ds._logical_plan).dag], []
    while todo:
        op = todo.pop()
        ops.append(op)
        todo.extend(op.input_dependencies)
    return ops


def _rows(tbl: pa.Table) -> tuple[list, list]:
    """(rows in url order without link_score, the link_scores in that
    order). Cosine scores move by a few float32 ulps with the batch a
    mention is linked in (BLAS blocking), and Ray Data batches pages
    differently from one in-process call, so scores compare approximately
    and everything else exactly."""
    rows = tbl.sort_by([("url", "ascending"),
                        ("warc_ts", "ascending")]).to_pylist()
    scores = [m.pop("link_score") for r in rows for m in r["mentions"]]
    return rows, scores


def _same(got: pa.Table, want: pa.Table) -> bool:
    (g_rows, g_sc), (w_rows, w_sc) = _rows(got), _rows(want)
    return g_rows == w_rows and [s is None for s in g_sc] == [
        s is None for s in w_sc] and [s for s in g_sc if s is not None] \
        == pytest.approx([s for s in w_sc if s is not None], abs=1e-5)


def test_build_path_plans_no_actor_pool(ray_session, taxes, pages):
    import ray
    import ray.data as rd

    from fashion_knowledge_graph_ray.pipelines.build_graph import (
        resolve_pool_sizes,
    )

    tax_ref = ray.put(taxes[0])
    enrich = enrich_pages(rd.from_arrow(pages), tax_ref, concurrency=2)
    names = [op.name for op in _physical_ops(enrich)]
    assert any("EnrichmentStage" in n for n in names), names
    index_ref = ray.put(EmbeddingLinker.build_index(taxes[0]))
    for mode in ("embedding", "gazetteer"):
        # as narrow_chain plans it: the build's cap, the broadcast index
        kw = {"index_ref": index_ref} if mode == "embedding" else {}
        ops = _physical_ops(enrich_pages(rd.from_arrow(pages), tax_ref,
                                         link_mode=mode,
                                         concurrency=resolve_pool_sizes(),
                                         **kw))
        kinds = [type(op).__name__ for op in ops]
        assert "ActorPoolMapOperator" not in kinds, kinds
        assert any("EnrichmentStage" in op.name for op in ops), kinds


def test_memo_never_serves_a_previous_build(ray_session, taxes, pages):
    import ray
    import ray.data as rd

    def ds():
        return rd.from_arrow(pages).repartition(8)

    refs = [ray.put(t) for t in taxes]
    index_refs = [ray.put(EmbeddingLinker.build_index(t)) for t in taxes]
    want = {(i, mode): EnrichmentStage(t, link_mode=mode)(pages)
            for i, t in enumerate(taxes)
            for mode in ("embedding", "gazetteer")}
    assert not _same(want[0, "embedding"], want[1, "embedding"])
    assert not _same(want[1, "embedding"], want[1, "gazetteer"])

    runs = [
        # the build path: driver-built index broadcast as ``index_ref``
        ((0, "embedding"), enrich_pages(ds(), refs[0],
                                        index_ref=index_refs[0])),
        ((1, "embedding"), enrich_pages(ds(), refs[1],
                                        index_ref=index_refs[1])),
        # same taxonomy ref, only the link mode differs
        ((1, "embedding"), enrich_pages(ds(), refs[1], batch_size=32)),
        ((1, "gazetteer"), enrich_pages(ds(), refs[1], batch_size=32,
                                        link_mode="gazetteer")),
        ((0, "gazetteer"), enrich_pages(ds(), refs[0], batch_size=32,
                                        link_mode="gazetteer")),
    ]
    for key, got in runs:  # one at a time: each build runs to completion
        assert _same(pa.concat_tables(ray.get(got.to_arrow_refs())),
                     want[key]), key

    def probe(batch):
        return {"pid": [os.getpid()] * len(batch["id"]),
                "entries": [len(linker._STAGE_CACHE)] * len(batch["id"])}

    seen = rd.range(64, override_num_blocks=64).map_batches(
        probe, batch_size=1).take_all()
    entries = {r["pid"]: r["entries"] for r in seen}
    assert max(entries.values()) <= 1, entries


def test_memo_holds_one_entry_in_process(taxes, pages):
    linker._STAGE_CACHE.clear()
    for i, mode in ((0, "embedding"), (1, "embedding"), (1, "gazetteer"),
                    (0, "gazetteer"), (0, "gazetteer")):
        task = EnrichmentStageTask(taxes[i], mode, False, {})
        got = task(pages)
        assert len(linker._STAGE_CACHE) == 1
        assert _same(got, EnrichmentStage(taxes[i], link_mode=mode)(pages)),\
            (i, mode)
    stage = task.stage()
    assert task.stage() is stage  # same config: built once, then reused
