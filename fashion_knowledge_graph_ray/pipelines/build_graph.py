"""The flagship pipeline: pages -> mentions -> attrs -> links -> pairs ->
triples/nodes/edges (the KG-build core; reference entry point
`/root/reference/src/engine/process_social_media_images.py:13-149` +
`process_catalog.py:15-84`, re-expressed per SURVEY.md §3.2).

One narrow chain, shared by ``build_graph`` and the partitioned
``build_graph_resumable`` (pipelines/resumable.py), and the plain build's
KG writer:

    narrow_chain:
      pages = read_parquet(...)               # S4
        -> EnrichmentStage task stage        # FUSED extract+detect+attrs+link
                                             # (M13 + M6/T1 + M8/M9 + J1/T8),
                                             # state memoized per worker
        -> dedup by url                      # G7 (narrow rows, keep-first)
        [-> apply_canonical_map]             # north-rule canonicalization
        -> materialize (in-memory blocks)
      pairs = linked -> pair flat-map         # G1, a plan over those blocks
    write_kg, two waves of branches off the shared blocks:
      wave 1: nodes = linked explode -> groupby(eid)     # G4
              embeddings + index/ = taxonomy tables      # K2/T2/T3/K6
              linked -> write linked/ parquet
              pairs -> materialize
      wave 2: edges = pairs groupby(src,dst,rel)         # G2/G3 (partial-combined)
              triples = attr ∪ rel triples (dedup in-kernel, page-local —
                        zero shuffle when pages are url-unique; see
                        stages/triples.page_local_triples — else bucketed)
              pairs -> write pairs/ parquet

The resumable build writes its partitions' ``linked/`` and ``pairs/``
itself and folds edges, nodes and triples from every partition's
``linked/`` in one execution (``resumable._write_finals``); only the
taxonomy-table writer, ``write_taxonomy_tables``, is shared.

The expensive extraction/link pass runs ONCE into the in-memory
materialization, and pairs derive from those blocks (no write-then-reread
round-trip — removing it raised 8->32-CPU scaling efficiency 0.73 -> 0.85,
BASELINE.md). The ``linked/`` and ``pairs/`` parquet tables are the
(per-partition) resume checkpoints — final aggregations are always
recomputed from them, never incrementally updated, so a resumed run can
never double-count (fixes the reference's re-run weight inflation,
SURVEY.md §4.4). The taxonomy-derived state (broadcast ref, ANN index,
canonical map) is computed once per build, however many partitions run.

Enrichment is a task stage, not an actor pool. Its state (detector and
linker over the broadcast taxonomy and the driver-built ANN index) takes
milliseconds to build and is memoized per worker process, so a build
starts and tears down no pool, and warm task workers carry over between
builds and resumed partitions. A task also holds its CPU only until its
input bundle is done, so the read and shuffle tasks are always scheduled;
a fixed pool holding every CPU slot used to deadlock the streaming
executor (see ``resolve_pool_sizes``).
"""

from __future__ import annotations

import contextlib
import os
import shutil
from dataclasses import dataclass

import pyarrow as pa

from ..stages.aggregate import aggregate_edges, merge_nodes
from ..stages.extract import dedup_pages
from ..stages.pairs import explode_mentions, generate_pairs
from ..stages.triples import (
    dedup_triples,
    emit_attr_triples,
    emit_rel_triples,
    page_local_triples,
)


def _settle_fsspec_http() -> None:
    """Make ``from fsspec.implementations.http import HTTPFileSystem``
    deterministic before running Dataset pipelines from multiple threads.

    Ray's path resolution attempts that import on EVERY read/write call and
    catches ModuleNotFoundError (aiohttp absent in this environment). Under
    concurrent first-imports from branch threads, CPython's import-lock
    deadlock avoidance can expose a partially-initialized module, turning
    the error into an uncaught ``ImportError: cannot import name``. If the
    real import fails, register a minimal stub module whose
    ``HTTPFileSystem`` is a never-instantiated marker class — Ray's
    ``isinstance`` check then simply (and correctly) reports "not an HTTP
    filesystem" for local paths, with no import attempt left to race."""
    import sys
    import types

    name = "fsspec.implementations.http"
    try:
        __import__(name)
        return
    except Exception:
        pass
    if name in sys.modules:
        return
    stub = types.ModuleType(name)

    class HTTPFileSystem:  # never instantiated; isinstance-marker only
        pass

    stub.HTTPFileSystem = HTTPFileSystem
    sys.modules[name] = stub


def _write_parquet(ds, path: str, schema: pa.Schema) -> None:
    """Write ``ds`` as parquet under ``path``. An empty Dataset writes no
    files; leave a valid empty-parquet marker so downstream
    ``read_parquet`` of the directory always works."""
    import pyarrow.parquet as pq

    ds.write_parquet(path)
    os.makedirs(path, exist_ok=True)
    if not any(f.endswith(".parquet") for f in os.listdir(path)):
        pq.write_table(schema.empty_table(), os.path.join(path, "empty.parquet"))


from ..schemas import ATTRS_STRUCT, NODES_SCHEMA, TRIPLES_SCHEMA  # noqa: E402
from ..stages.mentions import MENTION_STRUCT  # noqa: E402
from ..stages.pairs import PAIRS_SCHEMA  # noqa: E402

_LINKED_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us", tz="UTC")),
        ("lang", pa.string()),
        ("mentions", pa.list_(pa.struct(
            [f for f in MENTION_STRUCT if f.name != "context"]
            + [pa.field("attrs", ATTRS_STRUCT),
               pa.field("style_description", pa.string()),
               pa.field("entity_id", pa.string()),
               pa.field("link_score", pa.float64())]))),
    ]
)

_EDGES_OUT_SCHEMA = pa.schema(
    [
        ("src", pa.string()), ("dst", pa.string()), ("rel", pa.string()),
        ("weight", pa.int64()), ("pages", pa.list_(pa.string())),
        ("evidence_truncated", pa.bool_()),
    ]
)


EMBEDDINGS_SCHEMA = pa.schema(
    [
        ("entity_id", pa.string()),
        ("surface", pa.string()),
        ("category", pa.string()),
        ("embedding", pa.list_(pa.float32())),
        ("style_embedding", pa.list_(pa.float32())),
    ]
)


def taxonomy_embeddings_table(taxonomy: pa.Table) -> pa.Table:
    """The K2 analog of the reference's per-item vector upserts
    (`/root/reference/src/engine/process_catalog.py:52-77`,
    `src/database/vector_database.py:72-125`): one row per taxonomy entity
    with BOTH embedding profiles (primary 256-d + style 384-d), persisted
    as a parquet table so the query layer loads the index instead of
    re-embedding per call."""
    from ..functions.vectors import hash_embed, style_embed
    from ..stages.linker import matrix_to_list_array

    surfaces = taxonomy["surface"].to_pylist()
    emb = hash_embed(surfaces)
    semb = style_embed(surfaces)
    return pa.table(
        {
            "entity_id": taxonomy["entity_id"],
            "surface": taxonomy["surface"],
            "category": taxonomy["category"],
            "embedding": matrix_to_list_array(emb, pa.float32()),
            "style_embedding": matrix_to_list_array(semb, pa.float32()),
        },
        schema=EMBEDDINGS_SCHEMA,
    )


@dataclass
class GraphBuildResult:
    out_dir: str
    linked_path: str
    pairs_path: str
    triples_path: str
    nodes_path: str
    edges_path: str
    embeddings_path: str = ""

    def dataset(self, which: str):
        import ray.data as rd

        # partitioning=None: resumable builds lay tables out as
        # part=i subdirs; lineage must not hive-inject a `part` column.
        return rd.read_parquet(getattr(self, f"{which}_path"),
                               partitioning=None)


def resolve_pool_sizes(concurrency=None) -> int:
    """Cap on concurrent enrichment tasks (the fused extract+detect+
    attrs+link stage — see stages/linker.EnrichmentStage for why one
    stage instead of two: an integer split of a small cluster between two
    stages sets a serial floor under whichever gets one worker).

    ``concurrency``: None auto-sizes from the cluster CPU count; an int
    pins the cap. No CPUs - 1 clamp: it existed because a fixed actor
    pool holding EVERY CPU slot starved the read and shuffle tasks and
    deadlocked the streaming executor (observed at ``num_cpus=4``).
    An enrichment task holds its CPU only until its input bundle is
    done, so the executor always schedules the other operators' tasks;
    measured on 4 CPUs, a cap of CPUs ran both benchmark workloads faster
    than CPUs - 1 (CHANGES.md)."""
    import ray

    if concurrency is not None:
        return max(1, int(concurrency))
    ncpu = int(ray.cluster_resources().get("CPU", 8)) \
        if ray.is_initialized() else 8
    # measured optima: small clusters want every CPU enriching (as an
    # actor pool at 8 cpus, 7 actors beat 6 by 18% on the 800k-page bench;
    # as tasks at 4 cpus, a cap of 4 beat 3 on both benchmark workloads);
    # larger ones settle at 3/4 of the cluster — once the output branches
    # lost their heavy shuffles (page-local triples, node partial
    # combine), the other operators need fewer CPUs than the earlier 11/16
    # (measured with actors: 24 at 32 cpus 17.1 s vs 22 at 18.0 s; 12 at
    # 16 cpus matches 11 within noise and equalizes the FRACTION across
    # cluster sizes, which the N-vs-4N scaling ratio depends on)
    if ncpu <= 8:
        return max(1, ncpu)
    return max(8, ncpu * 3 // 4)


def build_linked(pages_ds, taxonomy_ref, *, link_mode: str = "embedding",
                 single_product_mode: bool = False, dedup: bool = True,
                 concurrency=None, prebuilt_index: dict | None = None):
    """pages -> linked page-mentions Dataset (the narrow one-pass chain).

    ``concurrency``: None (recommended) caps concurrent enrichment tasks
    from the cluster CPU count via ``resolve_pool_sizes``; an int pins the
    cap."""
    from ..stages.linker import enrich_pages

    cap = resolve_pool_sizes(concurrency)
    # Enrich FIRST, dedup the narrow linked rows after. Two scale wins
    # over dedup-first: (a) no sort barrier between the read and the
    # enrichment tasks, so enrichment streams while blocks are still being
    # read; (b) the dedup shuffle moves (url, warc_ts, lang, mentions)
    # instead of raw html — the "shuffle narrow, not wide" rule. The
    # output is identical (keep-earliest-warc_ts per url; enrichment is a
    # deterministic per-row function). Trade-off: duplicate pages cost
    # enrichment CPU before being dropped — a duplicate-HEAVY crawl
    # should run exact url dedup as its own partitioned pass first
    # (pipelines/resumable.py notes the shard-unique layout).
    link_kw = {}
    if link_mode == "embedding":
        # build the ANN index ONCE on the driver and broadcast it: the
        # float matrix rides zero-copy from the object store into every
        # worker instead of each worker re-embedding the taxonomy when it
        # builds its EnrichmentStage (taxonomy-sized work x workers)
        import ray

        from ..stages.linker import EmbeddingLinker

        idx = prebuilt_index
        if idx is None:
            tax = taxonomy_ref if isinstance(taxonomy_ref, pa.Table) \
                else ray.get(taxonomy_ref)
            idx = EmbeddingLinker.build_index(tax)
        link_kw["index_ref"] = ray.put(idx) if ray.is_initialized() else idx
    ds = enrich_pages(pages_ds, taxonomy_ref, link_mode=link_mode,
                      single_product_mode=single_product_mode,
                      concurrency=cap, **link_kw)
    return dedup_pages(ds) if dedup else ds


def taxonomy_state(taxonomy: pa.Table, canonicalize: bool):
    """What a build derives from the taxonomy, computed ONCE per build
    (not per partition or per output table): the broadcast taxonomy ref,
    the ANN index — it feeds the enrichment broadcast in embedding mode
    and the persisted ``index/`` table in both link modes — and, with
    ``canonicalize``, the canonical-id map (else None)."""
    import ray

    from ..stages.linker import EmbeddingLinker

    tax_ref = ray.put(taxonomy) if ray.is_initialized() else taxonomy
    cmap = None
    if canonicalize:
        from ..stages.canonicalize import canonicalize_taxonomy

        cmap = canonicalize_taxonomy(taxonomy)
    return tax_ref, EmbeddingLinker.build_index(taxonomy), cmap


def narrow_chain(pages_ds, tax_ref, index: dict, canonical_map, *,
                 link_mode: str, single_product_mode: bool, dedup: bool,
                 concurrency):
    """pages -> (linked, pairs), the narrow chain of both builds:
    ``build_linked`` -> ``apply_canonical_map`` (when ``canonical_map`` is
    not None) -> materialize. ``linked`` is materialized in memory;
    ``pairs`` is a plan over those blocks, so no caller writes ``linked``
    and reads it back to make pairs."""
    linked = build_linked(pages_ds, tax_ref, link_mode=link_mode,
                          single_product_mode=single_product_mode,
                          dedup=dedup, concurrency=concurrency,
                          prebuilt_index=index)
    if canonical_map is not None:
        from ..stages.canonicalize import apply_canonical_map

        linked = apply_canonical_map(linked, canonical_map)
    linked = linked.materialize()
    return linked, generate_pairs(linked, tax_ref)


def graph_result(out_dir: str) -> GraphBuildResult:
    """The table paths of a KG written under ``out_dir``."""
    return GraphBuildResult(out_dir=out_dir, **{
        f"{k}_path": os.path.join(out_dir, k)
        for k in ("linked", "pairs", "triples", "nodes", "edges",
                  "embeddings")})


def write_taxonomy_tables(out_dir: str, taxonomy: pa.Table,
                          index: dict) -> None:
    """(Re)write ``embeddings/`` and ``index/``, the taxonomy-sized tables
    of both builds, on the driver. ``index/`` is the persisted ANN index
    artifact (K6/Pinecone analog): a query session reconstructs the
    linker via ``EmbeddingLinker.from_index_table`` without re-embedding."""
    import pyarrow.parquet as pq

    from ..stages.linker import linker_index_table

    for name, tbl in (("embeddings", taxonomy_embeddings_table(taxonomy)),
                      ("index", linker_index_table(taxonomy, idx=index))):
        path = os.path.join(out_dir, name)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        pq.write_table(tbl, os.path.join(path, "part-0.parquet"))


def write_kg(out_dir: str, taxonomy: pa.Table, index: dict, linked, pairs,
             *, page_local: bool) -> GraphBuildResult:
    """Write the plain build's KG under ``out_dir`` — the ``linked/`` and
    ``pairs/`` checkpoints, edges, nodes, triples and the taxonomy tables
    — and return it. The build owns the whole directory, so an earlier
    partitioned build's ``manifests/`` and ``metrics.json`` go too.

    ``linked``/``pairs`` are this run's in-memory rows. ``page_local``:
    every url appears in one linked row, so triples dedup page-locally
    with no shuffle; otherwise by one bucketed exchange. All six output
    branches run at once: on 4 CPUs they beat one serialized finals map
    (the resume's ``bucketed_write_kinds`` shape) on ``build_dense``,
    1,624-1,738 against 1,899-1,977 ms op_p50 (ROADMAP direction 1)."""
    import concurrent.futures as cf

    paths = {k: os.path.join(out_dir, k)
             for k in ("triples", "nodes", "edges", "linked", "pairs")}
    # Outputs must be overwrite-semantics: Ray's write_parquet APPENDS part
    # files into an existing directory, which would double-count on re-run —
    # the exact reference bug (SURVEY.md §4.4) this pipeline exists to fix.
    for p in paths.values():
        shutil.rmtree(p, ignore_errors=True)
    shutil.rmtree(os.path.join(out_dir, "manifests"), ignore_errors=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "metrics.json"))

    _settle_fsspec_http()
    # Plans are BUILT on this thread (Dataset plan construction is not
    # guaranteed thread-safe); the pool threads only execute them, each
    # reading shared immutable block refs. Two waves: the linked-only
    # branches are submitted first and overlap with the pairs
    # materialization — the pairs barrier was a measured slice of the
    # idle time on the critical path.
    with cf.ThreadPoolExecutor(max_workers=6) as ex:
        futs = [ex.submit(write_taxonomy_tables, out_dir, taxonomy, index),
                ex.submit(_write_parquet,
                          merge_nodes(explode_mentions(linked)),
                          paths["nodes"], NODES_SCHEMA),
                ex.submit(_write_parquet, linked, paths["linked"],
                          _LINKED_SCHEMA)]
        # pairs feed three branches: materialize them once
        pairs = ex.submit(pairs.materialize).result()
        triples = (page_local_triples(linked, pairs) if page_local
                   else dedup_triples(
                       emit_attr_triples(explode_mentions(linked))
                       .union(emit_rel_triples(pairs))))
        futs += [ex.submit(_write_parquet, aggregate_edges(pairs),
                           paths["edges"], _EDGES_OUT_SCHEMA),
                 ex.submit(_write_parquet, triples, paths["triples"],
                           TRIPLES_SCHEMA),
                 ex.submit(_write_parquet, pairs, paths["pairs"],
                           PAIRS_SCHEMA)]
        for f in futs:
            f.result()
    return graph_result(out_dir)


def build_graph(pages_ds, taxonomy: pa.Table, out_dir: str, *,
                link_mode: str = "embedding",
                single_product_mode: bool = False,
                dedup: bool = True,
                canonicalize: bool = False,
                concurrency=None) -> GraphBuildResult:
    """Run the full KG build, writing Parquet tables under ``out_dir``.

    ``canonicalize=True`` inserts the MinHash-LSH canonicalization pass
    (north-rule stage): the taxonomy's surface-form clusters collapse to
    canonical entity ids, and every downstream table (pairs, edges, nodes,
    triples) is built over the canonical ids.

    Execution shape: ``narrow_chain`` runs the expensive
    extract->detect->attrs->link chain ONCE into an in-memory
    materialization, with pairs derived from it in memory; then
    ``write_kg`` runs every output branch concurrently off the
    materialized blocks — the two parquet checkpoints (``linked/``,
    ``pairs/``) plus edges/nodes/triples and the taxonomy tables. Earlier
    rounds wrote linked/pairs to parquet and re-read them before fan-out;
    that extra parquet round-trip was a measured slice of the 8->32-CPU
    scaling loss (BASELINE.md history)."""
    tax_ref, index, cmap = taxonomy_state(taxonomy, canonicalize)
    linked, pairs = narrow_chain(pages_ds, tax_ref, index, cmap,
                                 link_mode=link_mode,
                                 single_product_mode=single_product_mode,
                                 dedup=dedup, concurrency=concurrency)
    # dedup=True guarantees url-unique linked rows, which makes every
    # triple-duplicate group page-local — the shuffle-free path.
    # dedup=False keeps the general bucketed dedup (url collisions can
    # then span blocks).
    return write_kg(out_dir, taxonomy, index, linked, pairs,
                    page_local=dedup)
