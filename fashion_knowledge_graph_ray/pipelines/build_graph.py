"""The flagship pipeline: pages -> mentions -> attrs -> links -> pairs ->
triples/nodes/edges (the KG-build core; reference entry point
`/root/reference/src/engine/process_social_media_images.py:13-149` +
`process_catalog.py:15-84`, re-expressed per SURVEY.md §3.2).

Shape:

    pages = read_parquet(...)                 # S4
      -> EnrichmentStage task stage          # FUSED extract+detect+attrs+link
                                             # (M13 + M6/T1 + M8/M9 + J1/T8),
                                             # state memoized per worker
      -> dedup by url                        # G7 (narrow rows, keep-first)
      [-> apply_canonical_map]               # north-rule canonicalization
      -> materialize (in-memory blocks)
    pairs  = linked -> pair flat-map          # G1  -> materialize
    then SIX concurrent branches off the shared blocks:
      linked -> write linked/ parquet         # resume checkpoint
      pairs  -> write pairs/ parquet          # resume checkpoint
      edges  = pairs groupby(src,dst,rel)     # G2/G3 (partial-combined)
      nodes  = linked explode -> groupby(eid) # G4
      triples= attr ∪ rel triples (dedup in-kernel, page-local — zero
               shuffle when pages are url-unique; see
               stages/triples.page_local_triples)
      embeddings = taxonomy dual-profile table  # K2/T2/T3

The expensive extraction/link pass runs ONCE into the in-memory
materialization (no write-then-reread round-trip — removing it raised
8->32-CPU scaling efficiency 0.73 -> 0.85, BASELINE.md). The ``linked/``
and ``pairs/`` parquet checkpoints remain the per-partition resume
artifacts — final aggregations are always recomputed from them, never
incrementally updated, so a resumed run can never double-count (fixes the
reference's re-run weight inflation, SURVEY.md §4.4).

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


def _ensure_nonempty(path: str, schema: pa.Schema) -> None:
    """An empty Dataset writes no files; leave a valid empty-parquet marker
    so downstream ``read_parquet`` of the directory always works."""
    import pyarrow.parquet as pq

    os.makedirs(path, exist_ok=True)
    if not any(f.endswith(".parquet") for f in os.listdir(path)):
        pq.write_table(schema.empty_table(), os.path.join(path, "empty.parquet"))


from ..schemas import ATTRS_STRUCT, NODES_SCHEMA, TRIPLES_SCHEMA  # noqa: E402
from ..stages.mentions import MENTION_STRUCT  # noqa: E402
from ..stages.pairs import PAIRS_SCHEMA as _PAIRS_EMPTY  # noqa: E402

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

    Execution shape: the expensive extract->detect->attrs->link chain runs
    ONCE into an in-memory materialization; pairs derive from it in-memory;
    then FIVE independent branches consume the materialized blocks
    concurrently — the two parquet checkpoints (``linked/``, ``pairs/``,
    the per-partition resume artifacts) plus edges/nodes/triples. Earlier
    rounds wrote linked/pairs to parquet and re-read them before fan-out;
    that extra parquet round-trip was a measured slice of the 8->32-CPU
    scaling loss (BASELINE.md history)."""
    import ray

    tax_ref = ray.put(taxonomy) if ray.is_initialized() else taxonomy

    paths = {k: os.path.join(out_dir, k)
             for k in ("linked", "pairs", "triples", "nodes", "edges",
                       "embeddings")}
    # Outputs must be overwrite-semantics: Ray's write_parquet APPENDS part
    # files into an existing directory, which would double-count on re-run —
    # the exact reference bug (SURVEY.md §4.4) this pipeline exists to fix.
    for p in paths.values():
        shutil.rmtree(p, ignore_errors=True)

    # the taxonomy embeds ONCE per build: this idx feeds the enrichment
    # broadcast (build_linked) AND the persisted index/ artifact
    # (_embeddings), instead of each path re-running build_index
    prebuilt_index = None
    if link_mode == "embedding":
        from ..stages.linker import EmbeddingLinker

        prebuilt_index = EmbeddingLinker.build_index(taxonomy)

    linked = build_linked(pages_ds, tax_ref, link_mode=link_mode,
                          single_product_mode=single_product_mode,
                          dedup=dedup, concurrency=concurrency,
                          prebuilt_index=prebuilt_index)
    if canonicalize:
        from ..stages.canonicalize import (
            apply_canonical_map,
            canonicalize_taxonomy,
        )

        cmap = canonicalize_taxonomy(taxonomy)
        linked = apply_canonical_map(linked, cmap)
    linked = linked.materialize()

    # Plans are BUILT on the driver thread (Dataset plan construction is
    # not guaranteed thread-safe); the threads below only execute them.
    # Each branch reads shared immutable block refs. Two waves, started
    # as soon as their input exists: the linked-only branches (nodes,
    # linked checkpoint, embeddings) launch IMMEDIATELY and overlap with
    # the pairs materialization on this thread — the pairs barrier was a
    # measured slice of the idle time on the critical path.
    nodes_ds = merge_nodes(explode_mentions(linked))

    def _linked_ckpt():
        linked.write_parquet(paths["linked"])
        _ensure_nonempty(paths["linked"], _LINKED_SCHEMA)

    def _nodes():
        nodes_ds.write_parquet(paths["nodes"])
        _ensure_nonempty(paths["nodes"], NODES_SCHEMA)

    def _embeddings():
        # taxonomy-sized (small side) — a single driver-side table write
        import pyarrow.parquet as pq

        from ..stages.linker import linker_index_table

        os.makedirs(paths["embeddings"], exist_ok=True)
        pq.write_table(taxonomy_embeddings_table(taxonomy),
                       os.path.join(paths["embeddings"], "part-0.parquet"))
        # persisted ANN index artifact (K6/Pinecone analog): a query
        # session reconstructs the linker via
        # EmbeddingLinker.from_index_table without re-embedding
        idx_dir = os.path.join(out_dir, "index")
        shutil.rmtree(idx_dir, ignore_errors=True)
        os.makedirs(idx_dir, exist_ok=True)
        pq.write_table(linker_index_table(taxonomy, idx=prebuilt_index),
                       os.path.join(idx_dir, "part-0.parquet"))

    import concurrent.futures as cf

    _settle_fsspec_http()

    with cf.ThreadPoolExecutor(max_workers=6) as ex:
        wave1 = [ex.submit(f) for f in (_nodes, _linked_ckpt, _embeddings)]

        pairs = generate_pairs(linked, tax_ref).materialize()
        edges_ds = aggregate_edges(pairs)
        # dedup=True guarantees url-unique linked rows, which makes every
        # triple-duplicate group page-local — the shuffle-free path.
        # dedup=False keeps the general bucketed dedup (url collisions can
        # then span blocks).
        triples_ds = (page_local_triples(linked, pairs) if dedup
                      else dedup_triples(
                          emit_attr_triples(explode_mentions(linked))
                          .union(emit_rel_triples(pairs))))

        def _pairs_ckpt():
            pairs.write_parquet(paths["pairs"])
            _ensure_nonempty(paths["pairs"], _PAIRS_EMPTY)

        def _edges():
            edges_ds.write_parquet(paths["edges"])
            _ensure_nonempty(paths["edges"], _EDGES_OUT_SCHEMA)

        def _triples():
            triples_ds.write_parquet(paths["triples"])
            _ensure_nonempty(paths["triples"], TRIPLES_SCHEMA)

        wave2 = [ex.submit(f) for f in (_edges, _triples, _pairs_ckpt)]
        for f in wave1 + wave2:
            f.result()

    return GraphBuildResult(out_dir=out_dir, linked_path=paths["linked"],
                            pairs_path=paths["pairs"],
                            triples_path=paths["triples"],
                            nodes_path=paths["nodes"],
                            edges_path=paths["edges"],
                            embeddings_path=paths["embeddings"])
