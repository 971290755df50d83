"""The flagship pipeline: pages -> mentions -> attrs -> links -> pairs ->
triples/nodes/edges (the KG-build core; reference entry point
`/root/reference/src/engine/process_social_media_images.py:13-149` +
`process_catalog.py:15-84`, re-expressed per SURVEY.md §3.2).

One narrow chain and one KG writer, shared by ``build_graph`` and the
partitioned ``build_graph_resumable`` (pipelines/resumable.py). The only
Ray Data execution of a build (of each built partition, in a resume) is
the read and the enrichment; raw Ray tasks do the rest:

    narrow_chain, one Ray Data execution:
      pages = read_parquet(...)               # S4
        -> EnrichmentStage task stage        # FUSED extract+detect+attrs+link
                                             # (M13 + M6/T1 + M8/M9 + J1/T8),
                                             # state memoized per worker
        -> materialize: S non-empty blocks
      if S > 1, one routing task per block:  # S url shards; shard j holds
        hash(url) mod S                      # piece j of every block
    one task per url shard (shard_partials), a finals map unit:
      concat -> dedup by url                 # G7 (keep earliest warc_ts)
        [-> remap_entity_ids]                # north-rule canonicalization
        -> finals_partials per 1,024 pages:  # writes linked/ and pairs/
           pairs (G1), node partials (G4),   #   (a resume: the partition's
           edge partials (G2/G3), triples    #   .tmp dirs), the plain build
           deduped in the batch              #   its page-local triples too;
                                             #   splits the partials by key
                                             #   hash into S pieces
    one merge task per shard                 # nodes, edges (and, in a
      -> merge whole keys, one file each     # resume, triples) at
                                             # part-{j:05d}.parquet
    embeddings + index/ on the driver meanwhile  # K2/T2/T3/K6

In a resume the skipped partitions' ``linked/`` files are finals map
units too, submitted before any partition is rebuilt
(pipelines/resumable.py).

The expensive extraction/link pass runs ONCE into the in-memory
materialization, and pairs derive from those rows (no write-then-reread
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
import functools
import os
import shutil
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc

from ..schemas import ATTRS_STRUCT, NODES_SCHEMA, TRIPLES_SCHEMA
from ..stages.aggregate import (
    EDGE_KEYS,
    EDGE_PARTIAL_SCHEMA,
    NODE_PARTIAL_SCHEMA,
    _merge_edges_bucket,
    _merge_nodes_bucket,
    _partial_nodes,
    partial_edge_agg,
)
from ..stages.bucketed import (
    bucketed_write_kinds,
    hash_partition,
    tag_kinds,
    write_empty_if_bare,
)
from ..stages.canonicalize import remap_entity_ids
from ..stages.extract import _dedup_urls_bucket
from ..stages.mentions import MENTION_STRUCT
from ..stages.pairs import PAIRS_SCHEMA, PairGenerator, explode_mentions_batch
from ..stages.triples import (
    TRIPLE_KEYS,
    _dedup_vectorized,
    attr_triples_batch,
    rel_triples_batch,
)


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


def resolve_pool_sizes() -> int:
    """Cap on concurrent enrichment tasks (the fused extract+detect+
    attrs+link stage — see stages/linker.EnrichmentStage for why one
    stage instead of two: an integer split of a small cluster between two
    stages sets a serial floor under whichever gets one worker).

    Sized from the cluster CPU count, never from a knob. No CPUs - 1
    clamp: it existed because a fixed actor pool holding EVERY CPU slot
    starved the read and shuffle tasks and deadlocked the streaming
    executor (observed at ``num_cpus=4``).
    An enrichment task holds its CPU only until its input bundle is
    done, so the executor always schedules the other operators' tasks;
    measured on 4 CPUs, a cap of CPUs ran both benchmark workloads faster
    than CPUs - 1 (CHANGES.md)."""
    import ray

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


def taxonomy_state(taxonomy: pa.Table, canonicalize: bool):
    """What a build derives from the taxonomy, computed ONCE per build
    (not per partition or per output table): the broadcast taxonomy ref,
    the ANN index — it feeds the enrichment broadcast in embedding mode
    and the persisted ``index/`` table in both link modes — and, with
    ``canonicalize``, the broadcast canonical-id remap
    (``canonical_remap``; None without ``canonicalize`` or when the map
    changes no id)."""
    import ray

    from ..stages.linker import EmbeddingLinker

    tax_ref = ray.put(taxonomy) if ray.is_initialized() else taxonomy
    remap = None
    if canonicalize:
        from ..stages.canonicalize import (
            canonical_remap,
            canonicalize_taxonomy,
        )

        remap = canonical_remap(canonicalize_taxonomy(taxonomy))
        if remap is not None and ray.is_initialized():
            remap = ray.put(remap)
    return tax_ref, EmbeddingLinker.build_index(taxonomy), remap


def narrow_chain(pages_ds, tax_ref, index: dict, *, link_mode: str,
                 single_product_mode: bool) -> list[list]:
    """pages -> the url shards of both builds.

    The enrichment (``enrich_pages``, at most ``resolve_pool_sizes()``
    concurrent tasks) is the build's one Ray Data execution, materialized
    in memory. In embedding mode the driver-built ANN ``index``
    (``taxonomy_state``'s) is broadcast, so the float matrix rides
    zero-copy from the object store into every worker instead of each
    worker re-embedding the taxonomy. The S non-empty blocks are routed
    by the hash of their url into S shards (``hash_partition``), so every
    crawl of a url lands in one shard. Each shard is a list of blocks
    (ObjectRefs) that one task of the caller turns into linked rows with
    ``linked_rows``: the url dedup and the canonical remap run there, not
    as Ray Data operators.

    Enrich first, dedup after: no sort barrier stands between the read
    and the enrichment, and the url exchange moves the narrow linked rows
    instead of raw html. The output is the same (keep the earliest
    ``warc_ts`` per url; enrichment is a deterministic per-row function);
    duplicate pages cost enrichment CPU before they are dropped."""
    import ray

    from ..stages.linker import enrich_pages

    link_kw = {}
    if link_mode == "embedding":
        link_kw["index_ref"] = ray.put(index) if ray.is_initialized() \
            else index
    linked = enrich_pages(pages_ds, tax_ref, link_mode=link_mode,
                          single_product_mode=single_product_mode,
                          concurrency=resolve_pool_sizes(),
                          **link_kw).materialize()
    blocks = [ref for bundle in linked.iter_internal_ref_bundles()
              for ref, meta in bundle.blocks if meta.num_rows]
    return hash_partition(blocks, ["url"])


def linked_rows(parts: list[pa.Table], *, remap) -> pa.Table:
    """A url shard's linked rows, inside the task that consumes it: the
    shard's pieces concatenated, the earliest ``warc_ts`` per url kept
    (``_dedup_urls_bucket``, the kernel of ``dedup_pages``) and the
    canonical ids applied when ``remap`` (``taxonomy_state``'s) is not
    None (``remap_entity_ids``, the kernel of ``apply_canonical_map``)."""
    import ray

    t = _dedup_urls_bucket(pa.concat_tables(parts))
    if remap is not None:
        t = remap_entity_ids(t, remap if isinstance(remap, tuple)
                             else ray.get(remap))
    return t


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


# The finals tables, each one kind of the one exchange: name, key, the
# schema of the per-batch partial rows, the merge of whole keys, and the
# schema written.
_FINALS = (
    ("nodes", ["entity_id"], NODE_PARTIAL_SCHEMA, _merge_nodes_bucket,
     NODES_SCHEMA),
    ("edges", EDGE_KEYS, EDGE_PARTIAL_SCHEMA, _merge_edges_bucket,
     _EDGES_OUT_SCHEMA),
    ("triples", TRIPLE_KEYS, TRIPLES_SCHEMA, _dedup_vectorized,
     TRIPLES_SCHEMA),
)
# pages per partials call; 128-page batches measured slower on both
# benchmark workloads and raised the resume's peak RSS to 1.8 GB
FINALS_BATCH = 1024


def finals_partials(pages: pa.Table, tax_ref, *, triples_kind: bool):
    """The finals map of both builds over linked page rows, one
    ``FINALS_BATCH``-page batch at a time -> ``(pairs, triples, tagged)``.

    Per batch: the mentions explode into the node partials and the
    attribute triples; the ``PairGenerator`` kernel derives the
    batch's pairs (a per-page function of the linked rows and the
    taxonomy, so any batching gives the same pairs) and gives the edge
    partials and the relation triples; triples are deduped within the
    batch. ``tagged`` holds the node and edge partials, and the triples
    when ``triples_kind``, as ``tag_kinds`` rows for the exchange.
    No pages give typed empty tables (a url shard may get no rows)."""
    _, keys, schemas, _, _ = zip(*_FINALS)
    if not pages.num_rows:
        return (PAIRS_SCHEMA.empty_table(), TRIPLES_SCHEMA.empty_table(),
                tag_kinds([None] * len(keys), keys, schemas))
    out = []
    for lo in range(0, pages.num_rows, FINALS_BATCH):
        batch = pages.slice(lo, FINALS_BATCH)
        flat = explode_mentions_batch(batch)
        linked = flat.filter(pc.is_valid(flat["entity_id"]))
        pairs = PairGenerator(tax_ref)(batch)
        triples = _dedup_vectorized(pa.concat_tables(
            [attr_triples_batch(flat), rel_triples_batch(pairs)]))
        tagged = tag_kinds(
            [_partial_nodes(linked) if linked.num_rows else None,
             partial_edge_agg(pairs) if pairs.num_rows else None,
             triples if triples_kind else None],
            keys, schemas)
        out.append((pairs, triples, tagged))
    return tuple(pa.concat_tables(t) for t in zip(*out))


def reset_finals(out_dir: str):
    """Empty ``nodes/``, ``edges/`` and ``triples/`` under ``out_dir``
    and return what the finals exchange (``bucketed_write_kinds`` or
    ``merge_kinds``) takes after its inputs: the partial schemas, the
    merges of whole keys, the paths and the schemas written."""
    names, _, schemas, merges, out_schemas = zip(*_FINALS)
    paths = [os.path.join(out_dir, n) for n in names]
    for p in paths:
        shutil.rmtree(p, ignore_errors=True)
        os.makedirs(p)
    return schemas, merges, paths, out_schemas


def shard_partials(i: int, parts: list[pa.Table], *, dirs: dict, tax_ref,
                   remap) -> pa.Table:
    """The url-shard task of both builds, a finals map unit: the shard's
    linked rows (``linked_rows``: url dedup, canonical remap) and their
    pairs (``finals_partials``) written as ``part-{i:05d}.parquet`` into
    ``dirs["linked"]`` and ``dirs["pairs"]``, each page's pairs derived
    once; returns the shard's tagged partials.

    With a ``"triples"`` dir the triples are page-local: the task writes
    the shard's deduped triples there and tags none. That is the plain
    build, where every url appears in one linked row. A resume's urls are
    unique only within a partition, so its triples go through the
    exchange."""
    import pyarrow.parquet as pq

    block = linked_rows(parts, remap=remap)
    pairs, triples, tagged = finals_partials(
        block, tax_ref, triples_kind="triples" not in dirs)
    for name, t in (("linked", block), ("pairs", pairs),
                    ("triples", triples)):
        if name in dirs and t.num_rows:
            pq.write_table(t, os.path.join(dirs[name],
                                           f"part-{i:05d}.parquet"))
    return tagged


def write_kg(out_dir: str, taxonomy: pa.Table, tax_ref, index: dict,
             shards: list[list], *, remap) -> GraphBuildResult:
    """Write the plain build's KG under ``out_dir`` — the ``linked/`` and
    ``pairs/`` checkpoints, edges, nodes, triples and the taxonomy tables
    — and return it. The build owns the whole directory, so an earlier
    partitioned build's ``manifests/`` and ``metrics.json`` go too.

    Each url shard of ``narrow_chain`` is one unit of
    ``bucketed_write_kinds``, and its map task is ``shard_partials`` with
    page-local triples. The taxonomy tables are written on the driver
    while the tasks run. No Ray Data execution runs here."""
    dirs = {k: os.path.join(out_dir, k) for k in ("linked", "pairs")}
    # overwrite semantics: part files left in place would be read again
    # and double-count on re-run — the exact reference bug (SURVEY.md §4.4)
    for p in dirs.values():
        shutil.rmtree(p, ignore_errors=True)
        os.makedirs(p)
    shutil.rmtree(os.path.join(out_dir, "manifests"), ignore_errors=True)
    with contextlib.suppress(FileNotFoundError):
        os.remove(os.path.join(out_dir, "metrics.json"))
    spec = reset_finals(out_dir)
    dirs["triples"] = os.path.join(out_dir, "triples")
    bucketed_write_kinds(
        shards, functools.partial(shard_partials, dirs=dirs, tax_ref=tax_ref,
                                  remap=remap),
        *spec, meanwhile=lambda: write_taxonomy_tables(out_dir, taxonomy,
                                                       index))
    write_empty_if_bare(dirs["linked"], _LINKED_SCHEMA)
    write_empty_if_bare(dirs["pairs"], PAIRS_SCHEMA)
    return graph_result(out_dir)


def build_graph(pages_ds, taxonomy: pa.Table, out_dir: str, *,
                link_mode: str = "embedding",
                single_product_mode: bool = False,
                canonicalize: bool = False) -> GraphBuildResult:
    """Run the full KG build, writing Parquet tables under ``out_dir``.

    ``canonicalize=True`` inserts the MinHash-LSH canonicalization pass
    (north-rule stage): the taxonomy's surface-form clusters collapse to
    canonical entity ids, and every downstream table (pairs, edges, nodes,
    triples) is built over the canonical ids.

    Execution shape: ``narrow_chain`` runs the expensive
    extract->detect->attrs->link chain ONCE into an in-memory
    materialization, the build's only Ray Data execution, and routes it
    into url shards; then ``write_kg`` writes every table from those
    shards with raw tasks (``bucketed_write_kinds``), the ``linked/`` and
    ``pairs/`` checkpoints included. Every build keeps one crawl per url,
    so every triple duplicate is page-local and the triples take no
    exchange. Earlier rounds wrote linked/pairs to parquet and re-read
    them before fan-out; that extra parquet round-trip was a measured
    slice of the 8->32-CPU scaling loss (BASELINE.md history)."""
    tax_ref, index, remap = taxonomy_state(taxonomy, canonicalize)
    shards = narrow_chain(pages_ds, tax_ref, index, link_mode=link_mode,
                          single_product_mode=single_product_mode)
    return write_kg(out_dir, taxonomy, tax_ref, index, shards, remap=remap)
