"""Checkpoint-resumable partitioned KG build.

The north-rule obligation the plain ``build_graph`` does not cover:
``resumable from checkpoint with per-partition lineage + metrics``. This
pipeline splits the input file list into P partitions, runs the narrow
chain (extract → detect → attrs → link → pairs) per partition — the same
``narrow_chain`` as ``build_graph``, pairs made from the in-memory linked
rows — writing ``out/linked/part=i`` + ``out/pairs/part=i`` + a lineage
manifest (state/manifests.py). The finals then recompute the wide
aggregations (edges, nodes, triples) from ALL partitions' ``linked/`` in
one Ray Data execution — one read, one map, one keyed exchange for the
three tables and one multi-table sink (``_write_finals``) — and
``write_taxonomy_tables`` writes the embeddings and ``index/`` tables, as
for ``build_graph``. Resume = re-invoke with the same arguments:
partitions whose manifest validates are skipped; everything else
recomputes; partitions of an earlier run that this run does not have are
deleted. Finals are always recomputed from the partials — cheap relative
to extraction — so a resumed run can never double-count (the
reference's re-run bug, `/root/reference/src/database/graph_database.py:196-197`,
SURVEY.md §4.4).

Scale shape (100 TB / 256 nodes):
- the partition unit is the INPUT FILE (Common-Crawl shards); P defaults
  to the file count. Each partition's internal pipeline uses the whole
  cluster via Ray Data streaming, and partition granularity bounds the
  blast radius of a failure to one shard's worth of recompute.
- partitions run sequentially on the driver; each is internally parallel.
  At real scale you submit one `ray job` per partition range and the
  manifests make the jobs idempotent and mergeable.
- exact page dedup is WITHIN-partition here (urls are assumed
  shard-unique, which a Common-Crawl-style layout provides). When
  cross-shard duplicate urls matter, run the global ``dedup_pages`` pass
  once as its own partitioned job and feed its output here. The finals
  therefore dedup triples with the bucketed exchange, not page-locally.

Metrics: ``out/metrics.json`` aggregates per-partition row counts, wall
times and triples/sec — derived from manifests, as the north rule asks.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid

import pyarrow as pa

from .. import __version__
from ..schemas import NODES_SCHEMA, TRIPLES_SCHEMA
from ..stages.aggregate import (
    EDGE_KEYS,
    EDGE_PARTIAL_SCHEMA,
    NODE_PARTIAL_SCHEMA,
    _merge_edges_bucket,
    _merge_nodes_bucket,
    _partial_nodes,
    partial_edge_agg,
)
from ..stages.bucketed import _polars_hash_ok, bucketed_write_kinds, tag_kinds
from ..stages.pairs import PAIRS_SCHEMA, PairGenerator, explode_mentions_batch
from ..stages.triples import (
    TRIPLE_KEYS,
    _dedup_vectorized,
    attr_triples_batch,
    rel_triples_batch,
)
from ..state.manifests import (
    STAGE_VERSIONS,
    PartitionManifest,
    describe_inputs,
    dir_parquet_rows,
    taxonomy_digest,
    url_fingerprint,
    validate_manifest,
    write_manifest,
)
from .build_graph import (
    _EDGES_OUT_SCHEMA,
    GraphBuildResult,
    _LINKED_SCHEMA,
    _write_parquet,
    graph_result,
    narrow_chain,
    taxonomy_state,
    write_taxonomy_tables,
)


def assign_partitions(input_files: list[str],
                      num_partitions: int | None = None) -> list[list[str]]:
    """Deterministic round-robin of the SORTED file list into P partitions.
    Sorting first makes the assignment independent of listing order, so a
    resumed run sees identical partitions."""
    files = sorted(input_files)
    p = min(num_partitions or len(files), len(files))
    if p <= 0:
        raise ValueError("no input files")
    return [files[i::p] for i in range(p)]


def list_parquet_files(path: str) -> list[str]:
    if os.path.isfile(path):
        return [path]
    return [os.path.join(path, f) for f in sorted(os.listdir(path))
            if f.endswith(".parquet")]


def _build_partition(files: list[str], part: int, out_dir: str, config: dict,
                     run_id: str, tax_ref, index: dict,
                     canonical_map: dict | None,
                     tax_digest: str) -> PartitionManifest:
    """Run the shared narrow chain for one partition, write its
    ``linked/`` and ``pairs/`` from the in-memory rows, then its manifest.
    Output dirs are rebuilt from scratch (tmp + swap) so a partition is
    either fully present or absent — never half-appended."""
    import ray.data as rd

    t0 = time.time()
    dirs = {t: os.path.join(out_dir, t, f"part={part}")
            for t in ("linked", "pairs")}
    for d in dirs.values():
        shutil.rmtree(d, ignore_errors=True)
        shutil.rmtree(d + ".tmp", ignore_errors=True)

    linked, pairs = narrow_chain(
        rd.read_parquet(files), tax_ref, index, canonical_map,
        link_mode=config["link_mode"],
        single_product_mode=config["single_product_mode"],
        dedup=config["dedup"],
        concurrency=(None if config["concurrency"] == "auto"
                     else config["concurrency"]),
    )
    for name, ds, schema in (("linked", linked, _LINKED_SCHEMA),
                             ("pairs", pairs, PAIRS_SCHEMA)):
        _write_parquet(ds, dirs[name] + ".tmp", schema)
        os.replace(dirs[name] + ".tmp", dirs[name])

    from ..stages.metrics import mention_label_counts

    m = PartitionManifest(
        part=part,
        inputs=describe_inputs(files),
        stage_versions=dict(STAGE_VERSIONS),
        config=config,
        rows={t: dir_parquet_rows(d) for t, d in dirs.items()},
        linked_url_fingerprint=url_fingerprint(dirs["linked"]),
        wall_sec=round(time.time() - t0, 3),
        engine_version=__version__,
        run_id=run_id,
        # G9: per-partition mention-label histogram (segmentation mask
        # stats analog, segmentation_model.py:173-206)
        extra={"label_counts": mention_label_counts(dirs["linked"])},
        taxonomy_digest=tax_digest,
    )
    write_manifest(out_dir, m)
    return m


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


def _write_finals(out_dir: str, tax_ref) -> None:
    """nodes/, edges/ and triples/ from every partition's ``linked/`` in
    ONE Ray Data execution: one read, one map per 1,024-page batch, one
    sort and one multi-table sink (``bucketed_write_kinds``).

    The map explodes the batch's mentions and emits the node partials
    and the attribute triples; it re-derives the batch's pairs with the
    ``PairGenerator`` kernel (a per-page function of the linked rows and
    the taxonomy, so they equal the ``pairs/`` checkpoints) and emits the
    edge partials and the relation triples. Triples are deduped within
    the batch and again per shuffled block: urls are unique only within
    a partition. The three sequential executions this replaces (a read,
    a sort and a write each, with tasks that ran for milliseconds) took
    0.98 s of a 1.42 s one-partition resume on 4 CPUs; this one takes
    0.53 s (medians of 7, ``resume_one_part`` seed 1)."""
    import pyarrow.compute as pc
    import ray.data as rd

    names, keys, schemas, merges, out_schemas = zip(*_FINALS)
    paths = [os.path.join(out_dir, n) for n in names]
    for p in paths:
        shutil.rmtree(p, ignore_errors=True)
    up = _polars_hash_ok()  # driver decision, captured in the closure

    def partials(batch: pa.Table) -> pa.Table:
        flat = explode_mentions_batch(batch)
        linked = flat.filter(pc.is_valid(flat["entity_id"]))
        pairs = PairGenerator(tax_ref)(batch)
        triples = _dedup_vectorized(pa.concat_tables(
            [attr_triples_batch(flat), rel_triples_batch(pairs)]))
        return tag_kinds(
            [_partial_nodes(linked) if linked.num_rows else None,
             partial_edge_agg(pairs) if pairs.num_rows else None, triples],
            keys, schemas, use_polars=up)

    # partitioning=None: the part=i layout must NOT hive-inject a `part`
    # column — partition lineage lives in the manifests, not the schema.
    # 128-page batches measured slower on both workloads and raised the
    # resume's peak RSS to 1.8 GB
    tagged = rd.read_parquet(os.path.join(out_dir, "linked"),
                             partitioning=None).map_batches(
        partials, batch_format="pyarrow", batch_size=1024,
        zero_copy_batch=True)
    bucketed_write_kinds(tagged, schemas, merges, paths, out_schemas)


def _drop_stale_partitions(out_dir: str, num_parts: int) -> None:
    """Leave only this run's partitions under ``linked/``, ``pairs/`` and
    ``manifests/``. Anything else there — the partitions of an earlier run
    with more of them, a killed write's ``.tmp`` dir — would otherwise be
    read by the finals and by ``GraphBuildResult.dataset`` and count its
    pages twice."""
    for sub, ext in (("linked", ""), ("pairs", ""), ("manifests", ".json")):
        root = os.path.join(out_dir, sub)
        keep = {f"part={i}{ext}" for i in range(num_parts)}
        for name in set(os.listdir(root)) - keep:
            path = os.path.join(root, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)


def build_graph_resumable(pages_path: str, taxonomy: pa.Table, out_dir: str, *,
                          num_partitions: int | None = None,
                          link_mode: str = "embedding",
                          single_product_mode: bool = False,
                          dedup: bool = True,
                          canonicalize: bool = False,
                          concurrency=None) -> GraphBuildResult:
    """Partitioned, manifest-checkpointed KG build over a parquet file or
    directory. Re-invoking with identical arguments skips every partition
    whose lineage manifest validates and recomputes only the rest, then
    always rebuilds the final edges/nodes/triples from the partials.

    ``canonicalize=True`` applies the taxonomy canonical-id map inside
    every partition's narrow chain (the map is taxonomy-derived, identical
    across partitions, and part of the manifest config so toggling it
    invalidates prior partitions). ``concurrency`` is None or an int, as
    for ``build_graph``; an int is stored in the manifest config as is.
    A changed taxonomy (the columns the narrow chain reads) invalidates
    every partition through the manifests' ``taxonomy_digest``."""
    config = {
        "link_mode": link_mode,
        "single_product_mode": single_product_mode,
        "dedup": dedup,
        "canonicalize": canonicalize,
        # "auto" (not resolved sizes) so manifests stay valid when a resume
        # runs on a different cluster size
        "concurrency": "auto" if concurrency is None else int(concurrency),
    }
    parts = assign_partitions(list_parquet_files(pages_path), num_partitions)
    tax_ref, index, cmap = taxonomy_state(taxonomy, canonicalize)
    tax_digest = taxonomy_digest(taxonomy)
    run_id = uuid.uuid4().hex[:12]

    manifests: list[PartitionManifest] = []
    skipped = 0
    for i, files in enumerate(parts):
        m = validate_manifest(out_dir, i, files, config, tax_digest)
        if m is not None:
            skipped += 1
        else:
            m = _build_partition(files, i, out_dir, config, run_id, tax_ref,
                                 index, cmap, tax_digest)
        manifests.append(m)
    _drop_stale_partitions(out_dir, len(parts))

    # Finals over the union of all partitions
    write_taxonomy_tables(out_dir, taxonomy, index)
    _write_finals(out_dir, tax_ref)
    res = graph_result(out_dir)

    built = [m for m in manifests if m.run_id == run_id]
    label_counts: dict[str, int] = {}
    for m in manifests:
        for k, v in (m.extra.get("label_counts") or {}).items():
            label_counts[k] = label_counts.get(k, 0) + v
    metrics = {
        "label_counts": dict(sorted(label_counts.items())),
        "run_id": run_id,
        "partitions": len(parts),
        "partitions_skipped": skipped,
        "partitions_built": len(built),
        "linked_rows": sum(m.rows["linked"] for m in manifests),
        "pairs_rows": sum(m.rows["pairs"] for m in manifests),
        "triples_rows": dir_parquet_rows(res.triples_path),
        "edges_rows": dir_parquet_rows(res.edges_path),
        "nodes_rows": dir_parquet_rows(res.nodes_path),
        "narrow_wall_sec_built": round(sum(m.wall_sec for m in built), 3),
        "per_partition": [
            {"part": m.part, "rows": m.rows, "wall_sec": m.wall_sec,
             "skipped": m.run_id != run_id} for m in manifests],
    }
    narrow = metrics["narrow_wall_sec_built"]
    if narrow > 0:
        metrics["triples_per_sec_narrow"] = round(
            metrics["triples_rows"] / narrow, 2)
    with open(os.path.join(out_dir, "metrics.json"), "w") as fh:
        json.dump(metrics, fh, indent=1, sort_keys=True)
    return res
