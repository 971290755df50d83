"""Checkpoint-resumable partitioned KG build.

The north-rule obligation the plain ``build_graph`` does not cover:
``resumable from checkpoint with per-partition lineage + metrics``. This
pipeline splits the input file list into P partitions, runs the narrow
chain (extract → detect → attrs → link → pairs) per partition writing
``out/linked/part=i`` + ``out/pairs/part=i`` + a lineage manifest
(state/manifests.py), then recomputes the wide aggregations (edges, nodes,
triples) from ALL partition outputs. Resume = re-invoke with the same
arguments: partitions whose manifest validates are skipped; everything
else recomputes. Finals are always recomputed from the partials — cheap
relative to extraction — so a resumed run can never double-count (the
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
  once as its own partitioned job and feed its output here.

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
from ..stages.aggregate import aggregate_edges, merge_nodes
from ..stages.pairs import PAIRS_SCHEMA, explode_mentions, generate_pairs
from ..stages.triples import dedup_triples, emit_attr_triples, emit_rel_triples
from ..schemas import NODES_SCHEMA, TRIPLES_SCHEMA
from ..state.manifests import (
    STAGE_VERSIONS,
    PartitionManifest,
    describe_inputs,
    url_fingerprint,
    validate_manifest,
    write_manifest,
)
from .build_graph import (
    GraphBuildResult,
    _ensure_nonempty,
    _EDGES_OUT_SCHEMA,
    _LINKED_SCHEMA,
    build_linked,
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


def _dir_rows(path: str) -> int:
    import pyarrow.parquet as pq

    return sum(pq.read_metadata(os.path.join(path, f)).num_rows
               for f in sorted(os.listdir(path)) if f.endswith(".parquet"))


def _build_partition(files: list[str], part: int, taxonomy_ref, out_dir: str,
                     config: dict, run_id: str,
                     canonical_map: dict | None = None) -> PartitionManifest:
    """Run the narrow chain for one partition and write its manifest.
    Output dirs are rebuilt from scratch (tmp + swap) so a partition is
    either fully present or absent — never half-appended."""
    import ray.data as rd

    t0 = time.time()
    linked_dir = os.path.join(out_dir, "linked", f"part={part}")
    pairs_dir = os.path.join(out_dir, "pairs", f"part={part}")
    for d in (linked_dir, pairs_dir):
        shutil.rmtree(d, ignore_errors=True)
        shutil.rmtree(d + ".tmp", ignore_errors=True)

    linked = build_linked(
        rd.read_parquet(files),
        taxonomy_ref,
        link_mode=config["link_mode"],
        single_product_mode=config["single_product_mode"],
        dedup=config["dedup"],
        concurrency=(None if config["concurrency"] == "auto"
                     else config["concurrency"]),
    )
    if canonical_map is not None:
        from ..stages.canonicalize import apply_canonical_map

        linked = apply_canonical_map(linked, canonical_map)
    linked.write_parquet(linked_dir + ".tmp")
    _ensure_nonempty(linked_dir + ".tmp", _LINKED_SCHEMA)
    os.replace(linked_dir + ".tmp", linked_dir)

    # partitioning=None: the `part=i` path component must not hive-inject
    pairs = generate_pairs(rd.read_parquet(linked_dir, partitioning=None),
                           taxonomy_ref)
    pairs.write_parquet(pairs_dir + ".tmp")
    _ensure_nonempty(pairs_dir + ".tmp", PAIRS_SCHEMA)
    os.replace(pairs_dir + ".tmp", pairs_dir)

    from ..stages.metrics import mention_label_counts

    m = PartitionManifest(
        part=part,
        inputs=describe_inputs(files),
        stage_versions=dict(STAGE_VERSIONS),
        config=config,
        rows={"linked": _dir_rows(linked_dir), "pairs": _dir_rows(pairs_dir)},
        linked_url_fingerprint=url_fingerprint(linked_dir),
        wall_sec=round(time.time() - t0, 3),
        engine_version=__version__,
        run_id=run_id,
        # G9: per-partition mention-label histogram (segmentation mask
        # stats analog, segmentation_model.py:173-206)
        extra={"label_counts": mention_label_counts(linked_dir)},
    )
    write_manifest(out_dir, m)
    return m


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
    for ``build_graph``; an int is stored in the manifest config as is."""
    import ray
    import ray.data as rd

    config = {
        "link_mode": link_mode,
        "single_product_mode": single_product_mode,
        "dedup": dedup,
        "canonicalize": canonicalize,
        # "auto" (not resolved sizes) so manifests stay valid when a resume
        # runs on a different cluster size
        "concurrency": "auto" if concurrency is None else int(concurrency),
    }
    cmap = None
    if canonicalize:
        from ..stages.canonicalize import canonicalize_taxonomy

        cmap = canonicalize_taxonomy(taxonomy)
    parts = assign_partitions(list_parquet_files(pages_path), num_partitions)
    tax_ref = ray.put(taxonomy) if ray.is_initialized() else taxonomy
    run_id = uuid.uuid4().hex[:12]

    manifests: list[PartitionManifest] = []
    skipped = 0
    for i, files in enumerate(parts):
        m = validate_manifest(out_dir, i, files, config)
        if m is not None:
            skipped += 1
        else:
            m = _build_partition(files, i, tax_ref, out_dir, config, run_id,
                                 canonical_map=cmap)
        manifests.append(m)

    # Finals: ALWAYS recomputed from all partition outputs (never merged
    # incrementally) — overwrite semantics, same rationale as build_graph.
    paths = {k: os.path.join(out_dir, k)
             for k in ("triples", "nodes", "edges", "embeddings")}
    for p in paths.values():
        shutil.rmtree(p, ignore_errors=True)

    # K2 analog, same contract as build_graph: the dual-profile taxonomy
    # embeddings table, so outfit_from_text/outfit_from_page work on
    # resumable builds too. Taxonomy-sized — a single driver-side write.
    import pyarrow.parquet as pq

    from ..stages.linker import linker_index_table
    from .build_graph import taxonomy_embeddings_table

    os.makedirs(paths["embeddings"], exist_ok=True)
    pq.write_table(taxonomy_embeddings_table(taxonomy),
                   os.path.join(paths["embeddings"], "part-0.parquet"))
    # persisted ANN index artifact — same contract as build_graph
    idx_dir = os.path.join(out_dir, "index")
    shutil.rmtree(idx_dir, ignore_errors=True)
    os.makedirs(idx_dir, exist_ok=True)
    pq.write_table(linker_index_table(taxonomy),
                   os.path.join(idx_dir, "part-0.parquet"))

    # partitioning=None: the part=i layout must NOT hive-inject a `part`
    # column — partition lineage lives in the manifests, not the schema.
    def read_root(p):
        return rd.read_parquet(p, partitioning=None)

    linked_root = os.path.join(out_dir, "linked")
    pairs_root = os.path.join(out_dir, "pairs")
    linked = read_root(linked_root)
    pairs = read_root(pairs_root)

    edges = aggregate_edges(pairs)
    edges.write_parquet(paths["edges"])
    _ensure_nonempty(paths["edges"], _EDGES_OUT_SCHEMA)

    nodes = merge_nodes(explode_mentions(linked))
    nodes.write_parquet(paths["nodes"])
    _ensure_nonempty(paths["nodes"], NODES_SCHEMA)

    triples = dedup_triples(
        emit_attr_triples(explode_mentions(read_root(linked_root)))
        .union(emit_rel_triples(read_root(pairs_root)))
    )
    triples.write_parquet(paths["triples"])
    _ensure_nonempty(paths["triples"], TRIPLES_SCHEMA)

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
        "triples_rows": _dir_rows(paths["triples"]),
        "edges_rows": _dir_rows(paths["edges"]),
        "nodes_rows": _dir_rows(paths["nodes"]),
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

    return GraphBuildResult(out_dir=out_dir, linked_path=linked_root,
                            pairs_path=pairs_root,
                            triples_path=paths["triples"],
                            nodes_path=paths["nodes"],
                            edges_path=paths["edges"],
                            embeddings_path=paths["embeddings"])
