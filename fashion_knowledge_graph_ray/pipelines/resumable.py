"""Checkpoint-resumable partitioned KG build.

The north-rule obligation the plain ``build_graph`` does not cover:
``resumable from checkpoint with per-partition lineage + metrics``. This
pipeline splits the input file list into P partitions and runs the narrow
chain per partition — the same ``narrow_chain`` as ``build_graph``: one
Ray Data execution (read → enrich) into memory, its rows routed by url
hash into S shards, then one raw task per shard that dedups its urls,
applies the canonical remap and writes its ``linked/`` rows and their
pairs as ``out/linked/part=i/part-{j:05d}.parquet`` and
``out/pairs/part=i/...`` — plus a lineage manifest
(state/manifests.py). The finals then recompute the wide
aggregations (edges, nodes, triples) from ALL partitions' ``linked/``
with the plain build's writer, ``write_finals``: raw Ray tasks, one map
per group of ``linked/`` files and one merge per shard, no Ray Data
execution (``_write_finals``); ``write_taxonomy_tables`` writes the
embeddings and ``index/`` tables on the driver while they run, as for
``build_graph``. Resume = re-invoke with the same arguments:
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
- exact page dedup is WITHIN-partition here, as in every build (urls
  are assumed shard-unique, which a Common-Crawl-style layout provides).
  When cross-shard duplicate urls matter, run the global ``dedup_pages``
  pass once as its own partitioned job and feed its output here. The
  finals therefore dedup triples with the bucketed exchange, not
  page-locally.
- a manifest's ``config`` holds ``link_mode``, ``single_product_mode``
  and ``canonicalize``, plus ``"dedup": True`` and ``"concurrency":
  "auto"``: fixed values, kept so that manifests written while those
  were options stay valid.

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
from ..stages.bucketed import write_empty_if_bare
from ..stages.pairs import PAIRS_SCHEMA, PairGenerator
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
    FINALS_BATCH,
    GraphBuildResult,
    _LINKED_SCHEMA,
    finals_partials,
    graph_result,
    linked_rows,
    narrow_chain,
    taxonomy_state,
    write_finals,
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


def _write_shard(j: int, spec, *parts) -> None:
    """Task of one url shard of a partition: its linked rows
    (``linked_rows``) and their pairs, written as ``part-{j:05d}.parquet``
    into the partition's ``.tmp`` dirs. ``spec`` is the put
    ``(dirs, tax_ref, remap)``; ``parts`` are the shard's blocks."""
    import pyarrow.parquet as pq

    dirs, tax_ref, remap = spec
    rows = linked_rows(list(parts), remap=remap)
    pairs = PairGenerator(tax_ref)(rows)
    for table, t in (("linked", rows), ("pairs", pairs)):
        if t.num_rows:
            pq.write_table(t, os.path.join(dirs[table],
                                           f"part-{j:05d}.parquet"))


def _build_partition(files: list[str], part: int, out_dir: str, config: dict,
                     run_id: str, tax_ref, index: dict, remap,
                     tax_digest: str) -> PartitionManifest:
    """Run the shared narrow chain for one partition, write its
    ``linked/`` and ``pairs/`` with one raw task per url shard, then its
    manifest. Output dirs are rebuilt from scratch (tmp + swap) so a
    partition is either fully present or absent — never half-appended."""
    import ray
    import ray.data as rd

    t0 = time.time()
    dirs = {t: os.path.join(out_dir, t, f"part={part}")
            for t in ("linked", "pairs")}
    tmp = {t: d + ".tmp" for t, d in dirs.items()}
    for t, d in dirs.items():
        shutil.rmtree(d, ignore_errors=True)
        shutil.rmtree(tmp[t], ignore_errors=True)
        os.makedirs(tmp[t])

    shards = narrow_chain(
        rd.read_parquet(files), tax_ref, index,
        link_mode=config["link_mode"],
        single_product_mode=config["single_product_mode"],
    )
    spec = ray.put((tmp, tax_ref, remap))
    write = ray.remote(_write_shard)
    ray.get([write.remote(j, spec, *parts) for j, parts in enumerate(shards)])
    for name, schema in (("linked", _LINKED_SCHEMA), ("pairs", PAIRS_SCHEMA)):
        write_empty_if_bare(tmp[name], schema)
        os.replace(tmp[name], dirs[name])

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


def _write_finals(out_dir: str, tax_ref, meanwhile) -> None:
    """nodes/, edges/ and triples/ from every partition's ``linked/``
    through ``write_finals``, the plain build's writer: raw Ray tasks,
    no Ray Data execution.

    The units are the sorted parquet files under ``linked/`` in groups of
    at least ``FINALS_BATCH`` rows (row counts from the parquet footers),
    and each group's map task runs ``finals_partials`` over its pages.
    Triples are deduped within each batch and again per shard: urls are
    unique only within a partition. Grouping keeps the task count (and so
    the worker processes, each importing pyarrow, pandas and polars) at
    what the 1,024-page map had: one task per file measured 1,834-1,851 MB
    peak RSS against 1,372-1,407 MB grouped (``resume_one_part``, 4
    CPUs). This pass takes 0.17-0.19 s where the one Ray Data execution
    it replaces (read, map, sort, multi-table sink) took 0.47-0.49 s,
    mostly waiting on the streaming executor's 100 ms polls."""
    import pyarrow.parquet as pq

    files = sorted(os.path.join(d, f)
                   for d, _, fs in os.walk(os.path.join(out_dir, "linked"))
                   for f in fs if f.endswith(".parquet"))
    groups, group, rows = [], [], 0
    for f in files:
        n = pq.read_metadata(f).num_rows
        if n:
            group.append(f)
            rows += n
        if rows >= FINALS_BATCH:
            groups.append(group)
            group, rows = [], 0
    if group:
        groups.append(group)

    def group_map(i: int, paths: list[str]) -> pa.Table:
        # partitioning=None: the part=i layout must NOT hive-inject a
        # `part` column — partition lineage lives in the manifests
        pages = pa.concat_tables([pq.read_table(p, partitioning=None)
                                  for p in paths])
        return finals_partials(pages, tax_ref, triples_kind=True)[2]

    write_finals(out_dir, groups, group_map, meanwhile=meanwhile)


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
                          canonicalize: bool = False) -> GraphBuildResult:
    """Partitioned, manifest-checkpointed KG build over a parquet file or
    directory. Re-invoking with identical arguments skips every partition
    whose lineage manifest validates and recomputes only the rest, then
    always rebuilds the final edges/nodes/triples from the partials.

    ``canonicalize=True`` applies the taxonomy canonical-id map inside
    every partition's narrow chain (the map is taxonomy-derived, identical
    across partitions, and part of the manifest config so toggling it
    invalidates prior partitions). A changed taxonomy (the columns the
    narrow chain reads) invalidates every partition through the
    manifests' ``taxonomy_digest``."""
    # "dedup" and "concurrency" are no longer options: their fixed values
    # keep the checkpoints of builds that had them valid ("auto", not the
    # resolved cap, so a resume on another cluster size skips them too)
    config = {
        "link_mode": link_mode,
        "single_product_mode": single_product_mode,
        "dedup": True,
        "canonicalize": canonicalize,
        "concurrency": "auto",
    }
    parts = assign_partitions(list_parquet_files(pages_path), num_partitions)
    tax_ref, index, remap = taxonomy_state(taxonomy, canonicalize)
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
                                 index, remap, tax_digest)
        manifests.append(m)
    _drop_stale_partitions(out_dir, len(parts))

    # Finals over the union of all partitions
    _write_finals(out_dir, tax_ref, lambda: write_taxonomy_tables(
        out_dir, taxonomy, index))
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
