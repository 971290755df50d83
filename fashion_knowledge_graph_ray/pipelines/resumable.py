"""Checkpoint-resumable partitioned KG build.

The north-rule obligation the plain ``build_graph`` does not cover:
``resumable from checkpoint with per-partition lineage + metrics``. The
input files split into P partitions, each with a lineage manifest
(state/manifests.py); the finals (edges, nodes, triples) go through the
plain build's one exchange on raw Ray tasks, in three steps:

1. Every manifest is validated and the merge count S is fixed from the
   inputs' parquet footers, one merge per ``FINALS_BATCH`` pages. The
   finals maps over the skipped partitions' ``linked/`` files (groups
   of at least ``FINALS_BATCH`` rows) are submitted first, so they run
   while the rebuilt partitions enrich.
2. Each rebuilt partition runs the shared ``narrow_chain`` (read →
   enrich, routed by url hash into url shards), and each url shard's
   task, ``shard_partials``, is a finals map unit: it writes the
   partition's ``linked/`` and ``pairs/`` into ``.tmp`` dirs and emits
   its partials, so each page's pairs are derived once. Once every task
   has ended (the driver gets their done objects, not their partials;
   a failed task raises here), the dirs are swapped in and the
   partition's manifest is written: a later failure keeps it.
3. The S merges write ``nodes/``, ``edges/`` and ``triples/`` while the
   driver writes the taxonomy tables.

Resume = re-invoke with the same arguments: partitions whose manifest
validates are skipped, the rest recompute, and partitions of an earlier
run that this run does not have are deleted. Finals are always
recomputed from the partials, so a resumed run can never double-count
(the reference's re-run bug, ``src/database/graph_database.py:196-197``
there, SURVEY.md §4.4).

Sizing: S follows the input, not the units, so maps start before every
unit is known. Grouping the skipped files keeps the task count (and the
worker processes, each importing pyarrow, pandas and polars) low: one
task per file measured 1,834-1,851 MB peak RSS against 1,372-1,407 MB
grouped (``resume_one_part``, 4 CPUs); S = skipped groups + built
partitions gave the set-up build 4 merges and 1,413 MB against 1,300.

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

Metrics: ``out/metrics.json`` aggregates per-partition row counts, wall
times and triples/sec — derived from manifests, as the north rule asks.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import time
import uuid

import pyarrow as pa
import pyarrow.parquet as pq

from .. import __version__
from ..stages.bucketed import map_kinds, merge_kinds, write_empty_if_bare
from ..stages.pairs import PAIRS_SCHEMA
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
    narrow_chain,
    reset_finals,
    shard_partials,
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


def _part_dirs(out_dir: str, part: int) -> dict[str, str]:
    return {t: os.path.join(out_dir, t, f"part={part}")
            for t in ("linked", "pairs")}


def _linked_groups(out_dir: str, parts: list[int]) -> list[list[str]]:
    """The ``linked/`` files of partitions ``parts``, sorted, in groups of
    at least ``FINALS_BATCH`` rows (footer counts; 0-row files left
    out)."""
    files = sorted(os.path.join(d, f) for d in (
        _part_dirs(out_dir, i)["linked"] for i in parts)
        for f in os.listdir(d) if f.endswith(".parquet"))
    groups, group, rows = [], [], 0
    for f in files:
        n = pq.read_metadata(f).num_rows
        if n:
            group.append(f)
            rows += n
        if rows >= FINALS_BATCH:
            groups.append(group)
            group, rows = [], 0
    return groups + [group] if group else groups


def _group_partials(i: int, paths: list[str], *, tax_ref) -> pa.Table:
    """Finals map task of one group of ``linked/`` files."""
    # partitioning=None: the part=i layout must NOT hive-inject a `part`
    # column — partition lineage lives in the manifests
    pages = pa.concat_tables([pq.read_table(p, partitioning=None)
                              for p in paths])
    return finals_partials(pages, tax_ref, triples_kind=True)[2]


def _build_partition(files: list[str], part: int, out_dir: str, config: dict,
                     run_id: str, tax_ref, index: dict, remap,
                     tax_digest: str,
                     s: int) -> tuple[list, PartitionManifest]:
    """Run the shared narrow chain for one partition and one
    ``shard_partials`` map task per url shard, writing the partition's
    ``linked/`` and ``pairs/``, then its manifest. Returns the tasks'
    refs (``map_kinds``) and the manifest. Output dirs are rebuilt from
    scratch (tmp + swap) so a partition is either fully present or
    absent — never half-appended."""
    import ray
    import ray.data as rd

    from ..stages.metrics import mention_label_counts

    t0 = time.time()
    dirs = _part_dirs(out_dir, part)
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
    pieces = map_kinds(shards, functools.partial(
        shard_partials, dirs=tmp, tax_ref=tax_ref, remap=remap), s)
    ray.get([p[-1] for p in pieces])  # raises if a shard task failed
    for name, schema in (("linked", _LINKED_SCHEMA), ("pairs", PAIRS_SCHEMA)):
        write_empty_if_bare(tmp[name], schema)
        os.replace(tmp[name], dirs[name])

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
    return pieces, m


def _drop_stale_partitions(out_dir: str, num_parts: int) -> None:
    """Leave only this run's partitions under ``linked/``, ``pairs/`` and
    ``manifests/``. Anything else there — the partitions of an earlier run
    with more of them, a killed write's ``.tmp`` dir — would otherwise be
    read by ``GraphBuildResult.dataset`` and count its pages twice."""
    for sub, ext in (("linked", ""), ("pairs", ""), ("manifests", ".json")):
        root = os.path.join(out_dir, sub)
        keep = {f"part={i}{ext}" for i in range(num_parts)}
        for name in set(os.listdir(root) if os.path.isdir(root) else ()) \
                - keep:
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

    manifests = [validate_manifest(out_dir, i, files, config, tax_digest)
                 for i, files in enumerate(parts)]
    _drop_stale_partitions(out_dir, len(parts))
    pages = sum(pq.read_metadata(f).num_rows for fs in parts for f in fs)
    s = max(1, -(-pages // FINALS_BATCH))
    pieces = map_kinds(
        _linked_groups(out_dir, [i for i, m in enumerate(manifests) if m]),
        functools.partial(_group_partials, tax_ref=tax_ref), s)
    built: list[PartitionManifest] = []
    for i, files in enumerate(parts):
        if manifests[i] is None:
            more, manifests[i] = _build_partition(
                files, i, out_dir, config, run_id, tax_ref, index, remap,
                tax_digest, s)
            pieces += more
            built.append(manifests[i])
    merge_kinds(pieces, *reset_finals(out_dir), meanwhile=functools.partial(
        write_taxonomy_tables, out_dir, taxonomy, index))
    res = graph_result(out_dir)

    label_counts: dict[str, int] = {}
    for m in manifests:
        for k, v in (m.extra.get("label_counts") or {}).items():
            label_counts[k] = label_counts.get(k, 0) + v
    metrics = {
        "label_counts": dict(sorted(label_counts.items())),
        "run_id": run_id,
        "partitions": len(parts),
        "partitions_skipped": len(parts) - len(built),
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
