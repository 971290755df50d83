"""The traced run: the per-layer ledger.

The workload's build path is composed step by step from the package's
public stage functions, with a ``materialize`` at every layer boundary, so
each layer gets its own span and its own Ray Data stats
(``Dataset._get_stats_summary``, the structure ``ds.stats()`` prints).
Spans are recorded here, around the calls; nothing inside the package is
instrumented. The enrichment sub-steps are timed in-process on a fixed
seeded batch. One untraced operation runs first, so the tracing overhead
is measured in the same run.
"""

from __future__ import annotations

import concurrent.futures as cf
import os
import shutil
import statistics
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import checks
import workloads
from queries import TIMEOUT_S, QueryLoad

MICRO_PAGES = 256
MICRO_REPEATS = 5
QUERY_SECONDS = 4.0
MIN_QUERIES = 10

# blocking steps of the composed chain, in order; their times are
# reconciled against the untraced operation. ``finals`` is the concurrent
# wave of edges/nodes/triples in a build: the wave blocks, its branches
# overlap.
NARROW = ("validate", "enrich", "dedup_pages", "canon", "pairs",
          "write_narrow")
FINALS = ("read_finals", "finals", "edges", "nodes", "triples", "write")


class StepStats:
    """Ray Data operator stats per materialized step. A step's dataset
    carries its inputs' stats as parents; the walk stops at the first
    parent with a dataset uuid, which is an earlier materialized step
    (operators inside one unmaterialized plan carry no uuid)."""

    def __init__(self):
        self.by_step: dict[str, list] = {}

    def add(self, step: str, ds) -> None:
        ops: list = []
        todo = [ds._get_stats_summary()]
        while todo:
            s = todo.pop()
            ops.extend(s.operators_stats)
            todo.extend(p for p in s.parents
                        if p.dataset_uuid == "unknown_uuid")
        self.by_step.setdefault(step, []).extend(ops)

    @staticmethod
    def _sum(ops, attr: str, key: str = "sum") -> float:
        return float(sum((getattr(o, attr) or {}).get(key, 0) or 0
                         for o in ops))

    def exchanges(self) -> tuple[int, float]:
        """(number of all-to-all exchanges, bytes their map side wrote)."""
        ops = [o for v in self.by_step.values() for o in v
               if o.is_sub_operator]
        count = sum(o.operator_name.endswith("Reduce") for o in ops)
        sent = self._sum([o for o in ops if o.operator_name.endswith(
            ("Map", "Split"))], "output_size_bytes")
        return count, sent

    def exchange_steps(self) -> dict[str, int]:
        return {step: n for step, ops in self.by_step.items()
                if (n := sum(o.is_sub_operator and o.operator_name.endswith(
                    "Reduce") for o in ops))}

    def cpu(self, step: str, needle: str) -> float:
        return self._sum([o for o in self.by_step.get(step, [])
                          if needle in o.operator_name], "cpu_time")

    def reduce_skew(self, step: str) -> float:
        """Largest reduce-side block over the mean block, in rows."""
        red = [o for o in self.by_step.get(step, [])
               if o.is_sub_operator and o.operator_name.endswith("Reduce")]
        mx = max(((o.output_num_rows or {}).get("max", 0) for o in red),
                 default=0)
        mean = statistics.mean([(o.output_num_rows or {}).get("mean", 0)
                                for o in red]) if red else 0
        return mx / mean if mean else 0.0


def _dir_bytes(path: str) -> int:
    total = 0
    for d, _, files in os.walk(path):
        total += sum(os.path.getsize(os.path.join(d, f)) for f in files
                     if f.endswith(".parquet"))
    return total


def _write_tables(out: str, tables: dict, tax: pa.Table, idx) -> int:
    """Parquet writes plus the in-process embeddings and index tables,
    as ``build_graph`` and ``build_graph_resumable`` write them; returns
    the bytes written."""
    from fashion_knowledge_graph_ray.pipelines.build_graph import (
        taxonomy_embeddings_table,
    )
    from fashion_knowledge_graph_ray.stages.linker import linker_index_table

    for name, ds in tables.items():
        shutil.rmtree(os.path.join(out, name), ignore_errors=True)
        ds.write_parquet(os.path.join(out, name))
    for name, tbl in (("embeddings", taxonomy_embeddings_table(tax)),
                      ("index", linker_index_table(tax, idx=idx))):
        os.makedirs(os.path.join(out, name), exist_ok=True)
        pq.write_table(tbl, os.path.join(out, name, "part-0.parquet"))
    return sum(_dir_bytes(os.path.join(out, name))
               for name in list(tables) + ["embeddings", "index"])


def chain(wl, tracer, stats: StepStats, out: str, *, files: list[str],
          link_mode: str, canonicalize: bool, resume_part: int | None = None):
    """Compose the build path with a materialize at each boundary.
    ``resume_part`` switches to the shape of a one-partition resume:
    manifest validation, the narrow chain on that partition's files only,
    and finals over every partition with the bucketed triple dedup."""
    import ray
    import ray.data as rd

    from fashion_knowledge_graph_ray.pipelines.build_graph import (
        resolve_pool_sizes,
    )
    from fashion_knowledge_graph_ray.stages.aggregate import (
        aggregate_edges,
        merge_nodes,
    )
    from fashion_knowledge_graph_ray.stages.canonicalize import (
        apply_canonical_map,
        canonicalize_taxonomy,
    )
    from fashion_knowledge_graph_ray.stages.extract import dedup_pages
    from fashion_knowledge_graph_ray.stages.linker import (
        EmbeddingLinker,
        enrich_pages,
    )
    from fashion_knowledge_graph_ray.stages.pairs import (
        explode_mentions,
        generate_pairs,
    )
    from fashion_knowledge_graph_ray.stages.triples import (
        dedup_triples,
        emit_attr_triples,
        emit_rel_triples,
        page_local_triples,
    )

    tax = wl.tax
    tax_ref = ray.put(tax)
    counts: dict = {}
    with tracer.span("chain"):
        if resume_part is not None:
            from fashion_knowledge_graph_ray.pipelines.resumable import (
                assign_partitions,
                list_parquet_files,
            )
            from fashion_knowledge_graph_ray.state.manifests import (
                validate_manifest,
            )

            config = {"link_mode": link_mode, "single_product_mode": False,
                      "dedup": True, "canonicalize": canonicalize,
                      "concurrency": "auto"}
            parts = assign_partitions(list_parquet_files(wl.corpus_dir),
                                      workloads.RESUME_PARTS)
            with tracer.span("validate"):
                valid = [validate_manifest(out, k, f, config) is not None
                         for k, f in enumerate(parts)]
            counts["valid_parts"] = sum(valid)
            files = parts[resume_part]
        with tracer.span("enrich"):
            idx = EmbeddingLinker.build_index(tax)
            kw = {"index_ref": ray.put(idx)} if link_mode == "embedding" \
                else {}
            counts["pool"] = resolve_pool_sizes()
            linked = enrich_pages(rd.read_parquet(files), tax_ref,
                                  link_mode=link_mode,
                                  concurrency=counts["pool"],
                                  **kw).materialize()
        stats.add("enrich", linked)
        counts["enrich_rows"] = linked.count()
        with tracer.span("dedup_pages"):
            linked = dedup_pages(linked).materialize()
        stats.add("dedup_pages", linked)
        counts["dedup_rows"] = linked.count()
        if canonicalize:
            with tracer.span("canon"):
                linked = apply_canonical_map(
                    linked, canonicalize_taxonomy(tax)).materialize()
            stats.add("canon", linked)
        with tracer.span("pairs"):
            pairs = generate_pairs(linked, tax_ref).materialize()
        stats.add("pairs", pairs)
        counts["pairs_rows"] = pairs.count()
        if resume_part is not None:
            with tracer.span("write_narrow"):
                for name, ds in (("linked", linked), ("pairs", pairs)):
                    ds.write_parquet(os.path.join(
                        out, name, f"part={resume_part}"))
            counts["write_bytes"] = sum(
                _dir_bytes(os.path.join(out, name, f"part={resume_part}"))
                for name in ("linked", "pairs"))
            with tracer.span("read_finals"):
                linked = rd.read_parquet(os.path.join(out, "linked"),
                                         partitioning=None).materialize()
                pairs_all = rd.read_parquet(os.path.join(out, "pairs"),
                                            partitioning=None).materialize()
            counts["pairs_rows_all"] = pairs_all.count()
        else:
            pairs_all = pairs
        # plans are built here, on one thread; only execution is threaded
        plans = {
            "edges": aggregate_edges(pairs_all),
            "nodes": merge_nodes(explode_mentions(linked)),
            "triples": (page_local_triples(linked, pairs)
                        if resume_part is None else dedup_triples(
                            emit_attr_triples(explode_mentions(linked))
                            .union(emit_rel_triples(pairs_all)))),
        }
        if resume_part is None:
            # build_graph runs these branches concurrently; so does this
            def branch(name):
                with tracer.span(name, parent="finals"):
                    return plans[name].materialize()

            with tracer.span("finals"):
                with cf.ThreadPoolExecutor(max_workers=len(plans)) as ex:
                    futs = {n: ex.submit(branch, n) for n in plans}
                    done = {n: f.result() for n, f in futs.items()}
        else:
            # build_graph_resumable runs them one after another
            done = {}
            for name, plan in plans.items():
                with tracer.span(name):
                    done[name] = plan.materialize()
        for name, ds in done.items():
            stats.add(name, ds)
        edges, nodes, triples = done["edges"], done["nodes"], done["triples"]
        counts["edges_rows"] = edges.count()
        counts["triples_rows"] = triples.count()
        tables = {"edges": edges, "nodes": nodes, "triples": triples}
        if resume_part is None:
            tables.update(linked=linked, pairs=pairs)
        with tracer.span("write"):
            counts["write_bytes"] = counts.get("write_bytes", 0) \
                + _write_tables(out, tables, tax, idx)
    # side measurements, outside the chain span
    with tracer.span("side.triples_emitted"):
        counts["triples_emitted"] = (
            emit_attr_triples(explode_mentions(linked)).count()
            + counts.get("pairs_rows_all", counts["pairs_rows"]))
    if not canonicalize:
        with tracer.span("side.canon"):
            apply_canonical_map(linked,
                                canonicalize_taxonomy(tax)).materialize()
    return counts


def micro(wl) -> dict:
    """The enrichment sub-steps, in-process on a fixed seeded batch of the
    workload's pages: median of ``MICRO_REPEATS`` timings each."""
    from fashion_knowledge_graph_ray.stages.attributes import attrs_batch
    from fashion_knowledge_graph_ray.stages.extract import extract_text_batch
    from fashion_knowledge_graph_ray.stages.linker import (
        EmbeddingLinker,
        GazetteerLinker,
    )
    from fashion_knowledge_graph_ray.stages.mentions import MentionDetector

    rng = np.random.Generator(np.random.PCG64(wl.seed * 13 + 1))
    rows = np.sort(rng.choice(wl.table.num_rows,
                              size=min(MICRO_PAGES, wl.table.num_rows),
                              replace=False))
    batch = wl.table.take(pa.array(rows))
    detector = MentionDetector(wl.tax)
    linkers = {"embedding": EmbeddingLinker(wl.tax),
               "gazetteer": GazetteerLinker(wl.tax)}

    def timed(fn, arg):
        ts, out = [], None
        for _ in range(MICRO_REPEATS):
            t = time.perf_counter()
            out = fn(arg)
            ts.append(time.perf_counter() - t)
        return statistics.median(ts), out

    n = batch.num_rows
    t_ext, text = timed(extract_text_batch, batch)
    t_det, det = timed(detector, text)
    n_m = len(det["mentions"].combine_chunks().values)
    t_att, att = timed(attrs_batch, det)
    m = {"extract.us_per_page": (t_ext / n * 1e6, "us"),
         "detect.us_per_page": (t_det / n * 1e6, "us"),
         "detect.mentions_per_page": (n_m / n, "count"),
         "attrs.us_per_mention": (t_att / max(1, n_m) * 1e6, "us")}
    for mode, linker in linkers.items():
        t_l, lk = timed(linker, att)
        ent = lk["mentions"].combine_chunks().values.field("entity_id")
        m[f"link_{mode}.us_per_mention"] = (t_l / max(1, n_m) * 1e6, "us")
        m[f"link_{mode}.linked_ratio"] = (
            (len(ent) - ent.null_count) / max(1, n_m), "ratio")
    return m


def queries(wl, runner, kg_dir: str, seconds: float) -> tuple[dict, int, int]:
    """Per-op latency of the query mix over ``kg_dir``; every answer is
    checked against the parquet oracle."""
    q = QueryLoad(kg_dir, wl.tax, wl.table, wl.seed)
    by_op: dict[str, list[float]] = {}
    failed = i = 0
    t_end = time.perf_counter() + seconds
    while i < MIN_QUERIES or time.perf_counter() < t_end:
        t = time.perf_counter()
        runner.call(q.op, i, timeout=TIMEOUT_S)
        by_op.setdefault(q.op_name(i), []).append(
            (time.perf_counter() - t) * 1e3)
        failed += bool(q.check(i))
        i += 1
    return ({f"query.{k}_ms": (statistics.median(v), "ms")
             for k, v in sorted(by_op.items())}, i, failed)


def trace(wl, runner, tracer, seconds: float) -> tuple[dict, dict]:
    """Run the ledger for ``wl`` (set up already); returns (metrics,
    context) with ``attempted``/``failed`` in the context."""
    attempted = failed = 0
    named: dict = {}
    t = time.perf_counter()
    runner.call(wl.op, 0, timeout=workloads.OP_TIMEOUT_S)
    untraced = time.perf_counter() - t
    attempted += 1
    bad = wl.check(0)
    failed += bool(bad)
    named["untraced_check"] = bad
    want = dict(wl.digests)
    if wl.name == "resume_one_part":
        wl.drop_part()
        out = wl.out
        kw = {"files": [], "link_mode": "embedding", "canonicalize": False,
              "resume_part": workloads.RESUME_PART}
    else:
        out = wl.path("traced_out")
        kw = {"files": wl.files, "link_mode": wl.link_mode,
              "canonicalize": wl.canonicalize}
    stats = StepStats()
    counts = runner.call(chain, wl, tracer, stats, out,
                         timeout=workloads.OP_TIMEOUT_S, **kw)
    attempted += 1
    got = checks.table_digests(out)
    bad = [f"traced {t} digest differs" for t in checks.TABLES
           if got[t] != want[t]]
    failed += bool(bad)
    named["traced_check"] = bad
    named["chain_counts"] = counts

    spans = {s.name: s for s in tracer.spans}
    chain_span = spans["chain"]
    blocking = {n: (spans[n].dur if n == "finals"
                    else tracer.self_time(spans[n]))
                for n in NARROW + FINALS
                if n in spans and spans[n].parent == "chain"}
    self_sum = sum(blocking.values())
    n_ex, ex_bytes = stats.exchanges()
    write_s = spans["write"].dur + (spans["write_narrow"].dur
                                    if "write_narrow" in spans else 0.0)
    canon_s = spans["canon"].dur if "canon" in spans \
        else spans["side.canon"].dur
    m = {
        "enrich.wall_s": (spans["enrich"].dur, "s"),
        "enrich.cpu_s": (stats.cpu("enrich", "EnrichmentStage"), "s"),
        "enrich.rows_out": (counts["enrich_rows"], "count"),
        "enrich.pool_size": (counts["pool"], "count"),
        "dedup_pages.wall_s": (spans["dedup_pages"].dur, "s"),
        "dedup_pages.kept_ratio": (counts["dedup_rows"]
                                   / counts["enrich_rows"], "ratio"),
        "canon.wall_s": (canon_s, "s"),
        "pairs.wall_s": (spans["pairs"].dur, "s"),
        "pairs.rows_out": (counts["pairs_rows"], "count"),
        "edges.wall_s": (spans["edges"].dur, "s"),
        "edges.combine_ratio": (counts["edges_rows"] / counts.get(
            "pairs_rows_all", counts["pairs_rows"]), "ratio"),
        "edges.bucket_max_over_mean": (stats.reduce_skew("edges"), "ratio"),
        "nodes.wall_s": (spans["nodes"].dur, "s"),
        "triples.wall_s": (spans["triples"].dur, "s"),
        "triples.dup_ratio": (1 - counts["triples_rows"]
                              / counts["triples_emitted"], "ratio"),
        "exchange.count": (n_ex, "count"),
        "exchange.bytes": (ex_bytes, "B"),
        "write.wall_s": (write_s, "s"),
        "write.bytes": (counts["write_bytes"], "B"),
        "chain.narrow_s": (sum(blocking.get(n, 0.0) for n in NARROW), "s"),
        "chain.finals_s": (sum(blocking.get(n, 0.0) for n in FINALS), "s"),
        "trace.total_s": (chain_span.dur, "s"),
        "trace.self_sum_s": (self_sum, "s"),
        "trace.untraced_s": (untraced, "s"),
        "trace.overhead_s": (chain_span.dur - untraced, "s"),
        "trace.reconcile_ratio": (self_sum / untraced, "ratio"),
    }
    if "validate" in spans:
        named["resume.validate_s"] = spans["validate"].dur
    m.update(micro(wl))
    qm, n_q, q_failed = queries(wl, runner, out, min(seconds, QUERY_SECONDS))
    m.update(qm)
    attempted += n_q
    failed += q_failed
    named["blocking_s"] = blocking
    named["exchanges_by_step"] = stats.exchange_steps()
    named.update(attempted=attempted, failed=failed)
    return m, named
