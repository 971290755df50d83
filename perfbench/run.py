"""KG-construction benchmark: one workload per invocation.

    python3 perfbench/run.py --workload build_typical --seed 1 --seconds 15 --trace 0

Run from the root of a checkout of the repository. Prints a context line
(JSON, key ``context``) and, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ledger. See
README.md for the workloads and metrics, and ``--selftest`` for the smoke
run and the tampered-output check.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# a run must end within 180 s: operations stop at RUN_LIMIT_S (less the
# reserve), Ray's shutdown gets what is left up to RUN_END_S, the
# supervisor kills the measuring process at CHILD_LIMIT_S, then gives what
# it left behind REAP_GRACE_S to exit before SIGTERM (and 2 s later SIGKILL)
RUN_LIMIT_S = 160.0
RUN_END_S = 166.0
CHILD_LIMIT_S = 168.0
REAP_GRACE_S = 6.0
SHUTDOWN_RESERVE_S = 20.0
MIN_OPS = 2
# scratch space in the checkout: corpus, outputs, Ray's session directory
# (kept short: Ray's socket paths under it must fit in 107 bytes) and the
# per-run span files under out/
WORK_DIR = ".pbw"


def _import_package() -> None:
    sys.path.insert(0, ROOT)
    try:
        import fashion_knowledge_graph_ray  # noqa: F401
    except ImportError as e:
        sys.stderr.write(f"perfbench: cannot import the package from "
                         f"{ROOT}: {e}\n")
        sys.exit(2)


def _descendants(root: int) -> list[tuple[int, str]]:
    """(pid, state) of every process below ``root``, from /proc."""
    children: dict[int, list[tuple[int, str]]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                state, ppid = fh.read().rsplit(")", 1)[1].split()[:2]
        except (OSError, ValueError):
            continue
        children.setdefault(int(ppid), []).append((int(name), state))
    out, todo = [], [root]
    while todo:
        for kid in children.get(todo.pop(), ()):
            out.append(kid)
            todo.append(kid[0])
    return out


def _reap_all(grace_s: float) -> None:
    """End every process below this one and wait until each is gone:
    ``grace_s`` for them to exit on their own, then SIGTERM, then SIGKILL,
    giving up 5 s after the grace.
    As child subreaper this process inherits orphans, so nothing escapes
    by outliving its parent."""
    import signal

    t0 = time.monotonic()
    while True:
        while True:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                break
        procs = _descendants(os.getpid())
        if not procs:
            return
        waited = time.monotonic() - t0
        if waited > grace_s + 5.0:  # unkillable (uninterruptible sleep)
            sys.stderr.write(f"perfbench: processes left: {procs}\n")
            return
        if waited > grace_s:
            sig = signal.SIGKILL if waited > grace_s + 2.0 else signal.SIGTERM
            for pid, state in procs:
                if state != "Z":
                    try:
                        os.kill(pid, sig)
                    except ProcessLookupError:
                        pass
        time.sleep(0.05)


def supervise(argv: list[str], limit_s: float | None) -> int:
    """Run the benchmark in a child process; when it ends (or overruns
    ``limit_s``), end and reap every process it left behind — Ray's
    daemons and workers, multiprocessing helpers — before returning its
    exit code."""
    import ctypes
    import signal
    import subprocess

    PR_SET_CHILD_SUBREAPER = 36
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        sys.stderr.write("perfbench: cannot become child subreaper: "
                         f"{os.strerror(ctypes.get_errno())}\n")
    child = subprocess.Popen([sys.executable, os.path.abspath(__file__),
                              "--in-child", *argv])

    def _stop(signum, frame):
        child.kill()
        _reap_all(0.0)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, _stop)
    signal.signal(signal.SIGINT, _stop)
    try:
        code = child.wait(timeout=limit_s)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {limit_s:.0f} s\n")
        child.kill()
        child.wait()
        code = 1
    _reap_all(REAP_GRACE_S)
    return code


def measure(wl, runner, seconds: float) -> list[dict]:
    """Closed loop: run operations back to back until ``seconds`` have
    passed (at least ``MIN_OPS``); check every output."""
    from session import OpTimeout, StatWindow
    from workloads import OP_TIMEOUT_S

    ops = []
    t_start = time.perf_counter()
    i = 0
    while (i < MIN_OPS or time.perf_counter() - t_start < seconds) \
            and runner.remaining() > SHUTDOWN_RESERVE_S:
        w = StatWindow()
        t0 = time.perf_counter()
        why: list[str] = []
        try:
            runner.call(wl.op, i, timeout=OP_TIMEOUT_S)
        except OpTimeout as e:
            why = [str(e)]
        except Exception as e:  # a failed operation is counted, not fatal
            why = [f"{type(e).__name__}: {e}"]
            traceback.print_exc(file=sys.stderr)
        wall = time.perf_counter() - t0
        cpu, steal = w.busy_s(), w.steal_frac()
        if not why:
            try:
                why = wl.check(i)
            except Exception as e:
                why = [f"check raised {type(e).__name__}: {e}"]
                traceback.print_exc(file=sys.stderr)
        ops.append({"i": i, "wall_s": wall, "cpu_s": cpu, "steal": steal,
                    "ok": not why,
                    **({"why": why} if why else {})})
        if why:
            sys.stderr.write(f"perfbench: op {i} failed: {why}\n")
        if runner.timed_out:
            break
        i += 1
    return ops


def end_to_end(wl, ops: list[dict], setup_s: float,
               peak_mb: float) -> tuple[dict, dict]:
    walls = [o["wall_s"] for o in ops]
    p50 = statistics.median(walls)
    failed = sum(not o["ok"] for o in ops)
    m = {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        # throughput over the whole measured window, not per median op:
        # op times jump by a Ray worker start-up or two, and the mean over
        # every op smooths that where the median flips
        "triples_per_s": (wl.context.get("triples", 0) * len(walls)
                          / sum(walls), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "success_rate": ((len(ops) - failed) / len(ops), "ratio"),
    }
    named = {"n_ops": len(ops), "error_rate": failed / len(ops),
             "build_s" if wl.name.startswith("build_") else "resume_s": p50}
    return m, named


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="smoke-run every workload small and prove the "
                         "check rejects tampered outputs")
    ap.add_argument("--in-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not args.in_child:
        # the self-test runs many workloads; only a measured run has the
        # 180 s limit
        return supervise(sys.argv[1:] if argv is None else argv,
                         None if args.selftest else CHILD_LIMIT_S)
    _import_package()
    sys.path.insert(0, HERE)
    if args.selftest:
        import selftest

        return selftest.main(ROOT)
    import session
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result, ctx, timed_out = run(workloads.WORKLOADS[args.workload],
                                 args.seed, args.seconds, bool(args.trace))
    code = 0
    if result is None:
        sys.stderr.write(f"perfbench: run failed: {ctx.get('error')}\n")
        code = 1
    else:
        print(json.dumps({"context": ctx}, default=str))
        print(json.dumps(result))
    sys.stdout.flush()
    sys.stderr.flush()
    if timed_out:
        # the stalled operation's thread cannot be joined; end the process
        os._exit(code)
    return code


def run(wl_cls, seed: int, seconds: float,
        trace: bool) -> tuple[dict | None, dict, bool]:
    """One measured (or traced) run of a workload. Returns the result
    object (None when set-up failed), the context, and whether an
    operation timed out."""
    import session

    t_begin = time.monotonic()
    runner = session.Runner(t_begin + RUN_LIMIT_S)
    work_root = os.path.join(ROOT, WORK_DIR)
    work = session.fresh_dir(os.path.join(work_root, wl_cls.name))
    tracer = session.Tracer()
    wl = wl_cls(work, seed)
    ctx: dict = {"workload": wl.name, "seed": seed, "trace": trace,
                 "num_cpus": session.affinity_cpus(),
                 "versions": session.versions(),
                 "steal_bar": session.STEAL_BAR}

    t = time.perf_counter()
    wl.generate()
    ctx["generate_s"] = time.perf_counter() - t

    rss = session.RssSampler().start()
    whole = session.StatWindow()
    result: dict | None = None
    ops_failed = ops_attempted = 0
    try:
        t = time.perf_counter()
        with tracer.span("setup"):
            with tracer.span("setup.ray_init"):
                ctx.update(session.start_ray(ROOT, work_root,
                                             ctx["num_cpus"]))
            runner.call(wl.setup, tracer, timeout=120.0)
        setup_s = time.perf_counter() - t
        ctx["setup_phases_s"] = {s.name: s.dur for s in tracer.spans
                                 if s.name.startswith("setup.")}
        if trace:
            import ledger

            metrics, named = ledger.trace(wl, runner, tracer, seconds)
            ops_attempted, ops_failed = named.pop("attempted"), \
                named.pop("failed")
        else:
            ops = measure(wl, runner, seconds)
            ctx["ops"] = [{k: (round(v, 4) if isinstance(v, float) else v)
                           for k, v in o.items()} for o in ops]
            rss.stop()
            metrics, named = end_to_end(wl, ops, setup_s, rss.peak_mb)
            ops_attempted = len(ops)
            ops_failed = sum(not o["ok"] for o in ops)
        ctx.update(named)
        result = {"correct": ops_failed == 0,
                  "attempted": ops_attempted, "failed": ops_failed,
                  "metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in metrics.items()}}
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        ctx["error"] = f"{type(e).__name__}: {e}"
    finally:
        steal = whole.steal_frac()
        ctx["steal_frac"] = steal
        ctx["contaminated"] = steal > session.STEAL_BAR
        ctx.update(wl.context)
        rss.stop()
        runner.close()
        session.stop_ray(timeout=min(30.0, max(5.0, t_begin + RUN_END_S
                                               - time.monotonic())))
        out_dir = os.path.join(work_root, "out")
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, f"{wl.name}-s{seed}"
                               f"{'-trace' if trace else ''}.json"), "w") as fh:
            json.dump({"context": ctx, "spans": tracer.to_json(),
                       "result": result}, fh, indent=1, default=str)
        if not runner.timed_out:
            import shutil

            shutil.rmtree(work, ignore_errors=True)
            shutil.rmtree(os.path.join(work_root, "ray"), ignore_errors=True)
    return result, ctx, runner.timed_out


if __name__ == "__main__":
    sys.exit(main())
