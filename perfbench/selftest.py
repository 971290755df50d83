"""Self-test of the benchmark: ``python3 perfbench/run.py --selftest``.

1. Smoke: every workload, untraced and traced, at a small size; each must
   print a complete result with every operation correct.
2. Negative: the build check must reject a tampered output — one dropped
   triple (from the url sample), and one altered edge weight.

Prints one line per case and exits 0 only if every case passes.
"""

from __future__ import annotations

import json
import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

SMALL = {"build_typical": 300, "build_dense": 120, "resume_one_part": 400}


def _report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}",
          flush=True)
    return ok


def smoke(root: str, bench_json: dict) -> bool:
    import run
    import workloads

    e2e = {m["name"] for m in bench_json["end_to_end"]}
    layer = {m["name"] for m in bench_json["per_layer"]}
    ok = True
    for name, cls in workloads.WORKLOADS.items():
        cls.n_pages = SMALL[name]
        for trace in (False, True):
            result, ctx, timed_out = run.run(cls, seed=3, seconds=0.5,
                                             trace=trace)
            if timed_out:
                _report(f"smoke {name} trace={int(trace)}", False, "timeout")
                os._exit(1)
            want = layer if trace else e2e
            got = set((result or {}).get("metrics", {}))
            good = bool(result) and result["correct"] and got == want
            detail = (ctx.get("error") or
                      f"missing {sorted(want - got)} extra {sorted(got - want)}"
                      if not good else
                      f"{result['attempted']} ops correct")
            ok &= _report(f"smoke {name} trace={int(trace)}", good, detail)
    return ok


def negative(root: str) -> bool:
    """Tampered outputs of a small ``build_typical`` must fail the check,
    on the first-build path (sample and invariants) and on the digest
    path of later builds."""
    import checks
    import run
    import session
    import workloads

    scratch = os.path.join(root, run.WORK_DIR)
    work = session.fresh_dir(os.path.join(scratch, "selftest"))
    cls = workloads.BuildTypical
    cls.n_pages = SMALL["build_typical"]
    wl = cls(work, 4)
    wl.generate()
    session.start_ray(root, scratch, session.affinity_cpus())
    ok = True
    try:
        wl.setup(session.Tracer())
        wl.op(0)
        ok &= _report("negative: untampered build passes", wl.check(0) == [])
        tpath = os.path.join(wl.out, "triples")
        epath = os.path.join(wl.out, "edges")
        saved = {p: checks.read_dir(p) for p in (tpath, epath)}

        def rewrite(path, tbl):
            shutil.rmtree(path)
            os.makedirs(path)
            pq.write_table(tbl, os.path.join(path, "part-0.parquet"))

        tri = saved[tpath]
        in_sample = pc.is_in(tri["url"], value_set=pa.array(wl.ref.urls))
        victim = pc.index(in_sample, True).as_py()
        keep = pa.array([i != victim for i in range(tri.num_rows)])
        for label, path, tbl in (
                ("one dropped triple", tpath, tri.filter(keep)),
                ("one altered edge weight", epath,
                 _bump_weight(saved[epath]))):
            rewrite(path, tbl)
            first = checks.check_build(wl.out, wl.ref)
            later = wl.check(1)
            ok &= _report(f"negative: {label} fails the first-build check",
                          bool(first), "; ".join(first))
            ok &= _report(f"negative: {label} fails the digest check",
                          bool(later), "; ".join(later))
            rewrite(path, saved[path])
        ok &= _report("negative: restored build passes again",
                      wl.check(1) == [])
    finally:
        session.stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(os.path.join(scratch, "ray"), ignore_errors=True)
    return ok


def _bump_weight(edges):
    w = edges["weight"].to_pylist()
    w[0] += 1
    return edges.set_column(edges.schema.get_field_index("weight"), "weight",
                            pa.array(w, type=pa.int64()))


def main(root: str) -> int:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench_json = json.load(fh)
    ok = negative(root)
    ok &= smoke(root, bench_json)
    print(json.dumps({"selftest": "pass" if ok else "fail"}))
    return 0 if ok else 1
