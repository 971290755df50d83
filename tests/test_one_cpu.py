"""A build on a one-CPU Ray cluster completes: the enrichment actor pool
must not hold the only CPU its read tasks need."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import textwrap

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SCRIPT = textwrap.dedent("""
    import sys

    import ray
    import ray.data as rd

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    rd.DataContext.get_current().enable_progress_bars = False
    from fashion_knowledge_graph_ray.datagen import (
        gen_pages_table,
        gen_taxonomy,
    )
    from fashion_knowledge_graph_ray.pipelines.build_graph import build_graph

    tax = gen_taxonomy(42)
    pages = rd.from_arrow(gen_pages_table(42, 60, tax)).repartition(4)
    res = build_graph(pages, tax, sys.argv[1])
    print("TRIPLES", res.dataset("triples").count())
    ray.shutdown()
""")


def test_build_graph_completes_on_one_cpu(tmp_path):
    # own session, so a timeout can kill the child's whole process group
    # (its Ray cluster included) without touching this session's cluster
    proc = subprocess.Popen(
        [sys.executable, "-c", _SCRIPT, str(tmp_path / "kg")],
        env=dict(os.environ, PYTHONPATH=REPO), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=240)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise AssertionError("one-CPU build_graph did not finish in 240 s")
    assert proc.returncode == 0, err[-3000:]
    line = [x for x in out.splitlines() if x.startswith("TRIPLES")]
    assert line and int(line[0].split()[1]) > 0
