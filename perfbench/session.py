"""Process-level plumbing: the Ray session, operation timeouts, the RSS
sampler, hypervisor steal and in-memory spans.

Nothing here imports the package under test; ``run.py`` puts the checkout
root on ``sys.path`` first.
"""

from __future__ import annotations

import concurrent.futures as cf
import logging
import os
import platform
import shutil
import threading
import time
from dataclasses import dataclass

# A run whose measured window saw more than this share of scheduled CPU
# stolen by the hypervisor is flagged ``contaminated``.
STEAL_BAR = 0.2

# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets at
# <temp_dir>/session_<timestamp>_<pid>/sockets/plasma_store (~63 bytes).
_RAY_SOCKET_SUFFIX = 64


def affinity_cpus() -> int:
    """CPUs this process may run on. ``nproc`` is not used: it honours
    ``OMP_NUM_THREADS``, which may be exported as 1 on a 4-CPU box."""
    return len(os.sched_getaffinity(0))


class StatWindow:
    """Machine-wide busy and steal jiffies since construction (from
    /proc/stat)."""

    _HZ = os.sysconf("SC_CLK_TCK")

    @staticmethod
    def _read() -> tuple[int, int]:
        with open("/proc/stat") as fh:
            v = [int(x) for x in fh.readline().split()[1:]]
        return v[0] + v[1] + v[2], (v[7] if len(v) > 7 else 0)

    def __init__(self):
        self._a = self._read()

    def _delta(self) -> tuple[int, int]:
        b = self._read()
        return b[0] - self._a[0], b[1] - self._a[1]

    def steal_frac(self) -> float:
        """Stolen share of the scheduled CPU time: steal / (busy + steal)."""
        busy, steal = self._delta()
        return steal / (busy + steal) if busy + steal > 0 else 0.0

    def busy_s(self) -> float:
        """CPU seconds spent by every process on the machine."""
        return self._delta()[0] / self._HZ


def _is_ray_worker(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            cmd = fh.read()
    except OSError:
        return False
    return cmd.startswith(b"ray::") or b"default_worker.py" in cmd


def _tree_rss(root: int, page: int) -> int:
    """Summed resident set of ``root`` and every Ray worker process below
    it."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(name))
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, ()))
        if pid != root and not _is_ray_worker(pid):
            continue
        try:
            with open(f"/proc/{pid}/statm") as fh:
                total += int(fh.read().split()[1]) * page
        except (OSError, IndexError, ValueError):
            continue
    return total


def _sample_loop(root: int, period: float, conn) -> None:
    page = os.sysconf("SC_PAGE_SIZE")
    peak = 0
    while not conn.poll(period):
        peak = max(peak, _tree_rss(root, page))
    conn.send(max(peak, _tree_rss(root, page)))


class RssSampler:
    """Peak summed RSS of this process and its Ray worker processes,
    sampled every ``period`` seconds by a separate process, so that the
    sampling never holds this process's interpreter lock."""

    def __init__(self, period: float = 0.5):
        import multiprocessing as mp

        ctx = mp.get_context("spawn")
        self._conn, child = ctx.Pipe()
        self._proc = ctx.Process(target=_sample_loop, daemon=True,
                                 args=(os.getpid(), period, child))
        self.peak_bytes = 0

    def start(self) -> "RssSampler":
        self._proc.start()
        return self

    def stop(self) -> None:
        if self._proc.is_alive():
            self._conn.send("stop")
            if self._conn.poll(10):
                self.peak_bytes = self._conn.recv()
        self._proc.join(timeout=10)
        if self._proc.is_alive():
            self._proc.kill()
            self._proc.join()

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / 2**20


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: str | None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory spans recorded around calls into the package; written out
    once at the end of the run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[str] = []

    def span(self, name: str, parent: str | None = None):
        """Context manager recording a span. Nesting on one thread sets the
        parent; a span opened on another thread names its ``parent``."""
        tracer = self
        nested = parent is None

        class _Ctx:
            def __enter__(self):
                up = (tracer._stack[-1] if tracer._stack else None) \
                    if nested else parent
                self.s = Span(name, time.perf_counter(), 0.0, up)
                if nested:
                    tracer._stack.append(name)
                return self.s

            def __exit__(self, *exc):
                self.s.end = time.perf_counter()
                if nested:
                    tracer._stack.pop()
                tracer.spans.append(self.s)
                return False

        return _Ctx()

    def self_time(self, span: Span) -> float:
        """Span duration minus the union of its direct children."""
        kids = sorted((s.start, s.end) for s in self.spans
                      if s.parent == span.name and s is not span
                      and s.start >= span.start and s.end <= span.end)
        covered, cur_s, cur_e = 0.0, None, None
        for a, b in kids:
            if cur_e is None or a > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = a, b
            else:
                cur_e = max(cur_e, b)
        if cur_e is not None:
            covered += cur_e - cur_s
        return span.dur - covered

    def to_json(self) -> list[dict]:
        t0 = min((s.start for s in self.spans), default=0.0)
        return [{"name": s.name, "start": round(s.start - t0, 6),
                 "end": round(s.end - t0, 6), "parent": s.parent}
                for s in sorted(self.spans, key=lambda s: s.start)]


class OpTimeout(Exception):
    pass


class Runner:
    """Runs each operation in a worker thread with a wall timeout, so a
    stalled build becomes a counted failure instead of a hang. After a
    timeout the stalled thread cannot be reclaimed; the run stops
    measuring, reports, and exits hard (``run.py``)."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.timed_out = False
        self._pool = cf.ThreadPoolExecutor(max_workers=1)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def call(self, fn, *args, timeout: float, **kw):
        limit = min(timeout, max(0.0, self.remaining()))
        fut = self._pool.submit(fn, *args, **kw)
        try:
            return fut.result(timeout=limit)
        except cf.TimeoutError:
            self.timed_out = True
            raise OpTimeout(f"{getattr(fn, '__name__', fn)} exceeded "
                            f"{limit:.0f} s") from None

    def close(self) -> None:
        self._pool.shutdown(wait=not self.timed_out, cancel_futures=True)


def ray_temp_dir(work: str) -> str | None:
    """Ray's session directory inside the checkout, when its socket paths
    fit the AF_UNIX limit; otherwise None (Ray's default)."""
    path = os.path.join(work, "ray")
    if len(path.encode()) + _RAY_SOCKET_SUFFIX > 107:
        return None
    return path


def start_ray(root: str, work: str, num_cpus: int) -> dict:
    """Start a private local Ray cluster sized to ``num_cpus``. Workers get
    the checkout root on PYTHONPATH, so they import the package from
    source like this process does."""
    paths = [root] + [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p and p != root]
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    import ray
    from ray.data import DataContext

    tmp = ray_temp_dir(work)
    kw = {"_temp_dir": tmp} if tmp else {}
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=1_000_000_000, **kw)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    for name in ("ray", "ray.data"):
        logging.getLogger(name).setLevel(logging.ERROR)
    return {"ray_temp_dir_in_checkout": tmp is not None}


def stop_ray(timeout: float = 60.0) -> None:
    import ray

    t = threading.Thread(target=ray.shutdown, daemon=True)
    t.start()
    t.join(timeout)


def versions() -> dict:
    import polars
    import pyarrow
    import ray

    return {"python": platform.python_version(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "polars": polars.__version__}


def fresh_dir(path: str) -> str:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path, exist_ok=True)
    return path
