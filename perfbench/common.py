"""Shared pieces of the benchmark: statistics, spans, run configuration.

Nothing here imports the program under test at module level, so
``run.py`` can pin the BLAS/OpenMP thread variables before NumPy loads.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import os
import platform
import resource
import signal
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Root of the checkout the benchmark runs from (the parent of perfbench/).
ROOT = Path(__file__).resolve().parent.parent
#: Scratch directory for everything a run writes (ignored by git).
WORK = ROOT / ".perfbench_run"


# -- statistics --------------------------------------------------------------

def percentile(values, p: float) -> float:
    """Linearly interpolated ``p``-th percentile (0-100) of ``values``."""
    xs = sorted(float(v) for v in values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass
class Metric:
    """One reported number with the count of samples behind it."""

    value: float
    n: int
    note: str = ""


@dataclass
class Outcome:
    """What one pass of a workload produced.

    ``metrics`` maps a metric name to its :class:`Metric`; ``attempted``
    and ``failed`` count operations (jobs, submissions and checks);
    ``errors`` holds one line per failed operation.
    """

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def put(self, name: str, values, stat: str = "median") -> None:
        """Store the ``"median"``, ``"p90"`` or ``"max"`` of ``values``."""
        values = list(values)
        if stat == "max":
            value = max(values, default=0.0)
        else:
            value = percentile(values, 90.0 if stat == "p90" else 50.0)
        self.metrics[name] = Metric(value, len(values))

    def check(self, ok: bool, what: str) -> None:
        """Count one checked operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)


# -- spans -------------------------------------------------------------------

class Tracer:
    """In-memory span recorder, written out once when the run ends.

    A span has a name, a start and an end (seconds since the tracer was
    created), the id of the span that caused it and a trace id shared by
    every span of one job (or of the run itself).
    """

    enabled = True

    def __init__(self):
        self.t0 = time.perf_counter()
        #: ``time.time() - time.perf_counter()``, to place server-side
        #: unix timestamps on this tracer's clock.
        self.unix_offset = time.time() - self.t0
        self.spans: list[dict] = []

    def add(self, name: str, trace: str, start: float, end: float,
            parent: int | None = None) -> int:
        """Record an externally timed span (``perf_counter`` readings)."""
        sid = len(self.spans) + 1
        self.spans.append({"id": sid, "name": name, "trace": trace,
                           "parent": parent, "start": start - self.t0,
                           "end": end - self.t0})
        return sid

    def add_unix(self, name: str, trace: str, start_unix: float,
                 end_unix: float, parent: int | None = None) -> int:
        """Record a span timed by ``time.time()`` readings (the server's)."""
        off = self.unix_offset
        return self.add(name, trace, start_unix - off, end_unix - off, parent)

    @contextlib.contextmanager
    def span(self, name: str, trace: str, parent: int | None = None):
        """Time the ``with`` body as one span; yields the span id."""
        sid = len(self.spans) + 1
        self.spans.append(None)            # reserve the id for children
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self.spans[sid - 1] = {"id": sid, "name": name, "trace": trace,
                                   "parent": parent, "start": start - self.t0,
                                   "end": end - self.t0}

    def self_times(self) -> dict:
        """Total self time per span name: duration minus direct children."""
        child: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] = (child.get(s["parent"], 0.0)
                                      + s["end"] - s["start"])
        out: dict[str, float] = {}
        for s in self.spans:
            dur = s["end"] - s["start"] - child.get(s["id"], 0.0)
            out[s["name"]] = out.get(s["name"], 0.0) + dur
        return out


class NullTracer:
    """Tracing off: spans are no-ops that read no clock."""

    enabled = False

    def span(self, *args, **kwargs):
        return contextlib.nullcontext()


# -- run configuration -------------------------------------------------------

def _cache_sizes() -> dict:
    """Per-level unified/data cache sizes of cpu0 from sysfs, in bytes."""
    out: dict[str, int] = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind == "Instruction":
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1:], 1)
        out[f"L{level}"] = int(size.rstrip("KMG")) * scale
    return out


def llc_bytes() -> int:
    """Size of the last-level cache sysfs reports (0 if unknown)."""
    sizes = _cache_sizes()
    return sizes[max(sizes)] if sizes else 0


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from the loaded library itself."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest() -> str:
    """SHA-256 over ``src/`` (paths and bytes): the code version measured."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_revision() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_config(workload: str, seed: int, seconds: float,
               trace: bool) -> dict:
    """Everything needed to tell two results' conditions apart."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_sizes()
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
        "openblas_threads_in_use": _openblas_threads(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_bytes": caches.get("L2"),
        "llc_bytes": llc_bytes(),
        "git_revision": _git_revision(),
        "src_digest": _source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS count (``VmHWM``) where Linux can."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Peak resident MiB of this process since :func:`reset_peak_rss`."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- child processes ---------------------------------------------------------

#: ``prctl`` option that makes a process the reaper of its orphaned
#: descendants (Linux 3.4+).
_PR_SET_CHILD_SUBREAPER = 36


def adopt_descendants() -> None:
    """Become the reaper of every process this run starts, however deep.

    The server's rank processes and the ``multiprocessing`` resource
    trackers of the server and of this process can outlive their parents
    by a moment. As a child subreaper this process inherits such orphans
    instead of init, so :func:`reap_descendants` can wait for each.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _children() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me, out = os.getpid(), []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            text = stat.read_text()
        except OSError:
            continue
        if int(text.rsplit(")", 1)[1].split()[1]) == me:
            out.append(int(stat.parent.name))
    return out


def reap_descendants(timeout: float = 30.0) -> list[int]:
    """Stop this process's resource tracker and wait for every descendant.

    Descendants still running after ``timeout`` seconds are killed; their
    pids are returned (empty when everything ended on its own).
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()                      # closes its pipe and waits for it
    killed: list[int] = []
    deadline = time.monotonic() + timeout
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0] > 0:
                pass
        except ChildProcessError:
            pass
        kids = _children()
        if not kids:
            return killed
        if time.monotonic() > deadline:
            for pid in kids:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                if pid not in killed:
                    killed.append(pid)
        time.sleep(0.005)
