"""Measurement helpers shared by the end-to-end benchmark.

* :func:`gc_paused` — the load generator's GC pause (never applied to the
  system under test, which runs in its own process).
* :func:`tail_percentile` — nearest-rank percentiles in which refused
  requests count as +inf, refusing to report a percentile that has fewer
  than ten samples beyond it.
* :func:`summarize` — median, quartiles and sample count, with the
  quartiles computed exactly as ``statistics.quantiles(values, n=4)``.
* :func:`host_block` / :func:`calibrate` — the host fingerprint and the
  fixed calibration loop recorded with every round.
* :class:`ProcStats` — peak RSS and CPU time of a process, from ``/proc``.
* :class:`SpanRecorder` — in-memory spans (name, start/end ns, parent,
  request id) and the per-stage self-time table built from them.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import json
import math
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Sequence, Tuple

INF = math.inf

#: The repository root (this file is ``benchmarks/e2e/_harness.py``).
REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


@contextlib.contextmanager
def gc_paused() -> Iterator[None]:
    """Collect once, then keep the collector off for the block."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def record_check(checks: Dict[str, Dict], name: str, ok: bool, detail: str = "") -> None:
    """Record one correctness check of a run; a failed one fails the run."""
    checks[name] = {"ok": bool(ok), "detail": detail}


class TooFewSamples(ValueError):
    """A percentile was asked of a sample too small to support it."""


def tail_percentile(
    samples: Sequence[float], q: float, refused: int = 0, min_beyond: int = MIN_BEYOND
) -> float:
    """Nearest-rank ``q``-th percentile, refused requests counted as +inf.

    ``refused`` requests (busy, blocked or failed replies) join the
    sample as +inf, so they miss every latency limit.  Raises
    :class:`TooFewSamples` when fewer than ``min_beyond`` samples lie
    beyond the percentile's rank.
    """
    values = sorted(samples) + [INF] * refused
    n = len(values)
    rank = max(math.ceil(q / 100.0 * n) - 1, 0)
    beyond = n - rank - 1
    if n == 0 or beyond < min_beyond:
        raise TooFewSamples(
            f"p{q:g} of {n} samples has {max(beyond, 0)} beyond it; "
            f"need {min_beyond}"
        )
    return values[rank]


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of repeated measurements."""
    q1, median, q3 = quartiles(list(values))
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# Host fingerprint
# ---------------------------------------------------------------------------
#: Iterations of the calibration loop (about one second on the reference
#: host; the point is a fixed amount of work, not a fixed time).
CALIBRATION_ITERS = 20_000_000


def calibrate() -> float:
    """Milliseconds the fixed pure-Python calibration loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERS):
        acc += i & 7
    return (time.perf_counter() - t0) * 1e3


def host_block() -> Dict[str, object]:
    """Cores, affinity, interpreter and library versions of this host."""
    import numpy

    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# /proc readers for the system under test
# ---------------------------------------------------------------------------
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


class ProcStats:
    """Peak RSS and CPU seconds of one live process, read from ``/proc``."""

    def __init__(self, pid: int):
        self.pid = pid

    def cpu_s(self) -> float:
        """User + system CPU of the process and its reaped children."""
        stat = Path(f"/proc/{self.pid}/stat").read_text()
        # Fields after the parenthesised command name; utime is field 14.
        fields = stat[stat.rindex(")") + 2 :].split()
        utime, stime, cutime, cstime = (int(f) for f in fields[11:15])
        return (utime + stime + cutime + cstime) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        """High-water resident set size (``VmHWM``) in MiB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise OSError(f"no VmHWM for pid {self.pid}")


def _die_with_parent() -> None:
    # PR_SET_PDEATHSIG: the kernel kills the SUT if the benchmark process
    # dies first, so an interrupted run never leaves a service behind.
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)


class SutProcess:
    """The system under test, in a fresh subprocess of its own.

    It runs the repository's code from ``src/``, talks JSON lines over
    stdin/stdout where it needs a control channel, and writes its stderr
    to a log under ``out/`` so a failure can say why.
    """

    def __init__(self, argv: Sequence[str], log_name: str):
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.log_path = OUT_DIR / log_name
        self._log = open(self.log_path, "wb")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            cwd=str(REPO_ROOT),
            env=env,
            preexec_fn=_die_with_parent,
        )
        self.stats = ProcStats(self.proc.pid)

    def readline(self, timeout: float) -> str:
        """One stdout line; raises with the stderr log tail on EOF/timeout."""
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            raise RuntimeError(
                f"system under test gave no output within {timeout:g}s "
                f"(exit {self.proc.poll()}): {self.log_tail()}"
            )
        return line.decode("utf-8")

    def request(self, obj: Dict[str, object], timeout: float) -> Dict[str, object]:
        """Send one JSON command line and read its one-line JSON reply."""
        self.proc.stdin.write((json.dumps(obj) + "\n").encode("utf-8"))
        self.proc.stdin.flush()
        return json.loads(self.readline(timeout))

    def log_tail(self, n: int = 2000) -> str:
        self._log.flush()
        return self.log_path.read_text(errors="replace")[-n:].strip()

    def close(self, timeout: float = 30.0) -> int:
        """Wait for the process to exit (killing it after ``timeout``)."""
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return code


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
class SpanRecorder:
    """Spans held in memory until the run ends.

    Each span has a name, start and end in ns, the index of the span open
    when it began (its parent, -1 for a root) and a request id shared by
    the spans of one request (-1 when none).  ``begin``/``end`` are the
    hot-path interface; :meth:`span` is the context-manager form.
    """

    enabled = True

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.requests: List[int] = []
        self._open: List[int] = []

    def begin(self, name: str, request: int = -1) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.requests.append(request)
        self.ends.append(0)
        self._open.append(index)
        self.starts.append(time.perf_counter_ns())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter_ns()
        if self._open.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def add(self, name: str, start: int, end: int, parent: int, request: int = -1) -> None:
        """Record a span timed by the caller (``perf_counter_ns`` stamps)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        self.requests.append(request)

    @contextlib.contextmanager
    def span(self, name: str, request: int = -1) -> Iterator[None]:
        index = self.begin(name, request)
        try:
            yield
        finally:
            self.end(index)

    def roots(self, name: str) -> List[int]:
        return [i for i, n in enumerate(self.names) if n == name and self.parents[i] < 0]

    def stage_table(self, root: int) -> Dict[str, object]:
        """Self time per stage under ``root``, plus the residual row.

        A span's self time is its duration minus the durations of its
        direct children.  The root's own self time is the ``residual``
        row — time inside the traced interval that no stage span covers —
        so the rows always sum to the root's wall time.
        """
        top = list(range(len(self.names)))
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                top[i] = top[parent]
        duration = [e - s for s, e in zip(self.starts, self.ends)]
        child = [0] * len(duration)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += duration[i]
        self_ns: Dict[str, int] = {}
        count: Dict[str, int] = {}
        for i, name in enumerate(self.names):
            if top[i] != root or i == root:
                continue
            self_ns[name] = self_ns.get(name, 0) + duration[i] - child[i]
            count[name] = count.get(name, 0) + 1
        wall = duration[root]
        residual = duration[root] - child[root]
        rows = [
            {"stage": name, "calls": count[name], "self_ms": ns / 1e6,
             "share": ns / wall if wall else 0.0}
            for name, ns in sorted(self_ns.items(), key=lambda kv: -kv[1])
        ]
        rows.append({"stage": "residual", "calls": 1, "self_ms": residual / 1e6,
                     "share": residual / wall if wall else 0.0})
        return {
            "root": self.names[root],
            "wall_ms": wall / 1e6,
            "coverage": 1.0 - residual / wall if wall else 0.0,
            "rows": rows,
        }

    def write(self, path: Path) -> None:
        """Write every span as ``[name, start_ns, end_ns, parent, request]``."""
        origin = min(self.starts) if self.starts else 0
        spans = [
            [n, s - origin, e - origin, p, r]
            for n, s, e, p, r in zip(
                self.names, self.starts, self.ends, self.parents, self.requests
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start_ns", "end_ns",
                                               "parent", "request"],
                                    "spans": spans}))


class NullRecorder:
    """The recorder of an untraced run: same interface, records nothing."""

    enabled = False

    def begin(self, name: str, request: int = -1) -> int:
        return -1

    def end(self, index: int) -> None:
        pass

    @contextlib.contextmanager
    def span(self, name: str, request: int = -1) -> Iterator[None]:
        yield

