"""Shared plumbing of the benchmark: environment, host record, statistics,
spans, scratch directories and process clean-up.

Only the standard library is imported at module level, so ``run.py`` can
import this file before :func:`bootstrap` has pinned the BLAS/OpenMP
thread counts and put the checkout's ``src/`` on the path.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Everything the benchmark writes lands here (git-ignored); scratch
#: directories are removed on exit, span files stay.
WORK = BENCH_DIR / ".work"

#: Thread-count variables pinned to 1 in every measured process: the
#: program is single-threaded numpy, and a BLAS pool that wakes up on one
#: run and not the next is noise, not signal.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

SCHEMA = "mrscan-bench/1"


def bootstrap() -> None:
    """Pin threads and make ``repro`` importable from *this* checkout.

    Never falls back to an installed ``repro``: a benchmark that measured
    some other copy of the program would be worse than one that fails.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"bench: {SRC / 'repro'} not found - the benchmark measures the "
            "program in its own checkout and there is none here\n"
        )
        raise SystemExit(2)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = str(SRC)
    if src not in sys.path:
        sys.path.insert(0, src)
    # Children (the serve daemon, spawn-context pool workers, tcp worker
    # agents) find the program the same way.
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src + (os.pathsep + inherited if inherited else "")
    # SIGTERM unwinds through the finally blocks that stop daemons and
    # unlink shared-memory segments instead of killing us mid-workload.
    signal.signal(signal.SIGTERM, _raise_exit)
    # A process orphaned below us (a worker whose pool died, a daemon's
    # child) is re-parented to us instead of init, so end_descendants()
    # finds it and can wait for it.
    with contextlib.suppress(OSError, AttributeError):
        ctypes.CDLL(None).prctl(_PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


_PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def _raise_exit(signum, _frame) -> None:
    raise SystemExit(128 + signum)


# --------------------------------------------------------------------- #
# The contract file
# --------------------------------------------------------------------- #


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def metric_units(contract: dict, trace: bool) -> dict[str, str]:
    """name -> unit of the metrics one pass reports, in file order."""
    section = contract["per_layer"] if trace else contract["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


# --------------------------------------------------------------------- #
# Host and noise record
# --------------------------------------------------------------------- #


def host_record() -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        load = list(os.getloadavg())
    except OSError:
        load = []
    return {
        "nproc": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "loadavg_at_start": load,
        "thread_pinning": {v: os.environ.get(v) for v in THREAD_VARS},
    }


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(n=4)`` gives them - the same
    estimator the acceptance rule uses; a single sample is its own
    quartiles."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile (no interpolation past the samples)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return float(ordered[int(rank) - 1])


def describe(values) -> dict:
    """Sample count, median and quartiles of one metric's raw samples."""
    values = [float(v) for v in values]
    q1, q3 = quartiles(values)
    return {
        "n": len(values), "median": median(values), "q1": q1, "q3": q3,
        "min": min(values), "max": max(values),
    }


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    mid = median(values)
    return (q3 - q1) / mid if mid else 0.0


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #


class Spans:
    """In-memory span recorder for the traced pass.

    Each span carries a name, start, end, the id of the span that was
    open when it began, and the workload; nothing is written until
    :meth:`write`.  Spans are recorded from benchmark code around calls
    into the program's public functions - the program itself is not
    instrumented.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.rows: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        row = {
            "id": len(self.rows),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.rows.append(row)
        self._open.append(row["id"])
        try:
            yield row
        finally:
            row["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [r["end"] - r["start"] for r in self.rows if r["name"] == name]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def child_totals(self, parent_id: int) -> dict[str, float]:
        """Summed duration per name of one span's direct children (the
        span's self time is its own duration minus their sum)."""
        totals: dict[str, float] = {}
        for r in self.rows:
            if r["parent"] == parent_id:
                totals[r["name"]] = totals.get(r["name"], 0.0) + r["end"] - r["start"]
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps({"schema": SCHEMA, "workload": self.workload,
                        "spans": self.rows}),
            encoding="utf-8",
        )


# --------------------------------------------------------------------- #
# Scratch space and processes
# --------------------------------------------------------------------- #


@contextlib.contextmanager
def scratch_dir(prefix: str):
    """A directory under ``bench/.work`` removed on every exit path."""
    WORK.mkdir(parents=True, exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix=prefix, dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def short_path(path: Path) -> str:
    """``path`` relative to the cwd when that is shorter: AF_UNIX socket
    paths are capped near 100 bytes and checkouts can sit deep."""
    rel = os.path.relpath(path)
    return rel if len(rel) < len(str(path)) else str(path)


def stop_process(proc: subprocess.Popen, grace: float = 10.0) -> None:
    """Make sure ``proc`` has ended and been waited for."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=grace)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError, IndexError):
        pass
    return 0


def _descendants(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                kids = [int(k) for k in fh.read().split()]
        except (OSError, ValueError):
            continue
        for kid in kids:
            out.append(kid)
            out.extend(_descendants(kid))
    return out


def peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of ``pid`` plus that of its live
    descendants - pool workers are part of the measured program."""
    total_kb = _status_kb(pid, "VmHWM")
    for kid in _descendants(pid):
        total_kb += _status_kb(kid, "VmHWM")
    return total_kb / 1024.0


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _reap_exited() -> None:
    """Wait for every child that has already ended."""
    with contextlib.suppress(ChildProcessError):
        while os.waitpid(-1, os.WNOHANG)[0]:
            pass


def _command(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            return fh.read().replace(b"\0", b" ").decode(errors="replace").strip()
    except OSError:
        return "?"


def end_descendants(grace: float = 3.0) -> list[str]:
    """Leave no process behind: end and wait for everything still below
    this one.  Call it when the workload is over and its pools and daemons
    have been closed; what it then still finds running, it returns (pid
    and command line) after stopping it.

    ``multiprocessing``'s resource tracker is not one of those: the shm
    transport starts it, it lives until the pipe from this process closes
    and would otherwise outlast us by a moment.  It is stopped last, once
    nothing else holds that pipe.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    tracker_pid = getattr(tracker, "_pid", None)

    def running() -> list[int]:
        _reap_exited()
        return [p for p in _descendants(os.getpid()) if p != tracker_pid]

    strays = running()
    found = [f"{pid} {_command(pid)}" for pid in strays]
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in strays:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, sig)
        deadline = time.monotonic() + grace
        while strays and (sig == signal.SIGKILL or time.monotonic() < deadline):
            time.sleep(0.01)
            strays = running()
    if tracker_pid is not None:
        if hasattr(tracker, "_stop"):
            tracker._stop()  # closes the pipe and waits for the tracker
        else:
            os.kill(tracker_pid, signal.SIGKILL)
            os.waitpid(tracker_pid, 0)
    _reap_exited()
    return found


def leak_failures() -> list[str]:
    """Failure lines for what the workload left behind after closing its
    pools and daemons: shared-memory segments not unlinked, processes
    still running (stopped here)."""
    from repro.runtime import active_segment_names

    failures = []
    leaked = list(active_segment_names())
    if leaked:
        failures.append(f"shared-memory segments leaked: {leaked}")
    left = end_descendants()
    if left:
        failures.append(f"processes left running: {left}")
    return failures
