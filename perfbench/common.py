"""Shared plumbing: latency summaries, process hygiene, memory, provenance.

Stdlib only at import time; the program under test is imported lazily
(``provenance``), so the benchmark fails cleanly when it is missing.
"""

from __future__ import annotations

import hashlib
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where records and span dumps are written (ignored by git).
OUT_DIR = ROOT / ".perfbench"

#: Set-up samples per untraced run; ``setup_s`` is their median.
SETUP_SAMPLES = 5


def _cpus() -> List[int]:
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return list(range(os.cpu_count() or 1))


#: CPUs this process may run on when the benchmark starts.
CPUS = _cpus()


def nproc() -> int:
    """CPUs the benchmark may use (the load is sized from it), counted
    before :func:`pin_one_cpu` narrows this process to one."""
    return len(CPUS)


def pin_one_cpu() -> None:
    """Run this process, and every process it starts from now on, on
    one CPU (the last it may use).

    A 2-vCPU virtual machine makes waking a task on the other vCPU
    costly, and how costly swings with the load on the host.  ``repro
    serve`` runs one GIL-bound thread at a time and wakes on every
    request; spread over both vCPUs with its client, its throughput
    over 20 s stretches of three runs swung by up to 1.5x (IQR over
    median 0.22).  On one vCPU with its client it swung by 0.05, and
    ran as fast or faster.  The single-threaded ``bulk`` and ``apps`` stay
    on one CPU too, so host speed is probed where they run (see
    ``hostspeed``); ``sharded`` is not pinned, its workers use every
    CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, CPUS[-1:])


def program_env() -> dict:
    """Environment for child processes that import the program."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


# ----------------------------------------------------------------------
# Latency statistics
# ----------------------------------------------------------------------

def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The ``q``-quantile by the nearest-rank rule."""
    k = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[k - 1]


def latency_summary(samples_ns: List[int]) -> Dict[str, float]:
    """Median and p99 in ms, the sample count, and samples beyond p99."""
    ordered = sorted(samples_ns)
    p99 = nearest_rank(ordered, 0.99)
    return {
        "p50_ms": statistics.median(ordered) / 1e6,
        "p99_ms": p99 / 1e6,
        "samples": len(ordered),
        "beyond_p99": sum(1 for v in ordered if v > p99),
    }


def window_rates(items: List[tuple], windows: int = 10,
                 slowdown: Callable[[int], float] = lambda t: 1.0,
                 stolen: Callable[[int, int], int] = lambda a, b: 0
                 ) -> List[float]:
    """Throughput of ``windows`` consecutive groups of timed items.

    ``items`` are ``(start_ns, end_ns, numbers)`` in completion order.
    The median of these rates is robust to a burst of host noise that a
    whole-run average would absorb.  Each group's span loses the time
    ``stolen`` in it, and its rate is multiplied by the median
    ``slowdown`` of its items' start times (see ``hostspeed``).
    """
    k = max(1, min(windows, len(items)))
    rates = []
    for g in range(k):
        group = items[g * len(items) // k:(g + 1) * len(items) // k]
        start = min(t0 for t0, _, _ in group)
        span = group[-1][1] - start - stolen(start, group[-1][1])
        factor = statistics.median(slowdown(t0) for t0, _, _ in group)
        rates.append(sum(n for _, _, n in group) / (span / 1e9) * factor)
    return rates


# ----------------------------------------------------------------------
# Memory (stdlib only: /proc and resource)
# ----------------------------------------------------------------------

def _proc_status_kib(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_kib(pid: int) -> int:
    """Peak resident set (VmHWM) of a live process, in KiB."""
    return _proc_status_kib(pid, "VmHWM")


def rss_kib(pid: int) -> int:
    """Current resident set (VmRSS) of a live process, in KiB."""
    return _proc_status_kib(pid, "VmRSS")


def self_peak_rss_kib() -> int:
    """Peak resident set of this process so far, in KiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ----------------------------------------------------------------------
# Process hygiene
# ----------------------------------------------------------------------

def child_pids() -> List[int]:
    """Live direct children of this process, read from ``/proc``."""
    me = os.getpid()
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == me and fields[0] != "Z":
            kids.append(int(entry))
    return kids


def shm_segments() -> set:
    """Names currently in ``/dev/shm`` (empty set where it is absent)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def shm_mapped_elsewhere() -> set:
    """``/dev/shm`` names some other live process maps (not leaks of a
    run whose own processes are all gone)."""
    names = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/maps") as fh:
                for line in fh:
                    if "/dev/shm/" in line:
                        names.add(line.rsplit("/dev/shm/", 1)[1].split()[0])
        except OSError:
            continue
    return names


def stop_process(proc: subprocess.Popen, timeout: float = 10.0) -> int:
    """SIGTERM, wait, SIGKILL if needed; always reaps.  Returns the code."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout)
    for pipe in (proc.stdout, proc.stderr):
        if pipe is not None:
            pipe.close()
    return proc.returncode


def spawn_until(cmd: Sequence[str], marker: str, stream: str,
                timeout: float = 60.0) -> Tuple[subprocess.Popen, float, str]:
    """Start ``cmd`` and wait for a line containing ``marker``.

    Returns the process, seconds from spawn to that line, and the line.
    The other output stream is discarded.  Raises ``RuntimeError`` (after
    reaping the child) if the line never comes.
    """
    pipes = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
    pipes[stream] = subprocess.PIPE
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        list(cmd), cwd=ROOT, env=program_env(), text=True, **pipes
    )
    pipe = getattr(proc, stream)
    deadline = t0 + timeout
    while time.perf_counter() < deadline:
        line = pipe.readline()
        if not line:
            break
        if marker in line:
            return proc, time.perf_counter() - t0, line
    stop_process(proc)
    raise RuntimeError(f"{cmd[1:3]} never printed {marker!r}")


# ----------------------------------------------------------------------
# Provenance
# ----------------------------------------------------------------------

def _git_sha() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """SHA-256 over every file under ``src/`` (identifies a checkout
    that is not a git repository)."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def provenance(workload: str, seed: int, trace: bool) -> dict:
    from repro.backend import get_backend
    import numpy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_sha": _git_sha(),
        "src_sha256": src_digest(),
        "nproc": nproc(),
        "backend": get_backend().name,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


class ClientMeter:
    """CPU seconds and busy share of this (the load-generating) process."""

    def __init__(self):
        self.cpu0 = time.process_time()
        self.wall0 = time.perf_counter()

    def read(self) -> Dict[str, float]:
        cpu = time.process_time() - self.cpu0
        wall = time.perf_counter() - self.wall0
        return {"client_cpu_s": cpu, "client_busy_share": cpu / wall}
