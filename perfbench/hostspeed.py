"""The host's share of a run's timings, measured so it can be taken out.

The benchmark runs on a few vCPUs of a shared host, which moves its
timings in two ways, each in phases of seconds to minutes:

* *Speed*: a vCPU runs the same code anywhere from 1x to 1.7x its best
  time (CPU time equal to wall time).  A :class:`HostClock` times a
  fixed reference kernel of the benchmark's own (an interpreter loop and
  a memory-bound NumPy pass, about 1 ms together, in thread CPU time)
  every :data:`PERIOD_NS` between the program's calls.  Its *slowdown*
  is the geometric mean of the two parts' times over their nominal times
  below.  Timings are divided by the slowdown of the 4 s bin they
  started in (rates multiplied).
* *Steal*: the host takes the vCPU away, 0-2% of the time in quiet
  phases and 11-17% in busy ones; ``/proc/stat`` counts it per CPU in
  10 ms ticks, and thread CPU time leaves it out.  In-process calls are
  therefore timed in process CPU time (see ``inproc``), and ``serve``
  requests, which wait on a server sharing their CPU, subtract the steal
  counted between :meth:`HostClock.mark` readings taken around them.

The reference uses no program code and steal is the host's, so a change
to the program moves the corrected timings as it moves the raw ones.
On a 2-vCPU x86 host, the bulk workload's per-second rate correlated
0.85 with the reference's speed; over ten 20 s bulk runs whose median
slowdowns ranged 1.27-1.44, the IQR over median of numbers/s was 0.100
unscaled and 0.058 scaled.  In a busy phase, ``serve`` runs with 11-17%
steal read p99 latencies of 49-61 ms against 29-33 ms with under 3%.
Uncorrected figures and the slowdowns go into the run record.
"""

from __future__ import annotations

import bisect
import math
import os
import statistics
import time
from typing import Callable, Dict, List, Sequence

import numpy as np

_now = time.perf_counter_ns
_cpu_now = time.thread_time_ns

#: Probes at most this often (a probe costs about 1 ms: under 1%).
PERIOD_NS = 150_000_000
#: Slowdowns are pooled per bin of this length (about 25 probes, so a
#: bin's median is steady enough to scale single latencies by).
BIN_NS = 4_000_000_000
#: Interpreter loop length and array size of the reference kernel.
_LOOP = 2000
_WORDS = 1 << 16
#: Nominal times of the two parts: their fast-phase times on a 2-vCPU
#: x86 host.  They fix the scale only; any constant would do.
NOMINAL_LOOP_NS = 200_000
NOMINAL_ARRAY_NS = 480_000

_MUL = np.uint64(0x9E3779B97F4A7C15)
_SHIFT = np.uint64(29)
#: Nanoseconds per ``/proc/stat`` tick.
_TICK_NS = 1_000_000_000 // os.sysconf("SC_CLK_TCK")


def steal_ns(cpus: Sequence[int]) -> int:
    """Steal the host has taken from ``cpus`` since boot, summed, in ns
    (0 where ``/proc/stat`` does not count it)."""
    names = {f"cpu{c}" for c in cpus}
    total = 0
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                fields = line.split()
                if fields and fields[0] in names and len(fields) > 8:
                    total += int(fields[8])
    except OSError:
        return 0
    return total * _TICK_NS


class HostClock:
    """Slowdown probes and steal readings taken through a run, and
    timings corrected by them.  ``now`` is the clock the workload times
    its calls with; probe and mark times are taken on it too."""

    def __init__(self, enabled: bool = True,
                 now: Callable[[], int] = _now):
        self.enabled = enabled
        self.now = now
        #: The CPUs this process may run on, probed in turn when there
        #: are several (the program's processes may run on any of them).
        self._home = os.sched_getaffinity(0)
        self._cpus = sorted(self._home) if len(self._home) > 1 else []
        self._words = np.arange(_WORDS, dtype=np.uint64)
        #: ``(t, slowdown)`` per probe.
        self.probes: List[tuple] = []
        #: Times and steal readings of the :meth:`mark` calls, in order.
        self._mark_times: List[int] = []
        self._mark_steal: List[int] = []
        self._last = 0
        self._bins: Dict[int, float] = {}

    def probe(self) -> float:
        """Time the reference kernel once; returns its slowdown.

        The parts are timed in this thread's CPU time, so time spent
        preempted (by the program's other processes) does not count.
        """
        if self._cpus:
            cpu = self._cpus[len(self.probes) % len(self._cpus)]
            os.sched_setaffinity(0, {cpu})
        start = self.now()
        x = 0
        t0 = _cpu_now()
        for k in range(_LOOP):
            x += k * k
        t1 = _cpu_now()
        (self._words * _MUL) ^ (self._words >> _SHIFT)
        t2 = _cpu_now()
        if self._cpus:
            os.sched_setaffinity(0, self._home)
        slowdown = math.sqrt((t1 - t0) / NOMINAL_LOOP_NS
                             * (t2 - t1) / NOMINAL_ARRAY_NS)
        self.probes.append((start, slowdown))
        self._last, self._bins = self.now(), {}
        return slowdown

    def tick(self) -> None:
        """Probe if the last probe is :data:`PERIOD_NS` old."""
        if self.enabled and self.now() - self._last >= PERIOD_NS:
            self.probe()

    def settle(self, count: int = 5) -> float:
        """Median slowdown of ``count`` back-to-back probes (the host's
        speed right now, e.g. before a set-up sample)."""
        if not self.enabled:
            return 1.0
        return statistics.median(self.probe() for _ in range(count))

    def mark(self) -> int:
        """The time now, with this process's CPUs' steal so far noted
        for :meth:`stolen`."""
        t = self.now()
        if self.enabled:
            self._mark_times.append(t)
            self._mark_steal.append(steal_ns(self._home))
        return t

    def stolen(self, start: int, end: int) -> int:
        """Steal noted between the marks at or last before ``start`` and
        ``end`` (0 without marks)."""
        if not self._mark_times:
            return 0

        def at(t: int) -> int:
            i = bisect.bisect_right(self._mark_times, t) - 1
            return self._mark_steal[max(i, 0)]

        return at(end) - at(start)

    def slowdown(self, t: int) -> float:
        """Median slowdown of the bin holding ``t`` (the nearest bin
        with probes if it has none; 1.0 with no probes at all)."""
        if not self.probes:
            return 1.0
        if not self._bins:
            pooled: Dict[int, list] = {}
            for tp, s in self.probes:
                pooled.setdefault(tp // BIN_NS, []).append(s)
            self._bins = {k: statistics.median(v) for k, v in pooled.items()}
        k = t // BIN_NS
        if k not in self._bins:
            k = min(self._bins, key=lambda b: abs(b - k))
        return self._bins[k]

    def median_slowdown(self) -> float:
        return (statistics.median(s for _, s in self.probes)
                if self.probes else 1.0)
