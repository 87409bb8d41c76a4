"""In-memory span tracing from wrappers around public layer calls.

A :class:`Tracer` replaces methods on the program's classes with thin
wrappers for the length of a traced run, and restores them afterwards.
Each call becomes a span of a private :class:`repro.obs.trace.Tracer`
(not the process-global one, so the program's own spans stay out), which
nests spans per thread and derives self time (duration minus direct
children).  The wrappers add what the obs tracer does not keep: per span
name, work counts ``n`` and ``m`` derived from the call (words, numbers,
variates...).

Spans stay in memory until :meth:`Tracer.dump` writes them out after
the run.  Nothing here runs unless a run asks for ``--trace 1``.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, Dict, List, Optional

_now = time.perf_counter_ns

#: ``work(args, kwargs, result, pre) -> (n, m)``; ``pre`` is what the
#: optional ``pre(args, kwargs)`` hook returned before the call.
WorkFn = Callable[..., tuple]


class Tracer:
    def __init__(self):
        from repro.obs.trace import Tracer as ObsTracer

        self.obs = ObsTracer()
        self._local = threading.local()
        #: One ``{name: [n, m]}`` per thread, merged by :meth:`summary`.
        self._work: List[Dict[str, list]] = []
        self._lock = threading.Lock()
        self._patches: list = []

    def _work_here(self) -> Dict[str, list]:
        work = getattr(self._local, "work", None)
        if work is None:
            work = self._local.work = {}
            with self._lock:
                self._work.append(work)
        return work

    def patch(self, owner: type, attr: str, name: str,
              work: Optional[WorkFn] = None,
              pre: Optional[Callable] = None) -> None:
        """Record every call of ``owner.attr`` as a span called ``name``."""
        orig = owner.__dict__[attr]
        tracer = self
        span = self.obs.span

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            state = pre(args, kwargs) if pre is not None else None
            with span(name):
                result = orig(*args, **kwargs)
            if work is not None:
                n, m = work(args, kwargs, result, state)
                acc = tracer._work_here().setdefault(name, [0, 0])
                acc[0] += n
                acc[1] += m
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def restore(self) -> None:
        """Put every patched method back (reverse order, idempotent)."""
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -- analysis --------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.obs.spans)

    def summary(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, n and m."""
        out = {
            name: {"calls": t.count, "incl_s": t.total_s,
                   "self_s": t.self_s, "n": 0, "m": 0}
            for name, t in self.obs.stage_totals().items()
        }
        for work in self._work:
            for name, (n, m) in work.items():
                out[name]["n"] += n
                out[name]["m"] += m
        return out

    def covered_s(self, t0_ns: int, t1_ns: int) -> float:
        """Seconds of ``[t0, t1]`` during which any top-level span (on
        any thread) was open: the time some traced layer accounts for."""
        intervals = sorted(
            (max(rec.start_ns, t0_ns), min(rec.end_ns, t1_ns))
            for rec in self.obs.spans
            if rec.parent_id is None and rec.end_ns > t0_ns
            and rec.start_ns < t1_ns
        )
        total = 0
        cur_s = cur_e = None
        for s, e in intervals:
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            total += cur_e - cur_s
        return total / 1e9

    def dump(self, path) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as fh:
            for rec in self.obs.spans:
                fh.write(json.dumps(rec.to_dict()) + "\n")


class _Probe:
    def call(self):
        return None


def span_cost_s(calls: int = 5000) -> float:
    """Measured extra cost of one traced call over an untraced one."""
    probe = _Probe()

    def loop() -> float:
        t0 = _now()
        for _ in range(calls):
            probe.call()
        return (_now() - t0) / 1e9

    bare = min(loop() for _ in range(3))
    tracer = Tracer()
    tracer.patch(_Probe, "call", "probe")
    try:
        traced = min(loop() for _ in range(3))
    finally:
        tracer.restore()
    return max(0.0, traced - bare) / calls
