"""Seek latency benchmark: jump-ahead cost must not grow with offset.

The crash-recovery story rests on one performance fact: ``seek(offset)``
is O(log offset) matrix-power composition, so resuming a stream that has
served a trillion words costs the same as resuming a fresh one.  This
benchmark measures the wall-clock latency of a cold seek at offsets from
2**10 to 2**48 -- for the glibc feed itself and for a full
``policy="mod"`` :class:`~repro.core.parallel.ParallelExpanderPRNG`
walker bank -- and
records the ratio ``t(2**40) / t(2**10)``.

The gate (CI ``recovery`` job): that ratio stays under 2x.  A replay
implementation would fail it by nine orders of magnitude; a logarithmic
one passes with room for timer noise.

For context the report also times *sequential replay* to a small offset,
the cost recovery used to pay per stream before direct seek existed.

Runs two ways:

* under pytest (tiny offsets; checks the measurement path);
* as a script (``python benchmarks/bench_seek.py``), the CI mode that
  writes ``benchmarks/results/BENCH_seek.json``.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))

from repro.bitsource.glibc import GlibcRandom
from repro.core.parallel import ParallelExpanderPRNG

DEFAULT_EXPONENTS = (10, 20, 30, 40, 48)
BANK_LANES = 64


def _median_seek_s(make, offset: int, repeats: int) -> float:
    """Median wall-clock of a cold ``seek(offset)`` + first word."""
    times = []
    for _ in range(repeats):
        obj = make()
        t0 = time.perf_counter()
        obj.seek(offset)
        obj.words64(1) if hasattr(obj, "words64") else obj.generate(1)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _replay_s(offset: int) -> float:
    """Sequential replay to ``offset`` (what restart used to cost)."""
    src = GlibcRandom(2026)
    t0 = time.perf_counter()
    src.words64(offset)
    src.words64(1)
    return time.perf_counter() - t0


def run(exponents=DEFAULT_EXPONENTS, repeats: int = 9) -> dict:
    report = {"lanes": BANK_LANES, "repeats": repeats}
    for label, make in [
        ("feed", lambda: GlibcRandom(2026)),
        ("bank", lambda: ParallelExpanderPRNG(
            num_threads=BANK_LANES, bit_source=GlibcRandom(2026),
            policy="mod")),
    ]:
        for exp in exponents:
            t = _median_seek_s(make, 1 << exp, repeats)
            report[f"{label}_seek_us_2e{exp}"] = round(t * 1e6, 2)
            print(f"{label} seek(2**{exp:2d}): {t * 1e6:10.2f} us",
                  flush=True)
        lo, hi = min(exponents), max(e for e in exponents if e <= 40)
        report[f"{label}_ratio_2e{hi}_over_2e{lo}"] = round(
            report[f"{label}_seek_us_2e{hi}"]
            / max(report[f"{label}_seek_us_2e{lo}"], 1e-9), 3
        )
    # Context: what sequential replay costs at a *small* offset.
    replay_off = 1 << 22
    t = _replay_s(replay_off)
    report["replay_s_2e22"] = round(t, 4)
    print(f"replay to 2**22 (context): {t * 1e3:10.2f} ms", flush=True)
    return report


def check_flatness(report: dict, max_ratio: float) -> int:
    """Gate: seek at 2**40 within ``max_ratio`` of seek at 2**10."""
    if max_ratio <= 0:
        return 0
    failed = 0
    for label in ("feed", "bank"):
        key = next(
            (k for k in report if k.startswith(f"{label}_ratio_")), None
        )
        if key is None:
            continue
        ratio = report[key]
        if ratio > max_ratio:
            print(
                f"SEEK GATE FAILED: {label} {key} = {ratio}x > "
                f"{max_ratio}x (seek latency grows with offset)",
                file=sys.stderr,
            )
            failed = 1
        else:
            print(f"seek gate passed: {label} {ratio}x <= {max_ratio}x")
    return failed


def test_seek_latency_smoke():
    """Pytest-scale run: two offsets, correctness of the harness only."""
    from conftest import record

    report = run(exponents=(10, 20), repeats=3)
    assert report["feed_seek_us_2e10"] > 0
    assert report["bank_seek_us_2e20"] > 0
    record("seek", "seek latency smoke", data={
        k: v for k, v in report.items() if isinstance(v, (int, float))
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--exponents", type=int, nargs="+",
                        default=list(DEFAULT_EXPONENTS),
                        help="offsets measured as powers of two")
    parser.add_argument("--repeats", type=int, default=9,
                        help="repeats per offset (median is reported)")
    parser.add_argument("--max-ratio", type=float, default=0.0,
                        help="fail if seek(2**40) exceeds this multiple "
                             "of seek(2**10) (0: record only)")
    args = parser.parse_args(argv)
    report = run(exponents=tuple(args.exponents), repeats=args.repeats)
    from common import emit_bench_record

    path = emit_bench_record("seek", fields={"report": "seek"}, metrics={
        k: v for k, v in report.items() if isinstance(v, (int, float))
    })
    print(f"wrote {path}")
    return check_flatness(report, args.max_ratio)


if __name__ == "__main__":
    raise SystemExit(main())
