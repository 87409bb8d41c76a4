"""Set-up probe: import the program, build what a workload's first call
needs, print ``ready``, tear down.

Run as ``python perfbench/probe.py <workload> <seed>`` with ``src`` on
``PYTHONPATH``; the parent times spawn-to-``ready`` as one ``setup_s``
sample.  The ``serve`` workload times ``repro serve`` itself instead.
"""

import sys


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    if workload == "bulk":
        from repro.baselines.hybrid_adapter import HybridPRNG

        HybridPRNG(seed=seed, num_threads=4096)
        print("ready", flush=True)
    elif workload == "sharded":
        from inproc import engine_config
        from repro.engine import ShardedEngine

        with ShardedEngine(engine_config(seed)):
            print("ready", flush=True)
    elif workload == "apps":
        # Banks are per call in the apps; set-up is the import.
        import repro.apps.montecarlo  # noqa: F401

        print("ready", flush=True)
    else:
        raise SystemExit(f"no probe for workload {workload!r}")


if __name__ == "__main__":
    main()
