"""One workload process: import finslerhardy, build the inputs, run once.

    python3 perfbench/worker.py --workload NAME --seed N --mode setup|run|trace
                                --out RESULT.json [--tiny]

Prints ``READY`` when the package is imported and the inputs are built, then
(unless ``--mode setup``) runs one iteration and writes to ``--out`` its wall
time, CPU time, peak RSS, checks attempted and failed, the output digest,
and with ``--mode trace`` the tracer's per-function totals and its
calibrated per-call cost.  ``perfbench/run.py`` starts this process with
``src`` on ``PYTHONPATH`` and BLAS threads pinned.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    import finslerhardy
    from finslerhardy import report

    src = os.path.join(ROOT, "src", "finslerhardy")
    if os.path.dirname(os.path.abspath(finslerhardy.__file__)) != src:
        sys.exit(f"finslerhardy imported from {finslerhardy.__file__}, not {src}")
    import tracer
    import workloads

    run = workloads.WORKLOADS[args.workload](
        args.seed, args.tiny, os.path.dirname(os.path.abspath(args.out)))
    print("READY", flush=True)
    if args.mode == "setup":
        return

    trace = tracer.Tracer() if args.mode == "trace" else None
    if trace:
        trace.install()
    c0, t0 = _cpu(), time.perf_counter()
    attempted, failures, digest = run()
    wall = time.perf_counter() - t0
    cpu = _cpu() - c0
    result = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failures": failures,
        "digest": digest,
        "versions": report.versions(),
        "trace": trace.snapshot() if trace else None,
        "per_call_cost": tracer.calibrate() if trace else None,
    }
    with open(args.out, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
