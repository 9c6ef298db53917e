#!/usr/bin/env python3
"""Time the eigen solver's inner-loop kernels and its two solves, per N.

On the interval (0, 1) with V = 0 at p = 3, for each N: the per-call time
of the ``eigen._Disc`` kernels that the descent and the Newton polish call
(``rayleigh``, ``gradient``, ``precondition``; ``weak_residual``, the
polish's one-pass evaluation, and ``newton_direction``, its bordered step),
taken at the normalized first mode sin(pi x), and the per-solve time of
``principal_eigenvalue`` and ``second_eigenvalue_and_gap`` with 2 restarts.
Each figure is the median over 5 timings; a kernel timing runs as many calls
as take about 0.2 s.  Writes JSON to --out (stdout if omitted).  Pin BLAS to
one thread for figures that compare:

    OPENBLAS_NUM_THREADS=1 python scripts/eigen_kernels.py --N 128 1024 --out k.json
"""

import argparse
import json
import math
import statistics
import sys
import time
import timeit

import numpy as np

from finslerhardy import eigen, report

P = 3.0
RESTARTS = 2
REPEAT = 5


def kernel_us(fn):
    """Median per-call time of fn() in microseconds."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return 1e6 * statistics.median(t / number for t in timer.repeat(REPEAT, number))


def solve_s(fn):
    times = []
    for _ in range(REPEAT):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(N):
    ep = eigen.EigenProblem(p=P, L=1.0, N=N, seed=0)
    disc = eigen._disc_for(ep)
    v = disc.normalize(np.sin(math.pi * disc.x[1:-1]))
    lam = disc.rayleigh(v)
    g = disc.gradient(v, lam)
    state = disc.weak_residual(v, lam)
    return {
        "rayleigh_us": kernel_us(lambda: disc.rayleigh(v)),
        "gradient_us": kernel_us(lambda: disc.gradient(v, lam)),
        "precondition_us": kernel_us(lambda: disc.precondition(g)),
        "weak_residual_us": kernel_us(lambda: disc.weak_residual(v, lam)),
        "direction_us": kernel_us(lambda: disc.newton_direction(state)),
        "principal_s": solve_s(
            lambda: eigen.principal_eigenvalue(ep, restarts=RESTARTS)),
        "second_s": solve_s(
            lambda: eigen.second_eigenvalue_and_gap(ep, restarts=RESTARTS)),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--N", type=int, nargs="+", default=[128, 1024])
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    result = {"p": P, "restarts": RESTARTS, "repeat": REPEAT,
              "versions": report.versions(),
              "N": {str(N): measure(N) for N in args.N}}
    text = json.dumps(result, indent=1) + "\n"
    if args.out:
        report.write_atomic(text, args.out)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
