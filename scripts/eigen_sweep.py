#!/usr/bin/env python3
"""Sweep the bottom two 1D p-Laplacian eigenvalues over p.

Prints lambda_1, lambda_2 and the isolation gap against the closed forms
(p-1)(k pi_p / L)^p, optionally to CSV.

    python scripts/eigen_sweep.py --pmin 1.4 --pmax 4 --steps 7 --N 1024
"""

import argparse
import sys

import numpy as np

from finslerhardy import eigen
from finslerhardy.report import rows_to_csv, write_atomic


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pmin", type=float, default=1.5)
    ap.add_argument("--pmax", type=float, default=4.0)
    ap.add_argument("--steps", type=int, default=6)
    ap.add_argument("--L", type=float, default=1.0)
    ap.add_argument("--N", type=int, default=1024)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    rows = []
    print(f"{'p':>5} {'lambda1':>12} {'exact':>12} {'lambda2':>12} "
          f"{'exact':>12} {'gap':>12}")
    for p in np.linspace(args.pmin, args.pmax, args.steps):
        ep = eigen.EigenProblem(p=float(p), L=args.L, N=args.N)
        pr = eigen.principal_eigenvalue(ep, restarts=6)
        s2 = eigen.second_eigenvalue_and_gap(ep, xtol=1e-7, principal=pr)
        pi_p = eigen.p_sine_constant(float(p))
        ex1 = (p - 1.0) * (pi_p / args.L) ** p
        ex2 = (p - 1.0) * (2.0 * pi_p / args.L) ** p
        print(f"{p:5.2f} {pr.lam:12.5f} {ex1:12.5f} {s2['lambda2']:12.5f} "
              f"{ex2:12.5f} {s2['gap']:12.5f}")
        rows.append((float(p), pr.lam, ex1, s2["lambda2"], ex2, s2["gap"]))
    if args.csv:
        write_atomic(rows_to_csv(
            ["p", "lambda1", "lambda1_exact", "lambda2", "lambda2_exact", "gap"],
            rows), args.csv)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
