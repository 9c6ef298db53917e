#!/usr/bin/env python3
"""Radial Green potential: far-field exponent and flux-bound experiment.

    python scripts/green_farfield.py --p 1.5 --n 3 --depth 0.05 --csv out.csv
"""

import argparse
import sys

from finslerhardy import green
from finslerhardy.report import rows_to_csv, write_atomic


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--depth", type=float, default=0.0,
                    help="depth of the nonpositive potential bump on [0.5, 1.5]")
    ap.add_argument("--R", type=float, default=100.0)
    ap.add_argument("--cells", type=int, default=2048)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    phi = green.BumpDensity(0.5, 1.0, 1.0, args.n)
    V = green.bump_potential(0.5, 1.5, args.depth) if args.depth > 0 else None
    prob = green.RadialProblem(p=args.p, n=args.n, phi=phi, V=V, R_out=args.R,
                               n_cells=args.cells)
    gp = green.solve_green(prob)
    beta, A, B = green.farfield_exponent(gp)
    fb = green.flux_bound_check(gp)
    expect = (args.p - args.n) / (args.p - 1.0)
    print(f"residual {gp.residual:.2e} after {gp.newton_iters} Newton steps "
          f"(exit {gp.newton.exit})")
    print(f"far field: u ~ {A:.6g} r^{beta:.6f} + {B:.2e}   "
          f"(decay exponent (p-n)/(p-1) = {expect:.6f})")
    print(f"flux bounds: C0={fb['C0']:.6g}  M_phi={fb['M_phi']:.6g}  "
          f"upper={fb['upper_ok']} floor={fb['floor_ok']}")
    print(f"Gauss-Green flux identity worst rel err: "
          f"{fb['worst_identity_rel_err']:.2e}")
    if args.csv:
        du = gp.dprofile(gp.r)
        rows = list(zip(gp.r.tolist(), gp.u.tolist(), du.tolist()))
        write_atomic(rows_to_csv(["r", "u", "du"], rows), args.csv)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
