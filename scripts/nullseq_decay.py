#!/usr/bin/env python3
"""Null-sequence energy/mass decay experiment.

Builds the optimal weight for a chosen family and (p, n), runs the log-cutoff
sequence over a dyadic k-grid, prints the measured decay against the exact
transition-energy law and the X(v, w_k) bound law, and optionally writes the
CSV (columns k, energy, mass, ratio).

    python scripts/nullseq_decay.py --family lp:s=4 --p 3 --n 2 --kmax 4096
"""

import argparse
import math
import sys

import numpy as np

from finslerhardy import fields, hardy, norms
from finslerhardy.report import rows_to_csv, write_atomic


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--family", default="euclidean")
    ap.add_argument("--p", type=float, default=2.0)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--kmin", type=int, default=16)
    ap.add_argument("--kmax", type=int, default=4096)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    fam = norms.parse_family(args.family, args.p, args.n)
    G = fields.DualPowerField(fam)
    hw = hardy.build_weight_zero_potential(fam, G)
    ks = [2 ** j for j in range(int(math.log2(args.kmin)),
                                int(math.log2(args.kmax)) + 1)]
    ns = hardy.null_sequence(hw, ks)
    cf = hw.flux_constant()
    print(f"family={fam.label()} p={args.p} n={args.n}  flux constant={cf:.6f}")
    print(f"{'k':>6} {'energy':>12} {'exact law':>12} {'X bound':>12} "
          f"{'mass':>12} {'ratio':>10}")
    for k, e, x, m_, r in zip(ns.k_list, ns.energies, ns.x_grad, ns.masses,
                              ns.ratios):
        law = hardy.transition_energy_law(args.p, cf, k)
        print(f"{k:>6} {e:>12.5g} {law:>12.5g} {x:>12.5g} {m_:>12.5g} {r:>10.6f}")
    lk = np.log(np.log(np.array(ns.k_list, dtype=float)))
    sq = np.polyfit(lk, np.log(ns.energies), 1)[0]
    sx = np.polyfit(lk, np.log(ns.x_grad), 1)[0]
    print(f"\nlog-log slope of Q_{{-W}}[u_k]: {sq:+.4f}   (1/log k law: -1)")
    print(f"log-log slope of X(v, w_k):   {sx:+.4f}   ((log k)^(1-p) law: "
          f"{-(args.p - 1):+.2f})")
    if args.csv:
        rows = list(zip(ns.k_list, ns.energies, ns.masses, ns.ratios))
        write_atomic(rows_to_csv(["k", "energy", "mass", "ratio"], rows), args.csv)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
