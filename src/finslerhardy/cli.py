"""Command-line front end: verification campaigns, weight builds, reports.

Subcommands: verify-norms, verify-bregman, verify-harmonic, build-weight,
null-seq, verify-optimality, green, eigen, suite.  Reports are JSON (CSV on
request), written atomically; a fixed seed makes every report byte-stable
up to the timestamp field.  HARDY_THREADS (or --threads) caps the suite's
parallelism; per-check ordering is fixed by the registry, so results do not
depend on the thread count.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration errors, 3 internal numeric failures.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import acceptance, bregman, eigen, fields, green, hardy, norms, report
from .errors import ConstructionError, SolverError
from .report import bound, equals, record, within, within_rel


def _add_common(sp, family=True, radii=False):
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--out", "-o", default=None, help="report path (default stdout)")
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    if family:
        sp.add_argument("--family", default="euclidean",
                        help="euclidean | lp:s=<f> | quad:[[..],..] | "
                             "mix:s=<f>;A=[[..],..] | weighted:delta=<f>;base=<spec>"
                             " (a matrix must be n x n)")
        sp.add_argument("--p", type=float, default=2.0,
                        help="exponent; a green:<file> weight needs the file's p")
        sp.add_argument("--n", type=int, default=3,
                        help="dimension; must match a matrix family's size, and "
                             "a green:<file> weight needs the file's n")
    if radii:
        sp.add_argument("--rmin", type=float, default=0.1)
        sp.add_argument("--rmax", type=float, default=10.0)


def _stated(tol):
    """The CLI's tolerance rule for the shared acceptance checks: as stated."""
    return tol


def _parse_grid(s):
    parts = s.split(",")
    return int(float(parts[0])), int(float(parts[1])) if len(parts) > 1 else 32


def _green_from_spec(spec):
    return green.solve_green(green.load_problem(spec[len("green:"):]))


def _field_from_spec(spec, fam):
    spec = spec.strip()
    if spec == "dualpow":
        return fields.DualPowerField(fam)
    if spec.startswith("logdual:R="):
        return fields.LogDualField(fam, float(spec[len("logdual:R="):]))
    if spec.startswith("green:"):
        # build-weight and its siblings take a Green potential in _build_hw
        raise ConstructionError(
            "a Green potential solves -div a(grad u) + c_p V u^(p-1) = phi with the "
            "problem file's V, phi and p, not the p-harmonic equation; check it "
            "with build-weight --field green:<file>")
    if spec.startswith("f0(") and spec.endswith(")"):
        inner = _field_from_spec(spec[3:-1], fam)
        return fields.power_of(inner, (fam.p - 1.0) / fam.p)
    raise ConstructionError(f"unrecognized field spec {spec!r}")


def _write(text, out):
    """Write text atomically to the path ``out``, or to stdout when it is empty."""
    if out:
        report.write_atomic(text, out)
    else:
        sys.stdout.write(text)


#: the parsed options that say where a report goes or how the run executes;
#: every other option is the report's config (the thread count is not: reports
#: must be byte-identical across thread counts)
_NOT_CONFIG = ("command", "fn", "out", "format", "profile_out", "threads")


def _emit(args, checks, payload=None):
    config = {k: v for k, v in vars(args).items() if k not in _NOT_CONFIG}
    rep = report.build_report(args.command, config, checks)
    if payload is not None:
        rep["payload"] = payload
    _write(report.render_json(rep) if args.format == "json" else report.render_csv(rep),
           args.out)
    return 0 if rep["summary"]["fail"] == 0 else 1


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_verify_norms(args):
    fam = norms.parse_family(args.family, args.p, args.n)
    m = args.samples
    checks = (acceptance.operator_identity(fam, m, args.seed, _stated)
              + acceptance.homogeneity_monotonicity(fam, m, args.seed, _stated))
    kappa, nu = norms.equivalence_report(fam, n_samples=min(m, 4096), seed=args.seed)
    # composite: the record reports both constants
    checks.append(record("equivalence_constants", kappa > 0.0,
                         {"kappa": kappa, "nu": nu}, "kappa > 0", None))
    if fam.x_independent:
        checks += acceptance.dual_calculus(fam, min(m, 1000), args.seed, _stated,
                                           n_dirs=2048)
    return _emit(args, checks)


def cmd_verify_bregman(args):
    fam = norms.parse_family(args.family, args.p, args.n)
    est = bregman.verify_bounds(fam, args.samples, args.seed,
                                radius_decades=args.decades)
    checks = [
        bound("c_lower_positive", est.c_lower, ">", 0),
        # composite: finiteness is not a comparison
        record("c_upper_finite", bool(np.isfinite(est.c_upper)), est.c_upper,
               "finite", None),
    ]
    return _emit(args, checks, payload=asdict(est))


def cmd_verify_harmonic(args):
    fam = norms.parse_family(args.family, args.p, args.n)
    field = _field_from_spec(args.field, fam)
    dom = fields.annulus(args.rmin, args.rmax, args.n)
    n_r, n_ang = _parse_grid(args.grid)
    res = fields.weak_residual(fam, field, dom, n_tests=args.tests,
                               seed=args.seed, n_rho=max(8, n_r // 16),
                               n_ang=n_ang)
    checks = [within("weak_residual", res, 0.0, args.tol)]
    return _emit(args, checks)


def _build_hw(args):
    """The weight the suite checks for the source: the nonzero-potential
    construction for a Green potential, the zero-potential one otherwise, on
    the check bracket of :func:`hardy.build_weight_zero_potential`."""
    fam = norms.parse_family(args.family, args.p, args.n)
    spec = args.field.strip()
    if spec.startswith("green:"):
        if args.sigma != 0.0:
            raise ConstructionError("a Green potential has no capped branch (--sigma)")
        return hardy.build_weight_green(fam, _green_from_spec(spec))
    field = _field_from_spec(spec, fam)
    if isinstance(field, fields.ComposedField):
        raise ConstructionError(
            f"field {args.field!r} has no radial inverse: f0(...) is a ground "
            "state, not a p-harmonic source")
    return hardy.build_weight_zero_potential(fam, field, sigma=args.sigma)


def _flux_cv(hw):
    """Coefficient of variation of the source's flux over the levels 0.3..30;
    None when the source does not take every level on its bracket."""
    levels = np.geomspace(0.3, 30.0, 10)
    gmin, gmax = hw.profile_range(hw.g)
    if not (gmin <= levels[0] and levels[-1] <= gmax):
        return None
    dom = fields.annulus(*hw.source_bracket, hw.n)
    return fields.flux_constancy(hw.fam, hw.source, dom, levels)[1]


def cmd_build_weight(args):
    hw = _build_hw(args)
    x = norms.sample_vectors(args.n, 500, args.seed, decades=2, stream=8)
    W = hw.weight(x)
    checks = [bound("weight_nonnegative", float(W.min()), ">=", 0)]
    if (hw.fam.kind == "euclidean" and hw.branch == "standard"
            and hw.source.kind == "dual_power"):
        checks.append(acceptance.classical_reduction(hw, x, _stated))
    res = acceptance.ground_state_residual(
        hw, fields.annulus(args.rmin, args.rmax, args.n), args.tests, args.seed)
    checks.append(within("ground_state_residual", res, 0.0, acceptance.GROUND_STATE_TOL))
    return _emit(args, checks,
                 payload={"branch": hw.branch, "p": args.p, "n": args.n,
                          "family": hw.fam.label(), "c_p": hw.c_p,
                          "residual": res, "flux_cv": _flux_cv(hw),
                          "flux_constant": hw.flux_constant()})


def cmd_null_seq(args):
    hw = _build_hw(args)
    ks = [2 ** j for j in range(int(math.log2(args.kmin)),
                                int(math.log2(args.kmax)) + 1)]
    ns = hardy.null_sequence(hw, ks)
    rows = list(zip(ns.k_list, ns.energies, ns.masses, ns.ratios))
    if args.format == "csv" or (args.out and args.out.endswith(".csv")):
        _write(report.rows_to_csv(["k", "energy", "mass", "ratio"], rows), args.out)
        return 0
    steps = np.diff(ns.energies)
    # composite: every step of the sequence, the largest reported
    checks = [record("energies_decreasing", bool(np.all(steps < 0.0)),
                     float(steps.max()) if steps.size else None, "decreasing", None)]
    x = np.log(np.log(np.array(ns.k_list, dtype=float)))
    payload = {
        "branch": hw.branch, "p": args.p, "n": args.n, "family": hw.fam.label(),
        "slope_energy": float(np.polyfit(x, np.log(ns.energies), 1)[0]),
        "slope_mass": float(np.polyfit(np.log(ns.k_list), ns.masses, 1)[0]),
        "ratio_tail": ns.ratios[-1],
        "flux_cv": _flux_cv(hw),
        "rows": rows, "truncated": ns.truncated,
    }
    return _emit(args, checks, payload=payload)


def cmd_verify_optimality(args):
    hw = _build_hw(args)
    eps_list = [float(e) for e in args.eps.split(",")]
    ks = tuple(2 ** j for j in range(2, int(math.log2(args.kmax)) + 1, 2))
    probe = hardy.optimality_at_infinity_probe(hw, eps_list, k_list=ks)
    nc = hardy.verify_null_criticality(hw, [1e-1, 1e-2, 1e-3], T=1.0)
    checks = [acceptance.optimality_infima("infima_near_one", probe["infima"], _stated),
              within_rel("null_criticality_slope", nc["slope"], nc["expected_slope"],
                         acceptance.NULL_SLOPE_TOL)]
    return _emit(args, checks, payload=probe["table"])


def cmd_green(args):
    prob = green.load_problem(args.problem)
    gp = green.solve_green(prob)
    if args.profile_out:
        du = gp.dprofile(gp.r)
        rows = list(zip(gp.r.tolist(), gp.u.tolist(), du.tolist()))
        report.write_atomic(report.rows_to_csv(["r", "u", "du"], rows),
                            args.profile_out)
    fb = green.flux_bound_check(gp)
    checks = [within("residual", gp.residual, 0.0, 1e-8),
              within("flux_identity", fb["worst_identity_rel_err"], 0.0, 0.01)]
    payload = {"C0": fb["C0"], "M_phi": fb["M_phi"]}
    # the far field decays like r^beta only where p < n; at p >= n a fit would
    # report a point of its scan grid
    if prob.p < prob.n:
        beta, A, B = green.farfield_exponent(gp)
        checks.append(within("farfield_exponent", beta, prob.decay_exponent, 0.02))
        payload.update(beta=beta, amplitude=A, offset=B)
    return _emit(args, checks, payload=payload)


def cmd_eigen(args):
    V = None
    if args.potential and args.potential != "none":
        if args.potential.startswith("const:"):
            V = eigen.constant_potential(float(args.potential[len("const:"):]))
        else:
            with open(args.potential) as fh:
                V = eigen.cosine_potential(json.load(fh)["cosine_coefficients"], args.L)

    ep = eigen.EigenProblem(p=args.p, L=args.L, V=V, N=args.N, seed=args.seed,
                            geometry=args.geometry, n=args.n)
    pr = eigen.principal_eigenvalue(ep)
    # the reported pair (32 restarts) is lambda1 and the warm start of lambda2
    s2 = eigen.second_eigenvalue_and_gap(ep, principal=pr)
    gap = s2["lambda2"] - pr.lam
    checks = [
        within("principal_residual", pr.residual, 0.0, 1e-7),
        equals("principal_positive", pr.sign_changes, 0),
        bound("gap_positive", gap, ">", 0),
    ]
    return _emit(args, checks,
                 payload={"lambda1": pr.lam, "lambda2": s2["lambda2"],
                          "gap": gap,
                          "residuals": {"principal": pr.residual,
                                        "nodal_mismatch": s2["mismatch"]},
                          "restarts_agreeing": pr.restarts_agreeing})


def cmd_suite(args):
    cfg = acceptance.SuiteConfig(seed=args.seed, quick=args.quick,
                                 threads=args.threads)
    return _emit(args, acceptance.run_battery(cfg, only=args.only))


# ---------------------------------------------------------------------------


def build_parser():
    ap = argparse.ArgumentParser(
        prog="finslerhardy",
        description="Optimal Hardy weights for anisotropic p-Dirichlet "
                    "energies: constructions and verification campaigns.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-norms",
                        help="the suite's norm-calculus checks on one family")
    _add_common(sp)
    sp.add_argument("--samples", type=int, default=10000)
    sp.set_defaults(fn=cmd_verify_norms)

    sp = sub.add_parser("verify-bregman", help="Bregman envelope estimation")
    _add_common(sp)
    sp.add_argument("--samples", type=int, default=100000)
    sp.add_argument("--decades", type=int, default=3)
    sp.set_defaults(fn=cmd_verify_bregman)

    sp = sub.add_parser("verify-harmonic", help="weak p-harmonicity residual")
    _add_common(sp, radii=True)
    sp.add_argument("--grid", default="256,32", help="n_r,n_ang for quadrature grids")
    sp.add_argument("--field", default="dualpow",
                    help="dualpow | logdual:R=<f> | f0(<spec>); a green:<file> "
                         "potential is checked by build-weight")
    sp.add_argument("--tests", type=int, default=100)
    sp.add_argument("--tol", type=float, default=1e-5)
    sp.set_defaults(fn=cmd_verify_harmonic)

    sp = sub.add_parser("build-weight", help="construct a Hardy weight")
    _add_common(sp, radii=True)
    sp.add_argument("--field", default="dualpow")
    sp.add_argument("--sigma", type=float, default=0.0)
    sp.add_argument("--tests", type=int, default=40)
    sp.set_defaults(fn=cmd_build_weight)

    sp = sub.add_parser("null-seq", help="null-sequence energies and masses")
    _add_common(sp)
    sp.add_argument("--field", default="dualpow")
    sp.add_argument("--sigma", type=float, default=0.0)
    sp.add_argument("--kmin", type=int, default=16)
    sp.add_argument("--kmax", type=int, default=4096)
    sp.set_defaults(fn=cmd_null_seq)

    sp = sub.add_parser("verify-optimality", help="tail Hardy-ratio probe")
    _add_common(sp)
    sp.add_argument("--field", default="dualpow")
    sp.add_argument("--sigma", type=float, default=0.0)
    sp.add_argument("--eps", default="1e-1,1e-2")
    sp.add_argument("--kmax", type=int, default=4096)
    sp.set_defaults(fn=cmd_verify_optimality)

    sp = sub.add_parser("green", help="radial Green potential solve")
    _add_common(sp, family=False)
    sp.add_argument("--problem", required=True, help="problem JSON file")
    sp.add_argument("--profile-out", default=None, help="CSV profile output")
    sp.set_defaults(fn=cmd_green)

    sp = sub.add_parser("eigen", help="1D/radial p-Laplacian eigenvalues")
    _add_common(sp, family=False)
    sp.add_argument("--p", type=float, default=2.0)
    sp.add_argument("--L", type=float, default=1.0)
    sp.add_argument("--potential", default="none",
                    help="none | const:<c> | <json file with cosine_coefficients>")
    sp.add_argument("--N", "--grid", dest="N", type=int, default=1024)
    sp.add_argument("--geometry", choices=("interval", "ball"), default="interval")
    sp.add_argument("--n", type=int, default=3, help="ball dimension")
    sp.set_defaults(fn=cmd_eigen)

    sp = sub.add_parser("suite", help="full acceptance battery")
    _add_common(sp, family=False)
    sp.add_argument("--quick", action="store_true",
                    help="reduced grids, most tolerances x5 (twelve records "
                         "keep a fixed bound), same record names")
    sp.add_argument("--only", default=None, help="regex filter on record names")
    sp.add_argument("--threads", type=int, default=0,
                    help="parallel checks (default HARDY_THREADS or 1)")
    sp.set_defaults(fn=cmd_suite)
    return ap


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ConstructionError, ValueError) as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return 2
    except (SolverError, ArithmeticError) as exc:
        sys.stderr.write(f"numeric failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
