"""The named verification battery behind ``suite`` and the acceptance tests.

The battery is one table, ``GROUPS``: each check decorated with
``@group(name, records)`` is one entry, and the groups run and report in the
order they are defined, so a new group is one new entry.  Record names are
built from the grid constants and do not depend on the config.  A check returns
its records unnamed, in the order of its group's names, and the group names
them.  ``REGISTRY`` and ``CATALOG`` are views of the table.

Reports are byte-stable across runs and thread counts.  ``--quick`` keeps the
record names, shrinks grids/samples, and multiplies by 5 each tolerance that
goes through ``SuiteConfig.tol``; twelve records keep a fixed bound (README).  A
record's status is one comparison of the numbers it reports (a constructor of
``report``), except for the composite checks built with the bare ``record``.  The
norm-calculus, classical-reduction and ground-state checks are defined here
once and also run by the ``verify-norms`` and ``build-weight`` subcommands,
which keep the bare names those checks give their records.

Two groups of checks are expected to fail and are reported as honest
fails (see the README's known-failures section): the null-sequence *energy* decay slope for p != 2
(the (log k)^(1-p) law belongs to the gradient-mass bound X(v, w_k), whose
slope is asserted and passes), and the lower Bregman envelope stability for
the pure lp(4) family (zero infimum by degenerate ellipticity on the axes).
"""

from __future__ import annotations

import math
import os
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
from numpy.random import Generator, Philox

from . import bregman, eigen, fields, green, hardy, norms
from .report import (CheckRecord, bound, build_report, equals, mask_timestamp, record,
                     render_json, within, within_rel)

A2 = [[4.0, 0.0], [0.0, 9.0]]
A3 = [[4.0, 0.0, 0.0], [0.0, 9.0, 0.0], [0.0, 0.0, 1.0]]

#: records that fail for documented mathematical reasons (see README)
EXPECTED_FAILURES = {
    **{f"hardy.nullseq_energy_slope.p{p}":
       "Q_{-W}[u_k] decays like 1/log k for every p; -(p-1) is the X-bound rate"
       for p in ("1.5", "3")},
    **{f"bregman.stability.lp4.p{p}.c_lower":
       "pure lp(4) lower Bregman envelope has zero infimum (axis degeneracy)"
       for p in ("1.5", "2", "3")},
}


@dataclass
class SuiteConfig:
    seed: int = 7
    quick: bool = False
    threads: int = 0

    def tol(self, t):
        return t * 5.0 if self.quick else t

    def count(self, m, floor=200):
        return max(floor, m // 10) if self.quick else m

    def bumps(self, m=100):
        return 20 if self.quick else m

    def kmax_exp(self):
        return 9 if self.quick else 12

    def cells(self, m):
        return max(512, m // 4) if self.quick else m

    def resolved_threads(self):
        if self.threads > 0:
            return self.threads
        env = os.environ.get("HARDY_THREADS")
        return max(1, int(env)) if env else 1


def _family(label, p, n):
    """The battery's family of kind ``label`` at exponent p in dimension n."""
    A = A2 if n == 2 else A3
    return {"euclidean": lambda: norms.euclidean(p, n),
            "lp4": lambda: norms.lp(4, p, n),
            "quad": lambda: norms.quadratic(A, p),
            "mix": lambda: norms.mixed(4, A, p),
            "weighted": lambda: norms.weighted(1.2, norms.lp(4, p, n))}[label]()


def _pn(p, n):
    return f"p{p:g}_n{n}"


# The parameter grids the checks loop over; each group builds its record names
# from the same constants.  Family grids map a kind label to its (p, n).

#: criteria 1-2: one family of each kind
ALL_KINDS = {"euclidean": (2.5, 3), "lp4": (3.0, 2), "quad": (2.0, 2),
             "mix": (1.5, 2), "weighted": (3.0, 2)}
#: criterion 3: the x-independent kinds
DUAL_KINDS = {"euclidean": (2.0, 3), "lp4": (3.0, 2), "quad": (2.0, 2),
              "mix": (3.0, 2)}
#: criterion 4: the non-euclidean x-independent kinds (n = 2) at each p
BREGMAN_KINDS = ("lp4", "quad", "mix")
BREGMAN_PS = (1.5, 2.0, 3.0, 4.0)
CLASSICAL_PN = ((1.5, 2), (2.0, 3), (3.0, 2), (5.0, 3))
HARMONIC_PN = ((3.0, 2), (1.5, 3))
HARMONIC_KINDS = ("euclidean", "lp4", "quad", "mix")
FLUX_KINDS = {"lp4": (3.0, 2), "mix": (1.5, 2)}
NULLSEQ_PN = ((1.5, 2), (2.0, 3), (3.0, 2))
#: (kind, p, n, closed-form slope or None); labels ``<kind>_p<p>_n<n>``
NULL_CRITICAL = (("euclidean", 2.0, 3, math.pi), ("lp4", 3.0, 2, None))
BEST_PN = ((2.0, 3), (3.0, 2))
GREEN_PS = (1.5, 2.5)

#: criteria 10-11 at full tolerance, shared with ``verify-optimality``: tail
#: Hardy ratios lie in [1 - RATIO_FLOOR, 1 + RATIO_TAIL], and the weight-mass
#: slope is within NULL_SLOPE_TOL (relative) of ((p-1)/p)^p c_flux
RATIO_FLOOR, RATIO_TAIL, NULL_SLOPE_TOL = 1e-3, 0.05, 0.05
#: criteria 8 and 13 at full tolerance, shared with ``build-weight``: the
#: ground-state residual bound
GROUND_STATE_TOL = 1e-5


def _sample_x(fam, m, seed):
    """Base points for an x-dependent family; None when H ignores x."""
    if fam.x_independent:
        return None
    rng = Generator(Philox(key=np.uint64(seed)))
    d = rng.standard_normal((m, fam.n))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    return d * np.exp(rng.uniform(math.log(0.5), math.log(2.0), m))[:, None]


def _standard_weight(fam):
    """The standard-branch weight of the family's dual-power field, on its
    check bracket."""
    return hardy.build_weight_zero_potential(fam, fields.DualPowerField(fam))


#: the battery's groups, in the order they are defined, run and reported
GROUPS = []


@dataclass
class Group:
    """A group: its name, its record names in report order, and its check.
    Calling it runs the check and names the records; a check that returns
    another number of records raises, and ``run_battery`` reports that as a
    crash, one failing ``<group>.error`` record."""

    name: str
    records: list
    check: object           # SuiteConfig -> list of unnamed records

    def __call__(self, cfg):
        recs = self.check(cfg)
        if len(recs) != len(self.records):
            raise ValueError(f"check returned {len(recs)} records for the "
                             f"{len(self.records)} names of its group")
        return [replace(r, name=name) for r, name in zip(recs, self.records)]


def group(name, records):
    """Register the decorated check as the battery's next group."""
    def register(check):
        GROUPS.append(Group(name, records, check))
        return GROUPS[-1]
    return register


def _norm_group(check, kinds, *args):
    return [r for label, (p, n) in kinds.items() for r in check(_family(label, p, n), *args)]


# ---------------------------------------------------------------------------
# criteria 1-3: norm calculus
#
# Each check takes the family, the sample size, the seed and a tolerance rule
# ``tol`` (the suite relaxes tolerances under --quick, the CLI does not) and
# returns records under the bare check name; ``verify-norms`` runs them too.
# ---------------------------------------------------------------------------


def operator_identity(fam, m, seed, tol):
    """a(x, xi).xi = H(x, xi)^p on m sampled directions."""
    xi = norms.sample_vectors(fam.n, m, seed + 11, stream=3)
    a, hp = norms.operator_a(fam, _sample_x(fam, m, seed + 12), xi)
    err = float((np.abs(np.einsum("ij,ij->i", a, xi) - hp) / (1.0 + hp)).max())
    return [within("operator_identity", err, 0.0, tol(1e-12))]


def homogeneity_monotonicity(fam, m, seed, tol):
    """(p-1)-homogeneity of a(x, .) and strict monotonicity on sampled pairs."""
    rng = Generator(Philox(key=np.uint64(seed + 13)))
    xi = norms.sample_vectors(fam.n, m, seed + 14, stream=4)
    eta = norms.sample_vectors(fam.n, m, seed + 15, stream=5)
    lam = rng.uniform(-3.0, 3.0, m)
    lam[np.abs(lam) < 0.05] = 1.0
    x = _sample_x(fam, m, seed + 16)
    a1, _ = norms.operator_a(fam, x, xi)
    a2, _ = norms.operator_a(fam, x, xi * lam[:, None])
    hom = np.linalg.norm(
        a2 - lam[:, None] * np.abs(lam[:, None]) ** (fam.p - 2.0) * a1, axis=1)
    hom = float((hom / (1.0 + np.linalg.norm(a1, axis=1))).max())
    ae, _ = norms.operator_a(fam, x, eta)
    inner = np.einsum("ij,ij->i", a1 - ae, xi - eta)
    scale = (np.linalg.norm(a1, axis=1) + np.linalg.norm(ae, axis=1)) \
        * (np.linalg.norm(xi - eta, axis=1) + 1e-300)
    viol = int(np.sum(inner <= -1e-10 * scale))
    return [within("homogeneity", hom, 0.0, tol(1e-10)),
            within("monotonicity", viol, 0, 0)]


def dual_calculus(fam, m, seed, tol, n_dirs):
    """H(grad H0) = 1 and biduality H00 = H for an x-independent family.

    Closed-form duals are held to 1e-8 and 1e-6, the Newton dual (mixed
    kind) to 1e-4 and 1e-4.
    """
    tol_grad, tol_bid = (1e-8, 1e-6) if fam.has_closed_dual else (1e-4, 1e-4)
    y = norms.sample_vectors(fam.n, m, seed + 21, stream=6)
    err = float(np.abs(norms.norm_eval(fam, None, norms.grad_dual(fam, y)) - 1.0).max())
    xi = norms.sample_vectors(fam.n, m, seed + 22, stream=7)
    bid, _ = norms.bidual_norm(fam, xi, seed=seed + 23, n_dirs=n_dirs)
    berr = float(np.abs(bid / norms.norm_eval(fam, None, xi) - 1.0).max())
    return [within("dual_identity", err, 0.0, tol(tol_grad)),
            within("biduality", berr, 0.0, tol(tol_bid))]


@group("norms.operator_identity", [f"norms.operator_identity.{k}" for k in ALL_KINDS])
def check_operator_identity(cfg):
    return _norm_group(operator_identity, ALL_KINDS, cfg.count(10000), cfg.seed,
                       cfg.tol)


@group("norms.homogeneity_monotonicity",
       [f"norms.{c}.{k}" for k in ALL_KINDS for c in ("homogeneity", "monotonicity")])
def check_homogeneity_monotonicity(cfg):
    return _norm_group(homogeneity_monotonicity, ALL_KINDS, cfg.count(10000),
                       cfg.seed, cfg.tol)


@group("norms.dual_calculus",
       [f"norms.{c}.{k}" for k in DUAL_KINDS for c in ("dual_identity", "biduality")])
def check_dual_calculus(cfg):
    return _norm_group(dual_calculus, DUAL_KINDS, cfg.count(1000, floor=100),
                       cfg.seed, cfg.tol, 512 if cfg.quick else 2048)


# ---------------------------------------------------------------------------
# criterion 4: Bregman bounds
# ---------------------------------------------------------------------------


@group("bregman.bounds", ["bregman.exact_p2_euclidean"] + [
    f"bregman.{c}.{k}.p{p:g}{suffix}" for k in BREGMAN_KINDS for p in BREGMAN_PS
    for c, suffix in (("envelopes", ""), ("stability", ".c_upper"),
                      ("stability", ".c_lower"))])
def check_bregman(cfg):
    out = []
    m = cfg.count(100000, floor=20000)
    est = bregman.verify_bounds(norms.euclidean(2.0, 3), m, seed=cfg.seed + 31)
    # np.maximum, unlike max, keeps a NaN from either envelope
    out.append(within(None,
                      float(np.maximum(abs(est.c_lower - 1.0), abs(est.c_upper - 1.0))),
                      0.0, cfg.tol(1e-10)))
    for label in BREGMAN_KINDS:
        for p in BREGMAN_PS:
            fam = _family(label, p, 2)
            e1 = bregman.verify_bounds(fam, m, seed=cfg.seed + 32)
            e2 = bregman.verify_bounds(fam, m, seed=cfg.seed + 1234567)
            finite = (e1.c_lower > 0.0 and np.isfinite(e1.c_upper)
                      and e2.c_lower > 0.0 and np.isfinite(e2.c_upper))
            # composite: both envelopes of both seeds positive and finite
            out.append(record(None, finite,
                              {"c_lower": e1.c_lower, "c_upper": e1.c_upper},
                              "positive finite", None,
                              witness={"lower": e1.witness_lower,
                                       "upper": e1.witness_upper}))
            for c in ("c_upper", "c_lower"):
                dev = abs(getattr(e1, c) / getattr(e2, c) - 1.0)
                out.append(within(None, dev, 0.0, cfg.tol(0.10)))
    return out


# ---------------------------------------------------------------------------
# criterion 5: classical reduction
# ---------------------------------------------------------------------------


def classical_reduction(hw, x, tol):
    """W = |(p-n)/p|^p |x|^-p at the points x (euclidean dual-power source)."""
    Wref = abs((hw.p - hw.n) / hw.p) ** hw.p * np.linalg.norm(x, axis=1) ** (-hw.p)
    err = float(np.abs(hw.weight(x) / Wref - 1.0).max())
    return within("classical_reduction", err, 0.0, tol(1e-10))


@group("hardy.classical_reduction",
       [f"hardy.classical_reduction.{_pn(p, n)}" for p, n in CLASSICAL_PN])
def check_classical_reduction(cfg):
    out = []
    for (p, n) in CLASSICAL_PN:
        hw = _standard_weight(norms.euclidean(p, n))
        x = norms.sample_vectors(n, cfg.count(500, floor=100), cfg.seed + 41,
                                 decades=2, stream=8)
        out.append(classical_reduction(hw, x, cfg.tol))
    return out


# ---------------------------------------------------------------------------
# criterion 6: p-harmonicity
# ---------------------------------------------------------------------------


@group("fields.harmonicity", [
    f"fields.harmonicity.{k}.{_pn(p, n)}" for p, n in HARMONIC_PN
    for k in HARMONIC_KINDS] + ["fields.negative_control", "fields.log_dual_gate"])
def check_harmonicity(cfg):
    out = []
    tol = cfg.tol(1e-5)
    for (p, n) in HARMONIC_PN:
        dom = fields.annulus(0.1, 10.0, n)
        for label in HARMONIC_KINDS:
            fam = _family(label, p, n)
            G = fields.DualPowerField(fam)
            n_ang = 12 if cfg.quick else (16 if label == "mix" and n == 3 else 24)
            r = fields.weak_residual(fam, G, dom, n_tests=cfg.bumps(),
                                     seed=cfg.seed + 51, n_ang=n_ang)
            out.append(within(None, r, 0.0, tol))
    fam = norms.euclidean(2.0, 3)
    bad = fields.FuncField(lambda x: np.linalg.norm(x, axis=-1),
                           grad=lambda x: x / np.linalg.norm(x, axis=-1, keepdims=True))
    rneg = fields.weak_residual(fam, bad, fields.annulus(0.1, 10.0, 3),
                                n_tests=10, seed=cfg.seed + 52)
    out.append(bound(None, rneg, ">", 0.01, 1e-2))
    fam_log = norms.lp(4, 2.0, 2)
    Glog = fields.LogDualField(fam_log, R=50.0)
    rlog = fields.weak_residual(fam_log, Glog, fields.annulus(0.1, 10.0, 2),
                                n_tests=cfg.bumps(50), seed=cfg.seed + 53)
    out.append(within(None, rlog, 0.0, tol))
    return out


# ---------------------------------------------------------------------------
# criterion 7: coarea flux constancy
# ---------------------------------------------------------------------------


@group("fields.flux",
       ["fields.flux_newtonian"] + [f"fields.flux_constancy.{k}" for k in FLUX_KINDS])
def check_flux(cfg):
    out = []
    fam = norms.euclidean(2.0, 3)
    G = fields.DualPowerField(fam)
    dom = fields.annulus(1e-4, 1e4, 3)
    fx = fields.level_set_flux(fam, G, dom, 1.0)
    tol = cfg.tol(0.01)
    out.append(within_rel(None, fx, 4 * math.pi, tol))
    for label, (p, n) in FLUX_KINDS.items():
        fam2 = _family(label, p, n)
        G2 = fields.DualPowerField(fam2)
        dom2 = fields.annulus(1e-5, 1e5, n)
        levels = np.geomspace(0.3, 30.0, 10)
        _, cv = fields.flux_constancy(fam2, G2, dom2, levels)
        out.append(within(None, cv, 0.0, tol))
    return out


# ---------------------------------------------------------------------------
# criterion 8: ground-state residual
# ---------------------------------------------------------------------------


def ground_state_residual(hw, dom, n_tests, seed, **grid):
    """Weak residual of the ground-state equation Q'_{V-W}[v] = 0 on dom, with
    v, v' and V - W as profiles of the source's radial coordinate."""
    V = SimpleNamespace(radial=(hw.source.radial[0], hw.ground_state_terms))
    return fields.weak_residual(hw.fam, hw.ground_state, dom, V=V, n_tests=n_tests,
                                seed=seed, **grid)


@group("hardy.ground_state", [
    f"hardy.ground_state_residual.{c}" for c in ("euclidean", "lp4", "halving")])
def check_ground_state(cfg):
    out = []
    tol = cfg.tol(GROUND_STATE_TOL)
    seed = cfg.seed + 61
    hw = _standard_weight(norms.euclidean(2.0, 3))
    r_euc = ground_state_residual(hw, fields.annulus(0.1, 10.0, 3), cfg.bumps(40), seed)
    out.append(within(None, r_euc, 0.0, tol))
    hw = _standard_weight(norms.lp(4, 3.0, 2))
    r_coarse, r_fine = (
        ground_state_residual(hw, fields.annulus(0.1, 10.0, 2), cfg.bumps(30), seed,
                              layout="ball", n_rho=n_rho, n_ang=2 * n_rho)
        for n_rho in (12, 24))
    out.append(within(None, r_coarse, 0.0, tol))
    # composite: the fine residual against half the coarse one
    out.append(record(None, r_fine <= 0.5 * r_coarse,
                      {"coarse": r_coarse, "fine": r_fine}, "fine <= coarse/2", 0.5))
    return out


# ---------------------------------------------------------------------------
# criteria 9-11: null sequences
# ---------------------------------------------------------------------------


@group("hardy.nullseq", [
    f"hardy.nullseq_{c}.p{p:g}" for p, _ in NULLSEQ_PN
    for c in ("energy_slope", "monotone", "bound_slope", "energy_law", "mass_slope")])
def check_nullseq_decay(cfg):
    out = []
    kexp = cfg.kmax_exp()
    ks = [2 ** j for j in range(4, kexp + 1)]
    for (p, n) in NULLSEQ_PN:
        hw = _standard_weight(norms.euclidean(p, n))
        ns = hardy.null_sequence(hw, ks)
        cf = hw.flux_constant()
        x = np.log(np.log(np.array(ns.k_list, dtype=float)))
        slope_q = float(np.polyfit(x, np.log(ns.energies), 1)[0])
        tol = cfg.tol(0.15)
        out.append(within(None, slope_q, -(p - 1.0), tol))
        steps = np.diff(ns.energies)
        # composite: every step of the sequence, the largest reported
        out.append(record(None, bool(np.all(steps < 0.0)), float(steps.max()),
                          "strictly decreasing", None))
        slope_x = float(np.polyfit(x, np.log(ns.x_grad), 1)[0])
        out.append(within(None, slope_x, -(p - 1.0), tol))
        laws = [hardy.transition_energy_law(p, cf, k) for k in ns.k_list]
        lerr = max(abs(e / l - 1.0) for e, l in zip(ns.energies, laws))
        out.append(within(None, lerr, 0.0, cfg.tol(1e-3)))
        mslope = float(np.polyfit(np.log(ns.k_list), ns.masses, 1)[0])
        mlaw = hardy.weight_mass_slope_law(p, cf)
        out.append(within_rel(None, mslope, mlaw, cfg.tol(0.05)))
    return out


@group("hardy.null_criticality", [
    f"hardy.null_criticality.{kind}_{_pn(p, n)}{suffix}"
    for kind, p, n, expect in NULL_CRITICAL
    for suffix in (("", ".value") if expect else ("",))] + [
    "hardy.null_criticality.capped_lower_bound"])
def check_null_criticality(cfg):
    out = []
    tol = cfg.tol(NULL_SLOPE_TOL)
    for kind, p, n, expect in NULL_CRITICAL:
        hw = _standard_weight(_family(kind, p, n))
        nc = hardy.verify_null_criticality(hw, [1e-1, 1e-2, 1e-3, 1e-4], T=1.0)
        out.append(within_rel(None, nc["slope"], nc["expected_slope"], tol))
        if expect is not None:
            out.append(within_rel(None, nc["slope"], expect, tol))
    hw = hardy.build_weight_zero_potential(
        norms.euclidean(3.0, 2),
        fields.synthetic_capped_profile(2.0, 10.0),
        sigma=2.0, bracket=(1e-2, 10.0 * (1.0 - 1e-10)))
    lb = hardy.capped_null_criticality_lower_bound(hw, [1e-3, 1e-4])
    # composite: lhs >= rhs at each level
    out.append(record(None, all(r["ok"] for r in lb),
                      [r["lhs"] / r["rhs"] for r in lb], ">= 1", None))
    return out


def _one_minus(t):
    """``1 - t`` with t in shortest scientific form: ``1 - 1e-3``."""
    return f"1 - {np.format_float_scientific(t, trim='-', exp_digits=1)}"


def optimality_infima(name, infima, tol):
    """Tail Hardy-ratio infima in [1 - RATIO_FLOOR, 1 + RATIO_TAIL]."""
    low, hi = tol(RATIO_FLOOR), 1.0 + tol(RATIO_TAIL)
    # composite: one bound pair per tail level, the floor stated as 1 - tol
    return record(name, all(1.0 - low <= v <= hi for v in infima.values()), infima,
                  f"in [{_one_minus(low)}, {hi:g}]", None)


@group("hardy.best_constant", [
    f"hardy.ratio_{c}.p{p:g}" for p, _ in BEST_PN for c in ("floor", "tail", "monotone")] + [
    "hardy.optimality_infima", "hardy.optimality_halflambda",
    "hardy.optimality_mass_monotonicity"] + [
    f"hardy.simplified_energy_bound.p{p:g}" for p, _ in BEST_PN] + [
    "hardy.x_closed_form.p2"])
def check_best_constant(cfg):
    out = []
    kexp = cfg.kmax_exp()
    ks = [2 ** j for j in range(4, kexp + 1)]
    tol_low = cfg.tol(RATIO_FLOOR)
    seqs = []
    for (p, n) in BEST_PN:
        hw = _standard_weight(norms.euclidean(p, n))
        ns = hardy.null_sequence(hw, ks)
        seqs.append((hw, ns))
        # composite: the floor is stated as 1 - tol, not as a number
        out.append(record(None, all(r >= 1.0 - tol_low for r in ns.ratios),
                          min(ns.ratios), f">= {_one_minus(tol_low)}", tol_low))
        out.append(bound(None, ns.ratios[-1], "<=",
                         1.0 + cfg.tol(RATIO_TAIL), cfg.tol(RATIO_TAIL)))
        drops = np.diff(ns.ratios)
        # composite: every step of the ratio sequence
        out.append(record(None, bool(np.all(drops <= 0.05)), float(drops.max()),
                          "non-increasing within 0.05", 0.05))
    hw = _standard_weight(norms.euclidean(2.0, 3))
    probe = hardy.optimality_at_infinity_probe(
        hw, [1e-1, 1e-2], k_list=tuple(2 ** j for j in range(2, kexp + 1, 2)))
    out.append(optimality_infima(None, probe["infima"], cfg.tol))
    # np.min, unlike min, keeps a NaN energy
    out.append(bound(None,
                     float(np.min([row["halfweight_energy"] for row in probe["table"]])),
                     ">", 0))
    # monotonicity probe: within each tail level, the members capturing more
    # weight-mass have the smaller ratios (location alone cannot matter: the
    # standard weight is scale invariant and ratios depend on log-width only)
    sane = True
    detail = {}
    for e in sorted({row["eps"] for row in probe["table"]}):
        grp = sorted((row for row in probe["table"] if row["eps"] == e),
                     key=lambda r: r["mass"])
        ratios = [r["ratio"] for r in grp]
        mono = all(a >= b for a, b in zip(ratios, ratios[1:]))
        detail[e] = {"ratios_by_mass": ratios}
        sane = sane and mono
    # composite: ratio order against mass order at each tail level
    out.append(record(None, sane, detail,
                      "ratio decreases with captured weight-mass", None))
    bound_rows = []
    for i, ((p, n), (hw, ns)) in enumerate(zip(BEST_PN, seqs)):
        est = bregman.verify_bounds(norms.euclidean(p, n), cfg.count(20000),
                                    seed=cfg.seed + 71 + i)
        rows = hardy.simplified_energy_bound_check(hw, ns, est.c_upper)
        out.append(bound(None, float(np.max([r["energy"] / r["bound"] for r in rows])),
                         "<=", 1))
        bound_rows.append(rows)
    xlaw_err = max(r["x_law_rel_err"] for r in bound_rows[0])
    out.append(within(None, xlaw_err, 0.0, cfg.tol(0.02)))
    return out


# ---------------------------------------------------------------------------
# criteria 12-13: Green potentials
# ---------------------------------------------------------------------------


@group("green.potentials", [
    "green.residual.p2", "green.farfield_exponent.p2n3", "green.farfield_amplitude.p2n3",
    "green.flux_identity.p2n3", "green.flux_bounds.p2n3"] + [
    f"green.{c}.p{p:g}n3" for p in GREEN_PS for c in ("farfield_exponent", "flux_identity")])
def check_green(cfg):
    out = []
    cells = cfg.cells(2048)
    tol_b = cfg.tol(0.02)
    phi = green.BumpDensity(0.5, 1.0, 1.0, 3)
    gp = green.solve_green(green.RadialProblem(p=2.0, n=3, phi=phi, R_out=100.0,
                                               n_cells=cells))
    out.append(within(None, gp.residual, 0.0, 1e-8))
    beta, A, B = green.farfield_exponent(gp)
    out.append(within(None, beta, -1.0, tol_b))
    out.append(within_rel(None, A, 1.0 / (4.0 * math.pi), cfg.tol(0.01)))
    fb = green.flux_bound_check(gp)
    out.append(within(None, fb["worst_identity_rel_err"], 0.0, cfg.tol(0.01)))
    # composite: the flux upper bound and the floor
    out.append(record(None, fb["upper_ok"] and fb["floor_ok"],
                      {"C0": fb["C0"], "M_phi": fb["M_phi"]}, "bounds hold", None))
    for p in GREEN_PS:
        gpp = green.solve_green(green.RadialProblem(
            p=p, n=3, phi=phi, R_out=100.0 if p > 2 else 50.0, n_cells=cells))
        bet, _, _ = green.farfield_exponent(gpp)
        expect = (p - 3.0) / (p - 1.0)
        out.append(within(None, bet, expect, tol_b))
        fbp = green.flux_bound_check(gpp)
        out.append(within(None, fbp["worst_identity_rel_err"], 0.0, cfg.tol(0.01)))
    return out


@group("hardy.green_weight", [
    f"hardy.green_{c}" for c in ("hypotheses", "ground_state_residual", "mass_slope")])
def check_green_weight(cfg):
    out = []
    cells = cfg.cells(4096)
    phi = green.BumpDensity(0.5, 1.0, 1.0, 3)
    V = green.bump_potential(0.5, 1.5, 0.05)
    prob = green.RadialProblem(p=2.0, n=3, phi=phi, V=V, R_out=200.0,
                               n_cells=cells)
    gp = green.solve_green(prob)
    fam = norms.euclidean(2.0, 3)
    hw = hardy.build_weight_green(fam, gp)
    hyp = hw.hypotheses
    # composite: a finite |V| integral and a nonpositive or negative-mean V
    out.append(record(None, np.isfinite(hyp["abs_potential_integral"])
                      and (hyp["V_nonpositive"] or hyp["signed_potential_integral"] < 0),
                      hyp, "finite and signed", None))
    dom = fields.annulus(prob.phi.r_a / 5.0, prob.R_out / 8.0, 3)
    res = ground_state_residual(hw, dom, cfg.bumps(40), cfg.seed + 81)
    out.append(within(None, res, 0.0, cfg.tol(GROUND_STATE_TOL)))
    gmin, _ = hw.profile_range(hw.g)
    T = float(gp.profile(np.asarray([prob.phi.r_a]))[0]) * 0.5
    taus = np.geomspace(gmin * 4.0, T / 4.0, 5)
    nc = hardy.verify_null_criticality(hw, taus, T=T)
    out.append(within_rel(None, nc["slope"], nc["expected_slope"],
                          cfg.tol(NULL_SLOPE_TOL)))
    return out


# ---------------------------------------------------------------------------
# criterion 14: eigenvalues
# ---------------------------------------------------------------------------


@group("eigen.appendix", [
    "eigen.p2_lambda1", "eigen.p2_positive", "eigen.p2_agreement",
    "eigen.p2_rayleigh_consistency", "eigen.p2_lambda2", "eigen.p2_gap",
    "eigen.p3_lambda1", "eigen.p3_lambda2", "eigen.constant_shift",
    "eigen.gap_random_battery", "eigen.convergence_shift", "eigen.convergence_rate",
    "eigen.convergence_normalization"])
def check_eigen(cfg):
    out = []
    N = cfg.cells(4096)
    restarts = 3 if cfg.quick else 32
    xt = 1e-5 if cfg.quick else 1e-9

    def problem(p, cells, V=None):
        return eigen.EigenProblem(p=p, L=1.0, V=V, N=cells, seed=cfg.seed)

    pr2 = eigen.principal_eigenvalue(problem(2.0, N), restarts=restarts)
    out.append(within_rel(None, pr2.lam, math.pi ** 2, cfg.tol(0.005)))
    out.append(equals(None, pr2.sign_changes, 0))
    out.append(equals(None, pr2.restarts_agreeing, restarts))
    out.append(within(None, abs(pr2.rayleigh / pr2.lam - 1.0), 0.0, 1e-9))
    s2 = eigen.second_eigenvalue_and_gap(problem(2.0, max(512, N // 2)), restarts=4,
                                         xtol=xt)
    out.append(within_rel(None, s2["lambda2"], 4 * math.pi ** 2, 0.005))
    out.append(within_rel(None, s2["gap"], 3 * math.pi ** 2, 0.005))
    pr3 = eigen.principal_eigenvalue(problem(3.0, N), restarts=restarts)
    lam3 = 2.0 * eigen.p_sine_constant(3.0) ** 3
    out.append(within_rel(None, pr3.lam, lam3, cfg.tol(1e-3)))
    s3 = eigen.second_eigenvalue_and_gap(problem(3.0, max(512, N // 2)), restarts=4,
                                         xtol=xt)
    lam23 = 2.0 * (2.0 * eigen.p_sine_constant(3.0)) ** 3
    out.append(within_rel(None, s3["lambda2"], lam23, cfg.tol(1e-2)))
    # constant-shift identity
    pr0 = eigen.principal_eigenvalue(problem(2.0, 1024), restarts=4)
    prc = eigen.principal_eigenvalue(problem(2.0, 1024, eigen.constant_potential(2.5)),
                                     restarts=4)
    out.append(within(None, abs(prc.lam - pr0.lam - 2.5), 0.0, 1e-8))
    # isolation signature: random bounded potentials
    n_pots = 4 if cfg.quick else 20
    N_gap = (384, 768) if cfg.quick else (512, 1024)
    xt_gap = 3e-4 if cfg.quick else 1e-6
    stab_tol = cfg.tol(0.02)
    rng = Generator(Philox(key=np.uint64(cfg.seed + 91)))
    bad = 0
    worst_stab = 0.0
    for _ in range(n_pots):
        V = eigen.cosine_potential(rng.uniform(-3.0, 3.0, 4), 1.0)
        g1, g2 = (eigen.second_eigenvalue_and_gap(problem(2.0, cells, V), restarts=2,
                                                  xtol=xt_gap) for cells in N_gap)
        stab = abs(g1["gap"] / g2["gap"] - 1.0)
        worst_stab = max(worst_stab, stab)
        if not (g1["gap"] > 0.0 and stab <= stab_tol):
            bad += 1
    # composite: gap > 0 and mesh stability for each potential
    out.append(record(None, bad == 0, {"violations": bad, "worst_stability": worst_stab},
                      "gap > 0, stable under mesh doubling", stab_tol))
    probe = eigen.eigenpair_convergence_probe(
        problem(2.0, 1024, lambda x: 1.5 * np.sin(2 * math.pi * np.asarray(x))),
        k_list=(2, 4, 8) if cfg.quick else (2, 4, 8, 16, 32), restarts=4)
    # np.max, unlike max, keeps a NaN
    out.append(within(None,
                      float(np.max([r["shift_err"] for r in probe["shift"]])), 0.0, 1e-8))
    dists = [r["dist"] for r in probe["relative"]]
    ks = [r["k"] for r in probe["relative"]]
    fit = float(np.polyfit(np.log(ks), np.log(dists), 1)[0])
    out.append(within(None, fit, -1.0, 0.35))
    # the norm farthest from 1 (np.argmax picks a NaN first)
    nrm = np.array([r["norm"] for r in probe["shift"] + probe["relative"]])
    out.append(within(None, float(nrm[np.argmax(np.abs(nrm - 1.0))]), 1.0, 1e-10))
    return out


# ---------------------------------------------------------------------------
# criterion 15: determinism (in-process probe; the full CLI-level check
# lives in the test suite, which also varies the thread count)
# ---------------------------------------------------------------------------


@group("cli.determinism", ["cli.determinism_probe"])
def check_determinism(cfg):
    sub = SuiteConfig(seed=cfg.seed, quick=True, threads=1)
    texts = []
    for _ in range(2):
        recs = check_operator_identity(sub) + check_classical_reduction(sub)
        rep = build_report("determinism-probe", {"seed": sub.seed}, recs)
        texts.append(mask_timestamp(render_json(rep)))
    return [equals(None, "byte-identical" if texts[0] == texts[1] else "mismatch",
                   "byte-identical")]


#: (group, run) pairs in report order; run_battery reads it when it is called
REGISTRY = [(g.name, g) for g in GROUPS]
#: record names per group, in report order; lets a --only filter skip whole
#: groups and pins the report schema
CATALOG = {g.name: g.records for g in GROUPS}


def run_battery(cfg, only=None):
    """Run the registry (optionally filtered by a regex on record names).

    Groups none of whose cataloged record names match the filter are
    skipped entirely; a filter that matches no cataloged record is a
    ValueError.  A group that raises yields a failing ``<group>.error``
    record, which the filter never removes.  Independent groups may execute
    in parallel; assembly order is the fixed registry order, so reports are
    deterministic for a given config.
    """
    pattern = re.compile(only) if only else None
    groups = REGISTRY
    if pattern:
        groups = [(name, fn) for name, fn in REGISTRY
                  if any(pattern.search(rn) for rn in CATALOG[name])]
        if not groups:
            raise ValueError(f"--only {only!r} matches no cataloged record")
    workers = cfg.resolved_threads()

    def run_one(item):
        name, fn = item
        try:
            return fn(cfg)
        except Exception as exc:  # noqa: BLE001 - captured as a fail record
            return [CheckRecord(name=f"{name}.error", status="fail",
                                measured=f"{type(exc).__name__}: {exc}",
                                expected="no exception")]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_one, groups))
    else:
        results = [run_one(g) for g in groups]
    records = [r for recs in results for r in recs]
    if pattern:
        errors = {f"{name}.error" for name, _ in groups}
        records = [r for r in records if r.name in errors or pattern.search(r.name)]
    return records
