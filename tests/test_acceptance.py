"""Acceptance gate: every criterion at its stated tolerance, one line each.

The battery (full grids, full tolerances) runs once per session; each
criterion test consumes its named records and prints a PASS/FAIL line.
Two groups are implemented exactly as specified but fail for documented
mathematical reasons (see notes); they are strict xfails here so a silent
"fix" would trip the suite.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from finslerhardy import acceptance, green, eigen, hardy
from finslerhardy.acceptance import (CATALOG, EXPECTED_FAILURES, REGISTRY,
                                     SuiteConfig)
from finslerhardy.report import build_report, mask_timestamp, render_json

import oracles


@pytest.fixture(scope="session")
def battery():
    cfg = SuiteConfig(seed=7, quick=False, threads=1)
    out = {}
    for name, fn in REGISTRY:
        out[name] = fn(cfg)
    return out


@pytest.fixture(scope="session")
def quick_battery():
    return acceptance.run_battery(SuiteConfig(seed=7, quick=True, threads=1))


def _crit(battery, label, names, allow_expected_failures=False):
    records = [r for group in battery.values() for r in group if r.name in names]
    assert len(records) == len(names), \
        f"{label}: expected {len(names)} records, found {len(records)}"
    bad = [r for r in records if r.status == "fail"]
    unexpected = [r for r in bad if r.name not in EXPECTED_FAILURES]
    status = "PASS" if not bad else (
        "FAIL (documented, expected)" if not unexpected else "FAIL")
    print(f"criterion {label}: {status}  "
          f"[{len(records) - len(bad)}/{len(records)} records pass]")
    for r in bad:
        reason = EXPECTED_FAILURES.get(r.name, "")
        print(f"    FAIL {r.name}: measured={r.measured} expected={r.expected} "
              f"tol={r.tolerance} {('-- ' + reason) if reason else ''}")
    if allow_expected_failures:
        assert not unexpected, f"{label}: unexpected failures {unexpected}"
        return bad
    assert not bad, f"{label}: failing records {[r.name for r in bad]}"
    return []


def test_criterion_01_operator_identity(battery):
    _crit(battery, "01 operator identity", CATALOG["norms.operator_identity"])


def test_criterion_02_homogeneity_monotonicity(battery):
    _crit(battery, "02 homogeneity and monotonicity",
          CATALOG["norms.homogeneity_monotonicity"])


def test_criterion_03_dual_calculus(battery):
    _crit(battery, "03 dual-norm calculus", CATALOG["norms.dual_calculus"])


def test_criterion_04_bregman_exact_and_envelopes(battery):
    names = [n for n in CATALOG["bregman.bounds"]
             if n not in EXPECTED_FAILURES]
    _crit(battery, "04 Bregman bounds", names)


@pytest.mark.xfail(strict=True,
                   reason="pure lp(4) lower envelope has zero infimum; the "
                          "min over samples is an unstable order statistic "
                          "(see README, known honest failures)")
def test_criterion_04_lp4_lower_stability(battery):
    names = [n for n in CATALOG["bregman.bounds"] if n in EXPECTED_FAILURES]
    _crit(battery, "04b lp4 lower-envelope seed stability", names)


def test_criterion_05_classical_reduction(battery):
    _crit(battery, "05 classical-reduction exactness",
          CATALOG["hardy.classical_reduction"])


def test_criterion_06_harmonicity(battery):
    _crit(battery, "06 anisotropic p-harmonicity", CATALOG["fields.harmonicity"])


def test_criterion_07_flux_constancy(battery):
    _crit(battery, "07 coarea flux constancy", CATALOG["fields.flux"])


def test_criterion_08_ground_state(battery):
    _crit(battery, "08 ground-state equation", CATALOG["hardy.ground_state"])


def test_criterion_09_decay_supplements(battery):
    names = [n for n in CATALOG["hardy.nullseq"] if n not in EXPECTED_FAILURES]
    _crit(battery, "09 null-sequence decay (monotone, X slope, exact law, mass)",
          names)


@pytest.mark.xfail(strict=True,
                   reason="Q_{-W}[u_k] ~ 1/log k for every p (exact Bregman "
                          "identity); the (log k)^(1-p) rate belongs to the "
                          "bound X(v,w_k) (see README, known honest failures)")
def test_criterion_09_energy_slope_as_stated(battery):
    names = ["hardy.nullseq_energy_slope.p1.5", "hardy.nullseq_energy_slope.p2",
             "hardy.nullseq_energy_slope.p3"]
    _crit(battery, "09a energy log-log slope = -(p-1)", names)


def test_criterion_10_null_criticality(battery):
    _crit(battery, "10 null-criticality divergence",
          CATALOG["hardy.null_criticality"])


def test_criterion_11_best_constant(battery):
    _crit(battery, "11 best constant and optimality at infinity",
          CATALOG["hardy.best_constant"])


def test_best_constant_expected_states_the_applied_bound(battery, quick_battery):
    # --quick relaxes the ratio floor and tail x5; the expected text must follow
    quick = [r for r in quick_battery if r.name in CATALOG["hardy.best_constant"]]
    for recs, floor, tail in ((battery["hardy.best_constant"], "1 - 1e-3", "1.05"),
                              (quick, "1 - 5e-3", "1.25")):
        expected = {r.name: r.expected for r in recs}
        for p in ("2", "3"):
            assert expected[f"hardy.ratio_floor.p{p}"] == f">= {floor}"
            assert expected[f"hardy.ratio_tail.p{p}"] == f"<= {tail}"
        assert expected["hardy.optimality_infima"] == f"in [{floor}, {tail}]"


def test_criterion_12_green(battery):
    _crit(battery, "12 Green potential", CATALOG["green.potentials"])


def test_criterion_12_shooting_oracle_cross_check():
    prob = green.RadialProblem(p=1.5, n=3,
                               phi=green.BumpDensity(0.5, 1.0, 1.0, 3),
                               R_out=50.0, n_cells=2048)
    gp = green.solve_green(prob)
    beta, _, _ = green.farfield_exponent(gp)
    u0, sol = oracles.shoot_green(prob)
    rr = np.geomspace(prob.r_min * 2.0, 2.5, 50)
    dev = np.abs(gp.profile(rr) / sol.sol(rr)[0] - 1.0).max()
    ok = abs(beta - (-3.0)) <= 0.02 and dev < 5e-3
    print(f"criterion 12b (shooting oracle): {'PASS' if ok else 'FAIL'}  "
          f"[exponent {beta:.4f} vs -3, profile dev {dev:.2e}]")
    assert ok


def test_criterion_13_green_weight(battery):
    _crit(battery, "13 nonzero-potential weight", CATALOG["hardy.green_weight"])


def _traced_peak(check):
    tracemalloc.start()
    try:
        check(acceptance.SuiteConfig(quick=True))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_green_weight_group_forms_no_point_array():
    # the ground-state residual takes V - W on the rays' rho, in blocks of whole
    # bumps: a (nodes x n) point array of its 207,360 quick-grid nodes would lift
    # this peak to about 33 MB, and its per-ray terms in one block to about 21 MB
    assert _traced_peak(acceptance.check_green_weight) < 8e6


def test_harmonicity_group_holds_one_block_of_nodes():
    # the negative control takes its per-node terms on the ball layout, in blocks of
    # whole bumps; all 92,160 nodes at once would lift this peak to about 18 MB
    assert _traced_peak(acceptance.check_harmonicity) < 8e6


def test_criterion_14_eigen(battery):
    _crit(battery, "14 eigenvalues", CATALOG["eigen.appendix"])


def test_criterion_14_p2_records_match_the_tridiagonal_oracle(battery):
    # the p = 2 records against the exact eigenvalues of their own discrete
    # problems, not only against pi^2 to 0.5%: lambda1 at the record's N,
    # lambda2 and the gap at max(512, N // 2).  Measured at seed 7: 2.2e-11,
    # 2.6e-11 and 1.2e-11 (lambda2's error is not brentq's: its zero lies
    # within 5e-15 of 1/2, and xtol = 1e-13 gives the same bits)
    measured = {r.name: r.measured for r in battery["eigen.appendix"]}
    N = SuiteConfig(seed=7, quick=False).cells(4096)

    def exact(cells, k):
        disc = eigen._disc_for(eigen.EigenProblem(p=2.0, L=1.0, N=cells))
        return oracles.p2_tridiagonal_eigenvalues(disc, k=k)

    (lam1,) = exact(N, 1)
    mu1, mu2 = exact(max(512, N // 2), 2)
    assert abs(measured["eigen.p2_lambda1"] / lam1 - 1.0) <= 3e-11
    assert abs(measured["eigen.p2_lambda2"] / mu2 - 1.0) <= 3e-11
    assert abs(measured["eigen.p2_gap"] / (mu2 - mu1) - 1.0) <= 2e-11


def _gap_battery(n_pots, cells, xtol, lam2_tol, lam1_tol):
    """check_eigen's random-potential gap battery at seed 7 (same generator),
    each second solve against the exact eigenvalues of its own discrete
    problem; returns the worst mesh-doubling stability of the solves and of
    the oracle's gaps."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(7 + 91)))
    gaps, exact = [], []
    for _ in range(n_pots):
        V = eigen.cosine_potential(rng.uniform(-3.0, 3.0, 4), 1.0)
        pair, mus = [], []
        for N in cells:
            ep = eigen.EigenProblem(p=2.0, L=1.0, V=V, N=N, seed=7)
            s2 = eigen.second_eigenvalue_and_gap(ep, restarts=2, xtol=xtol)
            mu1, mu2 = oracles.p2_tridiagonal_eigenvalues(eigen._disc_for(ep), k=2)
            assert abs(s2["lambda2"] / mu2 - 1.0) <= lam2_tol
            assert abs(s2["lambda1"] / mu1 - 1.0) <= lam1_tol
            pair.append(s2["gap"])
            mus.append(mu2 - mu1)
        gaps.append(abs(pair[0] / pair[1] - 1.0))
        exact.append(abs(mus[0] / mus[1] - 1.0))
    return max(gaps), max(exact)


def test_gap_battery_matches_the_tridiagonal_oracle(quick_battery):
    # the quick gap battery's 4 potentials.  Measured at seed 7: lambda2 at
    # most 5.9e-7 relative off (the zero is only located to xtol = 3e-4) and
    # the inner lambda1 1.5e-11; each bound is under twice that
    worst, _ = _gap_battery(4, (384, 768), 3e-4, 1.1e-6, 3e-11)
    # the same potentials and solves as the record
    (rec,) = [r for r in quick_battery if r.name == "eigen.gap_random_battery"]
    assert worst == rec.measured["worst_stability"]


def test_full_gap_battery_matches_the_tridiagonal_oracle(battery):
    # the full-grid gap battery's 20 potentials.  Measured at seed 7: lambda2
    # at most 9.1e-8 relative off (xtol = 1e-6), the inner lambda1 4.0e-11,
    # and the record's worst stability 5.2e-10 from the oracle's; each bound
    # is under twice that
    worst, exact = _gap_battery(20, (512, 1024), 1e-6, 1.8e-7, 8e-11)
    (rec,) = [r for r in battery["eigen.appendix"] if r.name == "eigen.gap_random_battery"]
    assert worst == rec.measured["worst_stability"]
    assert abs(worst - exact) <= 1e-9


def test_criterion_14_shooting_oracle_cross_check():
    lam_shoot = oracles.shoot_eigen(3.0, 1.0, count_zero=0)
    pr = eigen.principal_eigenvalue(eigen.EigenProblem(p=3.0, L=1.0, N=4096),
                                    restarts=6)
    lam_formula = 2.0 * eigen.p_sine_constant(3.0) ** 3
    ok = (abs(pr.lam / lam_shoot - 1.0) <= 1e-3
          and abs(pr.lam / lam_formula - 1.0) <= 1e-3)
    print(f"criterion 14b (shooting oracle): {'PASS' if ok else 'FAIL'}  "
          f"[lambda1 {pr.lam:.6f} vs shoot {lam_shoot:.6f} vs formula "
          f"{lam_formula:.6f}]")
    assert ok


def _run_suite_cli(tmp_path, tag, threads, hash_seed):
    out = tmp_path / f"suite_{tag}.json"
    proc = subprocess.run(
        [sys.executable, "-m", "finslerhardy.cli", "suite", "--quick",
         "--seed", "7", "--threads", str(threads), "--out", str(out)],
        capture_output=True, text=True, timeout=580,
        env=dict(os.environ, PYTHONHASHSEED=hash_seed))
    assert proc.returncode in (0, 1), proc.stderr
    return mask_timestamp(out.read_text())


def test_criterion_15_determinism(tmp_path):
    # b differs from a only in its hash seed (string and set order)
    a = _run_suite_cli(tmp_path, "a", 1, "0")
    b = _run_suite_cli(tmp_path, "b", 1, "1")
    c = _run_suite_cli(tmp_path, "c", 4, "0")
    ok = a == b == c
    print(f"criterion 15 (determinism, masked timestamps): "
          f"{'PASS' if ok else 'FAIL'}  [2 hash seeds x threads {{1, 4}}]")
    assert a == b, "reports differ across hash seeds"
    assert a == c, "reports differ across thread counts"


def test_catalog_matches_battery(battery):
    for group, recs in battery.items():
        assert [r.name for r in recs] == CATALOG[group], group


def test_suite_has_enough_records(battery):
    total = sum(len(v) for v in battery.values())
    print(f"suite: {total} named records")
    assert total >= 25


# ---------------------------------------------------------------------------
# every record's status follows from the bound it states
# ---------------------------------------------------------------------------

#: the records whose status is not one comparison of their own fields
COMPOSITE = {
    *(f"bregman.envelopes.{k}.p{p:g}" for k in acceptance.BREGMAN_KINDS
      for p in acceptance.BREGMAN_PS),
    "hardy.ground_state_residual.halving", "hardy.nullseq_monotone.p1.5",
    "hardy.nullseq_monotone.p2", "hardy.nullseq_monotone.p3",
    "hardy.null_criticality.capped_lower_bound", "hardy.ratio_floor.p2",
    "hardy.ratio_floor.p3", "hardy.ratio_monotone.p2", "hardy.ratio_monotone.p3",
    "hardy.optimality_infima", "hardy.optimality_mass_monotonicity",
    "green.flux_bounds.p2n3", "hardy.green_hypotheses", "eigen.gap_random_battery",
}

_OPS = {"<=": lambda m, b: m <= b, ">=": lambda m, b: m >= b, ">": lambda m, b: m > b}

#: each kind's pass condition on the rendered fields (measured, expected, tolerance)
KINDS = {
    "within": lambda m, e, t: abs(m - e) <= t,
    "within_rel": lambda m, e, t: abs(m / e - 1.0) <= t,
    "bound": lambda m, e, t: _OPS[e.split()[0]](m, float(e.split()[1])),
    "equals": lambda m, e, t: m == e,
}


def _rendered(records):
    """(kind, fields as the JSON report renders them) for each record."""
    checks = json.loads(render_json(build_report("suite", {}, records)))["checks"]
    return [(r.kind, c) for r, c in zip(records, checks)]


def _all(battery):
    return [r for group in battery.values() for r in group]


@pytest.mark.parametrize("grids", ["full", "quick"])
def test_status_follows_from_the_stated_bound(battery, quick_battery, grids):
    rendered = _rendered(_all(battery) if grids == "full" else quick_battery)
    assert len(rendered) == 137
    assert {c["name"] for kind, c in rendered if kind is None} == COMPOSITE
    for kind, c in rendered:
        if kind is not None:
            ok = KINDS[kind](c["measured"], c["expected"], c["tolerance"])
            assert c["status"] == ("pass" if ok else "fail"), c


#: floor(log10(error / tolerance)) at seed 7 on full grids, for every within and
#: within_rel record with tolerance > 0 (error |m - e| or |m / e - 1|).  Errors
#: at or below 1e-12 max(1, |e|) are "exact": their last bits move with what
#: earlier groups allocated.  A change that moves a decade updates it here.
ERROR_DECADES = {
    "exact": [
        "norms.operator_identity.euclidean", "norms.operator_identity.lp4",
        "norms.operator_identity.quad", "norms.operator_identity.mix",
        "norms.operator_identity.weighted", "norms.homogeneity.euclidean",
        "norms.homogeneity.lp4", "norms.homogeneity.quad", "norms.homogeneity.mix",
        "norms.homogeneity.weighted", "norms.dual_identity.euclidean",
        "norms.biduality.euclidean", "norms.dual_identity.lp4",
        "norms.biduality.lp4", "norms.dual_identity.quad", "norms.biduality.quad",
        "norms.dual_identity.mix", "norms.biduality.mix",
        "bregman.exact_p2_euclidean", "hardy.classical_reduction.p1.5_n2",
        "hardy.classical_reduction.p2_n3", "hardy.classical_reduction.p3_n2",
        "hardy.classical_reduction.p5_n3", "fields.harmonicity.euclidean.p3_n2",
        "fields.harmonicity.lp4.p3_n2", "fields.harmonicity.quad.p3_n2",
        "fields.harmonicity.mix.p3_n2", "fields.harmonicity.euclidean.p1.5_n3",
        "fields.harmonicity.lp4.p1.5_n3", "fields.harmonicity.quad.p1.5_n3",
        "fields.harmonicity.mix.p1.5_n3", "fields.log_dual_gate",
        "fields.flux_newtonian", "fields.flux_constancy.lp4",
        "fields.flux_constancy.mix", "hardy.nullseq_bound_slope.p1.5",
        "hardy.nullseq_energy_slope.p2", "hardy.nullseq_bound_slope.p2",
        "hardy.nullseq_energy_law.p2", "hardy.nullseq_mass_slope.p2",
        "hardy.nullseq_bound_slope.p3", "hardy.nullseq_energy_law.p3",
        "hardy.nullseq_mass_slope.p3", "hardy.null_criticality.euclidean_p2_n3",
        "hardy.null_criticality.euclidean_p2_n3.value",
        "hardy.null_criticality.lp4_p3_n2", "hardy.x_closed_form.p2",
        # 1.6e-10 (-9) while the quadratic part's first-order terms were
        # differenced; each part's distance now cancels them exactly (6.7e-16)
        "bregman.stability.quad.p2.c_upper",
        "eigen.p2_rayleigh_consistency", "eigen.constant_shift",
        "eigen.convergence_shift", "eigen.convergence_normalization",
        "green.farfield_exponent.p2n3", "green.farfield_exponent.p1.5n3"],
    0: [
        "bregman.stability.lp4.p1.5.c_lower", "bregman.stability.lp4.p2.c_lower",
        "bregman.stability.lp4.p3.c_lower", "hardy.nullseq_energy_slope.p1.5",
        "hardy.nullseq_energy_slope.p3"],
    -1: [
        "hardy.ground_state_residual.euclidean", "hardy.ground_state_residual.lp4",
        "hardy.green_ground_state_residual"],
    -2: [
        "bregman.stability.lp4.p1.5.c_upper", "bregman.stability.lp4.p3.c_upper",
        "bregman.stability.lp4.p4.c_lower", "bregman.stability.quad.p3.c_lower",
        "bregman.stability.quad.p4.c_lower", "bregman.stability.mix.p3.c_lower",
        "bregman.stability.mix.p4.c_lower"],
    -3: [
        "bregman.stability.lp4.p2.c_upper", "bregman.stability.quad.p1.5.c_lower", "bregman.stability.mix.p1.5.c_lower",
        "bregman.stability.mix.p2.c_lower", "green.farfield_amplitude.p2n3",
        "green.flux_identity.p2n3", "green.flux_identity.p1.5n3",
        "green.flux_identity.p2.5n3", "eigen.convergence_rate"],
    -4: [
        "bregman.stability.mix.p2.c_upper", "green.residual.p2", "eigen.p2_lambda2",
        "eigen.p2_gap", "eigen.p3_lambda2"],
    -5: [
        # 2.3e-5 and 8.0e-5 (-4) while the lp part took the direct difference
        # H(xi+eta)^p - H(xi)^p - p a(xi).eta, whose cancellation the two seeds
        # did not share; from each part's split they read 3.7e-6 and 2.1e-6
        "bregman.stability.lp4.p4.c_upper", "bregman.stability.mix.p3.c_upper",
        "bregman.stability.quad.p1.5.c_upper", "bregman.stability.quad.p3.c_upper",
        "bregman.stability.quad.p4.c_upper", "bregman.stability.mix.p1.5.c_upper",
        "bregman.stability.mix.p4.c_upper", "hardy.green_mass_slope",
        "eigen.p3_lambda1",
        # 7.9e-8 against 1e-3: each member is integrated over its own support,
        # where its panels used to run on to the bracket end (1.4e-7, at -4)
        "hardy.nullseq_energy_law.p1.5"],
    -6: [
        "eigen.p2_lambda1"],
    -8: [
        "hardy.nullseq_mass_slope.p1.5", "green.farfield_exponent.p2.5n3"],
    -10: [
        "bregman.stability.quad.p2.c_lower"],
}


def test_error_decades_are_pinned(battery):
    decades = {}
    for kind, c in _rendered(_all(battery)):
        m, e, t = c["measured"], c["expected"], c["tolerance"]
        if kind not in ("within", "within_rel") or not t > 0:
            continue
        err = abs(m - e) if kind == "within" else abs(m / e - 1.0)
        exact = abs(m - e) <= 1e-12 * max(1.0, abs(e))
        decades[c["name"]] = "exact" if exact else math.floor(math.log10(err / t))
    assert decades == {name: d for d, names in ERROR_DECADES.items() for name in names}


@pytest.mark.parametrize("grids", ["full", "quick"])
def test_harmonic_residuals_cannot_drift_silently(battery, quick_battery, grids):
    # the weak residuals of the p-harmonic candidates sit near round-off (the
    # largest, mix p1.5_n3, is 3.3e-13 at full grids), far below their 1e-5
    # tolerance: a 1000x drift would still pass the records, not this guard
    records = _all(battery) if grids == "full" else quick_battery
    measured = {r.name: r.measured for r in records
                if r.name.startswith("fields.harmonicity.") or r.name == "fields.log_dual_gate"}
    assert len(measured) == 9
    assert {name: m for name, m in measured.items() if not m <= 1e-11} == {}


def test_probe_records_report_the_number_that_failed(monkeypatch):
    cfg = SuiteConfig(seed=7, quick=True, threads=1)
    probe, convergence = hardy.optimality_at_infinity_probe, eigen.eigenpair_convergence_probe

    def negative_energy(*args, **kw):
        out = probe(*args, **kw)
        out["table"][1]["halfweight_energy"] = -0.25
        return out

    def unnormalized(*args, **kw):
        out = convergence(*args, **kw)
        out["relative"][1]["norm"] = 1.0 + 1e-6
        return out

    monkeypatch.setattr(hardy, "optimality_at_infinity_probe", negative_energy)
    monkeypatch.setattr(eigen, "eigenpair_convergence_probe", unnormalized)
    recs = {r.name: r for r in acceptance.check_best_constant(cfg)
            + acceptance.check_eigen(cfg)}
    for name, measured in (("hardy.optimality_halflambda", -0.25),
                           ("eigen.convergence_normalization", 1.0 + 1e-6)):
        assert (recs[name].status, recs[name].measured) == ("fail", measured), name
