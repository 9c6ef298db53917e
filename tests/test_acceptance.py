"""Acceptance gate: every criterion at its stated tolerance, one line each.

The battery (full grids, full tolerances) runs once per session; each
criterion test consumes its named records and prints a PASS/FAIL line.
Two groups are implemented exactly as specified but fail for documented
mathematical reasons (see notes); they are strict xfails here so a silent
"fix" would trip the suite.
"""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from finslerhardy import acceptance, green, eigen
from finslerhardy.acceptance import (CATALOG, EXPECTED_FAILURES, REGISTRY,
                                     SuiteConfig)
from finslerhardy.report import mask_timestamp

import oracles


@pytest.fixture(scope="session")
def battery():
    cfg = SuiteConfig(seed=7, quick=False, threads=1)
    out = {}
    for name, fn in REGISTRY:
        out[name] = fn(cfg)
    return out


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


def test_best_constant_expected_states_the_applied_bound(battery):
    # --quick relaxes every tolerance x5; the expected text must follow
    quick = acceptance.check_best_constant(SuiteConfig(seed=7, quick=True, threads=1))
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


def _run_suite_cli(tmp_path, tag, threads):
    out = tmp_path / f"suite_{tag}.json"
    proc = subprocess.run(
        [sys.executable, "-m", "finslerhardy.cli", "suite", "--quick",
         "--seed", "7", "--threads", str(threads), "--out", str(out)],
        capture_output=True, text=True, timeout=580)
    assert proc.returncode in (0, 1), proc.stderr
    return mask_timestamp(out.read_text())


def test_criterion_15_determinism(tmp_path):
    a = _run_suite_cli(tmp_path, "a", 1)
    b = _run_suite_cli(tmp_path, "b", 1)
    c = _run_suite_cli(tmp_path, "c", 4)
    ok = a == b == c
    print(f"criterion 15 (determinism, masked timestamps): "
          f"{'PASS' if ok else 'FAIL'}  [2 runs x threads {{1, 4}}]")
    assert a == b, "reports differ across identical runs"
    assert a == c, "reports differ across thread counts"


def test_catalog_matches_battery(battery):
    for group, recs in battery.items():
        assert [r.name for r in recs] == CATALOG[group], group


def test_suite_has_enough_records(battery):
    total = sum(len(v) for v in battery.values())
    print(f"suite: {total} named records")
    assert total >= 25
