import math

import numpy as np
import pytest

from finslerhardy import cli, eigen, lapack
from finslerhardy.newton import NewtonStats

import oracles


def test_p2_classical_values():
    ep = eigen.EigenProblem(p=2.0, L=1.0, N=4096)
    pr = eigen.principal_eigenvalue(ep, restarts=6)
    assert pr.lam == pytest.approx(math.pi ** 2, rel=1e-3)
    assert pr.residual <= 1e-7
    assert pr.sign_changes == 0
    assert pr.restarts_agreeing == 6
    s2 = eigen.second_eigenvalue_and_gap(eigen.EigenProblem(p=2.0, L=1.0, N=2048))
    assert s2["lambda2"] == pytest.approx(4.0 * math.pi ** 2, rel=5e-3)
    assert s2["gap"] == pytest.approx(3.0 * math.pi ** 2, rel=5e-3)
    assert s2["sign_changes"] == 1


def test_p3_against_formula_and_shooting():
    ep = eigen.EigenProblem(p=3.0, L=1.0, N=4096)
    pr = eigen.principal_eigenvalue(ep, restarts=6)
    lam_formula = 2.0 * eigen.p_sine_constant(3.0) ** 3
    assert pr.lam == pytest.approx(lam_formula, rel=1e-3)
    lam_shoot = oracles.shoot_eigen(3.0, 1.0, count_zero=0)
    assert pr.lam == pytest.approx(lam_shoot, rel=1e-3)
    s3 = eigen.second_eigenvalue_and_gap(eigen.EigenProblem(p=3.0, L=1.0, N=2048))
    lam2_shoot = oracles.shoot_eigen(3.0, 1.0, count_zero=1)
    assert s3["lambda2"] == pytest.approx(lam2_shoot, rel=1e-2)


def test_shooting_oracle_self_check():
    # the oracle reproduces pi^2 and 4 pi^2 for p = 2
    assert oracles.shoot_eigen(2.0, 1.0, count_zero=0) == pytest.approx(
        math.pi ** 2, rel=1e-8)
    assert oracles.shoot_eigen(2.0, 1.0, count_zero=1) == pytest.approx(
        4.0 * math.pi ** 2, rel=1e-8)


def test_potential_shooting_cross_check():
    def V(x):
        return 3.0 * np.sin(2.0 * math.pi * np.asarray(x, dtype=float))

    pr = eigen.principal_eigenvalue(eigen.EigenProblem(p=2.0, L=1.0, V=V, N=2048),
                                    restarts=6)
    lam_shoot = oracles.shoot_eigen(2.0, 1.0, V=V, count_zero=0)
    assert pr.lam == pytest.approx(lam_shoot, rel=1e-4)


def test_constant_shift_identity():
    pr0 = eigen.principal_eigenvalue(eigen.EigenProblem(p=2.5, L=1.0, N=1024),
                                     restarts=4)
    prc = eigen.principal_eigenvalue(
        eigen.EigenProblem(p=2.5, L=1.0,
                           V=lambda x: np.full_like(np.asarray(x, dtype=float), 1.7),
                           N=1024, seed=0), restarts=4)
    assert abs(prc.lam - pr0.lam - 1.7) <= 1e-8


def test_scaling_invariance_of_quotient():
    ep = eigen.EigenProblem(p=3.0, L=1.0, N=512)
    pr = eigen.principal_eigenvalue(ep, restarts=4)
    disc = eigen._disc_for(ep)
    assert disc.rayleigh(2.0 * pr.v) == pytest.approx(pr.lam, rel=1e-12)


def test_normalization_and_rayleigh_consistency():
    ep = eigen.EigenProblem(p=2.0, L=1.0, N=1024)
    pr = eigen.principal_eigenvalue(ep, restarts=4)
    h = ep.L / ep.N
    assert (h * np.sum(np.abs(pr.v) ** ep.p)) ** (1.0 / ep.p) == pytest.approx(
        1.0, abs=1e-10)
    assert abs(pr.rayleigh / pr.lam - 1.0) <= 1e-9


def test_gap_positive_random_potentials():
    rng = np.random.default_rng(3)
    for _ in range(3):
        c = rng.uniform(-3.0, 3.0, 4)

        def V(x, c=c):
            x = np.asarray(x, dtype=float)
            return sum(ci * np.cos((i + 1) * math.pi * x) for i, ci in enumerate(c))

        g = eigen.second_eigenvalue_and_gap(
            eigen.EigenProblem(p=2.0, L=1.0, V=V, N=512), restarts=2, xtol=1e-7)
        assert g["gap"] > 0.0


def test_ball_p2_classical_values():
    # radial Dirichlet Laplacian on the unit ball: lambda_k = (k pi)^2 in 3D
    prb = eigen.principal_eigenvalue(
        eigen.EigenProblem(p=2.0, L=1.0, N=2048, geometry="ball", n=3),
        restarts=4)
    assert prb.lam == pytest.approx(math.pi ** 2, rel=1e-6)
    assert prb.sign_changes == 0
    s2 = eigen.second_eigenvalue_and_gap(
        eigen.EigenProblem(p=2.0, L=1.0, N=1024, geometry="ball", n=3),
        restarts=3, xtol=1e-7)
    assert s2["lambda2"] == pytest.approx(4.0 * math.pi ** 2, rel=1e-4)
    # eigenfunction is sin(pi r)/r up to normalization
    x = np.linspace(0.0, 1.0, 2049)[:-1]
    prof = np.where(x > 0, np.sin(math.pi * np.maximum(x, 1e-12))
                    / np.maximum(x, 1e-12), math.pi)
    disc = eigen._disc_for(eigen.EigenProblem(p=2.0, L=1.0, N=2048,
                                              geometry="ball", n=3))
    prof = prof / disc.norm_p(prof)
    assert np.max(np.abs(prb.v - prof)) < 1e-5


def test_ball_p2_2d_bessel():
    from scipy.special import jn_zeros

    prb = eigen.principal_eigenvalue(
        eigen.EigenProblem(p=2.0, L=1.0, N=2048, geometry="ball", n=2),
        restarts=4)
    assert prb.lam == pytest.approx(float(jn_zeros(0, 1)[0]) ** 2, rel=1e-6)


def test_ball_p3_against_shooting():
    from scipy.optimize import brentq

    prb = eigen.principal_eigenvalue(
        eigen.EigenProblem(p=3.0, L=1.0, N=2048, geometry="ball", n=3),
        restarts=4)
    lam_sh = brentq(lambda lam: oracles.shoot_eigen_ball(3.0, 3, lam),
                    prb.lam * 0.5, prb.lam * 1.5, xtol=1e-10)
    assert prb.lam == pytest.approx(lam_sh, rel=1e-5)


def test_convergence_probe():
    probe = eigen.eigenpair_convergence_probe(
        eigen.EigenProblem(p=2.0, L=1.0,
                           V=lambda x: 1.5 * np.sin(2 * math.pi * np.asarray(x)),
                           N=512), k_list=(2, 4, 8), restarts=4)
    assert all(r["shift_err"] <= 1e-8 for r in probe["shift"])
    dists = [r["dist"] for r in probe["relative"]]
    assert dists[0] > dists[1] > dists[2]
    assert all(abs(r["norm"] - 1.0) <= 1e-10
               for r in probe["shift"] + probe["relative"])


def _p3_problem():
    return eigen.EigenProblem(p=3.0, L=1.0, N=128, seed=0)


def _p3_values():
    pr = eigen.principal_eigenvalue(_p3_problem(), restarts=2)
    s2 = eigen.second_eigenvalue_and_gap(_p3_problem(), restarts=2)
    return [pr.lam.hex(), s2["lambda2"].hex(), s2["gap"].hex(), s2["zero"].hex()]


def test_p3_values_are_pinned_bit_for_bit():
    # the Newton stop rule, the reuse of brentq's nodal-domain solves, their
    # warm starts and the early hand-over exist to save work; none may move a
    # bit of these values.  The stop at the rounding floor left lambda1 1 ulp
    # below its earlier value (...591p+4): steps below that floor only move
    # the last bits
    assert _p3_values() == ["0x1.c493c4dc55590p+4", "0x1.c471a88441801p+7",
                            "0x1.8bdf2fe8b6d4fp+7", "0x1.ffffffffffd89p-2"]


def _cosine(x):
    return 5.0 * np.cos(2.0 * math.pi * np.asarray(x, dtype=float))


def _other_values():
    # the branches the p = 3 pins do not reach: the natural centre condition
    # of the ball, a potential, and p < 2 in the second solve
    ball = eigen.principal_eigenvalue(
        eigen.EigenProblem(p=2.5, L=1.0, N=128, seed=0, geometry="ball", n=3),
        restarts=2)
    cos = eigen.principal_eigenvalue(
        eigen.EigenProblem(p=3.0, L=1.0, N=128, seed=0, V=_cosine), restarts=2)
    s2 = eigen.second_eigenvalue_and_gap(
        eigen.EigenProblem(p=1.5, L=1.0, N=128, seed=0), restarts=2)
    return [ball.lam.hex(), cos.lam.hex(), s2["lambda2"].hex(), s2["zero"].hex()]


def test_other_branches_are_pinned_bit_for_bit():
    # the ball lambda1 is 17 ulp above its value after a 40-step descent
    # (...303ep+3): Newton takes its restarts after 10 steps, from other
    # starts, and stops 17 ulp away at the same rounding floor
    assert _other_values() == ["0x1.c3812cd53304fp+3", "0x1.8e7e0200ddee5p+4",
                               "0x1.e1524aa9c0084p+3", "0x1.ffffffffffe78p-2"]


def _flag_restarts(monkeypatch):
    """A list that is non-empty while ``eigen._restarts`` runs: what the cold
    restarts do, as against a nodal domain's warm start."""
    restarts, inside = eigen._restarts, []

    def flagged(*args, **kw):
        inside.append(1)
        try:
            return restarts(*args, **kw)
        finally:
            inside.pop()

    monkeypatch.setattr(eigen, "_restarts", flagged)
    return inside


def _reject_first_hand_overs(monkeypatch):
    """Make the gate reject the first hand-over of every restart, so that each
    restart resumes its descent to ``DESCENT_STEPS``; returns the rejections."""
    inside, accepted, rejected = _flag_restarts(monkeypatch), eigen._accepted, []

    def gate(run):
        if inside:
            rejected.append(1)
            return False
        return accepted(run)

    monkeypatch.setattr(eigen, "_accepted", gate)
    return rejected


def test_rejected_hand_overs_give_the_whole_descent_bit_for_bit(monkeypatch):
    # a rejected first hand-over resumes the descent from its own state, so
    # every value is the one of a single 40-step descent, bit for bit: the
    # pins above, with the p = 3 lambda1 1 ulp and the ball's 17 ulp away,
    # where Newton from the other start stops at the same rounding floor
    rejected = _reject_first_hand_overs(monkeypatch)
    assert _p3_values() == ["0x1.c493c4dc55591p+4", "0x1.c471a88441801p+7",
                            "0x1.8bdf2fe8b6d4fp+7", "0x1.ffffffffffd89p-2"]
    assert _other_values() == ["0x1.c3812cd53303ep+3", "0x1.8e7e0200ddee5p+4",
                               "0x1.e1524aa9c0084p+3", "0x1.ffffffffffe78p-2"]
    assert rejected


def test_principal_solve_stops_at_the_residual_floor(monkeypatch):
    # counts the residual evaluations of the Newton polish (its start and
    # line-search trials; not the descent's gradients): 10 here, 19 before
    # the polish stopped at its rounding floor, and 78 when line searches of
    # 30 halvings ran at that floor
    calls = []
    polishing = []
    residual = eigen._Disc.weak_residual
    newton_polish = eigen._newton_polish

    def counted(self, v, lam):
        if polishing:
            calls.append(1)
        return residual(self, v, lam)

    def flagged(*args, **kwargs):
        polishing.append(1)
        try:
            return newton_polish(*args, **kwargs)
        finally:
            polishing.pop()

    monkeypatch.setattr(eigen._Disc, "weak_residual", counted)
    monkeypatch.setattr(eigen, "_newton_polish", flagged)
    pr = eigen.principal_eigenvalue(_p3_problem(), restarts=2)
    assert pr.residual <= 1e-7
    assert 0 < len(calls) <= 30
    assert pr.newton.exit in ("tol", "rounding", "floor")


def test_polish_from_a_converged_pair_stops_on_rounding(monkeypatch):
    # a pair already within its rounding floor takes no step and no trial:
    # the one residual evaluation of its start is the whole polish
    ep = _p3_problem()
    pr = eigen.principal_eigenvalue(ep, restarts=2)
    calls, residual = [], eigen._Disc.weak_residual

    def counted(self, v, lam):
        calls.append(1)
        return residual(self, v, lam)

    monkeypatch.setattr(eigen._Disc, "weak_residual", counted)
    v, lam, rnorm, stats = eigen._newton_polish(eigen._disc_for(ep), pr.v, pr.lam)
    assert stats == NewtonStats(0, 0, "rounding") and len(calls) == 1
    assert lam == pr.lam and rnorm == pr.residual and np.array_equal(v, pr.v)


@pytest.mark.parametrize("N", [128, 1024])
def test_polish_ends_within_its_rounding_floor(N, monkeypatch):
    # phi bounds the rounding error of the relative residual and is tight:
    # every polish ends between 0.01 phi and phi (0.16 phi to 0.95 phi over
    # seeds 0 to 11), so a floor 100 times too large fails
    finals, polish = [], eigen._newton_polish

    def recorded(disc, v, lam):
        out = polish(disc, v, lam)
        finals.append((out[2], disc.rounding_floor(disc.weak_residual(out[0], out[1]))))
        return out

    monkeypatch.setattr(eigen, "_newton_polish", recorded)
    for p, geometry in [(1.5, "interval"), (3.0, "interval"), (4.0, "interval"),
                        (1.5, "ball"), (2.5, "ball")]:
        eigen.principal_eigenvalue(
            eigen.EigenProblem(p=p, N=N, seed=0, geometry=geometry, n=3), restarts=2)
    assert len(finals) == 10
    assert all(0.01 * phi <= rel <= phi for rel, phi in finals), finals


DESCENT_SEEDS = (0, 1, 7, 1183103791)


@pytest.mark.parametrize("p, geometry", [(1.5, "interval"), (3.0, "interval"),
                                         (4.0, "interval"), (1.5, "ball"),
                                         (2.5, "ball")])
def test_descent_budget_hands_every_restart_to_the_principal_mode(p, geometry):
    # the descent hands over after HANDOVER_STEPS steps, or DESCENT_STEPS when
    # the gate rejects; every random restart must still reach the principal
    # mode, not stop on a higher one
    for seed in DESCENT_SEEDS:
        pr = eigen.principal_eigenvalue(
            eigen.EigenProblem(p=p, L=1.0, N=128, seed=seed, geometry=geometry,
                               n=3), restarts=4)
        assert pr.restarts_agreeing == 4, seed
        assert pr.sign_changes == 0, seed
        assert pr.residual <= 1e-7, seed


def test_every_restart_passes_its_first_hand_over(monkeypatch):
    # the eigen_sweep benchmark's cases: after HANDOVER_STEPS descent steps
    # Newton already lands on the principal pair, so no descent resumes
    steps = []
    pg_minimize = eigen._pg_minimize

    def recorded(disc, v, lam, tau, n):
        steps.append(n)
        return pg_minimize(disc, v, lam, tau, n)

    monkeypatch.setattr(eigen, "_pg_minimize", recorded)
    for seed in DESCENT_SEEDS:
        for p in (1.5, 3.0, 4.0):
            ep = eigen.EigenProblem(p=p, N=128, seed=seed)
            eigen.principal_eigenvalue(ep, restarts=2)
            assert eigen.second_eigenvalue_and_gap(ep, restarts=2)["cold_fallbacks"] == 0
        for p in (1.5, 2.5):
            eigen.principal_eigenvalue(
                eigen.EigenProblem(p=p, N=128, seed=seed, geometry="ball", n=3), restarts=2)
        eigen.principal_eigenvalue(eigen.EigenProblem(p=3.0, N=128, seed=seed, V=_cosine),
                                   restarts=2)
    assert steps and set(steps) == {eigen.HANDOVER_STEPS}


def test_second_solves_each_nodal_domain_once(monkeypatch):
    seen = []
    principal_on = eigen._principal_on

    def recorded(a, b, ep, **kw):
        seen.append((a, b))
        return principal_on(a, b, ep, **kw)

    monkeypatch.setattr(eigen, "_principal_on", recorded)
    eigen.second_eigenvalue_and_gap(_p3_problem(), restarts=2)
    assert len(seen) == len(set(seen))


def test_second_rejects_unconverged_nodal_domain(monkeypatch):
    # only the nodal domains stall: the principal solve on (0, 1) would
    # raise its own error first
    newton_polish = eigen._newton_polish

    def stalled(disc, v, lam):
        v, lam, res, stats = newton_polish(disc, v, lam)
        nodal = disc.x[0] > 0.0 or disc.x[-1] < 1.0
        return v, lam, 1e-3 if nodal else res, stats

    monkeypatch.setattr(eigen, "_newton_polish", stalled)
    with pytest.raises(eigen.SolverError, match="nodal-domain") as info:
        eigen.second_eigenvalue_and_gap(_p3_problem(), restarts=2)
    assert info.value.residual == 1e-3


def test_second_without_bracket_is_numeric_failure(monkeypatch):
    # lambda_1(0, a) - lambda_1(a, L) = -a has one sign on [0.05 L, 0.95 L]
    def same_sign(a, b, ep, **kw):
        disc = eigen._Disc(ep.p, np.linspace(a, b, 65), None)
        return np.ones(disc.n_unknown), 1.0 + a, 0.0, disc, 0

    monkeypatch.setattr(eigen, "_principal_on", same_sign)
    with pytest.raises(eigen.SolverError, match="no sign change"):
        eigen.second_eigenvalue_and_gap(_p3_problem(), restarts=2)
    assert cli.main(["eigen", "--p", "3", "--grid", "128"]) == 3


def test_second_counts_the_sign_changes_it_returns(monkeypatch):
    seen = []

    def counted(v):
        seen.append(v)
        return 100 + len(seen)

    monkeypatch.setattr(eigen, "_count_sign_changes", counted)
    s2 = eigen.second_eigenvalue_and_gap(_p3_problem(), restarts=2)
    assert seen[-1] is s2["v"]
    assert s2["sign_changes"] == 100 + len(seen)


def _cold_nodal_domains(monkeypatch):
    """Solve every nodal domain from cold restarts, as before warm starts."""
    principal_on = eigen._principal_on

    def cold(a, b, ep, restarts=4, start=None):
        return principal_on(a, b, ep, restarts=restarts)

    monkeypatch.setattr(eigen, "_principal_on", cold)


WARM_CASES = [(1.5, "interval", None), (3.0, "interval", None),
              (4.0, "interval", None), (1.5, "ball", None), (2.5, "ball", None),
              (3.0, "interval", _cosine)]


@pytest.mark.parametrize("p, geometry, V", WARM_CASES)
def test_warm_starts_agree_with_cold_starts(p, geometry, V, monkeypatch):
    ep = eigen.EigenProblem(p=p, L=1.0, N=128, seed=0, geometry=geometry, n=3, V=V)
    warm = eigen.second_eigenvalue_and_gap(ep, restarts=2)
    _cold_nodal_domains(monkeypatch)
    cold = eigen.second_eigenvalue_and_gap(ep, restarts=2)
    assert cold["cold_fallbacks"] == 0
    for key in ("lambda2", "gap", "zero"):
        assert abs(warm[key] / cold[key] - 1.0) <= 1e-12, key


def test_principal_pair_of_the_caller_is_lambda1(monkeypatch):
    pr = eigen.principal_eigenvalue(_p3_problem(), restarts=3)
    calls = []
    monkeypatch.setattr(eigen, "principal_eigenvalue",
                        lambda *a, **kw: calls.append(1))
    s2 = eigen.second_eigenvalue_and_gap(_p3_problem(), restarts=2, principal=pr)
    assert calls == []
    assert s2["lambda1"] == pr.lam
    assert s2["gap"] == s2["lambda2"] - pr.lam


@pytest.mark.parametrize("p, N, geometry, V, fallbacks",
                         [(1.5, 128, "interval", None, 0),
                          (3.0, 128, "interval", None, 0),
                          (4.0, 128, "interval", None, 0),
                          (1.5, 256, "ball", None, 0),
                          (4.0, 256, "interval", _cosine, 0)])
def test_second_counts_its_cold_fallbacks(p, N, geometry, V, fallbacks, monkeypatch):
    # the eigen_sweep interval cases need none, nor does the ball, whose
    # first right half starts from a profile that is nonzero at its
    # Dirichlet end; at p = 4 with the cosine potential, Newton from the
    # principal eigenfunction mapped onto the right half (0.05, 1) stalls at
    # a residual of 2e-2, and the descent from that same start rescues it
    ep = eigen.EigenProblem(p=p, L=1.0, N=N, seed=7, geometry=geometry, n=3, V=V)
    fell_back, descended = [], []
    principal_on, hand_over = eigen._principal_on, eigen._hand_over
    inside = _flag_restarts(monkeypatch)

    def recorded(a, b, ep, **kw):
        out = principal_on(a, b, ep, **kw)
        if out[4]:
            fell_back.append((a, b))
        return out

    def warm(disc, v):
        if not inside:
            descended.append((float(disc.x[0]), float(disc.x[-1])))
        return hand_over(disc, v)

    monkeypatch.setattr(eigen, "_principal_on", recorded)
    monkeypatch.setattr(eigen, "_hand_over", warm)
    s2 = eigen.second_eigenvalue_and_gap(ep, restarts=2)
    assert s2["cold_fallbacks"] == fallbacks == len(fell_back)
    assert descended == ([(0.05, 1.0)] if V is not None else [])


@pytest.mark.parametrize("reject", ["residual", "sign"])
def test_rejected_warm_starts_give_the_cold_path_bit_for_bit(reject, monkeypatch):
    # a Newton polish that fails the gate on every warm start, by its
    # residual or by a sign change, leaves each half to the cold restarts
    ep = eigen.EigenProblem(p=1.5, L=1.0, N=128, seed=0)
    with monkeypatch.context() as m:
        _cold_nodal_domains(m)
        cold = eigen.second_eigenvalue_and_gap(ep, restarts=2)
    newton_polish, principal_on = eigen._newton_polish, eigen._principal_on
    in_restarts, halves = _flag_restarts(monkeypatch), []

    def rejecting(disc, v, lam, **kw):
        v, lam, res, stats = newton_polish(disc, v, lam, **kw)
        if in_restarts:
            return v, lam, res, stats
        if reject == "residual":
            return v, lam, 1e-6, stats
        v = v.copy()
        v[len(v) // 2] = -v[len(v) // 2]
        return v, lam, res, stats

    def counted(a, b, ep, **kw):
        halves.append(1)
        return principal_on(a, b, ep, **kw)

    monkeypatch.setattr(eigen, "_newton_polish", rejecting)
    monkeypatch.setattr(eigen, "_principal_on", counted)
    s2 = eigen.second_eigenvalue_and_gap(ep, restarts=2)
    assert s2["cold_fallbacks"] == len(halves) > 0
    for key in ("lambda2", "gap", "lambda1", "zero", "mismatch"):
        assert s2[key] == cold[key], key


@pytest.mark.parametrize("N, geometry", [(128, "interval"), (512, "interval"),
                                         (256, "ball")])
def test_p2_principal_matches_the_tridiagonal_oracle(N, geometry):
    ep = eigen.EigenProblem(p=2.0, L=1.0, N=N, seed=0, geometry=geometry, n=3)
    lam1 = oracles.p2_tridiagonal_eigenvalues(eigen._disc_for(ep), k=1)[0]
    pr = eigen.principal_eigenvalue(ep, restarts=2)
    assert abs(pr.lam / lam1 - 1.0) <= 1e-11


@pytest.mark.parametrize("N", [128, 512])
def test_p2_second_matches_the_tridiagonal_oracle(N):
    ep = eigen.EigenProblem(p=2.0, L=1.0, N=N, seed=0)
    lam1, lam2 = oracles.p2_tridiagonal_eigenvalues(eigen._disc_for(ep), k=2)
    s2 = eigen.second_eigenvalue_and_gap(ep, restarts=2)
    assert abs(s2["lambda2"] / lam2 - 1.0) <= 1e-10
    assert abs(s2["lambda1"] / lam1 - 1.0) <= 1e-11


def test_non_finite_potential_is_bad_input():
    def V(x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        out[5] = np.nan
        return out

    ep = eigen.EigenProblem(p=3.0, L=1.0, V=V, N=128)
    with pytest.raises(ValueError, match=r"not finite at node x = 0\.046875"):
        eigen._disc_for(ep)
    assert cli.main(["eigen", "--p", "3", "--grid", "128",
                     "--potential", "const:nan"]) == 2
    assert cli.main(["eigen", "--p", "3", "--grid", "128",
                     "--potential", "const:inf"]) == 2


def test_non_finite_gradient_is_numeric_failure(monkeypatch):
    monkeypatch.setattr(eigen._Disc, "gradient",
                        lambda self, v, lam: np.full(self.n_unknown, np.nan))
    disc = eigen._disc_for(_p3_problem())
    with pytest.raises(eigen.SolverError, match="gradient norm is not finite"):
        eigen._hand_over(disc, np.ones(disc.n_unknown))
    assert cli.main(["eigen", "--p", "3", "--grid", "128"]) == 3


def test_failed_preconditioner_solve_is_numeric_failure(monkeypatch):
    dpbtrs = lapack._dpbtrs
    monkeypatch.setattr(lapack, "_dpbtrs",
                        lambda c, b, lower: (dpbtrs(c, b, lower=lower)[0], 1))
    disc = eigen._disc_for(_p3_problem())
    with pytest.raises(eigen.SolverError, match="pbtrs info = 1"):
        eigen._hand_over(disc, np.ones(disc.n_unknown))
    assert cli.main(["eigen", "--p", "3", "--grid", "128"]) == 3


def _nan_residual_polish(monkeypatch, where):
    """_newton_polish as it is, but with a NaN residual on the discs ``where`` picks."""
    polish = eigen._newton_polish

    def nan_polish(disc, v, lam, **kw):
        v, lam, rnorm, stats = polish(disc, v, lam, **kw)
        return v, lam, math.nan if where(disc) else rnorm, stats

    monkeypatch.setattr(eigen, "_newton_polish", nan_polish)


def test_nan_principal_residual_is_numeric_failure(monkeypatch):
    # nan > 1e-7 is False: the gate must reject what it cannot compare
    _nan_residual_polish(monkeypatch, lambda disc: True)
    with pytest.raises(eigen.SolverError, match="eigen minimization did not converge"):
        eigen.principal_eigenvalue(_p3_problem(), restarts=2)


@pytest.mark.parametrize("side", ("left", "right"))
def test_nan_nodal_residual_is_numeric_failure(monkeypatch, side):
    # max(1e-9, nan) is 1e-9: a NaN in either half must not vanish in the max
    ep = _p3_problem()
    principal = eigen.principal_eigenvalue(ep, restarts=2)
    _nan_residual_polish(monkeypatch, lambda disc: (disc.x[0] == 0.0) == (side == "left"))
    with pytest.raises(eigen.SolverError, match="nodal-domain eigen solve did not converge"):
        eigen.second_eigenvalue_and_gap(ep, restarts=2, principal=principal)


@pytest.mark.parametrize("nan_at", [0, 3])
def test_a_nan_restart_is_never_chosen(monkeypatch, nan_at):
    # min() keeps a NaN lambda that comes first (x < nan is False); the first
    # and then the last of 4 restarts end on NaN, at both of their polishes
    ep = eigen.EigenProblem(p=3.0, N=128)
    sub = eigen._principal_on(0.0, 0.5, ep, restarts=4)[3]
    expect = [min(run[1] for j, run in enumerate(eigen._restarts(disc, seed, 4)) if j != nan_at)
              for disc, seed in ((eigen._disc_for(ep), ep.seed), (sub, ep.seed + 1))]
    polish, hand_over, restarts = eigen._newton_polish, eigen._hand_over, []

    def counted(disc, v):
        restarts.append(None)
        return hand_over(disc, v)

    def poisoned(disc, v, lam):
        out = polish(disc, v, lam)
        return (v, math.nan, math.nan, out[3]) if (len(restarts) - 1) % 4 == nan_at else out

    monkeypatch.setattr(eigen, "_hand_over", counted)
    monkeypatch.setattr(eigen, "_newton_polish", poisoned)
    pr = eigen.principal_eigenvalue(ep, restarts=4)
    assert pr.lam == expect[0] and pr.restarts_agreeing == 3
    del restarts[:]
    _, lam, res, _, fallbacks = eigen._principal_on(0.0, 0.5, ep, restarts=4)
    assert lam == expect[1] and res <= 1e-7 and fallbacks == 0


def test_every_restart_nan_is_a_solver_error(monkeypatch):
    monkeypatch.setattr(eigen, "_newton_polish",
                        lambda disc, v, lam: (v, math.nan, math.nan, None))
    ep = eigen.EigenProblem(p=3.0, N=128)
    with pytest.raises(eigen.SolverError, match="NaN"):
        eigen.principal_eigenvalue(ep, restarts=4)
    with pytest.raises(eigen.SolverError, match="NaN"):
        eigen._principal_on(0.0, 0.5, ep, restarts=4)
