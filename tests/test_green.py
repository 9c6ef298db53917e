import json
import math
from pathlib import Path

import numpy as np
import pytest

from finslerhardy import cli, fields, green, hardy, norms
from finslerhardy.errors import BranchError, SolverError

import oracles


def newtonian_problem(cells=2048, R=100.0):
    return green.RadialProblem(p=2.0, n=3,
                               phi=green.BumpDensity(0.5, 1.0, 1.0, 3),
                               R_out=R, n_cells=cells)


def test_newtonian_far_field():
    gp = green.solve_green(newtonian_problem())
    assert gp.residual <= 1e-8
    beta, A, B = green.farfield_exponent(gp)
    assert abs(beta + 1.0) <= 1e-12          # exact to rounding for p = 2, n = 3
    assert A == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-3)
    # pointwise far field m/(4 pi r)
    rr = np.geomspace(3.0, 10.0, 32)
    assert np.abs(gp.profile(rr) * 4.0 * math.pi * rr - 1.0).max() < 1e-3


@pytest.mark.parametrize("p", [1.5, 2.5])
def test_far_field_exponent_vs_shooting_oracle(p):
    prob = green.RadialProblem(p=p, n=3,
                               phi=green.BumpDensity(0.5, 1.0, 1.0, 3),
                               R_out=50.0 if p < 2 else 200.0, n_cells=2048)
    gp = green.solve_green(prob)
    beta, _, _ = green.farfield_exponent(gp)
    expect = (p - 3.0) / (p - 1.0)
    assert beta == pytest.approx(expect, abs=0.02)
    # independent shooting solution agrees pointwise on the bulk
    u0, sol = oracles.shoot_green(prob)
    rr = np.geomspace(prob.r_min * 2.0, 2.5, 60)
    ours = gp.profile(rr)
    theirs = sol.sol(rr)[0]
    assert np.abs(ours / theirs - 1.0).max() < 2e-3


def test_flux_identity_and_bounds():
    gp = green.solve_green(newtonian_problem())
    fb = green.flux_bound_check(gp)
    assert fb["worst_identity_rel_err"] <= 0.01
    assert fb["upper_ok"] and fb["floor_ok"]
    assert fb["C0"] >= 1.0 - 1e-9      # max(int phi, 1/int phi) with mass 1
    # V = 0: flux equals the density mass at every level below supp phi
    t = fb["M_phi"] * 0.25
    assert green.level_flux(gp, gp.radius_of_level(t)) == pytest.approx(1.0, rel=1e-3)


def test_negative_potential_raises_solution():
    phi = green.BumpDensity(0.5, 1.0, 1.0, 3)
    V = green.bump_potential(0.5, 1.5, 0.05)
    gp0 = green.solve_green(green.RadialProblem(p=2.0, n=3, phi=phi,
                                                R_out=100.0, n_cells=2048))
    gpV = green.solve_green(green.RadialProblem(p=2.0, n=3, phi=phi, V=V,
                                                R_out=100.0, n_cells=2048))
    rr = np.geomspace(gp0.r[0] * 1.01, 50.0, 200)
    assert np.all(gpV.profile(rr) >= gp0.profile(rr) * (1.0 - 1e-10))
    fb = green.flux_bound_check(gpV)
    assert fb["upper_ok"] and fb["floor_ok"]
    # V <= 0: flux at low levels exceeds the density mass
    t = fb["M_phi"] * 0.25
    assert green.level_flux(gpV, gpV.radius_of_level(t)) >= 1.0


@pytest.mark.parametrize("V", [None, green.bump_potential(0.5, 1.5, 0.05)])
def test_support_minimum_is_the_least_node_value_on_supp_phi(V):
    # r_a and r_b are mesh nodes, and the PCHIP profile stays within the values
    # of each cell's nodes, so the least node value on supp phi is M_phi exactly
    prob = green.RadialProblem(p=1.5, n=3, phi=green.BumpDensity(0.5, 1.0, 1.0, 3), V=V,
                               R_out=50.0, n_cells=1024)
    gp = green.solve_green(prob)
    m = gp.support_minimum()
    assert {0.5, 1.0} <= set(gp.r.tolist())
    assert m == gp.u[(gp.r >= 0.5) & (gp.r <= 1.0)].min()
    assert m <= gp.profile(np.linspace(0.5, 1.0, 100_000)).min()
    assert green.flux_bound_check(gp)["M_phi"] == m


def test_monotone_decay_outside_support():
    gp = green.solve_green(newtonian_problem())
    rr = np.geomspace(1.0, gp.r[-1] * 0.999, 400)
    u = gp.profile(rr)
    assert np.all(np.diff(u) < 0.0)


def test_mesh_refinement_order():
    phi = green.BumpDensity(0.5, 1.0, 1.0, 3)
    probs = [green.RadialProblem(p=1.5, n=3, phi=phi, R_out=50.0, n_cells=c)
             for c in (512, 1024, 4096)]
    g1, g2, g3 = (green.solve_green(pr) for pr in probs)
    rr = np.geomspace(0.02, 25.0, 300)
    e1 = np.max(np.abs(g1.profile(rr) - g3.profile(rr)) / g3.profile(rr))
    e2 = np.max(np.abs(g2.profile(rr) - g3.profile(rr)) / g3.profile(rr))
    assert e1 / e2 >= 3.5


def truncation_stability(prob, factor=2.0):
    """Relative profile change on [r_min, R_out/2] when R_out is scaled by ``factor``."""
    gp1 = green.solve_green(prob)
    gp2 = green.solve_green(green.RadialProblem(
        p=prob.p, n=prob.n, phi=prob.phi, V=prob.V, R_out=prob.R_out * factor,
        n_cells=int(prob.n_cells * 1.25), r_min=prob.r_min, boundary=prob.boundary))
    r = np.geomspace(gp1.r[0] * 1.01, prob.R_out / 2.0, 512)
    u1, u2 = gp1.profile(r), gp2.profile(r)
    return float(np.max(np.abs(u1 - u2) / np.abs(u2)))


def test_truncation_stability():
    phi = green.BumpDensity(0.5, 1.0, 1.0, 3)
    for p in (2.0, 1.5):
        ts = truncation_stability(
            green.RadialProblem(p=p, n=3, phi=phi, R_out=50.0, n_cells=1024))
        assert ts <= 1e-3


def test_problem_file_round_trip(tmp_path):
    spec = {"p": 2.0, "n": 3, "V": {"type": "bump", "r_a": 0.5, "r_b": 1.5,
                                    "depth": 0.05},
            "phi": {"r_a": 0.5, "r_b": 1.0, "mass": 1.0},
            "R_out": 80.0, "mesh": 1024}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(spec))
    prob = green.load_problem(str(path))
    assert prob.p == 2.0 and prob.n == 3 and prob.V is not None
    gp = green.solve_green(prob)
    assert gp.residual <= 1e-8


def test_green_weight_hypotheses_and_residual():
    phi = green.BumpDensity(0.5, 1.0, 1.0, 3)
    V = green.bump_potential(0.5, 1.5, 0.05)
    prob = green.RadialProblem(p=2.0, n=3, phi=phi, V=V, R_out=200.0,
                               n_cells=4096)
    gp = green.solve_green(prob)
    fam = norms.euclidean(2.0, 3)
    hw = hardy.build_weight_green(fam, gp)
    assert hw.hypotheses["V_nonpositive"]
    assert np.isfinite(hw.hypotheses["abs_potential_integral"])
    dom = fields.annulus(0.1, 25.0, 3)

    def VmW(x):
        return hw.green.problem.V(np.linalg.norm(x, axis=-1)) - hw.weight(x)

    res = fields.weak_residual(fam, hw.ground_state, dom, V=VmW,
                               n_tests=30, seed=11)
    assert res <= 1e-5
    # off the density support the weight reduces to the gradient term, and on
    # it the density term is a pointwise lower bound
    rr = np.geomspace(1.5, 20.0, 50)
    W = hw.weight_profile(rr)
    grad_term = ((2 - 1) / 2) ** 2 * np.abs(gp.dprofile(rr)) ** 2 / gp.profile(rr) ** 2
    assert np.abs(W / grad_term - 1.0).max() < 1e-12
    rs = np.linspace(0.55, 0.95, 20)
    c2 = 0.5  # ((p-1)/p)^(p-1) for p = 2
    lower = c2 * gp.profile(rs) ** (1.0 - 2.0) * prob.phi(rs)
    assert np.all(hw.weight_profile(rs) >= lower - 1e-14)


def test_green_weight_without_a_potential():
    # the weight reads V from its GreenPotential's problem: none gives V = 0
    hw = hardy.build_weight_green(norms.euclidean(2.0, 3),
                                  green.solve_green(newtonian_problem(cells=512)))
    assert hw.green.problem.V is None
    assert (hw.hypotheses["abs_potential_integral"], hw.hypotheses["signed_potential_integral"],
            hw.hypotheses["V_nonpositive"]) == (0.0, 0.0, True)
    rho = np.geomspace(0.1, 20.0, 64)
    v, dv, pot, W = hw.profile_terms(rho)
    assert np.array_equal(W, hw.weight_profile(rho)) and np.array_equal(pot, -W)


def test_green_weight_sign_hypothesis_rejects():
    phi = green.BumpDensity(0.5, 1.0, 1.0, 3)

    def Vpos(r):
        return np.abs(green.bump_potential(0.5, 1.5, 0.05)(r))

    prob = green.RadialProblem(p=2.0, n=3, phi=phi, V=Vpos, R_out=100.0,
                               n_cells=1024)
    gp = green.solve_green(prob)
    with pytest.raises(BranchError):
        hardy.build_weight_green(norms.euclidean(2.0, 3), gp)


EXAMPLE = str(Path(__file__).resolve().parents[1] / "scripts" / "green_problem_example.json")


def _window(gp, window=(4.0, 0.125)):
    prob = gp.problem
    mask = (gp.r >= window[0] * prob.phi.r_b) & (gp.r <= window[1] * prob.R_out)
    return gp.r[mask], gp.u[mask]


def _lstsq_residual(rr, uu, beta):
    X = np.stack([rr ** beta, np.ones_like(rr)], axis=1)
    coef, *_ = np.linalg.lstsq(X, uu, rcond=None)
    return float(np.linalg.norm(X @ coef - uu))


def _lstsq_scan(gp):
    """The grid beta whose lstsq fit of u ~ A r^beta + B leaves the least
    residual, one lstsq per beta, and the bracket of its two neighbours."""
    prob = gp.problem
    rr, uu = _window(gp)
    grid = np.linspace(-4.0, -1e-3, 160) if prob.p < prob.n else np.linspace(-4.0, 4.0, 320)
    i = int(np.argmin([_lstsq_residual(rr, uu, b) for b in grid]))
    return grid[i], (grid[max(0, i - 1)], grid[min(len(grid) - 1, i + 1)])


def _solve(p, R, cells):
    return green.solve_green(green.RadialProblem(
        p=p, n=3, phi=green.BumpDensity(0.5, 1.0, 1.0, 3), R_out=R, n_cells=cells))


@pytest.mark.parametrize("p,R,cells", [(2.0, 100.0, 2048), (1.5, 50.0, 2048), (2.5, 100.0, 2048),
                                       (2.0, 100.0, 512), (1.5, 50.0, 512), (2.5, 100.0, 512),
                                       (4.0, 100.0, 512)])
def test_batched_farfield_scan_picks_the_lstsq_index(monkeypatch, p, R, cells):
    # the suite's three potentials at full and quick grids, and one p > n problem
    # whose scan runs over the 320-point grid
    gp = _solve(p, R, cells)
    brackets, solve = [], green.brentq

    def seen(f, a, b, **kwargs):
        brackets.append((a, b))
        return solve(f, a, b, **kwargs)

    monkeypatch.setattr(green, "brentq", seen)
    green.farfield_exponent(gp)
    assert brackets == [_lstsq_scan(gp)[1]]


@pytest.mark.parametrize("p,R", [(2.0, 100.0), (1.5, 50.0), (2.5, 100.0), (4.0, 100.0)])
def test_farfield_fit_is_no_worse_than_scipys_bounded_minimum(p, R):
    from scipy.optimize import minimize_scalar

    gp = _solve(p, R, 512)
    rr, uu = _window(gp)
    beta, _, _ = green.farfield_exponent(gp)
    opt = minimize_scalar(lambda b: _lstsq_residual(rr, uu, b), bounds=_lstsq_scan(gp)[1],
                          method="bounded", options={"xatol": 1e-10})
    assert opt.success
    assert _lstsq_residual(rr, uu, beta) <= _lstsq_residual(rr, uu, opt.x)


def test_p_equal_n_green_payload_omits_the_farfield_fit(tmp_path, monkeypatch):
    # the far field is logarithmic: x = r^beta - mean vanishes at beta = 0, the
    # fit degenerates there and would report a point of its scan grid, so the
    # command neither fits nor reports beta, amplitude or offset
    problem = tmp_path / "pn.json"
    problem.write_text(json.dumps({"p": 3.0, "n": 3, "phi": {"r_a": 0.5, "r_b": 1.0},
                                   "R_out": 100.0, "mesh": 512}))
    monkeypatch.setattr(green, "farfield_exponent", None)
    out = tmp_path / "green.json"
    assert cli.main(["green", "--problem", str(problem), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert [c["name"] for c in rep["checks"]] == ["residual", "flux_identity"]
    assert set(rep["payload"]) == {"C0", "M_phi"}


def _nan_in_far_field(gp):
    gp.u[np.searchsorted(gp.r, 8.0)] = np.nan       # inside the fit window [4, 12.5]
    return gp


def test_nan_far_field_is_a_solver_error():
    gp = _nan_in_far_field(green.solve_green(newtonian_problem(cells=512)))
    with pytest.raises(SolverError, match="NaN"):
        green.farfield_exponent(gp)


def test_nan_far_field_exits_3(monkeypatch, capsys):
    solve = green.solve_green
    monkeypatch.setattr(green, "solve_green", lambda prob: _nan_in_far_field(solve(prob)))
    assert cli.main(["green", "--problem", EXAMPLE]) == 3
    assert "NaN" in capsys.readouterr().err


def test_green_solve_stops_at_the_residual_floor(monkeypatch):
    # counts the residual-only assemblies (load scale and line-search trials)
    # on the --quick suite's p = 1.5 problem: 49 here, where three line
    # searches of 40 halvings at the round-off floor took 120 of 161
    calls = []
    assemble = green._assemble

    def counted(prob, mesh, u, p, jac=True):
        calls.append(jac)
        return assemble(prob, mesh, u, p, jac=jac)

    monkeypatch.setattr(green, "_assemble", counted)
    gp = green.solve_green(green.RadialProblem(p=1.5, n=3,
                                               phi=green.BumpDensity(0.5, 1.0, 1.0, 3),
                                               R_out=50.0, n_cells=512))
    assert gp.residual < 5e-8 and gp.newton.exit in ("tol", "floor", "stall")
    assert gp.newton_iters == gp.newton.iterations
    assert 0 < calls.count(False) <= 60


def test_singular_green_jacobian_is_a_numeric_failure(monkeypatch, capsys):
    assemble = green._assemble

    def singular(prob, mesh, u_in, p, jac=True):
        F, bands = assemble(prob, mesh, u_in, p, jac)
        return F, None if bands is None else tuple(np.zeros_like(b) for b in bands)

    monkeypatch.setattr(green, "_assemble", singular)
    assert cli.main(["green", "--problem", EXAMPLE]) == 3
    assert "numeric failure" in capsys.readouterr().err
