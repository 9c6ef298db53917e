import math
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.random import Generator, Philox

from finslerhardy import acceptance, fields, norms, quadrature
from finslerhardy.errors import BranchError, DomainError

import oracles

from scipy.integrate import quad

A2 = np.array([[4.0, 0.0], [0.0, 9.0]])


def _norm_field():
    """u = |x| as a field with no radial structure: not p-harmonic for p = 2, n = 3."""
    return fields.FuncField(lambda x: np.linalg.norm(x, axis=-1),
                            grad=lambda x: x / np.linalg.norm(x, axis=-1, keepdims=True))


def test_dual_power_shapes():
    # euclidean p=2, n=3 is the Newtonian kernel |x|^-1
    G = fields.DualPowerField(norms.euclidean(2.0, 3))
    x = np.array([[0.0, 0.0, 2.0], [0.0, 3.0, 0.0]])
    assert np.allclose(G(x), [0.5, 1.0 / 3.0])
    # euclidean p=4, n=2: |x|^(2/3), vanishing at the puncture
    G2 = fields.DualPowerField(norms.euclidean(4.0, 2))
    assert float(G2(np.array([[1e-9, 0.0]]))[0]) < 1e-5
    with pytest.raises(BranchError):
        fields.DualPowerField(norms.euclidean(2.0, 2))


def test_log_dual_field():
    G = fields.LogDualField(norms.euclidean(2.0, 2), R=1.0)
    x = np.array([[0.5, 0.0]])
    assert float(G(x)[0]) == pytest.approx(math.log(2.0))
    at_e = np.array([[1.0 / math.e, 0.0]])
    assert float(G(at_e)[0]) == pytest.approx(1.0)
    with pytest.raises(DomainError):
        G(np.array([[2.0, 0.0]]))
    with pytest.raises(BranchError):
        fields.LogDualField(norms.euclidean(3.0, 2), R=1.0)


def test_radial_field_gradients_refuse_the_puncture():
    # grad rho is undefined at x = 0 in either gauge: |x| and H0 alike
    zero = np.array([[1.0, 2.0], [0.0, 0.0]])
    for field in (fields.DualPowerField(norms.euclidean(3.0, 2)),
                  fields.DualPowerField(norms.lp(4, 3.0, 2)),
                  fields.LogDualField(norms.mixed(4, A2, 2.0), R=10.0),
                  fields.synthetic_capped_profile(2.0, 10.0)):
        with pytest.raises(DomainError):
            field.grad(zero)


def test_gradient_identity_H_of_gradH0():
    # H(grad H0(x)) = 1 at sampled points for closed-form and numeric kinds
    for fam, tol in [(norms.lp(4, 3.0, 2), 1e-10), (norms.mixed(4, A2, 3.0), 1e-10)]:
        x = norms.sample_vectors(2, 1000, 5, stream=6)
        g0 = norms.grad_dual(fam, x)
        assert np.abs(norms.norm_eval(fam, None, g0) - 1.0).max() < tol


@pytest.fixture
def newton_calls(monkeypatch):
    """Counts the mixed-kind dual_newton solves made through norms.dual."""
    calls = []
    solve = norms.dual_newton

    def counted(fam, Y, *args, **kwargs):
        calls.append(len(Y))
        return solve(fam, Y, *args, **kwargs)

    monkeypatch.setattr(norms, "dual_newton", counted)
    return calls


def test_mixed_fields_take_one_newton_solve(newton_calls):
    fam = norms.mixed(4, A2, 3.0)
    x = norms.sample_vectors(2, 40, 5, stream=6)
    fields.DualPowerField(fam).grad(x)
    assert newton_calls == [40]
    del newton_calls[:]
    fam2 = norms.mixed(4, A2, 2.0)
    G = fields.LogDualField(fam2, R=1e4)
    G.grad(x)
    assert newton_calls == [40]
    del newton_calls[:]
    omega, _ = quadrature.circle_rule(32)
    quadrature._dual_shell_geometry(fam, omega)
    assert newton_calls == [len(omega)]


@pytest.fixture
def operator_rows(monkeypatch):
    """Counts the rows of every norms.operator_a call."""
    rows = []
    flux_map = norms.operator_a

    def counted(fam, x, xi):
        rows.append(len(xi))
        return flux_map(fam, x, xi)

    monkeypatch.setattr(norms, "operator_a", counted)
    return rows


def test_mixed_weak_residual_solves_the_dual_once_per_ray(newton_calls, operator_rows,
                                                        monkeypatch):
    # grad u = dprofile(rho) grad H0(Theta) on each ray: the only solve is the
    # shell geometry's, one call for every bump, one row per cap direction;
    # the flux map a(grad rho(Theta)) is taken on one row per ray
    fam = norms.mixed(4, A2, 3.0)
    dom = fields.annulus(0.1, 10.0, 2)
    rays = fields._shell_patches(fam, fields.random_bumps(dom, 5, 3), 2, n_ang=12)
    nodes, n_rays = rays.rho.size, len(rays.grad_rho)
    directions = []
    geometry = quadrature._dual_shell_geometry

    def counted(f, omega):
        directions.append(len(omega))
        return geometry(f, omega)

    monkeypatch.setattr(quadrature, "_dual_shell_geometry", counted)
    G = fields.DualPowerField(fam)
    for field, V in ((G, None), (fields.power_of(G, 2.0 / 3.0), lambda x: -np.ones(len(x)))):
        del newton_calls[:], directions[:], operator_rows[:]
        fields.weak_residual(fam, field, dom, V=V, n_tests=5, seed=3, n_ang=12)
        assert len(directions) == 1
        assert newton_calls == directions
        assert 10 * sum(directions) < nodes
        assert operator_rows == [n_rays]


def test_weak_residual_refuses_nodes_outside_the_log_field():
    # log(R / H0) lives on {H0 < R}: the per-ray profile must not run past R
    G = fields.LogDualField(norms.mixed(4, A2, 2.0), R=1.0)
    dom = fields.annulus(0.1, 10.0, 2)
    for field in (G, fields.power_of(G, 0.5)):
        for layout in ("shell", "ball"):
            with pytest.raises(DomainError):
                fields.weak_residual(G.fam, field, dom, n_tests=5, seed=3,
                                     n_ang=12, layout=layout)


def test_shell_layout_takes_only_radial_fields_of_x_independent_families():
    # the shell layout's one kernel is per ray; everything else takes the ball
    d2, d3 = fields.annulus(0.1, 10.0, 2), fields.annulus(0.1, 10.0, 3)
    bad = _norm_field()
    lp4 = norms.lp(4, 3.0, 2)
    for fam, field, dom in ((norms.euclidean(2.0, 3), bad, d3),
                            (norms.weighted(0.5, lp4), fields.DualPowerField(lp4), d2)):
        with pytest.raises(ValueError, match='layout="ball"'):
            fields.weak_residual(fam, field, dom, n_tests=3, seed=1)
        assert fields.weak_residual(fam, field, dom, n_tests=3, seed=1, layout="ball") > 0.0
    # a V radial in some gauge needs a field radial in that gauge, on either layout
    V = SimpleNamespace(radial=(None, lambda rho: (rho, rho, rho)))
    for layout in ("shell", "ball"):
        with pytest.raises(ValueError, match="gauge"):
            fields.weak_residual(norms.euclidean(2.0, 3), bad, d3, V=V, n_tests=3, seed=1,
                                 layout=layout)


def test_composed_fields_need_a_radial_inner_field():
    bad = _norm_field()
    with pytest.raises(BranchError, match="radial inner field"):
        fields.power_of(bad, 0.5)
    # the composed field's profiles are f(g) and f'(g) g' of the inner profiles
    G = fields.LogDualField(norms.lp(4, 2.0, 2), R=50.0)
    v = fields.power_of(G, 0.5)
    x = norms.sample_vectors(2, 50, 3, stream=6, decades=1)
    assert v.radial[0] is G.radial[0] and v.radial_bound == G.radial_bound
    assert np.allclose(v(x), G(x) ** 0.5, rtol=1e-14, atol=0.0)
    assert np.allclose(v.grad(x), 0.5 * G(x)[:, None] ** -0.5 * G.grad(x), rtol=1e-13,
                       atol=0.0)


def test_bidual_takes_one_solve_per_step(newton_calls):
    fam = norms.mixed(4, A2, 3.0)
    xi = norms.sample_vectors(2, 20, 5, stream=7)
    for k in (0, 1, 6):
        del newton_calls[:]
        val, stats = norms.bidual_norm(fam, xi, n_dirs=256, iters=k)
        assert stats.iterations == k and len(newton_calls) == k + 1
        # each step solves only the rows not yet retired
        assert newton_calls[0] == 256 and newton_calls[1:] == sorted(newton_calls[1:],
                                                                      reverse=True)
        # every candidate y gives xi.y / H0(y) <= H(xi)
        assert np.all(val <= norms.norm_eval(fam, None, xi) * (1.0 + 1e-12))


def _shell_rays(field, dom, n_tests=3, seed=5):
    """(nodes, g'(rho), grad rho(Theta)) of the shell rays; g' has one row per ray."""
    gauge, _, dprofile = field.radial
    bumps = fields.random_bumps(dom, n_tests, seed)
    rays = fields._shell_patches(gauge, bumps, dom.n, n_rho=4, n_ang=12)
    yield rays.points(), dprofile(rays.rho), rays.grad_rho


def _per_ray_and_pointwise(field, dom):
    for nodes, dg, grad_rho in _shell_rays(field, dom):
        yield (dg[..., None] * grad_rho[:, None, :]).reshape(-1, dom.n), field.grad(nodes)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("label", ["euclidean", "lp4", "quad", "mix"])
def test_per_ray_gradient_matches_the_pointwise_gradient(label, n):
    # oracle for the shell weak residual: dprofile(rho) grad rho(Theta) at the
    # patch nodes against the field's own gradient, solved node by node
    p = 3.0 if n == 2 else 1.5
    G = fields.DualPowerField(acceptance._family(label, p, n))
    log = fields.LogDualField(acceptance._family(label, float(n), n), R=50.0)
    dom = fields.annulus(0.1, 10.0, n)
    for field in (G, fields.power_of(G, (p - 1.0) / p), log):
        for per_ray, pointwise in _per_ray_and_pointwise(field, dom):
            err = (np.linalg.norm(per_ray - pointwise, axis=-1)
                   / np.linalg.norm(pointwise, axis=-1))
            assert err.max() <= 1e-12, (type(field).__name__, err.max())


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("label", ["euclidean", "lp4", "quad", "mix"])
def test_per_ray_flux_map_matches_the_pointwise_flux_map(label, n):
    # oracle for the shell weak residual's flux map: a is (p-1)-homogeneous, so
    # sign(g') |g'|^(p-1) a(grad rho(Theta)) on each ray against a(x, grad u(x))
    # evaluated node by node from the field's own gradient
    p = 3.0 if n == 2 else 1.5
    G = fields.DualPowerField(acceptance._family(label, p, n))
    log = fields.LogDualField(acceptance._family(label, float(n), n), R=50.0)
    dom = fields.annulus(0.1, 10.0, n)
    for fam, field in ((G.fam, G), (G.fam, fields.power_of(G, (p - 1.0) / p)),
                       (log.fam, log)):
        for nodes, dg, grad_rho in _shell_rays(field, dom):
            a_ray, _ = norms.operator_a(fam, None, grad_rho)
            per_ray = (np.sign(dg) * np.abs(dg) ** (fam.p - 1.0))[..., None] * a_ray[:, None, :]
            pointwise, _ = norms.operator_a(fam, nodes, field.grad(nodes))
            err = (np.linalg.norm(per_ray.reshape(-1, n) - pointwise, axis=-1)
                   / np.linalg.norm(pointwise, axis=-1))
            assert err.max() <= 1e-12, (type(field).__name__, err.max())


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("label", ["euclidean", "lp4", "quad", "mix"])
def test_chord_form_bump_matches_the_bump_at_the_nodes(label, n):
    # oracle for the per-ray weak residual's bump: phi, grad phi = fac (x - c)
    # and |x - c| from each ray's chord, 1 - u = (Theta.Theta)(hi - rho)(rho -
    # lo)/r^2, against the bump and its gradient at the nodes rho * Theta
    fam = acceptance._family(label, 3.0 if n == 2 else 1.5, n)
    bumps = fields.random_bumps(fields.annulus(0.1, 10.0, n), 8, 5)
    rays = fields._shell_patches(fam, bumps, n, n_rho=4, n_ang=12)
    phi, fac, dist = rays.bump_terms(*bumps[1:])
    nodes = rays.points().reshape(*rays.rho.shape, n)
    for i, (center, radius, amplitude) in enumerate(zip(*bumps)):
        bump = oracles.bump(center, radius, amplitude)
        on = rays.bump == i
        x = nodes[on].reshape(-1, n)
        ref, ref_grad = bump(x), bump.grad(x)
        grad = fac[on].reshape(-1, 1) * (x - center)
        gmax = np.linalg.norm(ref_grad, axis=-1).max()
        assert np.abs(phi[on].ravel() - ref).max() <= 1e-12 * ref.max()
        assert np.linalg.norm(grad - ref_grad, axis=-1).max() <= 1e-12 * gmax
        assert (np.abs(np.abs(fac[on] * dist[on]).ravel() - np.linalg.norm(ref_grad, axis=-1)).max()
                <= 1e-12 * gmax)


def test_per_ray_path_makes_no_bump_call(operator_rows, monkeypatch):
    # the per-ray weak residual takes phi and grad phi from the chords alone: no
    # per-node bump terms, one shell-geometry call, and the flux map on one row
    # per ray
    def refuse(*args):
        raise AssertionError("per-node bump evaluation on the per-ray path")

    monkeypatch.setattr(fields, "_bump_terms", refuse)
    geometry = quadrature._dual_shell_geometry
    calls = []

    def counted(fam, omega):
        calls.append(len(omega))
        return geometry(fam, omega)

    monkeypatch.setattr(quadrature, "_dual_shell_geometry", counted)
    for label, p, n in (("lp4", 3.0, 2), ("mix", 1.5, 3)):
        fam = acceptance._family(label, p, n)
        dom = fields.annulus(0.1, 10.0, n)
        rays = fields._shell_patches(fam, fields.random_bumps(dom, 5, 3), n, n_ang=12)
        G = fields.DualPowerField(fam)
        for field, V in ((G, None), (fields.power_of(G, (p - 1.0) / p),
                                     lambda x: -np.ones(len(x)))):
            del calls[:], operator_rows[:]
            res = fields.weak_residual(fam, field, dom, V=V, n_tests=5, seed=3, n_ang=12)
            assert np.isfinite(res)
            assert len(calls) == 1 and operator_rows == [len(rays.grad_rho)]


def test_weighted_family_keeps_the_per_node_flux_map(operator_rows):
    # a weighted family's a depends on x, so it takes the ball layout, which
    # evaluates a at every node.  The pins are the ball layout's bits: the shell
    # layout, whose per-ray kernel needs an x-independent a, refuses the family
    dom = fields.annulus(0.1, 10.0, 2)
    pins = {"lp": ("0x1.fef3947127ec4p-7", "0x1.aa9094d64d951p+2"),
            "mixed": ("0x1.27ae0d1c62ac3p-4", "0x1.fff205fd9a449p+1")}
    nodes = 5 * 2 * 16 * len(quadrature.circle_rule(12)[1])
    for base in (norms.lp(4, 3.0, 2), norms.mixed(4, A2, 3.0)):
        fam = norms.weighted(0.5, base)
        G = fields.DualPowerField(base)
        del operator_rows[:]
        plain = fields.weak_residual(fam, G, dom, n_tests=5, seed=3, n_ang=12,
                                     layout="ball")
        with_v = fields.weak_residual(fam, fields.power_of(G, 2.0 / 3.0), dom,
                                      V=lambda x: -np.ones(len(x)), n_tests=5, seed=3,
                                      n_ang=12, layout="ball")
        assert operator_rows == [nodes, nodes]
        assert (plain.hex(), with_v.hex()) == pins[base.kind]


def _radial_potential(hw):
    return SimpleNamespace(radial=(hw.source.radial[0], lambda rho: hw.profile_terms(rho)[:3]))


def _block_case(case):
    """(fam, field, domain, V, grid) of one path through the weak residual."""
    d2, d3 = fields.annulus(0.1, 10.0, 2), fields.annulus(0.1, 10.0, 3)
    euc, mix, lp4 = norms.euclidean(1.5, 3), norms.mixed(4, A2, 3.0), norms.lp(4, 3.0, 2)
    gs = acceptance._standard_weight(euc)
    ball = acceptance._standard_weight(lp4)
    bad = _norm_field()
    return {
        "per_ray_euclidean": lambda: (euc, fields.DualPowerField(euc), d3, None, {}),
        "per_ray_mix": lambda: (mix, fields.DualPowerField(mix), d2, None, {}),
        "per_ray_radial_V": lambda: (euc, gs.ground_state, d3, _radial_potential(gs), {}),
        "per_ray_point_V": lambda: (mix, fields.power_of(fields.DualPowerField(mix), 2.0 / 3.0),
                                    d2, lambda x: -np.ones(len(x)), {}),
        "non_radial_ball": lambda: (norms.euclidean(2.0, 3), bad, d3, None,
                                    {"layout": "ball", "n_rho": 6}),
        "ball": lambda: (lp4, ball.ground_state, d2, _radial_potential(ball),
                         {"layout": "ball", "n_rho": 6}),
        "weighted": lambda: (norms.weighted(0.5, lp4), fields.power_of(
            fields.DualPowerField(lp4), 2.0 / 3.0), d2, lambda x: -np.ones(len(x)),
            {"layout": "ball", "n_rho": 6}),
    }[case]()


@pytest.mark.parametrize("case", ["per_ray_euclidean", "per_ray_mix", "per_ray_radial_V",
                                  "per_ray_point_V", "non_radial_ball", "ball", "weighted"])
def test_blocking_changes_no_bits(case, monkeypatch):
    # each bump's integrals are summed over that bump alone, in the same order, so
    # the residual is the same to the bit in one block, in one block per bump and
    # in blocks of a few bumps
    fam, field, dom, V, grid = _block_case(case)
    ranges = []
    blocks = fields._blocks

    def recorded(sizes):
        ranges.append((list(sizes), list(blocks(sizes))))
        return ranges[-1][1]

    monkeypatch.setattr(fields, "_blocks", recorded)

    def residual(budget):
        monkeypatch.setattr(fields, "BLOCK_NODES", budget)
        return fields.weak_residual(fam, field, dom, V=V, n_tests=7, seed=3, n_ang=12,
                                    **grid).hex()

    whole = residual(2 ** 40)
    sizes = ranges[-1][0]
    assert ranges[-1][1] == [(0, 7)]
    assert residual(min(sizes) // 2) == whole
    assert ranges[-1][1] == [(i, i + 1) for i in range(7)]
    assert residual(int(2.5 * max(sizes))) == whole
    assert 1 < len(ranges[-1][1]) < 7


def test_blocks_take_whole_bumps_under_the_budget(monkeypatch):
    monkeypatch.setattr(fields, "BLOCK_NODES", 100)
    assert list(fields._blocks([40, 50, 20, 150, 10, 100, 1])) == [
        (0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
    assert list(fields._blocks([30, 30, 40])) == [(0, 3)]


def test_ufuncs_do_not_depend_on_block_length():
    # a block's elementwise terms must equal the same rows of one whole block:
    # vector loops take a block's tail (and an unaligned start) on other code
    # paths than its body, so every ufunc of the residual is checked on slices
    # of every length up to a few vector widths, at every offset
    x = Generator(Philox(key=3)).uniform(0.05, 20.0, 67)
    funcs = [np.exp, np.sqrt, np.log, np.abs, np.sign, lambda a: a ** 0.5,
             lambda a: a ** 1.5, lambda a: a ** -0.75, lambda a: a ** 2.0,
             lambda a: 1.0 / a, lambda a: np.exp(1.0 - 1.0 / a)]
    for f in funcs:
        whole = f(x)
        for start in range(9):
            for stop in range(start + 1, len(x) + 1, 3):
                assert np.array_equal(f(x[start:stop]), whole[start:stop])
                assert np.array_equal(f(x[start:stop].copy()), whole[start:stop])
    rows = Generator(Philox(key=4)).uniform(-1.0, 1.0, (67, 3))
    whole = np.einsum("ij,ij->i", rows, rows[::-1])
    norm = np.linalg.norm(rows, axis=-1)
    for start in range(9):
        for stop in range(start + 1, len(rows) + 1, 5):
            part = rows[start:stop]
            assert np.array_equal(np.einsum("ij,ij->i", part, rows[::-1][start:stop]),
                                  whole[start:stop])
            assert np.array_equal(np.linalg.norm(part, axis=-1), norm[start:stop])


def test_weak_residual_classical_and_control():
    fam = norms.euclidean(2.0, 3)
    G = fields.DualPowerField(fam)
    dom = fields.annulus(0.1, 10.0, 3)
    res = fields.weak_residual(fam, G, dom, n_tests=25, seed=3)
    assert res <= 1e-6
    bad = _norm_field()
    assert fields.weak_residual(fam, bad, dom, n_tests=10, seed=3, layout="ball") > 1e-2


def test_weak_residual_with_potential_term():
    # u = |x|^-1 solves -div(grad u) + V u = 0 with V = 0 only; adding a
    # fake potential must break the residual
    fam = norms.euclidean(2.0, 3)
    G = fields.DualPowerField(fam)
    dom = fields.annulus(0.1, 10.0, 3)
    res = fields.weak_residual(fam, G, dom, V=lambda x: np.ones(len(x)),
                               n_tests=10, seed=3)
    assert res > 1e-2


def test_level_set_flux_newtonian_and_log():
    fam = norms.euclidean(2.0, 3)
    G = fields.DualPowerField(fam)
    dom = fields.annulus(1e-3, 1e3, 3)
    for t in (0.1, 1.0, 10.0):
        assert fields.level_set_flux(fam, G, dom, t) == pytest.approx(
            4.0 * math.pi, rel=1e-12)
    fam2 = norms.euclidean(2.0, 2)
    L = fields.LogDualField(fam2, R=10.0)
    dom2 = fields.annulus(1e-3, 9.99, 2)
    assert fields.level_set_flux(fam2, L, dom2, 1.0) == pytest.approx(
        2.0 * math.pi, rel=1e-12)
    # a negative level lies past R, outside {H0 < R}, even inside the annulus
    with pytest.raises(DomainError):
        fields.level_set_flux(fam2, L, fields.annulus(1e-3, 20.0, 2), -0.5)


def test_flux_constancy_anisotropic():
    fam = norms.lp(4, 3.0, 2)
    G = fields.DualPowerField(fam)
    dom = fields.annulus(1e-6, 1e6, 2)
    levels = np.geomspace(0.05, 5.0, 12)
    fluxes, cv = fields.flux_constancy(fam, G, dom, levels)
    assert cv < 1e-12
    # analytic value: |a|^(p-1) * n * vol(dual unit ball)
    V0 = quadrature.unit_ball_volume(2, fam, n_ang=512)
    a = 0.5
    assert fluxes[0] == pytest.approx(a ** 2 * 2 * V0, rel=1e-3)


def test_coarea_identity_with_profiles():
    # int f(v) |grad v|^p dx = C_flux int f(h(t)) |h'(t)|^p dt for v = h(G)
    p, n = 3.0, 2
    fam = norms.lp(4, p, n)
    G = fields.DualPowerField(fam)
    dom = fields.annulus(1e-8, 1e8, n)
    C = fields.level_set_flux(fam, G, dom, 1.0)
    e = (p - 1.0) / p
    v = fields.power_of(G, e)                      # v = G^((p-1)/p) = h(G)
    a = G.a

    for f_prof, lo_v, hi_v in [
        (lambda s: np.exp(-((np.log(s)) ** 2)), 1e-3, 1e3),
        (lambda s: 1.0 / (1.0 + (np.log(s)) ** 2) * (np.abs(np.log(s)) < 4.0), 1e-2, 1e2),
        (lambda s: np.clip(1.0 - np.abs(np.log(s)), 0.0, 1.0), math.e ** -1.5, math.e ** 1.5),
    ]:
        lo_t, hi_t = lo_v ** (1 / e), hi_v ** (1 / e)   # source levels
        rho_lo = min(float(G.radial_inverse(lo_t)), float(G.radial_inverse(hi_t)))
        rho_hi = max(float(G.radial_inverse(lo_t)), float(G.radial_inverse(hi_t)))

        def integrand(rho):
            vv = (rho ** a) ** e
            dv = abs(e * a) * rho ** (a * e - 1.0)
            return f_prof(vv) * dv ** p

        lhs = quadrature.radial_integral(integrand, rho_lo, rho_hi, n,
                                         quadrature.angular_measure(n, fam), n_r=2048)
        rhs = C * quad(lambda t: f_prof(t ** e) * (e * t ** (e - 1.0)) ** p,
                       lo_t, hi_t, limit=400)[0]
        assert lhs == pytest.approx(rhs, rel=1e-2)


def test_properness_surrogate():
    G = fields.DualPowerField(norms.euclidean(2.0, 3))
    # compact value intervals pull back to radial intervals bounded away
    # from the puncture and from infinity
    lo, hi = sorted(float(G.radial_inverse(t)) for t in (0.1, 10.0))
    assert 0.0 < lo < hi < math.inf
    assert lo == pytest.approx(0.1) and hi == pytest.approx(10.0)


def test_synthetic_capped_profile_shape():
    G = fields.synthetic_capped_profile(2.0, 10.0)
    r = np.array([[1e-3, 0.0], [5.0, 0.0], [9.999, 0.0]])
    vals = G(r)
    assert np.all(vals > 0.0) and np.all(vals < 2.0)
    assert vals[0] == pytest.approx(2.0, rel=1e-5)
    assert vals[2] < 1e-3


def test_bump_support_and_gradient():
    b = oracles.bump(np.array([2.0, 0.0]), 0.5, 1.5)
    assert float(b(np.array([[2.0, 0.0]]))[0]) == pytest.approx(1.5)
    assert float(b(np.array([[2.6, 0.0]]))[0]) == 0.0
    x = np.array([[2.1, 0.2]])
    g = oracles.fd_gradient(lambda v: float(b(v[None, :])[0]), x[0])
    assert np.allclose(b.grad(x)[0], g, atol=1e-5)
