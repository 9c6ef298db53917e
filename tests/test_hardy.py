import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad

from finslerhardy import acceptance, bregman, fields, green, hardy, norms, quadrature
from finslerhardy.errors import BranchError, RangeError

import oracles

A2 = np.array([[4.0, 0.0], [0.0, 9.0]])
KS = [2 ** j for j in range(4, 13)]


def standard_weight(p, n, fam=None):
    return acceptance._standard_weight(fam or norms.euclidean(p, n))


def test_weight_takes_p_n_and_c_p_from_its_family():
    for p, n in ((1.5, 3), (2.0, 3), (3.0, 2), (5.0, 2)):
        hw = standard_weight(p, n)
        assert (hw.p, hw.n) == (hw.fam.p, hw.fam.n) == (p, n)
        assert abs(hw.c_p - (p / (p - 1.0)) ** (p - 1.0)) < 1e-14


def test_angular_measure_is_each_familys_own():
    # the dual unit ball of quadratic(A) is an ellipse of area pi sqrt(det A)
    for _ in range(200):
        quadrature.angular_measure(2, norms.lp(4, 3.0, 2))
        fac = quadrature.angular_measure(2, norms.quadratic(A2, 3.0))
        assert fac == pytest.approx(2.0 * 6.0 * math.pi, rel=1e-12)
    assert quadrature.angular_measure(2, norms.euclidean(3.0, 2)) == 2.0 * math.pi
    # the mixed unit ball depends on p, which the family label omits
    f2, f3 = norms.mixed(4, A2, 2.0), norms.mixed(4, A2, 3.0)
    assert f2.label() == f3.label()
    assert quadrature.angular_measure(2, f2) != quadrature.angular_measure(2, f3)
    # and the label spells s with :g, so lp(4.0000001) reads "lp4" too
    near = norms.lp(4.0000001, 3.0, 2)
    assert near.label() == norms.lp(4, 3.0, 2).label()
    assert quadrature.angular_measure(2, near) == 2 * quadrature.unit_ball_volume(2, near)


def test_weight_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        standard_weight(3.0, 2).angular = 1.0


def test_null_sequence_energies_are_pinned_bit_for_bit():
    # the ground-state profiles come from the weight's ground-state field.
    # Each member is integrated over its own support [rho(1/k^2), rho(k^2)];
    # it used to run on to the bracket's outer end, which moved the last bits
    hw = standard_weight(3.0, 2, norms.lp(4, 3.0, 2))
    ns = hardy.null_sequence(hw, [16, 64])
    assert [e.hex() for e in ns.energies] == ["0x1.3fbcd80fadda1p-1",
                                               "0x1.a54a780f0c29ep-2"]


def capped_weight():
    G = fields.synthetic_capped_profile(2.0, 10.0)
    return hardy.build_weight_zero_potential(norms.euclidean(3.0, 2), G, sigma=2.0,
                                             bracket=(1e-2, 10.0 * (1 - 1e-10)))


def _capped_null_sequence():
    ns = hardy.null_sequence(capped_weight(), [4, 16, 64])
    return ns.energies + ns.masses + ns.x_grad + ns.x_field


def _optimality_probe():
    probe = hardy.optimality_at_infinity_probe(standard_weight(2.0, 3), [1e-1, 1e-2],
                                               k_list=(4, 16, 64, 256))
    return [r[key] for r in probe["table"] for key in ("ratio", "mass", "mass_density")]


def _null_criticality_slope():
    hw = standard_weight(3.0, 2, norms.lp(4, 3.0, 2))
    return [hardy.verify_null_criticality(hw, [1e-1, 1e-2, 1e-3, 1e-4], T=1.0)["slope"]]


def _capped_lower_bound():
    rows = hardy.capped_null_criticality_lower_bound(capped_weight(), [1e-3, 1e-4])
    return [r[key] for r in rows for key in ("lhs", "rhs")]


@pytest.mark.parametrize("compute,pinned", [
    (_capped_null_sequence, [
        "0x1.c7a25e48fb514p+4", "0x1.d882c2fcbe16bp+3",
        "0x1.0111052b8861fp+5", "0x1.f854173a18f07p+5",
        "0x1.14d00aa5257d8p+3", "0x1.1994bc3e9e6d0p+1",
        "0x1.26513d84eea26p+4", "0x1.80325622f5120p+5"]),
    (_optimality_probe, [
        "0x1.63e7dcae8fbdap+0", "0x1.73a4302162b9fp+4", "0x1.7e41493daa9c4p-40",
        "0x1.18f9f72ba3ef6p+0", "0x1.73a4302162b9ep+5", "0x1.748ced6a0cc20p-69",
        "0x1.0b19c32fd7151p+0", "0x1.16bb24190a0b7p+6", "0x1.3a48257e2d409p-99",
        "0x1.063e7dcae8fbep+0", "0x1.73a4302162b9fp+6", "0x1.747b55473d1d3p-130",
        "0x1.63e7dcae8fbdap+0", "0x1.73a4302162b9fp+4", "0x1.3924b05349002p-53",
        "0x1.18f9f72ba3ef7p+0", "0x1.73a4302162b9fp+5", "0x1.3131808b4e08bp-82",
        "0x1.0b19c32fd7151p+0", "0x1.16bb24190a0b7p+6", "0x1.0175acd869e2cp-112",
        "0x1.063e7dcae8fbep+0", "0x1.73a4302162b9ep+6", "0x1.312316c186db7p-143"]),
    (_null_criticality_slope, ["0x1.81a3b31b171d2p-2"]),
    (_capped_lower_bound, [
        "0x1.1ac60df85ac85p+6", "0x1.82ad96c0474e6p+4",
        "0x1.8318b581ab82dp+6", "0x1.08f9320d27e53p+5"]),
])
def test_optimality_probes_are_pinned_bit_for_bit(compute, pinned):
    # one-sided capped null sequence (no suite record reaches it), the tail
    # probe table, the null-criticality slope and the capped lower bound.  The
    # bound's rhs carries the weight's flux constant, whose level-set gradient
    # is G'(rho) omega on the round shell; G'(|x|) x/|x| at x = rho omega
    # rounds the constant 1 ulp and the two rhs entries 3 and 1 ulp higher.
    # Each cutoff member is integrated over its own support: a capped member
    # between the two radii of 1/k^2, where the whole bracket was taken, and
    # only if both lie inside the bracket (the k = 64 member, whose inner
    # radius 0.0097656 lies below the bracket's 0.01, is dropped; it was
    # integrated from there), and a tail member up to the radius of eps, where
    # the interval ended at eps * 0.9999999, with its panels aligned also at
    # the interior zero of u' on the falling transition, as a null member's
    assert [float(x).hex() for x in compute()] == pinned


# -- cutoffs ------------------------------------------------------------------


def test_cutoff_values():
    k = 8.0
    assert hardy.cutoff(1.0 / k, k) == pytest.approx(1.0)       # 2 + log(1/k)/log k
    assert hardy.cutoff(1.0 / k ** 2, k) == pytest.approx(0.0)
    assert hardy.cutoff(3.0, k) == 1.0
    assert hardy.cutoff(k ** 2, k) == pytest.approx(0.0)
    assert hardy.cutoff(k ** 1.5, k) == pytest.approx(0.5)
    one = hardy.cutoff(np.array([k ** 3]), k, one_sided=True)
    assert float(one[0]) == 1.0


def test_cutoff_slope_is_plus_minus_m():
    k = 16.0
    m = 1.0 / math.log(k)
    assert float(hardy.cutoff_slope(1.0 / k ** 1.5, k)) == pytest.approx(m)
    assert float(hardy.cutoff_slope(k ** 1.5, k)) == pytest.approx(-m)
    assert float(hardy.cutoff_slope(2.0, k)) == 0.0


# -- constructions ------------------------------------------------------------


def test_classical_reduction_pointwise():
    for (p, n) in [(1.5, 2), (2.0, 3), (3.0, 2), (5.0, 3)]:
        hw = standard_weight(p, n)
        x = norms.sample_vectors(n, 300, 1, decades=2, stream=9)
        W = hw.weight(x)
        Wref = abs((p - n) / p) ** p * np.linalg.norm(x, axis=1) ** (-p)
        assert np.abs(W / Wref - 1.0).max() < 1e-10


def test_weight_nonnegative_everywhere():
    for fam, (p, n) in [(norms.lp(4, 3.0, 2), (3.0, 2)),
                        (norms.mixed(4, A2, 1.5), (1.5, 2))]:
        hw = standard_weight(p, n, fam)
        x = norms.sample_vectors(n, 2000, 3, stream=10)
        assert np.all(hw.weight(x) >= 0.0)


def test_branch_rules():
    with pytest.raises(BranchError):
        standard = fields.DualPowerField(norms.euclidean(2.0, 3))
        hardy.build_weight_zero_potential(norms.euclidean(2.0, 3), standard, sigma=1.0)
    G = fields.synthetic_capped_profile(2.0, 10.0)
    with pytest.raises(BranchError):
        hardy.build_weight_zero_potential(norms.euclidean(3.0, 2), G, sigma=0.4,
                                          bracket=(1e-2, 10.0 * (1 - 1e-10)))


def test_capped_branch_formulas():
    sigma = 2.0
    G = fields.synthetic_capped_profile(sigma, 10.0)
    hw = hardy.build_weight_zero_potential(norms.euclidean(3.0, 2), G, sigma=sigma,
                                           bracket=(1e-2, 10.0 * (1 - 1e-10)))
    rr = np.geomspace(1.1e-2, 9.99, 500)
    assert hw.weight_profile(rr).min() >= 0.0
    r_half = G.radial_inverse(sigma / 2.0)
    assert abs(hw.weight_profile(np.array([r_half]))[0]) < 1e-12
    # ground state vanishes at both ends
    v = hw.v(np.array([1.2e-2, 9.98]))
    assert np.all(v < 0.1)


def test_ground_state_weak_residual():
    fam = norms.lp(4, 3.0, 2)
    hw = standard_weight(3.0, 2, fam)
    dom = fields.annulus(0.1, 10.0, 2)

    def negW(x):
        return -hw.weight(x)

    res = fields.weak_residual(fam, hw.ground_state, dom, V=negW,
                               n_tests=30, seed=5)
    assert res <= 1e-5


def _green_weight(cells=1024):
    prob = green.RadialProblem(p=2.0, n=3, phi=green.BumpDensity(0.5, 1.0, 1.0, 3),
                               V=green.bump_potential(0.5, 1.5, 0.05), R_out=200.0,
                               n_cells=cells)
    return hardy.build_weight_green(norms.euclidean(2.0, 3), green.solve_green(prob))


def test_cutoff_terms_take_one_profile_pass(monkeypatch):
    # g and g' once per call, with the bits of v, v' and W taken one by one
    calls = {"profile": 0, "dprofile": 0}
    for name in calls:
        def counted(self, r, _f=getattr(green.GreenPotential, name), _name=name):
            calls[_name] += 1
            return _f(self, r)
        monkeypatch.setattr(green.GreenPotential, name, counted)
    hw = _green_weight(512)
    rho = np.geomspace(2.0, 20.0, 64)
    for name in calls:
        calls[name] = 0
    e, m, u, v, dv, ph, slope = hardy._cutoff_terms(hw, rho, 16, 1.0, False)
    assert calls == {"profile": 1, "dprofile": 1}
    W = hw.weight_profile(rho)
    assert np.array_equal(v, hw.v(rho))
    assert np.array_equal(dv, hw.ground_state.radial[2](rho))
    assert np.array_equal(m, W * u ** hw.p)
    assert np.array_equal(e, np.abs(dv * (ph + slope)) ** hw.p + (hw.V_profile(rho) - W) * u ** hw.p)


def _point_residual(hw, dom, n_tests, seed):
    """The ground-state residual with V - W evaluated at points x."""
    gauge = hw.source.radial[0]

    def V(x):
        pot = 0.0 if hw.V_profile is None else hw.V_profile(quadrature.radius(gauge, x))
        return pot - hw.weight(x)

    return fields.weak_residual(hw.fam, hw.ground_state, dom, V=V, n_tests=n_tests,
                                seed=seed)


@pytest.mark.parametrize("case", ["euclidean", "mix", "capped", "green"])
def test_ground_state_residual_on_rho_matches_the_point_potential(case):
    # V - W as a profile of the rays' rho against V - W at the points rho * Theta:
    # the two differ by the rounding of rho against |rho Theta| or H0(rho Theta).
    # The synthetic capped source is not p-harmonic, so only its two paths agree.
    hw, dom = {
        "euclidean": lambda: (standard_weight(2.0, 3), fields.annulus(0.1, 10.0, 3)),
        "mix": lambda: (standard_weight(1.5, 2, norms.mixed(4, A2, 1.5)),
                        fields.annulus(0.1, 10.0, 2)),
        "capped": lambda: (capped_weight(), fields.annulus(0.5, 8.0, 2)),
        "green": lambda: (_green_weight(), fields.annulus(0.1, 25.0, 3)),
    }[case]()
    on_rho = acceptance.ground_state_residual(hw, dom, 12, 5)
    at_points = _point_residual(hw, dom, 12, 5)
    assert 0.0 < on_rho < (1.0 if case == "capped" else 1e-4)
    assert abs(on_rho / at_points - 1.0) <= 1e-12


def test_ground_state_residual_on_rho_forms_no_points(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("point array formed")

    calls = {"profile": [], "dprofile": []}
    for name, calls_of in calls.items():
        def counted(self, r, _f=getattr(green.GreenPotential, name), _c=calls_of):
            _c.append(np.shape(r))
            return _f(self, r)
        monkeypatch.setattr(green.GreenPotential, name, counted)
    hw = _green_weight(512)
    dom = fields.annulus(0.1, 25.0, 3)
    rays = fields._shell_patches(None, fields.random_bumps(dom, 6, 3), 3)
    # one call of each per block of whole bumps, over that block's rays
    per_bump, width = np.bincount(rays.bump), rays.rho.shape[1]
    shapes = [(int(per_bump[i:j].sum()), width) for i, j in fields._blocks(per_bump * width)]
    assert len(shapes) > 1
    for calls_of in calls.values():
        del calls_of[:]
    monkeypatch.setattr(fields._Rays, "points", forbidden)
    monkeypatch.setattr(quadrature, "radius", forbidden)
    assert acceptance.ground_state_residual(hw, dom, 6, 3) < 1e-4
    assert calls == {"profile": shapes, "dprofile": shapes}
    # a mixed gauge solves its dual once, for the shell geometry's directions
    rows = []
    solve = norms.dual_newton

    def counted_newton(fam, Y, *args, **kwargs):
        rows.append(len(Y))
        return solve(fam, Y, *args, **kwargs)

    monkeypatch.setattr(norms, "dual_newton", counted_newton)
    hw = standard_weight(1.5, 2, norms.mixed(4, A2, 1.5))
    dom = fields.annulus(0.1, 10.0, 2)
    del rows[:]   # building the weight solved once, for its angular measure
    fields._shell_patches(hw.fam, fields.random_bumps(dom, 5, 3), 2)
    geometry_rows = rows[:]
    del rows[:]
    assert acceptance.ground_state_residual(hw, dom, 5, 3) < 1e-4
    assert rows == geometry_rows and len(rows) == 1


def test_ball_layout_takes_rho_from_one_dual_pass_per_block(monkeypatch):
    # the fine hardy.ground_state_residual.lp4 call (30 bumps, 69,120 nodes): rho and
    # grad rho from one norms.dual call per block, u, u' and V - W as profiles of
    # rho, and no dual_norm or grad_dual call (the per-point path made three
    # dual_norm calls and one dual call, each over every node)
    hw = standard_weight(3.0, 2, norms.lp(4, 3.0, 2))
    calls = []
    for name in ("dual", "dual_norm", "grad_dual"):
        def counted(fam, y, *args, _f=getattr(norms, name), _name=name, **kwargs):
            calls.append((_name, len(y)))
            return _f(fam, y, *args, **kwargs)
        monkeypatch.setattr(norms, name, counted)
    ranges = []
    blocks = fields._blocks

    def recorded(sizes):
        ranges.extend((i, j, int(sum(sizes[i:j]))) for i, j in blocks(sizes))
        return [(i, j) for i, j, _ in ranges]

    monkeypatch.setattr(fields, "_blocks", recorded)
    res = acceptance.ground_state_residual(hw, fields.annulus(0.1, 10.0, 2), 30, 68,
                                           layout="ball", n_rho=24, n_ang=48)
    assert res < 1e-5
    assert calls == [("dual", nodes) for _, _, nodes in ranges]
    assert len(ranges) > 1 and sum(nodes for _, _, nodes in ranges) == 69120
    assert max(nodes for _, _, nodes in ranges) <= fields.BLOCK_NODES


def test_flux_constant_is_the_closed_form_for_every_source(monkeypatch):
    # every source is radial in the family's own gauge H0, where H(grad H0) = 1: the
    # flux is angular rho^(n-1) |G'(rho)|^(p-1), no level-set quadrature (the Green
    # weight's took 18,432 directions), equal to that quadrature to rounding
    calls = []
    quadrature_flux = fields.level_set_flux

    def counted(*args, **kwargs):
        calls.append(args[3])
        return quadrature_flux(*args, **kwargs)

    monkeypatch.setattr(fields, "level_set_flux", counted)
    hw = _green_weight(512)
    cf = hw.flux_constant()
    gmin, _ = hw.profile_range(hw.g)
    phi = hw.phi_profile
    level = math.sqrt(3.0 * gmin * float(np.min(hw.g(np.geomspace(phi.r_a, phi.r_b, 128)))))
    lo, hi = hw.source_bracket
    ref = quadrature_flux(hw.fam, hw.source, fields.annulus(lo * 0.999, hi * 1.001, 3), level)
    assert cf == pytest.approx(ref, rel=1e-13)
    for fam in (norms.lp(4, 3.0, 2), norms.mixed(4, A2, 1.5)):
        hw = standard_weight(fam.p, fam.n, fam)
        lo, hi = hw.source_bracket
        level = float(hw.g(np.asarray([math.sqrt(lo * hi)]))[0])
        ref = quadrature_flux(fam, hw.source, fields.annulus(lo * 0.999, hi * 1.001, 2), level)
        assert hw.flux_constant() == pytest.approx(ref, rel=1e-13)
    assert calls == []


def test_source_must_be_radial_in_the_familys_own_gauge():
    # the weight takes |grad G| in the family's norm as |g'(rho)|, which needs
    # H(grad rho) = 1, so rho must be the family's dual norm H0.  Built without
    # this check on lp(4), p = 3, n = 2, the ground-state residual (20 bumps in
    # annulus(0.1, 10), seed 7) read 1.8e-2 for a quadratic-gauge source and
    # 4.2e-3 for the same profile of |x|, against 1.1e-6 for the matched source
    fam = norms.lp(4, 3.0, 2)
    G = fields.DualPowerField(fam)
    for wrong in (fields.DualPowerField(norms.quadratic(A2, 3.0)),
                  fields.RadialProfileField(G.radial[1], G.radial[2], bracket=(1e-3, 1e3))):
        with pytest.raises(BranchError, match="own gauge"):
            hardy.build_weight_zero_potential(fam, wrong, bracket=(1e-2, 1e2))
    # families equal by value pass, built twice; labels that round s do not
    hardy.build_weight_zero_potential(norms.lp(4, 3.0, 2), fields.DualPowerField(fam))
    with pytest.raises(BranchError, match="own gauge"):
        hardy.build_weight_zero_potential(norms.lp(4.0000001, 3.0, 2), G)
    # the mixed kind's H0 depends on p, which its label omits
    with pytest.raises(BranchError, match="own gauge"):
        hardy.build_weight_zero_potential(norms.mixed(4, A2, 1.5),
                                          fields.DualPowerField(norms.mixed(4, A2, 3.0)))


def test_radial_potential_must_share_the_field_gauge():
    hw = standard_weight(3.0, 2, norms.lp(4, 3.0, 2))
    V = SimpleNamespace(radial=(None, hw.ground_state_terms))
    with pytest.raises(ValueError, match="gauge"):
        fields.weak_residual(hw.fam, hw.ground_state, fields.annulus(0.1, 10.0, 2), V=V,
                             n_tests=3, seed=1)


# -- null sequences -----------------------------------------------------------


def test_null_sequence_exact_laws_p2():
    hw = standard_weight(2.0, 3)
    ns = hardy.null_sequence(hw, KS)
    cf = hw.flux_constant()
    assert cf == pytest.approx(4.0 * math.pi, rel=1e-12)
    for k, e, x, m_ in zip(ns.k_list, ns.energies, ns.x_grad, ns.masses):
        assert e == pytest.approx(hardy.transition_energy_law(2.0, cf, k), rel=1e-9)
        assert x == pytest.approx(hardy.cutoff_gradient_mass_law(2.0, cf, k), rel=1e-9)
        assert m_ == pytest.approx(hardy.weight_mass_slope_law(2.0, cf) * math.log(k),
                                   rel=1e-9)
    # for p = 2 the energy and the gradient-mass bound coincide exactly
    assert np.allclose(ns.energies, ns.x_grad, rtol=1e-9)


@pytest.mark.parametrize("p,n", [(1.5, 2), (3.0, 2)])
def test_null_sequence_matches_independent_quadrature(p, n):
    """Freeze the energies against a scipy.integrate.quad oracle."""
    hw = standard_weight(p, n)
    k = 64
    ns = hardy.null_sequence(hw, [k])
    a = (p - n) / (p - 1.0)
    e = a * (p - 1.0) / p
    c1 = ((p - 1.0) / p) ** p
    sn = 2 * math.pi if n == 2 else 4 * math.pi
    lk = math.log(k)

    def phi(t):
        if t <= k ** -2 or t >= k ** 2:
            return 0.0
        if t <= 1.0 / k:
            return 2.0 + math.log(t) / lk
        if t <= k:
            return 1.0
        return 2.0 - math.log(t) / lk

    def dphi(t):
        if k ** -2 < t < 1.0 / k:
            return 1.0 / (t * lk)
        if k < t < k ** 2:
            return -1.0 / (t * lk)
        return 0.0

    def integrand(r):
        v = r ** e
        dv = e * r ** (e - 1.0)
        u = v * phi(v)
        du = dv * (phi(v) + v * dphi(v))
        W = c1 * abs(a) ** p * r ** (-p)
        return (abs(du) ** p - W * u ** p) * sn * r ** (n - 1.0)

    bks = sorted(t ** (1.0 / e) for t in (k ** -2.0, 1.0 / k, k * 1.0, k ** 2.0))
    total = 0.0
    for lo, hi in zip(bks[:-1], bks[1:]):
        val, _ = quad(lambda s: integrand(math.exp(s)) * math.exp(s),
                      math.log(lo), math.log(hi), limit=500)
        total += val
    assert ns.energies[0] == pytest.approx(total, rel=1e-6)


def test_null_sequence_matches_full_dual_quadrature_lp4():
    """The radial-mode energy against a full H0-shell quadrature of u_k."""
    p, n, k = 3.0, 2, 16
    fam = norms.lp(4, p, n)
    hw = standard_weight(p, n, fam)
    ns = hardy.null_sequence(hw, [k])
    u = fields.ComposedField(lambda t: t * hardy.cutoff(t, k),
                             lambda t: hardy.cutoff(t, k) + hardy.cutoff_slope(t, k),
                             fields.power_of(hw.source, (p - 1.0) / p))
    levels = (k ** -2.0, 1.0 / k, k ** (2.0 - 1.0 / math.log(k)), float(k), k ** 2.0)
    radii = sorted(hw.rho_of_v(t)[0] for t in levels)
    scheme = oracles.annulus_scheme(radii[0], radii[-1], n, n_r=256, n_ang=128,
                                    fam=fam, metric="dual", align=radii, order=6)
    energy = oracles.energy(scheme, fam, u, V=lambda x: -hw.weight(x)).total
    assert ns.energies[0] == pytest.approx(energy, rel=1e-3)


def test_null_sequence_range_error():
    hw_small = hardy.build_weight_zero_potential(
        norms.euclidean(2.0, 3),
        fields.DualPowerField(norms.euclidean(2.0, 3)),
        bracket=(0.9, 1.1))
    with pytest.raises(RangeError):
        hardy.null_sequence(hw_small, [4096])


def _levels_inside(hw, levels):
    vmin, vmax = hw.profile_range(hw.v)
    return all(vmin < t < vmax for t in levels)


@pytest.mark.parametrize("p,n,fam", [(2.0, 3, None), (3.0, 2, None), (1.5, 2, None),
                                     (3.0, 2, norms.lp(4, 3.0, 2))])
def test_every_cutoff_member_lies_inside_the_ground_state_range(p, n, fam):
    # the standard weights' check bracket holds every member the suite asks for
    hw = standard_weight(p, n, fam)
    ns = hardy.null_sequence(hw, KS)
    assert (ns.k_list, ns.truncated) == (KS, [])
    assert all(_levels_inside(hw, (k ** -2.0, k ** 2.0)) for k in ns.k_list)
    probe = hardy.optimality_at_infinity_probe(hw, [1e-1, 1e-2], (4, 64, 1024, 4096))
    assert probe["dropped"] == [] and len(probe["table"]) == 8
    assert all(_levels_inside(hw, (r["eps"] / r["k"] ** 4, r["eps"]))
               for r in probe["table"])


def test_members_outside_the_range_are_dropped_not_clipped():
    # on (1e-8, 1e8) the p = 3, n = 2 ground state spans (2.2e-3, 464)
    hw = hardy.build_weight_zero_potential(norms.euclidean(3.0, 2),
                                           fields.DualPowerField(norms.euclidean(3.0, 2)),
                                           bracket=(1e-8, 1e8))
    ns = hardy.null_sequence(hw, [4, 16, 64])
    assert (ns.k_list, ns.truncated) == ([4, 16], [64])
    assert ns.energies == hardy.null_sequence(standard_weight(3.0, 2), [4, 16]).energies
    probe = hardy.optimality_at_infinity_probe(hw, [1.0], (4, 16))
    assert [(r["eps"], r["k"]) for r in probe["table"]] == [(1.0, 4)]
    assert probe["dropped"] == [{"eps": 1.0, "k": 16}]
    assert all(_levels_inside(hw, (r["eps"] / r["k"] ** 4, r["eps"]))
               for r in probe["table"])
    with pytest.raises(RangeError, match="tail level 0.1 keeps none of the members"):
        hardy.optimality_at_infinity_probe(hw, [1.0, 0.1], (4, 16))


@pytest.mark.parametrize("p,n", [(2.0, 3), (3.0, 2)])
def test_a_standard_member_is_integrated_over_its_own_support(p, n, monkeypatch):
    intervals, integral = [], quadrature.radial_integral

    def spy(f, lo, hi, *args, **kwargs):
        intervals.append((lo, hi))
        return integral(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(quadrature, "radial_integral", spy)
    hw = standard_weight(p, n)
    hardy.null_sequence(hw, [16, 4096])
    assert intervals == [tuple(sorted(hw.rho_of_v(t)[0] for t in (k ** 2, k ** -2.0)))
                         for k in (16, 4096)]
    del intervals[:]
    hardy.optimality_at_infinity_probe(hw, [1e-2], (4, 4096))
    # the tail member at eps is phi_k(v scale), scale = k^2 / eps: v from eps/k^4 to eps
    scales = {k: k ** 2 / 1e-2 for k in (4, 4096)}
    assert intervals == [tuple(sorted(hw.rho_of_v(t / s)[0] for t in (k ** 2, 1.0 / k ** 2)))
                         for k, s in scales.items()]


def test_every_capped_member_is_integrated_inside_the_bracket(monkeypatch):
    # capped v vanishes at both ends of the source's domain, so the range floor
    # is no radius bound: k = 64 has 1/k^2 above it but its inner radius at
    # 0.0097656, below the bracket's 0.01, so it is dropped
    intervals, integral = [], quadrature.radial_integral

    def spy(f, lo, hi, *args, **kwargs):
        intervals.append((lo, hi))
        return integral(f, lo, hi, *args, **kwargs)

    monkeypatch.setattr(quadrature, "radial_integral", spy)
    hw = capped_weight()
    ns = hardy.null_sequence(hw, [4, 16, 64, 256])
    assert (ns.k_list, ns.truncated) == ([4, 16], [64, 256])
    blo, bhi = hw.source_bracket
    assert len(intervals) == 2
    assert all(blo <= lo < hi <= bhi for lo, hi in intervals)


def test_energy_positivity_and_ratio_monotonicity():
    for p, n in [(1.5, 2), (2.0, 3), (3.0, 2)]:
        hw = standard_weight(p, n)
        ns = hardy.null_sequence(hw, KS)
        assert all(e > 0.0 for e in ns.energies)
        assert all(r >= 1.0 for r in ns.ratios)
        drops = np.diff(ns.ratios)
        assert np.all(drops <= 0.05)


def test_null_criticality_slope_values():
    hw = standard_weight(2.0, 3)
    nc = hardy.verify_null_criticality(hw, [1e-1, 1e-2, 1e-3, 1e-4], T=1.0)
    assert nc["slope"] == pytest.approx(math.pi, rel=1e-10)
    # doubling T leaves the slope unchanged (divergence is at the tau end)
    nc2 = hardy.verify_null_criticality(hw, [1e-1, 1e-2, 1e-3, 1e-4], T=2.0)
    assert nc2["slope"] == pytest.approx(nc["slope"], rel=1e-9)


def test_capped_lower_bound_rows():
    rows = hardy.capped_null_criticality_lower_bound(capped_weight(), [1e-3, 1e-4])
    assert all(r["ok"] for r in rows)


def test_simplified_energy_bound_p2_equality_structure():
    hw = standard_weight(2.0, 3)
    ns = hardy.null_sequence(hw, [16, 256, 4096])
    est = bregman.verify_bounds(norms.euclidean(2.0, 3), 20000, seed=3)
    rows = hardy.simplified_energy_bound_check(hw, ns, est.c_upper, slack=1.0)
    # p = 2: Q = X exactly and the Bregman envelope is exactly 1
    for r in rows:
        assert r["energy"] <= r["bound"] * (1.0 + 1e-6)
        assert r["energy"] == pytest.approx(r["x_grad"], rel=1e-9)


def test_simplified_energy_bound_p3():
    fam = norms.euclidean(3.0, 2)
    hw = standard_weight(3.0, 2)
    ns = hardy.null_sequence(hw, [16, 256, 4096])
    est = bregman.verify_bounds(fam, 20000, seed=3)
    rows = hardy.simplified_energy_bound_check(hw, ns, est.c_upper)
    assert all(r["ok"] for r in rows)
    assert all(r["x_law_rel_err"] < 0.02 for r in rows)


def test_optimality_probe_structure():
    hw = standard_weight(2.0, 3)
    probe = hardy.optimality_at_infinity_probe(hw, [1e-1, 1e-2],
                                               k_list=(4, 64, 1024))
    for eps, inf_val in probe["infima"].items():
        assert 1.0 - 1e-3 <= inf_val <= 1.10
    # lambda = 1/2 positivity margin
    assert all(r["halfweight_energy"] > 0.0 for r in probe["table"])
    # richer family -> smaller infimum
    by_eps = {}
    for row in probe["table"]:
        by_eps.setdefault(row["eps"], []).append(row["ratio"])
    for ratios in by_eps.values():
        assert ratios == sorted(ratios, reverse=True)
