import math

import numpy as np
import pytest

from finslerhardy import fields, norms, quadrature

import oracles


def test_constant_integrand_volumes():
    s2 = oracles.annulus_scheme(1.0, 2.0, 2, n_r=128, n_ang=32)
    assert s2.volume == pytest.approx(3.0 * math.pi, rel=1e-8)
    s3 = oracles.annulus_scheme(1.0, 2.0, 3, n_r=128, n_ang=16)
    assert s3.volume == pytest.approx(4.0 * math.pi / 3.0 * 7.0, rel=1e-8)


def test_polar_integrals():
    s = oracles.annulus_scheme(1.0, math.e, 2, n_r=128, n_ang=16)
    val = oracles.integrate(s, lambda x: 1.0 / np.einsum("ij,ij->i", x, x))
    assert val == pytest.approx(2.0 * math.pi, rel=1e-10)
    s3 = oracles.annulus_scheme(1.0, 2.0, 3, n_r=128, n_ang=16)
    val3 = oracles.integrate(s3, lambda x: np.linalg.norm(x, axis=1) ** -3.0)
    assert val3 == pytest.approx(4.0 * math.pi * math.log(2.0), rel=1e-10)


@pytest.mark.parametrize("order", [2, 3, 4])
def test_gauss_panels_integrate_each_row_at_full_order(order):
    # one row of edges or a stack of rows, with uneven panels
    edges = np.array([[0.0, 0.3, 1.0, 1.2], [-1.0, 0.5, 0.75, 2.0]])
    for e in (edges[0], edges):
        x, w = quadrature.gauss_panels(e, order)
        assert x.shape == w.shape == e.shape[:-1] + (order * 3,)
        deg = 2 * order - 1
        exact = (e[..., -1] ** (deg + 1) - e[..., 0] ** (deg + 1)) / (deg + 1)
        assert np.allclose(np.sum(w * x ** deg, axis=-1), exact, rtol=1e-13, atol=1e-14)


def test_radial_integral_agrees_with_full():
    ang = quadrature.angular_measure(3)
    val = quadrature.radial_integral(lambda r: r ** -3.0, 1.0, 2.0, 3, ang, n_r=256)
    assert val == pytest.approx(4.0 * math.pi * math.log(2.0), rel=1e-11)
    # dual gauge: the full scheme on H0-shells with the same angular rule
    fam = norms.lp(4, 3.0, 2)

    def f(r):
        return np.exp(-r) * r ** -1.5

    val2 = quadrature.radial_integral(f, 0.5, 3.0, 2, quadrature.angular_measure(2, fam),
                                      n_r=256, order=4)
    full = oracles.annulus_scheme(0.5, 3.0, 2, n_r=256, n_ang=96, fam=fam, metric="dual")
    ref = oracles.integrate(full, lambda x: f(norms.dual_norm(fam, x)))
    assert val2 == pytest.approx(ref, rel=1e-12)
    # a tuple integrand gives each integral on the same nodes, bit for bit
    pair = quadrature.radial_integral(lambda r: (r ** -3.0, np.sqrt(r)), 1.0, 2.0, 3, ang)
    assert pair == (quadrature.radial_integral(lambda r: r ** -3.0, 1.0, 2.0, 3, ang),
                    quadrature.radial_integral(np.sqrt, 1.0, 2.0, 3, ang))


def test_dual_metric_shell_volume():
    # dual of lp(4) is lp(4/3); 2D lp(q) ball area = 4 G(1+1/q)^2 / G(1+2/q)
    fam = norms.lp(4, 2.0, 2)
    V0 = quadrature.unit_ball_volume(2, fam, n_ang=512)
    q = 4.0 / 3.0
    exact = 4.0 * math.gamma(1 + 1 / q) ** 2 / math.gamma(1 + 2 / q)
    assert V0 == pytest.approx(exact, rel=5e-4)
    sd = oracles.annulus_scheme(1.0, 2.0, 2, fam=fam, metric="dual", n_ang=512)
    assert sd.volume == pytest.approx(3.0 * V0, rel=1e-10)


def test_gauge_paths_are_pinned_bit_for_bit():
    # H0-gauge angular factor, equal to its value before the gauge became one
    # value.  H0-shell level flux with grad G = G'(rho) grad H0(Theta) from the
    # shell geometry, so one dual solve; it rounds 2 ulp from the field's own
    # gradient at rho * Theta.  Shell-patch weak residual with grad u and the
    # flux map taken per ray, a = sign(g') |g'|^(p-1) a(grad H0(Theta)), and the
    # bump from each ray's chord, a.grad phi = s fac (rho a.Theta - a.c); it
    # rounds differently from a(x, grad u).grad phi(x) at every node, both
    # about 1e-17 (the per-node form gave 0x1.40d9f27f04d16p-57)
    assert quadrature.angular_measure(2, norms.lp(4, 3, 2)).hex() == "0x1.45621f1edb804p+2"
    mix = norms.mixed(4, [[4.0, 0.0], [0.0, 9.0]], 1.5)
    G = fields.DualPowerField(mix)
    flux = fields.level_set_flux(mix, G, fields.annulus(1e-5, 1e5, 2), 1.0)
    assert flux.hex() == "0x1.931748c14d1e4p+5"
    lp4 = norms.lp(4, 3.0, 2)
    G = fields.DualPowerField(lp4)
    res = fields.weak_residual(lp4, G, fields.annulus(0.1, 10.0, 2), n_tests=10, seed=7)
    assert res.hex() == "0x1.6733cfa2a386fp-55"


def test_richardson_order_radial():
    vals = []
    for n_r in (8, 16, 32):
        s = oracles.annulus_scheme(1.0, 4.0, 2, n_r=n_r, n_ang=16, order=2)
        vals.append(oracles.integrate(
            s, lambda x: np.exp(-np.linalg.norm(x, axis=1))))
    e1 = abs(vals[0] - vals[2])
    e2 = abs(vals[1] - vals[2])
    order = math.log2(e1 / e2)
    assert order >= 1.9


def test_poisoned_integrand_names_node():
    s = oracles.annulus_scheme(1.0, 2.0, 2, n_r=16, n_ang=8)

    def bad(x):
        out = np.ones(len(x))
        out[3] = np.nan
        return out

    with pytest.raises(ValueError, match=r"nan at node \["):
        oracles.integrate(s, bad)


def test_energy_breakdown_and_scaling():
    fam = norms.euclidean(2.0, 3)
    s = oracles.annulus_scheme(0.5, 4.0, 3, n_r=256, n_ang=16)
    bump = fields.Bump(np.array([0.0, 0.0, 1.5]), 0.5, 1.0)
    eb = oracles.energy(s, fam, bump, V=lambda x: np.ones(len(x)))
    assert eb.total == pytest.approx(eb.dirichlet + eb.potential, rel=1e-12)
    big = fields.Bump(np.array([0.0, 0.0, 1.5]), 0.5, 2.0)
    eb2 = oracles.energy(s, fam, big)
    assert eb2.dirichlet == pytest.approx(2.0 ** fam.p * eb.dirichlet, rel=1e-10)


def test_energy_margin_error():
    fam = norms.euclidean(2.0, 3)
    s = oracles.annulus_scheme(0.5, 2.0, 3, n_r=64, n_ang=8)
    touching = fields.Bump(np.array([0.0, 0.0, 1.5]), 0.6, 1.0)
    with pytest.raises(ValueError, match="touches the shell"):
        oracles.energy(s, fam, touching, margin=0.0)


def test_radial_hat_energy_against_1d_oracle():
    # smooth radial test function: compare the full 3D quadrature with the
    # adaptive 1D oracle int |phi'(r)|^p r^(n-1) dr times the sphere area
    fam = norms.euclidean(2.0, 3)
    c, rho = 2.0, 0.8

    def prof(r):
        z = (np.asarray(r, dtype=float) - c) / rho
        out = np.zeros_like(z)
        inside = np.abs(z) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - z[inside] ** 2))
        return out

    def dprof(r):
        z = (np.asarray(r, dtype=float) - c) / rho
        out = np.zeros_like(z)
        inside = np.abs(z) < 1.0
        val = np.exp(1.0 - 1.0 / (1.0 - z[inside] ** 2))
        out[inside] = val * (-2.0 * z[inside] / (1.0 - z[inside] ** 2) ** 2) / rho
        return out

    hat = fields.RadialProfileField(prof, dprof)
    s = oracles.annulus_scheme(0.5, 4.0, 3, n_r=512, n_ang=16,
                                  align=(c - rho, c + rho))
    eb = oracles.energy(s, fam, hat)
    oracle = oracles.radial_energy_1d(lambda r: float(dprof(np.asarray([r]))[0]),
                                      2.0, 3, c - rho, c + rho)
    assert eb.dirichlet == pytest.approx(oracle, rel=1e-6)
    # constant plateau region contributes nothing to the Dirichlet part
    plateau = fields.RadialProfileField(lambda r: np.ones_like(np.asarray(r)),
                                        lambda r: np.zeros_like(np.asarray(r)))
    assert oracles.energy(s, fam, plateau).dirichlet == 0.0


def test_disjoint_support_additivity():
    fam = norms.euclidean(2.0, 3)
    s = oracles.annulus_scheme(0.5, 8.0, 3, n_r=512, n_ang=16)
    b1 = fields.Bump(np.array([0.0, 0.0, 1.5]), 0.4, 1.0)
    b2 = fields.Bump(np.array([0.0, 0.0, 5.0]), 0.8, 1.0)

    class Sum(fields.ScalarField):
        support = (b1.support[0], b2.support[1])

        def __call__(self, x):
            return b1(x) + b2(x)

        def grad(self, x):
            return b1.grad(x) + b2.grad(x)

    e12 = oracles.energy(s, fam, Sum()).dirichlet
    e1 = oracles.energy(s, fam, b1).dirichlet
    e2 = oracles.energy(s, fam, b2).dirichlet
    assert e12 == pytest.approx(e1 + e2, rel=1e-10)
