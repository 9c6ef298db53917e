import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from finslerhardy import acceptance, bregman, norms
from finslerhardy.errors import UnsupportedKindError

import oracles

A2 = np.array([[4.0, 0.0], [0.0, 9.0]])


def test_trivial_values():
    fe3 = norms.euclidean(3, 2)
    d = bregman.bregman_distance(fe3, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    assert float(d) == pytest.approx(4.0)         # 2^3 - 1 - 3
    d0 = bregman.bregman_distance(fe3, np.array([1.0, 2.0]), np.zeros(2))
    assert float(d0) == 0.0


def test_p2_euclidean_is_eta_squared_exactly():
    fam = norms.euclidean(2, 3)
    xi = norms.sample_vectors(3, 3000, 1, stream=1)
    eta = norms.sample_vectors(3, 3000, 1, stream=2)
    d = bregman.bregman_distance(fam, xi, eta)
    assert np.abs(d / np.sum(eta * eta, axis=1) - 1.0).max() < 1e-11


def test_stable_path_matches_direct_formula():
    rng = np.random.default_rng(5)
    for fam in [norms.euclidean(3.0, 2), norms.quadratic(A2, 1.5)]:
        xi = rng.standard_normal((2000, 2))
        eta = rng.standard_normal((2000, 2))
        a, hp = norms.operator_a(fam, None, xi)
        direct = norms.norm_eval(fam, None, xi + eta) ** fam.p - hp \
            - fam.p * np.einsum("ij,ij->i", a, eta)
        stable = bregman.bregman_distance(fam, xi, eta)
        assert np.abs(stable / direct - 1.0).max() < 1e-8


@given(st.floats(0.01, 100.0))
def test_scale_covariance(t):
    # D(t xi + t eta, t xi) = t^p D(xi + eta, xi)
    fam = norms.mixed(4, A2, 2.5)
    xi = np.array([1.3, -0.4])
    eta = np.array([0.2, 0.9])
    d1 = float(bregman.bregman_distance(fam, t * xi, t * eta))
    d0 = float(bregman.bregman_distance(fam, xi, eta))
    assert d1 == pytest.approx(t ** fam.p * d0, rel=1e-10)


def test_nonnegativity_and_strictness():
    for spec, p in [("lp:s=4", 1.5), ("quad:[[4,0],[0,9]]", 3.0),
                    ("mix:s=4;A=[[4,0],[0,9]]", 2.0)]:
        fam = norms.parse_family(spec, p, 2)
        xi = norms.sample_vectors(2, 5000, 7, stream=3)
        eta = norms.sample_vectors(2, 5000, 7, stream=4)
        d = bregman.bregman_distance(fam, xi, eta)
        assert d.min() > 0.0
        small = np.abs(bregman.bregman_distance(fam, xi, 0.0 * eta))
        assert small.max() == 0.0


def test_verify_bounds_p2_exact():
    est = bregman.verify_bounds(norms.euclidean(2, 3), 50000, seed=7)
    assert abs(est.c_lower - 1.0) < 1e-10
    assert abs(est.c_upper - 1.0) < 1e-10
    assert est.skipped == 0


def test_verify_bounds_reproducible_and_witnessed():
    fam = norms.mixed(4, A2, 3.0)
    e1 = bregman.verify_bounds(fam, 20000, seed=42)
    e2 = bregman.verify_bounds(fam, 20000, seed=42)
    assert e1.c_lower == e2.c_lower and e1.c_upper == e2.c_upper
    xi = np.array(e1.witness_upper["xi"])
    eta = np.array(e1.witness_upper["eta"])
    d = float(bregman.bregman_distance(fam, xi, eta))
    assert d == pytest.approx(e1.witness_upper["d"], rel=1e-12)
    assert d / e1.witness_upper["ref"] == pytest.approx(e1.c_upper, rel=1e-12)


def test_mixed_upper_envelope_vs_parts():
    # the example's proof combines the two upper bounds additively, so the
    # mixed envelope is controlled by twice the worse part (one-sided: the
    # mixed reference norm dominates each part's, so the mixed envelope can
    # legitimately sit far below the parts)
    for p in (1.5, 2.0, 3.0):
        cu_mix = bregman.verify_bounds(norms.mixed(4, A2, p), 50000, seed=3).c_upper
        cu_lp = bregman.verify_bounds(norms.lp(4, p, 2), 50000, seed=3).c_upper
        cu_qu = bregman.verify_bounds(norms.quadratic(A2, p), 50000, seed=3).c_upper
        assert cu_mix <= 2.0 * max(cu_lp, cu_qu)


def test_weighted_kind_rejected():
    wf = norms.weighted(1.0, norms.lp(4, 2, 2))
    with pytest.raises(UnsupportedKindError):
        bregman.verify_bounds(wf, 100, seed=0)
    with pytest.raises(UnsupportedKindError):
        bregman.bregman_distance(wf, np.ones((3, 2)), np.ones((3, 2)))


def _oracle_rows(seed, count=100_000):
    """The suite's samples at ``seed``: the 30 rows with the least |eta|/|xi|, the 5
    with the largest and 10 spread between."""
    xi = norms.sample_vectors(2, count, seed, 3, stream=1)
    eta = norms.sample_vectors(2, count, seed, 3, stream=2)
    order = np.argsort(np.linalg.norm(eta, axis=1) / np.linalg.norm(xi, axis=1))
    spread = order[np.linspace(30, count - 6, 10).astype(int)]
    rows = np.concatenate([order[:30], order[-5:], spread])
    return xi[rows], eta[rows]


@pytest.mark.parametrize("kind", ["lp4", "mix", "quad", "euclidean"])
def test_distance_matches_a_60_digit_oracle(kind):
    # the direct difference H(xi+eta)^p - H(xi)^p - p a(xi).eta read relative
    # errors of 6.9e-3 (lp4) and 1.5e-3 (mix) on these rows, and at seed
    # 1183103791 a negative distance, c_lower = -2.3e6; each part's split is
    # exact to a few hundred ulp
    for seed in (1, 7, 1183103791):   # the suite's seeds; its samples are at seed + 32
        xi, eta = _oracle_rows(seed + 32)
        for p in acceptance.BREGMAN_PS:
            fam = acceptance._family(kind, p, 2)
            d = bregman.bregman_distance(fam, xi, eta)
            ref = oracles.mp_bregman_distance(fam, xi, eta)
            assert d.min() > 0.0, (seed, p)
            assert np.abs(d / ref - 1.0).max() <= 1e-11, (seed, p)


@pytest.mark.parametrize("s", [30.0, 200.0])
def test_large_s_keeps_the_distance_finite_and_positive(s):
    # a power-of-two scale per row keeps |xi_i|^s finite; on these rows the direct
    # difference read a relative error of 1.1 at s = 30 and two nonpositive
    # distances at s = 200
    fam = norms.lp(s, 1.5, 2)
    xi = norms.sample_vectors(2, 100_000, 5, 3, stream=1)
    eta = norms.sample_vectors(2, 100_000, 5, 3, stream=2)
    d = bregman.bregman_distance(fam, xi, eta)
    assert np.all(np.isfinite(d)) and d.min() > 0.0
    if s == 30.0:
        rows = np.argsort(np.linalg.norm(eta, axis=1) / np.linalg.norm(xi, axis=1))[::2000]
        ref = oracles.mp_bregman_distance(fam, xi[rows], eta[rows])
        assert np.abs(d[rows] / ref - 1.0).max() <= 1e-11


@pytest.mark.parametrize("p", [0.375, 0.5, 0.75, 1.0, 1.5, 2.0])
def test_pow_bregman_on_both_sides_of_its_switch(p):
    # g_p(delta) = |1+delta|^p - 1 - p delta: the series below |delta| = 1e-2 and
    # expm1(p log|1+delta|) above it; exponents below 1 are the outer q = p/s
    delta = np.concatenate([s * np.geomspace(1e-8, 0.5, 41) for s in (1.0, -1.0)]
                           + [[0.00999, 0.01, 0.01001, -0.00999, -0.01, -1.5, -3.0, 4.0]])
    g = bregman._pow_bregman(p, delta)
    with mpmath.workdps(60):
        ref = np.array([float(abs(1 + mpmath.mpf(x)) ** p - 1 - p * mpmath.mpf(x))
                        for x in delta])
    if p == 1.0:
        assert np.all(g == 0.0)
        return
    err = np.abs(g / ref - 1.0)
    small = np.abs(delta) < 1e-2
    assert err[small].max() <= 1e-15
    # above the switch |1+delta|^p - 1 - p delta would lose ~1e-11 at delta = 1e-2
    assert err[~small].max() <= 2e-13


def test_lp4_lower_envelope_has_zero_infimum():
    """Explicit witness of the axis degeneracy (see README, known honest failures)."""
    fam = norms.lp(4, 3.0, 2)
    xi = np.array([1.0, 0.0])
    for t in (1e-1, 1e-2, 1e-3):
        eta = np.array([0.0, t])
        d = float(bregman.bregman_distance(fam, xi, eta))
        ratio = d / bregman.lower_reference(fam, xi, eta)
        # D ~ (p/4) t^4 while |eta|^p = t^3: the ratio vanishes linearly
        assert ratio == pytest.approx(0.75 * t, rel=0.05)
