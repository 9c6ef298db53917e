"""The ports of scalar.py against scipy, bit for bit.

scipy is the oracle here only; the package itself does not import
``scipy.optimize`` or ``scipy.interpolate``.  Every comparison is ``==``
(NaN-aware, and with the sign of zero), never a tolerance.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.optimize import brentq as scipy_brentq

from finslerhardy import cli, eigen, fields, green, scalar
from finslerhardy.errors import SolverError

EPS4 = 4 * np.finfo(float).eps


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.shape == b.shape and np.array_equal(a, b, equal_nan=True)
            and np.array_equal(np.signbit(a), np.signbit(b)))


# ---------------------------------------------------------------------------
# Pchip
# ---------------------------------------------------------------------------

# flat segments come from repeated values, sign changes from mixed signs
values = st.one_of(st.floats(-10.0, 10.0), st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]))


@st.composite
def samples(draw, min_size=2):
    gaps = draw(st.lists(st.floats(1e-3, 10.0), min_size=min_size - 1, max_size=40))
    x = draw(st.floats(-5.0, 5.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    x = np.unique(x)
    if len(x) < 2:
        x = np.array([0.0, 1.0])
    y = np.array(draw(st.lists(values, min_size=len(x), max_size=len(x))))
    return x, y


def queries(x, rng):
    mids = 0.5 * (x[1:] + x[:-1])
    return np.concatenate([x, mids, [x[0], x[-1], np.nan, x[0] - 1.0, x[-1] + 1.0],
                           np.nextafter(x, -np.inf), np.nextafter(x, np.inf),
                           rng.uniform(x[0] - 0.5, x[-1] + 0.5, 200),
                           np.sort(rng.uniform(x[0], x[-1], scalar._BLOCK))])   # > 1 block


@given(samples(), st.integers(0, 2 ** 32 - 1))
def test_pchip_is_scipys_pchip_bit_for_bit(data, seed):
    x, y = data
    theirs = PchipInterpolator(x, y, extrapolate=False)
    ours = scalar.Pchip(x, y)
    assert same(ours.c, theirs.c)
    q = queries(x, np.random.default_rng(seed))
    for mine, ref in ((ours, theirs), (ours.derivative(), theirs.derivative())):
        assert same(mine(q), ref(q))
        assert same(mine(q[:21].reshape(7, 3)), ref(q[:21].reshape(7, 3)))
        for r in q[:12]:
            assert same(mine(r), ref(r))                # 0-d in, 0-d out
            assert same(mine(float(r)), ref(float(r)))
            assert same(mine([r]), ref([r]))
        assert same(mine(q[:0]), ref(q[:0]))


@given(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0), st.floats(1e-3, 10.0))
def test_pchip_on_two_points_is_linear_as_in_scipy(y0, y1, h):
    x, y = np.array([1.0, 1.0 + h]), np.array([y0, y1])
    theirs = PchipInterpolator(x, y, extrapolate=False)
    ours = scalar.Pchip(x, y)
    q = np.array([x[0], x[0] + 0.3 * h, x[1], x[1] + 1.0])
    assert same(ours(q), theirs(q))
    assert same(ours.derivative()(q), theirs.derivative()(q))


def test_pchip_refuses_bad_samples():
    with pytest.raises(ValueError):
        scalar.Pchip([0.0], [1.0])
    with pytest.raises(ValueError):
        scalar.Pchip([0.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        scalar.Pchip([0.0, 1.0], [1.0, np.nan])


def test_green_profile_is_scipys_pchip():
    gp = green.solve_green(green.RadialProblem(
        p=2.0, n=3, phi=green.BumpDensity(0.5, 1.0, 1.0, 3), R_out=60.0, n_cells=512))
    theirs = PchipInterpolator(gp.r, gp.u, extrapolate=False)
    r = np.geomspace(gp.r[0], gp.r[-1], 20001)
    assert same(gp.profile(r), theirs(r))
    assert same(gp.dprofile(r), theirs.derivative()(r))


# ---------------------------------------------------------------------------
# brentq
# ---------------------------------------------------------------------------

def both_brentq(f, a, b, **kw):
    """(ours, scipy's) result or exception type; ours must return a point it evaluated."""
    calls = []

    def counted(x):
        calls.append(x)
        return f(x)

    try:
        ours = scalar.brentq(counted, a, b, **kw)
        assert ours in calls
    except (ValueError, SolverError) as exc:
        ours = type(exc)
    try:
        theirs = scipy_brentq(f, a, b, **kw)
    except RuntimeError:
        theirs = SolverError                     # scipy's unconverged case
    except ValueError:
        theirs = ValueError
    return ours, theirs


#: the call sites' tolerances: green (1e-14 * hi, and 1e-14 in the far-field fit),
#: fields (with rtol 8.9e-16), eigen (xtol * L, quick and full grids, and the
#: gap-battery test)
TOLERANCES = [dict(xtol=1e-14 * 60.0), dict(xtol=1e-14), dict(xtol=1e-14 * 60.0, rtol=8.9e-16),
              dict(xtol=1e-9), dict(xtol=1e-5), dict(xtol=3e-4), dict()]


@given(st.floats(-0.9, 0.9), st.integers(1, 7), st.floats(-12.0, 12.0),
       st.sampled_from(TOLERANCES))
def test_brentq_is_scipys_brentq(root, power, log_scale, tol):
    scale = 10.0 ** log_scale                    # steep and flat alike

    def f(x):
        d = x - root
        return scale * math.copysign(abs(d) ** power, d) + 1e-3 * math.sin(7.0 * x)

    ours, theirs = both_brentq(f, -1.0, 1.5, **tol)
    assert ours == theirs


@pytest.mark.parametrize("tol", TOLERANCES)
def test_brentq_roots_at_the_ends(tol):
    for a, b in ((0.25, 2.0), (-2.0, 0.25)):
        ours, theirs = both_brentq(lambda x: x - 0.25, a, b, **tol)
        assert ours == theirs == 0.25
    ours, theirs = both_brentq(lambda x: (x - 1.0) ** 3, 1.0, 3.0, **tol)
    assert ours == theirs == 1.0


def test_brentq_call_sites_match_scipy(monkeypatch):
    seen = []

    def checked(f, a, b, **kw):
        ours = scalar.brentq(f, a, b, **kw)
        seen.append((ours, scipy_brentq(f, a, b, **kw)))
        return ours

    for mod in (green, fields, eigen):
        monkeypatch.setattr(mod, "brentq", checked)
    gp = green.solve_green(green.RadialProblem(
        p=2.0, n=3, phi=green.BumpDensity(0.5, 1.0, 1.0, 3), R_out=60.0, n_cells=512))
    t = float(gp.u[-1]) * 10.0
    gp.radius_of_level(t)
    gp.field().radial_inverse(t)
    green.farfield_exponent(gp)
    # the nodal solves are cached by zero position, so scipy's run re-reads them
    eigen.second_eigenvalue_and_gap(eigen.EigenProblem(p=3.0, L=1.0, N=96, seed=7),
                                    restarts=2, xtol=1e-5)
    assert len(seen) == 4 and all(ours == theirs for ours, theirs in seen)


def test_brentq_keeps_scipys_argument_and_sign_errors():
    with pytest.raises(ValueError, match="different signs"):
        scalar.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(ValueError, match="xtol"):
        scalar.brentq(lambda x: x, -1.0, 1.0, xtol=0.0)
    with pytest.raises(ValueError, match="rtol"):
        scalar.brentq(lambda x: x, -1.0, 1.0, rtol=EPS4 / 2)


def test_brentq_nan_is_a_solver_error():
    with pytest.raises(SolverError, match="NaN"):
        scalar.brentq(lambda x: math.nan if x > 0.5 else x - 0.7, 0.0, 1.0)


def test_brentq_out_of_iterations_is_a_solver_error():
    with pytest.raises(SolverError, match="did not converge"):
        scalar.brentq(lambda x: x ** 3 - 0.3, 0.0, 1.0, xtol=1e-15, maxiter=3)


# ---------------------------------------------------------------------------
# a NaN from a solver's function is a numeric failure: exit 3, not 2
# ---------------------------------------------------------------------------

def test_nan_green_profile_exits_3(tmp_path, monkeypatch, capsys):
    profile = green.GreenPotential.profile

    def nan_far_field(self, r):
        u = profile(self, r)
        return np.where(np.asarray(r) > 2.0 * self.problem.phi.r_b, np.nan, u)

    monkeypatch.setattr(green.GreenPotential, "profile", nan_far_field)
    prob = tmp_path / "prob.json"
    prob.write_text('{"p": 2.0, "n": 3, "phi": {"r_a": 0.5, "r_b": 1.0, "mass": 1.0}, '
                    '"R_out": 60.0, "mesh": 512}')
    assert cli.main(["green", "--problem", str(prob), "--out", str(tmp_path / "g.json")]) == 3
    assert "NaN" in capsys.readouterr().err
