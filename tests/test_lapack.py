"""lapack.py against scipy.linalg, bit for bit.

scipy.linalg is the oracle here only.  It is imported after the package has
loaded its own copy of scipy's LAPACK extension, so both copies of the
extension run in this one process.  Every comparison is ``==``.
"""

import sys

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import cholesky_banded, get_lapack_funcs, solve_banded

from finslerhardy import cli, eigen, green, lapack
from finslerhardy.errors import SolverError

SIZES = (64, 127, 512, 1024)


def _rhs(rng, n, nrhs):
    # two columns as the eigen Newton step builds them: a Fortran array
    return rng.standard_normal(n) if nrhs == 1 else np.array(
        [rng.standard_normal(n), rng.standard_normal(n)]).T


def _tridiagonal(rng, n, pivoting):
    dl, du = rng.standard_normal(n - 1), rng.standard_normal(n - 1)
    if pivoting:
        d = 1e-3 * rng.standard_normal(n)      # |dl| >> |d|: rows are swapped
    else:
        d = np.abs(np.r_[dl, 0.0]) + np.abs(np.r_[0.0, du]) + 1.0 + rng.random(n)
    return dl, d, du


def test_the_extension_is_a_private_second_copy():
    assert lapack._flapack is not scipy.linalg._flapack
    assert lapack._dgtsv is not scipy.linalg.lapack.dgtsv
    assert "finslerhardy._flapack" not in sys.modules


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("nrhs", (1, 2))
@pytest.mark.parametrize("pivoting", (False, True))
def test_tridiagonal_solve_is_solve_banded(n, nrhs, pivoting):
    rng = np.random.default_rng([n, nrhs, pivoting])
    dl, d, du = _tridiagonal(rng, n, pivoting)
    b = _rhs(rng, n, nrhs)
    ab = np.array([np.r_[0.0, du], d, np.r_[dl, 0.0]])
    inputs = [a.copy() for a in (dl, d, du, b)]
    x = lapack.tridiagonal_solve(dl, d, du, b)
    assert x.shape == b.shape
    assert np.array_equal(x, solve_banded((1, 1), ab, b))
    assert all(np.array_equal(a, c) for a, c in zip((dl, d, du, b), inputs))
    # dgtsv's second superdiagonal is fill-in from row interchanges only
    fill = scipy.linalg.lapack.dgtsv(dl, d, du, b)[0]
    assert np.any(fill[: n - 2] != 0.0) == pivoting


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("nrhs", (1, 2))
def test_band_cholesky_is_cholesky_banded_and_pbtrs(n, nrhs):
    rng = np.random.default_rng([n, nrhs])
    off = rng.standard_normal(n - 1)
    ab = np.array([np.r_[0.0, off], np.abs(np.r_[off, 0.0]) + np.abs(np.r_[0.0, off])
                   + rng.random(n)])
    c = lapack.band_cholesky(ab)
    assert c.flags.f_contiguous
    assert np.array_equal(c, cholesky_banded(ab, lower=False))
    b = _rhs(rng, n, nrhs)
    pbtrs, = get_lapack_funcs(("pbtrs",), (c,))
    assert np.array_equal(lapack.band_cholesky_solve(c, b), pbtrs(c, b, lower=0)[0])


def test_failures_are_classified():
    with pytest.raises(np.linalg.LinAlgError, match="singular matrix"):
        lapack.tridiagonal_solve(np.ones(3), np.zeros(4), np.zeros(3), np.ones(4))
    with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
        lapack.band_cholesky(np.array([[0.0, 2.0], [1.0, 1.0]]))
    for i in range(4):
        args = [np.ones(3), np.full(4, 3.0), np.ones(3), np.ones(4)]
        args[i] = args[i].copy()
        args[i][1] = (np.nan, np.inf, -np.inf, np.nan)[i]
        with pytest.raises(SolverError, match="non-finite"):
            lapack.tridiagonal_solve(*args)


# ---------------------------------------------------------------------------
# a non-finite tridiagonal system is a numeric failure: exit 3, not 2
# ---------------------------------------------------------------------------

def test_nan_eigen_jacobian_band_exits_3(monkeypatch, capsys):
    bands = eigen._Disc.jacobian_bands

    def nan_main(self, s):
        dl, d, du = bands(self, s)
        return dl, np.full_like(d, np.nan), du

    monkeypatch.setattr(eigen._Disc, "jacobian_bands", nan_main)
    assert cli.main(["eigen", "--p", "3", "--grid", "128"]) == 3
    assert "non-finite" in capsys.readouterr().err


def test_nan_green_band_exits_3(tmp_path, monkeypatch, capsys):
    assemble = green._assemble

    def nan_main(prob, mesh, u, p, jac=True):
        F, bands = assemble(prob, mesh, u, p, jac)
        if bands is not None:
            bands = (bands[0], np.full_like(bands[1], np.nan), bands[2])
        return F, bands

    monkeypatch.setattr(green, "_assemble", nan_main)
    prob = tmp_path / "prob.json"
    prob.write_text('{"p": 3.0, "n": 3, "phi": {"r_a": 0.5, "r_b": 1.0, "mass": 1.0}, '
                    '"R_out": 60.0, "mesh": 512}')
    assert cli.main(["green", "--problem", str(prob), "--out", str(tmp_path / "g.json")]) == 3
    assert "non-finite" in capsys.readouterr().err
