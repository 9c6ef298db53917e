"""The three LAPACK routines of the solvers, from scipy's own extension.

``eigen`` uses ``dpbtrf`` and ``dpbtrs`` for its preconditioner, and the Newton
steps of ``eigen`` and ``green`` use ``dgtsv``.  Importing ``scipy.linalg`` for
them costs about 0.25 s of every start, so scipy's ``_flapack`` is loaded from
its file instead.  Its routines are those of ``scipy.linalg.lapack``, so the
results are bit for bit those of ``solve_banded`` and ``cholesky_banded``.
"""

import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader
from importlib.util import module_from_spec, spec_from_loader

import numpy as np
import scipy

from .errors import SolverError


def _load_flapack():
    where = os.path.join(scipy.__path__[0], "linalg")
    for path in (os.path.join(where, "_flapack" + s) for s in EXTENSION_SUFFIXES):
        if os.path.isfile(path):
            # the init function is found by the last component of the name
            loader = ExtensionFileLoader("finslerhardy._flapack", path)
            module = module_from_spec(spec_from_loader(loader.name, loader))
            loader.exec_module(module)
            sys.modules.pop(loader.name, None)   # single-phase init registers it
            return module
    raise ImportError(f"scipy's LAPACK extension _flapack is not in {where}")


_flapack = _load_flapack()
_dgtsv, _dpbtrf, _dpbtrs = _flapack.dgtsv, _flapack.dpbtrf, _flapack.dpbtrs


def tridiagonal_solve(dl, d, du, b):
    """x with A x = b, A tridiagonal with sub-, main and super-diagonal ``dl``,
    ``d``, ``du``, by LU with partial pivoting; ``b`` has 1 or more columns."""
    if not all(np.isfinite(a).all() for a in (dl, d, du, b)):
        raise SolverError("tridiagonal system has a non-finite entry")
    *_, x, info = _dgtsv(dl, d, du, b)
    if info != 0:
        raise np.linalg.LinAlgError(f"singular matrix: dgtsv info = {info}")
    return x


def band_cholesky(ab):
    """Upper Cholesky factor, in Fortran order, of the SPD band matrix ``ab``
    in upper LAPACK band storage."""
    c, info = _dpbtrf(ab, lower=0)
    if info != 0:
        raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
    return c


def band_cholesky_solve(c, b):
    """x with C^T C x = b for the factor C that ``band_cholesky`` returns."""
    x, info = _dpbtrs(c, b, lower=0)
    if info != 0:
        raise SolverError(f"band Cholesky solve failed: pbtrs info = {info}")
    return x
