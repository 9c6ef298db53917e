"""One-dimensional root finder and monotone interpolant, ported from scipy 1.17.1.

``brentq`` is Brent's root finder (R. P. Brent, Algorithms for Minimization
without Derivatives, 1973); ``Pchip`` is the monotone cubic interpolant of
Fritsch and Carlson (SIAM J. Numer. Anal. 17(2), 1980).  Importing
``scipy.optimize`` and ``scipy.interpolate`` costs about 0.3 s of every
process start, so the two are ported here.  Each port performs the same
floating-point operations in the same order as the scipy routine it follows,
so every report stays the same to the last bit; ``tests/test_scalar.py``
checks them against scipy with ``==``.  Where scipy would hand back an
unconverged value or raise a generic error (a NaN function value, brentq out
of iterations), the ports raise ``SolverError``.  Same-signed bracket ends
are still a ``ValueError``, as in scipy.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from .errors import SolverError

_RTOL = 4 * float(np.finfo(float).eps)
_BLOCK = 8192       # Pchip queries per pass: the temporaries stay in cache


def _signbit(v):
    return math.copysign(1.0, v) < 0.0


def brentq(f, a, b, xtol=2e-12, rtol=_RTOL, maxiter=100):
    """A root of f in [a, b], where f(a) and f(b) differ in sign.

    scipy's C ``brentq`` with its wrapper's checks.  The returned point is
    always one that f was evaluated at.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")
    xtol, rtol = float(xtol), float(rtol)       # f sees Python floats, as in scipy

    def call(x):
        fx = float(f(x))
        if fx != fx:
            raise SolverError(f"brentq: the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)      # interpolate
            else:                                                 # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry                           # good short step
            else:
                spre = scur = sbis                                # bisect
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise SolverError(f"brentq did not converge in {maxiter} iterations (x = {xcur!r})",
                      residual=abs(fcur))


class Pchip:
    """Piecewise cubic on increasing breakpoints x, NaN outside [x[0], x[-1]].

    ``Pchip(x, y)`` is the monotone (Fritsch-Carlson) interpolant of
    scipy's ``PchipInterpolator(x, y, extrapolate=False)``: the same node
    derivatives, the same Hermite coefficients ``c`` (highest degree
    first), and the same evaluation: on ``x[i] <= r < x[i+1]`` (the last
    interval closed) with ``s = r - x[i]``, the sum
    ``c[-1] + c[-2] s + c[-3] s^2 + ...`` in that order, as scipy's PPoly.
    """

    def __init__(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        h = np.diff(x)
        if not (x.ndim == 1 and x.shape == y.shape and len(x) >= 2 and np.all(h > 0)
                and np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("Pchip needs finite y at 2 or more increasing, finite x")
        d = _pchip_slopes(h, y)
        slope = np.diff(y) / h
        t = (d[:-1] + d[1:] - 2 * slope) / h
        self._set(x, np.stack((t / h, (slope - d[:-1]) / h - t, d[:-1], y[:-1])))

    @classmethod
    def _from_coefficients(cls, x, c):
        obj = cls.__new__(cls)
        obj._set(x, c)
        return obj

    def _set(self, x, c):
        self.x, self.c = x, c
        self._index = np.arange(len(x), dtype=float)
        self._xl = x.tolist()
        self._cl = c.T.tolist()

    def derivative(self):
        """The derivative, as scipy's ``PPoly.derivative``."""
        factor = np.arange(len(self.c) - 1, 0, -1, dtype=float)
        return Pchip._from_coefficients(self.x, self.c[:-1] * factor[:, None])

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if r.size == 1:
            return np.array(self._scalar(r.item())).reshape(r.shape)
        q = r.ravel()
        x = self.x
        out = np.empty(q.shape)
        outside = None
        if q.size and not (x[0] <= q.min() and q.max() <= x[-1]):   # NaN or outside
            outside = ~((q >= x[0]) & (q <= x[-1]))
            q = np.where(outside, x[0], q)
        for lo in range(0, q.size, _BLOCK):
            self._block(q[lo:lo + _BLOCK], out[lo:lo + _BLOCK])
        if outside is not None:
            out[outside] = np.nan
        return out.reshape(r.shape)

    def _scalar(self, r):
        xl = self._xl
        if not xl[0] <= r <= xl[-1]:
            return math.nan
        i = min(bisect_right(xl, r) - 1, len(xl) - 2)
        s = r - xl[i]
        res, z = 0.0, 1.0
        for ck in reversed(self._cl[i]):
            res = res + ck * z
            z *= s
        return res

    def _block(self, q, res):
        """res[j] = the polynomial of the interval of q[j] at q[j], for q in range."""
        x, c = self.x, self.c
        # np.interp on the breakpoint numbers finds each interval by a local
        # search, fast on mostly sorted queries; its rounding can only give
        # the next interval, which s < 0 reveals
        i = np.interp(q, x, self._index).astype(np.intp)
        np.minimum(i, len(x) - 2, out=i)
        s = x.take(i)
        np.subtract(q, s, out=s)
        low = s < 0.0
        if low.any():
            i[low] -= 1
            s[low] = q[low] - x.take(i[low])
        np.take(c[-1], i, out=res, mode="clip")
        tmp = np.empty_like(s)
        z = np.ones_like(s)
        for k in range(len(c) - 2, -1, -1):
            z *= s
            np.take(c[k], i, out=tmp, mode="clip")
            tmp *= z
            res += tmp
        res += 0.0                  # scipy's sum starts from +0.0: never -0.0


def _pchip_slopes(h, y):
    """Node derivatives of scipy's ``PchipInterpolator._find_derivatives``."""
    m = (y[1:] - y[:-1]) / h
    if len(y) == 2:
        return np.array([m[0], m[0]])
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _pchip_end(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end(h[-1], h[-2], m[-1], m[-2])
    return d


def _pchip_end(h0, h1, m0, m1):
    """One-sided three-point end derivative, limited to keep the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d
