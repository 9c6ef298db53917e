"""Deterministic quadrature rules on punctured radial domains.

The rules are a geometric (log-spaced) radial grid, integrated by composite
Gauss-Legendre panels in log r, and smooth angular rules: equispaced
trapezoid on the circle for n = 2 and a product Gauss-Legendre(cos theta)
x trapezoid(phi) rule for n = 3.

The radial gauge is one value: ``None`` (the coordinate is |x| and shells
are round spheres) or an x-independent family (the coordinate is its dual
norm H0 and shells are H0-spheres).  Only this module tells the two apart,
through :func:`_round`; :func:`radius`, :func:`radius_and_grad` and
:func:`shell_geometry` answer for either.  On H0-shells
:func:`_dual_shell_geometry` maps directions to
``Theta(omega) = omega / H0(omega)`` with the exact angular Jacobian
``J(omega) = |det[Theta, d Theta]| / dsigma``.

Integrands that are functions of the radial coordinate alone (any
dimension n >= 2) take :func:`radial_integral`: one log-radial rule times
the exact angular factor :func:`angular_measure` (surface area, resp.
n * vol of the H0 unit ball).
"""
from __future__ import annotations

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import norms
from .errors import DomainError

_gauss = functools.cache(leggauss)


def gauss_panels(edges, order):
    """Composite Gauss-Legendre rule of the given order on the panels between
    consecutive entries of the last axis of ``edges``.

    Returns ``(x, w)``: the nodes and weights of each row, panel by panel,
    with shape ``edges.shape[:-1] + (order * n_panels,)``.
    """
    gx, gw = _gauss(order)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    half = 0.5 * (edges[..., 1:] - edges[..., :-1])
    shape = edges.shape[:-1] + (-1,)
    return ((mid[..., None] + half[..., None] * gx).reshape(shape),
            (half[..., None] * gw).reshape(shape))


def log_radial_rule(r0, r1, n_r, align, order):
    """Composite Gauss panels in t = log r over [r0, r1].

    Returns ``(r, w)`` with ``sum w_i f(r_i) ~ int_r0^r1 f(r) dr``.  Panel
    boundaries are geometric with any ``align`` radii inserted, so piecewise
    smooth integrands with known breakpoints are integrated at full order.
    """
    if not (0.0 < r0 < r1):
        raise ValueError(f"need 0 < r0 < r1, got ({r0}, {r1})")
    n_panels = max(2, int(n_r) // order)
    edges = np.geomspace(r0, r1, n_panels + 1)
    extra = [a for a in align if r0 < a < r1]
    if extra:
        # sorted and deduplicated as np.unique would, which imports numpy.ma
        edges = np.sort(np.concatenate([edges, np.asarray(extra, dtype=float)]))
        edges = edges[np.concatenate([[True], edges[1:] != edges[:-1]])]
    t, wt = gauss_panels(np.log(edges), order)
    r = np.exp(t)
    return r, wt * r  # dr = r dt


def circle_rule(n_ang):
    theta = 2.0 * math.pi * np.arange(n_ang) / n_ang
    omega = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
    w = np.full(n_ang, 2.0 * math.pi / n_ang)
    return omega, w


def sphere_rule(n_ang):
    """Product rule on S^2: Gauss-Legendre in cos(theta) x trapezoid in phi."""
    mu, wmu = _gauss(n_ang)
    phi = 2.0 * math.pi * np.arange(2 * n_ang) / (2 * n_ang)
    wphi = 2.0 * math.pi / (2 * n_ang)
    st = np.sqrt(1.0 - mu ** 2)
    omega = np.stack(
        [
            np.outer(st, np.cos(phi)).ravel(),
            np.outer(st, np.sin(phi)).ravel(),
            np.outer(mu, np.ones_like(phi)).ravel(),
        ],
        axis=-1,
    )
    w = np.outer(wmu, np.full_like(phi, wphi)).ravel()
    return omega, w


def _dual_shell_geometry(fam, omega):
    """Theta(omega) = omega/H0(omega), the Jacobian J, and grad H0(Theta).

    J is computed from the exact differential of Theta using grad H0, so the
    mapped product rule integrates smooth functions at the underlying
    angular order.  grad H0 is 0-homogeneous: its value at omega is its
    value along the whole ray through Theta, from one dual solve.
    """
    h0, g0 = norms.dual(fam, omega)
    theta = omega / h0[..., None]
    n = omega.shape[-1]
    if n == 2:
        # tangent d(omega)/dt = rotate90(omega)
        om_t = np.stack([-omega[..., 1], omega[..., 0]], axis=-1)
        dtheta = om_t / h0[..., None] - theta * (
            np.einsum("...i,...i->...", g0, om_t) / h0
        )[..., None]
        J = np.abs(theta[..., 0] * dtheta[..., 1] - theta[..., 1] * dtheta[..., 0])
    elif n == 3:
        # orthonormal tangent basis at omega
        ref = np.where(np.abs(omega[..., 2:3]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
        t1 = np.cross(ref, omega)
        t1 /= np.linalg.norm(t1, axis=-1, keepdims=True)
        t2 = np.cross(omega, t1)

        def push(t):
            return t / h0[..., None] - theta * (
                np.einsum("...i,...i->...", g0, t) / h0
            )[..., None]

        d1, d2 = push(t1), push(t2)
        J = np.abs(np.einsum("...i,...i->...", theta, np.cross(d1, d2)))
    else:
        raise ValueError("dual shells are parametrized for n in {2, 3}")
    return theta, J, g0


def _round(gauge):
    """True when the radial coordinate of the gauge is |x|."""
    return gauge is None or gauge.kind == "euclidean"


def radius(gauge, x):
    """The radial coordinate of points x: |x|, or H0(x) of the gauge."""
    x = np.asarray(x, dtype=float)
    if _round(gauge):
        return np.linalg.norm(x, axis=-1)
    return norms.dual_norm(gauge, x)


def radius_and_grad(gauge, x):
    """The radial coordinate of points x and its gradient, from one norm or
    :func:`norms.dual` pass; either gauge refuses x = 0."""
    x = np.asarray(x, dtype=float)
    if _round(gauge):
        r = np.linalg.norm(x, axis=-1)
        if np.any(r == 0.0):
            raise DomainError("|x| is not differentiable at 0")
        return r, x / r[..., None]
    return norms.dual(gauge, x)


def shell_geometry(gauge, omega):
    """(Theta, J, grad rho(Theta), |grad rho(Theta)|) of the unit shell over
    directions omega.

    grad rho is 0-homogeneous, so it holds on the whole ray rho * Theta.
    Round shells give ``(omega, 1, omega, 1)``, whose length is the exact 1
    rather than |omega|; H0-shells are mapped by :func:`_dual_shell_geometry`.
    """
    if _round(gauge):
        return omega, 1, omega, 1
    theta, J, g0 = _dual_shell_geometry(gauge, omega)
    return theta, J, g0, np.linalg.norm(g0, axis=-1)


def unit_ball_volume(n, gauge=None, n_ang=96):
    """Volume of the unit ball of the radial gauge (|.| or the dual norm H0)."""
    if _round(gauge):
        return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    omega, w = circle_rule(n_ang) if n == 2 else sphere_rule(n_ang)
    _, J, _ = _dual_shell_geometry(gauge, omega)
    return float(np.dot(w, J)) / n


def angular_measure(n, gauge=None):
    """n * vol(unit ball of the radial gauge): the angular factor of radial integrals."""
    return n * unit_ball_volume(n, gauge)


def radial_integral(f, lo, hi, n, angular, align=(), n_r=768, order=6):
    """angular * int_lo^hi f(rho) rho^(n-1) drho on aligned log-radial panels.

    ``f`` maps radii to values; if it returns a tuple of arrays, the result
    is the tuple of their integrals, all taken on the same nodes.
    """
    r, w = log_radial_rule(lo, hi, n_r, align=align, order=order)
    wr = w * r ** (n - 1)
    vals = f(r)
    if isinstance(vals, tuple):
        return tuple(angular * float(np.dot(wr, v)) for v in vals)
    return angular * float(np.dot(wr, vals))
