"""Deterministic volume quadrature on punctured radial domains and energy evaluation.

Schemes combine a geometric (log-spaced) radial grid, integrated by
composite Gauss-Legendre panels in log r, with a smooth angular rule:
equispaced trapezoid on the circle for n = 2 and a product
Gauss-Legendre(cos theta) x trapezoid(phi) rule for n = 3.

Two radial metrics are supported.  In the ``euclidean`` metric the radial
coordinate is |x| and shells are round spheres.  In the ``dual`` metric the
radial coordinate is the dual norm H0(x) of a supplied family and shells
are H0-spheres; nodes are placed at ``x = rho * Theta(omega)`` with
``Theta(omega) = omega / H0(omega)`` and the exact angular Jacobian
``J(omega) = |det[Theta, d Theta]| / dsigma`` is folded into the weights.

Integrands that are functions of the radial coordinate alone (any
dimension n >= 2) take :func:`radial_integral`: one log-radial rule times
the exact angular factor :func:`angular_measure` (surface area, resp.
n * vol of the H0 unit ball).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import norms
from .errors import MarginError, PoisonedIntegrandError

_GAUSS_CACHE: dict = {}


def _gauss(order):
    if order not in _GAUSS_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _GAUSS_CACHE[order] = (x, w)
    return _GAUSS_CACHE[order]


def log_radial_rule(r0, r1, n_r, align=(), order=4):
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
        edges = np.unique(np.concatenate([edges, np.asarray(extra, dtype=float)]))
    t_edges = np.log(edges)
    gx, gw = _gauss(order)
    mid = 0.5 * (t_edges[1:] + t_edges[:-1])
    half = 0.5 * (t_edges[1:] - t_edges[:-1])
    t = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wt = (half[:, None] * gw[None, :]).ravel()
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
    """Theta(omega) = omega/H0(omega), the Jacobian J, and |grad H0(Theta)|.

    J is computed from the exact differential of Theta using grad H0, so the
    mapped product rule integrates smooth functions at the underlying
    angular order.
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
        raise ValueError("full quadrature supports n in {2, 3}")
    grad_len = np.linalg.norm(g0, axis=-1)
    return theta, J, grad_len


def unit_ball_volume(fam=None, n=None, n_ang=96, metric="euclidean"):
    """Volume of the unit ball of the radial gauge (|.| or the dual norm H0)."""
    if metric == "euclidean":
        return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)
    if fam.kind == "euclidean":
        return math.pi ** (fam.n / 2.0) / math.gamma(fam.n / 2.0 + 1.0)
    omega, w = circle_rule(n_ang) if fam.n == 2 else sphere_rule(n_ang)
    _, J, _ = _dual_shell_geometry(fam, omega)
    return float(np.dot(w, J)) / fam.n


_ANGULAR_CACHE: dict = {}


def angular_measure(n, fam=None):
    """n * vol(unit ball of the radial gauge): the angular factor of radial integrals.

    The gauge is |x| when ``fam`` is None or euclidean, and H0 otherwise.
    """
    if fam is None or fam.kind == "euclidean":
        return n * unit_ball_volume(n=n, metric="euclidean")
    # keyed by value: an id() could be reused by a later family, and the
    # label omits p, on which the mixed unit ball depends
    key = (fam.label(), fam.p, fam.n, n)
    if key not in _ANGULAR_CACHE:
        _ANGULAR_CACHE[key] = n * unit_ball_volume(fam=fam, metric="dual")
    return _ANGULAR_CACHE[key]


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


@dataclass(frozen=True, eq=False)
class QuadratureScheme:
    """Nodes/weights for an annular shell."""

    nodes: np.ndarray           # (m, n)
    weights: np.ndarray         # (m,)
    n: int
    r_min: float
    r_max: float
    metric: str = "euclidean"   # euclidean | dual

    @property
    def volume(self):
        return float(self.weights.sum())


def annulus_scheme(r0, r1, n, n_r=256, n_ang=64, fam=None, metric="euclidean",
                   align=(), order=4):
    """Full product scheme on the shell {r0 < rho(x) < r1}.

    ``rho`` is |x| for the euclidean metric and H0(x) for the dual metric
    (then ``fam`` is required).  The puncture guard requires r0 > 0.
    """
    r, wr = log_radial_rule(r0, r1, n_r, align=align, order=order)
    if metric == "euclidean" or (fam is not None and fam.kind == "euclidean" and metric == "dual"):
        omega, wo = circle_rule(n_ang) if n == 2 else sphere_rule(n_ang)
        theta, J = omega, np.ones(len(omega))
    elif metric == "dual":
        omega, wo = circle_rule(n_ang) if n == 2 else sphere_rule(n_ang)
        theta, J, _ = _dual_shell_geometry(fam, omega)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    nodes = (r[:, None, None] * theta[None, :, :]).reshape(-1, n)
    w = (wr[:, None] * r[:, None] ** (n - 1) * (wo * J)[None, :]).ravel()
    return QuadratureScheme(nodes=nodes, weights=w, n=n, r_min=float(r0),
                            r_max=float(r1), metric=metric)


def integrate(scheme, f):
    """Weighted sum of ``f`` over the scheme's nodes.

    ``f`` maps an (m, n) array of points to m values.  A NaN/inf value at
    any node raises :class:`PoisonedIntegrandError` naming the node.
    """
    vals = np.asarray(f(scheme.nodes), dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise PoisonedIntegrandError(scheme.nodes[i].tolist(), float(vals[i]))
    return float(np.dot(scheme.weights, vals))


@dataclass
class EnergyBreakdown:
    """Split of the energy functional over a scheme."""

    dirichlet: float
    potential: float
    total: float
    lp_mass: float = 0.0


def energy(scheme, fam, phi, V=None, weight_g=None, margin=0.0):
    """Energy Q_V[phi] = int (H(x, grad phi)^p + V |phi|^p) over the scheme.

    ``phi`` must expose ``__call__`` and ``grad``; if it carries a radial
    ``support`` interval, the support must sit inside the scheme's shell
    with the requested relative ``margin``.
    """
    sup = getattr(phi, "support", None)
    if sup is not None and margin >= 0.0:
        lo, hi = sup
        if lo <= scheme.r_min * (1.0 + margin) or hi >= scheme.r_max * (1.0 - margin):
            raise MarginError(
                f"support [{lo:.3g}, {hi:.3g}] touches the shell "
                f"[{scheme.r_min:.3g}, {scheme.r_max:.3g}]"
            )
    x = scheme.nodes
    vals = np.asarray(phi(x), dtype=float)
    grads = np.asarray(phi.grad(x), dtype=float)
    hp = norms.norm_eval(fam, x, grads) ** fam.p
    dirichlet = float(np.dot(scheme.weights, hp))
    pot = 0.0
    if V is not None:
        pot = float(np.dot(scheme.weights, np.asarray(V(x), dtype=float) * np.abs(vals) ** fam.p))
    lpm = 0.0
    if weight_g is not None:
        lpm = float(np.dot(scheme.weights,
                           np.abs(np.asarray(weight_g(x), dtype=float)) * np.abs(vals) ** fam.p))
    total = dirichlet + pot
    if not np.isfinite(total):
        raise PoisonedIntegrandError("<energy>", total)
    return EnergyBreakdown(dirichlet=dirichlet, potential=pot, total=total, lp_mass=lpm)


def hardy_ratio(scheme, fam, phi, V, W):
    """Q_V[phi] / int W |phi|^p, an upper bound for the Hardy constant of W."""
    eb = energy(scheme, fam, phi, V=V, weight_g=W)
    if eb.lp_mass <= 0.0 or not np.isfinite(eb.lp_mass):
        raise ValueError("test function is supported where the weight vanishes")
    return eb.total / eb.lp_mass
