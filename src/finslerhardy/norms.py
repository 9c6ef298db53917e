"""Norm families H(x, .) on R^n, their gradients, the monotone flux map, and dual norms.

A norm family assigns to (almost) every point x a norm ``H(x, .)`` on R^n.
Five kinds are supported:

==========  =====================================================
euclidean   ``H(xi) = |xi|_2``
lp(s)       ``H(xi) = (sum_i |xi_i|^s)^(1/s)``, ``s >= 2``
quadratic   ``H(xi) = sqrt(A xi . xi)``, ``A`` symmetric positive definite
mixed       ``H(xi) = (|xi|_s^p + |xi|_A^p)^(1/p)``
weighted    ``H(x, xi) = |x|^(delta/p) * N(xi)``, ``N`` a base family
==========  =====================================================

From ``H`` we derive the flux map ``a(x, xi) = grad_xi (H(x, xi)^p / p)
= H^(p-1) grad H``, which satisfies

* ``a(x, xi) . xi = H(x, xi)^p``,
* ``a(x, lam xi) = lam |lam|^(p-2) a(x, xi)``,
* strict monotonicity ``(a(x, xi) - a(x, eta)) . (xi - eta) > 0`` for
  ``xi != eta``,

and the dual norm ``H0(y) = sup_{xi != 0} y . xi / H(xi)`` (x-independent
kinds only) with its gradient.  The key calculus identities are
``H(grad H0(y)) = 1`` and ``y . grad H0(y) = H0(y)``.

One evaluator gives H and grad H of an x-independent kind from one pass
over each block (the lp scaling, ``xi @ A`` and their mixed combination);
the weighted kind is its base's times ``|x|^(delta/p)``.  :func:`norm_eval`,
:func:`grad_H` and :func:`operator_a` are each one call to it.
:func:`dual` returns H0 and grad H0 from one call: the same evaluator at
``s' = s/(s-1)`` and ``A^-1`` for euclidean, lp and quadratic, one batched
Newton solve (:func:`dual_newton`) for the mixed kind.  :func:`dual_norm`
and :func:`grad_dual` are its two projections.

All evaluators are vectorized: ``xi`` may be an array of shape ``(..., n)``
and results broadcast over the leading axes.  Everything is pure and
deterministic; stochastic helpers take an explicit seed and use a
counter-based (Philox) bit generator so per-sample streams are stable
under any parallel scheduling.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import Generator, Philox

from .errors import ConstructionError, DomainError, UnsupportedKindError
from .newton import NewtonStats, solver_error

KINDS = ("euclidean", "lp", "quadratic", "mixed", "weighted")

_SPD_SYM_TOL = 1e-12


def _as_spd(A, n):
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ConstructionError(f"matrix must be square, got shape {A.shape}")
    if A.shape[0] != n:
        raise ConstructionError(f"matrix is {A.shape[0]}x{A.shape[0]} but n = {n}")
    if not np.allclose(A, A.T, rtol=0.0, atol=_SPD_SYM_TOL * max(1.0, float(np.abs(A).max()))):
        raise ConstructionError("matrix is not symmetric")
    try:
        np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        raise ConstructionError("matrix is not positive definite") from None
    return A


@dataclass(frozen=True, eq=False)
class NormFamily:
    """A norm family of one of the five supported kinds, with the exponent p
    and the dimension n of the energy it defines.

    Use the factory functions :func:`euclidean`, :func:`lp`,
    :func:`quadratic`, :func:`mixed`, :func:`weighted` or
    :func:`parse_family` instead of the constructor.
    """

    kind: str
    p: float
    n: int
    s: float | None = None
    A: np.ndarray | None = None
    delta: float | None = None
    base: "NormFamily | None" = None
    A_inv: np.ndarray | None = field(default=None, init=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConstructionError(f"unknown norm kind {self.kind!r}")
        if not 1.0 < self.p < math.inf:
            raise ConstructionError(f"p must lie in (1, inf), got {self.p}")
        if self.n < 2:
            raise ConstructionError(f"n must be >= 2, got {self.n}")
        if self.kind in ("lp", "mixed"):
            if self.s is None or self.s < 2.0:
                raise ConstructionError(f"lp/mixed require s >= 2, got {self.s}")
        if self.kind in ("quadratic", "mixed"):
            A = _as_spd(self.A, self.n)
            object.__setattr__(self, "A", A)
            object.__setattr__(self, "A_inv", np.linalg.inv(A))
        if self.kind == "weighted":
            if self.delta is None or self.delta < 0.0:
                raise ConstructionError(f"weighted requires delta >= 0, got {self.delta}")
            if self.base is None or self.base.kind == "weighted":
                raise ConstructionError("weighted requires an x-independent base family")
            if self.base.n != self.n or self.base.p != self.p:
                raise ConstructionError("base family must share p and n")

    # -- properties ---------------------------------------------------------

    @property
    def x_independent(self):
        return self.kind != "weighted"

    @property
    def has_closed_dual(self):
        return self.kind in ("euclidean", "lp", "quadratic")

    def label(self):
        if self.kind == "lp":
            return f"lp(s={self.s:g})"
        if self.kind == "quadratic":
            return f"quad({json.dumps(self.A.tolist())})"
        if self.kind == "mixed":
            return f"mix(s={self.s:g};A={json.dumps(self.A.tolist())})"
        if self.kind == "weighted":
            return f"weighted(delta={self.delta:g};base={self.base.label()})"
        return "euclidean"


def euclidean(p, n):
    return NormFamily("euclidean", float(p), int(n))


def lp(s, p, n):
    return NormFamily("lp", float(p), int(n), s=float(s))


def quadratic(A, p):
    A = np.asarray(A, dtype=float)
    return NormFamily("quadratic", float(p), A.shape[0], A=A)


def mixed(s, A, p):
    A = np.asarray(A, dtype=float)
    return NormFamily("mixed", float(p), A.shape[0], s=float(s), A=A)


def weighted(delta, base):
    return NormFamily("weighted", base.p, base.n, delta=float(delta), base=base)


def parse_family(spec, p, n):
    """Parse the norm-spec mini grammar.

    ``euclidean`` | ``lp:s=<f>`` | ``quad:[[..],..]`` | ``mix:s=<f>;A=[[..],..]``
    | ``weighted:delta=<f>;base=<spec>``.  Matrix literals are row-major JSON
    and must be n x n.
    """
    spec = spec.strip()
    if spec == "euclidean":
        return euclidean(p, n)
    if spec.startswith("lp:"):
        body = spec[3:]
        if not body.startswith("s="):
            raise ConstructionError(f"bad lp spec {spec!r}")
        return lp(float(body[2:]), p, n)
    if spec.startswith("quad:"):
        return NormFamily("quadratic", float(p), int(n), A=json.loads(spec[5:]))
    if spec.startswith("mix:"):
        items = [kv.split("=", 1) for kv in spec[4:].split(";")]
        parts = dict(kv for kv in items if len(kv) == 2)
        if len(parts) != len(items) or sorted(parts) != ["A", "s"]:
            raise ConstructionError(f"bad mix spec {spec!r}: need exactly s=<f>;A=<matrix>")
        return NormFamily("mixed", float(p), int(n), s=float(parts["s"]),
                          A=json.loads(parts["A"]))
    if spec.startswith("weighted:"):
        body = spec[len("weighted:"):]
        key, rest = body.split(";", 1)
        if not (key.startswith("delta=") and rest.startswith("base=")):
            raise ConstructionError(f"bad weighted spec {spec!r}")
        return weighted(float(key[len("delta="):]), parse_family(rest[len("base="):], p, n))
    raise ConstructionError(f"unrecognized family spec {spec!r}")


# ---------------------------------------------------------------------------
# primal norm, gradient, flux map
# ---------------------------------------------------------------------------


def _lp_scaled(xi, s, grad=True):
    """``(|xi|_s, grad |xi|_s)`` over rows of xi, keeping the reduced axis; the
    gradient is None unless ``grad``."""
    # z = xi / max_i |xi_i| (1 at xi = 0) so |z_i|^s cannot overflow
    m = np.max(np.abs(xi), axis=-1, keepdims=True)
    safe = np.where(m > 0.0, m, 1.0)
    z = xi / safe
    S = np.sum(np.abs(z) ** s, axis=-1, keepdims=True)
    return (np.where(m > 0.0, safe * S ** (1.0 / s), 0.0),
            np.sign(z) * np.abs(z) ** (s - 1.0) * S ** (1.0 / s - 1.0) if grad else None)


def _mixed_value(hs, ha, p):
    m = np.maximum(hs, ha)
    safe = np.where(m > 0.0, m, 1.0)
    val = safe * ((hs / safe) ** p + (ha / safe) ** p) ** (1.0 / p)
    return np.where(m > 0.0, val, 0.0)


def _norm_and_grad(kind, xi, s, A, p, grad=True):
    """``(H, grad H)`` of an x-independent kind over rows of xi, each block taken
    once: the lp scaling, ``xi @ A`` and their mixed combination.  ``grad H`` is
    None unless ``grad``.  The closed duals are this with s' = s/(s-1) and A^-1."""
    if kind == "euclidean":
        h = np.linalg.norm(xi, axis=-1)
        return h, (xi / h[..., None] if grad else None)
    if kind in ("lp", "mixed"):
        hs, gs = _lp_scaled(xi, s, grad)
        if kind == "lp":
            return hs[..., 0], gs
    w = xi @ A
    ha = np.sqrt(np.einsum("...i,...i->...", xi, w))
    ga = w / ha[..., None] if grad else None
    if kind == "quadratic":
        return ha, ga
    ha = ha[..., None]
    h = _mixed_value(hs, ha, p)
    if not grad:
        return h[..., 0], None
    return h[..., 0], (hs ** (p - 1.0) * gs + ha ** (p - 1.0) * ga) * h ** (1.0 - p)


def _family_norm_and_grad(fam, x, xi, grad=True):
    """``(H(x, xi), grad_xi H)`` of any family: the weighted kind is its base's
    times |x|^(delta/p), and needs x != 0."""
    if fam.x_independent:
        return _norm_and_grad(fam.kind, xi, fam.s, fam.A, fam.p, grad)
    if x is None:
        raise DomainError("weighted families need the spatial point x")
    r = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
    if np.any(r == 0.0):
        raise DomainError("weighted family is singular at x = 0")
    scale = r ** (fam.delta / fam.p)
    h, g = _family_norm_and_grad(fam.base, None, xi, grad)
    return scale * h, (scale[..., None] * g if grad else None)


def norm_eval(fam, x, xi):
    """H(x, xi).  ``x`` is only consulted by the weighted kind (and must be != 0 there)."""
    return _family_norm_and_grad(fam, x, np.asarray(xi, dtype=float), grad=False)[0]


def grad_H(fam, x, xi):
    """grad_xi H(x, xi) for xi != 0 (closed forms for every kind)."""
    xi = np.asarray(xi, dtype=float)
    if np.any(np.linalg.norm(xi, axis=-1) == 0.0):
        raise DomainError("H is not differentiable at xi = 0")
    return _family_norm_and_grad(fam, x, xi)[1]


def operator_a(fam, x, xi):
    """The flux map a(x, xi) = H^(p-1) grad H and the value H^p, from one pass.

    Returns a pair ``(a, hp)`` with ``a`` of shape ``(..., n)`` and ``hp``
    of shape ``(...,)``; ``a(x, 0) = 0`` by continuity.
    """
    xi = np.asarray(xi, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):   # grad H is 0/0 at xi = 0
        h, g = _family_norm_and_grad(fam, x, xi)
        a = h[..., None] ** (fam.p - 1.0) * g
    nz = np.linalg.norm(xi, axis=-1) > 0.0
    return (a if np.all(nz) else np.where(nz[..., None], a, 0.0)), h ** fam.p


# ---------------------------------------------------------------------------
# dual norm
# ---------------------------------------------------------------------------


def _dual_input(fam, y, nonzero):
    if not fam.x_independent:
        raise UnsupportedKindError("dual norm is only defined for x-independent families")
    y = np.asarray(y, dtype=float)
    if nonzero and np.any(np.linalg.norm(y, axis=-1) == 0.0):
        raise DomainError("H0 is not differentiable at 0")
    return y


def _closed_dual(fam, y, grad=True):
    """``(H0, grad H0)`` of a kind with a closed-form dual: the primal evaluator
    at s' = s/(s-1) and A^-1."""
    s = None if fam.s is None else fam.s / (fam.s - 1.0)
    return _norm_and_grad(fam.kind, y, s, fam.A_inv, fam.p, grad)


def dual(fam, y, start=None):
    """The dual norm and its gradient, ``(H0(y), grad H0(y))``, for y != 0.

    Closed forms: euclidean is self dual, lp(s) dualizes to lp(s'), a
    quadratic form dualizes to its inverse.  The mixed kind takes one
    batched :func:`dual_newton` solve, from ``start`` when given, which
    yields both values.  ``y`` has shape ``(..., n)``; the results have
    shapes ``(...,)`` and ``(..., n)``.  Weighted kinds are rejected.
    """
    y = _dual_input(fam, y, nonzero=True)
    if fam.has_closed_dual:
        return _closed_dual(fam, y)
    h0, g0, _ = dual_newton(fam, y.reshape(-1, fam.n), start=start)
    return h0.reshape(y.shape[:-1])[()], g0.reshape(y.shape)


def dual_norm(fam, y):
    """Dual norm H0(y) = sup_{xi != 0} y . xi / H(xi); see :func:`dual`.

    Unlike :func:`dual`, every kind accepts y = 0, where H0 = 0.
    """
    y = _dual_input(fam, y, nonzero=False)
    if fam.has_closed_dual:
        return _closed_dual(fam, y, grad=False)[0]
    nonzero = np.linalg.norm(y, axis=-1) > 0.0
    if np.all(nonzero):
        return dual(fam, y)[0]
    h0 = np.zeros(y.shape[:-1])
    if np.any(nonzero):
        h0[nonzero] = dual(fam, y[nonzero])[0]
    return h0[()]


def grad_dual(fam, y):
    """grad H0(y); satisfies H(grad H0(y)) = 1 and y . grad H0(y) = H0(y)."""
    return dual(fam, y)[1]


# -- Newton solver on the inverse duality map -------------------------------
#
# The mixed-kind path of :func:`dual`.  The maximizer xi* of y.xi over
# {H = 1} satisfies m(xi) := H(xi) grad H(xi) = y after rescaling, and then
# H0(y) = H(xi*), grad H0(y) = xi*/H(xi*): one solve gives both values.
# m = grad(H^2/2) has an SPD (a.e.) Jacobian, so damped Newton converges
# quadratically from the euclidean start.  No operation mixes rows, so each
# iteration takes only the rows not yet below tol; the line search needs m alone.


def _m_and_jac(fam, xi, jac=True):
    """``(H, m, J)`` of the mixed kind over rows of xi: m = H grad H, J its Jacobian
    (None unless ``jac``), each block computed once; H is bit-for-bit norm_eval's."""
    p = fam.p
    s = fam.s
    hs, gs = _lp_scaled(xi, s)
    Axi = xi @ fam.A
    ha = np.sqrt(np.einsum("...i,...i->...", xi, Axi))[..., None]
    ga = Axi / ha
    h = _mixed_value(hs, ha, p)
    G = hs ** (p - 1.0) * gs + ha ** (p - 1.0) * ga
    gH = h ** (1.0 - p) * G
    m = h * gH  # = h^(2-p) G
    if not jac:
        return h[..., 0], m, None
    # Hessians of the two building blocks
    Sa = np.abs(xi) ** (s - 2.0)
    a = np.sign(xi) * np.abs(xi) ** (s - 1.0)
    S = np.sum(np.abs(xi) ** s, axis=-1)[..., None, None]
    hess_s = (s - 1.0) * (
        S ** (1.0 / s - 1.0) * (Sa[..., None] * np.eye(fam.n))
        - S ** (1.0 / s - 2.0) * a[..., :, None] * a[..., None, :]
    )
    hess_a = fam.A / ha[..., None] - Axi[..., :, None] * Axi[..., None, :] / ha[..., None] ** 3
    DG = (
        (p - 1.0) * hs[..., None] ** (p - 2.0) * gs[..., :, None] * gs[..., None, :]
        + hs[..., None] ** (p - 1.0) * hess_s
        + (p - 1.0) * ha[..., None] ** (p - 2.0) * ga[..., :, None] * ga[..., None, :]
        + ha[..., None] ** (p - 1.0) * hess_a
    )
    # m = h^(2-p) G,  Dm = (2-p) h^(1-p) gH (x) G + h^(2-p) DG
    J = (2.0 - p) * h[..., None] ** (1.0 - p) * gH[..., :, None] * G[..., None, :]
    J = J + h[..., None] ** (2.0 - p) * DG
    return h[..., 0], m, J


def dual_newton(fam, Y, maxit=60, start=None):
    """Batched dual norm and gradient via Newton on m(xi) = y.

    Returns ``(H0, gradH0, stats)`` for rows of ``Y``, starting from ``start``
    (such as grad H0 at nearby points) or the directions of ``Y``; ``stats``
    (a ``newton.NewtonStats``) counts the batched Jacobian steps and the
    line-search trials beyond the first of each step.  A row leaves the
    batch as soon as an evaluation finds its relative residual at or below
    ``tol`` = 1e-13, keeping that evaluation's H; a Levenberg term guards
    (near-)singular Jacobians.  Raises :class:`SolverError`, with the worst
    relative residual and exit ``maxit``, if a row is above ``tol`` after
    ``maxit`` steps.
    """
    tol = 1e-13
    if fam.kind != "mixed":
        raise UnsupportedKindError(f"the Newton dual is for the mixed kind, not {fam.kind}")
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    norms = np.linalg.norm(Y, axis=-1)
    if np.any(norms == 0.0):
        raise DomainError("dual gradient undefined at 0")
    # scale-free start: the given start or the direction of y, scaled so m(xi0) ~ y
    xi = Y / norms[..., None] if start is None else np.reshape(start, Y.shape)
    _, m0, _ = _m_and_jac(fam, xi, jac=False)
    scale = np.einsum("...i,...i->...", Y, m0) / np.einsum("...i,...i->...", m0, m0)
    xi = xi * scale[..., None]
    h = np.empty(Y.shape[0])
    rows = np.arange(Y.shape[0])  # the rows not yet seen below tol
    backtracks = 0
    for it in range(maxit + 1):
        hr, m, J = _m_and_jac(fam, xi[rows], jac=it < maxit)
        res = m - Y[rows]
        rn = np.linalg.norm(res, axis=-1) / norms[rows]
        done = rn <= tol
        h[rows[done]] = hr[done]
        if np.all(done):
            break
        if it == maxit:
            raise solver_error(f"dual Newton, {np.sum(~done)} rows above tol {tol:g}",
                               NewtonStats(it, backtracks, "maxit"),
                               float(np.max(rn[~done])))
        rows, res, rn, J = rows[~done], res[~done], rn[~done], J[~done]
        # Levenberg guard for (near-)singular Jacobians
        mu = 1e-14 * np.trace(J, axis1=-2, axis2=-1)[..., None, None]
        step = np.linalg.solve(J + mu * np.eye(fam.n), res[..., None])[..., 0]
        # damped update: halve until the residual does not grow
        lam = np.ones(rows.size)
        ht, rt = np.empty(rows.size), np.empty(rows.size)
        trying = np.arange(rows.size)
        for halvings in range(30):
            r = rows[trying]
            trial = xi[r] - lam[trying, None] * step[trying]
            ht[trying], mt, _ = _m_and_jac(fam, trial, jac=False)
            rt[trying] = np.linalg.norm(mt - Y[r], axis=-1) / norms[r]
            bad = rt[trying] > rn[trying]
            if not np.any(bad):
                break
            trying = trying[bad]
            lam[trying] *= 0.5
        backtracks += halvings
        xi[rows] = xi[rows] - lam[..., None] * step
        # rows whose accepted trial is below tol are done; a row still bad after
        # 30 halvings has rt > rn > tol and is evaluated again
        done = rt <= tol
        h[rows[done]] = ht[done]
        rows = rows[~done]
        if rows.size == 0:
            return h, xi / h[..., None], NewtonStats(it + 1, backtracks, "tol")
    return h, xi / h[..., None], NewtonStats(it, backtracks, "tol")


@dataclass(frozen=True)
class BidualStats:
    """Ascent steps taken by :func:`bidual_norm` and the rows still short of
    stationarity when it stopped (0 unless ``iters`` ran out)."""

    iterations: int
    active: int


def bidual_norm(fam, xi_samples, n_dirs=2048, iters=80, seed=0):
    """Numeric bidual sup_y xi . y / H0(y) for each row of ``xi_samples``.

    Independent of the primal evaluator: it only calls the dual norm.  Used
    to certify the round trip ``H00 = H``.  Shared candidate directions are
    scored for all samples at once, then each sample is polished by
    projected gradient ascent on {H0 = 1} with Barzilai-Borwein steps
    (Barzilai and Borwein, IMA J. Numer. Anal. 8, 1988): a trial is kept
    only if it raises xi . y, and a rejected trial halves the row's step.
    A row retires once its gradient |xi - (xi . y) grad H0(y)| is below
    3e-8 |xi| (stationary: xi . y is then exact to rounding), or once its
    step no longer moves y: at the floor the first-order gain step |grad|^2
    is below the rounding of xi . y, and only rounding, or a Newton dual's
    noise, could make a trial look better.  Each step takes one
    :func:`dual` call over the active rows, which gives the trial's H0 and
    the grad H0 kept for the next step; a Newton dual starts there from the
    last accepted grad H0, next to the trial.  Returns ``(values,
    BidualStats)``.
    """
    xi_samples = np.atleast_2d(np.asarray(xi_samples, dtype=float))
    rng = Generator(Philox(key=seed))
    dirs = rng.standard_normal((n_dirs, fam.n))
    dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
    h0, g = dual(fam, dirs)
    scores = xi_samples @ dirs.T / h0[None, :]
    best = np.argmax(scores, axis=1)
    y = dirs[best] / h0[best, None]
    g0 = g[best]   # grad H0 is 0-homogeneous: its value at y, kept with y
    val = np.einsum("ij,ij->i", xi_samples, y)
    size = np.linalg.norm(xi_samples, axis=-1)
    step = 1.0 / np.maximum(size, 1e-300)
    grad = xi_samples - val[:, None] * g0   # gradient of xi.y on {H0 = 1}
    rows = np.flatnonzero(np.linalg.norm(grad, axis=-1) > 3e-8 * size)
    it = 0
    while rows.size and it < iters:
        it += 1
        trial = y[rows] + step[rows, None] * grad[rows]
        ht, gt = dual(fam, trial, start=g0[rows])
        trial /= ht[..., None]
        tval = np.einsum("ij,ij->i", xi_samples[rows], trial)
        better = tval > val[rows]
        kept = rows[better]
        tgrad = xi_samples[kept] - tval[better, None] * gt[better]
        # Barzilai-Borwein: |s|^2 / |s . (grad change)| for the next step
        s, d = trial[better] - y[kept], tgrad - grad[kept]
        sd = np.abs(np.einsum("ij,ij->i", s, d))
        bb = sd > 0.0
        step[kept[bb]] = np.einsum("ij,ij->i", s[bb], s[bb]) / sd[bb]
        y[kept], g0[kept], val[kept], grad[kept] = trial[better], gt[better], tval[better], tgrad
        step[rows[~better]] *= 0.5
        gnorm = np.linalg.norm(grad[rows], axis=-1)
        rows = rows[(gnorm > 3e-8 * size[rows])
                    & (step[rows] * gnorm ** 2 > np.finfo(float).eps * np.abs(val[rows]))]
    return val, BidualStats(it, rows.size)


# ---------------------------------------------------------------------------
# sampling helpers
# ---------------------------------------------------------------------------


def sample_vectors(n, count, seed, decades=3, stream=0):
    """Seeded random directions with log-uniform magnitudes 10^(-decades)..10^(decades)."""
    rng = Generator(Philox(key=np.uint64(seed), counter=[0, 0, 0, stream]))
    d = rng.standard_normal((count, n))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    mag = 10.0 ** rng.uniform(-decades, decades, size=count)
    return d * mag[:, None]


def equivalence_report(fam, n_samples=4096, seed=11):
    """Empirical kappa, nu with kappa |xi| <= H(x, xi) <= nu |xi| on sampled directions.

    The constants are reported over samples (the underlying local bounds are
    asserted to exist, not quantified); for the weighted kind, |x| ranges
    over (0.5, 2).
    """
    rng = Generator(Philox(key=np.uint64(seed)))
    d = rng.standard_normal((n_samples, fam.n))
    d /= np.linalg.norm(d, axis=-1, keepdims=True)
    x = None
    if not fam.x_independent:
        xd = rng.standard_normal((n_samples, fam.n))
        xd /= np.linalg.norm(xd, axis=-1, keepdims=True)
        r = np.exp(rng.uniform(np.log(0.5), np.log(2.0), n_samples))
        x = xd * r[:, None]
    h = norm_eval(fam, x, d)
    return float(h.min()), float(h.max())
