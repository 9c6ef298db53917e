"""Bregman distance of H^p and empirical verification of its two-sided bounds.

The Bregman distance of the convex function ``xi -> H(x, xi)^p`` is

    D(xi + eta, xi) = H(xi+eta)^p - H(xi)^p - p a(x, xi) . eta  >= 0,

with equality iff ``eta = 0``.  Two bounds control it:

* lower bound (Euclidean reference):  ``D >= c |eta|^p`` for ``p >= 2`` and
  ``D >= c |eta|^2 (|xi| + |eta|)^(p-2)`` for ``p < 2``, for some ``c > 0``;
* upper bound (H reference):  ``D <= C H(eta)^2 (H(xi) + H(eta))^(p-2)``.

Only the *existence* of the constants is asserted; :func:`verify_bounds`
estimates the empirical envelope constants over log-uniform samples and
exposes the witness pair attaining each envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import norms
from .errors import UnsupportedKindError

#: denominators below this are skipped (counted), never divided
DENOM_FLOOR = 1e-300


def _pow_bregman(p, delta):
    """g_p(delta) = (1+delta)^p - 1 - p*delta, stable for small delta.

    Series sum_{j>=2} binom(p, j) delta^j below the switch point, direct
    evaluation above it.  Exact closed form delta^2 for p = 2.
    """
    delta = np.asarray(delta, dtype=float)
    if p == 2.0:
        return delta * delta
    out = np.empty_like(delta)
    small = np.abs(delta) < 1e-2
    d = delta[small]
    coef = p * (p - 1.0) / 2.0
    term = coef * d * d
    acc = term.copy()
    dpow = d * d
    for j in range(2, 12):
        coef *= (p - j) / (j + 1.0)
        dpow = dpow * d
        acc += coef * dpow
    out[small] = acc
    big = ~small
    db = delta[big]
    out[big] = (1.0 + db) ** p - 1.0 - p * db
    return out


def _bregman_inner_product_kind(p, v, b, e):
    """Stable D for norms induced by an inner product.

    ``v = H(xi)``, ``b = <xi, eta>``, ``e = H(eta)`` in that inner product.
    Splits D into the scalar power Bregman plus the first-order norm gap,
    both evaluated without forming H(xi+eta)^p - H(xi)^p directly.
    """
    u2 = np.maximum(v * v + 2.0 * b + e * e, 0.0)
    u = np.sqrt(u2)
    out = np.where(v > 0.0, 0.0, e ** p)  # xi = 0 rows: D = H(eta)^p
    pos = v > 0.0
    vp, bp, ep, up = v[pos], b[pos], e[pos], u[pos]
    delta = (2.0 * bp + ep * ep) / (vp * (up + vp))
    term1 = vp ** p * _pow_bregman(p, delta)
    denom = up + vp + bp / vp
    num = ep * ep - (bp / vp) ** 2
    direct = up - vp - bp / vp
    safe = denom > 1e-8 * (up + vp)
    term2 = np.where(safe, num / np.where(safe, denom, 1.0), direct)
    out[pos] = term1 + p * vp ** (p - 1.0) * term2
    return out


def bregman_distance(fam, xi, eta):
    """D(xi + eta, xi) = H(xi+eta)^p - H(xi)^p - p a(xi) . eta (batched).

    Euclidean and quadratic kinds use a cancellation-free evaluation (the
    p = 2 euclidean case is then exact up to a few ulp); other kinds use the
    direct formula.
    """
    xi = np.asarray(xi, dtype=float)
    eta = np.asarray(eta, dtype=float)
    if fam.kind in ("euclidean", "quadratic"):
        v, e = norms.norm_eval(fam, None, xi), norms.norm_eval(fam, None, eta)
        b = np.einsum("...i,...i->...", xi if fam.kind == "euclidean" else xi @ fam.A, eta)
        return _bregman_inner_product_kind(fam.p, np.atleast_1d(v), np.atleast_1d(b),
                                           np.atleast_1d(e)).reshape(np.shape(v))
    a, hp = norms.operator_a(fam, None, xi)
    hq = norms.norm_eval(fam, None, xi + eta) ** fam.p
    return hq - hp - fam.p * np.einsum("...i,...i->...", a, eta)


def lower_reference(fam, xi, eta):
    """The lower-bound reference expression (Euclidean norms)."""
    e = np.linalg.norm(eta, axis=-1)
    if fam.p >= 2.0:
        return e ** fam.p
    x = np.linalg.norm(xi, axis=-1)
    return e ** 2 * (x + e) ** (fam.p - 2.0)


def upper_reference(fam, xi, eta):
    """The upper-bound reference expression H(eta)^2 (H(xi)+H(eta))^(p-2)."""
    he = norms.norm_eval(fam, None, eta)
    hx = norms.norm_eval(fam, None, xi)
    return he ** 2 * (hx + he) ** (fam.p - 2.0)


@dataclass
class BoundEstimate:
    """Empirical envelope constants for the two Bregman bounds."""

    family: str
    p: float
    samples: int
    seed: int
    c_lower: float
    c_upper: float
    witness_lower: dict = field(default_factory=dict)
    witness_upper: dict = field(default_factory=dict)
    skipped: int = 0


def verify_bounds(fam, n_samples, seed, radius_decades=3):
    """Estimate the envelope constants c_lower, c_upper over seeded samples.

    xi and eta are drawn with log-uniform magnitudes spanning
    ``10^(-radius_decades) .. 10^(radius_decades)`` and uniform random
    directions, so the degenerate regimes ``|eta| << |xi|`` and
    ``|eta| >> |xi|`` of the ``(p-2)``-power factor are both probed.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if fam.kind == "weighted":
        raise UnsupportedKindError("verify_bounds covers x-independent kinds")
    xi = norms.sample_vectors(fam.n, n_samples, seed, radius_decades, stream=1)
    eta = norms.sample_vectors(fam.n, n_samples, seed, radius_decades, stream=2)
    d = bregman_distance(fam, xi, eta)
    lo = lower_reference(fam, xi, eta)
    up = upper_reference(fam, xi, eta)
    ok = (lo > DENOM_FLOOR) & (up > DENOM_FLOOR)
    skipped = int(n_samples - ok.sum())
    rl = d[ok] / lo[ok]
    ru = d[ok] / up[ok]
    il = int(np.argmin(rl))
    iu = int(np.argmax(ru))
    idx = np.flatnonzero(ok)
    wl = {"xi": xi[idx[il]].tolist(), "eta": eta[idx[il]].tolist(),
          "d": float(d[idx[il]]), "ref": float(lo[idx[il]])}
    wu = {"xi": xi[idx[iu]].tolist(), "eta": eta[idx[iu]].tolist(),
          "d": float(d[idx[iu]]), "ref": float(up[idx[iu]])}
    return BoundEstimate(
        family=fam.label(), p=fam.p, samples=n_samples, seed=seed,
        c_lower=float(rl.min()), c_upper=float(ru.max()),
        witness_lower=wl, witness_upper=wu, skipped=skipped,
    )
