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
    """g_p(delta) = |1+delta|^p - 1 - p*delta, stable for small delta.

    Series sum_{j>=2} binom(p, j) delta^j below the switch point, expm1 of
    p log|1+delta| above it.  Exact closed forms: delta^2 at p = 2, 0 at p = 1.
    """
    delta = np.asarray(delta, dtype=float)
    if p in (1.0, 2.0):
        return (p - 1.0) * delta * delta
    coefs = [p * (p - 1.0) / 2.0]   # binom(p, j) for j = 2 .. 10
    for j in range(2, 10):
        coefs.append(coefs[-1] * ((p - j) / (j + 1.0)))
    small = np.abs(delta) < 1e-2
    d, acc = np.where(small, delta, 0.0), 0.0
    for c in reversed(coefs):   # Horner
        acc = acc * d + c
    with np.errstate(divide="ignore"):   # log|1+delta| = log1p(-2 - delta) below -1
        big = np.expm1(p * np.log1p(np.where(delta > -1.0, delta, -2.0 - delta))) - p * delta
    return np.where(small, acc * d * d, big)


def _part_distance(q, S, T, lin, DS):
    """Bregman distance T^q - S^q - q S^(q-1) lin of one part S^q of H^p.

    ``T = S(xi+eta)``, ``lin = grad S . eta`` and ``DS = T - S - lin >= 0`` are
    each formed without cancellation.  For |d| < 1/2, d = (lin + DS)/S, it is
    ``S^q (g_q(d) + q DS/S)``, whose first-order terms cancel exactly; else
    ``T^q - S^q`` is expm1 of q log(T/S) times the lesser power, which neither
    cancels nor overflows.  Where S = 0 it is ``DS^q``.
    """
    Sp = np.where(S > 0.0, S, 1.0)
    with np.errstate(all="ignore"):   # each branch is finite where it is taken
        d, L = (lin + DS) / Sp, np.log(T) - np.log(Sp)
        far = np.where(L < 0.0, Sp ** q * np.expm1(q * L), -T ** q * np.expm1(-q * L))
        near = np.abs(d) < 0.5
        out = np.where(near, Sp ** q * (_pow_bregman(q, np.where(near, d, 0.0)) + q * DS / Sp),
                       far - q * Sp ** q * (lin / Sp))
    return np.where(S > 0.0, out, DS ** q)


def bregman_distance(fam, xi, eta):
    """D(xi + eta, xi) = H(xi+eta)^p - H(xi)^p - p a(xi) . eta (batched).

    H^p is a sum of parts S^q: ``S = sum |xi_i|^s`` with q = p/s (lp), ``S =
    xi . A xi`` with q = p/2 (quadratic; A = I for euclidean), and both for
    mixed.  D is linear in H^p, so it is the sum of the parts' distances.
    """
    if not fam.x_independent:
        raise UnsupportedKindError("the Bregman distance covers x-independent kinds")
    xi, eta = np.asarray(xi, dtype=float), np.asarray(eta, dtype=float)
    ones = np.ones(xi.shape[-1])   # row sums of per-coordinate terms are "@ ones"
    # D is p-homogeneous: a power-of-two scale per row keeps |xi_i|^s finite
    _, k = np.frexp(np.sqrt((xi * xi + eta * eta) @ ones))
    scale = np.ldexp(1.0, -k)[..., None]
    xi, eta, out = xi * scale, eta * scale, 0.0
    u = xi + eta
    if fam.kind in ("lp", "mixed"):
        a = np.abs(xi) ** (fam.s - 2.0)
        w, lin, v = a * xi * xi, fam.s * a * xi * eta, np.abs(u) ** fam.s
        # per coordinate, w g_s(eta_i / xi_i) where |eta_i| < |xi_i|, else directly
        near = np.abs(eta) < np.abs(xi)
        DS = np.where(near, w * _pow_bregman(fam.s, eta / np.where(near, xi, 1.0)), v - w - lin)
        out = out + _part_distance(fam.p / fam.s, *(np.stack([w, v, lin, DS]) @ ones))
    if fam.kind != "lp":
        A = np.eye(xi.shape[-1]) if fam.kind == "euclidean" else fam.A
        w = xi @ A
        out = out + _part_distance(fam.p / 2.0, *(np.stack(
            [w * xi, (u @ A) * u, 2.0 * w * eta, (eta @ A) * eta]) @ ones))
    return np.exp2(k * fam.p) * out


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
