"""Independent oracles: shooting integrators, finite differences, brute duals.

Everything here deliberately avoids the production code paths it checks:
the ODE oracles integrate with scipy's RK45 and bisection, the dual oracle
is plain sphere sampling with a compass polish, and gradients come from
central differences.  The one exception is the full-product volume scheme
(``annulus_scheme``), which is built from the production 1-D rules and so
checks only the radial reduction of ``quadrature.radial_integral``.
"""

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from finslerhardy import fields, norms, quadrature


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(len(x)):
        e = np.zeros_like(x)
        e[i] = h * max(1.0, abs(x[i]))
        g[i] = (f(x + e) - f(x - e)) / (2.0 * e[i])
    return g


def brute_dual_norm(fam, y, n_samples=1_000_000, seed=123, polish_iters=200):
    """sup y.xi / H(xi) over random sphere samples plus a compass polish.

    The polish steps along +-y and +-e_i, renormalizing onto {H = 1}, and
    halves the step when none improves, so it converges in any dimension.
    """
    rng = np.random.default_rng(seed)
    best_val, best_xi = -np.inf, None
    chunk = 200_000
    left = n_samples
    while left > 0:
        m = min(chunk, left)
        left -= m
        xi = rng.standard_normal((m, fam.n))
        vals = xi @ y / norms.norm_eval(fam, None, xi)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val, best_xi = float(vals[i]), xi[i]
    xi = best_xi / norms.norm_eval(fam, None, best_xi)
    val = float(y @ xi)
    dirs = np.vstack([y / np.linalg.norm(y), np.eye(fam.n)])
    dirs = np.vstack([dirs, -dirs])
    step = 0.5
    for _ in range(polish_iters):
        trials = xi + step * dirs
        trials /= norms.norm_eval(fam, None, trials)[:, None]
        tvals = trials @ y
        i = int(np.argmax(tvals))
        if tvals[i] > val:
            xi, val = trials[i], float(tvals[i])
        else:
            step *= 0.5
            if step < 1e-14:
                break
    return val


# ---------------------------------------------------------------------------
# radial Green shooting oracle
# ---------------------------------------------------------------------------


def shoot_green(prob, r_match=None, rtol=1e-10):
    """Shooting solution of -(r^(n-1) psi(u'))' + r^(n-1) c_p V psi(u) = r^(n-1) phi.

    Integrates [u, w] with w = r^(n-1) psi(u') from the regular center
    (w = 0) and bisects the center value u0 against the exact decaying
    far-field continuation at ``r_match`` (flux is constant there, so
    u_tail = w^(1/(p-1)) (p-1)/(n-p) r^(beta)); valid for p < n with
    compactly supported V and phi.
    """
    p, n = prob.p, prob.n
    if not p < n:
        raise ValueError("the decay-matched oracle needs p < n")
    c_p = prob.c_p
    if r_match is None:
        top = prob.phi.r_b
        if prob.V is not None and hasattr(prob.V, "support"):
            top = max(top, prob.V.support[1])
        r_match = 3.0 * top
    r0 = prob.r_min

    def rhs(r, y):
        u, w = y
        du = math.copysign(abs(w / r ** (n - 1)) ** (1.0 / (p - 1.0)), w)
        V = float(prob.V(np.asarray([r]))[0]) if prob.V is not None else 0.0
        dw = r ** (n - 1) * (c_p * V * math.copysign(abs(u) ** (p - 1.0), u)
                             - float(prob.phi(np.asarray([r]))[0]))
        return [du, dw]

    def mismatch(u0):
        sol = solve_ivp(rhs, (r0, r_match), [u0, 0.0], rtol=rtol, atol=1e-14,
                        dense_output=False, max_step=(r_match - r0) / 50.0)
        u_end, w_end = sol.y[0][-1], sol.y[1][-1]
        flux = -w_end
        if flux <= 0.0:
            return u_end  # undershoot: no outward flux, u too small
        u_tail = flux ** (1.0 / (p - 1.0)) * (p - 1.0) / (n - p) \
            * r_match ** ((p - n) / (p - 1.0))
        return u_end - u_tail

    lo, hi = 1e-8, 1.0
    while mismatch(hi) < 0.0:
        hi *= 4.0
        if hi > 1e8:
            raise RuntimeError("oracle bracket failed")
    while mismatch(lo) > 0.0:
        lo *= 0.25
        if lo < 1e-14:
            raise RuntimeError("oracle bracket failed")
    u0 = brentq(mismatch, lo, hi, xtol=1e-14, rtol=1e-13)
    sol = solve_ivp(rhs, (r0, r_match), [u0, 0.0], rtol=rtol, atol=1e-14,
                    dense_output=True)
    return u0, sol


# ---------------------------------------------------------------------------
# 1D p-Laplacian eigenvalue shooting oracle
# ---------------------------------------------------------------------------


def shoot_eigen(p, L, V=None, count_zero=0, lam_hi=None, rtol=1e-11):
    """Eigenvalue via shooting: integrate u' = psi^{-1}(w), w' = (V - lam) psi(u).

    ``count_zero = 0`` targets the principal eigenvalue (u > 0 inside),
    ``count_zero = 1`` the second one (exactly one interior zero).
    """

    def psi_inv(w):
        return math.copysign(abs(w) ** (1.0 / (p - 1.0)), w)

    def psi(u):
        return math.copysign(abs(u) ** (p - 1.0), u)

    def endpoint(lam):
        def rhs(x, y):
            u, w = y
            Vx = float(V(np.asarray([x]))[0]) if V is not None else 0.0
            return [psi_inv(w), (Vx - lam) * psi(u)]

        sol = solve_ivp(rhs, (0.0, L), [0.0, 1.0], rtol=rtol, atol=1e-14,
                        dense_output=True)
        xs = np.linspace(0.0, L, 2048)
        us = sol.sol(xs)[0]
        s = np.sign(us[1:-1])
        zeros = int(np.sum((s[1:] * s[:-1]) < 0.0))
        return float(us[-1]), zeros

    vmax = 0.0
    if V is not None:
        vmax = float(np.max(np.abs(V(np.linspace(0, L, 512)))))
    base = (p - 1.0) * (2.0 * math.pi / (p * math.sin(math.pi / p)) / L) ** p
    lam_lo = -vmax - 1.0
    lam_hi = lam_hi or (base * (count_zero + 2.0) ** p + 2.0 * vmax + 10.0)
    grid = np.linspace(lam_lo, lam_hi, 200)
    prev_u, prev_lam = None, None
    roots = []
    for lam in grid:
        u_end, zeros = endpoint(lam)
        if prev_u is not None and u_end * prev_u < 0.0:
            lam_root = brentq(lambda s: endpoint(s)[0], prev_lam, lam,
                              xtol=1e-12, rtol=1e-13)
            _, z = endpoint(lam_root)
            roots.append((lam_root, z))
            if len(roots) > count_zero:
                break
        prev_u, prev_lam = u_end, lam
    for lam_root, z in roots:
        if z == count_zero:
            return lam_root
    raise RuntimeError(f"no eigenvalue with {count_zero} interior zeros found")


def shoot_eigen_ball(p, n, lam):
    """u(1) for the radial ball eigen-ODE shot from the regular center.

    Integrates -(r^(n-1) psi(u'))' = lam r^(n-1) psi(u), u(0) = 1, zero
    center flux; bracketing the returned endpoint over lam locates the
    radial eigenvalues.
    """

    def rhs(r, y):
        u, w = y
        du = math.copysign(abs(w / max(r ** (n - 1), 1e-30)) ** (1.0 / (p - 1.0)), w)
        return [du, -lam * r ** (n - 1) * math.copysign(abs(u) ** (p - 1.0), u)]

    sol = solve_ivp(rhs, (1e-8, 1.0), [1.0, 0.0], rtol=1e-11, atol=1e-16)
    return float(sol.y[0][-1])


def p2_tridiagonal_eigenvalues(disc, k=2):
    """The k smallest eigenvalues of K v = lambda M v for p = 2 on an
    ``eigen._Disc``: its discrete problem, solved exactly.

    K is the tridiagonal stiffness of the cell moments ``disc.me`` plus the
    potential's diagonal ``Vv * mass``, and M = diag(mass), so the pencil is
    the symmetric tridiagonal M^-1/2 K M^-1/2, handed to LAPACK's
    ``eigh_tridiagonal`` instead of a descent on the Rayleigh quotient.
    """
    from scipy.linalg import eigh_tridiagonal

    stiff = disc.me / disc.h ** 2
    if disc.left_dirichlet:
        main = stiff[:-1] + stiff[1:]
        off = -stiff[1:-1]            # unknowns i, i+1 share cell i+1
    else:
        main = np.concatenate([stiff[:1], stiff[:-1] + stiff[1:]])
        off = -stiff[:-1]             # unknowns i, i+1 share cell i
    main = main + disc.Vv * disc.mass
    s = 1.0 / np.sqrt(disc.mass)
    return eigh_tridiagonal(main * s * s, off * s[:-1] * s[1:], eigvals_only=True,
                            select="i", select_range=(0, k - 1))


def radial_energy_1d(profile_prime, p, n, r0, r1):
    """ang * int |phi'(r)|^p r^(n-1) dr by adaptive quadrature (oracle)."""
    ang = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    val, _ = quad(lambda r: abs(profile_prime(r)) ** p * r ** (n - 1), r0, r1,
                  limit=400)
    return ang * val


# ---------------------------------------------------------------------------
# full-product volume quadrature on an annular shell
# ---------------------------------------------------------------------------


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
    (then ``fam`` is required).  The radial and angular rules and the dual
    shell map are the production ones: this scheme is a reference for the
    reduction to one radial integral, not for the 1-D rules themselves.
    """
    r, wr = quadrature.log_radial_rule(r0, r1, n_r, align=align, order=order)
    omega, wo = quadrature.circle_rule(n_ang) if n == 2 else quadrature.sphere_rule(n_ang)
    if metric == "euclidean" or fam.kind == "euclidean":
        theta, J = omega, np.ones(len(omega))
    elif metric == "dual":
        theta, J, _ = quadrature._dual_shell_geometry(fam, omega)
    else:
        raise ValueError(f"unknown metric {metric!r}")
    nodes = (r[:, None, None] * theta[None, :, :]).reshape(-1, n)
    w = (wr[:, None] * r[:, None] ** (n - 1) * (wo * J)[None, :]).ravel()
    return QuadratureScheme(nodes=nodes, weights=w, n=n, r_min=float(r0),
                            r_max=float(r1), metric=metric)


def integrate(scheme, f):
    """Weighted sum of ``f`` over the scheme's nodes; a NaN/inf value at any
    node raises ValueError naming the node."""
    vals = np.asarray(f(scheme.nodes), dtype=float)
    bad = ~np.isfinite(vals)
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ValueError(f"integrand is {float(vals[i])!r} at node {scheme.nodes[i].tolist()!r}")
    return float(np.dot(scheme.weights, vals))


def bump(center, radius, amplitude=1.0):
    """The bump A exp(1 - 1/(1 - |x-c|^2/r^2)) on B_r(c) as a field, phi and grad
    phi from ``fields._bump_terms``, with the radial support that :func:`energy`
    checks."""
    c = np.asarray(center, dtype=float)
    field = fields.FuncField(lambda x: fields._bump_terms(x - c, radius, amplitude)[0],
                             lambda x: fields._bump_terms(x - c, radius, amplitude)[1])
    r = float(np.linalg.norm(c))
    field.support = (r - radius, r + radius)
    return field


@dataclass
class EnergyBreakdown:
    """Split of the energy functional over a scheme."""

    dirichlet: float
    potential: float
    total: float


def energy(scheme, fam, phi, V=None, margin=0.0):
    """Energy Q_V[phi] = int (H(x, grad phi)^p + V |phi|^p) over the scheme.

    ``phi`` must expose ``__call__`` and ``grad``; if it carries a radial
    ``support`` interval, the support must sit inside the scheme's shell
    with the requested relative ``margin`` (ValueError otherwise).
    """
    sup = getattr(phi, "support", None)
    if sup is not None and margin >= 0.0:
        lo, hi = sup
        if lo <= scheme.r_min * (1.0 + margin) or hi >= scheme.r_max * (1.0 - margin):
            raise ValueError(f"support [{lo:.3g}, {hi:.3g}] touches the shell "
                             f"[{scheme.r_min:.3g}, {scheme.r_max:.3g}]")
    x = scheme.nodes
    grads = np.asarray(phi.grad(x), dtype=float)
    dirichlet = float(np.dot(scheme.weights, norms.norm_eval(fam, x, grads) ** fam.p))
    pot = 0.0
    if V is not None:
        vals = np.asarray(phi(x), dtype=float)
        pot = float(np.dot(scheme.weights, np.asarray(V(x), dtype=float) * np.abs(vals) ** fam.p))
    total = dirichlet + pot
    if not np.isfinite(total):
        raise ValueError(f"energy is {total!r}")
    return EnergyBreakdown(dirichlet=dirichlet, potential=pot, total=total)


# -- two-pass norm formulas ---------------------------------------------------
#
# The per-quantity closed forms that norms.py evaluated before it took H and
# grad H from one pass: each of H, grad H, the flux map and the closed duals
# recomputes its own blocks.  The one-pass evaluator must match them bit for bit.


def _two_pass_lp_scaled(xi, s):
    m = np.max(np.abs(xi), axis=-1, keepdims=True)
    safe = np.where(m > 0.0, m, 1.0)
    z = xi / safe
    return m, safe, z, np.sum(np.abs(z) ** s, axis=-1, keepdims=True)


def _two_pass_lp_norm(xi, s):
    m, safe, _, S = _two_pass_lp_scaled(xi, s)
    return np.where(m > 0.0, safe * S ** (1.0 / s), 0.0)[..., 0]


def _two_pass_lp_grad(xi, s):
    _, _, z, S = _two_pass_lp_scaled(xi, s)
    return np.sign(z) * np.abs(z) ** (s - 1.0) * S ** (1.0 / s - 1.0)


def _two_pass_quad_norm(xi, A):
    return np.sqrt(np.einsum("...i,...i->...", xi, xi @ A))


def _two_pass_mixed_value(hs, ha, p):
    m = np.maximum(hs, ha)
    safe = np.where(m > 0.0, m, 1.0)
    val = safe * ((hs / safe) ** p + (ha / safe) ** p) ** (1.0 / p)
    return np.where(m > 0.0, val, 0.0)


def two_pass_norm(fam, x, xi):
    """H(x, xi), kind by kind."""
    xi = np.asarray(xi, dtype=float)
    if fam.kind == "euclidean":
        return np.linalg.norm(xi, axis=-1)
    if fam.kind == "lp":
        return _two_pass_lp_norm(xi, fam.s)
    if fam.kind == "quadratic":
        return _two_pass_quad_norm(xi, fam.A)
    if fam.kind == "mixed":
        return _two_pass_mixed_value(_two_pass_lp_norm(xi, fam.s),
                                     _two_pass_quad_norm(xi, fam.A), fam.p)
    r = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
    return r ** (fam.delta / fam.p) * two_pass_norm(fam.base, None, xi)


def two_pass_grad(fam, x, xi):
    """grad_xi H(x, xi) for xi != 0, recomputing H's blocks."""
    xi = np.asarray(xi, dtype=float)
    if fam.kind == "euclidean":
        return xi / np.linalg.norm(xi, axis=-1, keepdims=True)
    if fam.kind == "lp":
        return _two_pass_lp_grad(xi, fam.s)
    if fam.kind == "quadratic":
        return (xi @ fam.A) / _two_pass_quad_norm(xi, fam.A)[..., None]
    if fam.kind == "mixed":
        hs = _two_pass_lp_norm(xi, fam.s)[..., None]
        ha = _two_pass_quad_norm(xi, fam.A)[..., None]
        h = _two_pass_mixed_value(hs, ha, fam.p)
        gs = _two_pass_lp_grad(xi, fam.s)
        ga = (xi @ fam.A) / ha
        return (hs ** (fam.p - 1.0) * gs + ha ** (fam.p - 1.0) * ga) * h ** (1.0 - fam.p)
    r = np.linalg.norm(np.asarray(x, dtype=float), axis=-1)
    return r[..., None] ** (fam.delta / fam.p) * two_pass_grad(fam.base, None, xi)


def two_pass_operator_a(fam, x, xi):
    """(a, H^p): H over every row, then grad H over the nonzero rows."""
    xi = np.asarray(xi, dtype=float)
    h = two_pass_norm(fam, x, xi)
    if x is not None:
        x = np.broadcast_to(np.asarray(x, dtype=float), xi.shape)
    nz = np.linalg.norm(xi, axis=-1) > 0.0
    a = np.zeros_like(xi)
    a[nz] = h[nz][..., None] ** (fam.p - 1.0) * two_pass_grad(
        fam, None if x is None else x[nz], xi[nz])
    return a, h ** fam.p


def two_pass_dual(fam, y):
    """(H0, grad H0) of the euclidean, lp and quadratic kinds, one formula each."""
    y = np.asarray(y, dtype=float)
    if fam.kind == "euclidean":
        return np.linalg.norm(y, axis=-1), y / np.linalg.norm(y, axis=-1, keepdims=True)
    if fam.kind == "lp":
        s = fam.s / (fam.s - 1.0)
        return _two_pass_lp_norm(y, s), _two_pass_lp_grad(y, s)
    return (_two_pass_quad_norm(y, fam.A_inv),
            (y @ fam.A_inv) / _two_pass_quad_norm(y, fam.A_inv)[..., None])


# -- Bregman distance at high precision ----------------------------------------


def mp_bregman_distance(fam, xi, eta, dps=60):
    """D(xi + eta, xi) of H^p over rows, at ``dps`` digits, rounded to floats.

    H^p is formed as the sum of its parts (sum |v_i|^s)^(p/s) and
    (v . A v)^(p/2), and the linear term from their analytic gradients, so at
    60 digits the difference of large numbers loses nothing a float can hold.
    """
    with mpmath.workdps(dps):
        p = mpmath.mpf(fam.p)
        A = None if fam.kind == "lp" else mpmath.matrix(
            np.eye(fam.n) if fam.kind == "euclidean" else fam.A)

        def value_and_grad(v):
            val, grad = mpmath.mpf(0), [mpmath.mpf(0)] * len(v)
            if fam.kind in ("lp", "mixed"):
                s = mpmath.mpf(fam.s)
                S = mpmath.fsum(abs(c) ** s for c in v)
                if S > 0:
                    val += S ** (p / s)
                    grad = [g + p * S ** (p / s - 1) * mpmath.sign(c) * abs(c) ** (s - 1)
                            for g, c in zip(grad, v)]
            if A is not None:
                Av = A * mpmath.matrix(v)
                Q = mpmath.fsum(c * a for c, a in zip(v, Av))
                if Q > 0:
                    val += Q ** (p / 2)
                    grad = [g + p * Q ** (p / 2 - 1) * a for g, a in zip(grad, Av)]
            return val, grad

        out = []
        for x, e in zip(np.atleast_2d(xi), np.atleast_2d(eta)):
            x, e = [mpmath.mpf(float(c)) for c in x], [mpmath.mpf(float(c)) for c in e]
            hx, gx = value_and_grad(x)
            out.append(float(value_and_grad([a + b for a, b in zip(x, e)])[0] - hx
                             - mpmath.fsum(g * c for g, c in zip(gx, e))))
    return np.array(out)


# -- two-formula log cutoff ---------------------------------------------------
#
# The cutoff value and its slope as hardy.py evaluated them before one pass
# returned both: each has its own breakpoint tests, closed for phi_k and open
# for t phi_k'.  hardy.cutoff must match them bit for bit.


def cutoff_reference(t, k, one_sided=False):
    """phi_k: 0 / 2+log t/log k / 1 / 2-log t/log k / 0 at breakpoints 1/k^2, 1/k, k, k^2."""
    t = np.asarray(t, dtype=float)
    lk = math.log(k)
    with np.errstate(divide="ignore"):
        logt = np.where(t > 0.0, np.log(np.maximum(t, 1e-300)), -np.inf)
    if one_sided:
        return np.clip(np.select([t <= 1.0 / k ** 2, t <= 1.0 / k],
                                 [0.0, 2.0 + logt / lk], 1.0), 0.0, 1.0)
    return np.clip(np.select(
        [t <= 1.0 / k ** 2, t <= 1.0 / k, t <= k, t <= k ** 2],
        [0.0, 2.0 + logt / lk, 1.0, 2.0 - logt / lk], 0.0), 0.0, 1.0)


def cutoff_slope_reference(t, k, one_sided=False):
    """t phi_k'(t): +-1/log k on the transitions, 0 elsewhere (kinks -> 0)."""
    t = np.asarray(t, dtype=float)
    m = 1.0 / math.log(k)
    rising = (t > 1.0 / k ** 2) & (t < 1.0 / k)
    out = np.where(rising, m, 0.0)
    if not one_sided:
        falling = (t > k) & (t < k ** 2)
        out = np.where(falling, -m, out)
    return out
