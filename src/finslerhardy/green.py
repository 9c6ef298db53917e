"""Radial Green potentials of -div a(grad u) + c_p V |u|^(p-2) u = phi.

For the euclidean norm kind the equation reduces to the radial ODE

    -(r^(n-1) psi(u'))' + r^(n-1) c_p V(r) psi(u) = r^(n-1) phi(r),
    psi(z) = |z|^(p-2) z,

with a zero-flux (regular center) condition at the inner guard radius and
either a Dirichlet condition u(R_out) = 0 (bounded-domain semantics) or a
far-field power-decay condition matching u ~ A r^((p-n)/(p-1)) (truncation
of R^n, p < n), which encodes lim_{x->infinity} u = 0 exactly.

Discretization: P1 finite elements on a geometric mesh (p-flux exact per
element, potential/source by per-element Gauss), damped Newton with the
degenerate gradient regularized as (z^2 + eps^2)^((p-2)/2) z, eps = 1e-10,
warm-started from the exact p = 2 linear solve and continued in the
exponent p.  Amplitude continuation is unnecessary: u solves with phi iff
s u solves with s^(p-1) phi, exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dfield
from types import SimpleNamespace

import numpy as np

from . import fields, quadrature
from .errors import SolverError
from .lapack import tridiagonal_solve
from .newton import NewtonStats, damped_newton, solver_error
from .scalar import Pchip, brentq


def _psi(z, p, eps=0.0):
    """|z|^(p-2) z; the optional eps smooths only the Jacobian path."""
    if eps == 0.0:
        return np.sign(z) * np.abs(z) ** (p - 1.0)
    return z * (z * z + eps * eps) ** ((p - 2.0) / 2.0)


def _dpsi(z, p, eps):
    return (z * z + eps * eps) ** ((p - 4.0) / 2.0) * ((p - 1.0) * z * z + eps * eps)


def _bump(r, r_a, r_b, height=1.0):
    """height * exp(1 - 1/(1 - z^2)) for z = (2r - r_a - r_b)/(r_b - r_a), 0 for |z| >= 1."""
    z = (2.0 * np.asarray(r, dtype=float) - (r_a + r_b)) / (r_b - r_a)
    out = np.zeros_like(z)
    inside = np.abs(z) < 1.0
    out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - z[inside] ** 2))
    return out


class BumpDensity:
    """Smooth radial bump supported on [r_a, r_b], normalized to total mass."""

    def __init__(self, r_a, r_b, mass, n):
        if not 0.0 < r_a < r_b:
            raise ValueError("need 0 < r_a < r_b")
        self.r_a, self.r_b, self.mass, self.n = float(r_a), float(r_b), float(mass), int(n)
        self._scale = self.mass / quadrature.radial_integral(
            lambda r: _bump(r, self.r_a, self.r_b), self.r_a, self.r_b, n,
            quadrature.angular_measure(n), n_r=512, order=4)

    def __call__(self, r):
        return self._scale * _bump(r, self.r_a, self.r_b)


def bump_potential(r_a, r_b, depth):
    """Nonpositive smooth radial potential -depth * bump profile on [r_a, r_b]."""
    r_a, r_b, depth = float(r_a), float(r_b), float(depth)

    def V(r):
        return _bump(r, r_a, r_b, height=-depth)

    V.support = (r_a, r_b)
    return V


@dataclass
class RadialProblem:
    p: float
    n: int
    phi: BumpDensity
    V: object = None                  # callable r -> value, or None
    R_out: float = 100.0
    n_cells: int = 2048
    r_min: float | None = None
    boundary: str = "decay"           # decay | dirichlet

    def __post_init__(self):
        if self.r_min is None:
            self.r_min = min(self.phi.r_a / 50.0, self.R_out * 1e-5)
        if self.boundary == "decay" and self.p >= self.n:
            # no power decay for p >= n; fall back to the bounded-domain BC
            self.boundary = "dirichlet"

    @property
    def c_p(self):
        return (self.p / (self.p - 1.0)) ** (self.p - 1.0)

    @property
    def decay_exponent(self):
        return (self.p - self.n) / (self.p - 1.0)


def load_problem(path):
    """Problem file (JSON): {p, n, V:{type,params}, phi:{r_a,r_b,mass}, R_out, mesh}."""
    with open(path) as fh:
        spec = json.load(fh)
    n = int(spec["n"])
    phi = BumpDensity(spec["phi"]["r_a"], spec["phi"]["r_b"],
                      spec["phi"].get("mass", 1.0), n)
    V = None
    vs = spec.get("V")
    if vs and vs.get("type", "none") != "none":
        if vs["type"] == "bump":
            V = bump_potential(vs["r_a"], vs["r_b"], vs["depth"])
        else:
            raise ValueError(f"unknown potential type {vs['type']!r}")
    return RadialProblem(p=float(spec["p"]), n=n, phi=phi, V=V,
                         R_out=float(spec.get("R_out", 100.0)),
                         n_cells=int(spec.get("mesh", 2048)),
                         boundary=spec.get("boundary", "decay"))


@dataclass
class GreenPotential:
    r: np.ndarray
    u: np.ndarray
    residual: float
    problem: RadialProblem
    newton: NewtonStats   # summed over the continuation; the last stage's exit
    _interp: object = dfield(init=False, repr=False)
    _dinterp: object = dfield(init=False, repr=False)

    def __post_init__(self):
        self._interp = Pchip(self.r, self.u)
        self._dinterp = self._interp.derivative()

    @property
    def newton_iters(self):
        return self.newton.iterations

    def profile(self, r):
        r = np.clip(np.asarray(r, dtype=float), self.r[0], self.r[-1])
        return self._interp(r)

    def dprofile(self, r):
        r = np.clip(np.asarray(r, dtype=float), self.r[0], self.r[-1])
        return self._dinterp(r)

    def field(self):
        """The potential as a field of |x|, invertible on its mesh."""
        return fields.RadialProfileField(self.profile, self.dprofile, kind="green_radial",
                                         bracket=(self.r[0], self.r[-1]))

    def radius_of_level(self, t):
        """Radius with u(r) = t on the decreasing far side (outside supp phi)."""
        lo = self.problem.phi.r_b
        hi = self.r[-1]
        return brentq(lambda rr: float(self.profile(rr)) - t, lo, hi,
                      xtol=1e-14 * hi)


def _mesh(prob):
    """The geometric mesh r and the u-independent terms of :func:`_assemble`,
    taken once per solve: element widths h and exact moments m_e = int_e
    r^(n-1) dr, the outer elimination ratio cN, and on each element's 2-point
    Gauss points the weights (times r^(n-1)), the hat coordinate lam and the
    values of phi and V."""
    r = np.geomspace(prob.r_min, prob.R_out, prob.n_cells + 1)
    # keep the density and potential support crossings as mesh points
    for a in (prob.phi.r_a, prob.phi.r_b, *(getattr(prob.V, "support", None) or ())):
        i = int(np.argmin(np.abs(r - a)))
        if 0 < i < len(r) - 1:
            r[i] = a
    n = prob.n
    h = np.diff(r)
    rg, wg = (a.reshape(-1, 2) for a in quadrature.gauss_panels(r, 2))
    return SimpleNamespace(
        r=r, h=h, me=(r[1:] ** n - r[:-1] ** n) / n,
        cN=(r[-1] / r[-2]) ** prob.decay_exponent if prob.boundary == "decay" else 0.0,
        wg=wg * rg ** (n - 1), lam=(rg - r[:-1, None]) / h[:, None],
        phi_g=prob.phi(rg), V_g=prob.V(rg) if prob.V is not None else np.zeros_like(rg))


def _assemble(prob, mesh, u_in, p, jac=True):
    """Residual and, if ``jac``, tridiagonal Jacobian bands for the interior unknowns.

    Unknowns are u_0..u_{N-1}; the last node u_N is eliminated through the
    outer boundary condition u_N = cN u_{N-1} (cN = 0 for Dirichlet, the
    power-decay ratio otherwise).  Weak form per node i:

        F_i = fl_{i-1} - fl_i + L_i,   fl_e = psi(u'_e) m_e / h_e,

    with m_e the exact element moment int_e r^(n-1) dr and L_i the Gauss
    load of (c_p V psi(u) - phi) against the hat of node i.  Returns
    ``(F, (dlow, dmain, dup))``, or ``(F, None)`` without ``jac``.
    """
    c_p = prob.c_p
    N = len(mesh.r) - 1
    cN, h, me, wg, lam, V_g = mesh.cN, mesh.h, mesh.me, mesh.wg, mesh.lam, mesh.V_g
    u = np.concatenate([u_in, [cN * u_in[-1]]])
    du = np.diff(u) / h
    # regularization kept three orders below the smallest physical slope
    # (the outer one): bias (eps/|u'|)^2 <= 1e-6 everywhere except exact
    # plateaus, where du = 0 solves the regularized and exact systems alike
    du_out = abs(float(du[-1]))
    eps = 1e-3 * du_out if du_out > 0.0 else 1e-10
    fl = _psi(du, p, eps=eps) * me / h
    # loads: 2-pt Gauss per element, P1 hats
    u_g = u[:-1, None] * (1.0 - lam) + u[1:, None] * lam
    val = c_p * V_g * _psi(u_g, p, eps=eps) - mesh.phi_g
    load_l = np.sum(wg * val * (1.0 - lam), axis=1)      # onto node e
    load_r = np.sum(wg * val * lam, axis=1)              # onto node e+1

    F = np.zeros(N)
    F -= fl[:N]
    F[1:] += fl[: N - 1]
    F += load_l[:N]
    F[1:] += load_r[: N - 1]
    if not jac:
        return F, None

    d = _dpsi(du, p, eps=eps) * me / h ** 2       # d fl_e / d u_{e+1} = +d_e
    dval = c_p * V_g * _dpsi(u_g, p, eps=eps)
    ll = np.sum(wg * dval * (1.0 - lam) ** 2, axis=1)
    lr = np.sum(wg * dval * (1.0 - lam) * lam, axis=1)
    rr = np.sum(wg * dval * lam ** 2, axis=1)
    dmain = d[:N].copy()
    dmain[1:] += d[: N - 1]
    dmain += ll[:N]
    dmain[1:] += rr[: N - 1]
    dlow = -d[: N - 1] + lr[: N - 1]
    dup = -d[: N - 1] + lr[: N - 1]
    # boundary elimination: element N-1 couples u_{N-1} to itself via u_N
    # flux: d fl_{N-1}/d u_{N-1} = d_{N-1} (cN - 1); generic assembly above
    # used -d_{N-1} (as if u_N were fixed), correct by +cN d_{N-1}:
    dmain[N - 1] -= cN * d[N - 1]
    # load: u on element N-1 is u_{N-1}((1-lam) + cN lam)
    dmain[N - 1] += cN * lr[N - 1]
    return F, (dlow, dmain, dup)


def _linear_warm_start(prob, mesh):
    """Exact p = 2 solve of the same problem (psi = identity, one Newton step)."""
    u = np.zeros(len(mesh.r) - 1)
    for _ in range(3):
        F, bands = _assemble(prob, mesh, u, 2.0)
        if np.linalg.norm(F) < 1e-14 * (1.0 + np.linalg.norm(u)):
            break
        u = u - _newton_step(bands, F)
    return u


def _newton_step(bands, F):
    """The Newton step; a singular Jacobian is a numeric failure, not bad input."""
    try:
        return tridiagonal_solve(*bands, F)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"Green Newton solve failed: {exc}") from exc


def solve_green(prob):
    """Damped-Newton solve with exponent continuation from the p = 2 start.

    Each stage is one ``newton.damped_newton`` solve of at most 200 steps, to
    a scaled residual of 3e-10 at the target p and 1e-8 on the way there.  It
    may end at the round-off floor (its line searches capped, where 40
    halvings ran three times before a stall counter stopped them) or stall
    below 5e-8; ``maxit``, or a floor above 5e-8, raises :class:`SolverError`.
    The returned residual is the scaled discrete norm of the final Newton
    residual, and the profile is the positive FEM solution with PCHIP
    interpolation.
    """
    mesh = _mesh(prob)
    r = mesh.r
    u = _linear_warm_start(prob, mesh)
    # load scale for the convergence test
    scale = float(np.linalg.norm(_assemble(prob, mesh, np.zeros(len(r) - 1), prob.p,
                                           jac=False)[0]))
    p_path = [prob.p] if prob.p == 2.0 else list(np.linspace(2.0, prob.p, 8)[1:])
    accept = 5e-8
    iters = backtracks = 0
    for p_now in p_path:
        def evaluate(u):
            norm = float(np.linalg.norm(_assemble(prob, mesh, u, p_now, jac=False)[0]))
            return norm / scale, norm, None

        def direction(u, _):
            F, bands = _assemble(prob, mesh, u, p_now)
            return _newton_step(bands, F)

        u, res, _, stats = damped_newton(evaluate, direction, u, 3e-10 if p_now == prob.p
                                         else 1e-8, 200, accept=accept)
        iters, backtracks = iters + stats.iterations, backtracks + stats.backtracks
        if stats.exit == "maxit" or (stats.exit == "floor" and not res < accept):
            raise solver_error(f"Green Newton at p = {p_now}", stats, res)
    u_full = np.concatenate([u, [mesh.cN * u[-1]]])
    if np.any(u_full[:-1] <= 0.0):
        raise SolverError("solution lost positivity")
    return GreenPotential(r=r, u=u_full, residual=res, problem=prob,
                          newton=NewtonStats(iters, backtracks, stats.exit))


# ---------------------------------------------------------------------------
# derived checks
# ---------------------------------------------------------------------------


def level_flux(gp, r_t):
    """ang * r_t^(n-1) |u'(r_t)|^(p-1): the level-set flux of the radial profile at r_t."""
    prob = gp.problem
    ang = quadrature.angular_measure(prob.n)
    return ang * r_t ** (prob.n - 1) * abs(float(gp.dprofile(r_t))) ** (prob.p - 1.0)


def flux_identity_rhs(gp, r_t):
    """int_{u > t} (phi - c_p V psi(u)) dx over the superlevel ball {r < r_t}."""
    prob = gp.problem

    def source(r):
        vals = prob.phi(r)
        if prob.V is not None:
            vals = vals - prob.c_p * prob.V(r) * _psi(gp.profile(r), prob.p)
        return vals

    return quadrature.radial_integral(source, gp.r[0], r_t, prob.n,
                                      quadrature.angular_measure(prob.n),
                                      align=(prob.phi.r_a, prob.phi.r_b), n_r=2048,
                                      order=4)


def flux_bound_check(gp):
    """Level-flux bounds (C0, M_phi) plus the Gauss-Green flux identity.

    ``C0 = max(int (phi + |V| G^(p-1)), 1 / int phi)`` is the computable
    constant of the two-sided level-flux bounds; the check verifies, on 20
    levels, ``flux(t) <= C0`` for all of them, ``flux(t) >= 1/C0`` for
    ``t < M_phi`` (the largest level whose superlevel set contains supp
    phi), both within 1e-2 (relative), and reports the error of the identity
    ``flux(t) = int_{u>t} (phi - c_p V psi(u))``.
    """
    prob = gp.problem
    ang = quadrature.angular_measure(prob.n)

    def whole(f, angular):
        return quadrature.radial_integral(f, gp.r[0], gp.r[-1], prob.n, angular,
                                          align=(prob.phi.r_a, prob.phi.r_b),
                                          n_r=2048, order=4)

    mass_phi = whole(prob.phi, ang)
    up_int = mass_phi
    if prob.V is not None:
        up_int = up_int + whole(
            lambda r: np.abs(prob.V(r)) * _psi(gp.profile(r), prob.p), ang * prob.c_p)
    C0 = max(up_int, 1.0 / mass_phi)
    # M_phi: supp phi inside {u > t} iff t < min of u over supp phi
    rs = np.geomspace(prob.phi.r_a, prob.phi.r_b, 256)
    M_phi = float(np.min(gp.profile(rs)))
    t_hi = float(gp.profile(np.asarray([prob.phi.r_b]))[0])
    t_lo = float(gp.u[-2]) if prob.boundary == "dirichlet" else float(gp.u[-1])
    t_lo = max(t_lo * 1.5, t_hi * 1e-6)
    levels = np.geomspace(t_lo * 1.05, t_hi * 0.95, 20)
    rows = []
    for t in levels:
        r_t = gp.radius_of_level(float(t))
        fl = level_flux(gp, r_t)
        rhs = flux_identity_rhs(gp, r_t)
        rows.append({"t": float(t), "flux": fl, "rhs": rhs,
                     "rel_err": abs(fl / rhs - 1.0)})
    rtol = 1e-2
    upper_ok = all(row["flux"] <= C0 * (1.0 + rtol) for row in rows)
    floor_ok = all(row["flux"] >= (1.0 - rtol) / C0
                   for row in rows if row["t"] < M_phi)
    worst = max(row["rel_err"] for row in rows)
    return {"C0": C0, "M_phi": M_phi, "rows": rows, "mass_phi": mass_phi,
            "upper_ok": upper_ok, "floor_ok": floor_ok,
            "worst_identity_rel_err": worst}


def farfield_exponent(gp):
    """Fit u ~ A r^beta + B on [4 r_b, R_out / 8]; returns (beta, A, B).

    The constant B absorbs any Dirichlet truncation offset; with the decay
    boundary condition B is at the noise level.  A and B enter linearly
    (variable projection, Golub and Pereyra 1973): with x = r^beta and y = u
    centred, the best beta maximises c^2 for the correlation c = (x.y)/|x|.
    A grid scan brackets it and ``brentq`` finds the root of c', whose sign
    is that of (x'.y)(x.x) - (x.y)(x.x') for x' = centred r^beta log r.
    Where c' keeps one sign on the bracket, the scan's grid beta is
    returned: the best beta is at a grid end, or p = n, where the far field
    is logarithmic and c jumps at beta = 0, where x vanishes.  A NaN or
    infinite residual in the scan raises ``SolverError``.
    """
    prob = gp.problem
    lo, hi = 4.0 * prob.phi.r_b, 0.125 * prob.R_out
    if not lo < hi:
        raise ValueError("far-field window is empty; increase R_out")
    mask = (gp.r >= lo) & (gp.r <= hi)
    rr, uu = gp.r[mask], gp.u[mask]
    log_r, yc = np.log(rr), uu - uu.mean()

    beta_grid = np.linspace(-4.0, -1e-3, 160) if prob.p < prob.n else \
        np.linspace(-4.0, 4.0, 320)
    # every grid beta at once by the centred closed form of the two-column fit
    xc = rr ** beta_grid[:, None]
    xc -= xc.mean(axis=1, keepdims=True)
    fit = yc - (xc @ yc / np.einsum("ij,ij->i", xc, xc))[:, None] * xc
    residuals = np.einsum("ij,ij->i", fit, fit)
    if not np.all(np.isfinite(residuals)):
        raise SolverError("far-field fit: a residual over the beta grid is NaN or infinite")
    i = int(np.argmin(residuals))
    bracket = beta_grid[max(0, i - 1)], beta_grid[min(len(beta_grid) - 1, i + 1)]

    def dcorr(beta):
        x = rr ** beta
        dx = x * log_r
        x, dx = x - x.mean(), dx - dx.mean()
        return (dx @ yc) * (x @ x) - (x @ yc) * (x @ dx)

    if np.sign(dcorr(bracket[0])) * np.sign(dcorr(bracket[1])) > 0:
        beta = float(beta_grid[i])
    else:
        beta = brentq(dcorr, *bracket, xtol=1e-14)
    X = np.stack([rr ** beta, np.ones_like(rr)], axis=1)
    coef, *_ = np.linalg.lstsq(X, uu, rcond=None)
    return beta, float(coef[0]), float(coef[1])
