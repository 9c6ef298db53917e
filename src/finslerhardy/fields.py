"""Positive scalar fields on punctured domains and their verification tools.

The explicit anisotropic p-harmonic candidates live here:

* the dual-power field ``H0(x)^((p-n)/(p-1))`` for ``p != n``,
* the logarithmic field ``log(R / H0(x))`` for ``p = n``,

together with radial profile fields (Green potentials, synthetic capped
profiles), composition (chain rule), smooth bump test functions, a weak
residual verifier for ``-div a(x, grad u) + V u^(p-1) = 0``, and level-set
flux quadrature for the coarea constant.

Every field evaluates on point arrays of shape (m, n) and exposes an
analytic gradient.  Radial fields carry their gauge (see
:mod:`quadrature`): ``None`` for profiles of |x|, or the family whose dual
norm H0 is their radial coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import norms, quadrature
from .errors import BranchError, DomainError
from .scalar import brentq

# ---------------------------------------------------------------------------
# domains
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Domain:
    """The annulus {r_inner < rho < r_outer} in R^n, clear of the puncture at 0."""

    n: int
    r_inner: float
    r_outer: float

    def __post_init__(self):
        if not 0.0 < self.r_inner < self.r_outer:
            raise ValueError("annulus needs 0 < r0 < r1")


def annulus(r0, r1, n):
    return Domain(n, float(r0), float(r1))


# ---------------------------------------------------------------------------
# scalar fields
# ---------------------------------------------------------------------------


class ScalarField:
    """Base: positive scalar field with an analytic gradient.

    Radial fields carry ``radial = (gauge, value, dvalue)``, the profile of
    the gauge's radial coordinate and its derivative, plus
    ``radial_inverse(t)`` when the profile is invertible.  The field is
    defined where the radial coordinate is below ``radial_bound``.
    """

    kind = "generic"
    radial = None
    radial_bound = math.inf

    def __call__(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def radial_inverse(self, t):
        raise NotImplementedError


class FuncField(ScalarField):
    """Wrap a plain callable and its gradient."""

    def __init__(self, fn, grad):
        self._fn = fn
        self._grad = grad

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=float))

    def grad(self, x):
        return self._grad(np.asarray(x, dtype=float))


class DualPowerField(ScalarField):
    """G(x) = H0(x)^a with a = (p-n)/(p-1); anisotropic p-harmonic off the puncture."""

    kind = "dual_power"

    def __init__(self, fam):
        if fam.kind == "weighted":
            raise BranchError("dual-power field needs an x-independent family")
        if fam.p == fam.n:
            raise BranchError("p = n has no dual-power field; use the log field")
        self.fam = fam
        self.a = (fam.p - fam.n) / (fam.p - 1.0)
        self.radial = (fam, lambda r: r ** self.a,
                       lambda r: self.a * r ** (self.a - 1.0))

    def __call__(self, x):
        return norms.dual_norm(self.fam, x) ** self.a

    def grad(self, x):
        h0, g0 = norms.dual(self.fam, x)
        return self.a * h0[..., None] ** (self.a - 1.0) * g0

    def radial_inverse(self, t):
        return np.asarray(t, dtype=float) ** (1.0 / self.a)


class LogDualField(ScalarField):
    """G(x) = log(R / H0(x)) on {H0 < R}; the p = n harmonic candidate."""

    kind = "log_dual"

    def __init__(self, fam, R):
        if fam.kind == "weighted":
            raise BranchError("log-dual field needs an x-independent family")
        if fam.p != fam.n:
            raise BranchError("log-dual field is the p = n candidate")
        if R <= 0.0:
            raise ValueError("R must be positive")
        self.fam = fam
        self.R = self.radial_bound = float(R)
        self.radial = (fam, lambda r: np.log(self.R / r), lambda r: -1.0 / r)

    def __call__(self, x):
        h0 = norms.dual_norm(self.fam, x)
        if np.any(h0 >= self.R):
            raise DomainError("point outside {H0 < R}")
        return np.log(self.R / h0)

    def grad(self, x):
        h0, g0 = norms.dual(self.fam, x)
        if np.any(h0 >= self.R):
            raise DomainError("point outside {H0 < R}")
        return -g0 / h0[..., None]

    def radial_inverse(self, t):
        return self.R * np.exp(-np.asarray(t, dtype=float))


class RadialProfileField(ScalarField):
    """Field defined by a 1D profile of |x|."""

    def __init__(self, profile, dprofile, kind="radial", bracket=None):
        self._profile = profile
        self._dprofile = dprofile
        self.kind = kind
        self.radial = (None, profile, dprofile)
        self._bracket = bracket  # (r_lo, r_hi) for inversion

    def __call__(self, x):
        return self._profile(quadrature.radius(None, x))

    def grad(self, x):
        rho = quadrature.radius(None, x)
        return self._dprofile(rho)[..., None] * quadrature.radius_grad(None, x)

    def radial_inverse(self, t):
        t = float(t)
        lo, hi = self._bracket
        return brentq(lambda r: self._profile(np.asarray([r]))[0] - t, lo, hi,
                      xtol=1e-14 * hi, rtol=8.9e-16)


class ComposedField(ScalarField):
    """f(inner field) with the chain rule; f given with its derivative."""

    def __init__(self, f, fprime, inner, kind="composed"):
        self._f = f
        self._fp = fprime
        self.inner = inner
        self.kind = kind
        self.radial_bound = inner.radial_bound
        if inner.radial is not None:
            gauge, prof, dprof = inner.radial
            self.radial = (gauge,
                           lambda r: f(prof(r)),
                           lambda r: fprime(prof(r)) * dprof(r))

    def __call__(self, x):
        return self._f(self.inner(x))

    def grad(self, x):
        return self._fp(self.inner(x))[..., None] * self.inner.grad(x)

    def radial_inverse(self, t):
        raise NotImplementedError("invert through the inner field instead")


def power_of(field, exponent):
    """field^exponent with the chain rule (used for ground states t^((p-1)/p))."""
    e = float(exponent)
    return ComposedField(lambda t: t ** e, lambda t: e * t ** (e - 1.0), field,
                         kind=f"pow[{e:g}]({field.kind})")


def synthetic_capped_profile(sigma, R, a=2.0, b=0.0):
    """Radial profile sigma (1 - (r/R)^a)(r/R)^b on (0, R): 0 < G < sigma.

    Not claimed p-harmonic; exercises the capped weight formulas.  b = 0
    gives the limit shape G -> sigma at the puncture, G -> 0 at r = R.
    """
    sigma, R, a, b = float(sigma), float(R), float(a), float(b)

    def prof(r):
        z = np.asarray(r, dtype=float) / R
        return sigma * (1.0 - z ** a) * (z ** b if b else 1.0)

    def dprof(r):
        z = np.asarray(r, dtype=float) / R
        if b:
            return sigma * (b * z ** (b - 1.0) * (1.0 - z ** a) - a * z ** (a + b - 1.0)) / R
        return -sigma * a * z ** (a - 1.0) / R

    return RadialProfileField(prof, dprof, kind="sigma_capped",
                              bracket=(1e-12 * R, R * (1.0 - 1e-12)))


# ---------------------------------------------------------------------------
# bump test functions
# ---------------------------------------------------------------------------


class Bump(ScalarField):
    """C^infinity bump A exp(1 - 1/(1 - |x-c|^2/rho^2)) supported in B_rho(c)."""

    kind = "bump"

    def __init__(self, center, rho, amplitude=1.0):
        self.center = np.asarray(center, dtype=float)
        self.rho = float(rho)
        self.amplitude = float(amplitude)
        r = np.linalg.norm(self.center)
        self.support = (r - self.rho, r + self.rho)

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        u = np.sum((x - self.center) ** 2, axis=-1) / self.rho ** 2
        out = np.zeros(u.shape)
        inside = u < 1.0
        out[inside] = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - u[inside]))
        return out

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        d = x - self.center
        u = np.sum(d ** 2, axis=-1) / self.rho ** 2
        out = np.zeros_like(x)
        inside = u < 1.0
        vals = self.amplitude * np.exp(1.0 - 1.0 / (1.0 - u[inside]))
        fac = -vals / (1.0 - u[inside]) ** 2 * (2.0 / self.rho ** 2)
        out[inside] = fac[:, None] * d[inside]
        return out


def _ball_scheme(center, rho, n, n_panels, n_ang, order=2):
    """Local polar quadrature on B_rho(center), composite Gauss in radius."""
    gx, gw = quadrature._gauss(order)
    edges = np.linspace(0.0, rho, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    r = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wr = (half[:, None] * gw[None, :]).ravel()
    omega, wo = (quadrature.circle_rule(n_ang) if n == 2
                 else quadrature.sphere_rule(max(4, n_ang // 2)))
    nodes = center[None, :] + (r[:, None, None] * omega[None, :, :]).reshape(-1, n)
    w = (wr[:, None] * r[:, None] ** (n - 1) * wo[None, :]).ravel()
    return nodes, w


def random_bumps(dom, n_tests, seed, margin=0.05, rho_frac=(0.25, 0.75)):
    """Seeded bump family inside the domain, supports clear of puncture and boundary."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    lo, hi = dom.r_inner, dom.r_outer
    bumps = []
    for _ in range(n_tests):
        rc = math.exp(rng.uniform(math.log(lo * (1.0 + 4.0 * margin)),
                                  math.log(hi * (1.0 - 4.0 * margin))))
        direction = rng.standard_normal(dom.n)
        direction /= np.linalg.norm(direction)
        gap = min(rc - lo, hi - rc, rc * 0.45)
        rho = rng.uniform(*rho_frac) * gap
        amp = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        bumps.append(Bump(rc * direction, rho, amp))
    return bumps


def _cap_rule(bump, n, n_ang):
    """Directions within the angle a bump's ball subtends, with surface weights."""
    rc = np.linalg.norm(bump.center)
    center_dir = bump.center / rc
    gamma = math.asin(min(0.999999, bump.rho / rc))
    gx, gw = quadrature._gauss(3)
    if n == 2:
        phi_c = math.atan2(center_dir[1], center_dir[0])
        edges = np.linspace(phi_c - gamma, phi_c + gamma, max(2, n_ang // 3) + 1)
        mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
        ang = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
        w = (half[:, None] * gw[None, :]).ravel()
        return np.stack([np.cos(ang), np.sin(ang)], axis=-1), w
    # n == 3: polar cap in local coordinates
    ref = np.array([0.0, 0.0, 1.0]) if abs(center_dir[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    t1 = np.cross(ref, center_dir)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(center_dir, t1)
    n_mu = max(2, n_ang // 4)
    edges = np.linspace(math.cos(gamma), 1.0, n_mu + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    mu = (mid[:, None] + half[:, None] * gx[None, :]).ravel()
    wmu = (half[:, None] * gw[None, :]).ravel()
    n_b = max(8, n_ang // 2)
    beta = 2.0 * math.pi * np.arange(n_b) / n_b
    wb = 2.0 * math.pi / n_b
    st = np.sqrt(np.maximum(0.0, 1.0 - mu ** 2))
    omega = (mu[:, None, None] * center_dir[None, None, :]
             + (st[:, None] * np.cos(beta)[None, :])[..., None] * t1[None, None, :]
             + (st[:, None] * np.sin(beta)[None, :])[..., None] * t2[None, None, :])
    w = (wmu[:, None] * np.full(n_b, wb)[None, :])
    return omega.reshape(-1, 3), w.ravel()


def _shell_patches(gauge, bumps, n, n_rho=16, n_ang=24):
    """Shell-aligned quadrature patches covering the bumps' supports.

    Nodes sit on rays x = rho * Theta(omega) of the radial gauge, each ray
    carrying composite Gauss panels over its exact chord through the bump
    ball.  For fields that are radial in this gauge the weak-form
    integrand integrates to ~0 along every ray, so the angular regularity
    of the dual norm never limits the accuracy.  One shell-geometry call
    maps every bump's cap; :func:`_shell_patch` takes each bump's slice.
    """
    caps = [_cap_rule(bump, n, n_ang) for bump in bumps]
    theta, J, grad_rho, _ = quadrature.shell_geometry(
        gauge, np.concatenate([omega for omega, _ in caps]))
    cuts = np.cumsum([len(w) for _, w in caps])[:-1]
    wo = np.concatenate([w for _, w in caps]) * J
    return [_shell_patch(bump, *geometry, n, n_rho) for bump, *geometry in
            zip(bumps, *(np.split(arr, cuts) for arr in (theta, wo, grad_rho)))]


def _shell_patch(bump, theta, wo, grad_rho, n, n_rho):
    """One bump's patch from its cap's (Theta, weight * J, grad rho) as
    ``(nodes, w, rho, grad_rho)``: rho with one row and grad rho once per ray."""
    c = bump.center
    rc = np.linalg.norm(c)
    # chord of each ray rho -> rho*Theta against the euclidean ball B_rho(c)
    tt = np.einsum("ij,ij->i", theta, theta)
    tc = theta @ c
    disc = tc ** 2 - tt * (rc ** 2 - bump.rho ** 2)
    keep = disc > 0.0
    theta, wo, tt, tc, disc = theta[keep], wo[keep], tt[keep], tc[keep], disc[keep]
    sq = np.sqrt(disc)
    rho_lo = (tc - sq) / tt
    rho_hi = (tc + sq) / tt
    gx, gw = quadrature._gauss(3)
    frac = np.linspace(0.0, 1.0, n_rho + 1)
    edges = rho_lo[:, None] + (rho_hi - rho_lo)[:, None] * frac[None, :]  # (nray, n_rho+1)
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    rho = (mid[..., None] + half[..., None] * gx).reshape(len(theta), -1)   # (nray, nq)
    wr = (half[..., None] * gw).reshape(len(theta), -1)
    nodes = rho[..., None] * theta[:, None, :]
    w = wr * rho ** (n - 1) * wo[:, None]
    return nodes.reshape(-1, n), w.ravel(), rho, grad_rho[keep]


def weak_residual(fam, field, dom, V=None, n_tests=100, seed=0,
                  n_rho=16, n_ang=24, layout="shell"):
    """Max over random bumps phi of |int a(x, grad u).grad phi + V u^(p-1) phi| / ||phi||_W1p.

    ``V`` may be ``None`` (zero), a callable on points, or a field.  A small
    residual over a rich bump family is the operational signature that
    ``u`` solves ``-div a(x, grad u) + V u^(p-1) = 0`` weakly.

    ``layout="shell"`` aligns the quadrature patches with the field's
    radial shells (exact ray chords, immune to the angular regularity of
    the dual norm); ``layout="ball"`` uses plain bump-centered polar grids,
    whose error decreases monotonically under ``n_rho`` refinement and so
    drives the refinement checks.  On shells, one shell-geometry call serves
    every bump, and a radial field takes ``u = g(rho)`` and ``grad u =
    g'(rho) grad rho(Theta)``, so a Newton-based dual is solved once per ray.
    An x-independent family then takes the flux map once per ray too:
    a is (p-1)-homogeneous, so ``a(grad u) = sign(g') |g'|^(p-1) a(grad rho)``.
    Weighted families, whose a depends on x, take a at every node; other
    fields and layouts take ``field.grad`` there too.  All bumps are
    evaluated through one batched operator call.
    """
    p, n = fam.p, dom.n
    gauge = field.radial[0] if field.radial is not None else None
    per_ray = layout == "shell" and field.radial is not None
    bumps = random_bumps(dom, n_tests, seed)
    patches = (_shell_patches(gauge, bumps, n, n_rho=n_rho, n_ang=n_ang) if layout == "shell"
               else [_ball_scheme(b.center, b.rho, n, n_rho, n_ang) for b in bumps])
    all_nodes = np.concatenate([patch[0] for patch in patches], axis=0)
    if per_ray:
        _, profile, dprofile = field.radial
        rho = np.concatenate([patch[2] for patch in patches])   # (rays, nodes per ray)
        if rho.max() >= field.radial_bound:
            raise DomainError(f"point outside {{rho < {field.radial_bound:g}}}")
        dg = dprofile(rho)
        grad_rho = np.concatenate([patch[3] for patch in patches], axis=0)
    if per_ray and fam.x_independent:
        a_ray, _ = norms.operator_a(fam, None, grad_rho)
        a = ((np.sign(dg) * np.abs(dg) ** (p - 1.0))[..., None] * a_ray[:, None, :]).reshape(-1, n)
    else:
        gu = ((dg[..., None] * grad_rho[:, None, :]).reshape(-1, n) if per_ray
              else np.asarray(field.grad(all_nodes), dtype=float))
        a, _ = norms.operator_a(fam, all_nodes, gu)
    if V is not None:
        uvals = np.asarray(profile(rho).ravel() if per_ray else field(all_nodes), dtype=float)
        vvals = np.asarray(V(all_nodes), dtype=float)
    res, ofs = [], 0
    for bump, (nodes, w, *_) in zip(bumps, patches):
        sl = slice(ofs, ofs + len(nodes))
        ofs += len(nodes)
        gphi = bump.grad(nodes)
        phiv = bump(nodes)
        vals = np.einsum("ij,ij->i", a[sl], gphi)
        if V is not None:
            vals = vals + vvals[sl] * uvals[sl] ** (p - 1.0) * phiv
        num = abs(float(np.dot(w, vals)))
        gq = np.linalg.norm(gphi, axis=-1)
        den = float(np.dot(w, np.abs(phiv) ** p + gq ** p)) ** (1.0 / p)
        res.append(num / den)
    return max(res)


# ---------------------------------------------------------------------------
# level-set flux and coarea checks
# ---------------------------------------------------------------------------


def level_set_flux(fam, field, dom, t, n_ang=96):
    """Surface quadrature of H(grad G)^p / |grad G| over the level set {G = t}.

    Level sets must be radial shells of the field's gauge (H0-spheres for
    the dual-power/log fields, round spheres for radial-profile fields).
    For a p-harmonic G this flux is the coarea constant, independent of t.
    On the shell rho * Theta, grad G = G'(rho) grad rho(Theta) comes from
    the one shell-geometry call, so a Newton-based dual is solved once.
    """
    if field.radial is None:
        raise ValueError("level sets are only parametrized for radial fields")
    gauge, _, dprofile = field.radial
    rho = float(field.radial_inverse(t))
    lo, hi = dom.r_inner, dom.r_outer
    if not (lo * (1.0 - 1e-12) <= rho <= hi * (1.0 + 1e-12)) or rho >= field.radial_bound:
        raise DomainError(f"level {t} maps to radius {rho:.3g} outside the domain")
    n = dom.n
    omega, wo = (quadrature.circle_rule(n_ang) if n == 2
                 else quadrature.sphere_rule(n_ang))
    theta, J, grad_rho, grad_len = quadrature.shell_geometry(gauge, omega)
    x = rho * theta
    gu = dprofile(rho) * grad_rho
    hval = norms.norm_eval(fam, x, gu)
    glen = np.linalg.norm(gu, axis=-1)
    integrand = hval ** fam.p / glen
    return rho ** (n - 1) * float(np.dot(wo, integrand * grad_len * J))


def flux_constancy(fam, field, dom, levels, n_ang=96):
    """Fluxes over the given levels and their coefficient of variation."""
    fluxes = np.array([level_set_flux(fam, field, dom, t, n_ang=n_ang) for t in levels])
    cv = float(fluxes.std() / fluxes.mean())
    return fluxes, cv
