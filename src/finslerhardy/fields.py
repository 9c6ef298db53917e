"""Positive scalar fields on punctured domains and their verification tools.

The explicit anisotropic p-harmonic candidates live here:

* the dual-power field ``H0(x)^((p-n)/(p-1))`` for ``p != n``,
* the logarithmic field ``log(R / H0(x))`` for ``p = n``,

together with radial profile fields (Green potentials, synthetic capped
profiles), composition with a function of the value (ground states), smooth
bump test functions, a weak residual verifier for ``-div a(x, grad u) + V
u^(p-1) = 0``, and level-set flux quadrature for the coarea constant.

Every field evaluates on point arrays of shape (m, n) and exposes an
analytic gradient.  Radial fields carry their gauge (see
:mod:`quadrature`): ``None`` for profiles of |x|, or the family whose dual
norm H0 is their radial coordinate; they evaluate through their profile.
Only :class:`FuncField` wraps a field with no radial structure.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random import Generator, Philox

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
    defined where the radial coordinate is below ``radial_bound``.  A radial
    field's value and gradient at points are its profiles at rho(x), times
    grad rho(x) for the gradient; :class:`FuncField` overrides both.
    """

    radial = None
    radial_bound = math.inf

    def _inside(self, rho):
        """rho, refused where it reaches ``radial_bound``."""
        if np.any(rho >= self.radial_bound):
            raise DomainError(f"point outside {{rho < {self.radial_bound:g}}}")
        return rho

    def __call__(self, x):
        return self.radial[1](self._inside(quadrature.radius(self.radial[0], x)))

    def grad(self, x):
        rho, grad_rho = quadrature.radius_and_grad(self.radial[0], x)
        return self.radial[2](self._inside(rho))[..., None] * grad_rho

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

    def __init__(self, fam):
        if fam.kind == "weighted":
            raise BranchError("dual-power field needs an x-independent family")
        if fam.p == fam.n:
            raise BranchError("p = n has no dual-power field; use the log field")
        self.fam = fam
        self.a = (fam.p - fam.n) / (fam.p - 1.0)
        self.radial = (fam, lambda r: r ** self.a,
                       lambda r: self.a * r ** (self.a - 1.0))

    def radial_inverse(self, t):
        return np.asarray(t, dtype=float) ** (1.0 / self.a)


class LogDualField(ScalarField):
    """G(x) = log(R / H0(x)) on {H0 < R}; the p = n harmonic candidate."""

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

    def radial_inverse(self, t):
        return self.R * np.exp(-np.asarray(t, dtype=float))


class RadialProfileField(ScalarField):
    """Field defined by a 1D profile of |x|, inverted on the radii ``bracket``."""

    def __init__(self, profile, dprofile, bracket):
        self.radial = (None, profile, dprofile)
        self._bracket = bracket

    def radial_inverse(self, t):
        t = float(t)
        lo, hi = self._bracket
        return brentq(lambda r: self.radial[1](np.asarray([r]))[0] - t, lo, hi,
                      xtol=1e-14 * hi, rtol=8.9e-16)


class ComposedField(ScalarField):
    """f(inner field) for a radial inner field, f given with its derivative: the
    profiles f(g(rho)) and f'(g(rho)) g'(rho) of the inner profile g."""

    def __init__(self, f, fprime, inner):
        if inner.radial is None:
            raise BranchError("a composed field needs a radial inner field")
        self.f = f
        self.fprime = fprime
        self.radial_bound = inner.radial_bound
        gauge, prof, dprof = inner.radial
        self.radial = (gauge,
                       lambda r: f(prof(r)),
                       lambda r: fprime(prof(r)) * dprof(r))


def power_of(field, exponent):
    """field^exponent of a radial field (used for ground states t^((p-1)/p))."""
    e = float(exponent)
    return ComposedField(lambda t: t ** e, lambda t: e * t ** (e - 1.0), field)


def synthetic_capped_profile(sigma, R):
    """Radial profile sigma (1 - (r/R)^2) on (0, R): 0 < G < sigma.

    Not claimed p-harmonic; exercises the capped weight formulas with the
    limit shape G -> sigma at the puncture, G -> 0 at r = R.
    """
    sigma, R = float(sigma), float(R)

    def prof(r):
        z = np.asarray(r, dtype=float) / R
        return sigma * (1.0 - z ** 2)

    def dprof(r):
        return -2.0 * sigma * (np.asarray(r, dtype=float) / R) / R

    return RadialProfileField(prof, dprof, (1e-12 * R, R * (1.0 - 1e-12)))


# ---------------------------------------------------------------------------
# bump test functions
# ---------------------------------------------------------------------------


def _bump_terms(d, rho, amp):
    """phi and grad phi of bumps amp exp(1 - 1/(1 - |d|^2/rho^2)) at offsets d = x - c
    from their centers; rho and amp are scalars or one value per offset."""
    u = np.sum(d ** 2, axis=-1) / rho ** 2
    inside = u < 1.0
    omu = np.where(inside, 1.0 - u, 1.0)
    phi = np.where(inside, amp * np.exp(1.0 - 1.0 / omu), 0.0)
    return phi, (-phi / omu ** 2 * (2.0 / rho ** 2))[..., None] * d


def _ball_scheme(center, rho, n_panels, omega, wo):
    """Local polar quadrature on B_rho(center): composite 2-point Gauss in radius
    times the angular rule (omega, wo), 2 n_panels len(wo) nodes."""
    r, wr = quadrature.gauss_panels(np.linspace(0.0, rho, n_panels + 1), 2)
    n = omega.shape[1]
    nodes = center[None, :] + (r[:, None, None] * omega[None, :, :]).reshape(-1, n)
    w = (wr[:, None] * r[:, None] ** (n - 1) * wo[None, :]).ravel()
    return nodes, w


def random_bumps(dom, n_tests, seed):
    """Seeded bumps A exp(1 - 1/(1 - |x-c|^2/r^2)) inside the domain, as arrays
    (centres c, radii r, amplitudes A), supports clear of puncture and boundary:
    centres at least 20% inside either radius, and radii a quarter to three
    quarters of the room left."""
    rng = Generator(Philox(key=np.uint64(seed)))
    lo, hi = dom.r_inner, dom.r_outer
    bumps = []
    for _ in range(n_tests):
        rc = math.exp(rng.uniform(math.log(lo * 1.2), math.log(hi * 0.8)))
        direction = rng.standard_normal(dom.n)
        direction /= np.linalg.norm(direction)
        gap = min(rc - lo, hi - rc, rc * 0.45)
        rho = rng.uniform(0.25, 0.75) * gap
        amp = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        bumps.append((rc * direction, rho, amp))
    return tuple(map(np.array, zip(*bumps)))


class _Rays(namedtuple("_Rays", "bump theta grad_rho tt lo hi wo n_rho")):
    """The kept rays rho * Theta of :func:`_shell_patches`, flat and in bump order:
    owning bump, Theta, grad rho(Theta), Theta.Theta, chord ends lo < hi, angular
    weight, and the number of Gauss panels on each chord.  The Gauss nodes rho and
    their weights w (one row per ray) are formed on first use, so a block of rays
    (:meth:`rows`) forms only its own."""

    def rows(self, start, stop):
        """The rays start:stop."""
        return _Rays(*(a[start:stop] for a in self[:-1]), self.n_rho)

    @cached_property
    def _panels(self):
        frac = np.linspace(0.0, 1.0, self.n_rho + 1)
        rho, wr = quadrature.gauss_panels(
            self.lo[:, None] + (self.hi - self.lo)[:, None] * frac[None, :], 3)
        return rho, wr * rho ** (self.theta.shape[1] - 1) * self.wo[:, None]

    @property
    def rho(self):
        return self._panels[0]

    @property
    def w(self):
        return self._panels[1]

    def points(self):
        """The nodes rho * Theta, one row per node."""
        return (self.rho[..., None] * self.theta[:, None, :]).reshape(-1, self.theta.shape[1])

    def bump_terms(self, radius, amp):
        """(phi, fac, |x - c|) at the nodes, grad phi = fac (x - c), for bumps of these
        radii and amplitudes, from the chord alone: 1 - |x - c|^2/r^2 =
        (Theta.Theta)(hi - rho)(rho - lo)/r^2 has no cancellation and is > 0."""
        r, rho = radius[self.bump][:, None], self.rho
        omu = self.tt[:, None] * (self.hi[:, None] - rho) * (rho - self.lo[:, None]) / r ** 2
        phi = amp[self.bump][:, None] * np.exp(1.0 - 1.0 / omu)
        return phi, -phi / omu ** 2 * (2.0 / r ** 2), r * np.sqrt(np.maximum(1.0 - omu, 0.0))


def _shell_patches(gauge, bumps, n, n_rho=16, n_ang=24):
    """Shell-aligned quadrature rays covering the supports of ``bumps`` (the
    arrays of :func:`random_bumps`), as :class:`_Rays`.

    Each bump's cap holds the directions within the angle its ball subtends;
    rays x = rho * Theta(omega) of the radial gauge carry composite Gauss
    panels over their exact chord through the bump ball.  For fields that
    are radial in this gauge the weak-form integrand integrates to ~0 along
    every ray, so the angular regularity of the dual norm never limits the
    accuracy.  Every cap is built in one pass and mapped by one
    shell-geometry call.
    """
    C, radius, _ = bumps
    rc = np.sqrt(np.matmul(C[:, None, :], C[:, :, None])[:, 0, 0])   # np.linalg.norm's bits
    cdir = C / rc[:, None]
    # libm's scalar asin and atan2: numpy's vectorised ones differ in the last bit
    gamma = np.array([math.asin(min(0.999999, r / c)) for r, c in zip(radius, rc)])
    if n == 2:
        phi_c = np.array([math.atan2(d[1], d[0]) for d in cdir])
        ang, w = quadrature.gauss_panels(np.linspace(phi_c - gamma, phi_c + gamma,
                                                     max(2, n_ang // 3) + 1, axis=-1), 3)
        omega = np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    else:  # n == 3: polar caps in local coordinates
        ref = np.where(np.abs(cdir[:, 2:]) < 0.9, [[0.0, 0.0, 1.0]], [[1.0, 0.0, 0.0]])
        t1 = np.cross(ref, cdir)
        t1 /= np.sqrt(np.matmul(t1[:, None, :], t1[:, :, None]))[:, 0]
        t2 = np.cross(cdir, t1)
        mu, wmu = quadrature.gauss_panels(np.linspace(np.cos(gamma), 1.0,
                                                      max(2, n_ang // 4) + 1, axis=-1), 3)
        n_b = max(8, n_ang // 2)
        beta = 2.0 * math.pi * np.arange(n_b) / n_b
        st = np.sqrt(np.maximum(0.0, 1.0 - mu ** 2))[..., None]
        omega = (mu[..., None, None] * cdir[:, None, None, :]
                 + (st * np.cos(beta))[..., None] * t1[:, None, None, :]
                 + (st * np.sin(beta))[..., None] * t2[:, None, None, :])
        w = wmu[..., None] * np.full(n_b, 2.0 * math.pi / n_b)
    theta, J, grad_rho, _ = quadrature.shell_geometry(gauge, omega.reshape(-1, n))
    # chord of each ray rho -> rho*Theta against the euclidean ball B_r(c);
    # the stacked matmul takes each bump's theta @ c, bit for bit
    tt = np.einsum("ij,ij->i", theta, theta)
    tc = np.matmul(theta.reshape(len(C), -1, n), C[:, :, None]).ravel()
    bump = np.repeat(np.arange(len(C)), len(tt) // len(C))
    disc = tc ** 2 - tt * (rc[bump] ** 2 - radius[bump] ** 2)
    keep = disc > 0.0
    bump, theta, grad_rho, tt, tc, disc = (
        a[keep] for a in (bump, theta, grad_rho, tt, tc, disc))
    sq = np.sqrt(disc)
    return _Rays(bump, theta, grad_rho, tt, (tc - sq) / tt, (tc + sq) / tt,
                 (w.ravel() * J)[keep], n_rho)


#: the most quadrature nodes that :func:`weak_residual` evaluates at once
BLOCK_NODES = 2 ** 15


def _blocks(sizes):
    """Ranges [i, j) of consecutive bumps, given each bump's node count: at most
    ``BLOCK_NODES`` nodes in all, or one bump with more."""
    i, total = 0, 0
    for j, size in enumerate(sizes):
        if total and total + size > BLOCK_NODES:
            yield i, j
            i, total = j, 0
        total += size
    yield i, len(sizes)


def weak_residual(fam, field, dom, V=None, n_tests=100, seed=0,
                  n_rho=16, n_ang=24, layout="shell"):
    """Max over random bumps phi of |int a(x, grad u).grad phi + V u^(p-1) phi| / ||phi||_W1p.

    ``V`` may be ``None`` (zero), a callable on points, or carry ``radial =
    (gauge, terms)`` with ``terms(rho) = (u, u', V)``, for a field radial in
    that same gauge.  A small residual over a rich bump family is the
    operational signature that ``u`` solves ``-div a(x, grad u) + V u^(p-1) =
    0`` weakly.

    Each layout has one kernel.  ``layout="shell"`` takes a radial field of an
    x-independent family and integrates along rays rho * Theta of its gauge,
    over their exact chords through each bump ball (immune to the angular
    regularity of the dual norm).  One shell-geometry call serves every bump;
    the rest is per-ray scalars: u = g(rho), a(grad u) = sign(g') |g'|^(p-1)
    a(grad rho(Theta)) (a is (p-1)-homogeneous), and phi, a.grad phi and |grad
    phi| from the ray's chord (:meth:`_Rays.bump_terms`).  Points are formed
    only for a ``V`` on points.  ``layout="ball"`` uses plain bump-centred polar
    grids, whose error decreases monotonically under ``n_rho`` refinement and so
    drives the refinement checks, with a and grad phi at every node: a radial
    field takes rho and grad rho from one :func:`quadrature.radius_and_grad`
    call and u, u' (and a radial V) as profiles of rho; any other field is
    evaluated at the nodes.

    The nodes are taken in blocks of whole bumps, at most ``BLOCK_NODES`` nodes
    each (a bump with more is a block of its own), so memory stays bounded
    whatever the bump count.  Each bump's integrals are summed over that bump
    alone, so the result does not depend on the blocking.
    """
    p, n = fam.p, dom.n
    C, radius, amp = bumps = random_bumps(dom, n_tests, seed)
    radial = field.radial is not None
    gauge = field.radial[0] if radial else None
    terms = getattr(V, "radial", None)
    if terms is not None and (not radial or terms[0] is not gauge):
        raise ValueError("a radial V needs a field radial in the same gauge")

    def profiles(rho, nodes):
        """(u, u', V) of the radial field at radii rho; u and V are None without V."""
        field._inside(rho)
        if terms is not None:
            return terms[1](rho)
        dg = field.radial[2](rho)
        if V is None:
            return None, dg, None
        return field.radial[1](rho), dg, V(nodes)

    if layout == "shell":
        if not (radial and fam.x_independent):
            raise ValueError('the shell layout takes a radial field of an x-independent '
                             'family; use layout="ball"')
        rays = _shell_patches(gauge, bumps, n, n_rho=n_rho, n_ang=n_ang)
        first = np.searchsorted(rays.bump, np.arange(n_tests + 1))
        sizes = np.diff(first) * (3 * n_rho)   # 3-point Gauss panels on each ray
        a_ray, _ = norms.operator_a(fam, None, rays.grad_rho)
        a_th, a_c = (np.einsum("ij,ij->i", a_ray, v)[:, None] for v in (rays.theta, C[rays.bump]))

        def block_ratios(i, j):
            """The residual ratio of each bump i:j; its arrays die on return."""
            block = rays.rows(first[i], first[j])
            rho, w = block.rho, block.w
            u, dg, pot = profiles(rho, block.points() if V is not None and terms is None
                                  else None)
            phi, fac, dist = block.bump_terms(radius, amp)
            ray = slice(first[i], first[j])
            vals = np.sign(dg) * np.abs(dg) ** (p - 1.0) * fac * (rho * a_th[ray] - a_c[ray])
            if V is not None:
                vals = vals + np.reshape(pot, phi.shape) * u ** (p - 1.0) * phi
            dens = np.abs(phi) ** p + (np.abs(fac) * dist) ** p
            num, den = (np.add.reduceat(np.einsum("ij,ij->i", w, f), first[i:j] - first[i])
                        for f in (vals, dens))
            return np.abs(num) / den ** (1.0 / p)
    else:
        omega, wo = (quadrature.circle_rule(n_ang) if n == 2
                     else quadrature.sphere_rule(max(4, n_ang // 2)))
        sizes = np.full(n_tests, 2 * n_rho * len(wo))   # 2-point Gauss panels

        def block_ratios(i, j):
            """The residual ratio of each bump i:j; its arrays die on return."""
            nodes, w = (np.concatenate(a) for a in zip(
                *(_ball_scheme(C[b], radius[b], n_rho, omega, wo) for b in range(i, j))))
            if radial:
                rho, grad_rho = quadrature.radius_and_grad(gauge, nodes)
                u, dg, pot = profiles(rho, nodes)
                grad_u = dg[:, None] * grad_rho
            else:
                grad_u = field.grad(nodes)
                if V is not None:
                    u, pot = field(nodes), V(nodes)
            a, _ = norms.operator_a(fam, nodes, grad_u)
            owner = np.repeat(np.arange(i, j), sizes[i:j])
            phi, gphi = _bump_terms(nodes - C[owner], radius[owner], amp[owner])
            vals = np.einsum("ij,ij->i", a, gphi)
            if V is not None:
                vals = vals + np.ravel(pot) * np.ravel(u) ** (p - 1.0) * phi
            dens = np.abs(phi) ** p + np.linalg.norm(gphi, axis=-1) ** p
            return [abs(float(np.dot(wb, vb))) / float(np.dot(wb, db)) ** (1.0 / p)
                    for wb, vb, db in zip(*(np.split(f, j - i) for f in (w, vals, dens)))]

    return float(np.max(np.concatenate([block_ratios(i, j) for i, j in _blocks(sizes)])))


# ---------------------------------------------------------------------------
# level-set flux and coarea checks
# ---------------------------------------------------------------------------


def _unit_shell(field, n):
    """(weights, Theta, J, grad rho(Theta), |grad rho(Theta)|) on the unit shell
    of a radial field's gauge, over the 96-point angular rule (96 x 192 on S^2)."""
    if field.radial is None:
        raise ValueError("level sets are only parametrized for radial fields")
    omega, wo = quadrature.circle_rule(96) if n == 2 else quadrature.sphere_rule(96)
    return (wo, *quadrature.shell_geometry(field.radial[0], omega))


def level_set_flux(fam, field, dom, t, shell=None):
    """Surface quadrature of H(grad G)^p / |grad G| over the level set {G = t}.

    Level sets must be radial shells of the field's gauge (H0-spheres for
    the dual-power/log fields, round spheres for radial-profile fields).
    For a p-harmonic G this flux is the coarea constant, independent of t.
    On the shell rho * Theta, grad G = G'(rho) grad rho(Theta) comes from
    the one shell-geometry call, so a Newton-based dual is solved once;
    ``shell`` passes in :func:`_unit_shell`'s geometry when several levels share it.
    """
    wo, theta, J, grad_rho, grad_len = shell or _unit_shell(field, dom.n)
    rho = float(field.radial_inverse(t))
    lo, hi = dom.r_inner, dom.r_outer
    if not (lo * (1.0 - 1e-12) <= rho <= hi * (1.0 + 1e-12)) or rho >= field.radial_bound:
        raise DomainError(f"level {t} maps to radius {rho:.3g} outside the domain")
    x = rho * theta
    gu = field.radial[2](rho) * grad_rho
    hval = norms.norm_eval(fam, x, gu)
    glen = np.linalg.norm(gu, axis=-1)
    integrand = hval ** fam.p / glen
    return rho ** (dom.n - 1) * float(np.dot(wo, integrand * grad_len * J))


def flux_constancy(fam, field, dom, levels):
    """Fluxes over the given levels, on one shell geometry, and their coefficient of variation."""
    shell = _unit_shell(field, dom.n)
    fluxes = np.array([level_set_flux(fam, field, dom, t, shell=shell) for t in levels])
    cv = float(fluxes.std() / fluxes.mean())
    return fluxes, cv
