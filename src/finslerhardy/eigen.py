"""Principal/second eigenvalues of the p-Laplacian on an interval or radial ball.

Discrete Rayleigh quotient with P1 elements on a uniform mesh,

    R[v] = ( sum_e |dv_e|^p m_e + sum_i V_i |v_i|^p mu_i )
           / ( sum_i |v_i|^p mu_i ),

where ``m_e = int_e w`` and ``mu_i = int hat_i w`` are the exact moments of
the geometry weight ``w(r) = r^(n-1)`` (``n = 1`` is the flat interval with
Dirichlet ends; the radial ball keeps a natural zero-flux condition at the
center and a Dirichlet condition at the outer radius).  The p-Dirichlet
term uses midpoint quadrature, exact for the piecewise-constant |v'|^p.

The principal eigenvalue is the minimum of R, found by a preconditioned
projected gradient descent (inverse weighted linear stiffness as the
metric, factored once per discretization with LAPACK ``dpbtrf`` and applied
with ``dpbtrs``) with Armijo line search from seeded random restarts, then
polished by a bordered Newton solve of the Euler-Lagrange system

    -(w psi(v'))' + w (V - lambda) psi(v) = 0,   psi(z) = |z|^(p-2) z,

under the normalization ||v||_p = 1, with tridiagonal LAPACK ``dgtsv`` solves
(all three routines from ``lapack.py``).  The descent only brings each restart
into the principal mode's basin, as in descent-then-Newton solvers for the
p-Laplacian (Biezuner, Ercole and Martins 2009): it hands over to Newton
after ``HANDOVER_STEPS`` = 10 steps (or earlier, at a stationary point), and
Newton finishes from there in a few steps.  The polished pair is accepted
when its residual is at most 1e-7 and every nodal value is positive (the
principal eigenfunction is the only one that does not change sign);
otherwise the descent resumes from where it paused, up to ``DESCENT_STEPS``
= 40 steps in all, and Newton polishes again.  Newton
(``newton.damped_newton``) stops when the weak residual and the
normalization defect are both below its tolerance, or, for most problems,
within the residual's rounding floor (``_Disc.rounding_floor``: the
componentwise backward error of Oettli and Prager, by which Arioli, Demmel
and Duff stop iterative refinement), tested once the relative residual is
below 1e-9 and the defect below the tolerance, before any step (exit
``rounding``).  Where no trial decreases the norm of the whole bordered
residual, a line search tries at most 20 steps (2 below 100 times the
tolerance) and Newton stops without a step (exit ``floor``); a
normalization defect left there is removed by scaling v, which moves
neither lambda nor the relative residual.  A hand-over outside the basin is
not hidden: the solvers raise ``SolverError`` when Newton's weak residual
ends above 1e-7 or is NaN.
The second eigenvalue is located by equalizing the two nodal-domain
principal eigenvalues over the interior zero position (the second
eigenfunction has exactly one interior zero), which is derivative-free and
deflation-free.  Neighbouring zero positions have nearly the same nodal
eigenfunctions, so each nodal domain is warm-started: the first left and
right halves from the principal eigenfunction of the whole domain, each
later half from the last solved half on the same side, mapped affinely onto
the new subdomain.  Newton alone polishes the warm start, under the same
gate as a restart's hand-over; a rejected start gets the restarts' 10
descent steps and a second polish, and only when that fails too is the half
solved again from cold restarts, and the fallback counted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np
from numpy.random import Generator, Philox

from .errors import SolverError
from .green import _psi
from .lapack import band_cholesky, band_cholesky_solve, tridiagonal_solve
from .newton import NewtonStats, damped_newton
from .scalar import brentq


def p_sine_constant(p):
    """pi_p = 2 pi / (p sin(pi/p)); lambda_1 = (p-1) (pi_p / L)^p for V = 0."""
    return 2.0 * math.pi / (p * math.sin(math.pi / p))


def cosine_potential(coefs, L):
    """V(x) = sum_i c_i cos((i + 1) pi x / L)."""
    def V(x):
        x = np.asarray(x, dtype=float)
        return sum(c * np.cos((i + 1) * math.pi * x / L) for i, c in enumerate(coefs))

    return V


def constant_potential(c):
    """V(x) = c."""
    def V(x):
        return np.full_like(np.asarray(x, dtype=float), c)

    return V


@dataclass
class EigenProblem:
    p: float
    L: float = 1.0
    V: object = None          # callable x -> value (bounded), or None
    N: int = 1024             # number of cells
    seed: int = 0
    geometry: str = "interval"   # interval | ball
    n: int = 3                   # ball dimension (geometry == "ball")

    def __post_init__(self):
        if self.N < 64:
            raise ValueError("mesh must have at least 64 cells")
        if self.geometry not in ("interval", "ball"):
            raise ValueError(f"unknown geometry {self.geometry!r}")

    def grid(self):
        return np.linspace(0.0, self.L, self.N + 1)

    @property
    def weight_dim(self):
        return 1 if self.geometry == "interval" else self.n


@dataclass
class EigenPair:
    lam: float
    v: np.ndarray             # unknown nodal values, ||v||_p = 1
    residual: float
    sign_changes: int
    problem: EigenProblem
    restarts_agreeing: int = 0
    rayleigh: float = 0.0
    newton: NewtonStats | None = None     # the chosen restart's polish


class _Disc:
    """Uniform P1 discretization with weight r^(n_w - 1) in absolute coordinates.

    Unknowns are the non-Dirichlet nodes: nodes 1..N-1 when the left end is
    Dirichlet, nodes 0..N-1 when it carries the natural (zero-flux) center
    condition.  All moments are exact.
    """

    def __init__(self, p, x, V, n_w=1, left_dirichlet=True):
        self.p = p
        self.x = np.asarray(x, dtype=float)
        self.h = float(self.x[1] - self.x[0])
        self.n_w = int(n_w)
        self.left_dirichlet = bool(left_dirichlet)
        a, b = self.x[:-1], self.x[1:]
        nw = self.n_w
        m0 = (b ** nw - a ** nw) / nw                       # int_e w
        m1 = (b ** (nw + 1) - a ** (nw + 1)) / (nw + 1)     # int_e r w
        self.me = m0
        left_part = (m1 - a * m0) / self.h      # int_e hat_(e+1) w
        right_part = (b * m0 - m1) / self.h     # int_e hat_e w
        nodal = np.zeros(len(self.x))
        nodal[1:] += left_part
        nodal[:-1] += right_part
        lo = 1 if self.left_dirichlet else 0
        self.mass = nodal[lo:-1]
        xs = self.x[lo:-1]
        self.Vv = np.zeros_like(xs) if V is None else np.asarray(V(xs), dtype=float)
        bad = np.flatnonzero(~np.isfinite(self.Vv))
        if len(bad):
            i = bad[0]
            raise ValueError(f"potential is not finite at node x = {float(xs[i])!r}: "
                             f"{float(self.Vv[i])!r}")
        self.Vmax = float(np.max(np.abs(self.Vv))) if len(self.Vv) else 0.0
        self.n_unknown = len(xs)
        self._factor = self._stiffness_factor()

    def dv(self, v):
        """np.diff of v with its Dirichlet nodes put back as zeros, over h."""
        lo = 1 if self.left_dirichlet else 0
        d = np.empty(len(v) + lo)
        if lo:
            d[0] = v[0] - 0.0
        np.subtract(v[1:], v[:-1], out=d[lo:-1])
        d[-1] = 0.0 - v[-1]
        d /= self.h
        return d

    def norm_p(self, v):
        return np.add.reduce(self.mass * np.abs(v) ** self.p) ** (1.0 / self.p)

    def normalize(self, v):
        return v / self.norm_p(v)

    def quotient(self, v):
        """R[v] and the ||v||_p^p it divides by; R is 0-homogeneous."""
        vp = np.abs(v) ** self.p
        D = float(np.add.reduce(np.abs(self.dv(v)) ** self.p * self.me))
        P = float(np.add.reduce(self.Vv * vp * self.mass))
        M = float(np.add.reduce(vp * self.mass))
        return (D + P) / M, M

    def rayleigh(self, v):
        return self.quotient(v)[0]

    def _padded(self, e):
        """Per-element values with a zero element before a natural left end:
        unknown i then lies between entries i and i + 1."""
        return e if self.left_dirichlet else np.concatenate([[0.0], e])

    def weak_residual(self, v, lam):
        """One pass over (v, lambda): the nodal weak residual ``r``, its norm
        ``rn``, ``rel`` = ``rn / denom`` relative to the strong form, and
        ``g`` = ||v||_p^p - 1 from |v|^(p-1) |v|; with ``dv``, ``av`` = |v|,
        ``psi_m`` = psi(v) mu, the element fluxes ``fl`` (``_padded``) and
        ``pot`` = (V - lambda) psi(v) mu for the Newton step and floor."""
        dv, av = self.dv(v), np.abs(v)
        psi_v = np.sign(v) * av ** (self.p - 1.0)
        fl = self._padded(_psi(dv, self.p) * self.me / self.h)
        pot = (self.Vv - lam) * psi_v * self.mass
        r = fl[:-1] - fl[1:] + pot
        psi_m = psi_v * self.mass
        rn = math.sqrt(r @ r)       # np.linalg.norm's value, without its overhead
        # relative weak-residual norm: the equation scale is the mass term
        denom = (abs(lam) + self.Vmax + 1.0) * (math.sqrt(psi_m @ psi_m) + 1e-300)
        return SimpleNamespace(lam=lam, dv=dv, av=av, psi_m=psi_m, fl=fl, pot=pot, r=r,
                               rn=rn, denom=denom, rel=rn / denom, bands=None,
                               g=float(psi_m @ v) - 1.0)

    def gradient(self, v, lam):
        """p times the weak residual: the gradient of R at ||v||_p = 1, lam = R[v]."""
        return self.p * self.weak_residual(v, lam).r

    def _stiffness_factor(self):
        me = self._padded(self.me)
        ab = np.zeros((2, self.n_unknown))
        ab[0, 1:] = -me[1:-1] / self.h ** 2
        ab[1, :] = (me[:-1] + me[1:]) / self.h ** 2
        return band_cholesky(ab)

    def precondition(self, g):
        """Solve K x = g with the upper banded Cholesky factor of K."""
        return band_cholesky_solve(self._factor, g)

    def jacobian_bands(self, s):
        """Sub-, main and super-diagonal of the weak residual's Jacobian in v
        at the pass s of ``weak_residual``."""
        p, h = self.p, self.h
        eps = 1e-8 * float(np.abs(s.dv).max())
        w = self._padded((p - 1.0) * (s.dv * s.dv + eps * eps) ** ((p - 2.0) / 2.0)
                         * self.me / h ** 2)
        dpot = (self.Vv - s.lam) * (p - 1.0) \
            * (s.av ** 2 + (eps * h) ** 2) ** ((p - 2.0) / 2.0) * self.mass
        off = -w[1:-1]              # unknowns i and i+1 couple via one element
        return off, w[:-1] + w[1:] + dpot + 1e-300, off

    def newton_direction(self, s):
        """The bordered Newton step in (v, lambda) at the pass s, or None when
        its system is singular; takes the Jacobian bands that
        ``rounding_floor`` left in s, if it was called there."""
        b = -s.psi_m                # d r / d lambda
        c = self.p * s.psi_m        # d g / d v
        try:
            # both right-hand sides in one solve; columns of a Fortran array
            z1, z2 = tridiagonal_solve(*(s.bands or self.jacobian_bands(s)),
                                       np.array([s.r, b]).T).T
        except np.linalg.LinAlgError:
            return None
        denom = c @ z2
        if denom == 0.0:
            return None
        dlam = (c @ z1 - s.g) / denom
        return np.concatenate([z1 - dlam * z2, [dlam]])

    def rounding_floor(self, s):
        """The rounding floor of ``s.rel`` (Oettli and Prager): the unit
        roundoff times || |J| |v| + |fl_i| + |fl_(i+1)| + |(V - lambda) psi(v)
        mu| ||, scaled as ``rel`` is.  Leaves the Jacobian bands J in
        ``s.bands`` for ``newton_direction``."""
        s.bands = sub, main, sup = self.jacobian_bands(s)
        afl = np.abs(s.fl)
        bound = np.abs(main) * s.av + afl[:-1] + afl[1:] + np.abs(s.pot)
        bound[1:] += np.abs(sub) * s.av[:-1]
        bound[:-1] += np.abs(sup) * s.av[1:]
        return 0.5 * np.finfo(float).eps * math.sqrt(bound @ bound) / s.denom


#: descent steps before the first hand-over to ``_newton_polish``.  Once in
#: the basin, further descent steps only crawl down an ill-conditioned tail
#: that Newton crosses in a few steps.  Over 18 seeds, N = 128 and 1024,
#: p = 1.5, 3, 4 on the interval and p = 1.5, 2.5 on the n = 3 ball, every
#: restart converged from 10 steps on, while 5 steps left p = 1.5 ball
#: restarts outside the basin (Newton's gate raised).
HANDOVER_STEPS = 10
#: the whole descent budget of a restart.  A first hand-over that
#: ``_accepted`` rejects resumes its descent up to this many steps and is
#: polished again: a fourfold margin over ``HANDOVER_STEPS``.
DESCENT_STEPS = 40


def _pg_minimize(disc, v, lam, tau, steps):
    """Preconditioned projected gradient with Armijo backtracking.

    Takes at most ``steps`` steps from the normalized v with lam = R[v] and
    first trial step tau, stopping early at a stationary point
    (preconditioned gradient norm below 1e-11) or when the line search finds
    no decrease.  Returns (v, lambda, tau, stopped); a descent that has not
    stopped resumes from (v, lambda, tau) exactly as if it had never paused.
    Its result is a start for ``_newton_polish``, not an eigenpair:
    ``_accepted`` is what accepts or rejects the polished pair.
    """
    for _ in range(steps):
        grad = disc.gradient(v, lam)
        pg = disc.precondition(grad)
        gn = abs(float(grad @ pg)) / (abs(lam) + 1.0)
        if not math.isfinite(gn):
            raise SolverError("preconditioned gradient norm is not finite",
                              residual=gn)
        if gn < 1e-11:
            return v, lam, tau, True
        for _ in range(30):
            # only the accepted trial is normalized, by the norm R divides by
            trial = v - tau * pg
            lam_t, norm_pp = disc.quotient(trial)
            if lam_t < lam - 1e-4 * tau * gn:
                v, lam = trial / norm_pp ** (1.0 / disc.p), lam_t
                tau = min(tau * 2.0, 1e3)
                break
            tau *= 0.5
        else:
            return v, lam, tau, True
    return v, lam, tau, False


def _newton_polish(disc, v, lam):
    """Bordered Newton on the EL system with the normalization constraint.

    Runs ``newton.damped_newton`` on x = (v, lambda), for at most 60 steps,
    one ``_Disc.weak_residual`` pass per evaluation.  Its tolerance test
    (1e-13) is on the relative weak residual and the normalization defect g
    together; its Armijo merit is the norm of the whole bordered residual
    (r, g) that the step solves for (a merit of r alone stopped on the floor
    with g far above the tolerance).  It ends at the tolerance; within the
    residual's rounding floor, formed below 1e-9 from the Jacobian bands the
    step then reuses, once |g| < 1e-13 too; or where a line search's trials
    (at most 20, 2 below 1e-11) all fail.  A normalization defect still above
    the tolerance at the exit is removed by scaling v onto ||v||_p = 1, and
    the residual is evaluated again there.  Returns (v, lambda, residual,
    stats).
    """
    tol = 1e-13

    def evaluate(x):
        s = disc.weak_residual(x[:-1], x[-1])
        return max(s.rel, abs(s.g)), math.hypot(s.rn, s.g), s

    def floor(s):
        # formed only near the floor, and only once g is within tol
        return disc.rounding_floor(s) if s.rel < 1e-9 and abs(s.g) < tol else 0.0

    x, _, s, stats = damped_newton(evaluate, lambda x, s: disc.newton_direction(s),
                                   np.append(v, lam), tol, 60, floor=floor)
    v, lam, rnorm = x[:-1], float(x[-1]), s.rel
    if not abs(s.g) < tol:
        # at fixed lambda the relative residual is 0-homogeneous in v, so
        # scaling v onto ||v||_p = 1 removes a defect no step at the floor can
        v = disc.normalize(v)
        rnorm = disc.weak_residual(v, lam).rel
    return v, lam, rnorm, stats


def _count_sign_changes(v):
    s = np.sign(v[np.abs(v) > 1e-9 * np.max(np.abs(v))])
    return int(np.sum(s[1:] != s[:-1]))


def _disc_for(ep):
    return _Disc(ep.p, ep.grid(), ep.V, n_w=ep.weight_dim,
                 left_dirichlet=(ep.geometry == "interval"))


def _accepted(run):
    """The gate on a polished run (v, lambda, residual, stats): Newton's
    residual at most 1e-7 (a NaN fails) and every nodal value positive.
    The principal eigenfunction is the only one that keeps one sign, so a
    run that passes is the principal pair."""
    v, _, rnorm, _ = run
    return rnorm <= 1e-7 and bool(np.all(v > 0.0))


def _hand_over(disc, v):
    """``HANDOVER_STEPS`` descent steps from v, then Newton: the polished run
    and the descent's state (v, lambda, tau, stopped)."""
    v = disc.normalize(v)
    descent = _pg_minimize(disc, v, disc.rayleigh(v), 1.0, HANDOVER_STEPS)
    return _newton_polish(disc, descent[0], descent[1]), descent


def _restarts(disc, seed, restarts):
    """(v, lambda, residual, stats) of each restart on disc: the first mode, then
    smoothed random starts, each minimized and Newton-polished.  A first
    hand-over that ``_accepted`` rejects resumes its descent up to
    ``DESCENT_STEPS`` and is polished again, and that run stands; a descent
    that stopped early has no more steps to give, so its run stands at once.
    Restarts that end on a NaN lambda are dropped; ``SolverError`` if all do."""
    rng = Generator(Philox(key=np.uint64(seed)))
    a, b = disc.x[0], disc.x[-1]
    xs = disc.x[1 if disc.left_dirichlet else 0:-1]
    runs = []
    for j in range(restarts):
        if j == 0:
            v0 = np.sin(math.pi * (xs - a) / (b - a)) if disc.left_dirichlet \
                else np.cos(0.5 * math.pi * (xs - a) / (b - a))
        else:
            v0 = np.abs(rng.standard_normal(disc.n_unknown))
            v0 = np.convolve(v0, np.ones(9) / 9.0, mode="same") + 0.05
        run, (v, lam, tau, stopped) = _hand_over(disc, v0)
        if not (stopped or _accepted(run)):
            v, lam, _, _ = _pg_minimize(disc, v, lam, tau, DESCENT_STEPS - HANDOVER_STEPS)
            run = _newton_polish(disc, v, lam)
        runs.append(run)
    runs = [run for run in runs if not math.isnan(run[1])]
    if not runs:
        raise SolverError(f"every one of {restarts} eigen restarts ended on a NaN")
    return runs


def principal_eigenvalue(ep, restarts=32):
    """Minimize the Rayleigh quotient; returns the normalized principal pair.

    All restarts converge to the same lambda (uniqueness of the principal
    eigenvalue); ``restarts_agreeing`` counts how many landed within
    1e-6 (1 + |lambda|) of the best.
    """
    disc = _disc_for(ep)
    runs = _restarts(disc, ep.seed, restarts)
    v, lam, rnorm, newton = min(runs, key=lambda run: run[1])
    if np.sum(v) < 0.0:
        v = -v
    lams = np.array([run[1] for run in runs])
    agree = int(np.sum(np.abs(lams - lam) <= 1e-6 * (1.0 + abs(lam))))
    ray = disc.rayleigh(v)
    if not rnorm <= 1e-7:
        raise SolverError("eigen minimization did not converge", residual=rnorm)
    return EigenPair(lam=float(lam), v=v, residual=rnorm,
                     sign_changes=_count_sign_changes(v), problem=ep,
                     restarts_agreeing=agree, rayleigh=float(ray), newton=newton)


def _profile(x, v, left_dirichlet):
    """Nodal values of v with its Dirichlet nodes put back as zeros, against
    the affine coordinate (x - x[0]) / (x[-1] - x[0]) of the unit interval."""
    full = np.zeros(len(x))
    full[1 if left_dirichlet else 0:-1] = v
    return (x - x[0]) / (x[-1] - x[0]), full


def _principal_on(a, b, ep, restarts, start=None):
    """Principal eigenvalue on the subdomain (a, b) in absolute coordinates.

    Takes the parent's mesh width, with at least 64 cells, and keeps the
    parent geometry weight; the left end keeps the natural center
    condition only when it is the true center of a ball (a = 0).  With a
    ``start`` profile (``_profile``), Newton alone polishes it, mapped
    affinely onto (a, b), and the result stands when ``_accepted`` passes
    it; when it does not, ``_hand_over`` descends from the same start and
    polishes again, under the same gate.  Otherwise, or without a start,
    the cold restarts solve it.  Returns (v, lambda, residual, disc,
    cold_fallbacks), the last 1 when a start was tried and rejected.
    """
    frac = (b - a) / ep.L
    N = max(64, int(round(ep.N * frac)))
    x = np.linspace(a, b, N + 1)
    left_dir = not (ep.geometry == "ball" and a == 0.0)
    disc = _Disc(ep.p, x, ep.V, n_w=ep.weight_dim, left_dirichlet=left_dir)
    if start is not None:
        xs = x[1 if left_dir else 0:-1]
        v0 = disc.normalize(np.interp((xs - a) / (b - a), *start))
        run = _newton_polish(disc, v0, disc.rayleigh(v0))
        if not _accepted(run):
            run = _hand_over(disc, v0)[0]
        if _accepted(run):
            v, lam, rnorm, _ = run
            return v, lam, rnorm, disc, 0
    v, lam, rnorm, _ = min(_restarts(disc, ep.seed + 1, restarts), key=lambda run: run[1])
    return v, lam, rnorm, disc, int(start is not None)


def second_eigenvalue_and_gap(ep, restarts=4, xtol=1e-9, principal=None):
    """lambda_2 by equalizing the nodal-domain principal eigenvalues.

    Bisection (brentq) on the interior zero position a with
    f(a) = lambda_1(left of a) - lambda_1(right of a) strictly decreasing;
    at the root both nodal Rayleigh quotients agree and their common value
    is lambda_2.  ``principal`` is the principal pair of ``ep`` (solved here
    with ``restarts`` when not given): it gives lambda_1 and the warm start
    of the first two halves.  ``cold_fallbacks`` counts the halves whose
    warm start was rejected.
    """
    L = ep.L
    if principal is None:
        principal = principal_eigenvalue(ep, restarts=restarts)
    lam1, pp = principal.lam, principal.problem
    seed = _profile(pp.grid(), principal.v, pp.geometry == "interval")
    starts = [seed, seed]           # the last solved left and right halves
    halves = {}

    def f(a):
        if a not in halves:
            halves[a] = (_principal_on(0.0, a, ep, restarts=restarts, start=starts[0]),
                         _principal_on(a, L, ep, restarts=restarts, start=starts[1]))
            starts[:] = [_profile(disc.x, v, disc.left_dirichlet)
                         for v, _, _, disc, _ in halves[a]]
        left, right = halves[a]
        return left[1] - right[1]

    lo, hi = 0.05 * L, 0.95 * L
    if f(lo) * f(hi) > 0.0:
        raise SolverError(f"no sign change of lambda_1(0, a) - lambda_1(a, L) "
                          f"between a = {lo!r} and a = {hi!r}")
    # brentq returns a point it evaluated, so both halves at a* are in hand
    a_star = brentq(f, lo, hi, xtol=xtol * L)
    (vl, laml, resl, discl, _), (vr, lamr, resr, discr, _) = halves[a_star]
    res = float(np.maximum(resl, resr))      # NaN if either half is NaN
    if not res <= 1e-7:
        raise SolverError("nodal-domain eigen solve did not converge", residual=res)
    lam2 = 0.5 * (laml + lamr)
    # glue the halves with psi(v')-continuity at the zero
    sl = abs(vl[-1] / discl.h)
    sr = abs(vr[0] / discr.h)
    scale = sl / sr if sr > 0 else 1.0
    glued_x = np.concatenate([discl.x[1:-1] if discl.left_dirichlet else discl.x[:-1],
                              [a_star], discr.x[1:-1]])
    glued_v = np.concatenate([vl, [0.0], -scale * vr])
    return {"lambda2": float(lam2), "gap": float(lam2 - lam1),
            "lambda1": float(lam1), "zero": float(a_star),
            "x": glued_x, "v": glued_v,
            "sign_changes": _count_sign_changes(glued_v),
            "mismatch": abs(laml - lamr),
            "cold_fallbacks": sum(half[4] for pair in halves.values() for half in pair)}


def eigenpair_convergence_probe(ep, k_list, restarts):
    """Desk-scale shadow of eigenvalue-set closedness and eigenpair convergence.

    Schedule A: V_k = V + 1/k shifts lambda_1 exactly by 1/k (additive
    invariance of the quotient).  Schedule B: V_k = V (1 + (-1)^k / k);
    the normalized eigenfunctions converge in discrete L^p with an O(1/k)
    distance and the eigenvalues converge to the base eigenvalue.
    """
    base = principal_eigenvalue(ep, restarts=restarts)
    disc = _disc_for(ep)
    rows_a, rows_b = [], []
    Vbase = ep.V
    for k in k_list:
        def Va(x, k=k):
            out = np.full_like(np.asarray(x, dtype=float), 1.0 / k)
            if Vbase is not None:
                out = out + Vbase(x)
            return out

        pa = principal_eigenvalue(replace(ep, V=Va), restarts=restarts)
        rows_a.append({"k": k, "lam": pa.lam,
                       "shift_err": abs(pa.lam - base.lam - 1.0 / k),
                       "norm": disc.norm_p(pa.v)})

        def Vb(x, k=k):
            if Vbase is None:
                return np.zeros_like(np.asarray(x, dtype=float))
            return Vbase(x) * (1.0 + (-1.0) ** k / k)

        pb = principal_eigenvalue(replace(ep, V=Vb), restarts=restarts)
        dist = float(np.sum(disc.mass * np.abs(pb.v - base.v) ** ep.p)) ** (1.0 / ep.p)
        rows_b.append({"k": k, "lam": pb.lam, "dist": dist,
                       "lam_err": abs(pb.lam - base.lam),
                       "norm": disc.norm_p(pb.v)})
    return {"base_lambda": base.lam, "shift": rows_a, "relative": rows_b}
