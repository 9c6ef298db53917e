"""Optimal Hardy-weight constructions and their verification signatures.

Given a positive anisotropic p-harmonic field G with the right boundary
behavior, the zero-potential construction returns

    W0 = ((p-1)/p)^p  (H(x, grad G) / G)^p,

with ground state ``v = G^((p-1)/p)`` (standard branch: 1 < p <= n, or
p > n with sigma = 0), or the capped-branch pair

    v = (G (sigma - G))^((p-1)/p),
    W = (sigma - G)^(-p) W0 |sigma - 2G|^(p-2) (2(p-2) G (sigma-G) + sigma^2)

for p > n, sigma > 0 (which requires 0 < G < sigma).  Given a Green
potential ``G_phi`` of the c_p-scaled equation with density ``phi`` the
nonzero-potential construction returns

    W = ((p-1)/p)^p |grad G_phi|_H^p / G_phi^p
        + ((p-1)/p)^(p-1) G_phi^(1-p) phi,

with ground state ``v = G_phi^((p-1)/p)``.

The verification side builds the log-profile cutoff null sequences
``u_k = v phi_k(v)``, their energies/masses/Hardy ratios, the
null-criticality growth of ``int W v^p`` over shrinking source levels, and
a ratio probe over the tail cutoffs ``v phi_k(v k^2/eps)`` (optimality at
infinity).  The cutoff integrand, the level-to-radius map and ``int W v^p``
are each written once, and :func:`_support` alone decides which cutoff
members fit the ground-state range and over which radii each is integrated.
Every integrand is radial in the source field's gauge, so
:func:`_radial_integral` takes it with the exact angular factor and with
panels aligned to the cutoff breakpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dfield

import numpy as np

from . import fields, quadrature
from .errors import BranchError, ConstructionError, RangeError

# ---------------------------------------------------------------------------
# cutoff profiles
# ---------------------------------------------------------------------------


def cutoff(t, k, one_sided=False):
    """The log-profile cutoff phi_k: 0 / 2+log t/log k / 1 / 2-log t/log k / 0.

    Breakpoints at t = 1/k^2, 1/k, k, k^2; the one-sided variant stays 1
    for t >= 1/k.
    """
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


def cutoff_slope(t, k, one_sided=False):
    """t * phi_k'(t): +-1/log k on the transitions, 0 elsewhere (kinks -> 0)."""
    t = np.asarray(t, dtype=float)
    m = 1.0 / math.log(k)
    rising = (t > 1.0 / k ** 2) & (t < 1.0 / k)
    out = np.where(rising, m, 0.0)
    if not one_sided:
        falling = (t > k) & (t < k ** 2)
        out = np.where(falling, -m, out)
    return out


def cutoff_breaks(k, one_sided=False):
    """The levels t where an integrand of v phi_k(v) kinks: the breakpoints, and
    the interior zero of (t phi_k)' on the falling transition (phi_k = 1/log k
    there), where |u'|^p has a half-power kink."""
    if one_sided:
        return (1.0 / k ** 2, 1.0 / k)
    return (1.0 / k ** 2, 1.0 / k, k, k ** (2.0 - 1.0 / math.log(k)), k ** 2)


# ---------------------------------------------------------------------------
# the weight object
# ---------------------------------------------------------------------------


@dataclass(eq=False, frozen=True)
class HardyWeight:
    """A constructed weight W, its ground state, and radial profile closures.

    The exponent p and the dimension n are the family's.
    """

    branch: str                      # standard | sigma_capped | green_based
    fam: object
    sigma: float
    source: object                   # the field G (or G_phi)
    ground_state: object             # v as a ScalarField
    angular: float                   # total angular measure n*vol(unit gauge ball)
    source_bracket: tuple            # usable rho-range
    V_profile: object = None         # radial potential (green branch)
    phi_profile: object = None       # radial density (green branch)
    hypotheses: dict = dfield(default_factory=dict)

    @property
    def p(self):
        return self.fam.p

    @property
    def n(self):
        return self.fam.n

    @property
    def c_p(self):
        return (self.p / (self.p - 1.0)) ** (self.p - 1.0)

    # -- radial profiles ----------------------------------------------------

    def g(self, rho):
        return self.source.radial[1](np.asarray(rho, dtype=float))

    def dg(self, rho):
        return self.source.radial[2](np.asarray(rho, dtype=float))

    def v(self, rho):
        return self.ground_state.radial[1](np.asarray(rho, dtype=float))

    def _weight(self, g, dg, rho):
        """W at radii rho from the source profile g and its slope dg there."""
        p = self.p
        w0 = ((p - 1.0) / p) ** p * np.abs(dg) ** p / g ** p
        if self.branch == "standard":
            return w0
        if self.branch == "sigma_capped":
            s = self.sigma
            return (s - g) ** (-p) * w0 * np.abs(s - 2.0 * g) ** (p - 2.0) \
                * (2.0 * (p - 2.0) * g * (s - g) + s ** 2)
        c2 = ((p - 1.0) / p) ** (p - 1.0)
        return w0 + c2 * g ** (1.0 - p) * self.phi_profile(rho)

    def weight_profile(self, rho):
        return self._weight(self.g(rho), self.dg(rho), rho)

    def profile_terms(self, rho):
        """(v, v', W, V - W) at radii rho from one evaluation of g, g' (and V, phi)."""
        g, dg = self.g(rho), self.dg(rho)
        W = self._weight(g, dg, rho)
        gs = self.ground_state
        return (gs.f(g), gs.fprime(g) * dg, W,
                -W if self.V_profile is None else self.V_profile(rho) - W)

    def ground_state_terms(self, rho):
        """(v, v', V - W) at radii rho: the terms of the ground-state residual."""
        v, dv, _, pot = self.profile_terms(rho)
        return v, dv, pot

    def weight(self, x):
        """W at points x (nonnegative by construction)."""
        return self.weight_profile(quadrature.radius(self.source.radial[0], x))

    def profile_range(self, profile):
        """(min, max) of a radial profile (``g`` or ``v``) over the usable bracket."""
        lo, hi = self.source_bracket
        rr = np.geomspace(lo * (1 + 1e-9), hi * (1 - 1e-9), 4097)
        vals = profile(rr)
        return float(vals.min()), float(vals.max())

    def rho_of_v(self, t):
        """Radial coordinate(s) where the ground state equals t."""
        e = (self.p - 1.0) / self.p
        if self.branch == "sigma_capped":
            c = float(t) ** (1.0 / e)   # g (sigma - g) = c
            disc = self.sigma ** 2 - 4.0 * c
            if disc < 0.0:
                raise RangeError(f"ground-state level {t} above the maximum")
            gm = 0.5 * (self.sigma - math.sqrt(disc))
            gp_ = 0.5 * (self.sigma + math.sqrt(disc))
            return (float(self.source.radial_inverse(gm)),
                    float(self.source.radial_inverse(gp_)))
        return (float(self.source.radial_inverse(float(t) ** (1.0 / e))),)

    def flux_constant(self):
        """Coarea flux of the source field through one of its level sets.

        For the green branch the level sits below the density support
        (where the flux is the constant total flux) and above the outer
        truncation value; otherwise at the middle of the radial bracket.
        The source is radial in the family's own gauge H0 (checked by the
        builders), and H(grad H0) = 1, so the flux through the level shell
        {H0 = rho} is the closed form angular * rho^(n-1) |G'(rho)|^(p-1), as
        in :func:`green.level_flux`.
        """
        if self.branch == "green_based":
            gmin, _ = self.profile_range(self.g)
            m_phi = float(np.min(self.g(
                np.geomspace(self.phi_profile.r_a, self.phi_profile.r_b, 128))))
            level = math.sqrt(3.0 * gmin * m_phi)
        else:
            lo, hi = self.source_bracket
            level = float(self.g(np.asarray([math.sqrt(lo * hi)]))[0])
        rho = float(self.source.radial_inverse(level))
        return self.angular * rho ** (self.n - 1) * abs(float(self.dg(rho))) ** (self.p - 1.0)


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def _zero_profile(r):
    return np.zeros_like(np.asarray(r, dtype=float))


#: the standard branch is checked where v spans (1/V_SPAN, V_SPAN), on radii
#: and source values inside (1/SPAN, SPAN), so that no power of them overflows
V_SPAN, SPAN = 1e30, 1e150


def check_bracket(G, p):
    """The standard branch's check bracket, ended 1e-9 inside a bounded source."""
    with np.errstate(all="ignore"):
        top = min(np.float64(V_SPAN) ** (p / (p - 1.0)), SPAN)
        lo, hi = sorted(float(G.radial_inverse(t)) for t in (1.0 / top, top))
    return max(lo, 1.0 / SPAN), min(hi, SPAN, G.radial_bound * (1.0 - 1e-9))


def _dual_key(gauge):
    """The values that fix a gauge's dual norm H0; None is |x|, the euclidean one.
    Unlike ``label()`` it keeps s exact, and the mixed kind's H0 depends on p."""
    if gauge is None or gauge.kind == "euclidean":
        return ("euclidean",)
    return (gauge.kind, gauge.s, None if gauge.A is None else gauge.A.tolist(),
            gauge.p if gauge.kind == "mixed" else None)


def build_weight_zero_potential(fam, G, sigma=0.0, bracket=None):
    """Branch-correct (W, v) from a positive p-harmonic field G.

    sigma > 0 selects the capped branch (p > n only; refused for p <= n)
    and requires 0 < G < sigma, checked on a log grid of 512 radii of the
    source's ``bracket`` of radii.  When none is given the bracket is
    :func:`check_bracket` for the standard branch and (1e-8, 1e8) for the
    capped one.
    """
    p, n = fam.p, fam.n
    if sigma < 0.0:
        raise BranchError("sigma must be nonnegative")
    if sigma > 0.0 and p <= n:
        raise BranchError("the capped branch needs p > n; for p <= n use sigma = 0")
    if G.radial is None:
        raise BranchError("the constructions need a field with radial structure")
    if _dual_key(G.radial[0]) != _dual_key(fam):
        raise BranchError("the source must be radial in the family's own gauge H0 (|x| "
                          "for the euclidean kind): the weight needs H(grad rho) = 1")
    if bracket is None:
        bracket = (1e-8, 1e8) if sigma > 0.0 else check_bracket(G, p)
    rho = np.geomspace(bracket[0] * (1 + 1e-12), bracket[1] * (1 - 1e-12), 512)
    gvals = G.radial[1](rho)
    if np.any(gvals <= 0.0):
        raise BranchError("source field must be positive on the domain")
    branch = "standard"
    if sigma > 0.0:
        if np.any(gvals >= sigma):
            i = int(np.argmax(gvals))
            raise BranchError(
                f"G = {gvals[i]:.6g} >= sigma = {sigma} at rho = {rho[i]:.6g}")
        branch = "sigma_capped"
    e = (p - 1.0) / p
    if branch == "standard":
        v_field = fields.power_of(G, e)
    else:
        s = sigma
        v_field = fields.ComposedField(
            lambda t: (t * (s - t)) ** e,
            lambda t: e * (t * (s - t)) ** (e - 1.0) * (s - 2.0 * t),
            G, kind="capped_ground_state")
    ang = quadrature.angular_measure(n, G.radial[0])
    return HardyWeight(branch=branch, fam=fam, sigma=float(sigma), source=G,
                       ground_state=v_field, angular=ang, source_bracket=tuple(bracket))


def build_weight_green(fam, green_potential):
    """Weight from a Green potential of Q'_{c_p V}[u] = phi (euclidean radial).

    V and phi are the Green problem's (V = 0 when it has none), and the
    family must share its p and n.  Checks the construction hypotheses
    numerically: int |V| G^(p-1) finite, and V <= 0 everywhere or
    int V G^(p-1) < 0.  Failures raise with the name of the offending integral.
    """
    if fam.kind not in ("euclidean",):
        raise BranchError("the radial Green construction runs on the euclidean kind")
    gp = green_potential
    prob = gp.problem
    p, n = fam.p, fam.n
    if (p, n) != (prob.p, prob.n):
        raise ConstructionError(f"family has p = {p:g}, n = {n}; the Green problem "
                                f"has p = {prob.p:g}, n = {prob.n}")
    V_profile = prob.V or _zero_profile
    ang = quadrature.angular_measure(n)

    def hyp_fun(r):
        vvals = V_profile(r)
        gq = gp.profile(r) ** (p - 1.0)
        return np.abs(vvals) * gq, vvals * gq, (vvals > 0.0).astype(float)

    # the last integral is the measure of {V > 0} over the quadrature nodes
    abs_int, sgn_int, pos_measure = quadrature.radial_integral(
        hyp_fun, gp.r[0], gp.r[-1], n, ang, n_r=2048, order=4)
    if not np.isfinite(abs_int):
        raise BranchError("hypothesis failed: int |V| G_phi^(p-1) dx is not finite")
    v_nonpos = pos_measure == 0.0
    if not v_nonpos and not sgn_int < 0.0:
        raise BranchError(
            f"hypothesis failed: V changes sign and int V G_phi^(p-1) dx = {sgn_int:.3g} >= 0")
    src = gp.field()
    e = (p - 1.0) / p
    v_field = fields.power_of(src, e)
    hyp = {"abs_potential_integral": abs_int, "signed_potential_integral": sgn_int,
           "V_nonpositive": v_nonpos}
    return HardyWeight(branch="green_based", fam=fam, sigma=0.0, source=src,
                       ground_state=v_field, angular=ang,
                       source_bracket=(gp.r[0], gp.r[-1]),
                       V_profile=V_profile, phi_profile=prob.phi,
                       hypotheses=hyp)


# ---------------------------------------------------------------------------
# radial integration helpers
# ---------------------------------------------------------------------------


def _radial_integral(hw, fun, lo, hi, align=(), n_r=768):
    """angular * int_lo^hi fun(rho) rho^(n-1) drho with aligned Gauss panels."""
    return quadrature.radial_integral(fun, lo, hi, hw.n, hw.angular, align=align,
                                      n_r=n_r)


def _support(hw, levels, top, vmin, vmax):
    """(lo, hi, align) of the cutoff member with ground-state ``levels``, or None
    when its lowest level lies outside the range (vmin, vmax) or, where v is not
    monotone (the capped branch), at a radius outside the bracket: no member is
    clipped.

    It is integrated between the radii of its levels, aligned at them.  A bracket
    end joins them where the member saturates, v lying strictly between its lowest
    level and ``top``, above which it vanishes: the Green plateau at the center.
    """
    low = min(levels)
    if not vmin < low < vmax:
        return None
    at = {t: hw.rho_of_v(t) for t in levels if t < vmax}
    blo, bhi = hw.source_bracket
    if not all(blo <= r <= bhi for r in at[low]):
        return None
    radii = [r for rs in at.values() for r in rs]
    radii += [end for end in (blo * (1 + 1e-9), bhi * (1 - 1e-9))
              if low < float(hw.v(np.asarray([end]))[0]) < top]
    return min(radii), max(radii), tuple(radii)


def _cutoff_terms(hw, rho, k, scale, one_sided):
    """Integrands of u = v phi_k(v scale) at radii rho, from one g, g' pass.

    Returns the energy |u'|^p + (V - W) u^p, the weight mass W u^p, and
    u, v, v', phi and the cutoff slope t phi'(t) at t = v scale.
    """
    p = hw.p
    v, dv, W, pot = hw.profile_terms(rho)
    ph = cutoff(v * scale, k, one_sided)
    slope = cutoff_slope(v * scale, k, one_sided)
    u = v * ph
    du = dv * (ph + slope)
    return np.abs(du) ** p + pot * u ** p, W * u ** p, u, v, dv, ph, slope


def _weight_mass_between(hw, t1, t2):
    """int W v^p over the shell between the source levels t1 and t2."""
    r1 = hw.source.radial_inverse(t1)
    r2 = hw.source.radial_inverse(t2)

    def f(rho):
        v, _, W, _ = hw.profile_terms(rho)
        return W * v ** hw.p

    return _radial_integral(hw, f, min(r1, r2), max(r1, r2))


# ---------------------------------------------------------------------------
# null sequences
# ---------------------------------------------------------------------------


@dataclass
class NullSequence:
    k_list: list
    energies: list          # Q_{V-W}[u_k]
    masses: list            # int W u_k^p
    ratios: list            # Q_V[u_k] / mass
    x_grad: list            # X(v, w_k) = int v^p |grad w_k|_H^p
    x_field: list           # X(w_k, v) = int w_k^p |grad v|_H^p
    truncated: list         # k values whose member does not fit the range
    one_sided: bool


def null_sequence(hw, k_list):
    """Cutoff sequence u_k = v phi_k(v) with energies, masses and Hardy ratios.

    :func:`_support` places each member: a k whose lowest level 1/k^2 lies
    outside the ground-state range is dropped into ``truncated``, and the others
    are integrated over their own supports.  The capped branch uses the
    one-sided cutoff, which does not vanish above 1/k.
    """
    one_sided = hw.branch == "sigma_capped"
    vmin, vmax = hw.profile_range(hw.v)
    members, dropped = [], []
    for k in k_list:
        top = math.inf if one_sided else k ** 2
        support = k >= 2 and _support(hw, cutoff_breaks(k, one_sided), top, vmin, vmax)
        if support:
            members.append((int(k), support))
        else:
            dropped.append(int(k))
    if not members:
        raise RangeError(
            f"ground-state range ({vmin:.3g}, {vmax:.3g}) admits none of the requested "
            f"k = {', '.join(str(k) for k in k_list)}")
    p = hw.p
    integrals = []
    for k, (lo, hi, align) in members:
        if one_sided:
            # v peaks where G = sigma/2, and |v'|^p has a kink there
            align += (float(hw.source.radial_inverse(hw.sigma / 2.0)),)

        def emxy_fun(rho):
            # energy, weight mass, X(v, w_k) and X(w_k, v) on the same nodes
            e, m, _, v, dv, ph, slope = _cutoff_terms(hw, rho, k, 1.0, one_sided)
            return (e, m,
                    v ** p * np.abs(slope * dv / np.where(v > 0, v, 1.0)) ** p,
                    ph ** p * np.abs(dv) ** p)

        integrals.append(_radial_integral(hw, emxy_fun, lo, hi, align=align))
    E, M, X, Y = (list(c) for c in zip(*integrals))
    return NullSequence(k_list=[k for k, _ in members], energies=E, masses=M,
                        ratios=[1.0 + e / m for e, m in zip(E, M)], x_grad=X, x_field=Y,
                        truncated=dropped, one_sided=one_sided)


# ---------------------------------------------------------------------------
# closed-form laws (standard branch; used by bound checks and oracles)
# ---------------------------------------------------------------------------


def transition_energy_law(p, c_flux, k):
    """Exact Q_{V-W}[u_k] for the two-sided log cutoff on a ground state.

    Follows from Q[v phi(v)] = int D_{H^p}(w grad v + v grad w, w grad v)
    with v grad w = +-(1/log k) grad v collinear on the transitions:
    c_flux ((p-1)/p)^(p-1) [(1+m)^(p+1) + (1-m)^(p+1) - 2] / ((p+1) m).
    """
    m = 1.0 / math.log(k)
    return (c_flux * ((p - 1.0) / p) ** (p - 1.0)
            * ((1.0 + m) ** (p + 1) + (1.0 - m) ** (p + 1) - 2.0) / ((p + 1.0) * m))


def cutoff_gradient_mass_law(p, c_flux, k):
    """Exact X(v, w_k) = 2 c_flux ((p-1)/p)^(p-1) (log k)^(1-p)."""
    return 2.0 * c_flux * ((p - 1.0) / p) ** (p - 1.0) * math.log(k) ** (1.0 - p)


def weight_mass_slope_law(p, c_flux):
    """Exact d(int W u_k^p)/d(log k) = c_flux ((p-1)/p)^(p-1) (2 + 2/(p+1))."""
    return c_flux * ((p - 1.0) / p) ** (p - 1.0) * (2.0 + 2.0 / (p + 1.0))


# ---------------------------------------------------------------------------
# null-criticality
# ---------------------------------------------------------------------------


def verify_null_criticality(hw, tau_list, T):
    """Integrals I(tau) = int_{tau < G < T} W v^p and their log(1/tau) slope.

    For the standard and green branches the growth is affine in log(1/tau)
    with slope ((p-1)/p)^p * c_flux.
    """
    p = hw.p
    rows = [(tau, _weight_mass_between(hw, tau, T))
            for tau in sorted(float(t) for t in tau_list)]
    x = np.log(1.0 / np.array([t for t, _ in rows]))
    y = np.array([v for _, v in rows])
    slope, intercept = np.polyfit(x, y, 1)
    expected = ((p - 1.0) / p) ** p * hw.flux_constant()
    return {"rows": rows, "slope": float(slope), "intercept": float(intercept),
            "expected_slope": float(expected), "T": float(T)}


def capped_null_criticality_lower_bound(hw, t_list):
    """Capped-branch check: int_{t < G < sigma/4} W v^p >= lower bound.

    The bound is (sigma^(p-1)/2^(p-2)) ((p-1)/p)^p flux_min log(sigma/(4t))
    with flux_min the smallest measured flux over 24 levels in (t, sigma/4).
    """
    if hw.branch != "sigma_capped":
        raise BranchError("lower-bound check is for the capped branch")
    p, s = hw.p, hw.sigma
    lo_b, hi_b = hw.source_bracket
    dom = fields.annulus(lo_b * 0.999, hi_b * 1.001, hw.n)
    rows = []
    for t in t_list:
        # capped sources used in practice are monotone profiles, one
        # radius per level
        levels = np.geomspace(t * 1.01, s / 4.0 * 0.99, 24)
        flux_min = float(fields.flux_constancy(hw.fam, hw.source, dom, levels)[0].min())
        lhs = _weight_mass_between(hw, t, s / 4.0)
        rhs = (s ** (p - 1.0) / 2.0 ** (p - 2.0)) * ((p - 1.0) / p) ** p \
            * flux_min * math.log(s / (4.0 * t))
        rows.append({"t": float(t), "lhs": lhs, "rhs": rhs, "ok": bool(lhs >= rhs)})
    return rows


# ---------------------------------------------------------------------------
# optimality at infinity probe and the simplified-energy bound
# ---------------------------------------------------------------------------


def optimality_at_infinity_probe(hw, eps_list, k_list):
    """Hardy ratios over cutoffs supported in the tail {v < eps}.

    For each eps the scaled cutoff family chi_k(t) = phi_k(t k^2/eps) lives
    in {eps/k^4 < v < eps}, placed by :func:`_support`: a member outside the
    range goes to ``dropped``, and a tail level that keeps none, or is not below
    the range's top, raises RangeError.  The infima approach 1 from above as
    the family is enriched.  Also evaluates the lambda = 1/2 positivity margin
    and the weight-mass density of each member (the sanity: the minimizer
    carries the largest weight-mass density).
    """
    p = hw.p
    vmin, vmax = hw.profile_range(hw.v)
    span = f"the ground-state range ({vmin:.3g}, {vmax:.3g})"
    table, infima, dropped = [], {}, []
    for eps in eps_list:
        if not eps < vmax:
            raise RangeError(f"tail level {eps} is not below {vmax:.3g}, the top of {span}")
        rows = []
        for k in k_list:
            scale = k ** 2 / eps
            support = _support(hw, [t / scale for t in cutoff_breaks(k)], eps, vmin, vmax)
            if support is None:
                dropped.append({"eps": float(eps), "k": int(k)})
                continue
            lo, hi, align = support

            def emu_fun(rho):
                # energy, weight mass and int u^p on the same nodes
                e, m, u = _cutoff_terms(hw, rho, k, scale, False)[:3]
                return e, m, u ** p

            E, M, UP = _radial_integral(hw, emu_fun, lo, hi, align=align, n_r=512)
            rows.append({"eps": float(eps), "k": int(k), "ratio": float(1.0 + E / M),
                         "energy": float(E), "mass": float(M),
                         "mass_density": float(M / UP),
                         "halfweight_energy": float(E + 0.5 * M)})
        if not rows:
            raise RangeError(
                f"tail level {eps} keeps none of the members k = "
                f"{', '.join(str(k) for k in k_list)}: each lowest level eps/k^4 is "
                f"not above {vmin:.3g}, the floor of {span}")
        table += rows
        infima[float(eps)] = min(row["ratio"] for row in rows)
    return {"table": table, "infima": infima, "dropped": dropped}


def simplified_energy_bound_check(hw, ns, c_upper, slack=4.0):
    """Check Q_{V-W}[u_k] <= C X (p<=2) or C (X + X^(2/p) Y^(1-2/p)) (p>2).

    ``C = c_upper * slack`` with ``c_upper`` the empirical upper Bregman
    envelope.  Returns per-k rows and the closed-form comparison of X.
    """
    p = hw.p
    C = c_upper * slack
    rows = []
    c_flux = hw.flux_constant()
    for k, E, X, Y in zip(ns.k_list, ns.energies, ns.x_grad, ns.x_field):
        if p <= 2.0:
            bound = C * X
        else:
            bound = C * (X + X ** (2.0 / p) * Y ** (1.0 - 2.0 / p))
        law = cutoff_gradient_mass_law(p, c_flux, k) if not ns.one_sided else None
        rows.append({"k": int(k), "energy": float(E), "bound": float(bound),
                     "ok": bool(E <= bound),
                     "x_grad": float(X), "x_field": float(Y),
                     "x_law": None if law is None else float(law),
                     "x_law_rel_err": None if law is None else float(abs(X / law - 1.0))})
    return rows
