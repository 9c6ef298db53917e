import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from finslerhardy import acceptance, norms
from finslerhardy.errors import ConstructionError, DomainError, SolverError, UnsupportedKindError
from finslerhardy.newton import NewtonStats

import oracles

A2 = np.array([[4.0, 0.0], [0.0, 9.0]])
A2_FULL = np.array([[4.0, 1.0], [1.0, 9.0]])
A3 = np.diag([4.0, 9.0, 1.0])

#: the n = 3 mixed family of the fields.harmonicity records
MIX3 = norms.mixed(4, A3, 1.5)


def all_kinds():
    return [
        norms.euclidean(2.5, 3),
        norms.lp(4, 3.0, 2),
        norms.quadratic(A2_FULL, 2.0),
        norms.mixed(4, A2, 1.5),
        norms.weighted(1.2, norms.lp(4, 3.0, 2)),
    ]


# -- construction and parsing ------------------------------------------------


def test_known_values():
    assert norms.norm_eval(norms.euclidean(2, 2), None, [3.0, 4.0]) == 5.0
    assert norms.norm_eval(norms.lp(4, 2, 2), None, [1.0, 1.0]) == pytest.approx(2 ** 0.25)
    assert norms.norm_eval(norms.quadratic(A2, 2), None, [1.0, 1.0]) == pytest.approx(math.sqrt(13))


def test_construction_errors():
    with pytest.raises(ConstructionError):
        norms.lp(1.5, 2, 2)                      # s < 2
    with pytest.raises(ConstructionError):
        norms.quadratic([[1.0, 0.0], [0.0, -1.0]], 2)   # not SPD
    with pytest.raises(ConstructionError):
        norms.quadratic([[1.0, 2.0], [0.0, 1.0]], 2)    # not symmetric
    with pytest.raises(ConstructionError):
        norms.NormFamily("euclidean", 1.0, 2)    # p = 1
    with pytest.raises(ConstructionError):
        norms.euclidean(2, 1)                    # n < 2


def test_parse_family_round_trip():
    specs = ["euclidean", "lp:s=4", "quad:[[4,0],[0,9]]",
             "mix:s=4;A=[[4,0],[0,9]]", "weighted:delta=1.5;base=lp:s=4"]
    for spec in specs:
        fam = norms.parse_family(spec, 2.5, 2)
        assert fam.p == 2.5
        assert fam.n == 2
    assert norms.parse_family("weighted:delta=1.5;base=lp:s=4", 2.5, 2).base.s == 4.0
    with pytest.raises(ConstructionError):
        norms.parse_family("lq:s=4", 2, 2)


def test_parse_family_matrix_must_be_n_by_n():
    for spec in ("quad:[[4,0],[0,9]]", "mix:s=4;A=[[4,0],[0,9]]",
                 "weighted:delta=1;base=quad:[[4,0],[0,9]]"):
        with pytest.raises(ConstructionError, match="2x2 but n = 3"):
            norms.parse_family(spec, 2.0, 3)
    assert norms.parse_family("quad:[[4,0,0],[0,9,0],[0,0,1]]", 2.0, 3).n == 3


# -- norm axioms (hypothesis) ------------------------------------------------


@given(st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=2),
       st.floats(-5.0, 5.0))
def test_absolute_homogeneity(xi, lam):
    xi = np.asarray(xi)
    for fam in [norms.lp(4, 3.0, 2), norms.mixed(4, A2, 1.5)]:
        h1 = float(norms.norm_eval(fam, None, lam * xi))
        h0 = float(norms.norm_eval(fam, None, xi))
        assert h1 == pytest.approx(abs(lam) * h0, rel=1e-12, abs=1e-12)


@given(st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=2),
       st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=2))
def test_triangle_inequality(a, b):
    a, b = np.asarray(a), np.asarray(b)
    for fam in [norms.lp(4, 3.0, 2), norms.quadratic(A2_FULL, 2.0),
                norms.mixed(4, A2, 1.5)]:
        lhs = float(norms.norm_eval(fam, None, a + b))
        rhs = float(norms.norm_eval(fam, None, a)) + float(norms.norm_eval(fam, None, b))
        assert lhs <= rhs * (1.0 + 1e-12) + 1e-15


# -- flux map ----------------------------------------------------------------


def test_grad_known_values():
    # components of grad |.|_4 at (1,1) are 2^(-3/4); euclidean is xi/|xi|
    g = norms.grad_H(norms.lp(4, 2, 2), None, np.array([1.0, 1.0]))
    assert np.allclose(g, 2.0 ** -0.75)
    ge = norms.grad_H(norms.euclidean(2, 2), None, np.array([3.0, 4.0]))
    assert np.allclose(ge, [0.6, 0.8])
    # sign symmetry grad H(lam xi) = sgn(lam) grad H(xi)
    gm = norms.grad_H(norms.lp(4, 2, 2), None, np.array([-1.0, -1.0]))
    assert np.allclose(gm, -g)


def test_operator_known_values():
    fe = norms.euclidean(2, 2)
    a, hp = norms.operator_a(fe, None, np.array([3.0, 4.0]))
    assert np.allclose(a, [3.0, 4.0])
    fe3 = norms.euclidean(3, 2)
    a, hp = norms.operator_a(fe3, None, np.array([3.0, 4.0]))
    assert np.allclose(a, [15.0, 20.0])
    f4 = norms.lp(4, 2, 2)
    a, _ = norms.operator_a(f4, None, np.array([1.0, 1.0]))
    assert np.allclose(a, 2 ** -0.5)
    # at the origin the map vanishes by continuity
    a, hp = norms.operator_a(f4, None, np.zeros(2))
    assert np.all(a == 0.0) and hp == 0.0


def test_operator_identity_and_monotonicity_bulk():
    for fam in all_kinds():
        xi = norms.sample_vectors(fam.n, 2000, 3, stream=1)
        eta = norms.sample_vectors(fam.n, 2000, 3, stream=2)
        x = None
        if not fam.x_independent:
            x = norms.sample_vectors(fam.n, 2000, 4, decades=1, stream=3)
        a, hp = norms.operator_a(fam, x, xi)
        assert np.all(np.abs(np.einsum("ij,ij->i", a, xi) - hp) <= 1e-12 * (1 + hp))
        ae, _ = norms.operator_a(fam, x, eta)
        inner = np.einsum("ij,ij->i", a - ae, xi - eta)
        assert np.all(inner > 0.0)


def test_grad_errors_at_zero():
    with pytest.raises(DomainError):
        norms.grad_H(norms.lp(4, 2, 2), None, np.zeros(2))
    with pytest.raises(DomainError):
        norms.grad_dual(norms.euclidean(2, 2), np.zeros(2))


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(5)
    for fam in [norms.euclidean(2.5, 3), norms.lp(4, 1.5, 3),
                norms.quadratic(A2_FULL, 3.0), norms.mixed(4, A2, 2.5)]:
        X = rng.standard_normal((200, fam.n)) * 10.0 ** rng.uniform(-1, 1, (200, 1))
        gan = norms.grad_H(fam, None, X)
        gfd = np.array([oracles.fd_gradient(
            lambda v: float(norms.norm_eval(fam, None, v)), x) for x in X[:60]])
        rel = np.linalg.norm(gfd - gan[:60], axis=1) / (1.0 + np.linalg.norm(gan[:60], axis=1))
        assert rel.max() < 1e-5


def _hex(a):
    return [float.hex(float(v)) for v in np.ravel(a)]


def _oracle_families(n):
    """Every kind at dimension n, weighted over two bases."""
    if n == 2:
        A, mix = A2_FULL, norms.mixed(4, A2, 1.5)
    else:
        A, mix = np.array([[4.0, 1.0, 0.0], [1.0, 9.0, 0.5], [0.0, 0.5, 1.0]]), MIX3
    fams = [norms.euclidean(2.5, n), norms.lp(4, 3.0, n), norms.lp(6, 1.5, n),
            norms.quadratic(A, mix.p), mix]
    return fams + [norms.weighted(1.2, fams[1]), norms.weighted(0.7, mix)]


@pytest.mark.parametrize("n", [2, 3])
def test_one_pass_evaluator_matches_the_two_pass_formulas_bit_for_bit(n):
    # H, grad H, the flux map, H^p and the closed duals from one pass over
    # each block carry the bits of the per-quantity formulas
    xi = norms.sample_vectors(n, 300, 13, stream=4)
    x = norms.sample_vectors(n, 300, 14, decades=1, stream=5)
    with_zeros = xi.copy()
    with_zeros[[0, 17, 299]] = 0.0
    for fam in _oracle_families(n):
        at = None if fam.x_independent else x
        assert _hex(norms.norm_eval(fam, at, xi)) == _hex(oracles.two_pass_norm(fam, at, xi))
        assert _hex(norms.grad_H(fam, at, xi)) == _hex(oracles.two_pass_grad(fam, at, xi))
        for rows in (xi, with_zeros, xi[5]):
            point = None if at is None else at[:len(rows)] if rows.ndim == 2 else at[5]
            a, hp = norms.operator_a(fam, point, rows)
            a_ref, hp_ref = oracles.two_pass_operator_a(fam, point, rows)
            assert _hex(a) == _hex(a_ref) and _hex(hp) == _hex(hp_ref)
        if fam.has_closed_dual:
            h0, g0 = oracles.two_pass_dual(fam, xi)
            assert _hex(norms.dual_norm(fam, xi)) == _hex(h0)
            assert _hex(norms.grad_dual(fam, xi)) == _hex(g0)
            assert [_hex(v) for v in norms.dual(fam, xi)] == [_hex(h0), _hex(g0)]


@pytest.fixture
def lp_passes(monkeypatch):
    """Counts the norms._lp_scaled passes."""
    calls = []
    scaled = norms._lp_scaled

    def counted(xi, s, grad=True):
        calls.append(len(xi))
        return scaled(xi, s, grad)

    monkeypatch.setattr(norms, "_lp_scaled", counted)
    return calls


def test_flux_map_and_dual_take_one_lp_pass(lp_passes):
    xi = norms.sample_vectors(2, 50, 3, stream=1)
    for fam, call in [(norms.lp(4, 3.0, 2), norms.operator_a),
                      (norms.mixed(4, A2, 1.5), norms.operator_a),
                      (norms.weighted(1.2, norms.lp(4, 3.0, 2)), norms.operator_a),
                      (norms.lp(4, 3.0, 2), lambda fam, x, y: norms.dual(fam, y))]:
        del lp_passes[:]
        call(fam, xi, xi)
        assert lp_passes == [50]


# -- duals -------------------------------------------------------------------


def test_dual_known_values():
    assert norms.dual_norm(norms.euclidean(2, 2), np.array([3.0, 4.0])) == 5.0
    f4 = norms.lp(4, 2, 2)
    assert float(norms.dual_norm(f4, np.array([1.0, 1.0]))) == pytest.approx(2 ** 0.75)
    fq = norms.quadratic(A2, 2)
    assert float(norms.dual_norm(fq, np.array([1.0, 1.0]))) == pytest.approx(math.sqrt(13.0) / 6.0)


def test_dual_rejects_weighted():
    wf = norms.weighted(1.0, norms.lp(4, 2, 2))
    with pytest.raises(UnsupportedKindError):
        norms.dual_norm(wf, np.array([1.0, 0.0]))


def test_dual_newton_identities():
    for fam in [norms.mixed(4, A2, 3.0), MIX3]:
        Y = norms.sample_vectors(fam.n, 3000, 11, stream=4)
        h0, g, _ = norms.dual_newton(fam, Y)
        assert np.abs(norms.norm_eval(fam, None, g) - 1.0).max() < 1e-12
        euler = np.einsum("ij,ij->i", Y, g) / h0
        assert np.abs(euler - 1.0).max() < 1e-12


def test_numeric_dual_against_brute_force():
    cases = [(norms.mixed(4, A2, 3.0), [[1.0, 1.0], [2.0, -0.3]]),
             (MIX3, [[1.0, 1.0, 1.0], [2.0, -0.3, 0.7]])]
    for fam, ys in cases:
        for y in map(np.array, ys):
            brute = oracles.brute_dual_norm(fam, y, n_samples=1_000_000, seed=2)
            newt = float(norms.dual_norm(fam, y))
            assert newt == pytest.approx(brute, rel=1e-8)
            assert newt >= brute - 1e-12  # sampled sup cannot exceed the true sup


def test_dual_newton_values_are_pinned_bit_for_bit():
    # dropping converged rows and the line search's Jacobians saves work only;
    # neither may move a bit of H0 or grad H0
    pins = [(norms.mixed(4, A2, 3.0),
             "ce66ab36a9cdc165b670d35c3e11d74e5f5460fcb7f955c02bc9787a82ee234c"),
            (MIX3, "640ec6677c12a61d1e81e6aa4cd6078705f0951376468b8515c17689530099f6")]
    for fam, digest in pins:
        h, g, _ = norms.dual_newton(fam, norms.sample_vectors(fam.n, 512, 7))
        assert hashlib.sha256(h.tobytes() + g.tobytes()).hexdigest() == digest


def test_dual_newton_takes_each_jacobian_once(monkeypatch):
    calls = []
    evaluate = norms._m_and_jac

    def counted(fam, xi, jac=True):
        calls.append((len(xi), jac))
        return evaluate(fam, xi, jac)

    monkeypatch.setattr(norms, "_m_and_jac", counted)
    _, _, stats = norms.dual_newton(MIX3, norms.sample_vectors(3, 4096, 7))
    newton = [rows for rows, jac in calls if jac]
    # its stats count the Jacobian steps and the trials beyond each step's first
    assert stats == NewtonStats(len(newton), len(calls) - 1 - 2 * len(newton), "tol")
    # the start and every line-search trial ask for m alone: each Jacobian is
    # one of the 6 Newton steps, and the next call is its first trial
    assert not calls[0][1] and not calls[-1][1]
    assert all(not calls[i + 1][1] for i, (_, jac) in enumerate(calls) if jac)
    assert len(newton) <= 6
    # rows leave the batch once below tol: 18517 Jacobian rows, not 6 * 4096
    assert newton[0] == 4096
    assert all(a >= b for a, b in zip(newton, newton[1:]))
    assert sum(newton) <= 18517 < len(newton) * 4096


def test_dual_newton_warm_start_matches_the_cold_solve(monkeypatch):
    # bidual_norm starts each step's solve from grad H0 at the last accepted
    # point: from grad H0 at nearby points, Newton ends at the cold solve's
    # values in fewer evaluations of m
    calls = []
    evaluate = norms._m_and_jac

    def counted(fam, xi, jac=True):
        calls.append(len(xi))
        return evaluate(fam, xi, jac)

    monkeypatch.setattr(norms, "_m_and_jac", counted)
    for fam in [norms.mixed(4, A2, 3.0), MIX3]:
        Y = norms.sample_vectors(fam.n, 512, 7, stream=5)
        near = Y + 1e-3 * np.linalg.norm(Y, axis=-1, keepdims=True) * norms.sample_vectors(
            fam.n, 512, 8, decades=0, stream=5)
        _, g_near, _ = norms.dual_newton(fam, near)
        del calls[:]
        h_cold, g_cold, _ = norms.dual_newton(fam, Y)
        cold = len(calls)
        del calls[:]
        h_warm, g_warm = norms.dual(fam, Y, start=g_near)
        assert len(calls) < cold
        assert np.abs(h_warm / h_cold - 1.0).max() <= 1e-13
        # each solve stops below a 1e-13 residual, and grad H0 = xi/H(xi) is
        # that residual times the conditioning of m from the exact value
        assert (np.linalg.norm(g_warm - g_cold, axis=-1)
                / np.linalg.norm(g_cold, axis=-1)).max() <= 1e-12


def test_dual_newton_raises_on_unconverged_rows():
    Y = norms.sample_vectors(2, 64, 7)
    with pytest.raises(SolverError) as err:
        norms.dual_newton(norms.mixed(4, A2, 3.0), Y, maxit=1)
    assert err.value.residual > 1e-13
    assert err.value.reason == "maxit" and "Newton exit maxit after 1 steps" in str(err.value)


def test_dual_is_bitwise_its_projections():
    # dual_norm and grad_dual are projections of the single path norms.dual
    Y = norms.sample_vectors(2, 60, 3, stream=2)
    for fam in [norms.euclidean(2.0, 2), norms.lp(4, 3.0, 2),
                norms.quadratic(A2_FULL, 2.0), norms.mixed(4, A2, 3.0)]:
        for y in (Y, Y[7]):
            h0, g0 = norms.dual(fam, y)
            assert np.shape(h0) == y.shape[:-1] and g0.shape == y.shape
            np.testing.assert_array_equal(h0, norms.dual_norm(fam, y))
            np.testing.assert_array_equal(g0, norms.grad_dual(fam, y))
        # N-D input is reshaped like the closed forms broadcast
        h3, g3 = norms.dual(fam, Y.reshape(3, 20, 2))
        h2, g2 = norms.dual(fam, Y)
        np.testing.assert_array_equal(h3, h2.reshape(3, 20))
        np.testing.assert_array_equal(g3, g2.reshape(3, 20, 2))


def test_dual_rejects_weighted_and_zero():
    with pytest.raises(UnsupportedKindError):
        norms.dual(norms.weighted(1.0, norms.lp(4, 2, 2)), np.array([1.0, 0.0]))
    for fam in [norms.euclidean(2.0, 2), norms.lp(4, 3.0, 2),
                norms.quadratic(A2_FULL, 2.0), norms.mixed(4, A2, 3.0)]:
        with pytest.raises(DomainError):
            norms.dual(fam, np.zeros(2))
        with pytest.raises(DomainError):
            norms.dual(fam, np.array([[1.0, 2.0], [0.0, 0.0]]))


def test_dual_norm_is_zero_at_zero_for_every_kind():
    Y = norms.sample_vectors(2, 12, 3, stream=2)
    Y[[0, 5, 11]] = 0.0
    zero = np.linalg.norm(Y, axis=-1) == 0.0
    for fam in [norms.euclidean(2.0, 2), norms.lp(4, 3.0, 2),
                norms.quadratic(A2_FULL, 2.0), norms.mixed(4, A2, 3.0)]:
        h0 = norms.dual_norm(fam, Y)
        assert np.all(h0[zero] == 0.0)
        np.testing.assert_allclose(h0[~zero], norms.dual(fam, Y[~zero])[0],
                                   rtol=1e-12, atol=0.0)
        assert float(norms.dual_norm(fam, np.zeros(2))) == 0.0
        # the gradient stays undefined at 0
        with pytest.raises(DomainError):
            norms.dual(fam, Y)
        with pytest.raises(DomainError):
            norms.grad_dual(fam, Y)


def test_biduality_round_trip():
    for fam, tol in [(norms.lp(4, 2.0, 2), 1e-6), (norms.quadratic(A2, 2.0), 1e-6),
                     (norms.mixed(4, A2, 2.0), 1e-4)]:
        xi = norms.sample_vectors(2, 300, 17, stream=5)
        bid, _ = norms.bidual_norm(fam, xi, seed=19)
        H = norms.norm_eval(fam, None, xi)
        assert np.abs(bid / H - 1.0).max() < tol


@pytest.mark.parametrize("label", sorted(acceptance.DUAL_KINDS))
def test_bidual_ascent_converges_and_says_so(label):
    # Barzilai-Borwein steps retire every row, at stationarity or at the rounding
    # floor, well before the 80-step cap at the full-grid sample size, with H00 = H
    # to rounding (fixed steps that only halve left lp4 at 4.4e-9 after all 80)
    p, n = acceptance.DUAL_KINDS[label]
    fam = acceptance._family(label, p, n)
    xi = norms.sample_vectors(n, 1000, 29, stream=7)
    val, stats = norms.bidual_norm(fam, xi, seed=30)
    assert stats.active == 0 and stats.iterations < 40
    assert np.abs(val / norms.norm_eval(fam, None, xi) - 1.0).max() <= 1e-14
    # cut short, the ascent counts the rows still short of stationarity
    _, capped = norms.bidual_norm(fam, xi, seed=30, iters=2)
    assert capped == norms.BidualStats(2, capped.active) and capped.active > 0


def test_equivalence_report():
    k, v = norms.equivalence_report(norms.mixed(4, A2, 2.0))
    assert 0.0 < k <= v
