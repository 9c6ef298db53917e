import numpy as np
import pytest

from finslerhardy import cli, green, newton
from finslerhardy.errors import SolverError
from finslerhardy.newton import NewtonStats


def _sqrt2(floor=0.0, trials=None):
    """evaluate and direction of x^2 = 2, with a residual that cannot fall
    below ``floor``; ``trials`` collects each evaluated point."""
    def evaluate(x):
        if trials is not None:
            trials.append(x.copy())
        err = max(abs(float(x[0] ** 2 - 2.0)), floor)
        return err, err, x.copy()

    return evaluate, lambda x, _: (x ** 2 - 2.0) / (2.0 * x)


def test_tol_exit_at_the_root():
    evaluate, direction = _sqrt2()
    x, err, _, stats = newton.damped_newton(evaluate, direction, np.array([1.0]), 1e-14, 50)
    assert stats.exit == "tol" and err < 1e-14
    assert x[0] == pytest.approx(2.0 ** 0.5, rel=1e-15)
    assert 0 < stats.iterations < 10 and stats.backtracks == 0


@pytest.mark.parametrize("tol, cap", [(1e-7, newton.FLOOR_HALVINGS),
                                      (1e-9, newton.HALVINGS)])
def test_floor_exit_takes_no_step(tol, cap):
    # the residual stops at 1e-6: the last line search tries `cap` steps
    # (2 once the residual is below 100 tol) and none is taken
    trials = []
    evaluate, direction = _sqrt2(floor=1e-6, trials=trials)
    x, err, _, stats = newton.damped_newton(evaluate, direction, np.array([1.0]), tol, 50)
    assert stats.exit == "floor" and err == 1e-6 and stats.iterations == 4
    assert stats.backtracks == cap - 1
    last = trials[-cap - 1]
    # the iterate is returned, not its full trial step (the later trials of a
    # 20-step search round back to the iterate itself)
    assert np.array_equal(x, last) and not np.array_equal(trials[-cap], last)


def test_rounding_exit_takes_no_trial():
    # the caller's floor 1e-5 is reached at step 3: the solve ends there,
    # before a direction is formed or a trial evaluated, and the floor reads
    # the state of each iterate
    trials, seen = [], []
    evaluate, step = _sqrt2(trials=trials)
    directions = []

    def direction(x, state):
        directions.append(x[0])
        return step(x, state)

    def floor(state):
        seen.append(state[0])
        return 1e-5

    x, err, _, stats = newton.damped_newton(evaluate, direction, np.array([1.0]), 1e-14,
                                            50, floor=floor)
    assert stats == NewtonStats(3, 0, "rounding") and 1e-7 < err <= 1e-5
    assert len(trials) == 4 and np.array_equal(x, trials[-1])
    assert seen == [t[0] for t in trials] and directions == seen[:-1]


def _slow():
    """A residual x that each step shrinks by a tenth: it never halves."""
    return (lambda x: (float(abs(x[0])), float(abs(x[0])), None)), (lambda x, _: 0.1 * x)


def test_stall_exit_below_accept():
    evaluate, direction = _slow()
    x, err, _, stats = newton.damped_newton(evaluate, direction, np.array([0.5]), 1e-10,
                                            50, accept=1.0)
    assert stats == NewtonStats(3, 0, "stall")
    assert err == x[0] == 0.5 * 0.9 ** 3


def test_stall_exit_without_a_step():
    evaluate, _ = _sqrt2()
    x, err, _, stats = newton.damped_newton(evaluate, lambda x, _: None,
                                            np.array([1.0]), 1e-14, 50)
    assert stats == NewtonStats(0, 0, "stall") and x[0] == 1.0 and err == 1.0


def test_maxit_exit_after_the_cap():
    evaluate, direction = _slow()
    x, err, _, stats = newton.damped_newton(evaluate, direction, np.array([0.5]), 1e-10, 5)
    assert stats == NewtonStats(5, 0, "maxit")
    assert err == x[0] == pytest.approx(0.5 * 0.9 ** 5, rel=1e-15)


def test_solver_error_carries_the_exit_reason_and_residual():
    exc = newton.solver_error("toy", NewtonStats(7, 3, "floor"), 2.5e-6)
    assert isinstance(exc, SolverError)
    assert exc.reason == "floor" and exc.residual == 2.5e-6
    assert str(exc) == "toy: Newton exit floor after 7 steps (last residual 2.500e-06)"


def test_green_newton_out_of_steps_exits_3(monkeypatch, capsys, tmp_path):
    # one step per continuation stage cannot reach the first stage's tolerance
    def one_step(evaluate, direction, x, tol, maxit, **kw):
        return newton.damped_newton(evaluate, direction, x, tol, 1, **kw)

    monkeypatch.setattr(green, "damped_newton", one_step)
    phi = green.BumpDensity(0.5, 1.0, 1.0, 3)
    with pytest.raises(SolverError, match="Newton exit maxit after 1 steps") as info:
        green.solve_green(green.RadialProblem(p=1.5, n=3, phi=phi, R_out=50.0, n_cells=512))
    assert info.value.reason == "maxit" and info.value.residual > 5e-8
    prob = tmp_path / "prob.json"
    prob.write_text('{"p": 1.5, "n": 3, "phi": {"r_a": 0.5, "r_b": 1.0, "mass": 1.0}, '
                    '"R_out": 50.0, "mesh": 512}')
    assert cli.main(["green", "--problem", str(prob), "--out", str(tmp_path / "g.json")]) == 3
    assert "Newton exit maxit" in capsys.readouterr().err
