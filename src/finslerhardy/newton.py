"""Damped Newton with backtracking and two exits at the rounding floor.

Backtracking Newton with an Armijo test (Dennis and Schnabel 1983, 6.3): the
step x - t dx is taken at the first t = 1, 1/2, ... whose residual norm is
below (1 - 1e-4 t) times the current one.  At the round-off floor no trial
passes, and each halving only evaluates the residual again, so a search
tries at most ``HALVINGS`` steps, or ``FLOOR_HALVINGS`` once the residual
is below 100 tol; when all fail, the solve ends on ``floor`` without a step.
A caller that can bound the residual's rounding error passes that floor,
and the solve ends on ``rounding`` within it, before any trial, as
iterative refinement stops (Arioli, Demmel and Duff 1989).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SolverError

HALVINGS, FLOOR_HALVINGS = 20, 2


@dataclass(frozen=True)
class NewtonStats:
    """Steps taken, line-search trials beyond the first of each search, and
    the exit reason: ``tol``, ``rounding`` (within the caller's rounding
    floor), ``floor`` (no trial decreased the merit), ``stall`` or
    ``maxit``."""

    iterations: int
    backtracks: int
    exit: str


def solver_error(what, stats, residual):
    """The :class:`SolverError` of a Newton solve that ended on ``stats.exit``."""
    return SolverError(f"{what}: Newton exit {stats.exit} after {stats.iterations} steps",
                       residual=residual, reason=stats.exit)


def damped_newton(evaluate, direction, x, tol, maxit, accept=0.0, floor=None):
    """Newton from the array x; returns (x, err, state, stats).

    ``evaluate(x)`` gives ``(err, merit, state)``: the residual the
    tolerances read, the norm the Armijo test reads, and what
    ``direction(x, state)`` needs to return the step, or None if it has
    none.  An accepted trial's evaluation serves the next step.
    ``floor(state)``, if given, is the rounding floor of err at x, asked
    before each step.  Exits: ``tol`` at err < tol; ``rounding`` at err <=
    floor(state), before a step is formed; ``stall`` without a step, or at
    err < accept after three steps that each failed to halve the best err;
    ``floor`` after a line search whose trials all failed, the end that
    ``rounding`` spares a solve already within its floor; ``maxit``.
    """
    err, merit, state = evaluate(x)
    best, stalled, backtracks = math.inf, 0, 0
    for it in range(maxit):
        stalled = stalled + 1 if err > 0.5 * best else 0
        best = min(best, err)
        if err < tol:
            return x, err, state, NewtonStats(it, backtracks, "tol")
        if floor is not None and err <= floor(state):
            return x, err, state, NewtonStats(it, backtracks, "rounding")
        dx = None if err < accept and stalled >= 3 else direction(x, state)
        if dx is None:
            return x, err, state, NewtonStats(it, backtracks, "stall")
        t = 1.0
        for trials in range(FLOOR_HALVINGS if err < 100.0 * tol else HALVINGS):
            trial = x - t * dx
            evaluated = evaluate(trial)
            if evaluated[1] < merit * (1.0 - 1e-4 * t):
                break
            t *= 0.5
        else:
            return x, err, state, NewtonStats(it, backtracks + trials, "floor")
        backtracks += trials
        x, (err, merit, state) = trial, evaluated
    return x, err, state, NewtonStats(maxit, backtracks, "maxit")
