"""Per-layer tracing of finslerhardy from outside the package.

Every cross-module call in ``src/finslerhardy`` goes through ``from . import
<module>`` followed by ``<module>.<function>(...)``, and calls inside a module
look the function up in the module's globals.  Replacing a module attribute
with a timing wrapper therefore routes every call to that function through
the wrapper, without editing the package.

Each wrapper records a span (start, end, parent) on a per-thread stack, so
self time (duration minus the time of child spans on the same thread) stays
correct when ``suite --threads 2`` runs groups on worker threads.  A span
whose thread has no open span is a root: under ``--threads 2`` the groups are
roots on the pool threads, and ``acceptance.run_battery`` keeps the time it
waits for them as its own self time.

The tracer's overhead is measured in the traced process itself: each wrapper
times its own bookkeeping around the wrapped call, and ``calibrate`` measures
the part no wrapper can time from inside (entering and leaving it).  Comparing
the traced wall with untraced runs in other processes would not measure it,
because between processes the machine's speed drifts by more than the tracer
costs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from collections import defaultdict

import numpy as np

#: the layers (modules of finslerhardy) and the functions wrapped in each
TRACED = {
    "cli": ["main"],
    "acceptance": ["run_battery"],
    "report": ["build_report", "render_json", "write_atomic"],
    "norms": ["dual_newton", "_m_and_jac", "norm_eval", "operator_a",
              "dual_norm", "grad_dual", "bidual_norm"],
    "bregman": ["verify_bounds"],
    "quadrature": ["_dual_shell_geometry", "log_radial_rule"],
    "fields": ["weak_residual", "level_set_flux"],
    "hardy": ["null_sequence", "_radial_integral"],
    "green": ["solve_green", "flux_bound_check"],
    "eigen": ["principal_eigenvalue", "second_eigenvalue_and_gap",
              "eigenpair_convergence_probe", "_principal_on", "_pg_minimize",
              "_newton_polish"],
}


def _rows(a):
    shape = np.shape(a)
    return shape[0] if len(shape) > 1 else 1


#: work counts taken from the bound arguments ``a`` and the return value ``r``
COUNTERS = {
    "norms.dual_newton": lambda a, r: {"rows": _rows(a["Y"])},
    "norms.norm_eval": lambda a, r: {"rows": _rows(a["xi"])},
    "norms.operator_a": lambda a, r: {"rows": _rows(a["xi"])},
    "fields.weak_residual": lambda a, r: {"bumps": a["n_tests"]},
    "green.solve_green": lambda a, r: {"cells": len(r.r) - 1,
                                       "newton_iters": r.newton_iters},
    "eigen.principal_eigenvalue": lambda a, r: {
        "cells": a["ep"].N, "restarts": a["restarts"],
        "agreeing": r.restarts_agreeing},
}

#: the registry groups of ``acceptance.REGISTRY``, timed one span each
GROUPS = ("norms.operator_identity", "norms.homogeneity_monotonicity",
          "norms.dual_calculus", "bregman.bounds", "hardy.classical_reduction",
          "fields.harmonicity", "fields.flux", "hardy.ground_state",
          "hardy.nullseq", "hardy.null_criticality", "hardy.best_constant",
          "green.potentials", "hardy.green_weight", "eigen.appendix",
          "cli.determinism")

#: functions whose total time is also split by the exponent of the problem
P_SPLIT = ("eigen.principal_eigenvalue", "eigen.second_eigenvalue_and_gap")


class Tracer:
    """Collects calls, total time and self time per span name."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.overhead = 0.0     # bookkeeping time of the wrappers, all threads

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        split = name in P_SPLIT
        sig = inspect.signature(fn) if counter or split else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            stack = self._stack()
            frame = [0.0]           # time covered by child wrappers
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
            dur = t1 - t0
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
            with self._lock:
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[0]
                if counter:
                    for key, value in counter(a, result).items():
                        self.counts[f"{name}.{key}"] += value
                if split:
                    tag = "p2" if a["ep"].p == 2.0 else "pother"
                    self.total[f"{name}.{tag}"] += dur
                own = (t0 - t_in) + (time.perf_counter() - t1)
                self.overhead += own
            if stack:
                # the parent's self time excludes this wrapper entirely
                stack[-1][0] += dur + own
            return result

        return traced

    def install(self):
        """Replace the traced module attributes with their wrappers."""
        for mod_name, fn_names in TRACED.items():
            mod = importlib.import_module(f"finslerhardy.{mod_name}")
            for fn_name in fn_names:
                setattr(mod, fn_name,
                        self.wrap(f"{mod_name}.{fn_name}", getattr(mod, fn_name)))
        acceptance = importlib.import_module("finslerhardy.acceptance")
        acceptance.REGISTRY = [(group, self.wrap(f"acceptance.{group}", fn))
                               for group, fn in acceptance.REGISTRY]

    def snapshot(self):
        with self._lock:
            return {"calls": dict(self.calls), "total": dict(self.total),
                    "self": dict(self.self_time), "counts": dict(self.counts),
                    "overhead": self.overhead}


def calibrate(n=200_000):
    """Seconds per call that a wrapper costs outside its own timing: the
    call into it, its first clock read and its return.  Best of three."""
    def noop():
        return None

    probe = Tracer()
    wrapped = probe.wrap("calibrate", noop)
    best = float("inf")
    for _ in range(3):
        probe.overhead = 0.0
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped()
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0) - probe.overhead) / n)
    return max(best, 0.0)


def per_layer_metrics(snap, traced_wall, per_call_cost, fail_frac):
    """The named per-layer metrics, in a fixed order, as name -> (value, unit)."""
    calls, total, self_t, counts = (snap["calls"], snap["total"], snap["self"],
                                    snap["counts"])
    out = {}
    for mod_name, fn_names in TRACED.items():
        for fn_name in fn_names:
            name = f"{mod_name}.{fn_name}"
            out[f"{name}.calls"] = (calls.get(name, 0), "count")
            out[f"{name}.total_s"] = (total.get(name, 0.0), "s")
            out[f"{name}.self_s"] = (self_t.get(name, 0.0), "s")
    for key in ("norms.dual_newton.rows", "norms.norm_eval.rows",
                "norms.operator_a.rows", "fields.weak_residual.bumps",
                "green.solve_green.cells", "green.solve_green.newton_iters",
                "eigen.principal_eigenvalue.cells",
                "eigen.principal_eigenvalue.restarts"):
        out[key] = (int(counts.get(key, 0)), "count")
    restarts = counts.get("eigen.principal_eigenvalue.restarts", 0)
    agreeing = counts.get("eigen.principal_eigenvalue.agreeing", 0)
    out["eigen.principal_eigenvalue.agree_ratio"] = (
        agreeing / restarts if restarts else 0.0, "ratio")
    for name in P_SPLIT:
        for tag in ("p2", "pother"):
            out[f"{name}.{tag}.total_s"] = (total.get(f"{name}.{tag}", 0.0), "s")
    for group in GROUPS:
        out[f"acceptance.{group}.wall_s"] = (total.get(f"acceptance.{group}", 0.0), "s")
    # layer self time: wrapped functions of the module, plus the acceptance
    # group spans (the check bodies) for the acceptance layer
    for mod_name in TRACED:
        prefix = f"{mod_name}."
        out[f"{mod_name}.self_s"] = (
            sum(v for k, v in self_t.items() if k.startswith(prefix)), "s")
    out["trace.wall_s"] = (traced_wall, "s")
    # tracer time (summed over threads) over the wall it would have had untraced
    overhead = snap["overhead"] + per_call_cost * sum(calls.values())
    out["trace.overhead_frac"] = (overhead / (traced_wall - overhead), "ratio")
    out["fail_frac"] = (fail_frac, "ratio")
    return out
