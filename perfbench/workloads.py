"""The benchmark workloads: inputs built from a seed, and their output checks.

``WORKLOADS[name](seed, tiny, scratch)`` returns a function that runs one
iteration and returns ``(attempted, failures, digest)``: the number of checks
attempted, one message per failed check, and a sha256 of the iteration's
output, which must be the same for every iteration of one seed.  An
exception inside the program fails every check the iteration would have
made.  ``tiny`` selects cut-down inputs for the benchmark's smoke test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from collections import Counter

import numpy as np

from finslerhardy import acceptance, cli, eigen, report

#: every group but ``bregman.bounds``, ``eigen.appendix`` and three ``hardy``
#: groups, by the prefixes of their record names.  A benchmark run must not
#: fail on any seed, and these groups make some runs fail:
#:
#: - ``eigen.appendix`` takes about 55 s with ``--quick``, too long to repeat
#:   within a run; ``eigen_sweep`` measures the eigen solvers instead.
#: - ``bregman.bounds``: its ``bregman.envelopes.lp4.*`` records fail on some
#:   seeds (about 1 in 400 with ``--quick``, 1 in 60 at full grids).  The
#:   direct Bregman formula cancels catastrophically for lp(4) when
#:   ``|eta| << |xi|``; seed 1183103791 gives ``c_lower = -2.3e6`` at p = 4.
#: - ``hardy.ground_state`` and ``hardy.null_criticality`` build weights on
#:   lp(4) families, and ``hardy.angular_measure`` caches by ``id(fam)``: a
#:   family can read the factor of a freed family whose address it reuses,
#:   so the report differs between processes.  Seed 303 gave
#:   ``hardy.null_criticality.lp4_p3_n2`` = 0.46542113386515466 in one of 11
#:   processes and 0.3766010270390129 in the others: their ratio is 2 pi /
#:   5.084, the euclidean factor read in place of lp(4)'s.  With only
#:   euclidean families in the cache, a reused address reads the same factor.
#: - ``hardy.best_constant``: ``hardy.simplified_energy_bound.p3`` read
#:   0.10144992338002179 in one of 11 processes of seed 104 and
#:   0.10144992338002178 in the others, so its report too differs between
#:   processes.
SUITE_ONLY = (r"^(?!bregman\.|eigen\.|hardy\.(ratio_|optimality_|"
              r"simplified_energy_bound|x_closed_form|ground_state_residual|"
              r"null_criticality))")


def expected_names(only):
    pattern = re.compile(only)
    return [name for group, _ in acceptance.REGISTRY
            for name in acceptance.CATALOG[group] if pattern.search(name)]


def battery_failures(checks, expected):
    """Each expected name once, no other name, no non-pass outside the
    documented failures; an expected failure that passes is not counted."""
    seen = Counter(c["name"] for c in checks)
    failures = [f"{name}: reported {seen[name]} times"
                for name in expected if seen[name] != 1]
    known = set(expected)
    for c in checks:
        if c["name"] not in known:
            failures.append(f"{c['name']}: unexpected record ({c['status']})")
        elif c["status"] != "pass" and c["name"] not in acceptance.EXPECTED_FAILURES:
            failures.append(f"{c['name']}: {c['status']} {c['measured']!r}")
    return failures


def _crashed(exc, count):
    return [f"{type(exc).__name__}: {exc}"] * count


def _suite_quick(seed, tiny, scratch):
    only = (r"^(norms\.operator_identity|hardy\.classical_reduction)" if tiny
            else SUITE_ONLY)
    expected = expected_names(only)
    out = os.path.join(scratch, f"suite_quick.{os.getpid()}.json")
    argv = ["suite", "--quick", "--threads", "1", "--seed", str(seed), "-o", out,
            "--only", only]

    def run():
        try:
            code = cli.main(argv)
            with open(out) as fh:
                text = fh.read()
        except Exception as exc:  # noqa: BLE001 - a crash fails every record
            return len(expected), _crashed(exc, len(expected)), None
        finally:
            if os.path.exists(out):
                os.unlink(out)
        rep = json.loads(text)
        failures = battery_failures(rep["checks"], expected)
        want = 1 if rep["summary"]["fail"] else 0
        if code != want:
            failures.append(f"cli.main exit code {code}, expected {want}")
        digest = hashlib.sha256(report.mask_timestamp(text).encode()).hexdigest()
        # kept so that a determinism failure can be diffed
        os.makedirs(os.path.join(scratch, "reports"), exist_ok=True)
        kept = os.path.join(scratch, "reports", f"{digest}.json")
        if not os.path.exists(kept):
            with open(kept, "w") as fh:
                fh.write(text)
        return len(expected), failures, digest

    return run


#: relative error allowed against the closed forms at N = 128; the O(h^2)
#: discretization error there is at most 8e-4 (lambda_2 at p = 4)
EIGEN_RTOL = 2e-3


def _lambda_k(p, k):
    """(p-1) (k pi_p)^p: the k-th eigenvalue of the p-Laplacian on (0, 1)."""
    return (p - 1.0) * (k * eigen.p_sine_constant(p)) ** p


def _cosine(x):
    return 5.0 * np.cos(2.0 * math.pi * x)


def _eigen_sweep(seed, tiny, scratch):
    """Principal and second eigenpairs for p != 2: the interval with V = 0
    against the closed forms, the n = 3 ball, and p = 3 with a bounded
    potential against the bounds lambda_1(0) + min V <= lambda_1 <=
    lambda_1(0) + max V.  The seed picks the random restarts."""
    N = 64 if tiny else 128
    interval = [1.5, 3.0, 4.0] if not tiny else [3.0]
    ball = [] if tiny else [1.5, 2.5]

    def problem(p, **kw):
        return eigen.EigenProblem(p=p, N=N, seed=seed, **kw)

    def principal(label, ep, lo, hi):
        pair = eigen.principal_eigenvalue(ep, restarts=2)
        bad = []
        if not lo <= pair.lam <= hi:
            bad.append(f"{label}: lambda1 {pair.lam!r} outside [{lo!r}, {hi!r}]")
        if not pair.residual <= 1e-7:
            bad.append(f"{label}: residual {pair.residual!r} > 1e-7")
        if pair.sign_changes != 0:
            bad.append(f"{label}: {pair.sign_changes} sign changes")
        return [pair.lam], bad

    def second(label, ep, p):
        res = eigen.second_eigenvalue_and_gap(ep, restarts=2)
        bad = []
        exact = _lambda_k(p, 2)
        if not abs(res["lambda2"] / exact - 1.0) <= EIGEN_RTOL:
            bad.append(f"{label}: lambda2 {res['lambda2']!r}, closed form {exact!r}")
        if not res["gap"] > 0.0:
            bad.append(f"{label}: gap {res['gap']!r}")
        return [res["lambda2"], res["gap"], res["zero"]], bad

    cases = []
    for p in interval:
        exact = _lambda_k(p, 1)
        cases.append((f"interval.p{p:g}.principal", principal, problem(p),
                      exact * (1 - EIGEN_RTOL), exact * (1 + EIGEN_RTOL)))
        cases.append((f"interval.p{p:g}.second", second, problem(p), p))
    for p in ball:
        cases.append((f"ball3.p{p:g}.principal", principal,
                      problem(p, geometry="ball", n=3), 0.0, math.inf))
    if not tiny:
        free = _lambda_k(3.0, 1)
        cases.append(("interval.p3.cosine.principal", principal,
                      problem(3.0, V=_cosine), free * (1 - EIGEN_RTOL) - 5.0,
                      free * (1 + EIGEN_RTOL) + 5.0))

    def run():
        values, failures = [], []
        for label, fn, *args in cases:
            try:
                vals, bad = fn(label, *args)
            except Exception as exc:  # noqa: BLE001 - a crash fails the case
                vals, bad = [], [f"{label}: {type(exc).__name__}: {exc}"]
            values.append([label, [float(v).hex() for v in vals]])
            if bad:
                failures.append("; ".join(bad))
        digest = hashlib.sha256(json.dumps(values).encode()).hexdigest()
        return len(cases), failures, digest

    return run


WORKLOADS = {
    "suite_quick": _suite_quick,
    "eigen_sweep": _eigen_sweep,
}
