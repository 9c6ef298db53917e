"""Cheap guards of the names the benchmark harness and the reports rely on.

``perfbench/tracer.py`` wraps package functions by module and name, and the
record catalog fixes the report schema; neither needs a battery run to check.
"""

import ast
import hashlib
import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from finslerhardy import eigen, fields, green, norms
from finslerhardy.acceptance import CATALOG, REGISTRY

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = Path(__file__).resolve().parents[1] / "src" / "finslerhardy"

#: sha256 of the 137 catalog names joined by newlines, in registry order
CATALOG_SHA256 = "f318eda6e79b113882de31ae3bd32241dcf813fcd2bd8a04de61b68c216c97f9"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_traced_names_resolve():
    for mod_name, fn_names in _tracer().TRACED.items():
        mod = importlib.import_module(f"finslerhardy.{mod_name}")
        for fn_name in fn_names:
            assert callable(getattr(mod, fn_name, None)), f"{mod_name}.{fn_name}"


def test_counters_read_what_the_traced_functions_take_and_return():
    # perfbench's work counts bind argument names (Y, xi, n_tests, ep, restarts)
    # and read GreenPotential.newton_iters: a rename fails here, not only in a
    # traced benchmark run.  Tracer.wrap patches no module.
    tracer = _tracer()
    t = tracer.Tracer()
    fam = norms.lp(4, 3.0, 2)
    xi = np.random.default_rng(0).standard_normal((5, 2))
    ep = eigen.EigenProblem(p=3.0, N=64)
    runs = {
        "norms.dual_newton": lambda f: f(norms.mixed(4, [[4.0, 0.0], [0.0, 9.0]], 3.0), xi),
        "norms.norm_eval": lambda f: f(fam, None, xi),
        "norms.operator_a": lambda f: f(fam, None, xi),
        "fields.weak_residual": lambda f: f(fam, fields.DualPowerField(fam),
                                            fields.annulus(0.1, 10.0, 2), n_tests=2, seed=1),
        "green.solve_green": lambda f: f(green.RadialProblem(
            p=1.5, n=3, phi=green.BumpDensity(0.5, 1.0, 1.0, 3), n_cells=256)),
        "eigen.principal_eigenvalue": lambda f: f(ep, restarts=1),
        "eigen.second_eigenvalue_and_gap": lambda f: f(ep, restarts=1),
    }
    assert set(runs) == set(tracer.COUNTERS) | set(tracer.P_SPLIT)
    out = {}
    for name, run in runs.items():
        mod_name, fn_name = name.split(".")
        fn = getattr(importlib.import_module(f"finslerhardy.{mod_name}"), fn_name)
        out[name] = run(t.wrap(name, fn))
    snap = t.snapshot()
    assert snap["calls"] == dict.fromkeys(runs, 1)
    assert out["green.solve_green"].newton_iters > 0
    assert snap["counts"] == {
        "norms.dual_newton.rows": 5, "norms.norm_eval.rows": 5,
        "norms.operator_a.rows": 5, "fields.weak_residual.bumps": 2,
        "green.solve_green.cells": 256,
        "green.solve_green.newton_iters": out["green.solve_green"].newton_iters,
        "eigen.principal_eigenvalue.cells": 64,
        "eigen.principal_eigenvalue.restarts": 1,
        "eigen.principal_eigenvalue.agreeing": 1}
    assert {k for k in snap["total"] if k.endswith((".p2", ".pother"))} == {
        "eigen.principal_eigenvalue.pother", "eigen.second_eigenvalue_and_gap.pother"}


def test_catalog_groups_follow_the_registry():
    assert list(CATALOG) == [group for group, _ in REGISTRY]
    assert all(isinstance(names, list) for names in CATALOG.values())


def test_catalog_names_are_pinned():
    names = [name for group, _ in REGISTRY for name in CATALOG[group]]
    assert len(names) == len(set(names)) == 137
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == CATALOG_SHA256


def test_only_quadrature_maps_dual_shells():
    naming = sorted(p.name for p in SRC.glob("*.py")
                    if "_dual_shell_geometry" in p.read_text())
    assert naming == ["quadrature.py"]


def test_only_quadrature_takes_gauss_rules():
    # composite rules come from quadrature.gauss_panels, so a graded rule has
    # one place to land
    naming = sorted(p.name for p in SRC.glob("*.py") if "_gauss(" in p.read_text())
    assert naming == ["quadrature.py"]


def test_only_composite_checks_use_the_bare_record():
    # every other record states its bound through a comparison constructor
    # of report.py, which decides the status from the fields it writes
    calls = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for fn in ast.parse(text).body:
            if isinstance(fn, ast.FunctionDef) and path.name != "report.py":
                calls += [f"{path.stem}.{fn.name}: {ast.get_source_segment(text, c.args[0])}"
                          for c in ast.walk(fn) if isinstance(c, ast.Call)
                          and getattr(c.func, "id", None) == "record"]
    assert sorted(calls) == [
        # suite checks leave the name to their group: their composites are
        # pinned by name in test_acceptance.COMPOSITE
        *['acceptance.check_best_constant: None'] * 3,
        'acceptance.check_bregman: None',
        'acceptance.check_eigen: None',
        'acceptance.check_green: None',
        'acceptance.check_green_weight: None',
        'acceptance.check_ground_state: None',
        'acceptance.check_null_criticality: None',
        'acceptance.check_nullseq_decay: None',
        'acceptance.optimality_infima: name',
        'cli.cmd_null_seq: "energies_decreasing"',
        'cli.cmd_verify_bregman: "c_upper_finite"',
        'cli.cmd_verify_norms: "equivalence_constants"',
    ]


def _loaded_by_cli_import(prefixes):
    """The modules named by ``prefixes`` that ``import finslerhardy.cli`` loads
    in a fresh process."""
    code = ("import sys, finslerhardy.cli; print(' '.join(m for m in sys.modules "
            f"if m.startswith({tuple(prefixes)!r})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _src_imports(prefixes):
    """Every import in src, at module level or inside a function, of a module
    named by ``prefixes``."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.startswith(tuple(prefixes))]
    return found


def test_cli_import_loads_no_scipy_optimize_or_interpolate():
    # importing either package costs about 0.3 s of every process start;
    # scalar.py holds the ports the package uses instead
    assert _loaded_by_cli_import(("scipy.optimize", "scipy.interpolate")) == []


def test_src_imports_no_scipy_optimize_or_interpolate():
    # a lazy import inside a function would put the start-up cost back
    assert _src_imports(("scipy.optimize", "scipy.interpolate")) == []


def test_cli_import_loads_no_scipy_linalg():
    # scipy.linalg and the numpy packages its array-API layer pulls in cost
    # about 0.25 s of every process start; lapack.py loads scipy's LAPACK
    # extension without them
    assert _loaded_by_cli_import(("scipy.linalg", "numpy.f2py", "numpy.testing")) == []


def test_src_imports_no_scipy_linalg():
    # not even lazily: a solve would then pay the start-up cost instead
    assert _src_imports(("scipy.linalg",)) == []


def test_cli_import_loads_no_oracle_library():
    # importing mpmath costs about 0.02 s and sympy 0.24 to 0.46 s on a 2-vCPU VM,
    # as much as a quick suite's whole set-up; the oracles that use them live in tests/
    assert _loaded_by_cli_import(("mpmath", "sympy")) == []


def test_src_imports_no_oracle_library():
    assert _src_imports(("mpmath", "sympy")) == []


def _callers(path, name):
    """The top-level functions and methods of ``path`` whose bodies call ``name``,
    bare or as an attribute (``norms.<name>``)."""
    tree = ast.parse(path.read_text())
    defs = [(f"{cls.name}.{fn.name}", fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body if isinstance(fn, ast.FunctionDef)]
    defs += [(fn.name, fn) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
    return sorted(label for label, fn in defs for c in ast.walk(fn) if isinstance(c, ast.Call)
                  and name in (getattr(c.func, "id", None), getattr(c.func, "attr", None)))


def test_one_pass_takes_the_lp_blocks():
    # H and grad H of every kind come from one evaluator; the mixed dual's
    # Newton map keeps its own blocks for its Jacobian
    assert _callers(SRC / "norms.py", "_lp_scaled") == ["_m_and_jac", "_norm_and_grad"]


def test_fields_take_the_dual_norm_through_quadrature():
    # quadrature alone tells the round gauge from an H0 gauge
    for name in ("dual", "dual_norm", "grad_dual"):
        assert _callers(SRC / "fields.py", name) == [], name


def test_radial_fields_evaluate_through_their_profile():
    tree = ast.parse((SRC / "fields.py").read_text())
    methods = {cls.name: {fn.name for fn in cls.body if isinstance(fn, ast.FunctionDef)}
               for cls in tree.body if isinstance(cls, ast.ClassDef)}
    for cls in ("DualPowerField", "LogDualField", "RadialProfileField", "ComposedField"):
        assert not methods[cls] & {"__call__", "grad"}, cls


ROOT = SRC.parents[1]

#: options that only tests set: the seams those tests drive
TEST_SEAMS = {"norms.dual_newton.maxit", "norms.bidual_norm.iters",
              "quadrature.unit_ball_volume.n_ang",
              "hardy.simplified_energy_bound_check.slack", "scalar.brentq.maxiter",
              "green.RadialProblem.r_min"}


def _init_fields(node):
    """The fields a dataclass's constructor takes, in order; [] for any other
    node.  ``field(init=False)`` is a slot the class fills itself."""
    decorators = [d.func if isinstance(d, ast.Call) else d
                  for d in getattr(node, "decorator_list", ())]
    if not (isinstance(node, ast.ClassDef) and any(
            "dataclass" in (getattr(d, "id", None), getattr(d, "attr", None))
            for d in decorators)):
        return []
    return [f for f in node.body if isinstance(f, ast.AnnAssign)
            and not (isinstance(f.value, ast.Call) and any(
                k.arg == "init" and getattr(k.value, "value", True) is False
                for k in f.value.keywords))]


def _options():
    """{(call name, name offset): [(label, param, position, default)]} for every
    parameter with a default of src's module-level functions and class methods,
    and for every defaulted field of a dataclass's constructor.  A call names a
    function bare or as an attribute, a method by its attribute (one positional
    slot for self) and ``__init__`` by its class."""
    options = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defs = [(fn.name, fn.name, fn, 0) for fn in tree.body
                if isinstance(fn, ast.FunctionDef)]
        defs += [(f"{cls.name}.{fn.name}", cls.name if fn.name == "__init__" else fn.name,
                  fn, 1) for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for fn in cls.body if isinstance(fn, ast.FunctionDef)]
        for label, called_as, fn, offset in defs:
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            params = [(positional[first + j].arg, first + j, d)
                      for j, d in enumerate(fn.args.defaults)]
            params += [(a.arg, None, d) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                       if d is not None]
            options.setdefault((called_as, offset), []).extend(
                (f"{path.stem}.{label}", arg, i, d) for arg, i, d in params)
        for cls in tree.body:
            fields = _init_fields(cls)
            if fields:
                options.setdefault((cls.name, 1), []).extend(
                    (f"{path.stem}.{cls.name}", f.target.id, i + 1, f.value)
                    for i, f in enumerate(fields) if f.value is not None)
    return options


def _is_default(value, default):
    """Whether a passed argument is the default's own value, written as a literal."""
    try:
        return ast.literal_eval(value) == ast.literal_eval(default)
    except ValueError:
        return False


def _options_set(dirs):
    """The labels ``module.function.param`` of the options that some call in the
    Python files under ``dirs`` sets, by position or by keyword, to anything but
    the default's literal; a call with ``**kwargs`` sets them all."""
    options = _options()
    found = set()
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            for call in ast.walk(ast.parse(path.read_text())):
                if not isinstance(call, ast.Call):
                    continue
                name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
                keywords = {k.arg: k.value for k in call.keywords}
                for offset in (0, 1):
                    for label, arg, i, default in options.get((name, offset), ()):
                        value = keywords.get(arg)
                        if value is None and i is not None and i - offset < len(call.args):
                            value = call.args[i - offset]
                        if None in keywords or (value is not None
                                                and not _is_default(value, default)):
                            found.add(f"{label}.{arg}")
    return found


def test_every_option_has_a_caller():
    # a default that no caller overrides is a constant written as an option:
    # one more configuration for the tests to cover, none for a user to need
    every = {f"{label}.{arg}" for params in _options().values() for label, arg, _, _ in params}
    assert TEST_SEAMS <= every
    assert sorted(every - _options_set(("src", "scripts", "perfbench")) - TEST_SEAMS) == []
    assert sorted(TEST_SEAMS - _options_set(("tests",))) == []
