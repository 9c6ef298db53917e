"""Cheap guards of the names the benchmark harness and the reports rely on.

``perfbench/tracer.py`` wraps package functions by module and name, and the
record catalog fixes the report schema; neither needs a battery run to check.
"""

import hashlib
import importlib
import importlib.util
from pathlib import Path

from finslerhardy.acceptance import CATALOG, REGISTRY

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

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


def test_catalog_groups_follow_the_registry():
    assert list(CATALOG) == [group for group, _ in REGISTRY]
    assert all(isinstance(names, list) for names in CATALOG.values())


def test_catalog_names_are_pinned():
    names = [name for group, _ in REGISTRY for name in CATALOG[group]]
    assert len(names) == len(set(names)) == 137
    assert hashlib.sha256("\n".join(names).encode()).hexdigest() == CATALOG_SHA256


def test_only_quadrature_maps_dual_shells():
    src = Path(__file__).resolve().parents[1] / "src" / "finslerhardy"
    naming = sorted(p.name for p in src.glob("*.py")
                    if "_dual_shell_geometry" in p.read_text())
    assert naming == ["quadrature.py"]
