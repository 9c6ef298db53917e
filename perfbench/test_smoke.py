"""Smoke test of the benchmark itself, on cut-down inputs (``--tiny``).

    python3 -m pytest perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that the traced run emits the named per-layer metrics with the layers of
each workload actually hit, that the determinism check compares reports of
the same code only, and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

#: a traced counter each tiny workload must move
HIT = {
    "suite_quick": ["cli.main.calls", "report.render_json.calls",
                    "norms.operator_a.rows",
                    "acceptance.norms.operator_identity.wall_s"],
    "eigen_sweep": ["eigen.principal_eigenvalue.cells",
                    "eigen.second_eigenvalue_and_gap.pother.total_s",
                    "eigen._newton_polish.calls", "eigen._pg_minimize.self_s"],
}


def run_bench(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "0.1",
           "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def test_workloads_match_spec():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(HIT)


def test_groups_match_registry():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import tracer
    from finslerhardy import acceptance

    assert list(tracer.GROUPS) == [name for name, _ in acceptance.REGISTRY]


@pytest.mark.parametrize("workload", list(HIT))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_named_metrics(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    context = json.loads(lines[-2])["context"]
    assert context["nproc"] >= 1 and context["versions"]["numpy"]
    assert context["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    if trace:
        for name in HIT[workload]:
            assert result["metrics"][name]["value"] > 0, name
    else:
        for m in spec:
            assert result["metrics"][m["name"]]["value"] > 0, m["name"]


def copy_benchmark(dest, with_sources):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns(".state", "__pycache__")
    shutil.copytree(HERE, dest / "perfbench", ignore=ignore)
    if with_sources:
        shutil.copytree(os.path.join(ROOT, "src"), dest / "src", ignore=ignore)


def last_result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_determinism_check_is_per_code_version(tmp_path):
    copy_benchmark(tmp_path, with_sources=True)
    assert last_result(run_bench("suite_quick", 0, cwd=str(tmp_path)))["correct"]
    history_path = tmp_path / "perfbench" / ".state" / "history.json"
    history = json.loads(history_path.read_text())
    (digest,) = history["digests"].values()

    # a changed version string changes the report, so it starts a new history
    init = tmp_path / "src" / "finslerhardy" / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "',
                                             '__version__ = "9.'))
    assert last_result(run_bench("suite_quick", 0, cwd=str(tmp_path)))["correct"]
    history = json.loads(history_path.read_text())
    assert list(history["digests"].values()) != [digest]

    # a different report from the same code is a failure
    key = next(iter(history["digests"]))
    history["digests"][key] = "0" * 64
    history_path.write_text(json.dumps(history))
    result = last_result(run_bench("suite_quick", 0, cwd=str(tmp_path)))
    assert not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    copy_benchmark(tmp_path, with_sources=False)
    proc = run_bench("eigen_sweep", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
