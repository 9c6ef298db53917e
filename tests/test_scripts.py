import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

from finslerhardy import cli, eigen

ROOT = Path(__file__).resolve().parents[1]


def test_eigen_sweep_script_matches_closed_forms():
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "eigen_sweep.py"),
         "--N", "128", "--steps", "2"],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [1.5, 4.0]
    for p, lam1, ex1, lam2, ex2, gap in (map(float, r) for r in rows):
        # the printed closed forms are (p-1)(k pi_p)^p on (0, 1)
        assert ex1 == round((p - 1.0) * eigen.p_sine_constant(p) ** p, 5)
        assert abs(lam1 / ex1 - 1.0) <= 2e-3
        assert abs(lam2 / ex2 - 1.0) <= 2e-3
        assert gap > 0.0


def test_eigen_kernels_script_writes_its_timings(tmp_path):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = tmp_path / "kernels.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "eigen_kernels.py"),
         "--N", "64", "--out", str(out)],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert list(result["N"]) == ["64"]
    assert sorted(result["N"]["64"]) == sorted(
        ["rayleigh_us", "gradient_us", "precondition_us", "weak_residual_us",
         "direction_us", "principal_s", "second_s"])
    assert all(t > 0.0 for t in result["N"]["64"].values())


def _run_script(name, *argv):
    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *argv],
                          capture_output=True, text=True, timeout=300, env=env)


def test_nullseq_decay_script_prints_the_sequence(tmp_path):
    out = tmp_path / "seq.csv"
    proc = _run_script("nullseq_decay.py", "--kmax", "64", "--csv", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "family=euclidean p=2.0 n=3" in proc.stdout
    lines = out.read_text().splitlines()
    assert lines[0] == "k,energy,mass,ratio"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [16, 32, 64]


def test_nullseq_decay_script_csv_equals_the_cli_csv(tmp_path):
    # the script and ``null-seq`` build one weight on one check bracket
    family = ["--family", "lp:s=4", "--p", "3", "--n", "2", "--kmax", "256"]
    script, cli_csv = tmp_path / "script.csv", tmp_path / "cli.csv"
    proc = _run_script("nullseq_decay.py", *family, "--csv", str(script))
    assert proc.returncode == 0, proc.stderr
    assert cli.main(["null-seq", *family, "--format", "csv", "--out", str(cli_csv)]) == 0
    assert script.read_text() == cli_csv.read_text()


def test_green_farfield_script_reports_the_decay(tmp_path):
    out = tmp_path / "profile.csv"
    proc = _run_script("green_farfield.py", "--cells", "256", "--csv", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "decay exponent (p-n)/(p-1) = -1.000000" in proc.stdout
    assert re.search(r"after \d+ Newton steps \(exit (tol|floor|stall)\)", proc.stdout)
    assert out.read_text().splitlines()[0] == "r,u,du"


def test_line_trace_lists_the_lines_a_run_never_reaches():
    spec = importlib.util.spec_from_file_location("line_trace", ROOT / "scripts" / "line_trace.py")
    line_trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(line_trace)
    tracer = sys.gettrace()
    found = line_trace.unreached([["verify-norms", "--samples", "200"]])
    assert sys.gettrace() is tracer
    names = {module: {name for name, _ in spans} for module, spans in found.items()}
    # verify-norms builds no weight and solves no eigenproblem ...
    assert {"principal_eigenvalue", "_newton_polish"} <= names["eigen.py"]
    assert "build_weight_zero_potential" in names["hardy.py"]
    # ... and runs its own handler and the norm checks to the end
    assert "cmd_verify_norms" not in names["cli.py"]
    assert "operator_identity" not in names.get("acceptance.py", set())
    for module, spans in found.items():
        lines = (line_trace.SRC / module).read_text().splitlines()
        for _, (first, last) in spans:
            assert first <= last
            for line in (first, last):
                assert not lines[line - 1].strip().startswith("raise"), (module, line)
