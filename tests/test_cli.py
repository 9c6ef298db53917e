import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from finslerhardy import acceptance, cli, eigen, fields
from finslerhardy.report import mask_timestamp

GREEN_EXAMPLE = Path(__file__).resolve().parents[1] / "scripts" / "green_problem_example.json"


def run_main(argv):
    return cli.main(argv)


def test_usage_error_exit_code():
    assert run_main(["no-such-command"]) == 2
    assert run_main(["verify-norms", "--family", "lq:s=4"]) == 2
    # options are registered only where a handler reads them
    assert run_main(["null-seq", "--rmin", "0.5"]) == 2
    assert run_main(["verify-optimality", "--rmax", "5"]) == 2
    assert run_main(["build-weight", "--grid", "64,16"]) == 2


@pytest.mark.parametrize("family", [
    "mix:s=4", "mix:A=[[1,0],[0,1]]", "weighted:delta=1;base=mix:s=4",
    "mix:s=4;A=[[1,0],[0,1]];x=1", "mix:s=4;s=5;A=[[1,0],[0,1]]", "mix:s=4;A=[[1,0],[0,1]];x"])
def test_malformed_mix_spec_is_configuration_error(family, capsys):
    # a mix spec takes exactly the keys s and A: none missing, none extra
    assert run_main(["verify-norms", "--family", family, "--p", "3", "--n", "2"]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_verify_norms_report(tmp_path):
    out = tmp_path / "report.json"
    code = run_main(["verify-norms", "--family", "lp:s=4", "--p", "3", "--n", "2",
                     "--samples", "2000", "--seed", "5", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["schema"] == 1
    assert rep["summary"]["fail"] == 0
    names = {c["name"] for c in rep["checks"]}
    assert {"operator_identity", "homogeneity", "monotonicity",
            "dual_identity", "biduality"} <= names


@pytest.mark.parametrize("label,family", [
    ("lp4", "lp:s=4"), ("weighted", "weighted:delta=1.2;base=lp:s=4")])
def test_verify_norms_matches_suite_records(tmp_path, label, family):
    out = tmp_path / "n.json"
    code = run_main(["verify-norms", "--family", family, "--p", "3", "--n", "2",
                     "--samples", "10000", "--seed", "7", "--out", str(out)])
    assert code == 0
    cli_vals = {c["name"]: c["measured"] for c in json.loads(out.read_text())["checks"]}
    cfg = acceptance.SuiteConfig(seed=7)
    suite = {r.name: r.measured for fn in (acceptance.check_operator_identity,
                                           acceptance.check_homogeneity_monotonicity,
                                           acceptance.check_dual_calculus)
             for r in fn(cfg)}
    checks = ["operator_identity", "homogeneity", "monotonicity"]
    if label != "weighted":
        checks += ["dual_identity", "biduality"]
    assert set(cli_vals) == set(checks) | {"equivalence_constants"}
    for check in checks:
        assert cli_vals[check] == suite[f"norms.{check}.{label}"], check


def test_verify_bregman_payload(tmp_path):
    out = tmp_path / "breg.json"
    code = run_main(["verify-bregman", "--family", "mix:s=4;A=[[4,0],[0,9]]",
                     "--p", "3", "--n", "2", "--samples", "20000",
                     "--seed", "5", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    pay = rep["payload"]
    assert pay["c_lower"] > 0 and pay["c_upper"] < float("inf")
    assert "witness_upper" in pay and "skipped" in pay


def test_scientific_notation_flags(tmp_path):
    out = tmp_path / "r.json"
    code = run_main(["verify-harmonic", "--family", "euclidean", "--p", "2",
                     "--n", "3", "--field", "dualpow", "--tests", "5",
                     "--seed", "3", "--rmin", "1e-1", "--rmax", "1e1",
                     "--tol", "1e-5", "--out", str(out)])
    assert code == 0


def test_build_weight_classical_record(tmp_path):
    out = tmp_path / "w.json"
    code = run_main(["build-weight", "--family", "euclidean", "--p", "2",
                     "--n", "3", "--field", "dualpow", "--seed", "3",
                     "--tests", "10", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    byname = {c["name"]: c for c in rep["checks"]}
    assert byname["classical_reduction"]["status"] == "pass"
    assert rep["payload"]["branch"] == "standard"


def test_build_weight_green_source_has_no_classical_record(tmp_path):
    out = tmp_path / "w.json"
    run_main(["build-weight", "--family", "euclidean", "--p", "2", "--n", "3",
              "--field", f"green:{GREEN_EXAMPLE}",
              "--tests", "5", "--out", str(out)])
    rep = json.loads(out.read_text())
    assert "classical_reduction" not in {c["name"] for c in rep["checks"]}
    # the source never reaches the fixed flux levels 0.3..30
    assert rep["payload"]["flux_cv"] is None


def test_build_weight_green_source_builds_the_green_weight(tmp_path):
    out = tmp_path / "w.json"
    code = run_main(["build-weight", "--family", "euclidean", "--p", "2", "--n", "3",
                     "--field", f"green:{GREEN_EXAMPLE}", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["payload"]["branch"] == "green_based"
    byname = {c["name"]: c for c in rep["checks"]}
    assert byname["ground_state_residual"]["status"] == "pass"
    # the Green construction has no capped branch
    assert run_main(["build-weight", "--field", f"green:{GREEN_EXAMPLE}",
                     "--sigma", "1"]) == 2


def test_verify_harmonic_rejects_a_green_potential(capsys, tmp_path):
    # a Green potential solves the equation with the file's V, phi and p, which
    # the p-harmonic residual would ignore
    out = tmp_path / "h.json"
    for spec in (f"green:{GREEN_EXAMPLE}", f"f0(green:{GREEN_EXAMPLE})"):
        assert run_main(["verify-harmonic", "--p", "2", "--n", "3", "--field", spec,
                         "--tests", "2", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "c_p V u^(p-1) = phi" in err and "build-weight --field green:" in err
        assert not out.exists()


def test_build_weight_flux_failure_is_not_swallowed(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("injected")

    monkeypatch.setattr(fields, "flux_constancy", boom)
    with pytest.raises(RuntimeError, match="injected"):
        run_main(["build-weight", "--family", "euclidean", "--p", "2", "--n", "3",
                  "--tests", "5", "--out", os.devnull])


def test_linear_algebra_failure_is_a_numeric_failure(tmp_path, monkeypatch, capsys):
    # np.linalg.LinAlgError subclasses ValueError, but a fit or solve that fails
    # is a numeric failure (exit 3), not bad input (exit 2)
    def diverged(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

    monkeypatch.setattr(np.linalg, "lstsq", diverged)
    out = tmp_path / "green.json"
    assert run_main(["green", "--problem", str(GREEN_EXAMPLE), "--out", str(out)]) == 3
    assert "numeric failure: SVD did not converge" in capsys.readouterr().err
    assert not out.exists()


def test_ground_state_source_is_configuration_error(tmp_path):
    for command in ("build-weight", "null-seq", "verify-optimality"):
        assert run_main([command, "--field", "f0(dualpow)"]) == 2, command
    # a ground state is still a field whose harmonicity can be measured
    assert run_main(["verify-harmonic", "--field", "f0(dualpow)", "--tests", "2",
                     "--out", str(tmp_path / "h.json")]) in (0, 1)


def test_null_seq_csv(tmp_path):
    out = tmp_path / "seq.csv"
    code = run_main(["null-seq", "--family", "euclidean", "--p", "2", "--n", "3",
                     "--kmin", "16", "--kmax", "256", "--seed", "3",
                     "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,energy,mass,ratio"
    assert len(lines) == 1 + 5          # k in {16, 32, 64, 128, 256}
    k, e, m, r = lines[1].split(",")
    assert int(k) == 16 and float(r) > 1.0


def test_null_seq_config_names_every_option_of_the_run(tmp_path):
    # the config block lists each option but where the report goes and how
    # it is written, so a Green-source run records its source and k range
    out = tmp_path / "seq.json"
    assert run_main(["null-seq", "--field", f"green:{GREEN_EXAMPLE}", "--p", "2",
                     "--kmin", "2", "--kmax", "4", "--out", str(out)]) in (0, 1)
    config = json.loads(out.read_text())["config"]
    assert config == {"family": "euclidean", "p": 2.0, "n": 3, "seed": 7,
                      "field": f"green:{GREEN_EXAMPLE}", "sigma": 0.0,
                      "kmin": 2, "kmax": 4}


@pytest.mark.parametrize("argv,message", [
    (["null-seq"], "ground-state range (0.0291, 0.331) admits none of the requested "
                   "k = 16, 32, 64, 128, 256, 512, 1024, 2048, 4096"),
    (["verify-optimality"], "tail level 0.1 keeps none of the members k = 4, 16, 64, "
                            "256, 1024, 4096: each lowest level eps/k^4 is not above "
                            "0.0291, the floor of the ground-state range (0.0291, 0.331)"),
    (["verify-optimality", "--eps", "0.5"], "tail level 0.5 is not below 0.331, the top "
                                            "of the ground-state range (0.0291, 0.331)"),
], ids=["null-seq", "verify-optimality", "verify-optimality-eps-above"])
def test_green_example_range_failures_state_their_cause(argv, message, capsys):
    # the example's ground state spans (0.0291, 0.331): --kmin 2 --kmax 4 runs,
    # the defaults and --eps 0.5 do not, and no tail level below 0.331 keeps a
    # member k >= 4, whose lowest level eps/k^4 lies under 0.331/256
    assert run_main(argv + ["--field", f"green:{GREEN_EXAMPLE}", "--p", "2"]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


def test_p3_n2_tail_ratios_fall_toward_one_from_above(tmp_path):
    # every tail member lies inside the ground-state range (1e-30, 1e30), so
    # none is clipped: the ratios fall toward 1 as k grows
    out = tmp_path / "opt.json"
    argv = ["verify-optimality", "--family", "euclidean", "--p", "3", "--n", "2"]
    assert run_main(argv + ["--out", str(out)]) == 0
    rows = json.loads(out.read_text())["payload"]
    for eps in (0.1, 0.01):
        ratios = [r["ratio"] for r in sorted(rows, key=lambda r: r["k"]) if r["eps"] == eps]
        assert len(ratios) == 6
        assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
        assert 1.0 < ratios[-1] < 1.02


def test_tail_level_without_a_member_is_a_range_error(capsys):
    argv = ["verify-optimality", "--family", "euclidean", "--p", "3", "--n", "2",
            "--eps", "1e-1,1e-29"]
    assert run_main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "configuration error: tail level 1e-29 keeps none of the members k = 4, 16")


def test_green_subcommand(tmp_path):
    spec = {"p": 2.0, "n": 3, "phi": {"r_a": 0.5, "r_b": 1.0, "mass": 1.0},
            "R_out": 60.0, "mesh": 1024}
    pf = tmp_path / "prob.json"
    pf.write_text(json.dumps(spec))
    out = tmp_path / "g.json"
    prof = tmp_path / "profile.csv"
    code = run_main(["green", "--problem", str(pf), "--out", str(out),
                     "--profile-out", str(prof)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert abs(rep["payload"]["beta"] + 1.0) < 0.02
    header = prof.read_text().splitlines()[0]
    assert header == "r,u,du"


def test_eigen_subcommand(tmp_path):
    out = tmp_path / "e.json"
    code = run_main(["eigen", "--p", "2", "--L", "1", "--potential", "const:1.0",
                     "--grid", "256", "--seed", "3", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    lam1 = rep["payload"]["lambda1"]
    import math
    assert abs(lam1 - (math.pi ** 2 + 1.0)) < 0.05
    assert rep["payload"]["gap"] > 0


def test_eigen_report_checks_only_what_the_solver_does_not_gate(tmp_path):
    # principal_eigenvalue raises above the residual bound 1e-7 itself, so a
    # residual record could never fail; the payload keeps the residual
    out = tmp_path / "e.json"
    assert run_main(["eigen", "--p", "3", "--grid", "64", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert [c["name"] for c in rep["checks"]] == ["principal_positive", "gap_positive"]
    assert rep["payload"]["residuals"]["principal"] <= 1e-7


def test_eigen_gap_is_taken_from_the_reported_lambda1(tmp_path, monkeypatch):
    # shift second_eigenvalue_and_gap's own gap, as a lambda1 that differs
    # from the reported one would
    second = eigen.second_eigenvalue_and_gap

    def other_lambda1(ep, **kw):
        s2 = second(ep, **kw)
        return dict(s2, gap=s2["gap"] + 1.0)

    monkeypatch.setattr(eigen, "second_eigenvalue_and_gap", other_lambda1)
    out = tmp_path / "e.json"
    assert run_main(["eigen", "--p", "3", "--grid", "128", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    payload = rep["payload"]
    assert payload["gap"] == payload["lambda2"] - payload["lambda1"]
    (gap_record,) = [c for c in rep["checks"] if c["name"] == "gap_positive"]
    assert gap_record["measured"] == payload["gap"]


def test_eigen_solves_the_principal_problem_once(tmp_path, monkeypatch):
    # the reported pair is second_eigenvalue_and_gap's lambda1 and warm start
    principal = eigen.principal_eigenvalue
    calls = []

    def counted(*args, **kw):
        calls.append(1)
        return principal(*args, **kw)

    monkeypatch.setattr(eigen, "principal_eigenvalue", counted)
    out = tmp_path / "e.json"
    assert run_main(["eigen", "--p", "3", "--grid", "128", "--out", str(out)]) == 0
    assert len(calls) == 1
    payload = json.loads(out.read_text())["payload"]
    assert payload["gap"] == payload["lambda2"] - payload["lambda1"]


def test_suite_only_filter(tmp_path):
    out = tmp_path / "s.json"
    code = run_main(["suite", "--quick", "--only", r"norms\.operator_identity",
                     "--seed", "7", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert len(rep["checks"]) == 5
    assert all(c["name"].startswith("norms.operator_identity") for c in rep["checks"])


def test_suite_exit_code_on_failing_record(tmp_path):
    out = tmp_path / "s.json"
    code = run_main(["suite", "--quick", "--only",
                     r"hardy\.nullseq_energy_slope\.p3", "--seed", "7",
                     "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert rep["summary"]["fail"] == 1


def test_suite_only_keeps_crashed_group(tmp_path, monkeypatch):
    from finslerhardy import acceptance

    def crash(cfg):
        raise RuntimeError("injected")

    monkeypatch.setattr(acceptance, "REGISTRY", [
        (name, crash if name == "norms.dual_calculus" else fn)
        for name, fn in acceptance.REGISTRY])
    out = tmp_path / "s.json"
    code = run_main(["suite", "--quick", "--only", r"norms\.dual_identity\.mix",
                     "--seed", "7", "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert [c["name"] for c in rep["checks"]] == ["norms.dual_calculus.error"]
    assert rep["checks"][0]["status"] == "fail"


@pytest.mark.parametrize("miscount", [lambda recs: recs + recs[:1], lambda recs: recs[:-1]],
                         ids=["one_too_many", "one_too_few"])
def test_suite_wrong_record_count_is_one_error_record(tmp_path, monkeypatch, miscount):
    group = acceptance.check_dual_calculus
    check = group.check
    monkeypatch.setattr(group, "check", lambda cfg: miscount(check(cfg)))
    out = tmp_path / "s.json"
    code = run_main(["suite", "--quick", "--only", r"norms\.dual_identity\.mix",
                     "--seed", "7", "--out", str(out)])
    assert code == 1
    (rec,) = json.loads(out.read_text())["checks"]
    assert (rec["name"], rec["status"]) == ("norms.dual_calculus.error", "fail")
    assert rec["measured"] == (f"ValueError: check returned "
                               f"{len(miscount(group.records))} records for the "
                               f"{len(group.records)} names of its group")


def test_suite_only_skips_unmatched_groups(tmp_path, monkeypatch):
    ran = []

    def counted(name, fn):
        def run(cfg):
            ran.append(name)
            return fn(cfg)
        return run

    monkeypatch.setattr(acceptance, "REGISTRY", [
        (name, counted(name, fn)) for name, fn in acceptance.REGISTRY])
    out = tmp_path / "s.json"
    assert run_main(["suite", "--quick", "--only", r"norms\.operator_identity",
                     "--seed", "7", "--out", str(out)]) == 0
    assert ran == ["norms.operator_identity"]
    assert [c["name"] for c in json.loads(out.read_text())["checks"]] == \
        acceptance.CATALOG["norms.operator_identity"]


def test_suite_only_matching_nothing_is_usage_error(tmp_path):
    assert run_main(["suite", "--quick", "--only", "nomatch",
                     "--out", str(tmp_path / "s.json")]) == 2


def test_report_determinism_same_process(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify-norms", "--family", "quad:[[4,0],[0,9]]", "--p", "2",
            "--n", "2", "--samples", "3000", "--seed", "9"]
    assert run_main(args + ["--out", str(a)]) == 0
    assert run_main(args + ["--out", str(b)]) == 0
    assert mask_timestamp(a.read_text()) == mask_timestamp(b.read_text())


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "finslerhardy.cli", "verify-norms",
         "--family", "euclidean", "--p", "2", "--n", "2", "--samples", "500",
         "--seed", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["summary"]["fail"] == 0


@pytest.mark.parametrize("argv,values", [
    (["verify-harmonic", "--family", "quad:[[4,0],[0,9]]", "--p", "3", "--n", "3",
      "--tests", "2"], ("2x2", "n = 3")),
    (["build-weight", "--family", "quad:[[4,0],[0,9]]", "--p", "3", "--n", "3",
      "--tests", "2"], ("2x2", "n = 3")),
    (["null-seq", "--family", "mix:s=4;A=[[4,0],[0,9]]", "--p", "2", "--n", "3"],
     ("2x2", "n = 3")),
    (["verify-norms", "--family", "quad:[[4,0],[0,9]]", "--n", "3"], ("2x2", "n = 3")),
    (["build-weight", "--p", "3", "--n", "3", "--field", f"green:{GREEN_EXAMPLE}",
      "--tests", "5"], ("family has p = 3", "Green problem has p = 2")),
])
def test_family_and_problem_disagreeing_on_p_or_n_is_configuration_error(
        argv, values, capsys, tmp_path):
    assert run_main(argv + ["--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert all(v in err for v in values), err
    assert not (tmp_path / "r.json").exists()


def test_log_dual_source_builds_a_weight(tmp_path):
    out = tmp_path / "w.json"
    argv = ["--family", "lp:s=4", "--p", "2", "--n", "2", "--field", "logdual:R=50"]
    assert run_main(["build-weight", *argv, "--tests", "10", "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["payload"]["branch"] == "standard"
    assert {c["name"]: c["status"] for c in rep["checks"]} == {
        "weight_nonnegative": "pass", "ground_state_residual": "pass"}
    assert run_main(["null-seq", *argv, "--kmax", "64", "--out", str(out)]) == 0
