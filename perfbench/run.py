"""Benchmark of the finslerhardy verification battery.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src/finslerhardy`` is imported from
there.  Each iteration of a workload runs in a fresh process
(``perfbench/worker.py``) with BLAS and OpenMP pinned to one thread.

``--trace 0`` runs whole iterations, process start-up included, as long as
the next one is expected to end within ``--seconds`` (at least one), plus
set-up-only processes until there are five set-up samples.  It reports the
median set-up time and peak RSS and the mean wall and CPU time of an
iteration.  ``--trace 1`` runs one traced iteration and reports its per-layer
metrics.

``perfbench/.state/history.json`` keeps the output digest of each workload
and seed, for one version of the code: a hash of the ``src/finslerhardy``
sources, of ``perfbench/workloads.py`` and of ``report.versions()``.  An
iteration whose digest differs from an earlier one of the same seed and the
same code fails its determinism check; a change of the code starts a new
history.  ``suite_quick`` reports are kept in ``perfbench/.state/reports``
for diffing.

The last line of standard output is the JSON result; the line before it
records the seed, the thread settings, ``nproc``, the package versions and
every sample.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(HERE, ".state")
HISTORY = os.path.join(STATE, "history.json")
sys.path.insert(0, HERE)

import tracer  # noqa: E402

WORKLOADS = ("suite_quick", "eigen_sweep")
THREAD_ENV = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                     "MKL_NUM_THREADS")}
SETUP_SAMPLES = 5
BUDGET_S = 165.0        # every process must end well within 180 s


class BenchError(RuntimeError):
    pass


def spawn(args, mode, deadline):
    """Run one worker; returns (setup seconds, result dict or None)."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    # users import from cached bytecode, so set-up is timed with the cache on
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    os.makedirs(STATE, exist_ok=True)
    out = os.path.join(STATE, f"result.{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--mode", mode, "--out", out]
    if args.tiny:
        cmd.append("--tiny")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    try:
        ready, _, _ = select.select([proc.stdout], [], [],
                                    max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup = time.perf_counter() - t0
        if line.strip() != "READY":
            raise BenchError(f"{mode} worker did not get ready")
        proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}")
        if mode == "setup":
            return setup, None
        with open(out) as fh:
            return setup, json.load(fh)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker timed out") from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        if os.path.exists(out):
            os.unlink(out)


def code_version(versions):
    """Hash of the package sources, of the benchmark's workloads and of the
    library versions."""
    h = hashlib.sha256(json.dumps(versions, sort_keys=True).encode())
    paths = [os.path.join(HERE, "workloads.py")]
    src = os.path.join(ROOT, "src", "finslerhardy")
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        paths += [os.path.join(dirpath, name) for name in sorted(filenames)
                  if name.endswith(".py")]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as fh:
            h.update(fh.read() + b"\0")
    return h.hexdigest()


def load_history(code):
    try:
        with open(HISTORY) as fh:
            history = json.load(fh)
    except FileNotFoundError:
        history = {}
    if history.get("code") != code:
        history = {"code": code, "digests": {}}
    return history


def save_history(history):
    os.makedirs(STATE, exist_ok=True)
    with open(HISTORY + ".tmp", "w") as fh:
        json.dump(history, fh, indent=1, sort_keys=True)
    os.replace(HISTORY + ".tmp", HISTORY)


def check_digests(args, history, results):
    """One determinism check per report: it must match every earlier report
    of this seed from the same code, in this run and in earlier runs."""
    key = f"{workload_key(args)}.seed{args.seed}"
    known = history["digests"]
    failures = []
    for res in results:
        if res["digest"] is None:
            continue
        known.setdefault(key, res["digest"])
        if res["digest"] != known[key]:
            failures.append(f"{key}: output {res['digest']} differs from "
                            f"{known[key]}")
    return sum(r["digest"] is not None for r in results), failures


def workload_key(args):
    return args.workload + (".tiny" if args.tiny else "")


def measure(args, deadline):
    """The processes of one run; returns (setup samples, results)."""
    setups, results = [], []
    start = time.monotonic()

    def iteration(mode):
        setup, res = spawn(args, mode, deadline)
        setups.append(setup)
        results.append(res)

    if args.trace:
        iteration("trace")
        return setups, results
    iteration("run")
    while True:
        # each process's start-up counts against --seconds
        now = time.monotonic()
        mean = (now - start) / len(results)
        if now + mean > start + args.seconds or now + 2.0 * mean > deadline:
            break
        iteration("run")
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args, "setup", deadline)[0])
    return setups, results


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="cut-down inputs, for the benchmark's smoke test")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not os.path.isdir(os.path.join(ROOT, "src", "finslerhardy")):
        sys.exit(f"no src/finslerhardy under {ROOT}")
    try:
        setups, done = measure(args, deadline)
    except BenchError as exc:
        sys.exit(f"benchmark error: {exc}")

    history = load_history(code_version(done[0]["versions"]))
    digest_checks, failures = check_digests(args, history, done)
    save_history(history)
    attempted = sum(r["attempted"] for r in done) + digest_checks
    for r in done:
        failures += r["failures"]
    failed = min(len(failures), attempted)
    if args.trace:
        layer = tracer.per_layer_metrics(done[0]["trace"], done[0]["wall_s"],
                                         done[0]["per_call_cost"],
                                         failed / attempted)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        def mean(key):
            # the VM changes speed for tens of seconds at a time, so the
            # average over the whole run is steadier than any one iteration
            return statistics.mean(r[key] for r in done)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": mean("wall_s"), "unit": "s"},
            "cpu_s": {"value": mean("cpu_s"), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_mb"] for r in done), "unit": "MB"},
        }
    for msg in failures:
        print(f"FAILED: {msg}", file=sys.stderr)
    print(json.dumps({"context": {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(),
        "threads": {**THREAD_ENV,
                    "workload": 1},
        "versions": done[0]["versions"], "code": history["code"],
        "samples": {"setup_s": setups,
                    **{k: [r[k] for r in done] for k in
                       ("wall_s", "cpu_s", "peak_rss_mb")}},
    }}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
