#!/usr/bin/env python3
"""Lines of src/finslerhardy that the suite and the CLI never reach.

Runs ``finslerhardy suite`` (full and ``--quick``, one thread) and each
invocation in ``CLI_RUNS`` in this process, under ``sys.settrace`` and
``threading.settrace``, then prints per module the executable lines of its
functions that none of the runs reached, grouped by function.  Lines of a
``raise`` statement are left out: they are the refusals of bad input, which
the tests reach and the battery must not.  A function that is never called
is listed whole.  The package is imported under the trace, so the calls made
on import count; in a process that imported it before, they are not seen.
It needs nothing beyond the standard library.

    PYTHONPATH=src python scripts/line_trace.py [--seed 7]
"""

import argparse
import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import sys
import tempfile
import threading
from pathlib import Path

SRC = Path(importlib.util.find_spec("finslerhardy").origin).resolve().parent
GREEN = str(Path(__file__).resolve().parent / "green_problem_example.json")

#: one invocation of every subcommand, and the field and family variants of
#: the commands that build a weight or a residual
CLI_RUNS = [
    ["verify-norms"],
    ["verify-norms", "--family", "lp:s=4", "--samples", "2000", "--format", "csv"],
    ["verify-norms", "--family", "mix:s=4;A=[[2,0.5],[0.5,1]]", "--n", "2"],
    ["verify-norms", "--family", "weighted:delta=0.5;base=lp:s=4", "--n", "2"],
    ["verify-bregman", "--family", "lp:s=4", "--samples", "20000"],
    ["verify-harmonic", "--family", "lp:s=4", "--p", "3", "--n", "2"],
    ["verify-harmonic", "--family", "lp:s=4", "--p", "2", "--n", "2",
     "--field", "logdual:R=50"],
    ["verify-harmonic", "--field", "f0(dualpow)"],
    ["verify-harmonic", "--family", "weighted:delta=0.5;base=lp:s=4", "--p", "3",
     "--n", "2"],
    ["build-weight"],
    ["build-weight", "--family", "lp:s=4", "--p", "3", "--n", "2"],
    ["build-weight", "--family", "mix:s=4;A=[[2,0.5],[0.5,1]]", "--p", "1.5", "--n", "2"],
    ["build-weight", "--p", "4", "--n", "3", "--sigma", "1e5"],
    ["build-weight", "--field", f"green:{GREEN}"],
    ["build-weight", "--family", "lp:s=4", "--p", "2", "--n", "2", "--field", "logdual:R=50"],
    ["null-seq"],
    ["null-seq", "--family", "lp:s=4", "--p", "3", "--n", "2", "--format", "csv"],
    ["verify-optimality"],
    ["green", "--problem", GREEN],
    ["eigen", "--p", "3", "--potential", "const:5", "--N", "256"],
    ["eigen", "--geometry", "ball", "--N", "256"],
]


#: the code objects of comprehensions, which run where they are written
COMPREHENSIONS = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>")


def _code_lines(code, in_function=False):
    """{line: function name} of the executable lines of every function in code,
    without each function's first line (its ``def`` or decorator); a closure's
    lines go by the name of the function that encloses it.  A comprehension
    outside any function runs on import, before the trace, and is left out."""
    in_function = in_function or (code.co_flags & inspect.CO_OPTIMIZED
                                  and code.co_name not in COMPREHENSIONS)
    out = {}
    for const in code.co_consts:
        if inspect.iscode(const):
            out.update(_code_lines(const, in_function))
    if in_function:
        name = code.co_qualname.split(".<locals>.")[0]
        for _, _, line in code.co_lines():
            if line is not None and line != code.co_firstlineno:
                out.setdefault(line, name)
    return out


def _raise_lines(source):
    return {line for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)
            for line in range(node.lineno, node.end_lineno + 1)}


def unreached(runs, src=SRC):
    """{module file name: [(function, [first, last]), ...]} of the executable
    function lines under ``src`` that none of the CLI argument lists ``runs``
    reached, raise statements left out."""
    root = str(src)
    hit = set()

    def local(frame, event, arg):
        if event == "line":
            hit.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(root) else None

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        cli = importlib.import_module("finslerhardy.cli")
        for argv in runs:
            # reports go to stdout, which is dropped with stderr
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(argv)
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    report = {}
    for path in sorted(src.glob("*.py")):
        source = path.read_text()
        lines = _code_lines(compile(source, str(path), "exec"))
        spans, open_span = [], False
        for line in sorted(set(lines) - _raise_lines(source)):
            if (str(path), line) in hit:
                open_span = False
            elif open_span and spans[-1][0] == lines[line]:
                spans[-1][1][1] = line
            else:
                spans.append((lines[line], [line, line]))
                open_span = True
        if spans:
            report[path.name] = spans
    return report


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7, help="the suite runs' seed")
    args = ap.parse_args()
    suite = ["suite", "--threads", "1", "--seed", str(args.seed)]
    with tempfile.TemporaryDirectory() as tmp:
        # one report written to a file, as every other run writes to stdout
        found = unreached([suite, [*suite, "--quick"], *CLI_RUNS, [
            "verify-norms", "--samples", "2000", "--out", str(Path(tmp) / "norms.json")]])
    for module, spans in found.items():
        print(module)
        for name, (first, last) in spans:
            print(f"  {name}: {first}" if first == last else f"  {name}: {first}-{last}")


if __name__ == "__main__":
    sys.exit(main())
