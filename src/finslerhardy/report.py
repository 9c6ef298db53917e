"""Check records, verification reports, and atomic JSON/CSV emission."""

from __future__ import annotations

import csv
import dataclasses
import datetime
import io
import json
import operator
import os
import platform
import re
import tempfile


@dataclasses.dataclass
class CheckRecord:
    """One named check with its measurement, expectation, and witness.  ``kind``
    names the comparison that decided ``status`` (None for a composite check);
    it is not part of the report."""

    name: str
    status: str                 # pass | fail | skipped
    measured: object = None
    expected: object = None
    tolerance: object = None
    witness: dict | None = None
    kind: str | None = None

    def as_dict(self):
        return {
            "name": self.name,
            "status": self.status,
            "measured": self.measured,
            "expected": self.expected,
            "tolerance": self.tolerance,
            "witness": self.witness or {},
        }


def record(name, ok, measured=None, expected=None, tolerance=None, witness=None,
           kind=None):
    """A record with status ``ok``.  Called bare, it is a composite check that
    the caller decides; the comparison constructors below pass their kind."""
    return CheckRecord(name, "pass" if ok else "fail", measured, expected, tolerance,
                       witness, kind)


# Comparison constructors: each decides the status from the fields it writes,
# so the bound a record states is the bound its status used.


def within(name, measured, expected, tolerance):
    """|measured - expected| <= tolerance."""
    return record(name, abs(measured - expected) <= tolerance, measured, expected,
                  tolerance, kind="within")


def within_rel(name, measured, expected, tolerance):
    """|measured / expected - 1| <= tolerance."""
    return record(name, abs(measured / expected - 1.0) <= tolerance, measured,
                  expected, tolerance, kind="within_rel")


def bound(name, measured, op, limit, tolerance=None):
    """measured <op> limit, op one of <=, >=, >; expected reads "<op> <limit>"
    and tolerance is only reported."""
    ok = {"<=": operator.le, ">=": operator.ge, ">": operator.gt}[op](measured, limit)
    return record(name, ok, measured, f"{op} {limit}", tolerance, kind="bound")


def equals(name, measured, expected):
    """measured == expected."""
    return record(name, measured == expected, measured, expected, kind="equals")


def versions():
    import numpy
    import scipy

    from . import __version__

    return {
        "finslerhardy": __version__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
    }


def build_report(command, config, checks):
    summary = {
        "pass": sum(1 for c in checks if c.status == "pass"),
        "fail": sum(1 for c in checks if c.status == "fail"),
        "skipped": sum(1 for c in checks if c.status == "skipped"),
    }
    return {
        "schema": 1,
        "command": command,
        "config": config,
        "timestamp": datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds"),
        "versions": versions(),
        "checks": [c.as_dict() for c in checks],
        "summary": summary,
    }


def render_json(report):
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=True) + "\n"


def render_csv(report):
    cols = ["name", "status", "measured", "expected", "tolerance"]
    return rows_to_csv(cols, ([c[k] for k in cols] for c in report["checks"]))


def write_atomic(text, path):
    """Write via a temp file in the same directory + rename."""
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp_report_")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


_TS_RE = re.compile(r'"timestamp": "[^"]*"')


def mask_timestamp(text):
    """Replace the timestamp field for byte comparisons."""
    return _TS_RE.sub('"timestamp": "MASKED"', text)


def rows_to_csv(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()
