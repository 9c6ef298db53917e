"""Check records, verification reports, and atomic JSON/CSV emission."""

from __future__ import annotations

import csv
import dataclasses
import datetime
import io
import json
import os
import platform
import re
import tempfile


@dataclasses.dataclass
class CheckRecord:
    """One named check with its measurement, expectation, and witness."""

    name: str
    status: str                 # pass | fail | skipped
    measured: object = None
    expected: object = None
    tolerance: object = None
    witness: dict | None = None

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
           skipped=False):
    status = "skipped" if skipped else ("pass" if ok else "fail")
    return CheckRecord(name=name, status=status, measured=measured,
                       expected=expected, tolerance=tolerance, witness=witness)


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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["name", "status", "measured", "expected", "tolerance"])
    for c in report["checks"]:
        writer.writerow([c["name"], c["status"], c["measured"], c["expected"],
                         c["tolerance"]])
    return buf.getvalue()


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
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
