"""Report records and atomic artifact writers for the command-line runner.

Every command emits `<out>/<command>.report.json` plus zero or more
`<out>/<command>.<table>.csv` tables. Reports carry the command name, a
bit-exact echo of the parsed config, one entry per asserted check with its
measured value, scalar results, warnings, runtime, and the artifact version.
Files are written to a temporary sibling and renamed into place so readers
never observe partial artifacts. JSON artifacts are strict JSON (RFC 8259): a
float that is not finite is written as the string "NaN", "Infinity" or
"-Infinity".
"""
from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass, field

from . import __version__

ARTIFACT_VERSION = __version__


def format_value(value) -> str:
    """Full-precision text form: 17 significant digits for floats."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@dataclass
class Check:
    """One asserted invariant: measured value against its tolerance.

    `tolerance` is None for exact (roundoff-free) identities; `note` carries
    non-threshold acceptance windows or failure context.
    """

    name: str
    value: float | None
    tolerance: float | None
    passed: bool
    note: str = ""

    def as_dict(self) -> dict:
        out: dict = {"name": self.name, "value": self.value, "passed": self.passed}
        out["tolerance"] = self.tolerance
        if self.note:
            out["note"] = self.note
        return out


@dataclass
class ReportRecord:
    command: str
    config: dict[str, str]
    seed: int
    checks: list[Check] = field(default_factory=list)
    results: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    flags: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str, value: float | None, tolerance: float | None, passed: bool | None = None, note: str = "") -> Check:
        if passed is None:
            if tolerance is None or value is None:
                raise ValueError("exact or value-less checks must state passed explicitly")
            passed = bool(value <= tolerance)
        entry = Check(name, None if value is None else float(value), tolerance, bool(passed), note)
        self.checks.append(entry)
        return entry

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "artifact_version": ARTIFACT_VERSION,
            "seed": self.seed,
            "config": dict(self.config),
            "checks": [c.as_dict() for c in self.checks],
            "passed": self.passed,
            "results": self.results,
            "warnings": list(self.warnings),
            "flags": dict(self.flags),
            "runtime_seconds": self.runtime_seconds,
        }


def write_text_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rdlab-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _strict(value):
    """value with each non-finite float, at any depth of its dicts and lists, replaced
    by the string "NaN", "Infinity" or "-Infinity"."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {k: _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def write_json(path: str, payload) -> None:
    text = json.dumps(_strict(payload), indent=2, sort_keys=False, allow_nan=False)
    write_text_atomic(path, text + "\n")


def write_report(out_dir: str, record: ReportRecord) -> str:
    path = os.path.join(out_dir, f"{record.command}.report.json")
    write_json(path, record.as_dict())
    return path


def write_table(out_dir: str, command: str, table: str, header: list[str], rows) -> str:
    """CSV with one header row; every numeric cell at 17 significant digits."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(cell) for cell in row))
    path = os.path.join(out_dir, f"{command}.{table}.csv")
    write_text_atomic(path, "\n".join(lines) + "\n")
    return path
