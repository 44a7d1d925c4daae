"""Verification reports: one record per requested check, deterministic files.

The serialized report is a pure function of the scenario and flags: timings
appear only in the human-readable summary, never in the file, so consecutive
runs on the same input produce byte-identical reports.  Permutations
serialize as image arrays and complex numbers as [re, im] pairs.
"""

from __future__ import annotations

import math
import sys
from json.encoder import encode_basestring_ascii
from typing import Any

from ._record import Record
from .groups import Permutation

__all__ = [
    "STATUS_PASS",
    "STATUS_FAIL",
    "STATUS_NOT_APPLICABLE",
    "STATUS_ERROR",
    "STATUS_INFORMATIONAL",
    "CheckRecord",
    "VerificationReport",
    "jsonable",
]

STATUS_PASS = "pass"
STATUS_FAIL = "fail"
STATUS_NOT_APPLICABLE = "not-applicable"
STATUS_ERROR = "error"
STATUS_INFORMATIONAL = "informational"
_ALL_STATUSES = (
    STATUS_PASS,
    STATUS_FAIL,
    STATUS_NOT_APPLICABLE,
    STATUS_ERROR,
    STATUS_INFORMATIONAL,
)


def jsonable(value: Any) -> Any:
    """Coerce engine values into deterministic JSON-ready structures."""
    # No numpy value can exist before numpy is loaded, so its tests are skipped until then.
    np = sys.modules.get("numpy")
    if isinstance(value, Permutation):
        return [int(i) for i in value.images]
    if isinstance(value, complex) or (np is not None and isinstance(value, np.complexfloating)):
        return [float(value.real), float(value.imag)]
    if np is not None:
        if isinstance(value, np.floating):
            return float(value)
        if isinstance(value, np.integer):
            return int(value)
        if isinstance(value, np.bool_):
            return bool(value)
        if isinstance(value, np.ndarray):
            return [jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if type(value) in (list, tuple):  # not a NamedTuple record: it has no JSON form
        return [jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


class CheckRecord(Record):
    __slots__ = _fields = ("name", "type", "status", "details", "elapsed_ms")
    name: str
    type: str
    status: str
    details: dict[str, Any]
    elapsed_ms: float

    def __init__(
        self,
        name: str,
        type: str,
        status: str,
        details: dict[str, Any] | None = None,
        elapsed_ms: float = 0.0,
    ) -> None:
        super().__init__(name, type, status, {} if details is None else details, elapsed_ms)
        if self.status not in _ALL_STATUSES:
            raise ValueError(f"unknown status {self.status!r}")


class VerificationReport(Record):
    __slots__ = _fields = ("scenario", "tolerances", "flags", "checks")
    scenario: str
    tolerances: dict[str, float]
    flags: dict[str, Any]
    checks: list[CheckRecord]

    def __init__(
        self,
        scenario: str,
        tolerances: dict[str, float],
        flags: dict[str, Any],
        checks: list[CheckRecord] | None = None,
    ) -> None:
        super().__init__(scenario, tolerances, flags, [] if checks is None else checks)

    def add(self, record: CheckRecord) -> None:
        base = record.name
        taken = {c.name for c in self.checks}
        if base in taken:
            suffix = 2
            while f"{base}#{suffix}" in taken:
                suffix += 1
            record.name = f"{base}#{suffix}"
        self.checks.append(record)

    def summary(self) -> dict[str, int]:
        counts = {status: 0 for status in _ALL_STATUSES}
        for check in self.checks:
            counts[check.status] += 1
        return counts

    @property
    def exit_code(self) -> int:
        counts = self.summary()
        return 1 if counts[STATUS_FAIL] or counts[STATUS_ERROR] else 0

    def _raw(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "tolerances": dict(sorted(self.tolerances.items())),
            "flags": self.flags,
            "checks": [
                dict(name=c.name, type=c.type, status=c.status, details=c.details) for c in self.checks
            ],
            "summary": self.summary(),
        }

    def to_dict(self) -> dict[str, Any]:
        return jsonable(self._raw())

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, allow_nan=False)`` and a newline,
        written straight from the engine's values: ``_write_json`` converts each
        value as ``jsonable`` does, without first copying the report into a new tree."""
        out: list[str] = []
        _write_json(self._raw(), "\n", out)
        return "".join(out) + "\n"

    def to_text(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        for check in self.checks:
            lines.append(
                f"  [{check.status.upper():>15}] {check.name} ({check.elapsed_ms:.1f} ms)"
            )
        counts = self.summary()
        shown = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
        lines.append(f"  summary: {shown or 'no checks'}")
        return "\n".join(lines) + "\n"


def _write_json(value: Any, newline: str, out: list[str]) -> None:
    """Append the text of ``jsonable(value)`` nested at ``newline`` as
    ``json.dumps(indent=2)`` writes it, without its pure-Python encoder.  The
    values JSON has, tuples, permutations and complex numbers are written as
    they are; any other value (numpy's) goes through ``jsonable`` first, which
    refuses a record, a NamedTuple one too."""
    inner = newline + "  "
    if isinstance(value, dict):
        if not all(type(key) is str for key in value):
            value = {str(key): item for key, item in value.items()}
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            out.append(("," if i else "") + inner + encode_basestring_ascii(key) + ": ")
            _write_json(item, inner, out)
        out.append(newline + "}" if value else "}")
    elif type(value) in (list, tuple) and value and all(type(item) is int for item in value):
        # Image arrays, most of a report's items: one join.
        out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
    elif type(value) in (list, tuple):
        out.append("[")
        for i, item in enumerate(value):
            out.append(("," if i else "") + inner)
            _write_json(item, inner, out)
        out.append(newline + "]" if value else "]")
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None or value is True or value is False:
        out.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{value!r} is not JSON compliant")
        out.append(float.__repr__(value))
    elif isinstance(value, Permutation):
        _write_json(value.images, newline, out)
    elif isinstance(value, complex):
        _write_json([value.real, value.imag], newline, out)
    else:  # numpy values, and what ``jsonable`` refuses
        _write_json(jsonable(value), newline, out)
