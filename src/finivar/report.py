"""Verification reports: one record per requested check, deterministic files.

The serialized report is a pure function of the scenario and flags: timings
appear only in the human-readable summary, never in the file, so consecutive
runs on the same input produce byte-identical reports.  Permutations
serialize as image arrays and complex numbers as [re, im] pairs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any

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
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


@dataclass
class CheckRecord:
    name: str
    type: str
    status: str
    details: dict[str, Any] = field(default_factory=dict)
    elapsed_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.status not in _ALL_STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "type": self.type,
            "status": self.status,
            "details": jsonable(self.details),
        }


@dataclass
class VerificationReport:
    scenario: str
    tolerances: dict[str, float]
    flags: dict[str, Any]
    checks: list[CheckRecord] = field(default_factory=list)

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

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": self.scenario,
            "tolerances": {k: jsonable(v) for k, v in sorted(self.tolerances.items())},
            "flags": jsonable(self.flags),
            "checks": [c.to_dict() for c in self.checks],
            "summary": self.summary(),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"

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
