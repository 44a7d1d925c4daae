"""Verification reports: one record per requested check, deterministic files.

The serialized report is a pure function of the scenario and flags: timings
appear only in the human-readable summary, never in the file, so consecutive
runs on the same input produce byte-identical reports.  Permutations
serialize as image arrays and complex numbers as [re, im] pairs.

``to_json`` writes the text in one pass over the engine's values, each by a
writer looked up by its exact type.  A handler gives plain values (numbers,
strings, lists, tuples, dicts, permutations, complex numbers) under string
keys, so any other type, as value or key, is refused: a numpy scalar, a
subclass, a record or an integer key.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

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


class CheckRecord(Record):
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

    def to_json(self) -> str:
        """``json.dumps(self._raw(), indent=2, allow_nan=False)`` and a newline,
        a permutation written as its image array and a complex number as
        [re, im], each value by the ``_WRITERS`` entry of its exact type.  A
        permutation's text is kept for this call only, by its images and depth,
        since ``theorem2`` lists the group's elements per variable."""
        return _dict_text(self._raw(), "\n", {}) + "\n"

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


def _dict_text(value: dict, newline: str, memo: dict) -> str:
    if not value:
        return "{}"
    inner = newline + "  "
    get = _WRITERS.get
    items = []
    for key, item in value.items():
        if type(key) is not str:
            raise TypeError(f"cannot serialize {type(key).__name__} key deterministically")
        text = get(type(item), _refuse)(item, inner, memo)
        items.append(encode_basestring_ascii(key) + ": " + text)
    return "{" + inner + ("," + inner).join(items) + newline + "}"


def _list_text(value: list | tuple, newline: str, memo: dict) -> str:
    if not value:
        return "[]"
    inner = newline + "  "
    get = _WRITERS.get
    items = [get(type(item), _refuse)(item, inner, memo) for item in value]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _permutation_text(value: Permutation, newline: str, memo: dict) -> str:
    """Its image array, written once per depth: images are ints by construction."""
    key = (value.images, newline)
    text = memo.get(key)
    if text is None:
        inner = newline + "  "
        images = ("," + inner).join(map(int.__repr__, value.images))
        text = memo[key] = "[" + inner + images + newline + "]" if images else "[]"
    return text


def _float_text(value: float, newline: str, memo: dict) -> str:
    if not math.isfinite(value):
        raise ValueError(f"{value!r} is not JSON compliant")
    return float.__repr__(value)


def _complex_text(value: complex, newline: str, memo: dict) -> str:
    inner = newline + "  "
    real, imag = _float_text(value.real, inner, memo), _float_text(value.imag, inner, memo)
    return "[" + inner + real + "," + inner + imag + newline + "]"


def _refuse(value: Any, newline: str, memo: dict) -> str:
    raise TypeError(f"cannot serialize {type(value).__name__} deterministically")


# The text of a value nested at ``newline``, as ``json.dumps(indent=2)`` writes
# it, without its pure-Python encoder, by the writer of the value's exact type;
# any other type goes to ``_refuse``.  ``memo`` holds each permutation's
# text by its images and ``newline``, for one report.
_WRITERS: dict[type, Callable[[Any, str, dict], str]] = {
    dict: _dict_text,
    list: _list_text,
    tuple: _list_text,
    str: lambda value, newline, memo: encode_basestring_ascii(value),
    int: lambda value, newline, memo: int.__repr__(value),
    float: _float_text,
    bool: lambda value, newline, memo: "true" if value else "false",
    type(None): lambda value, newline, memo: "null",
    Permutation: _permutation_text,
    complex: _complex_text,
}
