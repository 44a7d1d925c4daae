"""Execute a scenario's checks and assemble the verification report.

Each check's handler, declared with its parameters in ``scenario._CHECK_PARAMS``,
turns the parameters, read and typed when the scenario loaded, into a status,
residuals and witnesses; ``run_scenario`` wraps them in the check's record.
Tolerances resolve from ``linalg.DEFAULT_TOLERANCES``, scenario overrides, then
a global scale factor; the resolved table is embedded in every report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from .groups import GroupHomomorphism, PermutationGroup, induced_group
from .linalg import DEFAULT_TOLERANCES
from .report import STATUS_ERROR, STATUS_INFORMATIONAL, CheckRecord, VerificationReport
from .representations import (
    IrreducibilityDiagnostic,
    OperatorBundle,
    RepDiagnostics,
    build_operator,
    commutant_diagnostic,
)
from .scenario import _CHECK_PARAMS, Scenario, ScenarioError
from .spaces import ConceptualVariable
from .subgroups import MAX_EXACT_DEGREE

__all__ = ["RunFlags", "run_scenario", "DEFAULT_TOLERANCES", "resolve_tolerances"]


def resolve_tolerances(overrides: dict[str, float], scale: float) -> dict[str, float]:
    if not (scale > 0 and math.isfinite(scale)):
        raise ValueError("tolerance scale must be positive and finite")
    merged = dict(DEFAULT_TOLERANCES)
    for key, value in overrides.items():
        if key not in merged:
            raise ScenarioError(f"tolerances.{key}: unknown tolerance name")
        merged[key] = value
    resolved = {k: v * scale for k, v in merged.items()}
    for key, value in resolved.items():
        if not math.isfinite(value):
            raise ScenarioError(f"tolerances.{key}: overflows to {value} after scaling")
    for key in ("injectivity_overlap", "orthogonal_grouping"):
        if resolved[key] >= 1:
            raise ScenarioError(
                f"tolerances.{key}: an overlap tolerance must stay below 1 after "
                f"scaling, got {resolved[key]:g}"
            )
    return resolved


@dataclass
class RunFlags:
    tolerance_scale: float = 1.0
    max_n: int | None = None


@dataclass
class _Context:
    """What the checks of one scenario run share, each built at most once."""

    scenario: Scenario
    tolerances: dict[str, float]
    flags: RunFlags
    _bundles: dict[tuple[Any, ...], OperatorBundle] = field(default_factory=dict)
    _induced: dict[tuple[Any, ...], tuple[PermutationGroup, GroupHomomorphism]] = field(
        default_factory=dict
    )

    def tol(self, name: str) -> float:
        return self.tolerances[name]

    @cached_property
    def rep_diagnostics(self) -> RepDiagnostics:
        return self.scenario.coherent_family.rep.diagnostics()

    @cached_property
    def irreducibility(self) -> IrreducibilityDiagnostic:
        return commutant_diagnostic(self.scenario.coherent_family.rep, self.tol("commutant"))

    def induced(
        self, theta: ConceptualVariable, group: PermutationGroup
    ) -> tuple[PermutationGroup, GroupHomomorphism]:
        """``groups.induced_group(theta, group)``, built once per variable and
        group.  A refusal is raised again on every call."""
        key = (theta.name, theta.values, theta.assignment, group)
        if key not in self._induced:
            self._induced[key] = induced_group(theta, group)
        return self._induced[key]

    def bundle(self, theta: ConceptualVariable, base_point: int) -> OperatorBundle:
        """Theta's operator over the scenario's coherent family.

        Keyed by name, labels and assignment: variables compare equal by
        partition alone, and relabeled values give a different operator.
        """
        key = (theta.name, theta.values, theta.assignment, base_point)
        if key not in self._bundles:
            self._bundles[key] = build_operator(
                theta, self.scenario.coherent_family, base_point, self.tolerances
            )
        return self._bundles[key]


_HANDLERS = {check_type: entry[0] for check_type, entry in _CHECK_PARAMS.items()}


def run_scenario(scenario: Scenario, flags: RunFlags | None = None) -> VerificationReport:
    """Run every requested check once, in order, and assemble the report."""
    flags = flags or RunFlags()
    tolerances = resolve_tolerances(scenario.tolerance_overrides, flags.tolerance_scale)
    max_n = flags.max_n
    if max_n is not None and (type(max_n) is not int or not 1 <= max_n <= MAX_EXACT_DEGREE):
        raise ValueError(f"max_n must be an integer from 1 to {MAX_EXACT_DEGREE}, got {max_n!r}")
    ctx = _Context(scenario=scenario, tolerances=tolerances, flags=flags)
    report = VerificationReport(
        scenario=scenario.name,
        tolerances=tolerances,
        flags={
            "tolerance_scale": flags.tolerance_scale,
            # Always false; the key stays because the pinned census report digest covers it.
            "exhaustive_relatedness": False,
            "max_n_override": flags.max_n,
            "informational": scenario.informational,
        },
    )
    for spec in scenario.checks:
        started = time.perf_counter()
        try:
            status, details = _HANDLERS[spec.type](ctx, spec.params)
        except Exception as exc:  # pragma: no cover - surfaced, not silenced
            status, details = STATUS_ERROR, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if scenario.informational and status != STATUS_ERROR:
            details["underlying_status"] = status
            status = STATUS_INFORMATIONAL
        report.add(CheckRecord(spec.label(), spec.type, status, details, elapsed_ms))
    return report
