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
from functools import cached_property
from typing import TYPE_CHECKING, Any

from ._record import Record
from .groups import GroupHomomorphism, PermutationGroup, induced_group
from .linalg import DEFAULT_TOLERANCES
from .report import STATUS_ERROR, STATUS_INFORMATIONAL, CheckRecord, VerificationReport
from .scenario import _CHECK_PARAMS, Scenario, ScenarioError, _finite_number
from .spaces import ConceptualVariable, VariableFamily, maximal_accessible
from .subgroups import MAX_EXACT_DEGREE

if TYPE_CHECKING:  # loaded by the first check that builds an operator
    from .representations import IrreducibilityDiagnostic, OperatorBundle, RepDiagnostics

__all__ = ["RunFlags", "run_scenario", "DEFAULT_TOLERANCES", "resolve_tolerances"]


def resolve_tolerances(overrides: dict[str, float], scale: float) -> dict[str, float]:
    if not (_finite_number(scale) and scale > 0):  # an int or a float, never a bool
        raise ValueError(f"tolerance scale must be positive and finite, got {scale!r}")
    merged = dict(DEFAULT_TOLERANCES)
    for key, value in overrides.items():
        if key not in merged:
            raise ScenarioError(f"tolerances.{key}: unknown tolerance name")
        merged[key] = value
    resolved = {k: v * scale for k, v in merged.items()}
    for key, value in resolved.items():
        if not math.isfinite(value):
            raise ScenarioError(f"tolerances.{key}: overflows to {value} after scaling")
        if value == 0:
            raise ScenarioError(f"tolerances.{key}: underflows to 0.0 after scaling")
    for key in ("injectivity_overlap", "orthogonal_grouping"):
        if resolved[key] >= 1:
            raise ScenarioError(
                f"tolerances.{key}: an overlap tolerance must stay below 1 after "
                f"scaling, got {resolved[key]:g}"
            )
    return resolved


class RunFlags(Record):
    tolerance_scale: float
    max_n: int | None

    def __init__(self, tolerance_scale: float = 1.0, max_n: int | None = None) -> None:
        super().__init__(tolerance_scale, max_n)


class _Context(Record):
    """What the checks of one scenario run share, each built at most once.
    It has no ``__slots__``: a ``cached_property`` keeps its value in the
    instance's ``__dict__``."""

    _fields = ("scenario", "tolerances", "flags", "_bundles", "_induced")
    scenario: Scenario
    tolerances: dict[str, float]
    flags: RunFlags
    _bundles: dict[tuple[Any, ...], OperatorBundle]
    _induced: dict[tuple[Any, ...], tuple[PermutationGroup, GroupHomomorphism]]

    def __init__(self, scenario: Scenario, tolerances: dict[str, float], flags: RunFlags) -> None:
        super().__init__(scenario, tolerances, flags, {}, {})

    @cached_property
    def rep_diagnostics(self) -> RepDiagnostics:
        return self.scenario.coherent_family.rep.diagnostics()

    @cached_property
    def maximal(self) -> frozenset[ConceptualVariable]:
        """theorem1's maximal scenario variables, the finest partition included, found once."""
        family = VariableFamily(tuple(self.scenario.variables.values()), inaccessible_total=False)
        return frozenset(maximal_accessible(family))

    @cached_property
    def irreducibility(self) -> IrreducibilityDiagnostic:
        from .representations import commutant_diagnostic
        return commutant_diagnostic(self.scenario.coherent_family.rep, self.tolerances)

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
            from .representations import build_operator
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
