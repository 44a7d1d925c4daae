"""Execute a scenario's checks and assemble the verification report.

Each handler turns one check's parameters, read and typed when the scenario
loaded, into a status, residuals and witnesses; ``run_scenario`` wraps them in
the check's record.  Tolerances resolve from ``linalg.DEFAULT_TOLERANCES``,
scenario overrides, then a global scale factor; the resolved table is embedded
in every report.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable

from . import linalg, spin
from .groups import (
    NotPermissibleError,
    PermissibilityWitness,
    flag_trivial_exchange,
    induced_group,
    is_permissible,
)
from .harness import (
    VERDICT_MIXED,
    ThoughtScenario,
    classify_thoughts,
    exhaustive_falsifier,
    theorem_a1_search,
)
from .linalg import DEFAULT_TOLERANCES
from .report import (
    STATUS_ERROR,
    STATUS_FAIL,
    STATUS_INFORMATIONAL,
    STATUS_NOT_APPLICABLE,
    STATUS_PASS,
    CheckRecord,
    VerificationReport,
)
from .representations import (
    CoherentFamily,
    IrreducibilityDiagnostic,
    OperatorBundle,
    OperatorTolerances,
    RepDiagnostics,
    _relabelling_residuals,
    build_operator,
    bundle_from_matrix,
    check_coherent_injectivity,
    commutant_diagnostic,
    expand_in_basis,
)
from .scenario import Scenario, ScenarioError
from .spaces import ConceptualVariable, VariableFamily, maximal_accessible
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

    def tol(self, name: str) -> float:
        return self.tolerances[name]

    @property
    def coherent_family(self) -> CoherentFamily:
        if self.scenario.coherent_family is None:
            raise ScenarioError("representation: scenario declares no representation")
        return self.scenario.coherent_family

    @cached_property
    def operator_tolerances(self) -> OperatorTolerances:
        return OperatorTolerances.from_table(self.tolerances)

    @cached_property
    def rep_diagnostics(self) -> RepDiagnostics:
        return self.coherent_family.rep.diagnostics()

    @cached_property
    def irreducibility(self) -> IrreducibilityDiagnostic:
        return commutant_diagnostic(self.coherent_family.rep, self.tol("commutant"))

    def bundle(self, theta: ConceptualVariable, base_point: int) -> OperatorBundle:
        """Theta's operator over the scenario's coherent family.

        Keyed by name, labels and assignment: variables compare equal by
        partition alone, and relabeled values give a different operator.
        """
        key = (theta.name, theta.values, theta.assignment, base_point)
        if key not in self._bundles:
            self._bundles[key] = build_operator(
                theta, self.coherent_family, base_point, self.operator_tolerances
            )
        return self._bundles[key]


_Params = dict[str, Any]
_Outcome = tuple[str, dict[str, Any]]


def _status(ok: bool) -> str:
    return STATUS_PASS if ok else STATUS_FAIL


def _witness_payload(witness: PermissibilityWitness) -> dict[str, Any]:
    return {"k": witness.k, "phi1": witness.phi1, "phi2": witness.phi2}


def _thought(ctx: _Context, params: _Params) -> ThoughtScenario:
    """The family of candidate thoughts: the named members, or every scenario variable."""
    return ThoughtScenario(
        ctx.scenario.space, VariableFamily(params["members"]), params["generators"]
    )


def _handle_permissibility(ctx: _Context, params: _Params) -> _Outcome:
    theta, group, expect = params["variable"], params["generators"], params["expect"]
    result = is_permissible(theta, group)
    details: dict[str, Any] = {
        "variable": theta.name,
        "group_order": group.order,
        "permissible": result.ok,
        "expected": expect,
    }
    if result.witness is not None:
        details["witness"] = _witness_payload(result.witness)
    return _status(result.ok == expect), details


def _handle_induced_group(ctx: _Context, params: _Params) -> _Outcome:
    theta, group = params["variable"], params["generators"]
    try:
        induced, hom = induced_group(theta, group)
    except NotPermissibleError as exc:
        return STATUS_ERROR, {
            "variable": theta.name,
            "error": str(exc),
            "witness": _witness_payload(exc.witness),
        }
    verified = hom.verify()
    source_transitive = group.is_transitive()
    induced_transitive = induced.is_transitive()
    propagation_ok = induced_transitive if source_transitive else True
    details = {
        "variable": theta.name,
        "source_order": group.order,
        "induced_order": induced.order,
        "induced_elements": list(induced.elements),
        "homomorphism_verified": verified,
        "source_transitive": source_transitive,
        "induced_transitive": induced_transitive,
        "transitivity_propagated": propagation_ok,
    }
    return _status(verified and propagation_ok), details


def _handle_theorem1(ctx: _Context, params: _Params) -> _Outcome:
    theta, base_point, eta = params["variable"], params["base_point"], params["eta"]
    details: dict[str, Any] = {"variable": theta.name}

    if eta is not None and ctx.scenario.space.product is not None:
        if flag_trivial_exchange(theta, eta, params["generators"]):
            details["excluded"] = (
                "the pair is related only through the coordinate swap; no "
                "transformation content"
            )
            return STATUS_NOT_APPLICABLE, details

    family = ctx.coherent_family
    group = family.group
    permissibility = is_permissible(theta, group)
    details["permissible"] = permissibility.ok
    if not permissibility.ok:
        details["witness"] = _witness_payload(permissibility.witness)
        return STATUS_NOT_APPLICABLE, details

    diag = ctx.rep_diagnostics
    details["representation"] = {
        "unitary_residual": diag.unitary_residual,
        "identity_residual": diag.identity_residual,
        "homomorphism_residual": diag.homomorphism_residual,
        "pairs_checked": diag.pairs_checked,
    }
    rep_ok = diag.ok(ctx.tol("unitary"), ctx.tol("rep_homomorphism"))

    injectivity = check_coherent_injectivity(
        family, ctx.tol("injectivity_distance"), ctx.tol("injectivity_overlap")
    )
    details["coherent_injectivity"] = {
        "ok": injectivity.ok,
        "min_distance": injectivity.min_distance,
        "max_overlap": injectivity.max_overlap,
    }

    # The character norm counts a commutant only for a (ray) representation.
    irr = ctx.irreducibility if rep_ok else None
    if irr is None:
        note = "not computed: the matrices fail the representation diagnostics"
    elif irr.commutant_dimension is None:
        note = f"not computed: the character norm {irr.character_norm!r} misses an integer"
    else:
        note = "diagnostic only; the construction does not require irreducibility"
    details["irreducibility"] = {
        "commutant_dimension": irr and irr.commutant_dimension,
        "irreducible": irr and irr.irreducible,
        "note": note,
    }

    try:
        bundle = ctx.bundle(theta, base_point)
    except (ValueError, RuntimeError) as exc:  # RuntimeError: the spectrum check failed
        details["error"] = str(exc)
        return STATUS_ERROR, details

    nondegenerate = bundle.is_nondegenerate()
    # Here the point space is the maximal variable's own value space, so the
    # finest partition is legitimately accessible.
    scenario_family = VariableFamily(
        tuple(ctx.scenario.variables.values()), inaccessible_total=False
    )
    maximal = theta in set(maximal_accessible(scenario_family))
    details["operator"] = {
        "eigenvalues": [c.value for c in bundle.spectral.clusters],
        "multiplicities": [c.multiplicity for c in bundle.spectral.clusters],
        # The build raised unless the spectrum matches the values within
        # spectral_reconstruction and the family is injective, so both hold here.
        "spectrum_matches_values": True,
        "nondegenerate": nondegenerate,
        "maximal_in_family": maximal,
        "qa_labels": {
            f"{value:.12g}": [qa.question, qa.answer]
            for value, qa in sorted(bundle.qa_labels.items())
        },
    }
    maximality_law_ok = maximal == nondegenerate
    details["maximal_iff_nondegenerate"] = maximality_law_ok
    ok = rep_ok and maximality_law_ok
    return _status(ok), details


def _handle_theorem2(ctx: _Context, params: _Params) -> _Outcome:
    theta, base_point = params["variable"], params["base_point"]
    family = ctx.coherent_family
    try:
        _, induced = induced_group(theta, family.group)
    except NotPermissibleError as exc:
        return STATUS_NOT_APPLICABLE, {
            "variable": theta.name,
            "reason": "theta is not permissible under the acting group",
            "witness": _witness_payload(exc.witness),
        }
    elements = family.group.elements
    bundle = ctx.bundle(theta, base_point)
    residuals = _relabelling_residuals(family, elements, induced.mapping, bundle)
    max_residual = max([0.0, *residuals])
    details = {
        "variable": theta.name,
        "elements_checked": len(residuals),
        "max_residual": max_residual,
        "per_element": [{"element": t, "residual": r} for t, r in zip(elements, residuals)],
    }
    return _status(max_residual <= ctx.tol("conjugation_residual")), details


def _handle_eq1(ctx: _Context, params: _Params) -> _Outcome:
    basis_var, base_point, index = params["basis"], params["base_point"], params["index"]
    basis_bundle = ctx.bundle(basis_var, base_point)
    target = params["target"]
    if isinstance(target, spin.SpinDirection):
        target_bundle = bundle_from_matrix(
            f"spin({target.x:.6g},{target.y:.6g},{target.z:.6g})",
            spin.spin_component_operator(target),
            ctx.tol("hermitian"),
            ctx.tol("eigen_cluster_gap"),
        )
        target_desc: Any = {"direction": [target.x, target.y, target.z]}
    else:
        target_bundle = ctx.bundle(target, base_point)
        target_desc = {"variable": target.name}
    try:
        expansion = expand_in_basis(target_bundle, index, basis_bundle)
    except ValueError as exc:  # a DegenerateBasisError among them
        return STATUS_ERROR, {"basis": basis_var.name, "target": target_desc, "error": str(exc)}
    details = {
        "basis": basis_var.name,
        "target": target_desc,
        "eigenvector_index": index,
        "amplitudes": list(expansion.amplitudes),
        "reconstruction_error": expansion.reconstruction_error,
        "weight_sum": expansion.weight_sum,
    }
    ok = expansion.ok(ctx.tol("expansion_reconstruction"), ctx.tol("expansion_weight"))
    return _status(ok), details


def _handle_singlet_delta(ctx: _Context, params: _Params) -> _Outcome:
    directions, seed = params["directions"], params["seed"]
    state = spin.singlet()
    bundle = spin.delta_operator(ctx.tol("hermitian"), ctx.tol("eigen_cluster_gap"))
    eigen_residual = linalg.max_abs(bundle.operator @ state - (-3.0) * state)
    multiplicities = [c.multiplicity for c in bundle.spectral.clusters]
    cluster_values = [c.value for c in bundle.spectral.clusters]
    degenerate = [c for c in bundle.spectral.clusters if c.multiplicity > 1]
    sweep = spin.AXES + spin.random_directions(directions, seed)
    max_anti = max(spin.anticorrelation_residual(d) for d in sweep)
    ok = (
        eigen_residual <= ctx.tol("singlet_eigen")
        and sorted(multiplicities) == [1, 3]
        and max_anti <= ctx.tol("anticorrelation")
    )
    details = {
        "singlet": list(state),
        "eigenvalue_residual_at_minus_3": eigen_residual,
        "cluster_values": cluster_values,
        "cluster_multiplicities": multiplicities,
        "degenerate_value": degenerate[0].value if degenerate else None,
        "degenerate_value_note": "determined by diagonalization, not asserted a priori",
        "directions_checked": len(sweep),
        "max_anticorrelation_residual": max_anti,
    }
    return _status(ok), details


def _handle_a1_search(ctx: _Context, params: _Params) -> _Outcome:
    theta, eta, all_partitions = params["theta"], params["eta"], params["all-partitions"]
    result = theorem_a1_search(_thought(ctx, params), theta, eta, all_partitions=all_partitions)
    details: dict[str, Any] = {
        "theta": theta.name,
        "eta": eta.name,
        "all_partitions": all_partitions,
        "reason": result.reason,
        "candidates_checked": result.candidates_checked,
    }
    if result.witness_partition is not None:
        details["witness_partition"] = list(result.witness_partition)
        details["witness_element"] = result.witness_element
    return result.status, details


def _handle_a2_classify(ctx: _Context, params: _Params) -> _Outcome:
    expected = params["expect-verdict"]
    result = classify_thoughts(_thought(ctx, params))
    hypotheses = result.hypotheses
    details = {
        "classes": [list(c) for c in result.classes],
        "verdict": result.verdict,
        "relations": [
            {"pair": [r.left, r.right], "witness": r.witness, "elements_searched": r.searched}
            for r in result.relations
        ],
        "hypotheses": {
            "transitive": hypotheses.transitive,
            "trivial_isotropy": hypotheses.trivial_isotropy,
            "permissible": dict(hypotheses.permissible),
            "trivial_exchange_flagged": hypotheses.trivial_exchange_flagged,
            "satisfied": hypotheses.satisfied,
        },
    }
    ok = not (result.verdict == VERDICT_MIXED and hypotheses.satisfied)
    if expected is not None:
        details["expected_verdict"] = expected
        ok = ok and (result.verdict == expected)
    return _status(ok), details


def _handle_a2_falsify(ctx: _Context, params: _Params) -> _Outcome:
    # The --max-n flag takes precedence over the check's own bound.
    max_n = params["max-n"] if ctx.flags.max_n is None else ctx.flags.max_n
    report = exhaustive_falsifier(max_n)
    details = {
        "max_n": report.max_n,
        "instances": report.instances,
        "families": report.families,
        "verdicts": {k: v for k, v in report.verdict_counts},
        "subgroup_classes_by_degree": {
            str(n): count for n, count in report.subgroup_classes_by_degree
        },
        "mixed_with_satisfied_hypotheses": report.mixed_with_satisfied_hypotheses,
        "complete": report.complete,
    }
    if report.counterexamples:
        details["counterexamples"] = [
            {
                "n": c.n,
                "blocks": c.blocks,
                "family": [list(p) for p in c.family],
                "group": [list(g) for g in c.group_elements],
                "classes": [list(names) for names in c.classes],
            }
            for c in report.counterexamples
        ]
    return _status(report.mixed_with_satisfied_hypotheses == 0), details


_HANDLERS: dict[str, Callable[[_Context, _Params], _Outcome]] = {
    "permissibility": _handle_permissibility,
    "induced-group": _handle_induced_group,
    "theorem1-hypotheses": _handle_theorem1,
    "theorem2": _handle_theorem2,
    "eq1-expansion": _handle_eq1,
    "singlet-delta": _handle_singlet_delta,
    "a1-search": _handle_a1_search,
    "a2-classify": _handle_a2_classify,
    "a2-falsify": _handle_a2_falsify,
}


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
        except ScenarioError:
            raise
        except Exception as exc:  # pragma: no cover - surfaced, not silenced
            status, details = STATUS_ERROR, {"error": f"{type(exc).__name__}: {exc}"}
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        if scenario.informational and status != STATUS_ERROR:
            details["underlying_status"] = status
            status = STATUS_INFORMATIONAL
        report.add(CheckRecord(spec.label(), spec.type, status, details, elapsed_ms))
    return report
