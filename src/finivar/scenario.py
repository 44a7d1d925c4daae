"""Scenario files: schema, validation and loading; the check types.

Scenarios are JSON, after an optional header of ``#`` comment lines: a point
space, variables, group generators (as image arrays), an optional
representation and base state, and a non-empty list of checks.  Everything is
built and checked as the file loads, every check parameter included, and
errors name the offending field.
``_CHECK_PARAMS`` declares each check type once: the handler ``runner``
calls, then its parameters.
"""

from __future__ import annotations

import json
import math
import re
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from typing import TYPE_CHECKING, Any, Callable, Iterator, NamedTuple

from . import linalg
from ._record import Record
from .groups import GroupTooLargeError, NotPermissibleError, Permutation, PermutationGroup
from .groups import PermissibilityWitness, flag_trivial_exchange, is_permissible
from .harness import ThoughtScenario, classify_thoughts
from .harness import VERDICT_ALL_DIFFERENT, VERDICT_ALL_RELATED, VERDICT_MIXED
from .harness import exhaustive_falsifier, theorem_a1_search
from .linalg import DEFAULT_TOLERANCES
from .report import STATUS_ERROR, STATUS_FAIL, STATUS_NOT_APPLICABLE, STATUS_PASS
from .spaces import ConceptualVariable, PointSpace, VariableFamily
from .subgroups import MAX_EXACT_DEGREE

# ``representations`` and ``spin`` load where a check first needs them: a
# combinatorial check builds no operator.
if TYPE_CHECKING:
    from .representations import CoherentFamily, UnitaryRep
    from .spin import SpinDirection

__all__ = ["ScenarioError", "CheckSpec", "Scenario", "loads", "load_path", "CHECK_TYPES"]


# Whole-line comments at the start of a text, each from a '#' in column 0 to its
# line break: a scenario file's header, which json does not read.
_COMMENT_HEADER = re.compile(r"(?:#[^\n\r]*(?:\r\n?|\n))*")
# A JSON string, matched whole so that its digits are passed over, or a
# number, grouped as its integer part, fraction and exponent.
_STRING_OR_NUMBER = re.compile(r'"(?:[^"\\]|\\.)*"|-?([0-9]+)(\.[0-9]+)?([eE][-+]?[0-9]+)?')
# The escape of a UTF-16 surrogate: json decodes one with no partner to a
# character that no UTF-8 report or message can write.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _unique_pairs(pairs: list[tuple[str, Any]]) -> dict:
    """A JSON object as a dict, refusing a key written twice in it, where json
    would keep the last value and drop the first without a word."""
    mapping = dict(pairs)
    if len(mapping) < len(pairs):
        raise KeyError(next(key for key, count in Counter(key for key, _ in pairs).items() if count > 1))
    return mapping


# The most points a cyclic-dft representation may have.  Its n dense n x n
# complex matrices take n^3 * 16 bytes: 4 MiB here.
MAX_CYCLIC_POINTS = 64

# The most random directions a singlet-delta check sweeps: each takes about
# 6 us to draw and check in one stacked product, so a full sweep takes about
# 60 ms and 10 MB.
MAX_DIRECTIONS = 10_000

# The fields each representation kind reads.
_REPRESENTATION_KEYS = {
    "qubit": ("kind",),
    "cyclic-dft": ("kind", "n"),
    "explicit": ("kind", "matrices"),
}


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate; message names the location."""


def _fail(path: str, message: str) -> "ScenarioError":
    return ScenarioError(f"{path}: {message}")


def _require(mapping: Any, path: str, keys: tuple[str, ...] | None = None) -> dict:
    """``mapping`` as a dict; with ``keys``, every key must be one of them."""
    if not isinstance(mapping, dict):
        raise _fail(path, f"expected a mapping, got {type(mapping).__name__}")
    for key in mapping:
        if keys is not None and key not in keys:
            raise _fail(f"{path}.{key}", f"expected one of {', '.join(keys)}")
    return mapping


@contextmanager
def _at(path: str, errors: type[Exception] = ValueError, message: str | None = None) -> Iterator[None]:
    """Refuse, naming ``path``, an error of type ``errors`` the block raises,
    saying ``message`` where given, else the error's own."""
    try:
        yield
    except errors as exc:
        raise _fail(path, str(exc) if message is None else message) from None


# A reader takes a value from the file, its path and the scenario (None for a
# field outside the checks), and returns the typed value.
def _expect(want: str, ok: Callable[[Any], bool]) -> Callable[..., Any]:
    """A reader that keeps each value ``ok`` accepts and fails on others, expecting ``want``."""

    def read(value: Any, path: str, scenario: Scenario | None) -> Any:
        if not ok(value):
            raise _fail(path, f"expected {want}")
        return value

    return read


def _integer(low: int | None = None, high: int | None = None) -> Callable[..., int]:
    """A reader of integers, never bools, from ``low`` up to ``high`` where given."""
    want = {None: "an integer", 0: "a nonnegative integer", 1: "a positive integer"}[low]
    return _expect(
        want if high is None else f"an integer from {low} to {high}",
        lambda v: type(v) is int and (low is None or v >= low) and (high is None or v <= high),
    )


_string = _expect("a nonempty string", lambda value: isinstance(value, str) and value != "")
_strings = _expect(
    "a list of strings",
    lambda value: isinstance(value, list) and all(isinstance(v, str) for v in value),
)
_nonempty_list = _expect("a nonempty list", lambda value: isinstance(value, list) and value != [])
_flag = _expect("true or false", lambda value: isinstance(value, bool))


def _require_int_list(value: Any, path: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise _fail(path, "expected a list of integers")
    return tuple(value)


def _finite_number(value: Any) -> bool:
    """An int or float that is finite as a float: never a bool, NaN or an infinity."""
    if type(value) in (int, float):
        with suppress(OverflowError):  # an int past the float range
            return math.isfinite(value)
    return False


def _parse_complex_entry(value: Any, path: str) -> complex:
    if _finite_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_finite_number, value)):
        return complex(value[0], value[1])
    raise _fail(path, "expected a number or an [re, im] pair")


def _parse_vector(value: Any, path: str) -> np.ndarray:
    import numpy as np
    entries = _nonempty_list(value, path, None)
    return np.array(
        [_parse_complex_entry(v, f"{path}[{i}]") for i, v in enumerate(entries)], dtype=complex
    )


def _parse_matrix(value: Any, path: str) -> np.ndarray:
    import numpy as np
    if not isinstance(value, list) or not value:
        raise _fail(path, "expected a nonempty list of rows")
    rows = [_parse_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    if len({len(r) for r in rows}) != 1:
        raise _fail(path, "rows must share one length")
    return np.array(rows, dtype=complex)


class CheckSpec(NamedTuple):
    """A check's type and every parameter the type declares, typed as the
    scenario loads; a parameter the file leaves out holds its default."""

    type: str
    params: dict[str, Any]

    def label(self) -> str:
        first = next(iter(self.params.values()), None)
        subject = first.name if isinstance(first, ConceptualVariable) else self.params.get("name")
        return self.type if subject is None else f"{self.type}:{subject}"


class Scenario(Record):
    __slots__ = _fields = (
        "name",
        "space",
        "variables",
        "group",
        "coherent_family",
        "checks",
        "tolerance_overrides",
        "informational",
    )
    name: str
    space: PointSpace
    variables: dict[str, ConceptualVariable]
    group: PermutationGroup | None
    coherent_family: CoherentFamily | None
    checks: tuple[CheckSpec, ...]
    tolerance_overrides: dict[str, float]
    informational: bool

    def variable(self, name: str, path: str = "checks") -> ConceptualVariable:
        if name not in self.variables:
            raise _fail(path, f"unknown variable {name!r}")
        return self.variables[name]


def _permutation(value: Any, size: int, path: str) -> Permutation:
    images = _require_int_list(value, path)
    if len(images) != size:
        raise _fail(path, f"image array has length {len(images)}, space has {size} points")
    with _at(path):
        return Permutation(images)


def _generate(raw: Any, space: PointSpace, path: str) -> PermutationGroup:
    """The group generated by the list of image arrays at ``path``."""
    if not isinstance(raw, list):
        raise _fail(path, "expected a list of image arrays")
    gens = tuple(_permutation(images, space.size, f"{path}[{i}]") for i, images in enumerate(raw))
    with _at(path, GroupTooLargeError):
        return PermutationGroup.generate(space, gens)


# Check parameters.  A reader returns the typed value the check's handler
# reads.  A default is a value, or a function of the scenario, the values read
# before it and the path.
_Params = dict[str, Any]
_VERDICTS = (VERDICT_ALL_RELATED, VERDICT_ALL_DIFFERENT, VERDICT_MIXED)


_verdict = _expect(f"one of {', '.join(_VERDICTS)}", lambda value: value in _VERDICTS)


def _variable(value: Any, path: str, scenario: Scenario) -> ConceptualVariable:
    return scenario.variable(_string(value, path, scenario), path)


def _operator_variable(value: Any, path: str, scenario: Scenario) -> ConceptualVariable:
    """A variable whose operator the check builds: its value labels are the
    eigenvalues, so they must be distinct finite numbers."""
    theta = _variable(value, path, scenario)
    with _at(path):
        theta.numeric_values()
    return theta


def _base_point(value: Any, path: str, scenario: Scenario) -> int:
    return _integer(0, scenario.space.size - 1)(value, path, scenario)


def _index(value: Any, path: str, scenario: Scenario) -> int:
    return _integer(0, scenario.coherent_family.rep.dim - 1)(value, path, scenario)


def _target(value: Any, path: str, scenario: Scenario) -> SpinDirection | ConceptualVariable:
    """Exactly one of a ``direction``, three numbers not all zero, or a ``variable``."""
    target = _require(value, path, ("direction", "variable"))
    if len(target) != 1:
        raise _fail(path, "expected exactly one of direction, variable")
    ((key, raw),) = target.items()
    if key == "variable":
        return _operator_variable(raw, f"{path}.variable", scenario)
    from .spin import SpinDirection
    direction = None
    if isinstance(raw, list) and all(map(_finite_number, raw)):
        with suppress(ValueError):  # the wrong length, or the zero vector
            direction = SpinDirection.from_vector(raw)
    if direction is None:
        raise _fail(f"{path}.direction", "expected a list of three numbers, not all zero")
    if scenario.coherent_family.rep.dim != 2:
        raise _fail(f"{path}.direction", "expected a two-dimensional representation")
    return direction


def _generators(value: Any, path: str, scenario: Scenario) -> PermutationGroup:
    return _generate(value, scenario.space, path)


def _members(value: Any, path: str, scenario: Scenario) -> tuple[ConceptualVariable, ...]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise _fail(path, "expected a list of variable names")
    if len(set(value)) != len(value):
        raise _fail(path, "expected each variable named once")
    return tuple(scenario.variable(name, path) for name in value)


def _required(scenario: Scenario, params: _Params, path: str) -> Any:
    raise _fail(path, "required parameter is missing")


def _scenario_group(scenario: Scenario, params: _Params, path: str) -> PermutationGroup:
    if scenario.group is None:
        raise _fail(path, "scenario declares no group")
    return scenario.group


def _eta(value: Any, path: str, scenario: Scenario) -> ConceptualVariable:
    """theorem1 acts with the scenario's group only to exclude a pair related by
    the coordinate swap, which needs an ``eta`` and a space with a product structure."""
    eta = _variable(value, path, scenario)
    if scenario.space.product is not None and scenario.group is None:
        raise _fail(path, "scenario declares no group")
    return eta


def _represented(scenario: Scenario, params: _Params, path: str) -> None:
    if scenario.coherent_family is None:
        raise _fail(
            f"{path}.type", "the check builds operators; the scenario declares no representation"
        )


def _represented_unless_exchange(scenario: Scenario, params: _Params, path: str) -> None:
    """theorem1 builds no operator for a pair the coordinate swap excludes; the
    verdict is kept among the check's values as ``excluded``."""
    theta, eta = params["variable"], params["eta"]
    params["excluded"] = (
        eta is not None
        and scenario.space.product is not None
        and flag_trivial_exchange(theta, eta, scenario.group)
    )
    if not params["excluded"]:
        _represented(scenario, params, path)


def _thoughts(least: int) -> Callable[..., None]:
    """A need: the family of candidate thoughts, the check's ``members`` under
    its group, kept among the check's values as ``thoughts``; it needs at
    least ``least`` members, each maximal, sharing one value count."""

    def need(scenario: Scenario, params: _Params, path: str) -> None:
        members = params["members"]
        with _at(f"{path}.members"):
            family = VariableFamily(members)  # at least one member
            if len(members) < least:
                raise ValueError(f"expected at least {least} variables, got {len(members)}")
            params["thoughts"] = ThoughtScenario(scenario.space, family, params["generators"])

    return need


# Check handlers turn a check's typed parameters into a status and its details.
# ``ctx`` is the run's ``runner._Context``: the tolerances, flags and shared objects.
_Outcome = tuple[str, dict[str, Any]]


def _status(ok: bool) -> str:
    return STATUS_PASS if ok else STATUS_FAIL


def _witness_payload(witness: PermissibilityWitness) -> dict[str, Any]:
    return {"k": witness.k, "phi1": witness.phi1, "phi2": witness.phi2}


def _handle_permissibility(ctx: Any, params: _Params) -> _Outcome:
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


def _handle_induced_group(ctx: Any, params: _Params) -> _Outcome:
    theta, group = params["variable"], params["generators"]
    try:
        induced, hom = ctx.induced(theta, group)
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


def _handle_theorem1(ctx: Any, params: _Params) -> _Outcome:
    theta, base_point = params["variable"], params["base_point"]
    details: dict[str, Any] = {"variable": theta.name}

    if params["excluded"]:
        details["excluded"] = (
            "the pair is related only through the coordinate swap; no transformation content"
        )
        return STATUS_NOT_APPLICABLE, details

    family = ctx.scenario.coherent_family
    permissibility = is_permissible(theta, ctx.scenario.group)
    details["permissible"] = permissibility.ok
    if not permissibility.ok:
        details["witness"] = _witness_payload(permissibility.witness)
        return STATUS_NOT_APPLICABLE, details

    from .representations import check_coherent_injectivity
    diag = ctx.rep_diagnostics
    details["representation"] = {
        "unitary_residual": diag.unitary_residual,
        "identity_residual": diag.identity_residual,
        "homomorphism_residual": diag.homomorphism_residual,
        "pairs_checked": diag.pairs_checked,
    }
    rep_ok = diag.ok(ctx.tolerances)

    injectivity = check_coherent_injectivity(family, ctx.tolerances)
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
        # a broken representation law is a fail, whether or not the operator can be built
        return (STATUS_ERROR if rep_ok else STATUS_FAIL), details

    nondegenerate = bundle.spectral.is_nondegenerate()
    maximal = theta in ctx.maximal
    answers = [(f"{v:.12g}", v, label) for v, label in sorted(zip(theta.numeric_values(), theta.values))]
    digits = Counter(key for key, _, _ in answers)  # values that share 12 digits are keyed in full
    details["operator"] = {
        "eigenvalues": [c.value for c in bundle.spectral.clusters],
        "multiplicities": [c.multiplicity for c in bundle.spectral.clusters],
        # The build raised unless the spectrum matches the values within
        # spectral_reconstruction and the family is injective, so both hold here.
        "spectrum_matches_values": True,
        "nondegenerate": nondegenerate,
        "maximal_in_family": maximal,
        "qa_labels": {  # the question "What is θ?" and each value's answer
            key if digits[key] == 1 else repr(value): [f"What is {theta.name}?", f"{theta.name} = {label}"]
            for key, value, label in answers
        },
    }
    maximality_law_ok = maximal == nondegenerate
    details["maximal_iff_nondegenerate"] = maximality_law_ok
    ok = rep_ok and maximality_law_ok
    return _status(ok), details


def _handle_theorem2(ctx: Any, params: _Params) -> _Outcome:
    theta, base_point = params["variable"], params["base_point"]
    family, group = ctx.scenario.coherent_family, ctx.scenario.group
    try:
        _, induced = ctx.induced(theta, group)
    except NotPermissibleError as exc:
        return STATUS_NOT_APPLICABLE, {
            "variable": theta.name,
            "reason": "theta is not permissible under the acting group",
            "witness": _witness_payload(exc.witness),
        }
    try:
        bundle = ctx.bundle(theta, base_point)
    except (ValueError, RuntimeError) as exc:  # as run_scenario words it, keeping the variable
        return STATUS_ERROR, {"variable": theta.name, "error": f"{type(exc).__name__}: {exc}"}
    from .representations import conjugation_check
    residuals = conjugation_check(family, induced, bundle)
    max_residual = max([0.0, *residuals])
    details = {
        "variable": theta.name,
        "elements_checked": len(residuals),
        "max_residual": max_residual,
        "per_element": [{"element": t, "residual": r} for t, r in zip(group.elements, residuals)],
    }
    return _status(max_residual <= ctx.tolerances["conjugation_residual"]), details


def _handle_eq1(ctx: Any, params: _Params) -> _Outcome:
    basis_var, base_point, index = params["basis"], params["base_point"], params["index"]
    basis = ctx.bundle(basis_var, base_point).spectral
    target = params["target"]
    if isinstance(target, ConceptualVariable):
        spectral = ctx.bundle(target, base_point).spectral
        target_desc: Any = {"variable": target.name}
    else:
        from .spin import spin_component_operator
        spectral = linalg.eigh(spin_component_operator(target), ctx.tolerances)
        target_desc = {"direction": [target.x, target.y, target.z]}
    from .representations import expand_in_basis
    try:
        expansion = expand_in_basis(spectral, index, basis)
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
    return _status(expansion.ok(ctx.tolerances)), details


def _handle_singlet_delta(ctx: Any, params: _Params) -> _Outcome:
    from . import spin
    directions, seed = params["directions"], params["seed"]
    state, delta = spin.singlet(), spin.delta_operator()
    clusters = linalg.eigh(delta, ctx.tolerances).clusters
    eigen_residual = linalg.max_abs(delta @ state - (-3.0) * state)
    multiplicities = [c.multiplicity for c in clusters]
    cluster_values = [c.value for c in clusters]
    degenerate = [c for c in clusters if c.multiplicity > 1]
    sweep = spin.AXES + spin.random_directions(directions, seed)
    max_anti = float(spin.anticorrelation_residuals(sweep).max())
    ok = (
        eigen_residual <= ctx.tolerances["singlet_eigen"]
        and sorted(multiplicities) == [1, 3]
        and max_anti <= ctx.tolerances["anticorrelation"]
    )
    details = {
        "singlet": state.tolist(),
        "eigenvalue_residual_at_minus_3": eigen_residual,
        "cluster_values": cluster_values,
        "cluster_multiplicities": multiplicities,
        "degenerate_value": degenerate[0].value if degenerate else None,
        "degenerate_value_note": "determined by diagonalization, not asserted a priori",
        "directions_checked": len(sweep),
        "max_anticorrelation_residual": max_anti,
    }
    return _status(ok), details


def _handle_a1_search(ctx: Any, params: _Params) -> _Outcome:
    theta, eta, all_partitions = params["theta"], params["eta"], params["all-partitions"]
    result = theorem_a1_search(params["thoughts"], theta, eta, all_partitions=all_partitions)
    details: dict[str, Any] = {
        "theta": theta.name,
        "eta": eta.name,
        "all_partitions": all_partitions,
        "reason": result.reason,
        "candidates_checked": result.candidates_checked,
    }
    return result.status, details


def _handle_a2_classify(ctx: Any, params: _Params) -> _Outcome:
    expected = params["expect-verdict"]
    result = classify_thoughts(params["thoughts"])
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


def _handle_a2_falsify(ctx: Any, params: _Params) -> _Outcome:
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
    return _status(report.mixed_with_satisfied_hypotheses == 0), details


_VARIABLE = ("variable", _variable, _required)
_OPERATOR_VARIABLE = ("variable", _operator_variable, _required)
_BASE_POINT = ("base_point", _base_point, 0)
_GROUP = ("generators", _generators, _scenario_group)  # closed into the group they generate
_MEMBERS = ("members", _members, lambda scenario, *_: tuple(scenario.variables.values()))

# Each check type's handler, then its parameters, as (key, reader, default), and
# its needs, read and judged in this order.  A need is a function of the scenario,
# the values read before it and the check's path; it may add a verdict, or an
# object built once, to those values.  A check is labelled by its first parameter
# where that is a variable, else by its ``name``.
_CHECK_PARAMS: dict[str, tuple[Any, ...]] = {
    "permissibility": (_handle_permissibility, _VARIABLE, ("expect", _flag, True), _GROUP),
    "induced-group": (_handle_induced_group, _VARIABLE, _GROUP),
    "theorem1-hypotheses": (
        _handle_theorem1,
        _OPERATOR_VARIABLE,
        _BASE_POINT,
        ("eta", _eta, None),
        _represented_unless_exchange,
    ),
    "theorem2": (_handle_theorem2, _OPERATOR_VARIABLE, _BASE_POINT, _represented),
    "eq1-expansion": (
        _handle_eq1,
        ("basis", _operator_variable, _required),
        _represented,
        ("target", _target, _required),
        ("index", _index, 0),
        _BASE_POINT,
    ),
    "singlet-delta": (
        _handle_singlet_delta,
        ("directions", _integer(0, MAX_DIRECTIONS), 100),
        ("seed", _integer(0), 7),
    ),
    "a1-search": (
        _handle_a1_search,
        ("theta", _variable, _required),
        ("eta", _variable, lambda scenario, params, path: params["theta"]),
        ("all-partitions", _flag, False),
        _MEMBERS,
        _GROUP,
        _thoughts(1),
    ),
    "a2-classify": (
        _handle_a2_classify, ("expect-verdict", _verdict, None), _MEMBERS, _GROUP, _thoughts(3)
    ),
    "a2-falsify": (_handle_a2_falsify, ("max-n", _integer(1, MAX_EXACT_DEGREE), 4)),
}
CHECK_TYPES = tuple(_CHECK_PARAMS)
_NAME = ("name", _string, None)


def _parse_check(raw: Any, path: str, scenario: Scenario) -> CheckSpec:
    params = dict(_require(raw, path))
    check_type = _string(params.pop("type", None), f"{path}.type", scenario)
    if check_type not in _CHECK_PARAMS:
        raise _fail(f"{path}.type", f"unknown check type {check_type!r}")
    declared = (*_CHECK_PARAMS[check_type][1:], _NAME)
    _require(params, path, tuple(entry[0] for entry in declared if not callable(entry)))
    values: _Params = {}
    for entry in declared:
        if callable(entry):
            entry(scenario, values, path)
            continue
        key, read, default = entry
        where = f"{path}.{key}"
        if key in params:
            values[key] = read(params[key], where, scenario)
        else:
            values[key] = default(scenario, values, where) if callable(default) else default
    return CheckSpec(check_type, values)


def _parse_space(raw: Any) -> PointSpace:
    data = _require(raw, "space", ("id", "labels", "product"))
    space_id = _string(data.get("id"), "space.id", None)
    labels = _strings(data.get("labels"), "space.labels", None)
    product = None
    if "product" in data:
        raw_product = data["product"]
        if not isinstance(raw_product, list):
            raise _fail("space.product", "expected a list of coordinate pairs")
        pairs = []
        for i, pair in enumerate(raw_product):
            coords = _require_int_list(pair, f"space.product[{i}]")
            if len(coords) != 2:
                raise _fail(f"space.product[{i}]", "expected a coordinate pair")
            pairs.append((coords[0], coords[1]))
        product = tuple(pairs)
    with _at("space"):
        return PointSpace(id=space_id, labels=tuple(labels), product=product)


def _parse_variables(raw: Any, space: PointSpace) -> dict[str, ConceptualVariable]:
    if raw is None:
        return {}
    if not isinstance(raw, list):
        raise _fail("variables", "expected a list of variable definitions")
    out: dict[str, ConceptualVariable] = {}
    for i, entry in enumerate(raw):
        path = f"variables[{i}]"
        data = _require(entry, path, ("name", "values", "assignment"))
        name = _string(data.get("name"), f"{path}.name", None)
        values = _strings(data.get("values"), f"{path}.values", None)
        assignment = _require_int_list(data.get("assignment"), f"{path}.assignment")
        if name in out:
            raise _fail(f"{path}.name", f"duplicate variable name {name!r}")
        with _at(path):
            out[name] = ConceptualVariable(
                name=name, domain=space, values=tuple(values), assignment=assignment
            )
    return out


def _representation_kind(raw: Any, space: PointSpace) -> str | None:
    """The representation's kind, with its keys and its size read before any
    group or matrix is built, or None when the scenario declares none."""
    if raw is None:
        return None
    data = _require(raw, "representation")
    kind = _string(data.get("kind"), "representation.kind", None)
    if kind not in _REPRESENTATION_KEYS:
        raise _fail("representation.kind", f"unknown kind {kind!r}")
    _require(data, "representation", _REPRESENTATION_KEYS[kind])
    if kind == "qubit" and space.size != 2:
        raise _fail("representation.kind", f"expected two points, got {space.size}")
    if kind == "cyclic-dft":
        n = _integer(1)(data.get("n"), "representation.n", None)
        if n != space.size:
            raise _fail("representation.n", f"expected the space size {space.size}, got {n}")
        if n > MAX_CYCLIC_POINTS:
            raise _fail("representation.n", f"expected at most {MAX_CYCLIC_POINTS} points, got {n}")
    return kind


def _parse_representation(
    raw: Any, kind: str | None, space: PointSpace, group: PermutationGroup | None
) -> tuple[UnitaryRep | None, tuple[int, ...]]:
    """The representation of ``kind`` on the one group the scenario's checks act
    with: the declared group, which the kind may refuse, else Z_n; and the ids of
    the elements in the order the file lists their matrices."""
    if kind is None:
        return None, ()
    from .representations import UnitaryRep, _cyclic_group, cyclic_dft_rep, qubit_rep
    if kind != "explicit":  # the kind's matrices, on the scenario's one group
        with _at("representation.kind"):  # the declared group is not the kind's
            group = _cyclic_group(kind, space, group)
        rep = qubit_rep(group) if kind == "qubit" else cyclic_dft_rep(group)
        return rep, tuple(range(group.order))
    import numpy as np
    raw_matrices = _nonempty_list(raw.get("matrices"), "representation.matrices", None)
    if group is None:
        raise _fail("representation", "scenario declares no group")
    where = "representation.matrices"
    stack, listed = None, {}  # each listed id, and the position it is listed at
    for i, entry in enumerate(raw_matrices):
        path = f"{where}[{i}]"
        item = _require(entry, path, ("element", "matrix"))
        element = _permutation(item.get("element"), space.size, f"{path}.element")
        if element not in group:
            got = list(element.images)
            raise _fail(f"{path}.element", f"expected an element of the declared group, got {got}")
        at = group.index(element)
        if at in listed:
            raise _fail(f"{path}.element", f"duplicate of {where}[{listed[at]}]")
        listed[at] = i
        matrix = _parse_matrix(item.get("matrix"), f"{path}.matrix")
        if stack is None:
            # its zeroed pages are mapped as rows are written, so memory follows the file
            with _at(where, MemoryError, f"{group.order} such matrices do not fit in memory"):
                stack = np.zeros((group.order, len(matrix), len(matrix)), dtype=complex)
        if matrix.shape != stack.shape[1:]:
            raise _fail(where, "representation matrices must share one square shape")
        stack[at] = matrix
    if len(listed) != group.order:
        missing = next(list(k.images) for at, k in enumerate(group.elements) if at not in listed)
        raise _fail(where, f"representation must cover every group element exactly; it lacks {missing}")
    return UnitaryRep(group, stack), tuple(listed)


def _place(text: str, at: int) -> str:
    """Where index ``at`` of ``text`` lies, as its line and column, each from 1."""
    line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    return f"line {line}, column {column}"


def _parse(text: str, source: str) -> Any:
    """The data of ``text``: a header of whole-line comments, then one JSON
    document.  A refusal names ``source`` and, where it can, a place in the
    text by line and column, counted over the whole text, header included."""
    start = _COMMENT_HEADER.match(text).end()
    try:
        data = json.loads(text[start:], object_pairs_hook=_unique_pairs)
    except json.JSONDecodeError as exc:
        raise _fail(
            source,
            f"invalid JSON at {_place(text, start + exc.pos)}: {exc.msg} "
            "(scenario files are JSON: 'finivar emit NAME' prints one)",
        ) from None
    except RecursionError:  # json's scanner recurses once per array or object
        raise _fail(source, "arrays and objects nest too deep to read") from None
    except KeyError as exc:  # from _unique_pairs
        raise _fail(source, f"key {exc.args[0]!r} written twice in one object") from None
    except ValueError:  # int refuses a literal past the interpreter's digit limit
        limit = sys.get_int_max_str_digits()
        at = next(
            token.start()
            for token in _STRING_OR_NUMBER.finditer(text, start)
            if token[1] and not (token[2] or token[3]) and len(token[1]) > limit
        )
        message = f"the integer at {_place(text, at)} has more than {limit} decimal digits"
        raise _fail(source, message) from None
    if _SURROGATE_ESCAPE.search(text, start):
        for token in _STRING_OR_NUMBER.finditer(text, start):
            if token[0][0] == '"' and any("\ud800" <= c <= "\udfff" for c in json.loads(token[0])):
                where = _place(text, token.start())
                raise _fail(source, f"the string at {where} holds an unpaired surrogate")
    return data


def loads(text: str, source: str = "<scenario>") -> Scenario:
    """The scenario ``text`` declares, built and checked; ``source`` names it in errors."""
    data = _require(_parse(text, source), source)
    name = _string(data.get("name"), "name", None)
    known_keys = {
        "name",
        "space",
        "variables",
        "group",
        "representation",
        "base_state",
        "checks",
        "tolerances",
        "informational",
    }
    for key in data:
        if key not in known_keys:
            raise _fail(str(key), "unknown scenario field")
    if "space" not in data:
        raise _fail("space", "scenario must declare a point space")
    space = _parse_space(data["space"])
    variables = _parse_variables(data.get("variables"), space)

    kind = _representation_kind(data.get("representation"), space)
    group = None
    if data.get("group") is not None:
        group_data = _require(data["group"], "group", ("generators",))
        group = _generate(group_data.get("generators"), space, "group.generators")

    representation, listed = _parse_representation(data.get("representation"), kind, space, group)

    coherent_family = None
    if representation is not None:
        import numpy as np  # already loaded: the representation holds arrays
        from .representations import CoherentFamily, CoherentStateError
        group = representation.group  # the declared group, or else the kind's
        if data.get("base_state") is None:  # the first basis vector
            base_state = np.eye(1, representation.dim, dtype=complex)[0]
        else:
            base_state = _parse_vector(data["base_state"], "base_state")
        try:
            coherent_family = CoherentFamily(representation, base_state)
        except CoherentStateError as exc:
            first = next(i for i, at in enumerate(listed) if at in exc.ids)
            raise _fail(
                f"representation.matrices[{first}].matrix",
                "sends base_state to a coherent state of zero or non-finite norm",
            ) from None
        except ValueError as exc:
            raise _fail("base_state", str(exc)) from None
    elif data.get("base_state") is not None:
        raise _fail("base_state", "scenario declares no representation")

    raw_checks = data.get("checks")
    if not isinstance(raw_checks, list) or not raw_checks:
        raise _fail("checks", "scenario must request at least one check")

    overrides: dict[str, float] = {}
    if data.get("tolerances") is not None:
        tol_data = _require(data["tolerances"], "tolerances")
        for key, value in tol_data.items():
            if key not in DEFAULT_TOLERANCES:
                raise _fail(f"tolerances.{key}", "unknown tolerance name")
            if not _finite_number(value) or value <= 0:
                raise _fail(f"tolerances.{key}", "expected a positive number")
            overrides[str(key)] = float(value)

    informational = _flag(data.get("informational", False), "informational", None)

    scenario = Scenario(
        name=name,
        space=space,
        variables=variables,
        group=group,
        coherent_family=coherent_family,
        checks=(),
        tolerance_overrides=overrides,
        informational=informational,
    )
    scenario.checks = tuple(
        _parse_check(entry, f"checks[{i}]", scenario) for i, entry in enumerate(raw_checks)
    )
    return scenario


def load_path(path: str) -> Scenario:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    try:
        text, bad = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:  # the text before the first bad byte, to locate it
        text, bad = data[: exc.start].decode("utf-8"), exc
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # as a text-mode read gives
    if bad is not None:
        where = _place(text, len(text))
        raise _fail(path, f"invalid UTF-8 at {where}: byte 0x{data[bad.start]:02x}: {bad.reason}")
    return loads(text, source=path)
