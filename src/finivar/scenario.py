"""Scenario files: schema, validation and loading.

Scenarios are YAML: a point space, variables, group generators (as image
arrays), an optional representation and base state (built and checked as the
file loads), and a non-empty list of checks.  Errors name the offending field.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import yaml

from .groups import Permutation, PermutationGroup
from .representations import UnitaryRep, _check_base_state, cyclic_dft_rep, qubit_rep
from .spaces import ConceptualVariable, PointSpace

__all__ = ["ScenarioError", "CheckSpec", "Scenario", "loads", "load_path", "CHECK_TYPES"]

# libyaml's parser where PyYAML has it; both loaders resolve and construct alike.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

CHECK_TYPES = (
    "permissibility",
    "induced-group",
    "theorem1-hypotheses",
    "theorem2",
    "eq1-expansion",
    "singlet-delta",
    "a1-search",
    "a2-classify",
    "a2-falsify",
)


class ScenarioError(ValueError):
    """A scenario file failed to parse or validate; message names the location."""


def _fail(path: str, message: str) -> "ScenarioError":
    return ScenarioError(f"{path}: {message}")


def _require(mapping: Any, path: str) -> dict:
    if not isinstance(mapping, dict):
        raise _fail(path, f"expected a mapping, got {type(mapping).__name__}")
    return mapping


def _require_str(value: Any, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise _fail(path, "expected a nonempty string")
    return value


def _require_int_list(value: Any, path: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(type(v) is int for v in value):
        raise _fail(path, "expected a list of integers")
    return tuple(value)


def _parse_complex_entry(value: Any, path: str) -> complex:
    if isinstance(value, (int, float)):
        return complex(value)
    if (
        isinstance(value, list)
        and len(value) == 2
        and all(isinstance(v, (int, float)) for v in value)
    ):
        return complex(value[0], value[1])
    raise _fail(path, "expected a number or an [re, im] pair")


def _parse_vector(value: Any, path: str) -> np.ndarray:
    import numpy as np
    if not isinstance(value, list) or not value:
        raise _fail(path, "expected a nonempty list")
    return np.array(
        [_parse_complex_entry(v, f"{path}[{i}]") for i, v in enumerate(value)],
        dtype=complex,
    )


def _parse_matrix(value: Any, path: str) -> np.ndarray:
    import numpy as np
    if not isinstance(value, list) or not value:
        raise _fail(path, "expected a nonempty list of rows")
    rows = [_parse_vector(row, f"{path}[{i}]") for i, row in enumerate(value)]
    if len({len(r) for r in rows}) != 1:
        raise _fail(path, "rows must share one length")
    return np.array(rows, dtype=complex)


@dataclass(frozen=True)
class CheckSpec:
    type: str
    params: dict[str, Any] = field(default_factory=dict)

    def label(self) -> str:
        for key in ("variable", "theta", "basis", "name"):
            if key in self.params:
                return f"{self.type}:{self.params[key]}"
        return self.type


@dataclass
class Scenario:
    name: str
    space: PointSpace
    variables: dict[str, ConceptualVariable]
    group: PermutationGroup | None
    representation: UnitaryRep | None
    base_state: np.ndarray | None
    checks: tuple[CheckSpec, ...]
    tolerance_overrides: dict[str, float]
    informational: bool

    def variable(self, name: str, path: str = "checks") -> ConceptualVariable:
        if name not in self.variables:
            raise _fail(path, f"unknown variable {name!r}")
        return self.variables[name]

    def require_group(self, path: str = "group") -> PermutationGroup:
        if self.group is None:
            raise _fail(path, "scenario declares no group")
        return self.group

    def group_for(self, spec_params: dict[str, Any], path: str) -> PermutationGroup:
        """The scenario group, unless the check overrides the generators."""
        if "generators" in spec_params:
            return _generate(spec_params["generators"], self.space, f"{path}.generators")
        return self.require_group(path)


def _permutation(value: Any, size: int, path: str) -> Permutation:
    images = _require_int_list(value, path)
    if len(images) != size:
        raise _fail(path, f"image array has length {len(images)}, space has {size} points")
    try:
        return Permutation(images)
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def _generate(raw: Any, space: PointSpace, path: str) -> PermutationGroup:
    """The group generated by the list of image arrays at ``path``."""
    if not isinstance(raw, list):
        raise _fail(path, "expected a list of image arrays")
    gens = tuple(_permutation(images, space.size, f"{path}[{i}]") for i, images in enumerate(raw))
    return PermutationGroup.generate(space, gens)


def _parse_space(raw: Any) -> PointSpace:
    data = _require(raw, "space")
    space_id = _require_str(data.get("id"), "space.id")
    labels = data.get("labels")
    if not isinstance(labels, list) or not all(isinstance(v, str) for v in labels):
        raise _fail("space.labels", "expected a list of strings")
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
    try:
        return PointSpace(id=space_id, labels=tuple(labels), product=product)
    except ValueError as exc:
        raise _fail("space", str(exc)) from None


def _parse_variables(raw: Any, space: PointSpace) -> dict[str, ConceptualVariable]:
    if raw is None:
        return {}
    if not isinstance(raw, list):
        raise _fail("variables", "expected a list of variable definitions")
    out: dict[str, ConceptualVariable] = {}
    for i, entry in enumerate(raw):
        path = f"variables[{i}]"
        data = _require(entry, path)
        name = _require_str(data.get("name"), f"{path}.name")
        values = data.get("values")
        if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
            raise _fail(f"{path}.values", "expected a list of strings")
        assignment = _require_int_list(data.get("assignment"), f"{path}.assignment")
        if name in out:
            raise _fail(f"{path}.name", f"duplicate variable name {name!r}")
        try:
            out[name] = ConceptualVariable(
                name=name, domain=space, values=tuple(values), assignment=assignment
            )
        except ValueError as exc:
            raise _fail(path, str(exc)) from None
    return out


def _parse_representation(
    raw: Any, space: PointSpace, group: PermutationGroup | None
) -> UnitaryRep | None:
    if raw is None:
        return None
    data = _require(raw, "representation")
    kind = _require_str(data.get("kind"), "representation.kind")
    if kind == "qubit":
        if space.size != 2:
            raise _fail("representation.kind", f"expected two points, got {space.size}")
        return qubit_rep(space)
    if kind == "cyclic-dft":
        n = data.get("n")
        if type(n) is not int or n < 1:
            raise _fail("representation.n", "expected a positive integer")
        if n != space.size:
            raise _fail("representation.n", f"expected the space size {space.size}, got {n}")
        return cyclic_dft_rep(n, space)
    if kind != "explicit":
        raise _fail("representation.kind", f"unknown kind {kind!r}")
    raw_matrices = data.get("matrices")
    if not isinstance(raw_matrices, list) or not raw_matrices:
        raise _fail("representation.matrices", "expected a nonempty list")
    if group is None:
        raise _fail("representation", "scenario declares no group")
    matrices: dict[Permutation, np.ndarray] = {}
    for i, entry in enumerate(raw_matrices):
        path = f"representation.matrices[{i}]"
        item = _require(entry, path)
        element = _permutation(item.get("element"), space.size, f"{path}.element")
        if element in matrices:
            first = list(matrices).index(element)
            raise _fail(f"{path}.element", f"duplicate of representation.matrices[{first}]")
        matrices[element] = _parse_matrix(item.get("matrix"), f"{path}.matrix")
    try:
        return UnitaryRep(group, matrices)
    except ValueError as exc:  # an element left out, or matrices of two shapes
        raise _fail("representation.matrices", str(exc)) from None


def loads(text: str, source: str = "<scenario>") -> Scenario:
    try:
        raw = yaml.load(text, Loader=_YAML_LOADER)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError(f"{source}: invalid YAML{where}: {exc}") from None
    data = _require(raw, source)
    name = _require_str(data.get("name"), "name")
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

    group = None
    if data.get("group") is not None:
        group_data = _require(data["group"], "group")
        group = _generate(group_data.get("generators"), space, "group.generators")

    representation = _parse_representation(data.get("representation"), space, group)

    base_state = None
    if data.get("base_state") is not None:
        if representation is None:
            raise _fail("base_state", "scenario declares no representation")
        base_state = _parse_vector(data["base_state"], "base_state")
    if representation is not None:
        if base_state is None:  # the first basis vector
            import numpy as np
            base_state = np.eye(1, representation.dim, dtype=complex)[0]
        try:
            _check_base_state(base_state, representation.dim)
        except ValueError as exc:
            raise _fail("base_state", str(exc)) from None

    raw_checks = data.get("checks")
    if not isinstance(raw_checks, list) or not raw_checks:
        raise _fail("checks", "scenario must request at least one check")
    checks = []
    for i, entry in enumerate(raw_checks):
        path = f"checks[{i}]"
        check_data = dict(_require(entry, path))
        check_type = _require_str(check_data.pop("type", None), f"{path}.type")
        if check_type not in CHECK_TYPES:
            raise _fail(f"{path}.type", f"unknown check type {check_type!r}")
        checks.append(CheckSpec(type=check_type, params=check_data))

    overrides: dict[str, float] = {}
    if data.get("tolerances") is not None:
        tol_data = _require(data["tolerances"], "tolerances")
        for key, value in tol_data.items():
            if not isinstance(value, (int, float)) or value <= 0:
                raise _fail(f"tolerances.{key}", "expected a positive number")
            overrides[str(key)] = float(value)

    informational = data.get("informational", False)
    if not isinstance(informational, bool):
        raise _fail("informational", "expected true or false")

    return Scenario(
        name=name,
        space=space,
        variables=variables,
        group=group,
        representation=representation,
        base_state=base_state,
        checks=tuple(checks),
        tolerance_overrides=overrides,
        informational=informational,
    )


def load_path(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    return loads(text, source=path)
