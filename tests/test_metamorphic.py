"""Metamorphic relations: verdicts must not depend on how a scenario writes
its group or names its points."""

from __future__ import annotations

import json
import random

import pytest
import yaml

from finivar import builtins as builtin_mod
from finivar.runner import RunFlags, run_scenario
from finivar.groups import Permutation
from finivar.scenario import loads
from finivar.spaces import canonical_partition, compose

from test_runner import complex_pairs
from test_scenario_cli import noting_parser, perfbench_workloads


def with_redundant_generator(text: str) -> tuple[str, int]:
    """The scenario with the square of its first group generator added, and
    the size of the new generating set S, each distinct generator once."""
    data = yaml.safe_load(text)
    generators = data["group"]["generators"]
    generators.append(list(compose(generators[0], generators[0])))
    return json.dumps(data), len({tuple(g) for g in generators})  # JSON is valid YAML


def assert_same_but_pairs(old, new, pairs: int, residual_tol: float, path: str = "report"):
    """Every value equal, except each ``pairs_checked``, which must be
    ``pairs``, and each ``homomorphism_residual``, which must stay within
    ``residual_tol``."""
    if isinstance(old, dict):
        assert list(old) == list(new), path
        for key in old:
            where = f"{path}.{key}"
            if key == "pairs_checked":
                assert new[key] == pairs, where
            elif key == "homomorphism_residual":
                assert old[key] <= residual_tol and new[key] <= residual_tol, where
            else:
                assert_same_but_pairs(old[key], new[key], pairs, residual_tol, where)
    elif isinstance(old, list):
        assert len(old) == len(new), path
        for i, (a, b) in enumerate(zip(old, new)):
            assert_same_but_pairs(a, b, pairs, residual_tol, f"{path}[{i}]")
    else:
        assert old == new, path


def operator_cases():
    workloads = perfbench_workloads()
    return {f"operators-seed-{seed}": workloads.generate("operators", seed)[0].text for seed in (1, 7)}


INPUTS = {name: builtin_mod.builtin_text(name) for name in builtin_mod.builtin_names()}
INPUTS.update(operator_cases())


class TestAnotherGeneratingSet:
    """ROADMAP item 8's second relation: a redundant generator changes only
    the number of generator rows the group laws check, |S|·|G|."""

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    @pytest.mark.parametrize("name", INPUTS)
    def test_a_redundant_generator_changes_only_the_rows_checked(self, name, scale):
        text = INPUTS[name]
        redundant, generators = with_redundant_generator(text)
        scenario = loads(text)
        flags = RunFlags(tolerance_scale=scale)
        old = json.loads(run_scenario(scenario, flags).to_json())
        new = json.loads(run_scenario(loads(redundant), flags).to_json())
        assert [c["status"] for c in new["checks"]] == [c["status"] for c in old["checks"]]
        tolerance = old["tolerances"]["rep_homomorphism"]
        assert_same_but_pairs(old, new, generators * scenario.group.order, tolerance)
        assert generators == 2


def conjugate(pi: list[int], images) -> list[int]:
    """π g π⁻¹ as an image list: it sends π(p) to π(g(p))."""
    return moved(pi, [pi[x] for x in images])


def moved(pi: list[int], per_point: list) -> list:
    """The entries of a per-point list at their new points: entry p goes to π(p)."""
    out = [None] * len(pi)
    for p, entry in enumerate(per_point):
        out[pi[p]] = entry
    return out


def relabel(text: str, pi: list[int]) -> str:
    """The scenario with every point p renamed π(p): labels and the product
    coordinates move with their points, assignments become assignment∘π⁻¹,
    generators are conjugated and base points move.  The representation is
    written out as explicit matrices keyed by the conjugated elements, listed
    in the old id order; the base state is unchanged."""
    data = yaml.safe_load(text)
    space = data["space"]
    for key in ("labels", "product"):
        if key in space:
            space[key] = moved(pi, space[key])
    for variable in data.get("variables", []):
        variable["assignment"] = moved(pi, variable["assignment"])
    for owner in (data.get("group"), *data["checks"]):
        if owner and "generators" in owner:
            owner["generators"] = [conjugate(pi, g) for g in owner["generators"]]
    for check in data["checks"]:
        if check["type"] in ("theorem1-hypotheses", "theorem2", "eq1-expansion"):
            check["base_point"] = pi[check.get("base_point", 0)]
    family = loads(text).coherent_family
    if family is not None:
        data["representation"] = {
            "kind": "explicit",
            "matrices": [
                {"element": conjugate(pi, k.images), "matrix": complex_pairs(family.rep(k))}
                for k in family.group.elements
            ],
        }
    return json.dumps(data)  # JSON is valid YAML


def seeded_relabelling(name: str, text: str) -> list[int]:
    """A seeded π other than the identity under which the conjugated elements,
    listed in the old id order, are out of the new id order, where the group
    has more than two elements."""
    scenario = loads(text)
    n, group = scenario.space.size, scenario.group
    rng = random.Random(f"relabel-{name}")
    for _ in range(100):
        pi = rng.sample(range(n), n)
        listed = [conjugate(pi, k.images) for k in (group.elements if group else ())]
        if (n == 1 or pi != sorted(pi)) and (len(listed) <= 2 or listed != sorted(listed)):
            return pi
    raise AssertionError(f"no relabelling of {name} lists its elements out of order")


class RelabelledReport:
    """Compares a report with the report of the relabelled scenario ``new``:
    equal values, except floats within ``FLOAT_TOL`` and the values that name
    a point or an element."""

    FLOAT_TOL = 1e-9

    def __init__(self, pi: list[int], new):
        self.pi, self.new = pi, new

    def assert_matches(self, old: dict, relabelled: dict) -> None:
        assert [c["status"] for c in relabelled["checks"]] == [c["status"] for c in old["checks"]]
        for key in old:
            if key != "checks":
                self.compare(old[key], relabelled[key], key)
        for i, (a, b) in enumerate(zip(old["checks"], relabelled["checks"])):
            self.spec = self.new.checks[i]
            self.compare(a, b, f"checks[{i}]")

    def compare(self, old, new, path: str) -> None:
        if isinstance(old, dict):
            assert list(old) == list(new), path
            for key in old:
                where = f"{path}.{key}"
                if key == "per_element":
                    self.per_element(old[key], new[key], where)
                elif key == "witness" and isinstance(old[key], dict):
                    self.permissibility_witness(new[key], where)
                elif key == "relations":
                    self.relations(old[key], new[key], where)
                else:
                    self.compare(old[key], new[key], where)
        elif isinstance(old, list):
            assert len(old) == len(new), path
            for i, (a, b) in enumerate(zip(old, new)):
                self.compare(a, b, f"{path}[{i}]")
        elif isinstance(old, float):
            assert isinstance(new, float) and abs(old - new) <= self.FLOAT_TOL * max(1.0, abs(old)), path
        else:
            assert old == new, path

    def group(self):
        return self.spec.params.get("generators") or self.new.group

    def per_element(self, old: list, new: list, path: str) -> None:
        """Each old element t's residual is the residual at π t π⁻¹; the new
        entries are in the new id order."""
        residuals = {tuple(e["element"]): e["residual"] for e in new}
        assert [list(k) for k in residuals] == [list(k.images) for k in self.group().elements], path
        for entry in old:
            self.compare(entry["residual"], residuals[tuple(conjugate(self.pi, entry["element"]))], path)

    def permissibility_witness(self, witness: dict, path: str) -> None:
        """k is in the group and splits two points of one value: θ(φ1) = θ(φ2)
        but θ(k(φ1)) != θ(k(φ2))."""
        theta, k = self.spec.params["variable"].assignment, witness["k"]
        assert Permutation(tuple(k)) in self.group(), path
        phi1, phi2 = witness["phi1"], witness["phi2"]
        assert theta[phi1] == theta[phi2] and theta[k[phi1]] != theta[k[phi2]], path

    def relations(self, old: list, new: list, path: str) -> None:
        """The same pairs, related exactly when they were; a witness k is the
        smallest group element in the new order with θ∘k of η's partition."""
        for i, (a, b) in enumerate(zip(old, new)):
            where = f"{path}[{i}]"
            assert list(a) == list(b) and a["pair"] == b["pair"], where
            assert a["elements_searched"] == b["elements_searched"], where
            assert (a["witness"] is None) == (b["witness"] is None), where
            if b["witness"] is not None:
                theta, eta = (self.new.variables[name] for name in b["pair"])
                relating = [
                    list(k.images) for k in self.group().elements
                    if canonical_partition(compose(theta.assignment, k.images)) == eta.partition()
                ]
                assert b["witness"] == relating[0], where


class TestRelabelledPoints:
    """ROADMAP item 8's first relation: renaming the points by π changes no
    verdict, no count and, within rounding, no residual or spectrum."""

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    @pytest.mark.parametrize("name", INPUTS)
    def test_renamed_points_keep_every_verdict(self, name, scale):
        text = INPUTS[name]
        pi = seeded_relabelling(name, text)
        relabelled = loads(relabel(text, pi))
        flags = RunFlags(tolerance_scale=scale)
        old = json.loads(run_scenario(loads(text), flags).to_json())
        new = json.loads(run_scenario(relabelled, flags).to_json())
        RelabelledReport(pi, relabelled).assert_matches(old, new)


# The parameters through which each operator check reads a variable, whose
# value labels are then the operator's eigenvalues.
OPERATOR_PARAMS = {
    "theorem1-hypotheses": ("variable",),
    "theorem2": ("variable",),
    "eq1-expansion": ("basis", "target"),
}


def with_renamed_values(text: str) -> tuple[str, list[str]]:
    """The scenario with the value labels of each variable that no operator
    check reads renamed to non-numeric ones, and the names of those variables."""
    data = yaml.safe_load(text)
    read = set()
    for check in data["checks"]:
        for key in OPERATOR_PARAMS.get(check["type"], ()):
            value = check.get(key)
            read.add(value.get("variable") if isinstance(value, dict) else value)
    renamed = [v for v in data.get("variables", []) if v["name"] not in read]
    for variable in renamed:
        variable["values"] = [f"answer-{i}" for i in range(len(variable["values"]))]
    return json.dumps(data), [v["name"] for v in renamed]


RENAMABLE = [
    name for name in builtin_mod.builtin_names()
    if with_renamed_values(builtin_mod.builtin_text(name))[1]
]


class TestRenamedValueLabels:
    """ROADMAP item 9's third relation: only an operator reads value labels,
    as its eigenvalues.  Renaming the labels of every other variable to
    non-numeric ones changes no byte of the report."""

    def test_four_built_ins_have_a_variable_to_rename(self):
        # qubit and cyclic-4 build an operator from each of their variables.
        assert RENAMABLE == ["singlet", "parity-z4", "a2-smoke", "rotation-sign-probe"]

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    @pytest.mark.parametrize("name", RENAMABLE)
    def test_renamed_value_labels_keep_the_report_bytes(self, name, scale):
        text = builtin_mod.builtin_text(name)
        renamed, names = with_renamed_values(text)
        scenario = loads(renamed)
        for variable in names:
            with pytest.raises(ValueError, match="must be numeric"):
                scenario.variables[variable].numeric_values()
        flags = RunFlags(tolerance_scale=scale)
        old = run_scenario(loads(text), flags).to_json()
        assert run_scenario(scenario, flags).to_json() == old


class TestYamlOrJson:
    """ROADMAP item 9's fourth relation: json's scanner reads a JSON text and
    PyYAML every other, so spelling a scenario in YAML or in JSON changes no
    byte of its report.  Each input, the built-ins' commented JSON included,
    is written again as block YAML."""

    @pytest.mark.parametrize("scale", [1.0, 1e-6])
    @pytest.mark.parametrize("name", INPUTS)
    def test_the_other_spelling_keeps_the_report_bytes(self, name, scale):
        text = INPUTS[name]
        other = yaml.safe_dump(yaml.safe_load(text), sort_keys=False)
        scenario, by_yaml = noting_parser(loads, text)
        respelled, other_by_yaml = noting_parser(loads, other)
        assert (by_yaml, other_by_yaml) == (False, True)
        flags = RunFlags(tolerance_scale=scale)
        assert run_scenario(respelled, flags).to_json() == run_scenario(scenario, flags).to_json()
