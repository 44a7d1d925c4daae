"""Metamorphic relations: verdicts must not depend on how a scenario writes its group."""

from __future__ import annotations

import json

import pytest
import yaml

from finivar import builtins as builtin_mod
from finivar.runner import RunFlags, run_scenario
from finivar.scenario import loads
from finivar.spaces import compose

from test_scenario_cli import perfbench_workloads


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
