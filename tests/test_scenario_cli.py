"""Scenario parsing, report serialization, built-ins, and the command line."""

from __future__ import annotations

import ast
import contextlib
import gc
import importlib.util
import io
import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import CliRunner, cyclic_group, scenario_text
from hypothesis import given, settings
from hypothesis import strategies as st

from finivar import builtins as builtin_mod
from finivar import cli as cli_mod
from finivar import harness as harness_mod
from finivar import representations as representations_mod
from finivar import runner as runner_mod
from finivar import scenario as scenario_mod
from finivar.cli import main
from finivar.groups import DEFAULT_CLOSURE_CAP, Permutation, PermutationGroup
from finivar.report import (
    STATUS_FAIL,
    STATUS_NOT_APPLICABLE,
    STATUS_PASS,
    CheckRecord,
    VerificationReport,
)
from finivar.representations import cyclic_dft_rep, qubit_rep
from finivar.runner import run_scenario
from finivar.scenario import CHECK_TYPES, ScenarioError, load_path, loads

from test_runner import builtin_data, cycle24_text, explicit_cases

MINIMAL_DATA = {
    "name": "tiny",
    "space": {"id": "pair", "labels": ["a", "b"]},
    "variables": [{"name": "which", "values": ["first", "second"], "assignment": [0, 1]}],
    "group": {"generators": [[1, 0]]},
    "checks": [{"type": "permissibility", "variable": "which"}],
}
MINIMAL = scenario_text(MINIMAL_DATA)
WHICH = MINIMAL_DATA["checks"][0]


def minimal(**fields) -> str:
    """MINIMAL with ``fields`` set at its top level."""
    return scenario_text(MINIMAL_DATA, **fields)


def bare(id: str, labels: list, product: list | None = None, check: str = "theorem2") -> str:
    """A scenario named x on the space ``id`` with ``labels`` and, where
    given, ``product``, running one check of type ``check``."""
    space = {"id": id, "labels": labels, **({} if product is None else {"product": product})}
    return scenario_text({"name": "x", "space": space, "checks": [{"type": check}]})


def without(text: str, *keys: str) -> str:
    """The scenario ``text`` with its top-level ``keys`` left out."""
    data = json.loads(text)
    for key in keys:
        del data[key]
    return scenario_text(data)


def expect_error(text: str, fragment: str):
    with pytest.raises(ScenarioError, match=fragment):
        loads(text)


class TestLoads:
    def test_minimal_scenario(self):
        scenario = loads(MINIMAL)
        assert scenario.name == "tiny"
        assert scenario.space.size == 2
        assert set(scenario.variables) == {"which"}
        assert scenario.group.order == 2
        assert scenario.checks[0].type == "permissibility"
        assert scenario.checks[0].params == {
            "variable": scenario.variables["which"],
            "expect": True,
            "generators": scenario.group,
            "name": None,
        }
        assert not scenario.informational

    def test_invalid_json_names_location(self):
        with pytest.raises(ScenarioError, match="invalid JSON at line 1, column 11: Expecting value"):
            loads('{"name": [unclosed')

    def test_non_mapping_document(self):
        expect_error('["just", "a", "list"]', "expected a mapping")

    def test_unknown_field(self):
        expect_error(minimal(banana=1), "banana: unknown scenario field")

    def test_missing_name(self):
        expect_error(without(bare("s", ["a", "b"]), "name"), "name: expected a nonempty string")

    def test_missing_space(self):
        expect_error(without(bare("s", ["a", "b"]), "space"), "space: scenario must declare a point space")

    def test_space_labels_must_be_strings(self):
        expect_error(bare("s", [1, 2]), "space.labels: expected a list of strings")

    def test_space_errors_carry_path(self):
        expect_error(bare("s", ["a", "a"]), "space: ")

    def test_product_coordinate_pairs(self):
        text = bare("grid", ["00", "01", "10", "11"], [[0, 0], [0, 1], [1, 0], [1, 1]], check="singlet-delta")
        scenario = loads(text)
        assert scenario.space.product == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_product_pair_shape_enforced(self):
        expect_error(
            bare("s", ["a", "b"], [[0, 0, 0], [0, 1]]),
            r"space.product\[0\]: expected a coordinate pair",
        )

    def test_variable_errors_carry_index(self):
        expect_error(
            MINIMAL.replace('"assignment": [0, 1]', '"assignment": [0, 7]'),
            r"variables\[0\]",
        )

    def test_duplicate_variable_names(self):
        twice = [*MINIMAL_DATA["variables"], {"name": "which", "values": ["x", "y"], "assignment": [1, 0]}]
        expect_error(minimal(variables=twice), "duplicate variable name")

    def test_generator_length_checked(self):
        expect_error(
            MINIMAL.replace("[1, 0]", "[1, 0, 2]"),
            r"group.generators\[0\]: image array has length 3, space has 2 points",
        )

    def test_generators_must_be_list(self):
        expect_error(
            minimal(group={"generators": 5}),
            "group.generators: expected a list of image arrays",
        )

    def test_checks_required(self):
        expect_error(
            without(MINIMAL, "checks"),
            "checks: scenario must request at least one check",
        )

    def test_unknown_check_type(self):
        expect_error(
            MINIMAL.replace('"type": "permissibility"', '"type": "sorcery"'),
            "unknown check type 'sorcery'",
        )

    def test_known_check_types_are_stable(self):
        assert CHECK_TYPES == (
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

    def test_tolerances_must_be_positive(self):
        expect_error(
            minimal(tolerances={"hermitian": -1}),
            "tolerances.hermitian: expected a positive number$",
        )

    def test_unknown_tolerance_name_is_refused_when_loading(self):
        expect_error(
            minimal(tolerances={"hermitain": 1.0e-9}),
            "tolerances.hermitain: unknown tolerance name",
        )

    def test_an_exponent_without_a_dot_is_a_number(self):
        """json reads ``1e-9`` as a float, and the report's table shows the tolerance applied."""
        text = minimal(tolerances={"unitary": "TOLERANCE"}).replace('"TOLERANCE"', "1e-9")
        assert '"unitary": 1e-9}' in text
        scenario = loads(text)
        assert scenario.tolerance_overrides == {"unitary": 1e-9}
        assert '"unitary": 1e-09' in run_scenario(scenario).to_json()

    def test_tolerance_overrides_parsed(self):
        scenario = loads(minimal(tolerances={"hermitian": 0.5}))
        assert scenario.tolerance_overrides == {"hermitian": 0.5}

    def test_base_state_real_and_complex_entries(self):
        scenario = loads(minimal(representation={"kind": "qubit"}, base_state=[1, [0, 1]]))
        assert np.allclose(scenario.coherent_family.base, np.array([1.0, 1.0j]))

    def test_base_state_entry_validation(self):
        expect_error(
            minimal(representation={"kind": "qubit"}, base_state=[1, [0, 1, 2]]),
            r"base_state\[1\]: expected a number or an \[re, im\] pair",
        )

    def test_representation_kinds(self):
        flip = Permutation((1, 0))
        qubit = loads(minimal(representation={"kind": "qubit"})).coherent_family.rep
        assert np.array_equal(qubit(flip), qubit_rep(cyclic_group(2))(flip))
        cyclic = loads(minimal(representation={"kind": "cyclic-dft", "n": 2})).coherent_family.rep
        assert np.array_equal(cyclic(flip), cyclic_dft_rep(cyclic_group(2))(flip))

    @pytest.mark.parametrize("declared", [True, False], ids=["group", "no-group"])
    @pytest.mark.parametrize("kind, n", [("qubit", 2), ("cyclic-dft", 5)])
    def test_a_built_in_kind_decides_its_group_in_one_call(self, monkeypatch, kind, n, declared):
        calls, decide = [], representations_mod._cyclic_group
        monkeypatch.setattr(representations_mod, "_cyclic_group", lambda *args: calls.append(args) or decide(*args))
        data = {
            "name": kind,
            "space": {"id": "circle", "labels": [str(j) for j in range(n)]},
            "representation": {"kind": kind, **({"n": n} if kind == "cyclic-dft" else {})},
            "checks": [{"type": "a2-falsify"}],
        }
        if declared:
            data["group"] = {"generators": [[(j + 1) % n for j in range(n)]]}
        rep = loads(json.dumps(data)).coherent_family.rep
        assert len(calls) == 1
        assert [k.images for k in rep.group.elements] == [k.images for k in cyclic_group(n).elements]

    def test_representation_unknown_kind(self):
        expect_error(
            minimal(representation={"kind": "spooky"}),
            "representation.kind: unknown kind 'spooky'",
        )

    def test_representation_cyclic_needs_n(self):
        expect_error(
            minimal(representation={"kind": "cyclic-dft"}),
            "representation.n: expected a positive integer",
        )

    def test_representation_n_must_match_the_space(self):
        expect_error(
            minimal(representation={"kind": "cyclic-dft", "n": 5}),
            "representation.n: expected the space size 2, got 5",
        )

    def test_cyclic_dft_size_guard(self):
        bound = scenario_mod.MAX_CYCLIC_POINTS
        assert bound >= 32  # the operator workload's and the tests' sizes load
        assert loads(cyclic_text(bound)).coherent_family.rep.dim == bound
        expect_error(
            cyclic_text(bound + 1),
            f"representation.n: expected at most {bound} points, got {bound + 1}",
        )

    def test_singlet_delta_directions_past_the_bound_are_refused_at_load(self):
        """At 10**9 directions the sweep would run for hours; the loader refuses
        any count past ``MAX_DIRECTIONS`` and names the field.  Only loaded here,
        never run."""
        bound = scenario_mod.MAX_DIRECTIONS
        assert bound >= 100  # the default sweep loads

        def text(directions):
            return cycle4({**CHECKS["singlet-delta"], "directions": directions})

        assert loads(text(bound)).checks[0].params["directions"] == bound
        for value in (bound + 1, 10**9):
            expect_error(text(value), rf"checks\[0\]\.directions: expected an integer from 0 to {bound}")

    def test_cyclic_dft_past_the_bound_is_refused_before_any_group(self, monkeypatch):
        # Its n^2 shift table alone would hold 4e8 entries, its matrices 128 TB.
        def forbidden(*args, **kwargs):
            raise AssertionError("built a group or a representation past the bound")

        monkeypatch.setattr(PermutationGroup, "generate", forbidden)
        monkeypatch.setattr("finivar.representations.cyclic_dft_rep", forbidden)
        text = cyclic_text(20_000)
        tracemalloc.start()
        try:
            started = time.perf_counter()
            with pytest.raises(ScenarioError, match="representation.n: expected at most"):
                loads(text)
            elapsed = time.perf_counter() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 10.0
        # Parsing the file's 40,000 numbers and labels takes about 16 MB; the
        # shift table alone would take gigabytes.
        assert peak < 100 * len(text)

    def test_a_group_past_the_closure_cap_is_refused_cheaply(self):
        # Z_20000 holds 4e8 image entries; the cap stops its closure at 1e6.
        text = shift_text(20_000)
        message = f"group.generators: group closure exceeded the cap of {DEFAULT_CLOSURE_CAP} image"
        started = time.perf_counter()
        with pytest.raises(ScenarioError, match=message):
            loads(text)
        assert time.perf_counter() - started < 1.0
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioError, match=message):
                loads(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # Parsing the file's 40,000 numbers and labels takes about 16 MB; the
        # closure stops at 50 elements, 8 MB of image entries.
        assert peak < 100 * len(text)

    def test_generators_of_a_check_past_the_cap_name_their_path(self):
        n = 2_000  # Z_2000 holds 4e6 image entries
        data = {
            "name": "shift",
            "space": {"id": "shift", "labels": [str(j) for j in range(n)]},
            "variables": [{"name": "one", "values": ["x"], "assignment": [0] * n}],
            "checks": [
                {"type": "permissibility", "variable": "one", "generators": []},
                {"type": "permissibility", "variable": "one", "generators": [[*range(1, n), 0]]},
            ],
        }
        expect_error(json.dumps(data), r"checks\[1\]\.generators: group closure exceeded the cap")

    def test_explicit_representation_round_trip(self):
        matrices = [
            {"element": [0, 1], "matrix": [[1, 0], [0, 1]]},
            {"element": [1, 0], "matrix": [[0, 1], [1, 0]]},
        ]
        rep = loads(minimal(representation={"kind": "explicit", "matrices": matrices})).coherent_family.rep
        assert np.allclose(rep(Permutation((1, 0))), np.array([[0, 1], [1, 0]]))

    def test_explicit_representation_must_cover_group(self):
        matrices = [{"element": [0, 1], "matrix": [[1, 0], [0, 1]]}]
        with pytest.raises(ScenarioError, match="every group element"):
            loads(minimal(representation={"kind": "explicit", "matrices": matrices}))

    def test_explicit_representation_names_the_first_unlisted_element(self):
        # Z4's ids follow its sorted elements, so [1, 2, 3, 0] (id 1) is unlisted before [3, 0, 1, 2]
        expect_error(
            explicit_cycle4([Z4[2], Z4[0]]),
            r"representation\.matrices: representation must cover every group element exactly; "
            r"it lacks \[1, 2, 3, 0\]$",
        )

    def test_explicit_matrices_too_many_for_memory_exit_two(self):
        """The loader writes each listed matrix into a stack sized by the first
        one.  On S8 one 300 x 300 matrix asks for a 54 GiB stack: the refusal
        names the field, whether the allocation fails or the missing matrices do."""
        zeros = [[0] * 300] * 300
        data = {
            "name": "s8",
            "space": {"id": "s8", "labels": list("abcdefgh")},
            "group": {"generators": [[1, 0, 2, 3, 4, 5, 6, 7], [1, 2, 3, 4, 5, 6, 7, 0]]},
            "representation": {"kind": "explicit", "matrices": [{"element": list(range(8)), "matrix": zeros}]},
            "checks": [{"type": "a2-falsify"}],
        }
        text = scenario_text(data)
        expect_error(
            text,
            r"representation\.matrices: "
            r"(40320 such matrices do not fit in memory|representation must cover every group element)",
        )

    def test_operator_check_requires_a_representation(self):
        # The coordinate swap does not exclude this theorem1 pair, so it builds operators.
        text = builtin_mod.builtin_text("singlet").replace('"eta": "right-z"', '"eta": "product-zz"')
        with pytest.raises(
            ScenarioError,
            match=r"checks\[2\].type: the check builds operators; the scenario declares no",
        ):
            loads(text)

    def test_unknown_variable_lookup(self):
        scenario = loads(MINIMAL)
        with pytest.raises(ScenarioError, match="unknown variable 'missing'"):
            scenario.variable("missing")

    def test_require_group_when_absent(self):
        text = without(MINIMAL, "group")
        with pytest.raises(ScenarioError, match="declares no group"):
            loads(text)

    def test_group_for_override(self):
        scenario = loads(minimal(checks=[{**WHICH, "generators": [[0, 1]]}]))
        assert scenario.checks[0].params["generators"].order == 1
        default = loads(MINIMAL)
        assert default.checks[0].params["generators"] is default.group

    def test_check_label_prefers_subject(self):
        scenario = loads(MINIMAL)
        assert scenario.checks[0].label() == "permissibility:which"

    def test_name_labels_only_a_check_without_a_subject(self):
        named = minimal(checks=[{**WHICH, "name": "probe"}, {"type": "a2-falsify", "name": "census"}])
        assert [c.label() for c in loads(named).checks] == [
            "permissibility:which",
            "a2-falsify:census",
        ]

    def test_theorem1_needs_a_group_only_for_eta_on_a_product(self):
        data = builtin_data("singlet")
        del data["group"], data["checks"][1]  # the a2-classify check
        expect_error(json.dumps(data), r"checks\[1\].eta: scenario declares no group")
        data["representation"] = {"kind": "cyclic-dft", "n": 4}  # theorem1 builds operators
        text = json.dumps(data)
        for loaded in (
            loads(text),  # the representation's group judges the swap
            loads(text.replace(', "eta": "right-z"', "")),
            loads(text.replace(', "product": [[0, 0], [0, 1], [1, 0], [1, 1]]', "")),
        ):
            assert loaded.group is loaded.coherent_family.group
            assert "generators" not in loaded.checks[1].params

    def test_theorem1_on_a_pair_the_swap_may_exclude_loads_without_a_representation(self):
        scenario = loads(builtin_mod.builtin_text("singlet"))
        assert scenario.coherent_family is None and scenario.space.product is not None
        assert scenario.checks[2].label() == "theorem1-hypotheses:left-z"
        assert scenario.checks[2].params["eta"].name == "right-z"

    @pytest.mark.parametrize("source", ["qubit", "cyclic-4", "operators:1", "operators:7"])
    def test_the_representation_acts_with_the_scenario_group(self, source):
        if source in builtin_mod.BUILTINS:
            texts = [builtin_mod.builtin_text(source)]
        else:  # every case of one seed of the benchmark's operators workload
            workload, seed = source.split(":")
            texts = [case.text for case in perfbench_workloads().generate(workload, int(seed))]
        for text in texts:
            scenario = loads(text)
            assert scenario.coherent_family.group is scenario.group

    def test_a_representation_without_a_group_brings_its_own(self):
        scenario = loads(without(cycle4(PERMISSIBILITY), "group"))
        assert scenario.group is scenario.coherent_family.group
        assert scenario.group.order == 4
        assert scenario.checks[0].params["generators"] is scenario.group

    def test_the_swap_exclusion_is_decided_once(self, monkeypatch):
        """The loader keeps theorem1's coordinate-swap verdict; the run reads it."""
        calls = []
        original = scenario_mod.flag_trivial_exchange
        monkeypatch.setattr(
            scenario_mod, "flag_trivial_exchange", lambda *args: calls.append(1) or original(*args)
        )
        scenario = loads(builtin_mod.builtin_text("singlet"))
        assert scenario.checks[2].params["excluded"] is True
        record = run_scenario(scenario).checks[2]
        assert record.status == STATUS_NOT_APPLICABLE and "excluded" in record.details
        assert len(calls) == 1

    def test_the_thought_family_is_built_once(self, monkeypatch):
        """The loader keeps each a1-search and a2-classify check's family of
        thoughts, its members under its group; the run reads it."""
        calls = []
        original = scenario_mod.ThoughtScenario
        monkeypatch.setattr(
            scenario_mod, "ThoughtScenario", lambda *args: calls.append(1) or original(*args)
        )
        scenario = loads(builtin_mod.builtin_text("parity-z4"))
        searches = [c for c in scenario.checks if c.type == "a1-search"]
        for check in searches:
            thoughts = check.params["thoughts"]
            assert thoughts.members == check.params["members"] == tuple(scenario.variables.values())
            assert thoughts.group is check.params["generators"]
        statuses = [r.status for r in run_scenario(scenario).checks[3:]]
        assert statuses == ["not-applicable", "not-applicable", "pass"]
        assert len(calls) == len(searches) == 3

    def test_the_maximal_variables_are_found_once_per_family(self, monkeypatch):
        """Each family of thoughts finds its maximal variables when it is
        built at load; the a1-search run reads them there."""
        calls = []
        for module in (harness_mod, runner_mod):
            original = module.maximal_accessible
            monkeypatch.setattr(
                module,
                "maximal_accessible",
                lambda family, original=original: calls.append(family) or original(family),
            )
        scenario = loads(builtin_mod.builtin_text("parity-z4"))
        assert len(calls) == 3
        statuses = [r.status for r in run_scenario(scenario).checks[3:]]
        assert statuses == ["not-applicable", "not-applicable", "pass"]
        assert len(calls) == 3

    def test_each_operator_case_closes_its_group_once(self, monkeypatch):
        """The representation kind is built on the declared group, not on a
        second closure on the scenario's points; induced groups close on value spaces."""
        spaces = []
        original = PermutationGroup.generate.__func__
        monkeypatch.setattr(
            PermutationGroup,
            "generate",
            classmethod(lambda cls, space, *args: spaces.append(space) or original(cls, space, *args)),
        )
        cases = perfbench_workloads().generate("operators", 1)
        closures = 0
        for case in cases:
            spaces.clear()
            scenario = loads(case.text)
            run_scenario(scenario)
            closures += sum(space == scenario.space for space in spaces)
        assert len(cases) == 5 and closures == 5

    def test_theorem1_finds_the_maximal_variables_once_per_run(self, monkeypatch):
        """Every theorem1 check of a run reads the maximal scenario variables
        from the run's context, which finds them once."""
        calls = []
        original = runner_mod.maximal_accessible
        monkeypatch.setattr(
            runner_mod, "maximal_accessible", lambda family: calls.append(family) or original(family)
        )
        parity = {"name": "parity", "values": ["0", "1"], "assignment": [0, 1, 0, 1]}
        scenario = loads(cycle4(THEOREM1, {**THEOREM1, "variable": "parity"}, variables=[POSITION, parity]))
        for runs in (1, 2):
            records = run_scenario(scenario).checks
            assert [r.status for r in records] == ["pass", "pass"]
            assert [r.details["operator"]["maximal_in_family"] for r in records] == [True, False]
            assert len(calls) == runs

    def test_informational_flag(self):
        scenario = loads(minimal(informational=True))
        assert scenario.informational

    def test_load_path_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="no-such"):
            load_path(str(tmp_path / "no-such.json"))

    def test_load_path_reads_file(self, tmp_path):
        target = tmp_path / "scenario.json"
        target.write_text(MINIMAL, encoding="utf-8")
        assert load_path(str(target)).name == "tiny"


# The scenario the named cases below start from: CYCLE4 and theorem1, in JSON.
CYCLE4_THEOREM1 = {
    "name": "cycle-4",
    "space": {"id": "cycle-4", "labels": ["0", "1", "2", "3"]},
    "variables": [{"name": "position", "values": ["0", "1", "2", "3"], "assignment": [0, 1, 2, 3]}],
    "group": {"generators": [[1, 2, 3, 0]]},
    "representation": {"kind": "cyclic-dft", "n": 4},
    "checks": [{"type": "theorem1-hypotheses", "variable": "position"}],
}
CYCLE4_JSON = json.dumps(CYCLE4_THEOREM1, indent=1)
WITH_TOLERANCE = CYCLE4_JSON.replace('\n "checks"', '\n "tolerances": {"hermitian": VALUE},\n "checks"')
# variables as 100,000 nested lists: json's scanner recurses past its limit.
DEEP_JSON = CYCLE4_JSON.replace('"variables": [', '"variables": [' + "[" * 99_999 + "]" * 99_999 + ", ", 1)
TOLERANCE_MESSAGE = "tolerances.hermitian: expected a positive number"
# a2-smoke as block YAML, which scenario files no longer are.
A2_SMOKE_YAML = """\
name: a2-smoke
space:
  id: circle-6
  labels: ['0', '1', '2', '3', '4', '5']
variables:
- name: arc-a
  values: ['0', '1']
  assignment: [0, 0, 0, 1, 1, 1]
- name: arc-b
  values: ['0', '1']
  assignment: [1, 0, 0, 0, 1, 1]
- name: arc-c
  values: ['0', '1']
  assignment: [1, 1, 0, 0, 0, 1]
group:
  generators:
  - [1, 2, 3, 4, 5, 0]
checks:
- {type: a2-classify, expect-verdict: all-related}
- {type: a2-falsify, max-n: 4}
"""


PRINTABLE = st.characters(min_codepoint=0x20, max_codepoint=0x7E)
_DRAWN_KEYS = st.text(PRINTABLE, max_size=8) | st.text(max_size=4)
_DRAWN_VALUES = st.recursive(
    st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=False)
    | st.text(PRINTABLE, max_size=12)
    | st.text(max_size=4)
    | st.booleans()
    | st.none(),
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_DRAWN_KEYS, children, max_size=4),
    max_leaves=16,
)


@st.composite
def dumped(draw, value) -> str:
    """``value`` written by ``json.dumps`` with drawn indent and separators."""
    return json.dumps(
        value,
        indent=draw(st.sampled_from([None, 0, 1, 4])),
        separators=draw(st.sampled_from([(",", ":"), (", ", ": "), (" ,", " : "), (",\n", ":\n")])),
        ensure_ascii=draw(st.booleans()),
    )


@st.composite
def comment_headers(draw) -> str:
    """Whole-line comments for the start of a text: each a '#' and drawn
    text, printable or any, an empty '#' among them, ended by a line break."""
    lines = draw(st.lists(st.just("") | st.text(PRINTABLE, max_size=12) | st.text(max_size=4), max_size=3))
    return "".join("#" + line.replace("\r", "").replace("\n", "") + "\n" for line in lines)


@st.composite
def nested(draw, text: str) -> str:
    """``text`` placed at a drawn depth inside drawn lists and objects."""
    for _ in range(draw(st.integers(0, 3))):
        text = draw(st.sampled_from(["[{}]", "[1, {}]", '{{"k": {}}}', '{{"a": [], "b": {}}}'])).format(text)
    return text


class TestScenarioText:
    """A scenario text is a header of whole-line comments, then one JSON document."""

    @settings(max_examples=200, deadline=None)
    @given(comment_headers(), st.data())
    def test_parse_reads_json_behind_a_header_and_refuses_the_rest(self, header, data):
        value = data.draw(_DRAWN_VALUES)
        body = data.draw(dumped(value))
        assert repr(scenario_mod._parse(header + body, "<scenario>")) == repr(value)  # 1, 1.0 and True differ

        key = data.draw(_DRAWN_KEYS)
        repeated = data.draw(nested(f'{{{json.dumps(key)}: 1, "other": [], {json.dumps(key)}: 2}}'))
        with pytest.raises(ScenarioError) as refused:
            scenario_mod._parse(header + repeated, "<scenario>")
        assert str(refused.value) == f"<scenario>: key {key!r} written twice in one object"

        cut = body[: data.draw(st.integers(0, len(body)))] + "\x00"  # a NUL json reads nowhere
        with pytest.raises(json.JSONDecodeError) as declined:
            json.loads(cut)
        with pytest.raises(ScenarioError) as refused:
            scenario_mod._parse(header + cut, "<scenario>")
        line = declined.value.lineno + header.count("\n")
        where = f"line {line}, column {declined.value.colno}: {declined.value.msg} "
        assert str(refused.value).startswith(f"<scenario>: invalid JSON at {where}")

    @pytest.mark.parametrize(
        "text, exit_code, message",
        [
            pytest.param(
                CYCLE4_JSON.replace('\n "checks"', '\n "checks": [],\n "checks"'),
                2,
                "{path}: key 'checks' written twice in one object",
                id="repeated-key",
            ),
            pytest.param(WITH_TOLERANCE.replace("VALUE", "NaN"), 2, TOLERANCE_MESSAGE, id="NaN"),
            pytest.param(WITH_TOLERANCE.replace("VALUE", "-Infinity"), 2, TOLERANCE_MESSAGE, id="-Infinity"),
            pytest.param(DEEP_JSON, 2, "{path}: arrays and objects nest too deep to read", id="100000-levels"),
            pytest.param(
                CYCLE4_JSON.replace('"checks":', '"checks"\n:'), 0, None, id="key-split-from-its-colon"
            ),
            pytest.param(
                "\ufeff" + CYCLE4_JSON,
                2,
                "{path}: invalid JSON at line 1, column 1: Unexpected UTF-8 BOM",
                id="leading-bom",
            ),
            pytest.param(
                CYCLE4_JSON + "  # a comment\n",
                2,
                "{path}: invalid JSON at line 49, column 4: Extra data",
                id="trailing-comment",
            ),
            pytest.param(
                "  # indented\n" + CYCLE4_JSON,
                2,
                "{path}: invalid JSON at line 1, column 3: Expecting value",
                id="indented-comment",
            ),
            pytest.param(
                "# a\n\n# b\n" + CYCLE4_JSON,
                2,
                "{path}: invalid JSON at line 3, column 1: Expecting value",
                id="blank-line-in-header",
            ),
            pytest.param("# a\ttab\n" + CYCLE4_JSON, 0, None, id="tab-in-header"),
            pytest.param("# café\n" + CYCLE4_JSON, 0, None, id="non-ascii-in-header"),
            pytest.param("#\r\n# \"k\": 1\r" + CYCLE4_JSON.replace("\n", "\r\n"), 0, None, id="crlf"),
            pytest.param(
                CYCLE4_JSON.replace('"id": "cycle-4"', '"id": "cycle-\\ud83d\\ude00"'),
                0,
                None,
                id="surrogate-pair",
            ),
            pytest.param(  # which no report or message could write
                "#\n" + CYCLE4_JSON.replace('"id": "cycle-4"', '"id": "cycle-\\ud83d"'),
                2,
                "{path}: the string at line 5, column 9 holds an unpaired surrogate",
                id="unpaired-surrogate",
            ),
            pytest.param(
                CYCLE4_JSON.replace('"id": "cycle-4"', '"id": "cycle-\\udc00"'),
                2,
                "{path}: the string at line 4, column 9 holds an unpaired surrogate",
                id="low-surrogate-alone",
            ),
            pytest.param(
                CYCLE4_JSON.replace('"id": "cycle-4"', '"id": "cycle-\\ude00\\ud83d"'),
                2,
                "{path}: the string at line 4, column 9 holds an unpaired surrogate",
                id="surrogates-in-reverse-order",
            ),
            pytest.param(
                CYCLE4_JSON.replace('"labels"', '"labels\\udfff"'),
                2,
                "{path}: the string at line 5, column 3 holds an unpaired surrogate",
                id="unpaired-surrogate-in-a-key",
            ),
        ],
    )
    def test_a_text_is_read_as_json_or_exits_two(self, tmp_path, text, exit_code, message):
        target = tmp_path / "scenario.json"
        target.write_bytes(text.encode("utf-8"))
        result = CliRunner().invoke(main, ["run", str(target), "--report", "-"])
        assert result.exit_code == exit_code, result.output
        if message is None:  # json reads it, and the report is CYCLE4_JSON's
            assert result.output == run_scenario(loads(CYCLE4_JSON)).to_json()
        else:
            assert f"Error: {message.replace('{path}', str(target))}" in result.output

    @pytest.mark.parametrize(
        "text, data",
        [
            pytest.param("1.5e-05", 1.5e-05, id="float"),
            pytest.param("[1.0E+3, -0.0, 10.25]", [1000.0, -0.0, 10.25], id="spellings"),
            pytest.param("[1e-9, 2E5, 1e+0]", [1e-09, 200000.0, 1.0], id="exponent-without-a-dot"),
            pytest.param("[NaN, Infinity, -Infinity]", [math.nan, math.inf, -math.inf], id="nan-and-infinity"),
            pytest.param(
                '{"a": 1, "b": [true, false, null, "x: y # z"]}',
                {"a": 1, "b": [True, False, None, "x: y # z"]},
                id="mapping",
            ),
            pytest.param(
                "\r\n".join(["{", ' "' + "k" * 1022 + '": 1', "}"]), {"k" * 1022: 1}, id="key-of-1022-characters"
            ),
            pytest.param('{"' + "t" * 1025 + '": [1]}', {"t" * 1025: [1]}, id="key-of-1025-characters"),
            pytest.param(  # a pair of surrogates is one character; an escaped backslash is no escape
                '["\\ud83d\\ude00", "\\\\ud83d", "\\u00e9"]', ["\U0001f600", "\\ud83d", "\u00e9"], id="escapes"
            ),
            pytest.param("# a header\n" + CYCLE4_JSON, CYCLE4_THEOREM1, id="comment-header"),
            pytest.param(
                '#\r\n# "' + "k" * 1030 + '": 1\r' + CYCLE4_JSON, CYCLE4_THEOREM1, id="empty-and-key-like-comments"
            ),
            pytest.param("###\n" + CYCLE4_JSON.replace("\n", "\r\n"), CYCLE4_THEOREM1, id="comment-header-crlf"),
        ],
    )
    def test_a_json_text_reads_as_its_data(self, text, data):
        assert repr(scenario_mod._parse(text, "<scenario>")) == repr(data)  # 1, 1.0 and True differ

    def test_every_operators_explicit_and_built_in_text_loads(self):
        texts = [case.text for case in perfbench_workloads().generate("operators", 1)]
        texts += [*explicit_cases().values(), CYCLE4_JSON, cycle24_text()]
        texts += [builtin_mod.builtin_text(name) for name in builtin_mod.builtin_names()]
        assert len(texts) == 19
        for text in texts:
            data = json.loads(re.sub(r"\A(?:#.*\n)*", "", text))
            assert loads(text).name == data["name"]

    def test_a_yaml_text_exits_two_saying_what_a_scenario_file_is(self, tmp_path):
        target = tmp_path / "a2-smoke.yaml"
        target.write_text(A2_SMOKE_YAML, encoding="utf-8")
        result = CliRunner().invoke(main, ["run", str(target)])
        assert result.exit_code == 2, result.output
        assert result.output.endswith(
            f"Error: {target}: invalid JSON at line 1, column 1: Expecting value "
            "(scenario files are JSON: 'finivar emit NAME' prints one)\n"
        )


def json_form(value):
    """``value`` as a report's JSON text holds it."""
    return json.loads(VerificationReport("s", {}, {"x": value}).to_json())["flags"]["x"]


class TestJsonForm:
    def test_permutation_as_image_list(self):
        assert json_form(Permutation((2, 0, 1))) == [2, 0, 1]

    def test_complex_as_pair(self):
        assert json_form(1 + 2j) == [1.0, 2.0]
        with pytest.raises(TypeError, match="cannot serialize complex128"):
            json_form(np.complex128(3 - 1j))

    def test_numpy_scalars_are_refused(self):
        for value in (np.float64(0.5), np.int64(7), np.bool_(True)):
            with pytest.raises(TypeError, match=f"cannot serialize {type(value).__name__} "):
                json_form(value)

    def test_arrays_and_containers(self):
        with pytest.raises(TypeError, match="cannot serialize ndarray"):
            json_form(np.array([1.0, 2.0]))
        assert json_form({"k": (1, 2)}) == {"k": [1, 2]}
        with pytest.raises(TypeError, match="cannot serialize int key"):
            json_form({1: "x"})

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            json_form(object())


class TestReport:
    def record(self, name, status=STATUS_PASS, elapsed=1.0):
        return CheckRecord(name=name, type="theorem2", status=status, elapsed_ms=elapsed)

    def test_status_validated(self):
        with pytest.raises(ValueError, match="unknown status"):
            CheckRecord(name="x", type="theorem2", status="maybe")

    def test_duplicate_names_suffixed(self):
        report = VerificationReport("s", {}, {})
        report.add(self.record("check"))
        report.add(self.record("check"))
        report.add(self.record("check"))
        assert [c.name for c in report.checks] == ["check", "check#2", "check#3"]

    def test_exit_codes(self):
        clean = VerificationReport("s", {}, {})
        clean.add(self.record("a"))
        clean.add(CheckRecord(name="b", type="theorem2", status="not-applicable"))
        assert clean.exit_code == 0
        failing = VerificationReport("s", {}, {})
        failing.add(self.record("a", status=STATUS_FAIL))
        assert failing.exit_code == 1
        erroring = VerificationReport("s", {}, {})
        erroring.add(CheckRecord(name="a", type="theorem2", status="error"))
        assert erroring.exit_code == 1

    def test_summary_counts(self):
        report = VerificationReport("s", {}, {})
        report.add(self.record("a"))
        report.add(self.record("b", status=STATUS_FAIL))
        summary = report.summary()
        assert summary["pass"] == 1 and summary["fail"] == 1
        assert summary["error"] == 0

    def test_json_excludes_timings(self):
        fast = VerificationReport("s", {"hermitian": 1e-10}, {"scale": 1.0})
        slow = VerificationReport("s", {"hermitian": 1e-10}, {"scale": 1.0})
        fast.add(self.record("a", elapsed=0.1))
        slow.add(self.record("a", elapsed=99.9))
        assert fast.to_json() == slow.to_json()
        assert json.loads(fast.to_json())["summary"]["pass"] == 1

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_json_refuses_non_numbers(self, value):
        report = VerificationReport("s", {}, {})
        report.add(CheckRecord(name="a", type="theorem1-hypotheses", status="pass", details={"x": value}))
        with pytest.raises(ValueError, match="JSON compliant"):
            report.to_json()

    def test_text_includes_timings_and_summary(self):
        report = VerificationReport("demo", {}, {})
        report.add(self.record("a", elapsed=12.3))
        text = report.to_text()
        assert "scenario: demo" in text
        assert "12.3 ms" in text
        assert "summary: pass=1" in text


class TestBuiltins:
    def test_names_and_order(self):
        assert builtin_mod.builtin_names() == (
            "qubit",
            "cyclic-4",
            "singlet",
            "parity-z4",
            "a2-smoke",
            "rotation-sign-probe",
        )

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin_mod.builtin_text("nope")

    def test_all_builtins_parse(self):
        for name in builtin_mod.builtin_names():
            scenario = builtin_mod.load_builtin(name)
            assert scenario.name == name
            assert scenario.checks

    def test_every_builtin_has_a_description_comment(self):
        for name in builtin_mod.builtin_names():
            first = builtin_mod.builtin_text(name).splitlines()[0]
            assert first.startswith("#")


SRC = str(Path(__file__).resolve().parents[1] / "src")
RUN_IN_FRESH_PROCESS = """
import json, sys
import finivar.cli
code = 0
try:
    finivar.cli.main(["run", {name!r}, "--report", "-"])
except SystemExit as exc:
    code = exc.code
print(json.dumps([code, "numpy" in sys.modules, "numpy.random" in sys.modules]), file=sys.stderr)
"""


def fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports finivar from this checkout."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestNumpyIsLoadedOnlyWhenUsed:
    @pytest.mark.parametrize(
        "name, loads_numpy",
        [
            ("parity-z4", False),
            ("a2-smoke", False),
            ("rotation-sign-probe", False),
            ("qubit", True),
            ("singlet", True),
        ],
    )
    def test_builtin_run(self, name, loads_numpy):
        # No run loads numpy.random: the singlet's directions come from the
        # standard library's generator.
        proc = fresh_python(RUN_IN_FRESH_PROCESS.format(name=name))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr.splitlines()[-1]) == [0, loads_numpy, False]
        assert json.loads(proc.stdout)["scenario"] == name

    def test_cli_import_loads_every_module_but_not_numpy(self):
        # perfbench's tracer looks these modules up in sys.modules right after the import.
        proc = fresh_python("import sys, finivar.cli; print(' '.join(sys.modules))")
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        traced = (
            "spaces groups subgroups harness linalg representations spin scenario runner "
            "report builtins"
        ).split()
        assert {f"finivar.{m}" for m in traced} <= loaded
        assert "numpy" not in loaded


# Runs `finivar run qubit` as the console script does, then prints the
# process's thread count and the BLAS variables left in its environment.
THREADS_IN_FRESH_PROCESS = """
import json, os, sys
from finivar.cli import main
sys.argv = ["finivar", "run", "qubit"]
try:
    main()
except SystemExit as exc:
    code = exc.code
with open("/proc/self/status") as status:
    threads = int(next(line for line in status if line.startswith("Threads:")).split()[1])
names = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
print(json.dumps([code, threads, {name: os.environ[name] for name in names if name in os.environ}]))
"""


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="the thread count is read from /proc/self/status"
)
class TestOneBlasThread:
    """``finivar`` asks OpenBLAS for one thread, unless the user chose a count."""

    def run_qubit(self, monkeypatch, **variables) -> tuple[int, int, dict[str, str]]:
        for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(name, raising=False)
        for name, value in variables.items():
            monkeypatch.setenv(name, value)
        proc = fresh_python(THREADS_IN_FRESH_PROCESS)
        assert proc.returncode == 0, proc.stderr
        return tuple(json.loads(proc.stdout.splitlines()[-1]))

    def test_a_run_starts_no_blas_helper_thread(self, monkeypatch):
        # The variable is set only while the command runs.
        assert self.run_qubit(monkeypatch) == (0, 1, {})

    def test_a_callers_thread_count_is_kept(self, monkeypatch):
        if (os.cpu_count() or 1) < 2:
            pytest.skip("on one CPU OpenBLAS starts no helper thread whatever is asked")
        assert self.run_qubit(monkeypatch, OMP_NUM_THREADS="2") == (0, 2, {"OMP_NUM_THREADS": "2"})


# Imports finivar.cli, then prints whether dataclasses was loaded and every
# class in a finivar module that carries dataclass fields.
DATACLASS_PROBE = """
import json, sys, finivar.cli
modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "finivar"]
found = [
    f"{m.__name__}.{name}"
    for m in modules
    for name, obj in vars(m).items()
    if isinstance(obj, type) and hasattr(obj, "__dataclass_fields__")
]
print(json.dumps(["dataclasses" in sys.modules, len(modules), found]))
"""


class TestRecordsGenerateNoCode:
    def test_cli_import_loads_no_dataclasses(self):
        # A @dataclass execs its generated methods at import, about 0.5 ms a
        # class in every `finivar run` process; the records are declared without.
        proc = fresh_python(DATACLASS_PROBE)
        assert proc.returncode == 0, proc.stderr
        loaded, modules, found = json.loads(proc.stdout)
        assert loaded is False
        assert modules >= 13
        assert found == []


# Runs the command line as the `finivar` console script does: main() reads sys.argv.
CLI_IN_FRESH_PROCESS = """
import sys
from finivar.cli import main
sys.argv = ["finivar", *{args!r}]
main()
"""
RUN_USAGE = "Usage: finivar run [OPTIONS] SCENARIO\nTry 'finivar run --help' for help.\n\n"
EMIT_USAGE = "Usage: finivar emit [OPTIONS] NAME\nTry 'finivar emit --help' for help.\n\n"
TOP_USAGE = "Usage: finivar [OPTIONS] COMMAND [ARGS]...\nTry 'finivar --help' for help.\n\n"


class TestUsageContract:
    """Each usage error prints the command's usage line, a hint and ``Error: ...``
    to stderr, and exits 2; ``DIR`` stands for an existing directory."""

    @pytest.mark.parametrize(
        "args, stderr",
        [
            pytest.param(
                ["run", "qubit", "--report", "DIR"],
                RUN_USAGE + "Error: Invalid value for '--report': File 'DIR' is a directory.\n",
                id="report-is-a-directory",
            ),
            pytest.param(
                ["emit", "qubit", "--output", "DIR"],
                EMIT_USAGE + "Error: Invalid value for '--output': File 'DIR' is a directory.\n",
                id="output-is-a-directory",
            ),
            pytest.param(
                ["run", "parity-z4", "--report", ""],
                RUN_USAGE + "Error: Invalid value for '--report': the path is empty\n",
                id="report-is-empty",
            ),
            pytest.param(
                ["run", "parity-z4", "--report="],
                RUN_USAGE + "Error: Invalid value for '--report': the path is empty\n",
                id="report-is-empty-after-equals",
            ),
            pytest.param(
                ["emit", "qubit", "--output", ""],
                EMIT_USAGE + "Error: Invalid value for '--output': the path is empty\n",
                id="output-is-empty",
            ),
            pytest.param(
                ["run", "qubit", "--tolerance-scale", "abc"],
                RUN_USAGE + "Error: Invalid value for '--tolerance-scale': 'abc' is not a valid float.\n",
                id="scale-not-a-float",
            ),
            pytest.param(
                ["run", "qubit", "--max-n", "x"],
                RUN_USAGE + "Error: Invalid value for '--max-n': 'x' is not a valid integer range.\n",
                id="max-n-not-an-integer",
            ),
            pytest.param(
                ["frobnicate"], TOP_USAGE + "Error: No such command 'frobnicate'.\n", id="no-such-command"
            ),
            pytest.param(["run"], RUN_USAGE + "Error: Missing argument 'SCENARIO'.\n", id="missing-argument"),
            pytest.param(
                ["run", "qubit", "extra"],
                RUN_USAGE + "Error: Got unexpected extra argument (extra)\n",
                id="extra-argument",
            ),
        ],
    )
    def test_a_usage_error_exits_two_with_the_usage_line(self, tmp_path, args, stderr):
        args = [str(tmp_path) if arg == "DIR" else arg for arg in args]
        proc = fresh_python(CLI_IN_FRESH_PROCESS.format(args=args))
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr == stderr.replace("DIR", str(tmp_path))

    def test_an_abbreviated_option_is_no_option(self):
        proc = fresh_python(CLI_IN_FRESH_PROCESS.format(args=["run", "qubit", "--rep", "-"]))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(RUN_USAGE + "Error: No such option '--rep'")

    def test_help_lists_the_four_commands_and_no_command_exits_two(self):
        shown = fresh_python(CLI_IN_FRESH_PROCESS.format(args=["--help"]))
        assert shown.returncode == 0, shown.stderr
        assert shown.stdout.startswith("Usage: finivar [OPTIONS] COMMAND [ARGS]...\n")
        listed = re.findall(r"^  ([a-z]+) ", shown.stdout.split("Commands:\n")[1], re.MULTILINE)
        assert listed == ["emit", "list", "run", "selftest"]
        bare = fresh_python(CLI_IN_FRESH_PROCESS.format(args=[]))
        assert bare.returncode == 2
        assert bare.stdout == "" and "Usage: finivar [OPTIONS] COMMAND [ARGS]..." in bare.stderr


# A scenario whose checks nest LEVELS lists.
DEEP_JSON_CHECKS = '{{"name": "x", "space": {{"id": "a", "labels": ["0"]}}, "checks": {open}{close}}}\n'
# A scenario whose check's name nests 80,000 objects.
DEEP_OBJECTS = DEEP_JSON_CHECKS.format(
    open='[{"type": "theorem2", "name": ' + '{"k": ' * 80_000 + "1", close="}" * 80_000 + "}]"
)


class TestDeepNesting:
    """A text nested deeper than json's scanner reads exits 2, as does one it
    reads whose schema it breaks."""

    @pytest.mark.parametrize(
        "text, message",
        [
            (DEEP_JSON_CHECKS.format(open="[" * 300, close="]" * 300), "checks[0]: expected a mapping, got list"),
            (
                DEEP_JSON_CHECKS.format(open="[" * 80_000, close="]" * 80_000),
                "{target}: arrays and objects nest too deep to read",
            ),
            (DEEP_OBJECTS, "{target}: arrays and objects nest too deep to read"),
            ("[" * 300 + "]" * 300, "{target}: expected a mapping, got list"),
        ],
        ids=["300", "80000", "objects-80000", "document-300"],
    )
    def test_a_deep_text_exits_two(self, tmp_path, text, message):
        target = tmp_path / "deep.json"
        target.write_text(text, encoding="utf-8")
        proc = fresh_python(CLI_IN_FRESH_PROCESS.format(args=["run", str(target)]))
        assert proc.returncode == 2, proc.stderr[-500:]
        assert proc.stderr == RUN_USAGE + f"Error: {message.format(target=target)}\n"

    def test_brackets_in_strings_and_comments_do_not_count(self):
        brackets = "[{" * 3000
        data = {**MINIMAL_DATA, "name": "t" + brackets}
        data["checks"] = [{**WHICH, "name": brackets}, {**WHICH, "name": brackets + "]}"}]
        scenario = loads(f"# {brackets}\n#{brackets}\n" + scenario_text(data))
        assert scenario.name == "t" + brackets
        assert [check.params["name"] for check in scenario.checks] == [brackets, brackets + "]}"]


# Calls main in one of its three forms, then prints how it ended.
CALL_MAIN_IN_FRESH_PROCESS = """
import sys
from finivar.cli import main
try:
    {call}
except SystemExit as exc:
    print("SystemExit", exc.code, file=sys.stderr)
"""


# Registers a handler before main, which atexit then runs after main's own;
# it prints what the collector holds frozen and whether it is still enabled.
FREEZE_AT_EXIT_PROBE = """
import atexit, gc, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, gc.isenabled(), file=sys.stderr))
from finivar.cli import main
main(["run", "qubit", "--report", "-"])
"""
# Calls main twice in one process, then counts the calls of gc.freeze until
# the process ends: those of the exit handlers, not those of each main.
# (atexit._ncallbacks counts a slot unregister has emptied.)
MAIN_TWICE_PROBE = """
import atexit, gc, sys
calls, freeze, returned = [], gc.freeze, []
gc.freeze = lambda: (freeze(), returned and calls.append(1))
atexit.register(lambda: print("freezes", len(calls), file=sys.stderr))
from finivar.cli import main
for _ in range(2):
    try:
        main(["list"])
    except SystemExit:
        pass
returned.append(True)
"""
# Lists the collections (generation, objects collected) that start while
# `finivar run qubit` runs in main, the collector on as a process starts it.
COLLECTIONS_IN_MAIN_PROBE = """
import gc, sys
from finivar.cli import main
seen = []
gc.collect()
gc.callbacks.append(lambda phase, info: phase == "stop" and seen.append((info["generation"], info["collected"])))
try:
    main(["run", "qubit", "--report", "-"])
except SystemExit as exc:
    print(exc.code, "collections", list(seen), file=sys.stderr)
"""


# Runs `finivar run a2-smoke`, then prints its exit code and which of the
# modules argparse loads it loaded.
PARSER_MODULES_PROBE = """
import sys
from finivar.cli import main
try:
    main(["run", "a2-smoke"])
except SystemExit as exc:
    print(exc.code, sorted({"argparse", "gettext"} & set(sys.modules)), file=sys.stderr)
"""


class TestCommandLineEntry:
    def test_the_collector_is_frozen_when_the_process_exits(self):
        proc = fresh_python(FREEZE_AT_EXIT_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["scenario"] == "qubit"
        assert proc.stderr.splitlines()[-1] == "frozen True True"

    def test_main_leaves_the_collector_of_its_caller_as_it_was(self):
        frozen = gc.get_freeze_count()
        result = CliRunner().invoke(main, ["run", "qubit"])
        assert result.exit_code == 0, result.output
        assert gc.get_freeze_count() == frozen
        assert gc.isenabled()

    def test_main_called_twice_registers_one_exit_handler(self):
        proc = fresh_python(MAIN_TWICE_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "freezes 1"

    @pytest.mark.parametrize("name", list(builtin_mod.BUILTINS))
    def test_a_report_file_written_at_exit_is_the_in_process_report(self, tmp_path, name):
        expected = run_scenario(builtin_mod.load_builtin(name))
        path = tmp_path / "report.json"
        proc = fresh_python(CLI_IN_FRESH_PROCESS.format(args=["run", name, "--report", str(path)]))
        assert proc.returncode == expected.exit_code, proc.stderr
        assert proc.stdout.endswith(f"report written to {path}\n")
        assert path.read_bytes() == expected.to_json().encode("utf-8")

    def test_main_leaves_no_young_collection_behind(self):
        """Turning the collector back on, ``main`` moves the run's objects to
        the oldest generation, so no allocation after starts a scan of them."""
        proc = fresh_python(COLLECTIONS_IN_MAIN_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["scenario"] == "qubit"
        assert proc.stderr.splitlines()[-1] == "0 collections []"

    def test_cli_import_loads_no_click_or_inspect(self):
        proc = fresh_python("import sys, finivar.cli; print(' '.join(sys.modules))")
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.split())
        assert "finivar.runner" in loaded
        assert not {"click", "inspect", "argparse", "gettext"} & loaded

    def test_a_run_loads_no_argparse_or_gettext(self):
        proc = fresh_python(PARSER_MODULES_PROBE)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "0 []"

    def test_a_command_runs_with_the_collector_off(self, monkeypatch):
        seen, dispatch = [], cli_mod._dispatch
        monkeypatch.setattr(cli_mod, "_dispatch", lambda *args: seen.append(gc.isenabled()) or dispatch(*args))
        result = CliRunner().invoke(main, ["run", "parity-z4"])
        assert result.exit_code == 0, result.output
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize(
        "args, code", [(["list"], 0), (["frobnicate"], 2), (["run", "qubit"], 1)], ids=["clean", "usage", "interrupt"]
    )
    def test_main_restores_the_collector_setting_of_its_caller(self, monkeypatch, enabled, args, code):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "run_scenario", interrupt)
        (gc.enable if enabled else gc.disable)()
        try:
            result = CliRunner().invoke(main, args)
            assert gc.isenabled() is enabled
        finally:
            gc.enable()
        assert result.exit_code == code, result.output

    @pytest.mark.parametrize("name", [*builtin_mod.BUILTINS, "a2-smoke.json"])
    def test_a_warm_run_leaves_no_cyclic_garbage(self, tmp_path, name):
        """What lets ``main`` keep the collector off while a command runs."""
        if name.endswith(".json"):
            path = tmp_path / name
            path.write_text(builtin_mod.builtin_text(name.removesuffix(".json")), encoding="utf-8")
            name = str(path)
        gc.disable()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli_mod._dispatch("finivar", ["run", name])  # loads what the run loads on first use
                gc.collect()
                cli_mod._dispatch("finivar", ["run", name])
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize(
        "args",
        [["run", "parity-z4", "--report", "-"], ["run", "parity-z4", "--report=-"], ["emit", "qubit", "--output", "-"]],
        ids=["report", "report-joined", "output"],
    )
    def test_a_dash_is_standard_output_even_beside_a_directory_named_dash(self, tmp_path, monkeypatch, args):
        (tmp_path / "-").mkdir()
        monkeypatch.chdir(tmp_path)
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 0, result.output
        if args[0] == "emit":
            assert result.output == builtin_mod.builtin_text("qubit")
        else:
            assert result.output == run_scenario(builtin_mod.load_builtin("parity-z4")).to_json()
        assert [path.name for path in tmp_path.iterdir()] == ["-"]

    @pytest.mark.parametrize(
        "call, prog",
        [
            ('main(args={args!r}, prog_name="finivar")', "finivar"),  # perfbench's child
            ("main({args!r})", "-c"),  # the tests; the program is sys.argv[0], "-c" here
            ('sys.argv = ["bin/finivar", *{args!r}]; main()', "finivar"),  # the console script
        ],
        ids=["args-and-prog-name", "args", "sys-argv"],
    )
    @pytest.mark.parametrize(
        "args, code",
        [
            (["run", "qubit"], 0),
            (["run", "qubit", "--tolerance-scale", "1e-12"], 1),  # too tight for eq1-expansion
            (["run", "qubit", "--max-n", "0"], 2),
        ],
        ids=["pass", "fail", "usage"],
    )
    def test_every_call_form_ends_in_system_exit(self, call, prog, args, code):
        proc = fresh_python(CALL_MAIN_IN_FRESH_PROCESS.format(call=call.format(args=args)))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == f"SystemExit {code}"
        if code == 2:
            assert proc.stderr.startswith(
                f"Usage: {prog} run [OPTIONS] SCENARIO\nTry '{prog} run --help' for help.\n\n"
                "Error: Invalid value for '--max-n': 0 is not in the range 1<=x<=6.\n"
            )
        else:
            assert proc.stdout.startswith("scenario: qubit\n")
            assert ("[           FAIL]" in proc.stdout) == (code == 1)

    def test_a_module_run_names_the_module_in_its_usage_line(self):
        module = subprocess.run(
            [sys.executable, "-m", "finivar.cli", "run"],
            env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert module.returncode == 2
        assert module.stderr.startswith("Usage: python -m finivar.cli run [OPTIONS] SCENARIO\n")

    def test_a_reader_that_leaves_early_ends_the_run_with_exit_one(self):
        proc = subprocess.Popen(
            [sys.executable, "-m", "finivar.cli", "selftest"],
            env={**os.environ, "PYTHONPATH": SRC},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        assert proc.stdout.readline() == "qubit: ok (pass=6)\n"
        proc.stdout.close()  # as `finivar selftest | head -1` does
        assert proc.wait(timeout=120) == 1
        assert proc.stderr.read() == ""

    def test_an_interrupt_exits_one(self, monkeypatch):
        def interrupt(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "run_scenario", interrupt)
        result = CliRunner().invoke(main, ["run", "qubit"])
        assert (result.exit_code, result.output) == (1, "\nAborted!\n")

    def test_options_are_checked_in_the_order_given(self):
        first_max_n = CliRunner().invoke(main, ["run", "qubit", "--max-n", "9", "--tolerance-scale", "0"])
        assert first_max_n.output.endswith("Error: Invalid value for '--max-n': 9 is not in the range 1<=x<=6.\n")
        first_scale = CliRunner().invoke(main, ["run", "qubit", "--tolerance-scale=0", "--max-n", "9"])
        assert first_scale.output.endswith(
            "Error: Invalid value for '--tolerance-scale': must be positive and finite\n"
        )

    @pytest.mark.parametrize(
        "args, error",
        [
            (["run", "qubit", "--rep", "-"], "No such option '--rep'. (Did you mean one of: '--help', '--report'?)"),
            (["emit", "qubit", "--outpt=x"], "No such option '--outpt'. Did you mean '--output'?"),
            (["--hepl"], "No such option '--hepl'. Did you mean '--help'?"),
            (["--help=x"], "argument --help: ignored explicit argument 'x'"),
            (["run", "qubit", "-x"], "No such option '-x'."),
            (["run", "qubit", "--report"], "Option '--report' requires an argument."),
            (["run", "qubit", "--help=yes"], "argument --help: ignored explicit argument 'yes'"),
            (["list", "a", "b"], "Got unexpected extra arguments (a b)"),
            (["run", "qubit", "--", "--max-n"], "Got unexpected extra argument (--max-n)"),
            (["run", "qubit", "--tolerance-scale", "-1e5"], "Invalid value for '--tolerance-scale': must be positive and finite"),
            (["run", "qubit", "--max-n", "--report"], "Invalid value for '--max-n': '--report' is not a valid integer range."),
        ],
    )
    def test_a_refused_option_or_argument_is_named(self, args, error):
        result = CliRunner().invoke(main, args)
        assert result.exit_code == 2
        assert result.output.startswith("Usage: ")
        assert result.output.endswith(f"\n\nError: {error}\n")

    @pytest.mark.parametrize("mode, able", [(os.R_OK, "readable"), (os.W_OK, "writable")])
    def test_an_existing_report_file_must_be_readable_and_writable(self, tmp_path, monkeypatch, mode, able):
        target = tmp_path / "report.json"
        target.write_text("", encoding="utf-8")
        access = os.access
        monkeypatch.setattr(cli_mod.os, "access", lambda path, m: m != mode and access(path, m))
        monkeypatch.setattr(cli_mod, "run_scenario", lambda *args: pytest.fail("the scenario ran"))
        result = CliRunner().invoke(main, ["run", "qubit", "--report", str(target)])
        assert result.exit_code == 2
        assert result.output.endswith(f"Error: Invalid value for '--report': File '{target}' is not {able}.\n")

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_imported_third_party_modules_are_the_declared_dependencies(self):
        assert third_party_imports(Path(SRC) / "finivar") == declared_dependencies("dependencies")

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_the_tests_import_only_declared_dependencies(self):
        """Each third-party module a test imports is a runtime or a test
        dependency, though an undeclared one may be installed here."""
        tests = Path(__file__).resolve().parent
        local = {path.stem for path in tests.glob("*.py")}
        imported = third_party_imports(tests) - local
        assert imported <= declared_dependencies("dependencies", "test")
        assert {"numpy", "pytest", "hypothesis"} <= imported

    @pytest.mark.parametrize(
        "args", [["run", name, "--report", "-"] for name in builtin_mod.builtin_names()] + [["selftest"]], ids=str
    )
    def test_a_command_runs_where_yaml_cannot_be_imported(self, args):
        """numpy is the only runtime dependency: with PyYAML installed but
        unimportable, each command prints what it prints in process."""
        proc = fresh_python('import sys\nsys.modules["yaml"] = None\n' + CLI_IN_FRESH_PROCESS.format(args=args))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == CliRunner().invoke(main, args).stdout


def third_party_imports(directory: Path) -> set[str]:
    """The top-level names of every module the ``.py`` files under ``directory``
    import, less the standard library's and finivar."""
    imported = set()
    for path in directory.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    return imported - set(sys.stdlib_module_names) - {"finivar"}


def declared_dependencies(*groups: str) -> set[str]:
    """The distributions ``pyproject.toml`` declares: ``dependencies``, or
    ``optional-dependencies``' group of that name."""
    import tomllib

    with open(Path(SRC).parent / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    declared = {"dependencies": project["dependencies"], **project["optional-dependencies"]}
    specs = [spec for group in groups for spec in declared[group]]
    return {re.split(r"[\s<>=!~;\[]", spec)[0].lower() for spec in specs}


# Loads and runs {text!r} through the library, then prints its exit code and
# which of the modules that load on first use it loaded.
LOAD_AND_RUN_IN_FRESH_PROCESS = """
import json, sys
from finivar import loads, run_scenario
code = run_scenario(loads({text!r})).exit_code
lazy = ("numpy", "finivar.representations", "finivar.spin")
print(json.dumps([code, [name for name in lazy if name in sys.modules]]))
"""


class TestModulesLoadWithTheirChecks:
    """The library imports ``representations`` and ``spin`` only for a check that needs them."""

    def loaded_by(self, text: str) -> list[str]:
        proc = fresh_python(LOAD_AND_RUN_IN_FRESH_PROCESS.format(text=text))
        assert proc.returncode == 0, proc.stderr
        code, loaded = json.loads(proc.stdout)
        assert code == 0
        return loaded

    def test_the_census_loads_no_operator_or_numpy(self):
        assert self.loaded_by(perfbench_workloads().census_case().text) == []

    def test_a_cyclic_dft_theorem1_loads_no_spin(self):
        assert self.loaded_by(cycle4(THEOREM1)) == ["numpy", "finivar.representations"]

    def test_the_combinatorial_built_in_loads_no_operator(self):
        assert self.loaded_by(builtin_mod.builtin_text("a2-smoke")) == []

    def test_the_singlet_check_loads_spin_and_no_representation(self):
        assert self.loaded_by(builtin_mod.builtin_text("singlet")) == ["numpy", "finivar.spin"]

    def test_every_public_name_resolves_in_a_fresh_process(self):
        code = "import finivar; print(all(getattr(finivar, name) for name in finivar.__all__))"
        proc = fresh_python(code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True"]


POSITION = {"name": "position", "values": ["0", "1", "2", "3"], "assignment": [0, 1, 2, 3]}
CYCLE4 = {
    "name": "cycle-4",
    "space": {"id": "cycle-4", "labels": ["0", "1", "2", "3"]},
    "variables": [POSITION],
    "group": {"generators": [[1, 2, 3, 0]]},
    "representation": {"kind": "cyclic-dft", "n": 4},
}
THEOREM1 = {"type": "theorem1-hypotheses", "variable": "position"}
THEOREM2 = {"type": "theorem2", "variable": "position"}
EQ1 = {"type": "eq1-expansion", "basis": "position", "target": {"variable": "position"}}
PERMISSIBILITY = {"type": "permissibility", "variable": "position"}
LONG_INTEGER = "7" * 5000  # past Python's default limit of 4,300 digits
CHECKS = {
    "theorem1": THEOREM1,
    "theorem2": THEOREM2,
    "eq1": EQ1,
    "a2-falsify": {"type": "a2-falsify"},
    "singlet-delta": {"type": "singlet-delta"},
}


def cycle4(*checks: dict, **fields) -> str:
    """Z4 on four points with cyclic-dft, running ``checks``, with ``fields``
    set at its top level."""
    return scenario_text(CYCLE4, checks=list(checks), **fields)


Z4 = [[(j + s) % 4 for j in range(4)] for s in range(4)]

ONE_POINT = scenario_text(
    {
        "name": "one-point",
        "space": {"id": "point", "labels": ["0"]},
        "variables": [{"name": "position", "values": ["0"], "assignment": [0]}],
        "group": {"generators": [[0]]},
        "representation": {"kind": "cyclic-dft", "n": 1},
        "checks": [THEOREM1],
    }
)


def cyclic_text(n: int) -> str:
    """A cyclic-dft scenario on n points, with the shift declared as its group,
    whose one check needs no representation."""
    data = {
        "name": f"cycle-{n}",
        "space": {"id": f"cycle-{n}", "labels": [str(j) for j in range(n)]},
        "group": {"generators": [[(j + 1) % n for j in range(n)]]},
        "representation": {"kind": "cyclic-dft", "n": n},
        "checks": [{"type": "a2-falsify"}],
    }
    return scenario_text(data)


def shift_text(n: int) -> str:
    """A scenario on n points whose declared group is generated by the one-step shift."""
    data = {
        "name": f"shift-{n}",
        "space": {"id": f"shift-{n}", "labels": [str(j) for j in range(n)]},
        "group": {"generators": [[(j + 1) % n for j in range(n)]]},
        "checks": [{"type": "a2-falsify"}],
    }
    return scenario_text(data)


def explicit_cycle4(elements, matrices=None) -> str:
    """CYCLE4 running theorem1 on an explicit representation, by default the regular one."""
    if matrices is None:
        matrices = [np.eye(4, dtype=int)[:, element] for element in elements]
    entries = [
        {"element": list(element), "matrix": matrix.tolist()} for element, matrix in zip(elements, matrices)
    ]
    return cycle4(THEOREM1, representation={"kind": "explicit", "matrices": entries})


def members_z4(check: dict) -> str:
    """Z4 on four points with two two-valued variables and one three-valued
    one; ``check`` is the second check."""
    data = {
        "name": "members",
        "space": {"id": "circle-4", "labels": ["0", "1", "2", "3"]},
        "variables": [
            {"name": "a", "values": ["0", "1"], "assignment": [0, 0, 1, 1]},
            {"name": "b", "values": ["0", "1"], "assignment": [0, 1, 1, 0]},
            {"name": "c", "values": ["0", "1", "2"], "assignment": [0, 1, 2, 2]},
        ],
        "group": {"generators": [[1, 2, 3, 0]]},
        "checks": [{"type": "permissibility", "variable": "a"}, check],
    }
    return scenario_text(data)


OCTAGON_A1_SEARCH = scenario_text(
    {
        "name": "octagon",
        "space": {"id": "octagon", "labels": [f"p{j}" for j in range(8)]},
        "variables": [{"name": "alternate", "values": ["even", "odd"], "assignment": [0, 1] * 4}],
        "group": {"generators": [[1, 2, 3, 4, 5, 6, 7, 0]]},
        "checks": [{"type": "a1-search", "theta": "alternate", "all-partitions": True}],
    }
)


# A declared group whose elements differ from those of the representation kind's
# own group, and the element the refusal names.
FOREIGN_GROUPS = {
    "klein-four-group": (
        cycle4(THEOREM2, group={"generators": [[1, 0, 3, 2], [2, 3, 0, 1]]}),
        "the declared group has [1, 0, 3, 2], which cyclic-dft's group lacks",
    ),
    "proper-subgroup": (
        cycle4(THEOREM2, group={"generators": [[2, 3, 0, 1]]}),
        "cyclic-dft's group has [1, 2, 3, 0], which the declared group lacks",
    ),
    "qubit-on-the-trivial-group": (
        minimal(group={"generators": [[0, 1]]}, representation={"kind": "qubit"}),
        "qubit's group has [1, 0], which the declared group lacks",
    ),
}


def perfbench_module(name: str):
    """A module of the benchmark, loaded by path; it imports nothing of finivar."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def perfbench_workloads():
    """The benchmark's scenario generators."""
    return perfbench_module("workloads")


# Imports finivar.cli and prints the (module, attr) pairs of {targets} that do
# not resolve in the loaded modules as the tracer resolves them.
TARGETS_IN_FRESH_PROCESS = """
import json, sys
import finivar.cli
missing = []
for module, attr in {targets!r}:
    owner, _, name = attr.rpartition(".")
    found = sys.modules.get(module)
    if owner:  # a method, a classmethod included, in its class's own namespace
        found = vars(getattr(found, owner, object)).get(name)
    else:
        found = getattr(found, name, None)
    if found is None or not (callable(found) or isinstance(found, classmethod)):
        missing.append([module, attr])
print(json.dumps(missing))
"""


def test_every_tracer_target_resolves_in_src():
    """The benchmark's tracer patches each target by name, right after a fresh
    ``import finivar.cli``: a function in its module's namespace, or a method
    in its class's own namespace.  A rename in ``src`` fails here too."""
    targets = [(t.module, t.attr) for t in perfbench_module("tracer").TARGETS]
    assert targets
    proc = fresh_python(TARGETS_IN_FRESH_PROCESS.format(targets=targets))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def malformed(text: str, field: str, *flags: str, id: str):
    """A scenario that must exit 2 naming ``field``, run with the CLI ``flags``."""
    return pytest.param(text, field, flags, id=id)


_SPACE = CYCLE4["space"]
# Loader refusals, each with the text that reaches it and its whole message.
REFUSALS = {
    "product-not-a-list": (
        cycle4(THEOREM1, space={**_SPACE, "product": 5}),
        "space.product: expected a list of coordinate pairs",
    ),
    "product-misses-a-point": (
        cycle4(THEOREM1, space={**_SPACE, "product": [[0, 0], [0, 1], [1, 0]]}),
        "space: product structure must cover every point",
    ),
    "variables-not-a-list": (
        cycle4(THEOREM1, variables=5),
        "variables: expected a list of variable definitions",
    ),
    "values-not-strings": (
        cycle4(THEOREM1).replace('"values": ["0", "1", "2", "3"]', '"values": [0, 1, 2, 3]'),
        "variables[0].values: expected a list of strings",
    ),
    "values-twice": (
        cycle4(THEOREM1, variables=[POSITION, {"name": "q", "values": ["a", "a"], "assignment": [0, 0, 1, 1]}]),
        "variables[1]: variable 'q' has duplicate value labels",
    ),
    "matrices-empty": (
        cycle4(THEOREM1, representation={"kind": "explicit", "matrices": []}),
        "representation.matrices: expected a nonempty list",
    ),
    "explicit-without-group": (
        without(explicit_cycle4(Z4), "group"),
        "representation: scenario declares no group",
    ),
    "matrix-empty": (
        explicit_cycle4(Z4, [np.zeros((0, 0), int)] * 4),
        "representation.matrices[0].matrix: expected a nonempty list of rows",
    ),
    "matrix-row-empty": (
        explicit_cycle4(Z4, [np.zeros((1, 0), int)] * 4),
        "representation.matrices[0].matrix[0]: expected a nonempty list",
    ),
    "matrix-rows-ragged": (
        explicit_cycle4(Z4).replace('"matrix": [[1, 0, 0, 0],', '"matrix": [[1, 0, 0],', 1),
        "representation.matrices[0].matrix: rows must share one length",
    ),
}


def refusal_cases(expected: bool, case=malformed) -> list:
    """``REFUSALS`` as ``case(text, field, id=...)``: those whose message says
    what the field expected, or the others."""
    return [
        case(text, message.split(": ", 1)[0], id=name)
        for name, (text, message) in REFUSALS.items()
        if message.split(": ", 1)[1].startswith("expected") == expected
    ]


class TestCli:
    def setup_method(self):
        self.runner = CliRunner()

    def test_run_builtin_clean(self):
        result = self.runner.invoke(main, ["run", "qubit"])
        assert result.exit_code == 0
        assert "scenario: qubit" in result.output
        assert "[           PASS]" in result.output

    def test_run_json_to_stdout(self):
        result = self.runner.invoke(main, ["run", "qubit", "--report", "-"])
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["scenario"] == "qubit"
        assert payload["summary"]["fail"] == 0
        assert payload["checks"]

    def test_run_writes_report_file(self, tmp_path):
        target = tmp_path / "report.json"
        first = self.runner.invoke(main, ["run", "qubit", "--report", str(target)])
        assert first.exit_code == 0
        assert f"report written to {target}" in first.output
        first_bytes = target.read_bytes()
        second = self.runner.invoke(main, ["run", "qubit", "--report", str(target)])
        assert second.exit_code == 0
        assert target.read_bytes() == first_bytes

    def test_run_scenario_file(self, tmp_path):
        target = tmp_path / "tiny.json"
        target.write_text(MINIMAL, encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 0

    def test_failing_check_exits_one(self, tmp_path):
        failing = minimal(
            space={"id": "pair", "labels": ["a", "b", "c", "d"]},
            variables=[{"name": "which", "values": ["lo", "hi"], "assignment": [0, 0, 1, 1]}],
            group={"generators": [[1, 2, 3, 0]]},
        )
        target = tmp_path / "failing.json"
        target.write_text(failing, encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 1
        assert "[           FAIL]" in result.output

    def test_missing_file_exits_two(self):
        result = self.runner.invoke(main, ["run", "definitely-not-here.json"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_a_file_that_is_not_utf8_exits_two_naming_the_byte(self, tmp_path, newline):
        target = tmp_path / "bad.json"
        text = json.dumps(MINIMAL_DATA, indent=2).replace('"a"', '"\u00e4\udcff"', 1).replace("\n", newline)
        target.write_bytes(text.encode("utf-8", "surrogateescape"))  # 0xff stands after the ä
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2, result.output
        assert result.output.endswith(
            f"Error: {target}: invalid UTF-8 at line 6, column 9: byte 0xff: invalid start byte\n"
        )

    def test_parse_error_exits_two(self, tmp_path):
        target = tmp_path / "broken.json"
        target.write_text('{"name": [unclosed', encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2
        assert "invalid JSON" in result.output

    @pytest.mark.parametrize(
        "text, key",
        [
            pytest.param(
                # json would keep the second list, and the failing first check would vanish.
                cycle4({**PERMISSIBILITY, "expect": False})[:-1]
                + f', "checks": [{json.dumps(PERMISSIBILITY)}]}}',
                "checks",
                id="top-level",
            ),
            pytest.param(
                cycle4({**PERMISSIBILITY, "expect": False}).replace(
                    '"expect": false', '"expect": false, "expect": true'
                ),
                "expect",
                id="inside-checks[0]",
            ),
            pytest.param(
                # json would keep the qubit, and the file would run another representation.
                cycle4(PERMISSIBILITY).replace('"kind": "cyclic-dft"', '"kind": "cyclic-dft", "kind": "qubit"'),
                "kind",
                id="inside-representation",
            ),
        ],
    )
    def test_a_repeated_key_exits_two_naming_it(self, tmp_path, text, key):
        target = tmp_path / "repeated.json"
        target.write_text(text, encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2, result.output
        assert result.output.endswith(f"Error: {target}: key {key!r} written twice in one object\n")

    @pytest.mark.parametrize(
        "text, where",
        [
            ('# a header\n{"name": "x",\n "space": {"id": "a"\n  "labels": ["0"]}}\n', "line 4, column 3"),
            ('{"name": "x",\n "space": \x01}\n', "line 2, column 11"),  # a character json does not allow
            ("", "line 1, column 1"),
            ("# a header\n#\n", "line 3, column 1"),  # no document after the header
        ],
        ids=["unclosed-mapping", "control-character", "empty", "header-only"],
    )
    def test_parse_error_names_line_and_column(self, tmp_path, text, where):
        target = tmp_path / "broken.json"
        target.write_text(text, encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2
        assert f"invalid JSON at {where}: " in result.output
        assert result.output.count("line ") == 1

    @pytest.mark.parametrize("header", ["", "# a header\n#\n"], ids=["bare", "header"])
    @pytest.mark.parametrize("field", ["variable", "assignment", "negative-generator"])
    def test_an_integer_past_the_digit_limit_exits_two_naming_its_place(self, tmp_path, header, field):
        """Python's ``int`` refuses a decimal literal of more than 4,300 digits;
        the load names the literal's line and column, its sign included, past
        a longer string of digits and a float whose digits int never reads."""
        data = {"tolerances": {"unitary": "FLOAT"}, **CYCLE4, "name": LONG_INTEGER, "checks": [PERMISSIBILITY]}
        if field == "variable":
            data["checks"] = [{**PERMISSIBILITY, "variable": "LONG"}]
        elif field == "assignment":
            data["variables"] = [{**POSITION, "assignment": [0, 1, 2, "LONG"]}]
        else:
            data["group"] = {"generators": [[1, 2, 3, "LONG"]]}
        text = header + json.dumps(data, indent=1).replace('"FLOAT"', f"0.{LONG_INTEGER}e-{LONG_INTEGER}")
        at = text.index('"LONG"')
        text = text.replace('"LONG"', ("-" if field.startswith("negative") else "") + LONG_INTEGER)
        line, column = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
        target = tmp_path / "long.json"
        target.write_text(text, encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2, result.output
        assert result.output.endswith(
            f"Error: {target}: the integer at line {line}, column {column} "
            f"has more than {sys.get_int_max_str_digits()} decimal digits\n"
        )
        assert "Traceback" not in result.output

    def test_representation_size_mismatch_exits_two(self, tmp_path):
        target = tmp_path / "mismatch.json"
        target.write_text(
            cycle4(THEOREM1, representation={"kind": "cyclic-dft", "n": 5}), encoding="utf-8"
        )
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2
        assert "representation.n" in result.output

    @pytest.mark.parametrize(
        "check, value, field",
        [
            (check, value, "base_point")
            for check in ("theorem1", "theorem2", "eq1")
            for value in ('"x"', "99", "4", "-1", "1.5", "true", "false")
        ]
        + [("eq1", value, "index") for value in ("true", '"0"')]
        + [
            ("a2-falsify", "true", "max-n"),
            ("a2-falsify", "0", "max-n"),
            ("a2-falsify", "7", "max-n"),
            ("singlet-delta", "true", "directions"),
            ("singlet-delta", "-1", "directions"),
            ("singlet-delta", "false", "seed"),
            ("singlet-delta", "-1", "seed"),
        ]
        + [("eq1", value, "index") for value in ("-1", "4")],
    )
    def test_malformed_integer_parameter_exits_two(self, tmp_path, check, value, field):
        target = tmp_path / "bad.json"
        target.write_text(cycle4({**CHECKS[check], field: json.loads(value)}), encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2, result.output
        assert f"checks[0].{field}: expected" in result.output

    @pytest.mark.parametrize(
        "text, field, flags",
        [
            malformed(cycle4({**THEOREM1, "eta": [1]}), "checks[0].eta", id="eta"),
            malformed(
                cycle4({**EQ1, "target": {"variable": [1]}}),
                "checks[0].target.variable",
                id="target-variable",
            ),
            malformed(
                cycle4({**PERMISSIBILITY, "expect": "sometimes"}),
                "checks[0].expect",
                id="expect",
            ),
            malformed(
                cycle4({**PERMISSIBILITY, "expected": False}),
                "checks[0].expected",
                id="unknown-parameter-expected",
            ),
            malformed(
                cycle4({**CHECKS["a2-falsify"], "max_n": 6}),
                "checks[0].max_n",
                id="unknown-parameter-max_n",
            ),
            malformed(
                cycle4({**THEOREM2, "generators": [[1, 2, 3, 0]]}),
                "checks[0].generators",
                id="theorem2-generators",
            ),
            malformed(
                cycle4({**EQ1, "generators": [[1, 2, 3, 0]]}),
                "checks[0].generators",
                id="eq1-generators",
            ),
            malformed(
                cycle4({"type": "a2-classify", "members": ["position", "position"]}),
                "checks[0].members",
                id="member-twice",
            ),
            malformed(
                cycle4(THEOREM1, informational="no"),
                "informational",
                id="informational",
            ),
            malformed(
                cycle4(THEOREM1, group={"generators": [[1, 2, 3, 0], [True, False, 2, 3]]}),
                "group.generators[1]",
                id="bool-generator",
            ),
            malformed(
                cycle4(THEOREM1, representation={"kind": "qubit"}),
                "representation.kind",
                id="qubit-kind",
            ),
            malformed(
                cycle4(THEOREM1, space={**_SPACE, "prodcut": [[0, 0], [0, 1], [1, 0], [1, 1]]}),
                "space.prodcut",
                id="space-unknown-key",
            ),
            malformed(
                cycle4(THEOREM1, variables=[{**POSITION, "value": ["z"]}]),
                "variables[0].value",
                id="variable-unknown-key",
            ),
            malformed(
                cycle4(THEOREM1, group={"generater": [[0, 1, 2, 3]], **CYCLE4["group"]}),
                "group.generater",
                id="group-unknown-key",
            ),
            malformed(
                cycle4(THEOREM1, representation={**CYCLE4["representation"], "matrices": []}),
                "representation.matrices",
                id="cyclic-dft-matrices",
            ),
            malformed(
                explicit_cycle4(Z4).replace('"kind": "explicit"', '"kind": "explicit", "n": 4'),
                "representation.n",
                id="explicit-n",
            ),
            malformed(
                explicit_cycle4(Z4).replace('"matrix":', '"weight": 1, "matrix":', 1),
                "representation.matrices[0].weight",
                id="matrix-entry-unknown-key",
            ),
            malformed(
                cycle4({**EQ1, "target": {"variable": "position", "index": 3}}),
                "checks[0].target.index",
                id="target-unknown-key",
            ),
            malformed(
                cycle4({**THEOREM1, "generators": [[1, 2, 3, 0]]}),
                "checks[0].generators",
                id="theorem1-generators",
            ),
            malformed(
                cycle4({**THEOREM1, "generators": 5}),
                "checks[0].generators",
                id="theorem1-generators-not-a-list",
            ),
            malformed(
                cycle4({**CHECKS["a2-falsify"], "max-n": "lots"}),
                "checks[0].max-n",
                "--max-n",
                "4",
                id="max-n-with-the-flag",
            ),
            malformed(
                cycle4({**EQ1, "target": {"variable": "position", "direction": [1, 0, 0]}}),
                "checks[0].target",
                id="target-two-keys",
            ),
            malformed(
                cycle4({**EQ1, "target": {}}),
                "checks[0].target",
                id="target-no-key",
            ),
            malformed(
                cycle4({**EQ1, "target": [1, 0, 0]}),
                "checks[0].target",
                id="target-not-a-mapping",
            ),
            malformed(
                cycle4({**EQ1, "index": [0]}),
                "checks[0].index",
                id="eq1-index-list",
            ),
        ]
        + [
            malformed(
                cycle4({**CHECKS["a2-falsify"], "name": value}),
                "checks[0].name",
                id=f"name-{name}",
            )
            for name, value in (("mapping", {"nested": [1, 2]}), ("null", None), ("empty", ""))
        ]
        + [
            malformed(
                cycle4({**EQ1, "target": {"direction": d}}),
                "checks[0].target.direction",
                id=f"direction-{name}",
            )
            for name, d in (
                ("string", "x"),
                ("length", [1, 0]),
                ("zero", [0, 0, 0]),
                ("nan", [math.nan, 0, 1]),
                ("inf", [math.inf, 0, 0]),
                ("dimension", [0, 0, 1]),  # a spin direction on a four-dimensional representation
            )
        ]
        + [
            malformed(
                cycle4(THEOREM1, tolerances={"hermitian": value}),
                "tolerances.hermitian",
                id=f"tolerance-{name}",
            )
            for name, value in (("bool", True), ("nan", math.nan), ("inf", math.inf))
        ]
        + refusal_cases(expected=True),
    )
    def test_malformed_field_exits_two(self, tmp_path, text, field, flags):
        target = tmp_path / "bad.json"
        target.write_text(text, encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target), *flags])
        assert result.exit_code == 2, result.output
        assert f"{field}: expected" in result.output

    @pytest.mark.parametrize(
        "direction, same_as",
        [("[1.0e-13, 0, 0]", "[1, 0, 0]"), ("[1.0e+200, 1.0e+200, 0]", "[1, 1, 0]")],
    )
    def test_a_tiny_or_huge_direction_is_its_unit_vector(self, direction, same_as):
        # Each nonzero finite direction loads, without a warning, and gives
        # the report of a moderate multiple of it.
        text = builtin_mod.builtin_text("qubit")
        assert '"direction": [1, 0, 0]' in text
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scaled = run_scenario(loads(text.replace("[1, 0, 0]", direction)))
        plain = run_scenario(loads(text.replace("[1, 0, 0]", same_as)))
        assert scaled.to_json() == plain.to_json()
        assert {c.status for c in scaled.checks} == {STATUS_PASS}

    @pytest.mark.parametrize(
        "check, message",
        [
            pytest.param(
                {"type": "a2-classify", "members": []},
                "a variable family needs at least one generator",
                id="a2-classify-no-members",
            ),
            pytest.param(
                {"type": "a1-search", "theta": "a", "members": []},
                "a variable family needs at least one generator",
                id="a1-search-no-members",
            ),
            pytest.param(
                {"type": "a2-classify", "members": ["a"]},
                "expected at least 3 variables, got 1",
                id="a2-classify-one-member",
            ),
            pytest.param(
                {"type": "a2-classify", "members": ["a", "b"]},
                "expected at least 3 variables, got 2",
                id="a2-classify-two-members",
            ),
            pytest.param(
                {"type": "a2-classify"},
                "family members must share one value-space cardinality, got [2, 3]",
                id="a2-classify-default-members-of-two-value-counts",
            ),
            pytest.param(
                {"type": "a1-search", "theta": "a", "members": ["a", "c"]},
                "family members must share one value-space cardinality, got [2, 3]",
                id="a1-search-members-of-two-value-counts",
            ),
            pytest.param(
                {"type": "a1-search", "theta": "a"},
                "family members must share one value-space cardinality, got [2, 3]",
                id="a1-search-default-members-of-two-value-counts",
            ),
        ],
    )
    def test_malformed_members_exit_two_when_loading(self, tmp_path, monkeypatch, check, message):
        calls = []
        monkeypatch.setattr("finivar.scenario.classify_thoughts", lambda *a: calls.append(a))
        monkeypatch.setattr("finivar.scenario.theorem_a1_search", lambda *a, **k: calls.append(a))
        target = tmp_path / "members.json"
        target.write_text(members_z4(check), encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2, result.output
        assert f"Error: checks[1].members: {message}" in result.output
        assert calls == []

    @pytest.mark.parametrize(
        "text, field",
        [
            pytest.param(
                explicit_cycle4([[0, 0, 2, 3]] + Z4[1:]),
                "representation.matrices[0].element",
                id="element-not-a-permutation",
            ),
            pytest.param(
                explicit_cycle4([[0, 1, 2]] + Z4[1:]),
                "representation.matrices[0].element",
                id="element-length",
            ),
            pytest.param(
                explicit_cycle4(Z4, [np.eye(2, dtype=int)] + [np.eye(3, dtype=int)] * 3),
                "representation.matrices",
                id="matrix-sizes",
            ),
            pytest.param(
                explicit_cycle4(Z4 + [Z4[1]]),
                "representation.matrices[4].element",
                id="element-twice",
            ),
            pytest.param(
                minimal(base_state=[1, 0]),
                "base_state",
                id="base-state-without-representation",
            ),
            pytest.param(
                cycle4(THEOREM1, base_state=[1, 0, 0]),
                "base_state",
                id="base-state-length",
            ),
            pytest.param(
                cycle4(THEOREM1, base_state=[0, 0, 0, 0]),
                "base_state",
                id="base-state-zero",
            ),
            pytest.param(
                minimal(
                    checks=[{**WHICH, "type": "theorem1-hypotheses"}],
                    representation={"kind": "qubit"},
                    base_state=[1.0e308, 1.0e308],
                ),
                "base_state",
                id="base-state-norm-overflow",
            ),
            pytest.param(
                minimal(
                    checks=[{**WHICH, "type": "theorem1-hypotheses"}],
                    representation={
                        "kind": "explicit",
                        "matrices": [
                            {"element": [0, 1], "matrix": [[1, 0], [0, 1]]},
                            {"element": [1, 0], "matrix": [[0, 0], [0, 0]]},
                        ],
                    },
                    base_state=[1, 0],
                ),
                "representation.matrices[1].matrix",
                id="coherent-state-zero",
            ),
            pytest.param(  # listed at ids 2, 3, 1, 0: ids 3 and 1 are zero, and 3 is listed first
                explicit_cycle4(
                    [Z4[2], Z4[3], Z4[1], Z4[0]],
                    [np.eye(4, dtype=int)[:, Z4[2]], *[np.zeros((4, 4), int)] * 2, np.eye(4, dtype=int)],
                ),
                "representation.matrices[1].matrix",
                id="coherent-state-zero-first-listed",
            ),
            pytest.param(  # [1, 0, 2, 3] is no element of Z4
                explicit_cycle4([Z4[0], [1, 0, 2, 3], Z4[2], Z4[3]]),
                "representation.matrices[1].element",
                id="element-outside-the-group",
            ),
            pytest.param(cyclic_text(20_000), "representation.n", id="cyclic-dft-past-the-bound"),
        ]
        + [
            pytest.param(
                cycle4(THEOREM1, base_state=state),
                "base_state[0]",
                id=f"base-state-{name}",
            )
            for name, state in (
                ("bool", [True, False, False, False]),
                ("nan", [math.nan, 0, 0, 0]),
                ("pair-inf", [[1, math.inf], 0, 0, 0]),
            )
        ]
        + [
            pytest.param(
                explicit_cycle4(Z4, [np.eye(4, dtype=bool)[:, element] for element in Z4]),
                "representation.matrices[0].matrix[0][0]",
                id="matrix-entry-bool",
            ),
            pytest.param(
                explicit_cycle4(Z4).replace('"matrix": [[1, ', '"matrix": [[NaN, ', 1),
                "representation.matrices[0].matrix[0][0]",
                id="matrix-entry-nan",
            ),
        ]
        + refusal_cases(expected=False, case=pytest.param),
    )
    def test_malformed_representation_exits_two(self, tmp_path, text, field):
        target = tmp_path / "bad.json"
        target.write_text(text, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2, result.output
        assert f"Error: {field}: " in result.output
        assert not caught and "Warning" not in result.stderr

    @pytest.mark.parametrize("name", REFUSALS)
    def test_refusal_messages_are_kept_whole(self, name):
        text, message = REFUSALS[name]
        with pytest.raises(ScenarioError) as refused:
            loads(text)
        assert str(refused.value) == message

    def test_a_group_past_the_closure_cap_exits_two(self, tmp_path):
        target = tmp_path / "shift.json"
        target.write_text(shift_text(20_000), encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2, result.output
        assert "Error: group.generators: group closure exceeded the cap of" in result.output

    @pytest.mark.parametrize("name", FOREIGN_GROUPS)
    def test_a_kind_on_a_declared_group_with_other_elements_exits_two(self, tmp_path, name):
        text, element = FOREIGN_GROUPS[name]
        target = tmp_path / "foreign.json"
        target.write_text(text, encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2, result.output
        assert (
            f"Error: representation.kind: expected the declared group's elements: {element}"
            in result.output
        )

    def test_malformed_later_check_exits_two_before_any_check_runs(self, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr("finivar.scenario.exhaustive_falsifier", lambda *a: calls.append(a))
        monkeypatch.setattr("finivar.representations.build_operator", lambda *a: calls.append(a))
        target = tmp_path / "late.json"
        text = cycle4({**CHECKS["a2-falsify"], "max-n": 6}, {**EQ1, "index": True})
        target.write_text(text, encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2, result.output
        assert "Error: checks[1].index: expected an integer" in result.output
        assert calls == []

    @pytest.mark.parametrize(
        "check", [THEOREM2, EQ1, THEOREM1, {**THEOREM1, "eta": "position"}],
        ids=["theorem2", "eq1", "theorem1", "theorem1-eta-without-product"],
    )
    def test_operator_check_without_a_representation_exits_two_when_loading(
        self, tmp_path, monkeypatch, check
    ):
        calls = []
        monkeypatch.setattr("finivar.scenario.exhaustive_falsifier", lambda *a: calls.append(a))
        target = tmp_path / "bare.json"
        bare = without(cycle4({**CHECKS["a2-falsify"], "max-n": 6}, check), "representation")
        target.write_text(bare, encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2, result.output
        assert (
            "Error: checks[1].type: the check builds operators; the scenario declares no "
            "representation" in result.output
        )
        assert calls == []

    @pytest.mark.parametrize("command", ["run", "emit"])
    def test_output_in_a_missing_directory_exits_two_before_loading(
        self, tmp_path, monkeypatch, command
    ):
        loaded = []
        monkeypatch.setattr(cli_mod, "load_builtin", lambda name: loaded.append(name))
        monkeypatch.setattr(cli_mod, "builtin_text", lambda name: loaded.append(name))
        option = {"run": "--report", "emit": "--output"}[command]
        path = tmp_path / "missing" / "out.txt"
        result = self.runner.invoke(main, [command, "qubit", option, str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Invalid value for '{option}': directory '{path.parent}' does not exist" in (
            result.output
        )
        assert loaded == [] and not path.parent.exists()

    @pytest.mark.parametrize("command", ["run", "emit"])
    def test_a_failed_write_exits_two_naming_the_path(self, tmp_path, monkeypatch, command):
        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", path)

        monkeypatch.setattr(cli_mod, "open", refuse, raising=False)
        option = {"run": "--report", "emit": "--output"}[command]
        path = tmp_path / "out.txt"
        result = self.runner.invoke(main, [command, "qubit", option, str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert f"Error: cannot write {path}: Permission denied" in result.output

    def test_max_n_flag_above_the_census_limit_exits_two(self):
        result = self.runner.invoke(main, ["run", "a2-smoke", "--max-n", "8"])
        assert result.exit_code == 2, result.output
        assert "Invalid value for '--max-n'" in result.output

    @pytest.mark.parametrize(
        "scenario, value", [("qubit", "99"), ("qubit", "-5"), ("a2-smoke", "7"), ("a2-smoke", "0")]
    )
    def test_max_n_out_of_range_exits_two_before_any_check(self, monkeypatch, scenario, value):
        ran = []
        monkeypatch.setattr(cli_mod, "run_scenario", lambda *args: ran.append(args))
        result = self.runner.invoke(main, ["run", scenario, "--max-n", value])
        assert result.exit_code == 2, result.output
        assert f"Invalid value for '--max-n': {value} is not in the range 1<=x<=6" in result.output
        assert not ran

    @pytest.mark.parametrize("value", ["1", "6"])
    def test_max_n_at_either_end_of_the_range_runs(self, value):
        result = self.runner.invoke(main, ["run", "qubit", "--report", "-", "--max-n", value])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["flags"]["max_n_override"] == int(value)

    def test_base_point_in_range_runs(self, tmp_path):
        target = tmp_path / "good.json"
        target.write_text(cycle4({**THEOREM2, "base_point": 3}), encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 0, result.output

    def test_zero_tolerance_scale_exits_two(self):
        result = self.runner.invoke(main, ["run", "qubit", "--tolerance-scale", "0"])
        assert result.exit_code == 2
        assert "must be positive" in result.output

    @pytest.mark.parametrize("scale", ["nan", "inf"])
    def test_non_finite_tolerance_scale_exits_two(self, scale):
        result = self.runner.invoke(main, ["run", "qubit", "--tolerance-scale", scale])
        assert result.exit_code == 2, result.output
        assert "'--tolerance-scale': must be positive and finite" in result.output

    def test_tolerance_overflowing_after_scaling_exits_two(self, tmp_path):
        target = tmp_path / "huge.json"
        target.write_text(minimal(tolerances={"hermitian": 1.0e300}), encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target), "--tolerance-scale", "1e10"])
        assert result.exit_code == 2, result.output
        assert "Error: tolerances.hermitian: overflows to inf" in result.output

    @pytest.mark.parametrize(
        "tolerances, scale, key",
        [({}, "1e-320", "hermitian"), ({"commutant": 1.0e-300}, "1e-30", "commutant")],
        ids=["every-default", "one-override"],
    )
    def test_tolerance_underflowing_after_scaling_exits_two(self, tmp_path, tolerances, scale, key):
        """A tolerance of 0.0 no check could meet; the first such key is named."""
        target = tmp_path / "tiny.json"
        target.write_text(minimal(tolerances=tolerances), encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target), "--tolerance-scale", scale])
        assert result.exit_code == 2, result.output
        assert f"Error: tolerances.{key}: underflows to 0.0 after scaling" in result.output

    def test_one_point_report_is_strict_json(self, tmp_path):
        """A group with no pair of elements reports min_distance null, not Infinity."""

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        target = tmp_path / "one-point.json"
        target.write_text(ONE_POINT, encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target), "--report", "-"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output, parse_constant=refuse)
        injectivity = payload["checks"][0]["details"]["coherent_injectivity"]
        assert injectivity == {"ok": True, "min_distance": None, "max_overlap": 0.0}

    def test_overlap_tolerance_of_one_exits_two(self, tmp_path):
        scaled = self.runner.invoke(main, ["run", "cyclic-4", "--tolerance-scale", "1e8"])
        assert scaled.exit_code == 2
        assert "tolerances.injectivity_overlap" in scaled.output
        target = tmp_path / "grouping.json"
        target.write_text(
            scenario_text(builtin_data("cyclic-4"), tolerances={"orthogonal_grouping": 1.5}), encoding="utf-8"
        )
        override = self.runner.invoke(main, ["run", str(target)])
        assert override.exit_code == 2
        assert "tolerances.orthogonal_grouping" in override.output

    def test_max_n_override(self):
        result = self.runner.invoke(
            main, ["run", "a2-smoke", "--report", "-", "--max-n", "4"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        falsify = [c for c in payload["checks"] if c["type"] == "a2-falsify"]
        assert falsify and falsify[0]["details"]["max_n"] == 4

    def test_exhaustive_relatedness_option_is_gone(self):
        result = self.runner.invoke(main, ["run", "parity-z4", "--exhaustive-relatedness"])
        assert result.exit_code == 2, result.output
        assert "No such option '--exhaustive-relatedness'" in result.output

    def test_run_lists_three_options(self):
        result = self.runner.invoke(main, ["run", "--help"])
        assert result.exit_code == 0, result.output
        options = re.findall(r"^  (--[a-z-]+)", result.output, re.MULTILINE)
        assert options == ["--report", "--tolerance-scale", "--max-n", "--help"]

    def test_partitions_past_six_points_are_counted(self, tmp_path):
        target = tmp_path / "octagon.json"
        target.write_text(OCTAGON_A1_SEARCH, encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target), "--report", "-"])
        assert result.exit_code == 0, result.output
        (check,) = json.loads(result.output)["checks"]
        assert check["status"] == STATUS_PASS
        # The 35 partitions of 8 points into two blocks of 4, less alternate's own.
        assert check["details"]["candidates_checked"] == 34

    def test_list_shows_descriptions(self):
        result = self.runner.invoke(main, ["list"])
        assert result.exit_code == 0
        assert result.output.splitlines() == [
            "qubit: Two-point value space carrying the flip action; the operator pipeline",
            "cyclic-4: Four points on a circle under the shift action, with its 0/1 shift matrices,",
            "singlet: The antisymmetric pair state: spectral verification of the matched-component",
            "parity-z4: Negative-path demonstrations on the four-point circle: a variable that does",
            "a2-smoke: Three rotated arcs on a six-point circle fall into one relatedness class",
            "rotation-sign-probe: Exploratory probe, never gating: the sign of the first coordinate at eight",
        ]

    @pytest.mark.parametrize("name", builtin_mod.builtin_names())
    def test_emit_round_trips(self, tmp_path, name):
        emitted = self.runner.invoke(main, ["emit", name])
        assert emitted.exit_code == 0
        assert emitted.output == builtin_mod.builtin_text(name)
        target = tmp_path / f"{name}.json"
        to_file = self.runner.invoke(main, ["emit", name, "--output", str(target)])
        assert to_file.exit_code == 0
        rerun = self.runner.invoke(main, ["run", str(target), "--report", "-"])
        by_name = self.runner.invoke(main, ["run", name, "--report", "-"])
        assert (rerun.exit_code, rerun.output) == (by_name.exit_code, by_name.output)
        assert by_name.exit_code == 0 and by_name.output.startswith("{")

    def test_emit_to_dash_prints_the_scenario_and_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = self.runner.invoke(main, ["emit", "qubit", "--output", "-"])
        assert result.exit_code == 0, result.output
        assert result.output == self.runner.invoke(main, ["emit", "qubit"]).output
        assert result.output == builtin_mod.builtin_text("qubit")
        assert list(tmp_path.iterdir()) == []

    def test_emit_unknown_lists_choices(self):
        result = self.runner.invoke(main, ["emit", "nope"])
        assert result.exit_code == 2
        assert "choices:" in result.output
        assert "qubit" in result.output

    def test_selftest_passes(self):
        result = self.runner.invoke(main, ["selftest"])
        assert result.exit_code == 0
        assert "selftest passed: 6 scenarios clean" in result.output
        assert result.output.count(": ok") == 6
