"""Scenario parsing, report serialization, built-ins, and the command line."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from finivar import builtins as builtin_mod
from finivar import cli as cli_mod
from finivar.cli import main
from finivar.groups import Permutation
from finivar.report import (
    STATUS_FAIL,
    STATUS_PASS,
    CheckRecord,
    VerificationReport,
    jsonable,
)
from finivar.representations import cyclic_dft_rep, qubit_rep
from finivar.runner import run_scenario
from finivar.scenario import CHECK_TYPES, ScenarioError, load_path, loads

from test_runner import cycle24_text

MINIMAL = """
name: tiny
space:
  id: pair
  labels: ["a", "b"]
variables:
  - name: which
    values: ["first", "second"]
    assignment: [0, 1]
group:
  generators:
    - [1, 0]
checks:
  - type: permissibility
    variable: which
"""


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
        assert scenario.checks[0].params == {"variable": "which"}
        assert not scenario.informational

    def test_invalid_yaml_names_location(self):
        with pytest.raises(ScenarioError, match="invalid YAML"):
            loads("name: [unclosed")

    def test_non_mapping_document(self):
        expect_error("- just\n- a\n- list\n", "expected a mapping")

    def test_unknown_field(self):
        expect_error(MINIMAL + "\nbanana: 1\n", "banana: unknown scenario field")

    def test_missing_name(self):
        expect_error("space: {id: s, labels: ['a', 'b']}\nchecks: [{type: theorem2}]",
                     "name: expected a nonempty string")

    def test_missing_space(self):
        expect_error("name: x\nchecks: [{type: theorem2}]",
                     "space: scenario must declare a point space")

    def test_space_labels_must_be_strings(self):
        expect_error("name: x\nspace: {id: s, labels: [1, 2]}\nchecks: [{type: theorem2}]",
                     "space.labels: expected a list of strings")

    def test_space_errors_carry_path(self):
        expect_error("name: x\nspace: {id: s, labels: ['a', 'a']}\nchecks: [{type: theorem2}]",
                     "space: ")

    def test_product_coordinate_pairs(self):
        text = """
name: x
space:
  id: grid
  labels: ["00", "01", "10", "11"]
  product: [[0, 0], [0, 1], [1, 0], [1, 1]]
checks:
  - type: theorem2
"""
        scenario = loads(text)
        assert scenario.space.product == ((0, 0), (0, 1), (1, 0), (1, 1))

    def test_product_pair_shape_enforced(self):
        expect_error(
            "name: x\nspace: {id: s, labels: ['a', 'b'], product: [[0, 0, 0], [0, 1]]}\n"
            "checks: [{type: theorem2}]",
            r"space.product\[0\]: expected a coordinate pair",
        )

    def test_variable_errors_carry_index(self):
        expect_error(
            MINIMAL.replace("assignment: [0, 1]", "assignment: [0, 7]"),
            r"variables\[0\]",
        )

    def test_duplicate_variable_names(self):
        text = MINIMAL.replace(
            "group:",
            "  - name: which\n    values: [\"x\", \"y\"]\n    assignment: [1, 0]\ngroup:",
        )
        expect_error(text, "duplicate variable name")

    def test_generator_length_checked(self):
        expect_error(
            MINIMAL.replace("[1, 0]", "[1, 0, 2]"),
            r"group.generators\[0\]: image array has length 3, space has 2 points",
        )

    def test_generators_must_be_list(self):
        expect_error(
            MINIMAL.replace("generators:\n    - [1, 0]", "generators: 5"),
            "group.generators: expected a list of image arrays",
        )

    def test_checks_required(self):
        expect_error(
            MINIMAL.split("checks:")[0],
            "checks: scenario must request at least one check",
        )

    def test_unknown_check_type(self):
        expect_error(
            MINIMAL.replace("type: permissibility", "type: sorcery"),
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
            MINIMAL + "\ntolerances:\n  hermitian: -1\n",
            "tolerances.hermitian: expected a positive number",
        )

    def test_tolerance_overrides_parsed(self):
        scenario = loads(MINIMAL + "\ntolerances:\n  hermitian: 0.5\n")
        assert scenario.tolerance_overrides == {"hermitian": 0.5}

    def test_base_state_real_and_complex_entries(self):
        scenario = loads(MINIMAL + "\nrepresentation: {kind: qubit}\nbase_state: [1, [0, 1]]\n")
        assert np.allclose(scenario.coherent_family.base, np.array([1.0, 1.0j]))

    def test_base_state_entry_validation(self):
        expect_error(
            MINIMAL + "\nrepresentation: {kind: qubit}\nbase_state: [1, [0, 1, 2]]\n",
            r"base_state\[1\]: expected a number or an \[re, im\] pair",
        )

    def test_representation_kinds(self):
        flip = Permutation((1, 0))
        qubit = loads(MINIMAL + "\nrepresentation: {kind: qubit}\n").coherent_family.rep
        assert np.array_equal(qubit(flip), qubit_rep()(flip))
        cyclic = loads(MINIMAL + "\nrepresentation: {kind: cyclic-dft, n: 2}\n").coherent_family.rep
        assert np.array_equal(cyclic(flip), cyclic_dft_rep(2)(flip))

    def test_representation_unknown_kind(self):
        expect_error(
            MINIMAL + "\nrepresentation: {kind: spooky}\n",
            "representation.kind: unknown kind 'spooky'",
        )

    def test_representation_cyclic_needs_n(self):
        expect_error(
            MINIMAL + "\nrepresentation: {kind: cyclic-dft}\n",
            "representation.n: expected a positive integer",
        )

    def test_representation_n_must_match_the_space(self):
        expect_error(
            MINIMAL + "\nrepresentation: {kind: cyclic-dft, n: 5}\n",
            "representation.n: expected the space size 2, got 5",
        )

    def test_explicit_representation_round_trip(self):
        text = MINIMAL + """
representation:
  kind: explicit
  matrices:
    - element: [0, 1]
      matrix: [[1, 0], [0, 1]]
    - element: [1, 0]
      matrix: [[0, 1], [1, 0]]
"""
        rep = loads(text).coherent_family.rep
        assert np.allclose(rep(Permutation((1, 0))), np.array([[0, 1], [1, 0]]))

    def test_explicit_representation_must_cover_group(self):
        text = MINIMAL + """
representation:
  kind: explicit
  matrices:
    - element: [0, 1]
      matrix: [[1, 0], [0, 1]]
"""
        with pytest.raises(ScenarioError, match="every group element"):
            loads(text)

    def test_operator_check_requires_a_representation(self):
        scenario = loads(MINIMAL.replace("permissibility", "theorem1-hypotheses"))
        with pytest.raises(ScenarioError, match="representation: scenario declares no"):
            run_scenario(scenario)

    def test_unknown_variable_lookup(self):
        scenario = loads(MINIMAL)
        with pytest.raises(ScenarioError, match="unknown variable 'missing'"):
            scenario.variable("missing")

    def test_require_group_when_absent(self):
        text = MINIMAL.replace("group:\n  generators:\n    - [1, 0]\n", "")
        scenario = loads(text)
        with pytest.raises(ScenarioError, match="declares no group"):
            scenario.require_group()

    def test_group_for_override(self):
        scenario = loads(MINIMAL)
        override = scenario.group_for({"generators": [[0, 1]]}, "checks[0]")
        assert override.order == 1
        assert scenario.group_for({}, "checks[0]") is scenario.group

    def test_check_label_prefers_subject(self):
        scenario = loads(MINIMAL)
        assert scenario.checks[0].label() == "permissibility:which"

    def test_informational_flag(self):
        scenario = loads(MINIMAL + "\ninformational: true\n")
        assert scenario.informational

    def test_load_path_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="no-such"):
            load_path(str(tmp_path / "no-such.yaml"))

    def test_load_path_reads_file(self, tmp_path):
        target = tmp_path / "scenario.yaml"
        target.write_text(MINIMAL, encoding="utf-8")
        assert load_path(str(target)).name == "tiny"


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
class TestYamlLoaders:
    def test_libyaml_is_used_where_available(self):
        from finivar import scenario

        assert scenario._YAML_LOADER is yaml.CSafeLoader

    @pytest.mark.parametrize("name", [*builtin_mod.builtin_names(), "cycle-24"])
    def test_both_loaders_give_equal_data(self, name):
        text = cycle24_text() if name == "cycle-24" else builtin_mod.builtin_text(name)
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        assert fast == yaml.load(text, Loader=yaml.SafeLoader)
        assert fast["name"] == name


class TestJsonable:
    def test_permutation_as_image_list(self):
        assert jsonable(Permutation((2, 0, 1))) == [2, 0, 1]

    def test_complex_as_pair(self):
        assert jsonable(1 + 2j) == [1.0, 2.0]
        assert jsonable(np.complex128(3 - 1j)) == [3.0, -1.0]

    def test_numpy_scalars(self):
        assert jsonable(np.float64(0.5)) == 0.5
        assert jsonable(np.int64(7)) == 7
        assert jsonable(np.bool_(True)) is True

    def test_arrays_and_containers(self):
        assert jsonable(np.array([1.0, 2.0])) == [1.0, 2.0]
        assert jsonable({"k": (1, 2)}) == {"k": [1, 2]}
        assert jsonable({1: "x"}) == {"1": "x"}

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError, match="cannot serialize"):
            jsonable(object())


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
print(json.dumps([code, "numpy" in sys.modules]), file=sys.stderr)
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
        ],
    )
    def test_builtin_run(self, name, loads_numpy):
        proc = fresh_python(RUN_IN_FRESH_PROCESS.format(name=name))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr.splitlines()[-1]) == [0, loads_numpy]
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


CYCLE4 = """
name: cycle-4
space:
  id: cycle-4
  labels: ["0", "1", "2", "3"]
variables:
  - name: position
    values: ["0", "1", "2", "3"]
    assignment: [0, 1, 2, 3]
group:
  generators:
    - [1, 2, 3, 0]
representation:
  kind: cyclic-dft
  n: 4
checks:
{checks}"""
THEOREM1 = "  - type: theorem1-hypotheses\n    variable: position"
THEOREM2 = "  - type: theorem2\n    variable: position"
EQ1 = "  - type: eq1-expansion\n    basis: position\n    target: {variable: position}"
PERMISSIBILITY = "  - type: permissibility\n    variable: position"
CHECKS = {
    "theorem1": THEOREM1,
    "theorem2": THEOREM2,
    "eq1": EQ1,
    "a2-falsify": "  - type: a2-falsify",
    "singlet-delta": "  - type: singlet-delta",
}


Z4 = [[(j + s) % 4 for j in range(4)] for s in range(4)]

ONE_POINT = """
name: one-point
space:
  id: point
  labels: ["0"]
variables:
  - name: position
    values: ["0"]
    assignment: [0]
group:
  generators:
    - [0]
representation:
  kind: cyclic-dft
  n: 1
checks:
  - type: theorem1-hypotheses
    variable: position
"""


def explicit_cycle4(elements, matrices=None) -> str:
    """CYCLE4 running theorem1 on an explicit representation, by default the regular one."""
    if matrices is None:
        matrices = [np.eye(4, dtype=int)[:, element] for element in elements]
    entries = "".join(
        f"\n    - element: {element}\n      matrix: {matrix.tolist()}"
        for element, matrix in zip(elements, matrices)
    )
    return CYCLE4.format(checks=THEOREM1).replace(
        "kind: cyclic-dft\n  n: 4", "kind: explicit\n  matrices:" + entries
    )


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
        target = tmp_path / "tiny.yaml"
        target.write_text(MINIMAL, encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 0

    def test_failing_check_exits_one(self, tmp_path):
        failing = MINIMAL.replace(
            'labels: ["a", "b"]', 'labels: ["a", "b", "c", "d"]'
        ).replace(
            "assignment: [0, 1]", "assignment: [0, 0, 1, 1]"
        ).replace("values: [\"first\", \"second\"]", "values: [\"lo\", \"hi\"]").replace(
            "- [1, 0]", "- [1, 2, 3, 0]"
        )
        target = tmp_path / "failing.yaml"
        target.write_text(failing, encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 1
        assert "[           FAIL]" in result.output

    def test_missing_file_exits_two(self):
        result = self.runner.invoke(main, ["run", "definitely-not-here.yaml"])
        assert result.exit_code == 2

    def test_parse_error_exits_two(self, tmp_path):
        target = tmp_path / "broken.yaml"
        target.write_text("name: [unclosed", encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2
        assert "invalid YAML" in result.output

    def test_parse_error_names_line_and_column(self, tmp_path):
        target = tmp_path / "broken.yaml"
        target.write_text("name: x\nspace: {id: a\n  labels: [\"0\"]\n", encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2
        assert re.search(r"invalid YAML at line \d+, column \d+", result.output)

    def test_representation_size_mismatch_exits_two(self, tmp_path):
        target = tmp_path / "mismatch.yaml"
        target.write_text(
            CYCLE4.format(checks=THEOREM1).replace("n: 4", "n: 5"), encoding="utf-8"
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
        ],
    )
    def test_malformed_integer_parameter_exits_two(self, tmp_path, check, value, field):
        target = tmp_path / "bad.yaml"
        target.write_text(
            CYCLE4.format(checks=f"{CHECKS[check]}\n    {field}: {value}\n"), encoding="utf-8"
        )
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2, result.output
        assert f"checks[0].{field}: expected" in result.output

    @pytest.mark.parametrize(
        "text, field",
        [
            pytest.param(
                CYCLE4.format(checks=f"{THEOREM1}\n    eta: [1]"), "checks[0].eta", id="eta"
            ),
            pytest.param(
                CYCLE4.format(checks=EQ1.replace("position}", "[1]}")),
                "checks[0].target.variable",
                id="target-variable",
            ),
            pytest.param(
                CYCLE4.format(checks=f"{PERMISSIBILITY}\n    expect: sometimes"),
                "checks[0].expect",
                id="expect",
            ),
            pytest.param(
                CYCLE4.format(checks=f"{PERMISSIBILITY}\n    expected: false"),
                "checks[0].expected",
                id="unknown-parameter-expected",
            ),
            pytest.param(
                CYCLE4.format(checks=f"{CHECKS['a2-falsify']}\n    max_n: 6"),
                "checks[0].max_n",
                id="unknown-parameter-max_n",
            ),
            pytest.param(
                CYCLE4.format(checks=f"{THEOREM2}\n    generators: [[1, 2, 3, 0]]"),
                "checks[0].generators",
                id="theorem2-generators",
            ),
            pytest.param(
                CYCLE4.format(checks=f"{EQ1}\n    generators: [[1, 2, 3, 0]]"),
                "checks[0].generators",
                id="eq1-generators",
            ),
            pytest.param(
                CYCLE4.format(checks="  - type: a2-classify\n    members: [position, position]"),
                "checks[0].members",
                id="member-twice",
            ),
            pytest.param(
                CYCLE4.format(checks=THEOREM1) + "\ninformational: 'no'\n",
                "informational",
                id="informational",
            ),
            pytest.param(
                CYCLE4.format(checks=THEOREM1).replace(
                    "- [1, 2, 3, 0]", "- [1, 2, 3, 0]\n    - [true, false, 2, 3]"
                ),
                "group.generators[1]",
                id="bool-generator",
            ),
            pytest.param(
                CYCLE4.format(checks=THEOREM1).replace("kind: cyclic-dft\n  n: 4", "kind: qubit"),
                "representation.kind",
                id="qubit-kind",
            ),
            pytest.param(
                CYCLE4.format(checks=THEOREM1).replace(
                    '"3"]\nvariables', '"3"]\n  prodcut: [[0, 0], [0, 1], [1, 0], [1, 1]]\nvariables'
                ),
                "space.prodcut",
                id="space-unknown-key",
            ),
            pytest.param(
                CYCLE4.format(checks=THEOREM1).replace(
                    "assignment: [0, 1, 2, 3]", 'assignment: [0, 1, 2, 3]\n    value: ["z"]'
                ),
                "variables[0].value",
                id="variable-unknown-key",
            ),
            pytest.param(
                CYCLE4.format(checks=THEOREM1).replace(
                    "group:\n", "group:\n  generater: [[0, 1, 2, 3]]\n"
                ),
                "group.generater",
                id="group-unknown-key",
            ),
            pytest.param(
                CYCLE4.format(checks=THEOREM1).replace("n: 4", "n: 4\n  matrices: []"),
                "representation.matrices",
                id="cyclic-dft-matrices",
            ),
            pytest.param(
                explicit_cycle4(Z4).replace("kind: explicit", "kind: explicit\n  n: 4"),
                "representation.n",
                id="explicit-n",
            ),
            pytest.param(
                explicit_cycle4(Z4).replace("      matrix:", "      weight: 1\n      matrix:", 1),
                "representation.matrices[0].weight",
                id="matrix-entry-unknown-key",
            ),
            pytest.param(
                CYCLE4.format(checks=EQ1.replace("position}", "position, index: 3}")),
                "checks[0].target.index",
                id="target-unknown-key",
            ),
        ]
        + [
            pytest.param(
                CYCLE4.format(checks=EQ1.replace("{variable: position}", f"{{direction: {d}}}")),
                "checks[0].target.direction",
                id=f"direction-{name}",
            )
            for name, d in (
                ("string", '"x"'),
                ("length", "[1, 0]"),
                ("zero", "[0, 0, 0]"),
                ("nan", "[.nan, 0, 1]"),
                ("inf", "[.inf, 0, 0]"),
            )
        ]
        + [
            pytest.param(
                CYCLE4.format(checks=THEOREM1) + f"\ntolerances: {{hermitian: {value}}}\n",
                "tolerances.hermitian",
                id=f"tolerance-{name}",
            )
            for name, value in (("bool", "true"), ("nan", ".nan"), ("inf", ".inf"))
        ],
    )
    def test_malformed_field_exits_two(self, tmp_path, text, field):
        target = tmp_path / "bad.yaml"
        target.write_text(text, encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2, result.output
        assert f"{field}: expected" in result.output

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
                MINIMAL + "\nbase_state: [1, 0]\n",
                "base_state",
                id="base-state-without-representation",
            ),
            pytest.param(
                CYCLE4.format(checks=THEOREM1) + "\nbase_state: [1, 0, 0]\n",
                "base_state",
                id="base-state-length",
            ),
            pytest.param(
                CYCLE4.format(checks=THEOREM1) + "\nbase_state: [0, 0, 0, 0]\n",
                "base_state",
                id="base-state-zero",
            ),
            pytest.param(
                MINIMAL.replace("type: permissibility", "type: theorem1-hypotheses")
                + "\nrepresentation: {kind: qubit}\nbase_state: [1.0e+308, 1.0e+308]\n",
                "base_state",
                id="base-state-norm-overflow",
            ),
            pytest.param(
                MINIMAL.replace("type: permissibility", "type: theorem1-hypotheses")
                + "\nrepresentation:\n  kind: explicit\n  matrices:\n"
                "    - {element: [0, 1], matrix: [[1, 0], [0, 1]]}\n"
                "    - {element: [1, 0], matrix: [[0, 0], [0, 0]]}\n"
                "base_state: [1, 0]\n",
                "representation.matrices[1].matrix",
                id="coherent-state-zero",
            ),
        ]
        + [
            pytest.param(
                CYCLE4.format(checks=THEOREM1) + f"\nbase_state: {state}\n",
                "base_state[0]",
                id=f"base-state-{name}",
            )
            for name, state in (
                ("bool", "[true, false, false, false]"),
                ("nan", "[.nan, 0, 0, 0]"),
                ("pair-inf", "[[1, .inf], 0, 0, 0]"),
            )
        ]
        + [
            pytest.param(
                explicit_cycle4(Z4, [np.eye(4, dtype=bool)[:, element] for element in Z4]),
                "representation.matrices[0].matrix[0][0]",
                id="matrix-entry-bool",
            ),
            pytest.param(
                explicit_cycle4(Z4).replace("matrix: [[1, ", "matrix: [[.nan, ", 1),
                "representation.matrices[0].matrix[0][0]",
                id="matrix-entry-nan",
            ),
        ],
    )
    def test_malformed_representation_exits_two(self, tmp_path, text, field):
        target = tmp_path / "bad.yaml"
        target.write_text(text, encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = self.runner.invoke(main, ["run", str(target)])
        assert result.exit_code == 2, result.output
        assert f"Error: {field}: " in result.output
        assert not caught and "Warning" not in result.stderr

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
        target = tmp_path / "good.yaml"
        target.write_text(
            CYCLE4.format(checks=f"{THEOREM2}\n    base_point: 3\n"), encoding="utf-8"
        )
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
        target = tmp_path / "huge.yaml"
        target.write_text(MINIMAL + "\ntolerances:\n  hermitian: 1.0e+300\n", encoding="utf-8")
        result = self.runner.invoke(main, ["run", str(target), "--tolerance-scale", "1e10"])
        assert result.exit_code == 2, result.output
        assert "Error: tolerances.hermitian: overflows to inf" in result.output

    def test_one_point_report_is_strict_json(self, tmp_path):
        """A group with no pair of elements reports min_distance null, not Infinity."""

        def refuse(constant):
            raise ValueError(f"not JSON: {constant}")

        target = tmp_path / "one-point.yaml"
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
        target = tmp_path / "grouping.yaml"
        target.write_text(
            builtin_mod.builtin_text("cyclic-4") + "tolerances:\n  orthogonal_grouping: 1.5\n",
            encoding="utf-8",
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

    def test_exhaustive_relatedness_flag(self):
        result = self.runner.invoke(
            main, ["run", "parity-z4", "--exhaustive-relatedness", "--report", "-"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["flags"]["exhaustive_relatedness"] is True

    def test_list_shows_descriptions(self):
        result = self.runner.invoke(main, ["list"])
        assert result.exit_code == 0
        lines = result.output.strip().splitlines()
        assert len(lines) == 6
        assert all(": " in line for line in lines)
        assert lines[0].startswith("qubit: ")

    def test_emit_round_trips(self, tmp_path):
        emitted = self.runner.invoke(main, ["emit", "singlet"])
        assert emitted.exit_code == 0
        assert emitted.output == builtin_mod.builtin_text("singlet")
        target = tmp_path / "singlet.yaml"
        to_file = self.runner.invoke(main, ["emit", "singlet", "--output", str(target)])
        assert to_file.exit_code == 0
        rerun = self.runner.invoke(main, ["run", str(target)])
        assert rerun.exit_code == 0

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
