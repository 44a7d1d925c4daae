"""Check handlers: status mapping, tolerance resolution, informational mode."""

from __future__ import annotations

import ast
import hashlib
import inspect
import json
import math
import random
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import CliRunner, scenario_data, scenario_text
from hypothesis import given, settings
from hypothesis import strategies as st

from finivar import linalg, representations, runner, scenario, spin
from finivar.builtins import builtin_names, builtin_text, load_builtin
from finivar.cli import main
from finivar.groups import Permutation, PermutationGroup, is_permissible
from finivar.report import (
    STATUS_ERROR,
    STATUS_FAIL,
    STATUS_INFORMATIONAL,
    STATUS_NOT_APPLICABLE,
    STATUS_PASS,
    CheckRecord,
    VerificationReport,
)
from finivar.runner import DEFAULT_TOLERANCES, RunFlags, resolve_tolerances, run_scenario
from finivar.scenario import CHECK_TYPES, ScenarioError, loads
from finivar.spaces import ConceptualVariable, PointSpace
from finivar.subgroups import subgroup_conjugacy_classes


def builtin_data(name: str) -> dict:
    """The data the built-in ``name`` declares."""
    return scenario_data(builtin_text(name))


CIRCLE4 = {
    "name": "circle",
    "space": {"id": "circle-4", "labels": ["0", "1", "2", "3"]},
    "variables": [
        {"name": "halves", "values": ["left", "right"], "assignment": [0, 0, 1, 1]},
        {"name": "position", "values": ["0", "1", "2", "3"], "assignment": [0, 1, 2, 3]},
        {"name": "parity", "values": ["even", "odd"], "assignment": [0, 1, 0, 1]},
    ],
    "group": {"generators": [[1, 2, 3, 0]]},
    "representation": {"kind": "cyclic-dft", "n": 4},
}


# Three two-valued thoughts on four points under the trivial group.
SQUARE_THOUGHTS = {
    "name": "verdicts",
    "space": {"id": "sq", "labels": ["0", "1", "2", "3"]},
    "variables": [
        {"name": "halves", "values": ["a", "b"], "assignment": [0, 0, 1, 1]},
        {"name": "stripes", "values": ["a", "b"], "assignment": [0, 1, 0, 1]},
        {"name": "diagonals", "values": ["a", "b"], "assignment": [0, 1, 1, 0]},
    ],
    "group": {"generators": []},
}


def circle4_text(*checks: dict, **fields) -> str:
    return scenario_text(CIRCLE4, checks=list(checks), **fields)


def scenario_with(*checks: dict, **fields):
    return loads(circle4_text(*checks, **fields))


def single_record(scenario, flags=None):
    report = run_scenario(scenario, flags or RunFlags())
    assert len(report.checks) == 1
    return report, report.checks[0]


class TestTolerances:
    def test_defaults_returned_scaled(self):
        resolved = resolve_tolerances({}, 1.0)
        assert resolved == DEFAULT_TOLERANCES
        assert resolved is not DEFAULT_TOLERANCES
        doubled = resolve_tolerances({}, 2.0)
        assert doubled["hermitian"] == 2 * DEFAULT_TOLERANCES["hermitian"]

    def test_override_applied(self):
        resolved = resolve_tolerances({"unitary": 0.5}, 1.0)
        assert resolved["unitary"] == 0.5
        assert resolved["hermitian"] == DEFAULT_TOLERANCES["hermitian"]

    def test_unknown_name_rejected(self):
        with pytest.raises(ScenarioError, match="tolerances.not_a_knob: unknown tolerance"):
            resolve_tolerances({"not_a_knob": 1e-3}, 1.0)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            resolve_tolerances({}, 0.0)

    @pytest.mark.parametrize("scale", [True, False, "2", None, 2j, pytest.param(10**400, id="10**400"), math.nan, -math.inf])
    def test_scale_must_be_a_finite_int_or_float(self, scale):
        with pytest.raises(ValueError, match="tolerance scale must be positive and finite"):
            run_scenario(load_builtin("qubit"), RunFlags(tolerance_scale=scale))

    def test_an_integer_scale_is_a_scale(self):
        assert resolve_tolerances({}, 2) == resolve_tolerances({}, 2.0)

    @pytest.mark.parametrize("name", ["injectivity_overlap", "orthogonal_grouping"])
    def test_overlap_tolerance_must_stay_below_one(self, name):
        with pytest.raises(ScenarioError, match=f"tolerances.{name}: an overlap tolerance"):
            resolve_tolerances({name: 1.0}, 1.0)
        with pytest.raises(ScenarioError, match=f"tolerances.{name}: an overlap tolerance"):
            resolve_tolerances({name: 0.5}, 2.0)
        assert resolve_tolerances({name: 0.5}, 1.9)[name] == 0.95

    def test_theorem1_and_theorem2_apply_one_table(self):
        scenario = loads(scenario_text(builtin_data("cyclic-4"), tolerances={"injectivity_distance": 2.0}))
        report = run_scenario(scenario)
        theorems = [c for c in report.checks if c.type in ("theorem1-hypotheses", "theorem2")]
        assert [c.type for c in theorems] == ["theorem1-hypotheses"] * 2 + ["theorem2"] * 2
        assert all(c.status == STATUS_ERROR for c in theorems)
        assert all("coincide" in c.details["error"] for c in theorems)

    def test_cluster_gap_reaches_every_diagonalization(self):
        wide = {"eigen_cluster_gap": 10.0}
        report = run_scenario(loads(scenario_text(builtin_data("cyclic-4"), tolerances=wide)))
        theorems = [c for c in report.checks if c.type in ("theorem1-hypotheses", "theorem2")]
        assert all(c.status == STATUS_ERROR for c in theorems)
        assert all("does not reproduce" in c.details["error"] for c in theorems)

        report = run_scenario(loads(scenario_text(builtin_data("singlet"), tolerances=wide)))
        (delta,) = [c for c in report.checks if c.type == "singlet-delta"]
        assert delta.details["cluster_multiplicities"] == [4]
        assert delta.status == STATUS_FAIL

    def test_unknown_override_from_file_surfaces_at_run(self):
        # loads refuses a file's unknown name before any check runs, and
        # run_scenario still refuses one set on a loaded scenario.
        check = {"type": "permissibility", "variable": "parity"}
        with pytest.raises(ScenarioError, match="tolerances.bogus: unknown tolerance name"):
            scenario_with(check, tolerances={"bogus": 0.1})
        scenario = scenario_with(check)
        scenario.tolerance_overrides = {"bogus": 0.1}
        with pytest.raises(ScenarioError, match="tolerances.bogus: unknown tolerance name"):
            run_scenario(scenario)


def function_parameters():
    """("<qualified name>.<parameter>", parameter) for every parameter of a
    function or method defined in linalg, representations and spin."""
    for module in (linalg, representations, spin):
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            functions = [obj] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                functions = [f for f in vars(obj).values() if inspect.isfunction(f)]
            for function in functions:
                for param in inspect.signature(function).parameters.values():
                    yield f"{function.__qualname__}.{param.name}", param


class TestOneTable:
    def test_runner_exports_the_linalg_table(self):
        assert DEFAULT_TOLERANCES is linalg.DEFAULT_TOLERANCES
        assert len(DEFAULT_TOLERANCES) == 14

    def test_every_tolerance_is_read_from_one_table(self):
        # No function keeps a tolerance of its own: each takes the whole
        # table as ``tolerances``, by default the table itself.
        assert [name for name, p in function_parameters() if isinstance(p.default, float)] == []
        takers = {
            name: param.default
            for name, param in function_parameters()
            if name.endswith(".tolerances")
        }
        assert set(takers) == {
            "eigh.tolerances",
            "RepDiagnostics.ok.tolerances",
            "check_coherent_injectivity.tolerances",
            "build_operator.tolerances",
            "BasisExpansion.ok.tolerances",
            "commutant_diagnostic.tolerances",
        }
        for name, default in takers.items():
            assert default is DEFAULT_TOLERANCES, name

    def test_check_types_and_handlers_agree(self):
        assert len(CHECK_TYPES) == 9
        assert set(runner._HANDLERS) == set(CHECK_TYPES)

    def test_only_the_cli_and_the_package_import_the_runner(self):
        # The handlers live in scenario, which the runner imports: no cycle.
        importers = set()
        for path in Path(runner.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    base = node.module or ""
                    names = [base, *(f"{base}.{alias.name}".lstrip(".") for alias in node.names)]
                else:
                    continue
                if any(name == "runner" or name.endswith(".runner") for name in names):
                    importers.add(path.name)
        assert importers == {"cli.py", "__init__.py"}


def reflection_text(sine: float, variables: dict[str, tuple[float, float]], **tolerances) -> str:
    """Two points under Z_2, whose flip is the reflection [[s, c], [c, -s]] with
    s = ``sine`` and c = sqrt(1 - s^2), written out as explicit matrices, and a
    theorem1 check on each variable (its two values on the two points).  The
    coherent states e_0 and (s, c) overlap by s."""
    cosine = math.sqrt(1 - sine * sine)
    data = {
        "name": "reflection",
        "space": {"id": "pair", "labels": ["0", "1"]},
        "variables": [
            {"name": name, "values": [f"{v:g}" for v in values], "assignment": [0, 1]}
            for name, values in variables.items()
        ],
        "group": {"generators": [[1, 0]]},
        "representation": {
            "kind": "explicit",
            "matrices": [
                {"element": [0, 1], "matrix": [[1.0, 0.0], [0.0, 1.0]]},
                {"element": [1, 0], "matrix": [[sine, cosine], [cosine, -sine]]},
            ],
        },
        "checks": [{"type": "theorem1-hypotheses", "variable": name} for name in variables],
        "tolerances": tolerances,
    }
    return scenario_text(data)


def reflection_miss(a: float, b: float, sine: float) -> float:
    """How far the operator a P_0 + b P_1 of two states overlapping by ``sine``
    puts each eigenvalue from its value, in exact arithmetic: its eigenvalues
    are a - d and b + d, from trace a + b and determinant ab(1 - sine^2)."""
    return (math.sqrt((b - a) ** 2 + 4 * a * b * sine * sine) - (b - a)) / 2


class TestStatusMapping:
    def test_permissibility_expectation_inverts_status(self):
        ok = scenario_with({"type": "permissibility", "variable": "halves", "expect": False})
        _, record = single_record(ok)
        assert record.status == STATUS_PASS
        assert record.details["permissible"] is False
        assert record.details["witness"]["k"].images == (1, 2, 3, 0)

        bad = scenario_with({"type": "permissibility", "variable": "halves"})
        report, record = single_record(bad)
        assert record.status == STATUS_FAIL
        assert report.exit_code == 1

    def test_induced_group_error_on_impermissible_variable(self):
        scenario = scenario_with({"type": "induced-group", "variable": "halves"})
        report, record = single_record(scenario)
        assert record.status == STATUS_ERROR
        assert "witness" in record.details
        assert report.exit_code == 1

    def test_induced_group_of_a_permissible_theta_always_passes(self):
        """The lemma that decides ``induced-group``: for a permissible theta the
        induced map is a homomorphism by construction, and the image of a
        transitive group under the surjective theta is transitive.  Every
        subgroup class of S_n, n <= 6, with every set partition as theta."""
        cases = permissible = 0
        for n in range(1, 7):
            space = PointSpace(id=f"pts-{n}", labels=tuple(str(i) for i in range(n)))
            rows = [()]
            for _ in range(n):  # every set partition, as a canonical assignment
                rows = [row + (v,) for row in rows for v in range(max(row, default=-1) + 2)]
            thetas = [
                ConceptualVariable("theta", space, tuple(str(v) for v in range(max(a) + 1)), a)
                for a in rows
            ]
            for c in subgroup_conjugacy_classes(n):
                group = PermutationGroup.generate(space, tuple(map(Permutation, c.generators)))
                for theta in thetas:
                    cases += 1
                    if not is_permissible(theta, group):
                        continue
                    permissible += 1
                    ctx = runner._Context(scenario=None, tolerances={}, flags=RunFlags())
                    status, details = scenario._handle_induced_group(
                        ctx, {"variable": theta, "generators": group}
                    )
                    assert details["homomorphism_verified"] is True
                    assert details["transitivity_propagated"] is True
                    assert status == STATUS_PASS
        assert (cases, permissible) == (12546, 931)

    def test_theorem_gates_report_not_applicable(self):
        checks = [{"type": kind, "variable": "halves"} for kind in ("theorem1-hypotheses", "theorem2")]
        report = run_scenario(loads(circle4_text(*checks).replace('["left", "right"]', '["0", "1"]')))
        assert [c.status for c in report.checks] == [STATUS_NOT_APPLICABLE] * 2
        assert report.exit_code == 0
        assert report.checks[0].details["permissible"] is False
        assert "witness" in report.checks[1].details

    def test_theorem1_fails_on_a_maximal_degenerate_variable(self):
        # Without position, parity is maximal in cyclic-4's family, yet its
        # operator has two eigenvalues of multiplicity 2.
        data = builtin_data("cyclic-4")
        data["variables"] = [v for v in data["variables"] if v["name"] != "position"]
        data["checks"] = [{"type": "theorem1-hypotheses", "variable": "parity"}]
        _, record = single_record(loads(json.dumps(data)))
        assert record.status == STATUS_FAIL
        assert record.details["operator"]["maximal_in_family"] is True
        assert record.details["operator"]["nondegenerate"] is False
        assert record.details["maximal_iff_nondegenerate"] is False

    def test_trivial_exchange_exclusion_is_not_applicable(self):
        report = run_scenario(load_builtin("singlet"))
        theorem1 = [c for c in report.checks if c.type == "theorem1-hypotheses"]
        assert len(theorem1) == 1
        assert theorem1[0].status == STATUS_NOT_APPLICABLE
        assert "excluded" in theorem1[0].details

    def test_degenerate_expansion_basis_is_an_error(self):
        check = {"type": "eq1-expansion", "basis": "parity", "target": {"variable": "position"}}
        # numeric parity labels, so the expansion itself is refused
        text = circle4_text(check).replace('["even", "odd"]', '["1", "-1"]')
        report, record = single_record(loads(text))
        assert record.status == STATUS_ERROR
        assert record.details["error"].endswith("the basis spectrum is degenerate")
        assert report.exit_code == 1

    def test_spectrum_error_keeps_theorem1_details(self):
        # The reflection's states overlap by 1e-7, so the operator of values
        # 1000 and 2000 misses each by about 2e-11: within spectral_reconstruction
        # at scale 1 (1e-8), past it at 1e-6 (1e-14), so build_operator's
        # spectrum check raises.  The record keeps what theorem1 measured before the build.
        sine, values = 1e-7, (1000.0, 2000.0)
        assert 1e-14 < reflection_miss(*values, sine) < 1e-8
        scenario = loads(reflection_text(sine, {"position": values}, orthogonal_grouping=0.5))
        assert single_record(scenario)[1].status == STATUS_PASS
        report, record = single_record(scenario, RunFlags(tolerance_scale=1e-6))
        assert record.status == STATUS_ERROR
        assert record.details["error"].startswith("spectrum ")
        assert record.details["representation"]["pairs_checked"] == 2
        assert record.details["coherent_injectivity"]["ok"] is True
        assert "note" in record.details["irreducibility"]
        assert report.exit_code == 1

    def test_operator_build_decides_the_spectrum_verdict(self):
        # Each operator build misses its values by the stated amount, about
        # 2e-6 for position and 2e-5 for scaled.  Each build raises its spectrum
        # error once that is past spectral_reconstruction, and theorem1 reports
        # it: the handler never compares the spectrum itself.
        sine, variables = 1e-3, {"position": (1.0, 2.0), "scaled": (10.0, 20.0)}
        misses = [reflection_miss(*values, sine) for values in variables.values()]
        assert 1e-8 < misses[0] < 1e-5 < misses[1]
        statuses = []
        for tolerance in (1e-8, 1e-5):
            text = reflection_text(
                sine, variables, orthogonal_grouping=1e-2, spectral_reconstruction=tolerance
            )
            records = run_scenario(loads(text)).checks
            errors = [c.details["error"] for c in records if c.status == STATUS_ERROR]
            assert all(error.startswith("spectrum ") for error in errors)
            statuses.append([c.status for c in records])
        assert statuses == [[STATUS_ERROR, STATUS_ERROR], [STATUS_PASS, STATUS_ERROR]]

    def test_unexpected_exception_becomes_error_record(self, monkeypatch):
        def fault(*args):
            raise ValueError("a fault in the conjugation law")

        monkeypatch.setattr("finivar.representations.conjugation_check", fault)
        report, record = single_record(scenario_with({"type": "theorem2", "variable": "position"}))
        assert record.status == STATUS_ERROR
        assert record.details["error"] == "ValueError: a fault in the conjugation law"
        assert report.exit_code == 1

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize(
        "check, key",
        [
            ({"type": "theorem1-hypotheses", "variable": "parity"}, "variable"),
            ({"type": "theorem2", "variable": "parity"}, "variable"),
            ({"type": "eq1-expansion", "basis": "parity", "target": {"variable": "position"}}, "basis"),
            (
                {"type": "eq1-expansion", "basis": "position", "target": {"variable": "parity"}},
                "target.variable",
            ),
        ],
        ids=["theorem1", "theorem2", "eq1-basis", "eq1-target"],
    )
    def test_a_non_finite_label_is_refused_at_load_naming_the_labels(self, tmp_path, check, key, label):
        """A variable whose operator the check builds, labelled by a number that
        is not finite, exits 2 at load naming the check's key and the labels,
        and NumPy warns of nothing."""
        text = circle4_text(check).replace('["even", "odd"]', f'["{label}", "1"]')
        message = f"checks[0].{key}: variable 'parity': value labels must be finite, got ('{label}', '1')"
        target = tmp_path / "labels.json"
        target.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ScenarioError) as refused:
                loads(text)
            result = CliRunner().invoke(main, ["run", str(target)])
        assert str(refused.value) == message
        assert result.exit_code == 2, result.output
        assert result.output.endswith(f"Error: {message}\n")

    @pytest.mark.parametrize("check", ["theorem1-hypotheses", "theorem2"])
    def test_labels_that_are_not_numbers_are_refused_before_the_permissibility_gate(self, check):
        """``halves`` is not permissible, so the check would report
        not-applicable; its labels are not numbers, so the load refuses it first."""
        with pytest.raises(ScenarioError) as refused:
            scenario_with({"type": check, "variable": "halves"})
        assert str(refused.value) == (
            "checks[0].variable: variable 'halves': value labels must be numeric, got ('left', 'right')"
        )

    def test_expect_verdict_mismatch_fails(self):
        check = {"type": "a2-classify", "expect-verdict": "all-related"}
        scenario = loads(scenario_text(SQUARE_THOUGHTS, checks=[check]))
        _, record = single_record(scenario)
        assert record.status == STATUS_FAIL
        assert record.details["verdict"] == "all-essentially-different"
        assert record.details["expected_verdict"] == "all-related"

    def test_a2_falsify_uses_spec_bound_without_flag(self):
        scenario = scenario_with({"type": "a2-falsify", "max-n": 4})
        _, record = single_record(scenario)
        assert record.status == STATUS_PASS
        assert record.details["max_n"] == 4
        assert record.details["instances"] == 11

    def test_a2_falsify_flag_overrides_spec(self):
        scenario = scenario_with({"type": "a2-falsify", "max-n": 5})
        _, record = single_record(scenario, RunFlags(max_n=4))
        assert record.details["max_n"] == 4

    @pytest.mark.parametrize("max_n", [99, 7, 0, -1, True, 4.0])
    def test_max_n_flag_is_range_checked_before_any_check_runs(self, monkeypatch, max_n):
        calls = []
        monkeypatch.setattr("finivar.scenario.exhaustive_falsifier", lambda *a: calls.append(a))
        scenario = scenario_with({"type": "a2-falsify", "max-n": 4})
        with pytest.raises(ValueError, match=f"max_n must be an integer from 1 to 6, got {max_n!r}"):
            run_scenario(scenario, RunFlags(max_n=max_n))
        assert calls == []


class TestParameterValidation:
    def test_missing_required_parameter(self):
        with pytest.raises(ScenarioError, match=r"checks\[0\].variable: required parameter"):
            scenario_with({"type": "permissibility"})

    def test_unknown_variable_reference(self):
        with pytest.raises(ScenarioError, match="unknown variable 'ghost'"):
            scenario_with({"type": "theorem2", "variable": "ghost"})

    def test_expect_must_be_boolean(self):
        with pytest.raises(ScenarioError, match="expect: expected true or false"):
            scenario_with({"type": "permissibility", "variable": "parity", "expect": "sometimes"})

    def test_eq1_target_required(self):
        with pytest.raises(ScenarioError, match=r"checks\[0\].target: required parameter is missing"):
            scenario_with({"type": "eq1-expansion", "basis": "position"})

    @pytest.mark.parametrize(
        "text, field",
        [
            pytest.param(
                circle4_text(
                    {
                        "type": "a1-search",
                        "theta": "halves",
                        "members": ["halves", "parity"],
                        "all-partitions": "no",
                    }
                ),
                "all-partitions",
                id="all-partitions",
            ),
            pytest.param(
                scenario_text(SQUARE_THOUGHTS, checks=[{"type": "a2-classify", "expect-verdict": "maybe"}]),
                "expect-verdict",
                id="expect-verdict",
            ),
        ],
    )
    def test_relatedness_parameters_are_validated(self, text, field):
        with pytest.raises(ScenarioError, match=rf"checks\[0\]\.{field}: expected"):
            loads(text)

    def test_members_must_be_names(self):
        with pytest.raises(ScenarioError, match="members: expected a list of variable names"):
            scenario_with({"type": "a2-classify", "members": [1, 2]})


class TestInformationalMode:
    def test_pass_fail_and_na_are_remapped(self):
        report = run_scenario(load_builtin("rotation-sign-probe"))
        assert report.exit_code == 0
        assert all(c.status == STATUS_INFORMATIONAL for c in report.checks)
        underlying = [c.details["underlying_status"] for c in report.checks]
        assert underlying == ["fail", "pass", "pass"]

    def test_errors_survive_informational_mode(self):
        scenario = scenario_with({"type": "induced-group", "variable": "halves"}, informational=True)
        report, record = single_record(scenario)
        assert record.status == STATUS_ERROR
        assert "underlying_status" not in record.details
        assert report.exit_code == 1


class TestReportAssembly:
    def test_duplicate_labels_are_suffixed(self):
        report = run_scenario(load_builtin("qubit"))
        names = [c.name for c in report.checks]
        assert "eq1-expansion:spin-z" in names
        assert "eq1-expansion:spin-z#2" in names

    def test_flags_and_tolerances_embedded(self):
        report = run_scenario(
            load_builtin("qubit"), RunFlags(tolerance_scale=2.0, max_n=5)
        )
        assert report.flags["tolerance_scale"] == 2.0
        assert report.flags["max_n_override"] == 5
        assert report.flags["informational"] is False
        assert report.tolerances["hermitian"] == 2e-10

    def test_every_record_times_itself(self):
        report = run_scenario(load_builtin("cyclic-4"))
        assert all(c.elapsed_ms >= 0.0 for c in report.checks)
        assert report.exit_code == 0


def _plain(value):
    """The JSON form of the two engine types the standard library lacks."""
    if isinstance(value, Permutation):
        return list(value.images)
    if isinstance(value, complex):
        return [value.real, value.imag]
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumped(report: VerificationReport) -> str:
    """The reference for ``to_json``: the standard library's own writer."""
    return json.dumps(report._raw(), indent=2, allow_nan=False, default=_plain) + "\n"


_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**300), 2**300)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from([-0.0, 0.0, 1e-300, 5e-324, 1e16, 1.5e16, 1.7976931348623157e308])
    | st.text()
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "é ☃ 𝄞", "\ud800", "\n\t\r"])
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=5), inner, max_size=5),
    max_leaves=40,
)


# The engine's own values: JSON values, tuples, permutations and complex numbers.
_RAW_LEAVES = (
    _JSON_LEAVES
    | st.integers(1, 6).flatmap(lambda n: st.permutations(range(n))).map(lambda p: Permutation(tuple(p)))
    | st.complex_numbers(allow_nan=False, allow_infinity=False)
)
_RAW_VALUES = st.recursive(
    _RAW_LEAVES,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(st.text(max_size=5), inner, max_size=5),
    max_leaves=40,
)


class _Label(str):
    """A str subclass: ``json.dumps`` writes it, ``to_json`` refuses it."""


class TestJsonWriter:
    """``to_json`` writes what ``json.dumps(indent=2, allow_nan=False)`` writes,
    and refuses a value or key of a type it has no writer for."""

    @pytest.mark.parametrize("name", list(builtin_names()))
    def test_builtins(self, name):
        report = run_scenario(load_builtin(name))
        assert report.to_json() == dumped(report)

    @given(_JSON_VALUES)
    @settings(max_examples=150, deadline=None)
    def test_nested_values(self, value):
        report = VerificationReport("drawn", {"hermitian": 1e-10}, {"value": value, "empty": [{}, []]})
        assert report.to_json() == dumped(report)

    @given(_RAW_VALUES)
    @settings(max_examples=60, deadline=None)
    def test_raw_engine_values(self, value):
        report = VerificationReport("raw", {"unitary": 1e-10}, {"flag": value})
        report.add(CheckRecord("drawn", "theorem2", STATUS_PASS, {"value": value, "3": (value,)}))
        assert report.to_json() == dumped(report)

    def test_each_raw_kind(self):
        details = {
            "permutation": Permutation((2, 0, 1)),
            "tuple": (1, (2.5, "x"), None),
            "complex": [1 + 2j, complex(-0.0, -1e-300)],
        }
        report = VerificationReport("kinds", {}, {})
        report.add(CheckRecord("all", "theorem2", STATUS_PASS, details))
        assert report.to_json() == dumped(report)
        with pytest.raises(TypeError, match="cannot serialize object"):
            VerificationReport("bad", {}, {"x": [object()]}).to_json()
        with pytest.raises(ValueError, match="not JSON compliant"):
            VerificationReport("bad", {}, {"x": [complex(0.0, math.inf)]}).to_json()

    @pytest.mark.parametrize(
        "details, message",
        [
            ({"value": np.float64(0.5)}, "cannot serialize float64 deterministically"),
            ({"value": _Label("x")}, "cannot serialize _Label deterministically"),
            ({1: "x"}, "cannot serialize int key deterministically"),
        ],
        ids=["numpy-float", "str-subclass", "int-key"],
    )
    def test_a_type_with_no_writer_is_refused(self, details, message):
        # json.dumps would write each of these; to_json writes only exact types.
        report = VerificationReport("odd", {}, {})
        report.add(CheckRecord("odd", "theorem2", STATUS_PASS, details))
        with pytest.raises(TypeError, match=message):
            report.to_json()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_floats_raise(self, bad):
        report = VerificationReport("bad", {}, {"nested": [1, {"x": bad}]})
        with pytest.raises(ValueError):
            dumped(report)
        with pytest.raises(ValueError, match="not JSON compliant"):
            report.to_json()


class TestJsonWriterPaths:
    """How ``to_json`` reaches each value: by its exact type, each
    permutation's text memoised for one call."""

    def test_every_engine_report_is_the_stdlib_text(self):
        # Every value the engine puts in a report is one a writer takes as it is.
        from test_scenario_cli import perfbench_workloads

        workloads = perfbench_workloads()
        texts = [builtin_text(name) for name in builtin_names()]
        texts += [case.text for seed in (1, 2, 3) for case in workloads.generate("operators", seed)]
        texts.append(workloads.census_case(4).text)
        reports = [run_scenario(loads(text)) for text in texts]
        assert [report.to_json() for report in reports] == [dumped(report) for report in reports]

    def test_a_permutation_is_indented_at_each_depth(self):
        p = Permutation((2, 0, 1))
        report = VerificationReport("depths", {}, {"top": p, "nested": [{"p": p}], "again": p})
        text = report.to_json()
        assert text == dumped(report)
        assert '"top": [\n      2,\n      0,\n      1\n    ],' in text
        assert '"p": [\n          2,\n          0,\n          1\n        ]' in text
        assert '"again": [\n      2,\n      0,\n      1\n    ]' in text

    def test_each_call_writes_afresh(self):
        first, second = run_scenario(load_builtin("cyclic-4")), run_scenario(load_builtin("parity-z4"))
        fresh = [dumped(first), dumped(second)]
        assert [first.to_json(), second.to_json(), first.to_json()] == [*fresh, fresh[0]]


def cycle12_text(*checks: tuple[str, str]) -> str:
    """Z_12 on cyclic-dft with three variables, and a check of each (type, variable)."""
    return scenario_text(
        {
            "name": "cycle-12",
            "space": {"id": "cycle-12", "labels": [str(j) for j in range(12)]},
            "variables": [
                {"name": "position", "values": [str(j) for j in range(12)], "assignment": list(range(12))},
                {"name": "doubled", "values": [str(2 * j) for j in range(12)], "assignment": list(range(12))},
                {"name": "residue", "values": ["0", "1", "2", "3"], "assignment": [j % 4 for j in range(12)]},
            ],
            "group": {"generators": [[*range(1, 12), 0]]},
            "representation": {"kind": "cyclic-dft", "n": 12},
            "checks": [{"type": kind, "variable": variable} for kind, variable in checks],
        }
    )


class TestOperatorCache:
    def test_injectivity_scan_runs_once_per_scenario(self, monkeypatch):
        scans = []
        real = representations._scan_injectivity

        def spy(family, distance_tol, overlap_tol):
            scans.append((distance_tol, overlap_tol))
            return real(family, distance_tol, overlap_tol)

        monkeypatch.setattr(representations, "_scan_injectivity", spy)
        report = run_scenario(
            loads(
                cycle12_text(("theorem2", "position"), ("theorem2", "residue"))
            )
        )
        assert [c.status for c in report.checks] == [STATUS_PASS] * 2
        assert [c.details["elements_checked"] for c in report.checks] == [12, 12]
        assert scans == [
            (DEFAULT_TOLERANCES["injectivity_distance"], DEFAULT_TOLERANCES["injectivity_overlap"])
        ]

    def test_theorem2_reuses_the_induced_map_of_induced_group(self, monkeypatch):
        # The representation acts with the scenario's group, so one map serves
        # both checks of a variable.
        calls = []
        real = runner.induced_group

        def spy(theta, group):
            calls.append(theta.name)
            return real(theta, group)

        monkeypatch.setattr(runner, "induced_group", spy)
        loaded = loads(
            cycle12_text(
                ("induced-group", "residue"),
                ("theorem2", "residue"),
                ("theorem2", "position"),
                ("induced-group", "position"),
            )
        )
        assert loaded.group is loaded.coherent_family.group
        report = run_scenario(loaded)
        assert [c.status for c in report.checks] == [STATUS_PASS] * 4
        assert calls == ["residue", "position"]

    def test_theorem2_decomposes_each_coherent_group_once(self, monkeypatch):
        # The law relabels theta's own projectors, so the 12 singletons of
        # position and the 4 classes of residue are all the stacks it needs.
        calls = []
        real = np.linalg.svd

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        report = run_scenario(
            loads(
                cycle12_text(("theorem2", "position"), ("theorem2", "residue"))
            )
        )
        assert [c.status for c in report.checks] == [STATUS_PASS] * 2
        assert len(calls) <= 12 + 4

    def test_theorem2_calls_the_conjugation_check_once_with_every_element(self, monkeypatch):
        # perfbench's tracer measures theorem2's law under this name.
        calls = []
        real = representations.conjugation_check

        def spy(family, induced, bundle):
            residuals = real(family, induced, bundle)
            calls.append((family, induced, residuals))
            return residuals

        monkeypatch.setattr(representations, "conjugation_check", spy)
        loaded = loads(cycle12_text(("theorem2", "residue")))
        (record,) = run_scenario(loaded).checks
        assert record.status == STATUS_PASS
        ((family, induced, residuals),) = calls
        elements = loaded.group.elements
        assert family.group.elements == elements and induced.source.elements == elements
        assert induced.images == tuple(map(induced, elements))
        assert [e["residual"] for e in record.details["per_element"]] == residuals
        assert [e["element"] for e in record.details["per_element"]] == list(elements)

    def test_relabeled_variables_keep_their_own_operators(self):
        # position and doubled share one partition, so they compare equal as
        # variables; their operators differ.
        report = run_scenario(
            loads(
                cycle12_text(("theorem1-hypotheses", "position"), ("theorem1-hypotheses", "doubled"))
            )
        )
        assert [c.status for c in report.checks] == [STATUS_PASS] * 2
        eigenvalues = [c.details["operator"]["eigenvalues"] for c in report.checks]
        assert eigenvalues[0] == pytest.approx(list(range(12)))
        assert eigenvalues[1] == pytest.approx(list(range(0, 24, 2)))


def z2_explicit_text(flip: list, **fields) -> str:
    """Z2 on two points through explicit matrices; ``flip`` is the swap's matrix."""
    return scenario_text(
        {
            "name": "z2",
            "space": {"id": "pair", "labels": ["a", "b"]},
            "variables": [{"name": "constant", "values": ["1"], "assignment": [0, 0]}],
            "group": {"generators": [[1, 0]]},
            "representation": {
                "kind": "explicit",
                "matrices": [
                    {"element": [0, 1], "matrix": [[1, 0], [0, 1]]},
                    {"element": [1, 0], "matrix": flip},
                ],
            },
            "base_state": [1, 1],
            "checks": [{"type": "theorem1-hypotheses", "variable": "constant"}],
        },
        **fields,
    )


def test_coherent_states_short_of_the_dimension_are_out_of_scope():
    # Z2 on a three-dimensional space, swapping e0 and e1 and fixing e2: the
    # coherent states e0 and e1 span rank 2, so no operator is built.
    text = (
        z2_explicit_text([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        .replace("[[1, 0], [0, 1]]", "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]")
        .replace('"values": ["1"], "assignment": [0, 0]', '"values": ["1", "2"], "assignment": [0, 1]')
        .replace('"base_state": [1, 1]', '"base_state": [1, 0, 0]')
        .replace('"constant"}]', '"constant"}, {"type": "theorem2", "variable": "constant"}]')
    )
    theorem1, theorem2 = run_scenario(loads(text)).checks
    scope = "outside the orthogonal-coherent scope: coherent groups span rank 2 of a dimension-3 space"
    assert (theorem1.status, theorem1.details["error"]) == (STATUS_ERROR, scope)
    assert (theorem2.status, theorem2.details["error"]) == (STATUS_ERROR, f"OrthogonalityError: {scope}")


class TestIrreducibility:
    def test_non_representation_gets_no_commutant(self):
        # diag(1, i) squares to diag(1, -1): no representation, though its
        # character norm (3) is an integer.
        scenario = loads(z2_explicit_text([[1, 0], [0, [0, 1]]]))
        _, record = single_record(scenario)
        assert record.status == STATUS_FAIL
        assert record.details["representation"]["homomorphism_residual"] == 2.0
        assert record.details["irreducibility"] == {
            "commutant_dimension": None,
            "irreducible": None,
            "note": "not computed: the matrices fail the representation diagnostics",
        }

    def test_norm_off_an_integer_is_reported(self):
        # The swap's matrix is diag(1, -e^{-1e-5 i}): a representation within
        # 2e-5, whose norm 2 + 5e-11 misses 2 by more than 1e-12.
        scenario = loads(
            z2_explicit_text(
                [[1, 0], [0, [-0.99999999995, 0.00001]]],
                tolerances={"rep_homomorphism": 1.0e-4, "commutant": 1.0e-12},
            )
        )
        _, record = single_record(scenario)
        block = record.details["irreducibility"]
        assert block["commutant_dimension"] is None
        assert block["irreducible"] is None
        assert block["note"].startswith("not computed: the character norm 2.00000000005")
        assert block["note"].endswith("misses an integer")

    def test_representation_gets_its_commutant(self):
        _, record = single_record(
            scenario_with({"type": "theorem1-hypotheses", "variable": "position"})
        )
        assert record.status == STATUS_PASS
        assert record.details["irreducibility"]["commutant_dimension"] == 4
        assert record.details["irreducibility"]["irreducible"] is False


# SHA-256 of each built-in's JSON report under default flags.  Residuals are
# printed to the last digit, so another BLAS build may move one; re-pin only
# after checking that such a digit is the whole difference.
BUILTIN_REPORT_SHA256 = {
    "qubit": "aa4f890072ef3f3a1656db915a2715d7a60da987c352f42826124f37392f225e",
    "cyclic-4": "8bf725791e1a69b5be4980721db4de61a9de8f53a3075ce7d86606026f15d70c",
    "singlet": "cb669ce4ee69d2e2bb148b29fc6091e1559c92bd5de5a8b61d27828aab55178f",
    "parity-z4": "348a873e9559f2700d852ab9e222169cc02853bc98b99db3520cfc328fbec9cb",
    "a2-smoke": "d7196000a33ce0447e3e2994dbe7a5efb0f4dbafd996655168d3e00ab93a4b9c",
    "rotation-sign-probe": "bbd871eed1d0427361f7334eb493046945013abbffae62b945521e2c534e824e",
}


@pytest.mark.parametrize("name", list(BUILTIN_REPORT_SHA256))
def test_builtin_report_bytes_are_pinned(name):
    text = run_scenario(load_builtin(name)).to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BUILTIN_REPORT_SHA256[name]


def cycle24_text() -> str:
    """A 24-point cyclic-dft scenario with seedless, distinct numeric values."""
    n, base_point = 24, 5
    checks = []
    for name in ("position", "residue"):
        checks += [
            {"type": "theorem1-hypotheses", "variable": name, "base_point": base_point},
            {"type": "theorem2", "variable": name, "base_point": base_point},
        ]
    checks.append(
        {
            "type": "eq1-expansion",
            "basis": "position",
            "target": {"variable": "relabel"},
            "index": 7,
            "base_point": base_point,
        }
    )
    data = {
        "name": "cycle-24",
        "space": {"id": "cycle-24", "labels": [str(j) for j in range(n)]},
        "variables": [
            {
                "name": "position",
                "values": [f"{(7 * j) % n / 4 - 3:g}" for j in range(n)],
                "assignment": list(range(n)),
            },
            {
                "name": "residue",
                "values": ["-1.5", "0.25", "2", "3.75"],
                "assignment": [j % 4 for j in range(n)],
            },
            {
                "name": "relabel",
                "values": [f"{(11 * j) % n / 2 - 5:g}" for j in range(n)],
                "assignment": [(5 * j) % n for j in range(n)],
            },
        ],
        "group": {"generators": [[(j + 1) % n for j in range(n)]]},
        "representation": {"kind": "cyclic-dft", "n": n},
        "checks": checks,
    }
    return json.dumps(data, indent=1)


# SHA-256 of that scenario's JSON report under default flags, pinned as for
# the built-ins above.
CYCLE24_REPORT_SHA256 = "b9a261e6594c4eacdce3f7a700d145102b9f2ca7e6d1deb0d093e0415b138838"


def test_cycle24_operator_report_bytes_are_pinned():
    # Pins theorem2's residuals and eq1's amplitudes at a size where the
    # operator builds share coherent groups across many elements.
    report = run_scenario(loads(cycle24_text()))
    assert [c.status for c in report.checks] == [STATUS_PASS] * 5
    text = report.to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CYCLE24_REPORT_SHA256



def operator_sweep_text(n: int) -> str:
    """A cyclic-dft scenario on n points: every operator check on the maximal
    ``position`` and on ``coarse``, j -> j mod m for the largest m <= 4 that
    divides n (for a prime n > 3 the constant variable), with seeded values."""
    rng = random.Random(f"sweep-{n}")
    modulus = max(m for m in (1, 2, 3, 4) if n % m == 0)
    base_point = rng.randrange(n)
    relabelling = rng.sample(range(n), n)

    def values(count):
        return [f"{q / 4:g}" for q in rng.sample(range(-8 * count, 8 * count + 1), count)]

    checks = []
    for name in ("position", "coarse"):
        checks += [
            {"type": "permissibility", "variable": name},
            {"type": "induced-group", "variable": name},
            {"type": "theorem1-hypotheses", "variable": name, "base_point": base_point},
            {"type": "theorem2", "variable": name, "base_point": base_point},
        ]
    for basis, target in (("position", "relabel"), ("coarse", "position")):
        checks.append(
            {
                "type": "eq1-expansion",
                "basis": basis,
                "target": {"variable": target},
                "index": rng.randrange(n),
                "base_point": base_point,
            }
        )
    data = {
        "name": f"sweep-{n}",
        "space": {"id": f"sweep-{n}", "labels": [str(j) for j in range(n)]},
        "variables": [
            {"name": "position", "values": values(n), "assignment": list(range(n))},
            {
                "name": "coarse",
                "values": values(modulus),
                "assignment": [j % modulus for j in range(n)],
            },
            {"name": "relabel", "values": values(n), "assignment": relabelling},
        ],
        "group": {"generators": [[(j + 1) % n for j in range(n)]]},
        "representation": {"kind": "cyclic-dft", "n": n},
        "checks": checks,
    }
    return json.dumps(data, indent=1)


OPERATOR_SWEEP_SIZES = (*range(1, 13), 16, 20, 24)
# SHA-256 over the JSON reports of the sweep scenarios, every size at
# --tolerance-scale 1 and then every size at 1e-6, pinned as for the built-ins.
OPERATOR_SWEEP_SHA256 = "7ad72941da3d96538995c054f8daa9cc657a1c4dc6c68f5b6c5e274a4f5fd0b4"


def test_operator_sweep_report_bytes_are_pinned():
    # Pins the induced maps, pair laws, projectors and phases of the operator
    # path from one point to 24, with the degenerate and constant coarsenings.
    digest = hashlib.sha256()
    for scale in (1.0, 1e-6):
        for n in OPERATOR_SWEEP_SIZES:
            report = run_scenario(loads(operator_sweep_text(n)), RunFlags(tolerance_scale=scale))
            digest.update(report.to_json().encode("utf-8"))
    assert digest.hexdigest() == OPERATOR_SWEEP_SHA256


def complex_pairs(array) -> list:
    """A complex vector or matrix as nested [re, im] pairs, each float exact in JSON."""
    if np.ndim(array) == 1:
        return [[z.real, z.imag] for z in array.tolist()]
    return [complex_pairs(row) for row in array]


def explicit_text(text: str, seed: int, variant: str = "plain") -> str:
    """The scenario with its representation written out as ``kind: explicit``,
    the matrices listed in a seeded shuffled order.  ``ray`` multiplies each
    matrix but the identity's by a seeded phase; ``basis`` conjugates every
    matrix, and moves the base state, by a seeded unitary."""
    rep = loads(text).coherent_family.rep
    data = scenario_data(text)
    rng = np.random.default_rng(seed)
    elements = list(rep.group.elements)
    matrices = {k: rep(k) for k in elements}
    base = np.eye(1, rep.dim, dtype=complex)[0]
    if "base_state" in data:
        base = np.array([complex(*z) if isinstance(z, list) else z for z in data["base_state"]])
    if variant == "ray":
        phases = np.exp(2j * np.pi * rng.random(len(elements)))
        matrices = {k: m if k.is_identity() else p * m for (k, m), p in zip(matrices.items(), phases)}
    elif variant == "basis":
        u, _ = np.linalg.qr(rng.normal(size=(rep.dim, rep.dim)) + 1j * rng.normal(size=(rep.dim, rep.dim)))
        matrices = {k: u @ m @ u.conj().T for k, m in matrices.items()}
        base = u @ base
    listed = random.Random(seed).sample(elements, len(elements))
    data["representation"] = {
        "kind": "explicit",
        "matrices": [{"element": list(k.images), "matrix": complex_pairs(matrices[k])} for k in listed],
    }
    data["base_state"] = complex_pairs(base)
    return scenario_text(data)


def explicit_cases() -> dict[str, str]:
    """cyclic-4 and the seed-1 ``operators`` case, each written out plain, as a
    ray representation and in another basis."""
    from test_scenario_cli import perfbench_workloads

    sources = {
        "cyclic-4": builtin_text("cyclic-4"),
        "operators-seed-1": perfbench_workloads().generate("operators", 1)[0].text,
    }
    return {
        f"{name}-{variant}": explicit_text(text, seed, variant)
        for seed, (name, text) in enumerate(sources.items(), 1)
        for variant in ("plain", "ray", "basis")
    }


# SHA-256 over the JSON reports of the explicit cases, each at
# --tolerance-scale 1 and then at 1e-6, pinned as for the built-ins.
EXPLICIT_REPORT_SHA256 = "d44038cee2f7bf74e87b79871f47322e2be343ea3d899212be18a8b864cb03e2"


def test_explicit_report_bytes_are_pinned():
    # Pins the explicit path: matrices listed out of id order, ray phases and
    # dense matrices in a non-permutation basis, through every operator check.
    digest = hashlib.sha256()
    for name, text in explicit_cases().items():
        for scale in (1.0, 1e-6):
            report = run_scenario(loads(text, name), RunFlags(tolerance_scale=scale))
            digest.update(report.to_json().encode("utf-8"))
    assert digest.hexdigest() == EXPLICIT_REPORT_SHA256


class TestReportDiff:
    """``tests/report_corpus.py --diff`` says per scale, check type and JSON path
    what moved between two sets of reports, and nothing when none moved."""

    OLD = {
        "scenario": "s",
        "flags": {"tolerance_scale": 1e-06},
        "checks": [
            {
                "name": "theorem2:x",
                "type": "theorem2",
                "status": "error",
                "details": {"error": "boom", "per_element": [{"residual": 0.5}, {"residual": 1.0}]},
            }
        ],
        "summary": {"pass": 0, "error": 1},
    }
    NEW = {
        "scenario": "s",
        "flags": {"tolerance_scale": 1e-06},
        "checks": [
            {
                "name": "theorem2:x",
                "type": "theorem2",
                "status": "pass",
                "details": {"max_residual": 0.25, "per_element": [{"residual": 0.25}]},
            }
        ],
        "summary": {"pass": 1, "error": 0},
    }

    def test_every_moved_value_status_and_key(self):
        from report_corpus import diff

        old, new = json.dumps(self.OLD), json.dumps(self.NEW)
        assert diff([("a", old)], [("a", new), ("b", new)]) == [
            "report added: b",
            "scale=1e-06 (report) summary.error: 1 moved, largest |Δ| 1",
            "scale=1e-06 (report) summary.pass: 1 moved, largest |Δ| 1",
            "scale=1e-06 theorem2 details.per_element[].residual: 1 moved, largest |Δ| 0.25",
            "scale=1e-06 theorem2 status: 1 moved",
            "  a [theorem2:x]: error -> pass",
            "scale=1e-06 theorem2 details.error: removed in 1",
            "scale=1e-06 theorem2 details.max_residual: added in 1",
            "scale=1e-06 theorem2 details.per_element[]: removed in 1",
        ]

    def test_the_corpus_runs_every_explicit_and_sweep_scenario(self):
        # A dense-basis report whose bits move must show in the diff.
        from report_corpus import written

        cases = dict(written()[0])
        for name, text in explicit_cases().items():
            assert cases[f"explicit {name}"] == text
        for n in OPERATOR_SWEEP_SIZES:
            assert cases[f"sweep-{n}"] == operator_sweep_text(n)

    def test_reports_of_one_tree_show_no_difference(self):
        from report_corpus import diff

        reports = [
            (name, run_scenario(load_builtin(name), RunFlags(max_n=4)).to_json())
            for name in builtin_names()
        ]
        assert diff(reports, list(reversed(reports))) == []
        changed = reports[0][1].replace('"tolerance_scale": 1.0', '"tolerance_scale": 1')
        assert diff(reports[:1], [(reports[0][0], changed)]) == [
            "scale=1 (report) flags.tolerance_scale: 1 moved, largest |Δ| 0"
        ]
