"""Check handlers: status mapping, tolerance resolution, informational mode."""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json

import numpy as np
import pytest

from finivar import linalg, representations, runner, spin
from finivar.builtins import builtin_text, load_builtin
from finivar.report import (
    STATUS_ERROR,
    STATUS_FAIL,
    STATUS_INFORMATIONAL,
    STATUS_NOT_APPLICABLE,
    STATUS_PASS,
)
from finivar.runner import DEFAULT_TOLERANCES, RunFlags, resolve_tolerances, run_scenario
from finivar.scenario import CHECK_TYPES, ScenarioError, loads

CIRCLE4 = """
name: circle
space:
  id: circle-4
  labels: ["0", "1", "2", "3"]
variables:
  - name: halves
    values: ["left", "right"]
    assignment: [0, 0, 1, 1]
  - name: position
    values: ["0", "1", "2", "3"]
    assignment: [0, 1, 2, 3]
  - name: parity
    values: ["even", "odd"]
    assignment: [0, 1, 0, 1]
group:
  generators:
    - [1, 2, 3, 0]
representation:
  kind: cyclic-dft
  n: 4
checks:
{checks}
"""


# Three two-valued thoughts on four points under the trivial group; checks follow.
SQUARE_THOUGHTS = """
name: verdicts
space:
  id: sq
  labels: ["0", "1", "2", "3"]
variables:
  - name: halves
    values: ["a", "b"]
    assignment: [0, 0, 1, 1]
  - name: stripes
    values: ["a", "b"]
    assignment: [0, 1, 0, 1]
  - name: diagonals
    values: ["a", "b"]
    assignment: [0, 1, 1, 0]
group:
  generators: []
checks:
"""


def scenario_with(checks: str, extra: str = ""):
    return loads(CIRCLE4.format(checks=checks) + extra)


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

    @pytest.mark.parametrize("name", ["injectivity_overlap", "orthogonal_grouping"])
    def test_overlap_tolerance_must_stay_below_one(self, name):
        with pytest.raises(ScenarioError, match=f"tolerances.{name}: an overlap tolerance"):
            resolve_tolerances({name: 1.0}, 1.0)
        with pytest.raises(ScenarioError, match=f"tolerances.{name}: an overlap tolerance"):
            resolve_tolerances({name: 0.5}, 2.0)
        assert resolve_tolerances({name: 0.5}, 1.9)[name] == 0.95

    def test_theorem1_and_theorem2_apply_one_table(self):
        scenario = loads(
            builtin_text("cyclic-4") + "tolerances:\n  injectivity_distance: 2.0\n"
        )
        report = run_scenario(scenario)
        theorems = [c for c in report.checks if c.type in ("theorem1-hypotheses", "theorem2")]
        assert [c.type for c in theorems] == ["theorem1-hypotheses"] * 2 + ["theorem2"] * 2
        assert all(c.status == STATUS_ERROR for c in theorems)
        assert all("coincide" in c.details["error"] for c in theorems)

    def test_cluster_gap_reaches_every_diagonalization(self):
        wide = "tolerances:\n  eigen_cluster_gap: 10.0\n"
        report = run_scenario(loads(builtin_text("cyclic-4") + wide))
        theorems = [c for c in report.checks if c.type in ("theorem1-hypotheses", "theorem2")]
        assert all(c.status == STATUS_ERROR for c in theorems)
        assert all("does not reproduce" in c.details["error"] for c in theorems)

        report = run_scenario(loads(builtin_text("singlet") + wide))
        (delta,) = [c for c in report.checks if c.type == "singlet-delta"]
        assert delta.details["cluster_multiplicities"] == [4]
        assert delta.status == STATUS_FAIL

    def test_unknown_override_from_file_surfaces_at_run(self):
        scenario = scenario_with(
            "  - type: permissibility\n    variable: parity\n",
            "tolerances:\n  bogus: 0.1\n",
        )
        with pytest.raises(ScenarioError, match="bogus"):
            run_scenario(scenario)


# The table entry each tolerance keyword of linalg, representations and spin
# defaults to, by "<qualified name>.<parameter>".
KEYWORD_TOLERANCES = {
    "is_hermitian.tol": "hermitian",
    "is_unitary.tol": "unitary",
    "eigh.hermitian_tol": "hermitian",
    "eigh.cluster_gap": "eigen_cluster_gap",
    "RepDiagnostics.ok.unitary_tol": "unitary",
    "RepDiagnostics.ok.hom_tol": "rep_homomorphism",
    "check_coherent_injectivity.distance_tol": "injectivity_distance",
    "check_coherent_injectivity.overlap_tol": "injectivity_overlap",
    "bundle_from_matrix.hermitian_tol": "hermitian",
    "bundle_from_matrix.cluster_gap": "eigen_cluster_gap",
    "conjugation_check.tol": "conjugation_residual",
    "BasisExpansion.ok.reconstruction_tol": "expansion_reconstruction",
    "BasisExpansion.ok.weight_tol": "expansion_weight",
    "commutant_diagnostic.tol": "commutant",
    "delta_operator.hermitian_tol": "hermitian",
    "delta_operator.cluster_gap": "eigen_cluster_gap",
}
# Numeric cut-offs that are not tolerances of a check (see the README).
KEYWORDS_OUTSIDE_THE_TABLE = {"fix_phase.entry_tol"}


def float_keyword_defaults():
    """Every float keyword default of a function or method defined in the three modules."""
    found = {}
    for module in (linalg, representations, spin):
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            functions = [obj] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                functions = [f for f in vars(obj).values() if inspect.isfunction(f)]
            for function in functions:
                for param in inspect.signature(function).parameters.values():
                    if isinstance(param.default, float):
                        found[f"{function.__qualname__}.{param.name}"] = param.default
    return found


class TestOneTable:
    def test_runner_exports_the_linalg_table(self):
        assert DEFAULT_TOLERANCES is linalg.DEFAULT_TOLERANCES
        assert len(DEFAULT_TOLERANCES) == 14

    def test_every_keyword_default_reads_the_table(self):
        found = float_keyword_defaults()
        fields = {
            f"OperatorTolerances.__init__.{f.name}": f.name
            for f in dataclasses.fields(representations.OperatorTolerances)
        }
        expected = {**KEYWORD_TOLERANCES, **fields}
        assert set(found) == set(expected) | KEYWORDS_OUTSIDE_THE_TABLE
        for key, name in expected.items():
            assert found[key] == DEFAULT_TOLERANCES[name], key

    def test_check_types_and_handlers_agree(self):
        assert len(CHECK_TYPES) == 9
        assert set(runner._HANDLERS) == set(CHECK_TYPES)


class TestStatusMapping:
    def test_permissibility_expectation_inverts_status(self):
        ok = scenario_with(
            "  - type: permissibility\n    variable: halves\n    expect: false\n"
        )
        _, record = single_record(ok)
        assert record.status == STATUS_PASS
        assert record.details["permissible"] is False
        assert record.details["witness"]["k"].images == (1, 2, 3, 0)

        bad = scenario_with("  - type: permissibility\n    variable: halves\n")
        report, record = single_record(bad)
        assert record.status == STATUS_FAIL
        assert report.exit_code == 1

    def test_induced_group_error_on_impermissible_variable(self):
        scenario = scenario_with("  - type: induced-group\n    variable: halves\n")
        report, record = single_record(scenario)
        assert record.status == STATUS_ERROR
        assert "witness" in record.details
        assert report.exit_code == 1

    def test_theorem_gates_report_not_applicable(self):
        scenario = scenario_with(
            "  - type: theorem1-hypotheses\n    variable: halves\n"
            "  - type: theorem2\n    variable: halves\n"
        )
        report = run_scenario(scenario)
        assert [c.status for c in report.checks] == [STATUS_NOT_APPLICABLE] * 2
        assert report.exit_code == 0
        assert report.checks[0].details["permissible"] is False
        assert "witness" in report.checks[1].details

    def test_trivial_exchange_exclusion_is_not_applicable(self):
        report = run_scenario(load_builtin("singlet"))
        theorem1 = [c for c in report.checks if c.type == "theorem1-hypotheses"]
        assert len(theorem1) == 1
        assert theorem1[0].status == STATUS_NOT_APPLICABLE
        assert "excluded" in theorem1[0].details

    def test_degenerate_expansion_basis_is_an_error(self):
        scenario = scenario_with(
            "  - type: eq1-expansion\n"
            "    basis: parity\n"
            "    target: {variable: position}\n"
        )
        report, record = single_record(scenario)
        assert record.status == STATUS_ERROR
        assert "error" in record.details
        assert report.exit_code == 1

    def test_spectrum_error_keeps_theorem1_details(self):
        # At scale 1e-6, spectral_reconstruction is 1e-14: below the rounding
        # of eigenvalues in the thousands, so build_operator's spectrum check
        # raises.  The record keeps what theorem1 measured before the build.
        n = 8
        data = {
            "name": "cycle-8",
            "space": {"id": "cycle-8", "labels": [str(j) for j in range(n)]},
            "variables": [
                {
                    "name": "position",
                    "values": [f"{1000 * j + 0.25:g}" for j in range(n)],
                    "assignment": list(range(n)),
                }
            ],
            "group": {"generators": [[(j + 1) % n for j in range(n)]]},
            "representation": {"kind": "cyclic-dft", "n": n},
            "checks": [{"type": "theorem1-hypotheses", "variable": "position"}],
        }
        scenario = loads(json.dumps(data))
        assert single_record(scenario)[1].status == STATUS_PASS
        report, record = single_record(scenario, RunFlags(tolerance_scale=1e-6))
        assert record.status == STATUS_ERROR
        assert record.details["error"].startswith("spectrum ")
        assert record.details["representation"]["pairs_checked"] == n * n
        assert record.details["coherent_injectivity"]["ok"] is True
        assert "note" in record.details["irreducibility"]
        assert report.exit_code == 1

    def test_operator_build_decides_the_spectrum_verdict(self):
        # At 1e-20 some eigenvalue misses its value by more than the
        # tolerance, so each operator build raises its spectrum error and
        # theorem1 reports it: the handler never compares the spectrum itself.
        text = builtin_text("cyclic-4") + "tolerances: {spectral_reconstruction: 1.0e-20}\n"
        records = [c for c in run_scenario(loads(text)).checks if c.type == "theorem1-hypotheses"]
        assert [c.status for c in records] == [STATUS_ERROR, STATUS_ERROR]
        assert all(c.details["error"].startswith("spectrum ") for c in records)

    def test_unexpected_exception_becomes_error_record(self):
        # theorem2 needs numeric value labels; parity's are "even" and "odd".
        scenario = scenario_with("  - type: theorem2\n    variable: parity\n")
        report, record = single_record(scenario)
        assert record.status == STATUS_ERROR
        assert record.details["error"].startswith("ValueError")
        assert report.exit_code == 1

    def test_expect_verdict_mismatch_fails(self):
        check = "  - type: a2-classify\n    expect-verdict: all-related\n"
        scenario = loads(SQUARE_THOUGHTS + check)
        _, record = single_record(scenario)
        assert record.status == STATUS_FAIL
        assert record.details["verdict"] == "all-essentially-different"
        assert record.details["expected_verdict"] == "all-related"

    def test_a2_falsify_uses_spec_bound_without_flag(self):
        scenario = scenario_with("  - type: a2-falsify\n    max-n: 4\n")
        _, record = single_record(scenario)
        assert record.status == STATUS_PASS
        assert record.details["max_n"] == 4
        assert record.details["instances"] == 11

    def test_a2_falsify_flag_overrides_spec(self):
        scenario = scenario_with("  - type: a2-falsify\n    max-n: 5\n")
        _, record = single_record(scenario, RunFlags(max_n=4))
        assert record.details["max_n"] == 4


class TestParameterValidation:
    def test_missing_required_parameter(self):
        scenario = scenario_with("  - type: permissibility\n")
        with pytest.raises(ScenarioError, match=r"checks\[0\].variable: required parameter"):
            run_scenario(scenario)

    def test_unknown_variable_reference(self):
        scenario = scenario_with("  - type: theorem2\n    variable: ghost\n")
        with pytest.raises(ScenarioError, match="unknown variable 'ghost'"):
            run_scenario(scenario)

    def test_expect_must_be_boolean(self):
        scenario = scenario_with(
            "  - type: permissibility\n    variable: parity\n    expect: sometimes\n"
        )
        with pytest.raises(ScenarioError, match="expect: expected true or false"):
            run_scenario(scenario)

    def test_eq1_target_required(self):
        scenario = scenario_with("  - type: eq1-expansion\n    basis: position\n")
        with pytest.raises(ScenarioError, match="target: expected a mapping"):
            run_scenario(scenario)

    @pytest.mark.parametrize(
        "text, field",
        [
            pytest.param(
                CIRCLE4.format(
                    checks="  - type: a1-search\n    theta: halves\n"
                    "    members: [halves, parity]\n    all-partitions: 'no'"
                ),
                "all-partitions",
                id="all-partitions",
            ),
            pytest.param(
                SQUARE_THOUGHTS + "  - type: a2-classify\n    expect-verdict: maybe\n",
                "expect-verdict",
                id="expect-verdict",
            ),
        ],
    )
    def test_relatedness_parameters_are_validated(self, text, field):
        with pytest.raises(ScenarioError, match=rf"checks\[0\]\.{field}: expected"):
            run_scenario(loads(text))

    def test_members_must_be_names(self):
        scenario = scenario_with(
            "  - type: a2-classify\n    members: [1, 2]\n"
        )
        with pytest.raises(ScenarioError, match="members: expected a list of variable names"):
            run_scenario(scenario)


class TestInformationalMode:
    def test_pass_fail_and_na_are_remapped(self):
        report = run_scenario(load_builtin("rotation-sign-probe"))
        assert report.exit_code == 0
        assert all(c.status == STATUS_INFORMATIONAL for c in report.checks)
        underlying = [c.details["underlying_status"] for c in report.checks]
        assert underlying == ["fail", "pass", "pass"]

    def test_errors_survive_informational_mode(self):
        scenario = scenario_with(
            "  - type: induced-group\n    variable: halves\n",
            "informational: true\n",
        )
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


CYCLE12 = """
name: cycle-12
space:
  id: cycle-12
  labels: ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11"]
variables:
  - name: position
    values: ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11"]
    assignment: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
  - name: doubled
    values: ["0", "2", "4", "6", "8", "10", "12", "14", "16", "18", "20", "22"]
    assignment: [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
  - name: residue
    values: ["0", "1", "2", "3"]
    assignment: [0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3]
group:
  generators:
    - [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0]
representation:
  kind: cyclic-dft
  n: 12
checks:
{checks}
"""


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
                CYCLE12.format(
                    checks="  - type: theorem2\n    variable: position\n"
                    "  - type: theorem2\n    variable: residue\n"
                )
            )
        )
        assert [c.status for c in report.checks] == [STATUS_PASS] * 2
        assert [c.details["elements_checked"] for c in report.checks] == [12, 12]
        assert scans == [
            (DEFAULT_TOLERANCES["injectivity_distance"], DEFAULT_TOLERANCES["injectivity_overlap"])
        ]

    def test_theorem2_decomposes_each_coherent_group_once(self, monkeypatch):
        # theta∘t groups the same states as theta for a permissible theta, so
        # the 12 singletons of position and the 4 classes of residue are all
        # the stacks the 26 operator builds need.
        calls = []
        real = np.linalg.svd

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", spy)
        report = run_scenario(
            loads(
                CYCLE12.format(
                    checks="  - type: theorem2\n    variable: position\n"
                    "  - type: theorem2\n    variable: residue\n"
                )
            )
        )
        assert [c.status for c in report.checks] == [STATUS_PASS] * 2
        assert len(calls) <= 12 + 4

    def test_relabeled_variables_keep_their_own_operators(self):
        # position and doubled share one partition, so they compare equal as
        # variables; their operators differ.
        report = run_scenario(
            loads(
                CYCLE12.format(
                    checks="  - type: theorem1-hypotheses\n    variable: position\n"
                    "  - type: theorem1-hypotheses\n    variable: doubled\n"
                )
            )
        )
        assert [c.status for c in report.checks] == [STATUS_PASS] * 2
        eigenvalues = [c.details["operator"]["eigenvalues"] for c in report.checks]
        assert eigenvalues[0] == pytest.approx(list(range(12)))
        assert eigenvalues[1] == pytest.approx(list(range(0, 24, 2)))


# Z2 on two points through explicit matrices; {flip} is the swap's matrix.
Z2_EXPLICIT = """
name: z2
space: {{id: pair, labels: ["a", "b"]}}
variables:
  - name: constant
    values: ["1"]
    assignment: [0, 0]
group:
  generators: [[1, 0]]
representation:
  kind: explicit
  matrices:
    - element: [0, 1]
      matrix: [[1, 0], [0, 1]]
    - element: [1, 0]
      matrix: {flip}
base_state: [1, 1]
checks:
  - type: theorem1-hypotheses
    variable: constant
"""


class TestIrreducibility:
    def test_non_representation_gets_no_commutant(self):
        # diag(1, i) squares to diag(1, -1): no representation, though its
        # character norm (3) is an integer.
        scenario = loads(Z2_EXPLICIT.format(flip="[[1, 0], [0, [0, 1]]]"))
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
            Z2_EXPLICIT.format(flip="[[1, 0], [0, [-0.99999999995, 0.00001]]]")
            + "tolerances: {rep_homomorphism: 1.0e-4, commutant: 1.0e-12}\n"
        )
        _, record = single_record(scenario)
        block = record.details["irreducibility"]
        assert block["commutant_dimension"] is None
        assert block["irreducible"] is None
        assert block["note"].startswith("not computed: the character norm 2.00000000005")
        assert block["note"].endswith("misses an integer")

    def test_representation_gets_its_commutant(self):
        _, record = single_record(
            scenario_with("  - type: theorem1-hypotheses\n    variable: position\n")
        )
        assert record.status == STATUS_PASS
        assert record.details["irreducibility"]["commutant_dimension"] == 4
        assert record.details["irreducibility"]["irreducible"] is False


# SHA-256 of each built-in's JSON report under default flags.  Residuals are
# printed to the last digit, so another BLAS build may move one; re-pin only
# after checking that such a digit is the whole difference.
BUILTIN_REPORT_SHA256 = {
    "qubit": "f7b7b11efc4d58c694a73dcc66761e5ce37be492f3ae50984d7bc0ecc72c2259",
    "cyclic-4": "0003c6e1edb27853d5bea95926524dc39cb541d09171a0403003622875f17e0a",
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
    # JSON is valid YAML.
    return json.dumps(data, indent=1)


# SHA-256 of that scenario's JSON report under default flags, pinned as for
# the built-ins above.
CYCLE24_REPORT_SHA256 = "2781b73f67254f5b1e783ebb0d0933eed79f37852ec1aa0b05920fcdff3ff971"


def test_cycle24_operator_report_bytes_are_pinned():
    # Pins theorem2's residuals and eq1's amplitudes at a size where the
    # operator builds share coherent groups across many elements.
    report = run_scenario(loads(cycle24_text()))
    assert [c.status for c in report.checks] == [STATUS_PASS] * 5
    text = report.to_json()
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CYCLE24_REPORT_SHA256

