"""The record classes keep the contracts they had as dataclasses: frozen
records refuse assignment, records have no JSON form of their own, and each
compares by value or by identity as it did."""

from __future__ import annotations

import json
import pickle
from functools import cache

import numpy as np
import pytest

from finivar import groups, harness, linalg, report, representations, runner, scenario, spaces, spin, subgroups
from finivar.builtins import load_builtin
from finivar.report import CheckRecord, VerificationReport

from conftest import space_of, symmetric_group


@cache
def records() -> dict[str, object]:
    """One instance of each record class, built by the engine where it builds them."""
    square = spaces.PointSpace("square", ("a", "b", "c", "d"), ((0, 0), (0, 1), (1, 0), (1, 1)))
    members = [
        spaces.ConceptualVariable(name, square, ("x", "y"), assignment)
        for name, assignment in (("v", (0, 1, 0, 1)), ("w", (0, 0, 1, 1)), ("u", (0, 1, 1, 0)))
    ]
    family = spaces.VariableFamily(members)
    klein = groups.PermutationGroup.generate(
        square, (groups.Permutation((1, 0, 3, 2)), groups.Permutation((2, 3, 0, 1)))
    )
    thoughts = harness.ThoughtScenario(square, family, klein)
    classification = harness.classify_thoughts(thoughts)
    spectral = linalg.eigh(np.diag([1.0, 2.0]))
    rep = representations.cyclic_dft_rep(4)
    coherent = representations.CoherentFamily(rep, np.array([1, 0, 0, 0], dtype=complex))
    position = spaces.ConceptualVariable("position", rep.group.space, ("0", "1", "2", "3"), (0, 1, 2, 3))
    loaded = load_builtin("cyclic-4")
    return {
        "Permutation": groups.Permutation((1, 0, 2)),
        "PermissibilityWitness": groups.PermissibilityWitness(groups.Permutation((1, 0)), 0, 1),
        "PermissibilityResult": groups.is_permissible(members[0], klein),
        "ThoughtScenario": thoughts,
        "PairRelation": classification.relations[0],
        "HypothesisReport": classification.hypotheses,
        "ClassificationResult": classification,
        "A1SearchResult": harness.theorem_a1_search(thoughts, members[0], members[1]),
        "FalsifierReport": harness.exhaustive_falsifier(4),
        "EigenCluster": spectral.clusters[0],
        "SpectralData": spectral,
        "CheckRecord": CheckRecord("a", "theorem2", "pass"),
        "VerificationReport": VerificationReport("s", {}, {}),
        "RepDiagnostics": rep.diagnostics(),
        "InjectivityResult": representations.check_coherent_injectivity(coherent),
        "OperatorBundle": representations.build_operator(position, coherent),
        "BasisExpansion": representations.expand_in_basis(spectral, 0, spectral),
        "IrreducibilityDiagnostic": representations.commutant_diagnostic(rep),
        "RunFlags": runner.RunFlags(),
        "_Context": runner._Context(loaded, {}, runner.RunFlags()),
        "CheckSpec": loaded.checks[0],
        "Scenario": loaded,
        "PointSpace": square,
        "ConceptualVariable": members[0],
        "VariableFamily": family,
        "SpinDirection": spin.SpinDirection(0.0, 0.0, 1.0),
        "SubgroupClass": subgroups.subgroup_classes(klein)[1],
    }


MUTABLE = {"CheckRecord", "VerificationReport", "RunFlags", "_Context", "Scenario"}
FROZEN = sorted(set(records()) - MUTABLE)
IDENTITY = ["EigenCluster", "SpectralData", "OperatorBundle", "BasisExpansion"]


def test_every_record_class_is_covered():
    """Every class of the package with ``_fields``, a record or a NamedTuple, has an instance here."""
    modules = (groups, harness, linalg, report, representations, runner, scenario, spaces, spin, subgroups)
    declared = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__ and hasattr(obj, "_fields")
    }
    assert declared == {type(obj) for obj in records().values()}
    assert len(declared) == 27


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_record_refuses_assignment(name):
    record = records()[name]
    field = type(record)._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_a_mutable_record_takes_assignment_and_has_no_hash(name):
    record = records()[name]
    field = type(record)._fields[-1]
    value = getattr(record, field)
    setattr(record, field, value)
    assert getattr(record, field) is value
    with pytest.raises(TypeError):
        hash(record)


@pytest.mark.parametrize("name", sorted(set(records()) - {"Permutation"}))
def test_a_record_has_no_json_form(name):
    """A NamedTuple record is a tuple, yet it is refused, not written as a list."""
    record = records()[name]
    message = f"cannot serialize {type(record).__name__} deterministically"
    with pytest.raises(TypeError, match=message):
        VerificationReport("s", {}, {"x": [record]}).to_json()
    holder = VerificationReport("s", {}, {})
    holder.add(CheckRecord("a", "theorem2", "pass", {"x": record}))
    with pytest.raises(TypeError, match=message):
        holder.to_json()
    assert json.loads(VerificationReport("s", {}, {}).to_json())["checks"] == []


@pytest.mark.parametrize("name", IDENTITY)
def test_identity_records_compare_by_identity_and_hash(name):
    record = records()[name]
    twin = type(record)(*(getattr(record, field) for field in type(record)._fields))
    assert record == record and record != twin
    assert len({record, twin, record}) == 2
    assert repr(pickle.loads(pickle.dumps(record))) == repr(record)


def value_twins():
    """Each value record, another instance built equal to it, and one that differs."""
    first = records()["SubgroupClass"]
    square = spaces.PointSpace("square", ["a", "b", "c", "d"], [(0, 0), (0, 1), (1, 0), (1, 1)])
    twin = subgroups.SubgroupClass(first.elements, first.generators, first.conjugates)
    other = subgroups.subgroup_classes(symmetric_group(4))[1]
    yield "Permutation", groups.Permutation([1, 0, 2]), groups.Permutation((0, 1, 2))
    yield "PointSpace", square, space_of(4)
    yield "SubgroupClass", twin, other


@pytest.mark.parametrize("name, twin, other", [pytest.param(*v, id=v[0]) for v in value_twins()])
def test_value_records_compare_and_hash_by_fields(name, twin, other):
    record = records()[name]
    assert record is not twin
    assert record == twin and hash(record) == hash(twin)
    assert record != other and len({record, twin, other}) == 2
    assert pickle.loads(pickle.dumps(record)) == record


def test_results_are_false_when_not_ok():
    assert not groups.PermissibilityResult(False, None)
    assert groups.PermissibilityResult(True, None)
    assert not representations.InjectivityResult(False, 0.0, 1.0, None)
