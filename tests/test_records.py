"""The record classes keep the contracts they had as dataclasses: frozen
records refuse assignment, records have no JSON form of their own, and each
compares by value or by identity as it did."""

from __future__ import annotations

import importlib
import inspect
import json
import pickle
import pkgutil
from functools import cache

import numpy as np
import pytest

import finivar
from finivar import cli, groups, harness, linalg, report, representations, runner, scenario, spaces, spin, subgroups
from finivar._record import Frozen, Record
from finivar.builtins import load_builtin
from finivar.report import CheckRecord, VerificationReport

from conftest import cyclic_group, space_of, symmetric_group
from test_scenario_cli import fresh_python


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
    rep = representations.cyclic_dft_rep(cyclic_group(4))
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
    """Every class of the package with ``_fields``, each a ``Record``, has an instance here;
    the command line's two records are the commands in ``cli.COMMANDS``."""
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
    """A record is refused, not written as a list of its fields."""
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


def constructor_fields(cls: type) -> tuple[list[str], set[str]]:
    """The fields a record class takes at construction, and those of them it
    requires: every field but a private one, which the class defaults, and
    every field ``Record.__init__`` takes, which defaults none."""
    fields = [name for name in cls._fields if not name.startswith("_")]
    parameters = inspect.signature(cls).parameters
    if any(p.kind is p.VAR_POSITIONAL for p in parameters.values()):
        return fields, set(fields)
    return fields, {name for name in fields if parameters[name].default is inspect.Parameter.empty}


def same_value(a, b) -> bool:
    return a is b or (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b)


@pytest.mark.parametrize("name", sorted(records()))
def test_a_record_is_built_from_its_fields_by_position_or_by_name(name):
    record = records()[name]
    cls = type(record)
    fields, _ = constructor_fields(cls)
    values = [getattr(record, field) for field in fields]
    for twin in (cls(*values), cls(**dict(zip(fields, values)))):
        assert twin is not record
        assert all(same_value(getattr(twin, f), getattr(record, f)) for f in cls._fields)


@pytest.mark.parametrize("name", sorted(records()))
def test_a_missing_repeated_or_unknown_field_is_refused(name):
    record = records()[name]
    cls = type(record)
    fields, required = constructor_fields(cls)
    named = {field: getattr(record, field) for field in fields}
    first = fields[0]
    with pytest.raises(TypeError):
        cls(named[first], **named)  # the first field by position and by name
    with pytest.raises(TypeError):
        cls(**named, unknown=None)
    with pytest.raises(TypeError):
        cls(*named.values(), None)  # one value more than the fields
    for field in required:
        with pytest.raises(TypeError):
            cls(**{key: value for key, value in named.items() if key != field})


def test_record_init_names_the_fields_at_fault():
    cluster = linalg.EigenCluster(1.0, (0,))
    assert cluster.value == 1.0 and cluster.indices == (0,)
    assert linalg.EigenCluster(1.0, indices=(0,)).indices == (0,)
    for args, kwargs, message in [
        ((1.0,), {}, "EigenCluster(): missing field 'indices'"),
        ((), {}, "EigenCluster(): missing field 'value', missing field 'indices'"),
        ((1.0,), {"value": 2.0, "indices": ()}, "EigenCluster(): repeated field 'value'"),
        ((1.0,), {"size": 1, "value": 2.0}, "EigenCluster(): missing field 'indices', repeated field 'value', unknown field 'size'"),
        ((1.0, ()), {"index": 0, "size": 1}, "EigenCluster(): unknown field 'index', unknown field 'size'"),
        ((1.0, (), 2), {}, "EigenCluster(): 3 values for 2 fields"),
    ]:
        with pytest.raises(TypeError) as refused:
            linalg.EigenCluster(*args, **kwargs)
        assert str(refused.value) == message


def test_results_are_false_when_not_ok():
    assert not groups.PermissibilityResult(False, None)
    assert groups.PermissibilityResult(True, None)
    assert not representations.InjectivityResult(False, 0.0, 1.0, None)


def package_classes() -> set[type]:
    """Every class that a module of the package defines."""
    modules = [importlib.import_module(f"finivar.{m.name}") for m in pkgutil.iter_modules(finivar.__path__)]
    return {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type) and obj.__module__ == module.__name__
    }


def record_classes() -> list[type]:
    return sorted(
        (cls for cls in package_classes() if hasattr(cls, "_fields") and cls not in (Record, Frozen)),
        key=lambda cls: cls.__qualname__,
    )


@pytest.mark.parametrize("cls", record_classes(), ids=lambda cls: cls.__qualname__)
def test_a_records_fields_are_its_annotated_names_in_order(cls):
    """The fields are written once, as annotations.  ``ThoughtScenario``
    annotates its computed ``maximal`` slot after them, and ``_Context``,
    which keeps a ``__dict__``, lists them in ``_fields`` as well."""
    annotated = tuple(vars(cls)["__annotations__"])
    if cls is harness.ThoughtScenario:
        assert annotated == (*cls._fields, "maximal") == vars(cls)["__slots__"]
    elif cls is runner._Context:
        assert annotated == cls._fields and "__slots__" not in vars(cls)
    else:
        assert annotated == cls._fields == vars(cls)["__slots__"]


def test_no_class_of_the_package_is_a_tuple():
    classes = package_classes()
    assert {cli._Option, cli._Command, subgroups.SubgroupClass} <= classes
    assert [cls for cls in classes if issubclass(cls, tuple)] == []
    assert len(record_classes()) == 29 and all(issubclass(cls, Record) for cls in record_classes())


def test_only_the_context_has_a_dict():
    commands = cli.COMMANDS.values()
    instances = [*records().items(), *(("cli", record) for record in commands)]
    instances += [("cli", option) for command in commands for option in command.options]
    assert {type(record) for _, record in instances} == set(record_classes())
    assert [name for name, record in instances if hasattr(record, "__dict__")] == ["_Context"]


def test_a_class_body_sets_fields_and_slots_from_its_annotations_alone():
    class Point(Frozen, eq=False):
        x: int
        y: NoSuchName  # noqa: F821 (never evaluated)

    assert Point._fields == Point.__slots__ == ("x", "y")
    assert repr(Point(1, y=2)).endswith(".Point(x=1, y=2)") and Point(1, 2) != Point(1, 2)

    class Named(Record):
        _fields = ("a",)
        a: int
        b: int

    assert Named._fields == ("a",) and "__slots__" not in vars(Named)
    with pytest.raises(ValueError, match="conflicts with class variable"):

        class Defaulted(Record):  # a record takes no defaults: type refuses a class value named as a slot
            a: int = 0


def test_a_command_line_record_is_a_frozen_value():
    command = cli.COMMANDS["emit"]
    twin = cli._Command(command.run, command.argument, command.options)
    assert twin == command and hash(twin) == hash(command)
    assert twin != (command.run, command.argument, command.options)
    assert command.options[0].dest == "output" and command.options[0].default is None
    with pytest.raises(AttributeError):
        command.run = None


IMPORT_CLI_COUNTING_COMPILES = """
import sys
compiled = []
sys.addaudithook(lambda event, args: event == "compile" and compiled.append(args[1]))
import finivar.cli
print(sum(name == "<string>" for name in compiled))
"""


def test_importing_the_cli_compiles_no_generated_source():
    """No record class writes source at import: a typed named tuple ``eval``s
    its ``__new__`` and compiles each string annotation to a ``ForwardRef``,
    and a dataclass ``exec``s each method it adds."""
    proc = fresh_python(IMPORT_CLI_COUNTING_COMPILES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0"]
