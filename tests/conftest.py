"""Shared strategies and fixtures: random partitions, groups and variables,
scenario texts, and an in-process runner for the command line."""

from __future__ import annotations

import contextlib
import io
import json
import random
import re
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from finivar.groups import Permutation, PermutationGroup
from finivar.spaces import ConceptualVariable, PointSpace


def scenario_text(data: dict, **fields) -> str:
    """A scenario file's text: ``data``, with ``fields`` set at its top level, as JSON."""
    return json.dumps({**data, **fields})


def scenario_data(text: str) -> dict:
    """The data a scenario text declares: its JSON after the comment header."""
    return json.loads(re.sub(r"\A(?:#.*\n)*", "", text))


def space_of(n: int, id: str = "pts") -> PointSpace:
    return PointSpace(id=f"{id}-{n}", labels=tuple(str(i) for i in range(n)))


def variable_from_assignment(
    space: PointSpace, assignment: tuple[int, ...], name: str = "v"
) -> ConceptualVariable:
    count = max(assignment) + 1
    return ConceptualVariable(
        name=name,
        domain=space,
        values=tuple(f"{i}" for i in range(count)),
        assignment=assignment,
    )


def symmetric_group(n: int) -> PermutationGroup:
    return PermutationGroup.generate(
        space_of(n), (Permutation((1, 0) + tuple(range(2, n))), Permutation(tuple(range(1, n)) + (0,)))
    )


def cyclic_group(n: int) -> PermutationGroup:
    return PermutationGroup.generate(space_of(n), (Permutation(tuple(range(1, n)) + (0,)),))


def generated_by_some_of(space: PointSpace, elements) -> PermutationGroup:
    """The group the permutations ``elements`` (image tuples) form, generated by
    each of them that the ones before it do not already generate; asserts that
    it holds exactly ``elements``, so that they are closed under composition."""
    gens, reached = [], {tuple(range(space.size))}
    for images in elements:
        if images not in reached:
            gens.append(Permutation(images))
            reached = {k.images for k in PermutationGroup.generate(space, gens).elements}
    group = PermutationGroup.generate(space, gens)
    assert {k.images for k in group.elements} == set(elements)
    return group


def shuffled_s4() -> PermutationGroup:
    """S4 generated by a seeded shuffle of its elements, each taken when the ones
    before it do not generate it: a generating set other than the usual two."""
    elements = [k.images for k in symmetric_group(4).elements]
    random.Random(4).shuffle(elements)
    return generated_by_some_of(space_of(4), elements)


# Groups up to S6 on which one changed image or matrix must break a group law.
GROUPS_UP_TO_S6 = {
    "z8": lambda: cyclic_group(8),
    "shuffled-s4": shuffled_s4,
    "a5": lambda: PermutationGroup.generate(
        space_of(5), (Permutation((1, 2, 0, 3, 4)), Permutation((1, 2, 3, 4, 0)))
    ),
    "s5": lambda: symmetric_group(5),
    "s6": lambda: symmetric_group(6),
}


def changed_element(group: PermutationGroup, seed: int) -> tuple[Permutation, Permutation]:
    """A seeded element g outside the group's generating set, other than the
    identity, and a seeded element h != g to put in its place."""
    rng = random.Random(seed)
    gens = {group.elements[s] for s, _ in group.generator_rows()}
    g = rng.choice([k for k in group.elements if k not in gens and not k.is_identity()])
    return g, rng.choice([k for k in group.elements if k != g])


def multiplicities(spectral) -> tuple[tuple[float, int], ...]:
    """Each eigenvalue cluster of a spectrum (``linalg.SpectralData``) as (value, multiplicity)."""
    return tuple((c.value, c.multiplicity) for c in spectral.clusters)


@st.composite
def assignments(draw, min_points: int = 2, max_points: int = 8):
    """A surjective value assignment on n points, in canonical form."""
    n = draw(st.integers(min_points, max_points))
    raw = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    # canonicalize by first appearance so the assignment is surjective
    relabel: dict[int, int] = {}
    out = []
    for v in raw:
        if v not in relabel:
            relabel[v] = len(relabel)
        out.append(relabel[v])
    return tuple(out)


@st.composite
def permutations_of(draw, n: int):
    return Permutation(tuple(draw(st.permutations(range(n)))))


@st.composite
def variable_group_pairs(draw, min_points: int = 2, max_points: int = 6):
    """A variable and a cyclic-or-two-generator group on its domain."""
    assignment = draw(assignments(min_points, max_points))
    n = len(assignment)
    space = space_of(n)
    theta = variable_from_assignment(space, assignment)
    gens = [draw(permutations_of(n))]
    if draw(st.booleans()):
        gens.append(draw(permutations_of(n)))
    group = PermutationGroup.generate(space, tuple(gens))
    return theta, group


@pytest.fixture
def square() -> PointSpace:
    return space_of(4, "square")


class _Capture(io.StringIO):
    """A stream that also copies each write into a shared ``mixed`` stream."""

    def __init__(self, mixed: io.StringIO):
        super().__init__()
        self._mixed = mixed

    def write(self, text: str) -> int:
        self._mixed.write(text)
        return super().write(text)


class CliResult(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr in the order they were written
    stdout: str
    stderr: str
    exception: BaseException | None  # the SystemExit of a nonzero exit, or what was raised


class CliRunner:
    """Calls a command-line ``main(args)`` in process and captures what it writes."""

    def invoke(self, main, args: list[str]) -> CliResult:
        mixed = io.StringIO()
        out, err = _Capture(mixed), _Capture(mixed)
        exit_code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args)
            except SystemExit as exc:
                exit_code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                exception = exc if exit_code else None
            except Exception as exc:
                exit_code, exception = 1, exc
        return CliResult(exit_code, mixed.getvalue(), out.getvalue(), err.getvalue(), exception)
