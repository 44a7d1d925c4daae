"""Shared strategies and fixtures: random partitions, groups and variables."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from finivar.groups import Permutation, PermutationGroup
from finivar.spaces import ConceptualVariable, PointSpace


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


def shuffled_s4() -> PermutationGroup:
    """S4 built from a seeded shuffle of its elements: its generating set is the greedy one."""
    elements = list(symmetric_group(4).elements)
    random.Random(4).shuffle(elements)
    return PermutationGroup(space_of(4), (), elements)


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


def multiplicities(bundle) -> tuple[tuple[float, int], ...]:
    """Each eigenvalue cluster of an operator bundle as (value, multiplicity)."""
    return tuple((c.value, c.multiplicity) for c in bundle.spectral.clusters)


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
