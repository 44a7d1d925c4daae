"""Shared strategies and fixtures: random partitions, groups and variables."""

from __future__ import annotations

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
