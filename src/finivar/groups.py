"""Permutation groups acting on finite point spaces.

Covers product closure of generator sets, orbit and isotropy structure, the
well-definedness test that decides whether a variable survives a group action
(with an explicit counterexample when it does not), the induced action on the
variable's value space, and relatedness of two variables through a group
element.
"""

from __future__ import annotations

import itertools
import random
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence, TypeVar

from .spaces import (
    ConceptualVariable,
    DomainMismatchError,
    PointSpace,
    _id_tables,
    _require_same_domain,
    canonical_partition,
    compose,
)

__all__ = [
    "GroupTooLargeError",
    "NotPermissibleError",
    "Permutation",
    "PermutationGroup",
    "GroupHomomorphism",
    "PermissibilityWitness",
    "PermissibilityResult",
    "is_permissible",
    "induced_group",
    "are_related",
    "flag_trivial_exchange",
    "EXHAUSTIVE_RELATEDNESS_LIMIT",
]

DEFAULT_CLOSURE_CAP = 1_000_000
EXHAUSTIVE_RELATEDNESS_LIMIT = 8
PAIR_EXHAUSTIVE_LIMIT = 500

_T = TypeVar("_T")


class GroupTooLargeError(RuntimeError):
    """Closure enumeration exceeded the configured element cap."""


class NotPermissibleError(ValueError):
    """A construction required a permissible variable and got a counterexample."""

    def __init__(self, witness: "PermissibilityWitness") -> None:
        self.witness = witness
        super().__init__(
            f"variable not permissible: k={list(witness.k.images)} sends equal-value "
            f"points {witness.phi1}, {witness.phi2} to unequal values"
        )


@dataclass(frozen=True)
class Permutation:
    """A bijection of {0..n-1}, stored as its image tuple."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "images", tuple(int(i) for i in self.images))
        if sorted(self.images) != list(range(len(self.images))):
            raise ValueError(f"not a permutation of 0..{len(self.images) - 1}: {self.images}")

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple known to be a permutation, skipping the check."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))

    @classmethod
    def from_cycles(cls, n: int, cycles: Sequence[Sequence[int]]) -> "Permutation":
        images = list(range(n))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)([cycle[0]])):
                images[a] = b
        return cls(tuple(images))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Function composition: (self * other)(x) = self(other(x))."""
        if self.degree != other.degree:
            raise ValueError(f"cannot compose degrees {self.degree} and {other.degree}")
        return Permutation._trusted(compose(self.images, other.images))

    def inverse(self) -> "Permutation":
        return Permutation._trusted(tuple(sorted(range(self.degree), key=self.images.__getitem__)))

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(i for i, j in enumerate(self.images) if i == j)


def _close(generator_images: Iterable[tuple[int, ...]], n: int, max_size: int) -> set[tuple[int, ...]]:
    gens = [tuple(g) for g in dict.fromkeys(generator_images)]
    ident = tuple(range(n))
    els = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for a in gens:
            for b in frontier:
                c = compose(a, b)
                if c not in els:
                    els.add(c)
                    if len(els) > max_size:
                        raise GroupTooLargeError(
                            f"group closure exceeded the cap of {max_size} elements"
                        )
                    new.append(c)
        frontier = new
    return els


class PermutationGroup:
    """A permutation group on a point space.

    ``generate`` lists the elements in lexicographic order.  An element's id is
    its position in ``elements``.
    """

    def __init__(
        self,
        space: PointSpace,
        generators: Sequence[Permutation],
        elements: Sequence[Permutation],
    ) -> None:
        self.space = space
        self.generators = tuple(generators)
        self.elements = tuple(elements)
        for p in self.elements:
            if p.degree != space.size:
                raise ValueError(
                    f"permutation degree {p.degree} does not match space size {space.size}"
                )
        self._ids = {p.images: i for i, p in enumerate(self.elements)}
        if tuple(range(space.size)) not in self._ids:
            raise ValueError("a group must contain the identity")

    @classmethod
    def generate(
        cls,
        space: PointSpace,
        generators: Sequence[Permutation],
        max_size: int = DEFAULT_CLOSURE_CAP,
    ) -> "PermutationGroup":
        for g in generators:
            if g.degree != space.size:
                raise ValueError(
                    f"generator degree {g.degree} does not match space size {space.size}"
                )
        closed = _close((g.images for g in generators), space.size, max_size)
        elements = tuple(map(Permutation._trusted, sorted(closed)))
        return cls(space, tuple(generators), elements)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.space.size)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p.images in self._ids

    @cached_property
    def _table(self) -> list[array] | None:
        """``_table[a][b]`` is the id of a∘b, for up to ``PAIR_EXHAUSTIVE_LIMIT`` elements."""
        if self.order > PAIR_EXHAUSTIVE_LIMIT:
            return None
        return _id_tables([p.images for p in self.elements])[0]

    def product_id(self, a: int, b: int) -> int | None:
        """The id of a∘b, read from the product table up to ``PAIR_EXHAUSTIVE_LIMIT``
        elements and composed past it (None if it lies outside ``elements``)."""
        if self._table is not None:
            return self._table[a][b]
        return self._ids.get(compose(self.elements[a].images, self.elements[b].images))

    def pair_ids(
        self, seed: int = 0, sample_pairs: int = 1000
    ) -> tuple[Iterator[tuple[int, int, int]], int]:
        """The pairs of ``element_pairs``, as ``(a, b, ab)`` ids, and their count."""
        positions, count = element_pairs(range(self.order), seed, sample_pairs)
        return ((a, b, self.product_id(a, b)) for a, b in positions), count

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit partition of the point space, each orbit ascending, sorted by minimum."""
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in range(self.space.size):
            if start in seen:
                continue
            orbit = {g.images[start] for g in self.elements}
            seen |= orbit
            out.append(tuple(sorted(orbit)))
        return tuple(out)

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def has_trivial_isotropy(self) -> bool:
        """True iff only the identity fixes any point (the action is free)."""
        for g in self.elements:
            if g.is_identity():
                continue
            if g.fixed_points():
                return False
        return True


def element_pairs(
    elements: Sequence[_T], seed: int = 0, sample_pairs: int = 1000
) -> tuple[Iterable[tuple[_T, _T]], int]:
    """Pairs to check a composition law on, and their count: every ordered pair up to
    ``PAIR_EXHAUSTIVE_LIMIT`` elements, else ``sample_pairs`` seeded random pairs."""
    n = len(elements)
    if n <= PAIR_EXHAUSTIVE_LIMIT:
        return itertools.product(elements, elements), n * n
    rng = random.Random(seed)
    pairs = ((elements[rng.randrange(n)], elements[rng.randrange(n)]) for _ in range(sample_pairs))
    return pairs, sample_pairs


class GroupHomomorphism:
    """An element map between two permutation groups."""

    def __init__(
        self,
        source: PermutationGroup,
        target: PermutationGroup,
        mapping: dict[Permutation, Permutation],
    ) -> None:
        if set(mapping) != set(source.elements):
            raise ValueError("homomorphism must map every source element")
        self.source = source
        self.target = target
        self.mapping = dict(mapping)

    def __call__(self, k: Permutation) -> Permutation:
        return self.mapping[k]

    def verify(self, seed: int = 0, sample_pairs: int = 1000) -> bool:
        """Check that every value lies in the target, and the identity and
        composition laws on the pairs of ``PermutationGroup.pair_ids``."""
        if not self.mapping[self.source.identity].is_identity():
            return False
        to_target = self.target._ids
        phi = [to_target.get(self.mapping[k].images) for k in self.source.elements]
        if None in phi:  # a value outside the target group
            return False
        pairs, _ = self.source.pair_ids(seed, sample_pairs)
        product = self.target.product_id
        return all(phi[ab] == product(phi[a], phi[b]) for a, b, ab in pairs)


@dataclass(frozen=True)
class PermissibilityWitness:
    """A counterexample to well-definedness: theta(phi1)=theta(phi2) but k breaks it."""

    k: Permutation
    phi1: int
    phi2: int


@dataclass(frozen=True)
class PermissibilityResult:
    ok: bool
    witness: PermissibilityWitness | None

    def __bool__(self) -> bool:
        return self.ok


def _require_acting_group(theta: ConceptualVariable, group: PermutationGroup) -> None:
    if group.space != theta.domain:
        raise DomainMismatchError(
            f"group acts on {group.space.id!r}, variable lives on {theta.domain.id!r}"
        )


def is_permissible(theta: ConceptualVariable, group: PermutationGroup) -> PermissibilityResult:
    """Decide whether every group element maps theta-fibers into theta-fibers.

    Scan order is deterministic (elements lexicographic, fibers by value,
    points ascending), so the witness for a failure is reproducible.
    """
    _require_acting_group(theta, group)
    assignment = theta.assignment
    blocks = [b for b in theta.blocks() if len(b) > 1]
    for k in group.elements:
        img = k.images
        for block in blocks:
            v0 = assignment[img[block[0]]]
            for phi in block[1:]:
                if assignment[img[phi]] != v0:
                    return PermissibilityResult(False, PermissibilityWitness(k, block[0], phi))
    return PermissibilityResult(True, None)


def induced_group(
    theta: ConceptualVariable, group: PermutationGroup
) -> tuple[PermutationGroup, GroupHomomorphism]:
    """The action each k induces on theta's value space, with the element map.

    Requires permissibility; raises :class:`NotPermissibleError` carrying the
    counterexample otherwise.  If the source group is transitive the induced
    group is transitive on the value space.
    """
    check = is_permissible(theta, group)
    if not check:
        raise NotPermissibleError(check.witness)
    reps = [block[0] for block in theta.blocks()]
    mapping_images = {k: compose(theta.assignment, compose(k.images, reps)) for k in group.elements}
    value_space = PointSpace(id=f"{theta.name}-values", labels=theta.values)
    distinct = sorted(set(mapping_images.values()))
    induced_elements = tuple(Permutation(t) for t in distinct)
    induced_generators = tuple(
        Permutation(mapping_images[g]) for g in group.generators
    )
    target = PermutationGroup(value_space, induced_generators, induced_elements)
    mapping = {k: Permutation(t) for k, t in mapping_images.items()}
    return target, GroupHomomorphism(group, target, mapping)


def _relating(
    theta: ConceptualVariable, eta: ConceptualVariable, candidates: Iterable[tuple[int, ...]]
) -> Iterator[tuple[int, ...]]:
    """Each candidate k, in order, for which theta∘k has eta's partition."""
    assignment, target = theta.assignment, eta.partition()
    for images in candidates:
        if canonical_partition(compose(assignment, images)) == target:
            yield images


def are_related(
    theta: ConceptualVariable,
    eta: ConceptualVariable,
    group: PermutationGroup,
    exhaustive: bool = False,
) -> Permutation | None:
    """Find k with eta = theta∘k up to a value bijection, or None.

    Candidates are the group's elements; with ``exhaustive`` every permutation
    of the domain is tried instead (guarded to small spaces).  Candidates are
    scanned in lexicographic order, so the returned witness is the smallest.
    """
    _require_same_domain(theta, eta)
    if theta.value_count != eta.value_count:
        raise ValueError(
            f"no value bijection can exist: {theta.name!r} takes {theta.value_count} "
            f"values, {eta.name!r} takes {eta.value_count}"
        )
    n = theta.domain.size
    if exhaustive:
        if n > EXHAUSTIVE_RELATEDNESS_LIMIT:
            raise ValueError(
                f"exhaustive relatedness search is limited to "
                f"{EXHAUSTIVE_RELATEDNESS_LIMIT} points, space has {n}"
            )
        candidates: Iterable[tuple[int, ...]] = itertools.permutations(range(n))
    else:
        _require_acting_group(theta, group)
        candidates = (k.images for k in group.elements)
    k = next(_relating(theta, eta, candidates), None)
    return None if k is None else Permutation(k)


def flag_trivial_exchange(
    theta: ConceptualVariable,
    eta: ConceptualVariable,
    group: PermutationGroup,
) -> bool:
    """True iff the pair is related only through the coordinate swap.

    Needs the domain to declare a square product structure; such pairs carry
    no transformation content and are excluded from operator pipelines.
    """
    space = theta.domain
    if space.product is None:
        raise ValueError(
            f"not applicable: point space {space.id!r} declares no product structure"
        )
    _require_same_domain(theta, eta)
    if theta.value_count != eta.value_count:
        return False
    _require_acting_group(theta, group)
    relating = list(_relating(theta, eta, (k.images for k in group.elements)))
    if not relating:
        return False
    p, q = space.product_sizes()
    if p != q:
        return False
    by_coords = {coords: point for point, coords in enumerate(space.product)}
    exchange = tuple(
        by_coords[(b, a)] for (a, b) in space.product
    )
    return all(k == exchange for k in relating)
