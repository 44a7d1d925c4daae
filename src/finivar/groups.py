"""Permutation groups acting on finite point spaces.

Covers product closure of generator sets, orbit and isotropy structure, the
well-definedness test that decides whether a variable survives a group action
(with an explicit counterexample when it does not), the induced action on the
variable's value space, and relatedness of two variables through a group
element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .spaces import (
    ConceptualVariable,
    DomainMismatchError,
    PointSpace,
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
]

DEFAULT_CLOSURE_CAP = 1_000_000


class GroupTooLargeError(RuntimeError):
    """Closure enumeration exceeded the cap on image entries (|G|·n)."""


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
    """The elements the generators generate, by breadth-first closure from the
    identity; raises :class:`GroupTooLargeError` once they hold more than
    ``max_size`` image entries (|G|·n), so the cap bounds memory at any degree."""
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
                    if len(els) * n > max_size:
                        raise GroupTooLargeError(
                            f"group closure exceeded the cap of {max_size} image entries: "
                            f"more than {max_size // n} elements on {n} points"
                        )
                    new.append(c)
        frontier = new
    return els


class PermutationGroup:
    """A permutation group on a point space, built only by ``generate``.

    Every group is the closure of its ``generators``.  ``elements`` lists it
    in lexicographic order; an element's id is its position there, so the
    identity is id 0.  The group laws are checked on the rows of the
    generating set S, the group's own generators, each once.
    """

    space: PointSpace
    generators: tuple[Permutation, ...]
    elements: tuple[Permutation, ...]

    @classmethod
    def generate(
        cls,
        space: PointSpace,
        generators: Sequence[Permutation],
        max_size: int = DEFAULT_CLOSURE_CAP,
    ) -> "PermutationGroup":
        """The group ``generators`` generate on ``space``.  Raises
        :class:`GroupTooLargeError` past ``max_size`` image entries (|G|·n)."""
        for g in generators:
            if g.degree != space.size:
                raise ValueError(
                    f"generator degree {g.degree} does not match space size {space.size}"
                )
        closed = sorted(_close((g.images for g in generators), space.size, max_size))
        group = cls.__new__(cls)
        group.space = space
        group.generators = tuple(generators)
        group.elements = tuple(map(Permutation._trusted, closed))
        group._ids = {images: i for i, images in enumerate(closed)}
        return group

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return self.elements[0]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.elements)

    def __contains__(self, p: Permutation) -> bool:
        return p.images in self._ids

    def index(self, k: Permutation) -> int:
        """The id of the element ``k``: its position in ``elements``."""
        return self._ids[k.images]

    def generator_rows(self) -> Iterator[tuple[int, list[int]]]:
        """Each generator s, once, as its id and the ids of s∘b for every b in
        id order: the |S|·|G| products that decide a group law."""
        ids = self._ids
        for s in dict.fromkeys(g.images for g in self.generators):
            yield ids[s], [ids[compose(s, b)] for b in ids]

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit partition of the point space, each orbit ascending, sorted by
        minimum.  An orbit is closed under the generators alone, since they
        generate the group."""
        seen: set[int] = set()
        out: list[tuple[int, ...]] = []
        for start in range(self.space.size):
            if start in seen:
                continue
            orbit, frontier = {start}, {start}
            while frontier:
                frontier = {g.images[x] for g in self.generators for x in frontier} - orbit
                orbit |= frontier
            seen |= orbit
            out.append(tuple(sorted(orbit)))
        return tuple(out)

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def has_trivial_isotropy(self) -> bool:
        """True iff only the identity fixes any point (the action is free):
        by orbit-stabiliser, iff every orbit has |G| points."""
        return all(len(orbit) == self.order for orbit in self.orbits())


class GroupHomomorphism:
    """An element map between two permutation groups; ``images`` holds the
    image of each source element in id order."""

    def __init__(
        self, source: PermutationGroup, target: PermutationGroup, images: Sequence[Permutation]
    ) -> None:
        if len(images) != source.order:
            raise ValueError("homomorphism must map every source element")
        self.source = source
        self.target = target
        self.images = tuple(images)

    def __call__(self, k: Permutation) -> Permutation:
        return self.images[self.source.index(k)]

    def verify(self) -> bool:
        """Check that φ(e) = e, that every value lies in the target, and that
        φ(sb) = φ(s)φ(b) for each s in the source's generating set S and every
        b.  That decides the law on all pairs: write a = s₁⋯s_k and induct on k.
        """
        if not self.images[0].is_identity():
            return False
        if not all(f in self.target for f in self.images):
            return False
        phi = [f.images for f in self.images]
        return all(
            [phi[sb] for sb in row] == [compose(phi[s], f) for f in phi]
            for s, row in self.source.generator_rows()
        )


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

    Scan order is deterministic (elements lexicographic, as every group lists
    them, fibers by value, points ascending), so the witness for a failure is
    the first in that order, whatever order the generators were given in.
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
    # Each k maps blocks onto blocks, so each image is a permutation of the values.
    images = [
        Permutation._trusted(compose(theta.assignment, compose(k.images, reps)))
        for k in group.elements
    ]
    value_space = PointSpace(id=f"{theta.name}-values", labels=theta.values)
    generators = tuple(images[group.index(g)] for g in group.generators)
    target = PermutationGroup.generate(value_space, generators)
    return target, GroupHomomorphism(group, target, images)


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
) -> Permutation | None:
    """Find k in the group with eta = theta∘k up to a value bijection, or None.

    The group's elements are scanned in lexicographic order, as every group
    lists them, so the returned witness is the smallest relating element.
    """
    _require_same_domain(theta, eta)
    if theta.value_count != eta.value_count:
        raise ValueError(
            f"no value bijection can exist: {theta.name!r} takes {theta.value_count} "
            f"values, {eta.name!r} takes {eta.value_count}"
        )
    _require_acting_group(theta, group)
    k = next(_relating(theta, eta, (k.images for k in group.elements)), None)
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
