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


def _greedy_generators(
    images: Sequence[tuple[int, ...]], n: int
) -> tuple[list[tuple[int, ...]], tuple[int, ...] | None]:
    """A greedy generating set of the permutations ``images``, and a product of
    two of them that is not among them (None when they are closed under
    composition, so the set generates them).

    Only the greedy set is composed with the list: once each of its elements
    maps the list into itself, the list is the group they generate.
    """
    listed, gens, span = set(images), [], {tuple(range(n))}
    for g in images:
        if g in span:
            continue
        for p in images:
            if compose(g, p) not in listed:
                return gens, compose(g, p)
        gens.append(g)
        span = _close(gens, n, len(listed))
    return gens, None


class PermutationGroup:
    """A permutation group on a point space.

    ``generate`` lists the elements in lexicographic order.  An element's id is
    its position in ``elements``.  The group laws are checked on the rows of a
    generating set S: ``generate``'s own generators, or for a group built from
    its element list, the greedy set its closure check finds.
    """

    def __init__(
        self,
        space: PointSpace,
        generators: Sequence[Permutation],
        elements: Sequence[Permutation],
    ) -> None:
        """Raises ValueError unless ``elements`` are distinct, hold the identity
        and are closed under composition."""
        self._adopt(space, generators, elements)
        self._generating, outside = _greedy_generators(list(self._ids), space.size)
        if outside is not None:
            raise ValueError(
                f"elements are not closed under composition: {list(outside)} is missing"
            )

    def _adopt(
        self, space: PointSpace, generators: Sequence[Permutation], elements: Sequence[Permutation]
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
        if len(self._ids) != self.order:
            twice = next(p for i, p in enumerate(self.elements) if self._ids[p.images] != i)
            raise ValueError(f"element {list(twice.images)} is listed twice")
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
        group = cls.__new__(cls)  # closed by construction: no closure check
        group._adopt(space, generators, tuple(map(Permutation._trusted, sorted(closed))))
        group._generating = list(dict.fromkeys(g.images for g in generators))
        return group

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

    def generator_rows(self) -> Iterator[tuple[int, list[int]]]:
        """Each element s of the generating set S, as its id and the ids of s∘b
        for every b in id order: the |S|·|G| products that decide a group law."""
        ids, elements = self._ids, list(self._ids)
        for s in self._generating:
            yield ids[s], [ids[compose(s, b)] for b in elements]

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

    def verify(self) -> bool:
        """Check that φ(e) = e, that every value lies in the target, and that
        φ(sb) = φ(s)φ(b) for each s in the source's generating set S and every
        b.  That decides the law on all pairs: write a = s₁⋯s_k and induct on k.
        """
        if not self.mapping[self.source.identity].is_identity():
            return False
        phi = [self.mapping[k].images for k in self.source.elements]
        if not all(f in self.target._ids for f in phi):
            return False
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
    # Each k maps blocks onto blocks, so each image is a permutation of the values.
    induced = {t: Permutation._trusted(t) for t in sorted(set(mapping_images.values()))}
    induced_generators = tuple(induced[mapping_images[g]] for g in group.generators)
    target = PermutationGroup(value_space, induced_generators, tuple(induced.values()))
    mapping = {k: induced[t] for k, t in mapping_images.items()}
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
) -> Permutation | None:
    """Find k in the group with eta = theta∘k up to a value bijection, or None.

    The group's elements are scanned in lexicographic order, so the returned
    witness is the smallest.
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
