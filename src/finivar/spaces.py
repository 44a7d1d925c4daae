"""Finite point spaces and the variables defined on them.

A variable is a surjective assignment of value labels to points.  Its identity
is the partition of the point space into fibers: two variables with the same
fibers carry the same information, so equality and hashing go through the
canonical partition and value labels matter only for reporting.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

from ._record import Frozen

__all__ = [
    "DomainMismatchError",
    "PointSpace",
    "ConceptualVariable",
    "VariableFamily",
    "canonical_partition",
    "compose",
    "dominates",
    "is_accessible",
    "maximal_accessible",
]


class DomainMismatchError(ValueError):
    """Operands live on different point spaces."""


def compose(f: Sequence[int], g: Sequence[int]) -> tuple[int, ...]:
    """The image tuple of f∘g: apply g, then f (``f[g[x]]`` for each x)."""
    return tuple(map(f.__getitem__, g))


def canonical_partition(assignment: Sequence[int]) -> tuple[int, ...]:
    """Relabel an assignment by first appearance, giving a canonical form.

    Two assignments induce the same partition of the index set exactly when
    their canonical forms are equal.
    """
    relabel: dict[int, int] = {}
    out = []
    for v in assignment:
        if v not in relabel:
            relabel[v] = len(relabel)
        out.append(relabel[v])
    return tuple(out)


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints.  An entry ``operator.index`` refuses (a
    float, even 1.0) raises ``ValueError`` naming ``what``; a numpy integer passes."""
    values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers, got {values!r}") from None


class PointSpace(Frozen):
    """A finite labeled set of points.

    ``product`` optionally declares that the points form a rectangular grid:
    it maps each point index to a coordinate pair.  Only the trivial-exchange
    test consults it.
    """

    id: str
    labels: tuple[str, ...]
    product: tuple[tuple[int, int], ...] | None

    def __init__(
        self, id: str, labels: Sequence[str], product: Iterable[tuple[int, int]] | None = None
    ) -> None:
        super().__init__(id, tuple(labels), product)
        if not self.id:
            raise ValueError("point space needs a nonempty id")
        if not self.labels:
            raise ValueError(f"point space {self.id!r} has no points")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"point space {self.id!r} has duplicate labels")
        if self.product is not None:
            what = f"point space {self.id!r}: product coordinates"
            coords = tuple(_integers((a, b), what) for a, b in self.product)
            object.__setattr__(self, "product", coords)
            if len(coords) != len(self.labels):
                raise ValueError("product structure must cover every point")
            p, q = self.product_sizes()
            if p * q != len(self.labels) or set(coords) != {
                (a, b) for a in range(p) for b in range(q)
            }:
                raise ValueError("product structure must be a bijection onto a full grid")

    @property
    def size(self) -> int:
        return len(self.labels)

    def product_sizes(self) -> tuple[int, int]:
        if self.product is None:
            raise ValueError(f"point space {self.id!r} declares no product structure")
        p = max(a for a, _ in self.product) + 1
        q = max(b for _, b in self.product) + 1
        return p, q


class ConceptualVariable(Frozen):
    """A surjective value assignment on a point space.

    ``assignment[point]`` is an index into ``values``.  Equality compares the
    domain and the canonical partition, not names or labels.
    """

    name: str
    domain: PointSpace
    values: tuple[str, ...]
    assignment: tuple[int, ...]

    def __init__(
        self, name: str, domain: PointSpace, values: Sequence[str], assignment: Iterable[int]
    ) -> None:
        what = f"variable {name!r}: assignment entries"
        super().__init__(name, domain, tuple(values), _integers(assignment, what))
        if not self.name:
            raise ValueError("variable needs a nonempty name")
        if len(set(self.values)) != len(self.values):
            raise ValueError(f"variable {self.name!r} has duplicate value labels")
        if len(self.assignment) != self.domain.size:
            raise ValueError(
                f"variable {self.name!r}: assignment covers {len(self.assignment)} "
                f"points, domain has {self.domain.size}"
            )
        hit = set(self.assignment)
        if not hit <= set(range(len(self.values))):
            raise ValueError(f"variable {self.name!r}: assignment indexes outside values")
        if hit != set(range(len(self.values))):
            raise ValueError(f"variable {self.name!r}: every value must be taken (surjectivity)")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ConceptualVariable):
            return NotImplemented
        return self.domain == other.domain and self.partition() == other.partition()

    def __hash__(self) -> int:
        return hash((self.domain, self.partition()))

    def partition(self) -> tuple[int, ...]:
        return canonical_partition(self.assignment)

    @property
    def value_count(self) -> int:
        return len(self.values)

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        """Fibers of the assignment, indexed by value, points ascending."""
        out: list[list[int]] = [[] for _ in self.values]
        for point, v in enumerate(self.assignment):
            out[v].append(point)
        return tuple(tuple(b) for b in out)

    def is_identity_partition(self) -> bool:
        return len(self.values) == self.domain.size

    def numeric_values(self) -> tuple[float, ...]:
        """Parse value labels as numbers; operator construction needs this."""
        try:
            nums = tuple(float(v) for v in self.values)
        except ValueError as exc:
            raise ValueError(
                f"variable {self.name!r}: value labels must be numeric, got {self.values!r}"
            ) from exc
        if not all(map(math.isfinite, nums)):
            raise ValueError(f"variable {self.name!r}: value labels must be finite, got {self.values!r}")
        if len(set(nums)) != len(nums):
            raise ValueError(f"variable {self.name!r}: numeric values collide: {nums!r}")
        return nums

    def compose(self, images: Sequence[int], name: str | None = None) -> "ConceptualVariable":
        """The variable point -> self(images[point]), i.e. self after a point map."""
        return ConceptualVariable(
            name=name or f"{self.name}*",
            domain=self.domain,
            values=self.values,
            assignment=compose(self.assignment, images),
        )


class VariableFamily(Frozen):
    """Generating variables over one shared domain.

    ``inaccessible_total`` records that the underlying total configuration is
    not itself available, so no generator may induce the all-singletons
    partition.
    """

    generators: tuple[ConceptualVariable, ...]
    inaccessible_total: bool

    def __init__(
        self, generators: Iterable[ConceptualVariable], inaccessible_total: bool = True
    ) -> None:
        super().__init__(tuple(generators), inaccessible_total)
        if not self.generators:
            raise ValueError("a variable family needs at least one generator")
        domain = self.generators[0].domain
        for g in self.generators:
            if g.domain != domain:
                raise DomainMismatchError(
                    f"family mixes domains {domain.id!r} and {g.domain.id!r}"
                )
        if self.inaccessible_total:
            for g in self.generators:
                if g.is_identity_partition():
                    raise ValueError(
                        f"generator {g.name!r} distinguishes every point, contradicting "
                        "an inaccessible total configuration"
                    )

    @property
    def domain(self) -> PointSpace:
        return self.generators[0].domain


def _require_same_domain(theta: ConceptualVariable, lam: ConceptualVariable) -> None:
    if theta.domain != lam.domain:
        raise DomainMismatchError(
            f"variables {theta.name!r} and {lam.name!r} live on different spaces"
        )


def dominates(theta: ConceptualVariable, lam: ConceptualVariable) -> bool:
    """True iff theta = f(lam) for some map f, i.e. lam's partition refines theta's."""
    _require_same_domain(theta, lam)
    forced: dict[int, int] = {}
    for point in range(theta.domain.size):
        lv = lam.assignment[point]
        tv = theta.assignment[point]
        if forced.setdefault(lv, tv) != tv:
            return False
    return True


def is_accessible(theta: ConceptualVariable, family: VariableFamily) -> bool:
    """True iff some generator determines theta (downward closure membership)."""
    _require_same_domain(theta, family.generators[0])
    return any(dominates(theta, g) for g in family.generators)


def maximal_accessible(family: VariableFamily) -> tuple[ConceptualVariable, ...]:
    """Generators not strictly below another generator, deduped by partition.

    Anything accessible is below some generator, so the refinement-maximal
    accessible variables are exactly the maximal generators.
    """
    kept: list[ConceptualVariable] = []
    seen: set[tuple[int, ...]] = set()
    for g in family.generators:
        if any(dominates(g, h) and not dominates(h, g) for h in family.generators):
            continue
        key = g.partition()
        if key in seen:
            continue
        seen.add(key)
        kept.append(g)
    return tuple(kept)
