"""Finite point spaces and the variables defined on them.

A variable is a surjective assignment of value labels to points.  Its identity
is the partition of the point space into fibers: two variables with the same
fibers carry the same information, so equality and hashing go through the
canonical partition and value labels matter only for reporting.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass
from operator import itemgetter
from typing import Sequence

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


def _id_tables(elements: Sequence[tuple[int, ...]]) -> tuple[list[array], array]:
    """Product and inverse tables of the permutation group ``elements``, on ids
    that are positions in it: ``mul[a][b]`` is the id of a∘b (apply b, then a),
    ``inv[a]`` the id of a's inverse.  The identity may sit anywhere.

    The full symmetric group S_n listed in lexicographic order has its rows
    joined from blocks of S_(n-1)'s rows (``_symmetric_rows``) and composes no
    tuples.  Any other group composes only the rows of a generating set from
    tuples; the row of s∘x is the row of s read through the row of x.
    """
    size = len(elements)
    index = {p: i for i, p in enumerate(elements)}
    degree = len(elements[0]) if elements else 0
    identity = index.get(tuple(range(degree)))
    if identity is None:
        raise ValueError("a group must contain the identity")
    code = "H" if size <= 1 << 16 else "I"
    if size == math.factorial(degree) and list(elements) == list(itertools.permutations(range(degree))):
        mul = _symmetric_rows(degree, code)
    else:
        mul = [None] * size
        mul[identity] = array(code, range(size))
        rows: list[array] = []
        for a in range(size):
            if mul[a] is None:
                try:
                    mul[a] = array(code, [index[compose(elements[a], b)] for b in elements])
                except KeyError as missing:
                    raise ValueError(
                        f"elements are not closed under composition: {list(missing.args[0])} is missing"
                    ) from None
                rows.append(mul[a])
                frontier = [x for x in range(size) if mul[x] is not None]
                while frontier:
                    new = []
                    for row in rows:
                        for x in frontier:
                            if mul[row[x]] is None:
                                mul[row[x]] = array(code, itemgetter(*mul[x])(row))
                                new.append(row[x])
                    frontier = new
    # p's inverse lists the points in the order of their images under p.
    inverse = (tuple(sorted(range(len(p)), key=p.__getitem__)) for p in elements)
    return mul, array(code, [index[q] for q in inverse])


def _symmetric_rows(n: int, code: str) -> list[array]:
    """The product rows of S_n on lexicographic ids, built by blocks.

    The ids j·(n-1)! .. (j+1)·(n-1)! - 1 are the b with b[0] = j, in the order
    of their tails.  Row a maps that block onto block a[j], and inside it the
    offsets are S_(n-1)'s row r_j(a): a with position j removed and its values
    standardised.  r_0(a) = id(a) mod (n-1)!, and for j >= 1
    r_j(a) = (a[0] - [a[0] > a[j]])·(n-2)! + r_(j-1)(tail of a).  So S_k's rows
    are kept as ``bytes`` shifted by every multiple of k! below n!, each joined
    from k of S_(k-1)'s, with no arithmetic per entry; S_n's rows are joined
    straight into arrays.
    """
    size = math.factorial(n)
    width = array(code).itemsize
    flat = array(code, range(size)).tobytes()
    level = [flat[i * width : (i + 1) * width] for i in range(size)]  # S_1's row, shifted by i
    removed = [[0]]  # removed[id(a)][j] = r_j(a), for a in S_(k-1)
    for k in range(2, n + 1):
        unit, sub = math.factorial(k - 1), math.factorial(k - 2)
        getters, below, removed = [], removed, []
        for rank, a in enumerate(itertools.permutations(range(k))):
            tail = below[rank % unit]
            r = [rank % unit] + [(a[0] - (a[0] > a[j])) * sub + tail[j - 1] for j in range(1, k)]
            removed.append(r)
            # at shift t·k!, block j is S_(k-1)'s row r_j(a) shifted by t·k! + a[j]·(k-1)!
            getters.append(itemgetter(*(a[j] * unit + r[j] for j in range(k))))
        if k == n:
            return [array(code, b"".join(get(level))) for get in getters]
        block = unit * k
        level = [b"".join(get(level[t : t + block])) for t in range(0, size, block) for get in getters]
    return [array(code, flat)]  # n <= 1


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


@dataclass(frozen=True)
class PointSpace:
    """A finite labeled set of points.

    ``product`` optionally declares that the points form a rectangular grid:
    it maps each point index to a coordinate pair.  Only the trivial-exchange
    test consults it.
    """

    id: str
    labels: tuple[str, ...]
    product: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if not self.id:
            raise ValueError("point space needs a nonempty id")
        if not self.labels:
            raise ValueError(f"point space {self.id!r} has no points")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"point space {self.id!r} has duplicate labels")
        if self.product is not None:
            coords = tuple((int(a), int(b)) for a, b in self.product)
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


@dataclass(frozen=True, eq=False)
class ConceptualVariable:
    """A surjective value assignment on a point space.

    ``assignment[point]`` is an index into ``values``.  Equality compares the
    domain and the canonical partition, not names or labels.
    """

    name: str
    domain: PointSpace
    values: tuple[str, ...]
    assignment: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "assignment", tuple(int(v) for v in self.assignment))
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

    def __call__(self, point: int) -> int:
        return self.assignment[point]

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


@dataclass(frozen=True)
class VariableFamily:
    """Generating variables over one shared domain.

    ``inaccessible_total`` records that the underlying total configuration is
    not itself available, so no generator may induce the all-singletons
    partition.
    """

    generators: tuple[ConceptualVariable, ...]
    inaccessible_total: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "generators", tuple(self.generators))
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
