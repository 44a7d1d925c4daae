"""Brute-force verification of the relatedness dichotomy claims.

A thought scenario is a family of same-sized maximal variables plus a group
acting on their shared domain.  Classification partitions the family into
relatedness classes; the falsifier counts the verdicts of every scenario up
to a size bound (balanced value spaces, all subgroup actions up to
conjugacy) from each group's orbits on the partitions, listing no family,
and demands that no mixed verdict survives with the structural hypotheses
(transitivity, trivial isotropy, permissibility, no declared coordinate
exchange) intact.  The census reads the canonical form of each moved
partition from a table of the shape's relabellings, built once per shape
and call (``_relabellings``).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Callable, Iterable, Sequence

from ._record import Frozen
from .groups import (
    Permutation,
    PermutationGroup,
    _orbits,
    _reach,
    _symmetric_generators,
    are_related,
    flag_trivial_exchange,
    is_permissible,
)
from .spaces import (
    ConceptualVariable,
    PointSpace,
    VariableFamily,
    canonical_partition,
    compose,
    maximal_accessible,
)
from .subgroups import (
    MAX_EXACT_DEGREE,
    SubgroupClass,
    subgroup_conjugacy_classes,
)

__all__ = [
    "ThoughtScenario",
    "PairRelation",
    "HypothesisReport",
    "ClassificationResult",
    "classify_thoughts",
    "A1SearchResult",
    "theorem_a1_search",
    "FalsifierReport",
    "exhaustive_falsifier",
    "balanced_partitions",
    "partitions_with_block_sizes",
]

VERDICT_ALL_RELATED = "all-related"
VERDICT_ALL_DIFFERENT = "all-essentially-different"
VERDICT_MIXED = "mixed"


class ThoughtScenario(Frozen):
    """A family of candidate thoughts plus the acting group.

    ``maximal`` holds the family's maximal accessible variables, found once
    when the scenario is built.  Every member is among them: members share one
    value count, and a partition strictly finer than another has more blocks.
    """

    _fields = ("space", "family", "group")
    __slots__ = (*_fields, "maximal")
    space: PointSpace
    family: VariableFamily
    group: PermutationGroup
    maximal: frozenset[ConceptualVariable]

    def __init__(self, space: PointSpace, family: VariableFamily, group: PermutationGroup) -> None:
        super().__init__(space, family, group)
        if self.family.domain != self.space:
            raise ValueError("family domain must be the scenario space")
        if self.group.space != self.space:
            raise ValueError("group must act on the scenario space")
        members = self.family.generators
        names = [m.name for m in members]
        if len(set(names)) != len(names):
            raise ValueError("family members need distinct names for reporting")
        cardinalities = {m.value_count for m in members}
        if len(cardinalities) != 1:
            raise ValueError(
                f"family members must share one value-space cardinality, got {sorted(cardinalities)}"
            )
        object.__setattr__(self, "maximal", frozenset(maximal_accessible(self.family)))

    @property
    def members(self) -> tuple[ConceptualVariable, ...]:
        return self.family.generators


class PairRelation(Frozen):
    left: str
    right: str
    witness: Permutation | None
    searched: int

    @property
    def related(self) -> bool:
        return self.witness is not None


class HypothesisReport(Frozen):
    """Do the structural hypotheses hold for a scenario?"""

    transitive: bool
    trivial_isotropy: bool
    permissible: tuple[tuple[str, bool], ...]
    trivial_exchange_flagged: bool | None

    @property
    def all_permissible(self) -> bool:
        return all(ok for _, ok in self.permissible)

    @property
    def satisfied(self) -> bool:
        exchange_ok = self.trivial_exchange_flagged is not True
        return self.transitive and self.trivial_isotropy and self.all_permissible and exchange_ok


class ClassificationResult(Frozen):
    classes: tuple[tuple[str, ...], ...]
    verdict: str
    relations: tuple[PairRelation, ...]
    hypotheses: HypothesisReport


def _hypothesis_report(
    scenario: ThoughtScenario,
    related_pairs: Iterable[tuple[ConceptualVariable, ConceptualVariable]] = (),
) -> HypothesisReport:
    group = scenario.group
    permissible = tuple(
        (m.name, bool(is_permissible(m, group))) for m in scenario.members
    )
    exchange: bool | None = None
    if scenario.space.product is not None:
        exchange = any(
            flag_trivial_exchange(a, b, group) for a, b in related_pairs
        )
    return HypothesisReport(
        transitive=group.is_transitive(),
        trivial_isotropy=group.has_trivial_isotropy(),
        permissible=permissible,
        trivial_exchange_flagged=exchange,
    )


def classify_thoughts(scenario: ThoughtScenario) -> ClassificationResult:
    """Partition a family of at least three thoughts into relatedness classes."""
    members = scenario.members
    if len(members) < 3:
        raise ValueError(f"classification needs at least 3 thoughts, got {len(members)}")
    searched = scenario.group.order
    relations: list[PairRelation] = []
    parent = list(range(len(members)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    related_pairs: list[tuple[ConceptualVariable, ConceptualVariable]] = []
    for i, j in itertools.combinations(range(len(members)), 2):
        witness = are_related(members[i], members[j], scenario.group)
        relations.append(
            PairRelation(members[i].name, members[j].name, witness, searched)
        )
        if witness is not None:
            related_pairs.append((members[i], members[j]))
            parent[find(i)] = find(j)
    grouped: dict[int, list[str]] = {}
    for i, m in enumerate(members):
        grouped.setdefault(find(i), []).append(m.name)
    classes = tuple(tuple(names) for _, names in sorted(grouped.items()))
    if len(classes) == 1:
        verdict = VERDICT_ALL_RELATED
    elif all(len(c) == 1 for c in classes):
        verdict = VERDICT_ALL_DIFFERENT
    else:
        verdict = VERDICT_MIXED
    hypotheses = _hypothesis_report(scenario, related_pairs)
    return ClassificationResult(classes, verdict, tuple(relations), hypotheses)


class A1SearchResult(Frozen):
    status: str  # "pass" | "not-applicable"
    reason: str
    candidates_checked: int


def theorem_a1_search(
    scenario: ThoughtScenario,
    theta: ConceptualVariable,
    eta: ConceptualVariable,
    all_partitions: bool = False,
) -> A1SearchResult:
    """Look for a maximal variable related to theta yet unrelated to eta.

    Hypotheses (theta and eta maximal and related, theta permissible, group
    transitive with trivial isotropy) are checked first; any failure yields a
    not-applicable result naming the failed hypothesis.  Candidates are the
    family members, plus every partition with theta's block shape when
    ``all_partitions`` is set, other than theta's and eta's partitions.

    Once the hypotheses hold the search cannot fail: a permissible theta is
    fixed by every element, so every variable related to theta has theta's
    partition and is no candidate.  The candidates are counted, not searched.
    """
    group = scenario.group
    if theta not in scenario.maximal or eta not in scenario.maximal:
        return A1SearchResult(
            "not-applicable", "theta and eta must be maximal within the family", 0
        )
    if are_related(theta, eta, group) is None:
        return A1SearchResult(
            "not-applicable", "theta and eta are not related under the group", 0
        )
    permissibility = is_permissible(theta, group)
    if not permissibility:
        w = permissibility.witness
        return A1SearchResult(
            "not-applicable",
            f"theta is not permissible: k={list(w.k.images)} splits points "
            f"{w.phi1}, {w.phi2}",
            0,
        )
    if not group.is_transitive():
        return A1SearchResult("not-applicable", "group is not transitive", 0)
    if not group.has_trivial_isotropy():
        return A1SearchResult("not-applicable", "group has nontrivial isotropy", 0)

    skip = {theta.partition(), eta.partition()}
    candidates = [m.partition() for m in scenario.members if m.partition() not in skip]
    count = len(candidates)
    if all_partitions:  # theta's shape, less the partitions of that shape already counted
        shape = sorted(Counter(theta.partition()).values())
        seen = set(candidates) | skip
        count += _partition_count(shape) - sum(sorted(Counter(p).values()) == shape for p in seen)
    return A1SearchResult("pass", "no qualifying variable exists", count)


def _partition_count(sizes: Sequence[int]) -> int:
    """The number of set partitions with these block sizes: n! / (prod s! * prod m!),
    m the number of blocks of each size."""
    blocks = math.prod(math.factorial(s) for s in sizes)
    repeats = math.prod(math.factorial(m) for m in Counter(sizes).values())
    return math.factorial(sum(sizes)) // (blocks * repeats)


def _require_positive(name: str, value: object) -> None:
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _partition_moves(generators: Iterable[tuple[int, ...]], table: dict | None = None) -> list[Callable]:
    """The moves p ↦ the canonical form of p∘k of canonical partitions, one per
    k: ``table[p∘k]`` given ``_relabellings`` of a set holding p, else
    canonical_partition(p∘k)."""
    if table is not None:
        return [lambda p, k=k: table[compose(p, k)] for k in generators]
    # canonical_partition is looked up per call: a wrapper on this module sees each one
    return [lambda p, k=k: canonical_partition(compose(p, k)) for k in generators]


def _relabellings(partitions: Iterable[tuple[int, ...]], blocks: int) -> dict:
    """Each relabelling σ∘p (σ in S_blocks) of each canonical partition p into
    ``blocks`` blocks, mapped back to p.  On a set of partitions closed under
    moving the points, p∘k is a relabelling of one of them."""
    labels = list(itertools.permutations(range(blocks)))
    return {compose(sigma, p): p for p in partitions for sigma in labels}


def partitions_with_block_sizes(n: int, sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All set partitions of 0..n-1 with the given block-size multiset.

    Returned as canonical assignment tuples in lexicographic order.  They are
    one orbit of S_n, walked from the partition whose blocks are runs of
    points, which is already canonical.
    """
    _require_positive("n", n)
    for i, size in enumerate(sizes):
        _require_positive(f"sizes[{i}]", size)
    if sum(sizes) != n:
        raise ValueError(f"block sizes {sizes} do not sum to {n}")
    start = tuple(label for label, size in enumerate(sizes) for _ in range(size))
    return tuple(sorted(_reach(start, _partition_moves(_symmetric_generators(n)))))


def balanced_partitions(n: int, blocks: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of 0..n-1 into equally sized blocks."""
    _require_positive("n", n)
    _require_positive("blocks", blocks)
    if n % blocks != 0:
        raise ValueError(f"{blocks} blocks cannot evenly split {n} points")
    size = n // blocks
    return partitions_with_block_sizes(n, tuple([size] * blocks))


class FalsifierReport(Frozen):
    max_n: int
    instances: int
    families: int
    verdict_counts: tuple[tuple[str, int], ...]
    mixed_with_satisfied_hypotheses: int
    subgroup_classes_by_degree: tuple[tuple[int, int], ...]
    complete: bool

    def verdict_count(self, verdict: str) -> int:
        return dict(self.verdict_counts).get(verdict, 0)


def _partition_orbits(
    partitions: tuple[tuple[int, ...], ...],
    generators: Sequence[tuple[int, ...]],
    table: dict | None = None,
) -> list[frozenset[tuple[int, ...]]]:
    """Orbits of the group generated by ``generators`` on a closed set of partitions
    (p meets p∘k); the group is finite, so closure under the generators is the orbit.
    ``table``, if given, is the ``_relabellings`` of ``partitions``."""
    return list(map(frozenset, _orbits(partitions, _partition_moves(generators, table))))


def _verdict_counts(sizes: Iterable[int]) -> dict[str, int]:
    """Verdicts of all 3-subsets of the partitions, from the orbit sizes alone:
    one orbit is all-related, three distinct orbits all-different (e3)."""
    related = e1 = e2 = e3 = 0
    for size in sizes:
        related += math.comb(size, 3)
        e3 += e2 * size
        e2 += e1 * size
        e1 += size
    mixed = math.comb(e1, 3) - related - e3
    return {VERDICT_ALL_RELATED: related, VERDICT_ALL_DIFFERENT: e3, VERDICT_MIXED: mixed}


def exhaustive_falsifier(
    max_n: int,
    progress: Callable[[str], None] | None = None,
) -> FalsifierReport:
    """Classify every scenario with balanced value spaces up to ``max_n`` points.

    Families are all 3-subsets of the balanced partitions for each block count;
    groups are all subgroup actions up to conjugacy (covering all conjugates
    because every family relabeling is itself enumerated).  The report counts
    verdicts and must find no mixed verdict whose hypotheses are satisfied.

    Verdicts are counted, not enumerated: relatedness is orbit membership, so
    each (group, shape) needs only the group's orbits on the balanced
    partitions.  A permissible partition is fixed by every element (an orbit
    of size one), so only families of three fixed partitions under a
    transitive group with trivial isotropy satisfy the hypotheses, and their
    mixed verdicts are counted from those orbits too.
    """
    _require_positive("max_n", max_n)
    if max_n > MAX_EXACT_DEGREE:
        raise ValueError(
            f"the census enumerates subgroup classes only up to {MAX_EXACT_DEGREE} points"
        )
    instances = families_total = mixed_satisfied = 0
    verdict_counts = Counter({VERDICT_ALL_RELATED: 0, VERDICT_ALL_DIFFERENT: 0, VERDICT_MIXED: 0})
    classes_by_degree: list[tuple[int, int]] = []
    for n in range(1, max_n + 1):
        shapes = [(b, balanced_partitions(n, b)) for b in range(2, n) if n % b == 0]
        shapes = [(b, partitions) for b, partitions in shapes if len(partitions) >= 3]
        if not shapes:
            continue
        group_classes: tuple[SubgroupClass, ...] = subgroup_conjugacy_classes(n)
        classes_by_degree.append((n, len(group_classes)))
        for blocks, partitions in shapes:
            families_total += math.comb(len(partitions), 3)
            instances += math.comb(len(partitions), 3) * len(group_classes)
            table = _relabellings(partitions, blocks)
            for cls in group_classes:
                orbits = _partition_orbits(partitions, cls.generators, table)
                verdict_counts.update(_verdict_counts(map(len, orbits)))
                # of order n, a group is transitive with trivial isotropy
                # exactly when it moves 0 to every point
                if cls.order == n and len({images[0] for images in cls.elements}) == n:
                    fixed = (1 for orbit in orbits if len(orbit) == 1)
                    mixed_satisfied += _verdict_counts(fixed)[VERDICT_MIXED]
            if progress is not None:
                progress(f"n={n} blocks={blocks}: done ({instances} instances so far)")
    return FalsifierReport(
        max_n=max_n,
        instances=instances,
        families=families_total,
        verdict_counts=tuple(sorted(verdict_counts.items())),
        mixed_with_satisfied_hypotheses=mixed_satisfied,
        subgroup_classes_by_degree=tuple(classes_by_degree),
        complete=True,
    )
