"""Brute-force verification of the relatedness dichotomy claims.

A thought scenario is a family of same-sized maximal variables plus a group
acting on their shared domain.  Classification partitions the family into
relatedness classes; the falsifier enumerates every scenario up to a size
bound (balanced value spaces, all subgroup actions up to conjugacy) and
demands that no mixed verdict survives with the structural hypotheses
(transitivity, trivial isotropy, permissibility, no declared coordinate
exchange) intact.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .groups import (
    Permutation,
    PermutationGroup,
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


@dataclass(frozen=True)
class ThoughtScenario:
    """A family of candidate thoughts plus the acting group."""

    space: PointSpace
    family: VariableFamily
    group: PermutationGroup

    def __post_init__(self) -> None:
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
        maximal = set(maximal_accessible(self.family))
        for m in members:
            if m not in maximal:
                raise ValueError(f"family member {m.name!r} is not maximal within the family")

    @property
    def members(self) -> tuple[ConceptualVariable, ...]:
        return self.family.generators


@dataclass(frozen=True)
class PairRelation:
    left: str
    right: str
    witness: Permutation | None
    searched: int

    @property
    def related(self) -> bool:
        return self.witness is not None


@dataclass(frozen=True)
class HypothesisReport:
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


@dataclass(frozen=True)
class ClassificationResult:
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


@dataclass(frozen=True)
class A1SearchResult:
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
    maximal = set(maximal_accessible(scenario.family))
    if theta not in maximal or eta not in maximal:
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


def partitions_with_block_sizes(n: int, sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All set partitions of 0..n-1 with the given block-size multiset.

    Returned as canonical assignment tuples in lexicographic order.  The
    recursion anchors each block at the smallest unlabeled point and gives it
    the next label, so each partition appears once, already canonical.
    """
    if sum(sizes) != n:
        raise ValueError(f"block sizes {sizes} do not sum to {n}")
    results: list[tuple[int, ...]] = []
    sizes_sorted = tuple(sorted(sizes, reverse=True))

    def recurse(remaining: frozenset[int], left: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]):
        if not remaining:
            assignment = [0] * n
            for b_idx, block in enumerate(blocks):
                for p in block:
                    assignment[p] = b_idx
            results.append(tuple(assignment))
            return
        anchor = min(remaining)
        for size in dict.fromkeys(left):  # each distinct size once
            rest_sizes = list(left)
            rest_sizes.remove(size)
            pool = sorted(remaining - {anchor})
            for combo in itertools.combinations(pool, size - 1):
                block = (anchor,) + combo
                recurse(remaining - set(block), tuple(rest_sizes), blocks + (block,))

    recurse(frozenset(range(n)), sizes_sorted, ())
    return tuple(sorted(results))


def balanced_partitions(n: int, blocks: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of 0..n-1 into equally sized blocks."""
    if n % blocks != 0:
        raise ValueError(f"{blocks} blocks cannot evenly split {n} points")
    size = n // blocks
    return partitions_with_block_sizes(n, tuple([size] * blocks))


@dataclass(frozen=True)
class FalsifierReport:
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
    partitions: tuple[tuple[int, ...], ...], generators: Sequence[tuple[int, ...]]
) -> list[frozenset[tuple[int, ...]]]:
    """Orbits of the group generated by ``generators`` on a closed set of partitions
    (p meets p∘k); the group is finite, so closure under the generators is the orbit."""
    orbits: list[frozenset[tuple[int, ...]]] = []
    seen: set[tuple[int, ...]] = set()
    for p in partitions:
        if p not in seen:
            seen.add(p)
            orbit = [p]
            for q in orbit:  # orbit grows while it is scanned
                for k in generators:
                    r = canonical_partition(compose(q, k))
                    if r not in seen:
                        seen.add(r)
                        orbit.append(r)
            orbits.append(frozenset(orbit))
    return orbits


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
    if max_n < 1:
        raise ValueError("max_n must be positive")
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
            for cls in group_classes:
                orbits = _partition_orbits(partitions, cls.generators)
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
