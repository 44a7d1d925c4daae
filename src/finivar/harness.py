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
    subgroup_classes,
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
    "ProofConstruction",
    "proof_group_construction",
    "FalsifierCounterexample",
    "FalsifierReport",
    "exhaustive_falsifier",
    "balanced_partitions",
    "partitions_with_block_sizes",
]

A1_PARTITION_ENUM_LIMIT = 6
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
    status: str  # "pass" | "fail" | "not-applicable"
    reason: str
    candidates_checked: int
    witness_partition: tuple[int, ...] | None = None
    witness_element: Permutation | None = None


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
    ``all_partitions`` is set (small spaces only).  Finding a candidate
    falsifies the claim and is reported as a failure with the witness.
    """
    group = scenario.group
    maximal = set(maximal_accessible(scenario.family))
    if theta not in maximal or eta not in maximal:
        return A1SearchResult(
            "not-applicable", "theta and eta must be maximal within the family", 0
        )
    relating = are_related(theta, eta, group)
    if relating is None:
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
    candidates: list[ConceptualVariable] = [
        m for m in scenario.members if m.partition() not in skip
    ]
    if all_partitions:
        n = scenario.space.size
        if n > A1_PARTITION_ENUM_LIMIT:
            raise ValueError(
                f"partition enumeration is limited to {A1_PARTITION_ENUM_LIMIT} points, "
                f"space has {n}"
            )
        sizes = tuple(sorted((len(b) for b in theta.blocks()), reverse=True))
        seen = {c.partition() for c in candidates} | skip
        for assignment in partitions_with_block_sizes(n, sizes):  # each comes once
            if assignment not in seen:
                candidates.append(_variable_from_partition(scenario.space, assignment, "candidate"))
    checked = 0
    for lam in candidates:
        checked += 1
        to_theta = are_related(lam, theta, group)
        if to_theta is None:
            continue
        to_eta = are_related(lam, eta, group)
        if to_eta is None:
            return A1SearchResult(
                "fail",
                "found a maximal variable related to theta but not to eta",
                checked,
                witness_partition=lam.partition(),
                witness_element=to_theta,
            )
    return A1SearchResult("pass", "no qualifying variable exists", checked)


def _variable_from_partition(
    space: PointSpace, assignment: tuple[int, ...], name: str
) -> ConceptualVariable:
    count = max(assignment) + 1
    return ConceptualVariable(
        name=name,
        domain=space,
        values=tuple(f"c{i}" for i in range(count)),
        assignment=assignment,
    )


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
class ProofConstruction:
    """Outcome of searching for a regular structure-preserving subgroup."""

    found: bool
    group: PermutationGroup | None
    stabilizer_order: int
    subgroups_searched: int
    transitive: bool
    trivial_isotropy: bool
    theta_permissible: bool
    reason: str


def _partition_stabilizer(assignments: list[tuple[int, ...]], n: int) -> list[tuple[int, ...]]:
    """The permutations k of range(n) under which every assignment a∘k has a's partition.

    Such a k maps each assignment's blocks onto its blocks.  Images are chosen
    point by point, in lexicographic order, and a partial map is dropped as
    soon as it sends two points of one block to different blocks, or two
    blocks to one.
    """
    found: list[tuple[int, ...]] = []

    def extend(images: tuple[int, ...], block_maps: tuple[dict[int, int], ...]) -> None:
        x = len(images)
        if x == n:
            found.append(images)
            return
        for y in range(n):
            if y in images:
                continue
            maps = []
            for a, forward in zip(assignments, block_maps):
                target = forward.get(a[x])
                if target is None and a[y] in forward.values() or target not in (None, a[y]):
                    break
                maps.append(forward if target is not None else {**forward, a[x]: a[y]})
            else:
                extend(images + (y,), tuple(maps))

    extend((), tuple({} for _ in assignments))
    return found


def proof_group_construction(
    scenario: ThoughtScenario,
    theta: ConceptualVariable,
    lam: ConceptualVariable,
    xi: ConceptualVariable,
) -> ProofConstruction:
    """Search for a group permuting theta-fibers that acts regularly.

    Candidate elements are the permutations preserving all three fiber
    structures (so only the triple's information moves); among the subgroups
    of that stabilizer the lexicographically smallest transitive one with
    trivial isotropy is selected: the least conjugate of a regular class
    representative.  Not finding one is reported, not raised: the claim under
    test asserts existence.
    """
    space = scenario.space
    n = space.size
    if n > 8:
        raise ValueError(f"construction search is limited to 8 points, space has {n}")
    for var in (theta, lam, xi):
        if var.is_constant():
            raise ValueError(f"variable {var.name!r} is constant, hence not maximal")
        if var.domain != space:
            raise ValueError(f"variable {var.name!r} does not live on the scenario space")
    counts = {var.value_count for var in (theta, lam, xi)}
    if len(counts) != 1:
        raise ValueError("the three variables must have matching value-space sizes")
    maximal = set(maximal_accessible(scenario.family))
    for var in (theta, lam, xi):
        if var not in maximal:
            raise ValueError(f"variable {var.name!r} is not maximal within the family")
    stabilizer = _partition_stabilizer([var.assignment for var in (theta, lam, xi)], n)
    classes = subgroup_classes(stabilizer)
    # of order n, a group is regular exactly when it moves 0 to every point
    regular = [
        cls.elements
        for cls in classes
        if cls.order == n and len({images[0] for images in cls.elements}) == n
    ]
    found, chosen = bool(regular), None
    if found:  # regularity is invariant under conjugation
        inverses = {k: tuple(sorted(range(n), key=k.__getitem__)) for k in stabilizer}
        least = min(
            tuple(sorted(compose(compose(k, h), k_inv) for h in elements))
            for elements in regular
            for k, k_inv in inverses.items()
        )
        chosen = PermutationGroup(space, (), tuple(Permutation(t) for t in least))
    return ProofConstruction(
        found=found,
        group=chosen,
        stabilizer_order=len(stabilizer),
        subgroups_searched=sum(cls.conjugates for cls in classes),
        transitive=found,
        trivial_isotropy=found,
        theta_permissible=found and bool(is_permissible(theta, chosen)),
        reason=(
            "selected the lexicographically smallest regular subgroup"
            if found
            else "no transitive subgroup with trivial isotropy preserves the triple"
        ),
    )


@dataclass(frozen=True)
class FalsifierCounterexample:
    n: int
    blocks: int
    family: tuple[tuple[int, ...], ...]
    group_elements: tuple[tuple[int, ...], ...]
    classes: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class FalsifierReport:
    max_n: int
    instances: int
    families: int
    verdict_counts: tuple[tuple[str, int], ...]
    mixed_with_satisfied_hypotheses: int
    counterexamples: tuple[FalsifierCounterexample, ...]
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
    transitive group with trivial isotropy can satisfy the hypotheses; those
    are classified one by one with :func:`classify_thoughts`.
    """
    if max_n < 1:
        raise ValueError("max_n must be positive")
    if max_n > MAX_EXACT_DEGREE:
        raise ValueError(
            f"the census enumerates subgroup classes only up to {MAX_EXACT_DEGREE} points"
        )
    instances = families_total = 0
    verdict_counts = Counter({VERDICT_ALL_RELATED: 0, VERDICT_ALL_DIFFERENT: 0, VERDICT_MIXED: 0})
    counterexamples: list[FalsifierCounterexample] = []
    classes_by_degree: list[tuple[int, int]] = []
    for n in range(1, max_n + 1):
        shapes = [(b, balanced_partitions(n, b)) for b in range(2, n) if n % b == 0]
        shapes = [(b, partitions) for b, partitions in shapes if len(partitions) >= 3]
        if not shapes:
            continue
        space = PointSpace(id=f"points-{n}", labels=tuple(str(i) for i in range(n)))
        group_classes: tuple[SubgroupClass, ...] = subgroup_conjugacy_classes(n)
        classes_by_degree.append((n, len(group_classes)))
        for blocks, partitions in shapes:
            families_total += math.comb(len(partitions), 3)
            instances += math.comb(len(partitions), 3) * len(group_classes)
            # keyed by (family, group index): partitions are sorted, so family-major
            found: dict[tuple[tuple[tuple[int, ...], ...], int], FalsifierCounterexample] = {}
            for g_idx, cls in enumerate(group_classes):
                orbits = _partition_orbits(partitions, cls.generators)
                verdict_counts.update(_verdict_counts(map(len, orbits)))
                fixed = sorted(p for orbit in orbits if len(orbit) == 1 for p in orbit)
                # transitive with trivial isotropy means regular: order n
                if cls.order != n or len(fixed) < 3:
                    continue
                group = PermutationGroup(space, (), tuple(Permutation(t) for t in cls.elements))
                if not (group.is_transitive() and group.has_trivial_isotropy()):
                    continue
                for combo in itertools.combinations(fixed, 3):
                    members = tuple(
                        _variable_from_partition(space, assignment, f"t{i}")
                        for i, assignment in enumerate(combo)
                    )
                    scenario = ThoughtScenario(space, VariableFamily(members), group)
                    result = classify_thoughts(scenario)
                    if result.verdict == VERDICT_MIXED and result.hypotheses.satisfied:
                        found[combo, g_idx] = FalsifierCounterexample(
                            n, blocks, combo, cls.elements, result.classes
                        )
            counterexamples.extend(found[key] for key in sorted(found))
            if progress is not None:
                progress(f"n={n} blocks={blocks}: done ({instances} instances so far)")
    return FalsifierReport(
        max_n=max_n,
        instances=instances,
        families=families_total,
        verdict_counts=tuple(sorted(verdict_counts.items())),
        mixed_with_satisfied_hypotheses=len(counterexamples),
        counterexamples=tuple(counterexamples),
        subgroup_classes_by_degree=tuple(classes_by_degree),
        complete=True,
    )
