"""Relatedness classification, existence search, and the exhaustive falsifier."""

from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finivar.groups import Permutation, PermutationGroup, are_related, is_permissible
from finivar.harness import (
    _partition_count,
    _partition_orbits,
    _verdict_counts,
    VERDICT_ALL_DIFFERENT,
    VERDICT_ALL_RELATED,
    VERDICT_MIXED,
    ThoughtScenario,
    balanced_partitions,
    classify_thoughts,
    exhaustive_falsifier,
    partitions_with_block_sizes,
    theorem_a1_search,
)
from finivar.spaces import VariableFamily, canonical_partition, compose
from finivar.subgroups import subgroup_classes, subgroup_conjugacy_classes

from conftest import generated_by_some_of, permutations_of, space_of, variable_from_assignment
from test_subgroups import class_shapes, every_subgroup, triple_stabilizer


def pair_partition_family(space):
    """The three 2+2 partitions of a 4-point space."""
    return tuple(
        variable_from_assignment(space, a, name)
        for a, name in [
            ((0, 0, 1, 1), "halves"),
            ((0, 1, 0, 1), "stripes"),
            ((0, 1, 1, 0), "diagonals"),
        ]
    )


@pytest.fixture
def square4():
    return space_of(4, "sq")


@pytest.fixture
def rotation4(square4):
    return PermutationGroup.generate(square4, (Permutation((1, 2, 3, 0)),))


class TestThoughtScenarioValidation:
    def test_family_domain_must_match(self, square4, rotation4):
        other = space_of(4, "other")
        member = variable_from_assignment(other, (0, 0, 1, 1), "t")
        with pytest.raises(ValueError, match="family domain"):
            ThoughtScenario(square4, VariableFamily((member,)), rotation4)

    def test_group_space_must_match(self, square4):
        other = space_of(4, "other")
        group = PermutationGroup.generate(other, (Permutation((1, 2, 3, 0)),))
        member = variable_from_assignment(square4, (0, 0, 1, 1), "t")
        with pytest.raises(ValueError, match="group must act"):
            ThoughtScenario(square4, VariableFamily((member,)), group)

    def test_duplicate_names_rejected(self, square4, rotation4):
        members = (
            variable_from_assignment(square4, (0, 0, 1, 1), "same"),
            variable_from_assignment(square4, (0, 1, 0, 1), "same"),
        )
        with pytest.raises(ValueError, match="distinct names"):
            ThoughtScenario(square4, VariableFamily(members), rotation4)

    def test_mixed_cardinalities_rejected(self, square4, rotation4):
        members = (
            variable_from_assignment(square4, (0, 0, 1, 1), "pair"),
            variable_from_assignment(square4, (0, 1, 2, 2), "triple"),
        )
        with pytest.raises(ValueError, match="cardinality"):
            ThoughtScenario(square4, VariableFamily(members), rotation4)

    def test_members_property(self, square4, rotation4):
        members = pair_partition_family(square4)
        scenario = ThoughtScenario(square4, VariableFamily(members), rotation4)
        assert scenario.members == members


class TestClassifyThoughts:
    def test_needs_three_members(self, square4, rotation4):
        members = pair_partition_family(square4)[:2]
        scenario = ThoughtScenario(square4, VariableFamily(members), rotation4)
        with pytest.raises(ValueError, match="at least 3"):
            classify_thoughts(scenario)

    def test_trivial_group_all_essentially_different(self, square4):
        members = pair_partition_family(square4)
        group = PermutationGroup.generate(square4, ())
        scenario = ThoughtScenario(square4, VariableFamily(members), group)
        result = classify_thoughts(scenario)
        assert result.verdict == VERDICT_ALL_DIFFERENT
        assert result.classes == (("halves",), ("stripes",), ("diagonals",))
        assert not result.hypotheses.transitive

    def test_full_symmetric_group_all_related(self, square4):
        members = pair_partition_family(square4)
        group = PermutationGroup.generate(
            square4, (Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0)))
        )
        scenario = ThoughtScenario(square4, VariableFamily(members), group)
        result = classify_thoughts(scenario)
        assert result.verdict == VERDICT_ALL_RELATED
        assert result.classes == (("halves", "stripes", "diagonals"),)
        # hypotheses fail on isotropy, so the verdict carries no dichotomy force
        assert not result.hypotheses.trivial_isotropy

    def test_rotation_group_mixed_with_violated_hypotheses(self, square4, rotation4):
        members = pair_partition_family(square4)
        scenario = ThoughtScenario(square4, VariableFamily(members), rotation4)
        result = classify_thoughts(scenario)
        assert result.verdict == VERDICT_MIXED
        assert result.classes == (("stripes",), ("halves", "diagonals"))
        # the mixed verdict is compatible with the dichotomy because
        # permissibility fails for the split pair
        assert not result.hypotheses.satisfied
        assert dict(result.hypotheses.permissible) == {
            "halves": False,
            "stripes": True,
            "diagonals": False,
        }

    def test_relations_record_witnesses(self, square4, rotation4):
        members = pair_partition_family(square4)
        scenario = ThoughtScenario(square4, VariableFamily(members), rotation4)
        result = classify_thoughts(scenario)
        by_pair = {(r.left, r.right): r for r in result.relations}
        assert len(by_pair) == 3
        assert by_pair[("halves", "diagonals")].related
        assert not by_pair[("halves", "stripes")].related
        assert all(r.searched == rotation4.order for r in result.relations)

    def test_declared_symmetric_group_relates_every_same_shape_pair(self, square4):
        members = pair_partition_family(square4)
        s4 = PermutationGroup.generate(
            square4, (Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0)))
        )
        scenario = ThoughtScenario(square4, VariableFamily(members), s4)
        result = classify_thoughts(scenario)
        assert result.verdict == VERDICT_ALL_RELATED
        assert all(r.searched == 24 for r in result.relations)
        by_name = {m.name: m for m in members}
        for r in result.relations:
            moved = by_name[r.left].compose(r.witness.images)
            assert moved.partition() == by_name[r.right].partition()


def regular_groups(max_n):
    """One group of every regular (transitive, trivial isotropy) subgroup class
    of S_n, n <= max_n."""
    for n in range(1, max_n + 1):
        for cls in subgroup_conjugacy_classes(n):
            group = PermutationGroup.generate(space_of(n), tuple(map(Permutation, cls.generators)))
            if group.is_transitive() and group.has_trivial_isotropy():
                yield group


def balanced_shapes(n):
    """The census's shapes: the balanced partitions of n points into 2..n-1 blocks."""
    return [balanced_partitions(n, b) for b in range(2, n) if n % b == 0]


def a1_lemma_cases():
    """(group, theta, theta∘k) for every regular subgroup class of S_n, n <= 6,
    every permissible balanced theta and every k in the group."""
    for group in regular_groups(6):
        for partitions in balanced_shapes(group.space.size):
            for p in partitions:
                theta = variable_from_assignment(group.space, p, "theta")
                if is_permissible(theta, group):
                    for k in group.elements:
                        yield group, theta, theta.compose(k.images, "eta")


def candidates_related_to_theta(scenario, theta, eta):
    """The candidate loop theorem_a1_search once ran with ``all_partitions``:
    every candidate, and those related to theta (each then tried against eta)."""
    skip = {theta.partition(), eta.partition()}
    candidates = [m for m in scenario.members if m.partition() not in skip]
    sizes = tuple(sorted((len(b) for b in theta.blocks()), reverse=True))
    seen = {c.partition() for c in candidates} | skip
    for assignment in partitions_with_block_sizes(scenario.space.size, sizes):
        if assignment not in seen:
            candidates.append(variable_from_assignment(scenario.space, assignment, "candidate"))
    related = [lam for lam in candidates if are_related(lam, theta, scenario.group) is not None]
    return len(candidates), related


class TestA1Search:
    def scenario(self, space, members, group):
        return ThoughtScenario(space, VariableFamily(members), group)

    def test_no_candidate_is_related_to_a_permissible_theta(self):
        """The lemma that decides every applicable search: a permissible theta
        is fixed by every element, so theta∘k has theta's partition, and no
        candidate (another partition) is related to theta."""
        cases = list(a1_lemma_cases())
        assert len(cases) == 52
        for group, theta, eta in cases:
            assert eta.partition() == theta.partition()
            scenario = self.scenario(group.space, (theta, eta), group)
            checked, related = candidates_related_to_theta(scenario, theta, eta)
            assert related == []
            result = theorem_a1_search(scenario, theta, eta, all_partitions=True)
            assert (result.status, result.candidates_checked) == ("pass", checked)

    def test_pass_with_all_partitions(self, square4, rotation4):
        parity = variable_from_assignment(square4, (0, 1, 0, 1), "parity")
        scenario = self.scenario(square4, (parity,), rotation4)
        result = theorem_a1_search(scenario, parity, parity, all_partitions=True)
        assert result.status == "pass"
        assert result.candidates_checked == 2
        # A member of another shape counts once and removes none of theta's shape.
        corner = variable_from_assignment(square4, (0, 0, 0, 1), "corner")
        scenario = self.scenario(square4, (parity, corner), rotation4)
        result = theorem_a1_search(scenario, parity, parity, all_partitions=True)
        assert (result.status, result.candidates_checked) == ("pass", 3)

    def test_not_applicable_when_not_maximal(self, square4, rotation4):
        members = pair_partition_family(square4)
        outsider = variable_from_assignment(square4, (0, 1, 2, 2), "outsider")
        scenario = self.scenario(square4, members, rotation4)
        result = theorem_a1_search(scenario, outsider, members[0])
        assert result.status == "not-applicable"
        assert "maximal" in result.reason

    def test_not_applicable_when_unrelated(self, square4):
        members = pair_partition_family(square4)
        group = PermutationGroup.generate(square4, ())
        scenario = self.scenario(square4, members, group)
        result = theorem_a1_search(scenario, members[0], members[1])
        assert result.status == "not-applicable"
        assert "not related" in result.reason

    def test_not_applicable_when_not_permissible(self, square4, rotation4):
        members = pair_partition_family(square4)
        scenario = self.scenario(square4, members, rotation4)
        # halves and diagonals are related under rotation but halves is not
        # permissible: the witness element and split points are reported
        result = theorem_a1_search(scenario, members[0], members[2])
        assert result.status == "not-applicable"
        assert "not permissible" in result.reason
        assert "k=" in result.reason

    def test_not_applicable_when_not_transitive(self, square4):
        parity = variable_from_assignment(square4, (0, 1, 0, 1), "parity")
        group = PermutationGroup.generate(square4, (Permutation((1, 0, 3, 2)),))
        scenario = self.scenario(square4, (parity,), group)
        result = theorem_a1_search(scenario, parity, parity)
        assert result.status == "not-applicable"
        assert "not transitive" in result.reason

    def test_not_applicable_with_nontrivial_isotropy(self, square4):
        stripes = variable_from_assignment(square4, (0, 1, 0, 1), "stripes")
        dihedral = PermutationGroup.generate(
            square4, (Permutation((1, 2, 3, 0)), Permutation((0, 3, 2, 1)))
        )
        assert dihedral.order == 8
        scenario = self.scenario(square4, (stripes,), dihedral)
        result = theorem_a1_search(scenario, stripes, stripes)
        assert result.status == "not-applicable"
        assert "isotropy" in result.reason

    def test_all_partitions_past_six_points_are_counted(self):
        space = space_of(8, "oct")
        group = PermutationGroup.generate(
            space, (Permutation((1, 2, 3, 4, 5, 6, 7, 0)),)
        )
        theta = variable_from_assignment(space, (0, 1, 0, 1, 0, 1, 0, 1), "alt")
        scenario = self.scenario(space, (theta,), group)
        result = theorem_a1_search(scenario, theta, theta, all_partitions=True)
        # The 35 partitions of 8 points into two blocks of 4, less theta's own.
        assert (result.status, result.candidates_checked) == ("pass", 34)


def block_size_multisets(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """Every multiset of positive block sizes summing to n, as descending tuples."""
    if n == 0:
        return [()]
    top = n if largest is None else min(n, largest)
    return [(k, *rest) for k in range(top, 0, -1) for rest in block_size_multisets(n - k, k)]


def set_based_partitions(n: int, sizes: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Oracle: the same anchored recursion, but sorting each partition's
    blocks, canonicalising its assignment and de-duplicating through a set."""
    results: set[tuple[int, ...]] = set()

    def recurse(remaining, left, blocks):
        if not remaining:
            assignment = [0] * n
            for b_idx, block in enumerate(sorted(blocks)):
                for p in block:
                    assignment[p] = b_idx
            results.add(canonical_partition(tuple(assignment)))
            return
        anchor = min(remaining)
        for size in sorted(set(left), reverse=True):
            rest = list(left)
            rest.remove(size)
            for combo in itertools.combinations(sorted(remaining - {anchor}), size - 1):
                block = (anchor, *combo)
                recurse(remaining - set(block), tuple(rest), blocks + (block,))

    recurse(frozenset(range(n)), tuple(sorted(sizes, reverse=True)), ())
    return tuple(sorted(results))


class TestPartitionEnumeration:
    # counts frozen from the multinomial formula n! / (prod sizes! * prod mult!)
    def test_pair_pairs_of_four(self):
        parts = partitions_with_block_sizes(4, (2, 2))
        assert len(parts) == 3
        assert parts == ((0, 0, 1, 1), (0, 1, 0, 1), (0, 1, 1, 0))

    def test_halves_of_six(self):
        assert len(balanced_partitions(6, 2)) == 10

    def test_thirds_of_six(self):
        assert len(balanced_partitions(6, 3)) == 15

    def test_uneven_sizes(self):
        parts = partitions_with_block_sizes(4, (3, 1))
        assert len(parts) == 4

    def test_outputs_are_canonical_and_sorted(self):
        parts = partitions_with_block_sizes(6, (2, 2, 2))
        assert list(parts) == sorted(parts)
        for p in parts:
            seen: list[int] = []
            for v in p:
                if v not in seen:
                    seen.append(v)
            assert seen == sorted(seen)

    def test_size_sum_must_match(self):
        with pytest.raises(ValueError, match="do not sum"):
            partitions_with_block_sizes(5, (2, 2))

    @pytest.mark.parametrize(
        "n, multisets, partitions",
        [
            (1, 1, 1), (2, 2, 2), (3, 3, 5), (4, 5, 15),
            (5, 7, 52), (6, 11, 203), (7, 15, 877), (8, 22, 4140),
        ],
    )
    def test_matches_the_set_based_oracle(self, n, multisets, partitions):
        """Every block-size multiset up to 8 points: 66 multisets (the integer
        partitions of n) and 5,295 set partitions (the Bell numbers)."""
        sizes = block_size_multisets(n)
        assert len(sizes) == multisets
        found = [partitions_with_block_sizes(n, s) for s in sizes]
        assert found == [set_based_partitions(n, s) for s in sizes]
        assert sum(map(len, found)) == partitions

    @pytest.mark.parametrize("n", range(1, 9))
    def test_count_matches_the_enumeration(self, n):
        """a1-search counts the partitions of theta's shape instead of listing them."""
        for sizes in block_size_multisets(n):
            assert _partition_count(sizes) == len(partitions_with_block_sizes(n, sizes))

    def test_balanced_divisibility(self):
        with pytest.raises(ValueError, match="evenly split"):
            balanced_partitions(5, 2)


def is_regular(space, elements):
    if len(elements) != space.size:
        return False
    group = PermutationGroup.generate(space, tuple(map(Permutation, elements)))
    assert group.order == len(elements)  # the listed subgroup generates itself
    return group.is_transitive() and group.has_trivial_isotropy()


def least_regular_subgroup(space, stabilizer, classes):
    """The group the paper's proof constructs, from the kernel: among the
    subgroup classes of a triple's stabilizer the regular ones, and of their
    conjugates the lexicographically least; None when no class is regular."""
    regular = [cls.elements for cls in classes if is_regular(space, cls.elements)]
    inverses = {k: tuple(sorted(range(space.size), key=k.__getitem__)) for k in stabilizer}
    return min(
        (
            tuple(sorted(compose(compose(k, h), k_inv) for h in elements))
            for elements in regular
            for k, k_inv in inverses.items()
        ),
        default=None,
    )


def enumerate_then_filter(space, subs):
    """Reference selection: of every subgroup, sorted by (order, elements), the
    first that is regular, or None."""
    ordered = sorted((tuple(sorted(h)) for h in subs), key=lambda els: (len(els), els))
    return next((els for els in ordered if is_regular(space, els)), None)


class TestProofConstruction:
    """The regular subgroups of the stabilizer of a triple theta, lambda, xi:
    the group the proof of the paper's theorem builds, found with the kernel
    that stays (subgroup_classes, is_permissible) and checked by brute force."""

    def test_finds_klein_four_group_for_pair_partitions(self, square4):
        members = pair_partition_family(square4)
        stabilizer = triple_stabilizer([var.assignment for var in members])
        classes = subgroup_classes(generated_by_some_of(square4, stabilizer))
        assert len(stabilizer) == 4
        assert sum(c.conjugates for c in classes) == 5
        klein = least_regular_subgroup(square4, stabilizer, classes)
        assert klein == ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))
        group = PermutationGroup.generate(square4, tuple(map(Permutation, klein)))
        assert [k.images for k in group.elements] == list(klein)
        assert all(is_permissible(var, group) for var in members)

    def test_reports_absence_without_raising(self):
        combo = ((0, 0, 0, 1, 1, 1), (0, 0, 1, 0, 1, 1), (0, 0, 1, 1, 0, 1))
        space = space_of(6, "six")
        stabilizer = triple_stabilizer(combo)
        classes = subgroup_classes(generated_by_some_of(space, stabilizer))
        assert len(stabilizer) == 2
        assert sum(c.conjugates for c in classes) == 2
        assert least_regular_subgroup(space, stabilizer, classes) is None

    @pytest.mark.parametrize("seed", range(12))
    def test_stabilizer_order_matches_fiber_loop(self, seed):
        """Oracle: count the permutations that map each variable's fibers into
        fibers.  The same permutations are those whose cyclic group leaves
        every variable permissible."""

        def preserves(images, var):
            assignment = var.assignment
            for block in var.blocks():
                v0 = assignment[images[block[0]]]
                for p in block[1:]:
                    if assignment[images[p]] != v0:
                        return False
            return True

        rng = random.Random(seed)
        n = rng.randint(4, 6)
        values = rng.randint(2, n - 1)
        space = space_of(n, "triple")
        base = list(range(values)) + [rng.randrange(values) for _ in range(n - values)]
        members = []
        for i in range(3):  # shuffled copies of one shape, so the stabilizer is often nontrivial
            rng.shuffle(base)
            members.append(variable_from_assignment(space, canonical_partition(base), f"t{i}"))
        expected = [
            images
            for images in itertools.permutations(range(n))
            if all(preserves(images, var) for var in members)
        ]
        permissible = [
            images
            for images in itertools.permutations(range(n))
            if all(
                is_permissible(var, PermutationGroup.generate(space, (Permutation(images),)))
                for var in members
            )
        ]
        assert permissible == expected
        assert len(triple_stabilizer([var.assignment for var in members])) == len(expected)


def seeded_triple(seed):
    """Three balanced partitions of 4-6 points; a member repeats the one before
    it half the time, which enlarges the stabilizer."""
    rng = random.Random(seed)
    n = rng.randint(4, 6)
    values = rng.choice([v for v in range(2, n) if n % v == 0] or [2])
    base = [i % values for i in range(n)]
    assignments = []
    for i in range(3):
        if i == 0 or rng.random() < 0.5:
            rng.shuffle(base)
        assignments.append(canonical_partition(base))
    return assignments


class TestProofConstructionOracle:
    def assert_matches_oracle(self, assignments):
        """subgroup_classes lists the subgroups the join over every cyclic
        subgroup finds, and its least regular conjugate is the first regular
        subgroup of that full list."""
        space = space_of(len(assignments[0]), "triple")
        stabilizer = triple_stabilizer(assignments)
        classes = subgroup_classes(generated_by_some_of(space, stabilizer))
        subs = every_subgroup(stabilizer, space.size)
        assert sorted((c.order, c.conjugates) for c in classes) == class_shapes(subs, stabilizer)
        chosen = least_regular_subgroup(space, stabilizer, classes)
        assert chosen == enumerate_then_filter(space, subs)
        return stabilizer, classes, chosen

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_triples_match_enumerate_then_filter(self, seed):
        """Balanced shapes where the points allow them, so that regular
        subgroups exist."""
        self.assert_matches_oracle(seeded_triple(seed))

    def test_least_conjugate_is_chosen_over_the_class_representative(self):
        """Three copies of one 2+2+2 partition: the smallest regular subgroup
        is a conjugate of the class representative, not the representative."""
        stabilizer, classes, chosen = self.assert_matches_oracle([(0, 1, 1, 0, 2, 2)] * 3)
        assert len(stabilizer) == 48
        assert chosen is not None
        assert chosen not in [c.elements for c in classes]


class TestPartitionStabilizer:
    @pytest.mark.parametrize("seed", range(30))
    def test_backtracking_matches_the_full_scan(self, seed):
        """Random triples of 3-7 points, of any shapes: the permutations the
        full scan finds are those under which _partition_orbits leaves each
        partition its own orbit, in the same order, and they form a group
        under which each variable is permissible."""
        rng = random.Random(seed)
        n = rng.randint(3, 7)
        space = space_of(n, "triple")
        members = []
        for i in range(3):
            values = rng.randint(1, n)
            base = list(range(values)) + [rng.randrange(values) for _ in range(n - values)]
            rng.shuffle(base)
            members.append(variable_from_assignment(space, canonical_partition(base), f"t{i}"))
        partitions = tuple(var.partition() for var in members)
        stabilizer = triple_stabilizer(partitions)
        fixing = [
            k
            for k in itertools.permutations(range(n))
            if all(len(orbit) == 1 for orbit in _partition_orbits(partitions, [k]))
        ]
        assert fixing == stabilizer
        group = generated_by_some_of(space, stabilizer)
        assert all(is_permissible(var, group) for var in members)

    def test_eight_points(self):
        """Three copies of (0, 1, 2, 3, 3, 2, 0, 1): S2 wr S4, 384 permutations,
        whose 1,659 subgroups the join search over every cyclic subgroup takes
        minutes to list; a regular one is among them."""
        space = space_of(8, "eight")
        stabilizer = triple_stabilizer([(0, 1, 2, 3, 3, 2, 0, 1)] * 3)
        assert len(stabilizer) == 384
        classes = subgroup_classes(generated_by_some_of(space, stabilizer))
        assert sum(c.conjugates for c in classes) == 1659
        assert least_regular_subgroup(space, stabilizer, classes) is not None


class TestFalsifier:
    def test_four_point_goldens(self):
        report = exhaustive_falsifier(4)
        assert report.instances == 11
        assert report.families == 1
        assert report.verdict_count(VERDICT_ALL_DIFFERENT) == 3
        assert report.verdict_count(VERDICT_ALL_RELATED) == 4
        assert report.verdict_count(VERDICT_MIXED) == 4
        assert report.mixed_with_satisfied_hypotheses == 0
        assert report.subgroup_classes_by_degree == ((4, 11),)
        assert report.complete

    def test_small_spaces_are_vacuous(self):
        report = exhaustive_falsifier(3)
        assert report.instances == 0
        assert report.families == 0
        assert report.subgroup_classes_by_degree == ()
        assert report.complete

    def test_progress_callback(self):
        messages: list[str] = []
        exhaustive_falsifier(4, progress=messages.append)
        assert messages and all("instances so far" in m for m in messages)

    def test_bounds(self):
        with pytest.raises(ValueError, match="positive"):
            exhaustive_falsifier(0)
        with pytest.raises(ValueError, match="up to 6"):
            exhaustive_falsifier(7)


def classified_verdict_counts(n, partitions, cls):
    """Verdict counts over every family of the shape, one classification each."""
    space = space_of(n, "census")
    group = PermutationGroup.generate(space, tuple(map(Permutation, cls.generators)))
    counts = {VERDICT_ALL_RELATED: 0, VERDICT_ALL_DIFFERENT: 0, VERDICT_MIXED: 0}
    for combo in itertools.combinations(partitions, 3):
        members = tuple(
            variable_from_assignment(space, a, f"t{i}") for i, a in enumerate(combo)
        )
        verdict = classify_thoughts(ThoughtScenario(space, VariableFamily(members), group)).verdict
        counts[verdict] += 1
    return counts


def fixed_family_verdicts(max_n):
    """Verdicts of every family of three partitions that a regular subgroup
    class of S_n, n <= max_n, fixes, over every census shape, one
    classification each: the only families whose hypotheses hold."""
    verdicts = Counter()
    for group in regular_groups(max_n):
        elements = [k.images for k in group.elements]
        for partitions in balanced_shapes(group.space.size):
            fixed = [p for orbit in element_orbits(partitions, elements) if len(orbit) == 1 for p in orbit]
            for combo in itertools.combinations(fixed, 3):
                members = tuple(
                    variable_from_assignment(group.space, a, f"t{i}") for i, a in enumerate(combo)
                )
                result = classify_thoughts(ThoughtScenario(group.space, VariableFamily(members), group))
                assert result.hypotheses.satisfied
                verdicts[result.verdict] += 1
    return verdicts


@st.composite
def balanced_groups(draw):
    """A group from random generators on at most 6 points, plus a balanced shape."""
    n = draw(st.integers(2, 6))
    blocks = draw(st.sampled_from([b for b in range(2, n + 1) if n % b == 0]))
    gens = draw(st.lists(permutations_of(n), max_size=2))
    return PermutationGroup.generate(space_of(n), tuple(gens)), balanced_partitions(n, blocks)


def element_orbits(partitions, elements):
    """Orbits on the partitions, each by mapping through every group element."""
    orbits = []
    for p in partitions:
        if not any(p in orbit for orbit in orbits):
            images = (tuple(map(p.__getitem__, k)) for k in elements)
            orbits.append(frozenset(map(canonical_partition, images)))
    return orbits


class TestOrbitCounting:
    @pytest.mark.parametrize("n", [4, 6])
    def test_generator_orbits_match_element_orbits(self, n):
        shapes = [balanced_partitions(n, b) for b in range(2, n) if n % b == 0]
        for partitions in shapes:
            for cls in subgroup_conjugacy_classes(n):
                orbits = _partition_orbits(partitions, cls.generators)
                assert orbits == element_orbits(partitions, cls.elements)

    @pytest.mark.parametrize("n", [4, 6])
    def test_counts_match_per_family_classification(self, n):
        partitions = balanced_partitions(n, 2)
        for cls in subgroup_conjugacy_classes(n):
            orbits = _partition_orbits(partitions, cls.elements)
            counted = _verdict_counts(len(orbit) for orbit in orbits)
            assert counted == classified_verdict_counts(n, partitions, cls)
        # the census counts the families that satisfy the hypotheses from the orbits
        verdicts = fixed_family_verdicts(n)
        assert set(verdicts) == {VERDICT_ALL_DIFFERENT}
        assert exhaustive_falsifier(n).mixed_with_satisfied_hypotheses == verdicts[VERDICT_MIXED]

    @given(balanced_groups())
    @settings(max_examples=100, deadline=None)
    def test_permissible_exactly_when_orbit_is_itself(self, group_shape):
        group, partitions = group_shape
        orbits = _partition_orbits(partitions, [k.images for k in group.elements])
        orbit_of = {p: orbit for orbit in orbits for p in orbit}
        variables = [
            variable_from_assignment(group.space, p, f"v{i}") for i, p in enumerate(partitions)
        ]
        permissible = [v for v in variables if is_permissible(v, group)]
        assert [v.partition() for v in permissible] == [p for p in partitions if orbit_of[p] == {p}]
        for theta, eta in itertools.product(permissible, repeat=2):
            related = are_related(theta, eta, group) is not None
            assert related == (theta.partition() == eta.partition())
