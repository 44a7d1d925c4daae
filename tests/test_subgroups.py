"""Subgroup conjugacy classes of small permutation groups."""

from __future__ import annotations

import functools
import hashlib
from itertools import permutations as all_perms

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finivar import groups, spaces, subgroups

# Frozen from an independent enumeration (and cross-checked against the
# published counts of conjugacy classes of subgroups of S_n: 1, 2, 4, 11, 19, 56).
CLASS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 19, 6: 56}

# Total subgroup counts of S_n (OEIS A005432).
SUBGROUP_TOTALS = {1: 1, 2: 2, 3: 6, 4: 30, 5: 156, 6: 1455}

# The S6 class list as first computed by the tuple-space join search: the
# SHA-256 of repr([(elements, generators), ...]) pins class order, the chosen
# representative of each class and its generators.
S6_CLASSES_SHA256 = "559c1adad2d5519ceaae37a1d7b570172b48d77fe2f7b3d0258150e3c8d4ed17"
S6_CLASS_ORDERS = [
    1, 2, 2, 2, 3, 3, 4, 4, 4, 4, 4, 4, 4, 5, 6, 6, 6, 6, 6, 6, 8, 8, 8, 8, 8, 8, 8, 9,
    10, 12, 12, 12, 12, 16, 18, 18, 18, 20, 24, 24, 24, 24, 24, 24, 36, 36, 36, 48, 48,
    60, 60, 72, 120, 120, 360, 720,
]


def compose(p, q):
    return tuple(p[q[i]] for i in range(len(p)))


def symmetric_elements(n):
    return tuple(sorted(all_perms(range(n))))


def plain_join_search(n):
    """The class search without normaliser pruning: every base is joined with
    every cyclic subgroup, and a new join is a new class unless a known
    representative conjugates into it."""
    sym = symmetric_elements(n)
    mul, inv = spaces._id_tables(sym)
    cyclic = {}
    for g in range(len(sym)):
        powers, x = {0}, g
        while x != 0:
            powers.add(x)
            x = mul[x][g]
        cyclic.setdefault(frozenset(powers), g)
    cyclics = [cyclic[c] for c in sorted(cyclic, key=lambda c: (len(c), sorted(c)))]
    trivial = subgroups.close_tuples((), mul)
    known, seen, frontier = [(trivial, ())], {bytes(trivial)}, [(trivial, ())]
    while frontier:
        next_frontier = []
        for base, base_gens in frontier:
            base_ids = [i for i in range(len(sym)) if base[i]]
            for g in cyclics:
                if base[g]:
                    continue
                joined = subgroups.close_tuples(base_gens + (g,), mul, base_ids)
                if bytes(joined) in seen:
                    continue
                seen.add(bytes(joined))
                if not any(
                    sum(flags) == sum(joined)
                    and any(all(joined[mul[mul[m][x]][inv[m]]] for x in gens) for m in range(len(sym)))
                    for flags, gens in known
                ):
                    known.append((joined, base_gens + (g,)))
                    next_frontier.append(known[-1])
        frontier = next_frontier
    listed = [([i for i in range(len(sym)) if flags[i]], gens) for flags, gens in known]
    listed.sort(key=lambda item: (len(item[0]), item[0]))
    return [(tuple(sym[i] for i in ids), tuple(sym[g] for g in gens)) for ids, gens in listed]


S5 = symmetric_elements(5)
S5_MUL = spaces._id_tables(S5)[0]


def is_even(p):
    return sum(p[i] > p[j] for i in range(len(p)) for j in range(i + 1, len(p))) % 2 == 0


@functools.cache
def symmetric_tables(n):
    """S_n's sorted elements, id tables, and the ``symmetric`` argument of
    ``close_tuples`` for it: (|S_n| / n, flags of A_n), parity counted by inversions."""
    sym = symmetric_elements(n)
    mul, inv = spaces._id_tables(sym)
    return sym, mul, inv, (len(sym) // n, bytearray(map(is_even, sym)))


def conjugators(flags, gens, mul, inv):
    """Each id m, ascending, with m x m^-1 in ``flags`` for every x in ``gens``,
    by a scan of every element."""
    return [m for m in range(len(mul)) if all(flags[mul[mul[m][x]][inv[m]]] for x in gens)]


def record_closures(monkeypatch):
    """Patch ``close_tuples`` to record each call's ``symmetric`` argument and
    result, after checking the result against a closure without the rule."""
    calls = []
    close = subgroups.close_tuples

    def recorded(*args):
        flags = close(*args)
        assert flags == close(*args[:3])
        calls.append((args[3] if len(args) > 3 else None, flags))
        return flags

    monkeypatch.setattr(subgroups, "close_tuples", recorded)
    return calls


def assert_is_group(elements, n):
    members = set(elements)
    assert tuple(range(n)) in members
    for a in members:
        for b in members:
            assert compose(a, b) in members


class TestConjugacyClasses:
    @pytest.mark.parametrize("n,count", sorted(CLASS_COUNTS.items()))
    def test_class_counts_match_frozen_table(self, n, count):
        classes = subgroups.subgroup_conjugacy_classes(n)
        assert len(classes) == count

    def test_representatives_are_groups(self):
        for rep in subgroups.subgroup_conjugacy_classes(4):
            assert_is_group(rep.elements, 4)
            assert rep.order == len(rep.elements)

    def test_generators_generate_the_representative(self):
        for rep in subgroups.subgroup_conjugacy_classes(4):
            ident = (0, 1, 2, 3)
            closed = {ident}
            frontier = [ident]
            while frontier:
                new = []
                for g in rep.generators:
                    for b in frontier:
                        c = compose(g, b)
                        if c not in closed:
                            closed.add(c)
                            new.append(c)
                frontier = new
            assert closed == set(rep.elements)

    def test_deterministic_ordering(self):
        a = subgroups.subgroup_conjugacy_classes(5)
        b = subgroups.subgroup_conjugacy_classes(5)
        assert a == b

    def test_s6_class_list_is_frozen(self):
        classes = subgroups.subgroup_conjugacy_classes(6)
        assert [c.order for c in classes] == S6_CLASS_ORDERS
        listing = repr([(c.elements, c.generators) for c in classes])
        assert hashlib.sha256(listing.encode()).hexdigest() == S6_CLASSES_SHA256

    def test_s6_search_prunes_conjugate_joins(self, monkeypatch):
        calls = []
        close = subgroups.close_tuples
        monkeypatch.setattr(subgroups, "close_tuples", lambda *args: calls.append(1) or close(*args))
        classes = subgroups.subgroup_conjugacy_classes.__wrapped__(6)
        assert len(classes) == 56
        # the unpruned search closes 19,029 joins; the pruned one about 1,960
        assert len(calls) < 4_000

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_pruned_search_matches_plain_join_search(self, n):
        classes = subgroups.subgroup_conjugacy_classes(n)
        assert [(c.elements, c.generators) for c in classes] == plain_join_search(n)

    @given(
        st.lists(st.integers(0, len(S5) - 1), max_size=2),
        st.lists(st.integers(0, len(S5) - 1), min_size=1, max_size=3),
    )
    @settings(max_examples=200, deadline=None)
    def test_closure_with_cutoff_matches_full_closure(self, base_gens, gens):
        full = groups._close([S5[g] for g in base_gens + gens], 5, 5 * len(S5))
        if base_gens:
            base = groups._close([S5[g] for g in base_gens], 5, 5 * len(S5))
            flags = subgroups.close_tuples(
                tuple(base_gens + gens), S5_MUL, sorted(S5.index(p) for p in base)
            )
        else:
            flags = subgroups.close_tuples(tuple(gens), S5_MUL)
        assert {S5[i] for i in range(len(S5)) if flags[i]} == full

    @given(st.sampled_from([5, 6]), st.booleans(), st.data())
    @example(5, True, None).via("A5 from a 3-cycle and a 5-cycle")
    @example(6, False, None).via("S6 from a transposition and a 6-cycle")
    @settings(max_examples=100, deadline=None)
    def test_early_stopping_closure_matches_full_closure(self, n, even_only, data):
        sym, mul, _, symmetric = symmetric_tables(n)
        if data is None:
            cycle = tuple(range(1, n)) + (0,)
            other = (1, 2, 0) + tuple(range(3, n)) if even_only else (1, 0) + tuple(range(2, n))
            base_gens, gens = [], [sym.index(other), sym.index(cycle)]
        else:
            pool = [i for i in range(len(sym)) if symmetric[1][i]] if even_only else range(len(sym))
            base_gens = data.draw(st.lists(st.sampled_from(pool), max_size=2))
            gens = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3))
        full = groups._close([sym[g] for g in base_gens + gens], n, n * len(sym))
        base = sorted(sym.index(p) for p in groups._close([sym[g] for g in base_gens], n, n * len(sym)))
        flags = subgroups.close_tuples(tuple(base_gens + gens), mul, base, symmetric)
        assert {sym[i] for i in range(len(sym)) if flags[i]} == full
        if data is None:
            assert len(full) == len(sym) // (2 if even_only else 1)

    @pytest.mark.parametrize("n", [4, 5])
    def test_normaliser_matches_a_scan_of_every_element(self, n):
        sym, mul, inv, symmetric = symmetric_tables(n)
        index = {p: i for i, p in enumerate(sym)}
        rule = symmetric if n >= 5 else None
        for rep in subgroups.subgroup_conjugacy_classes(n):
            ids = sorted(index[p] for p in rep.elements)
            flags = bytearray(len(sym))
            for i in ids:
                flags[i] = 1
            gens = tuple(index[g] for g in rep.generators)
            normaliser = subgroups._normaliser(flags, ids, gens, mul, inv, rule)
            assert normaliser == conjugators(flags, gens, mul, inv)
            assert len(sym) // len(normaliser) == rep.conjugates

    @given(st.lists(st.integers(0, len(S5) - 1), max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_normaliser_of_drawn_subgroups_of_s5(self, gens):
        _, mul, inv, symmetric = symmetric_tables(5)
        flags = subgroups.close_tuples(tuple(gens), mul)
        ids = [i for i in range(len(S5)) if flags[i]]
        expected = conjugators(flags, gens, mul, inv)
        assert subgroups._normaliser(flags, ids, tuple(gens), mul, inv, symmetric) == expected
        assert subgroups._normaliser(flags, ids, tuple(gens), mul, inv, None) == expected

    @given(
        st.lists(st.integers(0, len(S5) - 1), max_size=3),
        st.lists(st.integers(0, len(S5) - 1), max_size=3),
        st.integers(0, len(S5) - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_conjugacy_test_of_drawn_subgroups_of_s5(self, gens, other_gens, c):
        # The class test rules out whole cosets m K of K = <gens>; it must agree
        # with a scan of every m, on a drawn subgroup and on a conjugate c K c^-1.
        _, mul, inv, _ = symmetric_tables(5)
        ids = [i for i, member in enumerate(subgroups.close_tuples(tuple(gens), mul)) if member]
        conjugate = [mul[mul[c][x]][inv[c]] for x in gens]
        for target in (other_gens, conjugate):
            flags = subgroups.close_tuples(tuple(target), mul)
            expected = bool(conjugators(flags, gens, mul, inv))
            assert subgroups._is_conjugate_into(flags, ids, tuple(gens), mul, inv) is expected
        assert expected  # the last target, c K c^-1, is conjugate to K

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            subgroups.subgroup_conjugacy_classes(subgroups.MAX_EXACT_DEGREE + 1)
        with pytest.raises(ValueError):
            subgroups.subgroup_conjugacy_classes(0)

    @pytest.mark.parametrize("degree", [True, False, 4.0, "4"])
    def test_a_degree_that_is_no_integer_is_refused(self, degree):
        subgroups.subgroup_conjugacy_classes(1)
        with pytest.raises(ValueError, match=f"degree must be a positive integer, got {degree!r}"):
            subgroups.subgroup_conjugacy_classes(degree)


def close(generators, n):
    """The group generated by ``generators``, by multiplying until nothing new appears."""
    elements = {tuple(range(n))}
    frontier = list(elements)
    while frontier:
        frontier = [c for g in generators for b in frontier if (c := compose(g, b)) not in elements]
        elements.update(frontier)
    return frozenset(elements)


def class_shapes(subs, elements):
    """The sorted (order, class size) of each class of the subgroups ``subs``
    under conjugation by the group ``elements``."""
    n = len(elements[0])
    inverses = {k: tuple(sorted(range(n), key=k.__getitem__)) for k in elements}
    classes = {
        frozenset(frozenset(compose(compose(k, h), k_inv) for h in sub) for k, k_inv in inverses.items())
        for sub in subs
    }
    return sorted((len(next(iter(c))), len(c)) for c in classes)


def pair_closure_classes(elements):
    """Brute-force oracle for a group on 4 points: every subgroup of S4 is
    2-generated, so the closures of all pairs are all subgroups."""
    n = len(elements[0])
    return class_shapes({close((a, b), n) for a in elements for b in elements}, elements)


def every_subgroup(elements, n):
    """Every subgroup of the group ``elements``: the trivial group joined with
    cyclic subgroups until no new join appears."""
    cyclic = {frozenset(groups._close((g,), n, n * len(elements))): g for g in elements}
    found = {frozenset(groups._close((), n, n)): ()}
    frontier = dict(found)
    while frontier:
        joins = {}
        for h, gens in frontier.items():
            for g in cyclic.values():
                if g not in h:
                    joins.setdefault(frozenset(groups._close(gens + (g,), n, n * len(elements))), gens + (g,))
        frontier = {h: gens for h, gens in joins.items() if h not in found}
        found.update(frontier)
    return set(found)


def triple_stabilizer(assignments):
    """The permutations that map each assignment's blocks onto its blocks."""
    n = len(assignments[0])
    return [
        k
        for k in all_perms(range(n))
        if all(spaces.canonical_partition(compose(a, k)) == spaces.canonical_partition(a) for a in assignments)
    ]


def group_on_four_points(*generators):
    return tuple(sorted(close(generators, 4)))


GROUPS_ON_FOUR_POINTS = {
    # name: (elements, class count, subgroup total)
    "S4": (group_on_four_points((1, 2, 3, 0), (1, 0, 2, 3)), 11, 30),
    "S3": (group_on_four_points((1, 0, 2, 3), (1, 2, 0, 3)), 4, 6),
    "A4": (group_on_four_points((1, 2, 0, 3), (0, 2, 3, 1)), 5, 10),
    "D4": (group_on_four_points((1, 2, 3, 0), (2, 1, 0, 3)), 8, 10),
    "V4": (group_on_four_points((1, 0, 3, 2), (2, 3, 0, 1)), 5, 5),
}


class TestSubgroupClasses:
    @pytest.mark.parametrize("n,total", sorted(SUBGROUP_TOTALS.items()))
    def test_symmetric_subgroup_totals(self, n, total):
        classes = subgroups.subgroup_conjugacy_classes(n)
        assert sum(c.conjugates for c in classes) == total

    @pytest.mark.parametrize("name", sorted(GROUPS_ON_FOUR_POINTS))
    def test_classes_match_pair_closure_oracle(self, name):
        elements, class_count, total = GROUPS_ON_FOUR_POINTS[name]
        classes = subgroups.subgroup_classes(elements)
        assert len(classes) == class_count
        assert sum(c.conjugates for c in classes) == total
        assert sorted((c.order, c.conjugates) for c in classes) == pair_closure_classes(elements)

    @pytest.mark.parametrize("name", sorted(GROUPS_ON_FOUR_POINTS))
    def test_representatives_are_closed_and_orders_divide(self, name):
        elements = GROUPS_ON_FOUR_POINTS[name][0]
        for rep in subgroups.subgroup_classes(elements):
            assert_is_group(rep.elements, 4)
            assert set(rep.elements) <= set(elements)
            assert len(elements) % rep.order == 0

    @pytest.mark.parametrize(
        "elements, message",
        [
            ([(0, 1, 2), (1, 2, 0)], r"not closed under composition: \[2, 0, 1\] is missing"),
            ([(1, 2, 0), (2, 0, 1)], "a group must contain the identity"),
            ([], "a group must contain the identity"),
        ],
    )
    def test_a_list_that_is_no_group_is_refused(self, elements, message):
        with pytest.raises(ValueError, match=message):
            subgroups.subgroup_classes(elements)

    @pytest.mark.parametrize(
        "elements, message",
        [
            ([(0, 1), (1, 0), (0, 1, 2)], "elements permute different numbers of points: 2 and 3"),
            ([(0, 0), (0, 1)], r"not a permutation of 0\.\.1: \(0, 0\)"),
            ([(0, 1, 2), (0, 1, 3)], r"not a permutation of 0\.\.2: \(0, 1, 3\)"),
            ([(0, 1, 2), (1, 0)], "elements permute different numbers of points: 3 and 2"),
        ],
    )
    def test_elements_that_are_no_permutations_of_one_degree_are_refused(self, elements, message):
        with pytest.raises(ValueError, match=message):
            subgroups.subgroup_classes(elements)

    def test_s5_on_five_of_seven_points_stops_joins_at_a5_and_s5(self, monkeypatch):
        calls = record_closures(monkeypatch)
        points = (0, 2, 3, 5, 6)
        elements = []
        for images in all_perms(points):
            p = list(range(7))
            for point, image in zip(points, images):
                p[point] = image
            elements.append(tuple(p))
        classes = subgroups.subgroup_classes(elements)
        assert (len(classes), sum(c.conjugates for c in classes)) == (19, 156)
        even = bytearray(map(is_even, sorted(elements)))
        assert {symmetric[0] for symmetric, _ in calls if symmetric is not None} == {120 // 5}
        assert all(symmetric[1] == even for symmetric, _ in calls if symmetric is not None)
        # the rule stops a join only where it closes to A5 or S5; both happen
        assert {flags.count(1) for symmetric, flags in calls if symmetric is not None} >= {60, 120}
        assert all(symmetric is not None for symmetric, _ in calls[1:])

    def test_a6_keeps_the_rule_off(self, monkeypatch):
        calls = record_closures(monkeypatch)
        a6 = [p for p in symmetric_elements(6) if is_even(p)]
        classes = subgroups.subgroup_classes(a6)
        assert (len(classes), sum(c.conjugates for c in classes)) == (22, 501)
        assert calls and all(symmetric is None for symmetric, _ in calls)

    @pytest.mark.slow
    def test_s7_class_and_subgroup_counts(self):
        # OEIS A000638 and A005432
        classes = subgroups.subgroup_classes(all_perms(range(7)))
        assert (len(classes), sum(c.conjugates for c in classes)) == (96, 11_300)
        assert [c.order for c in classes[-2:]] == [2520, 5040]

    def test_cleared_cache_searches_again(self, monkeypatch):
        """Clearing this one cache makes the next call search from scratch, so
        a cold census stays cold: no second cache may sit below it."""
        calls = []
        tables = spaces._id_tables
        monkeypatch.setattr(subgroups, "_id_tables", lambda *args: calls.append(1) or tables(*args))
        subgroups.subgroup_conjugacy_classes.cache_clear()
        subgroups.subgroup_conjugacy_classes(4)
        assert len(calls) == 1
        subgroups.subgroup_conjugacy_classes(4)
        assert len(calls) == 1
        subgroups.subgroup_conjugacy_classes.cache_clear()
        subgroups.subgroup_conjugacy_classes(4)
        assert len(calls) == 2


class TestPartitionStabilizer:
    """Subgroups of the stabilizer of three partitions: the permutations that
    map each one's blocks onto its blocks."""

    def test_three_copies_of_one_partition_match_every_subgroup(self):
        stabilizer = triple_stabilizer([(0, 1, 1, 0, 2, 2)] * 3)
        assert len(stabilizer) == 48
        classes = subgroups.subgroup_classes(stabilizer)
        assert sum(c.conjugates for c in classes) == 98
        assert sorted((c.order, c.conjugates) for c in classes) == class_shapes(
            every_subgroup(stabilizer, 6), stabilizer
        )
