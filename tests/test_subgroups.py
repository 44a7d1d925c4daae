"""Subgroup conjugacy classes of small permutation groups."""

from __future__ import annotations

import hashlib
from itertools import permutations as all_perms

import pytest
from hypothesis import given, settings
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
        full = groups._close([S5[g] for g in base_gens + gens], 5, len(S5))
        if base_gens:
            base = groups._close([S5[g] for g in base_gens], 5, len(S5))
            flags = subgroups.close_tuples(
                tuple(base_gens + gens), S5_MUL, sorted(S5.index(p) for p in base)
            )
        else:
            flags = subgroups.close_tuples(tuple(gens), S5_MUL)
        assert {S5[i] for i in range(len(S5)) if flags[i]} == full

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            subgroups.subgroup_conjugacy_classes(subgroups.MAX_EXACT_DEGREE + 1)
        with pytest.raises(ValueError):
            subgroups.subgroup_conjugacy_classes(0)


def close(generators, n):
    """The group generated by ``generators``, by multiplying until nothing new appears."""
    elements = {tuple(range(n))}
    frontier = list(elements)
    while frontier:
        frontier = [c for g in generators for b in frontier if (c := compose(g, b)) not in elements]
        elements.update(frontier)
    return frozenset(elements)


def pair_closure_classes(elements):
    """Brute-force oracle for a group on 4 points: every subgroup of S4 is
    2-generated, so the closures of all pairs are all subgroups.  Returns the
    sorted (order, class size) of each class under conjugation by the group."""
    n = len(elements[0])
    subs = {close((a, b), n) for a in elements for b in elements}
    inverses = {k: tuple(sorted(range(n), key=k.__getitem__)) for k in elements}
    classes = {
        frozenset(frozenset(compose(compose(k, h), k_inv) for h in sub) for k, k_inv in inverses.items())
        for sub in subs
    }
    return sorted((len(next(iter(c))), len(c)) for c in classes)


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
