"""Permutation machinery, permissibility and relatedness."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finivar.groups import (
    GroupHomomorphism,
    GroupTooLargeError,
    NotPermissibleError,
    PermissibilityResult,
    PermissibilityWitness,
    Permutation,
    PermutationGroup,
    _orbits,
    _reach,
    are_related,
    flag_trivial_exchange,
    induced_group,
    is_permissible,
)
from finivar.spaces import (
    ConceptualVariable,
    DomainMismatchError,
    PointSpace,
    canonical_partition,
    compose,
)
from finivar.subgroups import subgroup_conjugacy_classes

from conftest import (
    GROUPS_UP_TO_S6,
    assignments,
    changed_element,
    cyclic_group,
    permutations_of,
    space_of,
    symmetric_group,
    variable_from_assignment,
    variable_group_pairs,
)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation((0, 0, 1))

    @pytest.mark.parametrize("images", [(0, 1.7, 2), (0, 1.0, 2), (0, np.float64(1), 2), ("0", 1, 2)])
    def test_rejects_entries_that_are_not_integers(self, images):
        # int() would truncate 1.7 to 1 and accept the identity.
        with pytest.raises(ValueError, match="permutation images must be integers, got"):
            Permutation(images)

    def test_keeps_numpy_integers_as_ints(self):
        p = Permutation(np.array([1, 0, 2]))
        assert p == Permutation((1, 0, 2)) and type(p.images[0]) is int

    def test_composition_order(self):
        # (p * q)(x) = p(q(x))
        p = Permutation((1, 2, 0))
        q = Permutation((0, 2, 1))
        assert (p * q).images == (1, 0, 2)

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.permutations(range(n)), st.permutations(range(n)), st.permutations(range(n))
    )))
    def test_group_axioms(self, triple):
        p, q, r = (Permutation(tuple(t)) for t in triple)
        ident = Permutation(range(p.degree))
        assert (p * q) * r == p * (q * r)
        assert p * ident == p and ident * p == p
        assert p * p.inverse() == ident
        assert p.inverse() * p == ident

    @pytest.mark.parametrize("left,right", [((1, 0), (1, 0, 2)), ((1, 0, 2), (1, 0))])
    def test_mixed_degree_products_raise(self, left, right):
        with pytest.raises(ValueError, match=f"degrees {len(left)} and {len(right)}"):
            Permutation(left) * Permutation(right)

    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.permutations(range(n)), st.permutations(range(n))
    )))
    def test_products_equal_checked_permutations(self, pair):
        p, q = (Permutation(tuple(t)) for t in pair)
        for product in (p * q, p.inverse()):
            checked = Permutation(product.images)
            assert product == checked and hash(product) == hash(checked)
            assert type(product.images) is tuple

    @given(assignments(1, 7).flatmap(lambda a: st.tuples(
        st.just(a), st.permutations(range(len(a))), st.permutations(range(len(a)))
    )))
    def test_compose_agrees_with_product_and_variable_compose(self, drawn):
        assignment, f, g = (tuple(t) for t in drawn)
        pointwise = tuple(f[g[x]] for x in range(len(g)))
        assert compose(f, g) == pointwise == (Permutation(f) * Permutation(g)).images
        theta = variable_from_assignment(space_of(len(assignment)), assignment)
        assert theta.compose(g).assignment == compose(assignment, g)
        assert compose(assignment, g) == tuple(assignment[g[x]] for x in range(len(g)))

    @given(st.permutations(range(6)), st.integers(0, 5))
    def test_call_matches_images(self, images, point):
        p = Permutation(tuple(images))
        assert p(point) == p.images[point]


class TestClosure:
    def test_s4_from_transposition_and_cycle(self):
        space = space_of(4)
        group = PermutationGroup.generate(
            space, (Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0)))
        )
        assert group.order == 24  # the full symmetric group on 4 points

    def test_cyclic_group_order(self):
        space = space_of(6)
        group = PermutationGroup.generate(space, (Permutation((1, 2, 3, 4, 5, 0)),))
        assert group.order == 6

    def test_elements_are_lexicographically_sorted(self):
        space = space_of(3)
        group = PermutationGroup.generate(
            space, (Permutation((1, 0, 2)), Permutation((0, 2, 1)))
        )
        images = [p.images for p in group.elements]
        assert images == sorted(images)
        assert group.order == 6

    @pytest.mark.parametrize("images", [(1, 0), (1, 0, 2, 3)])
    def test_a_generator_of_another_degree_is_refused(self, images):
        with pytest.raises(ValueError, match=f"generator degree {len(images)} does not match space size 3"):
            PermutationGroup.generate(space_of(3), (Permutation((1, 2, 0)), Permutation(images)))

    def test_closure_cap(self):
        """The cap counts image entries, |G|·n: S8 is refused at 1,000 elements' worth."""
        space = space_of(8)
        gens = (Permutation((1, 0, 2, 3, 4, 5, 6, 7)), Permutation((1, 2, 3, 4, 5, 6, 7, 0)))
        with pytest.raises(GroupTooLargeError, match="more than 1000 elements on 8 points"):
            PermutationGroup.generate(space, gens, max_size=1000 * 8)

    def test_cap_counts_entries_at_any_degree(self):
        """Z_n on n points holds n² entries: within the cap exactly when n² is."""
        shift = Permutation((*range(1, 30), 0))
        assert PermutationGroup.generate(space_of(30), (shift,), max_size=900).order == 30
        with pytest.raises(GroupTooLargeError, match="cap of 899 image entries"):
            PermutationGroup.generate(space_of(30), (shift,), max_size=899)

    def test_cap_is_exact_on_s4(self):
        """S4 on 4 points holds 24·4 = 96 entries: built at 96, refused at 95."""
        gens = (Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0)))
        assert PermutationGroup.generate(space_of(4), gens, max_size=96).order == 24
        with pytest.raises(GroupTooLargeError, match="cap of 95 image entries: more than 23 elements on 4 points"):
            PermutationGroup.generate(space_of(4), gens, max_size=95)

    @pytest.mark.parametrize("max_size", [4, 1, 0, -1])
    def test_identity_alone_never_trips_the_cap(self, max_size):
        """The cap is met only as the closure adds an element, so a one-element
        group builds below n entries, and a two-element group does not."""
        identity, swap = Permutation(range(5)), Permutation((1, 0, 2, 3, 4))
        for gens in ((), (identity,), (identity, identity)):
            assert PermutationGroup.generate(space_of(5), gens, max_size=max_size).order == 1
        with pytest.raises(GroupTooLargeError, match=f"more than {max_size // 5} elements on 5 points"):
            PermutationGroup.generate(space_of(5), (identity, swap), max_size=max_size)

    def test_reach_walks_breadth_first_and_stops_past_its_limit(self):
        """Each item once, in the order found; the walk stops once it holds
        more than ``limit`` items."""
        moves = [lambda x: (x + 1) % 6, lambda x: (x + 3) % 6]
        assert _reach(0, moves) == [0, 1, 3, 2, 4, 5]
        assert _reach(0, moves, limit=2) == [0, 1, 3]
        assert _reach(0, moves, limit=6) == [0, 1, 3, 2, 4, 5]
        assert _reach(2, [lambda x: x]) == [2]

    def test_orbits_walk_from_each_item_no_earlier_walk_found(self):
        """Z3 on the even and on the odd points of 0..5, a swap of 6 and 7,
        and 8 fixed, with the items out of order."""
        moves = [lambda x: (x + 2) % 6 if x < 6 else x, lambda x: {6: 7, 7: 6}.get(x, x)]
        orbits = _orbits([4, 0, 7, 1, 2, 3, 5, 6, 8], moves)
        assert orbits == [[4, 0, 2], [7, 6], [1, 3, 5], [8]]

    @given(
        st.integers(1, 7).flatmap(
            lambda n: st.tuples(
                st.lists(permutations_of(n), max_size=3), st.permutations(range(n))
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_orbits_split_the_items_in_walk_order(self, generators_items):
        """Every item lies in exactly one orbit, the orbits are listed in the
        order of their first item, and each lists its items as ``_reach`` does."""
        generators, items = generators_items
        moves = [g.images.__getitem__ for g in generators]
        orbits = _orbits(items, moves)
        assert sorted(x for orbit in orbits for x in orbit) == sorted(items)
        firsts = [x for i, x in enumerate(items) if not set(items[:i]) & set(_reach(x, moves))]
        assert [orbit[0] for orbit in orbits] == firsts
        assert all(orbit == _reach(orbit[0], moves) for orbit in orbits)

    def test_no_group_is_built_from_an_element_list(self):
        elements = tuple(symmetric_group(3).elements)
        with pytest.raises(TypeError):
            PermutationGroup(space_of(3), (), elements)

    @pytest.mark.parametrize("n, subgroups", [(1, 1), (2, 2), (3, 6), (4, 30)])
    def test_listed_elements_generate_themselves_exactly_when_closed(self, n, subgroups):
        """Every subset of S_n holding the identity (n <= 3), or for S4 the group of
        each pair of elements and 300 seeded subsets: a subset generates itself
        exactly when every pairwise product lies in it, and those subsets are
        S_n's subgroups (every subgroup of S4 has two generators)."""
        everything = sorted(itertools.permutations(range(n)))
        identity, others = everything[0], everything[1:]
        if n <= 3:
            subsets = [
                list(c) for k in range(len(others) + 1) for c in itertools.combinations(others, k)
            ]
        else:
            rng = random.Random(4)
            subsets = [rng.sample(others, rng.randrange(len(others))) for _ in range(300)]
            for pair in itertools.combinations(everything, 2):
                group = PermutationGroup.generate(space_of(n), tuple(map(Permutation, pair)))
                subsets.append([p.images for p in group.elements if p.images != identity])
        closed_subsets = set()
        for subset in subsets:
            images = [identity, *subset]
            generated = PermutationGroup.generate(space_of(n), tuple(map(Permutation, subset)))
            if all(compose(a, b) in set(images) for a in images for b in images):
                assert [p.images for p in generated.elements] == sorted(images)
                closed_subsets.add(frozenset(images))
            else:
                assert set(images) < {p.images for p in generated.elements}
        assert len(closed_subsets) == subgroups

    @given(variable_group_pairs())
    @settings(max_examples=50, deadline=None)
    def test_closure_is_a_group(self, pair):
        _, group = pair
        members = {p.images for p in group.elements}
        for a in group.elements:
            assert a.inverse().images in members
            for b in group.elements:
                assert (a * b).images in members


def invariant_coarsening(assignment, generators):
    """The finest partition coarser than ``assignment`` whose blocks every
    generator maps into blocks: a block system when the group they generate is
    transitive, and a variable that group leaves permissible."""
    labels = list(canonical_partition(assignment))
    changed = True
    while changed:
        changed = False
        for g in generators:
            for x, y in itertools.combinations(range(len(labels)), 2):
                a, b = labels[g(x)], labels[g(y)]
                if labels[x] == labels[y] and a != b:
                    labels = [a if v == b else v for v in labels]
                    changed = True
    return canonical_partition(labels)


@st.composite
def groups_with_invariant_variables(draw):
    """A group generated by up to three drawn permutations of up to 6 points,
    and a variable it leaves permissible: its orbit partition, or the
    invariant coarsening of a drawn partition."""
    n = draw(st.integers(1, 6))
    space = space_of(n)
    group = PermutationGroup.generate(space, tuple(draw(st.lists(permutations_of(n), max_size=3))))
    if draw(st.booleans()):
        orbit_of = {x: i for i, orbit in enumerate(group.orbits()) for x in orbit}
        assignment = canonical_partition([orbit_of[x] for x in range(n)])
    else:
        assignment = invariant_coarsening(draw(assignments(n, n)), group.generators)
    return group, variable_from_assignment(space, assignment, "theta")


class TestEveryGroupIsItsGeneratorsClosure:
    """The invariants every group holds now that ``generate`` builds them all."""

    @staticmethod
    def assert_generated(group):
        images = [k.images for k in group.elements]
        assert images == sorted(set(images))  # ids are lexicographic
        assert group.elements[0].is_identity()
        assert PermutationGroup.generate(group.space, group.generators).elements == group.elements
        assert [group.index(k) for k in group.elements] == list(range(group.order))

    @given(groups_with_invariant_variables(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_induced_groups_and_witnesses(self, case, data):
        group, theta = case
        n = group.space.size
        self.assert_generated(group)
        assert is_permissible(theta, group)
        induced, hom = induced_group(theta, group)
        self.assert_generated(induced)
        assert induced.elements == tuple(sorted(set(hom.images), key=lambda p: p.images))
        assert induced.generators == tuple(hom(g) for g in group.generators)
        for k, image in zip(group.elements, hom.images, strict=True):  # in id order
            assert all(image(theta.assignment[p]) == theta.assignment[k(p)] for p in range(n))
        assert hom.verify()
        other = variable_from_assignment(group.space, data.draw(assignments(n, n)), "other")
        move = data.draw(st.sampled_from(group.elements) | permutations_of(n))
        eta = other.compose(move.images, "eta")
        relating = [
            k for k in group.elements
            if canonical_partition(compose(other.assignment, k.images)) == eta.partition()
        ]
        smallest = min(relating, key=lambda k: k.images, default=None)
        reordered = PermutationGroup.generate(
            group.space, tuple(data.draw(st.permutations(group.generators)))
        )
        assert are_related(other, eta, reordered) == smallest == are_related(other, eta, group)


class TestOrbitsAndIsotropy:
    def test_orbits_of_shift(self):
        space = space_of(4)
        group = PermutationGroup.generate(space, (Permutation((1, 2, 3, 0)),))
        assert group.orbits() == ((0, 1, 2, 3),)
        assert group.is_transitive()
        assert group.has_trivial_isotropy()

    def test_orbits_of_swap(self):
        space = space_of(4)
        group = PermutationGroup.generate(space, (Permutation((0, 2, 1, 3)),))
        assert group.orbits() == ((0,), (1, 2), (3,))
        assert not group.is_transitive()
        assert not group.has_trivial_isotropy()

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(permutations_of(n), min_size=1, max_size=3)))
    @example([Permutation((1, 2, 3, 0))]).via("Z4, free")
    @example([Permutation((1, 0, 3, 2)), Permutation((2, 3, 0, 1))]).via("V4, free")
    @example([Permutation((1, 0, 2, 4, 5, 3))]).via("Z6 with every orbit smaller than the group")
    @settings(max_examples=150, deadline=None)
    def test_isotropy_by_orbit_sizes_matches_a_scan_of_fixed_points(self, generators):
        """Orbit-stabiliser: the action is free iff every orbit has |G| points.
        The oracle scans every element's fixed points, and takes each orbit as
        the images of a point under every element."""
        n = generators[0].degree
        group = PermutationGroup.generate(space_of(n), tuple(generators))
        assert group.has_trivial_isotropy() == all(k(x) != x for k in group.elements[1:] for x in range(n))
        orbits = {tuple(sorted({k(x) for k in group.elements})) for x in range(n)}
        assert group.orbits() == tuple(sorted(orbits))

    def test_s3_is_transitive_but_not_free(self):
        space = space_of(3)
        group = PermutationGroup.generate(
            space, (Permutation((1, 0, 2)), Permutation((1, 2, 0)))
        )
        assert group.is_transitive()
        assert not group.has_trivial_isotropy()


class TestPermissibility:
    def test_all_singleton_blocks_always_permissible(self):
        space = space_of(3)
        theta = variable_from_assignment(space, (0, 1, 2))
        group = PermutationGroup.generate(space, (Permutation((1, 2, 0)),))
        assert is_permissible(theta, group)

    def test_witness_is_deterministic_and_genuine(self):
        space = space_of(4)
        theta = variable_from_assignment(space, (0, 0, 1, 1))
        group = PermutationGroup.generate(space, (Permutation((1, 2, 3, 0)),))
        result = is_permissible(theta, group)
        assert not result.ok
        w = result.witness
        assert w.k.images == (1, 2, 3, 0)
        assert (w.phi1, w.phi2) == (0, 1)
        # the witness is a genuine counterexample
        assert theta.assignment[w.phi1] == theta.assignment[w.phi2]
        assert theta.assignment[w.k(w.phi1)] != theta.assignment[w.k(w.phi2)]

    def test_domain_mismatch(self):
        theta = variable_from_assignment(space_of(4, "a"), (0, 0, 1, 1))
        group = PermutationGroup.generate(space_of(4, "b"), (Permutation((1, 2, 3, 0)),))
        with pytest.raises(DomainMismatchError):
            is_permissible(theta, group)

    @given(variable_group_pairs())
    @settings(max_examples=100, deadline=None)
    def test_witness_always_genuine(self, pair):
        theta, group = pair
        result = is_permissible(theta, group)
        if not result.ok:
            w = result.witness
            assert theta.assignment[w.phi1] == theta.assignment[w.phi2]
            assert theta.assignment[w.k(w.phi1)] != theta.assignment[w.k(w.phi2)]

    @given(variable_group_pairs())
    @settings(max_examples=100, deadline=None)
    def test_permissible_forces_block_permutation(self, pair):
        """If theta survives the action, every element permutes its fibers."""
        theta, group = pair
        if is_permissible(theta, group):
            fibers = {frozenset(b) for b in theta.blocks()}
            for k in group.elements:
                inv = k.inverse()
                moved = {frozenset(inv(p) for p in b) for b in fibers}
                assert moved == fibers

    @given(variable_group_pairs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_permissibility_passes_to_subgroups(self, pair, data):
        theta, group = pair
        if not is_permissible(theta, group):
            return
        element = data.draw(st.sampled_from(group.elements))
        subgroup = PermutationGroup.generate(group.space, (element,))
        assert is_permissible(theta, subgroup)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_generators_decide_as_the_full_scan(self, data):
        """The verdict read off the generators, and the witness, are those of a
        scan of every element, whatever order and repeats the generators have."""
        assignment = data.draw(assignments(1, 6))
        n = len(assignment)
        space = space_of(n)
        generators = data.draw(st.lists(permutations_of(n), max_size=3))
        if generators:
            generators += data.draw(st.lists(st.sampled_from(generators), max_size=3))
        generators = data.draw(st.permutations(generators))
        if data.draw(st.booleans()):  # most drawn assignments split a fiber
            assignment = invariant_coarsening(assignment, generators)
        theta = variable_from_assignment(space, assignment, "theta")
        group = PermutationGroup.generate(space, tuple(generators))
        assert is_permissible(theta, group) == scan_every_element(theta, group)


def scan_every_element(theta, group):
    """Permissibility decided by every element in id order, fibers by value and
    points ascending: the first failing pair is the witness."""
    for k in group.elements:
        for block in theta.blocks():
            for phi in block[1:]:
                if theta.assignment[k(phi)] != theta.assignment[k(block[0])]:
                    return PermissibilityResult(False, PermissibilityWitness(k, block[0], phi))
    return PermissibilityResult(True, None)


class TestInducedGroup:
    def test_shift_induces_value_flip(self):
        space = space_of(4)
        parity = ConceptualVariable("parity", space, ("+1", "-1"), (0, 1, 0, 1))
        group = PermutationGroup.generate(space, (Permutation((1, 2, 3, 0)),))
        induced, hom = induced_group(parity, group)
        assert induced.order == 2
        assert induced.space.labels == ("+1", "-1")
        assert hom.verify()
        shift = Permutation((1, 2, 3, 0))
        assert hom(shift).images == (1, 0)
        assert hom(shift * shift).images == (0, 1)

    def test_not_permissible_raises_with_witness(self):
        space = space_of(4)
        theta = variable_from_assignment(space, (0, 0, 1, 1))
        group = PermutationGroup.generate(space, (Permutation((1, 2, 3, 0)),))
        with pytest.raises(NotPermissibleError) as err:
            induced_group(theta, group)
        assert err.value.witness.k.images == (1, 2, 3, 0)

    def test_verify_rejects_a_broken_composition_law(self):
        group = PermutationGroup.generate(space_of(4), (Permutation((1, 2, 3, 0)),))
        target = PermutationGroup.generate(space_of(2), (Permutation((1, 0)),))
        flip = Permutation((1, 0))
        images = [target.elements[0] if k.is_identity() else flip for k in group.elements]
        assert not GroupHomomorphism(group, target, images).verify()

    @given(
        variable_group_pairs(max_points=5),
        st.sampled_from(["identity", "conjugate", "random"]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_verify_matches_the_composition_law(self, pair, kind, data):
        _, group = pair
        els = group.elements
        if kind == "identity":
            mapping = {k: k for k in els}
        elif kind == "conjugate":
            c = data.draw(st.sampled_from(els))
            mapping = {k: c * k * c.inverse() for k in els}
        else:
            images = data.draw(st.lists(st.sampled_from(els), min_size=len(els), max_size=len(els)))
            mapping = dict(zip(els, images))
        expected = mapping[group.elements[0]].is_identity() and all(
            mapping[a * b] == mapping[a] * mapping[b] for a in els for b in els
        )
        assert GroupHomomorphism(group, group, [mapping[k] for k in els]).verify() == expected

    @given(variable_group_pairs())
    @settings(max_examples=100, deadline=None)
    def test_homomorphism_and_transitivity_propagation(self, pair):
        theta, group = pair
        if not is_permissible(theta, group):
            return
        induced, hom = induced_group(theta, group)
        assert hom.verify()
        for k in group.elements:
            expected = tuple(
                theta.assignment[k(block[0])] for block in theta.blocks()
            )
            assert hom(k).images == expected
        if group.is_transitive():
            assert induced.is_transitive()

    @given(variable_group_pairs())
    @settings(max_examples=100, deadline=None)
    def test_images_are_permutations_and_a_refusal_names_the_first_break(self, pair):
        """The induced images skip re-validation; each still is a permutation.
        Oracle for the refusal: the first (k, block[0], phi) in scan order whose
        images take different values."""
        theta, group = pair
        breaks = (
            (k, block[0], phi)
            for k in group.elements
            for block in theta.blocks()
            for phi in block[1:]
            if theta.assignment[k(phi)] != theta.assignment[k(block[0])]
        )
        first = next(breaks, None)
        if first is not None:
            with pytest.raises(NotPermissibleError) as err:
                induced_group(theta, group)
            witness = err.value.witness
            assert (witness.k, witness.phi1, witness.phi2) == first
            return
        induced, hom = induced_group(theta, group)
        for p in (*induced.elements, *induced.generators, *hom.images):
            assert Permutation(p.images) == p and type(p.images) is tuple


def law_holds_pair_by_pair(mapping, pairs):
    """Oracle: the identity and composition laws of ``mapping``, one ``Permutation`` product per pair."""
    identity = next(k for k in mapping if k.is_identity())
    return mapping[identity].is_identity() and all(
        mapping[a * b] == mapping[a] * mapping[b] for a, b in pairs
    )


def generating_set(group):
    return [group.elements[s] for s, _ in group.generator_rows()]


class TestGeneratorRows:
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_of_the_group_decide_its_laws(self, seed):
        """A group's rows are the products s∘b of its generators in id order,
        and its generators generate it; a map is a homomorphism exactly when
        it passes the law on every pair."""
        rng = random.Random(seed)
        group = symmetric_group(4) if seed % 2 else PermutationGroup.generate(
            space_of(6), (Permutation((1, 2, 0, 4, 5, 3)), Permutation((3, 4, 5, 0, 1, 2)))
        )
        els = group.elements
        rows = list(group.generator_rows())
        assert [els[s] for s, _ in rows] == list(group.generators)
        assert all([els[sb] for sb in row] == [els[s] * b for b in els] for s, row in rows)
        closed = PermutationGroup.generate(group.space, generating_set(group))
        assert closed.elements == els
        c = els[rng.randrange(len(els))]
        for mapping in (
            {k: c * k * c.inverse() for k in els},
            {k: c * k for k in els},
            dict(zip(els, rng.sample(els, len(els)))),
        ):
            expected = law_holds_pair_by_pair(mapping, itertools.product(els, els))
            assert GroupHomomorphism(group, group, [mapping[k] for k in els]).verify() == expected

    def test_generate_keeps_its_generators_once_each(self):
        a, b = Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0))
        group = PermutationGroup.generate(space_of(4), (a, b, a, Permutation(range(4)), b))
        assert generating_set(group) == [a, b, Permutation(range(4))]
        assert PermutationGroup.generate(space_of(4), ()).elements == (Permutation(range(4)),)
        assert list(PermutationGroup.generate(space_of(4), ()).generator_rows()) == []

    def test_s6_checks_two_rows_of_720(self):
        s6 = symmetric_group(6)
        els = s6.elements
        assert [len(row) for _, row in s6.generator_rows()] == [720, 720]
        t = Permutation((1, 0, 2, 3, 4, 5))
        odd = {k for k in els if sum(1 for i, j in itertools.combinations(k.images, 2) if i > j) % 2}
        broken = {k: k * t if k in odd else k for k in els}
        assert GroupHomomorphism(s6, s6, els).verify() is True
        assert not law_holds_pair_by_pair(broken, itertools.product(els, els))
        assert GroupHomomorphism(s6, s6, [broken[k] for k in els]).verify() is False

    def test_small_source_into_a_large_target(self):
        s6 = symmetric_group(6)
        shift = PermutationGroup.generate(space_of(6), (Permutation((1, 2, 3, 4, 5, 0)),))
        assert GroupHomomorphism(shift, s6, shift.elements).verify()
        swap = Permutation((1, 0, 2, 3, 4, 5))
        twisted = {k: k if k.is_identity() else k * swap for k in shift.elements}
        assert not law_holds_pair_by_pair(twisted, itertools.product(shift.elements, repeat=2))
        assert not GroupHomomorphism(shift, s6, [twisted[k] for k in shift.elements]).verify()

    def test_a_value_outside_the_target_fails(self):
        """Parity maps Z4 onto S2; into the trivial group on two points it is no homomorphism."""
        z4 = PermutationGroup.generate(space_of(4), (Permutation((1, 2, 3, 0)),))
        s2 = PermutationGroup.generate(space_of(2), (Permutation((1, 0)),))
        trivial = PermutationGroup.generate(space_of(2), ())
        parity = {k: s2.elements[k.images[0] % 2] for k in z4.elements}
        assert law_holds_pair_by_pair(parity, itertools.product(z4.elements, repeat=2))
        images = [parity[k] for k in z4.elements]
        assert GroupHomomorphism(z4, s2, images).verify()
        assert Permutation((1, 0)) not in trivial
        assert not GroupHomomorphism(z4, trivial, images).verify()


class TestRelatedness:
    def test_rotated_arc_is_related(self):
        space = space_of(6)
        a = variable_from_assignment(space, (0, 0, 0, 1, 1, 1), "a")
        b = variable_from_assignment(space, (1, 0, 0, 0, 1, 1), "b")
        group = PermutationGroup.generate(space, (Permutation((1, 2, 3, 4, 5, 0)),))
        witness = are_related(a, b, group)
        assert witness is not None
        # the found element genuinely carries a onto b (up to a value bijection)
        composed = a.compose(witness.images)
        assert composed.partition() == b.partition()

    def test_unrelated_partitions(self):
        space = space_of(4)
        parity = variable_from_assignment(space, (0, 1, 0, 1), "p")
        halves = variable_from_assignment(space, (0, 0, 1, 1), "h")
        group = PermutationGroup.generate(space, (Permutation((1, 2, 3, 0)),))
        assert are_related(parity, halves, group) is None

    def test_value_count_mismatch_rejected(self):
        space = space_of(4)
        fine = variable_from_assignment(space, (0, 1, 2, 2), "f")
        coarse = variable_from_assignment(space, (0, 0, 1, 1), "c")
        group = PermutationGroup.generate(space, (Permutation((1, 2, 3, 0)),))
        with pytest.raises(ValueError, match="value bijection"):
            are_related(fine, coarse, group)

    def test_witness_is_lexicographically_first(self):
        space = space_of(4)
        v = variable_from_assignment(space, (0, 1, 0, 1), "v")
        group = PermutationGroup.generate(space, (Permutation((1, 2, 3, 0)),))
        witness = are_related(v, v, group)
        assert witness is not None and witness.is_identity()

    @given(variable_group_pairs(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_relatedness_is_symmetric_over_a_group(self, pair, data):
        theta, group = pair
        k = data.draw(st.sampled_from(group.elements))
        eta = theta.compose(k.images, name="eta")
        assert are_related(theta, eta, group) is not None
        assert are_related(eta, theta, group) is not None


class TestTrivialExchange:
    @staticmethod
    def _pair_space() -> PointSpace:
        return PointSpace(
            id="grid",
            labels=("aa", "ab", "ba", "bb"),
            product=((0, 0), (0, 1), (1, 0), (1, 1)),
        )

    def test_requires_product_structure(self):
        space = space_of(4)
        a = variable_from_assignment(space, (0, 0, 1, 1), "a")
        b = variable_from_assignment(space, (0, 1, 0, 1), "b")
        group = PermutationGroup.generate(space, (Permutation((0, 2, 1, 3)),))
        with pytest.raises(ValueError, match="not applicable"):
            flag_trivial_exchange(a, b, group)

    def test_swap_only_relation_is_flagged(self):
        space = self._pair_space()
        left = ConceptualVariable("left", space, ("+", "-"), (0, 0, 1, 1))
        right = ConceptualVariable("right", space, ("+", "-"), (0, 1, 0, 1))
        group = PermutationGroup.generate(space, (Permutation((0, 2, 1, 3)),))
        assert flag_trivial_exchange(left, right, group)

    def test_unrelated_pair_is_not_flagged(self):
        space = self._pair_space()
        left = ConceptualVariable("left", space, ("+", "-"), (0, 0, 1, 1))
        diag = ConceptualVariable("diag", space, ("+", "-"), (0, 1, 1, 0))
        group = PermutationGroup.generate(space, (Permutation((0, 2, 1, 3)),))
        assert not flag_trivial_exchange(left, diag, group)

    def test_pair_of_different_value_counts_is_not_flagged(self):
        # no permutation carries a two-valued variable onto a three-valued one
        space = self._pair_space()
        left = ConceptualVariable("left", space, ("+", "-"), (0, 0, 1, 1))
        three = ConceptualVariable("three", space, ("x", "y", "z"), (0, 1, 2, 2))
        group = PermutationGroup.generate(space, (Permutation((0, 2, 1, 3)),))
        assert not flag_trivial_exchange(left, three, group)
        assert not flag_trivial_exchange(three, left, group)

    @pytest.mark.parametrize("counts", [(2, 2), (2, 3), (3, 2)])
    def test_group_on_another_space_is_refused_whatever_the_value_counts(self, counts):
        space = self._pair_space()
        assignments = {2: (0, 0, 1, 1), 3: (0, 1, 2, 2)}
        theta, eta = (
            ConceptualVariable(name, space, ("x", "y", "z")[:c], assignments[c])
            for name, c in zip(("theta", "eta"), counts)
        )
        o = PointSpace(id="o", labels=("0", "1", "2"))
        other = PermutationGroup.generate(o, (Permutation((1, 2, 0)),))
        with pytest.raises(DomainMismatchError, match="group acts on 'o', variable lives on 'grid'"):
            flag_trivial_exchange(theta, eta, other)

    def test_relation_through_more_than_swap_is_not_flagged(self):
        space = self._pair_space()
        left = ConceptualVariable("left", space, ("+", "-"), (0, 0, 1, 1))
        right = ConceptualVariable("right", space, ("+", "-"), (0, 1, 0, 1))
        # add an element beyond the swap that also carries left onto right:
        # the permutation (0 1)(2 3)-as-points composed appropriately; brute-force
        # search for any second relating element in the full symmetric group.
        full = PermutationGroup.generate(
            space, (Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0)))
        )
        assert not flag_trivial_exchange(left, right, full)

    def test_rectangular_grid_never_flags(self):
        space = PointSpace(
            id="rect",
            labels=tuple(f"p{i}" for i in range(6)),
            product=((0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)),
        )
        a = ConceptualVariable("a", space, ("x", "y"), (0, 0, 0, 1, 1, 1))
        b = ConceptualVariable("b", space, ("x", "y"), (0, 0, 0, 1, 1, 1))
        group = PermutationGroup.generate(space, ())
        assert not flag_trivial_exchange(a, b, group)


def verify_pair_by_pair(hom):
    """Oracle: ``GroupHomomorphism.verify`` on every ordered pair, one
    ``Permutation`` product per pair."""
    if not all(value in hom.target for value in hom.images):
        return False
    mapping = {k: hom(k) for k in hom.source.elements}
    return law_holds_pair_by_pair(mapping, itertools.product(hom.source.elements, repeat=2))


class TestRowWiseVerifyMatchesThePairLoop:
    """``verify`` checks the rows of a generating set only; it decides as the
    loop over every pair does, on laws that hold and laws that break."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_induced_maps_of_every_subgroup_class(self, n):
        space = space_of(n)
        rows = [()]
        for _ in range(n):
            rows = [row + (v,) for row in rows for v in range(max(row, default=-1) + 2)]
        checked = 0
        for c in subgroup_conjugacy_classes(n):
            group = PermutationGroup.generate(space, tuple(map(Permutation, c.generators)))
            assert [k.images for k in group.elements] == list(c.elements)
            for assignment in rows:
                theta = variable_from_assignment(space, assignment)
                if not is_permissible(theta, group):
                    continue
                _, hom = induced_group(theta, group)
                assert hom.verify() is verify_pair_by_pair(hom) is True
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("n", [2, 6, 8])
    def test_every_single_changed_image(self, n):
        """Each map equal to the identity but at one element g != e; only
        g -> e on two points is still a homomorphism."""
        group = cyclic_group(n)
        els = group.elements
        verdicts = []
        for g in els[1:]:
            for h in els:
                if h != g:
                    hom = GroupHomomorphism(group, group, [h if k == g else k for k in els])
                    verdicts.append(hom.verify())
                    assert verdicts[-1] is verify_pair_by_pair(hom)
        assert verdicts.count(True) == (n == 2)

    def test_maps_of_s4_into_itself(self):
        group = symmetric_group(4)
        els = group.elements
        rng = random.Random(4)
        for _ in range(20):
            c = rng.choice(els)
            for images in (
                [c * k * c.inverse() for k in els],
                [c * k for k in els],
                rng.sample(els, len(els)),
            ):
                hom = GroupHomomorphism(group, group, images)
                assert hom.verify() is verify_pair_by_pair(hom)

    def test_a_value_outside_the_target(self):
        z3 = cyclic_group(3)
        odd = Permutation((1, 0, 2))
        for k in z3.elements[1:]:
            hom = GroupHomomorphism(z3, z3, [odd if j == k else j for j in z3.elements])
            assert hom.verify() is verify_pair_by_pair(hom) is False

    def test_an_identity_sent_elsewhere(self):
        group = cyclic_group(5)
        shift = group.elements[1]
        hom = GroupHomomorphism(group, group, [shift * k for k in group.elements])
        assert hom.verify() is verify_pair_by_pair(hom) is False

    def test_z6_into_s6(self):
        s6 = symmetric_group(6)
        z6 = PermutationGroup.generate(s6.space, (Permutation((1, 2, 3, 4, 5, 0)),))
        inclusion = GroupHomomorphism(z6, s6, z6.elements)
        assert inclusion.verify() is verify_pair_by_pair(inclusion) is True
        swap = Permutation((1, 0, 2, 3, 4, 5))
        broken = GroupHomomorphism(z6, s6, [k if k.is_identity() else k * swap for k in z6.elements])
        assert broken.verify() is verify_pair_by_pair(broken) is False

    def test_s6_source(self):
        s6 = symmetric_group(6)
        z2 = PermutationGroup.generate(space_of(2), (Permutation((1, 0)),))
        odd = {k for k in s6.elements if sum(1 for i, j in itertools.combinations(k.images, 2) if i > j) % 2}
        flip, keep = z2.elements[1], z2.elements[0]
        sign = GroupHomomorphism(s6, z2, [flip if k in odd else keep for k in s6.elements])
        assert sign.verify() is True  # every pair would take the oracle seconds
        t = Permutation((1, 0, 2, 3, 4, 5))
        broken = GroupHomomorphism(s6, s6, [k * t if k in odd else k for k in s6.elements])
        assert broken.verify() is verify_pair_by_pair(broken) is False
        even = next(k for k in reversed(s6.elements) if k not in odd)
        one_off = GroupHomomorphism(
            s6, z2, [flip if k in odd or k == even else keep for k in s6.elements]
        )
        assert one_off.verify() is verify_pair_by_pair(one_off) is False


def one_wrong_image(group, seed):
    """The images of the identity map of ``group``, in id order, but at one
    seeded element outside its generating set, sent to another seeded element."""
    g, h = changed_element(group, seed)
    return [h if k == g else k for k in group.elements]


class TestOneWrongImage:
    """One image changed at a seeded element outside the generating set breaks
    the law, and the generator rows see it: the lemma at any size."""

    @pytest.mark.parametrize("name", GROUPS_UP_TO_S6)
    @pytest.mark.parametrize("seed", range(3))
    def test_up_to_s6_as_every_pair_decides(self, name, seed):
        group = GROUPS_UP_TO_S6[name]()
        hom = GroupHomomorphism(group, group, one_wrong_image(group, seed))
        assert hom.verify() is verify_pair_by_pair(hom) is False

    @pytest.mark.parametrize("seed", range(3))
    def test_every_generator_row_is_needed(self, seed):
        """x ↦ x on ⟨s⟩ and x ↦ x·c off it keeps the law on s's row, yet is no
        homomorphism: the rows of S4's other generator find it."""
        group = symmetric_group(4)
        els = group.elements
        c = random.Random(seed).choice(els[1:])
        for s in group.generators:
            cyclic = PermutationGroup.generate(group.space, (s,))
            mapping = {x: x if x in cyclic else x * c for x in els}
            assert all(mapping[s * b] == mapping[s] * mapping[b] for b in els)
            hom = GroupHomomorphism(group, group, [mapping[x] for x in els])
            assert hom.verify() is verify_pair_by_pair(hom) is False

    @pytest.mark.parametrize("seed", range(3))
    def test_s7_past_720_elements(self, seed):
        s7 = symmetric_group(7)
        assert s7.order == 5040
        assert GroupHomomorphism(s7, s7, s7.elements).verify()
        hom = GroupHomomorphism(s7, s7, one_wrong_image(s7, seed))
        assert hom.verify() is verify_pair_by_pair(hom) is False
