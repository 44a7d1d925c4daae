"""Permutation machinery, permissibility and relatedness."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finivar.groups import (
    GroupHomomorphism,
    PAIR_EXHAUSTIVE_LIMIT,
    GroupTooLargeError,
    NotPermissibleError,
    Permutation,
    PermutationGroup,
    are_related,
    element_pairs,
    flag_trivial_exchange,
    induced_group,
    is_permissible,
)
from finivar.spaces import ConceptualVariable, DomainMismatchError, PointSpace, _id_tables, compose

from conftest import (
    assignments,
    permutations_of,
    space_of,
    variable_from_assignment,
    variable_group_pairs,
)


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="not a permutation"):
            Permutation((0, 0, 1))

    def test_composition_order(self):
        # (p * q)(x) = p(q(x))
        p = Permutation((1, 2, 0))
        q = Permutation((0, 2, 1))
        assert (p * q).images == (1, 0, 2)

    def test_fixed_points(self):
        assert Permutation((0, 2, 1, 3)).fixed_points() == (0, 3)

    @given(st.integers(1, 8).flatmap(lambda n: st.tuples(
        st.permutations(range(n)), st.permutations(range(n)), st.permutations(range(n))
    )))
    def test_group_axioms(self, triple):
        p, q, r = (Permutation(tuple(t)) for t in triple)
        ident = Permutation.identity(p.degree)
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

    def test_closure_cap(self):
        space = space_of(8)
        with pytest.raises(GroupTooLargeError):
            PermutationGroup.generate(
                space,
                (Permutation((1, 0, 2, 3, 4, 5, 6, 7)), Permutation((1, 2, 3, 4, 5, 6, 7, 0))),
                max_size=1000,
            )

    def test_group_requires_identity(self):
        space = space_of(2)
        with pytest.raises(ValueError, match="identity"):
            PermutationGroup(space, (), (Permutation((1, 0)),))

    def test_group_rejects_a_repeated_element(self):
        e, f = Permutation((0, 1)), Permutation((1, 0))
        with pytest.raises(ValueError, match=r"element \[1, 0\] is listed twice"):
            PermutationGroup(space_of(2), (), (e, f, f))

    def test_group_rejects_elements_not_closed_under_composition(self):
        e, r = Permutation((0, 1, 2)), Permutation((1, 2, 0))
        with pytest.raises(ValueError, match=r"not closed under composition: \[2, 0, 1\] is"):
            PermutationGroup(space_of(3), (), (e, r))

    @pytest.mark.parametrize("n, subgroups", [(1, 1), (2, 2), (3, 6), (4, 30)])
    def test_explicit_elements_are_accepted_exactly_when_closed(self, n, subgroups):
        """Every subset of S_n holding the identity (n <= 3), or for S4 the group of
        each pair of elements and 300 seeded subsets: a subset is accepted exactly
        when every pairwise product lies in it, and the accepted ones are S_n's
        subgroups (every subgroup of S4 has two generators)."""
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
        accepted = set()
        for subset in subsets:
            images = [identity, *subset]
            elements = tuple(map(Permutation, images))
            if all(compose(a, b) in set(images) for a in images for b in images):
                assert PermutationGroup(space_of(n), (), elements).order == len(images)
                accepted.add(frozenset(images))
            else:
                with pytest.raises(ValueError, match="not closed under composition"):
                    PermutationGroup(space_of(n), (), elements)
        assert len(accepted) == subgroups

    @given(variable_group_pairs())
    @settings(max_examples=50, deadline=None)
    def test_closure_is_a_group(self, pair):
        _, group = pair
        members = {p.images for p in group.elements}
        for a in group.elements:
            assert a.inverse().images in members
            for b in group.elements:
                assert (a * b).images in members


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
        assert theta(w.phi1) == theta(w.phi2)
        assert theta(w.k(w.phi1)) != theta(w.k(w.phi2))

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
            assert theta(w.phi1) == theta(w.phi2)
            assert theta(w.k(w.phi1)) != theta(w.k(w.phi2))

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
        mapping = {k: target.identity if k.is_identity() else flip for k in group.elements}
        assert not GroupHomomorphism(group, target, mapping).verify()

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
        expected = mapping[group.identity].is_identity() and all(
            mapping[a * b] == mapping[a] * mapping[b] for a in els for b in els
        )
        assert GroupHomomorphism(group, group, mapping).verify() == expected

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
                theta(k(block[0])) for block in theta.blocks()
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
            if theta(k(phi)) != theta(k(block[0]))
        )
        first = next(breaks, None)
        if first is not None:
            with pytest.raises(NotPermissibleError) as err:
                induced_group(theta, group)
            witness = err.value.witness
            assert (witness.k, witness.phi1, witness.phi2) == first
            return
        induced, hom = induced_group(theta, group)
        for p in (*induced.elements, *induced.generators, *hom.mapping.values()):
            assert Permutation(p.images) == p and type(p.images) is tuple


class TestElementPairs:
    def test_every_pair_up_to_the_limit(self):
        space = space_of(5)
        elements = PermutationGroup.generate(
            space, (Permutation((1, 0, 2, 3, 4)), Permutation((1, 2, 3, 4, 0)))
        ).elements
        assert len(elements) <= PAIR_EXHAUSTIVE_LIMIT
        pairs, count = element_pairs(elements)
        assert list(pairs) == list(itertools.product(elements, elements))
        assert count == 120 * 120

    def test_seeded_sample_above_the_limit(self):
        space = space_of(6)
        elements = PermutationGroup.generate(
            space, (Permutation((1, 0, 2, 3, 4, 5)), Permutation((1, 2, 3, 4, 5, 0)))
        ).elements
        assert len(elements) > PAIR_EXHAUSTIVE_LIMIT
        pairs, count = element_pairs(elements, seed=3, sample_pairs=50)
        rng = random.Random(3)
        draws = [rng.randrange(720) for _ in range(100)]
        assert list(pairs) == [(elements[i], elements[j]) for i, j in zip(draws[::2], draws[1::2])]
        assert count == 50


def symmetric_group(n):
    return PermutationGroup.generate(
        space_of(n), (Permutation((1, 0) + tuple(range(2, n))), Permutation(tuple(range(1, n)) + (0,)))
    )


def law_holds_pair_by_pair(mapping, pairs):
    """Oracle: the identity and composition laws of ``mapping``, one ``Permutation`` product per pair."""
    identity = next(k for k in mapping if k.is_identity())
    return mapping[identity].is_identity() and all(
        mapping[a * b] == mapping[a] * mapping[b] for a, b in pairs
    )


class TestProductIds:
    @pytest.mark.parametrize("seed", range(6))
    def test_shuffled_elements_with_the_identity_not_first(self, seed):
        """Ids are positions in ``elements``, wherever the identity sits."""
        rng = random.Random(seed)
        lexicographic = symmetric_group(4) if seed % 2 else PermutationGroup.generate(
            space_of(6), (Permutation((1, 2, 0, 4, 5, 3)), Permutation((3, 4, 5, 0, 1, 2)))
        )
        shuffled = list(lexicographic.elements)
        while shuffled[0].is_identity():
            rng.shuffle(shuffled)
        group = PermutationGroup(lexicographic.space, lexicographic.generators, shuffled)
        els = group.elements
        pairs, count = group.pair_ids()
        pairs = list(pairs)
        assert count == len(pairs) == len(els) ** 2
        assert [(a, b) for a, b, _ in pairs] == list(itertools.product(range(len(els)), repeat=2))
        assert all(els[ab] == els[a] * els[b] for a, b, ab in pairs)
        assert all(group.product_id(a, b) == ab for a, b, ab in pairs)
        mul, inv = _id_tables([p.images for p in els])
        assert [els[i] for i in inv] == [p.inverse() for p in els]
        assert [list(row) for row in mul] == [[els.index(a * b) for b in els] for a in els]
        c = els[rng.randrange(len(els))]
        for mapping in (
            {k: c * k * c.inverse() for k in els},
            {k: c * k for k in els},
            dict(zip(els, rng.sample(els, len(els)))),
        ):
            expected = law_holds_pair_by_pair(mapping, itertools.product(els, els))
            assert GroupHomomorphism(group, group, mapping).verify() == expected

    @pytest.mark.parametrize("seed, sample_pairs", [(0, 1000), (5, 1000), (3, 50)])
    def test_s6_samples_past_the_exhaustive_limit(self, seed, sample_pairs):
        s6 = symmetric_group(6)
        els = s6.elements
        assert len(els) > PAIR_EXHAUSTIVE_LIMIT
        pairs, count = s6.pair_ids(seed, sample_pairs)
        sampled, expected_count = element_pairs(els, seed, sample_pairs)
        assert count == expected_count == sample_pairs
        assert [(els[a], els[b], els[ab]) for a, b, ab in pairs] == [
            (a, b, a * b) for a, b in sampled
        ]
        t = Permutation((1, 0, 2, 3, 4, 5))
        odd = {k for k in els if sum(1 for i, j in itertools.combinations(k.images, 2) if i > j) % 2}
        broken = {k: k * t if k in odd else k for k in els}
        for mapping, holds in (({k: k for k in els}, True), (broken, False)):
            oracle = law_holds_pair_by_pair(mapping, element_pairs(els, seed, sample_pairs)[0])
            assert oracle is holds
            assert GroupHomomorphism(s6, s6, mapping).verify(seed, sample_pairs) is holds

    def test_small_source_into_a_large_target(self):
        """A target past the limit has no table: each product is composed once."""
        s6 = symmetric_group(6)
        shift = PermutationGroup.generate(space_of(6), (Permutation((1, 2, 3, 4, 5, 0)),))
        inclusion = {k: k for k in shift.elements}
        assert GroupHomomorphism(shift, s6, inclusion).verify()
        swap = Permutation((1, 0, 2, 3, 4, 5))
        twisted = {k: k if k.is_identity() else k * swap for k in shift.elements}
        assert not law_holds_pair_by_pair(twisted, itertools.product(shift.elements, repeat=2))
        assert not GroupHomomorphism(shift, s6, twisted).verify()

    def test_a_value_outside_the_target_fails(self):
        """Parity maps Z4 onto S2; into the trivial group on two points it is no homomorphism."""
        z4 = PermutationGroup.generate(space_of(4), (Permutation((1, 2, 3, 0)),))
        s2 = PermutationGroup.generate(space_of(2), (Permutation((1, 0)),))
        trivial = PermutationGroup.generate(space_of(2), ())
        parity = {k: s2.elements[k.images[0] % 2] for k in z4.elements}
        assert law_holds_pair_by_pair(parity, itertools.product(z4.elements, repeat=2))
        assert GroupHomomorphism(z4, s2, parity).verify()
        assert Permutation((1, 0)) not in trivial
        assert not GroupHomomorphism(z4, trivial, parity).verify()


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
