"""Partitions, domination and accessibility on finite point spaces."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from finivar.spaces import (
    ConceptualVariable,
    DomainMismatchError,
    PointSpace,
    VariableFamily,
    canonical_partition,
    dominates,
    is_accessible,
    maximal_accessible,
)

from conftest import assignments, space_of, variable_from_assignment


class TestCanonicalPartition:
    def test_first_appearance_relabeling(self):
        assert canonical_partition((5, 5, 2, 5, 9)) == (0, 0, 1, 0, 2)

    def test_already_canonical(self):
        assert canonical_partition((0, 1, 0, 2)) == (0, 1, 0, 2)

    @given(assignments())
    def test_idempotent(self, assignment):
        once = canonical_partition(assignment)
        assert canonical_partition(once) == once

    @given(assignments(), st.permutations(range(16)))
    def test_invariant_under_value_relabeling(self, assignment, relabel):
        renamed = tuple(relabel[v] for v in assignment)
        assert canonical_partition(renamed) == canonical_partition(assignment)


class TestPointSpace:
    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            PointSpace(id="s", labels=("a", "a"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="no points"):
            PointSpace(id="s", labels=())

    def test_product_must_be_full_grid(self):
        with pytest.raises(ValueError, match="full grid"):
            PointSpace(
                id="s",
                labels=("a", "b", "c", "d"),
                product=((0, 0), (0, 1), (1, 0), (0, 0)),
            )

    def test_product_sizes(self):
        space = PointSpace(
            id="s",
            labels=("a", "b", "c", "d"),
            product=((0, 0), (0, 1), (1, 0), (1, 1)),
        )
        assert space.product_sizes() == (2, 2)

    def test_product_sizes_requires_declaration(self):
        with pytest.raises(ValueError, match="no product structure"):
            space_of(4).product_sizes()


class TestConceptualVariable:
    def test_requires_surjectivity(self):
        with pytest.raises(ValueError, match="surjectivity"):
            ConceptualVariable(
                name="v", domain=space_of(3), values=("a", "b", "c"), assignment=(0, 0, 1)
            )

    def test_rejects_out_of_range_assignment(self):
        with pytest.raises(ValueError, match="outside values"):
            ConceptualVariable(
                name="v", domain=space_of(2), values=("a",), assignment=(0, 1)
            )

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError, match="covers 2"):
            ConceptualVariable(
                name="v", domain=space_of(3), values=("a", "b"), assignment=(0, 1)
            )

    def test_equality_is_partitional(self):
        space = space_of(4)
        a = ConceptualVariable("a", space, ("x", "y"), (0, 0, 1, 1))
        b = ConceptualVariable("b", space, ("hot", "cold"), (1, 1, 0, 0))
        assert a == b
        assert hash(a) == hash(b)
        c = ConceptualVariable("c", space, ("x", "y"), (0, 1, 0, 1))
        assert a != c

    def test_blocks_indexed_by_value_points_ascending(self):
        space = space_of(4)
        v = ConceptualVariable("v", space, ("a", "b"), (1, 0, 1, 0))
        assert v.blocks() == ((1, 3), (0, 2))

    def test_numeric_values_parse(self):
        space = space_of(2)
        v = ConceptualVariable("v", space, ("+1", "-1"), (0, 1))
        assert v.numeric_values() == (1.0, -1.0)

    def test_numeric_values_reject_text(self):
        space = space_of(2)
        v = ConceptualVariable("v", space, ("hot", "cold"), (0, 1))
        with pytest.raises(ValueError, match="numeric"):
            v.numeric_values()

    @pytest.mark.parametrize("label", ["nan", "inf", "-inf", "1e999"])
    def test_numeric_values_reject_non_finite_labels(self, label):
        v = ConceptualVariable("v", space_of(2), (label, "1"), (0, 1))
        with pytest.raises(ValueError, match=rf"value labels must be finite, got \('{label}', '1'\)"):
            v.numeric_values()

    def test_numeric_values_reject_collision(self):
        space = space_of(2)
        v = ConceptualVariable("v", space, ("1", "1.0"), (0, 1))
        with pytest.raises(ValueError, match="collide"):
            v.numeric_values()

    def test_compose_applies_point_map(self):
        space = space_of(4)
        v = variable_from_assignment(space, (0, 1, 2, 2))
        shifted = v.compose((1, 2, 3, 0))
        assert shifted.assignment == (1, 2, 2, 0)


class TestDomination:
    def test_coarsening_is_dominated(self, square):
        fine = variable_from_assignment(square, (0, 1, 2, 3), "fine")
        coarse = variable_from_assignment(square, (0, 0, 1, 1), "coarse")
        assert dominates(coarse, fine)
        assert not dominates(fine, coarse)

    def test_incomparable(self, square):
        a = variable_from_assignment(square, (0, 0, 1, 1), "a")
        b = variable_from_assignment(square, (0, 1, 0, 1), "b")
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_domain_mismatch(self):
        a = variable_from_assignment(space_of(2, "x"), (0, 1))
        b = variable_from_assignment(space_of(2, "y"), (0, 1))
        with pytest.raises(DomainMismatchError):
            dominates(a, b)

    @given(assignments())
    def test_reflexive(self, assignment):
        v = variable_from_assignment(space_of(len(assignment)), assignment)
        assert dominates(v, v)

    @given(assignments(max_points=6), st.data())
    def test_transitive(self, assignment, data):
        n = len(assignment)
        space = space_of(n)
        lam = variable_from_assignment(space, assignment, "lam")
        # theta = f(lam) via a random value collapse, so domination holds by construction
        k = max(assignment) + 1
        collapse = data.draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
        theta_assignment = canonical_partition(tuple(collapse[v] for v in assignment))
        theta = variable_from_assignment(space, theta_assignment, "theta")
        collapse2 = data.draw(
            st.lists(
                st.integers(0, max(theta_assignment)),
                min_size=max(theta_assignment) + 1,
                max_size=max(theta_assignment) + 1,
            )
        )
        eta_assignment = canonical_partition(
            tuple(collapse2[v] for v in theta_assignment)
        )
        eta = variable_from_assignment(space, eta_assignment, "eta")
        assert dominates(theta, lam)
        assert dominates(eta, theta)
        assert dominates(eta, lam)

    @given(assignments(max_points=6), assignments(max_points=6))
    def test_antisymmetry_up_to_partition(self, a1, a2):
        n = len(a1)
        if len(a2) != n:
            a2 = tuple(v % n for v in canonical_partition(a1[::-1]))
        space = space_of(n)
        a = variable_from_assignment(space, a1, "a")
        b = variable_from_assignment(space, canonical_partition(a2), "b")
        if dominates(a, b) and dominates(b, a):
            assert a == b


class TestAccessibility:
    def test_downward_closure(self, square):
        fine = variable_from_assignment(square, (0, 1, 2, 3), "fine")
        family = VariableFamily((fine,), inaccessible_total=False)
        coarse = variable_from_assignment(square, (0, 0, 1, 1), "coarse")
        assert is_accessible(coarse, family)

    @given(assignments(max_points=6), st.data())
    def test_any_coarsening_of_a_generator_is_accessible(self, assignment, data):
        n = len(assignment)
        space = space_of(n)
        gen = variable_from_assignment(space, assignment, "gen")
        family = VariableFamily((gen,), inaccessible_total=False)
        k = max(assignment) + 1
        collapse = data.draw(st.lists(st.integers(0, k - 1), min_size=k, max_size=k))
        coarse = variable_from_assignment(
            space, canonical_partition(tuple(collapse[v] for v in assignment)), "c"
        )
        assert is_accessible(coarse, family)

    def test_unrelated_partition_is_not_accessible(self, square):
        gen = variable_from_assignment(square, (0, 0, 1, 1), "gen")
        family = VariableFamily((gen,))
        other = variable_from_assignment(square, (0, 1, 0, 1), "other")
        assert not is_accessible(other, family)


class TestVariableFamily:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            VariableFamily(())

    def test_rejects_mixed_domains(self):
        a = variable_from_assignment(space_of(2, "x"), (0, 1))
        b = variable_from_assignment(space_of(2, "y"), (0, 1))
        with pytest.raises(DomainMismatchError):
            VariableFamily((a, b))

    def test_inaccessible_total_rejects_identity_partition(self, square):
        full = variable_from_assignment(square, (0, 1, 2, 3), "full")
        with pytest.raises(ValueError, match="inaccessible total"):
            VariableFamily((full,))
        VariableFamily((full,), inaccessible_total=False)  # allowed when opted out

    def test_maximal_accessible_drops_dominated(self, square):
        fine = variable_from_assignment(square, (0, 1, 2, 2), "fine")
        coarse = variable_from_assignment(square, (0, 0, 1, 1), "coarse")
        other = variable_from_assignment(square, (0, 1, 0, 1), "other")
        family = VariableFamily((fine, coarse, other))
        maximal = maximal_accessible(family)
        assert fine in maximal
        assert other in maximal
        assert coarse not in maximal

    def test_maximal_accessible_dedupes_partitions(self, square):
        a = variable_from_assignment(square, (0, 0, 1, 1), "a")
        b = ConceptualVariable("b", square, ("p", "q"), (1, 1, 0, 0))
        maximal = maximal_accessible(VariableFamily((a, b)))
        assert len(maximal) == 1

    @given(assignments(max_points=6))
    def test_maximal_generators_are_not_strictly_dominated(self, assignment):
        n = len(assignment)
        space = space_of(n)
        gens = [
            variable_from_assignment(space, assignment, "g0"),
            variable_from_assignment(
                space, canonical_partition(assignment[::-1]), "g1"
            ),
        ]
        if any(g.is_identity_partition() for g in gens):
            family = VariableFamily(tuple(gens), inaccessible_total=False)
        else:
            family = VariableFamily(tuple(gens))
        for m in maximal_accessible(family):
            for g in family.generators:
                assert not (dominates(m, g) and not dominates(g, m))
