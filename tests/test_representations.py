"""Representations, coherent families, operator construction and covariance."""

from __future__ import annotations

import itertools
import random
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finivar import linalg, spaces
from finivar.groups import (
    PAIR_EXHAUSTIVE_LIMIT,
    Permutation,
    PermutationGroup,
    element_pairs,
    induced_group,
    is_permissible,
)
from finivar.representations import (
    CoherentCollisionError,
    CoherentFamily,
    CoherentStateError,
    DegenerateBasisError,
    OrthogonalityError,
    UnitaryRep,
    build_operator,
    bundle_from_matrix,
    check_coherent_injectivity,
    commutant_diagnostic,
    conjugation_check,
    conjugation_law,
    cyclic_dft_rep,
    expand_in_basis,
    qubit_rep,
)
from finivar.spaces import (
    ConceptualVariable,
    DomainMismatchError,
    PointSpace,
    canonical_partition,
)
from finivar.subgroups import subgroup_conjugacy_classes

from conftest import assignments, permutations_of, space_of, variable_from_assignment

S = 1 / np.sqrt(2)


def qubit_family() -> CoherentFamily:
    rep = qubit_rep()
    return CoherentFamily(rep, np.array([1, 0], dtype=complex))


def cyclic_family(n: int) -> CoherentFamily:
    rep = cyclic_dft_rep(n)
    base = np.zeros(n, dtype=complex)
    base[0] = 1
    return CoherentFamily(rep, base)


def spin_z_variable(space: PointSpace) -> ConceptualVariable:
    return ConceptualVariable("spin-z", space, ("+1", "-1"), (0, 1))


class TestQubitRep:
    def test_flip_matrix_golden(self):
        rep = qubit_rep()
        flip = rep(Permutation((1, 0)))
        expected = np.array([[0, np.exp(1j)], [np.exp(-1j), 0]])
        assert linalg.max_abs(flip - expected) == 0.0

    def test_flip_is_unitary_involution(self):
        rep = qubit_rep()
        flip = rep(Permutation((1, 0)))
        assert linalg.is_unitary(flip)
        assert linalg.max_abs(flip @ flip - np.eye(2)) < 1e-12

    def test_diagnostics_clean(self):
        diag = qubit_rep().diagnostics()
        assert diag.unitary_residual < 1e-12
        assert diag.identity_residual == 0.0
        assert diag.homomorphism_residual < 1e-12
        assert diag.pairs_checked == 4
        assert diag.ok()

    def test_requires_two_points(self):
        with pytest.raises(ValueError, match="two-point"):
            qubit_rep(space_of(3))


class TestCyclicRep:
    @given(st.integers(1, 9))
    @settings(max_examples=9, deadline=None)
    def test_fourier_conjugation_is_position_shift(self, n):
        rep = cyclic_dft_rep(n)
        shift = Permutation(tuple((j + 1) % n for j in range(n)))
        matrix = rep(shift)
        expected = np.zeros((n, n))
        for j in range(n):
            expected[(j + 1) % n, j] = 1.0
        assert linalg.max_abs(matrix - expected) < 1e-12

    def test_exact_homomorphism(self):
        diag = cyclic_dft_rep(6).diagnostics()
        assert diag.ok(1e-12, 1e-12)

    def test_space_size_must_match(self):
        with pytest.raises(ValueError, match="does not match"):
            cyclic_dft_rep(3, space_of(4))

    def test_rep_requires_full_coverage(self):
        space = space_of(2)
        group = PermutationGroup.generate(space, (Permutation((1, 0)),))
        with pytest.raises(ValueError, match="every group element"):
            UnitaryRep(group, {group.identity: np.eye(2)})


class TestCoherentFamily:
    def test_states_keyed_by_element(self):
        family = qubit_family()
        assert np.allclose(family.states[Permutation((0, 1))], [1, 0])
        state = family.states[Permutation((1, 0))]
        assert abs(state[0]) < 1e-12 and abs(abs(state[1]) - 1) < 1e-12

    def test_rejects_zero_base(self):
        with pytest.raises(ValueError, match="nonzero"):
            CoherentFamily(qubit_rep(), np.zeros(2))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            CoherentFamily(qubit_rep(), np.array([1, 0, 0], dtype=complex))

    @pytest.mark.parametrize(
        "flip", [np.zeros((2, 2)), np.full((2, 2), 1e300)], ids=["zero", "overflow"]
    )
    def test_rejects_an_unusable_coherent_state_when_built(self, flip):
        """Z2 whose flip sends the base state to a zero or non-finite state:
        the family refuses it when built, with the matrix's listed index and
        no warning, so no operator build later divides by its norm."""
        group = PermutationGroup.generate(space_of(2), (Permutation((1, 0)),))
        rep = UnitaryRep(group, {group.identity: np.eye(2), Permutation((1, 0)): flip})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoherentStateError) as caught:
                CoherentFamily(rep, np.array([1, 0], dtype=complex))
        assert caught.value.index == 1
        assert isinstance(caught.value, ValueError)

    def test_injectivity_holds_for_orbit_bases(self):
        result = check_coherent_injectivity(cyclic_family(4))
        assert result.ok
        assert result.min_distance == pytest.approx(np.sqrt(2))
        assert result.max_overlap == pytest.approx(0.0, abs=1e-12)

    def test_injectivity_fails_for_invariant_base(self):
        # the uniform vector is fixed by every position shift
        rep = cyclic_dft_rep(3)
        base = np.ones(3, dtype=complex) / np.sqrt(3)
        result = check_coherent_injectivity(CoherentFamily(rep, base))
        assert not result.ok
        assert result.witness is not None

    def test_overlaps_match_the_pairwise_formula(self):
        rep = cyclic_dft_rep(5)
        rng = np.random.default_rng(11)
        family = CoherentFamily(rep, rng.normal(size=5) + 1j * rng.normal(size=5))
        states = list(family.states.values())
        overlaps = family.overlaps()
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                expected = (
                    0.0
                    if i == j
                    else abs(linalg.inner(a, b)) / float(np.linalg.norm(a) * np.linalg.norm(b))
                )
                assert overlaps[i, j] == expected

    def test_injectivity_is_kept_per_tolerance_pair(self):
        family = cyclic_family(4)
        first = check_coherent_injectivity(family)
        assert check_coherent_injectivity(family) is first
        strict = check_coherent_injectivity(family, distance_tol=2.0)
        assert not strict.ok and first.ok
        assert check_coherent_injectivity(family, distance_tol=2.0) is strict

    def test_phase_scaled_base_gives_same_operator(self):
        space = PointSpace(id="spin-values", labels=("+1", "-1"))
        theta = spin_z_variable(space)
        a = build_operator(theta, qubit_family())
        rep = qubit_rep()
        scaled = CoherentFamily(rep, np.exp(1.3j) * np.array([1, 0], dtype=complex))
        b = build_operator(theta, scaled)
        assert linalg.max_abs(a.operator - b.operator) < 1e-12


class TestBuildOperator:
    def test_qubit_operator_is_diag_plus_minus(self):
        space = PointSpace(id="spin-values", labels=("+1", "-1"))
        theta = spin_z_variable(space)
        bundle = build_operator(theta, qubit_family())
        assert linalg.max_abs(bundle.operator - np.diag([1.0, -1.0])) < 1e-12
        assert bundle.eigenvalue_multiplicities() == ((-1.0, 1), (1.0, 1))
        assert bundle.is_nondegenerate()

    def test_cyclic_position_operator(self):
        space = PointSpace(id="cycle-4", labels=("0", "1", "2", "3"))
        position = ConceptualVariable("position", space, ("0", "1", "2", "3"), (0, 1, 2, 3))
        bundle = build_operator(position, cyclic_family(4))
        assert linalg.max_abs(bundle.operator - np.diag([0.0, 1, 2, 3])) < 1e-12

    def test_coarse_variable_gives_degenerate_spectrum(self):
        space = PointSpace(id="cycle-4", labels=("0", "1", "2", "3"))
        parity = ConceptualVariable("parity", space, ("+1", "-1"), (0, 1, 0, 1))
        bundle = build_operator(parity, cyclic_family(4))
        mults = bundle.eigenvalue_multiplicities()
        assert [m for _, m in mults] == [2, 2]
        assert [v for v, _ in mults] == pytest.approx([-1.0, 1.0])
        assert not bundle.is_nondegenerate()
        # projectors pick out the even and odd position subspaces
        minus = bundle.projectors[-1.0]
        assert linalg.max_abs(minus - np.diag([0.0, 1, 0, 1])) < 1e-12

    def test_qa_labels_ask_the_variables_question(self):
        space = PointSpace(id="spin-values", labels=("+1", "-1"))
        bundle = build_operator(spin_z_variable(space), qubit_family())
        qa = bundle.qa_labels[1.0]
        assert qa.question == "What is spin-z?"
        assert qa.answer == "spin-z = +1"

    def test_requires_matching_domain(self):
        theta = variable_from_assignment(space_of(2), (0, 1))
        with pytest.raises(DomainMismatchError):
            build_operator(theta, qubit_family())

    def test_requires_regular_action(self):
        # S3 has order 6 on 3 points: not regular, labeling is ambiguous
        space = space_of(3)
        group = PermutationGroup.generate(
            space, (Permutation((1, 0, 2)), Permutation((1, 2, 0)))
        )
        matrices = {k: np.eye(3, dtype=complex) for k in group.elements}
        rep = UnitaryRep(group, matrices)
        family = CoherentFamily.__new__(CoherentFamily)
        family.rep = rep
        family.base = np.array([1, 0, 0], dtype=complex)
        family.states = {k: family.base for k in group.elements}
        theta = variable_from_assignment(space, (0, 0, 1))
        with pytest.raises(ValueError, match="regular"):
            build_operator(theta, family)

    def test_collision_rejected(self):
        rep = cyclic_dft_rep(3)
        base = np.ones(3, dtype=complex) / np.sqrt(3)  # shift-invariant
        family = CoherentFamily(rep, base)
        theta = variable_from_assignment(space_of(3, "cycle"), (0, 1, 2))
        theta = ConceptualVariable("t", rep.group.space, ("0", "1", "2"), (0, 1, 2))
        with pytest.raises(CoherentCollisionError):
            build_operator(theta, family)

    def test_non_orthogonal_groups_rejected(self):
        rep = cyclic_dft_rep(4)
        rng = np.random.default_rng(5)
        base = rng.normal(size=4) + 1j * rng.normal(size=4)
        base /= np.linalg.norm(base)
        family = CoherentFamily(rep, base)
        parity = ConceptualVariable(
            "parity", rep.group.space, ("+1", "-1"), (0, 1, 0, 1)
        )
        # a generic base makes different-value states non-orthogonal
        with pytest.raises(OrthogonalityError):
            build_operator(parity, family)


def _reference_grouping_error(theta, family, tol):
    """The pair-by-pair orthogonality scan, in value-pair then element order."""
    grouped = {v: [] for v in range(theta.value_count)}
    for k in family.group.elements:
        grouped[theta.assignment[k.images[0]]].append(family.states[k])
    for va, vb in itertools.combinations(sorted(grouped), 2):
        for sa in grouped[va]:
            for sb in grouped[vb]:
                overlap = abs(linalg.inner(sa, sb)) / float(
                    np.linalg.norm(sa) * np.linalg.norm(sb)
                )
                if overlap > tol:
                    return (
                        f"outside the orthogonal-coherent scope: states for values "
                        f"{theta.values[va]!r} and {theta.values[vb]!r} overlap by {overlap:.3e}"
                    )
    return None


class TestGroupingScan:
    @given(
        assignments(6, 6),
        st.lists(st.sampled_from([0.0, 0.0, 0.0, 0.0, 1.0, -1.0, 2.0, 1j]), min_size=6, max_size=6),
    )
    # Two violating pairs of one value pair, with different overlaps.
    @example((0, 1, 1, 2, 0, 0), [0.0, 1.0, 0.0, 1j, -1.0, 1j])
    @settings(max_examples=150, deadline=None)
    def test_first_violation_matches_the_pairwise_scan(self, assignment, entries):
        rep = cyclic_dft_rep(6)
        base = np.array(entries, dtype=complex)
        if np.linalg.norm(base) < 1e-12:
            return
        family = CoherentFamily(rep, base)
        if not check_coherent_injectivity(family):
            return
        theta = ConceptualVariable(
            "theta", rep.group.space, tuple(str(v) for v in range(max(assignment) + 1)), assignment
        )
        expected = _reference_grouping_error(theta, family, 1e-8)
        if expected is None:
            try:
                build_operator(theta, family)
            except OrthogonalityError as exc:
                assert "span rank" in str(exc)
        else:
            with pytest.raises(OrthogonalityError) as err:
                build_operator(theta, family)
            assert str(err.value) == expected


class TestConjugationLaw:
    @given(st.integers(0, 3))
    @settings(max_examples=4, deadline=None)
    def test_cyclic_covariance_exact(self, power):
        space = PointSpace(id="cycle-4", labels=("0", "1", "2", "3"))
        position = ConceptualVariable("position", space, ("0", "1", "2", "3"), (0, 1, 2, 3))
        family = cyclic_family(4)
        shift = Permutation((1, 2, 3, 0))
        element = Permutation.identity(4)
        for _ in range(power):
            element = shift * element
        result = conjugation_check(position, family, element)
        assert result.ok
        assert result.residual < 1e-12

    def test_prebuilt_bundle_gives_the_same_residual(self):
        family = cyclic_family(6)
        position = ConceptualVariable(
            "position", family.group.space, tuple(str(i) for i in range(6)), tuple(range(6))
        )
        bundle = build_operator(position, family)
        for element in family.group.elements:
            fresh = conjugation_check(position, family, element)
            reused = conjugation_check(position, family, element, bundle=bundle)
            assert reused == fresh

    def test_qubit_covariance(self):
        space = PointSpace(id="spin-values", labels=("+1", "-1"))
        theta = spin_z_variable(space)
        result = conjugation_check(theta, qubit_family(), Permutation((1, 0)))
        assert result.ok
        assert result.residual < 1e-12


class TestExpansion:
    def test_x_in_z_amplitudes_golden(self):
        space = PointSpace(id="spin-values", labels=("+1", "-1"))
        z_bundle = build_operator(spin_z_variable(space), qubit_family())
        x_bundle = bundle_from_matrix("x", np.array([[0, 1], [1, 0]], dtype=complex))
        plus = expand_in_basis(x_bundle, 1, z_bundle)
        assert plus.amplitudes[0] == pytest.approx(S)
        assert plus.amplitudes[1] == pytest.approx(S)
        assert plus.ok()
        minus = expand_in_basis(x_bundle, 0, z_bundle)
        assert minus.amplitudes[0] == pytest.approx(-S)
        assert minus.amplitudes[1] == pytest.approx(S)
        assert minus.ok()

    def test_weights_sum_to_one(self):
        space = PointSpace(id="spin-values", labels=("+1", "-1"))
        z_bundle = build_operator(spin_z_variable(space), qubit_family())
        y_bundle = bundle_from_matrix("y", np.array([[0, -1j], [1j, 0]]))
        expansion = expand_in_basis(y_bundle, 0, z_bundle)
        assert expansion.weight_sum == pytest.approx(1.0)
        assert expansion.reconstruction_error < 1e-10

    def test_degenerate_basis_rejected(self):
        degenerate = bundle_from_matrix("flat", np.eye(2, dtype=complex))
        x_bundle = bundle_from_matrix("x", np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(DegenerateBasisError):
            expand_in_basis(x_bundle, 0, degenerate)
        with pytest.raises(DegenerateBasisError):
            expand_in_basis(degenerate, 0, x_bundle)

    def test_index_range(self):
        x_bundle = bundle_from_matrix("x", np.array([[0, 1], [1, 0]], dtype=complex))
        z_bundle = bundle_from_matrix("z", np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="out of range"):
            expand_in_basis(x_bundle, 2, z_bundle)

    def test_dimension_mismatch(self):
        a = bundle_from_matrix("a", np.diag([1.0, -1.0]))
        b = bundle_from_matrix("b", np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            expand_in_basis(a, 0, b)


class TestBundleFromMatrix:
    def test_value_labels_and_eigenbasis_points(self):
        bundle = bundle_from_matrix("z", np.diag([1.0, -1.0]))
        assert bundle.variable.values == ("-1", "1")
        assert bundle.variable.domain.labels == ("e0", "e1")
        assert bundle.eigenvalue_multiplicities() == ((-1.0, 1), (1.0, 1))

    def test_rejects_non_hermitian(self):
        with pytest.raises(linalg.NotHermitianError):
            bundle_from_matrix("bad", np.array([[0, 1], [0, 0]], dtype=complex))


def _twirl_count(rep: UnitaryRep, tol: float = 1e-8) -> int:
    """The reference commutant dimension: eigenvalues at 1 of the twirl.

    (1/|G|) sum U(g) (x) conj(U(g)) is d^2 x d^2; only small tests can afford it.
    """
    twirl = sum(np.kron(rep(k), rep(k).conj()) for k in rep.group.elements) / rep.group.order
    eigenvalues = np.linalg.eigvalsh((twirl + twirl.conj().T) / 2)
    return int(np.sum(np.abs(eigenvalues - 1.0) < tol))


def _blockwise_twirl_count(rep: UnitaryRep, sizes: list[int], tol: float = 1e-8) -> int:
    """``_twirl_count`` of a block-diagonal representation, one block pair at a time.

    The twirl maps each Hom(V_b, V_a) to itself, so its fixed space is the sum
    of theirs, and no d^2 x d^2 matrix is built.
    """
    cuts = np.cumsum([0, *sizes]).tolist()
    blocks = [slice(a, b) for a, b in zip(cuts, cuts[1:])]
    count = 0
    for a, b in itertools.product(blocks, blocks):
        twirl = sum(np.kron(rep(k)[a, a], rep(k)[b, b].conj()) for k in rep.group.elements)
        twirl = twirl / rep.group.order
        eigenvalues = np.linalg.eigvalsh((twirl + twirl.conj().T) / 2)
        count += int(np.sum(np.abs(eigenvalues - 1.0) < tol))
    return count


def _permutation_matrix(k: Permutation) -> np.ndarray:
    matrix = np.zeros((k.degree, k.degree))
    matrix[list(k.images), range(k.degree)] = 1.0
    return matrix


def _sign(k: Permutation) -> float:
    return float(np.linalg.det(_permutation_matrix(k)))


@st.composite
def _ray_representations(draw) -> tuple[UnitaryRep, list[int]]:
    """qubit, cyclic Fourier, or a sum of permutation, trivial and sign
    representations of a random subgroup of S_n (n <= 5), times random
    per-element phases; with the sizes of its diagonal blocks."""
    kind = draw(st.sampled_from(["qubit", "cyclic", "sum"]))
    if kind == "qubit":
        return qubit_rep(), [2]
    if kind == "cyclic":
        base = cyclic_dft_rep(draw(st.integers(1, 12)))
        group, blocks = base.group, [base.matrices]
    else:
        n = draw(st.integers(1, 5))
        gens = draw(st.lists(permutations_of(n), min_size=1, max_size=2))
        group = PermutationGroup.generate(space_of(n), tuple(gens))
        blocks = []
    for part in draw(st.lists(st.sampled_from(["perm", "trivial", "sign"]), max_size=2)):
        matrix = {
            "perm": _permutation_matrix,
            "trivial": lambda k: np.eye(1),
            "sign": lambda k: np.array([[_sign(k)]]),
        }[part]
        blocks.append({k: matrix(k) for k in group.elements})
    if not blocks:
        blocks.append({k: _permutation_matrix(k) for k in group.elements})
    angles = draw(
        st.lists(st.floats(0, 2 * np.pi), min_size=group.order, max_size=group.order)
    )
    angles[group.elements.index(group.identity)] = 0.0
    matrices = {
        k: np.exp(1j * angle) * _block_diagonal([b[k] for b in blocks])
        for k, angle in zip(group.elements, angles)
    }
    return UnitaryRep(group, matrices), [len(b[group.identity]) for b in blocks]


def _block_diagonal(parts: list[np.ndarray]) -> np.ndarray:
    size = sum(p.shape[0] for p in parts)
    out = np.zeros((size, size), dtype=complex)
    at = 0
    for p in parts:
        out[at : at + p.shape[0], at : at + p.shape[0]] = p
        at += p.shape[0]
    return out


class TestCommutant:
    def test_abelian_two_dim_rep_is_reducible(self):
        diag = commutant_diagnostic(qubit_rep())
        assert diag.commutant_dimension == 2
        assert not diag.irreducible

    def test_trivial_group_commutant_is_full(self):
        space = space_of(2)
        group = PermutationGroup.generate(space, ())
        rep = UnitaryRep(group, {group.identity: np.eye(2, dtype=complex)})
        diag = commutant_diagnostic(rep)
        assert diag.commutant_dimension == 4
        assert not diag.irreducible

    def test_ray_phases_cancel_where_a_non_representation_would_not(self):
        # diag(1, i) squares to diag(1, -1), which is not a phase times I, so
        # {I, diag(1, i)} is no representation of Z2: its character norm is 3
        # while the twirl finds a 2-dimensional fixed space.
        space = space_of(2)
        group = PermutationGroup.generate(space, (Permutation((1, 0)),))
        flip = Permutation((1, 0))
        broken = UnitaryRep(group, {group.identity: np.eye(2), flip: np.diag([1, 1j])})
        assert not broken.diagnostics().ok()
        assert commutant_diagnostic(broken).commutant_dimension == 3
        assert _twirl_count(broken) == 2
        # e^{i/3} diag(1, -1) is a ray representation: both counts agree.
        phased = np.exp(1j / 3) * np.diag([1, -1])
        ray = UnitaryRep(group, {group.identity: np.eye(2), flip: phased})
        assert ray.diagnostics().ok()
        assert commutant_diagnostic(ray).commutant_dimension == _twirl_count(ray) == 2

    @pytest.mark.parametrize(
        "angle, tol, dimension",
        [(1.0, 1e-8, None), (1e-5, 1e-8, 2), (1e-5, 1e-12, None), (0.0, 0.0, 2)],
    )
    def test_tolerance_bounds_the_distance_to_an_integer(self, angle, tol, dimension):
        # The norm of {I, diag(1, -e^{i angle})} is 2 + (1 - cos(angle)).
        space = space_of(2)
        group = PermutationGroup.generate(space, (Permutation((1, 0)),))
        flip = np.diag([1, -np.exp(1j * angle)])
        rep = UnitaryRep(group, {group.identity: np.eye(2), Permutation((1, 0)): flip})
        diag = commutant_diagnostic(rep, tol)
        assert diag.character_norm == pytest.approx(3 - np.cos(angle), abs=1e-15)
        assert diag.commutant_dimension == dimension
        assert diag.irreducible is (None if dimension is None else False)

    def test_no_twirl_is_built(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the character norm needs no twirl")

        monkeypatch.setattr(np, "kron", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        diag = commutant_diagnostic(cyclic_dft_rep(48))
        assert diag.commutant_dimension == 48

    @given(_ray_representations())
    @settings(max_examples=40, deadline=None)
    def test_character_norm_counts_the_twirl_fixed_space(self, drawn):
        rep, sizes = drawn
        assert rep.diagnostics().ok()
        diag = commutant_diagnostic(rep)
        assert diag.commutant_dimension == _blockwise_twirl_count(rep, sizes)
        assert diag.irreducible == (diag.commutant_dimension == 1)


def per_element_residuals(theta, family, base_point=0):
    """Oracle: the conjugation law one element at a time, each operator from
    its own ``build_operator`` call."""
    operator = build_operator(theta, family, base_point).operator
    residuals = []
    for t in family.group.elements:
        moved = build_operator(theta.compose(t.images), family, base_point).operator
        matrix = family.rep(t)
        residuals.append(linalg.max_abs(matrix.conj().T @ operator @ matrix - moved))
    return residuals


def projector_sum(theta, family, base_point=0):
    """Oracle: value-weighted projectors of one variable, summed in value order."""
    points = [k.images[base_point] for k in family.group.elements]
    values = np.array([theta.assignment[p] for p in points])
    operator = np.zeros((family.rep.dim, family.rep.dim), dtype=complex)
    for v, weight in enumerate(theta.numeric_values()):
        indices = tuple(np.flatnonzero(values == v).tolist())
        operator = operator + weight * family.projector(indices)[0]
    return operator


def bits(values):
    return [float(v).hex() for v in values]


def assert_law_matches_loop(theta, family, base_point=0):
    law = conjugation_law(theta, family, base_point=base_point)
    assert bits(law) == bits(per_element_residuals(theta, family, base_point))
    built = build_operator(theta, family, base_point).operator
    assert built.tobytes() == projector_sum(theta, family, base_point).tobytes()
    return law


def quarter_values(rng, count):
    return tuple(f"{q / 4:g}" for q in rng.sample(range(-8 * count, 8 * count + 1), count))


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / abs(np.diagonal(r)))


def regular_subgroups(n):
    """Every regular subgroup of S_n up to conjugacy, as permutation groups."""
    space = space_of(n, "regular")
    return [
        PermutationGroup(space, (), tuple(Permutation(images) for images in c.elements))
        for c in subgroup_conjugacy_classes(n)
        if c.order == n and len({images[0] for images in c.elements}) == n
    ]


class TestConjugationLawStack:
    @given(st.integers(1, 12), st.data())
    @settings(max_examples=60, deadline=None)
    def test_cyclic_matches_the_per_element_loop(self, n, data):
        family = cyclic_family(n)
        raw = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        assignment = canonical_partition(raw)
        rng = random.Random(data.draw(st.integers(0, 2**16)))
        theta = ConceptualVariable(
            "theta", family.group.space, quarter_values(rng, max(assignment) + 1), assignment
        )
        base_point = data.draw(st.integers(0, n - 1))
        law = assert_law_matches_loop(theta, family, base_point)
        assert len(law) == n

    # Regular subgroups of S_n up to conjugacy are the groups of order n (OEIS A000001).
    GROUPS_OF_ORDER = {1: 1, 2: 1, 3: 1, 4: 2, 5: 1, 6: 2}

    @pytest.mark.parametrize(
        "n, index", [(n, i) for n, count in GROUPS_OF_ORDER.items() for i in range(count)]
    )
    def test_regular_subgroups_as_permutation_matrices(self, n, index):
        """Every regular class of S_n (n <= 6), as permutation matrices and as
        a seeded unitary conjugate of them, with permissible and
        non-permissible variables alike."""
        groups = regular_subgroups(n)
        assert len(groups) == self.GROUPS_OF_ORDER[n]
        group = groups[index]
        matrices = {k: _permutation_matrix(k).astype(complex) for k in group.elements}
        conjugate = random_unitary(n, seed=10 * n + index)
        families = [
            CoherentFamily(UnitaryRep(group, matrices), np.eye(n, dtype=complex)[0]),
            CoherentFamily(
                UnitaryRep(group, {k: conjugate @ m @ conjugate.conj().T for k, m in matrices.items()}),
                conjugate[:, 0],
            ),
        ]
        rng = random.Random(n * 100 + index)
        shapes = {tuple(range(n)), (0,) * n}
        while len(shapes) < min(8, (1, 1, 2, 5, 15, 52, 203)[n]):  # Bell numbers
            shapes.add(canonical_partition([rng.randrange(n) for _ in range(n)]))
        for family in families:
            for assignment in sorted(shapes):
                theta = ConceptualVariable(
                    "theta", group.space, quarter_values(rng, max(assignment) + 1), assignment
                )
                assert_law_matches_loop(theta, family, rng.randrange(n))

    def test_the_first_failing_element_raises_its_own_build_error(self):
        """Z3 with explicit matrices that are no representation, so the coherent
        states are not shift-invariant: U(s) e0 = e1, U(s^2) e0 = (e1 + e2)/sqrt 2.
        theta = {e0 | e1, e2} is not permissible; its own states group
        orthogonally, but some theta∘t put e1 and (e1 + e2)/sqrt 2 apart."""
        space = space_of(3)
        group = PermutationGroup.generate(space, (Permutation((1, 2, 0)),))
        s, s2 = Permutation((1, 2, 0)), Permutation((2, 0, 1))
        r = 1 / np.sqrt(2)
        matrices = {
            group.identity: np.eye(3),
            s: np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
            s2: np.array([[0, 0, 1], [r, r, 0], [r, -r, 0]]),
        }
        family = CoherentFamily(UnitaryRep(group, matrices), np.array([1, 0, 0], dtype=complex))
        theta = ConceptualVariable("theta", space, ("-1", "2"), (0, 1, 1))
        assert not is_permissible(theta, group).ok
        build_operator(theta, family)
        failing = []
        for t in group.elements:
            try:
                build_operator(theta.compose(t.images), family)
            except ValueError as direct:
                failing.append(t)
                with pytest.raises(type(direct)) as via_check:
                    conjugation_check(theta, family, t)
                assert str(via_check.value) == str(direct)
            else:
                conjugation_check(theta, family, t)
        assert failing
        with pytest.raises(OrthogonalityError) as via_law:
            conjugation_law(theta, family)
        with pytest.raises(OrthogonalityError) as first:
            build_operator(theta.compose(failing[0].images), family)
        assert str(via_law.value) == str(first.value)


def pair_by_pair(rep, seed=0, sample_pairs=1000):
    """Oracle: ``UnitaryRep.diagnostics`` one matrix and one pair at a time."""
    unitary = max(
        linalg.max_abs(m.conj().T @ m - np.eye(rep.dim)) for m in rep.matrices.values()
    )
    identity = linalg.max_abs(rep.matrices[rep.group.identity] - np.eye(rep.dim))
    pairs, count = element_pairs(rep.group.elements, seed, sample_pairs)
    hom = 0.0
    for a, b in pairs:
        product = rep.matrices[a] @ rep.matrices[b]
        expected = rep.matrices[a * b]
        idx = np.unravel_index(np.argmax(np.abs(expected)), expected.shape)
        phase = product[idx] / expected[idx]
        mag = abs(phase)
        phase = phase / mag if mag > 0 else 1.0
        hom = max(hom, linalg.max_abs(product - phase * expected))
    return bits([unitary, identity, hom]), count


def assert_diagnostics_match_pairs(rep, seed=0):
    diag = rep.diagnostics(seed=seed)
    got = bits([diag.unitary_residual, diag.identity_residual, diag.homomorphism_residual])
    assert (got, diag.pairs_checked) == pair_by_pair(rep, seed)
    return diag


def with_phases(rep, seed):
    """The same matrices times a seeded phase per element (identity kept)."""
    rng = np.random.default_rng(seed)
    return UnitaryRep(
        rep.group,
        {
            k: m if k == rep.group.identity else np.exp(2j * np.pi * rng.random()) * m
            for k, m in rep.matrices.items()
        },
    )


class TestDiagnosticsStack:
    @pytest.mark.parametrize("n", range(1, 33))
    def test_cyclic_dft(self, n):
        assert assert_diagnostics_match_pairs(cyclic_dft_rep(n)).pairs_checked == n * n

    def test_qubit(self):
        assert_diagnostics_match_pairs(qubit_rep())

    def test_broken_z2(self):
        space = space_of(2)
        group = PermutationGroup.generate(space, (Permutation((1, 0)),))
        broken = UnitaryRep(group, {group.identity: np.eye(2), Permutation((1, 0)): np.diag([1, 1j])})
        assert not assert_diagnostics_match_pairs(broken).ok()

    @pytest.mark.parametrize("seed", range(4))
    def test_per_element_phases(self, seed):
        assert assert_diagnostics_match_pairs(with_phases(cyclic_dft_rep(7 + seed), seed)).ok()
        assert assert_diagnostics_match_pairs(with_phases(qubit_rep(), seed)).ok()

    @given(_ray_representations())
    @settings(max_examples=30, deadline=None)
    def test_ray_representations(self, drawn):
        assert_diagnostics_match_pairs(drawn[0])

    @pytest.mark.parametrize("seed", [0, 5])
    def test_s6_samples_past_the_exhaustive_limit(self, seed):
        """720 elements: a seeded sample of 1000 pairs, stacked 720 at a time."""
        space = space_of(6)
        group = PermutationGroup.generate(
            space, (Permutation((1, 0, 2, 3, 4, 5)), Permutation((1, 2, 3, 4, 5, 0)))
        )
        assert group.order == 720 > PAIR_EXHAUSTIVE_LIMIT
        rep = UnitaryRep(group, {k: _permutation_matrix(k) for k in group.elements})
        assert assert_diagnostics_match_pairs(rep, seed).pairs_checked == 1000
        assert assert_diagnostics_match_pairs(with_phases(rep, seed), seed).ok()


class TestPairIds:
    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_elements_and_matrices_listed_in_another_order(self, seed):
        """Element ids index the stack through the listed order of the matrices."""
        rng = random.Random(seed)
        rep = with_phases(cyclic_dft_rep(9), seed)
        shuffled = list(rep.group.elements)
        while shuffled[0].is_identity():
            rng.shuffle(shuffled)
        group = PermutationGroup(rep.group.space, rep.group.generators, shuffled)
        listed = rng.sample(list(rep.matrices), len(shuffled))
        moved = UnitaryRep(group, {k: rep.matrices[k] for k in listed})
        assert assert_diagnostics_match_pairs(moved).ok()

    def test_verify_and_diagnostics_compose_only_to_build_tables(self, monkeypatch):
        """On Z24 each law reads its 576 products from a table; the two tables
        (the group's and the induced group's) are the only compositions."""
        rep = cyclic_dft_rep(24)
        theta = variable_from_assignment(rep.group.space, tuple(range(24)))
        _, hom = induced_group(theta, rep.group)
        calls = []
        original = spaces.compose

        def spy(f, g):
            calls.append(1)
            return original(f, g)

        for name, module in list(sys.modules.items()):
            if name.startswith("finivar") and getattr(module, "compose", None) is original:
                monkeypatch.setattr(module, "compose", spy)
        assert hom.verify()
        assert rep.diagnostics().ok()
        assert 0 < len(calls) <= 2 * 24
