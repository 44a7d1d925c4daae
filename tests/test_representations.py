"""Representations, coherent families, operator construction and covariance."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finivar import linalg
from finivar.groups import Permutation, PermutationGroup
from finivar.representations import (
    CoherentCollisionError,
    CoherentFamily,
    DegenerateBasisError,
    OrthogonalityError,
    UnitaryRep,
    build_operator,
    bundle_from_matrix,
    check_coherent_injectivity,
    commutant_diagnostic,
    conjugation_check,
    cyclic_dft_rep,
    expand_in_basis,
    qubit_rep,
)
from finivar.spaces import ConceptualVariable, DomainMismatchError, PointSpace

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


def _permutation_matrix(k: Permutation) -> np.ndarray:
    matrix = np.zeros((k.degree, k.degree))
    matrix[list(k.images), range(k.degree)] = 1.0
    return matrix


def _sign(k: Permutation) -> float:
    return float(np.linalg.det(_permutation_matrix(k)))


@st.composite
def _ray_representations(draw) -> UnitaryRep:
    """qubit, cyclic Fourier, or a sum of permutation, trivial and sign
    representations of a random subgroup of S_n (n <= 5), times random
    per-element phases."""
    kind = draw(st.sampled_from(["qubit", "cyclic", "sum"]))
    if kind == "qubit":
        return qubit_rep()
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
    return UnitaryRep(group, matrices)


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
    def test_character_norm_counts_the_twirl_fixed_space(self, rep):
        assert rep.diagnostics().ok()
        diag = commutant_diagnostic(rep)
        assert diag.commutant_dimension == _twirl_count(rep)
        assert diag.irreducible == (diag.commutant_dimension == 1)
