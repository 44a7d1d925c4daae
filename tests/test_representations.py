"""Representations, coherent families, operator construction and covariance."""

from __future__ import annotations

import itertools
import random
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finivar import linalg, representations, spaces
from finivar.builtins import builtin_text
from finivar.groups import (
    GroupHomomorphism,
    NotPermissibleError,
    Permutation,
    PermutationGroup,
    induced_group,
    is_permissible,
)
from finivar.report import STATUS_ERROR, STATUS_FAIL, STATUS_NOT_APPLICABLE, STATUS_PASS
from finivar.representations import (
    CoherentCollisionError,
    CoherentFamily,
    CoherentStateError,
    DegenerateBasisError,
    OrthogonalityError,
    UnitaryRep,
    build_operator,
    check_coherent_injectivity,
    _cyclic_group,
    commutant_diagnostic,
    conjugation_check,
    cyclic_dft_rep,
    expand_in_basis,
    qubit_rep,
)
from finivar.runner import run_scenario
from finivar.scenario import loads
from finivar.spaces import (
    ConceptualVariable,
    DomainMismatchError,
    PointSpace,
    canonical_partition,
)
from finivar.subgroups import subgroup_conjugacy_classes

from conftest import (
    GROUPS_UP_TO_S6,
    assignments,
    changed_element,
    cyclic_group,
    multiplicities,
    permutations_of,
    scenario_text,
    space_of,
    symmetric_group,
    variable_from_assignment,
)

S = 1 / np.sqrt(2)


def tolerances(**overrides: float) -> dict[str, float]:
    """The default tolerance table with ``overrides``."""
    return {**linalg.DEFAULT_TOLERANCES, **overrides}


def qubit_family() -> CoherentFamily:
    rep = qubit_rep(cyclic_group(2))
    return CoherentFamily(rep, np.array([1, 0], dtype=complex))


def cyclic_family(n: int) -> CoherentFamily:
    rep = cyclic_dft_rep(cyclic_group(n))
    base = np.zeros(n, dtype=complex)
    base[0] = 1
    return CoherentFamily(rep, base)


def spin_z_variable(space: PointSpace) -> ConceptualVariable:
    return ConceptualVariable("spin-z", space, ("+1", "-1"), (0, 1))


class TestQubitRep:
    def test_flip_matrix_golden(self):
        rep = qubit_rep(cyclic_group(2))
        flip = rep(Permutation((1, 0)))
        expected = np.array([[0, np.exp(1j)], [np.exp(-1j), 0]])
        assert linalg.max_abs(flip - expected) == 0.0

    def test_flip_is_unitary_involution(self):
        rep = qubit_rep(cyclic_group(2))
        flip = rep(Permutation((1, 0)))
        assert linalg.max_abs(flip.conj().T @ flip - np.eye(2)) <= 1e-10
        assert linalg.max_abs(flip @ flip - np.eye(2)) < 1e-12

    def test_diagnostics_clean(self):
        diag = qubit_rep(cyclic_group(2)).diagnostics()
        assert diag.unitary_residual < 1e-12
        assert diag.identity_residual == 0.0
        assert diag.homomorphism_residual < 1e-12
        assert diag.pairs_checked == 2
        assert diag.ok()

    def test_requires_two_points(self):
        with pytest.raises(ValueError, match=r"the declared group has \[0, 1, 2\], which qubit's"):
            _cyclic_group("qubit", space_of(2), PermutationGroup.generate(space_of(3), (Permutation((1, 0, 2)),)))

    def test_requires_the_flip_group(self):
        with pytest.raises(ValueError, match=r"qubit's group has \[1, 0\], which the declared"):
            _cyclic_group("qubit", space_of(2), PermutationGroup.generate(space_of(2), ()))


class TestCyclicRep:
    @pytest.mark.parametrize("n", [*range(1, 13), 16, 20, 24, 32])
    def test_every_shift_is_its_exact_permutation_matrix(self, n):
        rep = cyclic_dft_rep(cyclic_group(n))
        for s in range(n):
            expected = np.zeros((n, n))
            for j in range(n):
                expected[(j + s) % n, j] = 1.0
            assert np.array_equal(rep(Permutation(tuple((j + s) % n for j in range(n)))), expected)

    def test_exact_homomorphism(self):
        diag = cyclic_dft_rep(cyclic_group(6)).diagnostics()
        assert diag.ok(tolerances(unitary=1e-12, rep_homomorphism=1e-12))

    def test_space_size_must_match(self):
        with pytest.raises(ValueError, match=r"the declared group has \[0, 1, 2, 3\], which cyclic"):
            _cyclic_group("cyclic-dft", space_of(3), cyclic_group(4))

    def test_requires_the_shift_group(self):
        flip = Permutation((1, 0, 3, 2))
        with pytest.raises(ValueError, match=r"the declared group has \[1, 0, 3, 2\], which cyclic"):
            _cyclic_group("cyclic-dft", space_of(4), PermutationGroup.generate(space_of(4), (flip, Permutation((2, 3, 0, 1)))))

    def test_rep_requires_full_coverage(self):
        space = space_of(2)
        group = PermutationGroup.generate(space, (Permutation((1, 0)),))
        with pytest.raises(ValueError, match="every group element"):
            UnitaryRep(group, np.eye(2)[None])


class TestCoherentFamily:
    def test_states_in_id_order(self):
        family = qubit_family()
        assert family.states.shape == (2, 2)
        assert np.allclose(family.states[family.group.index(Permutation((0, 1)))], [1, 0])
        state = family.states[family.group.index(Permutation((1, 0)))]
        assert abs(state[0]) < 1e-12 and abs(abs(state[1]) - 1) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 17, 24, 33])
    def test_states_are_one_product_per_element_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        base = rng.normal(size=n) + 1j * rng.normal(size=n)
        plain = cyclic_dft_rep(cyclic_group(n))
        for rep in (plain, with_phases(conjugated(plain, n), n)):
            family = CoherentFamily(rep, base)
            expected = np.array([rep(k) @ base for k in rep.group.elements])
            assert family.states.tobytes() == expected.tobytes()

    def test_rejects_zero_base(self):
        with pytest.raises(ValueError, match="nonzero"):
            CoherentFamily(qubit_rep(cyclic_group(2)), np.zeros(2))

    def test_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            CoherentFamily(qubit_rep(cyclic_group(2)), np.array([1, 0, 0], dtype=complex))

    @pytest.mark.parametrize(
        "flip", [np.zeros((2, 2)), np.full((2, 2), 1e300)], ids=["zero", "overflow"]
    )
    def test_rejects_an_unusable_coherent_state_when_built(self, flip):
        """Z2 whose flip sends the base state to a zero or non-finite state:
        the family refuses it when built, with the ids of the unusable states
        and no warning, so no operator build later divides by its norm."""
        group = PermutationGroup.generate(space_of(2), (Permutation((1, 0)),))
        rep = UnitaryRep(group, np.array([np.eye(2), flip]))  # ids 0 and 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CoherentStateError) as caught:
                CoherentFamily(rep, np.array([1, 0], dtype=complex))
        assert caught.value.ids == (1,)
        assert isinstance(caught.value, ValueError)

    def test_injectivity_holds_for_orbit_bases(self):
        result = check_coherent_injectivity(cyclic_family(4))
        assert result.ok
        assert result.min_distance == pytest.approx(np.sqrt(2))
        assert result.max_overlap == pytest.approx(0.0, abs=1e-12)

    def test_injectivity_fails_for_invariant_base(self):
        # the uniform vector is fixed by every position shift
        rep = cyclic_dft_rep(cyclic_group(3))
        base = np.ones(3, dtype=complex) / np.sqrt(3)
        result = check_coherent_injectivity(CoherentFamily(rep, base))
        assert not result.ok
        assert result.witness is not None

    def test_overlaps_match_the_pairwise_formula(self):
        rep = cyclic_dft_rep(cyclic_group(5))
        rng = np.random.default_rng(11)
        family = CoherentFamily(rep, rng.normal(size=5) + 1j * rng.normal(size=5))
        states = family.states
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
        strict = check_coherent_injectivity(family, tolerances(injectivity_distance=2.0))
        assert not strict.ok and first.ok
        assert check_coherent_injectivity(family, tolerances(injectivity_distance=2.0)) is strict

    def test_the_scans_peak_within_what_the_family_holds(self):
        """S6 on six points: 258,840 pairs of 6-dimensional states.  The scans
        peak within three times the larger of the matrix stack and the 720×720
        overlaps (4.1 MB)."""
        group = PermutationGroup.generate(
            space_of(6), (Permutation((1, 0, 2, 3, 4, 5)), Permutation((1, 2, 3, 4, 5, 0)))
        )
        rep = UnitaryRep(group, np.array([_permutation_matrix(k) for k in group.elements]))
        family = CoherentFamily(rep, np.eye(6)[0])
        tracemalloc.start()
        try:
            result = check_coherent_injectivity(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * max(rep.stack.nbytes, group.order**2 * 8)
        assert not result.ok  # the 120 elements fixing point 0 send e0 to itself

    def regular_s5_family(self) -> CoherentFamily:
        """S5 acting on itself by left multiplication, as 120×120 permutation
        matrices (a 27.6 MB stack), with base e0."""
        listing = sorted(itertools.permutations(range(5)))
        index = {p: i for i, p in enumerate(listing)}
        left = [
            Permutation(tuple(index[tuple(g[x] for x in p)] for p in listing))
            for g in ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))
        ]
        group = PermutationGroup.generate(space_of(120), left)
        rep = UnitaryRep(group, np.array([_permutation_matrix(k).astype(complex) for k in group.elements]))
        return CoherentFamily(rep, np.eye(120, dtype=complex)[0])

    def test_the_regular_s5_scans_peak_within_the_l2_cache(self, monkeypatch):
        """The stack would let one block hold all 7,140 pairs of 120-dimensional
        states, 27 MB of copies; the L2 cache bounds each block, and the scans
        keep the bits of the one-block walk."""
        cache = representations._l2_cache_bytes()
        if cache is None:
            pytest.skip("the L2 cache size is read from Linux's /sys/devices/system/cpu")
        family = self.regular_s5_family()
        assert len(next(representations._pairs(family))[0]) * 2 * 120 * 16 <= cache
        tracemalloc.start()
        try:
            result = check_coherent_injectivity(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= cache + 3 * 120 * 120 * 8  # the buffers, the overlaps and the norms
        monkeypatch.setattr(representations, "_l2_cache_bytes", lambda: None)
        whole = self.regular_s5_family()
        assert len(next(representations._pairs(whole))[0]) > 7000
        assert whole.overlaps().tobytes() == family.overlaps().tobytes()
        assert check_coherent_injectivity(whole) == result
        assert result.ok and result.min_distance == np.sqrt(2)

    @pytest.mark.parametrize(
        "n, blocks", [(8, [24, 4]), (12, [59, 7]), (16, [110, 10]), (20, [177, 13]), (24, [260, 16])]
    )
    def test_the_operators_sizes_keep_their_blocks(self, n, blocks):
        # The benchmark's cyclic-dft sizes fit well within any L2 cache: the
        # stack alone sizes their blocks.
        family = CoherentFamily(cyclic_dft_rep(cyclic_group(n)), np.eye(n)[0])
        assert [len(i) for i, *_ in representations._pairs(family)] == blocks

    def test_phase_scaled_base_gives_same_operator(self):
        space = space_of(2)
        theta = spin_z_variable(space)
        a = build_operator(theta, qubit_family())
        rep = qubit_rep(cyclic_group(2))
        scaled = CoherentFamily(rep, np.exp(1.3j) * np.array([1, 0], dtype=complex))
        b = build_operator(theta, scaled)
        assert linalg.max_abs(a.operator - b.operator) < 1e-12


class TestBuildOperator:
    def test_qubit_operator_is_diag_plus_minus(self):
        space = space_of(2)
        theta = spin_z_variable(space)
        bundle = build_operator(theta, qubit_family())
        assert linalg.max_abs(bundle.operator - np.diag([1.0, -1.0])) < 1e-12
        assert multiplicities(bundle.spectral) == ((-1.0, 1), (1.0, 1))
        assert bundle.spectral.is_nondegenerate()

    def test_cyclic_position_operator(self):
        space = space_of(4)
        position = ConceptualVariable("position", space, ("0", "1", "2", "3"), (0, 1, 2, 3))
        bundle = build_operator(position, cyclic_family(4))
        assert linalg.max_abs(bundle.operator - np.diag([0.0, 1, 2, 3])) < 1e-12

    def test_coarse_variable_gives_degenerate_spectrum(self):
        space = space_of(4)
        parity = ConceptualVariable("parity", space, ("+1", "-1"), (0, 1, 0, 1))
        bundle = build_operator(parity, cyclic_family(4))
        mults = multiplicities(bundle.spectral)
        assert [m for _, m in mults] == [2, 2]
        assert [v for v, _ in mults] == pytest.approx([-1.0, 1.0])
        assert not bundle.spectral.is_nondegenerate()
        # projectors pick out the even and odd position subspaces
        minus = bundle.projectors[-1.0]
        assert linalg.max_abs(minus - np.diag([0.0, 1, 0, 1])) < 1e-12

    def test_qa_labels_ask_the_variables_question(self):
        # theorem1 pairs the question "What is θ?" with each value's answer,
        # keyed and sorted by numeric value.
        report = run_scenario(loads(builtin_text("qubit")))
        (theorem1,) = [c for c in report.checks if c.type == "theorem1-hypotheses"]
        assert theorem1.details["operator"]["qa_labels"] == {
            "-1": ["What is spin-z?", "spin-z = -1"],
            "1": ["What is spin-z?", "spin-z = +1"],
        }

    def test_qa_labels_keep_values_that_share_twelve_digits_apart(self):
        # Two values equal to 12 significant digits are keyed in full, so
        # neither answer replaces the other.
        text = scenario_text(
            {
                "name": "close-values",
                "space": {"id": "two", "labels": ["a", "b"]},
                "variables": [{"name": "x", "values": ["100000", "100000.00000003"], "assignment": [0, 1]}],
                "group": {"generators": [[1, 0]]},
                "representation": {"kind": "cyclic-dft", "n": 2},
                "checks": [{"type": "theorem1-hypotheses", "variable": "x"}],
            }
        )
        (theorem1,) = run_scenario(loads(text)).checks
        assert theorem1.status == "pass"
        assert theorem1.details["operator"]["qa_labels"] == {
            "100000.0": ["What is x?", "x = 100000"],
            "100000.00000003": ["What is x?", "x = 100000.00000003"],
        }

    def test_requires_matching_domain(self):
        theta = variable_from_assignment(space_of(2, "other"), (0, 1))
        with pytest.raises(DomainMismatchError):
            build_operator(theta, qubit_family())

    def test_requires_regular_action(self):
        # S3 has order 6 on 3 points: not regular, labeling is ambiguous
        space = space_of(3)
        group = PermutationGroup.generate(
            space, (Permutation((1, 0, 2)), Permutation((1, 2, 0)))
        )
        rep = UnitaryRep(group, np.tile(np.eye(3, dtype=complex), (group.order, 1, 1)))
        family = CoherentFamily.__new__(CoherentFamily)
        family.rep = rep
        family.base = np.array([1, 0, 0], dtype=complex)
        family.states = np.tile(family.base, (group.order, 1))
        theta = variable_from_assignment(space, (0, 0, 1))
        with pytest.raises(ValueError, match="regular"):
            build_operator(theta, family)

    def test_collision_rejected(self):
        rep = cyclic_dft_rep(cyclic_group(3))
        base = np.ones(3, dtype=complex) / np.sqrt(3)  # shift-invariant
        family = CoherentFamily(rep, base)
        theta = variable_from_assignment(space_of(3, "cycle"), (0, 1, 2))
        theta = ConceptualVariable("t", rep.group.space, ("0", "1", "2"), (0, 1, 2))
        with pytest.raises(CoherentCollisionError):
            build_operator(theta, family)

    def test_non_orthogonal_groups_rejected(self):
        rep = cyclic_dft_rep(cyclic_group(4))
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
        grouped[theta.assignment[k.images[0]]].append(family.states[family.group.index(k)])
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
        rep = cyclic_dft_rep(cyclic_group(6))
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


def theta_residuals(theta, family, base_point=0):
    """``conjugation_check`` on theta's own induced map and operator."""
    _, induced = induced_group(theta, family.group)
    return conjugation_check(family, induced, build_operator(theta, family, base_point))


class TestConjugationLaw:
    @given(st.integers(0, 3))
    @settings(max_examples=4, deadline=None)
    def test_cyclic_covariance_exact(self, power):
        space = space_of(4)
        position = ConceptualVariable("position", space, ("0", "1", "2", "3"), (0, 1, 2, 3))
        family = cyclic_family(4)
        shift = Permutation((1, 2, 3, 0))
        element = Permutation(range(4))
        for _ in range(power):
            element = shift * element
        residuals = theta_residuals(position, family)
        assert len(residuals) == 4
        assert max(residuals) <= CONJUGATION_TOL
        assert residuals[family.group.elements.index(element)] < 1e-12

    def test_qubit_covariance(self):
        space = space_of(2)
        theta = spin_z_variable(space)
        family = qubit_family()
        residuals = theta_residuals(theta, family)
        assert len(residuals) == 2
        assert residuals[family.group.elements.index(Permutation((1, 0)))] < 1e-12
        assert max(residuals) <= CONJUGATION_TOL


class TestExpansion:
    """``expand_in_basis`` reads two spectra: a plain matrix's from
    ``linalg.eigh`` and a built operator's alike."""

    def test_x_in_z_amplitudes_golden(self):
        space = space_of(2)
        z = build_operator(spin_z_variable(space), qubit_family()).spectral
        x = linalg.eigh(np.array([[0, 1], [1, 0]], dtype=complex))
        plus = expand_in_basis(x, 1, z)
        assert plus.amplitudes[0] == pytest.approx(S)
        assert plus.amplitudes[1] == pytest.approx(S)
        assert plus.ok()
        minus = expand_in_basis(x, 0, z)
        assert minus.amplitudes[0] == pytest.approx(-S)
        assert minus.amplitudes[1] == pytest.approx(S)
        assert minus.ok()

    def test_weights_sum_to_one(self):
        space = space_of(2)
        z = build_operator(spin_z_variable(space), qubit_family()).spectral
        y = linalg.eigh(np.array([[0, -1j], [1j, 0]]))
        expansion = expand_in_basis(y, 0, z)
        assert expansion.weight_sum == pytest.approx(1.0)
        assert expansion.reconstruction_error < 1e-10

    def test_ok_reads_both_names_from_the_table(self):
        y = linalg.eigh(np.array([[0, -1j], [1j, 0]]))
        expansion = expand_in_basis(y, 0, linalg.eigh(np.diag([1.0, -1.0])))
        assert expansion.ok()
        assert not expansion.ok(tolerances(expansion_reconstruction=-1.0))
        assert not expansion.ok(tolerances(expansion_weight=-1.0))

    def test_degenerate_basis_rejected(self):
        degenerate = linalg.eigh(np.eye(2, dtype=complex))
        x = linalg.eigh(np.array([[0, 1], [1, 0]], dtype=complex))
        with pytest.raises(DegenerateBasisError, match="; the basis spectrum is degenerate$"):
            expand_in_basis(x, 0, degenerate)
        with pytest.raises(DegenerateBasisError, match="; the target spectrum is degenerate$"):
            expand_in_basis(degenerate, 0, x)
        with pytest.raises(DegenerateBasisError, match="; the basis and target spectra are degenerate$"):
            expand_in_basis(degenerate, 0, degenerate)

    def test_index_range(self):
        x = linalg.eigh(np.array([[0, 1], [1, 0]], dtype=complex))
        z = linalg.eigh(np.diag([1.0, -1.0]))
        with pytest.raises(ValueError, match="out of range"):
            expand_in_basis(x, 2, z)

    def test_dimension_mismatch(self):
        a = linalg.eigh(np.diag([1.0, -1.0]))
        b = linalg.eigh(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(ValueError, match="dimension mismatch"):
            expand_in_basis(a, 0, b)


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
    """qubit, cyclic shifts, or a sum of permutation, trivial and sign
    representations of a random subgroup of S_n (n <= 5), times random
    per-element phases; with the sizes of its diagonal blocks."""
    kind = draw(st.sampled_from(["qubit", "cyclic", "sum"]))
    if kind == "qubit":
        return qubit_rep(cyclic_group(2)), [2]
    if kind == "cyclic":
        base = cyclic_dft_rep(cyclic_group(draw(st.integers(1, 12))))
        group = base.group
        blocks = [base.stack]
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
        blocks.append([matrix(k) for k in group.elements])
    if not blocks:
        blocks.append([_permutation_matrix(k) for k in group.elements])
    angles = draw(
        st.lists(st.floats(0, 2 * np.pi), min_size=group.order, max_size=group.order)
    )
    angles[0] = 0.0  # the identity is id 0
    stack = [
        np.exp(1j * angle) * _block_diagonal([b[i] for b in blocks])
        for i, angle in enumerate(angles)
    ]
    return UnitaryRep(group, np.array(stack)), [len(b[0]) for b in blocks]


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
        diag = commutant_diagnostic(qubit_rep(cyclic_group(2)))
        assert diag.commutant_dimension == 2
        assert not diag.irreducible

    def test_trivial_group_commutant_is_full(self):
        space = space_of(2)
        group = PermutationGroup.generate(space, ())
        rep = UnitaryRep(group, np.eye(2, dtype=complex)[None])
        diag = commutant_diagnostic(rep)
        assert diag.commutant_dimension == 4
        assert not diag.irreducible

    def test_ray_phases_cancel_where_a_non_representation_would_not(self):
        # diag(1, i) squares to diag(1, -1), which is not a phase times I, so
        # {I, diag(1, i)} is no representation of Z2: its character norm is 3
        # while the twirl finds a 2-dimensional fixed space.
        space = space_of(2)
        group = PermutationGroup.generate(space, (Permutation((1, 0)),))
        broken = UnitaryRep(group, np.array([np.eye(2), np.diag([1, 1j])]))
        assert not broken.diagnostics().ok()
        assert commutant_diagnostic(broken).commutant_dimension == 3
        assert _twirl_count(broken) == 2
        # e^{i/3} diag(1, -1) is a ray representation: both counts agree.
        phased = np.exp(1j / 3) * np.diag([1, -1])
        ray = UnitaryRep(group, np.array([np.eye(2), phased]))
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
        rep = UnitaryRep(group, np.array([np.eye(2), flip]))
        diag = commutant_diagnostic(rep, tolerances(commutant=tol))
        assert diag.character_norm == pytest.approx(3 - np.cos(angle), abs=1e-15)
        assert diag.commutant_dimension == dimension
        assert diag.irreducible is (None if dimension is None else False)

    def test_no_twirl_is_built(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the character norm needs no twirl")

        monkeypatch.setattr(np, "kron", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        diag = commutant_diagnostic(cyclic_dft_rep(cyclic_group(48)))
        assert diag.commutant_dimension == 48

    @given(_ray_representations())
    @settings(max_examples=40, deadline=None)
    def test_character_norm_counts_the_twirl_fixed_space(self, drawn):
        rep, sizes = drawn
        assert rep.diagnostics().ok()
        diag = commutant_diagnostic(rep)
        assert diag.commutant_dimension == _blockwise_twirl_count(rep, sizes)
        assert diag.irreducible == (diag.commutant_dimension == 1)


CONJUGATION_TOL = linalg.DEFAULT_TOLERANCES["conjugation_residual"]


def svd_projector(family, indices):
    """Oracle: the projector onto the states at ``indices`` and its rank, one SVD per stack."""
    stack = np.array([family.states[i] for i in indices]).T
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return u[:, :rank] @ u[:, :rank].conj().T, rank


def projector_sum(assignment, weights, family, base_point=0):
    """Oracle: value-weighted projectors of one assignment, summed in value order."""
    fibers = [[] for _ in weights]  # state indices of each value, ascending
    for i, k in enumerate(family.group.elements):
        fibers[assignment[k.images[base_point]]].append(i)
    operator = np.zeros((family.rep.dim, family.rep.dim), dtype=complex)
    for weight, indices in zip(weights, fibers):
        operator = operator + weight * svd_projector(family, indices)[0]
    return operator


def per_element_residuals(theta, family, base_point=0):
    """Oracle: the law T(t)^dag A^theta T(t) = A^(theta∘t) one element at a
    time, each operator a ``projector_sum``.  It holds for every theta."""
    weights = theta.numeric_values()
    operator = projector_sum(theta.assignment, weights, family, base_point)
    residuals = []
    for t in family.group.elements:
        moved = projector_sum(spaces.compose(theta.assignment, t.images), weights, family, base_point)
        matrix = family.rep(t)
        residuals.append(linalg.max_abs(matrix.conj().T @ operator @ matrix - moved))
    return residuals


def bits(values):
    return [float(v).hex() for v in values]


def assert_law_matches_loop(theta, family, base_point=0):
    """The oracle's law holds for every theta.  ``conjugation_check`` gives its
    residuals bit for bit when theta is permissible, since A^(theta∘t) is then
    theta's projectors relabelled; any other theta has no induced map."""
    loop = per_element_residuals(theta, family, base_point)
    assert max(loop) <= CONJUGATION_TOL
    if not is_permissible(theta, family.group):
        with pytest.raises(NotPermissibleError):
            induced_group(theta, family.group)
        return loop
    _, induced = induced_group(theta, family.group)
    bundle = build_operator(theta, family, base_point)
    oracle = projector_sum(theta.assignment, theta.numeric_values(), family, base_point)
    assert bundle.operator.tobytes() == oracle.tobytes()
    law = conjugation_check(family, induced, bundle)
    assert bits(law) == bits(loop)
    return law


def quarter_values(rng, count):
    return tuple(f"{q / 4:g}" for q in rng.sample(range(-8 * count, 8 * count + 1), count))


def set_partitions(n):
    """Every partition of n points, as canonical assignments."""
    rows = [()]
    for _ in range(n):
        rows = [row + (v,) for row in rows for v in range(max(row, default=-1) + 2)]
    return rows


def random_unitary(dim, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    return q * (np.diagonal(r) / abs(np.diagonal(r)))


def regular_subgroups(n):
    """Every regular subgroup of S_n up to conjugacy, as permutation groups."""
    space = space_of(n, "regular")
    return [
        PermutationGroup.generate(space, tuple(map(Permutation, c.generators)))
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

    # Regular subgroups of S_n up to conjugacy are the groups of order n (OEIS
    # A000001).  Per class, in ``regular_subgroups`` order (V4 before Z4, Z6
    # before S3): how many of the Bell(n) partitions are permissible.  With
    # two representations and n base points that is 5,672 cases, 226 of them
    # with theta permissible.
    PERMISSIBLE_PARTITIONS = {1: [1], 2: [2], 3: [2], 4: [5, 3], 5: [2], 6: [4, 6]}
    BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203}

    @pytest.mark.parametrize(
        "n, index",
        [(n, i) for n, counts in PERMISSIBLE_PARTITIONS.items() for i in range(len(counts))],
    )
    def test_regular_subgroups_as_permutation_matrices(self, n, index):
        """Every regular class of S_n (n <= 6), as permutation matrices and as
        a seeded unitary conjugate of them, with every partition as theta and
        every base point.  The law T(t)^dag A^theta T(t) = A^(theta∘t) holds
        for every theta; the induced form holds exactly for the permissible
        ones, and ``induced_group`` refuses the rest."""
        groups = regular_subgroups(n)
        assert len(groups) == len(self.PERMISSIBLE_PARTITIONS[n])
        group = groups[index]
        matrices = [_permutation_matrix(k).astype(complex) for k in group.elements]
        conjugate = random_unitary(n, seed=10 * n + index)
        families = [
            CoherentFamily(UnitaryRep(group, np.array(matrices)), np.eye(n, dtype=complex)[0]),
            CoherentFamily(
                UnitaryRep(group, np.array([conjugate @ m @ conjugate.conj().T for m in matrices])),
                conjugate[:, 0],
            ),
        ]
        rng = random.Random(n * 100 + index)
        thetas = [
            ConceptualVariable("theta", group.space, quarter_values(rng, max(a) + 1), a)
            for a in set_partitions(n)
        ]
        assert len(thetas) == self.BELL[n]
        permissible = [theta for theta in thetas if is_permissible(theta, group)]
        assert len(permissible) == self.PERMISSIBLE_PARTITIONS[n][index]
        for family in families:
            for base_point in range(n):
                for theta in thetas:
                    assert_law_matches_loop(theta, family, base_point)

    def test_a_non_permissible_theta_builds_nothing(self, monkeypatch):
        """Z3 with explicit matrices that are no representation, so the coherent
        states are not shift-invariant: U(s) e0 = e1, U(s^2) e0 = (e1 + e2)/sqrt 2.
        theta = {e0 | e1, e2} is not permissible, so there is no induced map
        to relabel its answers by.  ``theorem2`` reports the permissibility
        witness, not-applicable, before any operator is built."""
        r = 1 / np.sqrt(2)
        matrices = {
            (0, 1, 2): np.eye(3),
            (1, 2, 0): np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
            (2, 0, 1): np.array([[0, 0, 1], [r, r, 0], [r, -r, 0]]),
        }
        data = {
            "name": "z3",
            "space": {"id": "pts-3", "labels": ["0", "1", "2"]},
            "variables": [{"name": "theta", "values": ["-1", "2"], "assignment": [0, 1, 1]}],
            "group": {"generators": [[1, 2, 0]]},
            "representation": {
                "kind": "explicit",
                "matrices": [{"element": list(k), "matrix": m.tolist()} for k, m in matrices.items()],
            },
            "checks": [{"type": "theorem2", "variable": "theta"}],
        }
        scenario = loads(scenario_text(data))
        theta = scenario.variables["theta"]
        witness = is_permissible(theta, scenario.group).witness
        assert witness is not None
        for name, module in list(sys.modules.items()):
            if name.startswith("finivar") and getattr(module, "build_operator", None) is build_operator:
                monkeypatch.setattr(module, "build_operator", _forbidden_build)
        (record,) = run_scenario(scenario).checks
        assert record.status == STATUS_NOT_APPLICABLE
        assert record.details["witness"] == {"k": witness.k, "phi1": witness.phi1, "phi2": witness.phi2}

    def test_matrices_that_are_no_representation_can_fail(self):
        """On matrices that pass the representation diagnostics the law holds by
        construction, as the sweep above finds; on others it can fail.  Z4 with
        U(s) the shift's permutation matrix after a quarter turn of e2 and e3,
        which fixes e0: the coherent states, and so theta's operator, are those
        of the regular representation, but T(s)^dag A T(s) swaps the weights on
        e2 and e3."""
        elements = [[(j + s) % 4 for j in range(4)] for s in range(4)]
        matrices = [np.eye(4)[:, k] for k in elements]
        turn = np.eye(4)
        turn[2:, 2:] = [[0, -1], [1, 0]]
        matrices[1] = matrices[1] @ turn
        data = {
            "name": "z4",
            "space": {"id": "pts-4", "labels": ["0", "1", "2", "3"]},
            "variables": [{"name": "theta", "values": ["0", "1", "2", "3"], "assignment": [0, 1, 2, 3]}],
            "group": {"generators": [[1, 2, 3, 0]]},
            "representation": {
                "kind": "explicit",
                "matrices": [{"element": k, "matrix": m.tolist()} for k, m in zip(elements, matrices)],
            },
            "checks": [
                {"type": "theorem1-hypotheses", "variable": "theta"},
                {"type": "theorem2", "variable": "theta"},
            ],
        }
        scenario = loads(scenario_text(data))
        theorem1, theorem2 = run_scenario(scenario).checks
        assert theorem1.status == STATUS_FAIL
        assert theorem1.details["representation"]["homomorphism_residual"] == 1.0
        assert theorem2.status == STATUS_FAIL
        assert [e["residual"] for e in theorem2.details["per_element"]] == [0.0, 3.0, 0.0, 0.0]


def _forbidden_build(*args, **kwargs):
    raise AssertionError("no operator may be built for a non-permissible theta")


class TestExpansionLemma:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_expansion_over_a_regular_representation_passes(self, n):
        """The lemma that decides ``eq1-expansion``: ``linalg.eigh`` returns an
        orthonormal eigenbasis, so the amplitudes of a unit eigenvector over it
        rebuild the vector, and their weights sum to 1, up to rounding.  Every
        regular class of S_n, as a seeded unitary conjugate of its permutation
        matrices, with the maximal theta's operator at every base point as the
        basis and a seeded random Hermitian matrix as the target."""
        for index, group in enumerate(regular_subgroups(n)):
            conjugate = random_unitary(n, seed=10 * n + index)
            matrices = [conjugate @ _permutation_matrix(k) @ conjugate.conj().T for k in group.elements]
            family = CoherentFamily(UnitaryRep(group, np.array(matrices)), conjugate[:, 0])
            labels = tuple(str(j) for j in range(n))
            theta = ConceptualVariable("theta", group.space, labels, tuple(range(n)))
            draw = random_unitary(n, seed=100 + 10 * n + index)
            target = linalg.eigh(draw + draw.conj().T)
            assert target.is_nondegenerate()
            for base_point in range(n):
                basis = build_operator(theta, family, base_point).spectral
                for i in range(n):
                    assert expand_in_basis(target, i, basis).ok()


class TestBuiltOperatorsCommute:
    """The lemma behind one-hot ``eq1-expansion`` weights.  ``build_operator``
    groups one family's coherent states by value and requires states of
    different values to be orthogonal within ``orthogonal_grouping``.  Take two
    variables θ and η, at any base points, and their common refinement μ:
    states in different μ-blocks differ in θ or in η, so the μ-blocks span
    mutually orthogonal subspaces, and every projector of θ and of η is a sum
    of projectors onto them.  So A^θ and A^η commute, up to that tolerance."""

    # The stated multiple: max|AB - BA| <= MULTIPLE * orthogonal_grouping * max|A| * max|B|.
    MULTIPLE = 1.0

    @given(st.integers(1, 6), st.sampled_from(["permutation", "basis", "ray"]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_pair_of_built_operators_commutes(self, n, variant, data):
        group = data.draw(st.sampled_from(regular_subgroups(n)))
        seed = data.draw(st.integers(0, 2**16))
        rep = UnitaryRep(group, np.array([_permutation_matrix(k) for k in group.elements]))
        base = np.eye(n, dtype=complex)[0]
        if variant != "permutation":  # a seeded unitary basis, the base state moved with it
            rep, base = conjugated(rep, seed), random_unitary(n, seed)[:, 0]
        if variant == "ray":
            rep = with_phases(rep, seed)
        family = CoherentFamily(rep, base)
        partitions = data.draw(st.lists(st.sampled_from(set_partitions(n)), min_size=2, max_size=4))
        rng = random.Random(seed)
        variables = [
            ConceptualVariable(f"v{i}", group.space, quarter_values(rng, max(a) + 1), a)
            for i, a in enumerate(partitions)
        ]
        operators = [
            build_operator(theta, family, base_point).operator
            for theta in variables
            for base_point in range(n)
        ]
        bound = self.MULTIPLE * linalg.DEFAULT_TOLERANCES["orthogonal_grouping"]
        for a, b in itertools.combinations(operators, 2):
            assert abs(a @ b - b @ a).max() <= bound * abs(a).max() * abs(b).max()


def pair_residuals(rep, pairs):
    """Oracle: the composition law of ``rep`` one pair at a time, as the
    residual of U(a)U(b) against U(ab) times the phase read at its pivot."""
    for a, b in pairs:
        product = rep(a) @ rep(b)
        expected = rep(a * b)
        idx = np.unravel_index(np.argmax(np.abs(expected)), expected.shape)
        phase = product[idx] / expected[idx]
        mag = abs(phase)
        phase = phase / mag if mag > 0 else 1.0
        yield linalg.max_abs(product - phase * expected)


def pair_by_pair(rep, pairs):
    """Oracle: ``UnitaryRep.diagnostics`` one matrix and one of ``pairs`` at a time."""
    unitary = max(
        linalg.max_abs(rep(k).conj().T @ rep(k) - np.eye(rep.dim)) for k in rep.group.elements
    )
    identity = linalg.max_abs(rep(rep.group.elements[0]) - np.eye(rep.dim))
    residuals = list(pair_residuals(rep, pairs))
    return bits([unitary, identity, max(residuals, default=0.0)]), len(residuals)


def generator_pairs(group):
    """The pairs (s, b) of the generating set's rows, as ``Permutation`` products read them."""
    return [(group.elements[s], b) for s, _ in group.generator_rows() for b in group.elements]


def assert_diagnostics_match_pairs(rep, every_pair=True):
    """The diagnostics equal the oracle on the generator rows bit for bit, and
    their residual is at most that of every pair (which ``every_pair`` computes)."""
    diag = rep.diagnostics()
    got = bits([diag.unitary_residual, diag.identity_residual, diag.homomorphism_residual])
    assert (got, diag.pairs_checked) == pair_by_pair(rep, generator_pairs(rep.group))
    if every_pair:
        everything = max(pair_residuals(rep, itertools.product(rep.group.elements, repeat=2)))
        assert diag.homomorphism_residual <= everything
    return diag


def with_phases(rep, seed):
    """The same matrices times a seeded phase per element (identity kept)."""
    rng = np.random.default_rng(seed)
    phased = [m if i == 0 else np.exp(2j * np.pi * rng.random()) * m for i, m in enumerate(rep.stack)]
    return UnitaryRep(rep.group, np.array(phased))  # the identity is id 0


class TestDiagnosticsStack:
    @pytest.mark.parametrize("n", range(1, 41))
    def test_cyclic_dft(self, n):
        assert assert_diagnostics_match_pairs(cyclic_dft_rep(cyclic_group(n))).pairs_checked == n

    def test_qubit(self):
        assert_diagnostics_match_pairs(qubit_rep(cyclic_group(2)))

    def test_broken_z2(self):
        space = space_of(2)
        group = PermutationGroup.generate(space, (Permutation((1, 0)),))
        broken = UnitaryRep(group, np.array([np.eye(2), np.diag([1, 1j])]))
        assert not assert_diagnostics_match_pairs(broken).ok()

    @pytest.mark.parametrize("seed", range(4))
    def test_per_element_phases(self, seed):
        assert assert_diagnostics_match_pairs(with_phases(cyclic_dft_rep(cyclic_group(7 + seed)), seed)).ok()
        assert assert_diagnostics_match_pairs(with_phases(qubit_rep(cyclic_group(2)), seed)).ok()

    @given(_ray_representations())
    @settings(max_examples=30, deadline=None)
    def test_ray_representations(self, drawn):
        assert_diagnostics_match_pairs(drawn[0])

    @pytest.mark.parametrize("seed", [0])
    def test_s6_checks_two_rows_of_720(self, seed):
        """720 elements: the rows of S6's two generators, 720 pairs each."""
        space = space_of(6)
        group = PermutationGroup.generate(
            space, (Permutation((1, 0, 2, 3, 4, 5)), Permutation((1, 2, 3, 4, 5, 0)))
        )
        rep = UnitaryRep(group, np.array([_permutation_matrix(k) for k in group.elements]))
        assert assert_diagnostics_match_pairs(rep, every_pair=False).pairs_checked == 2 * 720
        assert assert_diagnostics_match_pairs(with_phases(rep, seed), every_pair=False).ok()


def conjugated(rep, seed):
    """The same representation in a seeded random unitary basis."""
    u = random_unitary(rep.dim, seed)
    return UnitaryRep(rep.group, np.array([u @ m @ u.conj().T for m in rep.stack]))


def pairwise_overlaps(family):
    """Oracle: ``CoherentFamily.overlaps`` evaluated at every ordered pair."""
    states = list(family.states)
    norms = [np.linalg.norm(a) for a in states]
    overlaps = np.zeros((len(states), len(states)))
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            if i != j:
                overlaps[i, j] = abs(linalg.inner(a, b)) / float(norms[i] * norms[j])
    return overlaps


def pairwise_injectivity(family, distance_tol, overlap_tol):
    """Oracle: the injectivity scan with one ``np.linalg.norm`` per pair."""
    elements, overlaps = family.group.elements, pairwise_overlaps(family)
    states = list(family.states)
    pairs = list(itertools.combinations(range(len(elements)), 2))
    distances = [float(np.linalg.norm(states[i] - states[j])) for i, j in pairs]
    near = [float(overlaps[i, j]) for i, j in pairs]
    hits = [
        (elements[i], elements[j])
        for (i, j), distance, overlap in zip(pairs, distances, near)
        if distance <= distance_tol or overlap >= 1 - overlap_tol
    ]
    return not hits, min(distances, default=None), max([0.0, *near]), hits[0] if hits else None


def assert_injectivity_matches_the_pairs(family):
    for tols in ((1e-9, 1e-9), (0.5, 1e-3), (2.0, 0.5)):
        got = representations._scan_injectivity(family, *tols)
        want = pairwise_injectivity(family, *tols)
        assert (got.ok, bits([got.min_distance or 0]), got.max_overlap, got.witness) == (
            want[0], bits([want[1] or 0]), want[2], want[3]
        )


def summed_relabellings(family, elements, induced, bundle):
    """Oracle: ``conjugation_check`` with a new array for every term and sum."""
    projectors = np.array(list(bundle.projectors.values()))
    preimages = np.argsort([induced(t).images for t in elements], axis=1)
    relabelled = np.zeros((len(elements), *bundle.operator.shape), dtype=complex)
    for v, weight in enumerate(bundle.projectors):
        relabelled = relabelled + weight * projectors[preimages[:, v]]
    t_matrices = np.array([family.rep(t) for t in elements])
    conjugated = t_matrices.conj().swapaxes(1, 2) @ bundle.operator @ t_matrices
    return abs(conjugated - relabelled).max(axis=(1, 2)).tolist()


def assert_relabelling_matches_the_sum(theta, family, base_point=0):
    _, hom = induced_group(theta, family.group)
    bundle = build_operator(theta, family, base_point)
    elements = family.group.elements
    got = conjugation_check(family, hom, bundle)
    assert bits(got) == bits(summed_relabellings(family, elements, hom, bundle))


class TestStackedScansMatchThePairLoops:
    """The stacked scans (group law, overlaps, injectivity, relabelled sums)
    equal their one-pair-at-a-time oracles bit for bit:
    on cyclic shift representations, on seeded unitary conjugates of them
    with random per-element phases (ray representations), and on S6."""

    @pytest.mark.parametrize("n", range(1, 41))
    def test_cyclic_dft(self, n):
        rng = np.random.default_rng(n)
        plain = cyclic_dft_rep(cyclic_group(n))
        ray = with_phases(conjugated(plain, n), n)
        assert_diagnostics_match_pairs(ray)  # ``TestDiagnosticsStack`` takes the plain one
        for rep, base in ((plain, np.eye(n)[0]), (ray, random_unitary(n, n)[:, 0])):
            drawn = CoherentFamily(rep, rng.normal(size=n) + 1j * rng.normal(size=n))
            assert drawn.overlaps().tobytes() == pairwise_overlaps(drawn).tobytes()
            family = CoherentFamily(rep, base)
            assert family.overlaps().tobytes() == pairwise_overlaps(family).tobytes()
            for scanned in (drawn, family, CoherentFamily(rep, np.ones(n))):  # ones: a collision
                assert_injectivity_matches_the_pairs(scanned)
            for modulus in sorted({m for m in (1, 2, 3, 4, n) if n % m == 0}):  # permissible
                values = quarter_values(random.Random(n), modulus)
                theta = ConceptualVariable("theta", rep.group.space, values, tuple(j % modulus for j in range(n)))
                assert_relabelling_matches_the_sum(theta, family, int(rng.integers(n)))

    @pytest.mark.parametrize("seed", range(3))
    def test_regular_subgroups_of_s4_and_s6_in_a_random_basis(self, seed):
        for n in (4, 6):
            for group in regular_subgroups(n):
                matrices = [_permutation_matrix(k).astype(complex) for k in group.elements]
                rep = with_phases(conjugated(UnitaryRep(group, np.array(matrices)), seed), seed)
                assert_diagnostics_match_pairs(rep)
                family = CoherentFamily(rep, random_unitary(n, seed)[:, 0])
                assert family.overlaps().tobytes() == pairwise_overlaps(family).tobytes()
                assert_injectivity_matches_the_pairs(family)
                values = quarter_values(random.Random(seed), n)
                theta = ConceptualVariable("theta", group.space, values, tuple(range(n)))
                assert_relabelling_matches_the_sum(theta, family, seed % n)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_s6_in_a_random_basis(self, seed):
        group = PermutationGroup.generate(
            space_of(6), (Permutation((1, 0, 2, 3, 4, 5)), Permutation((1, 2, 3, 4, 5, 0)))
        )
        rep = UnitaryRep(group, np.array([_permutation_matrix(k) for k in group.elements]))
        rep = with_phases(conjugated(rep, seed), seed)
        assert assert_diagnostics_match_pairs(rep, every_pair=False).pairs_checked == 2 * 720

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_s5_on_five_points_spans_several_blocks(self, seed):
        """S5's 7,140 pairs of 5-dimensional states take several blocks.  The
        scans match the oracles on a random base and on the base every element
        fixes up to a phase, and a witness past the first block is the oracle's."""
        group = PermutationGroup.generate(
            space_of(5), (Permutation((1, 0, 2, 3, 4)), Permutation((1, 2, 3, 4, 0)))
        )
        rep = UnitaryRep(group, np.array([_permutation_matrix(k) for k in group.elements]))
        rep = with_phases(conjugated(rep, seed), seed)
        invariant = random_unitary(5, seed) @ np.ones(5)  # ``conjugated``'s uniform vector
        family = CoherentFamily(rep, random_unitary(5, seed + 10)[:, 0])
        block = len(next(representations._pairs(family))[0])
        assert block < 7140
        for scanned in (family, CoherentFamily(rep, invariant)):
            assert scanned.overlaps().tobytes() == pairwise_overlaps(scanned).tobytes()
            assert_injectivity_matches_the_pairs(scanned)
        assert not check_coherent_injectivity(CoherentFamily(rep, invariant)).ok
        # A distance tolerance that only the closest pair meets, and that pair past the first block.
        pairs = list(itertools.combinations(range(120), 2))
        distances = [float(np.linalg.norm(family.states[i] - family.states[j])) for i, j in pairs]
        closest = distances.index(min(distances))
        assert closest >= block
        got = representations._scan_injectivity(family, distances[closest], 1e-12)
        assert (got.ok, got.min_distance, got.max_overlap, got.witness) == pairwise_injectivity(
            family, distances[closest], 1e-12
        )
        assert got.witness == tuple(group.elements[x] for x in pairs[closest])


class TestElementIds:
    @pytest.mark.parametrize("seed", range(3))
    def test_matrices_listed_in_another_order(self, seed):
        """The loader writes each listed matrix into its element's row, so the
        stack is in id order whatever order the file lists the matrices in."""
        rng = random.Random(seed)
        rep = with_phases(cyclic_dft_rep(cyclic_group(9)), seed)
        listed = rng.sample(range(rep.group.order), rep.group.order)
        entries = [
            {
                "element": list(rep.group.elements[i].images),
                "matrix": [[[z.real, z.imag] for z in row] for row in rep.stack[i].tolist()],
            }
            for i in listed
        ]
        data = {
            "name": "z9",
            "space": {"id": "cycle-9", "labels": [str(j) for j in range(9)]},
            "group": {"generators": [[1, 2, 3, 4, 5, 6, 7, 8, 0]]},
            "representation": {"kind": "explicit", "matrices": entries},
            "checks": [{"type": "a2-falsify"}],
        }
        moved = loads(scenario_text(data)).coherent_family.rep
        assert moved.group.elements == rep.group.elements
        assert moved.stack.tobytes() == rep.stack.tobytes()
        assert assert_diagnostics_match_pairs(moved).ok()

    def test_each_law_composes_only_its_generator_rows(self, monkeypatch):
        """On Z24, generated by one shift, ``verify`` composes the shift's row
        in the source and its image's row in the target, and ``diagnostics``
        the shift's row: 24 products each."""
        rep = cyclic_dft_rep(cyclic_group(24))
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
        assert len(calls) == 3 * 24


def one_wrong_matrix(group, seed):
    """The permutation matrices of ``group``, but at one seeded element outside
    its generating set, which gets another seeded element's matrix."""
    g, h = changed_element(group, seed)
    return UnitaryRep(group, np.array([_permutation_matrix(h if k == g else k) for k in group.elements]))


class TestOneWrongMatrix:
    """One matrix changed at a seeded element outside the generating set
    breaks the law, and the generator rows see it: the lemma at any size."""

    TOL = linalg.DEFAULT_TOLERANCES["rep_homomorphism"]

    @pytest.mark.parametrize("name", GROUPS_UP_TO_S6)
    @pytest.mark.parametrize("seed", range(3))
    def test_up_to_s6_as_every_pair_decides(self, name, seed):
        rep = one_wrong_matrix(GROUPS_UP_TO_S6[name](), seed)
        assert not rep.diagnostics().ok()
        every_pair = itertools.product(rep.group.elements, repeat=2)
        assert any(residual > self.TOL for residual in pair_residuals(rep, every_pair))

    @pytest.mark.parametrize("seed", range(3))
    def test_every_generator_row_is_needed(self, seed):
        """U(x) = P(x) on ⟨s⟩ and P(x)P(c) off it keeps the law on s's row, yet
        is no representation: the rows of S4's other generator find it."""
        group = symmetric_group(4)
        els = group.elements
        c = random.Random(seed).choice(els[1:])
        for s in group.generators:
            cyclic = PermutationGroup.generate(group.space, (s,))
            rep = UnitaryRep(group, np.array([_permutation_matrix(x if x in cyclic else x * c) for x in els]))
            row = [(s, b) for b in els]
            assert max(pair_residuals(rep, row)) == 0.0
            assert not rep.diagnostics().ok()

    @pytest.mark.parametrize("seed", range(3))
    def test_s7_past_720_elements(self, seed):
        s7 = symmetric_group(7)
        assert s7.order == 5040
        exact = UnitaryRep(s7, np.array([_permutation_matrix(k) for k in s7.elements])).diagnostics()
        assert exact.ok() and exact.pairs_checked == 2 * 5040
        assert not one_wrong_matrix(s7, seed).diagnostics().ok()


class TestSecondGeneratorRow:
    """S3 generated by r = (1 2 0) and then f = (1 0 2), with a fault on the odd
    coset: a law on r's row alone still holds, since r is even, so only f's
    row shows the fault, in each group law and through the theorem1 check."""

    R, F = Permutation((1, 2, 0)), Permutation((1, 0, 2))

    def s3(self) -> PermutationGroup:
        group = PermutationGroup.generate(space_of(3), (self.R, self.F))
        assert [s for s, _ in group.generator_rows()] == [group.index(self.R), group.index(self.F)]
        return group

    @staticmethod
    def twisted(group: PermutationGroup, twist: np.ndarray) -> UnitaryRep:
        """P(g) for even g and P(g) X for odd g, X = ``twist``."""
        plain = [_permutation_matrix(k) for k in group.elements]
        matrices = [p @ twist if _sign(k) < 0 else p for k, p in zip(group.elements, plain)]
        return UnitaryRep(group, np.array(matrices, dtype=complex))

    @staticmethod
    def first_row_only(monkeypatch):
        rows = PermutationGroup.generator_rows
        monkeypatch.setattr(PermutationGroup, "generator_rows", lambda group: iter([next(rows(group))]))

    def test_the_diagnostics_need_f_s_row(self, monkeypatch):
        rep = self.twisted(self.s3(), np.diag([1, 1j, -1]))
        diag = rep.diagnostics()
        assert diag.homomorphism_residual == pytest.approx(np.sqrt(2), abs=1e-12)
        assert diag.pairs_checked == 12 and not diag.ok()
        self.first_row_only(monkeypatch)
        assert rep.diagnostics().homomorphism_residual == 0.0

    def test_verify_needs_f_s_row(self, monkeypatch):
        group = self.s3()
        hom = GroupHomomorphism(group, group, [k * self.F if _sign(k) < 0 else k for k in group.elements])
        assert hom.verify() is False
        self.first_row_only(monkeypatch)
        assert hom.verify() is True

    @staticmethod
    def twisted_text(rep: UnitaryRep, gens: list[list[int]], *checks: str) -> str:
        """A scenario of ``rep`` written out as explicit matrices, on the group
        of ``gens``, with the identity-labelled variable ``element`` and a check
        of each type in ``checks`` on it."""
        entries = [
            {"element": list(k.images), "matrix": [[[z.real, z.imag] for z in row] for row in matrix.tolist()]}
            for k, matrix in zip(rep.group.elements, rep.stack)
        ]
        n = rep.group.space.size
        labels = [str(x) for x in range(n)]
        data = {
            "name": "s3-twisted",
            "space": {"id": "s3", "labels": labels},
            "variables": [{"name": "element", "values": labels, "assignment": list(range(n))}],
            "group": {"generators": gens},
            "representation": {"kind": "explicit", "matrices": entries},
            "checks": [{"type": check, "variable": "element"} for check in checks],
        }
        return scenario_text(data)

    def test_theorem1_needs_f_s_row(self, monkeypatch):
        """theorem1 builds operators only on a regular action, so it runs on S3
        acting on itself: six points, where r stays even and f odd."""
        els = self.s3().elements
        gens = [[els.index(s * x) for x in els] for s in (self.R, self.F)]
        regular = PermutationGroup.generate(space_of(6), tuple(map(Permutation, gens)))
        rep = self.twisted(regular, np.diag([1, 1j, -1, 1, 1j, -1]))
        text = self.twisted_text(rep, gens, "theorem1-hypotheses")
        (record,) = run_scenario(loads(text)).checks
        assert record.status == STATUS_FAIL
        assert record.details["representation"]["homomorphism_residual"] > 1
        self.first_row_only(monkeypatch)
        (record,) = run_scenario(loads(text)).checks
        assert record.status == STATUS_PASS

    def test_a_broken_law_fails_where_the_operator_cannot_be_built(self):
        """S3 on its three points is not regular, so no operator is built; the
        broken law is still theorem1's fail, and theorem2's refusal keeps its
        variable."""
        rep = self.twisted(self.s3(), np.diag([1, 1j, -1]))
        gens = [list(self.R.images), list(self.F.images)]
        text = self.twisted_text(rep, gens, "theorem1-hypotheses", "theorem2")
        theorem1, theorem2 = run_scenario(loads(text)).checks
        assert theorem1.status == STATUS_FAIL
        assert theorem1.details["representation"]["homomorphism_residual"] == pytest.approx(np.sqrt(2))
        assert "requires a regular action" in theorem1.details["error"]
        assert theorem2.status == STATUS_ERROR
        assert list(theorem2.details) == ["variable", "error"]
        assert theorem2.details["variable"] == "element"
        assert theorem2.details["error"].startswith("ValueError: coherent labeling requires a regular action")

class TestBatchedProjectorsMatchTheSvdLoop:
    """``CoherentFamily.projectors`` decomposes the stacks of one size in one
    batched SVD; each projector and rank equals one SVD per stack, bit for bit."""

    @staticmethod
    def assert_projectors_match(family, groups):
        got = family.projectors(groups)
        want = [svd_projector(family, indices) for indices in groups]
        assert [(p.tobytes(), rank) for p, rank in got] == [(p.tobytes(), rank) for p, rank in want]
        assert all(not p.flags.writeable for p, _ in got)
        assert [p for p, _ in family.projectors(groups)] == [p for p, _ in got]  # kept, not rebuilt

    @pytest.mark.parametrize("n", range(1, 41))
    def test_single_states_and_quarter_classes(self, n):
        rng = np.random.default_rng(n)
        plain = cyclic_dft_rep(cyclic_group(n))
        ray = with_phases(conjugated(plain, n), n)
        singles = [(i,) for i in range(n)]
        quarters = [tuple(range(r, n, 4)) for r in range(4)] if n % 4 == 0 else []
        for rep in (plain, ray):
            for base in (np.eye(n)[0], rng.normal(size=n) + 1j * rng.normal(size=n)):
                self.assert_projectors_match(CoherentFamily(rep, base), singles + quarters)
                family = CoherentFamily(rep, base)
                self.assert_projectors_match(family, quarters)
                self.assert_projectors_match(family, singles)

    @pytest.mark.parametrize("n", [4, 6, 12])
    def test_mixed_sizes_and_rank_deficient_stacks(self, n):
        # The uniform state is fixed by every shift, so every stack has rank 1.
        family = CoherentFamily(cyclic_dft_rep(cyclic_group(n)), np.ones(n))
        rng = random.Random(n)
        groups = [tuple(sorted(rng.sample(range(n), rng.randint(1, n)))) for _ in range(3 * n)]
        self.assert_projectors_match(family, groups)
        assert {rank for _, rank in family.projectors(groups)} == {1}

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_two_ranks_in_one_batch(self, n):
        """A ray family whose base the half turn fixes up to a phase: the pairs
        {k, k + n/2} span rank 1 and {k, k + 1} rank 2, in one batch of size 2,
        and each projector is bit for bit its own 2-D product."""
        rep = with_phases(conjugated(cyclic_dft_rep(cyclic_group(n)), n), n)
        family = CoherentFamily(rep, random_unitary(n, n) @ (np.eye(n)[0] + np.eye(n)[n // 2]))
        groups = [(k, k + 1) for k in range(n - 1)] + [(k, k + n // 2) for k in range(n // 2)]
        self.assert_projectors_match(family, groups)
        assert [rank for _, rank in family.projectors(groups)] == [2] * (n - 1) + [1] * (n // 2)
