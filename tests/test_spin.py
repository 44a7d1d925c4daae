"""Pair-state checks: the matched-component sum and perfect anticorrelation."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finivar import linalg, spin

from conftest import multiplicities

# Independently frozen expectations (diagonal sums and eigensolver oracle,
# computed before the engine existed):
#   eigenvalues of XX + YY + ZZ: [-3, 1, 1, 1]
#   trace: 0
#   (XX + YY + ZZ) @ singlet = -3 * singlet
DELTA_EIGENVALUES = (-3.0, 1.0, 1.0, 1.0)
PAULIS = ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])


def unit_directions():
    return st.tuples(
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    ).filter(lambda v: np.linalg.norm(v) > 1e-3)


class TestSpinDirection:
    def test_axes_are_unit(self):
        for axis in spin.AXES:
            assert np.hypot(np.hypot(axis.x, axis.y), axis.z) == pytest.approx(1.0)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            spin.SpinDirection(1.0, 1.0, 0.0)

    def test_from_vector_normalizes(self):
        d = spin.SpinDirection.from_vector((3.0, 0.0, 4.0))
        assert (d.x, d.y, d.z) == pytest.approx((0.6, 0.0, 0.8))

    def test_from_vector_rejects_zero(self):
        with pytest.raises(ValueError):
            spin.SpinDirection.from_vector((0.0, 0.0, 0.0))

    @pytest.mark.parametrize(
        "components", [(float("nan"), 0.0, 0.0), (0.0, float("nan"), 1.0), (float("inf"), 0.0, 0.0)]
    )
    def test_rejects_non_finite_components(self, components):
        # abs(nan - 1.0) > tol is False: the test must not let a NaN norm pass as a unit.
        with pytest.raises(ValueError, match="must be a unit vector"):
            spin.SpinDirection(*components)

    @pytest.mark.parametrize(
        "vec", [(float("nan"), 1.0, 0.0), (float("inf"), 0.0, 0.0), (1.0, -float("inf"), float("nan"))]
    )
    def test_from_vector_rejects_non_finite_vectors(self, vec):
        with pytest.raises(ValueError, match="a direction needs finite components"):
            spin.SpinDirection.from_vector(vec)

    @pytest.mark.parametrize(
        "vec, unit",
        [
            ((1.0e-13, 0.0, 0.0), (1.0, 0.0, 0.0)),
            ((1.0e200, 1.0e200, 0.0), (2**-0.5, 2**-0.5, 0.0)),
            ((5e-324, 0.0, -5e-324), (2**-0.5, 0.0, -(2**-0.5))),
            ((1.7e308, 1.7e308, 1.7e308), (3**-0.5, 3**-0.5, 3**-0.5)),
        ],
    )
    def test_from_vector_normalizes_any_nonzero_finite_vector(self, vec, unit):
        # A power-of-two scaling first keeps the norm from under- or overflowing.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = spin.SpinDirection.from_vector(vec)
        assert (d.x, d.y, d.z) == pytest.approx(unit, abs=1e-15)

    @given(st.tuples(*[st.floats(-1e100, 1e100, allow_nan=False)] * 3))
    @settings(max_examples=200, deadline=None)
    def test_the_scaling_keeps_every_bit(self, raw):
        # Every vector the unscaled division normalised gives the same bits.
        arr = np.array(raw)
        norm = float(np.linalg.norm(arr))
        assume(norm >= 1e-12 and all(v == 0 or abs(v) >= 1e-150 for v in raw))
        d = spin.SpinDirection.from_vector(raw)
        assert [d.x, d.y, d.z] == (arr / norm).tolist()

    @given(unit_directions())
    @settings(max_examples=50, deadline=None)
    def test_component_eigenvalues_are_plus_minus_one(self, raw):
        direction = spin.SpinDirection.from_vector(raw)
        operator = spin.spin_component_operator(direction)
        data = linalg.eigh(operator)
        assert data.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-10)

    def test_pauli_matrices_are_the_axis_components(self):
        for axis, sigma in zip(spin.AXES, PAULIS):
            assert np.array_equal(spin.spin_component_operator(axis), sigma)


class TestSinglet:
    def test_state_golden(self):
        s = spin.singlet()
        assert np.allclose(s, np.array([0, 1, -1, 0]) / np.sqrt(2))
        assert np.linalg.norm(s) == pytest.approx(1.0)

    def test_antisymmetric_under_swap(self):
        s = spin.singlet().reshape(2, 2)
        assert np.allclose(s.T, -s)


class TestDeltaOperator:
    def test_spectrum_matches_frozen_oracle(self):
        spectral = linalg.eigh(spin.delta_operator())
        assert spectral.eigenvalues == pytest.approx(DELTA_EIGENVALUES, abs=1e-10)
        clusters = multiplicities(spectral)
        assert len(clusters) == 2
        (low, low_mult), (high, high_mult) = clusters
        assert (low, low_mult) == (pytest.approx(-3.0, abs=1e-10), 1)
        assert (high, high_mult) == (pytest.approx(1.0, abs=1e-10), 3)

    def test_trace_identity(self):
        # trace = -3 + 3t = 0 forces the degenerate eigenvalue t = +1
        assert np.trace(spin.delta_operator()).real == pytest.approx(0.0, abs=1e-12)

    def test_singlet_is_lowest_eigenvector(self):
        s = spin.singlet()
        assert linalg.max_abs(spin.delta_operator() @ s + 3.0 * s) < 1e-12

    def test_hermitian(self):
        operator = spin.delta_operator()
        assert linalg.max_abs(operator - operator.conj().T) <= linalg.DEFAULT_TOLERANCES["hermitian"]


class TestAnticorrelation:
    def test_axes_residuals_zero(self):
        for axis in spin.AXES:
            assert spin.anticorrelation_residual(axis) < 1e-12

    @given(unit_directions())
    @settings(max_examples=100, deadline=None)
    def test_any_direction_residual_zero(self, raw):
        direction = spin.SpinDirection.from_vector(raw)
        assert spin.anticorrelation_residual(direction) < 1e-10

    @given(st.lists(unit_directions(), max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_stacked_residuals_are_the_per_direction_kron_bits(self, raws):
        # The reference builds each direction's (a·σ ⊗ I + I ⊗ a·σ) on its own,
        # from this file's Pauli matrices and singlet.
        directions = [spin.SpinDirection.from_vector(raw) for raw in raws] + list(spin.AXES)
        paulis = [np.array(m, dtype=complex) for m in PAULIS]
        eye, state = np.eye(2, dtype=complex), np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        reference = []
        for d in directions:
            component = d.x * paulis[0] + d.y * paulis[1] + d.z * paulis[2]
            reference.append(abs((np.kron(component, eye) + np.kron(eye, component)) @ state).max())
        stacked = spin.anticorrelation_residuals(directions)
        assert stacked.dtype == np.float64
        assert stacked.tobytes() == np.array(reference).tobytes()
        single = [spin.anticorrelation_residual(d) for d in directions]
        assert np.array(single).tobytes() == stacked.tobytes()

    def test_no_direction_gives_no_residual(self):
        assert spin.anticorrelation_residuals(()).shape == (0,)

    def test_a_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="seed must be 0 or more, got -7"):
            spin.random_directions(3, -7)

    def test_seeded_directions_reproducible(self):
        a = spin.random_directions(10, seed=42)
        b = spin.random_directions(10, seed=42)
        assert a == b
        c = spin.random_directions(10, seed=43)
        assert a != c

    @pytest.mark.parametrize("seed", [0, 7, 2**70])
    @pytest.mark.parametrize("count", [0, 1, 2, 103])
    def test_random_directions_are_unit_and_exact_in_count(self, count, seed):
        directions = spin.random_directions(count, seed)
        assert len(directions) == count
        assert directions == spin.random_directions(count, seed)
        for d in directions:
            assert isinstance(d.x, float)
            assert np.hypot(np.hypot(d.x, d.y), d.z) == pytest.approx(1.0, abs=1e-15)
        assert directions == spin.random_directions(count + 5, seed)[:count]
