"""Pair-state checks: the matched-component sum and perfect anticorrelation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finivar import linalg, spin

# Independently frozen expectations (diagonal sums and eigensolver oracle,
# computed before the engine existed):
#   eigenvalues of XX + YY + ZZ: [-3, 1, 1, 1]
#   trace: 0
#   (XX + YY + ZZ) @ singlet = -3 * singlet
DELTA_EIGENVALUES = (-3.0, 1.0, 1.0, 1.0)


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

    @given(unit_directions())
    @settings(max_examples=50, deadline=None)
    def test_component_eigenvalues_are_plus_minus_one(self, raw):
        direction = spin.SpinDirection.from_vector(raw)
        operator = spin.spin_component_operator(direction)
        data = linalg.eigh(operator)
        assert data.eigenvalues == pytest.approx([-1.0, 1.0], abs=1e-10)

    def test_pauli_matrices_are_the_axis_components(self):
        assert np.array_equal(spin.SIGMA_Y, [[0, -1j], [1j, 0]])
        for axis, sigma in zip(spin.AXES, (spin.SIGMA_X, spin.SIGMA_Y, spin.SIGMA_Z)):
            assert np.array_equal(spin.spin_component_operator(axis), sigma)
        with pytest.raises(AttributeError):
            spin.SIGMA_W


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
        bundle = spin.delta_operator()
        assert bundle.spectral.eigenvalues == pytest.approx(DELTA_EIGENVALUES, abs=1e-10)
        clusters = bundle.eigenvalue_multiplicities()
        assert len(clusters) == 2
        (low, low_mult), (high, high_mult) = clusters
        assert (low, low_mult) == (pytest.approx(-3.0, abs=1e-10), 1)
        assert (high, high_mult) == (pytest.approx(1.0, abs=1e-10), 3)

    def test_trace_identity(self):
        # trace = -3 + 3t = 0 forces the degenerate eigenvalue t = +1
        bundle = spin.delta_operator()
        assert np.trace(bundle.operator).real == pytest.approx(0.0, abs=1e-12)

    def test_singlet_is_lowest_eigenvector(self):
        bundle = spin.delta_operator()
        s = spin.singlet()
        assert linalg.max_abs(bundle.operator @ s + 3.0 * s) < 1e-12

    def test_hermitian(self):
        assert linalg.is_hermitian(spin.delta_operator().operator)


class TestAnticorrelation:
    def test_axes_residuals_zero(self):
        for axis in spin.AXES:
            assert spin.anticorrelation_residual(axis) < 1e-12

    @given(unit_directions())
    @settings(max_examples=100, deadline=None)
    def test_any_direction_residual_zero(self, raw):
        direction = spin.SpinDirection.from_vector(raw)
        assert spin.anticorrelation_residual(direction) < 1e-10

    def test_seeded_directions_reproducible(self):
        a = spin.random_directions(10, seed=42)
        b = spin.random_directions(10, seed=42)
        assert a == b
        c = spin.random_directions(10, seed=43)
        assert a != c

    def test_random_directions_are_unit(self):
        for d in spin.random_directions(50, seed=0):
            assert np.hypot(np.hypot(d.x, d.y), d.z) == pytest.approx(1.0)
