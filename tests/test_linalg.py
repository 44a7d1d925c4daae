"""Spectral conventions: ordering, phase fixing, clustering, reconstruction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finivar import linalg


def random_hermitian(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


class TestBasics:
    def test_max_abs(self):
        assert linalg.max_abs(np.array([[1, -3j], [2, 0]])) == 3.0
        assert linalg.max_abs(np.array([])) == 0.0

    def test_is_hermitian(self):
        assert linalg.is_hermitian(np.array([[1, 1j], [-1j, 2]]))
        assert not linalg.is_hermitian(np.array([[1, 1j], [1j, 2]]))

    def test_inner_conjugate_linear_first(self):
        u = np.array([1j, 0])
        v = np.array([1, 0])
        assert linalg.inner(u, v) == pytest.approx(-1j)
        assert linalg.inner(v, u) == pytest.approx(1j)

    def test_tensor_shape(self):
        a = np.eye(2)
        b = np.ones((3, 3))
        assert linalg.tensor(a, b).shape == (6, 6)

    def test_fix_phase_pivot_positive(self):
        v = np.array([-1 / np.sqrt(2), 1 / np.sqrt(2)])
        fixed = linalg.fix_phase(v)
        assert fixed[0] == pytest.approx(1 / np.sqrt(2))
        assert fixed[1] == pytest.approx(-1 / np.sqrt(2))

    def test_fix_phase_skips_tiny_leading_entries(self):
        v = np.array([1e-12, -1.0])
        fixed = linalg.fix_phase(v)
        assert fixed[1] == pytest.approx(1.0)


class TestEigh:
    def test_rejects_non_hermitian(self):
        with pytest.raises(linalg.NotHermitianError, match="not Hermitian"):
            linalg.eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.eigh(np.zeros((2, 3)))

    def test_diagonal_matrix_golden(self):
        data = linalg.eigh(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(data.eigenvalues, [-1.0, 2.0, 3.0])
        assert data.is_nondegenerate()
        assert np.allclose(data.vector(0), [0, 1, 0])
        assert np.allclose(data.vector(2), [1, 0, 0])

    def test_pauli_x_golden(self):
        data = linalg.eigh(np.array([[0, 1], [1, 0]], dtype=complex))
        assert np.allclose(data.eigenvalues, [-1.0, 1.0])
        s = 1 / np.sqrt(2)
        # phase convention: first sizable entry real positive
        assert np.allclose(data.vector(0), [s, -s])
        assert np.allclose(data.vector(1), [s, s])

    def test_degenerate_cluster_reports_projector(self):
        data = linalg.eigh(np.diag([1.0, 1.0, 2.0]))
        assert len(data.clusters) == 2
        first = data.clusters[0]
        assert first.value == pytest.approx(1.0)
        assert first.multiplicity == 2
        assert np.allclose(first.projector, np.diag([1.0, 1.0, 0.0]))
        assert not data.is_nondegenerate()

    def test_cluster_projector_is_basis_independent(self):
        # two orthonormal bases of the same degenerate eigenspace give one projector
        a = np.diag([2.0, 2.0, 5.0])
        u = np.array(
            [
                [1 / np.sqrt(2), 1 / np.sqrt(2), 0],
                [1 / np.sqrt(2), -1 / np.sqrt(2), 0],
                [0, 0, 1],
            ]
        )
        rotated = u @ a @ u.conj().T  # same operator, different internal basis
        p1 = linalg.eigh(a).clusters[0].projector
        p2 = linalg.eigh(rotated).clusters[0].projector
        assert np.allclose(p1, p2)

    @given(st.integers(2, 6), st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_and_order(self, n, seed):
        a = random_hermitian(n, seed)
        data = linalg.eigh(a)
        assert linalg.max_abs(data.vectors @ np.diag(data.eigenvalues) @ data.vectors.conj().T - a) < 1e-10
        assert all(
            data.eigenvalues[i] <= data.eigenvalues[i + 1] for i in range(n - 1)
        )
        # vectors are orthonormal
        gram = data.vectors.conj().T @ data.vectors
        assert linalg.max_abs(gram - np.eye(n)) < 1e-10

    @given(st.integers(2, 5), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_projectors_resolve_identity(self, n, seed):
        data = linalg.eigh(random_hermitian(n, seed))
        total = sum(c.projector for c in data.clusters)
        assert linalg.max_abs(np.asarray(total) - np.eye(n)) < 1e-10

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_phase_convention_is_deterministic(self, seed):
        a = random_hermitian(4, seed)
        d1 = linalg.eigh(a)
        d2 = linalg.eigh(a.copy())
        assert np.array_equal(d1.vectors, d2.vectors)
        if d1.is_nondegenerate():
            for i in range(4):
                v = d1.vector(i)
                pivot = v[np.flatnonzero(np.abs(v) > 1e-8)[0]]
                assert pivot.imag == pytest.approx(0.0, abs=1e-12)
                assert pivot.real > 0
