"""Spectral conventions: ordering, phase fixing, clustering, reconstruction."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finivar import linalg, spin


def fix_phase(vector: np.ndarray, entry_tol: float = linalg._PHASE_ENTRY_TOL) -> np.ndarray:
    """Oracle: rotate one vector so its first entry above ``entry_tol`` is real positive."""
    idx = np.flatnonzero(np.abs(vector) > entry_tol)
    if idx.size == 0:
        return vector
    pivot = vector[idx[0]]
    return vector * np.conj(pivot / abs(pivot))


def eigh_column_by_column(a: np.ndarray, cluster_gap: float = linalg.DEFAULT_TOLERANCES["eigen_cluster_gap"]):
    """Oracle: ``linalg.eigh``'s vectors phase-fixed one column at a time, and
    each cluster's (value, indices) cut where consecutive eigenvalues are at
    least ``cluster_gap`` apart, its value their mean."""
    values, vectors = np.linalg.eigh(np.asarray(a, dtype=complex))
    vectors = np.array([fix_phase(vectors[:, i]) for i in range(len(values))], dtype=complex).T
    clusters, start = [], 0
    for stop in range(1, len(values) + 1):
        if stop == len(values) or values[stop] - values[stop - 1] >= cluster_gap:
            clusters.append((float(np.mean(values[start:stop])), tuple(range(start, stop))))
            start = stop
    return vectors, clusters


def assert_eigh_matches_the_columns(a: np.ndarray) -> linalg.SpectralData:
    data = linalg.eigh(a)
    vectors, clusters = eigh_column_by_column(a)
    assert data.vectors.flags.f_contiguous
    assert data.vectors.tobytes("F") == vectors.tobytes("F")
    assert [(c.value, c.indices) for c in data.clusters] == clusters
    return data


def random_unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / abs(np.diagonal(r)))


def random_hermitian(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


class TestBasics:
    def test_max_abs(self):
        assert linalg.max_abs(np.array([[1, -3j], [2, 0]])) == 3.0
        assert linalg.max_abs(np.array([])) == 0.0

    def test_is_hermitian(self):
        # ``eigh`` decides Hermiticity itself, against the ``hermitian`` tolerance.
        assert linalg.eigh(np.array([[1, 1j], [-1j, 2]])).dim == 2
        with pytest.raises(linalg.NotHermitianError):
            linalg.eigh(np.array([[1, 1j], [1j, 2]]))

    def test_inner_conjugate_linear_first(self):
        u = np.array([1j, 0])
        v = np.array([1, 0])
        assert linalg.inner(u, v) == pytest.approx(-1j)
        assert linalg.inner(v, u) == pytest.approx(1j)

    def test_tensor_shape(self):
        # Pair-space operators are Kronecker products of the 2 x 2 spin components.
        sigmas = [spin.spin_component_operator(axis) for axis in spin.AXES]
        operator = spin.delta_operator()
        assert operator.shape == (4, 4)
        assert np.array_equal(operator, sum(np.kron(s, s) for s in sigmas))

    def test_fix_phase_pivot_positive(self):
        v = np.array([-1 / np.sqrt(2), 1 / np.sqrt(2)])
        fixed = fix_phase(v)
        assert fixed[0] == pytest.approx(1 / np.sqrt(2))
        assert fixed[1] == pytest.approx(-1 / np.sqrt(2))

    def test_fix_phase_skips_tiny_leading_entries(self):
        v = np.array([1e-12, -1.0])
        fixed = fix_phase(v)
        assert fixed[1] == pytest.approx(1.0)


class TestEigh:
    def test_rejects_non_hermitian(self):
        with pytest.raises(linalg.NotHermitianError, match="not Hermitian"):
            linalg.eigh(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            linalg.eigh(np.zeros((2, 3)))

    def test_rejects_an_empty_matrix(self):
        # An empty matrix has no eigenvector whose phase could be fixed.
        with pytest.raises(ValueError, match=r"nonempty square matrix, got shape \(0, 0\)"):
            linalg.eigh(np.zeros((0, 0)))

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

    def test_degenerate_cluster_reports_its_indices(self):
        data = linalg.eigh(np.diag([1.0, 1.0, 2.0]))
        assert len(data.clusters) == 2
        first = data.clusters[0]
        assert first.value == pytest.approx(1.0)
        assert first.multiplicity == 2
        assert first.indices == (0, 1)
        assert not data.is_nondegenerate()

    @pytest.mark.parametrize("d", [64, 120])
    def test_memory_is_quadratic_in_the_dimension(self, d):
        # The spectrum keeps d values and a d x d matrix; nothing of size d^3 is built.
        a = random_hermitian(d, d)
        linalg.eigh(a)  # numpy's lazy imports are not counted
        tracemalloc.start()
        try:
            linalg.eigh(a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * d * d * 16

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
    def test_cluster_indices_partition_the_columns_in_order(self, n, seed):
        data = linalg.eigh(random_hermitian(n, seed))
        assert [i for c in data.clusters for i in c.indices] == list(range(n))

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


class TestStackedPhasesMatchTheColumnLoop:
    """``eigh`` finds the pivots and fixes the phases of all columns at once;
    it equals the per-column ``fix_phase`` loop bit for bit, and its clusters
    are the oracle's cuts."""

    @pytest.mark.parametrize("n", range(1, 25))
    def test_random_hermitian(self, n):
        for seed in range(8):
            assert assert_eigh_matches_the_columns(random_hermitian(n, 100 * n + seed)).dim == n

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 24])
    def test_degenerate_clusters(self, n):
        rng = np.random.default_rng(n)
        for seed in range(6):
            u = random_unitary(n, seed)
            values = rng.integers(-2, 3, size=n).astype(float)
            data = assert_eigh_matches_the_columns(u @ np.diag(values) @ u.conj().T)
            assert sorted(c.multiplicity for c in data.clusters) == sorted(
                np.unique(values, return_counts=True)[1].tolist()
            )

    @pytest.mark.parametrize("n", [2, 4, 7, 12])
    def test_leading_entries_below_the_phase_cut(self, n):
        # A block matrix coupled by 1e-11: every eigenvector but one has a first
        # entry that is nonzero but below ``_PHASE_ENTRY_TOL``, so its pivot sits
        # further down.
        for seed in range(6):
            a = np.zeros((n, n), dtype=complex)
            a[0, 0] = 100.0
            a[1:, 1:] = random_hermitian(n - 1, seed)
            a[0, 1:] = a[1:, 0] = 1e-11
            data = assert_eigh_matches_the_columns(a)
            small = np.abs(data.vectors[0]) <= linalg._PHASE_ENTRY_TOL
            assert small.sum() == n - 1 and (np.abs(data.vectors[0][small]) > 0).all()

    def test_diagonal_and_pauli(self):
        paulis = [np.array(m, dtype=complex) for m in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]])]
        for a in (np.diag([3.0, -1.0, 2.0]), np.diag([1.0, 1.0, 2.0]), *paulis):
            assert_eigh_matches_the_columns(a)
