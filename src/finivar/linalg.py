"""Complex linear algebra with deterministic spectral conventions.

Thin layer over numpy: eigenvalues come back ascending, every eigenvector's
first nonzero entry is made real positive, and eigenvalues closer than a gap
threshold are reported as a cluster with its projector rather than as
individual vectors.  numpy is imported inside the functions that use it, so a
run without operator checks never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "NotHermitianError",
    "EigenCluster",
    "SpectralData",
    "eigh",
    "is_hermitian",
    "tensor",
    "inner",
    "max_abs",
    "DEFAULT_TOLERANCES",
]

# Every default tolerance, named as in a scenario's table; keyword defaults read it.
DEFAULT_TOLERANCES: dict[str, float] = {
    "hermitian": 1e-10,
    "unitary": 1e-10,
    "rep_homomorphism": 1e-8,
    "spectral_reconstruction": 1e-8,
    "eigen_cluster_gap": 1e-8,
    "injectivity_distance": 1e-6,
    "injectivity_overlap": 1e-8,
    "orthogonal_grouping": 1e-8,
    "conjugation_residual": 1e-8,
    "expansion_reconstruction": 1e-10,
    "expansion_weight": 1e-10,
    "singlet_eigen": 1e-10,
    "anticorrelation": 1e-10,
    "commutant": 1e-8,
}
_PHASE_ENTRY_TOL = 1e-8


class NotHermitianError(ValueError):
    """The input matrix is not Hermitian within tolerance."""


def max_abs(a: np.ndarray) -> float:
    return float(abs(a).max()) if a.size else 0.0


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOLERANCES["hermitian"]) -> bool:
    return max_abs(a - a.conj().T) <= tol


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    import numpy as np
    return np.kron(a, b)


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    import numpy as np
    return complex(np.vdot(u, v))


def fix_phase(vector: np.ndarray, entry_tol: float = _PHASE_ENTRY_TOL) -> np.ndarray:
    """Rotate a vector so its first entry above ``entry_tol`` is real positive."""
    import numpy as np
    idx = np.flatnonzero(np.abs(vector) > entry_tol)
    if idx.size == 0:
        return vector
    pivot = vector[idx[0]]
    return vector * np.conj(pivot / abs(pivot))


@dataclass(frozen=True, eq=False)
class EigenCluster:
    """A group of eigenvalues closer than the gap threshold, with its projector."""

    value: float
    indices: tuple[int, ...]
    projector: np.ndarray

    @property
    def multiplicity(self) -> int:
        return len(self.indices)


@dataclass(frozen=True, eq=False)
class SpectralData:
    """Eigendecomposition under the fixed ordering and phase conventions."""

    eigenvalues: np.ndarray
    vectors: np.ndarray
    clusters: tuple[EigenCluster, ...]

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def is_nondegenerate(self) -> bool:
        return all(c.multiplicity == 1 for c in self.clusters)

    def vector(self, index: int) -> np.ndarray:
        return self.vectors[:, index]


def eigh(
    a: np.ndarray,
    hermitian_tol: float = DEFAULT_TOLERANCES["hermitian"],
    cluster_gap: float = DEFAULT_TOLERANCES["eigen_cluster_gap"],
) -> SpectralData:
    """Diagonalize a Hermitian matrix deterministically.

    Raises :class:`NotHermitianError` when the input fails the Hermiticity
    check.  Eigenvalues ascend; vectors are phase-fixed; consecutive
    eigenvalues closer than ``cluster_gap`` share a cluster whose projector is
    basis-independent.
    """
    import numpy as np
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    residual = max_abs(a - a.conj().T)
    if residual > hermitian_tol:
        raise NotHermitianError(
            f"matrix is not Hermitian: max |A - A^dag| = {residual:.3e} > {hermitian_tol:.1e}"
        )
    values, vectors = np.linalg.eigh(a)
    vectors = np.array([fix_phase(vectors[:, i]) for i in range(len(values))], dtype=complex).T
    cuts = [0, *(np.flatnonzero(np.diff(values) >= cluster_gap) + 1).tolist(), len(values)]
    clusters = tuple(
        EigenCluster(
            float(values[start] if stop - start == 1 else np.mean(values[start:stop])),
            tuple(range(start, stop)),
            vectors[:, start:stop] @ vectors[:, start:stop].conj().T,
        )
        for start, stop in zip(cuts, cuts[1:])
        if start < stop
    )
    return SpectralData(eigenvalues=values, vectors=vectors, clusters=clusters)
