"""Complex linear algebra with deterministic spectral conventions.

Thin layer over numpy: eigenvalues come back ascending, every eigenvector's
first nonzero entry is made real positive, and eigenvalues closer than a gap
threshold are reported as one cluster, its mean value and column indices.
numpy is imported inside the functions that use it, so a run without operator
checks never loads it.
"""

from __future__ import annotations

from ._record import Frozen

__all__ = [
    "NotHermitianError",
    "EigenCluster",
    "SpectralData",
    "eigh",
    "inner",
    "max_abs",
    "DEFAULT_TOLERANCES",
]

# Every default tolerance, named as in a scenario's table.  Each function that
# applies a tolerance takes a whole table as ``tolerances``, by default this one.
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


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """Inner product, conjugate-linear in the first argument."""
    import numpy as np
    return complex(np.vdot(u, v))


class EigenCluster(Frozen, eq=False):
    """Eigenvalues closer than the gap threshold: their mean and column indices.
    Its projector is ``vectors[:, indices] @ vectors[:, indices].conj().T``."""

    value: float
    indices: tuple[int, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.indices)


class SpectralData(Frozen, eq=False):
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


def eigh(a: np.ndarray, tolerances: dict[str, float] = DEFAULT_TOLERANCES) -> SpectralData:
    """Diagonalize a Hermitian matrix deterministically.

    Raises :class:`NotHermitianError` when the input fails the ``hermitian``
    check of ``tolerances``.  Eigenvalues ascend; each column is multiplied by
    conj(p/|p|), p its first entry above ``_PHASE_ENTRY_TOL``, all columns at
    once, but p/|p| is a numpy scalar operation per column (the array loops'
    abs and division can differ in the last bit).  Consecutive eigenvalues
    closer than ``eigen_cluster_gap`` share a cluster.  The vectors are
    column-major: ``expand_in_basis`` takes inner products of the columns, and
    strided columns give other bits.
    """
    import numpy as np
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
        raise ValueError(f"expected a nonempty square matrix, got shape {a.shape}")
    hermitian_tol, cluster_gap = tolerances["hermitian"], tolerances["eigen_cluster_gap"]
    residual = max_abs(a - a.conj().T)
    if residual > hermitian_tol:
        raise NotHermitianError(
            f"matrix is not Hermitian: max |A - A^dag| = {residual:.3e} > {hermitian_tol:.1e}"
        )
    values, vectors = np.linalg.eigh(a)
    # A unit column has an entry of at least 1/sqrt(d), so every column has a pivot.
    pivots = vectors[(abs(vectors) > _PHASE_ENTRY_TOL).argmax(axis=0), range(len(values))]
    vectors = np.multiply(vectors, [np.conj(p / abs(p)) for p in pivots], order="F")
    cuts = [0, *(np.flatnonzero(np.diff(values) >= cluster_gap) + 1).tolist(), len(values)]
    clusters = tuple(
        EigenCluster(
            float(values[start] if stop - start == 1 else np.mean(values[start:stop])),
            tuple(range(start, stop)),
        )
        for start, stop in zip(cuts, cuts[1:])
        if start < stop
    )
    return SpectralData(eigenvalues=values, vectors=vectors, clusters=clusters)
