"""Two-level spin components and the maximally anticorrelated pair state.

Conventions: single-spin basis (|+1>, |-1>); two-spin product basis in
lexicographic order (++, +-, -+, --).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Sequence

from . import linalg
from .representations import OperatorBundle, bundle_from_matrix

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "SpinDirection",
    "spin_component_operator",
    "singlet",
    "delta_operator",
    "anticorrelation_residual",
    "random_directions",
    "AXES",
]

_NORM_TOL = 1e-12
_PAULI = ("SIGMA_X", "SIGMA_Y", "SIGMA_Z")


@cache
def _pauli() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SIGMA_X, SIGMA_Y and SIGMA_Z, built on first use: importing this module loads no numpy."""
    import numpy as np
    rows = ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
    return tuple(np.array(m, dtype=complex) for m in rows)


def __getattr__(name: str) -> np.ndarray:
    if name in _PAULI:
        return _pauli()[_PAULI.index(name)]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SpinDirection:
    """A unit vector selecting a spin component."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        norm = (self.x**2 + self.y**2 + self.z**2) ** 0.5
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"direction must be a unit vector, |a| = {norm!r}")

    @classmethod
    def from_vector(cls, vec: Sequence[float]) -> "SpinDirection":
        import numpy as np
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (3,):
            raise ValueError("a direction needs exactly three components")
        norm = float(np.linalg.norm(arr))
        if norm < _NORM_TOL:
            raise ValueError("cannot normalize the zero vector")
        arr = arr / norm
        return cls(float(arr[0]), float(arr[1]), float(arr[2]))


AXES = (
    SpinDirection(1.0, 0.0, 0.0),
    SpinDirection(0.0, 1.0, 0.0),
    SpinDirection(0.0, 0.0, 1.0),
)


def spin_component_operator(direction: SpinDirection) -> np.ndarray:
    """The component of spin along a unit direction; eigenvalues are always ±1."""
    sx, sy, sz = _pauli()
    return direction.x * sx + direction.y * sy + direction.z * sz


def singlet() -> np.ndarray:
    """The antisymmetric pair state (0, 1/sqrt2, -1/sqrt2, 0)."""
    import numpy as np
    return np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def delta_operator(
    hermitian_tol: float = linalg.DEFAULT_TOLERANCES["hermitian"],
    cluster_gap: float = linalg.DEFAULT_TOLERANCES["eigen_cluster_gap"],
) -> OperatorBundle:
    """Sum of the three matched-component products on the pair space.

    The spectrum is computed by diagonalization, not asserted a priori: the
    singlet is a simple eigenvector and the complementary eigenvalue is triply
    degenerate, reported through its cluster projector.
    """
    sx, sy, sz = _pauli()
    matrix = linalg.tensor(sx, sx) + linalg.tensor(sy, sy) + linalg.tensor(sz, sz)
    return bundle_from_matrix("delta", matrix, hermitian_tol, cluster_gap)


def anticorrelation_residual(direction: SpinDirection) -> float:
    """How far the singlet is from total spin zero along a direction.

    Residual of (a·σ ⊗ I + I ⊗ a·σ) applied to the singlet, max-abs.
    """
    import numpy as np
    component = spin_component_operator(direction)
    eye = np.eye(2, dtype=complex)
    total = linalg.tensor(component, eye) + linalg.tensor(eye, component)
    return linalg.max_abs(total @ singlet())


def random_directions(count: int, seed: int) -> tuple[SpinDirection, ...]:
    """Seeded uniform directions on the sphere, reproducible across runs."""
    import numpy as np
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        vec = rng.normal(size=3)
        norm = float(np.linalg.norm(vec))
        if norm < 1e-6:
            continue
        arr = vec / norm
        out.append(SpinDirection(float(arr[0]), float(arr[1]), float(arr[2])))
    return tuple(out)
