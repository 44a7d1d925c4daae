"""Two-level spin components and the maximally anticorrelated pair state.

Conventions: single-spin basis (|+1>, |-1>); two-spin product basis in
lexicographic order (++, +-, -+, --).
"""

from __future__ import annotations

import math
import random
from functools import cache
from typing import Sequence

from ._record import Frozen

__all__ = [
    "SpinDirection",
    "spin_component_operator",
    "singlet",
    "delta_operator",
    "anticorrelation_residual",
    "anticorrelation_residuals",
    "random_directions",
    "AXES",
]

_NORM_TOL = 1e-12


@cache
def _pauli() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Pauli matrices σx, σy and σz, built on first use: importing this module loads no numpy."""
    import numpy as np
    rows = ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]])
    return tuple(np.array(m, dtype=complex) for m in rows)


class SpinDirection(Frozen):
    """A unit vector selecting a spin component."""

    x: float
    y: float
    z: float

    def __init__(self, x: float, y: float, z: float) -> None:
        super().__init__(x, y, z)
        norm = (self.x**2 + self.y**2 + self.z**2) ** 0.5
        if not abs(norm - 1.0) <= _NORM_TOL:  # NaN compares false, so it is refused too
            raise ValueError(f"direction must be a unit vector, |a| = {norm!r}")

    @classmethod
    def from_vector(cls, vec: Sequence[float]) -> "SpinDirection":
        import numpy as np
        arr = np.asarray(vec, dtype=float)
        if arr.shape != (3,):
            raise ValueError("a direction needs exactly three components")
        if not np.isfinite(arr).all():
            raise ValueError(f"a direction needs finite components, got {arr.tolist()!r}")
        # Scaling by a power of two is exact: it brings the largest |component|
        # into [0.5, 1), so the norm neither underflows nor overflows.
        arr = np.ldexp(arr, -math.frexp(float(abs(arr).max()))[1])
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


def delta_operator() -> np.ndarray:
    """The matrix Δ, the sum of the three matched-component products on the
    pair space.

    Its spectrum is left to ``linalg.eigh``, not asserted a priori: the
    singlet is a simple eigenvector and the complementary eigenvalue is triply
    degenerate, reported as one cluster of multiplicity 3.
    """
    import numpy as np
    sx, sy, sz = _pauli()
    return np.kron(sx, sx) + np.kron(sy, sy) + np.kron(sz, sz)


def anticorrelation_residual(direction: SpinDirection) -> float:
    """How far the singlet is from total spin zero along a direction: the
    one-direction case of ``anticorrelation_residuals``."""
    return float(anticorrelation_residuals((direction,))[0])


def anticorrelation_residuals(directions: Sequence[SpinDirection]) -> np.ndarray:
    """How far the singlet is from total spin zero along each direction.

    Residual of (a·σ ⊗ I + I ⊗ a·σ) applied to the singlet, max-abs, for all
    directions in one stacked product: ``np.kron`` of a stack of 2x2 matrices
    is each matrix's own ``kron``, so each residual has the bits of a
    per-direction sweep.
    """
    import numpy as np
    sx, sy, sz = _pauli()
    a = np.array([(d.x, d.y, d.z) for d in directions], dtype=float).reshape(-1, 3, 1, 1)
    component = a[:, 0] * sx + a[:, 1] * sy + a[:, 2] * sz
    eye = np.eye(2, dtype=complex)
    total = np.kron(component, eye) + np.kron(eye, component)
    return abs(total @ singlet()).max(axis=1)


def random_directions(count: int, seed: int) -> tuple[SpinDirection, ...]:
    """Seeded uniform directions on the sphere, reproducible across runs: three
    Gaussian draws from ``random.Random(seed)`` normalised, redrawn while their
    norm is under 1e-6.  A negative seed is refused: ``random`` would seed it
    as its absolute value."""
    if seed < 0:
        raise ValueError(f"seed must be 0 or more, got {seed}")
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        x, y, z = rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)
        norm = math.sqrt(x * x + y * y + z * z)
        if norm < 1e-6:
            continue
        out.append(SpinDirection(x / norm, y / norm, z / norm))
    return tuple(out)
