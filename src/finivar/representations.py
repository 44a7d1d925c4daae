"""Unitary representations, coherent state families and operator bundles.

A representation assigns a unitary matrix to every group element.  Acting on a
base state yields the coherent states; grouping those states by the value of a
variable and summing value-weighted projectors yields the Hermitian operator
that asks the variable's question.  The construction is only attempted when
states with different values span orthogonal subspaces.
"""

from __future__ import annotations

import os
from collections.abc import Iterator
from functools import cache

from . import linalg
from ._record import Frozen
from .groups import GroupHomomorphism, Permutation, PermutationGroup, _require_acting_group
from .spaces import ConceptualVariable, PointSpace

__all__ = [
    "CoherentCollisionError",
    "CoherentStateError",
    "OrthogonalityError",
    "DegenerateBasisError",
    "UnitaryRep",
    "RepDiagnostics",
    "qubit_rep",
    "cyclic_dft_rep",
    "CoherentFamily",
    "InjectivityResult",
    "check_coherent_injectivity",
    "OperatorBundle",
    "build_operator",
    "conjugation_check",
    "BasisExpansion",
    "expand_in_basis",
    "IrreducibilityDiagnostic",
    "commutant_diagnostic",
]

_DEFAULTS = linalg.DEFAULT_TOLERANCES


class CoherentCollisionError(ValueError):
    """Two distinct group elements produced the same coherent state."""


class CoherentStateError(ValueError):
    """The matrices at the element ids ``ids`` send the base state to unusable states."""

    def __init__(self, ids: tuple[int, ...]) -> None:
        super().__init__(
            f"the matrices at ids {list(ids)} send the base state to a zero or non-finite state"
        )
        self.ids = ids


class OrthogonalityError(ValueError):
    """Outside the orthogonal-coherent scope of the operator construction."""


class DegenerateBasisError(ValueError):
    """Basis expansion needs nondegenerate spectra; the message names which, basis
    or target, is degenerate."""


class UnitaryRep:
    """A unitary matrix for every element of a permutation group, kept as one
    |G|×d×d ``stack`` in id order; a complex ``stack`` is kept, not copied."""

    def __init__(self, group: PermutationGroup, stack: np.ndarray) -> None:
        import numpy as np
        stack = np.asarray(stack, dtype=complex)
        if stack.ndim != 3 or len(stack) != group.order or stack.shape[1] != stack.shape[2]:
            raise ValueError(f"expected a square matrix for every group element, got {stack.shape}")
        self.group = group
        self.dim = stack.shape[1]
        self.stack = stack

    def __call__(self, k: Permutation) -> np.ndarray:
        return self.stack[self.group.index(k)]

    def diagnostics(self) -> "RepDiagnostics":
        """Measure unitarity, the identity image, and the composition law.

        The composition law U(s)U(b) = U(sb) is checked up to a global phase
        per pair, read at U(sb)'s first largest |entry|, so exact and ray
        representations both validate.  It is checked on the rows of the
        group's generating set S, one s at a time: U(s) times the whole stack,
        against the matrices at the ids of s∘b.  By induction on the length of
        a word over S, those |S|·|G| pairs decide the law on every pair.
        """
        import numpy as np
        stack = self.stack
        gram = stack.conj().swapaxes(1, 2) @ stack
        unitary_residual = max(abs(gram - np.eye(self.dim)).max(axis=(1, 2)).tolist())
        identity_residual = linalg.max_abs(stack[0] - np.eye(self.dim))  # the identity is id 0
        n = len(stack)
        flat = stack.reshape(n, -1)
        pivot = np.argmax(abs(flat), axis=1)
        product = np.empty_like(stack)
        expected = np.empty_like(flat)
        residual = np.empty(flat.shape)
        hom_residual, pairs_checked = 0.0, 0
        for s, row in self.group.generator_rows():
            sb = np.array(row, np.intp)
            got = np.matmul(stack[s], stack, product).reshape(n, -1)
            np.take(flat, sb, 0, expected, "clip")  # ids are in range
            with np.errstate(divide="ignore", invalid="ignore"):  # a zero U(sb) gives phase 1
                phase = got[np.arange(n), pivot[sb]] / flat[sb, pivot[sb]]
                mag = np.hypot(phase.real, phase.imag)  # bit for bit the scalar abs()
                phase = np.where(mag > 0, phase / mag, 1.0)[:, None]
            np.multiply(phase, expected, expected)
            np.abs(np.subtract(got, expected, expected), residual)
            hom_residual = max(hom_residual, *residual.max(1).tolist())
            pairs_checked += n
        return RepDiagnostics(
            unitary_residual=float(unitary_residual),
            identity_residual=float(identity_residual),
            homomorphism_residual=float(hom_residual),
            pairs_checked=pairs_checked,
        )


class RepDiagnostics(Frozen):
    unitary_residual: float
    identity_residual: float
    homomorphism_residual: float
    pairs_checked: int

    def ok(self, tolerances: dict[str, float] = _DEFAULTS) -> bool:
        return (
            self.unitary_residual <= tolerances["unitary"]
            and self.identity_residual <= tolerances["unitary"]
            and self.homomorphism_residual <= tolerances["rep_homomorphism"]
        )


def _cyclic_group(kind: str, space: PointSpace, group: PermutationGroup | None) -> PermutationGroup:
    """The group ``kind`` is built on, by default Z_n on the n points of ``space``.  ``group``
    must be Z_n, the one order-n group holding j -> j + 1; a refusal names an element only one has."""
    n = space.size
    if group is None:
        return PermutationGroup.generate(space, (Permutation((*range(1, n), 0)),))
    extra = next((k for k in group.elements if k.images != (*range(k(0), n), *range(k(0)))), None)
    if extra is not None:
        where = f"the declared group has {list(extra.images)}, which {kind}'s group lacks"
    elif group.order < n:  # a proper subgroup of Z_n
        where = f"{kind}'s group has {[*range(1, n), 0]}, which the declared group lacks"
    else:
        return group
    raise ValueError(f"expected the declared group's elements: {where}")


def qubit_rep(group: PermutationGroup) -> UnitaryRep:
    """The two-element flip representation from the phase rule U|v> = e^{-iv}|flip v>.

    On the two-point value space {+1, -1} with basis |+1> = (1,0), |-1> = (0,1)
    the non-identity element gets [[0, e^{+i}], [e^{-i}, 0]], which squares to
    the identity.  ``group`` is the flip group it is built on, as
    ``_cyclic_group`` returns it; it is not checked again.
    """
    import numpy as np
    flip = [[0, np.exp(1j)], [np.exp(-1j), 0]]
    return UnitaryRep(group, np.array([np.eye(2), flip], dtype=complex))  # the flip is id 1


def cyclic_dft_rep(group: PermutationGroup) -> UnitaryRep:
    """The cyclic shift group Z_n by its exact 0/1 permutation matrices,
    U(k)[k(j), j] = 1, which the discrete Fourier transform diagonalises.

    ``group`` is the group of the n shifts of an n-point space it is built
    on, as ``_cyclic_group`` returns it; it is not checked again.
    """
    import numpy as np
    n = group.order
    stack = np.zeros((n, n, n), dtype=complex)
    ids = np.arange(n)  # element ids and columns j alike
    stack[ids[:, None], [k.images for k in group.elements], ids] = 1
    return UnitaryRep(group, stack)


def _usable(states: np.ndarray) -> np.ndarray:
    """Whether each state's norm is at least 1e-12 and finite (huge entries overflow it)."""
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(states, axis=-1)
    return (1e-12 <= norms) & (norms < np.inf)


class CoherentFamily:
    """The orbit of a base state under a representation: ``states`` holds
    U(k) base for every element k, one row per id.

    Every state, the base included, must have a finite norm of at least 1e-12.
    The states are fixed at construction, so the data derived from them
    (pairwise overlaps, injectivity verdicts, and the projector onto each
    group of states an operator build stacks) is computed once and kept here.
    """

    def __init__(self, rep: UnitaryRep, base: np.ndarray) -> None:
        import numpy as np
        base = np.asarray(base, dtype=complex)
        if base.shape != (rep.dim,) or not _usable(base):
            raise ValueError(f"expected a nonzero vector of dimension {rep.dim} with a finite norm")
        with np.errstate(over="ignore", invalid="ignore"):
            self.states = rep.stack @ base
        usable = _usable(self.states)
        if not usable.all():
            raise CoherentStateError(tuple(np.flatnonzero(~usable).tolist()))
        self.rep = rep
        self.base = base
        self._overlaps: np.ndarray | None = None
        self._injectivity: dict[tuple[float, float], InjectivityResult] = {}
        self._projectors: dict[tuple[int, ...], tuple[np.ndarray, int]] = {}

    @property
    def group(self) -> PermutationGroup:
        return self.rep.group

    def overlaps(self) -> np.ndarray:
        """``|<a|b>| / (|a| |b|)`` for every ordered pair of states, in id order.

        Only pairs i < j are computed, a block at a time (``_pairs``), each bit for
        bit the scalar expression: a stack of (1,d)@(d,1) products gives each pair
        a BLAS dot of conj(a) and b, the bits of ``vdot(a, b)``, and ``np.hypot``
        is the scalar ``abs()``.  Entry (j, i) takes the same value, as ``vdot(b, a)``
        is the exact conjugate of ``vdot(a, b)``.  The diagonal is left at zero.
        """
        import numpy as np
        if self._overlaps is None:
            norms = _norms(self.states)
            overlaps = np.zeros((len(norms), len(norms)))
            for i, j, a, b in _pairs(self):
                inner = np.matmul(np.conjugate(a, out=a)[:, None, :], b[:, :, None]).ravel()
                overlaps[i, j] = overlaps[j, i] = np.hypot(inner.real, inner.imag) / (norms[i] * norms[j])
            self._overlaps = overlaps
        return self._overlaps

    def projectors(self, groups: list[tuple[int, ...]]) -> list[tuple[np.ndarray, int]]:
        """The projector onto the span of the states at each tuple of ascending
        indices, and its rank, kept read-only per tuple.  The stacks of each size
        not yet kept go through one batched SVD, bit for bit one SVD per stack,
        then those of one rank r through one stacked product, on the strides (so
        the bits) of each one's own ``basis[:, :r] @ basis[:, :r].conj().T``."""
        import numpy as np
        by_size: dict[int, list[tuple[int, ...]]] = {}
        for indices in groups:
            if indices not in self._projectors:
                by_size.setdefault(len(indices), []).append(indices)
        for batch in by_size.values():
            stacks = self.states[np.array(batch)].swapaxes(1, 2)  # each group's states as columns
            u, s, _ = np.linalg.svd(stacks, full_matrices=False)
            ranks = np.sum(s > 1e-10 * s[:, :1], axis=1)
            for rank in sorted(set(ranks.tolist())):  # np.unique would load numpy.ma
                at = np.flatnonzero(ranks == rank)
                stacked = u[at, :, :rank] @ u[at, :, :rank].conj().swapaxes(1, 2)
                stacked.flags.writeable = False  # and so each projector, a view of it
                self._projectors.update((batch[t], (p, rank)) for t, p in zip(at.tolist(), stacked))
        return [self._projectors[indices] for indices in groups]


def _norms(states: np.ndarray) -> np.ndarray:
    """Each row's norm as ``np.linalg.norm`` takes it: the ddots of the strided real
    and imaginary parts (a contiguous copy sums in another order), then sqrt."""
    import numpy as np
    re, im = (np.matmul(p[:, None, :], p[:, :, None]).ravel() for p in (states.real, states.imag))
    return np.sqrt(re + im)


@cache
def _l2_cache_bytes() -> int | None:
    """The size of CPU 0's level-2 cache as Linux reports it, or None where
    it is not reported."""
    root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        for index in sorted(name for name in os.listdir(root) if name.startswith("index")):
            with open(f"{root}/{index}/level") as level, open(f"{root}/{index}/size") as size:
                if level.read().strip() == "2":
                    text = size.read().strip()  # such as "2048K"
                    return int(text[:-1]) << {"K": 10, "M": 20}[text[-1]]
    except (OSError, ValueError, KeyError):
        pass
    return None


def _pairs(family: CoherentFamily) -> Iterator[tuple[np.ndarray, ...]]:
    """The pairs i < j of the family's states in row-major order, a block at a
    time: index arrays i and j and the states at each, copied into two buffers
    the caller may overwrite.  The buffers and a block's per-pair scalars fit
    in the larger of the stack and the |G|×|G| overlaps, which the family
    holds, and in the L2 cache where its size is reported: past it a block
    only streams its copies through memory, as the regular S5's 7,140 pairs
    of 120-dimensional states would, 27 MB at once."""
    import numpy as np
    states = family.states
    n, d = states.shape
    total = n * (n - 1) // 2
    held = max(family.rep.stack.nbytes, n * n * 8)
    size = max(min(held, _l2_cache_bytes() or held) // (2 * states.itemsize * d + 80), 1)
    buffers = np.empty((2, min(size, total), d), states.dtype)
    starts = np.arange(n) * (2 * n - 1 - np.arange(n)) // 2  # the pairs before row i
    for first in range(0, total, size):
        k = np.arange(first, min(first + size, total))
        i = np.searchsorted(starts, k, "right") - 1
        j = k - starts[i] + i + 1
        a, b = buffers[:, : len(k)]  # indices are in range: "clip" writes straight into them
        yield i, j, np.take(states, i, 0, a, "clip"), np.take(states, j, 0, b, "clip")


class InjectivityResult(Frozen):
    ok: bool
    min_distance: float | None  # None when the group has fewer than two elements
    max_overlap: float
    witness: tuple[Permutation, Permutation] | None

    def __bool__(self) -> bool:
        return self.ok


def check_coherent_injectivity(
    family: CoherentFamily, tolerances: dict[str, float] = _DEFAULTS
) -> InjectivityResult:
    """Verify distinct elements give distinct states, even up to a global phase,
    within ``injectivity_distance`` and ``injectivity_overlap``.

    The verdict is kept on the family per tolerance pair, so repeated operator
    builds over one family scan its pairs once.
    """
    key = (tolerances["injectivity_distance"], tolerances["injectivity_overlap"])
    if key not in family._injectivity:
        family._injectivity[key] = _scan_injectivity(family, *key)
    return family._injectivity[key]


def _scan_injectivity(
    family: CoherentFamily, distance_tol: float, overlap_tol: float
) -> InjectivityResult:
    """Each pair's distance |a - b| is ``_norms``' of a - b and its overlap is
    ``overlaps()``'; the witness is the first pair in ``_pairs`` order to hit."""
    import numpy as np
    elements, overlaps = family.group.elements, family.overlaps()
    witness, least, most = None, [], [0.0]
    for i, j, a, b in _pairs(family):
        distances, near = _norms(np.subtract(a, b, out=a)), overlaps[i, j]
        least.append(float(distances.min()))
        most.append(float(np.fmax.reduce(near)))  # fmax skips NaN, as max([0.0, ...]) does
        hits = np.flatnonzero((distances <= distance_tol) | (near >= 1 - overlap_tol))
        if witness is None and hits.size:
            witness = elements[i[hits[0]]], elements[j[hits[0]]]
    return InjectivityResult(witness is None, min(least, default=None), max(most), witness)


class OperatorBundle(Frozen, eq=False):
    """A variable's Hermitian operator, its spectral data, and its projector
    for each numeric value, in value-label order."""

    operator: np.ndarray
    spectral: linalg.SpectralData
    projectors: dict[float, np.ndarray]


def build_operator(
    theta: ConceptualVariable,
    family: CoherentFamily,
    base_point: int = 0,
    tolerances: dict[str, float] = _DEFAULTS,
) -> OperatorBundle:
    """Sum value-weighted projectors onto coherent-state groups.

    Requires the group to act regularly on the variable's domain, so that
    k -> k(base_point) labels the coherent states by points.  States are
    grouped by the variable's value at their point; groups must be pairwise
    orthogonal and jointly spanning.  The projectors are summed in value
    order.  The operator's eigenvalues are then exactly the variable's values,
    with multiplicities equal to the group ranks; the variable is maximal on
    this labeling iff the spectrum is nondegenerate.  ``tolerances`` is a table
    named as ``linalg.DEFAULT_TOLERANCES``, such as the one a run resolved.
    """
    import numpy as np
    group = family.group
    _require_acting_group(theta, group)
    n = theta.domain.size
    points = [k.images[base_point] for k in group.elements]
    if group.order != n or len(set(points)) != n:
        raise ValueError(
            "coherent labeling requires a regular action: the group must match the "
            "domain size and reach every point from the base point exactly once"
        )
    injectivity = check_coherent_injectivity(family, tolerances)
    if not injectivity:
        g, h = injectivity.witness
        raise CoherentCollisionError(
            f"coherent states for {list(g.images)} and {list(h.images)} coincide "
            f"(distance {injectivity.min_distance:.3e}, overlap {injectivity.max_overlap:.6f})"
        )
    numeric = theta.numeric_values()
    values = np.array([theta.assignment[p] for p in points])
    overlaps = family.overlaps()
    scope = (values[:, None] < values[None, :]) & (overlaps > tolerances["orthogonal_grouping"])
    if scope.any():
        rows, cols = np.nonzero(scope)
        # The first violation in (lower value, higher value, element, element) order.
        first = np.lexsort((cols, rows, values[cols], values[rows]))[0]
        i, j = rows[first], cols[first]
        raise OrthogonalityError(
            f"outside the orthogonal-coherent scope: states for values "
            f"{theta.values[values[i]]!r} and {theta.values[values[j]]!r} overlap by "
            f"{float(overlaps[i, j]):.3e}"
        )
    fibers: list[list[int]] = [[] for _ in numeric]  # the states of each value, ascending
    for i, v in enumerate(values.tolist()):
        fibers[v].append(i)
    groups = family.projectors([tuple(f) for f in fibers])  # (projector, rank) of each value
    dim = family.rep.dim
    if sum(rank for _, rank in groups) != dim:
        raise OrthogonalityError(
            f"outside the orthogonal-coherent scope: coherent groups span rank "
            f"{sum(rank for _, rank in groups)} of a dimension-{dim} space"
        )
    operator = np.zeros((dim, dim), dtype=complex)
    for weight, (projector, _) in zip(numeric, groups):
        operator = operator + weight * projector
    spectral = linalg.eigh(operator, tolerances)
    got = sorted((c.value, c.multiplicity) for c in spectral.clusters)
    expected = sorted(zip(numeric, (rank for _, rank in groups)))  # a projector's rank is its trace
    for (gv, gm), (ev, em) in zip(got, expected):
        if abs(gv - ev) > tolerances["spectral_reconstruction"] or gm != em:
            raise RuntimeError(f"spectrum {got} does not reproduce the value grouping {expected}")
    projectors = {w: p for w, (p, _) in zip(numeric, groups)}
    return OperatorBundle(operator, spectral, projectors)


def conjugation_check(
    family: CoherentFamily, induced: GroupHomomorphism, bundle: OperatorBundle
) -> list[float]:
    """max |T(t)^dag A T(t) - sum_u w_g(u) P_u| for every group element t, in id order.

    A is theta's operator ``bundle``, P_u its projector for value u, and g
    the map ``induced`` (from ``groups.induced_group``) sends t to: the group
    acts on the question by relabelling its answers.  The relabelled
    projectors are summed in target-value order, as ``build_operator`` sums them.
    """
    import numpy as np
    projectors = np.array(list(bundle.projectors.values()))
    preimages = np.argsort([g.images for g in induced.images], axis=1)  # [t, v] = g_t^-1(v)
    relabelled = np.zeros((family.group.order, *bundle.operator.shape), dtype=complex)
    term = np.empty_like(relabelled)
    for v, weight in enumerate(bundle.projectors):  # ids are in range; "clip" writes into term
        np.take(projectors, preimages[:, v], 0, term, "clip")
        np.add(relabelled, np.multiply(weight, term, out=term), out=relabelled)
    stack = family.rep.stack
    conjugated = stack.conj().swapaxes(1, 2) @ bundle.operator @ stack
    return abs(np.subtract(conjugated, relabelled, out=relabelled)).max(axis=(1, 2)).tolist()


class BasisExpansion(Frozen, eq=False):
    amplitudes: tuple[complex, ...]
    reconstruction_error: float
    weight_sum: float

    def ok(self, tolerances: dict[str, float] = _DEFAULTS) -> bool:
        return (
            self.reconstruction_error <= tolerances["expansion_reconstruction"]
            and abs(self.weight_sum - 1.0) <= tolerances["expansion_weight"]
        )


def expand_in_basis(
    target: linalg.SpectralData, index: int, basis: linalg.SpectralData
) -> BasisExpansion:
    """Expand one eigenvector of the spectrum ``target`` over the eigenbasis of
    the spectrum ``basis``, as ``linalg.eigh`` returns them.

    Both spectra must be nondegenerate (a degenerate eigenspace has no one
    eigenbasis to expand in or over) and share a dimension.  Amplitudes follow
    the basis's ascending eigenvalue order under the fixed phase convention.
    """
    import numpy as np
    if target.dim != basis.dim:
        raise ValueError(f"dimension mismatch: target {target.dim}, basis {basis.dim}")
    spectra = {"basis": basis, "target": target}
    degenerate = [name for name, spectral in spectra.items() if not spectral.is_nondegenerate()]
    if degenerate:
        which = " and ".join(degenerate)
        noun = "spectra are" if len(degenerate) > 1 else "spectrum is"
        raise DegenerateBasisError(
            f"expansion is defined for nondegenerate spectra; the {which} {noun} degenerate"
        )
    if not 0 <= index < target.dim:
        raise ValueError(f"eigenvector index {index} out of range 0..{target.dim - 1}")
    vec = target.vector(index)
    amplitudes = tuple(linalg.inner(basis.vector(j), vec) for j in range(basis.dim))
    reconstruction = sum(a * basis.vector(j) for j, a in enumerate(amplitudes))
    error = linalg.max_abs(np.asarray(reconstruction) - vec)
    weight = float(sum(abs(a) ** 2 for a in amplitudes))
    return BasisExpansion(amplitudes, float(error), weight)


class IrreducibilityDiagnostic(Frozen):
    """Commutant size of a representation; scalar commutant means irreducible.

    ``character_norm`` is <chi, chi>; when it misses an integer by more than
    the tolerance, the dimension and the verdict are None.  Diagnostic only:
    operator pipelines do not require irreducibility.
    """

    character_norm: float
    commutant_dimension: int | None
    irreducible: bool | None


def commutant_diagnostic(
    rep: UnitaryRep, tolerances: dict[str, float] = _DEFAULTS
) -> IrreducibilityDiagnostic:
    """Commutant dimension from the character norm (1/|G|) sum |tr U(g)|^2.

    The twirl of g -> U(g) (x) conj(U(g)), a representation even when U is a
    ray one, projects onto the commutant, so its rank is its trace (Serre,
    *Linear Representations of Finite Groups*, 2.3).  Valid only for matrices
    that pass ``UnitaryRep.diagnostics``.  The ``commutant`` tolerance bounds
    the distance from an integer.
    """
    import numpy as np
    traces = np.trace(rep.stack, axis1=1, axis2=2)
    norm = float(np.sum(np.abs(traces) ** 2) / rep.group.order)
    dim = round(norm)
    if abs(norm - dim) > tolerances["commutant"]:
        return IrreducibilityDiagnostic(norm, None, None)
    return IrreducibilityDiagnostic(norm, dim, dim == 1)
