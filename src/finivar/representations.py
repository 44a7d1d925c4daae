"""Unitary representations, coherent state families and operator bundles.

A representation assigns a unitary matrix to every group element.  Acting on a
base state yields the coherent states; grouping those states by the value of a
variable and summing value-weighted projectors yields the Hermitian operator
that asks the variable's question.  The construction is only attempted when
states with different values span orthogonal subspaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import linalg
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
    "QuestionAnswer",
    "OperatorBundle",
    "build_operator",
    "bundle_from_matrix",
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
    """The matrix at ``index``, in listed order, sends the base state to an unusable state."""

    def __init__(self, index: int) -> None:
        super().__init__(f"matrix {index} sends the base state to a zero or non-finite state")
        self.index = index


class OrthogonalityError(ValueError):
    """Outside the orthogonal-coherent scope of the operator construction."""


class DegenerateBasisError(ValueError):
    """Basis expansion needs nondegenerate spectra; use cluster projectors instead."""


class UnitaryRep:
    """A unitary matrix for every element of a permutation group."""

    def __init__(self, group: PermutationGroup, matrices: dict[Permutation, np.ndarray]) -> None:
        import numpy as np
        if set(matrices) != set(group.elements):
            raise ValueError("representation must cover every group element exactly")
        first = next(iter(matrices.values()))
        dim = first.shape[0]
        for m in matrices.values():
            if m.shape != (dim, dim):
                raise ValueError("representation matrices must share one square shape")
        self.group = group
        self.dim = dim
        self.matrices = {k: np.asarray(m, dtype=complex) for k, m in matrices.items()}

    def __call__(self, k: Permutation) -> np.ndarray:
        return self.matrices[k]

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
        stack = np.array([self.matrices[k] for k in self.group.elements])  # indexed by id
        gram = stack.conj().swapaxes(1, 2) @ stack
        unitary_residual = max(abs(gram - np.eye(self.dim)).max(axis=(1, 2)).tolist())
        identity_residual = linalg.max_abs(self.matrices[self.group.identity] - np.eye(self.dim))
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


@dataclass(frozen=True)
class RepDiagnostics:
    unitary_residual: float
    identity_residual: float
    homomorphism_residual: float
    pairs_checked: int

    def ok(
        self,
        unitary_tol: float = _DEFAULTS["unitary"],
        hom_tol: float = _DEFAULTS["rep_homomorphism"],
    ) -> bool:
        return (
            self.unitary_residual <= unitary_tol
            and self.identity_residual <= unitary_tol
            and self.homomorphism_residual <= hom_tol
        )


def qubit_rep(group: PermutationGroup | None = None) -> UnitaryRep:
    """The two-element flip representation from the phase rule U|v> = e^{-iv}|flip v>.

    On the two-point value space {+1, -1} with basis |+1> = (1,0), |-1> = (0,1)
    the non-identity element gets [[0, e^{+i}], [e^{-i}, 0]], which squares to
    the identity.  ``group`` is the flip group it is built on, by default on
    a space of its own.
    """
    import numpy as np
    if group is None:
        space = PointSpace(id="spin-values", labels=("+1", "-1"))
        group = PermutationGroup.generate(space, (Permutation((1, 0)),))
    if group.space.size != 2:
        raise ValueError("the flip representation lives on a two-point space")
    flip = np.array([[0, np.exp(1j)], [np.exp(-1j), 0]], dtype=complex)
    matrices = {
        group.identity: np.eye(2, dtype=complex),
        Permutation((1, 0)): flip,
    }
    return UnitaryRep(group, matrices)


def cyclic_dft_rep(n: int, group: PermutationGroup | None = None) -> UnitaryRep:
    """The cyclic shift group diagonalized by the discrete Fourier kernel.

    U(shift-by-s) = F^dag D^s F with F_{jk} = e^{2 pi i jk/n}/sqrt(n) and
    D = diag(e^{2 pi i k/n}); equivalently translation by s acts as a position
    shift in the standard basis.  ``group`` is the group of the n shifts it is
    built on, by default on a space of its own.
    """
    import numpy as np
    if n < 1:
        raise ValueError("cyclic representation needs n >= 1")
    shifts = [Permutation(tuple((j + s) % n for j in range(n))) for s in range(n)]  # 0 -> s
    if group is None:
        space = PointSpace(id=f"cycle-{n}", labels=tuple(str(j) for j in range(n)))
        group = PermutationGroup.generate(space, (shifts[1 % n],))
    if group.space.size != n:
        raise ValueError(f"space size {group.space.size} does not match n={n}")
    js = np.arange(n)
    fourier = np.exp(2j * np.pi * np.outer(js, js) / n) / np.sqrt(n)
    phases = np.exp(2j * np.pi * js / n)
    matrices = {k: fourier.conj().T @ np.diag(phases**s) @ fourier for s, k in enumerate(shifts)}
    return UnitaryRep(group, matrices)  # which raises unless the group is the shifts


def _usable(states: np.ndarray) -> np.ndarray:
    """Whether each state's norm is at least 1e-12 and finite (huge entries overflow it)."""
    import numpy as np
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(states, axis=-1)
    return (1e-12 <= norms) & (norms < np.inf)


class CoherentFamily:
    """The orbit of a base state under a representation, keyed by group element.

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
            self.states = {k: rep(k) @ base for k in rep.group.elements}  # overlaps use this order
        usable = _usable(np.array([self.states[k] for k in rep.matrices]))
        if not usable.all():
            raise CoherentStateError(int(np.argmin(usable)))  # the first listed unusable state
        self.rep = rep
        self.base = base
        self._overlaps: np.ndarray | None = None
        self._injectivity: dict[tuple[float, float], InjectivityResult] = {}
        self._projectors: dict[tuple[int, ...], tuple[np.ndarray, int]] = {}

    @property
    def group(self) -> PermutationGroup:
        return self.rep.group

    def overlaps(self) -> np.ndarray:
        """``|<a|b>| / (|a| |b|)`` for every ordered pair of states, in element order.

        Each entry is computed pair by pair, so it is bit-identical to the same
        expression evaluated on the two states.  Only pairs i < j are computed:
        ``vdot(b, a)`` is the exact conjugate of ``vdot(a, b)``, so entry (j, i)
        takes the same value.  The diagonal is left at zero.
        """
        import numpy as np
        if self._overlaps is None:
            states = list(self.states.values())
            norms = [np.linalg.norm(a) for a in states]
            overlaps = np.zeros((len(states), len(states)))
            for (i, a), (j, b) in itertools.combinations(enumerate(states), 2):
                overlaps[i, j] = overlaps[j, i] = abs(linalg.inner(a, b)) / float(norms[i] * norms[j])
            self._overlaps = overlaps
        return self._overlaps

    def projectors(self, groups: list[tuple[int, ...]]) -> list[tuple[np.ndarray, int]]:
        """The projector onto the span of the states at each tuple of ascending
        indices, and its rank, kept read-only per tuple.  The stacks of each size
        not yet kept go through one batched SVD, bit for bit one SVD per stack."""
        import numpy as np
        by_size: dict[int, list[tuple[int, ...]]] = {}
        for indices in groups:
            if indices not in self._projectors:
                by_size.setdefault(len(indices), []).append(indices)
        states = np.array(list(self.states.values()))
        for batch in by_size.values():
            u, s, _ = np.linalg.svd(states[np.array(batch)].swapaxes(1, 2), full_matrices=False)
            ranks = np.sum(s > 1e-10 * s[:, :1], axis=1).tolist()
            for indices, basis, rank in zip(batch, u, ranks):
                projector = basis[:, :rank] @ basis[:, :rank].conj().T
                projector.flags.writeable = False
                self._projectors[indices] = (projector, rank)
        return [self._projectors[indices] for indices in groups]


@dataclass(frozen=True)
class InjectivityResult:
    ok: bool
    min_distance: float | None  # None when the group has fewer than two elements
    max_overlap: float
    witness: tuple[Permutation, Permutation] | None

    def __bool__(self) -> bool:
        return self.ok


def check_coherent_injectivity(
    family: CoherentFamily,
    distance_tol: float = _DEFAULTS["injectivity_distance"],
    overlap_tol: float = _DEFAULTS["injectivity_overlap"],
) -> InjectivityResult:
    """Verify distinct elements give distinct states, even up to a global phase.

    The verdict is kept on the family per tolerance pair, so repeated operator
    builds over one family scan its pairs once.
    """
    key = (distance_tol, overlap_tol)
    if key not in family._injectivity:
        family._injectivity[key] = _scan_injectivity(family, distance_tol, overlap_tol)
    return family._injectivity[key]


def _scan_injectivity(
    family: CoherentFamily, distance_tol: float, overlap_tol: float
) -> InjectivityResult:
    import numpy as np
    elements, overlaps = family.group.elements, family.overlaps()
    states = np.array(list(family.states.values()))
    pairs = list(itertools.combinations(range(len(elements)), 2))  # in scan order
    distances = []  # |a - b| as np.linalg.norm takes it: a ddot per part, then sqrt
    for i, a in enumerate(states[:-1]):
        diff = a - states[i + 1 :]
        re, im = (np.matmul(p[:, None, :], p[:, :, None]).ravel() for p in (diff.real, diff.imag))
        distances += np.sqrt(re + im).tolist()
    near = overlaps[np.triu_indices(len(elements), 1)].tolist()
    hits = [
        (elements[i], elements[j])
        for (i, j), distance, overlap in zip(pairs, distances, near)
        if distance <= distance_tol or overlap >= 1 - overlap_tol
    ]
    witness = hits[0] if hits else None
    return InjectivityResult(not hits, min(distances, default=None), max([0.0, *near]), witness)


@dataclass(frozen=True)
class QuestionAnswer:
    question: str
    answer: str


@dataclass(frozen=True, eq=False)
class OperatorBundle:
    """A Hermitian operator together with its spectral data and value labels."""

    variable: ConceptualVariable
    operator: np.ndarray
    spectral: linalg.SpectralData
    projectors: dict[float, np.ndarray]
    qa_labels: dict[float, QuestionAnswer]

    @property
    def dim(self) -> int:
        return self.operator.shape[0]

    def is_nondegenerate(self) -> bool:
        return self.spectral.is_nondegenerate()


def _qa_labels(variable: ConceptualVariable) -> dict[float, QuestionAnswer]:
    numeric = variable.numeric_values()
    return {
        numeric[i]: QuestionAnswer(
            question=f"What is {variable.name}?",
            answer=f"{variable.name} = {variable.values[i]}",
        )
        for i in range(len(numeric))
    }


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
    injectivity = check_coherent_injectivity(
        family, tolerances["injectivity_distance"], tolerances["injectivity_overlap"]
    )
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
    groups = family.projectors(  # (projector, rank) of the states of each value
        [tuple(np.flatnonzero(values == v).tolist()) for v in range(len(numeric))]
    )
    dim = family.rep.dim
    if sum(rank for _, rank in groups) != dim:
        raise OrthogonalityError(
            f"outside the orthogonal-coherent scope: coherent groups span rank "
            f"{sum(rank for _, rank in groups)} of a dimension-{dim} space"
        )
    operator = np.zeros((dim, dim), dtype=complex)
    for weight, (projector, _) in zip(numeric, groups):
        operator = operator + weight * projector
    spectral = linalg.eigh(operator, tolerances["hermitian"], tolerances["eigen_cluster_gap"])
    got = sorted((c.value, c.multiplicity) for c in spectral.clusters)
    expected = sorted(zip(numeric, (rank for _, rank in groups)))  # a projector's rank is its trace
    for (gv, gm), (ev, em) in zip(got, expected):
        if abs(gv - ev) > tolerances["spectral_reconstruction"] or gm != em:
            raise RuntimeError(f"spectrum {got} does not reproduce the value grouping {expected}")
    projectors = {w: p for w, (p, _) in zip(numeric, groups)}
    return OperatorBundle(theta, operator, spectral, projectors, _qa_labels(theta))


def bundle_from_matrix(
    name: str,
    operator: np.ndarray,
    hermitian_tol: float = _DEFAULTS["hermitian"],
    cluster_gap: float = _DEFAULTS["eigen_cluster_gap"],
) -> OperatorBundle:
    """Wrap an explicit Hermitian matrix as a bundle over its own eigenbasis."""
    import numpy as np
    spectral = linalg.eigh(operator, hermitian_tol, cluster_gap)
    dim = spectral.dim
    space = PointSpace(
        id=f"{name}-eigenbasis", labels=tuple(f"e{i}" for i in range(dim))
    )
    assignment = [0] * dim
    labels = []
    for ci, cluster in enumerate(spectral.clusters):
        labels.append(f"{cluster.value:.12g}")
        for i in cluster.indices:
            assignment[i] = ci
    variable = ConceptualVariable(
        name=name, domain=space, values=tuple(labels), assignment=tuple(assignment)
    )
    projectors = {c.value: c.projector for c in spectral.clusters}
    return OperatorBundle(
        variable, np.asarray(operator, dtype=complex), spectral, projectors, _qa_labels(variable)
    )


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
    elements = family.group.elements
    projectors = np.array(list(bundle.projectors.values()))
    preimages = np.argsort([induced(t).images for t in elements], axis=1)  # [t, v] = g_t^-1(v)
    relabelled = np.zeros((len(elements), bundle.dim, bundle.dim), dtype=complex)
    term = np.empty_like(relabelled)
    for v, weight in enumerate(bundle.projectors):  # ids are in range; "clip" writes into term
        np.take(projectors, preimages[:, v], 0, term, "clip")
        np.add(relabelled, np.multiply(weight, term, out=term), out=relabelled)
    t_matrices = np.array([family.rep(t) for t in elements])
    conjugated = t_matrices.conj().swapaxes(1, 2) @ bundle.operator @ t_matrices
    return abs(np.subtract(conjugated, relabelled, out=relabelled)).max(axis=(1, 2)).tolist()


@dataclass(frozen=True, eq=False)
class BasisExpansion:
    amplitudes: tuple[complex, ...]
    reconstruction_error: float
    weight_sum: float

    def ok(
        self,
        reconstruction_tol: float = _DEFAULTS["expansion_reconstruction"],
        weight_tol: float = _DEFAULTS["expansion_weight"],
    ) -> bool:
        return (
            self.reconstruction_error <= reconstruction_tol
            and abs(self.weight_sum - 1.0) <= weight_tol
        )


def expand_in_basis(
    target: OperatorBundle, index: int, basis: OperatorBundle
) -> BasisExpansion:
    """Expand one eigenvector of ``target`` over the eigenbasis of ``basis``.

    Both bundles must be nondegenerate (cluster projectors are the honest
    object otherwise) and share a dimension.  Amplitudes follow the basis
    bundle's ascending eigenvalue order under the fixed phase convention.
    """
    import numpy as np
    if target.dim != basis.dim:
        raise ValueError(f"dimension mismatch: target {target.dim}, basis {basis.dim}")
    if not target.is_nondegenerate() or not basis.is_nondegenerate():
        raise DegenerateBasisError(
            "expansion is defined for nondegenerate spectra; degenerate clusters "
            "are reported through their projectors"
        )
    if not 0 <= index < target.dim:
        raise ValueError(f"eigenvector index {index} out of range 0..{target.dim - 1}")
    vec = target.spectral.vector(index)
    amplitudes = tuple(
        linalg.inner(basis.spectral.vector(j), vec) for j in range(basis.dim)
    )
    reconstruction = sum(
        a * basis.spectral.vector(j) for j, a in enumerate(amplitudes)
    )
    error = linalg.max_abs(np.asarray(reconstruction) - vec)
    weight = float(sum(abs(a) ** 2 for a in amplitudes))
    return BasisExpansion(amplitudes, float(error), weight)


@dataclass(frozen=True)
class IrreducibilityDiagnostic:
    """Commutant size of a representation; scalar commutant means irreducible.

    ``character_norm`` is <chi, chi>; when it misses an integer by more than
    the tolerance, the dimension and the verdict are None.  Diagnostic only:
    operator pipelines do not require irreducibility.
    """

    character_norm: float
    commutant_dimension: int | None
    irreducible: bool | None


def commutant_diagnostic(
    rep: UnitaryRep, tol: float = _DEFAULTS["commutant"]
) -> IrreducibilityDiagnostic:
    """Commutant dimension from the character norm (1/|G|) sum |tr U(g)|^2.

    The twirl of g -> U(g) (x) conj(U(g)), a representation even when U is a
    ray one, projects onto the commutant, so its rank is its trace (Serre,
    *Linear Representations of Finite Groups*, 2.3).  Valid only for matrices
    that pass ``UnitaryRep.diagnostics``.  ``tol`` bounds the distance from an
    integer.
    """
    import numpy as np
    traces = np.array([np.trace(rep(k)) for k in rep.group.elements])
    norm = float(np.sum(np.abs(traces) ** 2) / rep.group.order)
    dim = round(norm)
    if abs(norm - dim) > tol:
        return IrreducibilityDiagnostic(norm, None, None)
    return IrreducibilityDiagnostic(norm, dim, dim == 1)
