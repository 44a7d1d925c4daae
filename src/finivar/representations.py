"""Unitary representations, coherent state families and operator bundles.

A representation assigns a unitary matrix to every group element.  Acting on a
base state yields the coherent states; grouping those states by the value of a
variable and summing value-weighted projectors yields the Hermitian operator
that asks the variable's question.  The construction is only attempted when
states with different values span orthogonal subspaces.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

from . import linalg
from .groups import Permutation, PermutationGroup, _require_acting_group
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
    "OperatorTolerances",
    "OperatorBundle",
    "build_operator",
    "bundle_from_matrix",
    "ConjugationResult",
    "conjugation_law",
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

    def diagnostics(self, seed: int = 0, sample_pairs: int = 1000) -> "RepDiagnostics":
        """Measure unitarity, the identity image, and the composition law.

        The composition law is checked up to a global phase per pair, so exact
        and ray representations both validate.  The pairs, all of them for small
        groups and a seeded sample for large ones, come as ids from
        ``PermutationGroup.pair_ids`` and are stacked |G| at a time.
        """
        import numpy as np
        listed = {k: i for i, k in enumerate(self.matrices)}
        stack = np.array(list(self.matrices.values()))
        gram = stack.conj().swapaxes(1, 2) @ stack
        unitary_residual = max(abs(gram - np.eye(self.dim)).max(axis=(1, 2)).tolist())
        identity_residual = linalg.max_abs(self.matrices[self.group.identity] - np.eye(self.dim))
        position = np.array([listed[k] for k in self.group.elements])  # of each element id in stack
        pairs, pair_count = self.group.pair_ids(seed, sample_pairs)
        hom_residual = 0.0
        while chunk := list(itertools.islice(pairs, len(listed))):
            a, b, ab = position[np.array(chunk).T]
            product = (stack[a] @ stack[b]).reshape(len(chunk), -1)
            expected = stack[ab].reshape(len(chunk), -1)
            at = np.arange(len(chunk)), np.argmax(abs(expected), axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):  # a zero U(ab) gives phase 1
                phase = product[at] / expected[at]
                mag = np.hypot(phase.real, phase.imag)  # bit for bit the scalar abs()
                phase = np.where(mag > 0, phase / mag, 1.0)[:, None]
            hom_residual = max(hom_residual, *abs(product - phase * expected).max(1).tolist())
        return RepDiagnostics(
            unitary_residual=float(unitary_residual),
            identity_residual=float(identity_residual),
            homomorphism_residual=float(hom_residual),
            pairs_checked=pair_count,
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


def qubit_rep(space: PointSpace | None = None) -> UnitaryRep:
    """The two-element flip representation from the phase rule U|v> = e^{-iv}|flip v>.

    On the two-point value space {+1, -1} with basis |+1> = (1,0), |-1> = (0,1)
    the non-identity element gets [[0, e^{+i}], [e^{-i}, 0]], which squares to
    the identity.
    """
    import numpy as np
    if space is None:
        space = PointSpace(id="spin-values", labels=("+1", "-1"))
    if space.size != 2:
        raise ValueError("the flip representation lives on a two-point space")
    group = PermutationGroup.generate(space, (Permutation((1, 0)),))
    flip = np.array([[0, np.exp(1j)], [np.exp(-1j), 0]], dtype=complex)
    matrices = {
        group.identity: np.eye(2, dtype=complex),
        Permutation((1, 0)): flip,
    }
    return UnitaryRep(group, matrices)


def cyclic_dft_rep(n: int, space: PointSpace | None = None) -> UnitaryRep:
    """The cyclic shift group diagonalized by the discrete Fourier kernel.

    U(shift-by-s) = F^dag D^s F with F_{jk} = e^{2 pi i jk/n}/sqrt(n) and
    D = diag(e^{2 pi i k/n}); equivalently translation by s acts as a position
    shift in the standard basis.
    """
    import numpy as np
    if n < 1:
        raise ValueError("cyclic representation needs n >= 1")
    if space is None:
        space = PointSpace(id=f"cycle-{n}", labels=tuple(str(j) for j in range(n)))
    if space.size != n:
        raise ValueError(f"space size {space.size} does not match n={n}")
    shift = Permutation(tuple((j + 1) % n for j in range(n)))
    group = PermutationGroup.generate(space, (shift,))
    js = np.arange(n)
    fourier = np.exp(2j * np.pi * np.outer(js, js) / n) / np.sqrt(n)
    phases = np.exp(2j * np.pi * js / n)
    matrices: dict[Permutation, np.ndarray] = {}
    for k in group.elements:
        s = k.images[0]  # shift amount: 0 -> s
        matrices[k] = fourier.conj().T @ np.diag(phases**s) @ fourier
    return UnitaryRep(group, matrices)


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

        Each entry is computed pair by pair, in the order of its indices, so it
        is bit-identical to the same expression evaluated on the two states.
        The diagonal is left at zero.
        """
        import numpy as np
        if self._overlaps is None:
            states = list(self.states.values())
            norms = [np.linalg.norm(a) for a in states]
            overlaps = np.zeros((len(states), len(states)))
            for i, a in enumerate(states):
                for j, b in enumerate(states):
                    if i != j:
                        overlaps[i, j] = abs(linalg.inner(a, b)) / float(norms[i] * norms[j])
            self._overlaps = overlaps
        return self._overlaps

    def projector(self, indices: tuple[int, ...]) -> tuple[np.ndarray, int]:
        """The projector onto the span of the states at ascending ``indices``, and its rank.

        Kept read-only per tuple: the same stack gives the same SVD, bit for bit.
        """
        import numpy as np
        if indices not in self._projectors:
            stack = np.array([self.states[self.group.elements[i]] for i in indices]).T
            u, s, _ = np.linalg.svd(stack, full_matrices=False)
            rank = int(np.sum(s > 1e-10 * s[0]))
            projector = u[:, :rank] @ u[:, :rank].conj().T
            projector.flags.writeable = False
            self._projectors[indices] = (projector, rank)
        return self._projectors[indices]


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
    states = list(family.states.values())
    pairs = list(itertools.combinations(range(len(elements)), 2))  # in scan order
    distances = [float(np.linalg.norm(states[i] - states[j])) for i, j in pairs]
    near = [float(overlaps[i, j]) for i, j in pairs]
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


@dataclass(frozen=True)
class OperatorTolerances:
    """Every tolerance an operator build applies, named as in a scenario's table."""

    orthogonal_grouping: float = _DEFAULTS["orthogonal_grouping"]
    injectivity_distance: float = _DEFAULTS["injectivity_distance"]
    injectivity_overlap: float = _DEFAULTS["injectivity_overlap"]
    hermitian: float = _DEFAULTS["hermitian"]
    eigen_cluster_gap: float = _DEFAULTS["eigen_cluster_gap"]
    spectral_reconstruction: float = _DEFAULTS["spectral_reconstruction"]

    @classmethod
    def from_table(cls, table: dict[str, float]) -> "OperatorTolerances":
        return cls(**{f.name: table[f.name] for f in fields(cls)})


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

    def eigenvalue_multiplicities(self) -> tuple[tuple[float, int], ...]:
        return tuple((c.value, c.multiplicity) for c in self.spectral.clusters)


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
    tolerances: OperatorTolerances = OperatorTolerances(),
) -> OperatorBundle:
    """Sum value-weighted projectors onto coherent-state groups.

    Requires the group to act regularly on the variable's domain, so that
    k -> k(base_point) labels the coherent states by points.  States are
    grouped by the variable's value at their point; groups must be pairwise
    orthogonal and jointly spanning.  The operator's eigenvalues are then
    exactly the variable's values, with multiplicities equal to the group
    ranks; the variable is maximal on this labeling iff the spectrum is
    nondegenerate.
    """
    operators, values, vectors, projectors = _build_operators(theta, family, base_point, tolerances)
    spectral = linalg.spectral_data(values[0], vectors[0], tolerances.eigen_cluster_gap)
    return OperatorBundle(theta, operators[0], spectral, projectors[0], _qa_labels(theta))


def _build_operators(
    theta: ConceptualVariable,
    family: CoherentFamily,
    base_point: int,
    tolerances: OperatorTolerances,
    moves: list[tuple[int, ...]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[dict[float, np.ndarray]]]:
    """``build_operator`` of theta∘m for each permutation m of the points (default: theta).

    Returns the operators, the eigenvalues and eigenvectors of one ``eigh``,
    and each one's projectors by value.  The first theta∘m that fails a check
    raises that check's error, as its own build would.
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
        family, tolerances.injectivity_distance, tolerances.injectivity_overlap
    )
    if not injectivity:
        g, h = injectivity.witness
        raise CoherentCollisionError(
            f"coherent states for {list(g.images)} and {list(h.images)} coincide "
            f"(distance {injectivity.min_distance:.3e}, overlap {injectivity.max_overlap:.6f})"
        )
    numeric = theta.numeric_values()
    values = np.array([[theta.assignment[m[p]] for p in points] for m in moves or [range(n)]])
    overlaps = family.overlaps()
    scope = (values[:, :, None] < values[:, None, :]) & (overlaps > tolerances.orthogonal_grouping)
    # The state indices of each value, ascending; every theta∘m has theta's fiber sizes.
    cuts = np.cumsum([0, *np.bincount(values[0], minlength=len(numeric))]).tolist()
    groups = [  # (projector, rank) by value
        [family.projector(tuple(row[a:b])) for a, b in zip(cuts, cuts[1:])]
        for row in np.argsort(values, axis=1, kind="stable").tolist()
    ]
    dim = family.rep.dim
    operators = np.zeros((len(values), dim, dim), dtype=complex)
    for v, weight in enumerate(numeric):
        operators = operators + weight * np.array([gs[v][0] for gs in groups])
    hermitian = linalg.hermitian_residual(operators)
    eigenvalues, eigenvectors = np.linalg.eigh(operators)
    for k, gs in enumerate(groups):
        if scope[k].any():
            rows, cols = np.nonzero(scope[k])
            # The first violation in (lower value, higher value, element, element) order.
            first = np.lexsort((cols, rows, values[k, cols], values[k, rows]))[0]
            i, j = rows[first], cols[first]
            raise OrthogonalityError(
                f"outside the orthogonal-coherent scope: states for values "
                f"{theta.values[values[k, i]]!r} and {theta.values[values[k, j]]!r} overlap by "
                f"{float(overlaps[i, j]):.3e}"
            )
        if sum(rank for _, rank in gs) != dim:
            raise OrthogonalityError(
                f"outside the orthogonal-coherent scope: coherent groups span rank "
                f"{sum(rank for _, rank in gs)} of a dimension-{dim} space"
            )
        linalg.require_hermitian(float(hermitian[k]), tolerances.hermitian)
        runs = linalg.cluster_runs(eigenvalues[k], tolerances.eigen_cluster_gap)
        got = sorted((mean, stop - start) for start, stop, mean in runs)
        expected = sorted(zip(numeric, (rank for _, rank in gs)))  # a projector's rank is its trace
        for (gv, gm), (ev, em) in zip(got, expected):
            if abs(gv - ev) > tolerances.spectral_reconstruction or gm != em:
                raise RuntimeError(
                    f"spectrum {got} does not reproduce the value grouping {expected}"
                )
    projectors = [{w: p for w, (p, _) in zip(numeric, gs)} for gs in groups]
    return operators, eigenvalues, eigenvectors, projectors


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


@dataclass(frozen=True)
class ConjugationResult:
    element: Permutation
    residual: float
    ok: bool


def conjugation_law(
    theta: ConceptualVariable,
    family: CoherentFamily,
    elements: tuple[Permutation, ...] | None = None,
    base_point: int = 0,
    tolerances: OperatorTolerances = OperatorTolerances(),
    bundle: OperatorBundle | None = None,
) -> list[float]:
    """max |T(t)^dag A^theta T(t) - A^(theta∘t)| for each element t (default: the group).

    ``bundle``, theta's own operator, may be passed in.  Each A^(theta∘t) is
    built afresh, by ``build_operator``'s checks run on all of them as one stack.
    """
    import numpy as np
    elements = family.group.elements if elements is None else elements
    if bundle is None:
        bundle = build_operator(theta, family, base_point, tolerances)
    moved = _build_operators(theta, family, base_point, tolerances, [t.images for t in elements])[0]
    t_matrices = np.array([family.rep(t) for t in elements])
    conjugated = t_matrices.conj().swapaxes(1, 2) @ bundle.operator @ t_matrices
    return abs(conjugated - moved).max(axis=(1, 2)).tolist()


def conjugation_check(
    theta: ConceptualVariable,
    family: CoherentFamily,
    element: Permutation,
    base_point: int = 0,
    tol: float = _DEFAULTS["conjugation_residual"],
    tolerances: OperatorTolerances = OperatorTolerances(),
    bundle: OperatorBundle | None = None,
) -> ConjugationResult:
    """Verify T(t)^dag A^theta T(t) equals the operator of theta∘t: ``conjugation_law`` at t."""
    (residual,) = conjugation_law(theta, family, (element,), base_point, tolerances, bundle)
    return ConjugationResult(element=element, residual=residual, ok=residual <= tol)


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
