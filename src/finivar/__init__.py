"""finivar: finite-scale machine verification of conceptual-variable models.

Variables on finite point spaces are partitions; permutation groups act on
them; permissible variables induce value-space actions; unitary
representations turn coherent-state orbits into Hermitian operators whose
spectra are verified, never assumed.  A scenario file requests checks and the
engine emits a deterministic verification report.
"""

from .groups import (
    GroupTooLargeError,
    NotPermissibleError,
    Permutation,
    PermutationGroup,
    are_related,
    flag_trivial_exchange,
    induced_group,
    is_permissible,
)
from .harness import (
    classify_thoughts,
    exhaustive_falsifier,
    theorem_a1_search,
)
from .report import VerificationReport
from .runner import RunFlags, run_scenario
from .scenario import Scenario, ScenarioError, load_path, loads
from .spaces import (
    ConceptualVariable,
    PointSpace,
    VariableFamily,
    dominates,
    is_accessible,
    maximal_accessible,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConceptualVariable",
    "GroupTooLargeError",
    "NotPermissibleError",
    "Permutation",
    "PermutationGroup",
    "PointSpace",
    "RunFlags",
    "Scenario",
    "ScenarioError",
    "VariableFamily",
    "VerificationReport",
    "are_related",
    "classify_thoughts",
    "dominates",
    "exhaustive_falsifier",
    "flag_trivial_exchange",
    "induced_group",
    "is_accessible",
    "is_permissible",
    "load_path",
    "loads",
    "maximal_accessible",
    "run_scenario",
    "theorem_a1_search",
]
