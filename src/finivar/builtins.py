"""Built-in scenarios: small end-to-end demonstrations shipped with the engine.

Each entry is a complete scenario file; ``emit`` writes them out so they also
serve as templates for user scenarios.  Each is a header of ``#`` comment
lines, the first of which ``finivar list`` shows, then one JSON document.
YAML 1.1 reads the text as that document, so an emitted file is a YAML
scenario too, and the loader's JSON gate reads it without PyYAML.
"""

from __future__ import annotations

from .scenario import Scenario, loads

__all__ = ["BUILTINS", "builtin_names", "builtin_text", "load_builtin"]

_QUBIT = """\
# Two-point value space carrying the flip action; the operator pipeline
# reproduces the z-component operator and expands x-eigenvectors over it.
{
  "name": "qubit",
  "space": {"id": "spin-values", "labels": ["+1", "-1"]},
  "variables": [
    {"name": "spin-z", "values": ["+1", "-1"], "assignment": [0, 1]}
  ],
  "group": {"generators": [[1, 0]]},
  "representation": {"kind": "qubit"},
  "base_state": [[1, 0], [0, 0]],
  "checks": [
    {"type": "permissibility", "variable": "spin-z"},
    {"type": "induced-group", "variable": "spin-z"},
    {"type": "theorem1-hypotheses", "variable": "spin-z"},
    {"type": "theorem2", "variable": "spin-z"},
    {
      "type": "eq1-expansion",
      "basis": "spin-z",
      "target": {"direction": [1, 0, 0]},
      "index": 1
    },
    {
      "type": "eq1-expansion",
      "basis": "spin-z",
      "target": {"direction": [1, 0, 0]},
      "index": 0
    }
  ]
}
"""

_CYCLIC_4 = """\
# Four points on a circle under the shift action, with its 0/1 shift matrices,
# which the Fourier transform diagonalises.  Position is maximal (nondegenerate
# spectrum); parity is a coarsening (degenerate spectrum) and still transforms
# covariantly.
{
  "name": "cyclic-4",
  "space": {"id": "circle-4", "labels": ["0", "1", "2", "3"]},
  "variables": [
    {"name": "position", "values": ["0", "1", "2", "3"], "assignment": [0, 1, 2, 3]},
    {"name": "parity", "values": ["+1", "-1"], "assignment": [0, 1, 0, 1]}
  ],
  "group": {"generators": [[1, 2, 3, 0]]},
  "representation": {"kind": "cyclic-dft", "n": 4},
  "base_state": [[1, 0], [0, 0], [0, 0], [0, 0]],
  "checks": [
    {"type": "permissibility", "variable": "position"},
    {"type": "permissibility", "variable": "parity"},
    {"type": "induced-group", "variable": "position"},
    {"type": "induced-group", "variable": "parity"},
    {"type": "theorem1-hypotheses", "variable": "position"},
    {"type": "theorem1-hypotheses", "variable": "parity"},
    {"type": "theorem2", "variable": "position"},
    {"type": "theorem2", "variable": "parity"}
  ]
}
"""

_SINGLET = """\
# The antisymmetric pair state: spectral verification of the matched-component
# sum, perfect anticorrelation along random directions, and the coordinate
# swap exclusion on the outcome grid.
{
  "name": "singlet",
  "space": {
    "id": "pair-z-outcomes",
    "labels": ["++", "+-", "-+", "--"],
    "product": [[0, 0], [0, 1], [1, 0], [1, 1]]
  },
  "variables": [
    {"name": "left-z", "values": ["+1", "-1"], "assignment": [0, 0, 1, 1]},
    {"name": "right-z", "values": ["+1", "-1"], "assignment": [0, 1, 0, 1]},
    {"name": "product-zz", "values": ["+1", "-1"], "assignment": [0, 1, 1, 0]}
  ],
  "group": {"generators": [[0, 2, 1, 3]]},
  "checks": [
    {"type": "singlet-delta", "directions": 100, "seed": 7},
    {"type": "a2-classify", "expect-verdict": "mixed"},
    {"type": "theorem1-hypotheses", "variable": "left-z", "eta": "right-z"}
  ]
}
"""

_PARITY_Z4 = """\
# Negative-path demonstrations on the four-point circle: a variable that does
# not survive the shift action, and dichotomy searches whose hypotheses fail.
{
  "name": "parity-z4",
  "space": {"id": "circle-4", "labels": ["0", "1", "2", "3"]},
  "variables": [
    {"name": "parity", "values": ["+1", "-1"], "assignment": [0, 1, 0, 1]},
    {"name": "first-half", "values": ["0", "1"], "assignment": [0, 0, 1, 1]}
  ],
  "group": {"generators": [[1, 2, 3, 0]]},
  "checks": [
    {"type": "permissibility", "variable": "parity"},
    {"type": "permissibility", "variable": "first-half", "expect": false},
    {"type": "induced-group", "variable": "parity"},
    {"type": "a1-search", "theta": "parity", "eta": "first-half"},
    {"type": "a1-search", "theta": "parity", "generators": [[0, 1, 2, 3]]},
    {"type": "a1-search", "theta": "parity", "all-partitions": true}
  ]
}
"""

_A2_SMOKE = """\
# Three rotated arcs on a six-point circle fall into one relatedness class
# under the shift group, and a small exhaustive sweep finds no scenario where
# a mixed verdict survives the structural hypotheses.
{
  "name": "a2-smoke",
  "space": {"id": "circle-6", "labels": ["0", "1", "2", "3", "4", "5"]},
  "variables": [
    {"name": "arc-a", "values": ["0", "1"], "assignment": [0, 0, 0, 1, 1, 1]},
    {"name": "arc-b", "values": ["0", "1"], "assignment": [1, 0, 0, 0, 1, 1]},
    {"name": "arc-c", "values": ["0", "1"], "assignment": [1, 1, 0, 0, 0, 1]}
  ],
  "group": {"generators": [[1, 2, 3, 4, 5, 0]]},
  "checks": [
    {"type": "a2-classify", "expect-verdict": "all-related"},
    {"type": "a2-falsify", "max-n": 4}
  ]
}
"""

_ROTATION_SIGN_PROBE = """\
# Exploratory probe, never gating: the sign of the first coordinate at eight
# offset circle points is torn apart by the one-step rotation but survives
# the half-turn subgroup, which simply swaps the two signs.
{
  "name": "rotation-sign-probe",
  "informational": true,
  "space": {"id": "circle-8", "labels": ["0", "1", "2", "3", "4", "5", "6", "7"]},
  "variables": [
    {"name": "sign", "values": ["+1", "-1"], "assignment": [0, 0, 1, 1, 1, 1, 0, 0]}
  ],
  "group": {"generators": [[1, 2, 3, 4, 5, 6, 7, 0]]},
  "checks": [
    {"type": "permissibility", "variable": "sign"},
    {"type": "permissibility", "variable": "sign", "generators": [[4, 5, 6, 7, 0, 1, 2, 3]]},
    {"type": "induced-group", "variable": "sign", "generators": [[4, 5, 6, 7, 0, 1, 2, 3]]}
  ]
}
"""

BUILTINS: dict[str, str] = {
    "qubit": _QUBIT,
    "cyclic-4": _CYCLIC_4,
    "singlet": _SINGLET,
    "parity-z4": _PARITY_Z4,
    "a2-smoke": _A2_SMOKE,
    "rotation-sign-probe": _ROTATION_SIGN_PROBE,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(BUILTINS)


def builtin_text(name: str) -> str:
    if name not in BUILTINS:
        raise KeyError(f"unknown built-in scenario {name!r}")
    return BUILTINS[name]


def load_builtin(name: str) -> Scenario:
    return loads(builtin_text(name), source=f"builtin:{name}")
