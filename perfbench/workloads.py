"""Seeded scenario generators and the expected outcome of every check.

Each generator returns the scenario texts the program receives, paired with
what the generator predicts for every check in them.  The predictions come
from how the inputs were built (which group, which variables), never from
running the program, so a wrong answer from the program shows up as a
mismatch.  Nothing here imports finivar.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("census", "operators", "cli")

# Sizes of the cyclic groups in the operators workload.  n >= 32 is left out:
# there the commutant's d^2 x d^2 eigendecomposition takes seconds, so few
# passes fit in a run.  An odd number of sizes keeps the median latency
# inside one size's samples.
OPERATOR_SIZES = (8, 12, 16, 20, 24)
RESIDUE_MODULUS = 4

BUILTIN_NAMES = (
    "qubit",
    "cyclic-4",
    "singlet",
    "parity-z4",
    "a2-smoke",
    "rotation-sign-probe",
)

# Seconds one pass takes on a 2-vCPU Xeon VM at 2.1 GHz, whose speed swung
# by up to 2x from minute to minute; these are midpoints.  A run makes
# round(seconds / pass time) passes, at least one, so that a run measures
# about --seconds there, while the sample count, and with it the percentile
# the tail stands for, never depends on how fast the machine happens to be.
NOMINAL_PASS_S = {"census": 45.0, "operators": 1.9, "cli": 1.4}

CENSUS_MAX_N = 6
CENSUS_WARMUP_MAX_N = 4

# Frozen census of every balanced scenario up to six points.
CENSUS_EXPECTED = {
    "max_n": 6,
    "instances": 32211,
    "families": 576,
    "verdicts": {
        "all-essentially-different": 9434,
        "all-related": 7044,
        "mixed": 15733,
    },
    "subgroup_classes_by_degree": {"4": 11, "6": 56},
    "mixed_with_satisfied_hypotheses": 0,
    "complete": True,
}
CENSUS_WARMUP_EXPECTED = {
    "max_n": 4,
    "subgroup_classes_by_degree": {"4": 11},
    "mixed_with_satisfied_hypotheses": 0,
    "complete": True,
}
# SHA-256 of the census reports.  A census runs once per measured run, so
# its report is compared with this stored one rather than with a second run.
# A change that alters the census report on purpose updates these digests.
CENSUS_REPORT_SHA256 = {
    CENSUS_MAX_N: "aca4c1eb784ad601357b2b3e68e093c55677d0dcd4a3232e1d9d5b0e7972ca59",
    CENSUS_WARMUP_MAX_N: "5fdc2fc1cfb5eb29c0b91d2d550e309aef09a1776132a85c496ac5924895af7b",
}
# Subgroup classes of S_5: no balanced shape exists on five points, so the
# census never asks for them; the traced census run computes them directly.
SUBGROUP_CLASSES_S5 = 19


@dataclass
class Expected:
    """What one check must report: its status and some detail values."""

    status: str
    details: dict = field(default_factory=dict)


@dataclass
class Case:
    """One scenario text and the expected record of each of its checks.

    ``digest``, when set, is the SHA-256 of the report text every run of this
    input must give byte for byte.
    """

    name: str
    text: str
    checks: list[Expected]
    digest: str | None = None


def _dump(data: dict) -> str:
    # JSON is valid YAML; sorted keys keep the text a pure function of the seed.
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def _space(n: int, prefix: str) -> dict:
    return {"id": f"{prefix}-{n}", "labels": [str(i) for i in range(n)]}


def _distinct_values(rng: random.Random, count: int) -> list[str]:
    quarters = rng.sample(range(-8 * count, 8 * count + 1), count)
    return [f"{q / 4:g}" for q in quarters]


# ----------------------------------------------------------------------------
# census


def census_case(max_n: int = CENSUS_MAX_N) -> Case:
    expected = CENSUS_EXPECTED if max_n == CENSUS_MAX_N else CENSUS_WARMUP_EXPECTED
    text = _dump(
        {
            "name": f"census-{max_n}",
            "space": _space(1, "census"),
            "checks": [{"type": "a2-falsify", "max-n": max_n}],
        }
    )
    return Case(
        f"census-{max_n}", text, [Expected("pass", dict(expected))], CENSUS_REPORT_SHA256[max_n]
    )


# ----------------------------------------------------------------------------
# operators


def operator_case(rng: random.Random, n: int) -> Case:
    """Cyclic shift group on n points with its Fourier representation.

    ``position`` and ``relabel`` are maximal (one value per point), ``residue``
    is the coarsening j -> j mod 4, which the shift permutes, so it is
    permissible with multiplicity n/4 per value.  The modulus is fixed so
    that the cost of a scenario does not depend on the seed.
    """
    modulus = RESIDUE_MODULUS
    base_point = rng.randrange(n)
    order = list(range(n))
    rng.shuffle(order)
    variables = [
        {"name": "position", "values": _distinct_values(rng, n), "assignment": list(range(n))},
        {
            "name": "residue",
            "values": _distinct_values(rng, modulus),
            "assignment": [j % modulus for j in range(n)],
        },
        {"name": "relabel", "values": _distinct_values(rng, n), "assignment": order},
    ]
    checks: list[dict] = []
    expected: list[Expected] = []
    for name, classes in (("position", n), ("residue", modulus)):
        maximal = classes == n
        checks += [
            {"type": "permissibility", "variable": name},
            {"type": "induced-group", "variable": name},
            {"type": "theorem1-hypotheses", "variable": name, "base_point": base_point},
            {"type": "theorem2", "variable": name, "base_point": base_point},
        ]
        expected += [
            Expected("pass", {"permissible": True, "group_order": n}),
            Expected(
                "pass",
                {"source_order": n, "induced_order": classes, "homomorphism_verified": True},
            ),
            Expected(
                "pass",
                {
                    "operator.nondegenerate": maximal,
                    "operator.maximal_in_family": maximal,
                    "operator.multiplicities": [n // classes] * classes,
                    "operator.spectrum_matches_values": True,
                },
            ),
            Expected("pass", {"elements_checked": n}),
        ]
    checks.append(
        {
            "type": "eq1-expansion",
            "basis": "position",
            "target": {"variable": "relabel"},
            "index": rng.randrange(n),
            "base_point": base_point,
        }
    )
    expected.append(Expected("pass", {"basis": "position"}))
    text = _dump(
        {
            "name": f"operators-{n}",
            "space": _space(n, "circle"),
            "variables": variables,
            "group": {"generators": [[(j + 1) % n for j in range(n)]]},
            "representation": {"kind": "cyclic-dft", "n": n},
            "checks": checks,
        }
    )
    return Case(f"operators-{n}", text, expected)


# ----------------------------------------------------------------------------
# entry points


def generate(workload: str, seed: int) -> list[Case]:
    """The inputs of one pass over a workload; the same seed gives the same texts."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "census":
        return [census_case()]
    if workload == "operators":
        return [operator_case(rng, n) for n in OPERATOR_SIZES]
    if workload == "cli":
        names = list(BUILTIN_NAMES)
        rng.shuffle(names)
        return [Case(name, name, [Expected("exit-0")]) for name in names]
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def passes(workload: str, seconds: float) -> int:
    """How many measured passes a run of ``seconds`` makes."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def warmup(workload: str, seed: int) -> list[Case]:
    """The untimed warm-up pass.  The census warms on a small bound so that
    every measured census stays cold; other workloads repeat their inputs."""
    if workload == "census":
        return [census_case(CENSUS_WARMUP_MAX_N)]
    return generate(workload, seed)


def _lookup(details: dict, dotted: str):
    value = details
    for key in dotted.split("."):
        if not isinstance(value, dict) or key not in value:
            return _MISSING
        value = value[key]
    return value


_MISSING = object()


def digest_mismatch(case: Case, text: str) -> list[str]:
    """One line when the report text differs from the stored one for this input."""
    if case.digest is None or hashlib.sha256(text.encode("utf-8")).hexdigest() == case.digest:
        return []
    return [f"{case.name}: report differs from the stored report of the same input"]


def mismatches(case: Case, report: dict) -> list[str]:
    """One line for each check whose status or key details differ from the prediction."""
    records = report.get("checks", [])
    if len(records) != len(case.checks):
        return [
            f"{case.name}: {len(records)} checks reported, {len(case.checks)} expected"
        ] * len(case.checks)
    out = []
    for i, (record, expected) in enumerate(zip(records, case.checks)):
        problems = []
        if record.get("status") != expected.status:
            problems.append(f"status {record.get('status')!r}, expected {expected.status!r}")
        for key, want in expected.details.items():
            got = _lookup(record.get("details", {}), key)
            if got is _MISSING:
                problems.append(f"{key} missing")
            elif got != want:
                problems.append(f"{key} = {got!r}, expected {want!r}")
        if problems:
            out.append(f"{case.name} checks[{i}] {record.get('name')}: " + "; ".join(problems))
    return out
