"""End-to-end acceptance gate: one test per shipped guarantee.

Each test exercises a complete behavior at its contractual tolerance and
budget; `pytest -v` therefore prints one pass/fail line per guarantee.
Frozen numbers (falsifier counts, amplitude values, eigenvalue structure)
were produced by oracle runs recorded before the engine was wired together.
"""

from __future__ import annotations

import random
import time

import numpy as np
import pytest

from finivar.builtins import builtin_names, load_builtin
from finivar.groups import (
    GroupTooLargeError,
    Permutation,
    PermutationGroup,
    induced_group,
    is_permissible,
)
from finivar.harness import exhaustive_falsifier
from finivar.linalg import max_abs
from finivar.report import STATUS_NOT_APPLICABLE, STATUS_PASS
from finivar.representations import qubit_rep
from finivar.runner import RunFlags, run_scenario
from finivar.spaces import ConceptualVariable, PointSpace

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def run_builtin(name):
    return run_scenario(load_builtin(name), RunFlags())


def records_of(report, check_type):
    return [c for c in report.checks if c.type == check_type]


def test_two_point_pipeline_unitary_injective_nondegenerate():
    started = time.perf_counter()
    report = run_builtin("qubit")
    assert report.exit_code == 0
    assert all(c.status == STATUS_PASS for c in report.checks)

    rep = qubit_rep()
    flip = rep(Permutation((1, 0)))
    assert max_abs(flip @ flip - np.eye(2)) <= 1e-10
    assert max_abs(flip @ flip.conj().T - np.eye(2)) <= 1e-10

    (theorem1,) = records_of(report, "theorem1-hypotheses")
    assert theorem1.details["representation"]["unitary_residual"] <= 1e-10
    assert theorem1.details["representation"]["identity_residual"] <= 1e-10
    assert theorem1.details["coherent_injectivity"]["ok"]
    operator = theorem1.details["operator"]
    assert operator["eigenvalues"] == pytest.approx([-1.0, 1.0], abs=1e-12)
    assert operator["multiplicities"] == [1, 1]
    assert operator["nondegenerate"] and operator["maximal_in_family"]
    assert time.perf_counter() - started < 1.0


def test_conjugation_law_exhaustive_on_both_represented_builtins():
    started = time.perf_counter()
    for name, group_order in (("qubit", 2), ("cyclic-4", 4)):
        report = run_builtin(name)
        records = records_of(report, "theorem2")
        assert records, name
        for record in records:
            assert record.status == STATUS_PASS
            assert record.details["elements_checked"] == group_order
            assert record.details["max_residual"] <= 1e-8
    assert time.perf_counter() - started < 1.0


def test_transversal_state_expansion_amplitudes():
    report = run_builtin("qubit")
    expansions = records_of(report, "eq1-expansion")
    assert len(expansions) == 2
    by_index = {r.details["eigenvector_index"]: r for r in expansions}
    equal_weight = by_index[1]
    assert equal_weight.status == STATUS_PASS
    for amplitude in equal_weight.details["amplitudes"]:
        assert abs(amplitude - INV_SQRT2) <= 1e-10
    assert equal_weight.details["reconstruction_error"] <= 1e-10
    assert abs(equal_weight.details["weight_sum"] - 1.0) <= 1e-10
    # the orthogonal eigenvector differs only by the sign of one amplitude
    signed = by_index[0].details["amplitudes"]
    assert abs(signed[0] + INV_SQRT2) <= 1e-10
    assert abs(signed[1] - INV_SQRT2) <= 1e-10


def test_entangled_pair_operator_spectrum_and_anticorrelation():
    started = time.perf_counter()
    report = run_builtin("singlet")
    (record,) = records_of(report, "singlet-delta")
    assert record.status == STATUS_PASS
    details = record.details
    assert details["eigenvalue_residual_at_minus_3"] <= 1e-10
    assert sorted(details["cluster_multiplicities"]) == [1, 3]
    # frozen diagonalization oracle: the triple eigenvalue is +1
    assert abs(details["degenerate_value"] - 1.0) <= 1e-10
    assert details["directions_checked"] == 103
    assert details["max_anticorrelation_residual"] <= 1e-10
    assert time.perf_counter() - started < 1.0


def test_permissibility_is_equivalent_to_well_defined_induced_action():
    """1000 seeded random variable/group instances on up to 8 points."""
    started = time.perf_counter()
    rng = random.Random(20260814)
    spaces = {
        n: PointSpace(id=f"s{n}", labels=tuple(str(i) for i in range(n)))
        for n in range(2, 9)
    }

    def forced_map_well_defined(assignment, group):
        # independent re-statement of the defining condition: every group
        # element must send equal-value points to equal-value points
        for k in group.elements:
            seen: dict[int, int] = {}
            for x, value in enumerate(assignment):
                image_value = assignment[k.images[x]]
                if value in seen:
                    if seen[value] != image_value:
                        return False
                else:
                    seen[value] = image_value
        return True

    def rand_perm(n):
        images = list(range(n))
        rng.shuffle(images)
        return Permutation(tuple(images))

    def random_surjection(n, m):
        while True:
            assignment = tuple(rng.randrange(m) for _ in range(n))
            if len(set(assignment)) == m:
                return assignment

    def make_instance():
        style = rng.random()
        if style < 0.4:
            # unconstrained: mostly impermissible
            n = rng.randint(2, 8)
            assignment = random_surjection(n, rng.randint(1, n))
            for _ in range(3):
                gens = (
                    [rand_perm(n)]
                    if rng.random() < 0.5
                    else [rand_perm(n), rand_perm(n)]
                )
                try:
                    group = PermutationGroup.generate(spaces[n], tuple(gens), max_size=720)
                    break
                except GroupTooLargeError:
                    continue
            else:
                group = PermutationGroup.generate(spaces[n], (rand_perm(n),), max_size=720)
        elif style < 0.7:
            # orbit labels of a cyclic action: always permissible
            n = rng.randint(2, 8)
            group = PermutationGroup.generate(spaces[n], (rand_perm(n),), max_size=720)
            orbit_of = {x: min(orbit) for orbit in group.orbits() for x in orbit}
            roots = sorted(set(orbit_of.values()))
            assignment = tuple(roots.index(orbit_of[x]) for x in range(n))
        else:
            # block structure with block-respecting generators: permissible
            # with a nontrivial induced action
            b = rng.randint(1, 4)
            m = rng.randint(2, max(2, 8 // b))
            n = b * m
            assignment = tuple(x // b for x in range(n))
            rotate = Permutation(tuple((x + b) % n for x in range(n)))
            inner = list(range(n))
            block = rng.randrange(m) * b
            segment = inner[block : block + b]
            rng.shuffle(segment)
            inner[block : block + b] = segment
            gens = [rotate] if rng.random() < 0.5 else [rotate, Permutation(tuple(inner))]
            group = PermutationGroup.generate(spaces[n], tuple(gens), max_size=720)
        value_count = max(assignment) + 1
        theta = ConceptualVariable(
            name="theta",
            domain=spaces[n],
            values=tuple(f"v{i}" for i in range(value_count)),
            assignment=assignment,
        )
        return theta, group

    permissible_count = impermissible_count = 0
    for i in range(1000):
        theta, group = make_instance()
        oracle = forced_map_well_defined(theta.assignment, group)
        result = is_permissible(theta, group)
        assert bool(result) == oracle, f"instance {i}: verdict disagrees with oracle"
        if oracle:
            permissible_count += 1
            induced, homomorphism = induced_group(theta, group)
            assert homomorphism.verify(), f"instance {i}: homomorphism failed"
            if group.is_transitive():
                assert induced.is_transitive(), f"instance {i}: transitivity lost"
        else:
            impermissible_count += 1
            witness = result.witness
            a = theta.assignment
            assert a[witness.phi1] == a[witness.phi2], f"instance {i}: witness points differ"
            assert (
                a[witness.k.images[witness.phi1]] != a[witness.k.images[witness.phi2]]
            ), f"instance {i}: witness does not split the fiber"
    assert permissible_count >= 150 and impermissible_count >= 150
    assert permissible_count + impermissible_count == 1000
    assert time.perf_counter() - started < 60.0


def test_no_variable_is_related_to_one_twin_but_not_the_other():
    started = time.perf_counter()
    statuses = []
    for name in builtin_names():
        report = run_builtin(name)
        for record in records_of(report, "a1-search"):
            statuses.append(record.status)
            assert record.status in (STATUS_PASS, STATUS_NOT_APPLICABLE)
            if record.status == STATUS_NOT_APPLICABLE:
                # hypothesis violations must name the violated hypothesis
                assert record.details["reason"]
            else:
                assert "witness_partition" not in record.details
    assert STATUS_PASS in statuses and STATUS_NOT_APPLICABLE in statuses
    assert time.perf_counter() - started < 10.0


def test_exhaustive_falsifier_matches_frozen_census():
    started = time.perf_counter()
    report = exhaustive_falsifier(6)
    assert report.instances == 32211
    assert report.families == 576
    assert report.verdict_count("all-essentially-different") == 9434
    assert report.verdict_count("all-related") == 7044
    assert report.verdict_count("mixed") == 15733
    assert report.mixed_with_satisfied_hypotheses == 0
    assert report.counterexamples == ()
    assert report.subgroup_classes_by_degree == ((4, 11), (6, 56))
    assert report.complete
    assert time.perf_counter() - started < 30.0


def test_consecutive_runs_serialize_byte_identically():
    for name in builtin_names():
        first = run_builtin(name).to_json().encode()
        second = run_builtin(name).to_json().encode()
        assert first == second, name
