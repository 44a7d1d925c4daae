"""Self-tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run(case: workloads.Case) -> dict:
    from finivar.runner import run_scenario
    from finivar.scenario import loads

    return json.loads(run_scenario(loads(case.text)).to_json())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_scenario_texts(workload):
    first = [c.text for c in workloads.generate(workload, 11)]
    again = [c.text for c in workloads.generate(workload, 11)]
    assert first == again


@pytest.mark.parametrize("workload", ["operators", "cli"])
def test_seed_changes_scenario_texts(workload):
    assert [c.text for c in workloads.generate(workload, 1)] != [
        c.text for c in workloads.generate(workload, 2)
    ]


@pytest.mark.parametrize("seed", [0, 3])
def test_predictions_match_the_program(seed):
    for case in workloads.generate("operators", seed):
        assert workloads.mismatches(case, _run(case)) == []


def _census_report(**changes) -> dict:
    details = json.loads(json.dumps(workloads.CENSUS_EXPECTED))
    details.update(changes)
    return {"checks": [{"name": "a2-falsify", "status": "pass", "details": details}]}


def test_census_gate_accepts_the_frozen_census():
    assert workloads.mismatches(workloads.census_case(), _census_report()) == []


def test_corrupted_census_count_fails_the_gate():
    case = workloads.census_case()
    case.checks[0].details["instances"] = 32212
    assert workloads.mismatches(case, _census_report())
    verdicts = dict(workloads.CENSUS_EXPECTED["verdicts"], mixed=15734)
    assert workloads.mismatches(workloads.census_case(), _census_report(verdicts=verdicts))


def test_corrupted_count_fails_the_gate_on_a_real_census():
    case = workloads.census_case(workloads.CENSUS_WARMUP_MAX_N)
    report = _run(case)
    assert workloads.mismatches(case, report) == []
    case.checks[0].details["subgroup_classes_by_degree"] = {"4": 12}
    assert workloads.mismatches(case, report)


def test_census_report_must_match_its_stored_digest():
    from finivar.runner import run_scenario
    from finivar.scenario import loads

    case = workloads.census_case(workloads.CENSUS_WARMUP_MAX_N)
    text = run_scenario(loads(case.text)).to_json()
    assert workloads.digest_mismatch(case, text) == []
    assert workloads.digest_mismatch(case, text.replace("11", "12"))


def test_wrong_status_and_check_count_fail_the_gate():
    case = workloads.generate("operators", 0)[0]
    report = _run(case)
    report["checks"][3]["status"] = "fail"
    assert len(workloads.mismatches(case, report)) == 1
    report["checks"].pop()
    assert len(workloads.mismatches(case, report)) == len(case.checks)


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def test_every_metric_name_is_well_formed():
    names = list(run.END_TO_END_UNITS) + list(tracer.units())
    bench = _benchmark()
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)


def test_benchmark_file_lists_what_the_runs_print():
    bench = _benchmark()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracer.units()


def test_tail_leaves_ten_samples_above_it():
    assert run.tail([float(i) for i in range(1, 101)]) == (90.0, 90.0)
    assert run.tail([float(i) for i in range(1, 41)]) == (75.0, 30.0)
    assert run.tail([float(i) for i in range(1, 40)]) == (90.0, 36.0)
    assert run.tail([3.0, 1.0, 2.0]) == (90.0, 3.0)
    assert run.tail([7.0]) == (90.0, 7.0)


def test_tracer_sees_calls_and_restores_every_name():
    import finivar.cli  # noqa: F401
    from finivar import groups, harness

    before = (harness.are_related, groups.are_related, groups.PermutationGroup.__dict__["generate"])
    recorder = tracer.Tracer()
    recorder.install()
    try:
        report = _run(workloads.census_case(workloads.CENSUS_WARMUP_MAX_N))
    finally:
        recorder.uninstall()
    after = (harness.are_related, groups.are_related, groups.PermutationGroup.__dict__["generate"])
    assert before == after
    calls = recorder.summary()["calls"]
    instances = report["checks"][0]["details"]["instances"]
    assert calls["runner.run_scenario"] == 1
    assert calls["harness.classify"] == instances
    assert calls["groups.are_related"] == 3 * instances


def test_self_time_subtracts_children():
    recorder = tracer.Tracer()
    recorder.spans += [("runner.run", 0.0, 10.0, -1), ("groups.x", 1.0, 4.0, 0), ("groups.x", 2.0, 3.0, 1)]
    summary = recorder.summary()
    assert summary["self_s"] == {"runner": 7.0, "groups": 3.0}
    assert summary["busy_s"]["groups.x"] == 3.0
    assert summary["calls"]["groups.x"] == 2


def test_written_spans_keep_their_parents(tmp_path):
    recorder = tracer.Tracer()
    with recorder.region("cli.main"):
        with recorder.region("runner.run"):
            pass
    path = tmp_path / "out" / "spans.jsonl"
    recorder.write(str(path))
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(name, parent) for name, _, _, parent in lines] == [("cli.main", -1), ("runner.run", 0)]
    assert all(start <= end for _, start, end, _ in lines)


def test_speed_scaling_uses_the_samples_of_the_window():
    sampler = speed.Sampler()
    sampler.starts = [0.0, 1.0, 2.0, 5.0]
    sampler.ends = [0.001, 1.002, 2.004, 5.001]
    ref = speed.REFERENCE_CHUNK_S
    # inside [0.5, 3]: the chunks of 2 ms and 4 ms, whose own 6 ms is left out
    own, chunks = sampler.window(0.5, 3.0)
    assert own == pytest.approx(0.006) and chunks == pytest.approx([0.002, 0.004])
    assert sampler.scaled(0.5, 3.0) == pytest.approx((2.5 - 0.006) * ref / 0.003)
    # no sample inside [3, 4]: the nearest before and after
    assert sampler.window(3.0, 4.0) == (0.0, pytest.approx([0.004, 0.001]))


def test_sampler_samples_while_started_and_restores_the_handler():
    import signal

    before = signal.getsignal(signal.SIGPROF)
    sampler = speed.Sampler()
    sampler.start()
    try:
        deadline = time.process_time() + 0.2
        while time.process_time() < deadline:
            pass
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGPROF) == before
    assert len(sampler.starts) >= 4
    assert all(s < e for s, e in zip(sampler.starts, sampler.ends))
