"""finivar benchmark: run one workload (or all), check its outputs, print metrics.

    python3 perfbench/run.py --workload operators --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root.  Every workload runs in fresh worker processes
(``worker.py``) that import finivar from ``src``; nothing is installed or
built.  The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before it
(``perfbench-detail``) records the environment, sample counts, percentiles
and any correctness problems.  The exit code is 1 when a correctness gate
fails and 2 when the program or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import workloads  # noqa: E402

# Set-up is timed in this many fresh processes per run (one of them is the
# measuring process itself) and reported as the median.  A census set-up
# takes about 0.2 s, so more samples cost little there and steady its median.
SETUP_SAMPLES = {"census": 9, "operators": 5, "cli": 5}
WORKER_TIMEOUT_S = 175
BLAS_THREADS = 1
TAIL_LADDER = (75.0, 90.0, 95.0, 99.0, 99.9)
# A tail percentile must leave at least this many samples above it.
TAIL_BEYOND = 10
# Used when no percentile of the ladder can: steadier than the maximum.
TAIL_FALLBACK = 90.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "scenario_ms.p50": "ms",
    "scenario_ms.tail": "ms",
    "peak_rss_mb": "MB",
}

# Which workloads each metric is meant to move (see README.md).
APPLIES_TO = {
    "wall_s": list(workloads.WORKLOADS),
    "setup_s": list(workloads.WORKLOADS),
    "scenario_ms.p50": list(workloads.WORKLOADS),
    "scenario_ms.tail": list(workloads.WORKLOADS),
    "peak_rss_mb": list(workloads.WORKLOADS),
    "subgroups.": ["census"],
    "harness.": ["census"],
    "groups.are_related": ["census"],
    "spaces.": ["census"],
    "groups.": ["operators", "census"],
    "scenario.": ["operators", "cli"],
    "representations.": ["operators"],
    "linalg.": ["operators"],
    "runner.": ["census", "operators"],
    "report.": ["operators"],
    "spin.": ["cli"],
    "builtins.": ["cli"],
    "cli.": ["cli"],
    "trace.": list(workloads.WORKLOADS),
}


def _nearest_rank(ordered: list[float], p: float) -> float:
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def tail(values: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile of the ladder that leaves at
    least ``TAIL_BEYOND`` samples above its nearest rank, or ``TAIL_FALLBACK``
    when there are too few samples for any."""
    ordered = sorted(values)
    chosen = TAIL_FALLBACK
    for p in TAIL_LADDER:
        if len(ordered) - math.ceil(p / 100.0 * len(ordered)) >= TAIL_BEYOND:
            chosen = p
    return chosen, _nearest_rank(ordered, chosen)


def applies_to(metric: str) -> list[str]:
    return APPLIES_TO[max((k for k in APPLIES_TO if metric.startswith(k)), key=len)]


class WorkerError(RuntimeError):
    """A worker process crashed, timed out or printed no result."""


def worker(args: list[str], env: dict) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{' '.join(args)}: no result within {exc.timeout} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{' '.join(args)}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    # One BLAS thread: the matrices are at most 1024 x 1024, where a second
    # thread saves no time, and a spinning helper thread makes every timing
    # depend on how busy the other core is.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def _timings(walls: list[float], setups: list[float], scenarios_s: list[float]) -> dict:
    scenario_ms = [t * 1000.0 for t in scenarios_s]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "scenario_ms.p50": statistics.median(scenario_ms),
        "scenario_ms.tail": tail(scenario_ms)[1],
    }


def end_to_end(workload: str, seed: int, seconds: int, env: dict) -> tuple[dict, dict]:
    setups = [
        worker(["setup", workload, str(seed)], env) for _ in range(SETUP_SAMPLES[workload] - 1)
    ]
    run = worker(["measure", workload, str(seed), str(seconds)], env)
    setups.append(run)
    # Metrics are in reference seconds (speed.py); the detail line keeps the
    # times as measured.
    values = _timings(
        run["walls_scaled_s"], [s["setup_scaled_s"] for s in setups], run["scenario_scaled_s"]
    )
    values["peak_rss_mb"] = run["peak_rss_mb"]
    measured = _timings(run["walls_s"], [s["setup_s"] for s in setups], run["scenario_s"])
    failed = run["failed"] + run["warmup_failed"]
    detail = {
        "samples": {
            "wall_s": len(run["walls_s"]),
            "setup_s": len(setups),
            "scenario_ms": len(run["scenario_s"]),
        },
        "percentiles": {"scenario_ms.tail": tail(run["scenario_s"])[0]},
        "as_measured": measured,
        "failed_ratio": failed / max(run["attempted"], 1),
        "identical_reports": run["identical"],
        "environment": run["environment"],
        "problems": run["problems"],
    }
    result = {
        "correct": failed == 0 and run["identical"],
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
    }
    return result, detail


def per_layer(workload: str, seed: int, env: dict) -> tuple[dict, dict]:
    run = worker(["trace", workload, str(seed)], env)
    failed = run["failed"] + run["warmup_failed"]
    detail = {
        "untraced_wall_s": run["untraced_wall_s"],
        "traced_wall_s": run["traced_wall_s"],
        "setup_s": run["setup_s"],
        "failed_ratio": failed / max(run["attempted"], 1),
        "identical_reports": run["identical"],
        "environment": run["environment"],
        "problems": run["problems"],
    }
    result = {
        "correct": failed == 0 and run["identical"],
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {k: {"value": run["metrics"][k], "unit": u} for k, u in tracer.units().items()},
    }
    return result, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "finivar", "__init__.py")):
        print(f"perfbench: no finivar sources under {SRC}", file=sys.stderr)
        return 2
    env = worker_env()
    selected = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    all_correct = True
    for workload in selected:
        try:
            if args.trace:
                result, detail = per_layer(workload, args.seed, env)
            else:
                result, detail = end_to_end(workload, args.seed, args.seconds, env)
        except WorkerError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 2
        detail = {
            "workload": workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "applies_to": {k: applies_to(k) for k in result["metrics"]},
            **detail,
        }
        print("perfbench-detail " + json.dumps(detail, sort_keys=True))
        print(json.dumps(result))
        sys.stdout.flush()
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
