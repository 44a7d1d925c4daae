"""One fresh process of the benchmark: set up, then measure or trace a workload.

    python3 perfbench/worker.py setup   WORKLOAD SEED
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS
    python3 perfbench/worker.py trace   WORKLOAD SEED

``run.py`` starts these with ``src`` on PYTHONPATH and reads the JSON object
on the last line of standard output.  Set-up time runs from the top of this
file to the end of the untimed warm-up pass.  Set-up and measuring processes
sample the core's speed (``speed.py``) and report every time both as measured
and in reference seconds; traced processes do not sample.
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import speed  # noqa: E402
import workloads  # noqa: E402
from child import MARK  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Spans of traced runs are written here, one file per traced process.
SPANS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
CHILD_TIMEOUT_S = 120
PROBES = 3
MAX_PROBLEMS = 20


@dataclass
class PassResult:
    """One pass over a workload's cases: timings, report texts and gate results."""

    wall_s: float = 0.0
    scenario_s: list[float] = field(default_factory=list)
    # the same times in reference seconds (speed.py), when the speed is sampled
    scaled_s: list[float] = field(default_factory=list)
    texts: list[str | None] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    # False when a report differs from the stored report of its input
    identical: bool = True
    trace: list[dict] = field(default_factory=list)


class InProcess:
    """Runs scenario texts through finivar in this process."""

    def __init__(self, cold: bool = False, sampler: speed.Sampler | None = None) -> None:
        from finivar import runner, scenario, subgroups

        # modules, not functions: a traced pass must find the traced names
        self.runner, self.scenario = runner, scenario
        # kept before any tracing so the cold census can always clear the cache
        self.classes = subgroups.subgroup_conjugacy_classes
        # cold: clear the subgroup-class cache before every scenario
        self.cold, self.sampler = cold, sampler

    def run_pass(self, cases: list) -> PassResult:
        out = PassResult()
        clock = time.perf_counter
        intervals = []
        for case in cases:
            if self.cold:
                self.classes.cache_clear()
            started = clock()
            try:
                scenario = self.scenario.loads(case.text)
                text = self.runner.run_scenario(scenario).to_json()
            except Exception as exc:  # counted as failed checks, not fatal
                text = None
                error = f"{case.name}: {type(exc).__name__}: {exc}"
            ended = clock()
            intervals.append((started, ended))
            out.scenario_s.append(ended - started)
            out.wall_s += ended - started
            out.texts.append(text)
            out.attempted += len(case.checks)
            if text is None:
                problems = [error] * len(case.checks)
            else:
                differs = workloads.digest_mismatch(case, text)
                out.identical = out.identical and not differs
                problems = workloads.mismatches(case, json.loads(text)) + differs
            out.failed += len(problems)
            out.problems += problems
        if self.sampler is not None:
            out.scaled_s = [self.sampler.scaled(a, b) for a, b in intervals]
        return out


class Subprocesses:
    """Runs each built-in as its own ``child.py`` process, one after another.

    ``mode`` is the child's: ``measure`` children sample their core's speed
    and send it back, so their times can be scaled; ``plain`` and ``trace``
    children differ only by tracing.
    """

    def __init__(self, mode: str) -> None:
        self.mode = mode

    def run_pass(self, cases: list) -> PassResult:
        out = PassResult()
        clock = time.perf_counter
        for case in cases:
            started = clock()
            proc = subprocess.run(
                [sys.executable, CHILD, case.text, self.mode],
                capture_output=True,
                text=True,
                cwd=ROOT,
                timeout=CHILD_TIMEOUT_S,
            )
            elapsed = clock() - started
            out.scenario_s.append(elapsed)
            out.wall_s += elapsed
            out.attempted += 1
            ok = proc.returncode == 0
            if ok:
                try:
                    json.loads(proc.stdout)
                except ValueError:
                    ok = False
            out.texts.append(proc.stdout if ok else None)
            if not ok:
                out.failed += 1
                out.problems.append(
                    f"{case.name}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
                )
            summaries = [
                json.loads(line[len(MARK) :])
                for line in proc.stderr.splitlines()
                if line.startswith(MARK)
            ]
            if self.mode == "trace":
                out.trace += summaries
            elif self.mode == "measure":
                # a child that sent no samples counts as failed above or here
                if summaries:
                    own, chunks = summaries[0]["own_s"], summaries[0]["chunks_s"]
                    out.scaled_s.append(speed.scale(elapsed - own, chunks))
                elif ok:
                    out.failed += 1
                    out.problems.append(f"{case.name}: the child sent no speed samples")
        return out


def _runner(workload: str, sampler: speed.Sampler | None):
    if workload == "cli":
        return Subprocesses("plain" if sampler is None else "measure")
    return InProcess(cold=workload == "census", sampler=sampler)


@dataclass
class Setup:
    runner: InProcess | Subprocesses
    cases: list
    warm: PassResult
    setup_s: float
    # reference seconds; None when the speed is not sampled
    scaled_s: float | None


def _setup(workload: str, seed: int, sampler: speed.Sampler | None) -> Setup:
    """Import, generate and warm up."""
    runner = _runner(workload, sampler)
    cases = workloads.generate(workload, seed)
    warm_started = time.perf_counter()
    warm = runner.run_pass(workloads.warmup(workload, seed))
    setup_s = time.perf_counter() - _STARTED
    scaled = None
    if sampler is not None:
        scaled = sampler.scaled(_STARTED, warm_started) + sum(warm.scaled_s)
    return Setup(runner, cases, warm, setup_s, scaled)


def _differences(reference: list, texts: list, cases: list) -> list[str]:
    return [
        f"{case.name}: report differs between two runs of the same input"
        for case, a, b in zip(cases, reference, texts)
        if a is not None and b is not None and a != b
    ]


def _peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def environment() -> dict:
    import platform

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        # run.py pins every BLAS library to this many threads before NumPy loads
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")) or None,
    }


def measure(workload: str, seed: int, seconds: float, sampler: speed.Sampler) -> dict:
    setup = _setup(workload, seed, sampler)
    warm, cases = setup.warm, setup.cases
    passes = [setup.runner.run_pass(cases) for _ in range(workloads.passes(workload, seconds))]
    problems = list(warm.problems)
    identical = warm.identical
    for p in passes:
        # every report must equal the warm-up's report of the same input (the
        # census warms on a smaller input; its reports have stored digests)
        diffs = [] if workload == "census" else _differences(warm.texts, p.texts, cases)
        identical = identical and p.identical and not diffs
        p.failed += len(diffs)
        problems += p.problems + diffs
    return {
        "setup_s": setup.setup_s,
        "setup_scaled_s": setup.scaled_s,
        "walls_s": [p.wall_s for p in passes],
        "walls_scaled_s": [sum(p.scaled_s) for p in passes],
        "scenario_s": [t for p in passes for t in p.scenario_s],
        "scenario_scaled_s": [t for p in passes for t in p.scaled_s],
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "warmup_failed": warm.failed,
        "identical": identical,
        "problems": problems[:MAX_PROBLEMS],
        "peak_rss_mb": _peak_rss_mb(workload),
        "environment": environment(),
    }


def _python(code: str) -> tuple[float, str]:
    """Wall time and output of a fresh ``python -c CODE``."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return time.perf_counter() - started, proc.stdout


def cli_probes() -> dict[str, float]:
    """Import time of finivar.cli in a fresh process, and a bare interpreter as control."""
    code = "import time; t = time.perf_counter(); import finivar.cli; print(time.perf_counter() - t)"
    imports = [float(_python(code)[1]) for _ in range(PROBES)]
    bare = [_python("pass")[0] for _ in range(PROBES)]
    return {"cli.import_s": statistics.median(imports), "cli.interpreter_s": statistics.median(bare)}


def trace(workload: str, seed: int) -> dict:
    import tracer

    setup = _setup(workload, seed, None)
    runner, cases, warm = setup.runner, setup.cases, setup.warm
    if workload == "cli":
        plain = runner.run_pass(cases)
        traced = Subprocesses("trace").run_pass(cases)
        summary = tracer.merge(traced.trace)
    else:
        import finivar.cli  # noqa: F401  (every traced module is loaded)

        plain = runner.run_pass(cases)
        recorder = tracer.Tracer()
        recorder.install()
        try:
            traced = runner.run_pass(cases)
        finally:
            recorder.uninstall()
        summary = recorder.summary()
        recorder.write(os.path.join(SPANS_DIR, f"{workload}-{seed}.jsonl"))
    metrics = {k: v for k, (v, _) in tracer.layer_metrics(summary).items()}
    problems = warm.problems + plain.problems + traced.problems
    failed = plain.failed + traced.failed
    diffs = _differences(plain.texts, traced.texts, cases)
    problems += diffs
    failed += len(diffs)
    attempted = plain.attempted + traced.attempted
    if workload == "census":
        # S_5 classes are not part of any census; time them cold from here.
        runner.classes.cache_clear()
        started = time.perf_counter()
        count = len(runner.classes(5))
        metrics["subgroups.classes_s.n5"] = time.perf_counter() - started
        attempted += 1
        if count != workloads.SUBGROUP_CLASSES_S5:
            failed += 1
            problems.append(f"S_5 has {count} subgroup classes, expected 19")
    metrics.update(cli_probes())
    metrics["trace.overhead_s"] = traced.wall_s - plain.wall_s
    metrics["trace.overhead_ratio"] = (traced.wall_s - plain.wall_s) / plain.wall_s
    return {
        "setup_s": setup.setup_s,
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "warmup_failed": warm.failed,
        "identical": warm.identical and plain.identical and traced.identical and not diffs,
        "problems": problems[:MAX_PROBLEMS],
        "environment": environment(),
    }


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "trace":
        result = trace(workload, seed)
    elif mode in ("setup", "measure"):
        sampler = speed.Sampler()
        sampler.start()
        try:
            if mode == "setup":
                setup = _setup(workload, seed, sampler)
                result = {"setup_s": setup.setup_s, "setup_scaled_s": setup.scaled_s}
            else:
                result = measure(workload, seed, float(argv[3]), sampler)
        finally:
            sampler.stop()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
