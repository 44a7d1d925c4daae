"""Print one SHA-256 per report of a fixed corpus, to compare two checkouts.

The corpus is 337 reports: the six built-ins at the default ``--max-n`` and
at 4, and the ``operators`` cases of the benchmark's seeds 1-20, each at
``--tolerance-scale`` 1, 1e-6 and 1e3, and the benchmark's ``max-n 6``
census, which runs the subgroup kernel on every S_n up to six points.  A
change meant to keep every report byte-identical prints the same lines as
its parent:

    python tests/report_corpus.py > new.txt
    python tests/report_corpus.py PARENT_CHECKOUT > old.txt
    diff old.txt new.txt

finivar is imported from ``CHECKOUT/src`` (by default this checkout's), the
scenario generators from this checkout's ``perfbench/workloads.py``, loaded
by path.  Pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SCALES = (1.0, 1e-6, 1e3)
SEEDS = range(1, 21)


def workloads():
    path = HERE / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def corpus():
    """Each report's label, scenario text and run flags, in a fixed order."""
    from finivar.builtins import builtin_names, builtin_text
    from finivar.runner import RunFlags

    for name in builtin_names():
        for max_n in (None, 4):
            for scale in SCALES:
                flags = RunFlags(tolerance_scale=scale, max_n=max_n)
                yield f"{name} max-n={max_n} scale={scale:g}", builtin_text(name), flags
    benchmark = workloads()
    for seed in SEEDS:
        for case in benchmark.generate("operators", seed):
            for scale in SCALES:
                flags = RunFlags(tolerance_scale=scale)
                yield f"seed-{seed} {case.name} scale={scale:g}", case.text, flags
    census = benchmark.census_case()
    yield census.name, census.text, RunFlags()


def main(argv: list[str]) -> None:
    checkout = Path(argv[1]).resolve() if len(argv) > 1 else HERE
    sys.path.insert(0, str(checkout / "src"))
    from finivar.runner import run_scenario
    from finivar.scenario import loads

    for label, text, flags in corpus():
        report = run_scenario(loads(text), flags).to_json()
        print(hashlib.sha256(report.encode("utf-8")).hexdigest(), label)


if __name__ == "__main__":
    main(sys.argv)
