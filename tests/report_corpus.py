"""Print one SHA-256 per report of a fixed corpus, or what moved between two checkouts.

The corpus is 400 reports: the six built-ins at the default ``--max-n`` and
at 4; the ``operators`` cases of the benchmark's seeds 1-20, the six
``kind: explicit`` cases of ``tests/test_runner.py`` (``cyclic-4`` and an
``operators`` case written out as matrices, plain, as a ray representation
and in another basis) and its 15 ``operator_sweep_text`` scenarios, each at
``--tolerance-scale`` 1, 1e-6 and 1e3; and the benchmark's ``max-n 6``
census, which runs the subgroup kernel on every S_n up to six points.  A
change meant to keep every report byte-identical prints the same lines as
its parent:

    python tests/report_corpus.py > new.txt
    python tests/report_corpus.py PARENT_CHECKOUT > old.txt
    diff old.txt new.txt

``--diff`` says what moved instead, and prints nothing when no report moved:

    python tests/report_corpus.py --diff PARENT_CHECKOUT [CHECKOUT]

It loads each report's JSON tree from both checkouts and prints, per scale,
check type and JSON path (list indices written ``[]``), how many values
moved and the largest |Δ| of the numbers among them, every status that moved
with its report and check, and every key added or removed.  Paths outside
the checks are listed under the type ``(report)``.

finivar is imported from ``CHECKOUT/src`` (by default this checkout's).  The
built-ins are each checkout's own; every other scenario text is written once,
by this checkout's tests and ``perfbench/workloads.py`` with this checkout's
finivar, so both checkouts run the same bytes.  Pytest does not collect this
file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SCALES = (1.0, 1e-6, 1e3)
SEEDS = range(1, 21)


@contextmanager
def finivar_from(checkout: Path):
    """finivar imported from ``checkout``'s src; the finivar of any other
    checkout imported before is dropped first."""
    src = str(checkout / "src")
    loaded = sys.modules.get("finivar")
    if loaded is None or Path(loaded.__file__).resolve().parent.parent != Path(src).resolve():
        for name in [name for name in sys.modules if name.split(".")[0] == "finivar"]:
            del sys.modules[name]
    sys.path.insert(0, src)
    try:
        import finivar

        if Path(finivar.__file__).resolve().parent.parent != Path(src).resolve():
            raise SystemExit(f"{checkout}: no finivar in its src, found {finivar.__file__}")
        yield
    finally:
        sys.path.remove(src)


def written() -> tuple[list[tuple[str, str]], tuple[str, str]]:
    """The label and text of each scenario the corpus runs at every scale but
    the built-ins, in a fixed order, and those of the census."""
    with finivar_from(HERE):
        from test_runner import OPERATOR_SWEEP_SIZES, explicit_cases, operator_sweep_text
        from test_scenario_cli import perfbench_workloads

        benchmark = perfbench_workloads()
        cases = [
            (f"seed-{seed} {case.name}", case.text)
            for seed in SEEDS
            for case in benchmark.generate("operators", seed)
        ]
        cases += [(f"explicit {name}", text) for name, text in explicit_cases().items()]
        cases += [(f"sweep-{n}", operator_sweep_text(n)) for n in OPERATOR_SWEEP_SIZES]
        census = benchmark.census_case()
        return cases, (census.name, census.text)


def reports(checkout: Path, scenarios: tuple) -> list[tuple[str, str]]:
    """Each report's label and JSON as finivar in ``checkout`` writes it, the
    ``written()`` scenarios among them."""
    cases, (census, census_text) = scenarios
    with finivar_from(checkout):
        from finivar.builtins import builtin_names, builtin_text
        from finivar.runner import RunFlags, run_scenario
        from finivar.scenario import loads

        out = []
        for name in builtin_names():
            for max_n in (None, 4):
                for scale in SCALES:
                    report = run_scenario(
                        loads(builtin_text(name)), RunFlags(tolerance_scale=scale, max_n=max_n)
                    )
                    out.append((f"{name} max-n={max_n} scale={scale:g}", report.to_json()))
        for label, text in cases:
            for scale in SCALES:
                report = run_scenario(loads(text), RunFlags(tolerance_scale=scale))
                out.append((f"{label} scale={scale:g}", report.to_json()))
        out.append((census, run_scenario(loads(census_text), RunFlags()).to_json()))
        return out


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ReportDiff:
    """What moved between two sets of reports, grouped by (scale, check type, path)."""

    def __init__(self) -> None:
        self.moved: dict[tuple[str, str, str], list] = {}  # [count, largest |Δ| or None]
        self.keys: dict[tuple[str, str, str, str], int] = {}  # (..., "added"/"removed") -> count
        self.statuses: list[tuple[str, str, str, str, str, str]] = []
        self.reports: list[str] = []

    def add(self, label: str, old: dict, new: dict) -> None:
        """Compare one report's JSON trees, read with ``json.loads``; both are consumed."""
        scale = f"scale={new['flags']['tolerance_scale']:g}"
        old_checks, new_checks = old.pop("checks", []), new.pop("checks", [])
        self._walk((scale, "(report)"), old, new, "")
        for i in range(max(len(old_checks), len(new_checks))):
            if i >= len(new_checks) or i >= len(old_checks):
                side = "removed" if i >= len(new_checks) else "added"
                self._key((scale, "(report)"), "checks[]", side)
                continue
            a, b = old_checks[i], new_checks[i]
            group = (scale, b["type"])
            if a["status"] != b["status"]:
                self.statuses.append((scale, b["type"], label, b["name"], a["status"], b["status"]))
            self._walk(group, a, b, "")

    def _key(self, group: tuple[str, str], path: str, side: str) -> None:
        key = (*group, path, side)
        self.keys[key] = self.keys.get(key, 0) + 1

    def _walk(self, group: tuple[str, str], old, new, path: str) -> None:
        if isinstance(old, dict) and isinstance(new, dict):
            for key in {**old, **new}:
                sub = f"{path}.{key}" if path else str(key)
                if key not in new or key not in old:
                    self._key(group, sub, "removed" if key not in new else "added")
                else:
                    self._walk(group, old[key], new[key], sub)
        elif isinstance(old, list) and isinstance(new, list):
            for i in range(max(len(old), len(new))):
                if i >= len(new) or i >= len(old):
                    self._key(group, f"{path}[]", "removed" if i >= len(new) else "added")
                else:
                    self._walk(group, old[i], new[i], f"{path}[]")
        elif type(old) is not type(new) or old != new:
            entry = self.moved.setdefault((*group, path), [0, None])
            entry[0] += 1
            if _is_number(old) and _is_number(new):
                entry[1] = max(abs(new - old), entry[1] or 0.0)

    def lines(self) -> list[str]:
        """The summary, one line per group, sorted; empty when nothing moved."""
        out = list(self.reports)
        for (scale, kind, path), (count, delta) in sorted(self.moved.items()):
            largest = "" if delta is None else f", largest |Δ| {delta:.3g}"
            out.append(f"{scale} {kind} {path}: {count} moved{largest}")
            if path == "status":
                out += [
                    f"  {label} [{name}]: {old} -> {new}"
                    for s, k, label, name, old, new in self.statuses
                    if (s, k) == (scale, kind)
                ]
        for (scale, kind, path, side), count in sorted(self.keys.items()):
            out.append(f"{scale} {kind} {path}: {side} in {count}")
        return out


def diff(old: list[tuple[str, str]], new: list[tuple[str, str]]) -> list[str]:
    """The summary of what moved from the ``old`` reports to the ``new`` ones,
    matched by label."""
    result = ReportDiff()
    old_by_label, new_by_label = dict(old), dict(new)
    for label, text in new:
        if label not in old_by_label:
            result.reports.append(f"report added: {label}")
        elif old_by_label[label] != text:
            result.add(label, json.loads(old_by_label[label]), json.loads(text))
    result.reports += [f"report removed: {label}" for label, _ in old if label not in new_by_label]
    return result.lines()


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=HERE)
    parser.add_argument("--diff", metavar="PARENT_CHECKOUT", type=Path)
    args = parser.parse_args(argv[1:])
    checkout, scenarios = args.checkout.resolve(), written()
    if args.diff is not None:
        old = reports(args.diff.resolve(), scenarios)
        for line in diff(old, reports(checkout, scenarios)):
            print(line)
        return
    for label, report in reports(checkout, scenarios):
        print(hashlib.sha256(report.encode("utf-8")).hexdigest(), label)


if __name__ == "__main__":
    main(sys.argv)
