"""Spans around calls into finivar's modules, recorded from outside them.

The tracer replaces a public function at every name under which finivar code
looks it up (``finivar.harness.are_related`` and ``finivar.groups.are_related``
are the same function bound in two modules), so calls made from inside the
program are seen too.  ``uninstall`` puts every original back.  Spans
(name, start, end, parent) stay in memory until the traced pass ends; the
per-layer metrics are derived from them afterwards.

Functions called millions of times per census (``canonical_partition``) are
counted, not spanned, so the trace stays small and cheap.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable

LAYERS = (
    "spaces",
    "groups",
    "subgroups",
    "harness",
    "linalg",
    "representations",
    "spin",
    "scenario",
    "runner",
    "report",
    "builtins",
    "cli",
)

CHECK_TYPES = (
    "permissibility",
    "induced-group",
    "theorem1-hypotheses",
    "theorem2",
    "eq1-expansion",
    "singlet-delta",
    "a1-search",
    "a2-classify",
    "a2-falsify",
)


@dataclass(frozen=True)
class Target:
    """One traced callable: where it is defined and the span name it gets.

    ``attr`` is ``"func"`` or ``"Class.method"``.  ``name`` may depend on the
    call's arguments; ``on_result`` sees each result and updates counters.
    """

    module: str
    attr: str
    name: str | Callable[..., str]
    on_result: Callable[[Counter, Any], None] | None = None
    count_only: bool = False


def _classes_name(n, *args, **kwargs) -> str:
    return f"subgroups.classes_s.n{n}"


def _on_classes(counts: Counter, result) -> None:
    counts["subgroups.classes_found"] += len(result)


def _on_related(counts: Counter, result) -> None:
    counts["groups.are_related_hits"] += result is not None


def _on_generate(counts: Counter, result) -> None:
    counts["groups.elements_built"] += result.order


def _on_json(counts: Counter, result) -> None:
    counts["report.json_bytes"] += len(result.encode("utf-8"))


def _on_run(counts: Counter, result) -> None:
    for record in result.checks:
        counts[f"runner.check_ms.{record.type}"] += record.elapsed_ms


TARGETS = (
    Target("finivar.spaces", "maximal_accessible", "spaces.maximal_accessible"),
    Target("finivar.spaces", "canonical_partition", "spaces.canonical_partition", count_only=True),
    Target("finivar.groups", "PermutationGroup.generate", "groups.generate", _on_generate),
    Target("finivar.groups", "is_permissible", "groups.is_permissible"),
    Target("finivar.groups", "induced_group", "groups.induced_group"),
    Target("finivar.groups", "GroupHomomorphism.verify", "groups.hom_verify"),
    Target("finivar.groups", "are_related", "groups.are_related", _on_related),
    Target("finivar.subgroups", "subgroup_conjugacy_classes", _classes_name, _on_classes),
    Target("finivar.subgroups", "close_tuples", "subgroups.close"),
    Target("finivar.harness", "classify_thoughts", "harness.classify"),
    Target("finivar.harness", "exhaustive_falsifier", "harness.falsifier"),
    Target("finivar.linalg", "eigh", "linalg.eigh"),
    Target("finivar.representations", "build_operator", "representations.build_operator"),
    Target("finivar.representations", "check_coherent_injectivity", "representations.injectivity"),
    Target("finivar.representations", "conjugation_check", "representations.conjugation_check"),
    Target("finivar.representations", "commutant_diagnostic", "representations.commutant"),
    Target("finivar.representations", "UnitaryRep.diagnostics", "representations.rep_diagnostics"),
    Target("finivar.representations", "expand_in_basis", "representations.expand"),
    Target("finivar.spin", "delta_operator", "spin.delta_operator"),
    Target("finivar.spin", "anticorrelation_residual", "spin.anticorrelation"),
    Target("finivar.scenario", "loads", "scenario.loads"),
    Target("finivar.runner", "run_scenario", "runner.run_scenario", _on_run),
    Target("finivar.report", "VerificationReport.to_json", "report.to_json", _on_json),
    Target("finivar.builtins", "load_builtin", "builtins.load_builtin"),
)


class Tracer:
    """Records spans and counts for the targets while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def _span_wrapper(self, fn: Callable, target: Target) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter
        name, on_result = target.name, target.on_result

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (label, start, clock(), parent)
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result

        return traced

    def _count_wrapper(self, fn: Callable, target: Target) -> Callable:
        counts, key = self.counts, f"{target.name}_calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def region(self, label: str):
        """A span around a block of the caller's own code, parent of the calls in it."""
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans[index] = (label, start, time.perf_counter(), parent)
            self._stack.pop()

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        for target in TARGETS:
            module = sys.modules[target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(raw.__func__, target))
                else:
                    wrapped = self._wrap(raw, target)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            original = getattr(module, target.attr)
            wrapped = self._wrap(original, target)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "finivar" and not mod_name.startswith("finivar."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        if target.count_only:
            return self._count_wrapper(fn, target)
        return self._span_wrapper(fn, target)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Write the spans, one ``[name, start, end, parent]`` list per line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                if span is not None:
                    out.write(json.dumps(span) + "\n")

    # -- summary ---------------------------------------------------------------

    def summary(self) -> dict:
        """Busy time and call count per span name, self time per layer, counts.

        Busy time adds up the spans of a name that have no ancestor of the
        same name, so a recursive call is not counted twice.  Self time is a
        span's duration minus the time its child spans cover.
        """
        spans = [s for s in self.spans if s is not None]
        busy: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time = [0.0] * len(spans)
        for label, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for index, (label, start, end, parent) in enumerate(spans):
            calls[label] += 1
            ancestor, nested = parent, False
            while ancestor >= 0:
                if spans[ancestor][0] == label:
                    nested = True
                    break
                ancestor = spans[ancestor][3]
            if not nested:
                busy[label] += end - start
            self_time[label.split(".")[0]] += (end - start) - child_time[index]
        return {
            "busy_s": dict(busy),
            "calls": dict(calls),
            "self_s": dict(self_time),
            "counts": dict(self.counts),
            "spans": len(spans),
        }


def merge(summaries: list[dict]) -> dict:
    """Add up the summaries of several traced processes."""
    out = {"busy_s": Counter(), "calls": Counter(), "self_s": Counter(), "counts": Counter(), "spans": 0}
    for s in summaries:
        for key in ("busy_s", "calls", "self_s", "counts"):
            out[key].update(s[key])
        out["spans"] += s["spans"]
    return {k: (dict(v) if isinstance(v, Counter) else v) for k, v in out.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, with their units."""
    busy, calls, counts = summary["busy_s"], summary["calls"], summary["counts"]
    out: dict[str, tuple[float, str]] = {}

    def timed(name: str, span: str, with_calls: bool = False) -> None:
        out[f"{name}_s"] = (busy.get(span, 0.0), "s")
        if with_calls:
            out[f"{name}_calls"] = (float(calls.get(span, 0)), "count")

    for n in (4, 5, 6):
        out[f"subgroups.classes_s.n{n}"] = (busy.get(f"subgroups.classes_s.n{n}", 0.0), "s")
    timed("subgroups.close", "subgroups.close", with_calls=True)
    out["subgroups.join_useful_ratio"] = (
        _ratio(counts.get("subgroups.classes_found", 0), calls.get("subgroups.close", 0)),
        "ratio",
    )
    timed("harness.classify", "harness.classify", with_calls=True)
    timed("harness.falsifier", "harness.falsifier")
    timed("groups.are_related", "groups.are_related", with_calls=True)
    out["groups.are_related_hit_ratio"] = (
        _ratio(counts.get("groups.are_related_hits", 0), calls.get("groups.are_related", 0)),
        "ratio",
    )
    timed("spaces.maximal_accessible", "spaces.maximal_accessible", with_calls=True)
    out["spaces.canonical_partition_calls"] = (
        float(counts.get("spaces.canonical_partition_calls", 0)),
        "count",
    )
    timed("groups.generate", "groups.generate", with_calls=True)
    out["groups.elements_built"] = (float(counts.get("groups.elements_built", 0)), "count")
    timed("scenario.loads", "scenario.loads")
    timed("groups.is_permissible", "groups.is_permissible", with_calls=True)
    timed("groups.induced_group", "groups.induced_group")
    timed("groups.hom_verify", "groups.hom_verify")
    timed("representations.build_operator", "representations.build_operator", with_calls=True)
    timed("representations.injectivity", "representations.injectivity", with_calls=True)
    timed("representations.conjugation_check", "representations.conjugation_check")
    timed("representations.commutant", "representations.commutant")
    timed("representations.rep_diagnostics", "representations.rep_diagnostics")
    timed("representations.expand", "representations.expand")
    timed("linalg.eigh", "linalg.eigh", with_calls=True)
    timed("runner.run_scenario", "runner.run_scenario")
    for check in CHECK_TYPES:
        out[f"runner.check_ms.{check}"] = (counts.get(f"runner.check_ms.{check}", 0.0), "ms")
    timed("report.to_json", "report.to_json")
    out["report.json_bytes"] = (float(counts.get("report.json_bytes", 0)), "bytes")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (summary["self_s"].get(layer, 0.0), "s")
    out["trace.spans"] = (float(summary["spans"]), "count")
    return out


# Per-layer metrics the traced run measures outside the tracer.
PROBE_UNITS = {
    "cli.import_s": "s",
    "cli.interpreter_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


def units() -> dict[str, str]:
    """Name and unit of every per-layer metric."""
    out = {k: u for k, (_, u) in layer_metrics(merge([])).items()}
    out.update(PROBE_UNITS)
    return out
