"""Which lines of ``src/finivar`` the report corpus, the commands and the tests reach.

    python tests/reach.py           # the corpus and the commands
    python tests/reach.py --tests   # then Tier-1 as well, 2.5-3 min on 2 vCPUs

A line tracer (``sys.settrace`` and ``threading.settrace``) records each line
of ``src/finivar`` run in this process: first while ``report_corpus`` writes
its 400 reports and ``cli.main`` runs every command (``run``, ``run --report
-`` and ``emit`` per built-in, ``list``, ``selftest``, help and usage
errors), then, with ``--tests``, while ``pytest.main`` runs Tier-1.  Per
module it prints the executable lines (docstrings excluded), those the corpus
and commands reach, those only the tests reach and those nothing reaches,
then each tests-only line that is not a refusal (a ``raise``, an
``except`` whose body ends in one, or a call statement to a ``src/finivar``
function annotated ``-> NoReturn``).

It reports reach, not pass or fail: the tests run in this process under the
tracer, slower and beside its frames, so run Tier-1 on its own for a verdict.
Lines reached only in the subprocesses some tests start show as unreached,
such as ``cli.main``'s ``BrokenPipeError`` exit.  Pytest does not collect this file.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
import threading
from pathlib import Path

import pytest
import report_corpus

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "finivar"
USAGE_ERRORS = [
    ["bogus"], ["--hepl"], ["--help=x"], ["run"], ["run", "qubit", "extra"],
    ["run", "qubit", "--rep", "-"], ["run", "qubit", "--report"], ["run", "qubit", "--max-n", "9"],
    ["run", "qubit", "--tolerance-scale", "0"], ["run", "no-such-file.json"], ["emit", "nope"],
]


def never_returning() -> set[str]:
    """The names of the ``src/finivar`` functions annotated ``-> NoReturn``."""
    return {
        node.name
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef) and getattr(node.returns, "id", None) == "NoReturn"
    }


def lines_of(path: Path, refusing: set[str]) -> tuple[set[int], set[int]]:
    """The executable lines of ``path``, docstrings excluded, and its refusal
    lines, a call statement to a function named in ``refusing`` among them."""
    source = path.read_text(encoding="utf-8")
    executable, codes = set(), [compile(source, str(path), "exec")]
    for code in codes:  # grows while it is scanned
        executable.update(line for _, _, line in code.co_lines() if line)
        codes += [const for const in code.co_consts if hasattr(const, "co_lines")]
    refusals = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node):
            doc = node.body[0]
            executable -= set(range(doc.lineno, doc.end_lineno + 1))
        if isinstance(node, ast.Raise):
            refusals.update(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.ExceptHandler) and isinstance(node.body[-1], ast.Raise):
            refusals.add(node.lineno)
        elif isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            called = node.value.func
            if getattr(called, "id", getattr(called, "attr", None)) in refusing:
                refusals.update(range(node.lineno, node.end_lineno + 1))
    return executable, refusals


def tracer(hits: set[tuple[str, int]]):
    """Adds (file, line) to ``hits`` for each line a ``src/finivar`` frame runs, and its first."""

    def line(frame, event, arg):
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):  # the global trace function, called once per frame
        code = frame.f_code
        if not code.co_filename.startswith(str(SRC)):
            return None
        hits.add((code.co_filename, code.co_firstlineno))
        return line

    return call


def run_commands(tmp: str) -> None:
    from finivar.builtins import BUILTINS
    from finivar.cli import COMMANDS, main

    words = [[], ["--help"], *([name, "--help"] for name in COMMANDS), ["list"], ["selftest"]]
    for name in BUILTINS:
        words += [["run", name], ["run", name, "--report", "-"], ["emit", name]]
    words += [["run", "a2-smoke", "--report", f"{tmp}/r.json"], ["emit", "qubit", "--output", f"{tmp}/s"]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        for args in words + USAGE_ERRORS:
            with contextlib.suppress(SystemExit):
                main(args, prog_name="finivar")


def main(argv: list[str]) -> None:
    hits: set[tuple[str, int]] = set()
    sys.settrace(tracer(hits))
    threading.settrace(tracer(hits))
    try:
        report_corpus.reports(TESTS.parent, report_corpus.written())
        with tempfile.TemporaryDirectory() as tmp:
            run_commands(tmp)
        ran = set(hits)
        if "--tests" in argv:
            pytest.main(["-q", "-p", "no:cacheprovider", str(TESTS)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    rows, notes = [("module", "executable", "run", "tests-only", "unreached")], []
    refusing = never_returning()
    for path in sorted(SRC.glob("*.py")):
        executable, refusals = lines_of(path, refusing)
        reached = {line for name, line in ran if Path(name) == path} & executable
        tested = {line for name, line in hits if Path(name) == path} & executable
        rows.append((path.stem, len(executable), len(reached), len(tested - reached), len(executable - tested)))
        text = path.read_text(encoding="utf-8").splitlines()
        notes += [f"  {path.stem}:{n}: {text[n - 1].strip()}" for n in sorted(tested - reached - refusals)]
    rows.append(("total", *map(sum, zip(*(row[1:] for row in rows[1:])))))
    for row in rows:
        print(f"{row[0]:<18}" + "".join(f"{value:>12}" for value in row[1:]))
    print("tests-only lines that are not refusals:", *notes, sep="\n")

if __name__ == "__main__":
    main(sys.argv[1:])
