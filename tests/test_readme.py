"""The README's Library section documents exactly the package's public names,
its check-type table lists exactly the check types and cites only tests that
exist, and its scenario file example loads."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import finivar
from finivar.runner import run_scenario
from finivar.scenario import CHECK_TYPES, loads

README = Path(__file__).resolve().parent.parent / "README.md"
TESTS = Path(__file__).resolve().parent


def library_section():
    text = README.read_text(encoding="utf-8")
    return text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def library_block():
    return re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)


def test_library_imports_are_public_names():
    tree = ast.parse(library_block())
    imported = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "finivar"
        for alias in node.names
    ]
    assert imported
    assert sorted(set(imported) - set(finivar.__all__)) == []


def test_every_public_name_is_in_the_library_section():
    section = library_section()
    missing = [name for name in finivar.__all__ if not re.search(rf"\b{re.escape(name)}\b", section)]
    assert missing == []


def test_library_example_runs():
    exec(compile(library_block(), str(README), "exec"), {})


def check_type_table():
    text = README.read_text(encoding="utf-8")
    return text.split("\nCheck types:\n", 1)[1].split("\n\n", 1)[0]


def test_the_check_type_table_lists_every_check_type():
    listed = re.findall(r"^\| `([a-z0-9-]+)` \|", check_type_table(), re.M)
    assert listed == list(CHECK_TYPES)


def test_every_test_the_check_type_table_cites_exists():
    cited = set(re.findall(r"`(test_\w+)`", check_type_table()))
    defined = {
        node.name
        for path in TESTS.glob("test_*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
    }
    assert len(cited) >= 5
    assert sorted(cited - defined) == []


def test_the_scenario_file_example_loads_and_passes():
    section = README.read_text(encoding="utf-8").split("\n## Scenario files\n", 1)[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    report = run_scenario(loads(example))
    assert [check.status for check in report.checks] == ["pass"]
