"""Command-line interface: run scenarios, list and emit built-ins, selftest.

Exit codes: 0 when every check passes (or is informational / not applicable),
1 when any check fails or errors, 2 for unusable input such as a malformed
scenario file.
"""

from __future__ import annotations

import math
import os
import sys

import click

# representations and spin load here although the library loads them on first
# use: perfbench's tracer patches every module right after this import.
from . import representations, spin  # noqa: F401
from .builtins import BUILTINS, builtin_text, load_builtin
from .report import VerificationReport
from .runner import RunFlags, run_scenario
from .scenario import ScenarioError, load_path
from .subgroups import MAX_EXACT_DEGREE

__all__ = ["main"]


def _positive_scale(ctx: click.Context, param: click.Parameter, value: float) -> float:
    if not (value > 0 and math.isfinite(value)):
        raise click.BadParameter("must be positive and finite")
    return value


def _output_path(ctx: click.Context, param: click.Parameter, value: str | None) -> str | None:
    """A file to write, refused before any work when its directory is missing."""
    if value not in (None, "-") and not os.path.isdir(os.path.dirname(value) or "."):
        raise click.BadParameter(f"directory {os.path.dirname(value)!r} does not exist")
    return value


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _execute(source: str, flags: RunFlags) -> VerificationReport:
    """Load a built-in name or a scenario file path, and run it.

    Built-in names take precedence; prefix with ``./`` to force a file that
    happens to share a name.  Unusable input is a usage error (exit 2).
    """
    try:
        return run_scenario(load_builtin(source) if source in BUILTINS else load_path(source), flags)
    except ScenarioError as exc:
        raise click.UsageError(str(exc)) from None


@click.group()
def main() -> None:
    """Finite-scale verification of conceptual-variable models."""


@main.command()
@click.argument("scenario")
@click.option(
    "--report",
    "report_path",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    callback=_output_path,
    help="Write the JSON report here ('-' prints it to stdout).",
)
@click.option(
    "--tolerance-scale",
    type=float,
    default=1.0,
    show_default=True,
    callback=_positive_scale,
    help="Multiply every resolved tolerance by this factor.",
)
@click.option(
    "--max-n",
    type=click.IntRange(1, MAX_EXACT_DEGREE),
    default=None,
    help="Override the point-count bound of any exhaustive-falsifier check.",
)
def run(
    scenario: str,
    report_path: str | None,
    tolerance_scale: float,
    max_n: int | None,
) -> None:
    """Run SCENARIO (a built-in name or a YAML file) and report each check."""
    flags = RunFlags(tolerance_scale=tolerance_scale, max_n=max_n)
    report = _execute(scenario, flags)
    if report_path == "-":
        click.echo(report.to_json(), nl=False)
    else:
        click.echo(report.to_text(), nl=False)
        if report_path is not None:
            _write(report_path, report.to_json())
            click.echo(f"report written to {report_path}")
    sys.exit(report.exit_code)


@main.command("list")
def list_builtins() -> None:
    """List the built-in scenarios."""
    for name in BUILTINS:
        first_comment = next(
            (
                line.lstrip("# ").rstrip()
                for line in builtin_text(name).splitlines()
                if line.startswith("#")
            ),
            "",
        )
        click.echo(f"{name}: {first_comment}" if first_comment else name)


@main.command()
@click.argument("name")
@click.option(
    "--output",
    type=click.Path(dir_okay=False, writable=True),
    default=None,
    callback=_output_path,
    help="Write the scenario file here instead of stdout.",
)
def emit(name: str, output: str | None) -> None:
    """Print a built-in scenario file, ready to edit and re-run."""
    if name not in BUILTINS:
        raise click.UsageError(
            f"unknown built-in {name!r}; choices: {', '.join(BUILTINS)}"
        )
    text = builtin_text(name)
    if output in (None, "-"):
        click.echo(text, nl=False)
    else:
        _write(output, text)
        click.echo(f"scenario written to {output}")


@main.command()
def selftest() -> None:
    """Run every built-in scenario and require a clean exit from each."""
    failed = []
    for name in BUILTINS:
        report = _execute(name, RunFlags())
        counts = report.summary()
        shown = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
        verdict = "ok" if report.exit_code == 0 else "FAILED"
        click.echo(f"{name}: {verdict} ({shown})")
        if report.exit_code != 0:
            failed.append(name)
    if failed:
        click.echo(f"selftest failed: {', '.join(failed)}")
        sys.exit(1)
    click.echo(f"selftest passed: {len(BUILTINS)} scenarios clean")


if __name__ == "__main__":
    main()
