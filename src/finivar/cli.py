"""Command-line interface: run scenarios, list and emit built-ins, selftest.

Exit codes: 0 when every check passes (or is informational / not applicable),
1 when any check fails or errors, 2 for unusable input such as a malformed
scenario file or a bad option.  A usage error prints the command's usage line,
a hint and ``Error: <message>`` to standard error.

One pass over the words reads the command line (``_parse``): argparse's
import and first parse cost each fresh process about 3 ms.
"""

from __future__ import annotations

import atexit
import gc
import math
import os
import sys
from typing import Callable, NoReturn

# representations and spin load here although the library loads them on first
# use: perfbench's tracer patches every module right after this import.
from . import representations, spin  # noqa: F401
from ._record import Frozen
from .builtins import BUILTINS, builtin_text, load_builtin
from .report import VerificationReport
from .runner import RunFlags, run_scenario
from .scenario import ScenarioError, load_path
from .subgroups import MAX_EXACT_DEGREE

__all__ = ["main"]

_HELP_WIDTH = 78

# A user's setting of any of these wins over the one BLAS thread ``main`` asks for.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


class UsageError(Exception):
    """Unusable input: ``main`` prints the usage line and this message, and exits 2."""


def _scale(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid float.") from None
    if not (value > 0 and math.isfinite(value)):
        raise ValueError("must be positive and finite")
    return value


def _point_bound(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a valid integer range.") from None
    if not 1 <= value <= MAX_EXACT_DEGREE:
        raise ValueError(f"{value} is not in the range 1<=x<={MAX_EXACT_DEGREE}.")
    return value


def _output_path(text: str) -> str:
    """A file to write, refused before any work when it is empty, a directory,
    cannot be read or written, or its directory is missing; ``-`` is no file."""
    if text == "-":
        return text
    if not text:
        raise ValueError("the path is empty")
    if os.path.isdir(text):
        raise ValueError(f"File {text!r} is a directory.")
    for mode, able in ((os.R_OK, "readable"), (os.W_OK, "writable")):
        if os.path.exists(text) and not os.access(text, mode):
            raise ValueError(f"File {text!r} is not {able}.")
    if not os.path.isdir(os.path.dirname(text) or "."):
        raise ValueError(f"directory {os.path.dirname(text)!r} does not exist")
    return text


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _execute(source: str, flags: RunFlags) -> VerificationReport:
    """Load a built-in name or a scenario file path, and run it.

    Built-in names take precedence; prefix with ``./`` to force a file that
    happens to share a name.  Unusable input is a usage error (exit 2).
    """
    try:
        return run_scenario(load_builtin(source) if source in BUILTINS else load_path(source), flags)
    except ScenarioError as exc:
        raise UsageError(str(exc)) from None


def _run(scenario: str, report: str | None, tolerance_scale: float, max_n: int | None) -> int:
    """Run SCENARIO (a built-in name or a JSON scenario file) and report each check."""
    result = _execute(scenario, RunFlags(tolerance_scale=tolerance_scale, max_n=max_n))
    if report == "-":
        print(result.to_json(), end="", flush=True)
    else:
        print(result.to_text(), end="", flush=True)
        if report is not None:
            _write(report, result.to_json())
            print(f"report written to {report}", flush=True)
    return result.exit_code


def _list() -> int:
    """List the built-in scenarios."""
    for name in BUILTINS:
        summary = builtin_text(name).partition("\n")[0].lstrip("# ")  # a built-in's first line
        print(f"{name}: {summary}", flush=True)
    return 0


def _emit(name: str, output: str | None) -> int:
    """Print a built-in scenario file, ready to edit and re-run."""
    if name not in BUILTINS:
        raise UsageError(f"unknown built-in {name!r}; choices: {', '.join(BUILTINS)}")
    text = builtin_text(name)
    if output in (None, "-"):
        print(text, end="", flush=True)
    else:
        _write(output, text)
        print(f"scenario written to {output}", flush=True)
    return 0


def _selftest() -> int:
    """Run every built-in scenario and require a clean exit from each."""
    failed = []
    for name in BUILTINS:
        report = _execute(name, RunFlags())
        counts = report.summary()
        shown = ", ".join(f"{k}={v}" for k, v in counts.items() if v)
        verdict = "ok" if report.exit_code == 0 else "FAILED"
        print(f"{name}: {verdict} ({shown})", flush=True)
        if report.exit_code != 0:
            failed.append(name)
    if failed:
        print(f"selftest failed: {', '.join(failed)}", flush=True)
        return 1
    print(f"selftest passed: {len(BUILTINS)} scenarios clean", flush=True)
    return 0


class _Option(Frozen):
    flag: str  # "--max-n" passes the keyword max_n
    metavar: str
    help: str
    read: Callable[[str], object]  # converts and checks the text; ValueError refuses it
    default: object

    @property
    def dest(self) -> str:
        return self.flag[2:].replace("-", "_")


class _Command(Frozen):
    run: Callable[..., int]  # returns the exit code; its docstring is the help
    argument: str | None  # the one positional argument, named as in the help
    options: tuple[_Option, ...]


_REPORT_HELP = "Write the JSON report here ('-' prints it to stdout)."
_OUTPUT_HELP = "Write the scenario file here instead of stdout."
_SCALE_HELP = "Multiply every resolved tolerance by this factor.  [default: 1.0]"
_MAX_N_HELP = (
    f"Override the point-count bound of any exhaustive-falsifier check.  [1<=x<={MAX_EXACT_DEGREE}]"
)
COMMANDS = {
    "run": _Command(
        _run,
        "SCENARIO",
        (
            _Option("--report", "FILE", _REPORT_HELP, _output_path, None),
            _Option("--tolerance-scale", "FLOAT", _SCALE_HELP, _scale, 1.0),
            _Option("--max-n", "INTEGER RANGE", _MAX_N_HELP, _point_bound, None),
        ),
    ),
    "list": _Command(_list, None, ()),
    "emit": _Command(_emit, "NAME", (_Option("--output", "FILE", _OUTPUT_HELP, _output_path, None),)),
    "selftest": _Command(_selftest, None, ()),
}
_HELP_ROW = ("--help", "Show this message and exit.")


def _is_option(arg: str) -> bool:
    return len(arg) > 1 and arg.startswith("-")


def _no_such_option(arg: str, flags: list[str]) -> str:
    from difflib import get_close_matches  # here, off the start-up path of every run

    name = arg.split("=", 1)[0]
    close = [repr(flag) for flag in sorted(get_close_matches(name, flags))]
    if len(close) > 1:
        return f"No such option {name!r}. (Did you mean one of: {', '.join(close)}?)"
    return f"No such option {name!r}." + (f" Did you mean {close[0]}?" if close else "")


def _refuse_help_value(value: str) -> NoReturn:
    raise UsageError(f"argument --help: ignored explicit argument {value!r}")


def _parse(command: _Command, args: list[str]) -> dict[str, object] | None:
    """The keywords of ``command.run`` read from ``args``, or None for ``--help``.

    One pass reads ``--flag value`` or ``--flag=value`` whatever the value
    starts with (``--`` is no value), ``--help``, and arguments; every word
    after the first ``--`` is an argument, and any other word of two or more
    characters that starts with ``-`` is an option.  The refusals come in this
    order: ``--help=x`` when it is read, an unknown option or a missing option
    value, then ``--help``, then each option's value in the order the options
    were first given, the missing argument and any extra argument.
    """
    options = {option.flag: option for option in command.options}
    given: dict[str, str | None] = {}  # each option's last value by first mention; None if missing
    arguments, unknown, helped = [], None, False
    words = iter(args)
    for word in words:
        flag, joined, value = word.partition("=")
        if word == "--":
            arguments += words
        elif flag in options:
            value = value if joined else next(words, None)
            given[flag] = None if value == "--" else value
        elif flag == "--help":
            if joined:
                _refuse_help_value(value)
            helped = True
        elif _is_option(word):
            unknown = unknown or word
        else:
            arguments.append(word)
    if unknown is not None:
        raise UsageError(_no_such_option(unknown, [*options, "--help"]))
    for flag in options:
        if flag in given and given[flag] is None:
            raise UsageError(f"Option '{flag}' requires an argument.")
    if helped:
        return None
    keywords = {option.dest: option.default for option in command.options}
    for flag, text in given.items():
        try:
            keywords[options[flag].dest] = options[flag].read(text)
        except ValueError as exc:
            raise UsageError(f"Invalid value for '{flag}': {exc}") from None
    if command.argument:
        if not arguments:
            raise UsageError(f"Missing argument '{command.argument}'.")
        keywords[command.argument.lower()] = arguments.pop(0)
    if arguments:
        plural = "s" if len(arguments) > 1 else ""
        raise UsageError(f"Got unexpected extra argument{plural} ({' '.join(arguments)})")
    return keywords


def _help(usage: str, doc: str, *tables: tuple[str, list[tuple[str, str]]]) -> str:
    """The usage line, the description, then each titled table of terms and texts."""
    import textwrap  # here, off the start-up path of every run

    lines = [f"Usage: {usage}", "", f"  {doc}"]
    for title, rows in tables:
        lines += ["", f"{title}:"]
        column = max(len(term) for term, _ in rows) + 4
        for term, text in rows:
            first, *rest = textwrap.wrap(text, _HELP_WIDTH - column)
            lines.append(f"  {term:<{column - 4}}  {first}")
            lines += [" " * column + line for line in rest]
    return "\n".join(lines)


def _program_name() -> str:
    """The program as it was started: the script's file name, or
    ``python -m finivar.cli`` for a module run with ``-m``."""
    package = getattr(sys.modules["__main__"], "__package__", None)
    if not package:
        return os.path.basename(sys.argv[0])
    module = os.path.splitext(os.path.basename(sys.argv[0]))[0]
    return f"python -m {package}" + ("" if module == "__main__" else f".{module}")


def _usage(prog: str, name: str | None) -> str:
    if name is None:
        return f"{prog} [OPTIONS] COMMAND [ARGS]..."
    argument = COMMANDS[name].argument
    return f"{prog} {name} [OPTIONS]" + (f" {argument}" if argument else "")


def _dispatch(prog: str, args: list[str]) -> int:
    first = args[0] if args else None
    if first in COMMANDS:
        command = COMMANDS[first]
        keywords = _parse(command, args[1:])
        if keywords is not None:
            return command.run(**keywords)
        rows = [(f"{o.flag} {o.metavar}", o.help) for o in command.options] + [_HELP_ROW]
        print(_help(_usage(prog, first), command.run.__doc__, ("Options", rows)), flush=True)
        return 0
    if first not in (None, "--help"):
        flag, _, value = first.partition("=")
        if flag == "--help":
            _refuse_help_value(value)
        message = f"No such command {first!r}."
        raise UsageError(_no_such_option(first, ["--help"]) if _is_option(first) else message)
    text = _help(
        _usage(prog, None),
        "Finite-scale verification of conceptual-variable models.",
        ("Options", [_HELP_ROW]),
        ("Commands", [(name, COMMANDS[name].run.__doc__) for name in sorted(COMMANDS)]),
    )
    print(text, file=sys.stderr if first is None else sys.stdout, flush=True)
    return 2 if first is None else 0


def main(args: list[str] | None = None, prog_name: str | None = None) -> NoReturn:
    """Run the command line on ``args`` (default ``sys.argv[1:]``) and exit
    with its code; ``prog_name`` (default: as started) heads the usage line.

    The cyclic collector is off while the command runs, since a run leaves
    no cyclic garbage once its modules are loaded, and the caller's setting is
    restored however it ends.  Turning it back on, ``gc.freeze(); gc.unfreeze()``
    moves the run's objects to the oldest generation, so no young collection
    scans them all; not while the caller holds objects frozen, which it would
    thaw.  The interpreter's last collection ignores ``gc.disable``, so an
    ``atexit`` handler, registered once however often ``main`` is called,
    moves every object into the permanent generation (``gc.freeze``): those
    passes scan nothing, and the operating system reclaims the memory.  A
    caller that catches the ``SystemExit`` keeps a working collector.
    Nothing written is lost: every print flushes and a report file is closed
    before ``main`` returns.  Only finalizers of cyclic garbage do not run at
    exit, which CPython does not promise anyway.

    OpenBLAS runs on one thread: unless ``OPENBLAS_NUM_THREADS``,
    ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is set, ``main`` sets
    ``OPENBLAS_NUM_THREADS=1`` while the command runs, so numpy's first import
    starts no helper thread (the engine's matrices are too small to gain from
    one).  It acts only where numpy is not loaded yet: a caller that already
    imported it keeps its threads, and library calls are untouched.
    """
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    args = sys.argv[1:] if args is None else list(args)
    prog = prog_name or _program_name()
    collecting, frozen = gc.isenabled(), gc.get_freeze_count()
    one_thread = not any(name in os.environ for name in _BLAS_THREAD_VARIABLES)
    if one_thread:
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    gc.disable()
    try:
        code = _dispatch(prog, args)
    except UsageError as exc:
        name = args[0] if args and args[0] in COMMANDS else None
        command = f"{prog} {name}" if name else prog
        message = f"Usage: {_usage(prog, name)}\nTry '{command} --help' for help.\n\nError: {exc}"
        print(message, file=sys.stderr, flush=True)
        code = 2
    except (KeyboardInterrupt, EOFError):
        print("\nAborted!", file=sys.stderr, flush=True)
        code = 1
    except BrokenPipeError:  # the reader left early, as in `finivar selftest | head -1`
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    finally:
        if one_thread:
            del os.environ["OPENBLAS_NUM_THREADS"]
        if collecting:
            if not frozen:
                gc.freeze()
                gc.unfreeze()
            gc.enable()
    sys.exit(code)


if __name__ == "__main__":
    main()
