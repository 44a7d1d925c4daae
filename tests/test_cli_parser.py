"""The command-line parser reads what the argparse parser it replaced read.

The reference below is that parser, verbatim.  The two parse every word list
drawn here to the same keywords or the same usage error, once the reference's
three quirks are switched off (``QuirklessParser``); ``DIFFERENCES`` pins what
those quirks made the reference read.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from typing import NoReturn
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from finivar import cli as cli_mod
from finivar.cli import UsageError, _Command, _is_option, _no_such_option

# -- the reference: the argparse-based parser, as it was ------------------------

_NO_VALUE = object()  # stored for an option given last, with no value after it


class _Parser(argparse.ArgumentParser):
    """A parser whose own refusals, such as ``--help=x``, are usage errors."""

    def error(self, message: str) -> NoReturn:
        raise UsageError(message)


def _given_at(flag: str, args: list[str]) -> int:
    return next((i for i, arg in enumerate(args) if arg.split("=", 1)[0] == flag), len(args))


def _joined(command: _Command, args: list[str]) -> list[str]:
    """``args`` with each option joined to the word after it (``--max-n=-5``),
    so that a value starting with ``-`` is the option's value, never an option."""
    flags = {option.flag for option in command.options}
    joined, rest = [], iter(args)
    for arg in rest:
        if arg == "--":
            return [*joined, arg, *rest]
        value = next(rest, None) if arg in flags else None
        joined.append(arg if value is None else f"{arg}={value}")
    return joined


def _parse(command: _Command, args: list[str]) -> dict[str, object] | None:
    """The keywords of ``command.run`` read from ``args``, or None for ``--help``.

    The refusals come in this order: an unknown option or a missing option
    value, then ``--help``, then each option's value in the order the options
    were first given, the missing argument and any extra argument.
    """
    parser = _Parser(add_help=False, allow_abbrev=False)
    if command.argument:
        parser.add_argument("argument", nargs="?")
    for option in command.options:
        # nargs="?" lets an option given last, without its value, reach the check below
        parser.add_argument(option.flag, dest=option.dest, nargs="?", const=_NO_VALUE)
    parser.add_argument("--help", action="store_true")
    args = _joined(command, args)
    parsed, extra = parser.parse_known_args(args)
    before_dashes = args[: args.index("--")] if "--" in args else args
    unknown = next((arg for arg in extra if _is_option(arg) and arg in before_dashes), None)
    if unknown is not None:
        raise UsageError(_no_such_option(unknown, [o.flag for o in command.options] + ["--help"]))
    for option in command.options:
        if getattr(parsed, option.dest) is _NO_VALUE:
            raise UsageError(f"Option '{option.flag}' requires an argument.")
    if parsed.help:
        return None
    keywords = {}
    for option in sorted(command.options, key=lambda o: _given_at(o.flag, args)):
        text = getattr(parsed, option.dest)
        try:
            keywords[option.dest] = option.default if text is None else option.read(text)
        except ValueError as exc:
            raise UsageError(f"Invalid value for '{option.flag}': {exc}") from None
    if command.argument:
        if parsed.argument is None:
            raise UsageError(f"Missing argument '{command.argument}'.")
        keywords[command.argument.lower()] = parsed.argument
    if extra:
        plural = "s" if len(extra) > 1 else ""
        raise UsageError(f"Got unexpected extra argument{plural} ({' '.join(extra)})")
    return keywords


# -- the reference without its three quirks -------------------------------------


MARK = "\0"  # ends each word after the first "--" while the quirkless reference reads


class QuirklessParser(_Parser):
    """The reference's parser without its three quirks.

    argparse read a negative number such as ``-5`` as an argument; here it is
    an option.  argparse listed the ``--`` that ends the options as an extra
    argument unless the argument was read with it; here it never is.  The
    reference refused a word after that ``--`` as an unknown option when the
    same word was an option before it; here each word after it ends in
    ``MARK``, so that it equals no word before it, until ``quirkless_reference``
    removes the marks.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._has_negative_number_optionals.append(True)

    def parse_known_args(self, args):
        if "--" in args:
            at = args.index("--") + 1
            args = args[:at] + [word + MARK for word in args[at:]]
        parsed, extra = super().parse_known_args(args)
        if "--" in extra:
            extra.remove("--")
        if getattr(parsed, "argument", None) is not None:
            parsed.argument = parsed.argument.removesuffix(MARK)
        return parsed, extra


def quirkless_reference(command: _Command, args: list[str]) -> dict[str, object] | None:
    with mock.patch.object(sys.modules[__name__], "_Parser", QuirklessParser):
        try:
            return _parse(command, args)
        except UsageError as exc:
            raise UsageError(str(exc).replace(MARK, "")) from None


# -- running a word list through the dispatcher ---------------------------------


def keywords(**given):
    """Stands in for each command's run: returns the keywords it was given."""
    return given


def outcome(parse, words: list[str]) -> tuple:
    """What ``finivar WORDS`` does with ``parse`` as its parser and each command
    replaced by ``keywords``: the return value and the output, or the usage error."""
    stubs = {
        name: cli_mod._Command(run=keywords, argument=command.argument, options=command.options)
        for name, command in cli_mod.COMMANDS.items()
    }
    output = io.StringIO()
    with (
        mock.patch.object(cli_mod, "_parse", parse),
        mock.patch.dict(cli_mod.COMMANDS, stubs),
        contextlib.redirect_stdout(output),
        contextlib.redirect_stderr(output),
    ):
        try:
            return ("ran", cli_mod._dispatch("finivar", list(words)), output.getvalue())
        except UsageError as exc:
            return ("usage", str(exc))


VALUES = ["-", "", "0", "3", "7", "1e-3", "-1e5", "nan", "x", "out.json"]
OTHER_WORDS = ["--", "--help", "--help=x", "-x", "-5", "--rep", "qubit", "a", "b"]


def command_words(flags: list[str]) -> st.SearchStrategy[str]:
    """A command's flags, each joined to a value with ``=``, the values alone,
    and the other words a command line may hold."""
    joined = st.builds("{}={}".format, st.sampled_from([*flags, "--help"]), st.sampled_from(VALUES))
    return st.sampled_from(flags + VALUES + OTHER_WORDS) | joined


def flags_of(name: str) -> list[str]:
    return [option.flag for option in cli_mod.COMMANDS[name].options]


def word_lists() -> st.SearchStrategy[list[str]]:
    """A command and words for it, or words for the top level."""
    commands = [
        st.lists(command_words(flags_of(name)), max_size=6).map(lambda rest, name=name: [name, *rest])
        for name in cli_mod.COMMANDS
    ]
    every_flag = sorted({flag for name in cli_mod.COMMANDS for flag in flags_of(name)})
    top = st.lists(
        st.sampled_from(["--help", "--help=x", "--hepl", "-x", "-5", "-", "", "frobnicate"]), max_size=1
    ).flatmap(lambda first: st.lists(command_words(every_flag), max_size=3).map(lambda rest: first + rest))
    return st.one_of(*commands, top)


@settings(max_examples=600, deadline=None)
@given(word_lists())
def test_the_parser_reads_what_argparse_read_without_its_quirks(words):
    now = outcome(cli_mod._parse, words)
    assert now == outcome(quirkless_reference, words)
    if now != outcome(_parse, words):
        event("a quirk of argparse")


# Each list of words the two parsers read differently: by argparse, then now.  The
# first nine come from the three quirks.  A usage error stays one or becomes
# one, except where the words hold "--help" after the first "--" as well as
# before it, and where a "--" with nothing after it ends the options.  The last
# comes from a fourth: argparse read a word that starts with "-" and holds a
# space as an argument, where now it is an option.  No drawn word holds a space.
RUN = {"report": None, "tolerance_scale": 1.0, "max_n": None}
DIFFERENCES = [
    pytest.param(
        ["run", "-5"],
        ("ran", {**RUN, "scenario": "-5"}),
        ("usage", "No such option '-5'."),
        id="negative-number-is-an-option",
    ),
    pytest.param(
        ["run", "-5", "a"],
        ("usage", "Got unexpected extra argument (a)"),
        ("usage", "No such option '-5'."),
        id="negative-number-before-the-argument",
    ),
    pytest.param(
        ["run", "qubit", "--report", "-", "--", "--x"],
        ("usage", "Got unexpected extra arguments (-- --x)"),
        ("usage", "Got unexpected extra argument (--x)"),
        id="dashes-after-an-option",
    ),
    pytest.param(
        ["run", "a", "b", "--", "c"],
        ("usage", "Got unexpected extra arguments (b -- c)"),
        ("usage", "Got unexpected extra arguments (b c)"),
        id="dashes-after-an-extra-argument",
    ),
    pytest.param(
        ["list", "--"],
        ("usage", "Got unexpected extra argument (--)"),
        ("ran", {}),
        id="dashes-ending-a-command-without-argument",
    ),
    pytest.param(
        ["run", "qubit", "--report", "-", "--"],
        ("usage", "Got unexpected extra argument (--)"),
        ("ran", {**RUN, "report": "-", "scenario": "qubit"}),
        id="dashes-ending-the-words",
    ),
    pytest.param(
        ["run", "--max-n=3", "a", "--", "--max-n=3"],
        ("usage", "No such option '--max-n'. Did you mean '--max-n'?"),
        ("usage", "Got unexpected extra argument (--max-n=3)"),
        id="an-option-repeated-after-dashes-is-an-argument",
    ),
    pytest.param(
        ["emit", "qubit", "--output=-", "--", "--output=-"],
        ("usage", "No such option '--output'. Did you mean '--output'?"),
        ("usage", "Got unexpected extra argument (--output=-)"),
        id="emit-option-repeated-after-dashes",
    ),
    pytest.param(
        ["run", "--help", "a", "--", "--help"],
        ("usage", "No such option '--help'. Did you mean '--help'?"),
        ("ran", 0),
        id="help-repeated-after-dashes",
    ),
    pytest.param(
        ["run", "-x y"],
        ("ran", {**RUN, "scenario": "-x y"}),
        ("usage", "No such option '-x y'."),
        id="option-holding-a-space",
    ),
]


@pytest.mark.parametrize("words, by_argparse, now", DIFFERENCES)
def test_each_difference_from_argparse_is_one_of_its_quirks(words, by_argparse, now):
    assert outcome(_parse, words)[:2] == by_argparse
    assert outcome(cli_mod._parse, words)[:2] == now


@pytest.mark.parametrize(
    "words, both",
    [
        (["run", "qubit", "--help=yes", "-x"], ("usage", "argument --help: ignored explicit argument 'yes'")),
        (["run", "qubit", "--help="], ("usage", "argument --help: ignored explicit argument ''")),
        (["run", "qubit", "--report", "--"], ("usage", "Option '--report' requires an argument.")),
        (["run", "qubit", "--report=--"], ("usage", "Option '--report' requires an argument.")),
        (["run", "--max-n", "--", "--report", "--", "q"], ("usage", "Option '--report' requires an argument.")),
        (["run", "--report", "--", "--report=-", "q"], ("ran", {**RUN, "report": "-", "scenario": "q"})),
        (["run", "q", "--max-n=9", "--max-n=3"], ("ran", {**RUN, "max_n": 3, "scenario": "q"})),
        (["run", "--", "--"], ("ran", {**RUN, "scenario": "--"})),
        (["run", "a", "--", "--", "b"], ("usage", "Got unexpected extra arguments (-- b)")),
        (["run", "-x", "--report"], ("usage", "No such option '-x'.")),
        (["run", "-x", "--", "-x"], ("usage", "No such option '-x'.")),
        (["run", "--help", "--report"], ("usage", "Option '--report' requires an argument.")),
        (["run", "a", "b", "--help"], ("ran", 0)),
    ],
)
def test_the_parser_keeps_what_argparse_read_at_its_edges(words, both):
    """Refusals argparse made while it read, a value ``--`` that is no value,
    the last of an option's values, and ``--`` as an argument."""
    assert outcome(_parse, words)[:2] == both
    assert outcome(cli_mod._parse, words)[:2] == both
