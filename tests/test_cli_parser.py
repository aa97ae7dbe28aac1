"""The command-line parser of ``cli.main`` against argparse, its reference.

``cli._parse_args`` reads argv with one flag table and argparse's token rules.
The argparse parser it replaced is kept below, verbatim, as the oracle.  A
seeded differential draw requires of each argv the same exit code and the
same flags as the oracle, and nothing on stdout on exit 1.  The draws use only
tokens that argparse reads alike on Python 3.10-3.13; the tokens it reads
differently across those versions ("--", "-1/2", "-1e-9", "--spec=--") are
pinned to explicit outcomes instead.
"""

import argparse
import math
import random
import sys
from fractions import Fraction

import pytest

from reebcone import __version__
from reebcone.cli import _COMMAND_TABLE, _FLAGS, COMMANDS, _parse_args, _rational

SEED, DRAWS = 20261020, 1500


# the oracle: the argparse parser of cli.main before _parse_args, verbatim

class _Parser(argparse.ArgumentParser):
    """argparse variant that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _fraction_arg(token: str) -> Fraction:
    try:
        return _rational(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError("%r is not a rational number: %s" % (token, exc))


def _finite_arg(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("%r is not a finite number" % (token,))
    return value


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="reebcone",
        description="K-semistability of toric Fano cone singularities "
        "via the barycenter criterion.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, blurb) in _COMMAND_TABLE.items():
        p = sub.add_parser(command, help=blurb)
        p.add_argument("--spec", required=True, help="path to a cone spec (JSON)")
        p.add_argument("--xi", nargs="+", type=_fraction_arg, metavar="C",
                       help="Reeb vector coordinates (overrides the spec)")
        p.add_argument("--eta", nargs="+", type=_fraction_arg, metavar="C",
                       help="direction coordinates (overrides the spec)")
        p.add_argument("--order", type=int, help="character expansion order")
        p.add_argument("--tol", type=_finite_arg, help="convergence tolerance")
        p.add_argument("--m-max", type=int, dest="m_max",
                       help="oracle: compute S_m for m = 1..M")
        p.add_argument("--t", nargs="+", type=_finite_arg, metavar="T",
                       help="oracle: evaluate truncated character at these t")
        p.add_argument("--cutoff", type=_finite_arg,
                       help="oracle: pairing cutoff for the lattice sum "
                            "(default ceil(14/t), ceil(18/t) with eta)")
        p.add_argument("--max-iter", type=int, dest="max_iter",
                       help="minimize: Newton iteration cap")
        p.add_argument("--probe-rational", type=int, dest="probe_rational",
                       metavar="N", help="minimize: probe a rational "
                       "minimizer with denominators up to N")
        p.add_argument("--json-out", dest="json_out",
                       help="also write the report to this file")
    return parser


ORACLE = _build_parser()


def _oracle(argv):
    return vars(ORACLE.parse_args(argv))


# the draws: full names, unique prefixes, "--t" (exact, and a prefix of --tol),
# "--m" (ambiguous), unknown flags, help and version flags
FLAGS = (*_FLAGS, "--s", "--sp", "--x", "--e", "--o", "--to", "--m-", "--ma", "--c", "--p",
         "--j", "--m", "--ti", "--bogus", "-h", "--he", "--help", "--version", "--ver")
# values: numbers, negative numbers, option-like values, bad ints, rationals and
# non-finite numbers
VALUES = ("a.json", "1", "2", "1/3", "0.5", "1e-9", "-1", "-3", "-.5", "-0.25", "x", "1/0",
          "1.5", "nan", "inf", "1e400", "-inf", "1e-100000", "5_0")
PREFIXES = ("--version", "--ver", "-h", "--bogus")
BAD_COMMANDS = ("bogus", "Check", "-1")


def draw_argv(rng: random.Random) -> list:
    items = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.random()
        if kind < 0.6:  # a flag and its values
            items.append([rng.choice(FLAGS), *rng.choices(VALUES, k=rng.choice((0, 1, 1, 2, 3)))])
        elif kind < 0.85:  # the "=" form
            items.append([rng.choice(FLAGS) + "=" + rng.choice(VALUES)])
        else:  # a stray value
            items.append([rng.choice(VALUES)])
    if rng.random() < 0.85:  # --spec is required
        spec = rng.choice((["--spec", "a.json"], ["--spec=a.json"], ["--sp", "b.json"]))
        items.insert(rng.randint(0, len(items)), spec)
    command = rng.choice(BAD_COMMANDS) if rng.random() < 0.05 else rng.choice(COMMANDS)
    argv = [command, *(token for item in items for token in item)]
    if rng.random() < 0.05:
        argv.insert(0, rng.choice(PREFIXES))
    return argv


def outcome(parse, argv, capsys):
    """("ok", the flags) or ("exit", code), with nothing on stdout on exit 1."""
    try:
        result = ("ok", parse(argv))
    except SystemExit as exc:
        result = ("exit", exc.code)
    out = capsys.readouterr().out
    if result == ("exit", 1):
        assert out == "", argv
    return result


def test_parser_matches_argparse(capsys):
    rng = random.Random(SEED)
    seen = {"ok": 0, "exit 0": 0, "exit 1": 0}
    for _ in range(DRAWS):
        argv = draw_argv(rng)
        result = outcome(_parse_args, argv, capsys)
        assert result == outcome(_oracle, argv, capsys), argv
        seen["ok" if result[0] == "ok" else "exit %d" % result[1]] += 1
    # every outcome is exercised
    assert min(seen.values()) > DRAWS // 20, seen


FLAGS_UNSET = {dest: None for dest, *_ in _FLAGS.values()}


def check_outcome(argv, expected, capsys):
    """``expected`` is the flags given, 0 for a help answer, or the reason of a
    usage error: exit 1, the usage line and the reason on stderr, no stdout."""
    if isinstance(expected, dict):
        assert _parse_args(argv) == dict(FLAGS_UNSET, command=argv[0], **expected)
        return
    with pytest.raises(SystemExit) as exc:
        _parse_args(argv)
    captured = capsys.readouterr()
    if expected == 0:
        assert (exc.value.code, captured.err) == (0, "")
        command = next(token for token in argv if token in COMMANDS)
        assert captured.out.startswith("usage: reebcone " + command)
        return
    assert (exc.value.code, captured.out) == (1, "")
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: reebcone")
    assert error.endswith("error: " + expected)


@pytest.mark.parametrize("argv, expected", [
    # a unique prefix is the flag, with a value after "=" or after it
    (["check", "--sp", "a", "--to=1e-9", "--x", "1", "2"],
     {"spec": "a", "tol": 1e-9, "xi": [1, 2]}),
    # an exact name wins over a longer name it starts
    (["check", "--spec", "a", "--t", "0.5"], {"spec": "a", "t": [0.5]}),
    # a prefix of two flags is refused
    (["check", "--spec", "a", "--m", "2"], "ambiguous option: --m could match --m-max, --max-iter"),
    # a value may start with "-" when it reads as a negative number
    (["check", "--spec", "a", "--xi", "1", "-1", "-.5"],
     {"spec": "a", "xi": [1, -1, Fraction(-1, 2)]}),
    # a "+" flag takes values up to the next flag, and a one-value flag one value
    (["check", "--spec", "a", "--xi", "1", "2", "--eta", "0", "1"],
     {"spec": "a", "xi": [1, 2], "eta": [0, 1]}),
    (["check", "--spec", "a", "b"], "unrecognized arguments: b"),
    # a repeated flag keeps its last value
    (["check", "--spec", "a", "--spec", "b", "--t", "1", "--t", "2", "3"],
     {"spec": "b", "t": [2.0, 3.0]}),
    # --spec is required
    (["check", "--xi", "1"], "the following arguments are required: --spec"),
], ids=["prefix", "exact-first", "ambiguous", "negative", "plus-stops", "one-value",
        "last-wins", "spec-required"])
def test_parser_decision(argv, expected, capsys):
    check_outcome(argv, expected, capsys)


@pytest.mark.parametrize("argv, expected", [
    # option-like values that argparse 3.13.1 and later takes as negative numbers
    (["check", "--spec", "a", "--xi", "-1/2"], "argument --xi: expected at least one argument"),
    (["check", "--spec", "a", "--tol", "-1e-9"], "argument --tol: expected one argument"),
    (["check", "--spec", "a", "--cutoff", "-1."], "argument --cutoff: expected one argument"),
    # after "=" any text is the value
    (["check", "--spec", "a", "--xi=-1/2"], {"spec": "a", "xi": [Fraction(-1, 2)]}),
    # "--" ends the flags, and no command takes a positional argument
    (["check", "--spec", "a", "--"], "unrecognized arguments: --"),
    (["check", "--spec", "a", "--xi", "1", "--", "2"], "unrecognized arguments: -- 2"),
    (["check", "--", "--spec", "a"], "the following arguments are required: --spec"),
    (["--", "check", "--spec", "a"], "the following arguments are required: command"),
    # argparse before 3.13 stored [] for --spec=--
    (["check", "--spec=--"], {"spec": "--"}),
    (["check", "--spec="], {"spec": ""}),
    (["check", "--spec", "-"], {"spec": "-"}),
    (["check", "--spec", "-x y"], {"spec": "-x y"}),
    # -h takes only more h's after it, as -h -h
    (["check", "--spec", "a", "-hh"], 0),
    (["check", "--spec", "a", "-hx"], "argument -h/--help: ignored explicit argument 'x'"),
    (["check", "--spec", "a", "-h="], "argument -h/--help: ignored explicit argument ''"),
    (["check", "--spec", "a", "--help=x"], "argument -h/--help: ignored explicit argument 'x'"),
    # every token is read before a flag acts, so an ambiguous one ends the call first
    (["--version", "check", "--=1"], "ambiguous option: --=1 could match --help, --version"),
    (["check", "-h", "--m"], "ambiguous option: --m could match --m-max, --max-iter"),
    # a help flag answers when it is reached
    (["--bogus", "check", "-h", "--order", "x"], 0),
    (["check", "--order", "x", "-h"], "argument --order: invalid int value: 'x'"),
], ids=["negative-rational", "negative-exponent", "negative-trailing-dot", "equals-negative",
        "dashes-last", "dashes-mid", "dashes-before-spec", "dashes-before-command",
        "equals-dashes", "equals-empty", "lone-dash", "space", "help-hh", "help-hx", "help-equals-empty",
        "help-equals", "ambiguous-first", "ambiguous-before-help", "help-at-once",
        "error-before-help"])
def test_pinned_edge_case(argv, expected, capsys):
    check_outcome(argv, expected, capsys)


@pytest.mark.parametrize("argv", [["--help"], *(["-h", command] for command in COMMANDS),
                                  *([command, "--help"] for command in COMMANDS)],
                         ids=lambda argv: "-".join(argv).lstrip("-"))
def test_help_names_every_command_and_flag(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        _parse_args(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.err) == (0, "")
    names = COMMANDS if argv[0].startswith("-") else _FLAGS
    assert all(name in captured.out for name in names), captured.out


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        _parse_args(["--version"])
    assert (exc.value.code, capsys.readouterr().out) == (0, __version__ + "\n")
