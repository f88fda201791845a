"""The `ah` argument parser: pinned help text, the table-driven reading of
well-formed argv against argparse, and no state kept between runs.

These tests live apart from ``tests/test_cli.py`` because the ``cli``
benchmark workload reads ``GOLDEN`` by parsing that file's source.
"""

import contextlib
import io
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ahalg.algebra import COMMUTATOR_SPACES
from ahalg.cli import COMMANDS, FLAGS, _well_formed, build_parser, run
from test_cli import GOLDEN

NAMES = (
    "eval", "mul", "add", "comm", "anti", "delta", "factor", "to-weyl", "from-weyl", "embed",
    "ore-witness", "localized-equal", "yh-product", "center", "is-central",
    "decompose-central", "in-commutator", "is-normal", "classify-normal", "is-simple",
    "prime-test", "aut-p", "aut-g", "aut-classify", "aut-apply", "aut-compose", "aut-invert",
    "invariants", "aut-center", "iso", "endo-eta", "endo-kappa", "aut-extend", "aut-restrict",
)
CHOICES = "{" + ",".join(NAMES) + "}"

OPTIONS = """\
options:
  -h, --help            show this help message and exit
  --field FIELD         QQ or GF:p (p prime)
  --h H                 the commutation polynomial h(x)
  --h-factored H_FACTORED
                        comma list of factor^mult entries (with an optional
                        unit) for h
  --json                machine-readable output
  --seed SEED           seed for randomized factoring
"""

TOP_HELP = f"""\
usage: ah [-h] [--field FIELD] [--h H] [--h-factored H_FACTORED] [--json]
          [--seed SEED]
          {CHOICES}
          ...

Exact computations in the algebras with relation Y*x - x*Y = h(x).

positional arguments:
  {CHOICES}
    eval                normal form of an expression in x and Y
    mul                 product of two elements
    add                 sum of two elements
    comm                commutator of two elements
    anti                the anti-automorphism x->x, Y->-Y+h'
    delta               iterated derivation h*f' of a polynomial
    factor              factor a polynomial over the field
    to-weyl             expand through Y = y*h into the Weyl algebra
    from-weyl           pull a Weyl element back into the subalgebra
    embed               embed into the algebra of a divisor of h
    ore-witness         common-denominator witness
    localized-equal     compare right fractions over powers of h
    yh-product          Y-products equal to y^i h^i / h^i y^i
    center              generators of the center
    is-central          does the element commute with everything
    decompose-central   coordinates over the center (char p)
    in-commutator       membership in [x,A], [Y,A], [A,A]
    is-normal           normality certificate
    classify-normal     prime factors of h times a central part
    is-simple           is the algebra simple
    prime-test          does the element generate a height-one prime
    aut-p               the admissible (alpha, beta) pairs
    aut-g               the translations fixing h
    aut-classify        automorphism-group structure report
    aut-apply           apply an automorphism
    aut-compose         compose two automorphisms
    aut-invert          invert an automorphism
    invariants          the polynomials fixed by every automorphism
    aut-center          the center of the automorphism group
    iso                 isomorphism witness against another polynomial
    endo-eta            apply the power endomorphism (h = x^n)
    endo-kappa          apply the central shift endomorphism
    aut-extend          extend to a larger algebra
    aut-restrict        restrict to a subalgebra

{OPTIONS}"""

EVAL_HELP = f"""\
usage: ah eval [-h] [--field FIELD] [--h H] [--h-factored H_FACTORED] [--json]
               [--seed SEED]
               expr

positional arguments:
  expr

{OPTIONS}"""


def _invoke(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv,expected", [(["--help"], TOP_HELP), (["eval", "--help"], EVAL_HELP)])
def test_help_output_is_pinned(capsys, monkeypatch, argv, expected):
    monkeypatch.setenv("COLUMNS", "80")
    assert _invoke(argv, capsys) == (0, expected, "")


def test_build_parser_returns_a_new_parser_each_call():
    from ahalg.cli import build_parser

    first, second = build_parser(), build_parser()
    assert first is not second
    assert first.parse_args(["--h", "x", "eval", "Y"]).expr == "Y"


PARSER = build_parser()
PLAIN = ["x", "Y*x", "QQ", "GF:5", "GF:x", "0", "3", "abc", "left", "right", *COMMUTATOR_SPACES]
# tokens that argparse reads in its own way: abbreviations, '=' values, the
# end of options, help, a leading '-', and integers int() takes
ODD = ["--fi", "--field=QQ", "--json=1", "--", "-h", "-1", "-x", "-x + 1", "", "+3", " 4", "1_0",
       "\u0663"]
# a plain value about four times in five
VALUE = st.sampled_from(PLAIN) | st.sampled_from([*PLAIN, *ODD])


def _argparse(argv):
    """vars() of argparse's namespace for ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(PARSER.parse_args(argv))
        except SystemExit:
            return None


def _agrees(argv) -> bool:
    """Whether ``_well_formed`` reads ``argv``; where it does, argparse must agree."""
    fast = _well_formed(argv)
    if fast is not None:
        assert vars(fast) == _argparse(argv), argv
    return fast is not None


@st.composite
def _spliced(draw):
    """A command with one positional too few, too many or just enough, and
    global flags spliced in anywhere, each with a drawn value."""
    name = draw(st.sampled_from(NAMES))
    count = max(0, len(COMMANDS[name][0]) + draw(st.sampled_from((0, 0, -1, 1))))
    argv = [name, *draw(st.lists(VALUE, min_size=count, max_size=count))]
    for flag in draw(st.lists(st.sampled_from(list(FLAGS)), max_size=4)):
        at = draw(st.integers(0, len(argv)))
        value = draw(st.sampled_from(("QQ", "GF:5", "3")) | VALUE)  # often one that --field or --seed takes
        argv[at:at] = [flag] if flag == "--json" else [flag, value]
    return argv


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(_spliced(), st.lists(st.sampled_from([*NAMES, *FLAGS, *PLAIN, *ODD]), max_size=8)))
def test_the_table_reads_argv_as_argparse_does(argv):
    _agrees(argv)


@pytest.mark.parametrize("argv,read", [
    # a typed flag is converted each time it is given, and the last one wins
    (["--seed", "abc", "--seed", "3", "eval", "Y"], False),
    (["--seed", "3", "--seed", "abc", "eval", "Y"], False),
    (["--field", "GF:x", "--field", "QQ", "eval", "Y"], False),
    (["--field", "QQ", "eval", "Y", "--field", "GF:x"], False),
    (["--seed", "1", "eval", "Y", "--seed", "2"], True),
    (["--field", "GF:5", "eval", "Y", "--field", "GF:7", "--json", "--json"], True),
    # flags after the command, between its positionals, with a command's name as a value
    (["eval", "Y*x", "--field", "GF:5", "--h", "x", "--json"], True),
    (["delta", "x", "--seed", "4", "2"], True),
    (["localized-equal", "Y", "--h", "x", "1", "y", "2"], True),
    (["--h", "eval", "eval", "eval"], True),
    # too few or too many positionals, or a flag without its value
    ([], False), (["--h", "x"], False), (["eval"], False), (["mul", "Y"], False),
    (["mul", "Y", "x", "x"], False), (["center", "x"], False), (["eval", "Y", "--h"], False),
    (["--h", "eval"], False), (["no-such-command"], False),
    # typed positionals
    (["yh-product", "1", "up"], False), (["yh-product", "1_0", "left"], True),
    (["in-commutator", "x", "lie_ideal"], True), (["delta", "x", "two"], False),
])
def test_explicit_argv_against_argparse(argv, read):
    assert _agrees(argv) == read


def test_every_golden_command_but_a_negative_scalar_is_read_off_the_table():
    missed = [argv for argv, _ in GOLDEN if not _agrees(argv)]
    assert missed == [["--field", "QQ", "--h", "x^2 - x", "aut-apply", "-1", "1", "0", "Y"]]


H = ["--field", "QQ", "--h", "x^2"]
SEQUENCES = [
    # a usage error, then a valid command
    [["--field", "QQ", "no-such-command"], [*H, "eval", "Y*x"]],
    [[*H, "delta", "x", "abc", "--json"], [*H, "delta", "x^3", "2"]],
    # the same argv in pretty mode, with --json, then pretty again
    [[*H, "mul", "Y", "x"], [*H, "mul", "Y", "x", "--json"], [*H, "mul", "Y", "x"]],
    [[*H, "aut-p"], [*H, "--json", "aut-p"], [*H, "aut-p"]],
    # global flags before and after the subcommand
    [["--field", "GF:5", "--h", "x", "eval", "Y*x"],
     ["eval", "Y*x", "--field", "GF:5", "--h", "x"],
     ["--h", "x", "eval", "Y*x"],
     ["eval", "Y*x", "--h", "x"]],
    [["--seed", "3", "--field", "GF:5", "factor", "x^2-1"], ["factor", "x^2-1"],
     ["factor", "x^2-1", "--seed", "3", "--field", "GF:5"]],
    # a domain error, then a success
    [[*H, "from-weyl", "y"], [*H, "from-weyl", "y*x^2"]],
    [[*H, "--json", "from-weyl", "y"], [*H, "from-weyl", "y*x^2", "--json"]],
    # help, then a command, then help again
    [["--help"], [*H, "eval", "Y"], ["eval", "--help"], ["--help"]],
    # argv read off the table and argv left to argparse in turn: a negative
    # scalar, an abbreviated flag, a usage error, then a well-formed command
    [["--field", "QQ", "--h", "x^2 - x", "aut-apply", "-1", "1", "0", "Y"],
     ["--fi", "GF:5", "--h", "x", "eval", "Y*x"], [*H, "yh-product", "1", "up"],
     [*H, "eval", "Y*x"]],
    [[*H, "eval", "Y*x"], ["--fi", "GF:5", "--h", "x", "--json", "eval", "Y*x"],
     ["--field", "GF:5", "--h", "x", "--json", "eval", "Y*x"], [*H, "delta", "x", "--", "-1"]],
]


@pytest.mark.parametrize("sequence", SEQUENCES)
def test_no_state_leaks_between_runs(capsys, monkeypatch, sequence):
    from ahalg import cli

    monkeypatch.setenv("COLUMNS", "80")
    shared = [_invoke(argv, capsys) for argv in sequence]
    # a new parser per command: what one process per command prints
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert shared == [_invoke(argv, capsys) for argv in sequence]


@pytest.mark.parametrize("argv", [["--h", "x", "eval", "Y*x"], ["--fi", "GF:5", "--h", "x", "eval", "Y*x"]])
def test_run_reads_sys_argv_and_takes_a_tuple(capsys, monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["ah", *argv])
    expected = (0, "x*Y + x\n", "")
    assert _invoke(None, capsys) == _invoke(tuple(argv), capsys) == _invoke(argv, capsys) == expected
