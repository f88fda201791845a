"""The `ah` argument parser: pinned help text and no state kept between runs.

These tests live apart from ``tests/test_cli.py`` because the ``cli``
benchmark workload reads ``GOLDEN`` by parsing that file's source.
"""

import pytest

from ahalg.cli import run

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
]


@pytest.mark.parametrize("sequence", SEQUENCES)
def test_no_state_leaks_between_runs(capsys, monkeypatch, sequence):
    from ahalg import cli

    monkeypatch.setenv("COLUMNS", "80")
    shared = [_invoke(argv, capsys) for argv in sequence]
    # a new parser per command: what one process per command prints
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert shared == [_invoke(argv, capsys) for argv in sequence]
