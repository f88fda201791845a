"""Command-line behavior: golden outputs, determinism, error codes."""

import json
import time

import pytest

from ahalg.cli import COMMANDS, run

GOLDEN = [
    (["--field", "QQ", "--h", "x^2", "comm", "Y", "x"], "x^2"),
    (["--field", "QQ", "--h", "x^2", "eval", "Y*x"], "x*Y + x^2"),
    (["--field", "QQ", "--h", "x^2", "eval", "(Y+x)^2"], "Y^2 + 2*x*Y + 2*x^2"),
    (["--field", "QQ", "--h", "x", "mul", "Y^2", "x"], "x*Y^2 + 2*x*Y + x"),
    (["--field", "QQ", "--h", "x^2", "anti", "Y"], "-Y + 2*x"),
    (["--field", "QQ", "--h", "x^2", "delta", "x", "2"], "2*x^3"),
    (["--field", "QQ", "--h", "x", "to-weyl", "Y^2"], "x^2*y^2 + 3*x*y + 1"),
    (["--field", "QQ", "--h", "x^2", "from-weyl", "x^2*y + 2*x"], "Y"),
    (
        ["--field", "GF:3", "--h", "x^2", "center", "--json"],
        '{"correction": "0", "generators": ["x^3", "Y^3"]}',
    ),
    (["--field", "GF:3", "--h", "x", "is-central", "Y^3 - Y"], "true"),
    (["--field", "QQ", "--h", "x^2", "is-normal", "x"], "normal with [Y, v] = (x) * v"),
    (["--field", "QQ", "--h", "x^2", "is-simple"], "false"),
    (["--field", "QQ", "--h", "1", "is-simple"], "true"),
    (["--field", "GF:5", "--h", "1", "is-simple"], "false"),
    (
        ["--field", "QQ", "--h", "x^2*(x-1)", "aut-classify"],
        "case poly_only; k = 2; G = {0}; t: x; q: 1",
    ),
    (
        ["--field", "QQ", "--h", "x^3", "aut-center", "--json"],
        '{"dz_kind": "module", "n_exponent": 2, "q": "x^2", "t": null, "t_kind": "constants"}',
    ),
    (
        ["--field", "GF:5", "--h", "x^3", "aut-center", "--json"],
        '{"dz_kind": "module", "n_exponent": 2, "q": "x^2", "t": "x^4", "t_kind": "generated"}',
    ),
    (
        ["--field", "QQ", "--h", "x^2 - x", "aut-p", "--json"],
        '{"pairs": [["-1", "1"], ["1", "0"]], "shape": "finite"}',
    ),
    (
        ["--field", "QQ", "--h", "x^3", "aut-p", "--json"],
        '{"lambda": "0", "shape": "one_parameter_family"}',
    ),
    (["--field", "GF:3", "--h", "x^3 - x", "aut-g"], "{0, 1, 2}"),
    (
        ["--field", "QQ", "--h", "x^2", "invariants"],
        "only scalars are invariant",
    ),
    (
        ["--field", "QQ", "--h", "x^2 - x", "aut-apply", "-1", "1", "0", "Y"],
        "-Y",
    ),
    (
        ["--field", "QQ", "--h", "x^2", "aut-compose", "1", "0", "x", "1", "0", "x^2", "--json"],
        '{"alpha": "1", "beta": "0", "f": "x^2 + x"}',
    ),
    (
        ["--field", "QQ", "--h", "x^2", "iso", "4*x^2", "--json"],
        '{"isomorphic": true, "witness": {"alpha": "1", "beta": "0", "nu": "1/4"}}',
    ),
    (
        ["--field", "QQ", "--h", "x^2", "endo-eta", "2", "x", "--json"],
        '{"result": "x^2", "surjective": false}',
    ),
    (
        ["--field", "GF:2", "--h", "x", "endo-kappa", "Y^2 - Y", "Y", "--json"],
        '{"result": "Y^2", "surjective": false}',
    ),
    (
        ["--field", "QQ", "--h", "x^2", "aut-extend", "x", "1", "0", "x", "--json"],
        '{"alpha": "1", "beta": "0", "extends": true, "f": "1", "target_h": "x"}',
    ),
    (
        ["--field", "QQ", "--h", "x", "aut-restrict", "x^2", "1", "0", "1", "--json"],
        '{"alpha": "1", "beta": "0", "f": "x", "restricts": true, "target_h": "x^2"}',
    ),
    (["--field", "QQ", "--h", "x^2", "ore-witness", "x", "x+1", "right"],
     "a1 = x, s1 = x + 1 (right)"),
    (["--field", "QQ", "--h", "x", "localized-equal", "Y", "1", "y", "0"], "true"),
    (["--field", "QQ", "--h", "x^2", "yh-product", "2", "right"], "Y^2 + 2*x*Y + 2*x^2"),
    (
        ["--field", "GF:2", "--h", "x^2+1", "factor", "x^2+1", "--json"],
        '{"factors": [{"multiplicity": 2, "poly": "x + 1", "verified": true}], "unit": "1"}',
    ),
    (
        ["--field", "QQ", "--h", "x^2", "classify-normal", "3*x^2", "--json"],
        '{"central": "3", "factors": [["x", 2]]}',
    ),
    (
        ["--field", "GF:2", "--h", "x", "prime-test", "Y^2 - Y", "--json"],
        '{"detail": "irreducible in the central generator h^p y^p", "kind": "CentralIrreducible"}',
    ),
    (
        ["--field", "GF:3", "--h", "x", "in-commutator", "x^2*Y", "bracket_yhat", "--json"],
        '{"member": true}',
    ),
]


def test_golden_corpus(capsys):
    assert len(GOLDEN) >= 25
    for argv, expected in GOLDEN:
        code = run(argv)
        out = capsys.readouterr().out.rstrip("\n")
        assert code == 0, f"{argv} failed: {out}"
        assert out == expected, f"{argv}: {out!r} != {expected!r}"


def test_json_outputs_are_valid_json(capsys):
    for argv, expected in GOLDEN:
        if "--json" not in argv:
            continue
        run(argv)
        out = capsys.readouterr().out
        json.loads(out)


def test_byte_determinism_across_runs(capsys):
    for argv, _ in GOLDEN:
        run(argv)
        first = capsys.readouterr().out.encode()
        run(argv)
        second = capsys.readouterr().out.encode()
        assert first == second


# every command in both output modes: (argv, exit code, pretty output, --json
# output); a pretty-mode error goes to stderr, everything else to stdout, and
# for a usage error (exit 2) both texts are a part of argparse's message
COMMAND_MATRIX = [
    (["--field", "QQ", "--h", "x^2", "eval", "Y*x"], 0,
     "x*Y + x^2", '{"result": "x*Y + x^2"}'),
    (["--field", "QQ", "--h", "x^2", "eval", "Y+"], 1,
     "error: expected a value (at position 2)", '{"error": "expected a value (at position 2)"}'),
    (["--field", "GF:5", "--h", "x^2+1", "eval", "(Y - 2*x)^3"], 0,
     "Y^3 + 4*x*Y^2 + (x^2 + 4)*Y + 3*x", '{"result": "Y^3 + 4*x*Y^2 + (x^2 + 4)*Y + 3*x"}'),
    (["--field", "QQ", "--h", "x", "mul", "Y^2", "x"], 0,
     "x*Y^2 + 2*x*Y + x", '{"result": "x*Y^2 + 2*x*Y + x"}'),
    (["--field", "GF:5", "--h", "x^2+1", "mul", "Y", "Y*x"], 0,
     "x*Y^2 + (2*x^2 + 2)*Y + 2*x^3 + 2*x", '{"result": "x*Y^2 + (2*x^2 + 2)*Y + 2*x^3 + 2*x"}'),
    (["--field", "QQ", "--h", "x^2", "add", "Y", "x^3 - 1/2"], 0,
     "Y + x^3 - 1/2", '{"result": "Y + x^3 - 1/2"}'),
    (["--field", "GF:3", "--h", "x", "add", "2*Y", "Y + x"], 0,
     "x", '{"result": "x"}'),
    (["--field", "QQ", "--h", "x^2", "comm", "Y", "x"], 0,
     "x^2", '{"result": "x^2"}'),
    (["--field", "GF:2", "--h", "x+1", "comm", "Y^2", "x^3"], 0,
     "x^3 + x^2", '{"result": "x^3 + x^2"}'),
    (["--field", "QQ", "--h", "x^2", "anti", "Y"], 0,
     "-Y + 2*x", '{"result": "-Y + 2*x"}'),
    (["--field", "GF:5", "--h", "x^3", "anti", "x*Y^2"], 0,
     "x*Y^2 + x^3*Y", '{"result": "x*Y^2 + x^3*Y"}'),
    (["--field", "QQ", "--h", "x^2", "delta", "x", "2"], 0,
     "2*x^3", '{"result": "2*x^3"}'),
    (["--field", "GF:3", "--h", "x+1", "delta", "x^2", "3"], 0,
     "2*x^2 + 2*x", '{"result": "2*x^2 + 2*x"}'),
    (["--field", "QQ", "--h", "x", "delta", "x", "abc"], 2,
     "argument power: invalid int value: 'abc'", "argument power: invalid int value: 'abc'"),
    (["--field", "GF:2", "--h", "x^2+1", "factor", "x^2+1"], 0,
     "1 * (x + 1)^2",
     '{"factors": [{"multiplicity": 2, "poly": "x + 1", "verified": true}], "unit": "1"}'),
    (["--field", "QQ", "--h", "x", "factor", "2*x^4 - 2"], 0,
     "2 * (x - 1)^1 * (x + 1)^1 * (x^2 + 1)^1",
     '{"factors": [{"multiplicity": 1, "poly": "x - 1", "verified": true}, {"multiplicity": 1, "poly": "x + 1", "verified": true}, {"multiplicity": 1, "poly": "x^2 + 1", "verified": true}], "unit": "2"}'),
    (["--field", "QQ", "--h", "x", "to-weyl", "Y^2"], 0,
     "x^2*y^2 + 3*x*y + 1", '{"result": "x^2*y^2 + 3*x*y + 1"}'),
    (["--field", "GF:3", "--h", "x^2", "to-weyl", "x*Y^2 + 1"], 0,
     "x^5*y^2 + 1", '{"result": "x^5*y^2 + 1"}'),
    (["--field", "QQ", "--h", "x^2", "from-weyl", "x^2*y + 2*x"], 0,
     "Y", '{"result": "Y"}'),
    (["--field", "QQ", "--h", "x", "from-weyl", "y"], 1,
     "error: coefficient of y^1 breaks membership",
     '{"error": "coefficient of y^1 breaks membership"}'),
    (["--field", "QQ", "--h", "x^2", "embed", "x", "Y"], 0,
     "x*Y + x  (in the algebra of h = x)", '{"result": "x*Y + x", "target_h": "x"}'),
    (["--field", "QQ", "--h", "x^2*(x+1)", "embed", "x+1", "Y^2 + x"], 0,
     "x^4*Y^2 + (6*x^4 + 6*x^3)*Y + 8*x^4 + 14*x^3 + 6*x^2 + x  (in the algebra of h = x + 1)",
     '{"result": "x^4*Y^2 + (6*x^4 + 6*x^3)*Y + 8*x^4 + 14*x^3 + 6*x^2 + x", "target_h": "x + 1"}'),
    (["--field", "QQ", "--h", "x^2", "embed", "x+1", "Y"], 1,
     "error: x + 1 does not divide x^2", '{"error": "x + 1 does not divide x^2"}'),
    (["--field", "QQ", "--h", "x^2", "ore-witness", "x", "x+1", "right"], 0,
     "a1 = x, s1 = x + 1 (right)", '{"a1": "x", "s1": "x + 1", "side": "right"}'),
    (["--field", "QQ", "--h", "x^2", "ore-witness", "Y", "x", "left"], 0,
     "a1 = x*Y - x^2, s1 = x^2 (left)", '{"a1": "x*Y - x^2", "s1": "x^2", "side": "left"}'),
    (["--field", "QQ", "--h", "x^2", "ore-witness", "Y", "x", "middle"], 2,
     "argument side: invalid choice: 'middle'", "argument side: invalid choice: 'middle'"),
    (["--field", "QQ", "--h", "x", "localized-equal", "Y", "1", "y", "0"], 0,
     "true", '{"equal": true}'),
    (["--field", "QQ", "--h", "x", "localized-equal", "Y", "0", "y", "0"], 0,
     "false", '{"equal": false}'),
    (["--field", "QQ", "--h", "x^2", "yh-product", "2", "right"], 0,
     "Y^2 + 2*x*Y + 2*x^2", '{"result": "Y^2 + 2*x*Y + 2*x^2"}'),
    (["--field", "QQ", "--h", "x^2", "yh-product", "1", "left"], 0,
     "Y - 2*x", '{"result": "Y - 2*x"}'),
    (["--field", "QQ", "--h", "x^2", "yh-product", "-1", "right"], 1,
     "error: power must be nonnegative", '{"error": "power must be nonnegative"}'),
    (["--field", "GF:3", "--h", "x^2", "center"], 0,
     "generators x^3 and Y^3 (correction 0)", '{"correction": "0", "generators": ["x^3", "Y^3"]}'),
    (["--field", "GF:5", "--h", "x^2+1", "center"], 0,
     "generators x^5 and Y^5 - Y (correction 1)",
     '{"correction": "1", "generators": ["x^5", "Y^5 - Y"]}'),
    (["--field", "QQ", "--h", "x^2", "center"], 0,
     "trivial center (scalars only)", '{"correction": null, "generators": []}'),
    (["--field", "GF:3", "--h", "x", "is-central", "Y^3 - Y"], 0,
     "true", '{"central": true}'),
    (["--field", "QQ", "--h", "x", "is-central", "x"], 0,
     "false", '{"central": false}'),
    (["--field", "GF:3", "--h", "x", "decompose-central", "Y^3 + x*Y"], 0,
     "x^0 h^0 y^0: 1*X^0*T^0 + 1*X^0*T^1; x^0 h^1 y^1: 1*X^0*T^0; x^1 h^0 y^0: 1*X^0*T^0; x^1 h^1 y^1: 1*X^0*T^0",
     '{"basis_coordinates": [{"i": 0, "j": 0, "terms": [{"a": 0, "b": 0, "coeff": "1"}, {"a": 0, "b": 1, "coeff": "1"}]}, {"i": 0, "j": 1, "terms": [{"a": 0, "b": 0, "coeff": "1"}]}, {"i": 1, "j": 0, "terms": [{"a": 0, "b": 0, "coeff": "1"}]}, {"i": 1, "j": 1, "terms": [{"a": 0, "b": 0, "coeff": "1"}]}]}'),
    (["--field", "GF:3", "--h", "x", "decompose-central", "0"], 0,
     "0", '{"basis_coordinates": []}'),
    (["--field", "QQ", "--h", "x", "decompose-central", "Y"], 1,
     "error: central decomposition requires char p",
     '{"error": "central decomposition requires char p"}'),
    (["--field", "GF:3", "--h", "x", "in-commutator", "x^2*Y", "bracket_yhat"], 0,
     "true", '{"member": true}'),
    (["--field", "QQ", "--h", "x^2", "in-commutator", "x", "bracket_x"], 0,
     "false", '{"member": false}'),
    (["--field", "QQ", "--h", "x^2", "in-commutator", "Y", "bogus"], 2,
     "argument space: invalid choice: 'bogus'", "argument space: invalid choice: 'bogus'"),
    (["--field", "GF:3", "--h", "x", "in-commutator", "x", "lie_ideal"], 1,
     "error: no closed-form membership test for the Lie ideal in char p",
     '{"error": "no closed-form membership test for the Lie ideal in char p"}'),
    (["--field", "QQ", "--h", "x^2", "is-normal", "x"], 0,
     "normal with [Y, v] = (x) * v", '{"normal": true, "r": "x"}'),
    (["--field", "QQ", "--h", "x^2", "is-normal", "Y"], 0,
     "not normal", '{"normal": false, "r": null}'),
    (["--field", "QQ", "--h", "x^2", "classify-normal", "3*x^2"], 0,
     "(x)^2 * [3]", '{"central": "3", "factors": [["x", 2]]}'),
    (["--field", "GF:2", "--h", "x", "classify-normal", "x*(Y^2 + Y)"], 0,
     "(x)^1 * [Y^2 + Y]", '{"central": "Y^2 + Y", "factors": [["x", 1]]}'),
    (["--field", "QQ", "--h", "x^2", "is-simple"], 0,
     "false", '{"simple": false}'),
    (["--field", "QQ", "--h", "1", "is-simple"], 0,
     "true", '{"simple": true}'),
    (["--field", "GF:2", "--h", "x", "prime-test", "Y^2 - Y"], 0,
     "CentralIrreducible: irreducible in the central generator h^p y^p",
     '{"detail": "irreducible in the central generator h^p y^p", "kind": "CentralIrreducible"}'),
    (["--field", "QQ", "--h", "x^2", "prime-test", "x"], 0,
     "FactorOfH: associate of the prime factor x",
     '{"detail": "associate of the prime factor x", "kind": "FactorOfH"}'),
    (["--field", "QQ", "--h", "x^2 - x", "aut-p"], 0,
     "{(-1, 1), (1, 0)}", '{"pairs": [["-1", "1"], ["1", "0"]], "shape": "finite"}'),
    (["--field", "QQ", "--h", "x^3", "aut-p"], 0,
     "family (alpha, (1 - alpha)*0) for alpha in QQ*",
     '{"lambda": "0", "shape": "one_parameter_family"}'),
    (["--field", "GF:5", "--h", "x^2", "aut-p"], 0,
     "{(1, 0), (2, 0), (3, 0), (4, 0)}",
     '{"lambda": "0", "pairs": [["1", "0"], ["2", "0"], ["3", "0"], ["4", "0"]], "shape": "one_parameter_family"}'),
    (["--field", "GF:3", "--h", "x^3 - x", "aut-g"], 0,
     "{0, 1, 2}", '{"G": ["0", "1", "2"]}'),
    (["--field", "QQ", "--h", "x^2", "aut-g"], 0,
     "{0}", '{"G": ["0"]}'),
    (["--field", "QQ", "--h", "x^2*(x-1)", "aut-classify"], 0,
     "case poly_only; k = 2; G = {0}; t: x; q: 1",
     '{"G": ["0"], "P": {"pairs": [["1", "0"]], "shape": "finite"}, "case": "poly_only", "dz_kind": "whole_ring", "ell": 1, "generator": null, "k": 2, "n_exponent": null, "q": "1", "t": "x", "t_kind": "whole_ring"}'),
    (["--field", "GF:5", "--h", "(x-1)^2", "aut-classify"], 0,
     "case semidirect_fstar; k = 1; G = {0}; generator (2, 4) of order 4; t: x^4 + x^3 + x^2 + x + 1; q: x + 4",
     '{"G": ["0"], "P": {"lambda": "1", "pairs": [["1", "0"], ["2", "4"], ["3", "3"], ["4", "2"]], "shape": "one_parameter_family"}, "case": "semidirect_fstar", "dz_kind": "module", "ell": 4, "generator": {"alpha": "2", "beta": "4"}, "k": 1, "n_exponent": 1, "q": "x + 4", "t": "x^4 + x^3 + x^2 + x + 1", "t_kind": "generated"}'),
    (["--field", "QQ", "--h", "x^3", "aut-classify"], 0,
     "case semidirect_fstar; k = 1; G = {0}; t: None; q: x^2",
     '{"G": ["0"], "P": {"lambda": "0", "shape": "one_parameter_family"}, "case": "semidirect_fstar", "dz_kind": "module", "ell": null, "generator": null, "k": 1, "n_exponent": 2, "q": "x^2", "t": null, "t_kind": "constants"}'),
    (["--field", "GF:3", "--h", "x^3 - x", "aut-classify"], 0,
     "case semidirect_finite; k = 3; G = {0, 1, 2}; generator (2, 0) of order 2; t: x^6 + x^4 + x^2; q: 1",
     '{"G": ["0", "1", "2"], "P": {"pairs": [["1", "0"], ["1", "1"], ["1", "2"], ["2", "0"], ["2", "1"], ["2", "2"]], "shape": "finite"}, "case": "semidirect_finite", "dz_kind": "module", "ell": 2, "generator": {"alpha": "2", "beta": "0"}, "k": 3, "n_exponent": 0, "q": "1", "t": "x^6 + x^4 + x^2", "t_kind": "generated"}'),
    (["--field", "QQ", "--h", "x^2 - x", "aut-apply", "-1", "1", "0", "Y"], 0,
     "-Y", '{"result": "-Y"}'),
    (["--field", "QQ", "--h", "x^2 - x", "aut-apply", "2", "0", "0", "Y"], 1,
     "error: (2, 0) violates h(a*x+b) = a^deg(h) * h",
     '{"error": "(2, 0) violates h(a*x+b) = a^deg(h) * h"}'),
    (["--field", "QQ", "--h", "x^2", "aut-compose", "1", "0", "x", "1", "0", "x^2"], 0,
     "alpha = 1, beta = 0, f = x^2 + x", '{"alpha": "1", "beta": "0", "f": "x^2 + x"}'),
    (["--field", "QQ", "--h", "x^2", "aut-compose", "2", "0", "x", "3", "0", "1"], 0,
     "alpha = 6, beta = 0, f = 3*x + 1", '{"alpha": "6", "beta": "0", "f": "3*x + 1"}'),
    (["--field", "QQ", "--h", "x^2", "aut-invert", "2", "0", "x"], 0,
     "alpha = 1/2, beta = 0, f = -1/4*x", '{"alpha": "1/2", "beta": "0", "f": "-1/4*x"}'),
    (["--field", "GF:5", "--h", "x^2-x", "aut-invert", "4", "1", "x^2"], 0,
     "alpha = 4, beta = 1, f = x^2 + 3*x + 1",
     '{"alpha": "4", "beta": "1", "f": "x^2 + 3*x + 1"}'),
    (["--field", "QQ", "--h", "x^2", "invariants"], 0,
     "only scalars are invariant", '{"t": null, "t_kind": "constants"}'),
    (["--field", "GF:5", "--h", "x^3", "invariants"], 0,
     "invariants are generated by t = x^4", '{"t": "x^4", "t_kind": "generated"}'),
    (["--field", "QQ", "--h", "x^2 - x", "invariants"], 0,
     "invariants are generated by t = x^2 - x + 1/4",
     '{"t": "x^2 - x + 1/4", "t_kind": "generated"}'),
    (["--field", "QQ", "--h", "x^3", "aut-center"], 0,
     "central shears: scalar multiples of x^2",
     '{"dz_kind": "module", "n_exponent": 2, "q": "x^2", "t": null, "t_kind": "constants"}'),
    (["--field", "GF:5", "--h", "x^3", "aut-center"], 0,
     "central shears: (x^2) * F[x^4]",
     '{"dz_kind": "module", "n_exponent": 2, "q": "x^2", "t": "x^4", "t_kind": "generated"}'),
    (["--field", "QQ", "--h", "x^2 - x", "aut-center"], 0,
     "central shears: (x - 1/2) * F[x^2 - x + 1/4]",
     '{"dz_kind": "module", "n_exponent": 1, "q": "x - 1/2", "t": "x^2 - x + 1/4", "t_kind": "generated"}'),
    (["--field", "QQ", "--h", "x^2", "iso", "4*x^2"], 0,
     "alpha = 1, beta = 0, nu = 1/4",
     '{"isomorphic": true, "witness": {"alpha": "1", "beta": "0", "nu": "1/4"}}'),
    (["--field", "QQ", "--h", "x^2", "iso", "x^2 + 1"], 0,
     "not isomorphic", '{"isomorphic": false, "witness": null}'),
    (["--field", "QQ", "--h", "x^2", "endo-eta", "2", "x"], 0,
     "x^2 (surjective: False)", '{"result": "x^2", "surjective": false}'),
    (["--field", "QQ", "--h", "x^2 + 1", "endo-eta", "2", "x"], 1,
     "error: this endomorphism family needs h = x^n",
     '{"error": "this endomorphism family needs h = x^n"}'),
    (["--field", "GF:2", "--h", "x", "endo-kappa", "Y^2 - Y", "Y"], 0,
     "Y^2 (surjective: False)", '{"result": "Y^2", "surjective": false}'),
    (["--field", "QQ", "--h", "x^2", "aut-extend", "x", "1", "0", "x"], 0,
     "extends with f = 1 on the algebra of h = x",
     '{"alpha": "1", "beta": "0", "extends": true, "f": "1", "target_h": "x"}'),
    (["--field", "QQ", "--h", "x^2", "aut-extend", "x+1", "1", "0", "x"], 1,
     "error: x + 1 does not divide x^2", '{"error": "x + 1 does not divide x^2"}'),
    (["--field", "QQ", "--h", "x", "aut-restrict", "x^2", "1", "0", "1"], 0,
     "restricts with f = x on the algebra of h = x^2",
     '{"alpha": "1", "beta": "0", "f": "x", "restricts": true, "target_h": "x^2"}'),
    (["--field", "QQ", "--h", "x", "aut-restrict", "x^2", "2", "0", "1"], 0,
     "restricts with f = 2*x on the algebra of h = x^2",
     '{"alpha": "2", "beta": "0", "f": "2*x", "restricts": true, "target_h": "x^2"}'),
    (["--field", "QQ", "--h", "x^2", "aut-extend", "x", "1", "0", "1"], 0,
     "does not extend", '{"extends": false}'),
    (["--field", "QQ", "--h", "x", "aut-restrict", "x^2-x", "2", "0", "1"], 0,
     "does not restrict", '{"restricts": false}'),
    (["--field", "QQ", "eval", "Y"], 1,
     "error: this command needs --h", '{"error": "this command needs --h"}'),
]


def _invoke(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv,code,pretty,as_json", COMMAND_MATRIX)
def test_command_matrix(capsys, argv, code, pretty, as_json):
    for flags, expected in (([], pretty), (["--json"], as_json)):
        got, out, err = _invoke(argv + flags, capsys)
        assert got == code
        if code == 2:
            assert out == "" and err.startswith("usage:") and expected in err
        elif code == 1 and not flags:
            assert (out, err) == ("", expected + "\n")
        else:
            assert (out, err) == (expected + "\n", "")


def test_command_matrix_covers_every_command():
    names = {argv[4] if argv[2] == "--h" else argv[2] for argv, *_ in COMMAND_MATRIX}
    assert names == set(COMMANDS)


def test_domain_error_exit_code(capsys):
    code = run(["--field", "QQ", "--h", "x", "from-weyl", "y"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err
    code = run(["--field", "QQ", "--h", "x", "from-weyl", "y", "--json"])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.out)
    assert "error" in payload


def test_missing_h_is_domain_error(capsys):
    code = run(["--field", "QQ", "eval", "Y"])
    capsys.readouterr()
    assert code == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--field", "QQ", "no-such-command"])
    assert exc.value.code == 2
    # a malformed --field is a usage error, before or after the command name
    for field in ("GF:abc", "GF:", "GF5", "RR", "GF:-5", "gf:5"):
        for argv in (["--field", field, "--h", "x", "eval", "Y"], ["--h", "x", "eval", "Y", "--field", field]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2
            assert "usage:" in capsys.readouterr().err
    # so is a malformed integer or fixed-choice positional, in either output mode
    for argv in (
        ["delta", "x", "abc"],
        ["localized-equal", "Y", "one", "y", "0"],
        ["yh-product", "2.5", "right"],
        ["endo-eta", "k", "x"],
        ["ore-witness", "Y", "x", "middle"],
        ["yh-product", "1", "up"],
        ["in-commutator", "Y", "bogus"],
    ):
        for flags in ([], ["--json"]):
            with pytest.raises(SystemExit) as exc:
                run(["--field", "QQ", "--h", "x^2", *argv, *flags])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "usage:" in captured.err


def test_expression_starting_with_minus_after_double_dash(capsys):
    # argparse takes "-x" and "-1/2" for options unless "--" ends the options
    for argv, expected in (
        (["--field", "QQ", "--h", "x", "eval", "--", "-x"], "-x"),
        (["--field", "QQ", "--h", "x", "aut-apply", "--", "-1/2", "0", "0", "Y"], "Y"),
    ):
        assert _invoke(argv, capsys) == (0, expected + "\n", "")


def test_large_power_by_squaring(capsys):
    start = time.perf_counter()
    got = _invoke(["--field", "QQ", "--h", "x^2", "eval", "Y^1000"], capsys)
    assert time.perf_counter() - start < 1.0
    assert got == (0, "Y^1000\n", "")


def test_bad_field_spec(capsys):
    code = run(["--field", "GF:6", "--h", "x", "eval", "Y"])
    capsys.readouterr()
    assert code == 1


def test_lie_ideal_char_p_unimplemented(capsys):
    code = run(["--field", "GF:3", "--h", "x", "in-commutator", "x", "lie_ideal"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Lie ideal" in captured.err or "lie" in captured.err.lower()


def test_h_factored_override(capsys):
    code = run(
        [
            "--field",
            "QQ",
            "--h",
            "(x^2+x+1)*(x^2+2)",
            "--h-factored",
            "(x^2+x+1)^1,(x^2+2)^1",
            "classify-normal",
            "x^2+x+1",
            "--json",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["factors"] == [["x^2 + x + 1", 1]]


def test_h_factored_must_multiply_out(capsys):
    code = run(
        ["--field", "QQ", "--h", "x^2", "--h-factored", "(x+1)^2", "classify-normal", "x"]
    )
    capsys.readouterr()
    assert code == 1


@pytest.mark.parametrize(
    "h, factored",
    [("x", "x^1,(x+1)^0"), ("x", "x^30000000"), ("x^2", "x,x")],
)
def test_h_factored_refuses_bad_multiplicities_at_once(capsys, h, factored):
    # a zero multiplicity once passed the product check, a huge one hung in expand
    start = time.perf_counter()
    code = run(["--field", "QQ", "--h", h, "--h-factored", factored, "prime-test", "x+1"])
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_seed_flag_changes_nothing_visible(capsys):
    base = ["--field", "GF:5", "--h", "x", "factor", "x^6 + x^2 + 1", "--json"]
    run(base + ["--seed", "1"])
    first = capsys.readouterr().out
    run(base + ["--seed", "1"])
    again = capsys.readouterr().out
    assert first == again
    payload = json.loads(first)
    assert all(t["verified"] for t in payload["factors"])


def test_invalid_pair_is_domain_error(capsys):
    code = run(["--field", "QQ", "--h", "x^2 - x", "aut-apply", "2", "0", "0", "Y"])
    capsys.readouterr()
    assert code == 1


def test_eta_wrong_h_is_domain_error(capsys):
    code = run(["--field", "QQ", "--h", "x^2 + 1", "endo-eta", "2", "x"])
    capsys.readouterr()
    assert code == 1


def test_zero_h_is_domain_error(capsys):
    code = run(["--field", "QQ", "--h", "0", "eval", "Y"])
    capsys.readouterr()
    assert code == 1


def test_pretty_and_json_agree_on_element_results(capsys):
    element_commands = [
        ["--field", "QQ", "--h", "x^2", "eval", "(Y+x)^2"],
        ["--field", "QQ", "--h", "x", "to-weyl", "Y^2"],
        ["--field", "QQ", "--h", "x^2", "anti", "Y"],
        ["--field", "QQ", "--h", "x^2", "from-weyl", "x^2*y + 2*x"],
        ["--field", "QQ", "--h", "x^2", "yh-product", "2", "right"],
    ]
    for argv in element_commands:
        run(argv)
        pretty = capsys.readouterr().out.strip()
        run(argv + ["--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == pretty


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "ahalg.cli", "--field", "QQ", "--h", "x^2", "comm", "Y", "x"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x^2"


@pytest.mark.parametrize("expr", ["x", "(x+1)^1000"])
def test_closed_stdout_exits_1_without_a_traceback(expr):
    # a pipe whose reader is gone: "x" fails at the flush on exit, the 16 kB
    # of (x+1)^1000 inside print
    import os
    import subprocess
    import sys

    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ahalg.cli", "--field", "GF:1000003", "--h", "x^2", "eval", expr],
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == 1


def test_failed_self_check_is_an_exit_1_error(capsys, monkeypatch):
    from ahalg import poly

    monkeypatch.setattr(poly, "_splitter_candidates", lambda n, p, rng: iter(()))
    code = run(["--field", "GF:5", "--h", "x", "factor", "x^2-1", "--json"])
    assert code == 1
    assert "exhausted" in json.loads(capsys.readouterr().out)["error"]


def test_deep_nesting_is_a_domain_error(capsys):
    code = run(["--field", "QQ", "--h", "x", "eval", "(" * 3000 + "x" + ")" * 3000])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: expression nested too deeply")


def test_no_bare_asserts_in_src():
    # self-checks raise SelfCheckError, so they still run under python -O
    import ast
    from pathlib import Path

    import ahalg

    for path in sorted(Path(ahalg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert on lines {lines}"


# outputs as the exhaustive searches printed them (5 to 70 s each); the
# root-finding solvers must reproduce them in well under a second
LARGE_P = [
    (["--field", "GF:307", "--h", "x^3+2*x+5", "aut-p"], "{(1, 0)}"),
    (["--field", "GF:307", "--h", "x^3-x", "aut-p"], "{(1, 0), (306, 0)}"),
    (["--field", "GF:1009", "--h", "x^3+2*x+5", "iso", "x^3+7*x+3"], "not isomorphic"),
    (
        ["--field", "GF:307", "--h", "x^3-x", "iso", "40*x^3+180*x^2+260*x+120"],
        "alpha = 2, beta = 3, nu = 123",
    ),
    (["--field", "GF:100003", "--h", "x^3+2*x+5", "aut-g"], "{0}"),
    (
        ["--field", "GF:307", "--h", "x^3+2*x+5", "aut-classify"],
        "case poly_only; k = 3; G = {0}; t: x; q: 1",
    ),
    (
        ["--field", "GF:307", "--h", "x^3-x", "aut-classify"],
        "case semidirect_finite; k = 3; G = {0}; generator (306, 0) of order 2; t: x^2; q: 1",
    ),
    # the family over GF(307): t = (x - 1)^306, the sum of x^i for i < 307
    (
        ["--field", "GF:307", "--h", "(x-1)^2", "aut-classify"],
        "case semidirect_fstar; k = 1; G = {0}; generator (5, 303) of order 306; t: "
        + " + ".join(f"x^{i}" for i in range(306, 1, -1))
        + " + x + 1; q: x + 306",
    ),
    # as the per-alpha solver and the composed law check printed them (1.2 to 7.4 s
    # each): p | deg h with and without an anchor, and the family over GF(10007)
    (["--field", "GF:307", "--h", "x^307+x^2", "iso", "(x+2)^307+(x+2)^2"], "alpha = 1, beta = 2, nu = 1"),
    (["--field", "GF:307", "--h", "x^307-x+1", "iso", "(x+5)^307-x+3"], "alpha = 192, beta = 0, nu = 192"),
    (
        ["--field", "GF:10007", "--h", "x^2", "aut-classify"],
        "case semidirect_fstar; k = 1; G = {0}; generator (5, 0) of order 10006; t: x^10006; q: x",
    ),
]


@pytest.mark.parametrize("argv,expected", LARGE_P)
def test_automorphism_questions_at_large_p(capsys, argv, expected):
    start = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert capsys.readouterr().out == expected + "\n"
    assert elapsed < 1.0
