"""Command-line behavior: golden outputs, determinism, error codes."""

import json
import time

import pytest

from ahalg.cli import run

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


def test_failed_self_check_is_an_exit_1_error(capsys, monkeypatch):
    from ahalg import poly

    monkeypatch.setattr(poly, "_splitter_candidates", lambda f, rng: iter(()))
    code = run(["--field", "GF:5", "--h", "x", "factor", "x^2-1", "--json"])
    assert code == 1
    assert "exhausted" in json.loads(capsys.readouterr().out)["error"]


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
]


@pytest.mark.parametrize("argv,expected", LARGE_P)
def test_automorphism_questions_at_large_p(capsys, argv, expected):
    start = time.perf_counter()
    code = run(argv)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert capsys.readouterr().out == expected + "\n"
    assert elapsed < 1.0
