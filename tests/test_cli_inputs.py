"""The ah CLI on awkward input: --h-factored chunks, integers past the
interpreter's int/str digit limit, a grammar fuzz of ``cli.run``, and an
output stream that cannot be written.

Kept apart from test_cli.py, whose GOLDEN table the benchmark reads by
parsing that whole file.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import ahalg
from ahalg import QQ, cli
from ahalg.cli import run


def _invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _prime_test(h, factored):
    return _invoke(["--field", "QQ", "--h", h, "--h-factored", factored, "prime-test", "x"])


@pytest.mark.parametrize(
    "factored",
    ["x,2^3", "x,8", "2^3,x", "x,(-2)^3,-1", "x^1,2^2,2"],
)
def test_h_factored_constant_chunks_count_their_multiplicity(factored):
    code, out, err = _prime_test("8*x", factored)
    assert (code, err) == (0, "")
    assert out.startswith("FactorOfH")


@pytest.mark.parametrize("factored", ["x^abc", "x,2^", "x^2.5", "x,3^x"])
def test_h_factored_names_a_multiplicity_that_is_not_an_integer(factored):
    code, out, err = _prime_test("x", factored)
    assert (code, out) == (1, "")
    chunk = factored.split(",")[-1]
    assert err == f"error: supplied factor {chunk!r} has a multiplicity that is not an integer\n"


def test_h_factored_constant_power_is_bounded():
    code, out, err = _prime_test("x", "x,3^3000000000")
    assert (code, out) == (1, "")
    assert err.startswith("error: power too large")


def _digits(n: int) -> str:
    # the reference conversion, made under a raised digit limit
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit")
def test_integers_past_the_digit_limit_print_and_parse():
    limit = sys.get_int_max_str_digits()
    eval_ = ["--field", "QQ", "--h", "x", "eval"]
    assert _invoke(eval_ + ["2^20000"]) == (0, _digits(2**20000) + "\n", "")
    num, den = -(3**10000), 7**6000
    text = f"{_digits(num)}/{_digits(den)}*x*Y + {_digits(10**9000)}"
    expected = f"{_digits(num)}/{_digits(den)}*x*Y + {_digits(10**9000)}\n"
    assert _invoke(eval_ + [text]) == (0, expected, "")
    code, out, _ = _invoke(["--json"] + eval_ + ["2^20000"])
    assert code == 0 and json.loads(out) == {"result": _digits(2**20000)}
    big = QQ.elem(Fraction(-(2**20000), 3))
    digits = _digits(-(2**20000))
    assert (str(big), repr(big)) == (f"{digits}/3", f"{digits}/3 in QQ")
    # the process-wide limit is left as it was
    assert sys.get_int_max_str_digits() == limit


# -- integer arguments ----------------------------------------------------------


@pytest.mark.parametrize(
    "argv, what",
    [
        (["--h", "x^2+1", "yh-product", "100000", "right"], "yh-product power"),
        (["--field", "GF:7", "--h", "x^2+1", "yh-product", "100000", "left"], "yh-product power"),
        (["--h", "x^2+1", "delta", "x", "100000"], "delta power"),
        (["--h", "x^2", "endo-eta", "100000000", "x"], "endo-eta k"),
        (["--h", "x^2+1", "localized-equal", "Y", "100000000", "y", "0"], "localized-equal power"),
    ],
)
def test_large_integer_arguments_are_refused_before_any_work(argv, what):
    code, out, err = _invoke(argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {what} too large: ") and "words, limit 8192" in err


# (argv with N for the integer, the largest accepted N, the message past it)
_INTEGER_BOUNDS = [
    (["--field", "GF:2", "--h", "x^2+1", "delta", "x", "N"], 4095, "8194 words"),
    (["--field", "GF:2", "--h", "1", "delta", "x", "N"], 8192, "8193 steps, limit 8192"),
    (["--field", "QQ", "--h", "x^2+1", "yh-product", "N", "left"], 39, "words"),
    (["--field", "QQ", "--h", "x", "localized-equal", "Y", "N", "y", "0"], 4095, "8194 words"),
    (["--field", "QQ", "--h", "x", "localized-equal", "Y", "0", "y", "N"], 4095, "8194 words"),
    (["--field", "QQ", "--h", "1", "localized-equal", "Y", "N", "y", "0"], 8192, "8193 steps"),
    (["--field", "QQ", "--h", "x^2", "endo-eta", "N", "x"], 4095, "8193 words"),
]


@pytest.mark.parametrize("argv, largest, refusal", _INTEGER_BOUNDS)
def test_integer_arguments_just_under_their_bound_run(argv, largest, refusal):
    def at(n):
        return _invoke([str(n) if a == "N" else a for a in argv])

    code, out, err = at(largest)
    assert (code, err) == (0, "") and out
    code, out, err = at(largest + 1)
    assert (code, out) == (1, "")
    assert "too large: " in err and refusal in err


def test_endo_eta_sizes_its_image_without_powering_the_y_degree():
    # eta_k keeps the Y-degree of x*Y, so its image at k = 29 is sized at
    # 2 * 146 words, far under the bound
    argv = ["--field", "GF:1000003", "--h", "x^5", "endo-eta", "29", "x*Y"]
    code, out, err = _invoke(argv)
    # 758623 is 1/29 mod 1000003, and x^29 * x^(28*4) is x^141
    assert (code, out, err) == (0, "758623*x^141*Y (surjective: False)\n", "")
    # h(x^k) alone is past the bound: refused before any work
    code, out, err = _invoke(["--h", "x^2", "endo-eta", "100000000", "x*Y"])
    assert (code, out) == (1, "")
    assert err == "error: endo-eta k too large: 200000001 words, limit 8192\n"


def test_yh_product_steps_are_bounded(monkeypatch):
    # with h = x every coefficient is a constant, so the words model never
    # binds; the product itself takes seconds at the bound, so it is stubbed
    # where the CLI reads it, the package's public name
    calls = []
    monkeypatch.setattr(ahalg, "yh_product", lambda ctx, i, side: calls.append(i) or ctx.one())
    argv = ["--field", "GF:1000003", "--h", "x", "yh-product"]
    assert _invoke(argv + [str(cli.MAX_YH_STEPS), "right"]) == (0, "1\n", "")
    assert calls == [cli.MAX_YH_STEPS]
    code, out, err = _invoke(argv + [str(cli.MAX_YH_STEPS + 1), "right"])
    assert (code, out, calls) == (1, "", [cli.MAX_YH_STEPS])
    assert err == f"error: yh-product power too large: {cli.MAX_YH_STEPS + 1} steps, limit {cli.MAX_YH_STEPS}\n"


# -- closed forms at large p ----------------------------------------------------


def test_center_just_under_its_dense_bound_runs():
    # a cubic h gives a correction of degree 2p: 2p + 1 = 4194287 and 4194339
    # coefficients, either side of MAX_DENSE_TERMS = 2^22
    code, out, err = _invoke(["--field", "GF:2097143", "--h", "x^3+2*x+5", "center"])
    assert (code, err) == (0, "")
    assert out.startswith("generators x^2097143 and Y^2097143 + ")
    code, out, err = _invoke(["--field", "GF:2097169", "--h", "x^3+2*x+5", "center"])
    assert (code, out) == (1, "")
    assert err == "error: center too large: 4194339 coefficients, limit 4194304\n"


def test_center_at_the_largest_certified_field_is_refused():
    code, out, err = _invoke(["--field", "GF:3317044064679887385961813", "--h", "x^2+1", "center"])
    assert (code, out) == (1, "")
    assert err.startswith("error: center too large: 3317044064679887385961814 coefficients")


# the bytes the p-step center and the repeated-squaring classification printed
# (90 min and 8.4 s); the closed forms take well under a second
@pytest.mark.parametrize(
    "argv, digest",
    [
        (
            ["--field", "GF:100003", "--h", "x^3+2*x+5", "center"],
            "3391afa94efffffd1128ccb024ec8b848ba4d832cb48d1df6e10d835640f6b8b",
        ),
        (
            ["--field", "GF:10007", "--h", "(x-1)^2", "aut-classify"],
            "c3be11c5423cb29c439da620c77c4a834329ca88efc11906ea540629d53d9758",
        ),
    ],
)
def test_closed_forms_print_what_the_step_routes_printed(argv, digest):
    code, out, err = _invoke(argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- fuzz ---------------------------------------------------------------------

_LEAVES = st.sampled_from(
    ["0", "1", "2", "7", "12", "3/4", "-5/2", "x", "Y", "y", "x^2", "1/0"]
)


def _combine(children):
    ops = st.sampled_from(["+", "-", "*", " + ", "*-"])
    binary = st.tuples(children, ops, children).map("".join)
    power = st.tuples(children, st.integers(0, 4)).map(lambda t: f"({t[0]})^{t[1]}")
    return binary | power | children.map(lambda s: f"({s})") | children.map(lambda s: "-" + s)


_EXPRS = st.recursive(_LEAVES, _combine, max_leaves=6)


@st.composite
def _noisy(draw):
    """An expression, sometimes with a stray character inserted."""
    text = draw(_EXPRS)
    if draw(st.booleans()):
        pos = draw(st.integers(0, len(text)))
        stray = draw(st.sampled_from(list("()^*/$#.,é\t") + ["x x", "**", ""]))
        text = text[:pos] + stray + text[pos:]
    return text


# valid fields three times over, so most examples get past the field check
_FIELDS = st.sampled_from(
    ["QQ", "GF:2", "GF:3", "GF:7", "GF:1000003"] * 3
    + ["GF:4", "GF:1", "GF:", "GF:x", "gf:5", "QQ2", ""]
)
_COMMANDS = {
    "eval": 1, "mul": 2, "add": 2, "comm": 2, "anti": 1, "to-weyl": 1,
    "from-weyl": 1, "is-central": 1, "delta": 2,
}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    field=_FIELDS,
    h=st.one_of(st.sampled_from(["x", "x^2+1", "1", "0", "x^2-x"]), _noisy()),
    command=st.sampled_from(sorted(_COMMANDS)),
    args=st.lists(
        st.one_of(_noisy(), st.sampled_from(["3", "-1", "x1", "100000000"])), min_size=2, max_size=2
    ),
    as_json=st.booleans(),
)
def test_run_exits_cleanly_on_any_input(field, h, command, args, as_json):
    argv = ["--field", field, "--h", h, command, *args[: _COMMANDS[command]]]
    argv += ["--json"] * as_json
    code, out, err = _invoke(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert out == "" and err.startswith("usage:")
    elif as_json:
        assert err == ""
        payload = json.loads(out)
        assert code == 0 or set(payload) == {"error"}
    elif code == 1:
        assert out == "" and err.startswith("error: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize("field, expr", [("QQ", "x"), ("GF:1000003", "(x+1)^1000")])
def test_an_unwritable_stdout_is_one_error_line_and_exit_1(field, expr):
    # "x" fails at the flush on exit, the 16 kB of (x+1)^1000 inside print
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "ahalg.cli", "--field", field, "--h", "x", "eval", expr],
            stdout=full,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == 1
    assert len(lines) == 1 and lines[0].startswith("error: cannot write the output: ")
