"""Grammar, evaluation order, error reporting, and print round-trips."""

import random
import time

import pytest

from ahalg import (
    AhContext,
    FieldSpec,
    Poly,
    parse_element,
    parse_poly,
    parse_scalar,
    weyl_context,
)
from ahalg.algebra import format_element
from ahalg.cli import run
from ahalg.errors import ParseError
from ahalg.parsing import MAX_NESTING, MAX_POWER_WORDS, _tokenize
from ahalg.poly import format_poly

from helpers import parse_element_oracle, rand_elem, rand_poly, tokenize_oracle

QQ = FieldSpec.rationals()
F3 = FieldSpec.gf(3)
FIELDS = (QQ, FieldSpec.gf(2), F3, FieldSpec.gf(7), FieldSpec.gf(1000003))


def ctx_for(spec, *ints):
    return AhContext(spec, Poly.from_ints(spec, ints))


def test_scalars():
    assert parse_scalar("5", QQ) == 5
    assert parse_scalar("-7/2", QQ).val.denominator == 2
    assert parse_scalar("5", F3) == 2
    with pytest.raises(ParseError):
        parse_scalar("1/2", F3)
    with pytest.raises(ParseError):
        parse_scalar("1/0", QQ)


def test_poly_parsing():
    assert parse_poly("x^2 - 2*x + 1", QQ) == Poly.from_ints(QQ, (1, -2, 1))
    assert parse_poly("(x+1)*(x-1)", QQ) == Poly.from_ints(QQ, (-1, 0, 1))
    assert parse_poly("3", QQ) == Poly.from_ints(QQ, (3,))
    assert parse_poly("-x", QQ) == Poly.from_ints(QQ, (0, -1))
    with pytest.raises(ParseError):
        parse_poly("x + ", QQ)
    with pytest.raises(ParseError):
        parse_poly("Y", QQ)


def test_element_parsing_applies_the_relation():
    ctx = ctx_for(QQ, 0, 0, 1)  # h = x^2
    assert parse_element("Y*x", ctx) == ctx.x() * ctx.gen() + ctx.from_poly(ctx.h)
    assert parse_element("x*Y", ctx) == ctx.x() * ctx.gen()
    expanded = parse_element("(Y+x)^2", ctx)
    expected = (
        ctx.gen() ** 2
        + 2 * ctx.x() * ctx.gen()
        + ctx.x() ** 2
        + ctx.from_poly(ctx.h)
    )
    assert expanded == expected


def test_generator_letters_do_not_mix():
    ctx = ctx_for(QQ, 0, 1)
    with pytest.raises(ParseError):
        parse_element("Y*y", ctx)
    with pytest.raises(ParseError):
        parse_element("y", ctx, "Y")
    parse_element("y*x", ctx, "y")  # fine with the Weyl letter


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_poly("x @ 1", QQ)
    assert err.value.pos == 2
    with pytest.raises(ParseError):
        parse_element("x^-2", ctx_for(QQ, 0, 1))


def test_nesting_is_bounded():
    ctx = ctx_for(QQ, 0, 1)
    deepest = "(" * MAX_NESTING + "x" + ")" * MAX_NESTING
    assert parse_element(deepest, ctx) == ctx.x()
    assert parse_element("-" * MAX_NESTING + "Y", ctx) == ctx.gen()
    mixed = "(-" * MAX_NESTING + "x" + ")" * MAX_NESTING
    for text in ("(" + deepest + ")", "-" * 3000 + "x", mixed):
        with pytest.raises(ParseError, match="nested too deeply"):
            parse_element(text, ctx)


def test_exponent_must_be_literal():
    with pytest.raises(ParseError):
        parse_poly("x^x", QQ)


def test_print_parse_roundtrip_elements():
    rng = random.Random(80)
    for spec in (QQ, F3):
        ctx = AhContext(spec, Poly.from_ints(spec, (0, 1, 1)))
        for _ in range(25):
            a = rand_elem(rng, ctx, 4, 4)
            assert parse_element(format_element(a), ctx) == a


def test_print_parse_roundtrip_polys():
    rng = random.Random(81)
    for spec in (QQ, F3):
        for _ in range(25):
            f = rand_poly(rng, spec, 6)
            assert parse_poly(format_poly(f), spec) == f


def _rand_expr(rng, gen, rational, depth=0):
    out = _rand_term(rng, gen, rational, depth)
    for _ in range(rng.randint(0, 2)):
        out += rng.choice((" + ", " - ", "+", "-")) + _rand_term(rng, gen, rational, depth)
    return out


def _rand_term(rng, gen, rational, depth):
    return "*".join(_rand_factor(rng, gen, rational, depth) for _ in range(rng.randint(1, 3)))


def _rand_factor(rng, gen, rational, depth):
    roll = rng.random()
    if roll < 0.15:
        return "-" + _rand_factor(rng, gen, rational, depth)
    if roll < 0.35 and depth < 2:
        atom = "(" + _rand_expr(rng, gen, rational, depth + 1) + ")"
    else:
        atom = rng.choice(("x", gen, str(rng.randint(0, 12))))
        if atom[0].isdigit() and rational and rng.random() < 0.4:
            atom += f"/{rng.randint(1, 5)}"
    if rng.random() < 0.3:
        atom += f"^{rng.randint(0, 3)}"
    return atom


def _outcome(parse, src, ctx, gen):
    """The parsed element, or the message and position of the ParseError."""
    try:
        return parse(src, ctx, gen)
    except ParseError as exc:
        return str(exc), exc.pos


def _contexts(spec):
    yield ctx_for(spec, 0, 0, 1), "Y"  # h = x^2
    yield ctx_for(spec, 1, 2, 1), "Y"  # h = (x + 1)^2
    yield weyl_context(spec), "y"


@pytest.mark.parametrize(
    "src",
    [
        "x*Y", "Y*x", "Y*(x^2+1)", "(x^2+1)*Y", "(x*Y+1)^3", "(Y+x)^2*(x-Y)",
        "-x*Y", "-(Y*x)", "- -Y", "x - -Y*x", "-x^2*Y^2",
        "3", "-1/2", "0", "2/4 + 1/2", "x", "x^3 + 2*x - 1", "-(x+1)^2", "(x+2)^3*(x^2-x)^2",
        "Y^0", "x*Y^0", "Y^0*x", "(x*Y)^0", "0*Y", "Y - Y",
    ],
)
def test_element_parser_matches_oracle_on_chosen_inputs(src):
    for spec in FIELDS:
        for ctx, gen in _contexts(spec):
            text = src.replace("Y", gen)
            if spec.is_prime_field and "/" in text:
                continue
            got = parse_element(text, ctx, gen)
            assert got == parse_element_oracle(text, ctx, gen), (spec, gen, text)


def test_order_sensitive_products_keep_the_relation():
    ctx = ctx_for(QQ, 0, 0, 1)  # h = x^2
    x, y = ctx.x(), ctx.gen()
    assert parse_element("Y*(x^2+1)", ctx) == (x**2 + 1) * y + 2 * x**3
    assert parse_element("(x^2+1)*Y", ctx) == (x**2 + 1) * y
    assert parse_element("x*Y - Y*x", ctx) == -x**2
    assert parse_element("(x*Y+1)^3", ctx) == (x * y + 1) * (x * y + 1) * (x * y + 1)
    weyl = weyl_context(QQ)
    assert parse_element("y*x - x*y", weyl, "y") == weyl.one()


def test_element_parser_matches_oracle_on_random_expressions():
    rng = random.Random(82)
    for spec in FIELDS:
        for ctx, gen in _contexts(spec):
            for _ in range(40):
                src = _rand_expr(rng, gen, not spec.is_prime_field)
                got = parse_element(src, ctx, gen)
                assert got == parse_element_oracle(src, ctx, gen), (spec, gen, src)


def test_parse_errors_match_oracle():
    # corrupted expressions: the same element, or the same message and position
    rng = random.Random(83)
    for spec in (QQ, FieldSpec.gf(5)):
        for ctx, gen in _contexts(spec):
            for _ in range(60):
                src = _rand_expr(rng, gen, True)
                cut = rng.randrange(len(src) + 1)
                if rng.random() < 0.5:
                    src = src[:cut]
                else:
                    src = src[:cut] + rng.choice("@)(^*/+-zYy") + src[cut:]
                want = _outcome(parse_element_oracle, src, ctx, gen)
                assert _outcome(parse_element, src, ctx, gen) == want, (spec, gen, src)


def test_powers_are_bounded():
    f7, ctx = FieldSpec.gf(7), ctx_for(QQ, 0, 0, 1)  # h = x^2
    assert parse_poly(f"x^{MAX_POWER_WORDS - 1}", f7).degree == MAX_POWER_WORDS - 1
    assert parse_element("Y^1000", ctx) == ctx.gen() ** 1000  # constants stay in F[Y]
    assert parse_scalar("2^100000", QQ) == 2**100000
    for text, spec in (
        (f"x^{MAX_POWER_WORDS}", f7),
        ("(x+1)^300000", QQ),  # few terms, but coefficients of 300000 bits
        ("(1/2*x+3)^1000", QQ),
        ("(x^2+x)^5000", FieldSpec.gf(1000003)),
    ):
        with pytest.raises(ParseError, match="power too large"):
            parse_poly(text, spec)
    with pytest.raises(ParseError, match="power too large"):
        parse_scalar("3^1000000", QQ)
    # x*Y weighs 2 when h = x^2: its 100th power has 101 Y-degrees times 201 x-degrees
    with pytest.raises(ParseError, match="power too large"):
        parse_element("(x*Y)^100", ctx)
    assert parse_element("(x*Y)^30", ctx) == (ctx.x() * ctx.gen()) ** 30


@pytest.mark.parametrize(
    "spec, factor",
    [
        (QQ, "(x^3000+x+1)"),  # too many terms
        (FieldSpec.gf(1000003), "(x^3000+x+1)"),
        (QQ, "(x+1)^300"),  # coefficients too long
        (QQ, "x^2000*Y^2000"),  # too many terms in x and Y
        (FieldSpec.gf(1000003), "x^2000*Y^2000"),
    ],
    ids=str,
)
def test_product_chains_are_bounded(spec, factor):
    # every factor is under the limit; the running product crosses it
    ctx = ctx_for(spec, 0, 0, 1)  # h = x^2
    start = time.perf_counter()
    with pytest.raises(ParseError, match="product too large"):
        parse_element("*".join([factor] * 40), ctx)
    assert time.perf_counter() - start < 1.0


def test_products_just_under_the_limit_parse():
    f7, ctx = FieldSpec.gf(7), ctx_for(QQ, 0, 0, 1)  # h = x^2
    half = MAX_POWER_WORDS // 2
    assert parse_poly(f"x^{half}*x^{half - 1}", f7).degree == MAX_POWER_WORDS - 1
    with pytest.raises(ParseError, match="product too large"):
        parse_poly(f"x^{half}*x^{half}", f7)
    assert parse_element("(x*Y)^10*(x*Y)^10", ctx) == (ctx.x() * ctx.gen()) ** 20
    assert parse_scalar("2^8000*2^8000", QQ) == 2**16000


@pytest.mark.parametrize("expr", ["x^10000000", "(x+1)^300000"])
def test_huge_powers_exit_1_at_once(capsys, expr):
    start = time.perf_counter()
    assert run(["--field", "QQ", "--h", "x", "eval", expr]) == 1
    assert time.perf_counter() - start < 1.0
    assert "power too large" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["QQ", "GF:1000003"])
def test_huge_products_exit_1_at_once(capsys, field):
    start = time.perf_counter()
    assert run(["--field", field, "--h", "x", "eval", "*".join(["(x^5000+1)"] * 20)]) == 1
    assert time.perf_counter() - start < 1.0
    assert "product too large" in capsys.readouterr().err


def _tokens_or_error(tokenize, src):
    try:
        return tokenize(src)
    except ParseError as err:
        return str(err), err.pos


def test_one_pass_tokenizer_matches_the_oracle():
    # digits, names and operators among tabs, newlines, other Unicode spaces,
    # a superscript two, an Arabic-Indic three and an accented letter
    alphabet = "0123456789xYyz+-*/^() \t\n\r\x0b\x0c\x1c\u00a0\u2003.,_\u00b2\u0663\u00e9"
    rng = random.Random(15)
    for _ in range(20000):
        src = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert _tokens_or_error(_tokenize, src) == _tokens_or_error(tokenize_oracle, src), repr(src)
