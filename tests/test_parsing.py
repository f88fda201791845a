"""Grammar, evaluation order, error reporting, and print round-trips."""

import random

import pytest

from ahalg import AhContext, FieldSpec, Poly, parse_element, parse_poly, parse_scalar
from ahalg.algebra import format_element
from ahalg.errors import ParseError
from ahalg.parsing import MAX_NESTING
from ahalg.poly import format_poly

from helpers import rand_elem, rand_poly

QQ = FieldSpec.rationals()
F3 = FieldSpec.gf(3)


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
