"""Grammar, evaluation order, error reporting, and print round-trips."""

import random
import re
import time
from fractions import Fraction
from itertools import chain

import pytest

import ahalg.parsing as parsing
from ahalg import (
    AhContext,
    FieldSpec,
    OreElement,
    Poly,
    parse_element,
    parse_poly,
    parse_scalar,
    weyl_context,
)
from ahalg.algebra import format_element
from ahalg.cli import run
from ahalg.errors import ParseError
from ahalg.fields import decimal_int
from ahalg.parsing import (
    MAX_NESTING,
    MAX_POWER_WORDS,
    _Parser,
    _positions,
    _raw,
    _reduced,
    _dense,
    _size,
    _tokenize,
    _refuse_if_large,
    refuse_power,
)
from ahalg.poly import _power, format_poly

from helpers import (
    format_element_oracle,
    format_poly_oracle,
    parse_element_oracle,
    parse_poly_oracle,
    parse_scalar_oracle,
    rand_elem,
    rand_poly,
    rand_scalar,
    size_oracle,
    tokenize_oracle,
    words_oracle,
)

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


def _printer_cases():
    """(polynomial, element) pairs for the printers: over QQ signs, units, fractions and a
    numerator past the int-to-str limit; over GF(p) the residue p - 1, at p = 2, 7, 2^61 - 1."""
    rng, big = random.Random(82), 10**4400 + 7
    for spec in (QQ, FieldSpec.gf(2), FieldSpec.gf(7), FieldSpec.gf(2**61 - 1)):
        ctx, m = ctx_for(spec, 0, 0, 1), spec.p or 0  # m - 1 is -1 over QQ and p - 1 over GF(p)
        fixed = [[m - 1], [1], [0, m - 1], [0, 1], [m - 1, m - 1, 0, 1], [5, 0, m - 1], []]
        if not spec.p:
            fixed += [[Fraction(-3, 4), Fraction(5, 2), -7], [Fraction(big, 3), -big, Fraction(-1, big)], [big]]
        polys = [Poly(spec, c) for c in fixed] + [rand_poly(rng, spec, 6) for _ in range(40)]
        for k, f in enumerate(polys):
            yield f, ctx.element([f, polys[k - 1], polys[k - 2], Poly.zero(spec), polys[k - 3]])
            yield f, ctx.element([polys[k - 1]] * (k % 3) + [f])


def test_printers_match_the_fraction_printer():
    for f, a in _printer_cases():
        assert format_poly(f) == format_poly_oracle(f), f._nums
        assert format_element(a) == format_element_oracle(a), [g._nums for g in a.coeffs]
    assert format_poly(Poly(QQ, [Fraction(-3, 4), 0, -1])) == "-x^2 - 3/4"
    f7 = FieldSpec.gf(7)
    a = ctx_for(f7, 0, 1).element([Poly(f7, c) for c in ([6], [6], [0, 6])])
    assert format_element(a) == "6*x*Y^2 - Y + 6"


def _rand_expr(rng, letters, rational, depth=0, big=False):
    """A random expression in the letters, integers and (if rational)
    fractions; with big, some exponents are large enough to be refused."""
    out = _rand_term(rng, letters, rational, depth, big)
    for _ in range(rng.randint(0, 2)):
        out += rng.choice((" + ", " - ", "+", "-")) + _rand_term(rng, letters, rational, depth, big)
    return out


def _rand_term(rng, letters, rational, depth, big):
    return "*".join(
        _rand_factor(rng, letters, rational, depth, big) for _ in range(rng.randint(1, 3))
    )


def _rand_factor(rng, letters, rational, depth, big):
    roll = rng.random()
    if roll < 0.15:
        return "-" + _rand_factor(rng, letters, rational, depth, big)
    if roll < 0.35 and depth < 2:
        atom = "(" + _rand_expr(rng, letters, rational, depth + 1, big) + ")"
    else:
        atom = rng.choice(letters + (str(rng.randint(0, 12)),))
        if atom[0].isdigit() and rational and rng.random() < 0.4:
            atom += f"/{rng.randint(1, 5)}"
    if rng.random() < 0.3:
        atom += f"^{rng.choice((40, 9000)) if big and rng.random() < 0.2 else rng.randint(0, 3)}"
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
                src = _rand_expr(rng, ("x", gen), not spec.is_prime_field)
                got = parse_element(src, ctx, gen)
                assert got == parse_element_oracle(src, ctx, gen), (spec, gen, src)


def test_parse_errors_match_oracle():
    # corrupted expressions: the same element, or the same message and position
    rng = random.Random(83)
    for spec in (QQ, FieldSpec.gf(5)):
        for ctx, gen in _contexts(spec):
            for _ in range(60):
                src = _rand_expr(rng, ("x", gen), True)
                cut = rng.randrange(len(src) + 1)
                if rng.random() < 0.5:
                    src = src[:cut]
                else:
                    src = src[:cut] + rng.choice("@)(^*/+-zYy") + src[cut:]
                want = _outcome(parse_element_oracle, src, ctx, gen)
                assert _outcome(parse_element, src, ctx, gen) == want, (spec, gen, src)


def _plain_outcome(parse, src, spec):
    try:
        return parse(src, spec)
    except ParseError as exc:
        return str(exc), exc.pos


@pytest.mark.parametrize(
    "parse, oracle, letters",
    [(parse_poly, parse_poly_oracle, ("x",)), (parse_scalar, parse_scalar_oracle, ())],
    ids=["poly", "scalar"],
)
def test_poly_and_scalar_parsers_match_oracle_on_random_expressions(parse, oracle, letters):
    # whole expressions, some with refused powers, then corrupted ones: the
    # same value, or the same message and position
    rng = random.Random(84)
    for spec in FIELDS:
        for _ in range(80):
            src = _rand_expr(rng, letters, not spec.is_prime_field, big=True)
            want = _plain_outcome(oracle, src, spec)
            assert _plain_outcome(parse, src, spec) == want, (spec, src)
        for _ in range(60):
            src = _rand_expr(rng, letters, True)
            cut = rng.randrange(len(src) + 1)
            if rng.random() < 0.5:
                src = src[:cut]
            else:
                src = src[:cut] + rng.choice("@)(^*/+-zxYy") + src[cut:]
            want = _plain_outcome(oracle, src, spec)
            assert _plain_outcome(parse, src, spec) == want, (spec, src)


def _rows_of(value):
    """The rows and denominator the parser keeps for a value."""
    if isinstance(value, OreElement):
        return _raw(value.coeffs)
    if isinstance(value, Poly):
        return ([value._nums] if value else []), value._den
    if value.spec.p:
        return ([[value.val]] if value else []), 1
    return ([[value.val.numerator]] if value else []), value.val.denominator


def _size_cases(rng):
    """(value, p, step) triples over both fields: random elements with large
    QQ heights, elements with constant coefficients, polynomials, scalars and
    zero, and the operands of the products just under the limit."""
    for spec in (QQ, F3, FieldSpec.gf(1000003)):
        p = spec.characteristic
        for h in ((1,), (0, 1), (0, 0, 1), (1, 0, 0, 2)):
            ctx = ctx_for(spec, *h)
            step = max(ctx.deg_h - 1, 0)
            for _ in range(30):
                a = rand_elem(rng, ctx, 4, 5)
                if not p and rng.random() < 0.5:  # tall coefficients
                    a = a * rng.randint(1, 2**200) + ctx.from_scalar(Fraction(1, rng.randint(1, 2**90)))
                yield a, p, step
                yield ctx.element([Poly.constant(rand_scalar(rng, spec)) for _ in range(4)]), p, step
                yield rand_poly(rng, spec, 6), p, 0
                yield rand_scalar(rng, spec), p, 0
            yield ctx.zero(), p, step
    f7, ctx = FieldSpec.gf(7), ctx_for(QQ, 0, 0, 1)
    yield parse_poly_oracle("x^4096", f7), 7, 0
    yield parse_poly_oracle("x^4095", f7), 7, 0
    yield parse_element_oracle("(x*Y)^10", ctx), 0, 1
    yield parse_scalar_oracle("2^8000", QQ), 0, 0


def _refusal(terms, p):
    try:
        _refuse_if_large("test", terms, p)
    except ParseError as exc:
        return str(exc), exc.pos
    return None


def _refusal_oracle(words):
    if words > MAX_POWER_WORDS:
        return f"test too large: {words} words, limit {MAX_POWER_WORDS}", None
    return None


def test_row_size_matches_the_canonical_size_oracle():
    rng = random.Random(85)
    cases = list(_size_cases(rng))
    for value, p, step in cases:
        rows, den = _rows_of(value)
        want = size_oracle(value, p)
        # the parser's rows over QQ carry a common factor no gcd has removed
        k = 1 if p else rng.choice((1, 2, 6, 3**40))
        raw = [[c * k for c in r] for r in rows]
        assert _size(raw, den * k, p, step, True) == want, value
        ydeg, weight, bits = _size(raw, den * k, p, step, False)
        assert (ydeg, weight) == want[:2] and bits >= want[2], value
    # refusal verdicts on a power of a times b, where a raw factor can put the
    # bound over the limit and the exact count under it
    by_field = {}
    for case in cases:
        by_field.setdefault(case[1], []).append(case)
    for _ in range(600):
        group = by_field[rng.choice(sorted(by_field))]
        (a, p, step), (b, _, bstep) = rng.choice(group), rng.choice(group)
        n = rng.choice((1, 2, 7, 40, 300, 4000))
        ka, kb = rng.choice((1, 5, 3**40)), rng.choice((1, 3**20, 2**300))
        terms = []
        for value, s, scale, k in ((a, step, n, ka), (b, bstep, 1, kb)):
            rows, den = _rows_of(value)
            terms.append((scale, scale, scale, [[c * k for c in r] for r in rows], den * k, s))
        sa, sb = size_oracle(a, p), size_oracle(b, p)
        want = words_oracle(*(n * x + y for x, y in zip(sa, sb)), p)
        assert _refusal(terms, p) == _refusal_oracle(want), (a, b, n)


def test_a_common_factor_in_the_rows_does_not_change_a_verdict():
    # k/k*x + k/k is x + 1 with every raw int carrying k: the bound with no
    # gcd is over the limit at the 63rd power, the exact size (64 words) is not
    k = 2**200
    assert _refusal(((63, 63, 63, [[k, k]], k, 0),), 0) is None
    assert parse_poly(f"({k}/{k}*x + {k}/{k})^63", QQ) == parse_poly("(x+1)^63", QQ)
    with pytest.raises(ParseError, match="power too large: 12672 words"):
        parse_poly(f"({k}*x + {k})^63", QQ)


def test_a_common_factor_is_divided_out_before_it_grows(monkeypatch, capsys):
    # the checks judge k/k*x at the size of x, so the work must be that of x:
    # no int that a product takes or builds outgrows the largest literal
    times, cap = _Parser.times, 0

    def bounded_times(self, a, b):
        out = times(self, a, b)
        for rows, den in (_dense(*v) for v in (a, b, out)):  # a value (rows, den, size), rows spread out
            assert max(map(abs, chain([den], *rows))).bit_length() <= cap, "a common factor grew"
        return out

    monkeypatch.setattr(_Parser, "times", bounded_times)
    k, k64 = "7" * 10000, str(2**64)
    cases = [
        ("(2/2)^1000000000", "1"),
        ("(1/2 + 1/2)^1000000000", "1"),
        (f"({k}/{k}*x)^8191", "x^8191"),
        (f"({k}/{k}*x + {k}/{k})^63", "(x + 1)^63"),
        # the bound with no gcd refuses this product (12003 words), the exact size not
        (f"({k64}/{k64}*x^2000)*({k64}/{k64}*x^2000)", "x^4000"),
    ]
    for expr, want in cases:
        cap = max(decimal_int(t).bit_length() for t in re.findall(r"(?<![\d^])\d+", expr))
        assert parse_poly(expr, QQ) == parse_poly_oracle(want, QQ), expr
    cap = 2  # the cap of (2/2)
    assert run(["--field", "QQ", "--h", "x", "eval", "(2/2)^1000000000"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_refuse_power_matches_the_size_oracle():
    rng = random.Random(86)
    cases = [(v, p) for v, p, _ in _size_cases(rng) if isinstance(v, (Poly, OreElement))]
    cases += [(Poly.zero(spec), spec.characteristic) for spec in (QQ, F3)]
    for _ in range(300):
        (a, p), (b, q) = rng.choice(cases), rng.choice(cases)
        if p != q:
            continue
        n, substitute = rng.choice((0, 1, 3, 50, 800, 8191, 8192)), rng.random() < 0.3
        sa, sb = size_oracle(a, p), size_oracle(b, p)
        scales = (1 if substitute else n, n, n)
        want = words_oracle(*(k * x + y for k, x, y in zip(scales, sa, sb)), p)
        try:
            # p as the command line passes it: None over QQ
            refuse_power("test power", n, p or None, (a,), (b,), substitute=substitute)
            got = None
        except ParseError as exc:
            got = str(exc)
        if want > MAX_POWER_WORDS:
            assert got == f"test power too large: {want} words, limit {MAX_POWER_WORDS}"
        else:
            assert got is None, (a, b, n, got)
    # the zero polynomial weighs 0, not -1: x^8192 next to it is still refused
    with pytest.raises(ParseError, match="8193 words"):
        refuse_power("test power", 8192, 3, (Poly.x(F3),), (Poly.zero(F3),))


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
    # what cancels, or vanishes mod p, leaves no trace in the size of a sum
    x_top = Poly.monomial(f7, 1, MAX_POWER_WORDS - 1)
    assert parse_poly(f"(x^5000 + 1 - x^5000)*x^{MAX_POWER_WORDS - 1}", f7) == x_top
    assert parse_poly(f"(7*x^5000 + 1)*x^{MAX_POWER_WORDS - 1}", f7) == x_top
    assert parse_poly(f"7*x^5000*x^{MAX_POWER_WORDS - 1}", f7) == 0
    assert parse_element(f"(Y^3 - Y^3 + 1)*x^{MAX_POWER_WORDS - 1}", ctx) == ctx.from_poly(
        Poly.monomial(QQ, 1, MAX_POWER_WORDS - 1)
    )


P2 = 2**64 + 13  # a prime of 65 bits: each coefficient mod P2 takes two 64-bit words
K = 2**64  # K/3 takes 1 + 64 bits: two words, as over GF(P2)


@pytest.mark.parametrize(
    "p, src, refusal",
    [
        # x^n, Y^n and c*x^i*x^j (c*Y^i*Y^j) at two words a coefficient: 4096 coefficients fill the limit
        (P2, "x^4095", None),
        (P2, "x^4096", ("power too large: 8194 words", 2)),
        (P2, "Y^4095", None),
        (P2, "Y^4096", ("power too large: 8194 words", 2)),
        (P2, "5*x^2000*x^2095", None),
        (P2, "5*x^2000*x^2096", ("product too large: 8194 words", 8)),
        (P2, "5*Y^2000*Y^2096", ("product too large: 8194 words", 8)),
        (0, f"{K}/3*x^2000*x^2095", None),
        (0, f"{K}/3*x^2000*x^2096", ("product too large: 8194 words", 29)),
        (0, f"{K}/3*Y^2000*Y^2095", None),
        (0, f"{K}/3*Y^2000*Y^2096", ("product too large: 8194 words", 29)),
        # 3/4 takes 1 + 2 bits, one word: 8192 coefficients fill the limit
        (0, "3/4*x^4000*x^4191", None),
        (0, "3/4*x^4000*x^4192", ("product too large: 8193 words", 10)),
        (0, "-3/4*Y^4000*Y^4192", ("product too large: 8193 words", 11)),
        # (2/3*x)^n has n + 1 coefficients of 1 + 2n bits: 512 of 16 words at n = 511, 513 of 17 at 512
        (0, "(2/3*x)^511", None),
        (0, "(2/3*x)^512", ("power too large: 8721 words", 8)),
        (0, "(2/3*Y)^512", ("power too large: 8721 words", 8)),
    ],
    ids=repr,
)
def test_monomial_size_checks_at_the_limit(p, src, refusal):
    # the verdict, message and position of the refusal, or the value the oracles give
    spec = FieldSpec.gf(p) if p else QQ
    ctx = ctx_for(spec, 0, 0, 1)  # h = x^2: Y weighs 1, but Y^n alone has no x and weight 0
    got = _outcome(parse_element, src, ctx, "Y")
    if refusal:
        assert got == (f"{refusal[0]}, limit {MAX_POWER_WORDS} (at position {refusal[1]})", refusal[1])
    else:
        assert got == parse_element_oracle(src, ctx)
    assert got == _outcome(parse_element_oracle, src, ctx, "Y")
    if "Y" not in src:
        assert _plain_outcome(parse_poly, src, spec) == _plain_outcome(parse_poly_oracle, src, spec) == (
            got if refusal else got.coeffs[0])


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


def _one_pass_tokens(src):
    """The (kind, value, position) triples of ``_tokenize`` and ``_positions``,
    in the shape of ``tokenize_oracle``: the texts say the kind, '' the end."""
    out = []
    for text, pos in zip(_tokenize(src), _positions(src), strict=True):
        if not text:
            out.append(("end", None, pos))
        elif text.isdecimal():
            out.append(("int", decimal_int(text), pos))
        else:
            out.append(("name" if text.isalpha() else "op", text, pos))
    return out


def test_one_pass_tokenizer_matches_the_oracle():
    # digits, names and operators among tabs, newlines, other Unicode spaces,
    # a superscript two, an Arabic-Indic three and an accented letter
    alphabet = "0123456789xYyz+-*/^() \t\n\r\x0b\x0c\x1c\u00a0\u2003.,_\u00b2\u0663\u00e9"
    rng = random.Random(15)
    for _ in range(20000):
        src = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        assert _tokens_or_error(_one_pass_tokens, src) == _tokens_or_error(tokenize_oracle, src), repr(src)


@pytest.mark.parametrize("spec", (QQ, FieldSpec.gf(7)), ids=repr)
def test_power_loop_is_repeated_product_on_parser_values(spec):
    # x*Y takes the Ore product, 2/3 the scalar one and x + 1 the convolution
    ctx = ctx_for(spec, 0, 1)
    src = "x*Y + 2/3" if not spec.p else "x*Y + 2"
    for text in (src, "x + 1"):
        parser = _Parser(text, spec, ("x", "Y"), ctx)
        value, one = _reduced(*parser.value, None), ([[1]], 1, None)  # values carry a size, or None
        expected = one
        for e in range(41):
            assert _reduced(*_power(value, e, parser.times, one)) == _reduced(*expected), e
            expected = parser.times(expected, value)
    a = parse_element(src, ctx)
    assert parse_element(f"({src})^40", ctx) == a**40


def _diff_monomial(rng, gen, rational):
    """One monomial c*x^i*Y^j spelled one of several ways: a QQ fraction with a
    common factor, a unary-minus chain, x^0, a high power, Y*x as well as x*Y."""
    c = rng.randint(0, 9)
    if rational and rng.random() < 0.4:
        k = rng.choice((2, 6, 2**32, 3**41))
        coeff = f"{c * k}/{rng.randint(1, 7) * k}"
    else:
        coeff = str(c)
    xs = rng.choice(("", "x", f"x^{rng.randint(0, 60)}", f"x^{rng.choice((999, 4000))}"))
    ys = rng.choice(("", gen, f"{gen}^{rng.randint(0, 4)}")) if gen else ""
    letters = [f for f in (xs, ys) if f]
    if rng.random() < 0.5:
        letters.reverse()
    factors = [coeff, *letters] if rng.random() < 0.7 else [*letters, coeff]
    return "-" * rng.choice((0, 0, 0, 1, 2, 3)) + "*".join(factors)


def _diff_sum(rng, gen, rational, n, depth=0):
    """A sum of n monomials and parenthesized sums, some powered or multiplied."""
    out = ""
    for k in range(n):
        if depth < 2 and rng.random() < 0.08:
            term = "(" + _diff_sum(rng, gen, rational, rng.randint(1, 6), depth + 1) + ")"
            if rng.random() < 0.4:
                term += f"^{rng.randint(0, 3)}"
            if rng.random() < 0.5:
                term = rng.choice((term + "*", "-" * rng.randint(0, 2))) + _diff_monomial(rng, gen, rational)
        else:
            term = _diff_monomial(rng, gen, rational)
        out += (rng.choice((" + ", " - ", "+", "-")) if k else "") + term
    return out


def _diff_boundaries(gen):
    """Zero operands at products and powers just under, at and over the words limit,
    next to coefficients of 62 to 65 bits, where the one bit of a zero crosses a word."""
    half, top = MAX_POWER_WORDS // 2, MAX_POWER_WORDS - 1
    out = ["(2*x)^703", "(2*x)^704", "(6/4*x)^511", "(6/4*x)^512"]  # 7744, 8460, 8192 and 8721 words over QQ
    for zero in ("0", "(x - x)", "(3*x^7 - 3*x^7)"):
        out += [f"{zero}*x^{top - 1}", f"{zero}*x^{top}", f"x^{top}*{zero}", f"x^{half}*{zero}*x^{half - 1}",
                f"x^{half}*x^{half}*{zero}", f"{zero}^{64 * MAX_POWER_WORDS - 1}", f"{zero}^{64 * MAX_POWER_WORDS}"]
        for c in (2**62, 2**63, 2**63 + 1, 2**64 + 1):
            out += [f"{c}*x^{half - 1}*{zero}", f"{c}*x^{half}*{zero}", f"({c}*x^{half - 1} + {zero})*{zero}"]
    if gen:  # x*Y weighs 1 + deg h - 1: 2 when h = x^2, so x*Y*x^4093 takes 2 * 4096 words
        out += [f"{gen}^{half - 1}*(x - x)*x", f"(x*{gen} - {gen}*x)*x^{half}", f"{gen}*x^{half - 1}*(x-x)",
                f"(x*{gen})^64", f"x*{gen}*x^{half - 3}", f"x*{gen}*x^{half - 2}"]
    return out


@pytest.mark.parametrize("spec", (QQ, FieldSpec.gf(2), FieldSpec.gf(1000003)), ids=repr)
def test_parser_matches_the_oracles_on_a_seeded_differential_corpus(spec):
    # sums of up to a few hundred monomials and the words-limit boundaries, on the
    # three parsers: the same value, or the same ParseError message and position
    rng = random.Random(f"differential:{spec!r}")
    rational = not spec.is_prime_field
    srcs = [_diff_sum(rng, None, rational, n) for n in (1, 2, 5, 40, 300)] + _diff_boundaries(None)
    for src in srcs:
        assert _plain_outcome(parse_poly, src, spec) == _plain_outcome(parse_poly_oracle, src, spec), src
        scalar = re.sub(r"x(\^\d+)?", "2", src)  # the same shapes with no letter
        assert _plain_outcome(parse_scalar, scalar, spec) == _plain_outcome(parse_scalar_oracle, scalar, spec), scalar
    for ctx, gen in _contexts(spec):
        srcs = [_diff_sum(rng, gen, rational, n) for n in (1, 3, 20, 100)] + _diff_boundaries(gen)
        for src in srcs:
            assert _outcome(parse_element, src, ctx, gen) == _outcome(parse_element_oracle, src, ctx, gen), src


def test_a_product_accepted_only_at_exact_heights_is_computed(monkeypatch):
    # 1/K + (K-1)/K is the row K over K: with no gcd its height takes 71 bits, so its
    # product with x^5000 needs 2 words per coefficient (10002 words, over the limit);
    # at the exact height 1 it needs 1 (5001 words), and the product is computed
    K = 2**70
    verdicts, real = [], parsing._refuse_if_large
    monkeypatch.setattr(parsing, "_refuse_if_large", lambda *a: verdicts.append(real(*a)) or verdicts[-1])
    assert parse_poly(f"(1/{K} + {K - 1}/{K})*x^5000", QQ) == parse_poly_oracle("x^5000", QQ)
    assert verdicts == [True]
    with pytest.raises(ParseError, match="product too large: 10002 words"):
        parse_poly(f"(1/{K} + {K - 2}/{K})*x^5000", QQ)
