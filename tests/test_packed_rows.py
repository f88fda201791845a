"""The packed rows of the Ore product over GF(p) at their boundaries.

Over GF(p) a row ``sum_k r_k Y^k`` is one int, one digit below 2p per
coefficient of ``x^j Y^k``; the digit width comes from a bound on the terms
each digit sums and, for odd p, on the Montgomery step of a row step, 1, 2,
4 or 8 bytes, or whole 64-bit words past that.  The row step is compared
with the per-digit step at its largest digits.  Products, commutators, both
exact divisions and the anti-automorphism are compared with the independent
oracles for primes that reach every width (2 at one byte or two, 3 and 7 at
two or four, 1009 at four or eight, 1000003 at one word, 2^31-1 at two
words, 2^61-1 and 2^64+13 at three), Y-degrees 0 to 10, every residue at
p-1 (the largest digit sums), zero, monomial and sparse operands, and h = 1
and h = x^p - x.
"""

import random

import pytest

from ahalg import (
    AhContext,
    FieldSpec,
    Poly,
    antiautomorphism,
    commutator,
    div_left_exact,
    div_right_exact,
)
from ahalg import algebra, packed
from ahalg.errors import SelfCheckError
from ahalg.packed import _pack, _unpack, digit_bytes

from helpers import (
    antiautomorphism_oracle,
    div_one_sided_oracle,
    naive_mul,
    packed_derivative_oracle,
    packed_reduce_oracle,
)

PRIMES = (2, 3, 7, 1009, 1000003, 2**31 - 1, 2**61 - 1, 2**64 + 13)


@pytest.mark.parametrize(
    "bits, width",
    [(1, 1), (8, 1), (9, 2), (16, 2), (17, 4), (32, 4), (33, 8), (64, 8), (65, 16), (128, 16), (129, 24)],
)
def test_the_digit_width_is_the_least_that_holds_the_bits(bits, width):
    assert digit_bytes(bits) == width


@pytest.mark.parametrize("width", [1, 2, 4, 8, 16, 24])
def test_packing_lays_digits_out_little_endian_at_every_width(width):
    rng = random.Random(width)
    top = (1 << (8 * width)) - 1
    digits = [0, top, 1] + [rng.randrange(top + 1) for _ in range(40)] + [top, 0]
    packed = _pack(digits, width)
    assert packed == sum(d << (8 * width * i) for i, d in enumerate(digits))
    assert packed == int.from_bytes(b"".join(d.to_bytes(width, "little") for d in digits), "little")
    assert _unpack(packed, len(digits), width) == digits
    assert _unpack(0, 3, width) == [0, 0, 0] and _pack([], width) == 0


def _contexts(p):
    spec = FieldSpec.gf(p)
    hs = [(1,), (1, 0, 1), (p - 1,) * 4]  # h = 1, x^2 + 1, and every digit at p-1
    if p < 10:
        hs.append((0, p - 1) + (0,) * (p - 2) + (1,))  # x^p - x
    return [AhContext(spec, Poly.from_ints(spec, h)) for h in hs]


def _element(rng, ctx, ydeg, deg, kind):
    """An element of Y-degree exactly ydeg: random, every residue p-1, or sparse."""
    spec, p = ctx.spec, ctx.spec.p
    if kind == "full":
        return ctx.element([Poly.from_ints(spec, (p - 1,) * (deg + 1))] * (ydeg + 1))
    coeffs = []
    for i in range(ydeg + 1):
        if kind == "sparse" and 0 < i < ydeg:
            coeffs.append(Poly.zero(spec))
        else:
            top = rng.randrange(1, p)
            coeffs.append(Poly.from_ints(spec, [rng.randrange(p) for _ in range(deg)] + [top]))
    return ctx.element(coeffs)


def _pairs(rng, ctx):
    """(a, b) with Y-degrees 0..10 on both sides, and zero, monomials and sparse operands."""
    kinds = ("random", "full", "sparse")
    pairs = [
        (
            _element(rng, ctx, k, 1 + k % 3, kinds[k % 3]),
            _element(rng, ctx, 10 - k, 2 - k % 3, kinds[(k + 1) % 3]),
        )
        for k in range(11)
    ]
    y, x = ctx.gen(), ctx.x()
    pairs += [(y**10, x**3 + 1), (x**2 * y**3, y**4), (ctx.zero(), y**2), (y**3 + x, ctx.zero())]
    return pairs


CASES = [(p, ctx) for p in PRIMES for ctx in _contexts(p)]
IDS = [f"GF({p}) h={ctx.h}" for p, ctx in CASES]


@pytest.mark.parametrize("p, ctx", CASES, ids=IDS)
def test_products_and_commutators_at_the_packing_boundaries(p, ctx):
    rng = random.Random(f"packed-mul:{p}:{ctx.h}")
    for a, b in _pairs(rng, ctx):
        ab, ba = naive_mul(a, b), naive_mul(b, a)
        assert a * b == ab
        assert b * a == ba
        assert commutator(a, b) == ab - ba


@pytest.mark.parametrize("p, ctx", CASES, ids=IDS)
def test_divisions_and_the_antiautomorphism_at_the_packing_boundaries(p, ctx):
    rng = random.Random(f"packed-div:{p}:{ctx.h}")
    stray = ctx.monomial(Poly.x(ctx.spec) ** 3, 2) + ctx.one()
    for v, q in _pairs(rng, ctx):
        assert antiautomorphism(v) == antiautomorphism_oracle(v)
        if v.is_zero():
            continue
        for w in (v * q, q * v, v * q + stray, q * v + stray):
            for left, div in ((True, div_left_exact), (False, div_right_exact)):
                got = div(w, v)
                assert got == div_one_sided_oracle(w, v, left)
                if got is not None:
                    assert (v * got if left else got * v) == w
        assert div_left_exact(v * q, v) == q
        assert div_right_exact(q * v, v) == q


def _step_sums(ctx, row, f, stride, width, derivative, r) -> tuple:
    """The product's row step and the anti-automorphism's Horner step on the
    row and f (digit lists), before reduction: packed at width, with r' from
    derivative and the step's constants times r."""
    p, h, shift = ctx.spec.p, ctx.h._nums, 8 * width * stride

    def pack(nums):
        return _pack([r * c % p for c in nums], width)
    row = _pack(row, width)
    d = derivative(row, width)
    return ((pack([1]) * row << shift) + pack(h) * d,
            pack(ctx.h_prime._nums) * row + (pack([-1]) * row << shift) + pack([-c for c in h]) * d
            + r * _pack(f, width))


@pytest.mark.parametrize("p", PRIMES)
def test_the_row_steps_agree_with_the_per_digit_step_at_their_largest_digits(p):
    # rows of 3 slots, the top one free for the step up, every digit a row of
    # this stride may hold at 2p-1 (x-degree below stride - e; a stride of at
    # most e holds only constants, whose r' is 0); h with R*h at p-1 in every digit
    spec, slots, wide = FieldSpec.gf(p), 3, 64
    for deg in range(5):
        e = max(deg - 1, 0)
        for stride in range(e + 1, 41):
            s = packed._shift(AhContext(spec, Poly.from_ints(spec, (1,) * (deg + 1))), stride)
            r = pow(2, s, p) if p > 2 else 1
            ctx = AhContext(spec, Poly.from_ints(spec, (-pow(r, -1, p) % p,) * (deg + 1)))
            full = ctx.element([Poly.from_ints(spec, (1,) * stride)] * slots)
            width, count = packed._width(ctx, slots, stride, (full,)), slots * stride
            row = ([2 * p - 1] * (stride - e) + [0] * e) * (slots - 1)
            f = [p - 1] * (stride - e)
            _, derivative, reduce = packed._kernel(ctx, slots, stride, width)

            def oracle(row, w):
                return packed_derivative_oracle(row, count, stride, w)
            got = _step_sums(ctx, row, f, stride, width, lambda row, _: derivative(row), r)
            exact = _step_sums(ctx, row, f, stride, wide, oracle, r)
            per_digit = _step_sums(ctx, row, f, stride, width, oracle, 1)
            for v, v_exact, v_per_digit in zip(got, exact, per_digit):
                assert _unpack(v, count, width) == _unpack(v_exact, count, wide)  # no digit carried
                largest = max(_unpack(v_exact, count, wide))
                assert largest < 1 << 8 * width
                assert p == 2 or (largest < p << s and 2 * s <= 8 * width)
                new = _unpack(reduce(v), count, width)
                assert all(c < 2 * p for c in new)
                want = _unpack(packed_reduce_oracle(v_per_digit, count, width, p), count, width)
                assert [c % p for c in new] == want


def test_the_boundaries_reach_every_digit_width(monkeypatch):
    seen, real = {}, packed._width

    def spy(ctx, *args):
        seen.setdefault(ctx.spec.p, set()).add(width := real(ctx, *args))
        return width
    monkeypatch.setattr(packed, "_width", spy)
    for p, ctx in CASES:
        for a, b in _pairs(random.Random(f"packed-mul:{p}:{ctx.h}"), ctx):
            if not a.is_zero():
                assert div_left_exact(a * b, a) == b and div_right_exact(b * a, a) == b
    widths = {p: sorted(ws - {0}) for p, ws in seen.items()}
    assert set().union(*widths.values()) == {1, 2, 4, 8, 16, 24}
    assert widths == {2: [1, 2], 3: [2, 4], 7: [2, 4], 1009: [4, 8], 1000003: [8],
                      2**31 - 1: [16], 2**61 - 1: [24], 2**64 + 13: [24]}


def test_a_quotient_too_heavy_for_the_dividend_is_refused():
    # weights add (x^j Y^k weighs j + k*(deg h - 1)), so x^5 Y^2 divides no Y^3 + ...
    ctx = _contexts(7)[2]
    y, x = ctx.gen(), ctx.x()
    for w, v in ((y**3, x**5 * y**2), (x, x**2), (y**4 + x, y * x**3 + 1)):
        for left, div in ((True, div_left_exact), (False, div_right_exact)):
            assert div(w, v) is None
            assert div_one_sided_oracle(w, v, left) is None


@pytest.mark.parametrize("k", [1, 2])
def test_a_power_of_p_of_Y_commutes_past_g_up_to_delta_to_that_power(k):
    # in characteristic p, Y^(p^k)*g = g*Y^(p^k) + delta^(p^k)(g)
    rng = random.Random(k)
    for ctx in _contexts(7)[1:]:
        n = 7**k
        yn = ctx.gen() ** n
        for _ in range(3):
            g = Poly.from_ints(ctx.spec, [rng.randrange(7) for _ in range(6)])
            assert yn * g == ctx.from_poly(g) * yn + ctx.from_poly(ctx.delta_power(g, n))


def test_lucas_binomials_skip_the_vanishing_terms():
    # Y^2401 * x over GF(7): C(2401, m) = 0 mod 7 for 0 < m < 2401
    spec = FieldSpec.gf(7)
    ctx = AhContext(spec, Poly.from_ints(spec, (1, 0, 1)))
    assert str(ctx.gen() ** 2401 * ctx.x()) == "x*Y^2401 + x^2 + 1"
    assert algebra._binomials(2401, 7) == [(0, 1), (2401, 1)]
    assert algebra._binomials(10, 3) == [(0, 1), (1, 1), (9, 1), (10, 1)]  # 10 = 101 in base 3
    assert algebra._binomials(10, 3, 8) == [(0, 1), (1, 1)]
    assert algebra._binomials(0, 3, -1) == []
    # the binomials stop at the table's length: two entries for x when h = 1
    big = FieldSpec.gf(1000003)
    ctx = AhContext(big, Poly.one(big))
    assert str(ctx.gen() ** 5000 * ctx.x()) == "x*Y^5000 + 5000*Y^4999"


def test_packed_division_checks_its_degree_drop(monkeypatch):
    # rows that do not cancel the solved slot must raise, also under python -O
    ctx = _contexts(7)[1]
    w = ctx.gen() ** 2 * ctx.x()
    monkeypatch.setattr(
        packed, "_residues", lambda a, sign=1: [tuple(2 * c * sign % 7 for c in f._nums) for f in a.coeffs]
    )
    for div in (div_left_exact, div_right_exact):
        with pytest.raises(SelfCheckError):
            div(w, ctx.gen())
