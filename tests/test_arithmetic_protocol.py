"""One table of the arithmetic protocol of FieldElem and Poly.

Each operator meets an element, an int and a Fraction, on both sides, over
GF(7) and QQ; the expected values come from plain Fraction arithmetic mapped
into the field by a brute-force search, not from the code under test.
Non-scalars, scalars of another field, zero divisors and non-integer
Fractions in a prime field each raise one error with one text.
"""

import operator
import re
from fractions import Fraction

import pytest

from ahalg import AhContext, FieldElem, FieldSpec, Poly
from ahalg.errors import FieldMismatch

QQ = FieldSpec.rationals()
F5 = FieldSpec.gf(5)
F7 = FieldSpec.gf(7)
FIELDS = (F7, QQ)

BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def in_field(spec, r: Fraction):
    """The raw value of the rational r in spec: r itself over QQ, else the residue e with e * den = num."""
    if not spec.p:
        return r
    return next(e for e in range(spec.p) if (e * r.denominator - r.numerator) % spec.p == 0)


def operands(spec):
    """(operand, its value as a Fraction): an element, an int and a Fraction of the field."""
    frac = Fraction(9) if spec.p else Fraction(-2, 3)
    return [(FieldElem(spec, 3), Fraction(3)), (-4, Fraction(-4)), (frac, frac)]


def scalar_cases():
    for spec in FIELDS:
        for name in BINARY:
            for other, value in operands(spec):
                for left in (True, False):
                    yield spec, name, other, value, left


@pytest.mark.parametrize("spec, name, other, value, left", list(scalar_cases()))
def test_field_elem_binary_operators(spec, name, other, value, left):
    a_value = Fraction(6) if spec.p else Fraction(5, 2)
    a = FieldElem(spec, a_value)
    op = BINARY[name]
    got = op(a, other) if left else op(other, a)
    want = op(a_value, value) if left else op(value, a_value)
    assert type(got) is FieldElem and got.spec == spec
    assert got.val == in_field(spec, want)


@pytest.mark.parametrize("spec", FIELDS, ids=repr)
@pytest.mark.parametrize("n", [-3, 0, 5])
def test_field_elem_powers(spec, n):
    for v in (Fraction(3), Fraction(-2, 5) if not spec.p else Fraction(6)):
        got = FieldElem(spec, v) ** n
        assert type(got) is FieldElem and got.val == in_field(spec, v**n)


@pytest.mark.parametrize("spec", FIELDS, ids=repr)
def test_negative_powers_are_powers_of_the_inverse(spec):
    for a in (FieldElem(spec, 3), FieldElem(spec, -1), FieldElem(spec, Fraction(4) if spec.p else Fraction(2, 7))):
        for n in (1, 2, 3, 4):
            assert a ** -n == a.inverse() ** n
            assert (a ** -n * a**n).is_one()


def poly_cases():
    for spec in FIELDS:
        for name in ("+", "-", "*"):
            for other, value in operands(spec):
                for left in (True, False):
                    yield spec, name, other, value, left


def poly_values(spec):
    return [Fraction(1, 2) if not spec.p else Fraction(4), Fraction(0), Fraction(-3)]


@pytest.mark.parametrize("spec, name, other, value, left", list(poly_cases()))
def test_poly_scalar_operators(spec, name, other, value, left):
    values = poly_values(spec)
    f = Poly(spec, values)
    op = BINARY[name]
    got = op(f, other) if left else op(other, f)
    if name == "*":
        want = [c * value for c in values]
    else:
        sign = 1 if left or name == "+" else -1
        want = [sign * c for c in values]
        want[0] = op(values[0], value) if left else op(value, values[0])
    assert type(got) is Poly and got == Poly(spec, [in_field(spec, c) for c in want])


@pytest.mark.parametrize("spec", FIELDS, ids=repr)
def test_poly_divmod_by_a_scalar(spec):
    values = poly_values(spec)
    f = Poly(spec, values)
    for other, value in operands(spec):
        q, r = divmod(f, other)
        assert q == Poly(spec, [in_field(spec, c / value) for c in values])
        assert r.is_zero() and f // other == q and (f % other).is_zero()


@pytest.mark.parametrize("spec", FIELDS, ids=repr)
@pytest.mark.parametrize("bad", ["x", None])
def test_non_scalars_raise_type_error(spec, bad):
    a, f = FieldElem(spec, 3), Poly(spec, (1, 2))
    for ours in (a, f):
        for op in (*BINARY.values(), pow):
            for call in (lambda: op(ours, bad), lambda: op(bad, ours)):
                with pytest.raises(TypeError):
                    call()


def test_a_poly_times_an_ore_element_reaches_the_ore_product():
    for spec in FIELDS:
        ctx = AhContext(spec, Poly(spec, (0, 0, 1)))
        f, y = Poly(spec, (1, 2)), ctx.gen()
        assert f * y == ctx.from_poly(f) * y
        assert y * f == y * ctx.from_poly(f)
        assert f.__mul__(y) is NotImplemented


def test_a_scalar_of_another_field_raises_field_mismatch():
    a, b, f = FieldElem(F7, 3), FieldElem(F5, 2), Poly(F7, (1, 1))
    for call, text in ((lambda: a + b, "2 in GF(5) is not in GF(7)"),
                       (lambda: a * b, "2 in GF(5) is not in GF(7)"),
                       (lambda: a / b, "2 in GF(5) is not in GF(7)"),
                       (lambda: b - a, "3 in GF(7) is not in GF(5)"),
                       (lambda: f + b, "2 in GF(5) is not in GF(7)"),
                       (lambda: b - f, "2 in GF(5) is not in GF(7)"),
                       (lambda: f * b, "2 in GF(5) is not in GF(7)"),
                       (lambda: divmod(f, b), "2 in GF(5) is not in GF(7)")):
        with pytest.raises(FieldMismatch, match=re.escape(text)):
            call()


@pytest.mark.parametrize("spec", FIELDS, ids=repr)
def test_zero_divisors_raise_one_text(spec):
    a, zero = FieldElem(spec, 3), FieldElem(spec, 0)
    for call in (lambda: a / 0, lambda: a / zero, lambda: 1 / zero, lambda: zero ** -1, lambda: zero.inverse()):
        with pytest.raises(ZeroDivisionError, match="^inverse of zero$"):
            call()
    f = Poly(spec, (1, 2))
    for call in (lambda: f // 0, lambda: divmod(f, zero), lambda: f % Poly.zero(spec)):
        with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
            call()


def test_a_non_integer_fraction_in_a_prime_field_raises_value_error():
    half, a, f = Fraction(1, 2), FieldElem(F7, 3), Poly(F7, (1, 1))
    for call in (lambda: a + half, lambda: half + a, lambda: a * half, lambda: half / a,
                 lambda: f + half, lambda: half - f, lambda: f * half, lambda: half * f, lambda: divmod(f, half)):
        with pytest.raises(ValueError, match="^non-integer value in a prime field$"):
            call()
