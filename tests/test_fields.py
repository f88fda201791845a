"""Field arithmetic: canonical forms, axioms, and the integer embedding."""

import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ahalg import FieldElem, FieldSpec
from ahalg.errors import FieldMismatch, InfiniteFieldError
from ahalg.fields import _is_prime

QQ = FieldSpec.rationals()
F5 = FieldSpec.gf(5)
F7 = FieldSpec.gf(7)


def test_rational_add_canonical():
    assert QQ.elem(Fraction(1, 2)) + QQ.elem(Fraction(1, 3)) == Fraction(5, 6)


def test_gf5_mul():
    assert F5.from_int(3) * F5.from_int(4) == F5.from_int(2)


def test_gf7_division_matches_brute_force_inverse_table():
    # independent oracle: scan for the inverse of 5
    inverse = next(e for e in F7.elements() if (F7.from_int(5) * e).is_one())
    assert F7.from_int(3) / F7.from_int(5) == F7.from_int(3) * inverse
    assert F7.from_int(3) / F7.from_int(5) == F7.from_int(2)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        QQ.one() / QQ.zero()
    with pytest.raises(ZeroDivisionError):
        F5.one() / F5.zero()


def test_field_mismatch():
    with pytest.raises(FieldMismatch):
        F5.one() + F7.one()


def test_int_embed():
    assert QQ.from_int(5).val == Fraction(5)
    assert F5.from_int(5).is_zero()
    assert FieldSpec.gf(3).from_int(10) == 1


def test_enumerate():
    assert [e.val for e in FieldSpec.gf(3).elements()] == [0, 1, 2]
    assert [e.val for e in FieldSpec.gf(2).elements()] == [0, 1]
    with pytest.raises(InfiniteFieldError):
        list(QQ.elements())


def test_primality_validated():
    with pytest.raises(ValueError):
        FieldSpec.gf(6)
    with pytest.raises(ValueError):
        FieldSpec.gf(1)


def test_primality_by_miller_rabin():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [p for p in range(3000) if _is_prime(p)] == [
        p for p in range(3000) if trial_division(p)
    ]
    # Carmichael numbers and strong pseudoprimes to the leading bases
    for n in (561, 2047, 3215031751, 3825123056546413051):
        assert not _is_prime(n)
        with pytest.raises(ValueError):
            FieldSpec.gf(n)


def test_large_prime_field_builds_fast():
    start = time.perf_counter()
    spec = FieldSpec.gf(2**61 - 1)
    assert time.perf_counter() - start < 0.5
    assert spec.from_int(2**61) == 1


def test_primality_refused_beyond_the_proven_bound():
    with pytest.raises(ValueError, match="too large to certify"):
        FieldSpec.gf(2**89 - 1)


def test_characteristic():
    assert QQ.characteristic == 0
    assert F5.characteristic == 5


rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20).map(QQ.elem)
residues = st.integers(0, 4).map(F5.from_int)


@given(rationals, rationals, rationals)
def test_qq_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not b.is_zero():
        assert (a / b) * b == a


@given(residues, residues, residues)
def test_gf5_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    if not b.is_zero():
        assert (a / b) * b == a


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_int_embed_is_ring_hom(m, n):
    for spec in (QQ, F5, F7):
        assert spec.from_int(m + n) == spec.from_int(m) + spec.from_int(n)
        assert spec.from_int(m * n) == spec.from_int(m) * spec.from_int(n)


def test_inverse_and_pow():
    assert F5.from_int(2) ** -1 == F5.from_int(3)
    assert QQ.elem(Fraction(2, 3)) ** -2 == Fraction(9, 4)
    assert F7.from_int(3) ** 6 == 1


def test_one_trial_division_serves_divisors_and_prime_divisors():
    from ahalg.autgroup import _prime_divisors
    from ahalg.fields import _factor
    from ahalg.poly import _divisors

    limit = 10**5
    divisors = [[] for _ in range(limit)]  # brute force: a sieve of divisors
    for d in range(1, limit):
        for m in range(d, limit, d):
            divisors[m].append(d)
    for n in range(1, limit):
        assert _divisors(n) == divisors[n]
        assert _prime_divisors(n) == [d for d in divisors[n] if len(divisors[d]) == 2]
    primes = [q for q in range(2**20 - 200, 2**20 + 200) if _is_prime(q)]
    for p, q in ((primes[0], primes[-1]), (primes[1], primes[2]), (primes[3], primes[3])):
        expected = [(p, 1), (q, 1)] if p != q else [(p, 2)]
        assert _factor(p * q) == expected
        assert _prime_divisors(p * q) == [e[0] for e in expected]
        assert _divisors(p * q) == sorted({1, p, q, p * q})
