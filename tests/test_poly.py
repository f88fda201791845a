"""Polynomial ring, calculus, squarefree structure, and factorization."""

import copy
import itertools
import pickle
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ahalg import (
    FieldElem,
    FieldSpec,
    Poly,
    distinct_root_count,
    factor,
    gcd_monic,
    rational_roots,
    squarefree_decomposition,
    squarefree_part,
)
from ahalg import poly as poly_module
from ahalg.errors import FieldMismatch, SelfCheckError, ZeroInputError
from ahalg.poly import is_irreducible, pow_mod

from ahalg.poly import FactorTerm
from helpers import (
    compose_oracle,
    distinct_degree_oracle,
    equal_degree_oracle,
    gcd_monic_oracle,
    irreducible_oracle,
    pow_mod_oracle,
    power_oracle,
    pth_root_oracle,
    rand_poly,
    squarefree_decomposition_oracle,
    squarefree_oracle,
    trace_map_oracle,
)

QQ = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
F3 = FieldSpec.gf(3)
F5 = FieldSpec.gf(5)


def P(spec, *ints):
    return Poly.from_ints(spec, ints)


def test_product_difference_of_squares():
    assert P(QQ, 1, 1) * P(QQ, -1, 1) == P(QQ, -1, 0, 1)


def test_divmod_basics():
    q, r = divmod(P(QQ, 0, 0, 1), P(QQ, 1, 1))
    assert q == P(QQ, -1, 1) and r == P(QQ, 1)


def test_freshmans_dream():
    assert P(F2, 1, 1) ** 2 == P(F2, 1, 0, 1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(P(QQ, 1), Poly.zero(QQ))


def test_derivative():
    assert P(QQ, 0, 0, 0, 1).derivative() == P(QQ, 0, 0, 3)
    assert P(F3, 0, 0, 0, 1).derivative().is_zero()
    assert P(F2, 0, 1, 1).derivative() == P(F2, 1)


def test_gcd():
    assert gcd_monic(P(QQ, -1, 0, 1), P(QQ, -1, 1)) == P(QQ, -1, 1)
    assert gcd_monic(P(QQ, 0, 1), P(QQ, 1, 1)).is_one()
    # gcd(x^4 + x^2, x^3) over GF(2): x^4 + x^2 = x^2 (x+1)^2
    assert gcd_monic(P(F2, 0, 0, 1, 0, 1), P(F2, 0, 0, 0, 1)) == P(F2, 0, 0, 1)
    with pytest.raises(ZeroInputError):
        gcd_monic(Poly.zero(QQ), Poly.zero(QQ))


def test_compose():
    assert P(QQ, 0, 0, 1).compose(P(QQ, 1, 1)) == P(QQ, 1, 2, 1)
    f = P(QQ, 3, 1, 4)
    assert f.compose(Poly.x(QQ)) == f
    # (2x)^2 - 2x over GF(3) = 4x^2 - 2x = x^2 + x
    assert P(F3, 0, -1, 1).compose(P(F3, 0, 2)) == P(F3, 0, 1, 1)


def test_distinct_root_count():
    assert distinct_root_count(P(QQ, 0, 0, -1, 1) * P(QQ, 0, 1)) == 2  # x^2(x-1): roots 0, 1
    assert distinct_root_count(P(QQ, 0, 0, 0, 0, 1)) == 1
    for p in (2, 3, 5):
        spec = FieldSpec.gf(p)
        xp_minus_x = Poly.monomial(spec, spec.one(), p) - Poly.x(spec)
        # oracle: every field element is a root
        assert all(xp_minus_x.evaluate(e).is_zero() for e in spec.elements())
        assert distinct_root_count(xp_minus_x) == p


def test_squarefree_part_divides():
    rng = random.Random(7)
    for spec in (QQ, F2, F5):
        for _ in range(25):
            f = rand_poly(rng, spec, 6, nonzero=True)
            if f.degree < 1:
                continue
            rad = squarefree_part(f)
            assert rad.divides(f)
            assert distinct_root_count(f) == rad.degree
            parts = squarefree_decomposition(f)
            rebuilt = Poly.constant(f.lc)
            for g, m in parts:
                rebuilt = rebuilt * g**m
            assert rebuilt == f


def test_squarefree_matches_yun_over_qq():
    rng = random.Random(8)
    for _ in range(60):
        f = Poly.constant(QQ.elem(Fraction(rng.randint(1, 5), rng.randint(1, 3))))
        for m in range(1, 4):
            for _ in range(rng.randint(0, 2)):
                f = f * rand_poly(rng, QQ, 3, nonzero=True) ** m
        assert squarefree_decomposition(f) == squarefree_oracle(f)


def monic_polys(spec, max_deg):
    for deg in range(1, max_deg + 1):
        for tail in itertools.product(range(spec.p), repeat=deg):
            yield Poly.from_ints(spec, tail + (1,))


@pytest.mark.parametrize("p, max_deg", [(2, 7), (3, 5), (5, 4), (7, 3)])
def test_irreducibility_matches_rabin_exhaustively(p, max_deg):
    spec = FieldSpec.gf(p)
    irreducible = []
    for f in monic_polys(spec, max_deg):
        verdict = is_irreducible(f)
        assert verdict == irreducible_oracle(f), f
        if verdict:
            irreducible.append(f)
    # reducible on purpose: p-th powers, squares, products of two of one degree
    for u, v in zip(irreducible, irreducible[1:]):
        for g in [u**p, u**2] + ([u * v] if v.degree == u.degree else []):
            assert not is_irreducible(g) and not irreducible_oracle(g), g
            assert not is_irreducible(g.scaled(spec.from_int(p - 1)))
    counts = [sum(f.degree == d for f in irreducible) for d in range(1, max_deg + 1)]
    # Gauss: the number of monic irreducibles of degree d is (1/d) sum_(e | d) mu(e) p^(d/e)
    assert counts[:3] == [p, (p * p - p) // 2, (p**3 - p) // 3]


def test_factor_over_qq():
    fac = factor(P(QQ, -1, 0, 1))
    assert str(fac.unit) == "1"
    assert [(str(t.poly), t.multiplicity, t.verified) for t in fac.factors] == [
        ("x - 1", 1, True),
        ("x + 1", 1, True),
    ]
    fac = factor(P(QQ, 1, 0, 1))
    assert [(str(t.poly), t.multiplicity, t.verified) for t in fac.factors] == [
        ("x^2 + 1", 1, True)
    ]
    # degree-4 irreducible-looking cofactor is left unverified
    fac = factor(P(QQ, 1, 0, 0, 0, 1))
    assert not fac.fully_verified


def test_factor_over_gf2():
    fac = factor(P(F2, 1, 0, 1))
    assert [(str(t.poly), t.multiplicity) for t in fac.factors] == [("x + 1", 2)]


def test_factor_roundtrip_and_irreducibility():
    rng = random.Random(11)
    for spec in (F2, F3, F5):
        for _ in range(20):
            f = rand_poly(rng, spec, 6, nonzero=True)
            fac = factor(f, seed=3)
            assert fac.expand() == f
            for t in fac.factors:
                assert t.poly.is_monic()
                assert is_irreducible(t.poly)
                # independent probe: no common factor with x^(p^d) - x for d < deg
                p = spec.characteristic
                x = Poly.x(spec)
                for d in range(1, t.poly.degree):
                    probe = pow_mod(x, p**d, t.poly) - x
                    if not probe.is_zero():
                        assert gcd_monic(t.poly, probe).is_one()
    rng = random.Random(12)
    for _ in range(15):
        f = rand_poly(rng, QQ, 5, nonzero=True)
        assert factor(f).expand() == f


def test_factor_deterministic_under_seed():
    f = P(F5, 2, 0, 1, 3, 0, 1, 1)
    assert factor(f, seed=9) == factor(f, seed=9)


def test_factor_terms_are_three_field_records():
    term = factor(P(F5, 1, 0, 1)).factors[0]  # x^2 + 1 = (x + 2)(x + 3)
    poly, multiplicity, verified = term
    assert (poly, multiplicity, verified) == (P(F5, 2, 1), 1, True)
    assert term._asdict() == {"poly": poly, "multiplicity": 1, "verified": True}
    assert term._replace(verified=False) == (poly, 1, False)
    for twin in (copy.copy(term), copy.deepcopy(term), pickle.loads(pickle.dumps(term))):
        assert twin == term and type(twin) is FactorTerm


def test_scalar_products_refuse_as_sums_do():
    f = P(F5, 1, 1)
    for other, error, text in ((FieldSpec.gf(7).from_int(2), FieldMismatch, "2 in GF(7) is not in GF(5)"),
                               (Fraction(1, 2), ValueError, "non-integer value in a prime field"),
                               (P(FieldSpec.gf(7), 0, 1), FieldMismatch, "polynomials over different fields")):
        for product in (lambda: f * other, lambda: other * f, lambda: f + other):
            with pytest.raises(error, match=re.escape(text)):
                product()
    assert f * 7 == 7 * f == f * F5.from_int(2) == P(F5, 2, 2)
    assert P(QQ, 1, 2) * Fraction(3, 4) == P(QQ, Fraction(3, 4), Fraction(3, 2))


def test_rational_roots():
    assert sorted(e.val for e in rational_roots(P(QQ, -1, 0, 1))) == [-1, 1]
    assert rational_roots(P(QQ, 1, 0, 1)) == []
    got = {e.val for e in rational_roots(P(QQ, -1, -1, 2))}
    assert got == {1, Fraction(-1, 2)}
    for root in rational_roots(P(QQ, -1, -1, 2)):
        assert P(QQ, -1, -1, 2).evaluate(root).is_zero()


@st.composite
def qq_polys(draw, max_deg=5):
    n = draw(st.integers(0, max_deg))
    coeffs = draw(
        st.lists(
            st.fractions(min_value=-9, max_value=9, max_denominator=4),
            min_size=n + 1,
            max_size=n + 1,
        )
    )
    return Poly(QQ, [QQ.elem(c) for c in coeffs])


@settings(max_examples=60)
@given(qq_polys(), qq_polys())
def test_divmod_roundtrip(a, b):
    if b.is_zero():
        return
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@settings(max_examples=60)
@given(qq_polys(), qq_polys())
def test_derivative_linear_and_leibniz(a, b):
    assert (a + b).derivative() == a.derivative() + b.derivative()
    assert (a * b).derivative() == a.derivative() * b + a * b.derivative()


def test_print_forms():
    assert str(P(QQ, 1, -2, 1)) == "x^2 - 2*x + 1"
    assert str(Poly.zero(QQ)) == "0"
    assert str(P(QQ, 0, -1)) == "-x"
    assert str(Poly(QQ, [Fraction(1, 2)])) == "1/2"
    assert str(P(F3, 2, 2)) == "2*x + 2"


def test_distinct_root_count_pth_power():
    F2loc = FieldSpec.gf(2)
    assert distinct_root_count(Poly.monomial(F2loc, F2loc.one(), 4)) == 1
    # (x^2 + x)^2 = x^2 (x+1)^2 over GF(2): two distinct roots
    assert distinct_root_count(Poly.from_ints(F2loc, (0, 1, 1)) ** 2) == 2


def test_equal_degree_sweep_lists_no_field():
    # with every random candidate constant, the deterministic sweep splits (x+1)(x+2)
    # over GF(2^61-1) without building a tuple of range(p)
    class NoRandomness:
        randrange = staticmethod(lambda p: 0)

    spec = FieldSpec.gf(2**61 - 1)
    split = poly_module._equal_degree([2, 3, 1], 1, spec.p, NoRandomness())
    assert sorted(split) == [[1, 1], [2, 1]]


def test_equal_degree_splitting_checks_itself(monkeypatch):
    # with no candidates left the splitter must raise, also under python -O
    monkeypatch.setattr(poly_module, "_splitter_candidates", lambda n, p, rng: iter(()))
    with pytest.raises(SelfCheckError):
        factor(P(F5, -1, 0, 1))


# -- the raw-int kernel against a plain Fraction/int oracle ---------------------
#
# The oracle works on lists of canonical values (ints in range(p), or
# Fractions), by increasing degree with trailing zeros stripped.

KERNEL_FIELDS = (QQ, F2, FieldSpec.gf(7), FieldSpec.gf(1000003))


def _value(spec, c):
    """The canonical value of an int, Fraction or FieldElem in spec."""
    if isinstance(c, FieldElem):
        c = c.val
    if spec.is_prime_field:
        return int(c) % spec.p
    return Fraction(c)


def _trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def o_canon(spec, raw):
    return _trim(_value(spec, c) for c in raw)


def o_add(spec, a, b):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return o_canon(spec, [x + y for x, y in zip(a, b)])


def o_neg(spec, a):
    return o_canon(spec, [-x for x in a])


def o_mul(spec, a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return o_canon(spec, out)


def o_inverse(spec, c):
    return pow(c, -1, spec.p) if spec.is_prime_field else 1 / c


def o_divmod(spec, a, b):
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    inv = o_inverse(spec, b[-1])
    for i in range(len(a) - len(b), -1, -1):
        q = _value(spec, rem[i + len(b) - 1] * inv)
        quot[i] = q
        for j, y in enumerate(b):
            rem[i + j] = _value(spec, rem[i + j] - q * y)
    return o_canon(spec, quot), o_canon(spec, rem)


def o_derivative(spec, a):
    return o_canon(spec, [i * x for i, x in enumerate(a)][1:])


def o_compose(spec, a, b):
    acc = []
    for c in reversed(a):
        acc = o_add(spec, o_mul(spec, acc, b), [c])
    return acc


def o_gcd_monic(spec, a, b):
    while b:
        a, b = b, o_divmod(spec, a, b)[1]
    inv = o_inverse(spec, a[-1])
    return o_canon(spec, [x * inv for x in a])


def scalars(spec):
    """Coefficients as callers write them, canonical or not."""
    ints = st.integers(-3 * 10**6, 3 * 10**6)
    if spec.is_prime_field:
        # integer-valued Fractions such as Fraction(6, 3)
        fracs = st.builds(lambda n, m: Fraction(n * m, m), st.integers(-50, 50), st.integers(1, 9))
    else:
        fracs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
    return st.one_of(ints, fracs, st.one_of(ints, fracs).map(spec.elem))


def raw_polys(spec, max_len=6):
    return st.lists(scalars(spec), max_size=max_len)


def values(f):
    return [c.val for c in f.coeffs]


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_oracle(spec, data):
    a_raw, b_raw = data.draw(raw_polys(spec)), data.draw(raw_polys(spec))
    c_raw = data.draw(scalars(spec))
    f, g = Poly(spec, a_raw), Poly(spec, b_raw)
    a, b, c = o_canon(spec, a_raw), o_canon(spec, b_raw), o_canon(spec, [c_raw])
    expected = {
        "f": (f, a),
        "f * c": (f * c_raw, o_mul(spec, a, c)),
        "f + g": (f + g, o_add(spec, a, b)),
        "f - g": (f - g, o_add(spec, a, o_neg(spec, b))),
        "-f": (-f, o_neg(spec, a)),
        "f * g": (f * g, o_mul(spec, a, b)),
        "f'": (f.derivative(), o_derivative(spec, a)),
        "f(g)": (f.compose(g), o_compose(spec, a, b)),
    }
    if b:
        q, r = divmod(f, g)
        oq, orem = o_divmod(spec, a, b)
        expected["f // g"] = (q, oq)
        expected["f % g"] = (r, orem)
    if a or b:
        expected["gcd"] = (gcd_monic(f, g), o_gcd_monic(spec, a, b))
    for name, (got, want) in expected.items():
        assert values(got) == want, name
        # a computed result is canonical: it equals, and hashes like, the
        # polynomial built from the oracle's values
        rebuilt = Poly(spec, want)
        assert got == rebuilt and hash(got) == hash(rebuilt), name


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_equality_and_hash_ignore_spelling(spec, data):
    raw = data.draw(raw_polys(spec))
    vals = o_canon(spec, raw)
    if spec.is_prime_field:
        respelled = [v + spec.p * data.draw(st.integers(-3, 3)) for v in vals]
    else:
        k = data.draw(st.integers(1, 6))
        respelled = [Fraction(v.numerator * k, v.denominator * k) for v in vals]
    spellings = [
        Poly(spec, raw),
        Poly(spec, vals),
        Poly(spec, [spec.elem(v) for v in vals] + [0, spec.zero()]),
        Poly(spec, respelled),
    ]
    for f in spellings:
        assert f == spellings[0] and hash(f) == hash(spellings[0])


def test_equality_and_hash_examples():
    half = Poly(QQ, [Fraction(1, 2), 1])
    assert half == Poly(QQ, [Fraction(2, 4), Fraction(3, 3)])
    assert hash(half) == hash(Poly(QQ, [Fraction(2, 4), Fraction(3, 3)]))
    F7 = FieldSpec.gf(7)
    assert Poly(F7, [-1, 9]) == Poly(F7, [6, Fraction(4, 2)]) == Poly(F7, [F7.elem(6), 2])
    assert hash(Poly(F7, [-1, 9])) == hash(Poly(F7, [6, 2]))
    assert Poly(F7, [7, 14]) == Poly.zero(F7)


@pytest.mark.parametrize("spec", KERNEL_FIELDS, ids=repr)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_coeffs_are_field_elems(spec, data):
    f = Poly(spec, data.draw(raw_polys(spec)))
    read = list(f.coeffs) + [f.coeff(i) for i in range(-1, len(f.coeffs) + 2)]
    if not f.is_zero():
        read.append(f.lc)
        read.append(f.evaluate(data.draw(scalars(spec))))
    for c in read:
        assert isinstance(c, FieldElem) and c.spec == spec
        if spec.is_prime_field:
            assert type(c.val) is int and 0 <= c.val < spec.p
        else:
            assert type(c.val) is Fraction
    if not spec.is_prime_field and f.degree >= 1:
        for root in rational_roots(f):
            assert type(root.val) is Fraction and f.evaluate(root).is_zero()


def test_boundary_errors():
    F7 = FieldSpec.gf(7)
    with pytest.raises(FieldMismatch):
        Poly(F7, [F5.one()])
    with pytest.raises(FieldMismatch):
        Poly(QQ, [1, F7.one()])
    with pytest.raises(FieldMismatch):
        P(F7, 1, 2) * F5.one()
    with pytest.raises(FieldMismatch):
        P(F7, 1, 2) + P(F5, 1)
    with pytest.raises(FieldMismatch):
        P(F7, 1, 2).evaluate(F5.one())
    with pytest.raises(ValueError):
        Poly(F7, [1, Fraction(1, 2)])
    with pytest.raises(ValueError):
        P(F7, 1, 2).scaled(Fraction(1, 2))


class _IntSub(int):
    pass


class _PolySub(Poly):
    __slots__ = ()


def test_operand_types_outside_the_fast_paths():
    # bool, int subclasses, Fractions and Poly subclasses take the general route
    for spec in (QQ, FieldSpec.gf(7)):
        one = Poly.one(spec)
        assert FieldElem(spec, True) == 1 == FieldElem(spec, _IntSub(8 if spec.p else 1))
        assert FieldElem(spec, Fraction(14, 2)) == 7
        assert one * True == one == one + False and one.__eq__(True)
        sub = object.__new__(_PolySub)
        sub.spec, sub._nums, sub._den = spec, (0, 1), 1
        assert sub == Poly.x(spec) and one * sub == Poly.x(spec) and (one + sub).degree == 1
        assert (one == "1") is False and one.__mul__("1") is NotImplemented
        with pytest.raises(TypeError):
            one + "1"
        with pytest.raises(FieldMismatch):
            one * Poly.one(FieldSpec.gf(5))
    with pytest.raises(ValueError):
        FieldElem(FieldSpec.gf(7), Fraction(1, 2))
    assert FieldElem(QQ, 3).val == Fraction(3) and type(FieldElem(QQ, 3).val) is Fraction


# -- the raw kernel's entry points against the Poly-level oracles ---------------

PARITY_FIELDS = (F2, F3, F5, FieldSpec.gf(7), FieldSpec.gf(1000003), FieldSpec.gf(2**61 - 1), QQ)


def parity_polys(spec) -> list:
    """Zero, constants, non-monic polynomials, repeated factors and, for small
    p, p-th powers (x^p, (x+1)^(2p)) that make squarefree decomposition descend."""
    rng = random.Random((spec.p or 0) + 17)
    x, one = Poly.x(spec), Poly.one(spec)
    half = spec.elem(Fraction(1, 2)) if not spec.p else spec.from_int(spec.p - 1)
    u = x.scaled(3) + one if spec.p != 3 else x + one.scaled(2)
    v = Poly(spec, (half, 0, 1))
    out = [Poly.zero(spec), one.scaled(3) if spec.p != 3 else one, x, u.scaled(half),
           (u**2 * v**3).scaled(half), v**2 * x**3]
    out += [rand_poly(rng, spec, 5, nonzero=True) for _ in range(4)]
    if spec.p and spec.p <= 7:
        p = spec.p
        out += [x**p, (x + one) ** (2 * p), (v**p * (x + one)).scaled(half), u**p * v**(p + 1)]
    return out


@pytest.mark.parametrize("spec", PARITY_FIELDS, ids=repr)
def test_gcd_and_compose_match_the_poly_oracles(spec):
    polys = parity_polys(spec)
    for f in polys:
        for g in polys:
            if f or g:
                assert gcd_monic(f, g) == gcd_monic_oracle(f, g), (f, g)
            assert f.compose(g) == compose_oracle(f, g), (f, g)
            if g:
                q, r = divmod(f, g)
                assert (q, r) == (f // g, f % g) and q * g + r == f and r.degree < g.degree


@pytest.mark.parametrize("spec", PARITY_FIELDS, ids=repr)
def test_powers_match_the_poly_oracles(spec):
    polys = parity_polys(spec)
    large = 300 if not spec.p else spec.p**3 + 10**18 + 7
    for f in polys:
        for n in (0, 1, 2, 7):
            assert f**n == power_oracle(f, n), (f, n)
        for mod in polys:
            if mod:
                for e in (0, 1, 2, large):
                    assert pow_mod(f, e, mod) == pow_mod_oracle(f, e, mod), (f, e, mod)
    with pytest.raises(ZeroDivisionError):
        pow_mod(Poly.x(spec), 3, Poly.zero(spec))


@pytest.mark.parametrize("spec", PARITY_FIELDS, ids=repr)
def test_squarefree_structure_matches_the_poly_oracles(spec):
    for f in parity_polys(spec):
        if not f:
            with pytest.raises(ZeroInputError):
                squarefree_decomposition(f)
            continue
        parts = squarefree_decomposition_oracle(f)
        assert squarefree_decomposition(f) == parts, f
        rad = Poly.one(spec)
        for g, _ in parts:
            rad = rad * g
        assert squarefree_part(f) == rad and distinct_root_count(f) == max(rad.degree, 0)
        if not spec.p:
            assert parts == squarefree_oracle(f)
        elif f.degree >= 1 and all(c == 0 for i, c in enumerate(f._nums) if i % spec.p):
            # the p-th root _squarefree descends to is f[::p]: spread back, it is f
            assert poly_module._spread(spec, pth_root_oracle(f)._nums, spec.p) == f


@pytest.mark.parametrize("spec", PARITY_FIELDS[:-1], ids=repr)
def test_factoring_steps_match_the_poly_oracles(spec):
    p = spec.p
    for f in parity_polys(spec):
        if f.degree < 1:
            continue
        assert is_irreducible(f) == irreducible_oracle(f), f
        expected = []
        for g, m in squarefree_decomposition_oracle(f):
            steps = poly_module._distinct_degree(list(g._nums), p)
            assert [(Poly.from_ints(spec, q), d) for q, d in steps] == distinct_degree_oracle(g)
            for prod, d in steps:
                split = poly_module._equal_degree(prod, d, p, random.Random(5))
                primes = equal_degree_oracle(Poly.from_ints(spec, prod), d)
                assert {Poly.from_ints(spec, q) for q in split} == primes
                expected += [(q, m) for q in primes]
        assert sorted(factor(f, seed=5).factors, key=repr) == sorted(
            (FactorTerm(q, m, True) for q, m in expected), key=repr)
        if p == 2:
            mod = f.monic()
            for r in parity_polys(spec)[1:]:
                tail = poly_module._tail(list(mod._nums), 2)
                for d in (1, 2, 3):
                    got = poly_module._trace_map(list(r._nums), d, tail)
                    assert Poly.from_ints(spec, got) == trace_map_oracle(r, d, mod)


def _repeated(a, e, mul, one):
    out = one
    for _ in range(e):
        out = mul(out, a)
    return out


def test_power_loop_is_repeated_product_on_ints_and_polys():
    p = 1000003
    mul = lambda u, v: u * v % p  # noqa: E731
    for e in range(41):
        got = poly_module._power(123457, e, mul, 1)
        assert got == _repeated(123457, e, mul, 1) == pow(123457, e, p)
    for spec in (QQ, F2, FieldSpec.gf(1000003)):
        f = Poly(spec, (Fraction(-3, 2), 1, 0, 2) if not spec.p else (1, 1, 0, 1))
        mul = lambda u, v: u * v  # noqa: E731
        for e in range(41):
            assert f**e == poly_module._power(f, e, mul, Poly.one(spec)) == _repeated(
                f, e, mul, Poly.one(spec)), (spec, e)


def test_powmod_reduces_its_base_at_the_first_step():
    # mul(one, a), not a, starts the loop: e = 1 at a degree-1 modulus reduces
    # the base, and the result is a list even for a tuple base
    for p in (2, 7, 1000003):
        tail = poly_module._tail([3, 1], p)  # x + 3
        got = poly_module._powmod((5, 0, 1), 1, tail, p)  # x^2 + 5 == 14 mod x + 3
        assert got == poly_module._red([14], p) and isinstance(got, list)
        assert poly_module._powmod((5, 0, 1), 0, tail, p) == [1]
        spec = FieldSpec.gf(p)
        assert pow_mod(P(spec, 5, 0, 1), 1, P(spec, 3, 1)) == P(spec, 14)
    assert pow_mod(P(QQ, 5, 0, 1), 1, P(QQ, 3, 1)) == P(QQ, 14)


def test_terms_join_on_every_sign_pattern():
    join = poly_module._join_terms
    assert join([]) == "0"
    assert join(["-x^2"]) == "-x^2"
    assert join(["-x^2", "x", "-1"]) == "-x^2 + x - 1"
    assert join(["x^2", "-3*x", "5"]) == "x^2 - 3*x + 5"
    assert str(P(QQ, -1, 1, -1)) == "-x^2 + x - 1"
    assert str(P(QQ, 1, -1, 0, 1)) == "x^3 - x + 1"
    assert str(Poly(QQ, (Fraction(-1, 2), 0, -1))) == "-x^2 - 1/2"
    assert str(P(F3, 2, 1, 1)) == "x^2 + x + 2"


@pytest.mark.parametrize("n", (1, 7, 240))
def test_schoolbook_loop_matches_a_plain_convolution(n):
    rng = random.Random(n)
    for c, zeros in ((1, 0.0), (-3, 0.5)):
        a = [rng.randrange(-99, 100) if rng.random() >= zeros else 0 for _ in range(7)]
        b = [rng.randrange(-99, 100) for _ in range(n)]
        out = [rng.randrange(-9, 10) for _ in range(rng.randrange(n + 9))]
        expected = out + [0] * (n + 6 - len(out))
        for (i, x), (j, y) in itertools.product(enumerate(a), enumerate(b)):
            expected[i + j] += c * x * y
        assert poly_module._mul_add(list(out), c, a, b) == expected
        assert poly_module._mul_add(list(out), c, b, a) == expected
