"""Normal forms, the reordering rule, and the structural maps of the algebra."""

import random
from fractions import Fraction
from math import comb

import pytest

from ahalg import (
    AhContext,
    FieldSpec,
    Poly,
    antiautomorphism,
    apply_poly_map,
    commutator,
    div_left_exact,
    div_right_exact,
    weyl_context,
)
from ahalg import algebra, autgroup
from ahalg.errors import ContextMismatch, FieldMismatch, SelfCheckError, ZeroInputError

from helpers import (
    antiautomorphism_oracle,
    apply_poly_map_oracle,
    delta_power_oracle,
    div_one_sided_oracle,
    naive_mul,
    rand_elem,
    rand_poly,
)

QQ = FieldSpec.rationals()
F5 = FieldSpec.gf(5)
FIELDS = (QQ, FieldSpec.gf(2), FieldSpec.gf(3), F5, FieldSpec.gf(7), FieldSpec.gf(1000003))


def ctx_for(spec, *ints):
    return AhContext(spec, Poly.from_ints(spec, ints))


def test_h_must_be_nonzero():
    with pytest.raises(ZeroInputError):
        AhContext(QQ, Poly.zero(QQ))


def test_delta_powers():
    ctx = ctx_for(QQ, 0, 0, 1)  # h = x^2
    x = Poly.x(QQ)
    assert ctx.delta(x) == Poly.from_ints(QQ, (0, 0, 1))
    assert ctx.delta_power(x, 2) == Poly.from_ints(QQ, (0, 0, 0, 2))
    assert ctx.delta_power(x, 3) == Poly.from_ints(QQ, (0, 0, 0, 0, 6))
    assert ctx.delta(Poly.from_ints(QQ, (7,))).is_zero()
    assert ctx.delta_power(x, 0) == x


def delta_cases():
    """(h, f, the j to compare): over QQ a non-monic h with a fraction and a
    constant h, over GF(2) and GF(7) the j crossing p, and f zero, constant and of a
    degree the constant h runs past."""
    half, third = QQ.elem(Fraction(1, 2)), QQ.elem(Fraction(1, 3))
    f_qq = Poly(QQ, (Fraction(-5, 4), 0, 2, Fraction(1, 7)))
    cases = [(Poly(QQ, (half, 0, third)), f_qq, (0, 1, 2, 5, 30)),
             (Poly(QQ, (half,)), f_qq, range(6))]
    for p, js in ((2, range(6)), (7, range(12)), (1000003, (0, 1, 2, 9))):
        spec = FieldSpec.gf(p)
        h, f = Poly.from_ints(spec, (3, 0, 1, 1)), Poly.from_ints(spec, (1, 2, 0, 5, 1))
        cases += [(h, f, js), (h, Poly.x(spec), js), (Poly.from_ints(spec, (5,)), f, range(7)),
                  (h, Poly.from_ints(spec, (3,)), (1, 3)), (h, Poly.zero(spec), (0, 2))]
    return [pytest.param(h, f, js, id=f"{h.spec}: h={h}, f={f}") for h, f, js in cases]


@pytest.mark.parametrize("h, f, js", delta_cases())
def test_delta_matches_its_oracle(h, f, js):
    ctx = AhContext(h.spec, h)
    assert ctx.delta(f) == delta_power_oracle(ctx, f, 1)
    for j in js:
        assert ctx.delta_power(f, j) == delta_power_oracle(ctx, f, j)
    with pytest.raises(ValueError):
        ctx.delta_power(f, -1)


def test_defining_relation():
    ctx = ctx_for(QQ, 0, 0, 1)
    y, x = ctx.gen(), ctx.x()
    assert y * x == x * y + ctx.from_poly(ctx.h)
    assert commutator(y, x) == ctx.from_poly(ctx.h)


def test_unit_and_double_rewrite():
    ctx = ctx_for(QQ, 0, 1)  # h = x
    y, x = ctx.gen(), ctx.x()
    a = rand_elem(random.Random(0), ctx, 3, 3)
    assert ctx.one() * a == a and a * ctx.one() == a
    # Y^2 x = x Y^2 + 2x Y + x, from applying Yx = xY + x twice
    expected = x * y**2 + ctx.monomial(Poly.from_ints(QQ, (0, 2)), 1) + x
    assert y**2 * x == expected


def test_commutator_examples():
    ctx = ctx_for(QQ, 0, 0, 0, 1)  # h = x^3
    y = ctx.gen()
    a = rand_elem(random.Random(1), ctx, 2, 2)
    assert commutator(a, a).is_zero()
    # [Y^2, x] = 2 delta(x) Y + delta^2(x) = 2x^3 Y + 3x^5
    expected = ctx.monomial(Poly.from_ints(QQ, (0, 0, 0, 2)), 1) + ctx.from_poly(
        Poly.from_ints(QQ, (0, 0, 0, 0, 0, 3))
    )
    assert commutator(ctx.gen() ** 2, ctx.x()) == expected


def test_ydeg_and_module_ops():
    ctx = ctx_for(QQ, 0, 0, 1)
    y, x = ctx.gen(), ctx.x()
    assert (x**5).ydeg == 0
    assert (y**3 + x * y).ydeg == 3
    assert ((y + x) - y) == x
    assert ctx.zero().ydeg == float("-inf")
    assert (y - y).is_zero()


def test_context_mismatch():
    a = ctx_for(QQ, 0, 1).gen()
    b = ctx_for(QQ, 0, 0, 1).gen()
    with pytest.raises(ContextMismatch):
        a * b


def test_ring_axioms_random():
    rng = random.Random(42)
    for spec in (QQ, F5):
        for h_ints in ((0, 1), (0, 0, 1), (0, -1, 0, 1)):
            ctx = AhContext(spec, Poly.from_ints(spec, h_ints))
            for _ in range(6):
                a = rand_elem(rng, ctx, 4, 4)
                b = rand_elem(rng, ctx, 4, 4)
                c = rand_elem(rng, ctx, 4, 4)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c
                assert (a + b) * c == a * c + b * c


def test_reordering_rule_matches_naive_rewriter():
    rng = random.Random(43)
    for spec in FIELDS:
        p = spec.characteristic
        x = Poly.x(spec)
        hs = [Poly.from_ints(spec, (0, 1, 1)), Poly.one(spec)]
        small_p = 0 < p < 10  # x^p is too large to rewrite naively at p = 1000003
        if small_p:
            hs.append(x**p - x)
        for h in hs:
            ctx = AhContext(spec, h)
            for _ in range(5):
                a = rand_elem(rng, ctx, 3, 3)
                b = rand_elem(rng, ctx, 3, 3)
                assert a * b == naive_mul(a, b)
            if small_p:
                # delta(x^p) = 0, so the delta table of x^p ends at its first entry
                a = rand_elem(rng, ctx, 4, 2)
                b = ctx.element([x**p, rand_poly(rng, spec, 2), x**p])
                assert a * b == naive_mul(a, b)
                assert b * a == naive_mul(b, a)


def test_power_is_repeated_product():
    rng = random.Random(48)
    for spec in (QQ, F5):
        ctx = AhContext(spec, Poly.from_ints(spec, (1, 0, 1)))
        for n in range(9):
            a = rand_elem(rng, ctx, 2, 2)
            expected = ctx.one()
            for _ in range(n):
                expected = expected * a
            assert a**n == expected


def test_closed_form_commutator_identity():
    # [Y^n, f] = sum_{j>=1} C(n,j) delta^j(f) Y^(n-j)
    rng = random.Random(44)
    for spec in (QQ, F5):
        ctx = AhContext(spec, Poly.from_ints(spec, (1, 0, 1)))
        for n in range(1, 7):
            f = rand_poly(rng, ctx.spec, 4)
            lhs = commutator(ctx.gen() ** n, ctx.from_poly(f))
            rhs = ctx.zero()
            for j in range(1, n + 1):
                c = spec.from_int(comb(n, j))
                rhs = rhs + ctx.monomial(ctx.delta_power(f, j).scaled(c), n - j)
            assert lhs == rhs
            assert commutator(ctx.gen(), ctx.from_poly(f)) == ctx.from_poly(
                ctx.delta(f)
            )


def test_antiautomorphism():
    ctx = ctx_for(QQ, 0, 0, 1)
    y, x = ctx.gen(), ctx.x()
    assert antiautomorphism(x) == x
    assert antiautomorphism(y) == -y + ctx.from_poly(ctx.h_prime)
    rng = random.Random(45)
    for spec in (QQ, F5):
        ctx2 = AhContext(spec, Poly.from_ints(spec, (0, 2, 1)))
        for _ in range(8):
            a = rand_elem(rng, ctx2, 3, 3)
            b = rand_elem(rng, ctx2, 3, 3)
            assert antiautomorphism(antiautomorphism(a)) == a
            assert antiautomorphism(a * b) == antiautomorphism(b) * antiautomorphism(a)
    for spec in FIELDS:
        for ctx2 in division_contexts(spec):
            for k in range(9):
                a = rand_elem(rng, ctx2, k, 3)
                assert antiautomorphism(a) == antiautomorphism_oracle(a)


def test_apply_poly_map():
    ctx = ctx_for(QQ, 0, 0, 1)  # h = x^2
    y, x = ctx.gen(), ctx.x()
    a = rand_elem(random.Random(46), ctx, 3, 3)
    assert apply_poly_map(a, Poly.x(QQ), y) == a
    shear = y + ctx.from_poly(ctx.h_prime)  # Y + 2x
    assert apply_poly_map(y, Poly.x(QQ), shear) == y + ctx.from_poly(ctx.h_prime)
    # the image of Y*x under the shear: (Y + 2x) x = x Y + 3x^2
    got = apply_poly_map(y * x, Poly.x(QQ), shear)
    assert got == x * y + ctx.from_poly(Poly.from_ints(QQ, (0, 0, 3)))
    assert got == shear * x


@pytest.mark.parametrize("spec", (QQ, FieldSpec.gf(7), FieldSpec.gf(1000003)), ids=repr)
def test_apply_poly_map_matches_the_power_sum(spec):
    # automorphisms, both endomorphism families and the Weyl substitution,
    # on elements of each Y-degree from 0 to 8
    rng = random.Random(37)
    maps = []
    for h in ((0, 0, 1), (0, 0, 0, 1), (-1, 0, 1)):  # each admits the pairs (1, 0) and (-1, 0)
        ctx = ctx_for(spec, *h)
        for alpha in (1, -1):
            aut = autgroup.Automorphism(ctx, alpha, 0, rand_poly(rng, spec, 3))
            maps.append((ctx, aut.x_image, aut.y_image))
        maps.append((ctx, Poly.x(spec), weyl_context(spec).gen() * ctx.h))
    for k in (2, 3):
        endo = autgroup.eta_endo(ctx_for(spec, 0, 0, 1), k)
        maps.append((endo.ctx, endo.x_image, endo.y_image))
    if spec.p:
        ctx = ctx_for(spec, 0, 1)  # h = x: Y^p - Y centralizes x
        c = ctx.from_poly(rand_poly(rng, spec, 2, nonzero=True))
        if spec.p < 100:
            c = c + ctx.gen() ** spec.p - ctx.gen()
        endo = autgroup.kappa_endo(ctx, c)
        maps.append((ctx, endo.x_image, endo.y_image))
    for ctx, x_image, y_image in maps:
        for ydeg in range(9):
            a = ctx.element([rand_poly(rng, spec, 2) for _ in range(ydeg)] + [rand_poly(rng, spec, 2, True)])
            assert apply_poly_map(a, x_image, y_image) == apply_poly_map_oracle(a, x_image, y_image)


def test_apply_poly_map_makes_one_product_per_coefficient(monkeypatch):
    # Horner: k coefficients cost k - 1 Ore products, where the power sum took 2k - 1
    calls = []
    mul = algebra._mul
    monkeypatch.setattr(algebra, "_mul", lambda *args: calls.append(1) or mul(*args))
    for spec in (QQ, FieldSpec.gf(7)):
        ctx = ctx_for(spec, 0, 0, 1)
        shear = ctx.gen() + ctx.from_poly(Poly.from_ints(spec, (1, 2)))
        for k in range(1, 9):
            a = ctx.element([Poly.from_ints(spec, (i + 1, 1)) for i in range(k)])
            calls.clear()
            apply_poly_map(a, Poly.x(spec), shear)
            assert len(calls) <= k


def test_apply_poly_map_takes_a_polynomial_over_the_target_field():
    ctx = ctx_for(QQ, 0, 0, 1)
    y = ctx.gen()
    with pytest.raises(ContextMismatch):
        apply_poly_map(y, ctx.x(), y)
    with pytest.raises(ContextMismatch):
        apply_poly_map(y, Poly.x(FieldSpec.gf(5)), y)


def test_exact_one_sided_division():
    ctx = ctx_for(QQ, 0, 1)
    rng = random.Random(47)
    for _ in range(10):
        v = rand_elem(rng, ctx, 2, 2, nonzero=True)
        q = rand_elem(rng, ctx, 2, 2)
        assert div_left_exact(v * q, v) == q
        assert div_right_exact(q * v, v) == q
    y, x = ctx.gen(), ctx.x()
    assert div_left_exact(y, y * x) is None
    assert div_left_exact(x, y) is None


def test_one_sided_division_checks_its_degree_drop(monkeypatch):
    # the solve must never put a term of a new quotient coefficient into the
    # slot it was solved from or above; breaking that raises, also under python -O
    ctx = ctx_for(QQ, 0, 1)
    w = ctx.gen() * ctx.x()
    real = algebra._terms
    monkeypatch.setattr(
        algebra,
        "_terms",
        lambda slots, fs, rows, shift=0, sign=1, low=None: real(slots, fs, rows, shift, sign),
    )
    for div in (div_left_exact, div_right_exact):
        with pytest.raises(SelfCheckError):
            div(w, ctx.gen())


def test_division_oracle_checks_its_degree_drop(monkeypatch):
    # a product that does not cancel the top term must raise, also under python -O
    ctx = ctx_for(QQ, 0, 1)
    w = ctx.gen() * ctx.x()
    monkeypatch.setattr(algebra, "_mul", lambda a, b: a.ctx.zero())
    with pytest.raises(SelfCheckError):
        div_one_sided_oracle(w, ctx.gen(), left=True)


def division_contexts(spec):
    p = spec.characteristic
    hs = [(0, 1), (1, 0, 1), (0, 2, 0, 1)]
    if 0 < p < 10:
        hs.append((0, p - 1) + (0,) * (p - 2) + (1,))  # x^p - x: delta(x^p) = 0
    return [ctx_for(spec, *h) for h in hs]


def check_division(w, v):
    for left, div in ((True, div_left_exact), (False, div_right_exact)):
        got = div(w, v)
        assert got == div_one_sided_oracle(w, v, left)
        if got is not None:
            assert (v * got if left else got * v) == w


def check_exact(v, q):
    assert div_left_exact(v * q, v) == q
    assert div_right_exact(q * v, v) == q
    check_division(v * q, v)
    check_division(q * v, v)


def test_division_matches_oracle():
    rng = random.Random(49)
    for spec in FIELDS:
        for ctx in division_contexts(spec):
            for k in range(9):
                # Y-degree k >= p makes C(i, m) vanish mod p in the small fields
                v = rand_elem(rng, ctx, k, 2, nonzero=True)
                q = rand_elem(rng, ctx, 8 - k, 2)
                check_exact(v, q)
                w = v * q + ctx.monomial(rand_poly(rng, spec, 2, nonzero=True), rng.randint(0, 8))
                check_division(w, v)
                check_division(q * v + ctx.x(), v)


def test_division_edge_cases():
    for spec in FIELDS:
        ctx = ctx_for(spec, 1, 0, 1)
        y, x = ctx.gen(), ctx.x()
        v = y**3 + x * y + 1
        check_division(y**2 + x, v)  # kw < kv
        check_exact(v, ctx.zero())
        unit = ctx.from_scalar(-3 if spec.characteristic != 3 else 2)
        check_division(x * y**4, unit)  # a constant divisor
        check_division(x * y**4 + y, ctx.from_poly(Poly.from_ints(spec, (1, 1))))
        for div in (div_left_exact, div_right_exact):
            with pytest.raises(ZeroDivisionError):
                div(v, ctx.zero())
            with pytest.raises(ContextMismatch):
                div(v, ctx_for(spec, 0, 1).gen())
    ctx = ctx_for(QQ, 0, 1, 1)
    y, x = ctx.gen(), ctx.x()
    v = ctx.monomial(Poly.from_ints(QQ, (1, 2)), 2) + x * y + 3  # (2x+1)*Y^2 + ...
    q = y**2 - x + Fraction(1, 2)
    check_exact(v, q)
    check_division(v * q + y, v)
    check_division(y**2, v)  # the top coefficient 1 is not a multiple of 2x+1


def test_commutator_is_ab_minus_ba():
    rng = random.Random(50)
    for spec in FIELDS:
        for ctx in division_contexts(spec):
            for k in range(9):
                a = rand_elem(rng, ctx, k, 3)
                b = rand_elem(rng, ctx, 8 - k, 3)
                assert commutator(a, b) == a * b - b * a
                f = rand_poly(rng, spec, 3)
                assert commutator(f, b) == f * b - b * f
                assert commutator(a, f) == a * f - f * a
                assert commutator(5, a).is_zero() and commutator(a, -2).is_zero()
    # every row path against the one-step oracle: the packed rows over GF(p) (both factors of
    # Y-degree at least 1), the raw rows over QQ, the raw rows over GF(p) for operands too sparse
    # to pack, and a polynomial on either side, where the terms that cancel are not formed
    rng = random.Random(51)
    for spec in (QQ, FieldSpec.gf(7), FieldSpec.gf(1000003)):
        ctx = ctx_for(spec, 1, 0, 1)
        dense = [rand_elem(rng, ctx, 3, 3) + ctx.gen() ** 3 for _ in range(2)]
        f = rand_poly(rng, spec, 3, nonzero=True)
        sparse = (ctx.gen() ** 40, ctx.x() + ctx.gen())  # 42 slots of stride 42 for 4 digits
        for a, b, packs in ((*dense, bool(spec.p)), (*sparse, False), (dense[0], f, False), (f, dense[1], False)):
            a_el, b_el = (ctx.element((v,)) if isinstance(v, Poly) else v for v in (a, b))
            pair = (a_el.ydeg, b_el.ydeg), "product", a_el, b_el, True
            assert (algebra._packed(ctx, *pair) is not NotImplemented) == packs
            expected = naive_mul(a_el, b_el) - naive_mul(b_el, a_el)
            assert commutator(a, b) == expected == a * b - b * a
    a = ctx_for(QQ, 0, 1).gen()
    with pytest.raises(ContextMismatch):
        commutator(a, ctx_for(QQ, 0, 0, 1).gen())
    with pytest.raises(ContextMismatch):
        commutator(Poly.x(F5), a)
    for left, right in ((1, 2), (Poly.x(QQ), 3), (Fraction(1, 2), Poly.x(F5)), ("x", a), (a, None)):
        with pytest.raises(TypeError, match="the commutator needs elements, polynomials or scalars"):
            commutator(left, right)


@pytest.mark.parametrize("spec", (QQ, FieldSpec.gf(7)), ids=repr)
def test_power_loop_is_repeated_product_on_elements(spec):
    ctx = ctx_for(spec, 0, 1)  # h = x keeps the x-degrees at the Y-degrees
    a = ctx.element((Poly.one(spec), Poly(spec, (0, Fraction(1, 2) if not spec.p else 3))))
    expected = ctx.one()
    for e in range(41):
        assert a**e == expected, e
        expected = expected * a


def test_deltas_stop_at_the_first_zero_and_read_no_further(monkeypatch):
    ctx = ctx_for(QQ, 5)  # h = 5: delta lowers the degree by one
    f = Poly(QQ, (1, 2, Fraction(3, 4), 7))
    calls = []

    def counted(*args):
        calls.append(1)
        return step(*args)

    step = algebra._delta
    monkeypatch.setattr(algebra, "_delta", counted)
    assert len(algebra._table(ctx, f._nums, f._den, 1)) == 2 and len(calls) == 1
    calls.clear()
    deltas = list(algebra._deltas(ctx, f._nums, f._den))
    assert [len(nums) for nums, _ in deltas] == [4, 3, 2, 1] and len(calls) == 4
    calls.clear()
    assert ctx.delta_power(f, 10**9).is_zero() and len(calls) == 4
    calls.clear()
    assert ctx.delta_power(f, 2) == delta_power_oracle(ctx, f, 2) and len(calls) == 2
    assert list(algebra._deltas(ctx, (), 1)) == [] and ctx.delta_power(Poly.zero(QQ), 3).is_zero()


def test_element_terms_join_on_every_sign_pattern():
    ctx = ctx_for(QQ, 1)
    x, one = Poly.x(QQ), Poly.one(QQ)
    assert str(ctx.element((-one, x, -one))) == "-Y^2 + x*Y - 1"
    assert str(ctx.element((one, -x, one))) == "Y^2 - x*Y + 1"
    assert str(ctx.element((x - one, one - x * x))) == "(-x^2 + 1)*Y + x - 1"
    assert str(ctx.element((-x, Poly(QQ, (0, -2))))) == "-2*x*Y - x"
    assert str(ctx.zero()) == "0"
    # over GF(p) a coefficient -1 is the residue p - 1: a Y-power prints a minus sign only for it
    ctx, x5 = ctx_for(F5, 0, 1), Poly.x(F5)
    assert str(ctx.element((0, 4))) == "-Y"
    assert str(ctx.element((4, 4))) == "-Y + 4"
    assert str(ctx.element((1, 4, 4))) == "-Y^2 - Y + 1"
    assert str(ctx.element((0, 0, x5.scaled(4)))) == "4*x*Y^2"


ENTRY_POINTS = {
    "element": lambda ctx, v: ctx.element((0, v)),
    "OreElement": lambda ctx, v: algebra.OreElement(ctx, (v, 1)),
    "from_poly": lambda ctx, v: ctx.from_poly(v),
    "monomial": lambda ctx, v: ctx.monomial(v, 2),
    "add": lambda ctx, v: ctx.gen() + v,
    "radd": lambda ctx, v: v + ctx.gen(),
    "sub": lambda ctx, v: ctx.gen() - v,
    "rsub": lambda ctx, v: v - ctx.gen(),
    "mul": lambda ctx, v: ctx.gen() * v,
    "rmul": lambda ctx, v: v * ctx.gen(),
    "eq": lambda ctx, v: ctx.gen() == v,
    "commutator": lambda ctx, v: commutator(ctx.gen(), v),
    "rcommutator": lambda ctx, v: commutator(v, ctx.gen()),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("spec", (QQ, F5), ids=str)
def test_entry_points_refuse_values_over_another_field(spec, name):
    ctx, other = ctx_for(spec, 0, 1), FieldSpec.gf(7)
    with pytest.raises(ContextMismatch):
        ENTRY_POINTS[name](ctx, Poly.x(other))
    with pytest.raises(FieldMismatch):
        ENTRY_POINTS[name](ctx, other.from_int(3))
    foreign = ctx_for(other, 0, 1).gen()
    if name == "eq":  # an element of another context is unequal; the operations refuse it
        assert ENTRY_POINTS[name](ctx, foreign) is False
    elif name not in ("element", "OreElement", "from_poly", "monomial"):
        with pytest.raises(ContextMismatch):
            ENTRY_POINTS[name](ctx, foreign)
    with pytest.raises(FieldMismatch):
        ctx.from_scalar(other.from_int(3))


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("spec", (QQ, F5), ids=str)
def test_entry_points_coerce_ints_fractions_and_field_elements(spec, name):
    ctx = ctx_for(spec, 0, 1)
    values = [3, Fraction(12, 4), spec.from_int(3), Poly.constant(spec.from_int(3))]
    if not spec.p:
        values = [Fraction(3, 7), spec.elem(Fraction(3, 7)), Poly.constant(spec.elem(Fraction(3, 7)))]
    results = [ENTRY_POINTS[name](ctx, v) for v in values]
    assert all(r == results[-1] for r in results)
    assert all(type(r) is type(results[-1]) for r in results)
    scalars = [ctx.from_scalar(v) for v in values[:-1]]
    assert all(s == ctx.from_poly(values[-1]) and s.coeffs == (values[-1],) for s in scalars)
