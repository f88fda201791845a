"""Center generators, free-basis coordinates, and adjoint-image membership."""

import random

import pytest

from ahalg import (
    AhContext,
    FieldSpec,
    Poly,
    bracket_x_preimage,
    bracket_yhat_preimage,
    center,
    central_decompose,
    centralizer_x_membership,
    commutator,
    in_commutator_space,
    is_central,
    to_weyl,
    weyl_context,
)
from ahalg.errors import CharacteristicError, SelfCheckError

from helpers import (
    bracket_x_oracle,
    center_correction_oracle,
    central_decompose_oracle,
    central_oracle,
    closed_form_shapes,
    rand_elem,
    rand_poly,
)

QQ = FieldSpec.rationals()


def ctx_for(spec, *ints):
    return AhContext(spec, Poly.from_ints(spec, ints))


H_CHOICES = {
    "x": (0, 1),
    "x^2": (0, 0, 1),
    "x^2+1": (1, 0, 1),
    "x^3-x": (0, -1, 0, 1),
}


def test_center_char0_trivial():
    for ints in H_CHOICES.values():
        desc = center(ctx_for(QQ, *ints))
        assert desc.is_trivial
        assert desc.x_generator is None and desc.y_generator is None


def test_center_gf3_x_squared():
    # h = x^n with n not congruent 1 mod p: correction vanishes
    desc = center(ctx_for(FieldSpec.gf(3), 0, 0, 1))
    assert desc.correction.is_zero()
    ctx = ctx_for(FieldSpec.gf(3), 0, 0, 1)
    assert desc.y_generator == ctx.gen() ** 3


def test_center_h_equals_x():
    # delta(x) = x always, so the correction is 1 and the generator Y^p - Y
    for p in (2, 3, 5):
        ctx = ctx_for(FieldSpec.gf(p), 0, 1)
        desc = center(ctx)
        assert desc.correction.is_one()
        assert desc.y_generator == ctx.gen() ** p - ctx.gen()


def test_correction_closed_form_for_monomial_h():
    # h = x^n: correction is 0 unless n = 1 mod p, else x^((n-1)(p-1))
    for p in (2, 3, 5):
        spec = FieldSpec.gf(p)
        for n in range(1, 7):
            ctx = AhContext(spec, Poly.monomial(spec, spec.one(), n))
            corr = center(ctx).correction
            if n % p == 1 % p:
                assert corr == Poly.monomial(spec, spec.one(), (n - 1) * (p - 1))
            else:
                assert corr.is_zero()


def test_central_generator_equals_weyl_monomial():
    # to_weyl(Y^p - correction*Y) == h^p y^p, for several h and p
    for p in (2, 3, 5):
        spec = FieldSpec.gf(p)
        for ints in H_CHOICES.values():
            ctx = AhContext(spec, Poly.from_ints(spec, ints))
            desc = center(ctx)
            expected = weyl_context(spec).monomial(ctx.h**p, p)
            assert to_weyl(desc.y_generator) == expected


def test_is_central():
    ctx = ctx_for(FieldSpec.gf(5), 0, 1)
    assert is_central(ctx.from_scalar(3))
    assert not is_central(ctx.x())
    ctx2 = ctx_for(FieldSpec.gf(2), 0, 0, 1)
    assert is_central(ctx2.gen() ** 2)
    desc = center(ctx2)
    assert is_central(ctx2.from_poly(desc.x_generator))
    assert is_central(desc.y_generator)


def test_is_central_matches_brute_force():
    rng = random.Random(30)
    for p in (2, 3):
        ctx = ctx_for(FieldSpec.gf(p), 0, 1, 1)
        desc = center(ctx)
        samples = [rand_elem(rng, ctx, 3, 3) for _ in range(6)]
        samples += [desc.y_generator, ctx.from_poly(desc.x_generator)]
        for a in samples:
            assert is_central(a) == central_oracle(a)


def test_central_decompose_simple_cases():
    p = 3
    ctx = ctx_for(FieldSpec.gf(p), 0, 1)
    xp = ctx.from_poly(Poly.monomial(ctx.spec, ctx.spec.one(), p))
    dec = central_decompose(xp)
    assert dec.table == {(0, 0): {(1, 0): ctx.spec.one()}}
    dec = central_decompose(ctx.from_poly(Poly.monomial(ctx.spec, ctx.spec.one(), p + 1)))
    assert dec.table == {(1, 0): {(1, 0): ctx.spec.one()}}


def test_central_decompose_gf2_hx():
    # h = x, p = 2: Y^2 = h^2 y^2 + Y (correction is 1) and Y = h y + 1,
    # so the coordinates are (h^2 y^2 + 1) * 1 + 1 * (h y)
    ctx = ctx_for(FieldSpec.gf(2), 0, 1)
    dec = central_decompose(ctx.gen() ** 2)
    assert dec.reassemble() == ctx.gen() ** 2
    one = ctx.spec.one()
    assert dec.table == {
        (0, 0): {(0, 0): one, (0, 1): one},
        (0, 1): {(0, 0): one},
    }


def test_central_decompose_roundtrip_random():
    rng = random.Random(31)
    for p, ints in ((2, (0, 1)), (2, (0, 0, 1)), (3, (0, 1)), (3, (1, 0, 1))):
        ctx = AhContext(FieldSpec.gf(p), Poly.from_ints(FieldSpec.gf(p), ints))
        for _ in range(12):
            a = rand_elem(rng, ctx, 4, 4)
            dec = central_decompose(a)
            assert dec.reassemble() == a
            for (i, j) in dec.table:
                assert 0 <= i < p and 0 <= j < p


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_coordinates_match_the_weyl_route(p):
    # the Weyl route: to_weyl, then divide the coefficient of y^j by h^j
    spec = FieldSpec.gf(p)
    rng = random.Random(36 + p)
    x = Poly.x(spec)
    for h in (Poly.constant(spec.from_int(p - 1)), x, x**2 + x, rand_poly(rng, spec, 2) + x**3):
        ctx = AhContext(spec, h)
        for _ in range(6):
            a = rand_elem(rng, ctx, 2 * p, 3)
            assert central_decompose(a).table == central_decompose_oracle(a)
            member = commutator(ctx.x(), a)
            for b in (a, member, member + ctx.monomial(Poly.one(spec), rng.randrange(2 * p))):
                assert in_commutator_space(b, "bracket_x") == bracket_x_oracle(b)
            assert in_commutator_space(member, "bracket_x")


def test_central_decompose_uniqueness():
    # a random coordinate table reassembles and decomposes back to itself
    rng = random.Random(32)
    p = 3
    ctx = ctx_for(FieldSpec.gf(p), 0, 1)
    for _ in range(6):
        table = {}
        for _ in range(rng.randint(1, 4)):
            cell = table.setdefault((rng.randrange(p), rng.randrange(p)), {})
            cell[(rng.randrange(2), rng.randrange(2))] = ctx.spec.from_int(
                rng.randrange(1, p)
            )
        from ahalg.center import CentralDecomposition

        element = CentralDecomposition(ctx, table).reassemble()
        if element.is_zero():
            continue
        back = central_decompose(element)
        norm = {k: {kk: vv for kk, vv in v.items() if vv} for k, v in table.items()}
        norm = {k: v for k, v in norm.items() if v}
        assert back.table == norm


def test_central_decompose_char0_rejected():
    with pytest.raises(CharacteristicError):
        central_decompose(ctx_for(QQ, 0, 1).gen())


def test_centralizer_membership():
    ctx = ctx_for(QQ, 0, 0, 1)
    assert centralizer_x_membership(ctx.from_poly(Poly.from_ints(QQ, (1, 2, 3))))
    assert not centralizer_x_membership(ctx.gen())
    # GF(3), h = x: central generator plus a polynomial commutes with x
    ctx3 = ctx_for(FieldSpec.gf(3), 0, 1)
    elem = (ctx3.gen() ** 3 - ctx3.gen()) + ctx3.from_poly(
        Poly.monomial(ctx3.spec, ctx3.spec.one(), 5)
    )
    assert centralizer_x_membership(elem)
    assert not centralizer_x_membership(ctx3.gen())


def test_commutator_space_char0():
    ctx = ctx_for(QQ, 0, 0, 1)
    h_elem = ctx.from_poly(ctx.h)
    for space in ("bracket_x", "bracket_yhat", "lie_ideal"):
        assert in_commutator_space(h_elem, space)
        assert not in_commutator_space(ctx.one(), space)


def test_commutator_space_char0_preimages():
    rng = random.Random(33)
    ctx = ctx_for(QQ, 0, -1, 0, 1)
    for _ in range(8):
        a = ctx.from_poly(ctx.h) * rand_elem(rng, ctx, 3, 3)
        assert in_commutator_space(a, "lie_ideal")
        b = bracket_x_preimage(a)
        assert commutator(ctx.x(), b) == a
        c = bracket_yhat_preimage(a)
        assert commutator(ctx.gen(), c) == a


def test_commutator_space_charp():
    p = 3
    ctx = ctx_for(FieldSpec.gf(p), 0, 1)  # h = x
    # x^2 Y: f_1 = x^2, f_1 / h = x with exponent 1 (not -1 mod 3): in [Y, A]
    elem = ctx.monomial(Poly.from_ints(ctx.spec, (0, 0, 1)), 1)
    assert in_commutator_space(elem, "bracket_yhat")
    # x^p-1 exponent hits -1 mod p: h * x^(p-1) = x^p is not in [Y, A]
    bad = ctx.from_poly(Poly.monomial(ctx.spec, ctx.spec.one(), p))
    assert not in_commutator_space(bad, "bracket_yhat")
    with pytest.raises(NotImplementedError):
        in_commutator_space(elem, "lie_ideal")


def test_commutator_space_charp_witnessed():
    # actual adjoint images always pass the corresponding membership test
    rng = random.Random(34)
    for p in (2, 3):
        ctx = ctx_for(FieldSpec.gf(p), 0, 0, 1)
        for _ in range(8):
            b = rand_elem(rng, ctx, 3, 3)
            assert in_commutator_space(commutator(ctx.x(), b), "bracket_x")
            assert in_commutator_space(commutator(ctx.gen(), b), "bracket_yhat")


def test_lie_ideal_inside_h_multiples():
    # [a, b] always has every Y-coefficient divisible by h, in any characteristic
    rng = random.Random(35)
    for spec in (QQ, FieldSpec.gf(3)):
        ctx = AhContext(spec, Poly.from_ints(spec, (0, 1, 1)))
        for _ in range(8):
            a = rand_elem(rng, ctx, 3, 3)
            b = rand_elem(rng, ctx, 3, 3)
            for f in commutator(a, b).coeffs:
                assert ctx.h.divides(f)


def test_center_of_the_weyl_algebra_itself():
    # h = 1: correction vanishes and the generators are x^p and y^p
    from ahalg import weyl_context

    for p in (2, 3):
        wctx = weyl_context(FieldSpec.gf(p))
        desc = center(wctx)
        assert desc.correction.is_zero()
        assert desc.y_generator == wctx.gen() ** p
        assert is_central(desc.y_generator)


PRIMES_BELOW_200 = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


@pytest.mark.parametrize("p", PRIMES_BELOW_200)
def test_closed_form_center_matches_the_derivation_oracle(p):
    spec = FieldSpec.gf(p)
    zero, one = Poly.zero(spec), Poly.one(spec)
    for h in closed_form_shapes(spec):
        ctx = AhContext(spec, h)
        desc = center(ctx)
        correction = center_correction_oracle(ctx)
        assert desc.correction == correction, h
        assert desc.x_generator == Poly.x(spec) ** p
        assert desc.y_generator.coeffs == (zero, -correction) + (zero,) * (p - 2) + (one,)


@pytest.mark.parametrize("p", [3, 5, 11, 13])
def test_correction_off_h_prime_is_a_self_check_error(p):
    # the correction is certified by C == h'^(p-1) mod h, which is a unit
    # mod a squarefree h (x^3 + 2x + 5 and 2x^3 + x + 1 here); with h'
    # replaced by 0 the two sides differ.  The check runs when the context
    # fills its correction, so h' is replaced before the first center call
    spec = FieldSpec.gf(p)
    for ints in ((5, 2, 0, 1), (1, 1, 0, 2)):
        center(AhContext(spec, Poly.from_ints(spec, ints)))
        ctx = AhContext(spec, Poly.from_ints(spec, ints))
        ctx.h_prime = Poly.zero(spec)
        with pytest.raises(SelfCheckError, match="modulo h"):
            center(ctx)
