"""The Weyl view: basis conversions, embeddings, and Ore witnesses."""

import random
import sys
import threading
from fractions import Fraction

import pytest

from ahalg import (
    AhContext,
    FieldSpec,
    Poly,
    antiautomorphism,
    apply_poly_map,
    commutator,
    embed,
    from_weyl,
    localized_equal,
    ore_witness,
    to_weyl,
    weyl_context,
    yh_product,
)
from ahalg.errors import NotDivisibleError, NotInSubalgebraError, SelfCheckError, ZeroInputError
from ahalg.poly import _poly
from ahalg.weyl import _hy_rows, from_hy_coordinates, hy_coordinates

from helpers import (
    embed_oracle,
    from_weyl_oracle,
    hy_rows_oracle,
    kept,
    ore_witness_oracle,
    rand_elem,
    rand_poly,
    rand_scalar,
    to_weyl_oracle,
)

QQ = FieldSpec.rationals()
F3 = FieldSpec.gf(3)
FIELDS = (QQ, FieldSpec.gf(2), F3, FieldSpec.gf(7), FieldSpec.gf(1000003))


def ctx_for(spec, *ints):
    return AhContext(spec, Poly.from_ints(spec, ints))


def weyl_monomial(spec, coeff_poly, i):
    return weyl_context(spec).monomial(coeff_poly, i)


def test_to_weyl_generator():
    ctx = ctx_for(QQ, 0, 0, 1)  # h = x^2
    w = to_weyl(ctx.gen())
    # y*x^2 in Weyl normal form is x^2 y + 2x
    assert w == weyl_monomial(QQ, ctx.h, 1) + weyl_context(QQ).from_poly(
        Poly.from_ints(QQ, (0, 2))
    )
    assert to_weyl(ctx.x()) == weyl_context(QQ).x()


def test_to_weyl_square_hand_expansion():
    # (y x^2)(y x^2) normalized with yx = xy + 1: x^4 y^2 + 6x^3 y + 6x^2
    ctx = ctx_for(QQ, 0, 0, 1)
    w = to_weyl(ctx.gen() ** 2)
    wctx = weyl_context(QQ)
    expected = (
        wctx.monomial(Poly.from_ints(QQ, (0, 0, 0, 0, 1)), 2)
        + wctx.monomial(Poly.from_ints(QQ, (0, 0, 0, 6)), 1)
        + wctx.from_poly(Poly.from_ints(QQ, (0, 0, 6)))
    )
    assert w == expected
    # independent route: y*h squared directly in the Weyl algebra
    yh = wctx.gen() * ctx.h
    assert w == yh * yh


def test_from_weyl():
    ctx = ctx_for(QQ, 0, 0, 1)
    wctx = weyl_context(QQ)
    assert from_weyl(wctx.gen() * ctx.h, ctx) == ctx.gen()
    # h = x: bare y is not in the subalgebra, offending index 1
    ctx_x = ctx_for(QQ, 0, 1)
    with pytest.raises(NotInSubalgebraError) as err:
        from_weyl(weyl_context(QQ).gen(), ctx_x)
    assert err.value.index == 1
    # h^2 y^2 pulls back to (Y - 2h')(Y - h')
    h2y2 = wctx.monomial(ctx.h**2, 2)
    hp = ctx.from_poly(ctx.h_prime)
    assert from_weyl(h2y2, ctx) == (ctx.gen() - 2 * hp) * (ctx.gen() - hp)


def test_yh_product_formulas():
    # to_weyl of the telescoping products equals y^i h^i and h^i y^i
    for spec in (QQ, F3):
        for h_ints in ((0, 1), (0, 0, 1), (1, 0, 1)):
            ctx = AhContext(spec, Poly.from_ints(spec, h_ints))
            wctx = weyl_context(spec)
            for i in range(7):
                right = to_weyl(yh_product(ctx, i, "right"))
                left = to_weyl(yh_product(ctx, i, "left"))
                y_pow = wctx.gen() ** i
                assert right == y_pow * ctx.h**i
                assert left == ctx.h**i * y_pow


def test_yh_product_small_cases():
    ctx = ctx_for(QQ, 0, 0, 1)  # h = x^2, h' = 2x
    y = ctx.gen()
    assert yh_product(ctx, 0, "left") == ctx.one()
    assert yh_product(ctx, 1, "right") == y  # y h = Y
    hp = ctx.from_poly(ctx.h_prime)
    assert yh_product(ctx, 1, "left") == y - hp  # h y = Y - h'
    assert yh_product(ctx, 2, "right") == y * (y + hp)
    assert yh_product(ctx, 2, "left") == (y - 2 * hp) * (y - hp)


def test_shift_identity():
    # (Y + j h') h == h (Y + (j+1) h')
    ctx = ctx_for(QQ, 1, 2, 0, 1)
    h = ctx.from_poly(ctx.h)
    hp = ctx.from_poly(ctx.h_prime)
    for j in range(-3, 4):
        lhs = (ctx.gen() + j * hp) * h
        rhs = h * (ctx.gen() + (j + 1) * hp)
        assert lhs == rhs


def test_roundtrip_and_homomorphism():
    rng = random.Random(20)
    for spec in (QQ, F3):
        ctx = AhContext(spec, Poly.from_ints(spec, (0, 1, 1)))
        for _ in range(8):
            a = rand_elem(rng, ctx, 3, 3)
            b = rand_elem(rng, ctx, 3, 3)
            assert from_weyl(to_weyl(a), ctx) == a
            assert to_weyl(a * b) == to_weyl(a) * to_weyl(b)
            assert to_weyl(a + b) == to_weyl(a) + to_weyl(b)


def _pullback(w, ctx, convert):
    try:
        return convert(w, ctx)
    except NotInSubalgebraError as err:
        return ("not a member", err.index)


def test_conversions_match_the_oracles():
    # random rational coefficients have mixed denominators; h of degree 0 is constant
    rng = random.Random(27)
    for spec in FIELDS:
        wctx = weyl_context(spec)
        for h_deg in (0, 1, 2, 3):
            while True:
                h = Poly(spec, [rand_scalar(rng, spec) for _ in range(h_deg + 1)])
                if h.degree == h_deg:
                    break
            ctx = AhContext(spec, h)
            for ydeg in range(8):
                a = ctx.element([rand_poly(rng, spec, 2) for _ in range(ydeg + 1)])
                w = to_weyl(a)
                assert w == to_weyl_oracle(a)
                assert from_weyl(w, ctx) == a == from_weyl_oracle(w, ctx)
                # a perturbed expansion and an arbitrary Weyl element, members or not
                i = rng.randint(0, ydeg)
                planted = w + wctx.monomial(rand_poly(rng, spec, 2), i)
                other = wctx.element([rand_poly(rng, spec, 3) for _ in range(ydeg + 1)])
                for v in (planted, other):
                    expected = _pullback(v, ctx, from_weyl_oracle)
                    assert _pullback(v, ctx, from_weyl) == expected
            if h_deg:
                assert _pullback(wctx.gen(), ctx, from_weyl) == ("not a member", 1)


def coordinate_contexts(rng, spec):
    """h of degree 0 to 3: a constant other than 1 where the field has one,
    x and a cubic with h(0) = 0, and a random monic quadratic."""
    x = Poly.x(spec)
    cubic = x**3 + rand_poly(rng, spec, 2)
    hs = (
        Poly.constant(spec.from_int(1 if spec.p == 2 else 2)),
        x,
        x**2 + rand_poly(rng, spec, 1),
        cubic - Poly.constant(cubic.coeff(0)),
    )
    return [AhContext(spec, h) for h in hs]


COORDINATE_FIELDS = (QQ, FieldSpec.gf(2), F3, FieldSpec.gf(5), FieldSpec.gf(7), FieldSpec.gf(101))


@pytest.mark.parametrize("spec", COORDINATE_FIELDS, ids=str)
def test_hy_coordinates_match_the_weyl_oracle(spec):
    rng = random.Random(f"hy:{spec}")
    wctx = weyl_context(spec)
    for ctx in coordinate_contexts(rng, spec):
        for ydeg in range(9):
            a = ctx.element([rand_poly(rng, spec, 2) for _ in range(ydeg)] + [Poly.x(spec) + 1])
            fs = hy_coordinates(a)
            assert wctx.element([f * ctx.h**j for j, f in enumerate(fs)]) == to_weyl_oracle(a)
            assert from_hy_coordinates(fs, ctx) == a


@pytest.mark.parametrize("spec", COORDINATE_FIELDS, ids=str)
def test_from_weyl_reports_the_highest_planted_failure(spec):
    rng = random.Random(f"plant:{spec}")
    wctx = weyl_context(spec)
    for ctx in coordinate_contexts(rng, spec)[1:]:
        w = to_weyl(rand_elem(rng, ctx, 6, 2))
        for top in range(1, 8):
            # y^k alone is not a multiple of h^k for k >= 1
            planted = [top] + [k for k in range(1, top) if rng.random() < 0.5]
            v = w + sum((wctx.monomial(Poly.one(spec), k) for k in planted), wctx.zero())
            assert _pullback(v, ctx, from_weyl) == ("not a member", top)
            assert _pullback(v, ctx, from_weyl_oracle) == ("not a member", top)


def test_membership_criterion_with_planted_failures():
    rng = random.Random(21)
    ctx = ctx_for(QQ, 0, 0, 1)
    wctx = weyl_context(QQ)
    for _ in range(10):
        i = rng.randint(1, 3)
        good = rand_poly(rng, QQ, 2, nonzero=True) * ctx.h**i
        assert from_weyl(wctx.monomial(good, i), ctx).coeff(i) == good // ctx.h**i
        bad = good + Poly.one(QQ)  # breaks divisibility by h^i
        with pytest.raises(NotInSubalgebraError):
            from_weyl(wctx.monomial(bad, i), ctx)


def test_generator_powers_into_denominator_ideal():
    # Y^j f^m lands in f^(m-j) * A, coefficientwise
    ctx = ctx_for(QQ, 0, 1, 1)
    f = Poly.from_ints(QQ, (1, 1))
    for m in range(4):
        for j in range(m + 1):
            elem = ctx.gen() ** j * f**m
            back = from_weyl(to_weyl(elem), ctx)
            assert back == elem
            for c in back.coeffs:
                assert (f ** (m - j)).divides(c)


def test_anti_map_intertwines():
    # to_weyl conjugates the subalgebra anti-map into x -> x, y -> -y
    rng = random.Random(22)
    for spec in (QQ, F3):
        ctx = AhContext(spec, Poly.from_ints(spec, (0, 0, 1)))
        wctx = weyl_context(spec)
        for _ in range(6):
            a = rand_elem(rng, ctx, 3, 2)
            lhs = to_weyl(antiautomorphism(a))
            w = to_weyl(a)
            rhs = wctx.zero()
            for i, r in enumerate(w.coeffs):
                rhs = rhs + (-wctx.gen()) ** i * r
            assert lhs == rhs


def test_embed():
    # A_g -> A_f along f | g; identity when f = g
    ctx_g = ctx_for(QQ, 0, 0, 1)  # g = x^2
    a = rand_elem(random.Random(23), ctx_g, 3, 3)
    assert embed(a, ctx_g.h) == a
    f = Poly.x(QQ)
    image = embed(ctx_g.gen(), f)
    target = image.ctx
    assert target.h == f
    # image of the generator is x*Y + x in the target normal form
    assert image == target.monomial(Poly.x(QQ), 1) + target.x()
    # the embedded generator still satisfies [image, x] = g
    assert commutator(image, target.x()) == target.from_poly(ctx_g.h)
    with pytest.raises(NotDivisibleError):
        embed(ctx_g.gen(), Poly.from_ints(QQ, (1, 1)))


def test_embed_is_homomorphism_down_to_ax():
    ctx_g = ctx_for(QQ, 0, 0, 0, 1)  # g = x^3
    f = Poly.x(QQ)
    a = ctx_g.gen() ** 2
    image = embed(a, f)
    assert image.ydeg == 2
    gen_image = embed(ctx_g.gen(), f)
    assert image == gen_image * gen_image
    rng = random.Random(24)
    for _ in range(6):
        u = rand_elem(rng, ctx_g, 2, 2)
        v = rand_elem(rng, ctx_g, 2, 2)
        assert embed(u * v, f) == embed(u, f) * embed(v, f)


def table_contexts():
    """One context per field: h = x^2/3 + 1/2 over QQ, x^3 + x + 1 over GF(2),
    x^5 - x over GF(5) (every element a root) and a non-monic cubic over GF(101)."""
    half, third = QQ.elem(Fraction(1, 2)), QQ.elem(Fraction(1, 3))
    f2, f5, f101 = FieldSpec.gf(2), FieldSpec.gf(5), FieldSpec.gf(101)
    return [
        AhContext(QQ, Poly(QQ, (half, 0, third))),
        ctx_for(f2, 1, 1, 0, 1),
        ctx_for(f5, 0, -1, 0, 0, 0, 1),
        ctx_for(f101, 7, 5, 0, 3),
    ]


def as_polys(ctx, rows):
    """The raw rows as polynomials: the entries of row i are numerators over den(h)^i."""
    hd = ctx.h._den
    return [[_poly(ctx.spec, nums, hd**i) for nums in row] for i, row in enumerate(rows)]


@pytest.mark.parametrize("ctx", table_contexts(), ids=lambda c: str(c.spec))
def test_hy_rows_grow_on_demand(ctx):
    longest = 0
    for n in (2, 7, 3, 0):
        before = kept(ctx.h, "hy_rows") or ()
        size = len(before)
        rows = _hy_rows(ctx, n)
        assert as_polys(ctx, rows[: n + 1]) == hy_rows_oracle(ctx, n)
        longest = max(longest, n + 1)
        assert len(kept(ctx.h, "hy_rows")) == longest
        # grown from the last row, never rebuilt, and the old table left whole
        assert all(new is old for new, old in zip(kept(ctx.h, "hy_rows"), before))
        assert len(before) == size


@pytest.mark.parametrize("ctx", table_contexts(), ids=lambda c: str(c.spec))
def test_warm_context_compares_and_hashes_as_fresh(ctx):
    # an equal but distinct h keeps its own rows; a context over the same h shares them
    fresh, shared = AhContext(ctx.spec, _poly(ctx.spec, ctx.h._nums, ctx.h._den)), AhContext(ctx.spec, ctx.h)
    key = hash(ctx)
    rng = random.Random(f"warm:{ctx.spec}")
    a = rand_elem(rng, ctx, 6, 2)
    fs = hy_coordinates(a)
    assert kept(ctx.h, "hy_rows") and not kept(fresh.h, "hy_rows")
    assert kept(shared.h, "hy_rows") is kept(ctx.h, "hy_rows")
    assert ctx == fresh and hash(ctx) == key == hash(fresh)
    assert a == fresh.element(a.coeffs) and hash(a) == hash(fresh.element(a.coeffs))
    assert from_hy_coordinates(fs, fresh) == from_hy_coordinates(fs, ctx) == a


@pytest.mark.parametrize("ctx", table_contexts(), ids=lambda c: str(c.spec))
def test_threads_warm_one_context(ctx):
    # more threads than cores, switching often: the longest table must survive
    start, results, sizes = threading.Barrier(4), {}, (9, 4, 12, 6)

    def warm(n):
        start.wait(timeout=30)
        results[n] = _hy_rows(ctx, n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=warm, args=(n,)) for n in sizes]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == len(sizes)
    want = hy_rows_oracle(ctx, max(sizes))
    for n, rows in results.items():
        assert as_polys(ctx, rows[: n + 1]) == want[: n + 1]
    assert as_polys(ctx, kept(ctx.h, "hy_rows")) == want


def _embed_outcome(embedding, a, f):
    try:
        return embedding(a, f)
    except (NotDivisibleError, ZeroInputError) as err:
        return type(err)


def test_embed_matches_the_weyl_route():
    rng = random.Random(28)
    for spec in FIELDS:
        x = Poly.x(spec)
        two = spec.from_int(2 if spec.p != 2 else 1)
        for f, v in (
            ((x + 1).scaled(two), x**2 + 3),  # non-monic f
            (x**2 + 1, Poly.one(spec)),  # f = g
            (Poly.one(spec), x**3 + x),  # f = 1
            (Poly.constant(two), (x + 1) ** 2),  # constant f
        ):
            ctx = AhContext(spec, f * v)
            for ydeg in range(5):
                a = ctx.element([rand_poly(rng, spec, 2) for _ in range(ydeg + 1)])
                image = embed(a, f)
                assert image == embed_oracle(a, f) and image.ctx.h == f
                assert image.ctx.gen_symbol == ctx.gen_symbol
            for bad in (Poly.zero(spec), x + 2, x**4 + x + 1):
                if bad.divides(ctx.h):
                    continue
                want = _embed_outcome(embed_oracle, ctx.gen(), bad)
                assert want in (NotDivisibleError, ZeroInputError)
                assert _embed_outcome(embed, ctx.gen(), bad) is want


def test_ore_witness_right():
    ctx = ctx_for(QQ, 0, 0, 1)
    f = Poly.from_ints(QQ, (1, 1))
    w = ore_witness(ctx.x(), f, "right")
    assert w.s1 == f and w.a1 == ctx.x()
    # a = Y: Y f^2 = f (f Y + 2 f' h)
    w = ore_witness(ctx.gen(), f, "right")
    assert w.s1 == f**2
    expected = ctx.monomial(f, 1) + ctx.from_poly(f.derivative() * ctx.h * 2)
    assert w.a1 == expected


def test_ore_witness_property():
    rng = random.Random(25)
    for spec in (QQ, F3):
        ctx = AhContext(spec, Poly.from_ints(spec, (0, 1, 1)))
        for _ in range(8):
            a = rand_elem(rng, ctx, 3, 2)
            f = rand_poly(rng, spec, 2, nonzero=True)
            right = ore_witness(a, f, "right")
            assert a * right.s1 == f * right.a1
            left = ore_witness(a, f, "left")
            assert left.s1 * a == left.a1 * f


def test_ore_witness_matches_mirrored_route():
    rng = random.Random(27)
    for spec in (*FIELDS, FieldSpec.gf(5)):
        ctx = ctx_for(spec, 0, 1, 1)  # h = x*(x + 1)
        denominators = (
            Poly.from_ints(spec, (1, 1)),  # divides h
            Poly.from_ints(spec, (1, 1, 1)),  # does not
            rand_poly(rng, spec, 0, nonzero=True),
        )
        for k in range(7):
            coeffs = [rand_poly(rng, spec, 2) for _ in range(k)]
            a = ctx.element(coeffs + [rand_poly(rng, spec, 2, nonzero=True)])
            for f in denominators:
                for side in ("right", "left"):
                    w = ore_witness(a, f, side)
                    assert (w.a1, w.s1, w.side) == (*ore_witness_oracle(a, f, side), side)


@pytest.mark.parametrize("quotient", [lambda w, v: None, lambda w, v: v])
def test_failed_left_ore_witness_is_a_self_check_error(monkeypatch, quotient):
    from ahalg import weyl

    monkeypatch.setattr(weyl, "div_right_exact", quotient)
    ctx = ctx_for(QQ, 0, 1)
    with pytest.raises(SelfCheckError):
        ore_witness(ctx.gen(), Poly.from_ints(QQ, (1, 1)), "left")


def test_localized_equal():
    ctx = ctx_for(QQ, 0, 1)  # h = x
    wctx = weyl_context(QQ)
    # Y h^-1 equals y: the key localization identity
    assert localized_equal(ctx.gen(), 1, wctx.gen(), 0)
    a = rand_elem(random.Random(26), ctx, 2, 2)
    assert localized_equal(a, 0, to_weyl(a), 0)
    # x/x = 1 but x/1 = x
    assert not localized_equal(ctx.x(), 1, wctx.x(), 0)
    assert localized_equal(ctx.x(), 1, wctx.one(), 0)


def test_ore_witness_zero_denominator():
    ctx = ctx_for(QQ, 0, 1)
    with pytest.raises(ZeroDivisionError):
        ore_witness(ctx.gen(), Poly.zero(QQ))
