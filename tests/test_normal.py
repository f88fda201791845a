"""Normal elements: decision, classification, simplicity, prime generators."""

import random
from fractions import Fraction

import pytest

import ahalg.normal
from ahalg import (
    AhContext,
    FactoredPoly,
    FactorTerm,
    FieldSpec,
    Poly,
    center,
    classify_aut_group,
    classify_normal,
    compute_G,
    compute_P,
    div_left_exact,
    div_right_exact,
    factor,
    height_one_prime_test,
    is_normal,
    is_simple,
    PrimeKind,
)
from ahalg.errors import NotNormalError, UnverifiableError, ZeroInputError
from ahalg.poly import _spread
from ahalg.weyl import hy_coordinates

from helpers import kept, normal_oracle, rand_elem

QQ = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
F3 = FieldSpec.gf(3)


def ctx_for(spec, *ints):
    return AhContext(spec, Poly.from_ints(spec, ints))


def test_factor_of_h_is_normal_with_expected_witness():
    # h = g*f with g = x, f = x: the witness is f*g' = x
    ctx = ctx_for(QQ, 0, 0, 1)
    cert = is_normal(ctx.x())
    assert cert.verdict
    assert cert.r == Poly.x(QQ)
    # the general shape: witness for a factor g of h is (h/g) * g'
    ctx2 = ctx_for(QQ, 0, -1, 0, 1)  # h = x^3 - x = x(x-1)(x+1)
    g = Poly.from_ints(QQ, (-1, 1))
    cert2 = is_normal(ctx2.from_poly(g))
    assert cert2.verdict and cert2.r == ctx2.h // g * g.derivative()


def test_non_factor_is_not_normal():
    ctx = ctx_for(QQ, 0, 0, 1)
    cert = is_normal(ctx.from_poly(Poly.from_ints(QQ, (1, 1))))
    assert not cert.verdict


def test_central_elements_normal_with_zero_witness():
    ctx = ctx_for(F3, 0, 1)
    z = center(ctx).y_generator
    cert = is_normal(z)
    assert cert.verdict and cert.r.is_zero()
    cert = is_normal(ctx.from_scalar(2))
    assert cert.verdict and cert.r.is_zero()


def test_zero_element_rejected():
    with pytest.raises(ZeroInputError):
        is_normal(ctx_for(QQ, 0, 1).zero())


def test_normal_soundness_via_quotients():
    # whenever the certificate is positive, both one-sided memberships hold
    rng = random.Random(50)
    ctx = ctx_for(F3, 0, 0, 1)
    candidates = [
        ctx.x(),
        ctx.x() ** 2,
        center(ctx).y_generator,
        ctx.x() * center(ctx).y_generator,
        rand_elem(rng, ctx, 2, 2, nonzero=True),
    ]
    for v in candidates:
        if not is_normal(v).verdict:
            continue
        for g in (ctx.x(), ctx.gen()):
            assert div_left_exact(g * v, v) is not None
            assert div_right_exact(v * g, v) is not None


def test_normal_agrees_with_definition_oracle_sampled():
    rng = random.Random(51)
    for spec, ints in ((F2, (0, 1)), (F3, (0, 0, 1)), (QQ, (0, 0, 1))):
        ctx = AhContext(spec, Poly.from_ints(spec, ints))
        for _ in range(12):
            v = rand_elem(rng, ctx, 2, 2, nonzero=True)
            assert is_normal(v).verdict == normal_oracle(v)


def test_products_of_normals_are_normal():
    ctx = ctx_for(F2, 0, 0, 1)
    normals = [ctx.x(), center(ctx).y_generator, ctx.from_scalar(1)]
    for a in normals:
        for b in normals:
            assert is_normal(a * b).verdict


def test_classify_char0():
    ctx = ctx_for(QQ, 0, 0, 1)  # h = x^2
    split = classify_normal(ctx.x())
    assert split.factors == ((Poly.x(QQ), 1),)
    assert split.central_part == ctx.one()
    # lambda * u^2 keeps the scalar in the central part
    v = ctx.from_poly(Poly.from_ints(QQ, (0, 0, 3)))
    split = classify_normal(v)
    assert split.factors == ((Poly.x(QQ), 2),)
    assert split.central_part == ctx.from_scalar(3)
    assert split.reassemble() == v


def test_classify_charp_reduces_exponents():
    # GF(2), h = x: v = x * (central) reassembles with beta reduced mod p
    ctx = ctx_for(F2, 0, 1)
    z = center(ctx).y_generator  # Y^2 + Y = h^2 y^2
    v = ctx.x() * z
    split = classify_normal(v)
    assert split.factors == ((Poly.x(F2), 1),)
    assert split.central_part == z
    assert split.reassemble() == v
    # x^2 * z has beta = 2 = 0 mod 2: the whole x^2 moves into the center
    v2 = ctx.x() ** 2 * z
    split2 = classify_normal(v2)
    assert split2.factors == ()
    assert split2.central_part == v2
    assert split2.reassemble() == v2


def test_classify_rejects_non_normal():
    ctx = ctx_for(QQ, 0, 0, 1)
    with pytest.raises(NotNormalError):
        classify_normal(ctx.from_poly(Poly.from_ints(QQ, (1, 1))))


def test_classify_unverifiable_over_qq():
    # h with an uncertified quartic factor: classification refuses to guess
    quartic = Poly.from_ints(QQ, (1, 0, 0, 0, 1))
    ctx = AhContext(QQ, quartic * Poly.x(QQ))
    with pytest.raises(UnverifiableError):
        classify_normal(ctx.x())


def test_is_simple_matrix():
    # simple iff char 0 and h constant
    for spec, ints, expected in (
        (QQ, (1,), True),
        (QQ, (0, 1), False),
        (QQ, (0, 0, 1), False),
        (FieldSpec.gf(5), (1,), False),
        (FieldSpec.gf(5), (0, 1), False),
        (FieldSpec.gf(5), (0, 0, 1), False),
    ):
        assert is_simple(ctx_for(spec, *ints)) is expected


def test_prime_test_factor_of_h():
    ctx = ctx_for(QQ, 0, -1, 0, 1)  # x(x-1)(x+1)
    report = height_one_prime_test(ctx.x())
    assert report.kind == PrimeKind.FACTOR_OF_H
    report = height_one_prime_test(ctx.from_poly(Poly.from_ints(QQ, (-2, 2))))
    assert report.kind == PrimeKind.FACTOR_OF_H  # associate of x - 1
    report = height_one_prime_test(ctx.from_poly(Poly.from_ints(QQ, (2, 1))))
    assert report.kind == PrimeKind.NOT_PRIME_GENERATOR


def test_prime_test_central_cases():
    for p, ints in ((2, (0, 1)), (3, (0, 0, 1))):
        ctx = ctx_for(FieldSpec.gf(p), *ints)
        z = center(ctx).y_generator  # h^p y^p: degree 1 in the second generator
        report = height_one_prime_test(z)
        assert report.kind == PrimeKind.CENTRAL_IRREDUCIBLE
        up = ctx.x() ** p  # u^p for the non-central prime u = x | h
        report = height_one_prime_test(up)
        assert report.kind == PrimeKind.NOT_PRIME_GENERATOR
    # p-th power of an irreducible NOT dividing h still generates a prime
    ctx = ctx_for(F3, 0, 1)
    v = ctx.from_poly(Poly.from_ints(F3, (1, 1)) ** 3)
    report = height_one_prime_test(v)
    assert report.kind == PrimeKind.CENTRAL_IRREDUCIBLE


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_spread_at_stride_p_is_the_pth_power(p):
    spec, rng = FieldSpec.gf(p), random.Random(p)
    polys = [Poly.zero(spec), Poly.one(spec), Poly.x(spec)]
    polys += [Poly.from_ints(spec, [rng.randrange(p) for _ in range(rng.randint(1, 6))] + [1])
              for _ in range(20)]
    for u in polys:
        assert _spread(spec, u._nums, p) == u**p


def test_prime_test_bivariate_unknown():
    ctx = ctx_for(F2, 0, 1)
    desc = center(ctx)
    v = desc.y_generator + ctx.from_poly(desc.x_generator)  # X + T: bivariate
    report = height_one_prime_test(v)
    assert report.kind == PrimeKind.UNKNOWN


def test_prime_test_non_normal_noncentral():
    ctx = ctx_for(F3, 0, 0, 1)
    report = height_one_prime_test(ctx.gen())
    assert report.kind == PrimeKind.NOT_PRIME_GENERATOR


def test_classify_two_prime_factors_charp():
    # GF(3), h = x(x+1): v = x * (x+1)^2 * z recovers both exponents
    ctx = ctx_for(F3, 0, 1, 1)
    z = center(ctx).y_generator
    u1, u2 = Poly.x(F3), Poly.from_ints(F3, (1, 1))
    v = ctx.from_poly(u1 * u2**2) * z
    split = classify_normal(v)
    assert dict((str(u), b) for u, b in split.factors) == {"x": 1, "x + 1": 2}
    assert split.central_part == z
    assert split.reassemble() == v


def test_prime_test_unknown_when_unverified():
    quartic = Poly.from_ints(QQ, (1, 0, 0, 0, 1))
    ctx = AhContext(QQ, quartic * Poly.x(QQ))
    report = height_one_prime_test(ctx.from_poly(quartic))
    assert report.kind == PrimeKind.UNKNOWN
    # a supplied certified factorization resolves it
    fac = FactoredPoly(
        QQ.one(),
        (FactorTerm(Poly.x(QQ), 1, True), FactorTerm(quartic, 1, True)),
    )
    report = height_one_prime_test(ctx.from_poly(quartic), fac)
    assert report.kind == PrimeKind.FACTOR_OF_H


# the GF(p) contexts above, and one whose factors are split by the seeded
# equal-degree step: (x^2 + 2)(x^2 + 3)(x - 1)(x - 2) over GF(5)
GFP_H = [
    (F2, (0, 1)), (F2, (0, 0, 1)), (F3, (0, 1)), (F3, (0, 0, 1)), (F3, (0, 1, 1)),
    (FieldSpec.gf(5), (1,)), (FieldSpec.gf(5), (0, 1)), (FieldSpec.gf(5), (0, 0, 1)),
    (FieldSpec.gf(5), (2, 2, 1, 0, 2, 2, 1)),
]


def test_h_is_factored_once_per_context(monkeypatch):
    calls = []
    real = ahalg.normal.factor

    def counting(f, seed=0):
        calls.append(f)
        return real(f, seed=seed)

    monkeypatch.setattr(ahalg.normal, "factor", counting)
    ctx = ctx_for(F3, 0, 1, 1)
    v = ctx.from_poly(Poly.x(F3)) * center(ctx).y_generator
    for seed in (0, 1):
        assert classify_normal(v).factors == ((Poly.x(F3), 1),)
        assert height_one_prime_test(v, seed=seed).kind == PrimeKind.NOT_PRIME_GENERATOR
    assert calls == [ctx.h]
    fresh = ctx_for(F3, 0, 1, 1)
    assert fresh == ctx and kept(fresh, "factors") is None
    classify_normal(fresh.x())
    height_one_prime_test(fresh.x())
    assert calls == [ctx.h, ctx.h]


def test_supplied_factorization_serves_its_call_only():
    # h = x^5 + x + 1 = (x^2 + x + 1)(x^3 - x^2 + 1): the quintic has no
    # rational root, so factor cannot certify it
    u, w = Poly.from_ints(QQ, (1, 1, 1)), Poly.from_ints(QQ, (1, 0, -1, 1))
    ctx = ctx_for(QQ, 1, 1, 0, 0, 0, 1)
    assert u * w == ctx.h
    fac = FactoredPoly(QQ.one(), (FactorTerm(u, 1, True), FactorTerm(w, 1, True)))
    split = classify_normal(ctx.from_poly(u), h_factored=fac)
    assert split.factors == ((u, 1),) and split.central_part == ctx.one()
    assert kept(ctx, "factors") is None
    with pytest.raises(UnverifiableError):
        classify_normal(ctx.from_poly(u))


def _raw(value) -> bool:
    """Only ints, Fractions and None, in nested lists and tuples: nothing that holds a context."""
    if isinstance(value, (list, tuple)):
        return all(_raw(v) for v in value)
    return value is None or isinstance(value, (int, Fraction))


def test_kept_factorization_leaves_equality_and_hash_alone():
    # every field of the record, each filled by one of its readers
    for spec, ints in GFP_H + [(QQ, (1, 1, 0, 0, 0, 1)), (QQ, (0, 0, 3))]:
        ctx = ctx_for(spec, *ints)
        before = hash(ctx)
        height_one_prime_test(ctx.x())
        center(ctx)
        hy_coordinates(ctx.gen() ** 3)
        fields = {"factors", "hy_rows"}
        if ctx.deg_h:
            classify_aut_group(ctx)
            compute_G(ctx)
            fields |= {"radical", "anchor", "presentation"} | ({"correction"} if spec.p else set())
        assert set(ctx.facts) == fields
        assert ctx.facts["factors"] == factor(ctx.h)
        assert all(_raw(v) for name, v in ctx.facts.items() if name != "factors")
        fresh = AhContext(spec, ctx.h)
        assert ctx == fresh and fresh.facts is None
        assert hash(ctx) == before == hash(fresh)
        if ctx.deg_h:
            assert compute_P(ctx) == compute_P(fresh) and center(ctx) == center(fresh)


@pytest.mark.parametrize("spec, ints", GFP_H, ids=[f"{s!r}-{i}" for s, i in GFP_H])
def test_factor_does_not_depend_on_the_seed(spec, ints):
    # the basis for keeping the first factorization whatever seed a later call passes
    h = Poly.from_ints(spec, ints)
    assert len({factor(h, seed=s) for s in range(5)}) == 1
