"""Admissible pairs, group classification, invariants, and endomorphisms."""

import copy
import json
import pickle
import random
from fractions import Fraction
from functools import reduce

import pytest

from ahalg import (
    AhContext,
    Automorphism,
    FieldSpec,
    Poly,
    center,
    classify_aut_group,
    commutator,
    compute_G,
    compute_P,
    eta_endo,
    extend_automorphism,
    iso_test,
    kappa_endo,
    phi,
    restrict_automorphism,
    tau,
)
from ahalg import autgroup
from ahalg.autgroup import (
    _anchor,
    _assert_laws,
    _binomial_roots,
    _hasse_rows,
    _law_holds,
    _order,
    affine_equivalences,
    pair_is_valid,
)
from ahalg.cli import run
from ahalg.errors import (
    AhError,
    CharacteristicError,
    ConstantHError,
    ContextMismatch,
    InfiniteFieldError,
    InvalidPairError,
    SelfCheckError,
    WrongHError,
)
from ahalg.fields import FieldElem
from ahalg.poly import _poly, gcd_monic, rational_roots

from helpers import (
    all_polys,
    centroid_oracle,
    classify_oracle,
    closed_form_shapes,
    compose_oracle,
    exhaustive_equivalences,
    exhaustive_iso,
    exhaustive_pairs,
    exhaustive_translations,
    kept,
    least_primitive_root_oracle,
    laws_hold_on_all_pairs,
    poly_roots_oracle,
    rand_elem,
    rand_poly,
    rand_scalar,
    taylor_oracle,
)

QQ = FieldSpec.rationals()
F2 = FieldSpec.gf(2)
F3 = FieldSpec.gf(3)
F5 = FieldSpec.gf(5)


def ctx_for(spec, *ints):
    return AhContext(spec, Poly.from_ints(spec, ints))


def pairs_of(pset):
    return {(a.val, b.val) for a, b in pset.pairs()}


# -- the translation group G --------------------------------------------------


def test_G_char0_trivial():
    assert [e.val for e in compute_G(ctx_for(QQ, 0, 0, 0, 1))] == [0]


def test_G_additive_polynomial():
    for p in (2, 3, 5):
        spec = FieldSpec.gf(p)
        h = Poly.monomial(spec, spec.one(), p) - Poly.x(spec)  # x^p - x
        assert len(compute_G(AhContext(spec, h))) == p


def test_G_x_squared_gf3():
    assert [e.val for e in compute_G(ctx_for(F3, 0, 0, 1))] == [0]


def test_G_is_a_group_and_P_scales_it():
    for spec, ints in ((F3, (0, -1, 0, 1)), (F2, (0, 1, 1)), (F5, (0, 0, 1))):
        ctx = AhContext(spec, Poly.from_ints(spec, ints))
        G = set(compute_G(ctx))
        for nu in G:
            for mu in G:
                assert nu + mu in G
        for alpha, _ in compute_P(ctx).pairs():
            assert {alpha * nu for nu in G} == G


def test_constant_h_rejected():
    with pytest.raises(ConstantHError):
        compute_P(ctx_for(QQ, 5))


# -- the pair set P ------------------------------------------------------------


def test_quadratic_distinct_roots():
    # h = x^2 - z1 x + z0 with distinct roots: P = {(1,0), (-1,z1)}
    for z1, z0 in ((1, 0), (3, 2), (0, -1), (5, 4), (-2, -3)):
        h = Poly.from_ints(QQ, (z0, -z1, 1))
        ctx = AhContext(QQ, h)
        pset = compute_P(ctx)
        assert pset.shape == "finite"
        assert pairs_of(pset) == {(1, 0), (-1, z1)}


def test_double_root_quadratic_is_family():
    pset = compute_P(ctx_for(QQ, 1, -2, 1))  # (x-1)^2
    assert pset.shape == "one_parameter_family"
    assert pset.lam == QQ.one()


def test_x_squared_times_x_minus_one():
    pset = compute_P(ctx_for(QQ, 0, 0, -1, 1))  # x^2 (x - 1)
    assert pairs_of(pset) == {(1, 0)}


def test_monomial_h_is_family_at_zero():
    for n in (1, 2, 3, 5):
        pset = compute_P(AhContext(QQ, Poly.monomial(QQ, QQ.one(), n)))
        assert pset.shape == "one_parameter_family"
        assert pset.lam == QQ.zero()


def test_every_returned_pair_satisfies_the_law():
    rng = random.Random(60)
    for spec in (F3, F5):
        for _ in range(6):
            h = rand_poly(rng, spec, 4, nonzero=True)
            if h.degree < 1:
                continue
            ctx = AhContext(spec, h)
            for alpha, beta in compute_P(ctx).pairs():
                assert pair_is_valid(ctx, alpha, beta)


def test_elimination_agrees_with_exhaustive_search():
    rng = random.Random(61)
    checked = 0
    for spec in (F5, FieldSpec.gf(7)):
        while checked < 10 or spec.characteristic == 5:
            h = rand_poly(rng, spec, 4, nonzero=True)
            if h.degree < 2:
                continue
            d_lead = spec.from_int(h.degree) * h.lc
            if d_lead.is_zero():
                continue
            ctx = AhContext(spec, h)
            pset = compute_P(ctx)
            if pset.shape != "finite":
                continue
            got = tuple((a, b) for a, b, _ in affine_equivalences(h, h))
            assert got == exhaustive_pairs(ctx)
            checked += 1
            if checked >= 10:
                break
    assert checked >= 10


# -- automorphisms: apply, compose, invert --------------------------------------


def test_invalid_pair_rejected():
    with pytest.raises(InvalidPairError):
        tau(ctx_for(QQ, 0, 0, -1, 1), QQ.from_int(2), QQ.zero())


def test_identity_and_shear_action():
    ctx = ctx_for(QQ, 0, 0, 1)
    a = rand_elem(random.Random(62), ctx, 3, 3)
    assert tau(ctx, QQ.one(), QQ.zero()).apply(a) == a
    shear = phi(ctx, ctx.h_prime)
    # the conjugation identity of the distinguished shear: a h = h shear(a)
    h_elem = ctx.from_poly(ctx.h)
    for _ in range(4):
        b = rand_elem(random.Random(63), ctx, 3, 3)
        assert b * h_elem == h_elem * shear.apply(b)


def test_negation_pair_on_x_squared():
    ctx = ctx_for(QQ, 0, 0, 1)
    omega = tau(ctx, QQ.from_int(-1), QQ.zero())
    lhs = omega.apply(commutator(ctx.gen(), ctx.x()))
    rhs = commutator(omega.apply(ctx.gen()), omega.apply(ctx.x()))
    assert lhs == rhs


def test_apply_is_homomorphism():
    rng = random.Random(64)
    ctx = ctx_for(QQ, 0, -1, 0, 1)
    omega = Automorphism(ctx, QQ.from_int(-1), QQ.zero(), Poly.from_ints(QQ, (1, 2)))
    for _ in range(6):
        a = rand_elem(rng, ctx, 3, 2)
        b = rand_elem(rng, ctx, 3, 2)
        assert omega.apply(a * b) == omega.apply(a) * omega.apply(b)
        assert omega.apply(a + b) == omega.apply(a) + omega.apply(b)


def test_compose_matches_pointwise_application():
    rng = random.Random(65)
    ctx = ctx_for(QQ, 0, -1, 1)  # h = x^2 - x, pairs (1,0) and (-1,1)
    w1 = Automorphism(ctx, QQ.from_int(-1), QQ.one(), Poly.from_ints(QQ, (0, 1)))
    w2 = Automorphism(ctx, QQ.from_int(-1), QQ.one(), Poly.from_ints(QQ, (2,)))
    composed = w1.compose(w2)
    for _ in range(8):
        a = rand_elem(rng, ctx, 3, 3)
        assert composed.apply(a) == w1.apply(w2.apply(a))
    assert w1.compose(w1.inverse()).is_identity
    assert w1.inverse().compose(w1).is_identity


def test_compose_shears_add():
    ctx = ctx_for(QQ, 0, 0, 1)
    f = Poly.from_ints(QQ, (1, 2))
    g = Poly.from_ints(QQ, (0, 0, 3))
    assert phi(ctx, f).compose(phi(ctx, g)) == phi(ctx, f + g)


def test_tau_inverse_formula():
    ctx = ctx_for(QQ, 1, -2, 1)  # family at lambda = 1
    alpha = QQ.from_int(3)
    beta = (QQ.one() - alpha) * QQ.one()
    t = tau(ctx, alpha, beta)
    expected = tau(ctx, alpha.inverse(), -beta * alpha.inverse())
    assert t.inverse() == expected


def test_automorphisms_are_checked_records():
    ctx = ctx_for(QQ, 0, -1, 1)  # x^2 - x: P = {(1, 0), (-1, 1)}
    omega = Automorphism(ctx, -1, 1, Poly.from_ints(QQ, (1, 2)))
    for twin in (omega._replace(), copy.copy(omega), copy.deepcopy(omega),
                 *(pickle.loads(pickle.dumps(omega, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1))):
        assert twin == omega and hash(twin) == hash(omega) and type(twin) is Automorphism
    assert Automorphism(ctx, QQ.from_int(-1), Fraction(1), omega.f) == omega
    assert hash(Automorphism(ctx, QQ.from_int(-1), Fraction(1), omega.f)) == hash(omega)
    ctx_, alpha, beta, f = omega
    assert (ctx_, alpha, beta, f) == (ctx, QQ.from_int(-1), QQ.one(), omega.f)
    assert omega._replace(f=Poly.zero(QQ)) == tau(ctx, -1, 1)
    assert repr(omega) == "Automorphism(alpha=-1, beta=1, f=2*x + 1)"
    with pytest.raises(InvalidPairError):
        omega._replace(beta=QQ.zero())
    with pytest.raises(ContextMismatch):
        omega._replace(f=Poly.x(F5))


def test_automorphisms_and_endomorphisms_share_one_apply():
    assert vars(Automorphism)["apply"] is vars(autgroup.Endomorphism)["apply"]
    ctx = ctx_for(QQ, 0, 0, 1)
    eta = eta_endo(ctx, 1)  # the identity, as an endomorphism
    a = ctx.element([Poly.from_ints(QQ, (1, 2)), Poly.x(QQ)])
    assert eta.apply(a) == tau(ctx, 1, 0).apply(a) == a
    with pytest.raises(ContextMismatch):
        eta.apply(ctx_for(QQ, 0, 1).gen())


# -- classification and invariants ----------------------------------------------


def test_classify_poly_only():
    structure = classify_aut_group(ctx_for(QQ, 0, 0, -1, 1))
    assert structure.case == "poly_only"
    assert structure.t_kind == "whole_ring"
    assert structure.dz_kind == "whole_ring"
    assert structure.q.is_one()


def test_classify_quadratic():
    structure = classify_aut_group(ctx_for(QQ, 0, -1, 1))  # x^2 - x, z1 = 1
    assert structure.case == "semidirect_finite"
    assert structure.generator == (QQ.from_int(-1), QQ.one())
    assert structure.ell == 2 and structure.k == 2
    # t = (x - 1/2)^2 and q = x - 1/2
    half = QQ.elem(Fraction(1, 2))
    base = Poly(QQ, (-half, QQ.one()))
    assert structure.t == base**2
    assert structure.q == base
    assert structure.n_exponent == 1


def test_classify_family_over_qq():
    structure = classify_aut_group(ctx_for(QQ, 0, 0, 0, 1))  # x^3
    assert structure.case == "semidirect_fstar"
    assert structure.lam == QQ.zero()
    assert structure.t_kind == "constants"
    assert structure.q == Poly.from_ints(QQ, (0, 0, 1))  # x^(n-1)
    assert structure.n_exponent == 2


def test_classify_family_over_gfp():
    # h = x^n over GF(p), p odd: ell = p - 1, generated by the least
    # primitive root; q = x^m with m = n-1 mod (p-1)
    for p, n, root in ((5, 3, 2), (3, 2, 2), (7, 4, 3)):
        spec = FieldSpec.gf(p)
        structure = classify_aut_group(
            AhContext(spec, Poly.monomial(spec, spec.one(), n))
        )
        assert structure.case == "semidirect_fstar"
        assert structure.ell == p - 1
        assert structure.generator == (spec.from_int(root), spec.zero())
        m = (n - 1) % (p - 1)
        assert structure.q == Poly.monomial(spec, spec.one(), m)
        assert structure.t == Poly.monomial(spec, spec.one(), p - 1)


def _classify_shapes(spec):
    """h of every classification shape over GF(p): split, a power of a linear
    factor, p | deg h, t(x^p - x), and non-monic."""
    p = spec.p
    x = Poly.x(spec)
    minus_one = spec.from_int(-1)

    def lin(r):
        return x - Poly.constant(spec.from_int(r))

    artin = x**p - x
    shapes = [
        lin(0) * lin(1) * lin(3),  # split, with a double root over GF(2) and GF(3)
        x ** (p - 1) - Poly.one(spec),  # split over F*: ell = p - 1
        (lin(2) ** 4).scaled(minus_one),  # a power of a linear factor: the family
        lin(1) ** p,  # the family with p | deg h
        artin,  # G = F_p, p | deg h
        artin + Poly.one(spec),  # Artin-Schreier: G = F_p, ell = 1
        artin * artin + artin.scaled(spec.from_int(2)),  # t(x^p - x)
        Poly.from_ints(spec, (5, 2, 0, 3)),  # non-monic 3x^3 + 2x + 5
        Poly.from_ints(spec, (-1, 0, 0, 0, 1)).scaled(minus_one),  # 1 - x^4
    ]
    return [h for h in shapes if h.degree >= 1]


def _fields(structure):
    return {
        "case": structure.case,
        "k": structure.k,
        "G": structure.G,
        "P": structure.P.pairs(),
        "shape": structure.P.shape,
        "lam": structure.lam,
        "generator": structure.generator,
        "ell": structure.ell,
        "t": structure.t,
        "t_kind": structure.t_kind,
        "q": structure.q,
        "dz_kind": structure.dz_kind,
        "n_exponent": structure.n_exponent,
    }


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29])
def test_classification_matches_exhaustive_search(p):
    spec = FieldSpec.gf(p)
    for h in _classify_shapes(spec):
        ctx = AhContext(spec, h)
        assert _fields(classify_aut_group(ctx)) == classify_oracle(ctx), h


def test_generator_law_check_agrees_with_all_pairs():
    # the t/q laws are checked on a translation and the generator alone;
    # checking every pair is the oracle, on right and on altered t and q.
    # Past GF(7) only the family keeps all pairs cheap to check.
    verdicts = []
    for p in (2, 3, 5, 7, 11, 13):
        spec = FieldSpec.gf(p)
        x = Poly.x(spec)
        family = [(x - Poly.one(spec)) ** 2, x**3, (x + Poly.from_ints(spec, (2,))) ** 4]
        for h in family if p > 2 else ():  # F2* = {1}: no family over GF(2)
            structure = classify_aut_group(AhContext(spec, h))
            assert structure.P.lam is not None and structure.generator is not None
        shapes = family + (_classify_shapes(spec) if p <= 7 else [])
        for h in shapes:
            structure = classify_aut_group(AhContext(spec, h))
            for s in (
                structure,
                structure._replace(t=structure.t * structure.t),
                structure._replace(q=structure.q.scaled(spec.from_int(2))),
                structure._replace(t=structure.t + x),
                structure._replace(q=structure.q * x),
            ):
                try:
                    _assert_laws(s)
                    ok = True
                except SelfCheckError:
                    ok = False
                assert ok == laws_hold_on_all_pairs(s), (p, h, s.t, s.q)
                verdicts.append(ok)
    assert True in verdicts and False in verdicts


def test_law_check_needs_a_generator_of_the_family():
    # 4 = 2^2 has order 3 in GF(7)*, so its powers miss half of the family
    spec = FieldSpec.gf(7)
    structure = classify_aut_group(ctx_for(spec, 1, -2, 1))  # (x - 1)^2
    alpha = spec.from_int(4)
    wrong = (alpha, (spec.one() - alpha) * structure.P.lam)
    with pytest.raises(SelfCheckError, match="powers of its generator"):
        _assert_laws(structure._replace(generator=wrong))


def test_law_check_needs_G_to_be_a_subgroup():
    # h = x^3 - x over GF(3) has G = GF(3); two of its translations are no group
    structure = classify_aut_group(ctx_for(F3, 0, -1, 0, 1))
    with pytest.raises(SelfCheckError, match="additive subgroup"):
        _assert_laws(structure._replace(G=structure.G[:2]))


def test_law_check_needs_the_generator_in_P():
    # x^3 - x over GF(7) has P = {(1, 0), (-1, 0)}; (-1, 1) has the right order
    spec = FieldSpec.gf(7)
    structure = classify_aut_group(ctx_for(spec, 0, -1, 0, 1))
    assert structure.generator == (spec.from_int(-1), spec.zero())
    outside = (spec.from_int(-1), spec.one())
    with pytest.raises(SelfCheckError, match="not in P"):
        _assert_laws(structure._replace(generator=outside))


def test_law_check_needs_a_generator_of_order_ell():
    # x^4 - 1 over GF(13): alpha runs over the fourth roots of unity, and -1
    # is in P but has order 2
    spec = FieldSpec.gf(13)
    structure = classify_aut_group(ctx_for(spec, -1, 0, 0, 0, 1))
    assert structure.ell == 4
    with pytest.raises(SelfCheckError, match="powers of its generator"):
        _assert_laws(structure._replace(generator=(spec.from_int(-1), spec.zero())))


def test_law_check_needs_ell_to_count_P():
    # x^4 - 1 over GF(13) with ell = 2: -1 has order 2 and t = x^2, q = x
    # obey the laws on it, but x^2 is not invariant under x -> 5x
    spec = FieldSpec.gf(13)
    structure = classify_aut_group(ctx_for(spec, -1, 0, 0, 0, 1))
    x = Poly.x(spec)
    wrong = structure._replace(
        ell=2, generator=(spec.from_int(-1), spec.zero()), t=x * x, q=x
    )
    assert pair_is_valid(structure.ctx, spec.from_int(5), spec.zero())
    with pytest.raises(SelfCheckError, match="powers of its generator"):
        _assert_laws(wrong)


def test_classify_family_gf2_degenerates():
    structure = classify_aut_group(ctx_for(F2, 0, 0, 1))  # x^2 over GF(2)
    assert structure.case == "poly_only"


def test_classify_translations_only():
    # h = t^2 + t with t = x^3 - x over GF(3): G is all of GF(3), no alpha != 1
    t = Poly.from_ints(F3, (0, -1, 0, 1))
    h = t**2 + t
    structure = classify_aut_group(AhContext(F3, h))
    assert structure.case == "semidirect_finite"
    assert structure.ell == 1
    assert len(structure.G) == 3
    assert structure.t == t
    assert structure.q.is_one()
    assert structure.dz_kind == "module"


def test_classify_x_cubed_minus_x_gf3():
    # G = GF(3) and alpha = 2 admissible: ell = 2, coprime with |G| - 1 = 2
    structure = classify_aut_group(ctx_for(F3, 0, -1, 0, 1))
    assert structure.case == "semidirect_finite"
    assert structure.ell == 2
    assert len(structure.G) == 3
    assert (len(structure.G) - 1) % structure.ell == 0
    assert structure.k == 3
    assert structure.t == Poly.from_ints(F3, (0, -1, 0, 1)) ** 2
    assert structure.q.is_one()


def test_invariant_t_is_minimal_on_small_grid():
    # no lower-degree nonconstant polynomial is invariant under all generators
    for spec, ints in ((F3, (0, -1, 0, 1)), (F2, (0, 1, 1))):
        ctx = AhContext(spec, Poly.from_ints(spec, ints))
        structure = classify_aut_group(ctx)
        assert structure.t_kind == "generated"
        deg_t = structure.t.degree
        pairs = structure.P.pairs()
        for f in all_polys(spec, deg_t - 1):
            if f.degree < 1:
                continue
            invariant = all(
                f.compose(Poly(spec, (b, a))) == f for a, b in pairs
            )
            assert not invariant, f"{f} beats t in degree"


def test_q_commutes_with_generators():
    for spec, ints in ((QQ, (0, -1, 1)), (F3, (0, -1, 0, 1)), (F5, (0, 0, 0, 1))):
        ctx = AhContext(spec, Poly.from_ints(spec, ints))
        structure = classify_aut_group(ctx)
        center_shear = phi(ctx, structure.q)
        others = [phi(ctx, Poly.x(spec)), phi(ctx, Poly.one(spec))]
        others += [tau(ctx, a, b) for a, b in structure.P.pairs()]
        for omega in others:
            assert center_shear.compose(omega) == omega.compose(center_shear)


def test_remark_coprime_divisibility():
    # whenever G is nontrivial and ell > 1: ell divides |G| - 1
    for spec, ints in ((F3, (0, -1, 0, 1)), (F5, (0, -1, 0, 0, 0, 1))):
        ctx = AhContext(spec, Poly.from_ints(spec, ints))
        structure = classify_aut_group(ctx)
        if len(structure.G) > 1 and structure.ell and structure.ell > 1:
            assert (len(structure.G) - 1) % structure.ell == 0


# -- the isomorphism problem -----------------------------------------------------


def test_iso_witness_by_construction():
    h = Poly.from_ints(QQ, (0, -1, 0, 1))
    g = h.compose(Poly.from_ints(QQ, (1, 1)))  # g(x) = h(x+1)
    witness = iso_test(h, g, QQ)
    assert witness is not None
    alpha, beta, nu = witness
    assert h.compose(Poly(QQ, (beta, alpha))) == g.scaled(nu)


def test_iso_degree_mismatch():
    assert iso_test(Poly.from_ints(QQ, (0, 1)), Poly.from_ints(QQ, (0, 0, 1)), QQ) is None


def test_iso_scaled_square():
    h = Poly.from_ints(QQ, (0, 0, 1))
    g = Poly.from_ints(QQ, (0, 0, 4))
    witness = iso_test(h, g, QQ)
    assert witness is not None
    alpha, beta, nu = witness
    assert g.scaled(nu) == h.compose(Poly(QQ, (beta, alpha)))


def test_iso_over_qq_meets_every_condition_at_the_roots_of_the_least():
    # around the anchor 0: alpha^2 = 4 gives +-2, and alpha^3 = 8 keeps 2; alpha^3 = 27 keeps none
    g = Poly.from_ints(QQ, (1, 1, 0, 1))
    h = Poly.from_ints(QQ, (8, 4, 0, 1))
    assert iso_test(h, g, QQ) == (QQ.from_int(2), QQ.zero(), QQ.from_int(8))
    assert affine_equivalences(h, g) == [(QQ.from_int(2), QQ.zero(), QQ.from_int(8))]
    assert iso_test(Poly.from_ints(QQ, (27, 4, 0, 1)), g, QQ) is None
    assert affine_equivalences(Poly.from_ints(QQ, (27, 4, 0, 1)), g) == []


def test_iso_over_gfp():
    h = Poly.from_ints(F5, (1, 2, 1))
    g = h.compose(Poly.from_ints(F5, (3, 2))).scaled(F5.from_int(2).inverse())
    witness = iso_test(h, g, F5)
    assert witness is not None
    alpha, beta, nu = witness
    assert h.compose(Poly(F5, (beta, alpha))) == g.scaled(nu)
    # (x+1)^2 against the irreducible x^2+x+1: one distinct root against two
    assert iso_test(h, Poly.from_ints(F5, (1, 1, 1)), F5) is None


# -- endomorphisms ------------------------------------------------------------------


def test_eta_relation_and_injectivity_probe():
    ctx = ctx_for(QQ, 0, 0, 1)  # h = x^2
    eta2 = eta_endo(ctx, 2)
    lhs = commutator(eta2.apply(ctx.gen()), eta2.apply(ctx.x()))
    assert lhs == eta2.apply(commutator(ctx.gen(), ctx.x()))
    assert lhs == ctx.from_poly(Poly.monomial(QQ, QQ.one(), 4))
    assert not eta2.surjective
    eta1 = eta_endo(ctx, 1)
    a = rand_elem(random.Random(70), ctx, 3, 3)
    assert eta1.apply(a) == a
    assert eta1.surjective


def test_eta_requires_monomial_h():
    with pytest.raises(WrongHError):
        eta_endo(ctx_for(QQ, 1, 0, 1), 2)
    with pytest.raises(CharacteristicError):
        eta_endo(ctx_for(F3, 0, 0, 1), 3)


def test_kappa():
    for p in (2, 3):
        ctx = ctx_for(FieldSpec.gf(p), 0, 0, 1)
        c = center(ctx).y_generator
        kappa = kappa_endo(ctx, c)
        assert not kappa.surjective
        lhs = commutator(kappa.apply(ctx.gen()), kappa.apply(ctx.x()))
        assert lhs == kappa.apply(commutator(ctx.gen(), ctx.x()))
        shear_like = kappa_endo(ctx, ctx.x())
        assert shear_like.surjective
    with pytest.raises(CharacteristicError):
        kappa_endo(ctx_for(QQ, 0, 1), ctx_for(QQ, 0, 1).x())
    with pytest.raises(ValueError):
        kappa_endo(ctx_for(F3, 0, 0, 1), ctx_for(F3, 0, 0, 1).gen())


def test_kappa_injectivity_on_samples():
    ctx = ctx_for(F2, 0, 1)
    kappa = kappa_endo(ctx, center(ctx).y_generator)
    rng = random.Random(71)
    seen = {}
    for _ in range(10):
        a = rand_elem(rng, ctx, 2, 2)
        image = kappa.apply(a)
        assert seen.setdefault(image.coeffs, a.coeffs) == a.coeffs


# -- extension and restriction --------------------------------------------------------


def test_extend_identity_when_equal():
    ctx = ctx_for(QQ, 0, 0, 1)
    omega = phi(ctx, Poly.x(QQ))
    extended = extend_automorphism(omega, ctx.h)
    assert extended is not None
    assert (extended.alpha, extended.beta, extended.f) == (
        omega.alpha,
        omega.beta,
        omega.f,
    )


def test_extend_and_restrict_roundtrip():
    ctx_g = ctx_for(QQ, 0, 0, 1)  # g = x^2
    f = Poly.x(QQ)
    omega = phi(ctx_g, Poly.x(QQ))  # shear by q = x, divisible by r = x
    extended = extend_automorphism(omega, f)
    assert extended is not None
    assert extended.ctx.h == f
    assert extended.f.is_one()  # s = q / r = 1
    back = restrict_automorphism(extended, ctx_g.h)
    assert back is not None
    assert (back.alpha, back.beta, back.f) == (omega.alpha, omega.beta, omega.f)


def test_extend_fails_when_divisibility_fails():
    ctx_g = ctx_for(QQ, 0, 0, 1)
    omega = phi(ctx_g, Poly.one(QQ))  # q = 1, r = x does not divide it
    assert extend_automorphism(omega, Poly.x(QQ)) is None


def test_restrict_needs_scaling_condition():
    ctx_f = ctx_for(QQ, 0, 1)  # f = x
    psi = Automorphism(ctx_f, QQ.one(), QQ.zero(), Poly.from_ints(QQ, (0, 0, 1)))
    g = Poly.from_ints(QQ, (0, 0, 1))  # g = x^2, psi(g) = g
    restricted = restrict_automorphism(psi, g)
    assert restricted is not None
    assert restricted.ctx.h == g
    # psi with a translation moves g = x^2, so it cannot restrict
    ctx_f2 = ctx_for(QQ, 1)  # constant f: every pair is admissible
    psi2 = Automorphism(ctx_f2, QQ.one(), QQ.one(), Poly.zero(QQ))
    assert restrict_automorphism(psi2, g) is None


def test_restriction_acts_like_the_original():
    ctx_g = ctx_for(QQ, 0, 0, 1)
    f = Poly.x(QQ)
    omega = phi(ctx_g, Poly.from_ints(QQ, (0, 0, 2)))  # q = 2x^2, r = x | q
    extended = extend_automorphism(omega, f)
    assert extended is not None
    # check on the embedded element: extension o embed == embed o original
    from ahalg import embed

    rng = random.Random(72)
    for _ in range(5):
        a = rand_elem(rng, ctx_g, 2, 2)
        assert embed(omega.apply(a), f) == extended.apply(embed(a, f))


def test_multiplicative_order():
    assert _order(Fraction(1), 2, None) == 1
    assert _order(Fraction(-1), 2, None) == 2
    assert _order(2, 4, 5) == 4
    assert _order(4, 4, 5) == 2
    with pytest.raises(SelfCheckError, match="does not divide"):
        _order(2, 2, 5)


def test_same_alpha_pairs_differ_by_G():
    # h = x^3 - x over GF(3): all (2, beta) pairs differ by translations in G
    ctx = ctx_for(F3, 0, -1, 0, 1)
    pset = compute_P(ctx)
    G = set(compute_G(ctx))
    by_alpha = {}
    for a, b in pset.pairs():
        by_alpha.setdefault(a, []).append(b)
    for betas in by_alpha.values():
        for b1 in betas:
            for b2 in betas:
                assert b2 - b1 in G


def test_extend_restrict_with_nontrivial_scaling():
    # alpha = -1 exercises every power-of-alpha correction in both directions
    ctx_g = ctx_for(QQ, 0, 0, 1)  # g = x^2
    f = Poly.x(QQ)
    omega = Automorphism(
        ctx_g, QQ.from_int(-1), QQ.zero(), Poly.from_ints(QQ, (0, 0, 1))
    )
    extended = extend_automorphism(omega, f)
    assert extended is not None
    assert (extended.alpha, extended.f) == (QQ.from_int(-1), Poly.from_ints(QQ, (0, -1)))
    assert restrict_automorphism(extended, ctx_g.h) == omega
    from ahalg import embed

    rng = random.Random(90)
    for _ in range(6):
        a = rand_elem(rng, ctx_g, 2, 2)
        assert embed(omega.apply(a), f) == extended.apply(embed(a, f))


def test_compute_P_matches_exhaustive_for_all_shapes():
    # families materialize to exactly the exhaustive pair list over GF(p)
    rng = random.Random(91)
    for spec in (F3, F5):
        for _ in range(12):
            h = rand_poly(rng, spec, 4, nonzero=True)
            if h.degree < 1:
                continue
            ctx = AhContext(spec, h)
            assert compute_P(ctx).pairs() == exhaustive_pairs(ctx)


def test_quartic_with_negation_symmetry():
    pset = compute_P(ctx_for(QQ, -1, 0, 0, 0, 1))  # x^4 - 1
    assert pairs_of(pset) == {(1, 0), (-1, 0)}
    structure = classify_aut_group(ctx_for(QQ, -1, 0, 0, 0, 1))
    assert structure.ell == 2 and structure.k == 4
    assert structure.k % structure.ell == 0
    # t = x^2, q = x^(n_exponent) with n = deg h - 1 mod 2 = 1
    assert structure.t == Poly.from_ints(QQ, (0, 0, 1))
    assert structure.q == Poly.x(QQ)


# -- the solvers against exhaustive search over small GF(p) -----------------------


def _shapes(spec):
    """h of every pair-set shape over GF(p), including p | deg h."""
    p = spec.p
    x = Poly.x(spec)

    def lin(r):
        return Poly.from_ints(spec, (-r, 1))

    quad = next(
        q
        for q in (Poly.from_ints(spec, (c, b, 1)) for b in range(p) for c in range(p))
        if not any(q.evaluate(e).is_zero() for e in spec.elements())
    )
    shapes = [
        lin(0) * lin(1) * lin(2 % p),  # split: x(x+1) over GF(2), x^3 - x over GF(3)
        (lin(1) * lin(3 % p) * lin(4 % p)).scaled(spec.from_int(-1)),  # split
        quad,  # irreducible: deg 2 = p over GF(2)
        lin(1) * quad,  # a linear times an irreducible quadratic factor
        (lin(2 % p) ** 3).scaled(spec.from_int(3 % p or 1)),  # power of a linear: the family
        x**p - x,  # G = F_p and p | deg h
        x**p - x + 1,  # Artin-Schreier: irreducible, G = F_p
        Poly.from_ints(spec, (5, 2, 0, 1)),  # x^3 + 2x + 5, deg 3 = p over GF(3)
        Poly.from_ints(spec, (-1, 0, 0, 0, 1)),  # x^4 - 1: alpha = -1 and 4th roots of unity
    ]
    return [h for h in shapes if h.degree >= 2]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
def test_solvers_match_exhaustive_search(p):
    spec = FieldSpec.gf(p)
    minus_one = spec.from_int(-1)
    for h in _shapes(spec):
        ctx = AhContext(spec, h)
        assert compute_P(ctx).pairs() == exhaustive_pairs(ctx), h
        assert compute_G(ctx) == exhaustive_translations(ctx), h
        assert poly_roots_oracle(h) == [e for e in spec.elements() if h.evaluate(e).is_zero()]
        # an isomorphic g, and a perturbed one that usually is not
        moved = h.compose(Poly(spec, (spec.one(), minus_one))).scaled(minus_one)
        for g in (moved, h + Poly.x(spec), h + Poly.one(spec)):
            assert iso_test(h, g, spec) == exhaustive_iso(h, g, spec), (h, g)
    for a in spec.elements():
        if not a.is_zero():
            order = next(e for e in range(1, p) if (a**e).is_one())
            assert _order(a.val, p - 1, p) == order


@pytest.mark.parametrize("p", [2, 5, 7, 13])
def test_family_iso_conditions_vanish_identically(p):
    # h = 3(x-2)^3 and g = (x-1)^3 are equivalent by every alpha in F*
    spec = FieldSpec.gf(p)
    h = Poly.from_ints(spec, (-2, 1)) ** 3 * 3
    g = Poly.from_ints(spec, (-1, 1)) ** 3
    found = affine_equivalences(h, g)
    assert [t[0].val for t in found] == list(range(1, p))
    assert found == list(exhaustive_equivalences(h, g, spec))
    assert found[0] == exhaustive_iso(h, g, spec) == iso_test(h, g, spec)


def test_the_family_costs_one_certificate(monkeypatch):
    # (x-1)^3 against 3(x+5)^3 over GF(10007): every alpha in F* solves, so the
    # anchors are moved (two compositions) and the least solution certifies the rest
    spec = FieldSpec.gf(10007)
    x = Poly.x(spec)
    h = (x - Poly.one(spec)) ** 3
    g = ((x + Poly.constant(spec.from_int(5))) ** 3).scaled(3)
    calls = []
    compose = Poly.compose
    monkeypatch.setattr(Poly, "compose", lambda f, u: calls.append(1) or compose(f, u))
    found = affine_equivalences(h, g)
    assert len(calls) <= 3
    monkeypatch.undo()
    assert len(found) == 10006 and [t[0].val for t in found] == list(range(1, 10007))
    for alpha, beta, nu in found[:3] + found[-3:]:
        assert h.compose(Poly(spec, (beta, alpha))) == g.scaled(nu)


def test_binomial_roots_match_evaluation():
    rng = random.Random(92)
    for p in (2, 3, 7, 13, 17, 19):
        spec = FieldSpec.gf(p)
        for f in [rand_poly(rng, spec, 6, nonzero=True) for _ in range(20)]:
            roots = [e for e in spec.elements() if f.evaluate(e).is_zero()]
            assert poly_roots_oracle(f) == roots, f
        # every x^m - w with m <= p + 1: a coset of roots of unity
        for m in range(1, p + 2):
            for w in range(1, p):
                roots = [a for a in range(p) if pow(a, m, p) == w]
                assert _binomial_roots(spec, m, w) == roots, (p, m, w)
    # over QQ: w = +-a^m/b^m, non-powers, and even m with w < 0, against the rational-root theorem
    for m in range(1, 7):
        for w in [s * Fraction(a**m, b**m) for a in (1, 2, 6) for b in (1, 3, 4) for s in (1, -1)] + [
                Fraction(2), Fraction(12, 5), Fraction(-8, 3), Fraction(-3), Fraction(9, 2)]:
            binomial = Poly(QQ, (-w,) + (0,) * (m - 1) + (1,))
            assert _binomial_roots(QQ, m, w) == [r.val for r in rational_roots(binomial)], (m, w)
    # roots past the reach of trial division: 10^9 + 7 is prime
    big = 10**9 + 7
    assert _binomial_roots(QQ, 2, Fraction(big**2, 9)) == [Fraction(-big, 3), Fraction(big, 3)]
    assert _binomial_roots(QQ, 3, Fraction(-big**3, 8)) == [Fraction(-big, 2)]
    assert _binomial_roots(QQ, 4, Fraction(-big**4)) == []
    assert _binomial_roots(QQ, 2, Fraction(big**2 + 1)) == []


def _terms(f):
    return sum(1 for c in f._nums if c)


def test_equivalence_binomials_have_a_binomial_gcd():
    # the roots of x^e - w are one coset of the e'-th roots of unity (e = e'p^s, each root
    # of multiplicity p^s), and two cosets meet in one coset or in nothing: so the gcd of
    # binomials is 1 or a binomial, also at exponents divisible by p; the solver, which
    # meets the conditions root by root, agrees with the exhaustive search
    rng = random.Random(27)
    for p in (2, 3, 5, 7, 11, 13, 31):
        spec = FieldSpec.gf(p)
        for _ in range(20):
            root = rng.randrange(1, p)
            es = [rng.choice((p, 2 * p, 3 * p, rng.randint(1, 3 * p)))
                  for _ in range(rng.randint(2, 4))]
            ws = [pow(root, e, p) if rng.random() < 0.7 else rng.randrange(1, p) for e in es]
            g = reduce(gcd_monic, [Poly.monomial(spec, 1, e) - Poly.from_ints(spec, (w,))
                                   for e, w in zip(es, ws)])
            assert _terms(g) <= 2, (p, es, ws, g)
            # through _equivalences: a sparse h with terms at x^(d - p) and x^(d - 2p)
            d = rng.randint(1, 3 * p)
            nums = [0] * (d + 1)
            for i in [d - p, d - 2 * p] + [rng.randrange(d + 1) for _ in range(2)]:
                if i >= 0:
                    nums[i] = rng.randrange(1, p)
            nums[d] = rng.randrange(1, p)
            h = Poly.from_ints(spec, nums)
            moved = h.compose(Poly.from_ints(spec, (rng.randrange(p), rng.randrange(1, p))))
            for other in (moved.scaled(spec.from_int(rng.randrange(1, p))), h + Poly.x(spec),
                          Poly.from_ints(spec, [rng.randrange(p) for _ in range(d)] + [1])):
                if other.degree != d:
                    continue
                found = affine_equivalences(h, other)
                if p <= 7 and d <= 12:
                    assert found == list(exhaustive_equivalences(h, other, spec)), (h, other)


def test_psets_copy_and_pickle_as_tuples():
    # len(pset) is |P|, and it raises for the family over QQ
    for spec, h in ((QQ, (1, -2, 1)), (FieldSpec.gf(7), (0, -1, 0, 1))):
        pset = compute_P(ctx_for(spec, *h))
        for twin in (pset._replace(), copy.copy(pset), pickle.loads(pickle.dumps(pset))):
            assert twin == pset and hash(twin) == hash(pset) and type(twin) is type(pset)
        assert pset._replace(m=5).m == 5 and pset._replace(m=5)[:5] == pset[:5]


def test_the_family_over_qq_unpacks_though_its_len_raises():
    # len raises InfiniteFieldError, a TypeError too, which tuple() and list()
    # take from a length hint as "no hint"
    pset = compute_P(ctx_for(QQ, 1, -2, 1))  # (x - 1)^2
    assert pset.m is None
    for unpack in (tuple, list):
        assert tuple(unpack(pset)) == (pset.ctx, pset.lam, pset.c, pset.G, pset.unit, pset.m)
    with pytest.raises(InfiniteFieldError, match="infinite"):
        len(pset)
    with pytest.raises(AhError):
        len(pset)


def test_pair_law_check_matches_composition():
    rng = random.Random(5)
    for spec in (QQ, F3, FieldSpec.gf(7), FieldSpec.gf(1000003)):
        for _ in range(30):
            f = rand_poly(rng, spec, 5, nonzero=True)
            alpha, beta = rand_scalar(rng, spec), rand_scalar(rng, spec)
            alpha, nu = alpha if alpha else spec.one(), rand_scalar(rng, spec) or spec.from_int(2)
            moved = compose_oracle(f, Poly(spec, (beta, alpha)))
            for g in (moved.scaled(nu.inverse()), moved, f, rand_poly(rng, spec, 5)):
                assert _law_holds(f, alpha, beta, nu, g) == (moved == g.scaled(nu)), (f, g)
            assert _law_holds(f, alpha, beta, nu, moved.scaled(nu.inverse()))
    h = Poly.from_ints(F5, (0, 1, 0, 1))  # x^3 + x: (alpha, 0) is a pair for alpha^2 = 1
    assert [pair_is_valid(AhContext(F5, h), F5.from_int(a), F5.zero()) for a in range(5)] == [
        False, True, False, False, True]


def test_failed_law_check_is_a_self_check_error(monkeypatch):
    # (2, 0) is no pair of x^3 - x over GF(7), and it moves t = x^2; the check
    # raises instead of asserting, so it also runs under python -O
    from ahalg import autgroup

    monkeypatch.setattr(
        autgroup, "_law_sample", lambda s: iter([(s.ctx.spec.from_int(2), s.ctx.spec.zero())])
    )
    with pytest.raises(SelfCheckError, match="t is not invariant"):
        classify_aut_group(ctx_for(FieldSpec.gf(7), 0, -1, 0, 1))


# -- the fixed-point solver: Hasse derivatives, p | deg h, centroids -------------

PRIMES_BELOW_60 = [p for p in range(2, 60) if all(p % q for q in range(2, p))]


@pytest.mark.parametrize("spec", [QQ] + [FieldSpec.gf(p) for p in PRIMES_BELOW_60], ids=str)
def test_taylor_on_raw_residues_matches_the_oracle(spec):
    rng = random.Random(93)
    x = Poly.x(spec)
    p = spec.p or 7
    shapes = [
        x**p + x**2,  # p | deg h, sparse
        (x ** (2 * p) + x).scaled(spec.from_int(-1)),  # p | deg h, not monic for odd p
        Poly.from_ints(spec, (5, 0, -2) + (0,) * 9 + (3,)),  # sparse, not monic
        Poly.one(spec),
    ] + [rand_poly(rng, spec, 9, nonzero=True) for _ in range(4)]  # with fractions over QQ
    for h in shapes:
        rows = [_poly(spec, row, h._den) for row in _hasse_rows(h)]
        assert rows == taylor_oracle(h)[-2::-1], h


@pytest.mark.parametrize("spec", [QQ] + [FieldSpec.gf(p) for p in PRIMES_BELOW_60], ids=str)
def test_anchor_is_the_centroid_when_p_does_not_divide_d(spec):
    rng = random.Random(94)
    for _ in range(20):
        h = rand_poly(rng, spec, 9, nonzero=True)
        if h.degree >= 1 and (not spec.p or h.degree % spec.p):
            assert _anchor(h) == centroid_oracle(h), h


def _dense_of_degree_2p(spec):
    """A seeded h of degree 2p with every coefficient nonzero."""
    rng = random.Random(spec.p)
    return Poly.from_ints(spec, [rng.randrange(1, spec.p) for _ in range(2 * spec.p + 1)])


@pytest.mark.parametrize("p", PRIMES_BELOW_60)
def test_anchor_of_a_dense_h_reads_at_most_two_rows(monkeypatch, p):
    # h^[2p-1] = h_(2p-1) + 2p*lc*t is constant, and h^[2p-2] has the term
    # (2p-1)*h_(2p-1)*t, not 0 when h is dense
    from ahalg import autgroup

    h = _dense_of_degree_2p(FieldSpec.gf(p))
    read = []

    def counted(f):
        for row in _hasse_rows(f):
            read.append(row)
            yield row

    monkeypatch.setattr(autgroup, "_hasse_rows", counted)
    assert _anchor(h) is not None
    assert len(read) <= 2, (h, len(read))


@pytest.mark.parametrize("p", [p for p in PRIMES_BELOW_60 if p < 30])
def test_anchor_solver_on_dense_and_two_root_h_of_degree_2p(p):
    spec = FieldSpec.gf(p)
    x, one = Poly.x(spec), Poly.one(spec)
    for h in ((x + one) ** (2 * p - 1) * (x + one + one), _dense_of_degree_2p(spec)):
        ctx = AhContext(spec, h)
        P, G = compute_P(ctx).pairs(), compute_G(ctx)
        assert (P, G) == (exhaustive_pairs(ctx), exhaustive_translations(ctx)), h
        # roots of multiplicities 2p-1 and 1 are each fixed; the dense h has no symmetry
        assert (len(G), len(P)) == (1, 1), h


def _p_divides_d_shapes(spec):
    """h with p | deg h: one per shape of P, then seeded random sparse h."""
    p = spec.p
    x = Poly.x(spec)
    one = Poly.one(spec)
    artin = x**p - x
    shapes = [
        artin + one,  # x^p - x + 1: G = F_p, alpha = 1 only
        artin**2 + one,  # G = F_p and H = {1, -1}
        x**p + x**2,  # G = {0}
        x ** (2 * p) + x,  # G = {0}
        x**p + x,  # every alpha in F* fixes 0, for odd p
        # a symmetric q(x^2), moved off 0: (-1, 10) fixes c = 5, for odd p
        (x ** (2 * p) + x**2 + one).compose(x - Poly.constant(spec.from_int(5))),
        x ** (2 * p) + x**2 + Poly.constant(spec.from_int(3)),  # (-1, 0), for odd p
    ]
    rng = random.Random(p)
    for d in (p, 2 * p, 3 * p):  # three random terms below the top
        terms = {d: rng.randrange(1, p), **{rng.randrange(d): rng.randrange(1, p) for _ in range(3)}}
        shapes.append(Poly.from_ints(spec, [terms.get(i, 0) for i in range(d + 1)]))
    return [h for h in shapes if h.degree >= 1 and h.degree % p == 0]


@pytest.mark.parametrize("p", PRIMES_BELOW_60)
def test_fixed_point_solver_matches_exhaustive_search_when_p_divides_d(p):
    spec = FieldSpec.gf(p)
    for h in _p_divides_d_shapes(spec):
        ctx = AhContext(spec, h)
        assert compute_P(ctx).pairs() == exhaustive_pairs(ctx), h
        assert compute_G(ctx) == exhaustive_translations(ctx), h


def test_fixed_point_shapes_have_the_claimed_groups():
    spec = FieldSpec.gf(13)
    G_size, P_size = [], []
    for h in _p_divides_d_shapes(spec):
        ctx = AhContext(spec, h)
        G_size.append(len(compute_G(ctx)))
        P_size.append(len(compute_P(ctx).pairs()))
    assert G_size == [13, 13, 1, 1, 1, 1, 1, 1, 1, 1]
    # (x^13 - x)^2 + 1 has H = {1, -1}; x^13 + x takes every alpha; the
    # symmetric q(x^2) moved to 5 is fixed by (-1, 10), and unmoved by (-1, 0);
    # the random 5x^13 + 4x^10 + 11x^4 takes the cube roots of unity
    assert P_size == [13, 26, 1, 1, 12, 2, 2, 3, 1, 1]


@pytest.mark.parametrize("p", [p for p in PRIMES_BELOW_60 if p < 30])
def test_anchor_iso_matches_exhaustive_search_when_p_divides_d(p):
    # g moved by (3, 2) and scaled by 4, then perturbed: isomorphic or not,
    # with and without anchors; every solution is listed for p <= 13, also
    # for the powers of linear factors, where every alpha in F* solves
    spec = FieldSpec.gf(p)
    x = Poly.x(spec)
    three = spec.from_int(3 % p or 1)
    linear_powers = [(x - Poly.one(spec)) ** p, ((x + Poly.constant(spec.from_int(2))) ** (2 * p)).scaled(three)]
    for h in _p_divides_d_shapes(spec) + linear_powers:
        moved = h.compose(Poly.from_ints(spec, (3, 2 % p or 1))).scaled(spec.from_int(4 % p or 1))
        for g in (moved, moved + x, moved + Poly.one(spec)):
            assert iso_test(h, g, spec) == exhaustive_iso(h, g, spec), (h, g)
            if p <= 13:
                assert affine_equivalences(h, g) == list(exhaustive_equivalences(h, g, spec)), (h, g)


def _centroid_shapes(spec):
    """h with p not dividing deg h, and zero patterns around the centroid."""
    x = Poly.x(spec)

    def c(n):
        return Poly.constant(spec.from_int(n))

    return [
        (x**4 + c(3) * x**2 + c(1)).compose(x + c(2)),  # alpha = -1 fixes -2
        x**5 + c(2) * x**3 + c(3),
        (x**6 + c(4)).compose(x - c(1)).scaled(spec.from_int(3)),  # mu_6
        x**3 + c(2) * x + c(1),
        x**4 + c(1) * x**3 + c(2) * x + c(5),
    ]


@pytest.mark.parametrize("p", [p for p in PRIMES_BELOW_60 if p < 30])
def test_centered_iso_matches_exhaustive_search(p):
    spec = FieldSpec.gf(p)
    x = Poly.x(spec)
    for h in _centroid_shapes(spec):
        if h.degree % p == 0 or h.degree < 2:
            continue
        ctx = AhContext(spec, h)
        assert compute_P(ctx).pairs() == exhaustive_pairs(ctx), h
        assert compute_G(ctx) == exhaustive_translations(ctx), h
        moved = h.compose(Poly.from_ints(spec, (3, 2 % p or 1))).scaled(spec.from_int(4 % p or 1))
        # zero patterns around the centroid that differ in one coefficient
        for g in (moved, moved + x.shifted(1), moved + Poly.one(spec), moved + x):
            assert iso_test(h, g, spec) == exhaustive_iso(h, g, spec), (h, g)


def test_centered_solver_over_QQ_finds_alpha_minus_one_exactly_when_it_exists():
    x = Poly.x(QQ)
    two = Poly.constant(QQ.from_int(2))
    shifted_cubic = (x**3 - x.scaled(3)).compose(x + two)  # odd about -2
    assert pairs_of(compute_P(ctx_for(QQ, -1, 0, 0, 0, 1))) == {(1, 0), (-1, 0)}  # x^4 - 1
    assert pairs_of(compute_P(AhContext(QQ, shifted_cubic))) == {(1, 0), (-1, -4)}
    for ints in ((0, 1, 0, 0, 1), (1, -3, 0, 1), (-1, 0, 1, 0, 1, 1)):
        # x^4 + x, x^3 - 3x + 1 and x^5 + x^4 + x^2 - 1: no symmetry
        assert pairs_of(compute_P(ctx_for(QQ, *ints))) == {(1, 0)}
    # iso over QQ: the least witness, and none across a broken symmetry
    g = shifted_cubic.compose(Poly.from_ints(QQ, (1, -2))).scaled(QQ.from_int(5))
    witness = iso_test(shifted_cubic, g, QQ)
    assert witness is not None
    alpha, beta, nu = witness
    assert shifted_cubic.compose(Poly(QQ, (beta, alpha))) == g.scaled(nu)
    assert [t[:2] for t in affine_equivalences(shifted_cubic, g)][0] == (alpha, beta)
    assert iso_test(shifted_cubic, g + Poly.one(QQ), QQ) is None
    assert iso_test(Poly.from_ints(QQ, (-1, 0, 0, 0, 1)), Poly.from_ints(QQ, (-1, 0, 1, 0, 1)), QQ) is None


def test_P_and_G_never_loop_over_the_field(monkeypatch):
    spec = FieldSpec.gf(101)
    x = Poly.x(spec)
    one = Poly.one(spec)
    artin = x**101 - x
    expected = [
        (artin + one, 101, 101),  # degree p, G = F_p
        (artin**2 + one, 101, 202),  # degree 2p, G = F_p, H = {1, -1}
        (x**101 + x**2, 1, 1),  # degree p, G = {0}
        (x**202 + x, 1, 1),  # degree 2p, G = {0}
        ((x - Poly.constant(spec.from_int(3))) ** 2, 1, 100),  # the family
        ((x - Poly.constant(spec.from_int(3))) ** 101, 1, 100),  # the family, p | deg h
    ]

    def no_loop(self):
        raise AssertionError("a loop over the field ran")

    monkeypatch.setattr(FieldSpec, "elements", no_loop)
    for h, g_size, p_size in expected:
        ctx = AhContext(spec, h)
        assert len(compute_G(ctx)) == g_size
        pairs = compute_P(ctx).pairs()
        assert len(pairs) == p_size
        assert all(pair_is_valid(ctx, a, b) for a, b in pairs[:3])
        assert len(classify_aut_group(ctx).P.pairs()) == p_size


# -- the presentation of P: one listing, membership and size from the generators --


def _qq_shapes():
    x = Poly.x(QQ)
    two = Poly.constant(QQ.from_int(2))
    return [
        Poly.from_ints(QQ, (0, -1, 1)),  # x^2 - x: (-1, 1)
        Poly.from_ints(QQ, (-1, 0, 0, 0, 1)),  # x^4 - 1: (-1, 0)
        (x**3 - x.scaled(3)).compose(x + two),  # odd about -2: (-1, -4)
        Poly.from_ints(QQ, (1, -3, 0, 1)),  # no symmetry
        Poly.from_ints(QQ, (0, 0, 1)),  # the family x^2
        (x - Poly.constant(QQ.elem(Fraction(1, 2)))) ** 3,  # the family at 1/2
    ]


@pytest.mark.parametrize("spec", [QQ] + [FieldSpec.gf(p) for p in PRIMES_BELOW_60 if p < 30], ids=str)
def test_membership_and_size_come_from_the_presentation(spec):
    if spec.p:
        shapes = _classify_shapes(spec)
        grid = [(a, b) for a in spec.elements() if not a.is_zero() for b in spec.elements()]
    else:
        shapes = _qq_shapes()
        values = [QQ.elem(v) for v in (0, 1, -1, 2, -2, -4, Fraction(1, 2), Fraction(-3, 4))]
        grid = [(a, b) for a in values if not a.is_zero() for b in values]
    for h in shapes:
        pset = compute_P(AhContext(spec, h))
        if pset.m is None:  # the family over QQ: symbolic, never listed
            with pytest.raises(AhError):
                len(pset)
            assert all(pset.contains(a, b) == (b == (1 - a) * pset.lam) for a, b in grid)
            continue
        pairs = set(pset.pairs())
        assert len(pset) == len(pset.pairs()) == len(pairs), h
        assert all(pset.contains(a, b) == ((a, b) in pairs) for a, b in grid), h


def test_iso_verifies_only_up_to_the_least_witness(monkeypatch):
    # x^48 + 3 over GF(97) has 48 candidates, every alpha with alpha^48 = 1;
    # h is centered at 0, so g alone is moved, and one candidate is verified
    spec = FieldSpec.gf(97)
    x = Poly.x(spec)
    three = Poly.constant(spec.from_int(3))
    h, g = x**48 + three, (x + Poly.one(spec)) ** 48 + three
    calls = []
    compose = Poly.compose
    monkeypatch.setattr(Poly, "compose", lambda f, u: calls.append(1) or compose(f, u))
    assert iso_test(h, g, spec) == (spec.one(), spec.one(), spec.one())
    assert len(calls) == 2
    monkeypatch.undo()
    assert len(affine_equivalences(h, g)) == 48


def test_a_failing_certificate_raises(monkeypatch):
    # a broken law check must not turn "isomorphic" into a silent "not isomorphic"
    spec = FieldSpec.gf(7)
    h = Poly.from_ints(spec, (1, -1, 0, 1))  # x^3 - x + 1
    g = h.compose(Poly.from_ints(spec, (3, 1))).scaled(2)  # 2(x+3)^3 - 2(x+3) + 2
    assert iso_test(h, g, spec) is not None
    monkeypatch.setattr(autgroup, "_law_holds", lambda *args: False)
    with pytest.raises(SelfCheckError, match="least solution"):
        iso_test(h, g, spec)
    with pytest.raises(SelfCheckError, match="least solution"):
        affine_equivalences(h, g)


def test_equivalences_without_anchors_compose_once_per_alpha(monkeypatch):
    # x^31 - x + 1 over GF(31) has no anchor and alpha = 1 only: one composition
    # verifies (1, 0, 1), and one certifies h(x + 1) == h for the other 30 shifts
    from ahalg import autgroup

    spec = FieldSpec.gf(31)
    x = Poly.x(spec)
    h = x**31 - x + Poly.one(spec)
    calls = []
    compose = Poly.compose
    monkeypatch.setattr(Poly, "compose", lambda f, u: calls.append(1) or compose(f, u))
    found = affine_equivalences(h, h)
    assert len(calls) <= 2
    monkeypatch.undo()
    assert len(found) == 31
    assert found == list(exhaustive_equivalences(h, h, spec))
    # a wrong "no anchor" fails the certificate past the first witness
    monkeypatch.setattr(autgroup, "_anchor", lambda f: None)
    g = x**2 + Poly.one(spec)
    assert next(autgroup._equivalences(g, g)) == (spec.one(), spec.zero(), spec.one())
    with pytest.raises(SelfCheckError, match="no anchor"):
        affine_equivalences(g, g)


PRIMES_BELOW_200 = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


@pytest.mark.parametrize("p", PRIMES_BELOW_200)
def test_generator_is_the_least_primitive_root(p):
    spec = FieldSpec.gf(p)
    x = Poly.x(spec)

    root = least_primitive_root_oracle(p)
    # every alpha in F* is admissible for both; F2* = {1} leaves (x - 3)^2 no generator
    shapes = [x**p + x] + ([(x - Poly.constant(spec.from_int(3))) ** 2] if p > 2 else [])
    for h in shapes:
        structure = classify_aut_group(AhContext(spec, h))
        assert structure.ell == p - 1, h
        assert structure.generator[0] == spec.from_int(root), h


def test_generator_of_the_family_is_the_least_primitive_root_below_3000():
    # the family's generator is the presentation's unit; the oracle finds orders by brute force
    for p in (p for p in range(3, 3000) if all(p % q for q in range(2, int(p**0.5) + 1))):
        spec = FieldSpec.gf(p)
        ctx = AhContext(spec, Poly.from_ints(spec, (1, -2, 1)))  # (x - 1)^2
        structure = classify_aut_group(ctx)
        assert structure.generator[0] == spec.from_int(least_primitive_root_oracle(p)), p


PINNED = [
    (
        ["--field", "QQ", "--h", "x^3", "aut-classify", "--json"],
        {
            "G": ["0"], "P": {"lambda": "0", "shape": "one_parameter_family"},
            "case": "semidirect_fstar", "dz_kind": "module", "ell": None, "generator": None,
            "k": 1, "n_exponent": 2, "q": "x^2", "t": None, "t_kind": "constants",
        },
    ),
    (
        ["--field", "GF:7", "--h", "(x-1)^2", "aut-p", "--json"],
        {
            "lambda": "1",
            "pairs": [["1", "0"], ["2", "6"], ["3", "5"], ["4", "4"], ["5", "3"], ["6", "2"]],
            "shape": "one_parameter_family",
        },
    ),
    (
        ["--field", "GF:7", "--h", "x^7-x+1", "aut-classify"],
        "case semidirect_finite; k = 7; G = {0, 1, 2, 3, 4, 5, 6}; "
        "generator (1, 1) of order 1; t: x^7 + 6*x; q: 1",
    ),
]


@pytest.mark.parametrize("argv, expected", PINNED, ids=[" ".join(argv) for argv, _ in PINNED])
def test_pinned_outputs_of_the_presentation(argv, expected, capsys):
    assert run(argv) == 0
    out = capsys.readouterr().out
    if isinstance(expected, dict):
        assert out == json.dumps(expected, sort_keys=True) + "\n"
    else:
        assert out == expected + "\n"


@pytest.mark.parametrize("p", [0] + [p for p in range(2, 200) if all(p % q for q in range(2, p))])
def test_invariant_powers_match_repeated_squaring(p):
    # t = base^ell and q = base^n come from the binomial theorem; Poly.__pow__
    # squares base instead
    spec = FieldSpec.gf(p) if p else QQ
    # x^3 has c = 0, so base = x and every binomial term past the first is 0
    for h in closed_form_shapes(spec) + [Poly.x(spec) ** 3]:
        s = classify_aut_group(AhContext(spec, h))
        base = Poly.from_ints(spec, (-s.P.c.val, 1))
        if len(s.G) > 1:
            base = Poly.monomial(spec, 1, p) - Poly.x(spec)
        assert s.t == (None if s.ell is None else base**s.ell), h
        assert s.q == base ** (s.n_exponent or 0), h


def test_invariant_power_past_the_dense_bound_is_refused():
    # t = (x^2053 - x)^2052 would have 2053*2052 + 1 > 2^22 coefficients
    spec = FieldSpec.gf(2053)
    h = Poly.monomial(spec, 1, 2053) - Poly.x(spec)
    with pytest.raises(AhError, match="power of the base too large: 4212757 coefficients"):
        classify_aut_group(AhContext(spec, h))


def test_restriction_exists_exactly_when_g_is_moved_to_a_scalar_multiple():
    # restrict_automorphism reads the pair law of g; the division of g(alpha*x + beta)
    # by g gives a constant exactly then, and that constant is alpha^deg g
    F5, verdicts = FieldSpec.gf(5), set()
    for f_ints, betas in (((1,), range(5)), ((0, 1), (0,))):  # h = 1: every pair; h = x: beta = 0
        ctx_f = ctx_for(F5, *f_ints)
        gs = [g * ctx_f.h for g in all_polys(F5, 2) if g.degree >= 1 - ctx_f.h.degree]
        for alpha in range(1, 5):
            for beta in betas:
                psi = Automorphism(ctx_f, alpha, beta, Poly.x(F5))
                for g in gs:
                    quot, rem = divmod(g.compose(psi.x_image), g)
                    moved_to_multiple = rem.is_zero() and quot.degree == 0
                    if moved_to_multiple:
                        assert quot.coeff(0) == F5.from_int(alpha) ** g.degree
                    assert (restrict_automorphism(psi, g) is not None) == moved_to_multiple, (psi, g)
                    verdicts.add(moved_to_multiple)
    assert verdicts == {True, False}


def test_iso_test_of_two_constants_is_the_ratio():
    for spec, h, g, nu in ((QQ, 3, 5, Fraction(3, 5)), (FieldSpec.gf(7), 3, 5, 2)):
        witness = iso_test(Poly.from_ints(spec, (h,)), Poly.from_ints(spec, (g,)), spec)
        assert witness == (spec.one(), spec.zero(), spec.elem(nu))
        assert all(type(v) is FieldElem for v in witness)


@pytest.mark.parametrize("spec, ints, anchor", [
    (QQ, (0, -1, 0, 1), Fraction(0)),  # x^3 - x
    (QQ, (1, 3, 2), Fraction(-3, 4)),  # 2x^2 + 3x + 1: the centroid
    (FieldSpec.gf(7), (5, 3, 0, 1), 0),  # x^3 + 3x + 5
    (FieldSpec.gf(7), (4, 2, 3), 2),  # 3x^2 + 2x + 4: -2/(2*3) = -1/3 = -5 = 2
    (FieldSpec.gf(7), (0, -1, 0, 0, 0, 0, 0, 1), None),  # x^7 - x: no anchor
    (FieldSpec.gf(7), (1, 0, 0, 0, 0, 0, 0, 1), 6),  # x^7 + 1 = (x + 1)^7
])
def test_the_record_keeps_raw_scalars(spec, ints, anchor):
    # the anchor kept on a Poly is None, a residue in range(p) or a Fraction; the
    # presentation of P holds raw values too, and compute_P wraps them once
    h = Poly.from_ints(spec, ints)
    pset = compute_P(AhContext(spec, h))
    kept_anchor = kept(h, "anchor")
    assert kept_anchor == anchor and type(kept_anchor) is type(anchor)
    raw = (int,) if spec.p else (int, Fraction)
    lam, c, unit, m, k = kept(h, "presentation")
    for value in (lam, c, unit, *kept(h, "centered")):
        assert value is None or type(value) in raw and (not spec.p or 0 <= value < spec.p)
    # the centered coefficients are those of h moved to its anchor
    assert Poly(spec, kept(h, "centered")) == h.compose(Poly(spec, (anchor or 0, 1)))
    assert (pset.c, pset.unit, pset.m) == (spec.elem(c), unit if unit is None else spec.elem(unit), m)


@pytest.mark.parametrize("spec, ints", [
    (FieldSpec.gf(7), (0, -1, 0, 1)),  # x^3 - x: G = {0}, m = 2
    (FieldSpec.gf(7), (4, -4, 1)),  # (x - 2)^2: the family
    (FieldSpec.gf(7), (0, -1, 0, 0, 0, 0, 0, 1)),  # x^7 - x: G = GF(7)
    (FieldSpec.gf(13), (1, 0, 0, 1)),  # x^3 + 1: m = 3
    (QQ, (-1, 0, 1)),  # x^2 - 1
    (QQ, (1, -2, 1)),  # (x - 1)^2: the family over QQ
])
def test_scalars_leave_the_library_as_field_elements(spec, ints):
    ctx = ctx_for(spec, *ints)
    h = ctx.h

    def elems(values):
        return all(type(v) is FieldElem and v.spec == spec for v in values)

    pset = compute_P(ctx)
    assert elems(v for v in (pset.lam, pset.c, pset.unit) if v is not None)
    assert elems(compute_G(ctx)) and elems(pset.G)
    if pset.m is not None:
        assert elems(pset.alphas()) and all(elems(pair) for pair in pset.pairs())
    structure = classify_aut_group(ctx)
    assert structure.generator is None or elems(structure.generator)
    g = h.compose(Poly.from_ints(spec, (3, 2))).scaled(spec.from_int(5))
    witness = iso_test(h, g, spec)
    assert witness is not None and elems(witness)
    if structure.k > 1:
        found = affine_equivalences(h, g)
        assert found and all(elems(triple) for triple in found) and found[0] == witness
