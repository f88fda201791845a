"""The Ore product's row kernel against the independent oracles.

Products, commutators, both exact divisions and the anti-automorphism are
compared with ``naive_mul``, ``div_one_sided_oracle`` and
``antiautomorphism_oracle`` on the inputs the kernel treats specially: an h
with a denominator, constant h, ``h = x^p - x`` (delta(x^p) = 0), right
factors of Y-degree 0 (the delta-table path), sparse elements and zero.
"""

import random
from fractions import Fraction

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

from helpers import (
    antiautomorphism_oracle,
    div_one_sided_oracle,
    naive_mul,
    rand_elem,
    rand_poly,
)

QQ = FieldSpec.rationals()
PRIMES = (2, 3, 5, 7, 1000003)


def _contexts():
    out = [
        ("QQ h=x^2/3+1/2", AhContext(QQ, Poly(QQ, (Fraction(1, 2), 0, Fraction(1, 3))))),
        ("QQ h=2x/5-7/4", AhContext(QQ, Poly(QQ, (Fraction(-7, 4), Fraction(2, 5))))),
        ("QQ h=3/2", AhContext(QQ, Poly(QQ, (Fraction(3, 2),)))),
    ]
    for p in PRIMES:
        spec = FieldSpec.gf(p)
        out.append((f"GF({p}) h=x^2+1", AhContext(spec, Poly.from_ints(spec, (1, 0, 1)))))
        out.append((f"GF({p}) h=1", AhContext(spec, Poly.one(spec))))
        if p < 10:
            h = Poly.x(spec) ** p - Poly.x(spec)
            out.append((f"GF({p}) h=x^p-x", AhContext(spec, h)))
    return out


CONTEXTS = _contexts()


def _sparse(rng, ctx, kind):
    """Y^k, c*Y^k with a power of x in c, or a random element with zero middle coefficients."""
    spec, k = ctx.spec, rng.randint(1, 4)
    p = spec.characteristic
    if kind == "monomial":
        return ctx.gen() ** k
    if kind == "term":
        return ctx.monomial(Poly.x(spec) ** (p if 0 < p < 10 else 2), k)
    coeffs = [rand_poly(rng, spec, 2) if i in (0, k) else Poly.zero(spec) for i in range(k + 1)]
    coeffs[k] = coeffs[k] if coeffs[k] else Poly.one(spec)
    return ctx.element(coeffs)


def _operands(rng, ctx):
    """Pairs (a, b) covering dense, sparse, Y-degree 0 and zero operands."""
    dense = [rand_elem(rng, ctx, 3, 2, nonzero=True) for _ in range(3)]
    sparse = [_sparse(rng, ctx, kind) for kind in ("monomial", "term", "gaps")]
    poly = [ctx.from_poly(rand_poly(rng, ctx.spec, 3, nonzero=True)), -ctx.one()]
    pairs = [(a, b) for a in dense + sparse for b in dense[:1] + sparse[2:] + poly]
    pairs += [(p, a) for p in poly for a in dense[:1] + sparse[:1]]
    zero = ctx.zero()
    pairs += [(zero, dense[0]), (dense[0], zero), (zero, zero)]
    return pairs


@pytest.mark.parametrize("name, ctx", CONTEXTS, ids=[n for n, _ in CONTEXTS])
def test_products_and_commutators_match_the_rewriting_oracle(name, ctx):
    rng = random.Random(f"kernel-mul:{name}")
    for a, b in _operands(rng, ctx):
        ab, ba = naive_mul(a, b), naive_mul(b, a)
        assert a * b == ab
        assert b * a == ba
        assert commutator(a, b) == ab - ba


@pytest.mark.parametrize("name, ctx", CONTEXTS, ids=[n for n, _ in CONTEXTS])
def test_divisions_match_the_subtract_and_repeat_oracle(name, ctx):
    rng = random.Random(f"kernel-div:{name}")
    stray = ctx.monomial(Poly.x(ctx.spec), 1) + ctx.one()
    for v, q in _operands(rng, ctx):
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


@pytest.mark.parametrize("name, ctx", CONTEXTS, ids=[n for n, _ in CONTEXTS])
def test_antiautomorphism_matches_the_power_sum_oracle(name, ctx):
    rng = random.Random(f"kernel-anti:{name}")
    elements = {a for pair in _operands(rng, ctx) for a in pair}
    elements |= {rand_elem(rng, ctx, 6, 2) for _ in range(3)}
    for a in elements:
        image = antiautomorphism(a)
        assert image == antiautomorphism_oracle(a)
        assert antiautomorphism(image) == a
