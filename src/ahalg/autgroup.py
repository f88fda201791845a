"""The automorphism group of A_h: pairs, structure, invariants, endomorphisms.

Every automorphism acts by ``x -> alpha*x + beta`` and
``Y -> alpha^(deg h - 1) * Y + f(x)``, where the pair (alpha, beta) must
satisfy the compatibility identity

    h(alpha*x + beta) == alpha^(deg h) * h(x).                      (pair law)

The admissible pairs form a subgroup P of the affine group of the line, so
P either contains every translation or fixes one point c.
:func:`compute_P` keeps P as a presentation (:class:`PSet`): c, the
translations G ({0} or GF(p)) and an element of order m whose powers are the
alphas.  c is the centroid -h_(d-1)/(d*lc) when deg h is nonzero in the
field, else a common root of Hasse derivatives of h, and m comes off the
zero pattern of h(x + c).  When h is a scalar times (x - lam)^d, every alpha
in F* is admissible: c = lam, and m = p - 1, or m = None over QQ.
:func:`affine_equivalences` answers the isomorphism question the same way:
with h and g moved to their centroids, each coefficient identity is a
binomial in alpha and beta is linear in alpha.  Roots are rational roots
over QQ and come from gcd(f, x^p - x) plus equal-degree splitting over
GF(p), so over GF(p) the pairs and the translations fixing h cost time
polynomial in deg h and log p.  The one exception is the isomorphism test
when p | deg h, where there is no centroid: there each alpha in F* is tried
and beta solved by a gcd, which is linear in p.

On top of the pair computations the module classifies the group (polynomial
shears only / semidirect with the scalar group / semidirect with a finite
cyclic part) and produces the invariant polynomial t and the center-of-the-
automorphism-group generator q, in one construction from the presentation
for every P, the family over QQ included.  It also implements the two
families of injective non-surjective endomorphisms together with extension
and restriction of automorphisms along an embedding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import gcd

from .algebra import AhContext, OreElement, apply_poly_map, commutator
from .errors import (
    AhError,
    CharacteristicError,
    ConstantHError,
    ContextMismatch,
    InvalidPairError,
    NotDivisibleError,
    SelfCheckError,
    WrongHError,
)
from .fields import FieldElem, FieldSpec
from .poly import (
    Poly,
    _equal_degree,
    _poly,
    distinct_root_count,
    gcd_monic,
    pow_mod,
    rational_roots,
    squarefree_part,
)


def _pair_key(pair):
    return (pair[0].sort_key(), pair[1].sort_key())


def _affine(spec: FieldSpec, alpha: FieldElem, beta: FieldElem) -> Poly:
    return Poly(spec, (beta, alpha))


def pair_is_valid(ctx: AhContext, alpha: FieldElem, beta: FieldElem) -> bool:
    """Check the pair law h(alpha*x + beta) == alpha^deg(h) * h(x)."""
    if alpha.is_zero():
        return False
    lhs = ctx.h.compose(_affine(ctx.spec, alpha, beta))
    return lhs == ctx.h.scaled(alpha**ctx.deg_h)


class Automorphism:
    """An automorphism x -> alpha*x + beta, Y -> alpha^(deg h - 1)*Y + f."""

    __slots__ = ("ctx", "alpha", "beta", "f")

    def __init__(self, ctx: AhContext, alpha, beta, f: Poly | None = None):
        alpha = ctx.spec.elem(alpha)
        beta = ctx.spec.elem(beta)
        if f is None:
            f = Poly.zero(ctx.spec)
        if f.spec != ctx.spec:
            raise ContextMismatch("shear polynomial over the wrong field")
        if not pair_is_valid(ctx, alpha, beta):
            raise InvalidPairError(
                f"({alpha}, {beta}) violates h(a*x+b) = a^deg(h) * h"
            )
        self.ctx = ctx
        self.alpha = alpha
        self.beta = beta
        self.f = f

    @property
    def x_image(self) -> Poly:
        return _affine(self.ctx.spec, self.alpha, self.beta)

    @property
    def y_image(self) -> OreElement:
        ctx = self.ctx
        scale = self.alpha ** (ctx.deg_h - 1)
        return ctx.monomial(Poly.constant(scale), 1) + ctx.from_poly(self.f)

    def apply(self, a: OreElement) -> OreElement:
        if a.ctx != self.ctx:
            raise ContextMismatch("element from a different context")
        return apply_poly_map(a, self.x_image, self.y_image)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """The automorphism ``a -> self(other(a))``."""
        if other.ctx != self.ctx:
            raise ContextMismatch("automorphisms of different algebras")
        ctx = self.ctx
        d = ctx.deg_h
        alpha = self.alpha * other.alpha
        beta = self.beta * other.alpha + other.beta
        f = self.f.scaled(other.alpha ** (d - 1)) + other.f.compose(self.x_image)
        return Automorphism(ctx, alpha, beta, f)

    def inverse(self) -> "Automorphism":
        ctx = self.ctx
        d = ctx.deg_h
        inv_a = self.alpha.inverse()
        inv_affine = _affine(ctx.spec, inv_a, -self.beta * inv_a)
        f = self.f.compose(inv_affine).scaled(-(inv_a ** (d - 1)))
        return Automorphism(ctx, inv_a, -self.beta * inv_a, f)

    @property
    def is_identity(self) -> bool:
        return (
            self.alpha.is_one() and self.beta.is_zero() and self.f.is_zero()
        )

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.alpha == other.alpha
            and self.beta == other.beta
            and self.f == other.f
        )

    def __hash__(self):
        return hash((self.ctx, self.alpha, self.beta, self.f))

    def __repr__(self):
        return f"Automorphism(alpha={self.alpha}, beta={self.beta}, f={self.f})"


def tau(ctx: AhContext, alpha, beta) -> Automorphism:
    """The affine automorphism with no shear part."""
    return Automorphism(ctx, alpha, beta)


def phi(ctx: AhContext, f: Poly) -> Automorphism:
    """The shear x -> x, Y -> Y + f."""
    return Automorphism(ctx, ctx.spec.one(), ctx.spec.zero(), f)


# -- the pair set -----------------------------------------------------------


@dataclass(frozen=True)
class PSet:
    """The admissible pairs, kept as the presentation that generates them.

    P = {(alpha, c*(1-alpha) + nu) : alpha^m = 1, nu in G}.  G is the group
    of translations fixing h, {0} or all of GF(p); c is the point fixed by
    the pairs (0 when m = 1); ``unit`` has order exactly m, so its powers are
    the m-th roots of unity.  ``lam`` is set exactly when h is a scalar times
    (x - lam)^d: then every alpha in F* is admissible, which over GF(p) is
    the cyclic case c = lam, m = p - 1, and over QQ the one infinite case,
    m = None (no unit), where P stays symbolic.
    """

    ctx: AhContext
    lam: FieldElem | None
    c: FieldElem
    G: tuple[FieldElem, ...]
    unit: FieldElem | None
    m: int | None

    @property
    def shape(self) -> str:
        return "one_parameter_family" if self.lam is not None else "finite"

    @property
    def finite_pairs(self) -> tuple[tuple[FieldElem, FieldElem], ...] | None:
        """The pair list, for a P that is not the family."""
        return self.pairs() if self.lam is None else None

    def alphas(self) -> list[FieldElem]:
        """The m-th roots of unity, as the powers 1, unit, ..., unit^(m-1)."""
        if self.m is None:
            raise AhError("the family over QQ cannot be materialized")
        powers = [self.ctx.spec.one()]
        for _ in range(self.m - 1):
            powers.append(powers[-1] * self.unit)
        return powers

    def pairs(self) -> tuple[tuple[FieldElem, FieldElem], ...]:
        """The |G|*m pairs, sorted."""
        c = self.c
        out = ((a, c - a * c + nu) for a in self.alphas() for nu in self.G)
        return tuple(sorted(out, key=_pair_key))

    def __len__(self) -> int:
        if self.m is None:
            raise AhError("the family over QQ is infinite")
        return len(self.G) * self.m

    def contains(self, alpha, beta) -> bool:
        alpha, beta = self.ctx.spec.elem(alpha), self.ctx.spec.elem(beta)
        if alpha.is_zero() or self.m is not None and not (alpha**self.m).is_one():
            return False
        return len(self.G) > 1 or beta == self.c - alpha * self.c


def compute_G(ctx: AhContext) -> tuple[FieldElem, ...]:
    """All translations fixing h: {nu : h(x + nu) == h(x)}.

    G is an additive subgroup of the field, so it is {0} or all of GF(p).
    When deg h is nonzero in the field (always in characteristic 0), the
    x^(d-1) coefficient of h(x + nu) - h(x) is d*lc(h)*nu, so G = {0} with
    no solve.  When p | deg h, G = GF(p) exactly when 1 is in G, which the
    Hasse derivatives decide at t = 1.  Listing GF(p) is the only cost
    linear in p, and it is the size of the output.
    """
    if ctx.deg_h < 1:
        raise ConstantHError("G needs deg h >= 1")
    spec = ctx.spec
    if not spec.p or ctx.deg_h % spec.p:
        return (spec.zero(),)
    return _translations(ctx.h, _taylor(ctx.h))


def _translations(h: Poly, taylor: list[Poly]) -> tuple[FieldElem, ...]:
    """G over GF(p), from taylor = _taylor(h): the x^i coefficient of
    h(x + 1) is taylor[i] at t = 1, and G = GF(p) iff it is h_i for all i."""
    spec = h.spec
    if any((sum(t._nums) - c) % spec.p for t, c in zip(taylor, h._nums)):
        return (spec.zero(),)
    return tuple(spec.from_int(n) for n in range(spec.p))


def compute_P(ctx: AhContext) -> PSet:
    """The pair set P, as its presentation (see :class:`PSet`); nothing is listed.

    A single distinct root lam (necessarily in the field, since the radical
    is then linear) gives the family: c = lam and every alpha in F*, so
    m = p - 1 over GF(p) and m = None over QQ.  Otherwise P either contains
    the translations G = GF(p), or it fixes one point c: the centroid
    -h_(d-1)/(d*lc) when deg h is nonzero in the field, else one of
    :func:`_fixed_points` (c = 0 in the first case).  With H = h(x + c), the
    pairs fixing c are (alpha, c*(1-alpha)) for the m-th roots of unity
    alpha, m = gcd(n, d - i : H_i != 0, i < d), where n is p - 1, or 2 over
    QQ.  The generators are certified: the pair of an element of order
    exactly m, and a nonzero translation when G = GF(p), satisfy the pair
    law.  Over GF(p) the cost is polynomial in deg h and log p.
    """
    if ctx.deg_h < 1:
        raise ConstantHError("P needs deg h >= 1")
    spec, h, d = ctx.spec, ctx.h, ctx.deg_h
    zero, one = spec.zero(), spec.one()
    n = spec.p - 1 if spec.p else 2
    G, c, m, lam = (zero,), zero, 1, None
    rad = squarefree_part(h)
    if rad.degree == 1:
        lam = -rad.coeff(0)
        if h != Poly(spec, (-lam, 1)) ** d * h.lc:
            raise SelfCheckError("h with a linear radical is not a power of it")
        if not spec.p:
            return PSet(ctx, lam, lam, G, None, None)
        c, m = lam, n
    else:
        if spec.p and d % spec.p == 0:
            taylor = _taylor(h)
            G = _translations(h, taylor)
            centers = [(zero, h)] if len(G) > 1 else (
                (c, _moved(h, c)) for c in _fixed_points(taylor, spec.p)
            )
        else:
            centers = [_centered(h)]
        # at most one center is fixed by a pair other than the identity
        for center, H in centers:
            m_c = gcd(n, *(d - i for i, v in enumerate(H._nums[:d]) if v))
            if m_c > 1:
                c, m = center, m_c
                break
    unit = _unit_of_order(spec, n, m)
    generators = [(unit, c - unit * c)] if m > 1 else []
    if len(G) > 1:
        generators.append((one, one))
    if not all(pair_is_valid(ctx, a, b) for a, b in generators):
        raise SelfCheckError("P is not G times the powers of its generator")
    return PSet(ctx, lam, c if m > 1 else zero, G, unit, m)


def _moved(f: Poly, c: FieldElem) -> Poly:
    """f(x + c)."""
    return f if c.is_zero() else f.compose(Poly(f.spec, (c, 1)))


def _centered(f: Poly) -> tuple[FieldElem, Poly]:
    """(c, f(x + c)) for the centroid c = -f_(d-1)/(d*lc(f)) of f, d = deg f
    nonzero in the field: f(x + c) has no x^(d-1) term."""
    d = f.degree
    c = -f.coeff(d - 1) / (f.spec.from_int(d) * f.lc)
    return c, _moved(f, c)


def _fixed_points(taylor: list[Poly], p: int) -> list[FieldElem]:
    """Candidates for the point fixed by P when p | deg h and G = {0}.

    If P is not trivial it has a pair of prime order r, r | p - 1, fixing c;
    then H = h(x + c) has H_i = 0 unless r | d - i, and H_i is h^[i](c), so
    c is a common root of the h^[i] with r not dividing d - i.  Also r <= d,
    since otherwise H = lc*x^d.  Those h^[i] are not all zero: else every
    point would be fixed by a pair of order r, and two of them would give a
    nonzero translation.
    """
    d = len(taylor) - 1
    out = []
    for r in _prime_divisors(p - 1):
        if r > d:
            break
        conditions = [t for i, t in enumerate(taylor[:d]) if (d - i) % r and t]
        if not conditions:
            raise SelfCheckError("every point is fixed, but G is trivial")
        out += [c for c in _poly_roots(reduce(gcd_monic, conditions)) if c not in out]
    return out


def _unit_of_order(spec: FieldSpec, n: int, m: int) -> FieldElem:
    """An element of order m, certified by :func:`_order`, among the n roots
    of unity of F (m divides n).  Over GF(p), a^(n/m) has order m for a
    share phi(m)/m of the a in F*, so the search over a = 1, 2, ... stops
    after a few steps; over QQ, a = -1 serves."""
    for a in range(1, spec.p) if spec.p else (-1,):
        b = spec.from_int(a) ** (n // m)
        if _order(b, m) == m:
            return b
    raise SelfCheckError(f"{spec!r} has no element of order {m}")


def affine_equivalences(h: Poly, g: Poly) -> list:
    """Every (alpha, beta, nu) with h(alpha*x + beta) == nu * g(x), sorted by (alpha, beta)."""
    return list(_equivalences(h, g))


def _equivalences(h: Poly, g: Poly):
    """Yield the solutions of h(alpha*x + beta) == nu * g(x) in (alpha, beta) order.

    Requires deg h == deg g == d >= 1; nu = alpha^d * lc(h)/lc(g) is pinned
    by the leading coefficients.  When d is nonzero in the field, h and g
    are moved to their centroids c_h and c_g (see :func:`_centered`):
    H = h(x + c_h) and K = g(x + c_g) have no x^(d-1) term, and the law
    holds exactly when beta = c_h - alpha*c_g and H_i = ratio *
    alpha^(d-i) * K_i for every i < d, ratio = lc(h)/lc(g).  So either the
    zero patterns of H and K differ and there is no solution, or the
    candidates are the common roots of the binomials ratio*K_i*x^(d-i) - H_i,
    at most d of them: over GF(p) this costs time polynomial in d and log p.
    When p divides d there is no centroid and no coset analogue is known;
    then each alpha in F* is tried, and beta is a common root of the x^i
    coefficients of h(alpha*x + beta) - nu*g(x) as polynomials in beta,
    which is linear in p.  The candidates are sorted and each is verified
    by composition as it is reached, so a caller that stops at the first
    triple composes only up to the least witness.
    """
    spec = h.spec
    d = h.degree
    if d != g.degree or d < 1:
        raise AhError("affine elimination needs equal degrees >= 1")
    ratio = h.lc / g.lc
    if spec.p and d % spec.p == 0:
        taylor = _taylor(h)
        candidates = [
            (alpha, beta)
            for alpha in spec.elements()
            if not alpha.is_zero()
            for beta in _shift_roots(taylor, alpha, g.scaled(ratio * alpha**d))
        ]
    else:
        candidates = _centered_candidates(h, g, ratio)
    for alpha, beta in sorted(candidates, key=_pair_key):
        nu = ratio * alpha**d
        if h.compose(_affine(spec, alpha, beta)) == g.scaled(nu):
            yield alpha, beta, nu


def _centered_candidates(h: Poly, g: Poly, ratio: FieldElem):
    """Candidate pairs (alpha, c_h - alpha*c_g) when deg h is nonzero in the field."""
    spec = h.spec
    d = h.degree
    (c_h, H), (c_g, K) = _centered(h), _centered(g)
    binomials = []
    for i in range(d):
        H_i, K_i = H.coeff(i), K.coeff(i)
        if H_i.is_zero() != K_i.is_zero():
            return []
        if H_i:
            binomials.append(Poly.monomial(spec, ratio * K_i, d - i) - Poly.constant(H_i))
    if binomials:
        alphas = _poly_roots(reduce(gcd_monic, binomials))
    elif spec.is_prime_field:
        # H and K are monomials, so h and g are powers of linear factors
        alphas = [a for a in spec.elements() if not a.is_zero()]
    else:
        raise AhError("elimination degenerated to the one-parameter family")
    return [(a, c_h - a * c_g) for a in alphas]


def _taylor(h: Poly) -> list[Poly]:
    """The Hasse derivatives of h as polynomials in t.

    Entry i is sum_j C(j, i) h_j t^(j-i), the x^i coefficient of h(x + t);
    the x^i coefficient of h(alpha*x + t) is alpha^i times it.  Built on the
    raw numerators, skipping the zero coefficients of h.  Over GF(p) each
    C(j, i) is taken mod p by Lucas' theorem from one table of factorials
    below min(p, d + 1); over QQ it stays exact, stepped along row j of
    Pascal's triangle.
    """
    spec, nums = h.spec, h._nums
    n, p = len(nums), spec.p
    if p:
        top = min(p - 1, n - 1)
        fact = [1] * (top + 1)
        for k in range(1, top + 1):
            fact[k] = fact[k - 1] * k % p
        inv = [pow(f, -1, p) for f in fact]

        def column(j, c):
            # c * C(j, i) mod p for i = 0..j, digit by digit in base p
            for i in range(j + 1):
                out, a, b = c, j, i
                while b and out:
                    a0, b0 = a % p, b % p
                    out = out * fact[a0] * inv[b0] * inv[a0 - b0] % p if b0 <= a0 else 0
                    a, b = a // p, b // p
                yield out

    else:

        def column(j, c):
            # c * C(j, i) for i = 0..j, exactly: c*C(j, i)*(j-i) is divisible by i+1
            for i in range(j + 1):
                yield c
                c = c * (j - i) // (i + 1)

    # rows grow only up to their last nonzero entry, so a sparse h gives short rows
    rows = [[] for _ in range(n)]
    for j, c in enumerate(nums):
        if c:
            for i, v in enumerate(column(j, c)):
                if v:
                    row = rows[i]
                    row += [0] * (j - i - len(row))
                    row.append(v)
    return [_poly(spec, row, h._den) for row in rows]


def _shift_roots(taylor: list[Poly], alpha: FieldElem, target: Poly) -> list[FieldElem]:
    """All t with h(alpha*x + t) == target(x), where taylor = _taylor(h)."""
    conditions = [
        t.scaled(alpha**i) - Poly.constant(target.coeff(i))
        for i, t in enumerate(taylor)
    ]
    # entry 0 is h(t) - target(0), of degree deg h >= 1 in t, so the gcd is defined
    return _poly_roots(reduce(gcd_monic, conditions))


def _poly_roots(f: Poly) -> list[FieldElem]:
    """The distinct roots of a nonzero f in its field, sorted.

    Over GF(p) they are the roots of gcd(f, x^p - x), the product of the
    linear factors of f, split by equal-degree factorization.
    """
    spec = f.spec
    if not spec.is_prime_field:
        return rational_roots(f)
    x = Poly.x(spec)
    linear = gcd_monic(f, pow_mod(x, spec.p, f) - x)
    if linear.degree < 1:
        return []
    roots = [-lin.coeff(0) for lin in _equal_degree(linear, 1, random.Random(0))]
    return sorted(roots, key=lambda e: e.sort_key())


def _prime_divisors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _order(a: FieldElem, n: int) -> int:
    """The multiplicative order of a, which must divide n.

    Divides out each prime q of n while a^(n/q) is still 1, so the cost is
    the trial division of n plus O(log n) powers per prime.
    """
    if not (a**n).is_one():
        raise SelfCheckError(f"the order of {a} does not divide {n}")
    for q in _prime_divisors(n):
        while n % q == 0 and (a ** (n // q)).is_one():
            n //= q
    return n


# -- classification ----------------------------------------------------------

POLY_ONLY = "poly_only"
SEMIDIRECT_FSTAR = "semidirect_fstar"
SEMIDIRECT_FINITE = "semidirect_finite"


@dataclass(frozen=True)
class AutGroupStructure:
    """The computed shape of the automorphism group and its invariants.

    ``t`` generates the invariant polynomials (when ``t_kind`` is
    "generated"; "whole_ring" means every polynomial is invariant and
    "constants" means only scalars are).  ``q`` generates the center of the
    automorphism group: the central shears are exactly those along
    q * (invariants), the whole polynomial group when ``dz_kind`` is
    "whole_ring".
    """

    ctx: AhContext
    case: str
    k: int
    G: tuple[FieldElem, ...]
    P: PSet
    lam: FieldElem | None
    generator: tuple[FieldElem, FieldElem] | None
    ell: int | None
    t: Poly | None
    t_kind: str
    q: Poly
    dz_kind: str
    n_exponent: int | None


def classify_aut_group(ctx: AhContext) -> AutGroupStructure:
    """Compute the group shape, the invariant generator t, and the center generator q.

    One construction for every P, read off its presentation (see
    :class:`PSet`).  With base = x - c when G = {0} and base = x^p - x (the
    product of x - c - nu over nu in G) when G = GF(p), q = base^n.  For a
    finite P the image in F* is cyclic of order ell = m = |P|/|G|, so G and
    one pair generate P: the least pair whose alpha has order ell, or the
    least nonzero translation when ell = 1.  Then t = base^ell and
    n = (d-1)*|G|^-1 mod ell.  For the family over QQ (m = None) every
    alpha in QQ* is admissible, so only scalars are invariant and
    n = d - 1.  The laws for t and q are checked against the generators
    before returning, so a wrong case selection cannot escape.
    """
    if ctx.deg_h < 1:
        raise ConstantHError("classification needs deg h >= 1")
    spec, d = ctx.spec, ctx.deg_h
    pset = compute_P(ctx)
    G = pset.G
    k = distinct_root_count(ctx.h)
    x = Poly.x(spec)
    base = x - Poly.constant(pset.c) if len(G) == 1 else x**spec.p - x
    ell, generator, t_kind, n_exp = pset.m, None, "constants", d - 1
    if ell is not None:
        ell, rem = divmod(len(pset), len(G))
        if rem:
            raise SelfCheckError("|G| must divide |P|")
        # alpha != 1 permutes the k roots of h with at most one fixed point and
        # the nonzero translations in G without any, in orbits of size ell
        if k % ell and (k - 1) % ell:
            raise SelfCheckError("order must divide k or k-1")
        if (len(G) - 1) % ell:
            raise SelfCheckError("|G| - 1 must be divisible by ell")
        if ell > 1:
            alphas = sorted(pset.alphas(), key=FieldElem.sort_key)
            alpha = next((a for a in alphas if _order(a, ell) == ell), None)
            if alpha is None:
                raise SelfCheckError("no pair of P has an alpha of order |P|/|G|")
            # beta runs over c*(1 - alpha) + G, which is all of GF(p) when |G| > 1
            generator = (alpha, spec.zero() if len(G) > 1 else pset.c - alpha * pset.c)
        elif len(G) > 1:
            generator = (spec.one(), spec.one())
        n_exp = (d - 1) * pow(len(G), -1, ell) % ell
        t_kind = "generated" if generator is not None else "whole_ring"
    whole = t_kind == "whole_ring"  # P = {identity}: only the shears
    case = SEMIDIRECT_FSTAR if pset.lam is not None else SEMIDIRECT_FINITE
    structure = AutGroupStructure(
        ctx, POLY_ONLY if whole else case, k, G, pset, pset.lam, generator, ell,
        None if ell is None else base**ell, t_kind,
        base**n_exp, "whole_ring" if whole else "module", None if whole else n_exp,
    )
    _assert_laws(structure)
    return structure


def _law_sample(structure: AutGroupStructure):
    """Pairs against which the t/q laws are checked.

    Both laws are multiplicative, so for a finite P it suffices to check a
    nonzero translation of G and the generator, once they are certified to
    generate P: G is an additive subgroup of the prime field (size 1 or p),
    so the generator's alpha scales it onto itself, |G| * ell is |P|, and
    an alpha of order ell makes G and the generator's powers all |P| pairs.
    The family over QQ is sampled at a few alpha.
    """
    spec = structure.ctx.spec
    pset = structure.P
    if pset.m is None:
        for raw in (2, 3, -1, 7, Fraction(1, 2)):
            alpha = spec.elem(raw)
            yield alpha, pset.c - alpha * pset.c
        return
    G, ell, generator = structure.G, structure.ell, structure.generator
    if len(G) not in (1, spec.p):
        raise SelfCheckError("G is not an additive subgroup of the field")
    alpha = generator[0] if generator is not None else spec.one()
    counted = len(G) * ell == len(pset) and (alpha**ell).is_one()
    if not counted or _order(alpha, ell) != ell:
        raise SelfCheckError("P is not G times the powers of its generator")
    translation = next(((spec.one(), nu) for nu in G if not nu.is_zero()), None)
    sample = [ab for ab in (translation, generator) if ab is not None]
    if not all(pset.contains(a, b) for a, b in sample):
        raise SelfCheckError("a generator of P is not in P")
    yield from sample


def _assert_laws(structure: AutGroupStructure) -> None:
    ctx = structure.ctx
    spec = ctx.spec
    d = ctx.deg_h
    for alpha, beta in _law_sample(structure):
        move = _affine(spec, alpha, beta)
        if structure.t_kind == "generated":
            if structure.t.compose(move) != structure.t:
                raise SelfCheckError("t is not invariant")
        elif structure.t_kind == "whole_ring":
            if not (alpha.is_one() and beta.is_zero()):
                raise SelfCheckError("whole ring fixed only by shears")
        if structure.q.compose(move) != structure.q.scaled(alpha ** (d - 1)):
            raise SelfCheckError("q violates its transformation law")


# -- the isomorphism problem --------------------------------------------------


def iso_test(h: Poly, g: Poly, spec: FieldSpec):
    """A witness (alpha, beta, nu) with nu*g(x) == h(alpha*x + beta), or None.

    The witness is the least by (alpha, beta).  Over both fields it is the
    first triple of :func:`_equivalences`, which verifies the sorted
    candidates only up to it, except when h and g have one distinct root
    each: then the witnesses are (alpha, lam_h - alpha*lam_g), and alpha = 1
    is the least.  Over GF(p) the cost is polynomial in deg h and log p when
    p does not divide deg h (the centered binomials), and linear in p when
    it does (each alpha in F* is tried).
    """
    if h.spec != spec or g.spec != spec:
        raise ContextMismatch("polynomials over the wrong field")
    if h.is_zero() or g.is_zero():
        raise AhError("isomorphism testing needs nonzero h and g")
    if h.degree != g.degree:
        return None
    if h.degree == 0:
        return (spec.one(), spec.zero(), h.lc / g.lc)
    # the radicals are monic, so their degrees count the distinct roots
    rad_h, rad_g = squarefree_part(h), squarefree_part(g)
    if rad_h.degree != rad_g.degree:
        return None
    if rad_h.degree == 1:
        # with rad = x - lam, beta = lam_h - lam_g
        alpha, beta, nu = spec.one(), rad_g.coeff(0) - rad_h.coeff(0), h.lc / g.lc
        if h.compose(_affine(spec, alpha, beta)) != g.scaled(nu):
            raise SelfCheckError("powers of linear factors are not equivalent")
        return (alpha, beta, nu)
    return next(_equivalences(h, g), None)


# -- injective, non-surjective endomorphisms ----------------------------------


@dataclass(frozen=True)
class Endomorphism:
    """A generator-image endomorphism; ``surjective`` records the probe result."""

    ctx: AhContext
    x_image: Poly
    y_image: OreElement
    surjective: bool
    name: str

    def apply(self, a: OreElement) -> OreElement:
        if a.ctx != self.ctx:
            raise ContextMismatch("element from a different context")
        return apply_poly_map(a, self.x_image, self.y_image)


def eta_endo(ctx: AhContext, k: int) -> Endomorphism:
    """The power endomorphism x -> x^k, Y -> (1/k) x^((k-1)(n-1)) Y, for h = x^n.

    Injective always; surjective only for k = 1 (for k >= 2 the image meets
    the polynomials in F[x^k], so x has no preimage).
    """
    spec = ctx.spec
    n = ctx.deg_h
    if n < 1 or ctx.h != Poly.monomial(spec, spec.one(), n):
        raise WrongHError("this endomorphism family needs h = x^n")
    if k < 1:
        raise ValueError("k must be at least 1")
    p = spec.characteristic
    if p and k % p == 0:
        raise CharacteristicError("p divides k, so 1/k does not exist")
    scale = spec.from_int(k).inverse()
    x_image = Poly.monomial(spec, spec.one(), k)
    y_image = ctx.monomial(
        Poly.monomial(spec, scale, (k - 1) * (n - 1)), 1
    )
    endo = Endomorphism(ctx, x_image, y_image, k == 1, f"eta_{k}")
    _assert_endo_relation(endo)
    return endo


def kappa_endo(ctx: AhContext, c: OreElement) -> Endomorphism:
    """The shift endomorphism Y -> Y + c for central-with-x c, in char p.

    Surjective exactly when c is a polynomial in x (then it is the shear
    automorphism); a genuinely new central summand makes x^...Y unreachable.
    """
    if ctx.spec.characteristic == 0:
        raise CharacteristicError("this endomorphism family exists only in char p")
    if c.ctx != ctx:
        raise ContextMismatch("shift element from a different context")
    if not commutator(c, ctx.x()).is_zero():
        raise ValueError("shift must centralize x")
    y_image = ctx.gen() + c
    endo = Endomorphism(
        ctx, Poly.x(ctx.spec), y_image, len(c.coeffs) <= 1, "kappa"
    )
    _assert_endo_relation(endo)
    return endo


def _assert_endo_relation(endo: Endomorphism) -> None:
    ctx = endo.ctx
    x_img = ctx.from_poly(endo.x_image)
    lhs = commutator(endo.y_image, x_img)
    rhs = ctx.from_poly(ctx.h.compose(endo.x_image))
    if lhs != rhs:
        raise SelfCheckError("generator images violate the defining relation")


# -- extension and restriction along an embedding ------------------------------


def extend_automorphism(omega: Automorphism, f: Poly) -> Automorphism | None:
    """Extend an automorphism of A_g to A_f along f | g, when possible.

    The extension exists iff omega scales f by alpha^(deg f) and the shear
    polynomial (in the composition normal form) is divisible by g/f.
    """
    ctx_g = omega.ctx
    g = ctx_g.h
    if f.spec != ctx_g.spec:
        raise ContextMismatch("target polynomial over the wrong field")
    if g.degree < 1:
        raise ConstantHError("extension is stated for deg g >= 1")
    r, rem = divmod(g, f)
    if not rem.is_zero():
        raise NotDivisibleError(f"{f} does not divide {g}")
    alpha, beta = omega.alpha, omega.beta
    if f.compose(omega.x_image) != f.scaled(alpha ** f.degree):
        return None
    q = omega.f.scaled(alpha ** (1 - g.degree))
    s, rem = divmod(q, r)
    if not rem.is_zero():
        return None
    target = AhContext(ctx_g.spec, f, gen_symbol=ctx_g.gen_symbol)
    return Automorphism(
        target, alpha, beta, s.scaled(alpha ** (f.degree - 1))
    )


def restrict_automorphism(psi: Automorphism, g: Poly) -> Automorphism | None:
    """Restrict an automorphism of A_f to A_g along f | g, when possible.

    The restriction exists iff psi scales g by some nonzero lambda
    (necessarily alpha^(deg g)); the restricted shear is then
    alpha^(deg g - deg f) * s * r with s the shear of psi and r = g/f.
    """
    ctx_f = psi.ctx
    f = ctx_f.h
    if g.spec != ctx_f.spec:
        raise ContextMismatch("subalgebra polynomial over the wrong field")
    if g.degree < 1:
        raise ConstantHError("restriction is stated for deg g >= 1")
    r, rem = divmod(g, f)
    if not rem.is_zero():
        raise NotDivisibleError(f"{f} does not divide {g}")
    alpha, beta = psi.alpha, psi.beta
    moved = g.compose(psi.x_image)
    quot, rem = divmod(moved, g)
    if not rem.is_zero() or quot.degree != 0:
        return None
    if quot.coeff(0) != alpha**g.degree:
        raise SelfCheckError("scaling factor must be alpha^deg(g)")
    target = AhContext(ctx_f.spec, g, gen_symbol=ctx_f.gen_symbol)
    shear = (r * psi.f).scaled(alpha ** (g.degree - f.degree))
    return Automorphism(target, alpha, beta, shear)
