"""The automorphism group of A_h: pairs, structure, invariants, endomorphisms.

Every automorphism acts by ``x -> alpha*x + beta`` and
``Y -> alpha^(deg h - 1) * Y + f(x)``, where the pair (alpha, beta) must
satisfy the compatibility identity

    h(alpha*x + beta) == alpha^(deg h) * h(x).                      (pair law)

The admissible pairs form a subgroup P of the affine group of the line, so
P either contains every translation or fixes one point c.
:func:`compute_P` keeps P as a presentation (:class:`PSet`): c, the
translations G ({0} or GF(p)) and an element of order m whose powers are the
alphas.  P, G and isomorphism all solve h(alpha*x + beta) == nu*g(x) one
way for every deg h: each solution maps the anchor of g to that of h
(:func:`_anchor`), and around the anchors each coefficient identity is a
binomial in alpha.  So over GF(p) every question costs time polynomial in
deg h and log p, apart from listing an output of size p.  The
``radical`` and ``anchor`` of each polynomial asked about, and the
``presentation`` of P, are kept in the record of the polynomial
(:mod:`ahalg.poly`), so compute_G, compute_P, classify_aut_group and
iso_test on one h compute them once; nothing else is kept.

On top of the pair computations the module classifies the group (polynomial
shears only / semidirect with the scalar group / semidirect with a finite
cyclic part) and produces the invariant polynomial t and the center-of-the-
automorphism-group generator q, in one construction from the presentation
for every P, the family over QQ included.  It also implements the two
families of injective non-surjective endomorphisms together with extension
and restriction of automorphisms along an embedding.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd

from .algebra import AhContext, OreElement, _element, apply_poly_map, commutator
from .errors import (
    AhError,
    CharacteristicError,
    ConstantHError,
    ContextMismatch,
    InfiniteFieldError,
    InvalidPairError,
    NotDivisibleError,
    SelfCheckError,
    WrongHError,
)
from .fields import FieldElem, FieldSpec, _factor
# gcd_monic is not called here; the benchmark's tracer test patches and restores this binding
from .poly import Poly, _dense_terms, _kept, _parts, _poly, gcd_monic


def _mod(v, p):
    """The int or Fraction v as a raw value: reduced mod p, or as it is over QQ (p None)."""
    return v % p if p else v


def _law_holds(f: Poly, alpha, beta, nu, g: Poly) -> bool:
    """Whether f(alpha*x + beta) == nu * g(x), for field elements or raw values, by one
    Horner composition: the pair law is the case f = g, nu = alpha^(deg f)."""
    return f.compose(Poly(f.spec, (beta, alpha))) == g.scaled(nu)


def pair_is_valid(ctx: AhContext, alpha: FieldElem, beta: FieldElem) -> bool:
    """Check the pair law h(alpha*x + beta) == alpha^deg(h) * h(x)."""
    return not alpha.is_zero() and _law_holds(ctx.h, alpha, beta, alpha**ctx.deg_h, ctx.h)


class Automorphism(namedtuple("Automorphism", "ctx alpha beta f")):
    """An automorphism x -> alpha*x + beta, Y -> alpha^(deg h - 1)*Y + f."""

    __slots__ = ()

    def __new__(cls, ctx: AhContext, alpha, beta, f: Poly | None = None):
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
        return tuple.__new__(cls, (ctx, alpha, beta, f))

    @classmethod
    def _make(cls, fields):  # _replace, too, checks the pair law
        return cls(*fields)

    @property
    def x_image(self) -> Poly:
        return Poly(self.ctx.spec, (self.beta, self.alpha))

    @property
    def y_image(self) -> OreElement:
        ctx = self.ctx
        scale = self.alpha ** (ctx.deg_h - 1)
        return _element(ctx, (self.f, Poly.constant(scale)))

    def apply(self, a: OreElement) -> OreElement:  # Endomorphism's too
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
        inv_affine = Poly(ctx.spec, (-self.beta * inv_a, inv_a))
        f = self.f.compose(inv_affine).scaled(-(inv_a ** (d - 1)))
        return Automorphism(ctx, inv_a, -self.beta * inv_a, f)

    @property
    def is_identity(self) -> bool:
        return self.alpha.is_one() and self.beta.is_zero() and self.f.is_zero()

    def __repr__(self):
        return f"Automorphism(alpha={self.alpha}, beta={self.beta}, f={self.f})"


def tau(ctx: AhContext, alpha, beta) -> Automorphism:
    """The affine automorphism with no shear part."""
    return Automorphism(ctx, alpha, beta)


def phi(ctx: AhContext, f: Poly) -> Automorphism:
    """The shear x -> x, Y -> Y + f."""
    return Automorphism(ctx, ctx.spec.one(), ctx.spec.zero(), f)


# -- the pair set -----------------------------------------------------------


class PSet(namedtuple("PSet", "ctx lam c G unit m")):
    """The admissible pairs, kept as the presentation that generates them.

    P = {(alpha, c*(1-alpha) + nu) : alpha^m = 1, nu in G}.  G is the group
    of translations fixing h, {0} or all of GF(p); c is the point fixed by
    the pairs (0 when m = 1); ``unit`` has order exactly m, so its powers are
    the m-th roots of unity.  ``lam`` is set exactly when h is a scalar times
    (x - lam)^d: then every alpha in F* is admissible, which over GF(p) is
    the cyclic case c = lam, m = p - 1, and over QQ the one infinite case,
    m = None (no unit), where P stays symbolic.

    A tuple of its fields (ctx, lam, c, G, unit, m): iterating it yields
    them, while ``len`` is |P|; for the family over QQ it raises
    :class:`InfiniteFieldError`, a ``TypeError``, so ``tuple()`` still works.
    """

    __slots__ = ()

    # _replace, copy and pickle must not read len(self), which is |P|
    @classmethod
    def _make(cls, fields):
        return tuple.__new__(cls, fields)

    def __getnewargs__(self):
        return self[:]

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
        spec = self.ctx.spec
        return [FieldElem(spec, a) for a in _powers(self.unit.val, self.m, spec.p)]

    def pairs(self) -> tuple[tuple[FieldElem, FieldElem], ...]:
        """The |G|*m pairs, sorted: the m alphas are sorted once, and their betas
        c*(1 - alpha) + G are G itself, in order, when |G| = p, else c - alpha*c."""
        c, G = self.c, self.G
        alphas = sorted(self.alphas(), key=FieldElem.sort_key)
        if len(G) > 1:
            return tuple((a, nu) for a in alphas for nu in G)
        return tuple((a, c - a * c) for a in alphas)

    def __len__(self) -> int:
        if self.m is None:
            raise InfiniteFieldError("the family over QQ is infinite")
        return len(self.G) * self.m

    def contains(self, alpha, beta) -> bool:
        alpha, beta = self.ctx.spec.elem(alpha), self.ctx.spec.elem(beta)
        if alpha.is_zero() or self.m is not None and not (alpha**self.m).is_one():
            return False
        return len(self.G) > 1 or beta == self.c - alpha * self.c


def compute_G(ctx: AhContext) -> tuple[FieldElem, ...]:
    """All translations fixing h: {nu : h(x + nu) == h(x)}.

    G is an additive subgroup of the field, so it is {0} or all of GF(p),
    and it is GF(p) exactly when h has no anchor (see :func:`_anchor`).
    Listing GF(p) is the only cost linear in p: the size of the output.
    """
    if ctx.deg_h < 1:
        raise ConstantHError("G needs deg h >= 1")
    if _kept(ctx.h, "anchor", _anchor) is not None:
        return (ctx.spec.zero(),)
    return tuple(ctx.spec.from_int(n) for n in range(ctx.spec.p))


def compute_P(ctx: AhContext) -> PSet:
    """The pair set P, as its presentation (see :class:`PSet`); nothing is listed."""
    if ctx.deg_h < 1:
        raise ConstantHError("P needs deg h >= 1")
    return _pset(ctx, _kept(ctx.h, "presentation", _presentation))


def _pset(ctx: AhContext, presentation: tuple) -> PSet:
    spec, (lam, c, unit, m, _) = ctx.spec, presentation
    lam, unit = (None if v is None else spec.elem(v) for v in (lam, unit))
    return PSet(ctx, lam, spec.elem(c), compute_G(ctx), unit, m)


def _presentation(h: Poly, refuse_dense_t: bool = False) -> tuple:
    """P as raw values (lam, c, unit, m, k: the degree of the radical of h),
    the ``presentation`` field of the record of h; G is read off the anchor.

    A single distinct root lam (in the field, since the radical is then
    linear) gives the family: every alpha in F*, m = None over QQ.  Else P
    contains G = GF(p) when h has no anchor (c = 0), or fixes the anchor c
    of h (:func:`_anchor`; lam for the family).  With H = h(x + c), the
    pairs fixing c are (alpha, c*(1-alpha)) for the m-th roots of unity,
    m = gcd(n, d - i : H_i != 0, i < d), n = p - 1, or 2 over QQ.  Then
    ``refuse_dense_t`` refuses a dense t = base^m, and the generators are
    certified: the pair of an element of order exactly m, and a nonzero
    translation when G = GF(p), satisfy the pair law.  Over GF(p) the cost
    is polynomial in deg h and log p.
    """
    spec, d, p = h.spec, h.degree, h.spec.p
    n = p - 1 if p else 2
    k, lam = _kept(h, "radical", _radical)
    c = _kept(h, "anchor", _anchor)
    whole, c = c is None, c or 0
    H = _moved(h, c)
    m = gcd(n, *(d - i for i, v in enumerate(H._nums[:d]) if v))
    if refuse_dense_t:
        _dense_terms("power of the base", (p if whole else 1) * m + 1)  # base is x^p - x or x - c
    if k == 1 and h.monic() != Poly(spec, (-lam, 1)) ** d:
        raise SelfCheckError("h with a linear radical is not a power of it")
    if k == 1 and not p:
        return lam, lam, None, None, k
    unit = _unit_of_order(spec, n, m)
    generators = [(unit, _mod(c - unit * c, p))] if m > 1 else []
    if whole:
        generators.append((1, 1))
    if not all(_law_holds(h, a, b, pow(a, d, p), h) for a, b in generators):
        raise SelfCheckError("P is not G times the powers of its generator")
    return lam, c if m > 1 else 0, unit, m, k


def _radical(h: Poly) -> tuple:
    """The number of distinct roots of h, the degree of its radical, and the
    root as a raw value when there is one, read off the squarefree parts."""
    parts = _parts(h)
    n = sum(len(g) - 1 for g, _ in parts)
    return n, _quotient(-parts[0][0][0], parts[0][0][1], h.spec.p) if n == 1 else None


def _quotient(a, b, p):
    """a/b for raw values a and b != 0: a residue over GF(p), a Fraction over QQ."""
    return a * pow(b, -1, p) % p if p else Fraction(a, b)


def _moved(f: Poly, c) -> Poly:
    """f(x + c), c a raw value."""
    return f.compose(Poly(f.spec, (c, 1))) if c else f


def _anchor(h: Poly):
    """The anchor of h as a raw value, or None when h(x + t) == h(x) for
    every t in GF(p).

    The Hasse derivatives h^[i] (:func:`_hasse_rows`) are read from i = d-1
    down, each reduced mod t^p - t over GF(p) (an exponent e >= p folds to
    (e-1) mod (p-1) + 1), and the anchor is the centroid -r_(e-1)/(e*r_e)
    of the first reduction r that is not constant (its degree e < p is a
    unit); later rows are never built.  For A = alpha*x + beta, h(A)^[i] =
    alpha^i * h^[i](A) and (t^p - t)(A) = alpha*(t^p - t), so if h(A) ==
    nu*g, A maps the anchor of g to the anchor of h.  With no anchor,
    h^[i](t) = h_i on GF(p) for all i.  Over QQ, and when p does not divide
    d, the first row h^[d-1] = h_(d-1) + d*lc*t is already not constant.
    """
    p = h.spec.p
    for row in _hasse_rows(h):
        if p:
            r = [0] * min(len(row), p)
            for k, v in enumerate(row):
                r[k if k < p else (k - 1) % (p - 1) + 1] += v
            row = [v % p for v in r]
        e = next((k for k in range(len(row) - 1, 0, -1) if row[k]), 0)
        if e:
            return _quotient(-row[e - 1], e * row[e], p)


def _hasse_rows(h: Poly):
    """Yield the Hasse derivatives of h from i = d-1 down to 0, each built
    only when it is read, as raw numerators over the denominator of h.

    Row i is sum_j C(j, i) h_j t^(j-i) over the nonzero h_j, the x^i
    coefficient of h(x + t); that of h(alpha*x + t) is alpha^i times it.
    Over GF(p) each C(j, i) is taken mod p by Lucas' theorem, digit by digit
    with ``math.comb`` as in ``algebra._binomials``; over QQ it is exact.
    """
    nums, p = h._nums, h.spec.p
    terms = [(j, c) for j, c in enumerate(nums) if c]
    if p:
        def binom(j, i):
            out = 1
            while i and out:
                out = out * comb(j % p, i % p) % p
                j, i = j // p, i // p
            return out
    else:
        binom = comb
    for i in range(len(nums) - 2, -1, -1):
        # a row grows only up to its last nonzero entry, so a sparse h gives short rows
        row = []
        for j, c in terms:
            v = c * binom(j, i) if j >= i else 0
            if v:
                row += [0] * (j - i - len(row))
                row.append(v)
        yield row


def _unit_of_order(spec: FieldSpec, n: int, m: int):
    """A raw element of order m, certified by :func:`_order`, among the n
    roots of unity of F (m divides n).  Over GF(p), a^(n/m) has order m for
    a share phi(m)/m of the a in F*, so the search over a = 1, 2, ... stops
    after a few steps (for m = n, at the least primitive root: the family's
    generator in :func:`classify_aut_group`); over QQ, a = -1 serves."""
    for a in range(1, spec.p) if spec.p else (Fraction(-1),):
        b = pow(a, n // m, spec.p)
        if _order(b, m, spec.p) == m:
            return b
    raise SelfCheckError(f"{spec!r} has no element of order {m}")


def _powers(unit, m: int, p, start=1):
    """start * unit^j for j = 0..m-1 on raw values: residues, or Fractions over QQ."""
    return accumulate(range(m - 1), lambda a, _: _mod(a * unit, p), initial=start)


def affine_equivalences(h: Poly, g: Poly) -> list:
    """Every (alpha, beta, nu) with h(alpha*x + beta) == nu * g(x), sorted by (alpha, beta)."""
    return [tuple(FieldElem(h.spec, v) for v in triple) for triple in _equivalences(h, g)]


def _equivalences(h: Poly, g: Poly):
    """Yield the solutions of h(alpha*x + beta) == nu * g(x) in (alpha, beta)
    order, as raw values.

    Requires deg h == deg g == d >= 1.  Each solution maps the anchor c_g of
    g to the anchor c_h of h (:func:`_anchor`), so there is none unless both
    or neither exist; without them c_h = c_g = 0 and beta is free up to
    GF(p).  With H = h(x + c_h), K = g(x + c_g) and ratio = lc(h)/lc(g), the
    law holds exactly when beta = c_h - alpha*c_g, nu = ratio*alpha^d and
    H_i = ratio*alpha^(d-i)*K_i for every i < d: none if the zero patterns
    of H and K differ, else each nonzero H_i is one condition alpha^e = w
    with e = d - i and w = H_i/(ratio*K_i).  The alphas are the roots of the
    condition with the least e (:func:`_binomial_roots`) that meet every
    other one, at a cost polynomial in d and log p and no factoring.  Each
    alpha is verified by one composition as it is reached, so a caller that
    stops at the first triple composes only up to the least witness.  With
    no anchors it serves every shift, once a composition past the first
    witness certifies h(x + 1) == h.
    """
    spec, d, p = h.spec, h.degree, h.spec.p
    if d != g.degree or d < 1:
        raise AhError("affine elimination needs equal degrees >= 1")
    ratio = (h.lc / g.lc).val
    c_h, c_g = _kept(h, "anchor", _anchor), _kept(g, "anchor", _anchor)
    if (c_h is None) != (c_g is None):
        return
    shifts = range(1, p) if c_h is None else ()
    c_h, c_g = c_h or 0, c_g or 0
    H, K = _moved(h, c_h)._values(), _moved(g, c_g)._values()
    if any(bool(a) != bool(b) for a, b in zip(H, K)):
        return
    # (e, w) for each condition alpha^e == w, by falling e
    conditions = [(d - i, _quotient(H[i], ratio * K[i], p)) for i in range(d) if H[i]]
    if conditions:
        *rest, (e, w) = conditions
        alphas = [a for a in _binomial_roots(spec, e, w) if all(pow(a, f, p) == v for f, v in rest)]
    elif p:
        # H and K are monomials, so h and g are powers of linear factors
        alphas = range(1, p)
    else:
        raise AhError("elimination degenerated to the one-parameter family")
    unfixed = bool(shifts)  # h(x + 1) == h is not yet certified
    for alpha in alphas:
        nu = _mod(ratio * pow(alpha, d, p), p)
        beta = _mod(c_h - alpha * c_g, p)
        if not _law_holds(h, alpha, beta, nu, g):
            continue
        yield alpha, beta, nu
        if unfixed and not _law_holds(h, 1, 1, 1, h):
            raise SelfCheckError("h has no anchor but x -> x + 1 moves it")
        unfixed = False
        for shift in shifts:  # without anchors beta is 0
            yield alpha, shift, nu


def _binomial_roots(spec: FieldSpec, m: int, w) -> list:
    """The roots of x^m = w in F, w a nonzero raw value, as sorted raw values.

    Over QQ (p None), a root a/b in lowest terms has a^m/b^m = w in lowest
    terms, so it is -r or r with r = |num w|^(1/m) / (den w)^(1/m), each an
    integer root (:func:`_floor_root`), and a sign is kept if it solves:
    no factoring.  Over GF(p), with n = p - 1 and g = gcd(m, n), alpha^m = w
    exactly when alpha^g = v, v = w^(1/(m/g) mod n/g), if w^(n/g) = 1 (else
    there is no root).  One root y of x^g = v by Adleman-Manders-Miller: with
    n = s*t, t the largest divisor prime to g, y = v^(1/g mod t) leaves
    e = y^g/v a g-th power in the subgroup of order s, so its logarithm L to
    a unit zeta of order s, found one digit at a time (Pohlig-Hellman), is a
    multiple of g and y*zeta^(-L/g) is a root.  The roots are y times the
    powers of zeta^(s/g), of order g: O(g) products, and no splitting.
    """
    p = spec.p
    if not p:
        r = Fraction(_floor_root(abs(w.numerator), m), _floor_root(w.denominator, m))
        return [a for a in (-r, r) if a**m == w]
    n = t = p - 1
    g = gcd(m, n)
    if pow(w, n // g, p) != 1:
        return []
    v = pow(w, pow(m // g, -1, n // g), p)
    while gcd(t, g) > 1:
        t //= gcd(t, g)
    s = n // t
    y, zeta = pow(v, pow(g, -1, t), p), _unit_of_order(spec, n, s)
    e = pow(y, g, p) * pow(v, -1, p) % p
    # primes not dividing n/g first: their digits are 0, since e is a g-th
    # power, so a digit search runs only over primes r with r^2 | n
    log, place = 0, 1
    for r in sorted(_prime_divisors(s), key=lambda r: n // g % r == 0):
        gamma = pow(zeta, s // r, p)
        while s // place % r == 0:
            target, power, digit = pow(e * pow(zeta, -log, p) % p, s // place // r, p), 1, 0
            while power != target and digit < r:
                power, digit = power * gamma % p, digit + 1
            log, place = log + digit * place, place * r
    y = y * pow(zeta, -(log // g), p) % p
    if pow(y, m, p) != w:
        raise SelfCheckError(f"{y} is not a root of x^{m} - {w}")
    # zeta^(s/g) has order g, since g divides s
    return sorted(_powers(pow(zeta, s // g, p), g, p, y))


def _floor_root(n: int, m: int) -> int:
    """The largest r with r^m <= n, by bisection on ints below 2^ceil(bits(n)/m)."""
    lo, hi = 0, 1 << -(-n.bit_length() // m)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if mid**m <= n else (lo, mid - 1)
    return lo


def _prime_divisors(n: int) -> list[int]:
    return [q for q, _ in _factor(n)]


def _order(a, n: int, p) -> int:
    """The multiplicative order of the raw value a over GF(p), or QQ for p None;
    it must divide n.

    Divides out each prime q of n while a^(n/q) is still 1, so the cost is
    the trial division of n plus O(log n) powers per prime.
    """
    if pow(a, n, p) != 1:
        raise SelfCheckError(f"the order of {a} does not divide {n}")
    for q in _prime_divisors(n):
        while n % q == 0 and pow(a, n // q, p) == 1:
            n //= q
    return n


# -- classification ----------------------------------------------------------

POLY_ONLY = "poly_only"
SEMIDIRECT_FSTAR = "semidirect_fstar"
SEMIDIRECT_FINITE = "semidirect_finite"


class AutGroupStructure(namedtuple(
        "AutGroupStructure", "ctx case k G P lam generator ell t t_kind q dz_kind n_exponent")):
    """The computed shape of the automorphism group and its invariants.

    ``t`` generates the invariant polynomials (when ``t_kind`` is
    "generated"; "whole_ring" means every polynomial is invariant and
    "constants" means only scalars are).  ``q`` generates the center of the
    automorphism group: the central shears are exactly those along
    q * (invariants), the whole polynomial group when ``dz_kind`` is
    "whole_ring".
    """

    __slots__ = ()


def classify_aut_group(ctx: AhContext) -> AutGroupStructure:
    """Compute the group shape, the invariant generator t, and the center generator q.

    One construction for every P, read off its presentation (see
    :class:`PSet`).  With base = x - c when G = {0} and base = x^p - x when
    G = GF(p) (:func:`_base`), q = base^n.  For a finite P the image in F*
    is cyclic of order ell = m = |P|/|G|, so G and one pair generate P: the
    least pair whose alpha has order ell, or the least nonzero translation
    when ell = 1.  For the family ell = p - 1, and the alpha is the unit of
    the presentation, the least primitive root (:func:`_unit_of_order`);
    else ell divides k or k - 1, and O(ell) integer steps scan the alphas
    unit^j with gcd(j, ell) = 1.  Then t = base^ell, sized (and refused when
    dense past the bound) before anything is certified, and n =
    (d-1)*|G|^-1 mod ell.  For the family over QQ (m = None) every alpha in
    QQ* is admissible, so only scalars are invariant and n = d - 1.  The
    laws for t and q are checked against the generators before returning,
    so a wrong case selection cannot escape.
    """
    if ctx.deg_h < 1:
        raise ConstantHError("classification needs deg h >= 1")
    spec, d = ctx.spec, ctx.deg_h
    presentation = _kept(ctx.h, "presentation", lambda h: _presentation(h, refuse_dense_t=True))
    pset, k = _pset(ctx, presentation), presentation[-1]
    G = pset.G
    base = _base(spec, pset.c, G)
    ell, generator, t_kind, n_exp = pset.m, None, "constants", d - 1
    t = None if ell is None else _binomial_power(base, ell)
    if ell is not None:
        # alpha != 1 permutes the k roots of h with at most one fixed point and
        # the nonzero translations in G without any, in orbits of size ell
        if k % ell and (k - 1) % ell:
            raise SelfCheckError("order must divide k or k-1")
        if (len(G) - 1) % ell:
            raise SelfCheckError("|G| - 1 must be divisible by ell")
        if ell > 1:
            # for the family (ell = p - 1) the unit is the least primitive root
            alpha = pset.unit if pset.lam is not None else spec.elem(min(
                a for j, a in enumerate(_powers(pset.unit.val, ell, spec.p)) if gcd(j, ell) == 1))
            # beta runs over c*(1 - alpha) + G, which is all of GF(p) when |G| > 1
            generator = (alpha, spec.zero() if len(G) > 1 else pset.c - alpha * pset.c)
        elif len(G) > 1:
            generator = (spec.one(), spec.one())
        n_exp = (d - 1) * pow(len(G), -1, ell) % ell
        t_kind = "generated" if generator is not None else "whole_ring"
    whole = t_kind == "whole_ring"  # P = {identity}: only the shears
    case = SEMIDIRECT_FSTAR if pset.lam is not None else SEMIDIRECT_FINITE
    structure = AutGroupStructure(
        ctx, POLY_ONLY if whole else case, k, G, pset, pset.lam, generator, ell, t, t_kind,
        _binomial_power(base, n_exp), "whole_ring" if whole else "module", None if whole else n_exp,
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
    if not counted or _order(alpha.val, ell, spec.p) != ell:
        raise SelfCheckError("P is not G times the powers of its generator")
    translation = next(((spec.one(), nu) for nu in G if not nu.is_zero()), None)
    sample = [ab for ab in (translation, generator) if ab is not None]
    if not all(pset.contains(a, b) for a, b in sample):
        raise SelfCheckError("a generator of P is not in P")
    yield from sample


def _base(spec: FieldSpec, c: FieldElem, G: tuple) -> Poly:
    """x - c when G = {0}, else x^p - x, the product of x - c - nu over nu in G."""
    return Poly(spec, (-c, 1)) if len(G) == 1 else Poly.monomial(spec, 1, spec.p) - Poly.x(spec)


def _binomial_power(base: Poly, k: int) -> Poly:
    """base^k for base = (A*x^a + B*x^e)/D by the binomial theorem, each term
    stepped from the last: O(k) steps (k < p over GF(p)) plus the dense output."""
    p, nums, a = base.spec.p, base._nums, base.degree
    e, B = next(((i, v) for i, v in enumerate(nums[:a]) if v), (0, 0))
    A = nums[a]
    out, term = [0] * _dense_terms("power of the base", a * k + 1), A**k
    out[a * k] = term
    for j in range(1, k + 1 if B else 1):
        step = (k - j + 1) * B
        term = term * step * pow(j * A, -1, p) % p if p else term * step // (j * A)
        out[a * (k - j) + e * j] += term
    return _poly(base.spec, out, base._den**k)


def _assert_laws(structure: AutGroupStructure) -> None:
    """Check the t/q laws on :func:`_law_sample` without composing t or q.

    A pair moves base to alpha*base: on x^p - x always, by Frobenius
    ((alpha*x + beta)^p = alpha*x^p + beta), and on x - c when
    beta = c - alpha*c.  So it moves a scalar times base^k, nonzero, to
    alpha^k times it, and t and q obey their laws when alpha^k does.
    """
    d, c, G = structure.ctx.deg_h, structure.P.c, structure.G
    sample = list(_law_sample(structure))
    base = _base(structure.ctx.spec, c, G)
    generated = structure.t_kind == "generated"
    t_exp = _exponent(structure.t, base) if generated else 0
    q_exp = _exponent(structure.q, base)
    for alpha, beta in sample:
        if len(G) == 1 and beta != c - alpha * c:
            raise SelfCheckError("the pair does not scale x - c")
        if generated and not (alpha**t_exp).is_one():
            raise SelfCheckError("t is not invariant")
        if structure.t_kind == "whole_ring" and not (alpha.is_one() and beta.is_zero()):
            raise SelfCheckError("whole ring fixed only by shears")
        if alpha**q_exp != alpha ** (d - 1):
            raise SelfCheckError("q violates its transformation law")


def _exponent(f: Poly, base: Poly) -> int:
    """The k with f a scalar times base^k, base monic (0 for f = 0).

    For k < p, base*f' == k*base'*f makes f/base^k a rational function of
    x^p, so a constant: base is squarefree (see the README).
    """
    k, rem = divmod(max(f.degree, 0), base.degree)
    if f.spec.p and k >= f.spec.p:
        ok = f == (base**k).scaled(f.lc)
    else:
        ok = base * f.derivative() == (base.derivative() * f).scaled(k)
    if rem or not ok:
        raise SelfCheckError(f"{f} is not a scalar times a power of {base}")
    return k


# -- the isomorphism problem --------------------------------------------------


def iso_test(h: Poly, g: Poly, spec: FieldSpec):
    """A witness (alpha, beta, nu) with nu*g(x) == h(alpha*x + beta), or None.

    The witness is the least by (alpha, beta): the first triple of
    :func:`_equivalences`, which verifies candidates only up to it, or, when
    h and g have one distinct root each, (1, lam_h - lam_g), the least of
    the (alpha, lam_h - alpha*lam_g).  Over GF(p) the cost is polynomial in
    deg h and log p for every deg h.  The radical and anchor of h and of g
    are kept in their records; the witness is composed on every call.
    """
    if h.spec != spec or g.spec != spec:
        raise ContextMismatch("polynomials over the wrong field")
    if h.is_zero() or g.is_zero():
        raise AhError("isomorphism testing needs nonzero h and g")
    if h.degree != g.degree:
        return None
    if h.degree == 0:
        return (spec.one(), spec.zero(), h.lc / g.lc)
    (roots_h, lam_h), (roots_g, lam_g) = _kept(h, "radical", _radical), _kept(g, "radical", _radical)
    if roots_h != roots_g:
        return None
    if roots_h == 1:
        alpha, beta, nu = spec.one(), spec.elem(lam_h - lam_g), h.lc / g.lc
        if not _law_holds(h, alpha, beta, nu, g):
            raise SelfCheckError("powers of linear factors are not equivalent")
        return (alpha, beta, nu)
    return next((tuple(FieldElem(spec, v) for v in t) for t in _equivalences(h, g)), None)


# -- injective, non-surjective endomorphisms ----------------------------------


class Endomorphism(namedtuple("Endomorphism", "ctx x_image y_image surjective name")):
    """A generator-image endomorphism; ``surjective`` records the probe result."""

    __slots__ = ()

    apply = Automorphism.apply


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
    y_image = _element(ctx, (Poly.zero(spec), Poly.monomial(spec, scale, (k - 1) * (n - 1))))
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
    lhs = commutator(endo.y_image, _element(ctx, (endo.x_image,)))
    rhs = _element(ctx, (ctx.h.compose(endo.x_image),))
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
    if not _law_holds(f, alpha, beta, alpha**f.degree, f):
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
    if not _law_holds(g, alpha, beta, alpha**g.degree, g):
        return None
    target = AhContext(ctx_f.spec, g, gen_symbol=ctx_f.gen_symbol)
    shear = (r * psi.f).scaled(alpha ** (g.degree - f.degree))
    return Automorphism(target, alpha, beta, shear)
