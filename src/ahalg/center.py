"""Center, centralizer of x, and commutator-space membership.

In characteristic 0 the center is just the scalars.  In characteristic p it
is a polynomial algebra on two generators: x^p and the central element

    h^p y^p  =  Y^p - (delta^p(x)/h) * Y,

whose ``correction`` polynomial delta^p(x)/h has a closed form (:func:`center`),
computed once per h and kept in the record of h (``correction``).
The whole algebra is then a free module over the center with basis
``x^i h^j y^j`` (0 <= i, j < p); :func:`central_decompose` reads the
coordinates of an element in ``h^j y^j`` (``weyl.hy_coordinates``), as do
the centralizer and [x, A] tests, and splits off the central powers.

The commutator-space tests decide membership in [x, A], [Y, A] and the Lie
ideal [A, A]: in characteristic 0 all three coincide with h*A and the module
also produces explicit preimages; in characteristic p the two adjoint images
have clean coefficient descriptions, while the full Lie ideal has none and
is deliberately left unimplemented.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .algebra import COMMUTATOR_SPACES, AhContext, OreElement, _element, commutator
from .errors import CharacteristicError, SelfCheckError
from .fields import FieldElem
from .poly import Poly, _add, _dense_terms, _kept, _mulmod, _powmod, _red, _spread, _tail
from .weyl import from_hy_coordinates, hy_coordinates


class CenterDescription(namedtuple(
        "CenterDescription", "characteristic x_generator y_generator correction")):
    __slots__ = ()

    @property
    def is_trivial(self) -> bool:
        return self.characteristic == 0


def center(ctx: AhContext) -> CenterDescription:
    """Describe the center: scalars in char 0, two generators in char p.

    In char p, C = delta^p(x)/h = sum_(k<d) c_k x^(kp), d = deg h, with
    c_k = [x^(kp+p-1)] h^(p-1) = [x^(d-1)] G_k / lc(h), where G_k =
    sum_(j>k) h_j R^(j-k-1) mod h, R = x^p mod h (derived in the README).
    Certified by C == h'^(p-1) mod h, as (h d/dx)^j(h) == h'^j h mod h^2
    for every j; for squarefree h that decides C.
    """
    spec, h, d = ctx.spec, ctx.h, ctx.deg_h
    p = spec.characteristic
    if p == 0:
        return CenterDescription(0, None, None, None)
    _dense_terms("center", max(d - 1, 1) * p + 1)
    cs = _kept(h, "correction", _correction) if d else []
    # the dense C, -C and x^p are spread out from residues, with no reduction
    correction, minus, zero = _spread(spec, cs, p), _spread(spec, [-c % p for c in cs], p), Poly.zero(spec)
    y_gen = _element(ctx, (zero, minus) + (zero,) * (p - 2) + (Poly.one(spec),))
    return CenterDescription(p, _spread(spec, (0, 1), p), y_gen, correction)


def _correction(h: Poly) -> list:
    """c_0..c_(d-1) of :func:`center` as residues, checked against
    C == h'^(p-1) mod h, all on raw residue lists mod h (``poly._mulmod``)."""
    p, hs, dh = h.spec.p, h._nums, h.derivative()
    d, inv, tail = len(hs) - 1, pow(hs[-1], -1, p), _tail(hs, p)
    R, G, cs = _powmod([0, 1], p, tail, p), [hs[d]], []
    for k in range(d - 1, -1, -1):
        cs.append(G[d - 1] * inv % p if len(G) == d else 0)
        if k:
            G = _add(_mulmod(R, G, tail, p), [hs[k]], p)
    C = _red(cs[:1], p)
    for c in cs[1:]:  # Horner in R, down to c_0
        C = _add(_mulmod(C, R, tail, p), [c], p)
    if C != _powmod(dh._nums, p - 1, tail, p):
        raise SelfCheckError("the correction is not h'^(p-1) modulo h")
    return cs[::-1]


def is_central(a: OreElement) -> bool:
    """True iff a commutes with both generators."""
    ctx = a.ctx
    return commutator(a, ctx.x()).is_zero() and commutator(a, ctx.gen()).is_zero()


def centralizer_x_membership(a: OreElement) -> bool:
    """Membership in the centralizer of x.

    Decided by the commutator and cross-checked against the structural
    description: polynomials only in characteristic 0, and coordinates in
    ``h^j y^j`` supported on multiples of p in characteristic p.
    """
    ctx = a.ctx
    verdict = commutator(a, ctx.x()).is_zero()
    p = ctx.spec.characteristic
    if p == 0:
        structural = len(a.coeffs) <= 1
    else:
        structural = all(f.is_zero() for j, f in enumerate(hy_coordinates(a)) if j % p)
    if verdict != structural:
        raise SelfCheckError("centralizer criteria disagree")
    return verdict


class CentralDecomposition(namedtuple("CentralDecomposition", "ctx table")):
    """Coordinates of an element over the center in the basis x^i h^j y^j.

    ``table[(i, j)]`` maps central exponent pairs (a, b) to the coefficient
    of (x^p)^a (h^p y^p)^b multiplying the basis element x^i h^j y^j.
    """

    __slots__ = ()

    def reassemble(self) -> OreElement:
        ctx = self.ctx
        p = ctx.spec.characteristic
        acc: dict[int, Poly] = {}
        for (i, j), cell in self.table.items():
            for (a, b), coeff in cell.items():
                ypow = b * p + j
                poly = Poly.monomial(ctx.spec, coeff, a * p + i)
                acc[ypow] = acc.get(ypow, Poly.zero(ctx.spec)) + poly
        fs = [acc.get(j, Poly.zero(ctx.spec)) for j in range(max(acc, default=-1) + 1)]
        return from_hy_coordinates(fs, ctx)


def central_decompose(a: OreElement) -> CentralDecomposition:
    """Write a over the center in the free basis {x^i h^j y^j : 0 <= i,j < p}.

    Reads the coordinates f_b of a in ``h^b y^b``: each monomial x^e h^b y^b
    splits off powers of the central x^p and h^p y^p, leaving one basis
    monomial with a central coordinate.
    """
    ctx = a.ctx
    p = ctx.spec.characteristic
    if p == 0:
        raise CharacteristicError("central decomposition requires char p")
    table: dict[tuple[int, int], dict[tuple[int, int], FieldElem]] = {}
    for ypow, f in enumerate(hy_coordinates(a)):
        b_low, b_high = ypow % p, ypow // p
        for xexp, c in enumerate(f._nums):  # residues: a field element only for each nonzero one
            if c:
                # (xexp, ypow) fixes both the cell and the key: no entry repeats
                table.setdefault((xexp % p, b_low), {})[(xexp // p, b_high)] = FieldElem(ctx.spec, c)
    return CentralDecomposition(ctx, table)


def in_commutator_space(a: OreElement, space: str) -> bool:
    """Decide membership in [x, A], [Y, A], or the Lie ideal [A, A].

    Characteristic 0: all three coincide with h*A (every Y-coefficient is
    divisible by h).  Characteristic p: membership in the two adjoint images
    is a coefficient condition on the coordinates in ``h^j y^j`` (for x) or
    on the normal form (for Y); the Lie ideal has no closed description and
    raises ``NotImplementedError``.
    """
    if space not in COMMUTATOR_SPACES:
        raise ValueError(f"unknown commutator space {space!r}")
    ctx = a.ctx
    p = ctx.spec.characteristic
    if p == 0:
        return all(ctx.h.divides(f) for f in a.coeffs)
    if space == "lie_ideal":
        raise NotImplementedError(
            "no closed-form membership test for the Lie ideal in char p"
        )
    if space == "bracket_x":
        # [x, g h^(i+1) y^(i+1)] = -(i+1) (h g) h^i y^i, and i + 1 = 0 in F when p | i + 1
        return all(
            f.is_zero() if i % p == p - 1 else ctx.h.divides(f)
            for i, f in enumerate(hy_coordinates(a))
        )
    # bracket_yhat: each coefficient lies in h * im(d/dx), which has no x^(kp - 1)
    quotients = (divmod(f, ctx.h) for f in a.coeffs)
    return all(not rem and not any(q._nums[p - 1::p]) for q, rem in quotients)


def bracket_x_preimage(a: OreElement) -> OreElement:
    """In char 0, an explicit b with [x, b] == a, for a in h*A.

    Built on the coordinates in ``h^i y^i``: h*g*h^i*y^i has preimage
    -g/(i+1) * h^(i+1) y^(i+1).
    """
    ctx = a.ctx
    if ctx.spec.characteristic != 0:
        raise CharacteristicError("preimage construction is the char-0 one")
    if not in_commutator_space(a, "bracket_x"):
        raise ValueError("element is not in [x, A]")
    spec = ctx.spec
    fs = [Poly.zero(spec)]
    for i, f in enumerate(hy_coordinates(a)):
        g, rem = divmod(f, ctx.h)
        if not rem.is_zero():
            raise SelfCheckError("h must divide the coordinate of h^i y^i")
        fs.append(g.scaled(Fraction(-1, i + 1)))
    b = from_hy_coordinates(fs, ctx)
    if commutator(ctx.x(), b) != a:
        raise SelfCheckError("[x, b] differs from the element")
    return b


def bracket_yhat_preimage(a: OreElement) -> OreElement:
    """In char 0, an explicit b with [Y, b] == a, for a in h*A.

    Coefficientwise: an antiderivative of f_i/h works, since [Y, g Y^i] = h g' Y^i;
    a is in [Y, A] exactly when h divides every f_i.
    """
    ctx = a.ctx
    if ctx.spec.characteristic != 0:
        raise CharacteristicError("preimage construction is the char-0 one")
    coeffs = []
    for f in a.coeffs:
        q, rem = divmod(f, ctx.h)
        if not rem.is_zero():
            raise ValueError("element is not in [Y, A]")
        coeffs.append(Poly(ctx.spec, [0] + [c / (j + 1) for j, c in enumerate(q._values())]))
    b = _element(ctx, coeffs)
    if commutator(ctx.gen(), b) != a:
        raise SelfCheckError("[Y, b] differs from the element")
    return b
