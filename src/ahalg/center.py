"""Center, centralizer of x, and commutator-space membership.

In characteristic 0 the center is just the scalars.  In characteristic p it
is a polynomial algebra on two generators: x^p and the central element

    h^p y^p  =  Y^p - (delta^p(x)/h) * Y,

whose ``correction`` polynomial delta^p(x)/h has a closed form (:func:`center`),
computed once per context and kept in its record (``AhContext.facts``).
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

from dataclasses import dataclass

from .algebra import COMMUTATOR_SPACES, AhContext, OreElement, commutator
from .errors import AhError, CharacteristicError, SelfCheckError
from .fields import FieldElem
from .poly import MAX_DENSE_TERMS, Poly, _add, _mulmod, _powmod, _red, _spread, _tail
from .weyl import from_hy_coordinates, hy_coordinates


@dataclass(frozen=True)
class CenterDescription:
    characteristic: int
    x_generator: Poly | None
    y_generator: OreElement | None
    correction: Poly | None

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
    terms = max(d - 1, 1) * p + 1
    if terms > MAX_DENSE_TERMS:
        raise AhError(f"center too large: {terms} coefficients, limit {MAX_DENSE_TERMS}")
    cs = ctx.fact("correction", _correction) if d else []
    correction, zero = _spread(spec, cs, p), Poly.zero(spec)
    y_gen = ctx.element((zero, -correction) + (zero,) * (p - 2) + (Poly.one(spec),))
    return CenterDescription(p, Poly.monomial(spec, 1, p), y_gen, correction)


def _correction(ctx: AhContext) -> list:
    """c_0..c_(d-1) of :func:`center` as residues, checked against
    C == h'^(p-1) mod h, all on raw residue lists mod h (``poly._mulmod``)."""
    p, hs, dh = ctx.spec.p, ctx.h._nums, ctx.h_prime
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


@dataclass(frozen=True)
class CentralDecomposition:
    """Coordinates of an element over the center in the basis x^i h^j y^j.

    ``table[(i, j)]`` maps central exponent pairs (a, b) to the coefficient
    of (x^p)^a (h^p y^p)^b multiplying the basis element x^i h^j y^j.
    """

    ctx: AhContext
    table: dict[tuple[int, int], dict[tuple[int, int], FieldElem]]

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
        for xexp, c in enumerate(f.coeffs):
            if c.is_zero():
                continue
            i, a_high = xexp % p, xexp // p
            # (xexp, ypow) fixes both the cell and the key: no entry repeats
            table.setdefault((i, b_low), {})[(a_high, b_high)] = c
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
    # bracket_yhat: each coefficient lies in h * im(d/dx)
    for f in a.coeffs:
        q, rem = divmod(f, ctx.h)
        if not rem.is_zero():
            return False
        if any(not c.is_zero() for j, c in enumerate(q.coeffs) if j % p == p - 1):
            return False
    return True


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
        fs.append(g.scaled(-spec.from_int(i + 1).inverse()))
    b = from_hy_coordinates(fs, ctx)
    if commutator(ctx.x(), b) != a:
        raise SelfCheckError("[x, b] differs from the element")
    return b


def bracket_yhat_preimage(a: OreElement) -> OreElement:
    """In char 0, an explicit b with [Y, b] == a, for a in h*A.

    Coefficientwise: an antiderivative of f_i/h works, since [Y, g Y^i] = h g' Y^i.
    """
    ctx = a.ctx
    if ctx.spec.characteristic != 0:
        raise CharacteristicError("preimage construction is the char-0 one")
    if not in_commutator_space(a, "bracket_yhat"):
        raise ValueError("element is not in [Y, A]")
    spec = ctx.spec
    coeffs = []
    for f in a.coeffs:
        q, rem = divmod(f, ctx.h)
        if not rem.is_zero():
            raise SelfCheckError("h must divide every coefficient")
        anti = [spec.zero()] + [
            c / spec.from_int(j + 1) for j, c in enumerate(q.coeffs)
        ]
        coeffs.append(Poly(spec, anti))
    b = ctx.element(coeffs)
    if commutator(ctx.gen(), b) != a:
        raise SelfCheckError("[Y, b] differs from the element")
    return b
