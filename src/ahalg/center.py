"""Center, centralizer of x, and commutator-space membership.

In characteristic 0 the center is just the scalars.  In characteristic p it
is a polynomial algebra on two generators: x^p and the central element

    h^p y^p  =  Y^p - (delta^p(x)/h) * Y,

whose ``correction`` polynomial delta^p(x)/h is always an exact division.
The whole algebra is then a free module over the center with basis
``x^i h^j y^j`` (0 <= i, j < p), and :func:`central_decompose` computes the
coordinates of any element in that basis.

The commutator-space tests decide membership in [x, A], [Y, A] and the Lie
ideal [A, A]: in characteristic 0 all three coincide with h*A and the module
also produces explicit preimages; in characteristic p the two adjoint images
have clean coefficient descriptions, while the full Lie ideal has none and
is deliberately left unimplemented.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AhContext, OreElement, commutator
from .errors import CharacteristicError, SelfCheckError
from .fields import FieldElem
from .poly import Poly
from .weyl import from_weyl, to_weyl, weyl_context

COMMUTATOR_SPACES = ("bracket_x", "bracket_yhat", "lie_ideal")


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
    """Describe the center: scalars in char 0, two generators in char p."""
    p = ctx.spec.characteristic
    if p == 0:
        return CenterDescription(0, None, None, None)
    correction, rem = divmod(ctx.delta_power(Poly.x(ctx.spec), p), ctx.h)
    if not rem.is_zero():
        raise SelfCheckError("h must divide every delta power of x")
    y_gen = ctx.monomial(Poly.one(ctx.spec), p) - ctx.monomial(correction, 1)
    return CenterDescription(p, Poly.x(ctx.spec) ** p, y_gen, correction)


def is_central(a: OreElement) -> bool:
    """True iff a commutes with both generators."""
    ctx = a.ctx
    return commutator(a, ctx.x()).is_zero() and commutator(a, ctx.gen()).is_zero()


def centralizer_x_membership(a: OreElement) -> bool:
    """Membership in the centralizer of x.

    Decided by the commutator and cross-checked against the structural
    description: polynomials only in characteristic 0, and Weyl coefficients
    supported on powers of p in characteristic p.
    """
    ctx = a.ctx
    verdict = commutator(a, ctx.x()).is_zero()
    p = ctx.spec.characteristic
    if p == 0:
        structural = len(a.coeffs) <= 1
    else:
        w = to_weyl(a)
        structural = all(
            r.is_zero() for i, r in enumerate(w.coeffs) if i % p
        )
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
        wctx = weyl_context(ctx.spec)
        acc: dict[int, Poly] = {}
        for (i, j), cell in self.table.items():
            for (a, b), coeff in cell.items():
                xexp = a * p + i
                ypow = b * p + j
                poly = Poly.monomial(ctx.spec, coeff, xexp) * ctx.h**ypow
                acc[ypow] = acc.get(ypow, Poly.zero(ctx.spec)) + poly
        size = max(acc) + 1 if acc else 0
        w = wctx.element([acc.get(i, Poly.zero(ctx.spec)) for i in range(size)])
        return from_weyl(w, ctx)


def central_decompose(a: OreElement) -> CentralDecomposition:
    """Write a over the center in the free basis {x^i h^j y^j : 0 <= i,j < p}.

    Uses the Weyl expansion: each monomial x^e h^b y^b splits off p-th powers
    of x and of h y, leaving one basis monomial with a central coordinate.
    """
    ctx = a.ctx
    p = ctx.spec.characteristic
    if p == 0:
        raise CharacteristicError("central decomposition requires char p")
    w = to_weyl(a)
    table: dict[tuple[int, int], dict[tuple[int, int], FieldElem]] = {}
    for ypow, r in enumerate(w.coeffs):
        if r.is_zero():
            continue
        f, rem = divmod(r, ctx.h**ypow)
        if not rem.is_zero():
            raise SelfCheckError("element of the subalgebra expected")
        b_low, b_high = ypow % p, ypow // p
        for xexp, c in enumerate(f.coeffs):
            if c.is_zero():
                continue
            i, a_high = xexp % p, xexp // p
            cell = table.setdefault((i, b_low), {})
            key = (a_high, b_high)
            cur = cell.get(key)
            cell[key] = c if cur is None else cur + c
    return CentralDecomposition(ctx, table)


def in_commutator_space(a: OreElement, space: str) -> bool:
    """Decide membership in [x, A], [Y, A], or the Lie ideal [A, A].

    Characteristic 0: all three coincide with h*A (every Y-coefficient is
    divisible by h).  Characteristic p: membership in the two adjoint images
    is a coefficient condition on the Weyl (for x) or normal-form (for Y)
    expansion; the Lie ideal has no closed description and raises
    ``NotImplementedError``.
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
        w = to_weyl(a)
        for i, r in enumerate(w.coeffs):
            if i % p == p - 1:
                if not r.is_zero():
                    return False
            elif not (ctx.h ** (i + 1)).divides(r):
                return False
        return True
    # bracket_yhat: each coefficient lies in h * im(d/dx)
    for f in a.coeffs:
        q, rem = divmod(f, ctx.h)
        if not rem.is_zero():
            return False
        if any(
            not c.is_zero() for j, c in enumerate(q.coeffs) if j % p == p - 1
        ):
            return False
    return True


def bracket_x_preimage(a: OreElement) -> OreElement:
    """In char 0, an explicit b with [x, b] == a, for a in h*A.

    Built in the Weyl view: h*g*h^i*y^i has preimage -g/(i+1) * h^(i+1) y^(i+1).
    """
    ctx = a.ctx
    if ctx.spec.characteristic != 0:
        raise CharacteristicError("preimage construction is the char-0 one")
    if not in_commutator_space(a, "bracket_x"):
        raise ValueError("element is not in [x, A]")
    spec = ctx.spec
    w = to_weyl(a)
    acc: dict[int, Poly] = {}
    for i, r in enumerate(w.coeffs):
        if r.is_zero():
            continue
        g, rem = divmod(r, ctx.h ** (i + 1))
        if not rem.is_zero():
            raise SelfCheckError("h^(i+1) must divide the Weyl coefficient of y^i")
        scale = -spec.from_int(i + 1).inverse()
        acc[i + 1] = g.scaled(scale) * ctx.h ** (i + 1)
    wctx = weyl_context(spec)
    size = max(acc) + 1 if acc else 0
    w_pre = wctx.element([acc.get(i, Poly.zero(spec)) for i in range(size)])
    b = from_weyl(w_pre, ctx)
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
