"""The Weyl-algebra view of A_h and conversions between the two bases.

The Weyl algebra is the h = 1 instance of the same Ore machinery, so this
module creates contexts with ``h = 1`` (printed with generator ``y``) and
moves elements across the embedding ``Y = y*h``, under which A_h is
``sum_j F[x] h^j y^j``.  No other module reads these coordinates f_j:

* ``hy_coordinates`` and its inverse ``from_hy_coordinates`` use the rows of
  Y^i in the basis ``h^j y^j``, which are unitriangular: O(n^2) products at
  Y-degree n, one normalize step per output coefficient, and no division.
  The rows depend only on h, so they live on the context, row i as
  numerators over ``den(h)^i``: built once on first use, and grown from the
  last row when a higher Y-degree is asked for; an entry is one ``_delta``
  step of the entry above, ``(j+1) h'`` times that entry, and the shifted one;
* ``to_weyl`` gives ``sum f_j h^j y^j``; ``from_weyl`` inverts it, which
  succeeds exactly when ``h^j`` divides the coefficient of ``y^j`` for all j;
* ``yh_product`` builds the telescoping products that express ``y^i h^i``
  and ``h^i y^i`` in terms of the subalgebra generator;
* ``embed`` maps A_g into A_f along g = f*v by multiplying the coordinates by
  ``v^j``, with no Weyl round trip and no division by ``f^j``;
* ``ore_witness`` produces common-denominator witnesses for the powers of a
  fixed polynomial, and ``localized_equal`` compares right fractions over
  the powers of h without building a localization type.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AhContext, OreElement, _delta, div_right_exact
from .errors import (
    ContextMismatch,
    NotDivisibleError,
    NotInSubalgebraError,
    SelfCheckError,
    ZeroInputError,
)
from .fields import FieldSpec
from .poly import Poly, _mul_add, sum_of_raw_products


def weyl_context(spec: FieldSpec) -> AhContext:
    """The Weyl algebra over the given field: relation y*x - x*y = 1."""
    return AhContext(spec, Poly.one(spec), gen_symbol="y")


def is_weyl_context(ctx: AhContext) -> bool:
    return ctx.h.is_one()


def _hy_rows(ctx: AhContext, n: int) -> list[list[list[int]]]:
    """``rows[i][j]`` is the coefficient of h^j y^j in Y^i (i <= n), raw numerators over
    ``den(h)^i``.  Kept on ctx as ``hy_rows``, grown from its last row into a copy."""
    return ctx.grown("hy_rows", n + 1, _grow_hy_rows)


def _grow_hy_rows(ctx: AhContext, rows, size: int) -> list[list[list[int]]]:
    h, hd = ctx.h._nums, ctx.h._den
    hp = [k * h[k] for k in range(1, len(h))]  # h' over hd
    rows = list(rows) or [[[1]]]
    while len(rows) < size:
        # (y h)(r h^j y^j) = r h^(j+1) y^(j+1) + (h r' + (j+1) h' r) h^j y^j
        prev = rows[-1] + [[]]  # prev[-1] is zero: no shifted term at j = 0
        rows.append([
            _delta(ctx, r, _mul_add([v * hd for v in prev[j - 1]], j + 1, hp, r))
            for j, r in enumerate(prev)
        ])
    return rows


def hy_coordinates(a: OreElement) -> list[Poly]:
    """The coordinates f_j of a in ``sum_j F[x] h^j y^j``: ``f_j = sum_i a_i * rows[i][j]``."""
    spec, fs, n = a.ctx.spec, a.coeffs, len(a.coeffs)
    rows, hd = _hy_rows(a.ctx, n - 1), a.ctx.h._den
    dens = [f._den * hd**i for i, f in enumerate(fs)]  # of a_i times row i
    return [sum_of_raw_products(spec, [(1, fs[i]._nums, rows[i][j], dens[i]) for i in range(j, n)])
            for j in range(n)]


def from_hy_coordinates(fs, ctx: AhContext) -> OreElement:
    """The element with coordinates fs: the unitriangular system is solved
    top-down, ``a_j = f_j - sum_(i > j) a_i * rows[i][j]``, with no division."""
    n = len(fs)
    rows, ds = _hy_rows(ctx, n - 1), [ctx.h._den**i for i in range(n)]
    out = [None] * n
    for j in range(n - 1, -1, -1):
        terms = [(-1, out[i]._nums, rows[i][j], out[i]._den * ds[i]) for i in range(j + 1, n)]
        out[j] = sum_of_raw_products(ctx.spec, terms + [(1, fs[j]._nums, (1,), fs[j]._den)])
    return ctx.element(out)


def _powers(f: Poly, n: int) -> list[Poly]:
    """``[f^0, ..., f^(n-1)]``, one product per power."""
    out = [Poly.one(f.spec)] if n else []
    while len(out) < n:
        out.append(out[-1] * f)
    return out


def to_weyl(a: OreElement) -> OreElement:
    """Expand a through Y = y*h: the coefficient of y^j is ``f_j * h^j``."""
    fs = hy_coordinates(a)
    hs = _powers(a.ctx.h, len(fs))
    return weyl_context(a.ctx.spec).element([f * hj for f, hj in zip(fs, hs)])


def from_weyl(w: OreElement, ctx: AhContext) -> OreElement:
    """The unique preimage of w under ``to_weyl``: the quotients w_j / h^j are
    its coordinates.  Raises :class:`NotInSubalgebraError` with the highest j
    for which h^j does not divide w_j."""
    if not is_weyl_context(w.ctx):
        raise ContextMismatch("from_weyl expects an element of the Weyl algebra")
    if w.ctx.spec != ctx.spec:
        raise ContextMismatch("Weyl element over a different field")
    ws = w.coeffs
    hs, fs = _powers(ctx.h, len(ws)), [None] * len(ws)
    for j in range(len(ws) - 1, -1, -1):
        fs[j], rem = divmod(ws[j], hs[j])
        if not rem.is_zero():
            raise NotInSubalgebraError(j)
    return from_hy_coordinates(fs, ctx)


def yh_product(ctx: AhContext, i: int, side: str = "right") -> OreElement:
    """The product expressing a pure Weyl monomial inside the subalgebra.

    ``side="right"`` gives Y(Y + h')(Y + 2h')...(Y + (i-1)h'), which equals
    y^i h^i; ``side="left"`` gives (Y - ih')(Y - (i-1)h')...(Y - h'), which
    equals h^i y^i.  For i = 0 both are 1.
    """
    if i < 0:
        raise ValueError("power must be nonnegative")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    result = ctx.one()
    yhat = ctx.gen()
    # multiplied in from the left, each factor costs one row step of the result
    for j in reversed(range(i)):
        shift = j if side == "right" else -(i - j)
        factor = yhat + ctx.from_poly(ctx.h_prime.scaled(ctx.spec.from_int(shift)))
        result = factor * result
    return result


def embed(a: OreElement, f: Poly) -> OreElement:
    """Embed an element of A_g into A_f along f | g.

    The map sends the generator of A_g to (generator of A_f) * (g/f); inside
    the common Weyl algebra both expand to y*g.  With g = f*v the
    coordinates carry over: ``a = sum_j c_j g^j y^j = sum_j (c_j v^j) f^j y^j``,
    so the image has coordinates ``c_j v^j`` in the target
    ``AhContext(spec, f)``, and the relation [image, x] = g holds.
    """
    g = a.ctx.h
    if f.spec != a.ctx.spec:
        raise ContextMismatch("divisor over a different field")
    if f.is_zero():
        raise ZeroInputError("cannot embed along a zero divisor")
    v, rem = divmod(g, f)
    if not rem.is_zero():
        raise NotDivisibleError(f"{f} does not divide {g}")
    target = AhContext(a.ctx.spec, f, gen_symbol=a.ctx.gen_symbol)
    cs = hy_coordinates(a)
    return from_hy_coordinates([c * vj for c, vj in zip(cs, _powers(v, len(cs)))], target)


@dataclass(frozen=True)
class OreWitness:
    """A common-denominator witness against the powers of f.

    For ``side="right"`` the identity is ``a * s1 == f * a1``; for
    ``side="left"`` it is ``s1 * a == a1 * f``.
    """

    a1: OreElement
    s1: Poly
    side: str


def ore_witness(a: OreElement, f: Poly, side: str = "right") -> OreWitness:
    """Produce the witness showing {f^n} satisfies the Ore condition at a.

    Uses s1 = f^(k+1) with k the generator-degree of a.  On the right, a1 is
    the coefficientwise quotient of ``a * s1`` by f; on the left, ``s1 * a``
    only scales the coefficients and a1 is its exact right quotient by f.
    Each side checks its identity and raises :class:`SelfCheckError` if it fails.
    """
    if f.is_zero():
        raise ZeroDivisionError("Ore witnesses need a nonzero denominator")
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    ctx = a.ctx
    k = len(a.coeffs) - 1 if a.coeffs else 0
    s1 = f ** (k + 1)
    if side == "right":
        prod = a * s1
        quot = []
        for c in prod.coeffs:
            q, rem = divmod(c, f)
            if not rem.is_zero():
                raise SelfCheckError("Ore divisibility must hold coefficientwise")
            quot.append(q)
        a1 = ctx.element(quot)
        if prod != f * a1:
            raise SelfCheckError("right Ore witness fails a * s1 = f * a1")
        return OreWitness(a1, s1, "right")
    prod = ctx.element([s1 * c for c in a.coeffs])
    a1 = div_right_exact(prod, ctx.from_poly(f))
    if a1 is None or prod != a1 * f:
        raise SelfCheckError("left Ore witness fails s1 * a = a1 * f")
    return OreWitness(a1, s1, "left")


def localized_equal(a: OreElement, m: int, b: OreElement, n: int) -> bool:
    """Compare ``a * h^-m`` and ``b * h^-n`` as right fractions over {h^k}.

    a lives in the subalgebra, b in the Weyl algebra; the fractions agree
    exactly when ``to_weyl(a) * h^n == b * h^m``.
    """
    if m < 0 or n < 0:
        raise ValueError("denominator exponents must be nonnegative")
    if not is_weyl_context(b.ctx):
        raise ContextMismatch("second operand must be a Weyl-algebra element")
    h = a.ctx.h
    return to_weyl(a) * h**n == b * h**m
