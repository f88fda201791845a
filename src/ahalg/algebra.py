"""The algebra generated by x and Y with relation Y*x - x*Y = h(x).

Every element has a unique normal form ``sum_i f_i(x) * Y^i`` with the
polynomial coefficients kept on the left; :class:`OreElement` stores that
coefficient list and :class:`AhContext` fixes the field and the commutation
polynomial h.  Multiplication reorders products with the closed-form rule

    Y^n * f  =  sum_{j=0..n}  C(n, j) * delta^j(f) * Y^(n-j)

where ``delta(f) = h * f'`` is the derivation that the relation induces on
the polynomial subring.  Binomial coefficients are taken in Z and mapped
into the field, so they vanish automatically in characteristic p.  Each
output coefficient is one ``sum_of_products`` of its terms, normalized once.

On the same term kernel (``_table`` and ``_terms``) this module provides the
commutator (only the terms with j >= 1), the involutive anti-automorphism
fixing x and sending Y to -Y + h' (by Horner), and exact one-sided division
by a fixed element, solved top-down (a complete decision procedure for
one-sided multiple membership); and substitution of generator images (used
for endomorphisms and basis changes), whose x-image is a polynomial, so each
coefficient is one ``Poly.compose``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import ContextMismatch, SelfCheckError, ZeroInputError
from .fields import FieldElem, FieldSpec
from .poly import NEG_INF, Poly, format_poly, sum_of_products


class AhContext:
    """A fixed field and a fixed nonzero h; the home of its elements."""

    __slots__ = ("spec", "h", "h_prime", "gen_symbol")

    def __init__(self, spec: FieldSpec, h: Poly, gen_symbol: str = "Y"):
        if h.spec != spec:
            raise ContextMismatch("h is not a polynomial over the given field")
        if h.is_zero():
            raise ZeroInputError("h must be nonzero")
        self.spec = spec
        self.h = h
        self.h_prime = h.derivative()
        self.gen_symbol = gen_symbol

    @property
    def deg_h(self) -> int:
        return self.h.degree

    def __eq__(self, other):
        return (
            isinstance(other, AhContext)
            and self.spec == other.spec
            and self.h == other.h
        )

    def __hash__(self):
        return hash((self.spec, self.h))

    def __repr__(self):
        return f"A_h({self.spec!r}, h={self.h})"

    # -- element constructors -------------------------------------------

    def element(self, coeffs) -> "OreElement":
        return OreElement(self, coeffs)

    def zero(self) -> "OreElement":
        return OreElement(self, ())

    def one(self) -> "OreElement":
        return OreElement(self, (Poly.one(self.spec),))

    def x(self) -> "OreElement":
        return OreElement(self, (Poly.x(self.spec),))

    def gen(self) -> "OreElement":
        """The distinguished generator (printed as Y, or y in the Weyl view)."""
        return OreElement(self, (Poly.zero(self.spec), Poly.one(self.spec)))

    def from_poly(self, f: Poly) -> "OreElement":
        return OreElement(self, (f,))

    def from_scalar(self, c) -> "OreElement":
        return OreElement(self, (Poly.constant(self.spec.elem(c)),))

    def monomial(self, f: Poly, i: int) -> "OreElement":
        return OreElement(self, (Poly.zero(self.spec),) * i + (f,))

    # -- the derivation delta(f) = h f' ----------------------------------

    def delta(self, f: Poly) -> Poly:
        return f.derivative() * self.h

    def delta_power(self, f: Poly, j: int) -> Poly:
        if j < 0:
            raise ValueError("delta power must be nonnegative")
        for _ in range(j):
            f = f.derivative() * self.h
        return f


class OreElement:
    """An element in normal form: coefficient ``coeffs[i]`` multiplies Y^i."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: AhContext, coeffs=()):
        cs = []
        for c in coeffs:
            if isinstance(c, Poly):
                if c.spec is not ctx.spec and c.spec != ctx.spec:
                    raise ContextMismatch("coefficient over the wrong field")
            else:
                c = Poly(ctx.spec, (c,))
            cs.append(c)
        while cs and cs[-1].is_zero():
            cs.pop()
        self.ctx = ctx
        self.coeffs = tuple(cs)

    # -- structure --------------------------------------------------------

    @property
    def ydeg(self):
        """Highest power of the generator, or -inf for zero."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def coeff(self, i: int) -> Poly:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Poly.zero(self.ctx.spec)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FieldElem, Poly)):
            other = _lift(self.ctx, other)
        if not isinstance(other, OreElement):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def _mate(self, other) -> "OreElement":
        if isinstance(other, (int, Fraction, FieldElem, Poly)):
            return _lift(self.ctx, other)
        if not isinstance(other, OreElement):
            return NotImplemented
        if other.ctx is not self.ctx and other.ctx != self.ctx:
            raise ContextMismatch(f"{self.ctx!r} vs {other.ctx!r}")
        return other

    # -- module operations --------------------------------------------------

    def __add__(self, other):
        other = self._mate(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return OreElement(
            self.ctx, [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._mate(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return OreElement(
            self.ctx, [self.coeff(i) - other.coeff(i) for i in range(n)]
        )

    def __rsub__(self, other):
        other = self._mate(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return OreElement(self.ctx, [-c for c in self.coeffs])

    # -- multiplication -------------------------------------------------------

    def __mul__(self, other):
        other = self._mate(other)
        if other is NotImplemented:
            return NotImplemented
        return _mul(self, other)

    def __rmul__(self, other):
        # only scalars/polynomials reach here; lift and multiply on the left
        lifted = _lift(self.ctx, other)
        if lifted is NotImplemented:
            return NotImplemented
        return _mul(lifted, self)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers do not exist in the algebra")
        # square-and-multiply: powers of one element commute
        result, base = self.ctx.one(), self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{format_element(self)}>"


def _lift(ctx: AhContext, value):
    if isinstance(value, OreElement):
        return value
    if isinstance(value, Poly):
        return OreElement(ctx, (value,))
    if isinstance(value, (int, Fraction, FieldElem)):
        return OreElement(ctx, (Poly(ctx.spec, (value,)),))
    return NotImplemented


def _table(ctx: AhContext, g: Poly, depth: int) -> list:
    """``[g, delta(g), ..., delta^(depth-1)(g)]``, cut at its first zero."""
    table = [g] if g else []
    while 0 < len(table) < depth:
        d = ctx.delta(table[-1])
        if d.is_zero():
            break
        table.append(d)
    return table


def _terms(slots, f: Poly, i: int, table, j: int, p: int, sign=1, low=0):
    """Append the terms of ``f*Y^i * table[0]*Y^j`` with m >= low:
    ``sign * C(i, m) * f * delta^m(g)`` goes to slot ``i - m + j``."""
    if f:
        for m in range(low, min(i + 1, len(table))):
            # C(i, m) as an integer, reduced so it vanishes in char p
            c = comb(i, m) % p if p else comb(i, m)
            if c:
                slots[i - m + j].append((sign * c, f, table[m]))


def _mul(a: OreElement, b: OreElement) -> OreElement:
    ctx, na = a.ctx, len(a.coeffs)
    p = ctx.spec.characteristic
    slots = [[] for _ in range(na + len(b.coeffs) - 1)]
    for j, g in enumerate(b.coeffs):
        table = _table(ctx, g, na)  # shared by all left coefficients
        for i, f in enumerate(a.coeffs):
            _terms(slots, f, i, table, j, p)
    return OreElement(ctx, [sum_of_products(ctx.spec, s) for s in slots])


def commutator(a, b) -> OreElement:
    """The ring commutator a*b - b*a; either side may be a polynomial or scalar.
    Only the terms with m >= 1 are formed: those with m = 0 cancel."""
    a = a if isinstance(a, OreElement) else _lift(b.ctx, a)
    b = NotImplemented if a is NotImplemented else a._mate(b)
    if b is NotImplemented:
        raise TypeError("the commutator needs elements, polynomials or scalars")
    ctx, p = a.ctx, a.ctx.spec.characteristic
    na, nb = len(a.coeffs), len(b.coeffs)
    slots = [[] for _ in range(na + nb - 2)]
    for sign, (x, y) in ((1, (a, b)), (-1, (b, a))):
        for j, g in enumerate(y.coeffs):
            table = _table(ctx, g, len(x.coeffs))
            for i, f in enumerate(x.coeffs):
                _terms(slots, f, i, table, j, p, sign, 1)
    return OreElement(ctx, [sum_of_products(ctx.spec, s) for s in slots])


def apply_poly_map(a: OreElement, x_image: Poly, y_image: OreElement) -> OreElement:
    """Substitute images for the generators: ``sum f_i(P) * Q^i``.

    ``x_image`` is a polynomial P over the field of a and of the target,
    which ``y_image`` fixes; anything else raises :class:`ContextMismatch`.
    Each coefficient is ``f_i.compose(P)``, multiplied on the left of the
    powers of the Y-image.
    """
    target = y_image.ctx
    if not isinstance(x_image, Poly) or not x_image.spec == target.spec == a.ctx.spec:
        raise ContextMismatch("the x-image must be a polynomial over the target's field")
    result = target.zero()
    q_power = target.one()
    for i, f in enumerate(a.coeffs):
        if i:
            q_power = q_power * y_image
        if f:
            result = result + target.from_poly(f.compose(x_image)) * q_power
    return result


def antiautomorphism(a: OreElement) -> OreElement:
    """The involutive anti-automorphism fixing x and sending Y to -Y + h'.

    It reverses products, so the image of ``sum f_i * Y^i`` is
    ``sum (h' - Y)^i * f_i``, evaluated by Horner: ``r <- (h' - Y)*r + f_i``
    from the top coefficient down, one delta per coefficient of r.
    """
    ctx, p = a.ctx, a.ctx.spec.characteristic
    one = Poly.one(ctx.spec)
    flip = (ctx.h_prime, -one)
    r = []
    for f in reversed(a.coeffs):
        slots = [[(1, one, f)]] + [[] for _ in r]
        for k, g in enumerate(r):
            table = _table(ctx, g, 2)
            for i, c in enumerate(flip):
                _terms(slots, c, i, table, k, p)
        r = [sum_of_products(ctx.spec, s) for s in slots]
    return ctx.element(r)


def div_left_exact(w: OreElement, v: OreElement) -> OreElement | None:
    """Solve ``w == v * q`` exactly; return q, or None when no such q exists.

    Works from the top Y-degree down: each quotient coefficient is forced by
    one exact polynomial division by the divisor's top coefficient, and each
    lower coefficient of w must then be matched exactly.
    """
    return _div_one_sided(w, v, left=True)


def div_right_exact(w: OreElement, v: OreElement) -> OreElement | None:
    """Solve ``w == q * v`` exactly; return q, or None when no such q exists."""
    return _div_one_sided(w, v, left=False)


def _div_one_sided(w, v, left):
    # Top-down solve: the Y^s coefficient of v*q (or q*v) is lc(v) * q_(s-kv)
    # plus terms of the q_j with j > s-kv, known by then.  Slot s holds w_s
    # minus those terms, and every slot must come out matched.
    if v.is_zero():
        raise ZeroDivisionError("division by the zero element")
    ctx = w.ctx
    if v.ctx != ctx:
        raise ContextMismatch("divisor from a different context")
    spec, p = ctx.spec, ctx.spec.characteristic
    kv, kw = len(v.coeffs) - 1, len(w.coeffs) - 1
    slots = [[(1, Poly.one(spec), c)] for c in w.coeffs]
    quot = [Poly.zero(spec)] * max(kw - kv + 1, 0)
    tables = [] if left else [_table(ctx, c, len(quot)) for c in v.coeffs]
    for j in range(kw - kv, -1, -1):
        s = j + kv
        r, slots[s] = sum_of_products(spec, slots[s]), []
        quot[j], rem = divmod(r, v.coeffs[-1])
        if rem:
            return None
        # the lead's m = 0 term, lc(v) * q_j, is the one matched in slot s
        if left:
            table = _table(ctx, quot[j], kv + 1)
            for i, c in enumerate(v.coeffs):
                _terms(slots, c, i, table, j, p, -1, i == kv)
        else:
            for i, table in enumerate(tables):
                _terms(slots, quot[j], j, table, i, p, -1, i == kv)
        if any(slots[s:]):
            raise SelfCheckError("one-sided division put a term above its solved slot")
    if any(sum_of_products(spec, t) for t in slots[:kv]):
        return None
    return ctx.element(quot)


def format_element(a: OreElement) -> str:
    """Canonical text form, highest Y-power first: ``Y^2 + 2*x*Y + x^3``."""
    if a.is_zero():
        return "0"
    sym = a.ctx.gen_symbol
    parts = []
    for i in range(len(a.coeffs) - 1, -1, -1):
        f = a.coeffs[i]
        if f.is_zero():
            continue
        body = _element_term(f, sym, i)
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(" - " + body[1:])
        else:
            parts.append(" + " + body)
    return "".join(parts)


def _element_term(f: Poly, sym: str, i: int) -> str:
    if i == 0:
        return format_poly(f)
    y = sym if i == 1 else f"{sym}^{i}"
    if f.is_one():
        return y
    if f == -Poly.one(f.spec):
        return f"-{y}"
    body = format_poly(f)
    if len([c for c in f.coeffs if not c.is_zero()]) > 1:
        return f"({body})*{y}"
    return f"{body}*{y}"
