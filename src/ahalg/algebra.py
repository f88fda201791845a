"""The algebra generated by x and Y with relation Y*x - x*Y = h(x).

Every element has a unique normal form ``sum_i f_i(x) * Y^i`` with the
polynomial coefficients kept on the left; :class:`OreElement` stores that
coefficient list and :class:`AhContext` fixes the field and the commutation
polynomial h.  Every product rests on the rule ``Y * c*Y^k = c*Y^(k+1) +
delta(c)*Y^k``, where ``delta(c) = h * c'`` (``_delta``, the one raw step that
also serves ``AhContext.delta`` and :mod:`ahalg.weyl`; ``_deltas`` is the one
lazy generator of its powers, behind ``AhContext.delta_power`` and the tables
below): so
``a*b = sum_i f_i * (Y^i*b)``, each row ``Y^(i+1)*b`` one step from the row
``Y^i*b``, each left coefficient multiplied once, and rows built only up to
the last nonzero ``f_i``.

Over GF(p), for factors of Y-degree at least 1, each row is one packed int
(:mod:`ahalg.packed`, loaded at its first use): a row step is a few whole-int
operations (a masked derivative, one int product by h, one packed Montgomery
reduction), ``sum_i f_i * (Y^i*b)`` is one int product per nonzero ``f_i``
into one int, and that int is unpacked and reduced once.  Over QQ, with a polynomial factor, and for operands too
sparse for the packed layout (such as ``Y^1024``), rows are lists of raw
terms (numerators over one denominator with no gcd taken, or residues) and
each output coefficient is one ``sum_of_raw_products``, normalized once.
There a polynomial right factor g takes ``Y^i*g = sum_m C(i, m) delta^m(g)
Y^(i-m)`` from one table of delta powers, only for the i a nonzero ``f_i``
reads, and over GF(p) only for the m with ``C(i, m)`` nonzero mod p (Lucas'
theorem), so ``Y^2401 * x`` over GF(7) reads two table entries.

On the same rows this module provides the commutator (the product's minus
mode: both products in one set of output coefficients), the involutive
anti-automorphism fixing x and sending Y to -Y + h' (by Horner on a raw
accumulator, normalized once), and exact one-sided division by a fixed
element, solved top-down (a complete decision procedure for one-sided
multiple membership); and substitution of generator images (how
automorphisms and endomorphisms are applied), whose x-image is a
polynomial, so each coefficient is one ``Poly.compose``, by Horner in the
Y-image.  Powers of an element run the one top-bit power loop of
:mod:`ahalg.poly` (``_power``).
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import islice
from math import comb, lcm

from .errors import ContextMismatch, SelfCheckError, ZeroInputError
from .fields import FieldElem, FieldSpec
from .poly import NEG_INF, Poly, _join_terms, _mul_add, _poly, _power, _red, format_poly
from .poly import sum_of_raw_products


class AhContext:
    """A fixed field and a fixed nonzero h; the home of its elements.

    What h alone determines is kept in the record of h (:mod:`ahalg.poly`),
    not on the context: contexts over one h object share it, and building
    one, as ``to_weyl`` and ``embed`` do on every call, costs nothing more.
    """

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

    def __reduce__(self):
        return AhContext, (self.spec, self.h, self.gen_symbol)

    def __repr__(self):
        return f"A_h({self.spec!r}, h={self.h})"

    # -- element constructors -------------------------------------------

    def element(self, coeffs) -> "OreElement":
        return OreElement(self, coeffs)

    def zero(self) -> "OreElement":
        return _element(self, ())

    def one(self) -> "OreElement":
        return _element(self, (Poly.one(self.spec),))

    def x(self) -> "OreElement":
        return _element(self, (Poly.x(self.spec),))

    def gen(self) -> "OreElement":
        """The distinguished generator (printed as Y, or y in the Weyl view)."""
        return _element(self, (Poly.zero(self.spec), Poly.one(self.spec)))

    def from_poly(self, f: Poly) -> "OreElement":
        return OreElement(self, (f,))

    def from_scalar(self, c) -> "OreElement":
        return _element(self, (Poly.constant(self.spec.elem(c)),))

    def monomial(self, f: Poly, i: int) -> "OreElement":
        if i < 0:
            raise ValueError("negative powers do not exist in the algebra")
        return OreElement(self, (Poly.zero(self.spec),) * i + (f,))

    # -- the derivation delta(f) = h f' ----------------------------------

    def delta(self, f: Poly) -> Poly:
        return _poly(self.spec, _delta(self.h, f._nums, []), f._den * self.h._den)

    def delta_power(self, f: Poly, j: int) -> Poly:
        if j < 0:
            raise ValueError("delta power must be nonnegative")
        return _poly(self.spec, *next(islice(_deltas(self, f._nums, f._den), j, None), ((), 1)))


class OreElement:
    """An element in normal form: coefficient ``coeffs[i]`` multiplies Y^i.
    The constructor checks and coerces outside values; results built from
    canonical polynomials come from :func:`_element`, which checks none."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: AhContext, coeffs=()):
        cs = []
        for c in coeffs:
            if not isinstance(c, Poly):
                c = Poly(ctx.spec, (c,))
            elif c.spec is not ctx.spec and c.spec != ctx.spec:
                raise ContextMismatch("coefficient over the wrong field")
            cs.append(c)
        a = _element(ctx, cs)
        self.ctx, self.coeffs = a.ctx, a.coeffs

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
        if not isinstance(other, OreElement) and (other := _lift(self.ctx, other)) is NotImplemented:
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def __reduce__(self):  # pickle and copy rebuild from the canonical values, at every protocol
        return OreElement, (self.ctx, self.coeffs)

    # -- module operations --------------------------------------------------

    def _plus(self, other, op):
        other = _lift(self.ctx, other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return _element(self.ctx, [op(self.coeff(i), other.coeff(i)) for i in range(n)])

    def __add__(self, other):
        return self._plus(other, operator.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, operator.sub)

    def __rsub__(self, other):
        return self._plus(other, lambda f, g: g - f)

    def __neg__(self):
        return _element(self.ctx, [-c for c in self.coeffs])

    # -- multiplication -------------------------------------------------------

    def __mul__(self, other):
        other = _lift(self.ctx, other)
        return NotImplemented if other is NotImplemented else _mul(self, other)

    def __rmul__(self, other):  # only scalars and polynomials reach here
        other = _lift(self.ctx, other)
        return NotImplemented if other is NotImplemented else _mul(other, self)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers do not exist in the algebra")
        return _power(self, n, operator.mul, self.ctx.one())

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{format_element(self)}>"


def _element(ctx: AhContext, coeffs) -> OreElement:
    """``sum coeffs[i] * Y^i`` in ctx, from canonical polynomials over ctx.spec,
    with no check, trailing zeros dropped: the element's ``poly._poly``."""
    cs = list(coeffs)
    while cs and not cs[-1]._nums:
        cs.pop()
    a = object.__new__(OreElement)
    a.ctx, a.coeffs = ctx, tuple(cs)
    return a


def _lift(ctx: AhContext, value):
    """value as an element of ctx, the one way in for outside values: an element
    of ctx as it is (of another context, ContextMismatch), an int, Fraction,
    FieldElem or Poly as a checked polynomial, anything else NotImplemented."""
    # OreElement is tested first: Fraction is an ABC, so isinstance against it is slow
    if isinstance(value, OreElement):
        if value.ctx is not ctx and value.ctx != ctx:
            raise ContextMismatch(f"{ctx!r} vs {value.ctx!r}")
        return value
    if isinstance(value, (Poly, int, Fraction, FieldElem)):
        return OreElement(ctx, (value,))
    return NotImplemented


def _delta(h: Poly, c, acc: list, scale=1) -> list:
    """Add ``scale * h * c'`` to the list acc and return it: raw numerators,
    over hd times the denominator of c, reduced mod p."""
    return _red(_mul_add(acc, scale, [i * c[i] for i in range(1, len(c))], h._nums), h.spec.p)


def _excess(ctx: AhContext) -> int:
    """``e = max(deg h - 1, 0)``, the weight of Y when x weighs 1: delta raises the
    degree of a nonconstant polynomial by at most e, and weights add in a product."""
    return max(len(ctx.h._nums) - 2, 0)


def _binomials(i: int, p: int, top=None) -> list:
    """The pairs ``(m, C(i, m) mod p)``, m rising and at most top (default i),
    with ``C(i, m)`` nonzero mod p: by Lucas' theorem, the m whose base-p
    digits are at most those of i, the binomial the product of the digits'
    binomials (each prime to p).  Each digit only raises m, so an m past top
    is dropped as soon as it passes."""
    top = i if top is None else top
    pairs, unit = [(0, 1)] if top >= 0 else [], 1
    while i:
        i, d = divmod(i, p)
        pairs = [(m + k * unit, c * comb(d, k) % p)
                 for k in range(d + 1) for m, c in pairs if m + k * unit <= top]
        unit *= p
    return pairs


def _deltas(ctx: AhContext, nums, den: int):
    """Yield ``(delta^m(g), its denominator)`` for m = 0, 1, ..., g = nums/den,
    as raw numerators, each step taken only when it is read, up to the first
    zero (not yielded)."""
    while nums:
        yield nums, den
        nums, den = _delta(ctx.h, nums, []), den * ctx.h._den


def _table(ctx: AhContext, nums, den: int, top: int) -> list:
    """``[(delta^m(g), its denominator)]`` for m <= top (:func:`_deltas`)."""
    return list(islice(_deltas(ctx, nums, den), top + 1))


def _support(fs) -> list:
    return [i for i, f in enumerate(fs) if f]


def _rows(ctx: AhContext, gs, need):
    """Yield ``(i, Y^i * sum_k gs[k] * Y^k)`` for the rising i in need, each
    row a list of terms ``(k, c, nums, den)``, meaning ``c * nums/den * Y^k``,
    k rising: from the delta table of a polynomial (i deltas, not
    i(i+1)/2), else by steps."""
    p, hd = ctx.spec.p, ctx.h._den
    if len(gs) == 1:
        table = _table(ctx, gs[0]._nums, gs[0]._den, need[-1]) if need else []
        n = len(table)
        for i in need:
            if p:  # only the m digit-wise at most i, by Lucas' theorem
                yield i, [(i - m, c) + table[m] for m, c in reversed(_binomials(i, p, n - 1))]
            else:
                yield i, [(i - m, comb(i, m)) + table[m] for m in range(min(i, n - 1), -1, -1)]
        return
    row, i = [(k, 1, g._nums, g._den) for k, g in enumerate(gs) if g], 0
    for want in need:
        while i < want:
            i, last, row = i + 1, row, []
            den = 1 if p else lcm(*(t[3] for t in last)) * hd
            for k, _, nums, d in last:
                # c*Y^k -> c*Y^(k+1) + delta(c)*Y^k; delta(c) joins the shifted c_(k-1)
                acc = row.pop()[2] if row and row[-1][0] == k else []
                acc = _delta(ctx.h, nums, acc, den // (d * hd))
                if acc:
                    row.append((k, 1, acc, den))
                row.append((k + 1, 1, [v * (den // d) for v in nums], den))
        yield i, row


def _terms(slots, fs, rows, shift=0, sign=1, low=None):
    """Append the terms of ``sign * sum_i fs[i] * row_i`` to the slots, moved
    up by shift, for the ``(i, row_i)`` in rows; the rows from index low on
    lose their top entry."""
    for i, row in rows:
        f = fs[i]
        a, fd = f._nums, f._den
        for k, c, nums, den in row if low is None or i < low else row[:-1]:
            slots[k + shift].append((sign * c, a, nums, fd * den))


def _packed(ctx: AhContext, degrees, op: str, *args):
    """``op(*args)`` on the packed rows of :mod:`ahalg.packed` (loaded at its
    first use) when the field is GF(p) and every factor's Y-degree in
    degrees is at least 1, else NotImplemented: a product with a polynomial
    factor loads no :mod:`ahalg.packed` (``tests/test_lazy_import.py``) and
    stays on the raw rows, measured 1.2-2.8x faster there, where the packed
    rows made ``structure`` 12% slower.  op too returns NotImplemented, for
    the sparse operands it leaves to the raw rows."""
    if not ctx.spec.p or min(degrees) < 1:
        return NotImplemented
    from . import packed

    return getattr(packed, op)(*args)


def _mul(a: OreElement, b: OreElement, minus=False) -> OreElement:
    """a*b, or with minus the commutator a*b - b*a, both products summed into
    one set of output coefficients; against a polynomial (not both) the
    terms that cancel are not formed."""
    ctx, fs, gs, sign = a.ctx, a.coeffs, b.coeffs, 1
    if (ab := _packed(ctx, (len(fs) - 1, len(gs) - 1), "product", a, b, minus)) is not NotImplemented:
        return ab
    if minus and len(fs) == 1:
        fs, gs, sign = gs, fs, -1  # [f, b] = -[b, f]
    slots = [[] for _ in range(len(fs) + len(gs) - 1)]
    # [a, g] = sum_i f_i * (Y^i*g - g*Y^i): the rows of g without their tops
    _terms(slots, fs, _rows(ctx, gs, _support(fs)), 0, sign, 0 if minus and len(gs) == 1 else None)
    if minus and len(gs) > 1:
        _terms(slots, gs, _rows(ctx, fs, _support(gs)), 0, -1)
    return _element(ctx, [sum_of_raw_products(ctx.spec, s) for s in slots])


# the commutator subspaces [x, A], [Y, A] and [A, A] (see center.in_commutator_space)
COMMUTATOR_SPACES = ("bracket_x", "bracket_yhat", "lie_ideal")


def commutator(a, b) -> OreElement:
    """The ring commutator a*b - b*a; either side may be a polynomial or scalar:
    the product's minus mode."""
    home = a if isinstance(a, OreElement) else b
    if not isinstance(home, OreElement) or (a := _lift(home.ctx, a)) is NotImplemented or (
            b := _lift(home.ctx, b)) is NotImplemented:
        raise TypeError("the commutator needs elements, polynomials or scalars")
    if len(a.coeffs) < 2 and len(b.coeffs) < 2:
        return a.ctx.zero()  # polynomials commute
    return _mul(a, b, True)


def apply_poly_map(a: OreElement, x_image: Poly, y_image: OreElement) -> OreElement:
    """Substitute images for the generators: ``sum f_i(P) * Q^i``.

    ``x_image`` is a polynomial P over the field of a and of the target,
    which ``y_image`` fixes; anything else raises :class:`ContextMismatch`.
    By Horner, with Q the Y-image: ``r <- r*Q + f_i(P)`` from the top
    coefficient down, one Ore product per coefficient below the top.
    """
    target = y_image.ctx
    if not isinstance(x_image, Poly) or not x_image.spec == target.spec == a.ctx.spec:
        raise ContextMismatch("the x-image must be a polynomial over the target's field")
    result = target.zero()
    for f in reversed(a.coeffs):
        if result:
            result = result * y_image
        if f:
            result = result + _element(target, (f.compose(x_image),))
    return result


def antiautomorphism(a: OreElement) -> OreElement:
    """The involutive anti-automorphism fixing x and sending Y to -Y + h'.

    It reverses products, so the image of ``sum f_i * Y^i`` is
    ``sum (h' - Y)^i * f_i``, evaluated by Horner: ``r <- (h' - Y)*r + f_i``
    from the top coefficient down, where ``Y*r`` is one row step.  r stays
    raw (a packed row over GF(p), numerators over one denominator on raw
    rows) and is normalized once, at the end.
    """
    ctx, fs = a.ctx, a.coeffs
    if not fs:
        return a
    if (image := _packed(ctx, (len(fs) - 1,), "antiautomorphism", a)) is not NotImplemented:
        return image
    h, hd = ctx.h._nums, ctx.h._den
    hp = [i * h[i] for i in range(1, len(h))]  # h' over hd
    rows, den = [list(fs[-1]._nums)], fs[-1]._den
    for f in fs[-2::-1]:
        # (h' - Y)*r = h'*r - (r one slot up) - h*r', over den*hd, then + f
        new = lcm(den * hd, f._den)
        s = new // (den * hd)
        out = []
        for k in range(len(rows) + 1):
            acc = _mul_add([], -s * hd, rows[k - 1], (1,)) if k else []
            if k < len(rows):
                acc = _delta(ctx.h, rows[k], _mul_add(acc, s, hp, rows[k]), -s)
            out.append(acc)
        _mul_add(out[0], new // f._den, f._nums, (1,))
        rows, den = out, new
    return _element(ctx, [_poly(ctx.spec, r, den) for r in rows])


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
    spec, vs = ctx.spec, v.coeffs
    kv, kw = len(vs) - 1, len(w.coeffs) - 1
    if (q := _packed(ctx, (kv, kw - kv), "divide", w, v, left)) is not NotImplemented:
        return q
    slots = [[(1, c._nums, (1,), c._den)] for c in w.coeffs]
    quot = [Poly.zero(spec)] * max(kw - kv + 1, 0)
    # q*v = sum_j q_j * (Y^j * v): the rows of v serve every q_j
    rows = [] if left else list(_rows(ctx, vs, range(len(quot))))
    for j in range(kw - kv, -1, -1):
        s = j + kv
        r, slots[s] = sum_of_raw_products(spec, slots[s]), []
        quot[j], rem = divmod(r, vs[-1])
        if rem:
            return None
        # the top entry, lc(v) * q_j, is the one matched in slot s
        if left:
            # v * q_j Y^j = sum_i v_i * (Y^i * q_j) * Y^j
            _terms(slots, vs, _rows(ctx, quot[j:j + 1], _support(vs)), j, -1, kv)
        else:
            _terms(slots, quot, rows[j:j + 1], 0, -1, 0)
        if any(slots[s:]):
            raise SelfCheckError("one-sided division put a term above its solved slot")
    if any(sum_of_raw_products(spec, t) for t in slots[:kv]):
        return None
    return _element(ctx, quot)


def format_element(a: OreElement) -> str:
    """Canonical text form, highest Y-power first: ``Y^2 + 2*x*Y + x^3``."""
    fs, sym = a.coeffs, a.ctx.gen_symbol
    return _join_terms(_element_term(fs[i], sym, i) for i in range(len(fs) - 1, -1, -1) if fs[i]._nums)


def _element_term(f: Poly, sym: str, i: int) -> str:
    body, y = format_poly(f), sym if i == 1 else f"{sym}^{i}"
    if i == 0 or body == "1":  # the constant term, or Y^i alone
        return y if i else body
    if f._nums == ((f.spec.p or 0) - 1,) and f._den == 1:  # f is -1: p - 1 over GF(p)
        return f"-{y}"
    return f"({body})*{y}" if len(f._nums) - f._nums.count(0) > 1 else f"{body}*{y}"
