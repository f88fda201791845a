"""The algebra generated by x and Y with relation Y*x - x*Y = h(x).

Every element has a unique normal form ``sum_i f_i(x) * Y^i`` with the
polynomial coefficients kept on the left; :class:`OreElement` stores that
coefficient list and :class:`AhContext` fixes the field and the commutation
polynomial h.  Every product rests on the rule ``Y * c*Y^k = c*Y^(k+1) +
delta(c)*Y^k``, where ``delta(c) = h * c'`` (``_delta``, the one raw step that
also serves ``AhContext.delta``/``delta_power`` and :mod:`ahalg.weyl`): so
``a*b = sum_i f_i * (Y^i*b)``, each row ``Y^(i+1)*b`` one step from the row
``Y^i*b``, each left coefficient multiplied once, and rows built only up to
the last nonzero ``f_i``.

Over GF(p), for factors of Y-degree at least 1, each row is one packed int
(:mod:`ahalg.packed`, loaded at its first use): a row step costs a few
passes over its digits and one int product by h, ``sum_i f_i * (Y^i*b)`` is
one int product per nonzero ``f_i`` into one int, and that int is unpacked
and reduced once.  Over QQ, with a polynomial factor, and for operands too
sparse for the packed layout (such as ``Y^1024``), rows are lists of raw
terms (numerators over one denominator with no gcd taken, or residues) and
each output coefficient is one ``sum_of_raw_products``, normalized once.
There a polynomial right factor g takes ``Y^i*g = sum_m C(i, m) delta^m(g)
Y^(i-m)`` from one table of delta powers, only for the i a nonzero ``f_i``
reads, and over GF(p) only for the m with ``C(i, m)`` nonzero mod p (Lucas'
theorem), so ``Y^2401 * x`` over GF(7) reads two table entries.

On the same rows this module provides the commutator (both products in one
set of output coefficients), the involutive anti-automorphism fixing x and
sending Y to -Y + h' (by Horner on a raw accumulator, normalized once), and
exact one-sided division by a fixed element, solved top-down (a complete
decision procedure for one-sided multiple membership); and substitution of
generator images (used for endomorphisms and basis changes), whose x-image
is a polynomial, so each coefficient is one ``Poly.compose``.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from math import comb, lcm

from .errors import ContextMismatch, SelfCheckError, ZeroInputError
from .fields import FieldElem, FieldSpec
from .poly import NEG_INF, Poly, _mul_add, _poly, format_poly, sum_of_raw_products

_FACTS_LOCK = threading.Lock()  # installs every field of AhContext.facts


class AhContext:
    """A fixed field and a fixed nonzero h; the home of its elements.

    ``facts``, None until its first fill, is the record of what h alone
    determines: raw values (and the factorization of h) by field name, never
    an object that holds the context, and outside == and hash.  The structure modules fill each field
    once (:meth:`fact`) or grow it (:meth:`grown`), under one lock.
    """

    __slots__ = ("spec", "h", "h_prime", "gen_symbol", "facts")

    def __init__(self, spec: FieldSpec, h: Poly, gen_symbol: str = "Y"):
        if h.spec != spec:
            raise ContextMismatch("h is not a polynomial over the given field")
        if h.is_zero():
            raise ZeroInputError("h must be nonzero")
        self.spec = spec
        self.h = h
        self.h_prime = h.derivative()
        self.gen_symbol = gen_symbol
        self.facts = None

    def fact(self, name: str, fill):
        """Field ``name``: ``fill(self)`` at its first read, installed only while empty."""
        if name not in (self.facts or ()):
            value = fill(self)
            with _FACTS_LOCK:
                self.facts = self.facts or {}
                self.facts.setdefault(name, value)
        return self.facts[name]

    def grown(self, name: str, size: int, grow):
        """Field ``name`` with at least ``size`` entries: else ``grow(self, kept, size)``
        makes a longer copy, installed unless a longer one came meanwhile."""
        kept = (self.facts or {}).get(name, ())
        if len(kept) < size:
            kept = grow(self, kept, size)
            with _FACTS_LOCK:
                self.facts = self.facts or {}
                self.facts[name] = max(self.facts.get(name, kept), kept, key=len)
        return kept

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
        return _poly(self.spec, _delta(self, f._nums, []), f._den * self.h._den)

    def delta_power(self, f: Poly, j: int) -> Poly:
        if j < 0:
            raise ValueError("delta power must be nonnegative")
        nums, den = f._nums, f._den
        while j and nums:  # raw steps up to the first zero, one Poly at the end
            nums, den, j = _delta(self, nums, []), den * self.h._den, j - 1
        return _poly(self.spec, nums, den)


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
        if not isinstance(other, OreElement):
            if not isinstance(other, (int, Fraction, FieldElem, Poly)):
                return NotImplemented
            other = _lift(self.ctx, other)
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def _mate(self, other) -> "OreElement":
        # OreElement is tested first: Fraction is an ABC, so isinstance against it is slow
        if not isinstance(other, OreElement):
            if not isinstance(other, (int, Fraction, FieldElem, Poly)):
                return NotImplemented
            return _lift(self.ctx, other)
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


def _delta(ctx: AhContext, c, acc: list, scale=1) -> list:
    """Add ``scale * h * c'`` to the list acc and return it: raw numerators,
    over hd times the denominator of c, reduced mod p."""
    _mul_add(acc, scale, [i * c[i] for i in range(1, len(c))], ctx.h._nums)
    if ctx.spec.p:
        acc = [v % ctx.spec.p for v in acc]
    while acc and not acc[-1]:
        acc.pop()
    return acc


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


def _table(ctx: AhContext, nums, den: int, top: int) -> list:
    """``[(delta^m(g), its denominator)]`` for m <= top, g = nums/den, as raw
    numerators, up to the first zero."""
    table = [(nums, den)] if nums else []
    while 0 < len(table) <= top and (nums := _delta(ctx, table[-1][0], [])):
        table.append((nums, table[-1][1] * ctx.h._den))
    return table


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
                acc = _delta(ctx, nums, acc, den // (d * hd))
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
    degrees is at least 1, else NotImplemented: so a product with a polynomial
    factor loads no :mod:`ahalg.packed` (``tests/test_lazy_import.py``; which
    path is faster there is unmeasured).  op too returns NotImplemented, for
    the sparse operands it leaves to the raw rows."""
    if not ctx.spec.p or min(degrees) < 1:
        return NotImplemented
    from . import packed

    return getattr(packed, op)(*args)


def _mul(a: OreElement, b: OreElement) -> OreElement:
    ctx, fs = a.ctx, a.coeffs
    if (ab := _packed(ctx, (len(fs) - 1, len(b.coeffs) - 1), "product", a, b)) is not NotImplemented:
        return ab
    slots = [[] for _ in range(len(fs) + len(b.coeffs) - 1)]
    _terms(slots, fs, _rows(ctx, b.coeffs, _support(fs)))
    return OreElement(ctx, [sum_of_raw_products(ctx.spec, s) for s in slots])


# the commutator subspaces [x, A], [Y, A] and [A, A] (see center.in_commutator_space)
COMMUTATOR_SPACES = ("bracket_x", "bracket_yhat", "lie_ideal")


def commutator(a, b) -> OreElement:
    """The ring commutator a*b - b*a; either side may be a polynomial or scalar.
    Both products go into one set of output coefficients; on raw rows,
    against a polynomial, the terms that cancel are not formed."""
    a = a if isinstance(a, OreElement) else _lift(b.ctx, a)
    b = NotImplemented if a is NotImplemented else a._mate(b)
    if b is NotImplemented:
        raise TypeError("the commutator needs elements, polynomials or scalars")
    ctx, fs, gs, sign = a.ctx, a.coeffs, b.coeffs, 1
    if len(fs) < 2 and len(gs) < 2:
        return ctx.zero()  # polynomials commute
    if (c := _packed(ctx, (len(fs) - 1, len(gs) - 1), "product", a, b, True)) is not NotImplemented:
        return c
    if len(fs) == 1:
        fs, gs, sign = gs, fs, -1  # [f, b] = -[b, f]
    slots = [[] for _ in range(len(fs) + len(gs) - 1)]
    if len(gs) == 1:
        # [a, g] = sum_i f_i * (Y^i*g - g*Y^i): the rows of g without their tops
        _terms(slots, fs, _rows(ctx, gs, _support(fs)), 0, sign, 0)
    else:
        _terms(slots, fs, _rows(ctx, gs, _support(fs)))
        _terms(slots, gs, _rows(ctx, fs, _support(gs)), 0, -1)
    return OreElement(ctx, [sum_of_raw_products(ctx.spec, s) for s in slots])


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
                acc = _delta(ctx, rows[k], _mul_add(acc, s, hp, rows[k]), -s)
            out.append(acc)
        _mul_add(out[0], new // f._den, f._nums, (1,))
        rows, den = out, new
    return ctx.element([_poly(ctx.spec, r, den) for r in rows])


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
    if len(f._nums) - f._nums.count(0) > 1:
        return f"({body})*{y}"
    return f"{body}*{y}"
