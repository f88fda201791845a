"""Dense univariate polynomials over an exact field.

A :class:`Poly` holds canonical Python ints, not field elements: numerators
by increasing degree with trailing zeros stripped, over one positive
denominator.  Over GF(p) the numerators are residues in ``range(p)`` and the
denominator is 1; over QQ the gcd of the denominator and all numerators is
1.  So equality and hashing are structural, and the zero polynomial is
``((), 1)`` (its ``degree`` is ``-inf``).  Every operation runs on those ints
and ends in one normalize step (``_poly``): reduce mod p, or divide out the
gcd; ints that are canonical already only lose their trailing zeros
(``_trimmed``).  Printing reads them as they are, with no Fraction.
:class:`FieldElem` is the boundary type: the constructor accepts ints,
Fractions and field elements, and ``coeffs``, ``coeff``, ``lc``,
``evaluate`` and ``rational_roots`` build field elements when they are read.

Every algorithm runs on one raw kernel per field, int lists with no
trailing zero (residues over GF(p), numerators over QQ, where p is None),
and builds one ``Poly`` per result.  With n the degree, over GF(p) a
division or a gcd costs O(n^2); ``_mulmod`` is one product reduced by the
``_tail`` of the modulus, so ``pow_mod`` to the exponent e is O(n^2 log e);
squarefree parts (with p-th-root descent) take O(n) gcds; distinct-degree
splitting O(n) powers to p, equal-degree splitting O(log n) expected powers
to (p^d - 1)/2 (the trace map over GF(2)); Horner composition with an inner
polynomial of degree m is O(n^2 m).  Over QQ the gcd is a primitive
remainder sequence, squarefree parts are exact divisions of primitive
integer polynomials (Gauss's lemma), and composition is Horner scaled by
the inner denominator.  Factors over Q that rational roots cannot certify
carry ``verified=False``, and consumers degrade instead of guessing.

A ``Poly`` keeps a record of what the structure modules learn about it
(:func:`_kept`), outside ``==``, ``hash``, ``repr`` and pickle.
"""

from __future__ import annotations

import itertools
import random
import threading
from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm

from .errors import AhError, FieldMismatch, SelfCheckError, ZeroInputError
from .fields import FieldElem, FieldSpec, _factor, value_str

NEG_INF = float("-inf")

# Dense closed-form outputs (the center over GF(p), powers of x^p - x) are
# refused past this many coefficients; x^3+2x+5 over GF(1000003) needs 2*10^6
MAX_DENSE_TERMS = 2**22


def _dense_terms(what: str, terms: int) -> int:
    """terms, the coefficients of a dense output, refused as ``what`` too large past the bound."""
    if terms > MAX_DENSE_TERMS:
        raise AhError(f"{what} too large: {terms} coefficients, limit {MAX_DENSE_TERMS}")
    return terms


_RECORD_LOCK = threading.Lock()  # installs every field of a polynomial's record


def _poly(spec: FieldSpec, nums, den: int = 1) -> "Poly":
    """The polynomial ``sum nums[i] * x^i / den`` (den nonzero) of raw ints: GF(p) reduces
    every numerator mod p (den is always 1); QQ makes den positive and divides out the gcd."""
    if p := spec.p:
        nums = [c % p for c in nums]
    elif den != 1:
        if den < 0:
            den, nums = -den, [-c for c in nums]
        if (g := gcd(den, *nums)) != 1:
            den, nums = den // g, [c // g for c in nums]
    return _trimmed(spec, nums, den)


def _trimmed(spec: FieldSpec, nums, den: int = 1) -> "Poly":
    """The polynomial of numerators canonical but for trailing zeros (residues in ``range(p)``,
    or over QQ in lowest terms over den > 0): the zeros are dropped, and nothing is reduced."""
    nums, f = tuple(nums), object.__new__(Poly)
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    f.spec, f._nums, f._den = spec, nums[:n], den if n else 1
    return f


def _kept(f: "Poly", name: str, fill):
    """Field ``name`` of the record of f: ``fill(f)`` at its first read,
    installed only while empty, so every reader sees one value."""
    record = getattr(f, "_record", None)
    if record is None or name not in record:
        value = fill(f)
        with _RECORD_LOCK:
            record = f._record = getattr(f, "_record", None) or {}
            record.setdefault(name, value)
    return record[name]


def _grown(f: "Poly", name: str, size: int, grow):
    """Field ``name`` of the record of f with at least ``size`` entries: else
    ``grow(f, kept, size)`` makes a longer copy, installed unless a longer
    one came meanwhile."""
    kept = (getattr(f, "_record", None) or {}).get(name, ())
    if len(kept) < size:
        kept = grow(f, kept, size)
        with _RECORD_LOCK:
            record = f._record = getattr(f, "_record", None) or {}
            record[name] = max(record.get(name, kept), kept, key=len)
    return kept


def _spread(spec: FieldSpec, nums, k: int) -> "Poly":
    """``f(x^k)`` for the canonical numerators nums of an f with denominator 1;
    over GF(p), ``f(x^p) = f^p``.  Nothing is reduced, and no zero is made past the top."""
    nums = _red(list(nums), None)
    out = [0] * (k * len(nums) - k + 1)
    out[::k] = nums
    return _trimmed(spec, out)


def _mul_add(out: list, c: int, a, b) -> list:
    """Add ``c * a * b`` to the int list ``out``, extended as needed, and
    return it: the one schoolbook loop of every product, on numerator lists."""
    if len(a) > len(b):
        a, b = b, a
    out.extend([0] * (len(a) + len(b) - 1 - len(out)))
    for i, x in enumerate(a):
        if x:
            x *= c
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def sum_of_raw_products(spec: FieldSpec, terms) -> "Poly":
    """``sum c * a * b / d`` over raw terms ``(int c, nums a, nums b, int d)``,
    d the product of the denominators of a and b: the products accumulate as
    ints over the lcm of the d, and the sum is normalized once."""
    den = 1 if spec.p else lcm(*(t[3] for t in terms))
    out = []
    for c, a, b, d in terms:
        if a and b:
            _mul_add(out, c if d == den else c * (den // d), a, b)
    return _poly(spec, out, den)


def _scaled_horner(nums, n: int, m: int) -> int:
    """``m^k * f(n/m)`` for ``f = sum nums[i] * x^i`` of degree k, in integers."""
    acc = 0
    mp = 1
    for c in reversed(nums):
        acc = acc * n + c * mp
        mp *= m
    return acc


# -- the raw kernel: int lists with no trailing zero; p is None over QQ ----------


def _red(a, p):
    """a reduced mod p (as it is over QQ) with its trailing zeros popped."""
    a = [c % p for c in a] if p else a
    while a and not a[-1]:
        a.pop()
    return a


def _add(a, b, p):
    return _red([x + y for x, y in itertools.zip_longest(a, b, fillvalue=0)], p)


def _normal(a, p):
    """The associate of a nonzero a: monic, or over QQ primitive with lc > 0."""
    if p:
        inv = pow(a[-1], -1, p)
        return [c * inv % p for c in a]
    g = gcd(*a) if a[-1] > 0 else -gcd(*a)
    return [c // g for c in a]


def _divmod_raw(a, b, p):
    """``(q, r, s)`` for b != 0: ``s*a == q*b + r``, r unreduced of degree < deg b.
    s = 1 over GF(p); over QQ a step scales by lc(b) only where lc(b) does not
    divide, so an exact division by a primitive polynomial keeps s = 1 (Gauss)."""
    rem, dn, s = list(a), len(b) - 1, 1
    low, lc = b[:dn], b[dn]
    quot = [0] * max(len(rem) - dn, 0)
    inv = pow(lc, -1, p) if p else 0
    for i in range(len(rem) - 1, dn - 1, -1):
        if p:
            c = rem[i] * inv % p
        else:
            if rem[i] % lc:
                s, rem, quot = s * lc, [v * lc for v in rem], [v * lc for v in quot]
            c = rem[i] // lc
        if c:
            quot[i - dn] = c
            for j, v in enumerate(low, i - dn):
                rem[j] -= c * v
    return quot, rem[:dn], s


def _gcd(a, b, p):
    """The normal gcd of a and b, not both zero, by a normalized remainder sequence."""
    while b:
        r = _red(_divmod_raw(a, b, p)[1], p)
        a, b = b, r and _normal(r, p)
    return _normal(a, p)


def _power(a, e, mul, one):
    """``a^e`` with the product ``mul`` and its unit ``one``, by the top-bit
    binary method (Knuth, TAOCP vol. 2, 4.6.3): ``r = mul(one, a)``, then per
    lower bit of e a square and, on a 1 bit, a product by a.  Starting from
    ``mul(one, a)``, not a, every result is mul's output: reduced, and of
    its type."""
    if not e:
        return one
    r = mul(one, a)
    for bit in bin(e)[3:]:
        r = mul(r, r)
        if bit == "1":
            r = mul(r, a)
    return r


def _tail(m, p):
    """x^d == sum tail[i] x^i mod a nonzero m of degree d over GF(p)."""
    inv = pow(m[-1], -1, p)
    return [-c * inv % p for c in m[:-1]]


def _mulmod(a, b, tail, p):
    """a*b mod the modulus of ``tail`` over GF(p): one product, reduced from the top."""
    d = len(tail)
    out = _mul_add([], 1, a, b)
    for i in range(len(out) - 1, d - 1, -1):
        q = out[i] % p
        if q:
            for j, c in enumerate(tail, i - d):
                out[j] += q * c
    return _red(out[:d], p)


def _powmod(a, e, tail, p):
    return _power(a, e, lambda u, v: _mulmod(u, v, tail, p), [1])


def _squarefree(f, p):
    """``[(g, m), ...]``, the squarefree parts g (normal, degree >= 1) of a normal f.
    The i-th inner pass splits off multiplicity i (times p^k after k descents);
    what is left is a p-th power, whose root the loop descends to."""
    out, n = [], 1
    while len(f) > 1:
        g = _gcd(f, _red([i * c for i, c in enumerate(f)][1:], p), p)
        if len(g) == 1:  # f is squarefree
            return out + [(f, n)]
        w, i = _divmod_raw(f, g, p)[0], 1
        while len(w) > 1:
            y = _gcd(w, g, p)
            z = _divmod_raw(w, y, p)[0]
            if len(z) > 1:
                out.append((z, i * n))
            w, g, i = y, _divmod_raw(g, y, p)[0], i + 1
        if len(g) <= 1:
            break
        f, n = g[::p], n * p
    return out


class Poly:
    """A dense univariate polynomial with exact field coefficients."""

    __slots__ = ("spec", "_nums", "_den", "_record")

    def __init__(self, spec: FieldSpec, coeffs=()):
        vals = [c if type(c) is int or type(c) is Fraction and not spec.p else spec.elem(c).val
                for c in coeffs]
        den = 1
        if not spec.p:
            den = lcm(*(v.denominator for v in vals))
            vals = [v.numerator * (den // v.denominator) for v in vals]
        f = _poly(spec, vals, den)
        self.spec, self._nums, self._den = spec, f._nums, f._den

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, spec) -> "Poly":
        return _poly(spec, ())

    @classmethod
    def one(cls, spec) -> "Poly":
        return _poly(spec, (1,))

    @classmethod
    def x(cls, spec) -> "Poly":
        return _poly(spec, (0, 1))

    @classmethod
    def constant(cls, c: FieldElem) -> "Poly":
        return cls(c.spec, (c,))

    @classmethod
    def monomial(cls, spec, c, k: int) -> "Poly":
        return cls(spec, (0,) * k + (c,))

    @classmethod
    def from_ints(cls, spec, ints) -> "Poly":
        return cls(spec, ints)

    # -- structure ----------------------------------------------------

    def _values(self) -> list:
        """The coefficients as plain values: ints over GF(p), Fractions over QQ."""
        if self.spec.p:
            return list(self._nums)
        d = self._den
        return [Fraction(c, d) for c in self._nums]

    @property
    def coeffs(self) -> tuple[FieldElem, ...]:
        """The coefficients by increasing degree, as field elements."""
        spec = self.spec
        return tuple(FieldElem(spec, v) for v in self._values())

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self._nums) - 1 if self._nums else NEG_INF

    @property
    def lc(self) -> FieldElem:
        if not self._nums:
            raise ZeroInputError("zero polynomial has no leading coefficient")
        return self.coeff(len(self._nums) - 1)

    def coeff(self, i: int) -> FieldElem:
        if 0 <= i < len(self._nums):
            c, d = self._nums[i], self._den
            return FieldElem(self.spec, c if d == 1 else Fraction(c, d))
        return self.spec.zero()

    def is_zero(self) -> bool:
        return not self._nums

    def is_one(self) -> bool:
        return self._nums == (1,) and self._den == 1

    def is_monic(self) -> bool:
        return bool(self._nums) and self._nums[-1] == self._den

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        # Poly is tested first: Fraction is an ABC, so isinstance against it is slow
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction, FieldElem)):
                return NotImplemented
            other = Poly(self.spec, (other,))
        return (
            self.spec == other.spec
            and self._nums == other._nums
            and self._den == other._den
        )

    def __hash__(self):
        return hash((self.spec, self._nums, self._den))

    def __reduce__(self):
        # pickle and copy rebuild from the canonical ints, without the record
        return _poly, (self.spec, self._nums, self._den)

    def _check(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction, FieldElem)):
                return NotImplemented
            return Poly(self.spec, (other,))
        if other.spec is not self.spec and other.spec != self.spec:
            raise FieldMismatch("polynomials over different fields")
        return other

    # -- ring operations ----------------------------------------------

    def _plus(self, other, s: int, t: int):
        # s * self + t * other for signs s and t, over the product of the two denominators
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._nums, other._nums
        den = da = self._den
        db = other._den
        if da != db:
            a = [c * db for c in a]
            b = [c * da for c in b]
            den = da * db
        if s < 0:
            a = [-c for c in a]
        if t < 0:
            b = [-c for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return _poly(self.spec, out, den)

    def __add__(self, other):
        return self._plus(other, 1, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, 1, -1)

    def __rsub__(self, other):
        return self._plus(other, -1, 1)

    def __neg__(self):
        return _poly(self.spec, [-c for c in self._nums], self._den)

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return _poly(self.spec, _mul_add([], 1, self._nums, other._nums), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        p = self.spec.p
        nums = _power(self._nums, n, lambda u, v: _red(_mul_add([], 1, u, v), p), [1])
        return _poly(self.spec, nums, self._den**n)

    def _divide(self, other, quot: bool, rem: bool):
        # the quotient and the remainder of self by other, each as a Poly only if asked for
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r, s = _divmod_raw(self._nums, other._nums, self.spec.p)
        den = s * self._den
        if quot:
            q = _poly(self.spec, [c * other._den for c in q] if other._den != 1 else q, den)
        if rem:
            r = _poly(self.spec, r, den)
        return (q, r) if quot and rem else q if quot else r

    def __divmod__(self, other):
        return self._divide(other, True, True)

    def __floordiv__(self, other):
        return self._divide(other, True, False)

    def __mod__(self, other):
        return self._divide(other, False, True)

    def divides(self, other: "Poly") -> bool:
        if self.is_zero():
            return other.is_zero()
        return (other % self).is_zero()

    # -- calculus and evaluation ----------------------------------------

    def derivative(self) -> "Poly":
        """Formal derivative; in char p the derivative of x^p is 0."""
        nums = self._nums
        return _poly(
            self.spec, [i * nums[i] for i in range(1, len(nums))], self._den
        )

    def evaluate(self, point) -> FieldElem:
        point = self.spec.elem(point).val
        p = self.spec.p
        if p:
            acc = 0
            for c in reversed(self._nums):
                acc = (acc * point + c) % p
            return FieldElem(self.spec, acc)
        n, m = point.numerator, point.denominator
        k = max(len(self._nums) - 1, 0)
        acc = _scaled_horner(self._nums, n, m)
        return FieldElem(self.spec, Fraction(acc, self._den * m**k))

    def compose(self, inner: "Poly") -> "Poly":
        """Return self(inner(x)), computed exactly by Horner."""
        inner = self._check(inner)
        p, d, acc, dk = self.spec.p, inner._den, [], 1
        for c in reversed(self._nums):  # d^n * self(inner), n = deg self, in integers
            acc = _mul_add([c * dk], 1, acc, inner._nums)
            if p:
                acc = [v % p for v in acc]
            dk *= d
        return _poly(self.spec, acc, self._den * d ** max(len(self._nums) - 1, 0))

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroInputError("cannot normalize the zero polynomial")
        if self.is_monic():
            return self
        nums, p = self._nums, self.spec.p
        if p:
            inv = pow(nums[-1], -1, p)
            return _poly(self.spec, [c * inv for c in nums])
        return _poly(self.spec, nums, nums[-1])

    def scaled(self, c) -> "Poly":
        if type(c) is not int and (self.spec.p or type(c) is not Fraction):
            c = self.spec.elem(c).val
        n, d = c.numerator, c.denominator
        return _poly(self.spec, [a * n for a in self._nums], self._den * d)

    def shifted(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return _poly(self.spec, (0,) * k + self._nums, self._den)

    # -- printing -------------------------------------------------------

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"Poly({self.spec!r}, {format_poly(self)!r})"


def format_poly(f: Poly) -> str:
    """Canonical text form: terms in decreasing degree, e.g. ``x^2 - 2*x + 1``,
    each coefficient printed from the canonical ints: a residue, or over QQ
    ``c/den`` in lowest terms after one gcd."""
    nums, bodies = f._nums, []
    for i in reversed([*itertools.compress(range(len(nums)), nums)]):  # the nonzero terms, top first
        c, den = nums[i], f._den
        if den > 1 and (g := gcd(c, den)) > 1:
            c, den = c // g, den // g
        text = value_str(c) if den == 1 else f"{value_str(c)}/{value_str(den)}"
        if i:  # "-1" only over QQ: residues are >= 0
            v = "x" if i == 1 else f"x^{i}"
            text = v if text == "1" else "-" + v if text == "-1" else f"{text}*{v}"
        bodies.append(text)
    return _join_terms(bodies)


def _join_terms(bodies) -> str:
    """The term texts joined by " + ", or by " - " before one that starts with
    "-" (its sign moved into the joiner); "0" when there are none.  No body
    holds " + -": a joined polynomial inside one has moved its signs already."""
    return " + ".join(bodies).replace(" + -", " - ") or "0"


# -- gcd and modular arithmetic ----------------------------------------


def gcd_monic(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) is rejected."""
    if a.is_zero() and b.is_zero():
        raise ZeroInputError("gcd of two zero polynomials")
    if a.spec != b.spec:
        raise FieldMismatch("polynomials over different fields")
    g = _gcd(a._nums, b._nums, a.spec.p)
    return _poly(a.spec, g, g[-1])


def pow_mod(base: Poly, exp: int, mod: Poly) -> Poly:
    """base**exp mod mod by :func:`_power`: :func:`_mulmod` over GF(p)."""
    if mod.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    p = base.spec.p
    if p:
        return _poly(base.spec, _powmod(base._nums, exp, _tail(mod._nums, p), p))
    return _power(base, exp, lambda u, v: u * v % mod, Poly.one(base.spec))


# -- squarefree structure ----------------------------------------------


def _parts(f: Poly) -> list:
    """The raw squarefree parts of a nonzero f (:func:`_squarefree`)."""
    if f.is_zero():
        raise ZeroInputError("the zero polynomial has no squarefree parts")
    return _squarefree(_normal(f._nums, f.spec.p), f.spec.p)


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Write monic(f) as a product of pairwise-coprime squarefree parts.

    Returns ``[(g, m), ...]`` with each g monic squarefree and
    ``prod g**m == monic(f)``, sorted by multiplicity.
    """
    out = [(_poly(f.spec, g, g[-1]), m) for g, m in _parts(f)]
    return sorted(out, key=lambda t: (t[1], _poly_sort_key(t[0])))


def squarefree_part(f: Poly) -> Poly:
    """The radical of f: the product of its distinct monic prime factors."""
    rad = [1]
    for g, _ in _parts(f):
        rad = _mul_add([], 1, rad, g)
    return _poly(f.spec, rad, rad[-1])


def distinct_root_count(f: Poly) -> int:
    """Number of distinct roots of f in the algebraic closure: over a perfect
    field the degree of the radical, the sum of those of the squarefree parts."""
    return sum(len(g) - 1 for g, _ in _parts(f))


# -- factorization ------------------------------------------------------


# immutable records are namedtuple subclasses, which import nothing heavy (see the README)
class FactorTerm(namedtuple("FactorTerm", "poly multiplicity verified")):
    __slots__ = ()


class FactoredPoly(namedtuple("FactoredPoly", "unit factors")):
    __slots__ = ()

    @property
    def fully_verified(self) -> bool:
        return all(t.verified for t in self.factors)

    def expand(self) -> Poly:
        out = Poly.constant(self.unit)
        for t in self.factors:
            out = out * t.poly**t.multiplicity
        return out


def _poly_sort_key(f: Poly):
    return (len(f._nums), tuple(f._values()))


def factor(f: Poly, seed: int = 0) -> FactoredPoly:
    """Factor f into monic parts times a unit.

    Over GF(p) the result is the complete prime factorization and every
    factor is verified irreducible.  Over Q the squarefree parts are split
    off and refined by rational-root extraction; what remains is certified
    only up to degree 3 (no rational root), and larger cofactors are
    flagged ``verified=False``.
    """
    if f.is_zero():
        raise ZeroInputError("cannot factor the zero polynomial")
    spec, p, unit, terms = f.spec, f.spec.p, f.lc, []
    for g, mult in _parts(f):
        if p:
            rng = random.Random(seed)
            for prod, d in _distinct_degree(g, p):
                terms += (FactorTerm(_poly(spec, q), mult, True) for q in _equal_degree(prod, d, p, rng))
        else:
            terms.extend(FactorTerm(q, mult, ok) for q, ok in _split_rational(_poly(spec, g, g[-1])))
    terms.sort(key=lambda t: (_poly_sort_key(t.poly), t.multiplicity))
    return FactoredPoly(unit, tuple(terms))


def _split_rational(g: Poly) -> list[tuple[Poly, bool]]:
    # g monic squarefree over Q
    out = []
    for root in _rational_roots(g):
        lin = Poly(g.spec, (-root, 1))
        out.append((lin, True))
        g = g // lin
    if g.degree >= 1:
        # degree 2 or 3 with no rational root is irreducible over Q
        out.append((g, g.degree <= 3))
    return out


def rational_roots(f: Poly) -> list[FieldElem]:
    """All rational roots of f, via the rational-root theorem.

    Each candidate is verified by evaluation, so the returned list is exact.
    """
    return [FieldElem(f.spec, r) for r in _rational_roots(f)]


def _rational_roots(f: Poly) -> list[Fraction]:
    """:func:`rational_roots` as sorted Fractions."""
    if f.is_zero():
        raise ZeroInputError("the zero polynomial has every root")
    if f.spec.is_prime_field:
        raise FieldMismatch("rational_roots is defined over QQ only")
    roots = []
    # strip x^k so the constant term becomes nonzero; the denominator and
    # the content do not move the roots
    nums = f._nums
    k = 0
    while not nums[k]:
        k += 1
    if k:
        roots.append(Fraction(0))
    content = gcd(*nums)
    ints = [n // content for n in nums[k:]]
    if len(ints) < 2:
        return roots
    seen = set()
    for s in _divisors(abs(ints[0])):
        for t in _divisors(abs(ints[-1])):
            for cand in (Fraction(s, t), Fraction(-s, t)):
                if cand in seen:
                    continue
                seen.add(cand)
                if not _scaled_horner(ints, cand.numerator, cand.denominator):
                    roots.append(cand)
    return sorted(roots)


def _divisors(n: int) -> list[int]:
    """The divisors of n >= 1, rising, from its factorization."""
    out = [1]
    for q, e in _factor(n):
        out = [d * q**k for d in out for k in range(e + 1)]
    return sorted(out)


def _distinct_degree(g, p):
    # g monic squarefree, raw; returns (product of degree-d primes, d) pairs
    out, xp, d, tail = [], [0, 1], 0, _tail(g, p)
    while len(g) > 2 * d + 2:
        d += 1
        xp = _powmod(xp, p, tail, p)
        part = _gcd(g, _add(xp, [0, p - 1], p), p)
        if len(part) > 1:
            out.append((part, d))
            g = _divmod_raw(g, part, p)[0]
            tail = _tail(g, p)
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _equal_degree(f, d, p, rng):
    # f monic, raw, a product of distinct primes all of degree d; the factors unsorted
    if len(f) - 1 == d:
        return [f]
    tail = _tail(f, p)
    for r in _splitter_candidates(len(f) - 1, p, rng):
        if p == 2:
            probe = _trace_map(r, d, tail)
        else:
            probe = _add(_powmod(r, (p**d - 1) // 2, tail, p), [p - 1], p)
        cand = _gcd(f, probe, p) if probe else f
        if 1 < len(cand) < len(f):
            rest = _divmod_raw(f, cand, p)[0]
            return _equal_degree(cand, d, p, rng) + _equal_degree(rest, d, p, rng)
    raise SelfCheckError("equal-degree splitting exhausted its candidates")


def _splitter_candidates(n, p, rng):
    # below degree n: a bounded randomized phase, then a deterministic sweep of all small
    # polys as the base-p digits of k (no range(p) is materialized, so any p works)
    for _ in range(64):
        r = _red([rng.randrange(p) for _ in range(n)], p)
        if len(r) > 1:
            yield r
    for k in range(p, p**n):
        yield _red([k // p**i % p for i in range(n)], p)


def _trace_map(r, d, tail):
    # r + r^2 + r^4 + ... + r^(2^(d-1)) mod the modulus of tail, for GF(2) splitting
    acc = term = _mulmod(r, [1], tail, 2)
    for _ in range(d - 1):
        term = _mulmod(term, term, tail, 2)
        acc = _add(acc, term, 2)
    return acc


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over GF(p): f of degree n >= 1 is irreducible exactly
    when it is squarefree and the distinct-degree split finds no factor of
    degree below n."""
    if not f.spec.is_prime_field:
        raise FieldMismatch("irreducibility test implemented over GF(p) only")
    if f.degree < 1:
        return False
    g = _normal(f._nums, f.spec.p)
    return _parts(f) == [(g, 1)] and _distinct_degree(g, f.spec.p) == [(g, len(g) - 1)]
