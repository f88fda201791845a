"""Dense univariate polynomials over an exact field.

A :class:`Poly` holds canonical Python ints, not field elements: numerators
by increasing degree with trailing zeros stripped, over one positive
denominator.  Over GF(p) the numerators are residues in ``range(p)`` and the
denominator is 1; over QQ the gcd of the denominator and all numerators is
1.  So equality and hashing are structural, and the zero polynomial is
``((), 1)`` (its ``degree`` is ``-inf``).  Every operation runs on those ints
and ends in one normalize step: reduce mod p, or divide out the gcd.  Beyond
that step the fields differ only where a coefficient is inverted (division
by an inverse mod p, pseudo-division over QQ; ``monic``) or evaluated.
:class:`FieldElem` is the boundary type: the constructor accepts ints,
Fractions and field elements, and ``coeffs``, ``coeff``, ``lc``,
``evaluate`` and ``rational_roots`` build field elements when they are read.

On top of the ring operations the module provides the calculus and
factorization support the rest of the library leans on: formal derivatives,
monic gcd, composition, squarefree decomposition (one loop for both
characteristics, with p-th-root descent when the derivative vanishes),
distinct-root counting, full factorization over GF(p) (squarefree +
distinct-degree + equal-degree splitting), the irreducibility test over
GF(p) on the same distinct-degree split, and rational-root based factor
extraction over Q.  Every product of two polynomials, alone or in a sum,
runs the one schoolbook loop ``_mul_add`` on raw ints.

Factorization over Q is not a complete irreducibility decision procedure:
factors this module cannot certify carry ``verified=False`` and downstream
consumers degrade honestly instead of guessing.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import FieldMismatch, SelfCheckError, ZeroInputError
from .fields import FieldElem, FieldSpec, value_str

NEG_INF = float("-inf")

# Dense closed-form outputs (the center over GF(p), powers of x^p - x) are
# refused past this many coefficients; x^3+2x+5 over GF(1000003) needs 2*10^6
MAX_DENSE_TERMS = 2**22


def _canonical(spec: FieldSpec, nums, den: int) -> tuple[tuple[int, ...], int]:
    """The canonical form of ``sum nums[i] * x^i / den`` (den nonzero).

    GF(p) reduces every numerator mod p (its denominator is always 1); QQ
    makes the denominator positive and divides out the gcd of it and all
    numerators.
    """
    p = spec.p
    if p:
        nums = [c % p for c in nums]
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    nums = tuple(nums[:n])
    if not nums:
        return nums, 1
    if den != 1:
        if den < 0:
            den, nums = -den, tuple(-c for c in nums)
        g = gcd(den, *nums)
        if g != 1:
            den, nums = den // g, tuple(c // g for c in nums)
    return nums, den


def _poly(spec: FieldSpec, nums, den: int = 1) -> "Poly":
    """The polynomial ``sum nums[i] * x^i / den``, built from raw ints."""
    f = object.__new__(Poly)
    f.spec = spec
    f._nums, f._den = _canonical(spec, nums, den)
    return f


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


def sum_of_products(spec: FieldSpec, terms, base: "Poly | None" = None) -> "Poly":
    """``base + sum c * f * g`` over triples ``(int c, Poly f, Poly g)`` of one field.

    The products accumulate as ints over the lcm of their denominators, on
    top of the raw ints of base, and the sum is normalized once.
    """
    bnums, bden = (base._nums, base._den) if base is not None else ((), 1)
    den = 1 if spec.p else lcm(bden, *(f._den * g._den for _, f, g in terms))
    out = [c * (den // bden) for c in bnums]
    for c, f, g in terms:
        if f._nums and g._nums:
            _mul_add(out, c if den == 1 else c * (den // (f._den * g._den)), f._nums, g._nums)
    return _poly(spec, out, den)


def sum_of_raw_products(spec: FieldSpec, terms) -> "Poly":
    """``sum c * a * b / d`` over raw terms ``(int c, nums a, nums b, int d)``,
    d the product of the denominators of a and b, like ``sum_of_products``."""
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


class Poly:
    """A dense univariate polynomial with exact field coefficients."""

    __slots__ = ("spec", "_nums", "_den")

    def __init__(self, spec: FieldSpec, coeffs=()):
        vals = [c if type(c) is int else spec.elem(c).val for c in coeffs]
        den = 1
        if not spec.p:
            den = lcm(*(v.denominator for v in vals))
            vals = [v.numerator * (den // v.denominator) for v in vals]
        self.spec = spec
        self._nums, self._den = _canonical(spec, vals, den)

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

    def _check(self, other) -> "Poly":
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction, FieldElem)):
                return NotImplemented
            return Poly(self.spec, (other,))
        if other.spec is not self.spec and other.spec != self.spec:
            raise FieldMismatch("polynomials over different fields")
        return other

    # -- ring operations ----------------------------------------------

    def _plus(self, other: "Poly", sign: int) -> "Poly":
        # self + sign * other, over the product of the two denominators
        a, b = self._nums, other._nums
        den = da = self._den
        db = other._den
        if da != db:
            a = [c * db for c in a]
            b = [c * da for c in b]
            den = da * db
        if sign < 0:
            b = [-c for c in b]
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return _poly(self.spec, out, den)

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self._plus(other, -1)

    def __rsub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return _poly(self.spec, [-c for c in self._nums], self._den)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            if not isinstance(other, (int, Fraction, FieldElem)):
                return NotImplemented
            return self.scaled(self.spec.elem(other))
        if other.spec is not self.spec and other.spec != self.spec:
            raise FieldMismatch("polynomials over different fields")
        return _poly(self.spec, _mul_add([], 1, self._nums, other._nums), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.spec)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def __divmod__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.spec.p
        rem = list(self._nums)
        dn = len(other._nums) - 1
        low, lc = other._nums[:dn], other._nums[dn]
        quot = [0] * max(len(rem) - dn, 0)
        if p:
            inv_lc = pow(lc, -1, p)
            for i in range(len(rem) - 1, dn - 1, -1):
                q = rem[i] * inv_lc % p
                if q:
                    quot[i - dn] = q
                    for j, b in enumerate(low, i - dn):
                        rem[j] -= q * b
            return _poly(self.spec, quot), _poly(self.spec, rem[:dn])
        # pseudo-division: lc^e * self = quot * other + rem in integers,
        # scaling by lc only at the e steps that eliminate a nonzero term
        e = 0
        for i in range(len(rem) - 1, dn - 1, -1):
            c = rem[i]
            if not c:
                continue
            if lc != 1:
                e += 1
                for j in range(i):
                    rem[j] *= lc
                for j in range(i - dn + 1, len(quot)):
                    quot[j] *= lc
            quot[i - dn] = c
            for j, b in enumerate(low, i - dn):
                rem[j] -= c * b
        den = lc**e * self._den
        return (
            _poly(self.spec, [q * other._den for q in quot], den),
            _poly(self.spec, rem[:dn], den),
        )

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

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
        spec = self.spec
        acc = _poly(spec, ())
        for c in reversed(self._nums):
            acc = acc * inner + _poly(spec, (c,))
        return _poly(spec, acc._nums, acc._den * self._den)

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
        if type(c) is not int:
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
    """Canonical text form: terms in decreasing degree, e.g. ``x^2 - 2*x + 1``."""
    if f.is_zero():
        return "0"
    values = f._values()
    parts = []
    for i in range(len(values) - 1, -1, -1):
        c = values[i]
        if not c:
            continue
        body = _term_str(c, i)
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(" - " + body[1:])
        else:
            parts.append(" + " + body)
    return "".join(parts)


def _term_str(c, i: int) -> str:
    # c is a residue in range(p) or a Fraction, so c == -1 only over QQ
    if i == 0:
        return value_str(c)
    v = "x" if i == 1 else f"x^{i}"
    if c == 1:
        return v
    if c == -1:
        return f"-{v}"
    return f"{value_str(c)}*{v}"


# -- gcd and modular arithmetic ----------------------------------------


def gcd_monic(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) is rejected."""
    if a.is_zero() and b.is_zero():
        raise ZeroInputError("gcd of two zero polynomials")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def pow_mod(base: Poly, exp: int, mod: Poly) -> Poly:
    """base**exp reduced modulo mod, by square-and-multiply."""
    result = Poly.one(base.spec)
    base = base % mod
    while exp:
        if exp & 1:
            result = result * base % mod
        base = base * base % mod
        exp >>= 1
    return result


# -- squarefree structure ----------------------------------------------


def pth_root(f: Poly) -> Poly:
    """The p-th root of f in GF(p)[x], assuming f lies in GF(p)[x^p].

    Over the prime field a^p = a, so the root keeps the coefficients and
    divides every exponent by p.
    """
    p = f.spec.characteristic
    if p == 0:
        raise ZeroInputError("p-th root only exists in characteristic p")
    nums = f._nums
    if any(c for i, c in enumerate(nums) if i % p):
        raise ValueError("polynomial is not a p-th power")
    return _poly(f.spec, nums[::p])


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Write monic(f) as a product of pairwise-coprime squarefree parts.

    Returns ``[(g, m), ...]`` with each g monic squarefree and
    ``prod g**m == monic(f)``, sorted by multiplicity.  The i-th pass of the
    inner loop splits off the part of multiplicity i (times p^k after k
    descents).  In characteristic p what is left has a vanishing derivative
    and the loop descends to its p-th root (GF(p) is perfect); in
    characteristic 0 the leftover is 1.
    """
    if f.is_zero():
        raise ZeroInputError("cannot decompose the zero polynomial")
    f = f.monic()
    p = f.spec.characteristic
    out = []
    n = 1
    while f.degree > 0:
        fp = f.derivative()
        if fp.is_zero():
            f = pth_root(f)
            n *= p
            continue
        g = gcd_monic(f, fp)
        w = f // g
        i = 1
        while w.degree > 0:
            y = gcd_monic(w, g)
            z = w // y
            if z.degree > 0:
                out.append((z, i * n))
            w = y
            g = g // y
            i += 1
        if g.degree <= 0:
            break
        f = pth_root(g)
        n *= p
    return sorted(out, key=lambda t: (t[1], _poly_sort_key(t[0])))


def squarefree_part(f: Poly) -> Poly:
    """The radical of f: the product of its distinct monic prime factors."""
    parts = squarefree_decomposition(f)
    out = Poly.one(f.spec)
    for g, _ in parts:
        out = out * g
    return out


def distinct_root_count(f: Poly) -> int:
    """Number of distinct roots of f in the algebraic closure.

    Over a perfect field this is exactly the degree of the radical.
    """
    if f.is_zero():
        raise ZeroInputError("the zero polynomial has no root count")
    return squarefree_part(f).degree


# -- factorization ------------------------------------------------------


@dataclass(frozen=True)
class FactorTerm:
    poly: Poly
    multiplicity: int
    verified: bool

    def __iter__(self):
        # allows unpacking as (poly, multiplicity)
        return iter((self.poly, self.multiplicity))


@dataclass(frozen=True)
class FactoredPoly:
    unit: FieldElem
    factors: tuple[FactorTerm, ...]

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
    unit = f.lc
    terms: list[FactorTerm] = []
    for g, mult in squarefree_decomposition(f):
        if f.spec.is_prime_field:
            for q in _factor_squarefree_gfp(g, seed):
                terms.append(FactorTerm(q, mult, True))
        else:
            terms.extend(
                FactorTerm(q, mult, ok) for q, ok in _split_rational(g)
            )
    terms.sort(key=lambda t: (_poly_sort_key(t.poly), t.multiplicity))
    return FactoredPoly(unit, tuple(terms))


def _split_rational(g: Poly) -> list[tuple[Poly, bool]]:
    # g monic squarefree over Q
    out = []
    for root in rational_roots(g):
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
    if f.is_zero():
        raise ZeroInputError("the zero polynomial has every root")
    spec = f.spec
    if spec.is_prime_field:
        raise FieldMismatch("rational_roots is defined over QQ only")
    roots = []
    # strip x^k so the constant term becomes nonzero; the denominator and
    # the content do not move the roots
    nums = f._nums
    k = 0
    while not nums[k]:
        k += 1
    if k:
        roots.append(spec.zero())
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
                    roots.append(spec.elem(cand))
    roots.sort(key=lambda e: e.sort_key())
    return roots


def _divisors(n: int) -> list[int]:
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _factor_squarefree_gfp(g: Poly, seed: int) -> list[Poly]:
    rng = random.Random(seed)
    out = []
    for prod, d in _distinct_degree(g):
        out.extend(_equal_degree(prod, d, rng))
    return out


def _distinct_degree(g: Poly) -> list[tuple[Poly, int]]:
    # g monic squarefree; returns (product of degree-d primes, d) pairs
    p = g.spec.characteristic
    x = Poly.x(g.spec)
    out = []
    xp = x
    d = 0
    while g.degree >= 2 * (d + 1):
        d += 1
        xp = pow_mod(xp, p, g)
        part = gcd_monic(g, xp - x)
        if part.degree > 0:
            out.append((part, d))
            g = g // part
            if g.degree > 0:
                xp = xp % g
    if g.degree > 0:
        out.append((g, g.degree))
    return out


def _equal_degree(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    # f = product of distinct monic primes, all of degree d
    if f.degree == d:
        return [f]
    p = f.spec.characteristic
    split = None
    for r in _splitter_candidates(f, rng):
        if p == 2:
            probe = _trace_map(r, d, f)
        else:
            probe = pow_mod(r, (p**d - 1) // 2, f) - Poly.one(f.spec)
        if probe.is_zero():
            continue
        cand = gcd_monic(f, probe)
        if 0 < cand.degree < f.degree:
            split = cand
            break
    if split is None:
        raise SelfCheckError("equal-degree splitting exhausted its candidates")
    return sorted(
        _equal_degree(split, d, rng) + _equal_degree(f // split, d, rng),
        key=_poly_sort_key,
    )


def _splitter_candidates(f: Poly, rng: random.Random):
    # a bounded randomized phase, then a deterministic sweep of all small polys
    p = f.spec.characteristic
    n = f.degree
    for _ in range(64):
        coeffs = [rng.randrange(p) for _ in range(n)]
        r = Poly.from_ints(f.spec, coeffs)
        if r.degree >= 1:
            yield r
    for deg in range(1, n):
        for tail in itertools.product(range(p), repeat=deg):
            for lead in range(1, p):
                yield Poly.from_ints(f.spec, list(tail) + [lead])


def _trace_map(r: Poly, d: int, mod: Poly) -> Poly:
    # r + r^2 + r^4 + ... + r^(2^(d-1)) mod `mod`, for GF(2) splitting
    acc = r % mod
    term = r % mod
    for _ in range(d - 1):
        term = term * term % mod
        acc = (acc + term) % mod
    return acc


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over GF(p): f of degree n >= 1 is irreducible exactly
    when it is squarefree and the distinct-degree split finds no factor of
    degree below n."""
    if not f.spec.is_prime_field:
        raise FieldMismatch("irreducibility test implemented over GF(p) only")
    if f.degree < 1:
        return False
    f = f.monic()
    return gcd_monic(f, f.derivative()).degree == 0 and _distinct_degree(f) == [(f, f.degree)]
