"""Exact scalars: arbitrary-precision rationals and prime fields GF(p).

A :class:`FieldSpec` names the field (``FieldSpec.rationals()`` or
``FieldSpec.gf(p)`` with p prime, certified by deterministic Miller-Rabin).
A :class:`FieldElem` wraps one scalar together with its spec, so
cross-field arithmetic raises instead of silently coercing.  Rationals are
``fractions.Fraction`` values (always in lowest terms with positive
denominator); GF(p) values are reduced residues in ``range(p)``.  There is
no floating point anywhere.

``FieldElem`` is the boundary type of the library: what callers pass in and
read out one scalar at a time.  Polynomials do not hold field elements;
:class:`~ahalg.poly.Poly` keeps canonical ints and builds elements only when
its coefficients are read.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import FieldMismatch, InfiniteFieldError

RATIONALS = "QQ"
PRIME_FIELD = "GF"


# The first 13 primes as Miller-Rabin bases decide primality for every n
# below this bound (Sorenson and Webster, "Strong pseudoprimes to twelve
# prime bases", 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; refuses n at or above the proven bound."""
    if n >= _MR_BOUND:
        raise ValueError("modulus too large to certify prime")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factor(n: int) -> list[tuple[int, int]]:
    """The pairs ``(q, e)``, q prime and rising, with q^e exactly dividing
    n >= 1: trial division by 2 and the odd d up to the root of what is left."""
    out, d = [], 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n, e = n // d, e + 1
        if e:
            out.append((d, e))
        d += 2 if d > 2 else 1
    return out + [(n, 1)] * (n > 1)


def value_str(v) -> str:
    """``str`` of an int or a Fraction, also past the interpreter's limit on
    int-to-str conversion (process-wide state, which is left as it is)."""
    try:
        return str(v)
    except ValueError:
        if isinstance(v, Fraction):
            den = v.denominator
            return value_str(v.numerator) + ("" if den == 1 else "/" + value_str(den))
        sign, v = ("-", -v) if v < 0 else ("", v)
        k = v.bit_length() * 3 // 20  # about half of the decimal digits
        hi, lo = divmod(v, 10**k)
        return sign + value_str(hi) + value_str(lo).zfill(k)


def decimal_int(digits: str) -> int:
    """``int`` of a string of decimal digits, also past that limit."""
    try:
        return int(digits)
    except ValueError:
        k = len(digits) // 2
        return decimal_int(digits[:-k]) * 10**k + decimal_int(digits[-k:])


class FieldSpec:
    """An exact field: the rationals, or GF(p) for a prime p."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == PRIME_FIELD:
            if p is None or not _is_prime(p):
                raise ValueError(f"modulus {p!r} is not prime")
        elif kind == RATIONALS:
            p = None
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind
        self.p = p

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(RATIONALS)

    @classmethod
    def gf(cls, p: int) -> "FieldSpec":
        return cls(PRIME_FIELD, p)

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == RATIONALS else self.p

    @property
    def is_prime_field(self) -> bool:
        return self.kind == PRIME_FIELD

    def elem(self, value) -> "FieldElem":
        """Coerce an int, Fraction or FieldElem into this field."""
        if isinstance(value, FieldElem):
            if value.spec != self:
                raise FieldMismatch(f"{value!r} is not in {self!r}")
            return value
        return FieldElem(self, value)

    def from_int(self, n: int) -> "FieldElem":
        """The image of the integer n under the canonical map Z -> F."""
        return FieldElem(self, n)

    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def elements(self):
        """Yield each field element exactly once (finite fields only)."""
        if self.kind == RATIONALS:
            raise InfiniteFieldError("cannot enumerate the rationals")
        for r in range(self.p):
            yield FieldElem(self, r)

    def __eq__(self, other):
        return (
            isinstance(other, FieldSpec)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __reduce__(self):
        return FieldSpec, (self.kind, self.p)

    def __repr__(self):
        return "QQ" if self.kind == RATIONALS else f"GF({self.p})"


class FieldElem:
    """One scalar in a fixed :class:`FieldSpec`, kept in canonical form."""

    __slots__ = ("spec", "val")

    def __init__(self, spec: FieldSpec, value):
        self.spec = spec
        if type(value) is int:
            # the common case, tested before the ABC check against Fraction
            self.val = value % spec.p if spec.p else Fraction(value)
            return
        if isinstance(value, FieldElem):
            if value.spec != spec:
                raise FieldMismatch("cannot re-wrap an element of another field")
            value = value.val
        if spec.kind == RATIONALS:
            self.val = value if isinstance(value, Fraction) else Fraction(value)
        else:
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise ValueError("non-integer value in a prime field")
                value = value.numerator
            self.val = value % spec.p

    def _coerce(self, other) -> "FieldElem":
        if isinstance(other, FieldElem):
            if other.spec != self.spec:
                raise FieldMismatch(f"{self.spec!r} vs {other.spec!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return FieldElem(self.spec, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(self.spec, self.val + other.val)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(self.spec, self.val - other.val)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(self.spec, other.val - self.val)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElem(self.spec, self.val * other.val)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return FieldElem(self.spec, -self.val)

    def __pow__(self, n: int):
        if n >= 0:
            if self.spec.is_prime_field:
                return FieldElem(self.spec, pow(self.val, n, self.spec.p))
            return FieldElem(self.spec, self.val**n)
        return self.inverse() ** (-n)

    def inverse(self) -> "FieldElem":
        if not self.val:
            raise ZeroDivisionError("inverse of zero")
        if self.spec.is_prime_field:
            return FieldElem(self.spec, pow(self.val, -1, self.spec.p))
        return FieldElem(self.spec, 1 / self.val)

    def is_zero(self) -> bool:
        return not self.val

    def is_one(self) -> bool:
        return self.val == 1

    def sort_key(self):
        """A total order on the field, used only for deterministic output."""
        return self.val

    def __eq__(self, other):
        if not isinstance(other, FieldElem):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = FieldElem(self.spec, other)
        return self.spec == other.spec and self.val == other.val

    def __hash__(self):
        return hash((self.spec, self.val))

    def __reduce__(self):
        return FieldElem, (self.spec, self.val)

    def __bool__(self):
        return bool(self.val)

    def __str__(self):
        return value_str(self.val)

    def __repr__(self):
        return f"{value_str(self.val)} in {self.spec!r}"


QQ = FieldSpec.rationals()
