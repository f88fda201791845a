"""Normal elements, their classification, simplicity, and height-one primes.

An element v is normal when v*A = A*v.  The decision procedure used here
never factors h: v is normal exactly when it commutes with x and the single
polynomial identity [Y, v] = r*v holds for some r (then conjugation by v
acts as a shear on the generators, giving both inclusions).  The witness r
is produced by one exact division and checked on every coefficient.

Classification into prime factors of h times a central element, and the
height-one prime reports, do consult a factorization of h, made once per
context on first use and kept on it (one passed in serves its call only);
over Q an uncertified factorization degrades the answer instead of being
trusted.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .algebra import AhContext, OreElement, commutator
from .center import central_decompose, is_central
from .errors import NotNormalError, SelfCheckError, UnverifiableError, ZeroInputError
from .poly import FactoredPoly, Poly, _spread, factor, is_irreducible
from .weyl import hy_coordinates


@dataclass(frozen=True)
class NormalityCertificate:
    verdict: bool
    r: Poly | None = None
    reason: str = ""


def is_normal(v: OreElement) -> NormalityCertificate:
    """Decide normality and return the witness r with [Y, v] = r*v.

    Central elements are normal with r = 0; polynomial factors g of h are
    normal with r = (h/g) * g'.
    """
    if v.is_zero():
        raise ZeroInputError("normality of 0 is not defined")
    ctx = v.ctx
    if not commutator(v, ctx.x()).is_zero():
        return NormalityCertificate(False, None, "does not commute with x")
    # [Y, v] has Y-coefficients h * f_i'; r must satisfy h f_i' = r f_i for all i
    first = next(f for f in v.coeffs if not f.is_zero())
    r, rem = divmod(ctx.delta(first), first)
    if not rem.is_zero():
        return NormalityCertificate(False, None, "no polynomial witness exists")
    for f in v.coeffs:
        if ctx.delta(f) != r * f:
            return NormalityCertificate(False, None, "witness fails on a coefficient")
    return NormalityCertificate(True, r)


@dataclass(frozen=True)
class NormalClassification:
    factors: tuple[tuple[Poly, int], ...]
    central_part: OreElement

    def reassemble(self) -> OreElement:
        out = self.central_part
        for u, beta in self.factors:
            out = u**beta * out
        return out


def classify_normal(
    v: OreElement, h_factored: FactoredPoly | None = None
) -> NormalClassification:
    """Split a normal element as (prime factors of h) * (central element).

    In characteristic p the exponents are reduced into [0, p); the reduced
    power is absorbed into the central part.  Raises
    :class:`UnverifiableError` when the factorization of h over Q carries
    unverified factors.  A passed ``h_factored`` serves this call only.
    """
    cert = is_normal(v)
    if not cert.verdict:
        raise NotNormalError(cert.reason)
    ctx = v.ctx
    p = ctx.spec.characteristic
    fac = h_factored if h_factored is not None else ctx.fact("factors", lambda c: factor(c.h))
    if not fac.fully_verified:
        raise UnverifiableError(
            "classification needs a certified factorization of h"
        )
    primes = [t.poly for t in fac.factors if not t.poly.derivative().is_zero()]
    reference = _classification_reference(v)
    factors = []
    for u in primes:
        beta = 0
        probe = reference
        while True:
            q, rem = divmod(probe, u)
            if not rem.is_zero():
                break
            beta += 1
            probe = q
        if p:
            beta %= p
        if beta:
            factors.append((u, beta))
    divisor = Poly.one(ctx.spec)
    for u, beta in factors:
        divisor = divisor * u**beta
    central_coeffs = []
    for f in v.coeffs:
        q, rem = divmod(f, divisor)
        if not rem.is_zero():
            raise NotNormalError("extracted prime part does not divide the element")
        central_coeffs.append(q)
    z = ctx.element(central_coeffs)
    if not is_central(z):
        raise NotNormalError("residual part is not central")
    out = NormalClassification(tuple(factors), z)
    if out.reassemble() != v:
        raise SelfCheckError("the classification does not reassemble the element")
    return out


def _classification_reference(v: OreElement) -> Poly:
    """A polynomial carrying the common prime content of v's coefficients.

    In char 0 a normal element lies in F[x], so v itself works.  In char p
    the coordinates f_i of v in ``h^i y^i`` share a common prime part up to
    central (p-th power) factors; the first nonzero f_i is a reference.
    """
    ctx = v.ctx
    if ctx.spec.characteristic == 0:
        if len(v.coeffs) != 1:
            raise SelfCheckError("char-0 normal elements are polynomials")
        return v.coeffs[0]
    for f in hy_coordinates(v):
        if not f.is_zero():
            return f
    raise ZeroInputError("zero element")


def is_simple(ctx: AhContext) -> bool:
    """Simplicity criterion: characteristic 0 with constant h, and nothing else."""
    return ctx.spec.characteristic == 0 and ctx.deg_h == 0


class PrimeKind(Enum):
    FACTOR_OF_H = "FactorOfH"
    CENTRAL_IRREDUCIBLE = "CentralIrreducible"
    NOT_PRIME_GENERATOR = "NotPrimeGenerator"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class PrimeGeneratorReport:
    kind: PrimeKind
    detail: str


def height_one_prime_test(
    v: OreElement, h_factored: FactoredPoly | None = None, seed: int = 0
) -> PrimeGeneratorReport:
    """Does v generate a height-one prime ideal?

    The generators are the monic prime factors of h and, in characteristic
    p, the central elements irreducible in the center that are not p-th
    powers of prime factors of h.  Central elements genuinely bivariate in
    the two central generators are reported ``Unknown`` (their
    irreducibility is not decided here).  A passed ``h_factored`` serves
    this call only; ``seed`` only picks the path of ctx's first factoring.
    """
    if v.is_zero():
        raise ZeroInputError("the zero ideal is not principal height one")
    ctx = v.ctx
    p = ctx.spec.characteristic
    # factor sorts its terms, so the seed only picks the path of the first fill
    fac = h_factored if h_factored is not None else ctx.fact(
        "factors", lambda c: factor(c.h, seed=seed))
    if not fac.fully_verified:
        return PrimeGeneratorReport(
            PrimeKind.UNKNOWN, "factorization of h is not certified over QQ"
        )
    primes = [t.poly for t in fac.factors]
    if len(v.coeffs) == 1:
        poly = v.coeffs[0]
        if poly.degree >= 1:
            monic = poly.monic()
            if any(monic == u for u in primes):
                return PrimeGeneratorReport(
                    PrimeKind.FACTOR_OF_H, f"associate of the prime factor {monic}"
                )
    if p == 0:
        return PrimeGeneratorReport(
            PrimeKind.NOT_PRIME_GENERATOR,
            "in characteristic 0 only the prime factors of h qualify",
        )
    if not is_central(v):
        return PrimeGeneratorReport(
            PrimeKind.NOT_PRIME_GENERATOR,
            "not central and not an associate of a prime factor of h",
        )
    x_poly, y_poly = _central_coordinates(v)
    if x_poly is None and y_poly is None:
        return PrimeGeneratorReport(
            PrimeKind.UNKNOWN,
            "central element bivariate in x^p and h^p y^p; irreducibility not decided",
        )
    if y_poly is not None:
        if y_poly.degree < 1 or not is_irreducible(y_poly):
            return PrimeGeneratorReport(
                PrimeKind.NOT_PRIME_GENERATOR,
                "reducible (or constant) as a polynomial in h^p y^p",
            )
        return PrimeGeneratorReport(
            PrimeKind.CENTRAL_IRREDUCIBLE,
            "irreducible in the central generator h^p y^p",
        )
    if x_poly.degree < 1 or not is_irreducible(x_poly):
        return PrimeGeneratorReport(
            PrimeKind.NOT_PRIME_GENERATOR,
            "reducible (or constant) as a polynomial in x^p",
        )
    monic_v = v.coeffs[0].monic()
    for u in primes:
        if monic_v == _spread(ctx.spec, u._nums, p):  # u^p over GF(p)
            return PrimeGeneratorReport(
                PrimeKind.NOT_PRIME_GENERATOR,
                f"associate of {u}^{p}, which does not generate a prime",
            )
    return PrimeGeneratorReport(
        PrimeKind.CENTRAL_IRREDUCIBLE,
        "irreducible in the central generator x^p and not a p-th power of a factor of h",
    )


def _central_coordinates(v: OreElement):
    """Univariate images of a central element in the generators X = x^p, T = h^p y^p.

    Returns (poly in X, None) or (None, poly in T) when v is univariate in
    one generator, and (None, None) when genuinely bivariate.
    """
    ctx = v.ctx
    spec = ctx.spec
    dec = central_decompose(v)
    cell = dec.table.get((0, 0), {})
    others = {k: c for k, c in dec.table.items() if k != (0, 0) and c}
    if others:
        raise SelfCheckError("central element must decompose on the identity basis element")
    xs = {a for (a, b) in cell if b == 0}
    ys = {b for (a, b) in cell if a == 0}
    if all(b == 0 for (_, b) in cell):
        coeffs = [spec.zero()] * (max(xs, default=0) + 1)
        for (a, _), c in cell.items():
            coeffs[a] = c
        return Poly(spec, coeffs), None
    if all(a == 0 for (a, _) in cell):
        coeffs = [spec.zero()] * (max(ys, default=0) + 1)
        for (_, b), c in cell.items():
            coeffs[b] = c
        return None, Poly(spec, coeffs)
    return None, None
