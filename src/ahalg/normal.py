"""Normal elements, their classification, simplicity, and height-one primes.

An element v is normal when v*A = A*v.  The decision procedure used here
never factors h: v is normal exactly when it commutes with x and the single
polynomial identity [Y, v] = r*v holds for some r (then conjugation by v
acts as a shear on the generators, giving both inclusions).  The witness r
is produced by one exact division and checked on every coefficient.

Classification into prime factors of h times a central element, and the
height-one prime reports, do consult a factorization of h, made on first
use and kept in the record of h (one passed in serves its call only); over
Q an uncertified factorization degrades the answer instead of being
trusted.  The prime part g of a normal v = g*z (z central) is read off
v's top Y-coefficient in every characteristic: in characteristic 0, v lies
in F[x]; in characteristic p the center is F[x^p, h^p y^p] and h^p y^p is
monic in Y, so that coefficient is g times a p-th power.
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum

from .algebra import AhContext, OreElement, _element, commutator
from .center import is_central
from .errors import NotNormalError, SelfCheckError, UnverifiableError, ZeroInputError
from .poly import FactoredPoly, Poly, _kept, _poly, _spread, factor, is_irreducible
from .weyl import hy_coordinates


class NormalityCertificate(namedtuple(
        "NormalityCertificate", "verdict r reason", defaults=(None, ""))):
    __slots__ = ()


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
    # the exact division by the first nonzero f_i makes r hold there
    first, *rest = (f for f in v.coeffs if not f.is_zero())
    r, rem = divmod(ctx.delta(first), first)
    if not rem.is_zero():
        return NormalityCertificate(False, None, "no polynomial witness exists")
    if any(ctx.delta(f) != r * f for f in rest):
        return NormalityCertificate(False, None, "witness fails on a coefficient")
    return NormalityCertificate(True, r)


class NormalClassification(namedtuple("NormalClassification", "factors central_part")):
    __slots__ = ()

    def reassemble(self) -> OreElement:
        out = self.central_part
        for u, beta in self.factors:
            out = u**beta * out
        return out


def classify_normal(
    v: OreElement, h_factored: FactoredPoly | None = None
) -> NormalClassification:
    """Split a normal element as (prime factors of h) * (central element).

    Each prime's exponent is its valuation in v's top Y-coefficient, which
    is g times a p-th power (times a scalar in characteristic 0).  In
    characteristic p the exponents are reduced into [0, p); the reduced
    power is absorbed into the central part.  Raises
    :class:`UnverifiableError` when the factorization of h over Q carries
    unverified factors.  A passed ``h_factored`` serves this call only.
    """
    cert = is_normal(v)
    if not cert.verdict:
        raise NotNormalError(cert.reason)
    ctx = v.ctx
    p = ctx.spec.characteristic
    fac = h_factored if h_factored is not None else _kept(ctx.h, "factors", factor)
    if not fac.fully_verified:
        raise UnverifiableError(
            "classification needs a certified factorization of h"
        )
    if not p and len(v.coeffs) != 1:
        raise SelfCheckError("char-0 normal elements are polynomials")
    primes = [t.poly for t in fac.factors if not t.poly.derivative().is_zero()]
    factors, divisor = [], Poly.one(ctx.spec)
    for u in primes:
        beta, (q, rem) = 0, divmod(v.coeffs[-1], u)
        while rem.is_zero():
            beta += 1
            q, rem = divmod(q, u)
        if p:
            beta %= p
        if beta:
            factors.append((u, beta))
            divisor = divisor * u**beta
    central_coeffs = []
    for f in v.coeffs:
        q, rem = divmod(f, divisor)
        if not rem.is_zero():
            raise NotNormalError("extracted prime part does not divide the element")
        central_coeffs.append(q)
    z = _element(ctx, central_coeffs)
    if not is_central(z):
        raise NotNormalError("residual part is not central")
    out = NormalClassification(tuple(factors), z)
    if out.reassemble() != v:
        raise SelfCheckError("the classification does not reassemble the element")
    return out


def is_simple(ctx: AhContext) -> bool:
    """Simplicity criterion: characteristic 0 with constant h, and nothing else."""
    return ctx.spec.characteristic == 0 and ctx.deg_h == 0


class PrimeKind(Enum):
    FACTOR_OF_H = "FactorOfH"
    CENTRAL_IRREDUCIBLE = "CentralIrreducible"
    NOT_PRIME_GENERATOR = "NotPrimeGenerator"
    UNKNOWN = "Unknown"


class PrimeGeneratorReport(namedtuple("PrimeGeneratorReport", "kind detail")):
    __slots__ = ()


def height_one_prime_test(
    v: OreElement, h_factored: FactoredPoly | None = None, seed: int = 0
) -> PrimeGeneratorReport:
    """Does v generate a height-one prime ideal?

    The generators are the monic prime factors of h and, in characteristic
    p, the central elements irreducible in the center that are not p-th
    powers of prime factors of h.  Central elements genuinely bivariate in
    the two central generators are reported ``Unknown`` (their
    irreducibility is not decided here).  A passed ``h_factored`` serves
    this call only; ``seed`` only picks the path of h's first factoring.
    """
    if v.is_zero():
        raise ZeroInputError("the zero ideal is not principal height one")
    ctx = v.ctx
    p = ctx.spec.characteristic
    # factor sorts its terms, so the seed only picks the path of the first fill
    fac = h_factored if h_factored is not None else _kept(
        ctx.h, "factors", lambda h: factor(h, seed=seed))
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
            base = f"({u})" if len(u._nums) - u._nums.count(0) > 1 else str(u)
            return PrimeGeneratorReport(
                PrimeKind.NOT_PRIME_GENERATOR,
                f"associate of {base}^{p}, which does not generate a prime",
            )
    return PrimeGeneratorReport(
        PrimeKind.CENTRAL_IRREDUCIBLE,
        "irreducible in the central generator x^p and not a p-th power of a factor of h",
    )


def _central_coordinates(v: OreElement):
    """Univariate images of a central element in the generators X = x^p, T = h^p y^p,
    read off its coordinates f_j in ``h^j y^j``: v = sum_b f_(bp)(X) T^b.

    Returns (poly in X, None) or (None, poly in T) when v is univariate in
    one generator, and (None, None) when genuinely bivariate.
    """
    spec, p = v.ctx.spec, v.ctx.spec.p
    fs = [f._nums for f in hy_coordinates(v)]
    if any(c and (j % p or k % p) for j, f in enumerate(fs) for k, c in enumerate(f)):
        raise SelfCheckError("central element must decompose on the identity basis element")
    if len(fs) == 1:
        return _poly(spec, fs[0][::p]), None
    if all(len(f) <= 1 for f in fs[::p]):
        return None, _poly(spec, [f[0] if f else 0 for f in fs[::p]])
    return None, None
