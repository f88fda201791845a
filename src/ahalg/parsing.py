"""Expression parsing for scalars, polynomials, and algebra elements.

Grammar (shared with the command line):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' nat)?
    atom   := scalar | 'x' | 'Y' | 'y' | '(' expr ')'
    scalar := int ('/' int)?          -- the '/denominator' form only over QQ

One recursive descent evaluates every expression on its raw normal form
``sum_i f_i(x) Y^i``: row i holds the integer numerators of f_i over one
positive denominator (residues over 1 in GF(p)), no row ends in a zero and
the last row is not empty.  Sums add rows.  A product whose left factor has
no generator, or whose right factor has no x, is a convolution of rows on
``poly._mul_add`` (so is every ``c*x^i*Y^j``); only a generator meeting an x
on its right takes the Ore product, so ``*`` is order-sensitive.  The
generator letter is 'Y' (subalgebra) or 'y' (Weyl algebra), never both.  At
most ``MAX_NESTING`` parentheses and unary minus signs may be open at once,
and a power or product predicted, from the rows of its operands, to take
more than ``MAX_POWER_WORDS`` words is refused before it is computed.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, zip_longest
from math import gcd, lcm

from .algebra import AhContext, OreElement
from .errors import ParseError
from .fields import FieldElem, FieldSpec, decimal_int
from .poly import Poly, _mul_add, _poly, _power, _red

# each level of nesting costs at most four Python frames of the descent, so 200
# levels stay well inside the interpreter's default recursion limit of 1000
MAX_NESTING = 200
# a power is refused when its result is predicted to take more than this many
# 64-bit words (terms times words per coefficient): 2^13 words are 64 KiB, and
# ``(x+1)^8191`` over GF(1000003), the densest result allowed, takes about 4 s
MAX_POWER_WORDS = 2**13

_TOKEN = re.compile(r"\d+|[A-Za-z]|[-+*/^()]")
_STRAY = re.compile(r"[^\d\sA-Za-z\-+*/^()]")  # starts no token and is not whitespace


def _tokenize(src: str) -> list[str]:
    """The token texts of src in one regex pass, then '' for the end."""
    if stray := _STRAY.search(src):
        raise ParseError(f"unexpected character {stray.group()!r}", stray.start())
    return _TOKEN.findall(src) + [""]


def _positions(src: str) -> list[int]:
    """Where each token of ``_tokenize(src)`` starts; only errors read them."""
    return [m.start() for m in _TOKEN.finditer(src)] + [len(src)]


def _trim(rows, p) -> list:
    """The fresh rows reduced mod p, less the zeros ending a row and the empty
    rows at the end: an empty row is falsy, so ``_red`` with no p pops those."""
    return _red([_red(r, p) for r in rows], None)


def _raw(polys) -> tuple[list, int]:
    """The rows and denominator of ``sum polys[i] * Y^i``."""
    den = lcm(*(f._den for f in polys))
    return [[c * (den // f._den) for c in f._nums] for f in polys], den


def _size(rows, den: int, p, step: int, exact: bool) -> tuple[int, int, int]:
    """The Y-degree, weight and coefficient bits of ``rows / den``, which add
    up under products: x weighs 1 and Y ``step`` (deg h - 1, what delta adds),
    and the weight is 0 if no coefficient has an x; the bits, 0 over GF(p), are
    those of ``height * terms``, each row divided by its gcd with den if exact."""
    ydeg, weight = (len(rows) - 1, len(rows[0]) - 1 if rows[0] else 0) if rows else (0, 0)
    if ydeg and max(map(len, rows)) > 1:
        weight = max(len(r) - 1 + i * step for i, r in enumerate(rows) if r)
    if p:
        return ydeg, weight, 0
    height, terms = 1, 0
    for r in filter(None, rows):
        g = gcd(den, *r) if exact else 1
        height = max(height, den // g, max(r) // g, -min(r) // g)
        terms += len(r) - r.count(0)
    return ydeg, weight, (height - 1).bit_length() + (terms - 1).bit_length()


def _refuse_if_large(what: str, terms, p, src=None, at=0) -> bool:
    """Refuse, at token ``at`` of src, a result of size ``sum k * _size(value)``
    over ``(ky, kw, kb, rows, den, step)`` in terms, if its 64-bit words, Y-degrees
    times x-degrees times the words of p or of ``1 + bits`` bits over QQ, are over
    ``MAX_POWER_WORDS``; return whether the heights had to be taken exactly."""
    for exact in (False, True):
        ydeg = weight = bits = 0
        for ky, kw, kb, rows, den, step in terms:
            y, w, b = _size(rows, den, p, step, exact)
            ydeg, weight, bits = ydeg + ky * y, weight + kw * w, bits + kb * b
        words = (ydeg + 1) * (weight + 1) * -(-(p.bit_length() if p else 1 + bits) // 64)
        if words <= MAX_POWER_WORDS:
            return exact
    pos = None if src is None else _positions(src)[at]
    raise ParseError(f"{what} too large: {words} words, limit {MAX_POWER_WORDS}", pos)


def _reduced(rows, den: int):
    """``(rows, den)`` with the gcd of den and every numerator divided out."""
    g = gcd(den, *chain.from_iterable(rows)) if den > 1 else 1
    return (rows, den) if g == 1 else ([[c // g for c in r] for r in rows], den // g)


class _Parser:
    """Recursive-descent evaluation of src to ``value = (rows, den)``, with the
    letters ``names`` ('x', then the generator) as atoms."""

    def __init__(self, src: str, spec: FieldSpec, names=(), ctx: AhContext | None = None):
        self.src, self.p, self.names, self.ctx = src, spec.characteristic, names, ctx
        self.step = max(ctx.deg_h - 1, 0) if ctx else 0
        self.tokens, self.i, self.depth = _tokenize(src), 0, 0
        self.value = self.expr()
        if self.tokens[self.i]:
            raise self.error("trailing input")

    def error(self, message: str, i: int | None = None) -> ParseError:  # at the next token
        return ParseError(message, _positions(self.src)[self.i if i is None else i])

    def enter(self, i: int) -> None:  # one more '(' or unary '-' open, at token i
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.error("expression nested too deeply", i)

    def expr(self):
        value, tokens = self.term(), self.tokens
        while tokens[self.i] in ("+", "-"):
            sign, self.i = (1 if tokens[self.i] == "+" else -1), self.i + 1
            (ra, da), (rb, db) = value, self.term()
            den = da if da == db else lcm(da, db)
            ka, kb = den // da, sign * (den // db)
            rows = [[ka * u + kb * v for u, v in zip_longest(f, g, fillvalue=0)]
                    for f, g in zip_longest(ra, rb, fillvalue=())]
            value = _trim(rows, self.p), den
        return value

    def term(self):
        value = self.factor()
        while self.tokens[self.i] == "*":
            at, self.i = self.i, self.i + 1
            rhs, s = self.factor(), self.step
            if _refuse_if_large("product", ((1, 1, 1, *value, s), (1, 1, 1, *rhs, s)), self.p, self.src, at):
                value, rhs = _reduced(*value), _reduced(*rhs)  # compute on what was judged
            value = self.times(value, rhs)
        return value

    def factor(self):
        tokens, i = self.tokens, self.i
        tok, self.i = tokens[i], i + 1
        if tok == "-":
            # negation binds looser than '^': -x^4 means -(x^4)
            self.enter(i)
            rows, den = self.factor()
            self.depth -= 1
            return _trim([[-c for c in r] for r in rows], self.p), den
        if tok.isdecimal():
            num, den = decimal_int(tok), 1
            if tokens[self.i] == "/":
                if self.p:
                    raise self.error("rational literals need the field QQ")
                self.i += 2
                if not tokens[i + 2].isdecimal():
                    raise self.error("denominator must be an integer", i + 2)
                if (den := decimal_int(tokens[i + 2])) == 0:
                    raise self.error("zero denominator", i + 2)
            num = num % self.p if self.p else num
            value = ([[num]], den) if num else ([], 1)
        elif tok in self.names:
            value = ([[0, 1]] if tok == "x" else [[], [1]]), 1
        elif tok == "(":
            self.enter(i)
            value = self.expr()
            if tokens[self.i] != ")":
                raise self.error("expected ')'")
            self.i += 1
            self.depth -= 1
        else:
            raise self.error(f"unknown name {tok!r} here" if tok.isalpha() else "expected a value", i)
        if tokens[self.i] != "^":
            return value
        at = self.i + 1
        if not tokens[at].isdecimal():
            raise self.error("negative exponents are not allowed" if tokens[at] == "-"
                             else "exponent must be a nonnegative integer", at)
        self.i, exp = at + 1, decimal_int(tokens[at])
        if exp > 1:  # value^0 and value^1 are no larger than value
            _refuse_if_large("power", ((exp, exp, exp, *value, self.step),), self.p, self.src, at)
        if tok in self.names:  # x^n and Y^n are monomials
            return ([[0] * exp + [1]] if tok == "x" else [[]] * exp + [[1]]), 1
        # powers of a reduced base stay reduced (Gauss's lemma; _raw reduces Ore products)
        return _power(_reduced(*value), exp, self.times, ([[1]], 1))

    def times(self, a, b):
        (ra, da), (rb, db) = a, b
        if len(ra) == 1 and len(ra[0]) == 1:
            ra, rb = rb, ra  # a scalar commutes with everything
        if len(rb) == 1 and len(rb[0]) == 1:  # a nonzero scalar, and p is prime
            c, p = rb[0][0], self.p
            return [[c * v % p for v in r] if p else [c * v for v in r] for r in ra], da * db
        if len(ra) > 1 and any(len(g) > 1 for g in rb):
            # a generator meets an x on its right: the Ore product
            fs, gs = ([_poly(self.ctx.spec, r, d) for r in rows] for rows, d in (a, b))
            return _raw((OreElement(self.ctx, fs) * OreElement(self.ctx, gs)).coeffs)
        # a in F[x] or b in F[Y]: f_i Y^i * g_j Y^j = f_i g_j Y^(i+j)
        rows = [[] for _ in range(len(ra) + len(rb) - 1)]
        for i, f in enumerate(ra):
            for j, g in enumerate(rb, i):
                if f and g:
                    _mul_add(rows[j], 1, f, g)
        return _trim(rows, self.p), da * db


def refuse_power(what: str, n: int, p, powered, fixed=(), steps=MAX_POWER_WORDS, substitute=False):
    """Refuse an integer argument n past ``steps``, or whose result is over the
    words limit as the exponent of the values ``powered`` (with ``substitute``,
    as x -> x^n in them) next to ``fixed``; the caller checks n < 0 itself."""
    n, terms = max(n, 0), []
    for values, scales in ((powered, (1 if substitute else n, n, n)), (fixed, (1, 1, 1))):
        for v in values:
            polys, step = (v.coeffs, max(v.ctx.deg_h - 1, 0)) if isinstance(v, OreElement) else ((v,), 0)
            terms.append((*scales, *_raw(polys), step))
    _refuse_if_large(what, terms, p)
    if n > steps:
        raise ParseError(f"{what} too large: {n} steps, limit {steps}")


def parse_scalar(src: str, spec: FieldSpec) -> FieldElem:
    """A bare field scalar: optional sign, integer, optional /denominator."""
    rows, den = _Parser(src, spec).value
    return FieldElem(spec, Fraction(rows[0][0], den) if rows else 0)


def parse_poly(src: str, spec: FieldSpec) -> Poly:
    """A polynomial in x over the given field."""
    rows, den = _Parser(src, spec, ("x",)).value
    return _poly(spec, rows[0] if rows else (), den)


def parse_element(src: str, ctx: AhContext, generator: str = "Y") -> OreElement:
    """An algebra element in x and the chosen generator letter; the other
    letter is a parse error, so the two generators never mix."""
    if generator not in ("Y", "y"):
        raise ValueError("generator letter must be 'Y' or 'y'")
    other = "y" if generator == "Y" else "Y"
    if other in src:
        message = f"generator {other!r} cannot appear in a {generator!r} expression"
        raise ParseError(message, src.index(other))
    rows, den = _Parser(src, ctx.spec, ("x", generator), ctx).value
    return OreElement(ctx, [_poly(ctx.spec, r, den) for r in rows])
