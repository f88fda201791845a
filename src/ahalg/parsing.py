"""Expression parsing for scalars, polynomials, and algebra elements, in the grammar that the
command line shares:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' nat)?
    atom   := scalar | 'x' | 'Y' | 'y' | '(' expr ')'
    scalar := int ('/' int)?          -- the '/denominator' form only over QQ

One recursive descent evaluates every expression in one pass on its raw normal form
``sum_i f_i(x) Y^i`` (README, "The expression parser"); ``*`` is order-sensitive, and the
generators 'Y' (subalgebra) and 'y' (Weyl algebra) never mix.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

from .algebra import AhContext, OreElement, _element, _excess
from .errors import ParseError
from .fields import FieldElem, FieldSpec, decimal_int
from .poly import Poly, _mul_add, _poly, _power, _red, _trimmed

# open '(' and unary '-' at once: three Python frames each, well inside the recursion limit of 1000
MAX_NESTING = 200
# a power or product predicted to take more 64-bit words (terms times words per coefficient) is refused
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


def _raw(polys) -> tuple[list, int]:
    """The rows and denominator of ``sum polys[i] * Y^i``."""
    den = lcm(*(f._den for f in polys))
    return [[c * (den // f._den) for c in f._nums] for f in polys], den


def _dense(rows, den: int, size=None) -> tuple[list, int]:
    """``(rows, den)`` of a parser value, a monomial ``(c, i, j)`` spread out to its rows."""
    return ([[]] * rows[2] + [[0] * rows[1] + [rows[0]]] if type(rows) is tuple else rows), den


def _polys(spec: FieldSpec, rows, den: int) -> list:
    """The polynomials ``row / den`` of a parser value: its rows are reduced mod p and trimmed, so
    they are canonical unless den > 1 (over QQ, where ``_poly`` divides out each row's gcd)."""
    return [(_poly if den > 1 else _trimmed)(spec, r, den) for r in rows]


def _rows(acc: list, p) -> list:
    """The rows of acc mod p, with no zero ending a row and no empty last row."""
    return _red([_red(r, p) for r in acc], None)


def _size(rows, den: int, p, step: int, exact: bool = False) -> tuple[int, int, int]:
    """Y-degree, weight (x weighs 1, Y weighs ``step``; 0 if no coefficient has an x) and bits
    (of height * terms, 0 over GF(p); exact: each row over its gcd) of ``rows / den``: they add up."""
    weight, has_x, height, terms = 0, False, 1, 0
    for i, r in enumerate(rows):
        if r:
            has_x, weight = has_x or len(r) > 1, max(weight, len(r) - 1 + i * step)
            if not p:
                g = gcd(den, *r) if exact else 1
                height = max(height, den // g, max(r) // g, -min(r) // g)
                terms += len(r) - r.count(0)
    bits = 0 if p else (height - 1).bit_length() + (terms - 1).bit_length()
    return max(len(rows) - 1, 0), weight if has_x else 0, bits


def _words(ydeg: int, weight: int, bits: int, p) -> int:
    """64-bit words of a result of that size: Y-degrees times x-degrees times words of p or 1 + bits."""
    return (ydeg + 1) * (weight + 1) * -(-(p.bit_length() if p else 1 + bits) // 64)


def _refuse_if_large(what: str, terms, p, src=None, at=0) -> bool:
    """Refuse, at token ``at`` of src, a result of size ``sum k * _size(value)`` over the ``(ky, kw, kb,
    rows, den, step)`` in terms, if its ``_words`` pass the limit; say if heights had to be exact."""
    for exact in (False, True):
        ydeg = weight = bits = 0
        for ky, kw, kb, rows, den, step in terms:
            y, w, b = _size(rows, den, p, step, exact)
            ydeg, weight, bits = ydeg + ky * y, weight + kw * w, bits + kb * b
        if (words := _words(ydeg, weight, bits, p)) <= MAX_POWER_WORDS:
            return exact
    raise ParseError(f"{what} too large: {words} words, limit {MAX_POWER_WORDS}", src and _positions(src)[at])


def _reduced(rows, den: int, *size):
    """``(rows, den, *size)`` with the gcd of den and every numerator divided out."""
    g = gcd(den, *chain.from_iterable(rows)) if den > 1 and type(rows) is list else 1
    return (rows, den, *size) if g == 1 else ([[c // g for c in r] for r in rows], den // g, *size)


class _Parser:
    """Recursive descent of src to ``value = (rows, den)``, with the letters ``names`` ('x', then the
    generator) as atoms.  Until then a value is ``(rows, den, size)``: a monomial ``c*x^i*Y^j`` has rows
    ``(c, i, j)``, in lowest terms, and its exact size; any other has size None, read off its rows."""

    def __init__(self, src: str, spec: FieldSpec, names=(), ctx: AhContext | None = None):
        self.src, self.p, self.names, self.ctx = src, spec.characteristic, names, ctx
        self.tokens, self.i, self.step = _tokenize(src), 0, _excess(ctx) if ctx else 0
        self.value = _dense(*self.expr())
        if self.tokens[self.i]:
            raise self.error("trailing input")

    def error(self, message: str, i: int | None = None) -> ParseError:  # at the next token
        return ParseError(message, _positions(self.src)[self.i if i is None else i])

    def expr(self, depth=0):  # depth: how many '(' and unary '-' are open
        terms, tokens = [(1, self.term(depth))], self.tokens
        while tokens[self.i] in ("+", "-"):
            self.i += 1
            terms.append((1 if tokens[self.i - 1] == "+" else -1, self.term(depth)))
        if len(terms) == 1:
            return terms[0][1]
        acc, den = [], 1 if self.p else lcm(*[d for _, (_, d, _) in terms])  # the sum's rows, over one den
        for sign, (rows, d, _) in terms:
            k = sign * (den // d)
            if type(rows) is list:
                while len(acc) < len(rows):
                    acc.append([])
                for row, r in zip(acc, rows):
                    row.extend([0] * (len(r) - len(row)))
                    for t, c in enumerate(r):
                        row[t] += k * c
                continue
            c, i, j = rows
            while len(acc) <= j:
                acc.append([])
            if i >= len(row := acc[j]):  # one entry: O(1), whatever i is
                row.extend([0] * (i - len(row)) + [k * c])
            else:
                row[i] += k * c
        return _rows(acc, self.p), den, None

    def term(self, depth):
        value = self.factor(depth)
        while self.tokens[self.i] == "*":
            at, self.i = self.i, self.i + 1
            value = self.product(value, self.factor(depth), at)
        return value

    def factor(self, depth):
        tokens, i, p = self.tokens, self.i, self.p
        tok, self.i = tokens[i], i + 1
        if depth == MAX_NESTING and tok in ("-", "("):
            raise self.error("expression nested too deeply", i)
        if tok == "-":  # negation binds looser than '^': -x^4 means -(x^4)
            return self.product(((-1, 0, 0), 1, (0, 0, 0)), self.factor(depth + 1))
        if tok.isdecimal():
            num, den = decimal_int(tok), 1
            if tokens[self.i] == "/":
                if p:
                    raise self.error("rational literals need the field QQ")
                self.i += 2
                if not tokens[i + 2].isdecimal():
                    raise self.error("denominator must be an integer", i + 2)
                if (den := decimal_int(tokens[i + 2])) == 0:
                    raise self.error("zero denominator", i + 2)
                num, den = num // (g := gcd(num, den)), den // g
            elif p:
                num %= p
            size = (0, 0, 0 if p else (max(num, den) - 1).bit_length())
            value = ((num, 0, 0), den, size) if num else ([], 1, None)
        elif tok in self.names:
            value = ((1, 1, 0), 1, (0, 1, 0)) if tok == "x" else ((1, 0, 1), 1, (1, 0, 0))
        elif tok == "(":
            value = self.expr(depth + 1)
            if tokens[self.i] != ")":
                raise self.error("expected ')'")
            self.i += 1
        else:
            raise self.error(f"unknown name {tok!r} here" if tok.isalpha() else "expected a value", i)
        if tokens[self.i] != "^":
            return value
        at = self.i + 1
        if not tokens[at].isdecimal():
            raise self.error("negative exponents are not allowed" if tokens[at] == "-"
                             else "exponent must be a nonnegative integer", at)
        self.i, exp = at + 1, decimal_int(tokens[at])
        y, w, b = value[2] or _size(*value[:2], p, self.step)
        if exp > 1 and _words(exp * y, exp * w, exp * b, p) > MAX_POWER_WORDS:  # value^0, value^1 pass
            _refuse_if_large("power", ((exp, exp, exp, *_dense(*value), self.step),), p, self.src, at)
        if tok in self.names:  # x^n and Y^n are monomials
            return ((1, exp, 0), 1, (0, exp, 0)) if tok == "x" else ((1, 0, exp), 1, (exp, 0, 0))
        # powers of a reduced base stay reduced (Gauss's lemma; _raw reduces Ore products)
        return _power(_reduced(*value), exp, self.product, ((1, 0, 0), 1, (0, 0, 0)))

    def product(self, a, b, at=None):
        """``a*b``; at the '*' of token ``at``, refused first if its predicted size is over the limit.
        Two monomials that commute multiply here, to a monomial in lowest terms and of exact size."""
        (ra, da, sa), (rb, db, sb), p, s = a, b, self.p, self.step
        if at is not None:
            (ya, wa, ba), (yb, wb, bb) = sa or _size(ra, da, p, s), sb or _size(rb, db, p, s)
            if _words(ya + yb, wa + wb, ba + bb, p) > MAX_POWER_WORDS and _refuse_if_large("product", (
                    (1, 1, 1, *_dense(ra, da), s), (1, 1, 1, *_dense(rb, db), s)), p, self.src, at):
                a, b = _reduced(*a), _reduced(*b)  # compute on what was judged; a monomial is reduced
        if type(ra) is not tuple or type(rb) is not tuple or ra[2] and rb[1]:
            return self.times(a, b)
        c, i, j, den = ra[0] * rb[0], ra[1] + rb[1], ra[2] + rb[2], da * db
        if p:
            c %= p
        elif den > 1 and (g := gcd(c, den)) > 1:
            c, den = c // g, den // g
        return (c, i, j), den, (j, i + j * s if i else 0, 0 if p else (max(abs(c), den) - 1).bit_length())

    def times(self, a, b):  # a*b, unless both are monomials that commute
        (ra, da, _), (rb, db, _) = a, b
        if (ra[2] if type(ra) is tuple else len(ra) > 1) and (  # a generator meets an x on its right:
                rb[1] if type(rb) is tuple else any(len(g) > 1 for g in rb)):  # the Ore product
            fs, gs = (_polys(self.ctx.spec, _dense(*v)[0], d) for v, d in ((a, da), (b, db)))
            return (*_raw((_element(self.ctx, fs) * _element(self.ctx, gs)).coeffs), None)
        # else a product in F[x, Y], which commutes: the larger factor shifted by each term of the other
        if type(rb) is tuple or type(ra) is list and sum(map(len, ra)) > sum(map(len, rb)):
            ra, rb = rb, ra
        if type(ra) is tuple:  # each row scaled and shifted: no zero is made
            (c, i, j), p = ra, self.p
            rows = [[0] * i + ([c * v % p for v in r] if p else [c * v for v in r]) if r else [] for r in rb]
            return ([[]] * j + rows if rows else []), da * db, None
        acc = [[] for _ in range(len(ra) + len(rb) - 1)]  # in F[x, Y]: a schoolbook product per pair of rows
        for j, f in enumerate(ra):
            for t, g in enumerate(rb, j):
                _mul_add(acc[t], 1, f, g)
        return _rows(acc, self.p), da * db, None


def refuse_power(what: str, n: int, p, powered, fixed=(), steps=MAX_POWER_WORDS, substitute=False):
    """Refuse an integer argument n past ``steps``, or whose result is over the words limit as the
    exponent of the values ``powered`` (with ``substitute``, as x -> x^n) next to ``fixed``; n >= 0."""
    n, terms = max(n, 0), []
    for values, scales in ((powered, (1 if substitute else n, n, n)), (fixed, (1, 1, 1))):
        for v in values:
            polys, step = (v.coeffs, _excess(v.ctx)) if isinstance(v, OreElement) else ((v,), 0)
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
    return _polys(spec, rows or [()], den)[0]


def parse_element(src: str, ctx: AhContext, generator: str = "Y") -> OreElement:
    """An algebra element in x and the chosen generator letter; the other
    letter is a parse error, so the two generators never mix."""
    if generator not in ("Y", "y"):
        raise ValueError("generator letter must be 'Y' or 'y'")
    if (other := "y" if generator == "Y" else "Y") in src:
        message = f"generator {other!r} cannot appear in a {generator!r} expression"
        raise ParseError(message, src.index(other))
    rows, den = _Parser(src, ctx.spec, ("x", generator), ctx).value
    return _element(ctx, _polys(ctx.spec, rows, den))
