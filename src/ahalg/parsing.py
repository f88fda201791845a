"""Expression parsing for scalars, polynomials, and algebra elements.

Grammar (shared with the command line):

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := '-' factor | atom ('^' nat)?
    atom   := scalar | 'x' | 'Y' | 'y' | '(' expr ')'
    scalar := int ('/' int)?          -- the '/denominator' form only over QQ

``*`` is order-sensitive: the parser evaluates directly into the target
algebra, so noncommutative products come out in normal form; subexpressions
without the generator stay in the subring F[x], as polynomials.  The generator
letter is fixed per call ('Y' for subalgebra elements, 'y' for Weyl-algebra
elements) and the two letters never mix inside one expression.  At most
``MAX_NESTING`` parentheses and unary minus signs may be open at once, and a
power or product whose result is predicted to be larger than
``MAX_POWER_WORDS`` words is refused before it is computed.
"""

from __future__ import annotations

import re

from .algebra import AhContext, OreElement
from .errors import ParseError
from .fields import FieldElem, FieldSpec, decimal_int
from .poly import Poly

# each level of nesting costs at most four Python frames of the descent, so 200
# levels stay well inside the interpreter's default recursion limit of 1000
MAX_NESTING = 200
# a power is refused when its result is predicted to take more than this many
# 64-bit words (terms times words per coefficient): 2^13 words are 64 KiB, and
# ``(x+1)^8191`` over GF(1000003), the densest result allowed, takes about 4 s
MAX_POWER_WORDS = 2**13

_TOKEN = re.compile(r"(?P<int>\d+)|(?P<name>[A-Za-z])|(?P<op>[-+*/^()])|(?P<bad>\S)")


def _tokenize(src: str):
    tokens = []
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", m.start())
        tokens.append((kind, decimal_int(text) if kind == "int" else text, m.start()))
    tokens.append(("end", None, len(src)))
    return tokens


class _Parser:
    """Recursive-descent evaluator over a small value algebra.

    The value operations are injected so the same grammar drives scalar,
    polynomial, and noncommutative-element parsing.  ``powers`` maps a
    letter to the function n -> letter^n that builds the monomial directly;
    any other base is raised by square-and-multiply.
    """

    def __init__(self, src, spec, atoms, lift_scalar, powers=None):
        self.src = src
        self.spec = spec
        self.atoms = atoms
        self.powers = powers or {}
        self.lift_scalar = lift_scalar
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def enter(self, pos):
        """Open one more level of '(' or unary '-'."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError("expression nested too deeply", pos)

    def expect_op(self, op):
        kind, value, pos = self.peek()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r}", pos)
        self.advance()

    def parse(self):
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return value

    def expr(self):
        value = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op == "*":
                self.advance()
                factor = self.factor()
                p = self.spec.characteristic
                (ya, wa, ba), (yb, wb, bb) = _size(value, p), _size(factor, p)
                _refuse_if_large("product", ya + yb, wa + wb, ba + bb, p, pos)
                value = value * factor
            else:
                return value

    def factor(self):
        kind, op, pos = self.peek()
        if kind == "op" and op == "-":
            # negation binds looser than '^': -x^4 means -(x^4)
            self.advance()
            self.enter(pos)
            value = -self.factor()
            self.depth -= 1
            return value
        power = self.powers.get(op)  # a letter with a monomial builder, or None
        value = self.atom()
        kind, op, pos = self.peek()
        if kind == "op" and op == "^":
            self.advance()
            kind, exp, pos = self.peek()
            if kind == "op" and exp == "-":
                raise ParseError("negative exponents are not allowed", pos)
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", pos)
            self.advance()
            if exp > 1:  # value^0 and value^1 are no larger than value
                p = self.spec.characteristic
                ydeg, weight, bits = _size(value, p)
                _refuse_if_large("power", exp * ydeg, exp * weight, exp * bits, p, pos)
            value = power(exp) if power else value**exp
        return value

    def atom(self):
        kind, value, pos = self.advance()
        if kind == "int":
            return self.lift_scalar(self.scalar_tail(value, pos))
        if kind == "name":
            if value not in self.atoms:
                raise ParseError(f"unknown name {value!r} here", pos)
            return self.atoms[value]
        if kind == "op" and value == "(":
            self.enter(pos)
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError("expected a value", pos)

    def scalar_tail(self, num: int, pos: int) -> FieldElem:
        kind, op, opos = self.peek()
        if kind == "op" and op == "/":
            if self.spec.is_prime_field:
                raise ParseError("rational literals need the field QQ", opos)
            self.advance()
            kind, den, dpos = self.advance()
            if kind != "int":
                raise ParseError("denominator must be an integer", dpos)
            if den == 0:
                raise ParseError("zero denominator", dpos)
            from fractions import Fraction

            return self.spec.elem(Fraction(num, den))
        return self.spec.from_int(num)


def _size(value, p: int) -> tuple[int, int, int]:
    """The Y-degree, weight and coefficient bits of a parsed value, which add
    up under products.  The weight counts x as 1 and Y as deg h - 1 (what
    delta adds), or is 0 if every coefficient is constant; the bits are
    ``log2(height * terms)`` over QQ and 0 over GF(p)."""
    if isinstance(value, Poly):
        polys, ydeg, weight = (value,), 0, max(len(value._nums) - 1, 0)
    elif isinstance(value, OreElement):
        polys, step = value.coeffs, max(value.ctx.deg_h - 1, 0)
        degs = [len(f._nums) - 1 for f in polys]
        weight = 0
        if max(degs, default=0) > 0:
            weight = max(d + i * step for i, d in enumerate(degs) if d >= 0)
        ydeg = max(len(polys) - 1, 0)
    else:
        polys, ydeg, weight = (Poly.constant(value),), 0, 0
    if p:
        return ydeg, weight, 0
    # the raw ints of each Poly: integer numerators over one denominator
    height, terms = 1, 0
    for f in polys:
        nums = f._nums
        if nums:
            height = max(height, f._den, max(nums), -min(nums))
            terms += len(nums) - nums.count(0)
    return ydeg, weight, (height - 1).bit_length() + (terms - 1).bit_length()


def _refuse_if_large(what: str, ydeg: int, weight: int, bits: int, p: int, pos: int) -> None:
    """Refuse a power or product of that size when it is predicted to take
    more than ``MAX_POWER_WORDS`` 64-bit words: ``ydeg + 1`` Y-degrees times
    ``weight + 1`` x-degrees, times the words of a coefficient, which has the
    bits of p, or over QQ ``1 + bits`` bits."""
    bits = p.bit_length() if p else 1 + bits
    words = (ydeg + 1) * (weight + 1) * -(-bits // 64)
    if words > MAX_POWER_WORDS:
        raise ParseError(f"{what} too large: {words} words, limit {MAX_POWER_WORDS}", pos)


def refuse_power(
    what: str, n: int, p: int, powered, fixed=(), steps=MAX_POWER_WORDS, substitute=False
) -> None:
    """Refuse an integer argument n before any work starts: n acts as the
    exponent of the values ``powered``, next to the values ``fixed``, and the
    result is sized by the words model above; n is also refused past
    ``steps`` steps.  With ``substitute``, n substitutes x -> x^n in the
    values ``powered`` instead, which multiplies their weight and bits by n
    and keeps their Y-degree.  A negative n is left to the caller's own
    check."""
    n = max(n, 0)
    total = (0, 0, 0)
    for values, scales in ((powered, (1 if substitute else n, n, n)), (fixed, (1, 1, 1))):
        for value in values:
            total = tuple(t + k * s for t, k, s in zip(total, scales, _size(value, p)))
    _refuse_if_large(what, *total, p, None)
    if n > steps:
        raise ParseError(f"{what} too large: {n} steps, limit {steps}")


def parse_scalar(src: str, spec: FieldSpec) -> FieldElem:
    """A bare field scalar: optional sign, integer, optional /denominator."""
    value = _Parser(src, spec, {}, lambda c: c).parse()
    if not isinstance(value, FieldElem):
        raise ParseError("expected a scalar")
    return value


def parse_poly(src: str, spec: FieldSpec) -> Poly:
    """A polynomial in x over the given field."""
    x_power = {"x": lambda n: Poly.monomial(spec, 1, n)}
    return _Parser(src, spec, {"x": Poly.x(spec)}, Poly.constant, x_power).parse()


def parse_element(src: str, ctx: AhContext, generator: str = "Y") -> OreElement:
    """An algebra element in x and the chosen generator letter.

    Passing the other generator letter is a parse error, so expressions can
    never mix the subalgebra and Weyl-algebra generators.
    """
    if generator not in ("Y", "y"):
        raise ValueError("generator letter must be 'Y' or 'y'")
    other = "y" if generator == "Y" else "Y"
    if other in src:
        raise ParseError(
            f"generator {other!r} cannot appear in a {generator!r} expression",
            src.index(other),
        )
    atoms = {"x": Poly.x(ctx.spec), generator: ctx.gen()}
    powers = {"x": lambda n: Poly.monomial(ctx.spec, 1, n),
              generator: lambda n: ctx.monomial(Poly.one(ctx.spec), n)}
    value = _Parser(src, ctx.spec, atoms, Poly.constant, powers).parse()
    return value if isinstance(value, OreElement) else ctx.from_poly(value)
