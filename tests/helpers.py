"""Shared test helpers: random generators and independent oracles."""

import itertools
import random
import re
from fractions import Fraction
from math import comb
from operator import mul

from ahalg import (
    AhContext,
    OreElement,
    Poly,
    antiautomorphism,
    central_decompose,
    commutator,
    div_left_exact,
    div_right_exact,
    weyl_context,
)
from ahalg.autgroup import pair_is_valid
from ahalg.errors import (
    ContextMismatch,
    NotDivisibleError,
    NotInSubalgebraError,
    ParseError,
    SelfCheckError,
    ZeroInputError,
)
from ahalg.fields import decimal_int, value_str
from ahalg.packed import _pack, _unpack
from ahalg.parsing import MAX_NESTING, MAX_POWER_WORDS
from ahalg.poly import _add, _equal_degree, _gcd, _powmod, _tail
from ahalg.poly import distinct_root_count, is_irreducible

QQ_SPEC = None  # set lazily to avoid import order issues


def rand_scalar(rng, spec):
    if spec.is_prime_field:
        return spec.from_int(rng.randrange(spec.p))
    return spec.elem(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))


def rand_poly(rng, spec, max_deg, nonzero=False):
    while True:
        deg = rng.randint(0, max_deg)
        coeffs = [rand_scalar(rng, spec) for _ in range(deg + 1)]
        f = Poly(spec, coeffs)
        if not nonzero or not f.is_zero():
            return f


def rand_elem(rng, ctx, max_ydeg, max_deg, nonzero=False):
    while True:
        ydeg = rng.randint(0, max_ydeg)
        coeffs = [rand_poly(rng, ctx.spec, max_deg) for _ in range(ydeg + 1)]
        a = ctx.element(coeffs)
        if not nonzero or not a.is_zero():
            return a


def delta_power_oracle(ctx: AhContext, f: Poly, j: int) -> Poly:
    """``delta^j(f)`` by j steps ``f <- f' * h`` on ``Poly``."""
    for _ in range(j):
        f = f.derivative() * ctx.h
    return f


def naive_mul(a: OreElement, b: OreElement) -> OreElement:
    """One-step-rewriting multiplication oracle: Y*f -> f*Y + delta(f)."""
    ctx = a.ctx
    zero = Poly.zero(ctx.spec)
    total = ctx.zero()
    for i, f in enumerate(a.coeffs):
        if f.is_zero():
            continue
        for j, g in enumerate(b.coeffs):
            if g.is_zero():
                continue
            cur = {0: g}
            for _ in range(i):
                nxt = {}
                for k, poly in cur.items():
                    nxt[k + 1] = nxt.get(k + 1, zero) + poly
                    d = delta_power_oracle(ctx, poly, 1)
                    if not d.is_zero():
                        nxt[k] = nxt.get(k, zero) + d
                cur = nxt
            for k, poly in cur.items():
                total = total + ctx.monomial(f * poly, k + j)
    return total


def div_one_sided_oracle(w: OreElement, v: OreElement, left: bool):
    """Exact one-sided division by subtract-and-repeat: peel the top Y-term of
    the remainder with one product ``v * q_j Y^j`` (or ``q_j Y^j * v``) per
    quotient coefficient.  None when no quotient exists."""
    if v.is_zero():
        raise ZeroDivisionError("division by the zero element")
    ctx = w.ctx
    if v.ctx != ctx:
        raise ContextMismatch("divisor from a different context")
    kv = len(v.coeffs) - 1
    lead = v.coeffs[-1]
    quot = {}
    cur = w
    while not cur.is_zero():
        kw = len(cur.coeffs) - 1
        j = kw - kv
        if j < 0:
            return None
        qj, rem = divmod(cur.coeffs[-1], lead)
        if not rem.is_zero():
            return None
        mono = ctx.monomial(qj, j)
        cur = cur - (v * mono if left else mono * v)
        if not cur.is_zero() and len(cur.coeffs) - 1 >= kw:
            raise SelfCheckError("one-sided division failed to lower the degree")
        quot[j] = qj
    size = max(quot) + 1 if quot else 0
    return ctx.element([quot.get(i, Poly.zero(ctx.spec)) for i in range(size)])


def antiautomorphism_oracle(a: OreElement) -> OreElement:
    """The anti-automorphism as a power sum: ``sum (-Y + h')^i * f_i``, one
    full product per power and per coefficient."""
    ctx = a.ctx
    flip = ctx.from_poly(ctx.h_prime) - ctx.gen()
    result = ctx.zero()
    power = ctx.one()
    for i, f in enumerate(a.coeffs):
        if i:
            power = power * flip
        if f.is_zero():
            continue
        result = result + power * ctx.from_poly(f)
    return result


def packed_derivative_oracle(row: int, count: int, stride: int, width: int) -> int:
    """The packed r' digit by digit: each of the first count digits of row
    times its x-exponent (its index mod stride), moved one digit down."""
    index = list(range(stride)) * (count // stride)
    return _pack(list(map(mul, _unpack(row, count, width), index)), width) >> (8 * width)


def packed_reduce_oracle(v: int, count: int, width: int, p: int) -> int:
    """The first count digits of v, each reduced mod p, packed again."""
    return _pack([c % p for c in _unpack(v, count, width)], width)


def apply_poly_map_oracle(a: OreElement, x_image: Poly, y_image: OreElement) -> OreElement:
    """Generator substitution as a power sum: ``sum f_i(P) * Q^i``, one product
    per power of the Y-image Q and one per nonzero coefficient."""
    target = y_image.ctx
    result = target.zero()
    q_power = target.one()
    for i, f in enumerate(a.coeffs):
        if i:
            q_power = q_power * y_image
        if f:
            result = result + target.from_poly(f.compose(x_image)) * q_power
    return result


def to_weyl_oracle(a: OreElement) -> OreElement:
    """Weyl expansion oracle: substitute x -> x, Y -> y*h as a power sum."""
    wctx = weyl_context(a.ctx.spec)
    return apply_poly_map_oracle(a, Poly.x(a.ctx.spec), wctx.gen() * a.ctx.h)


def from_weyl_oracle(w: OreElement, ctx: AhContext) -> OreElement:
    """Pullback oracle: peel the top y-monomial, one Weyl expansion per step."""
    out = {}
    cur = w
    while not cur.is_zero():
        n = len(cur.coeffs) - 1
        q, rem = divmod(cur.coeffs[-1], ctx.h**n)
        if not rem.is_zero():
            raise NotInSubalgebraError(n)
        out[n] = q
        cur = cur - to_weyl_oracle(ctx.monomial(q, n))
    size = max(out) + 1 if out else 0
    return ctx.element([out.get(i, Poly.zero(ctx.spec)) for i in range(size)])


def hy_rows_oracle(ctx: AhContext, n: int) -> list[list[Poly]]:
    """The rows of Y^0..Y^n in the basis h^j y^j, built afresh on every call:
    ``rows[i+1][j] = rows[i][j-1] + h*rows[i][j]' + (j+1)*h'*rows[i][j]``."""
    h, dh, zero = ctx.h, ctx.h_prime, Poly.zero(ctx.spec)
    rows = [[Poly.one(ctx.spec)]]
    for _ in range(n):
        prev = rows[-1] + [zero]  # prev[-1] is zero: no shifted term at j = 0
        rows.append([
            prev[j - 1] + h * r.derivative() + (j + 1) * dh * r for j, r in enumerate(prev)
        ])
    return rows


def embed_oracle(a: OreElement, f: Poly) -> OreElement:
    """The embedding A_g -> A_f along f | g through the Weyl algebra and back."""
    if f.is_zero():
        raise ZeroInputError("cannot embed along a zero divisor")
    if not f.divides(a.ctx.h):
        raise NotDivisibleError(f"{f} does not divide {a.ctx.h}")
    target = AhContext(a.ctx.spec, f, gen_symbol=a.ctx.gen_symbol)
    return from_weyl_oracle(to_weyl_oracle(a), target)


def central_decompose_oracle(a: OreElement) -> dict:
    """The table of ``central_decompose`` by the Weyl route: expand a, divide
    the coefficient of y^b by h^b, and split every monomial x^e h^b y^b into
    central powers of x^p and h^p y^p times one basis monomial."""
    ctx, p = a.ctx, a.ctx.spec.characteristic
    table = {}
    for b, r in enumerate(to_weyl_oracle(a).coeffs):
        f, rem = divmod(r, ctx.h**b)
        if rem:
            raise NotInSubalgebraError(b)
        for e, c in enumerate(f.coeffs):
            if not c.is_zero():
                table.setdefault((e % p, b % p), {})[(e // p, b // p)] = c
    return table


def central_coordinates_oracle(v: OreElement):
    """``normal._central_coordinates`` through the table of ``central_decompose``
    (its former route): the identity cell read back as a polynomial in x^p or
    in h^p y^p, or (None, None) when it holds both."""
    spec = v.ctx.spec
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


def bracket_x_oracle(a: OreElement) -> bool:
    """Membership in [x, A] over GF(p) by the Weyl route: the coefficient of
    y^i vanishes when p divides i + 1, and h^(i+1) divides it otherwise."""
    ctx, p = a.ctx, a.ctx.spec.characteristic
    for i, r in enumerate(to_weyl_oracle(a).coeffs):
        if (i + 1) % p == 0:
            if not r.is_zero():
                return False
        elif not (ctx.h ** (i + 1)).divides(r):
            return False
    return True


def ore_witness_oracle(a: OreElement, f: Poly, side: str):
    """``(a1, s1)`` by the mirrored route, with s1 = f^(k+1) at Y-degree k.

    The right side divides ``a * s1`` by f coefficientwise; the left side is
    the anti-automorphic image of the right witness of the image of a.
    """
    ctx = a.ctx
    if side == "left":
        a1, s1 = ore_witness_oracle(antiautomorphism(a), f, "right")
        return antiautomorphism(a1), s1
    s1 = f ** max(len(a.coeffs), 1)
    quot = []
    for c in (a * ctx.from_poly(s1)).coeffs:
        q, rem = divmod(c, f)
        if not rem.is_zero():
            raise AssertionError(f"{f} does not divide the coefficient {c} of a*s1")
        quot.append(q)
    return ctx.element(quot), s1


_TOKEN_ORACLE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z])|(?P<op>[-+*/^()]))")


def tokenize_oracle(src: str):
    """The tokens of src, matched one at a time from each position, with
    whitespace skipped in front of each (the former ``parsing._tokenize``)."""
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_ORACLE.match(src, pos)
        if not m or m.end() == m.start():
            rest = src[pos:]
            if rest.strip():
                bad = pos + len(rest) - len(rest.lstrip())
                raise ParseError(f"unexpected character {src[bad]!r}", bad)
            break
        if m.group("int") is not None:
            tokens.append(("int", decimal_int(m.group("int")), m.start("int")))
        elif m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


class _OracleParser:
    """The grammar of ``ahalg.parsing`` evaluated over injected values: each
    atom is a field element, polynomial or algebra element, every operation
    of the expression is one of theirs, and every size is ``size_oracle`` of
    a canonical value.  ``powers`` maps a letter to the function
    n -> letter^n that builds the monomial directly; any other base is raised
    by square-and-multiply."""

    def __init__(self, src, spec, atoms, lift_scalar, powers=None):
        self.spec = spec
        self.atoms = atoms
        self.powers = powers or {}
        self.lift_scalar = lift_scalar
        self.tokens = tokenize_oracle(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def enter(self, pos):
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
                (ya, wa, ba), (yb, wb, bb) = size_oracle(value, p), size_oracle(factor, p)
                _refuse_if_large_oracle("product", ya + yb, wa + wb, ba + bb, p, pos)
                value = value * factor
            else:
                return value

    def factor(self):
        kind, op, pos = self.peek()
        if kind == "op" and op == "-":
            self.advance()
            self.enter(pos)
            value = -self.factor()
            self.depth -= 1
            return value
        power = self.powers.get(op)
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
            if exp > 1:
                p = self.spec.characteristic
                ydeg, weight, bits = size_oracle(value, p)
                _refuse_if_large_oracle("power", exp * ydeg, exp * weight, exp * bits, p, pos)
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

    def scalar_tail(self, num, pos):
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
            return self.spec.elem(Fraction(num, den))
        return self.spec.from_int(num)


def format_poly_oracle(f: Poly) -> str:
    """``format_poly`` as it was first written: one ``Fraction`` per
    coefficient, each term its own text, the terms joined sign by sign."""
    values = [Fraction(c, f._den) for c in f._nums]
    return _join_terms_oracle(
        _term_str_oracle(values[i], i) for i in range(len(values) - 1, -1, -1) if values[i]
    )


def format_element_oracle(a: OreElement) -> str:
    """``format_element`` on ``format_poly_oracle``, highest Y-power first."""
    fs, sym = a.coeffs, a.ctx.gen_symbol
    bodies = []
    for i in range(len(fs) - 1, -1, -1):
        f = fs[i]
        if f.is_zero():
            continue
        if i == 0:
            bodies.append(format_poly_oracle(f))
            continue
        y = sym if i == 1 else f"{sym}^{i}"
        if f.is_one():
            bodies.append(y)
        elif f == Poly.constant(f.spec.elem(-1)):  # p - 1 over GF(p) prints as -Y too
            bodies.append(f"-{y}")
        elif sum(1 for c in f._nums if c) > 1:
            bodies.append(f"({format_poly_oracle(f)})*{y}")
        else:
            bodies.append(f"{format_poly_oracle(f)}*{y}")
    return _join_terms_oracle(bodies)


def _join_terms_oracle(bodies) -> str:
    parts = []
    for body in bodies:
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(" - " + body[1:])
        else:
            parts.append(" + " + body)
    return "".join(parts) or "0"


def _term_str_oracle(c: Fraction, i: int) -> str:
    # over GF(p) c is a residue in range(p), so c == -1 only over QQ
    if i == 0:
        return value_str(c)
    v = "x" if i == 1 else f"x^{i}"
    if c == 1:
        return v
    if c == -1:
        return f"-{v}"
    return f"{value_str(c)}*{v}"


def size_oracle(value, p: int) -> tuple[int, int, int]:
    """The Y-degree, weight and coefficient bits of a field element,
    polynomial or algebra element, read off its canonical coefficients: the
    weight counts x as 1 and Y as deg h - 1, or is 0 if every coefficient is
    constant; the bits are ``log2(height * terms)`` over QQ and 0 over GF(p)."""
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
    height, terms = 1, 0
    for f in polys:
        nums = f._nums
        if nums:
            height = max(height, f._den, max(nums), -min(nums))
            terms += len(nums) - nums.count(0)
    return ydeg, weight, (height - 1).bit_length() + (terms - 1).bit_length()


def words_oracle(ydeg: int, weight: int, bits: int, p: int) -> int:
    """The 64-bit words of a result of that size: ``ydeg + 1`` Y-degrees
    times ``weight + 1`` x-degrees times the words of a coefficient."""
    bits = p.bit_length() if p else 1 + bits
    return (ydeg + 1) * (weight + 1) * -(-bits // 64)


def _refuse_if_large_oracle(what, ydeg, weight, bits, p, pos):
    words = words_oracle(ydeg, weight, bits, p)
    if words > MAX_POWER_WORDS:
        raise ParseError(f"{what} too large: {words} words, limit {MAX_POWER_WORDS}", pos)


def parse_element_oracle(src: str, ctx: AhContext, generator: str = "Y") -> OreElement:
    """``parse_element`` with every atom and scalar an element of the algebra,
    so each operation of the expression is one of the algebra's."""
    other = "y" if generator == "Y" else "Y"
    if other in src:
        raise ParseError(
            f"generator {other!r} cannot appear in a {generator!r} expression",
            src.index(other),
        )
    atoms = {"x": ctx.x(), generator: ctx.gen()}
    return _OracleParser(src, ctx.spec, atoms, ctx.from_scalar).parse()


def parse_poly_oracle(src: str, spec) -> Poly:
    """``parse_poly`` on ``Poly`` arithmetic, with x^n built as a monomial."""
    powers = {"x": lambda n: Poly.monomial(spec, 1, n)}
    return _OracleParser(src, spec, {"x": Poly.x(spec)}, Poly.constant, powers).parse()


def parse_scalar_oracle(src: str, spec):
    """``parse_scalar`` on ``FieldElem`` arithmetic."""
    return _OracleParser(src, spec, {}, lambda c: c).parse()


def normal_oracle(v: OreElement) -> bool:
    """Definition-based normality check: both generators stay in both
    one-sided multiples of v, decided by exact one-sided division."""
    ctx = v.ctx
    for g in (ctx.x(), ctx.gen()):
        if div_left_exact(g * v, v) is None:
            return False
        if div_right_exact(v * g, v) is None:
            return False
    return True


def central_oracle(a: OreElement, bound=None) -> bool:
    """Brute-force commutant check against the monomials x^i Y^j."""
    ctx = a.ctx
    p = ctx.spec.characteristic
    if bound is None:
        bound = 2 * p if p else 6
    for i in range(bound + 1):
        for j in range(bound + 1):
            mono = ctx.monomial(Poly.monomial(ctx.spec, ctx.spec.one(), i), j)
            if not commutator(a, mono).is_zero():
                return False
    return True


def all_polys(spec, max_deg):
    """Every polynomial over GF(p) of degree <= max_deg (including 0)."""
    if not spec.is_prime_field:
        raise ValueError(f"all_polys lists polynomials over GF(p), not over {spec!r}")
    polys = [Poly.zero(spec)]
    stack = [[]]
    for _ in range(max_deg + 1):
        stack = [c + [r] for c in stack for r in range(spec.p)]
    for coeffs in stack:
        f = Poly.from_ints(spec, coeffs)
        if not f.is_zero():
            polys.append(f)
    unique = {}
    for f in polys:
        unique[f.coeffs] = f
    return list(unique.values())


def all_elements(ctx, max_ydeg, max_deg):
    """Every element over GF(p) with ydeg <= max_ydeg, coeff deg <= max_deg."""
    polys = all_polys(ctx.spec, max_deg)
    elems = []
    def build(prefix, k):
        if k == max_ydeg + 1:
            elems.append(ctx.element(list(prefix)))
            return
        for f in polys:
            build(prefix + [f], k + 1)
    build([], 0)
    unique = {}
    for e in elems:
        unique[e.coeffs] = e
    return list(unique.values())


# -- exhaustive searches over GF(p): the oracles of the autgroup solvers -----


def exhaustive_pairs(ctx):
    """Every pair (alpha, beta) in F* x F satisfying the pair law, sorted.

    The law at x = 0, h(beta) == alpha^d * h(0), screens each pair before
    the full composition.
    """
    spec, h, d = ctx.spec, ctx.h, ctx.deg_h
    elems = list(spec.elements())
    values = [h.evaluate(b) for b in elems]
    h0 = values[0]
    out = []
    for a in elems[1:]:
        target = a**d * h0
        out += [
            (a, b) for b, hb in zip(elems, values) if hb == target and pair_is_valid(ctx, a, b)
        ]
    return tuple(out)


def exhaustive_translations(ctx):
    """Every nu in F with h(x + nu) == h(x), sorted."""
    x = Poly.x(ctx.spec)
    return tuple(
        nu for nu in ctx.spec.elements() if ctx.h.compose(x + Poly.constant(nu)) == ctx.h
    )


def laws_hold_on_all_pairs(structure):
    """The t and q transformation laws checked against every pair of P."""
    spec = structure.ctx.spec
    d = structure.ctx.deg_h
    for alpha, beta in structure.P.pairs():
        move = Poly(spec, (beta, alpha))
        if structure.t_kind == "generated" and structure.t.compose(move) != structure.t:
            return False
        if structure.t_kind == "whole_ring" and not (alpha.is_one() and beta.is_zero()):
            return False
        if structure.q.compose(move) != structure.q.scaled(alpha ** (d - 1)):
            return False
    return True


def classify_oracle(ctx):
    """Every field of ``classify_aut_group(ctx)`` over GF(p), by exhaustive search.

    P and G are searched pair by pair, and each order by repeated
    multiplication.  ell is the largest order of an alpha in P, and the
    generator is the least pair of that order, or the least nonzero
    translation when ell = 1 (none when P is only the identity).  k is the
    library's distinct root count; t and q are the paper's formulas on the
    generator.  P is returned as its pair list.
    """
    spec, h, d = ctx.spec, ctx.h, ctx.deg_h
    one, x = spec.one(), Poly.x(spec)
    pairs = exhaustive_pairs(ctx)
    G = exhaustive_translations(ctx)

    def order(a):
        e, power = 1, a
        while not power.is_one():
            e, power = e + 1, power * a
        return e

    ell = max(order(a) for a, _ in pairs)
    identity = (one, spec.zero())
    best = min(
        (ab for ab in pairs if ab != identity and order(ab[0]) == ell),
        key=lambda ab: (ab[0].sort_key(), ab[1].sort_key()),
        default=None,
    )
    lams = [lam for lam in spec.elements() if h == (x - Poly.constant(lam)) ** d * h.lc]
    lam = lams[0] if lams else None
    shift = best[1] / (best[0] - one) if ell > 1 else spec.zero()
    base = Poly.one(spec)
    for nu in G:
        base = base * (x + Poly.constant(shift + nu))
    n = (d - 1) * pow(len(G), -1, ell) % ell
    whole = len(pairs) == 1
    return {
        "case": "poly_only" if whole else "semidirect_fstar" if lams else "semidirect_finite",
        "k": distinct_root_count(h),
        "G": G,
        "P": pairs,
        "shape": "one_parameter_family" if lams else "finite",
        "lam": lam,
        "generator": best,
        "ell": ell,
        "t": base**ell,
        "t_kind": "whole_ring" if whole else "generated",
        "q": base**n,
        "dz_kind": "whole_ring" if whole else "module",
        "n_exponent": None if whole else n,
    }


def least_primitive_root_oracle(p: int) -> int:
    """The least a in 1..p-1 of multiplicative order p - 1 mod p, each order
    found by stepping through the powers of a until one is 1."""

    def order(a):
        e, power = 1, a
        while power != 1:
            e, power = e + 1, power * a % p
        return e

    return next(a for a in range(1, p) if order(a) == p - 1)


def kept(f: Poly, name: str):
    """The field ``name`` of the record of the polynomial f, None while empty."""
    return (getattr(f, "_record", None) or {}).get(name)


def center_correction_oracle(ctx: AhContext) -> Poly:
    """delta^p(x)/h by p derivation steps and one exact division by h (the
    former ``center`` route)."""
    correction, rem = divmod(delta_power_oracle(ctx, Poly.x(ctx.spec), ctx.spec.p), ctx.h)
    if not rem.is_zero():
        raise SelfCheckError("h must divide every delta power of x")
    return correction


def closed_form_shapes(spec) -> list[Poly]:
    """The h on which the closed forms of the center and of the invariant
    powers are compared with their oracles: split, irreducible, h(0) = 0,
    p | deg h, a power of a linear factor, x^p - x times a unit, and not
    monic (over GF(2) every h is monic).  Over QQ the two shapes tied to p
    are left out."""
    p = spec.p

    def poly(*ints):
        return Poly.from_ints(spec, ints)

    x = Poly.x(spec)
    split = (x - poly(1)) * (x - poly(2)) * (x + poly(3))
    if p:
        quadratics = (poly(b, a, 1) for a in range(p) for b in range(p))
        irreducible = next(f for f in quadratics if is_irreducible(f))
    else:
        irreducible = poly(1, 0, 1)
    shapes = [split, irreducible, poly(0, 5, 2, 1), (x + poly(1)) ** 3, poly(2, 1, 0, -1)]
    if p:
        xp = Poly.monomial(spec, 1, p)
        shapes += [xp + poly(1, 1, 2), (xp - x).scaled(spec.from_int((p + 1) // 2))]
    return shapes


def taylor_oracle(h: Poly) -> list[Poly]:
    """The Hasse derivatives of h, entry i being sum_j C(j, i) h_j t^(j-i),
    with each binomial an exact integer times a field element (the oracle of
    ``autgroup._hasse_rows``)."""
    c = h.coeffs
    return [
        Poly(h.spec, [comb(j, i) * c[j] for j in range(i, len(c))])
        for i in range(len(c))
    ]


def centroid_oracle(h: Poly):
    """-h_(d-1)/(d*lc(h)), the mean of the roots of h: its anchor over QQ
    and over GF(p) when p does not divide d = deg h (the former shortcut of
    ``autgroup._anchor``)."""
    d = h.degree
    return -h.coeff(d - 1) / (h.spec.from_int(d) * h.lc)


def exhaustive_equivalences(h, g, spec):
    """Every (alpha, beta, nu) with h(alpha*x + beta) == nu*g(x), in (alpha, beta) order.

    The law at x = 0, h(beta) == nu*g(0), screens each pair before the full
    composition.
    """
    if h.degree != g.degree:
        return
    values = [(beta, h.evaluate(beta)) for beta in spec.elements()]
    for alpha in spec.elements():
        if alpha.is_zero():
            continue
        nu = h.lc / g.lc * alpha**h.degree
        for beta, h_beta in values:
            if h_beta == nu * g.coeff(0) and h.compose(Poly(spec, (beta, alpha))) == g.scaled(nu):
                yield alpha, beta, nu


def exhaustive_iso(h, g, spec):
    """The least (alpha, beta, nu) with h(alpha*x + beta) == nu*g(x), or None."""
    return next(exhaustive_equivalences(h, g, spec), None)


# -- the polynomial questions' former algorithms, now oracles -----------------
#
# Each works on Poly values, one Poly per step; test_poly.py compares the raw
# kernel's entry points in poly.py with them.


def gcd_monic_oracle(a: Poly, b: Poly) -> Poly:
    """Euclid on Poly remainders, made monic at the end."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def power_oracle(f: Poly, n: int) -> Poly:
    """f**n by square-and-multiply of Poly products."""
    result, base = Poly.one(f.spec), f
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def pow_mod_oracle(base: Poly, exp: int, mod: Poly) -> Poly:
    """base**exp mod mod by square-and-multiply of Poly products and remainders."""
    result = Poly.one(base.spec)
    base = base % mod
    while exp:
        if exp & 1:
            result = result * base % mod
        base = base * base % mod
        exp >>= 1
    return result


def compose_oracle(f: Poly, inner: Poly) -> Poly:
    """f(inner) by Horner on Poly values."""
    acc = Poly.zero(f.spec)
    for c in reversed(f.coeffs):
        acc = acc * inner + Poly.constant(c)
    return acc


def poly_roots_oracle(f: Poly) -> list:
    """The distinct roots in GF(p) of a nonzero f, sorted: the linear factors
    of gcd(f, x^p - x), split by equal degree."""
    spec, p = f.spec, f.spec.p
    linear = _gcd(f._nums, _add(_powmod([0, 1], p, _tail(f._nums, p), p), [0, p - 1], p), p)
    if len(linear) < 2:
        return []
    roots = sorted(-lin[0] % p for lin in _equal_degree(linear, 1, p, random.Random(0)))
    return [spec.from_int(v) for v in roots]


def pth_root_oracle(f: Poly) -> Poly:
    p = f.spec.characteristic
    return Poly(f.spec, f.coeffs[::p])


def squarefree_decomposition_oracle(f: Poly):
    """The one loop for both characteristics on Poly values: ``[(g, m), ...]``
    sorted by m and then by the coefficients of g."""
    f = f.monic()
    p = f.spec.characteristic
    out, n = [], 1
    while f.degree > 0:
        fp = f.derivative()
        if fp.is_zero():
            f, n = pth_root_oracle(f), n * p
            continue
        g = gcd_monic_oracle(f, fp)
        w, i = f // g, 1
        while w.degree > 0:
            y = gcd_monic_oracle(w, g)
            z = w // y
            if z.degree > 0:
                out.append((z, i * n))
            w, g, i = y, g // y, i + 1
        if g.degree <= 0:
            break
        f, n = pth_root_oracle(g), n * p
    return sorted(out, key=lambda t: (t[1], t[0].degree, [c.sort_key() for c in t[0].coeffs]))


def distinct_degree_oracle(g: Poly) -> list:
    """(product of the degree-d primes, d) pairs of a monic squarefree g over GF(p)."""
    p = g.spec.characteristic
    x = Poly.x(g.spec)
    out, xp, d = [], x, 0
    while g.degree >= 2 * (d + 1):
        d += 1
        xp = pow_mod_oracle(xp, p, g)
        part = gcd_monic_oracle(g, xp - x)
        if part.degree > 0:
            out.append((part, d))
            g = g // part
            if g.degree > 0:
                xp = xp % g
    if g.degree > 0:
        out.append((g, g.degree))
    return out


def trace_map_oracle(r: Poly, d: int, mod: Poly) -> Poly:
    """r + r^2 + r^4 + ... + r^(2^(d-1)) mod mod."""
    acc = term = r % mod
    for _ in range(d - 1):
        term = term * term % mod
        acc = (acc + term) % mod
    return acc


def equal_degree_oracle(f: Poly, d: int) -> set:
    """The monic primes of degree d whose product is f, by Cantor-Zassenhaus
    with the polynomials of degree below deg f as candidates, in order."""
    if f.degree == d:
        return {f}
    p = f.spec.characteristic
    for k in itertools.count(p):  # the base-p digits of k: every r of degree >= 1, in order
        r = Poly.from_ints(f.spec, [k // p**i % p for i in range(k.bit_length())])
        if r.degree >= f.degree:
            raise AssertionError("no candidate splits f")
        if p == 2:
            probe = trace_map_oracle(r, d, f)
        else:
            probe = pow_mod_oracle(r, (p**d - 1) // 2, f) - Poly.one(f.spec)
        cand = gcd_monic_oracle(f, probe) if not probe.is_zero() else f
        if 0 < cand.degree < f.degree:
            return equal_degree_oracle(cand, d) | equal_degree_oracle(f // cand, d)


def squarefree_oracle(f: Poly):
    """Yun's squarefree decomposition over QQ: ``[(g, m), ...]`` by increasing m."""
    f = f.monic()
    if f.degree == 0:
        return []
    out = []
    fp = f.derivative()
    a = gcd_monic_oracle(f, fp)
    b, c = f // a, fp // a
    i = 1
    while b.degree > 0:
        d = c - b.derivative()
        g = gcd_monic_oracle(b, d)
        if g.degree > 0:
            out.append((g, i))
        b, c = b // g, d // g
        i += 1
    return out


def irreducible_oracle(f: Poly) -> bool:
    """Rabin's test over GF(p): x^(p^n) = x mod f, and x^(p^(n/q)) - x is
    coprime to f for every prime q dividing n = deg f."""
    n, p = f.degree, f.spec.characteristic
    if n < 1:
        return False
    f = f.monic()
    x = Poly.x(f.spec)
    frob = [x % f]  # x^(p^k) mod f, one Frobenius step at a time
    for _ in range(n):
        frob.append(pow_mod_oracle(frob[-1], p, f))
    if frob[n] != frob[0]:
        return False
    primes = [q for q in range(2, n + 1) if n % q == 0 and all(q % r for r in range(2, q))]
    return all(gcd_monic_oracle(f, frob[n // q] - x).is_one() for q in primes)
