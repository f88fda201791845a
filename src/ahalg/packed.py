"""The Ore product over GF(p) on rows packed into one integer each.

A row ``sum_k r_k(x) Y^k`` is one int whose digit at bit ``(k*L + j)*B``,
below 2p, is the coefficient of ``x^j Y^k`` mod p (Kronecker substitution in
two dimensions, ``_pack``): L is the stride and ``B = 8*width`` the digit
width.  L exceeds the x-degree of every coefficient an operation forms, and
B holds the largest digit sum, so no digit spills into the next: a product
of two rows is one int product, and a result is unpacked and reduced mod p
once.  A row step ``Y*r = (r one slot up) + h*r'`` is a few whole-int
operations (``_kernel``): r' is ``sum((r & M_b) << b) >> B``, M_b the digits
whose x-exponent has bit b set, and one packed Montgomery step (Montgomery,
Math. Comp. 1985) brings each digit of ``R*(r one slot up) + (R*h)*r'``
below 2p, R = 2^s mod p; over GF(2) it keeps each digit's low bit.

The degree bounds come from weights: x^j Y^k weighs ``j + k*e`` with
``e = max(deg h - 1, 0)`` (``algebra._excess``), delta raises the degree of
a nonconstant polynomial by at most e (and kills a constant), and the weight
of a product is the sum of its factors' weights (the associated graded ring
is an Ore extension of F[x], a domain).

* ``a*b = sum_i f_i * (Y^i*b)``: one row step per i and one int product per
  nonzero ``f_i``.  The commutator adds ``-g_k * (Y^k*a)`` into the same int.
* ``w = q*v``: the rows of v serve every ``q_j``; ``w = v*q``: ``v*q_j =
  sum_m F_m * delta^m(q_j)`` with ``F_m = sum_i C(i, m) v_i Y^(i-m)``
  packed once, kv row steps and kv+1 int products per ``q_j``.  Both solve
  top-down on one int, reading one slot at a time, and refuse a ``q_j``
  heavier than ``weight(w) - weight(v)`` allows.
* the anti-automorphism keeps its Horner accumulator as one packed row.

:mod:`ahalg.algebra` calls these only for factors of Y-degree at least 1:
the raw rows measured 1.2-2.8x faster with a polynomial factor, where these
made ``structure`` 12% slower.  Each returns NotImplemented, leaving the
operation to the raw rows too, when the layout would hold over 8 digits per
nonzero input digit (sparse elements such as ``Y^1024``, or a degree bound
far above the actual degrees).  :mod:`ahalg.algebra` loads this module at
its first call, so a caller that never gets here compiles neither it nor ``array``.
"""

from __future__ import annotations

import sys
from array import array

from .algebra import OreElement, _binomials, _element, _excess, _support
from .errors import SelfCheckError
from .poly import _poly

# the array typecode of each digit width up to one 64-bit word, in bytes
_TYPECODES = {array(t).itemsize: t for t in "BHILQ"}


def digit_bytes(bits: int) -> int:
    """The digit width, in bytes, that holds ``bits`` bits: 1, 2, 4 or 8, else
    a whole number of 64-bit words."""
    n = 1
    while 8 * n < bits and n < 8:
        n *= 2
    return n if 8 * n >= bits else 8 * -(-bits // 64)


def _pack(digits, width: int) -> int:
    """The int with ``digits[i]`` (each below ``2^(8*width)``) at bit ``8*width*i``."""
    if width <= 8:
        words = array(_TYPECODES[width], digits)
        if sys.byteorder == "big":
            words.byteswap()
        return int.from_bytes(words.tobytes(), "little")
    return int.from_bytes(b"".join([d.to_bytes(width, "little") for d in digits]), "little")


def _unpack(n: int, count: int, width: int) -> list:
    """The first ``count`` digits of ``n`` (below ``2^(8*width*count)``), laid out as by ``_pack``."""
    raw = n.to_bytes(count * width, "little")
    if width <= 8:
        words = array(_TYPECODES[width])
        words.frombytes(raw)
        if sys.byteorder == "big":
            words.byteswap()
        return words.tolist()
    return [int.from_bytes(raw[i:i + width], "little") for i in range(0, len(raw), width)]


def _weight(cs, e: int) -> int:
    return max(len(c) - 1 + k * e for k, c in enumerate(cs) if c)


def _shift(ctx, stride: int) -> int:
    """The Montgomery shift s: a row step's digit sums stay under
    ``2p^2(2 + (deg h + 1)(stride + 1))``, half of ``p*2^s`` or less."""
    return (4 * ctx.spec.p * (2 + len(ctx.h._nums) * (stride + 1))).bit_length()


def _width(ctx, slots: int, stride: int, elements, terms=0) -> int:
    """The digit width, in bytes, for sums of at most ``terms`` products of a
    residue with a digit below 2p, for the row steps and, for odd p, for
    the 2s bits of the Montgomery product; 0 when ``slots*stride`` digits
    exceed 8 per nonzero digit of the elements.  The ore_arith deck
    stays under 5, so no benchmark workload reaches the raw side of this
    threshold: the 8 comes from single timings of sparse powers of Y, where
    past about 9 the raw rows were as fast, and is not checked against the
    benchmark."""
    size = sum(len(c._nums) for a in elements for c in a.coeffs)
    if slots * stride > 8 * size:
        return 0
    p, terms = ctx.spec.p, max(terms, size, len(ctx.h._nums) * stride + 1)
    bits = 2 * (p - 1).bit_length() + terms.bit_length() + 1
    return digit_bytes(bits if p == 2 else max(bits, 2 * _shift(ctx, stride)))


def _flat(cs, stride: int) -> list:
    """The residue tuples cs as one digit list, entry k at k*stride."""
    out = [0] * (len(cs) * stride)
    for k, c in enumerate(cs):
        out[k * stride:k * stride + len(c)] = c
    return out


def _residues(a: OreElement, sign=1) -> list:
    p = a.ctx.spec.p
    return [f._nums if sign > 0 else tuple(-c % p for c in f._nums) for f in a.coeffs]


def _kernel(ctx, slots: int, stride: int, width: int):
    """``(scaled, derivative, reduce)`` on rows of at most ``slots`` slots: the
    residues times R packed, the digits ``j*r_j`` moved one digit down, and a
    row congruent to v/R with digits below 2p (each digit of v below ``p*2^s``)."""
    p, bits, s = ctx.spec.p, 8 * width, _shift(ctx, stride)
    zero, full = bytes(width), b"\xff" * width
    ones = int.from_bytes((b"\1" + zero[1:]) * (slots * stride), "little")
    # M_b: runs of 2^b zero digits and 2^b full ones, cut at each slot's end
    masks = [int.from_bytes(((zero * n + full * n) * (stride // n + 1))[:stride * width] * slots, "little")
             for n in (1 << b for b in range((stride - 1).bit_length()))]
    r, low, q = (1, 0, 0) if p == 2 else (pow(2, s, p), ones * ((1 << s) - 1), pow(-p, -1, 1 << s))

    def derivative(row: int) -> int:
        return sum((row & m) << b for b, m in enumerate(masks)) >> bits

    def reduce(v: int) -> int:
        return v & ones if p == 2 else (v + ((v & low) * q & low) * p) >> s
    return (lambda nums: _pack([r * c % p for c in nums], width)), derivative, reduce


def _rows(ctx, gs, top: int, stride: int, width: int):
    """Yield the packed rows ``Y^i * sum_k gs[k] Y^k`` for i = 0..top."""
    scaled, derivative, reduce = _kernel(ctx, len(gs) + top, stride, width)
    shift, r, h = 8 * width * stride, scaled((1,)), scaled(ctx.h._nums)
    row = _pack(_flat(gs, stride), width)
    yield row
    for _ in range(top):
        row = reduce((r * row << shift) + h * derivative(row))
        yield row


def _unpacked(ctx, packed: int, n: int, stride: int, width: int) -> OreElement:
    flat = _unpack(packed, n * stride, width)
    return _element(ctx, [_poly(ctx.spec, flat[k * stride:(k + 1) * stride]) for k in range(n)])


def product(a: OreElement, b: OreElement, minus=False):
    """``a*b``, or ``a*b - b*a``, for a and b of Y-degree at least 1;
    NotImplemented when the layout would be sparse."""
    ctx, e = a.ctx, _excess(a.ctx)
    pairs, stride = [(a, b), (b, a)] if minus else [(a, b)], 1
    for f_el, g in pairs:
        # an entry of Y^i*g has degree at most deg g + i*e, or 0 when g is constant
        d = max(len(c._nums) for c in g.coeffs) - 1
        degrees = (len(f._nums) + d + (d and i * e) for i, f in enumerate(f_el.coeffs) if f)
        stride = max(stride, *degrees)
    n = len(a.coeffs) + len(b.coeffs) - 1
    width = _width(ctx, n, stride, (a, b))
    if not width:
        return NotImplemented
    acc = 0
    for sign, (f_el, g) in zip((1, -1), pairs):
        fs = _residues(f_el, sign)
        for i, row in enumerate(_rows(ctx, _residues(g), len(fs) - 1, stride, width)):
            acc += _pack(fs[i], width) * row
    return _unpacked(ctx, acc, n, stride, width)


def antiautomorphism(a: OreElement):
    """``sum (h' - Y)^i * f_i`` by Horner, ``r <- h'*r - (r one slot up) -
    h*r' + f_i``, r one packed row, for a of Y-degree at least 1;
    NotImplemented when the layout would be sparse."""
    ctx, fs = a.ctx, a.coeffs
    # r never outweighs a, so a's weight bounds every degree
    stride = 1 + max(len(f._nums) - 1 + i * _excess(ctx) for i, f in enumerate(fs) if f)
    width = _width(ctx, len(fs), stride, (a,))
    if not width:
        return NotImplemented
    scaled, derivative, reduce = _kernel(ctx, len(fs), stride, width)
    shift, r, minus = 8 * width * stride, scaled((1,)), scaled((-1,))
    neg_h, hp = scaled([-c for c in ctx.h._nums]), scaled(ctx.h_prime._nums)
    row = _pack(fs[-1]._nums, width)
    for f in fs[-2::-1]:
        r_f = r * _pack(f._nums, width)
        row = reduce(hp * row + (minus * row << shift) + neg_h * derivative(row) + r_f)
    return _unpacked(ctx, row, len(fs), stride, width)


def divide(w: OreElement, v: OreElement, left: bool):
    """q with ``w == v*q`` (left) or ``w == q*v``, or None when there is none,
    for v and q of Y-degree at least 1; NotImplemented when the layout would
    be sparse."""
    ctx, e = w.ctx, _excess(w.ctx)
    p, ws, vs = ctx.spec.p, _residues(w), _residues(v)
    kv, kq = len(vs) - 1, len(ws) - len(vs)
    wq = _weight(ws, e) - _weight(vs, e)
    if wq < kq * e:
        return None  # a q of Y-degree kq weighs at least kq*e
    # an exact q has deg q_j <= wq - j*e, and delta^m(q_j) at most kv*e more
    stride = 1 + max(max(map(len, ws)) - 1, max(map(len, vs)) - 1 + wq + left * kv * e)
    terms = 1 + (kq + 1) * (sum(map(len, vs)) if left else wq + 1)
    width = _width(ctx, len(ws), stride, (w, v), terms)
    if not width:
        return NotImplemented
    if left:
        fm = [[0] * ((kv - m + 1) * stride) for m in range(kv + 1)]
        for i in _support(vs):
            for m, c in _binomials(i, p):
                fm[m][(i - m) * stride:(i - m) * stride + len(vs[i])] = [c * x % p for x in vs[i]]
        fm = [_pack(f, width) for f in fm]
        scaled, derivative, reduce = _kernel(ctx, 1, stride, width)
        h = scaled(ctx.h._nums)
    else:
        rows = list(_rows(ctx, vs, kq, stride, width))
    slot = 8 * width * stride
    acc, mask, quot = _pack(_flat(ws, stride), width), (1 << slot) - 1, [None] * (kq + 1)
    for j in range(kq, -1, -1):
        r = _poly(ctx.spec, _unpack(acc >> ((j + kv) * slot) & mask, stride, width))
        quot[j], rem = divmod(r, v.coeffs[-1])
        if rem or len(quot[j]._nums) + j * e > wq + 1:
            return None
        neg = [-c % p for c in quot[j]._nums]
        if neg and left:
            table = [_pack(neg, width)]
            for _ in range(kv):
                table.append(reduce(h * derivative(table[-1])))
            acc += sum(t * f for t, f in zip(table, fm)) << (j * slot)
        elif neg:
            acc += _pack(neg, width) * rows[j]
    flat = [c % p for c in _unpack(acc, len(ws) * stride, width)]
    if any(flat[kv * stride:]):
        raise SelfCheckError("one-sided division put a term above its solved slot")
    return None if any(flat) else _element(ctx, quot)
