"""weyl_convert: moving elements between A_h and the Weyl algebra.

Each group is one context with ``h = u * v`` (u monic linear, so u divides h)
and one element a.  Its operations are ``to_weyl(a)``, ``from_weyl`` of that
expansion (made before timing), ``embed(a, u)``, ``ore_witness(a, u, side)``
and, over GF(5) and GF(7), ``central_decompose(a)``.  Degrees follow a fixed
design (deg h 1-3, Y-degree 2-7, coefficient degree 1-3); the seed draws
every coefficient.
"""

from __future__ import annotations

import random

from .common import Case, field_spec, rand_poly, rand_scalar

SETUP_MODULES = ("ahalg",)
TRACE_ROUNDS = 2
ROUND_SECONDS = 1.5  # nominal time of one round on a 2-core x86-64 host; only sets the round count
FIELDS = (0, 5, 7, 101)
YDEGS = (2, 3, 4, 5, 6, 7)
DECOMPOSE_FIELDS = (5, 7)


def plan(seed: int) -> list[dict]:
    rng = random.Random(f"weyl_convert:{seed}")
    groups = []
    for p in FIELDS:
        for k, ydeg in enumerate(YDEGS):
            lam = rand_scalar(rng, p)
            groups.append(
                {
                    "p": p,
                    "u": [-lam % p if p else -lam, 1],
                    "v": rand_poly(rng, p, k % 3),
                    "a": [rand_poly(rng, p, 1 + (k + 1) % 3) for _ in range(ydeg + 1)],
                    "probe": rand_poly(rng, p, 2 * ydeg + 1),
                    "side": "right" if k % 2 == 0 else "left",
                }
            )
    return groups


def contexts(groups: list[dict]) -> list:
    from ahalg import AhContext, Poly

    out = []
    for g in groups:
        spec = field_spec(g["p"])
        out.append(AhContext(spec, Poly(spec, g["u"]) * Poly(spec, g["v"])))
    return out


def _act(coeffs, step, u):
    """Apply sum_i c_i * D^i to the polynomial u, where D is ``step``."""
    total = u * 0
    cur = u
    for i, c in enumerate(coeffs):
        if i:
            cur = step(cur)
        total = total + c * cur
    return total


class _Element:
    """One generated element, its Weyl expansion, and the expansion's check.

    The expansion is checked against the differential-operator action on
    polynomials, where x multiplies, y differentiates and so Y = y*h sends
    u to (h*u)'.  Both sides must act alike on a random polynomial.
    """

    def __init__(self, ctx, raw: dict):
        import ahalg

        spec = ctx.spec
        self.ctx = ctx
        self.a = ctx.element([ahalg.Poly(spec, c) for c in raw["a"]])
        self.u = ahalg.Poly(spec, raw["u"])
        self.w = ahalg.to_weyl(self.a)
        self.probe = ahalg.Poly(spec, raw["probe"])
        self._w_ok: bool | None = None

    def w_ok(self) -> bool:
        if self._w_ok is None:
            h = self.ctx.h
            lhs = _act(self.a.coeffs, lambda f: (h * f).derivative(), self.probe)
            rhs = _act(self.w.coeffs, lambda f: f.derivative(), self.probe)
            self._w_ok = lhs == rhs
        return self._w_ok


def _witness_ok(el: _Element, side: str, r) -> bool:
    ctx = el.ctx
    s1, a1, f = ctx.from_poly(r.s1), r.a1, ctx.from_poly(el.u)
    if r.side != side:
        return False
    if side == "right":
        return el.a * s1 == f * a1
    return s1 * el.a == a1 * f


def cases(groups: list[dict], ctxs: list) -> list[Case]:
    import ahalg

    out = []
    for gi, (raw, ctx) in enumerate(zip(groups, ctxs)):
        el = _Element(ctx, raw)
        a, w, u, side, p = el.a, el.w, el.u, raw["side"], raw["p"]
        out += [
            Case("to_weyl", lambda a=a: ahalg.to_weyl(a),
                 lambda r, el=el: r == el.w and el.w_ok(), p, gi),
            Case("from_weyl", lambda w=w, ctx=ctx: ahalg.from_weyl(w, ctx),
                 lambda r, el=el: r == el.a and el.w_ok(), p, gi),
            Case("embed", lambda a=a, u=u: ahalg.embed(a, u),
                 lambda r, el=el: r.ctx.h == el.u and ahalg.to_weyl(r) == el.w and el.w_ok(), p, gi),
            Case("ore_witness", lambda a=a, u=u, side=side: ahalg.ore_witness(a, u, side),
                 lambda r, el=el, side=side: _witness_ok(el, side, r), p, gi),
        ]
        if p in DECOMPOSE_FIELDS:
            out.append(Case("central_decompose", lambda a=a: ahalg.central_decompose(a),
                            lambda r, a=a: r.reassemble() == a, p, gi))
    return out
