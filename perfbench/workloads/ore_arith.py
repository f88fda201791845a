"""ore_arith: products, commutators, the anti-automorphism and exact
one-sided division in A_h, over QQ, GF(7) and GF(1000003).

Each group is one context and one pair (a, b).  Its five operations are
``a*b``, ``[a, b]``, ``anti(a)``, ``div_left_exact(a*b, a)`` and
``div_right_exact(b*a, a)``; the two products fed to the divisions are made
before timing.  Degrees follow a fixed design (deg h 1-4, Y-degree 2-8,
coefficient degree 2-6); the seed draws every coefficient and so every h.
"""

from __future__ import annotations

import random

from .common import Case, field_spec, load_repo_tests_module, rand_poly

SETUP_MODULES = ("ahalg",)
TRACE_ROUNDS = 2
ROUND_SECONDS = 3.3  # nominal time of one round on a 2-core x86-64 host; only sets the round count
FIELDS = (0, 7, 1000003)
# (Y-degree of a, Y-degree of b): every degree 2..8 once on each side
PAIRINGS = ((2, 3), (3, 6), (4, 2), (5, 5), (6, 8), (7, 4), (8, 7))
NAIVE_MAX_YDEG = 4


def plan(seed: int) -> list[dict]:
    rng = random.Random(f"ore_arith:{seed}")
    groups = []
    for p in FIELDS:
        for k, (ya, yb) in enumerate(PAIRINGS):
            ca, cb = 2 + k % 5, 2 + (k + 2) % 5
            groups.append(
                {
                    "p": p,
                    "h": rand_poly(rng, p, 1 + k % 4),
                    "a": [rand_poly(rng, p, ca) for _ in range(ya + 1)],
                    "b": [rand_poly(rng, p, cb) for _ in range(yb + 1)],
                    "naive": max(ya, yb) <= NAIVE_MAX_YDEG and rng.random() < 0.5,
                }
            )
    return groups


def contexts(groups: list[dict]) -> list:
    from ahalg import AhContext, Poly

    out = []
    for g in groups:
        spec = field_spec(g["p"])
        out.append(AhContext(spec, Poly(spec, g["h"])))
    return out


class _Pair:
    """One generated pair and the products certified by exact division."""

    def __init__(self, ctx, raw: dict):
        import ahalg

        spec = ctx.spec
        self.a = ctx.element([ahalg.Poly(spec, c) for c in raw["a"]])
        self.b = ctx.element([ahalg.Poly(spec, c) for c in raw["b"]])
        self.ab = self.a * self.b
        self.ba = self.b * self.a
        self.left_ok: bool | None = None
        self.right_ok: bool | None = None

    def certified(self) -> bool:
        """ab and ba are the true products: dividing by a gives back b."""
        import ahalg

        if self.left_ok is None:
            self.left_ok = ahalg.div_left_exact(self.ab, self.a) == self.b
        if self.right_ok is None:
            self.right_ok = ahalg.div_right_exact(self.ba, self.a) == self.b
        return self.left_ok and self.right_ok


def cases(groups: list[dict], ctxs: list) -> list[Case]:
    import ahalg

    naive_mul = load_repo_tests_module("helpers").naive_mul
    out = []
    for gi, (raw, ctx) in enumerate(zip(groups, ctxs)):
        pair = _Pair(ctx, raw)
        a, b, ab, ba = pair.a, pair.b, pair.ab, pair.ba
        p = raw["p"]

        def check_mul(r, pair=pair, a=a, b=b, naive=raw["naive"]):
            return r == pair.ab and pair.certified() and (not naive or r == naive_mul(a, b))

        def check_div_left(r, pair=pair):
            pair.left_ok = r == pair.b
            return pair.left_ok

        def check_div_right(r, pair=pair):
            pair.right_ok = r == pair.b
            return pair.right_ok

        out += [
            Case("mul", lambda a=a, b=b: a * b, check_mul, p, gi),
            Case("commutator", lambda a=a, b=b: ahalg.commutator(a, b),
                 lambda r, pair=pair: r == pair.ab - pair.ba and pair.certified(), p, gi),
            Case("antiautomorphism", lambda a=a: ahalg.antiautomorphism(a),
                 lambda r, a=a: ahalg.antiautomorphism(r) == a, p, gi),
            Case("div_left", lambda ab=ab, a=a: ahalg.div_left_exact(ab, a), check_div_left, p, gi, order=0),
            Case("div_right", lambda ba=ba, a=a: ahalg.div_right_exact(ba, a), check_div_right, p, gi, order=0),
        ]
    return out
