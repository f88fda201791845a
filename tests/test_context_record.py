"""The record of facts about h that a context keeps: each field filled once.

The seven readers are ``compute_G``, ``compute_P``, ``classify_aut_group``,
``center``, ``classify_normal``, ``height_one_prime_test`` and
``weyl._hy_rows``; the functions that compute the fields are counted.
"""

import importlib
import sys
import threading
import time
from collections import Counter

import pytest

import ahalg.autgroup as autgroup
import ahalg.normal as normal
import ahalg.weyl as weyl
from ahalg import (
    AhContext,
    FieldSpec,
    Poly,
    center,
    classify_aut_group,
    classify_normal,
    compute_G,
    compute_P,
    height_one_prime_test,
)
from ahalg.errors import AhError

center_module = importlib.import_module("ahalg.center")  # the package's `center` is the function
QQ = FieldSpec.rationals()
F7 = FieldSpec.gf(7)

# (spec, h, pair_is_valid calls of one presentation: one per generator)
CASES = [
    (F7, (0, -1, 0, 1), 1),  # x^3 - x: G = {0}, m = 2
    (F7, (4, -4, 1), 1),  # (x - 2)^2: the family, m = 6
    (F7, (0, -1, 0, 0, 0, 0, 0, 1), 2),  # x^7 - x: no anchor, G = GF(7), m = 6
    (QQ, (-1, 0, 1), 1),  # x^2 - 1: m = 2
]
COUNTED = (
    (autgroup, "_radical"), (autgroup, "_anchor"), (autgroup, "pair_is_valid"),
    (center_module, "_correction"), (normal, "factor"), (weyl, "_grow_hy_rows"),
)


def readers(ctx):
    return [
        lambda: weyl._hy_rows(ctx, 3),  # first, so no later reader grows the rows
        lambda: compute_G(ctx),
        lambda: compute_P(ctx),
        lambda: classify_aut_group(ctx),
        lambda: center(ctx),
        lambda: classify_normal(ctx.from_poly(ctx.h)),
        lambda: height_one_prime_test(ctx.x()),
    ]


@pytest.mark.parametrize("spec, ints, generators", CASES, ids=[f"{s!r}-{i}" for s, i, _ in CASES])
def test_each_field_is_computed_once_per_context(monkeypatch, spec, ints, generators):
    calls = Counter()
    for module, name in COUNTED:
        def counting(*args, real=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    h = Poly.from_ints(spec, ints)
    once = {"_radical": 1, "_anchor": 1, "pair_is_valid": generators,
            "_correction": 1 if spec.p else 0, "factor": 1, "_grow_hy_rows": 1}
    ctx = AhContext(spec, h)
    answers = [read() for read in readers(ctx)]
    assert +calls == +Counter(once)
    for read in readers(ctx)[::-1] + readers(ctx):
        read()
    assert +calls == +Counter(once)
    # an equal but distinct context keeps its own record and computes its own
    fresh = AhContext(spec, h)
    assert fresh == ctx and fresh.facts is None
    assert [read() for read in readers(fresh)] == answers
    assert +calls == +Counter({name: 2 * n for name, n in once.items()})


def test_threads_fill_one_value_per_field(monkeypatch):
    # more threads than cores, each fill slowed so that all of them run at once,
    # and the first to start finishing last: the value installed first stays
    started, finished, guard = Counter(), {}, threading.Lock()

    def slowed(module, name):
        real = getattr(module, name)

        def slow(*args, **kwargs):
            with guard:
                started[name] += 1
                wait = 0.05 - 0.01 * started[name]
            out = real(*args, **kwargs)
            time.sleep(wait)
            with guard:
                finished.setdefault(name, []).append(out)
            return out

        monkeypatch.setattr(module, name, slow)

    for module, name in ((autgroup, "_presentation"), (center_module, "_correction"), (normal, "factor")):
        slowed(module, name)
    ctx = AhContext(F7, Poly.from_ints(F7, (4, 2, 0, 1)))  # x^3 + 2x + 4
    start, results = threading.Barrier(4), {}

    def ask(i):
        start.wait(timeout=30)
        results[i] = (compute_P(ctx), center(ctx), height_one_prime_test(ctx.x()).kind)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=ask, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(results) == 4
    assert len(set(results.values())) == 1
    fresh = AhContext(F7, ctx.h)
    assert results[0] == (compute_P(fresh), center(fresh), height_one_prime_test(fresh.x()).kind)
    for field, name in (("presentation", "_presentation"), ("correction", "_correction"),
                        ("factors", "factor")):
        assert ctx.facts[field] is finished[name][0]


def _never(*args, **kwargs):
    raise AssertionError("ran before the dense t was refused")


@pytest.mark.parametrize("p, ints, terms", [
    (8191, {8191: 1, 1: -1}, 67084291),  # x^8191 - x: t = (x^8191 - x)^8190
    (10000019, {2: 1}, 10000019),  # x^2: t = x^10000018
])
def test_a_dense_t_is_refused_before_anything_is_certified(monkeypatch, p, ints, terms):
    spec = FieldSpec.gf(p)
    h = Poly(spec, [ints.get(i, 0) for i in range(max(ints) + 1)])
    message = f"power of the base too large: {terms} coefficients, limit 4194304"
    with monkeypatch.context() as patched:
        for name in ("pair_is_valid", "_unit_of_order", "_prime_divisors"):
            patched.setattr(autgroup, name, _never)
        with pytest.raises(AhError, match=message):
            classify_aut_group(AhContext(spec, h))
    if p > 10**6:
        # with P certified and kept, the refusal still comes before the generator search
        ctx = AhContext(spec, h)
        compute_P(ctx)
        monkeypatch.setattr(autgroup, "_prime_divisors", _never)
        with pytest.raises(AhError, match=message):
            classify_aut_group(ctx)
