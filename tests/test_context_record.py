"""The record that a polynomial keeps of what it alone determines: each field filled once.

The readers of the record of the h of a context are ``compute_G``,
``compute_P``, ``classify_aut_group``, ``center``, ``classify_normal``,
``height_one_prime_test`` and ``weyl._hy_rows``; ``iso_test`` and
``affine_equivalences`` read and fill the radical and anchor of both
polynomials they are given.  ``factor`` and the classification keep
nothing.  The functions that compute the fields are counted.
"""

import copy
import importlib
import pickle
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
    Automorphism,
    FieldSpec,
    Poly,
    center,
    classify_aut_group,
    classify_normal,
    compute_G,
    compute_P,
    embed,
    factor,
    height_one_prime_test,
    iso_test,
)
from ahalg.autgroup import affine_equivalences
from ahalg.errors import AhError, SelfCheckError

from helpers import kept

center_module = importlib.import_module("ahalg.center")  # the package's `center` is the function
QQ = FieldSpec.rationals()
F7 = FieldSpec.gf(7)

# (spec, h, pair-law compositions of one presentation: one per generator)
CASES = [
    (F7, (0, -1, 0, 1), 1),  # x^3 - x: G = {0}, m = 2
    (F7, (4, -4, 1), 1),  # (x - 2)^2: the family, m = 6
    (F7, (0, -1, 0, 0, 0, 0, 0, 1), 2),  # x^7 - x: no anchor, G = GF(7), m = 6
    (QQ, (-1, 0, 1), 1),  # x^2 - 1: m = 2
]
COUNTED = (
    (autgroup, "_radical"), (autgroup, "_anchor"), (autgroup, "_law_holds"),
    (autgroup, "_assert_laws"), (center_module, "_correction"), (normal, "factor"),
    (weyl, "_grow_hy_rows"),
)


def counted(monkeypatch) -> Counter:
    calls = Counter()
    for module, name in COUNTED:
        def counting(*args, real=getattr(module, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


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
    calls = counted(monkeypatch)
    h = Poly.from_ints(spec, ints)
    once = {"_radical": 1, "_anchor": 1, "_law_holds": generators,
            "_correction": 1 if spec.p else 0, "factor": 1, "_grow_hy_rows": 1}
    ctx = AhContext(spec, h)
    answers = [read() for read in readers(ctx)]
    assert +calls == +Counter(once, _assert_laws=1)
    for read in readers(ctx)[::-1] + readers(ctx):
        read()
    # the classification is not kept: its laws are checked on every call
    assert +calls == +Counter(once, _assert_laws=3)
    # a second context over the same h object shares its record
    shared = AhContext(spec, h, gen_symbol="y")
    assert [read() for read in readers(shared)] == answers
    assert +calls == +Counter(once, _assert_laws=4)
    # an equal but distinct h keeps its own record and computes its own
    fresh = AhContext(spec, Poly.from_ints(spec, ints))
    assert fresh == ctx and fresh.h == h and getattr(fresh.h, "_record", None) is None
    assert [read() for read in readers(fresh)] == answers
    assert +calls == +Counter({name: 2 * n for name, n in once.items()}, _assert_laws=5)


@pytest.mark.parametrize("spec", [F7, QQ], ids=repr)
def test_a_polynomial_asked_about_twice_keeps_its_radical_and_anchor(monkeypatch, spec):
    # h = x^3 - x moved to the anchor 1, g = 3*h(2x + 3) with the anchor -1
    calls = counted(monkeypatch)
    h = Poly.from_ints(spec, (0, -1, 0, 1)).compose(Poly.from_ints(spec, (-1, 1)))
    g = h.compose(Poly.from_ints(spec, (3, 2))).scaled(3)
    laws, answers = [], []
    for ask in (iso_test, iso_test, affine_equivalences, affine_equivalences):
        before = calls["_law_holds"]
        answers.append(ask(h, g, spec) if ask is iso_test else ask(h, g))
        laws.append(calls["_law_holds"] - before)
    # the record serves the later calls, and the answer for the pair is never kept
    assert calls["_radical"] == calls["_anchor"] == 2
    assert answers[0] == answers[1] and answers[2] == answers[3] and answers[0] in answers[2]
    assert laws[0] == laws[1] >= 1 and laws[2] == laws[3] >= 1
    assert kept(g, "anchor") == spec.elem(-1) and kept(h, "anchor") == spec.one()
    # h asked about as the h of a context reuses what iso_test kept
    compute_P(AhContext(spec, h))
    assert calls["_radical"] == calls["_anchor"] == 2


def test_factor_keeps_nothing_and_the_context_factors_h_once(monkeypatch):
    # (x^2 + 2)(x^2 + 3)(x - 1)(x - 2) over GF(5): the seed picks the equal-degree split
    calls = counted(monkeypatch)
    spec = FieldSpec.gf(5)
    h = Poly.from_ints(spec, (2, 2, 1, 0, 2, 2, 1))
    first = factor(h, seed=3)
    assert all(factor(h, seed=s) == first for s in range(6)) and kept(h, "factors") is None
    ctx = AhContext(spec, h)
    assert classify_normal(ctx.from_poly(h)).factors == tuple((t.poly, 1) for t in first.factors)
    filled = kept(h, "factors")
    for seed in range(4):
        height_one_prime_test(ctx.x(), seed=seed)
    assert calls["factor"] == 1 and filled == first and kept(h, "factors") is filled


@pytest.mark.parametrize("spec", [FieldSpec.gf(5), QQ], ids=repr)
def test_embed_along_one_divisor_grows_the_target_rows_once(monkeypatch, spec):
    f, v = Poly.from_ints(spec, (-1, 0, 1)), Poly.from_ints(spec, (2, 1))
    ctx = AhContext(spec, f * v)
    a = (ctx.x() + ctx.gen()) ** 4
    calls = counted(monkeypatch)
    images = [embed(a, f) for _ in range(3)]
    assert images[0] == images[1] == images[2] and images[0].ctx.h is f
    assert calls["_grow_hy_rows"] == 2  # the rows of f * v, then those of f
    assert len(kept(f, "hy_rows")) == 5
    assert embed(a, Poly.from_ints(spec, (-1, 0, 1))) == images[0]
    assert calls["_grow_hy_rows"] == 3


def _refuse(*args, **kwargs):
    raise SelfCheckError("refused")


def test_every_self_check_fires_on_its_fill(monkeypatch):
    def fresh(spec, *ints):
        return AhContext(spec, Poly.from_ints(spec, ints))

    warm = fresh(F7, 0, -1, 0, 1)
    compute_P(warm)
    center(warm)
    with monkeypatch.context() as patched:
        # the pair law of the generators, on the presentation
        patched.setattr(autgroup, "_law_holds", lambda *args: False)
        with pytest.raises(SelfCheckError, match="P is not G times"):
            compute_P(fresh(F7, 0, -1, 0, 1))
        compute_P(warm)
    with monkeypatch.context() as patched:
        # the power check of a linear radical: x^2 - 1 is not (x - 1)^2
        patched.setattr(autgroup, "_radical", lambda f: (1, 1))
        with pytest.raises(SelfCheckError, match="not a power of it"):
            compute_P(fresh(QQ, -1, 0, 1))
    with monkeypatch.context() as patched:
        # C == h'^(p-1) mod h, on the correction
        ctx = fresh(F7, 0, -1, 0, 1)
        patched.setattr(Poly, "derivative", lambda f: Poly.zero(f.spec))
        with pytest.raises(SelfCheckError, match="modulo h"):
            center(ctx)
        center(warm)
    # the laws of t and q, on every classification: nothing of it is kept
    for ctx in (warm, fresh(QQ, -1, 0, 1)):
        classify_aut_group(ctx)
        with monkeypatch.context() as patched:
            patched.setattr(autgroup, "_assert_laws", _refuse)
            with pytest.raises(SelfCheckError, match="refused"):
                classify_aut_group(ctx)


def test_pickle_and_copy_drop_the_record():
    spec = FieldSpec.gf(5)
    h = Poly.from_ints(spec, (2, 2, 1, 0, 2, 2, 1))
    key, text = hash(h), repr(h)
    ctx = AhContext(spec, h)
    for ask in (classify_normal, classify_aut_group, center, lambda ctx: weyl._hy_rows(ctx, 4)):
        ask(ctx.from_poly(h) if ask is classify_normal else ctx)
    assert hash(h) == key and repr(h) == text and h == Poly.from_ints(spec, (2, 2, 1, 0, 2, 2, 1))
    assert set(h._record) == {"factors", "radical", "anchor", "presentation", "correction", "hy_rows"}
    twins = [copy.copy(h), copy.deepcopy(h)]
    twins += [pickle.loads(pickle.dumps(h, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    twins.append(pickle.loads(pickle.dumps(ctx)).h)
    for twin in twins:
        assert type(twin) is Poly and twin is not h and twin == h and hash(twin) == key
        assert getattr(twin, "_record", None) is None and repr(twin) == text
        assert center(AhContext(spec, twin)) == center(ctx)


def test_every_type_pickles_at_every_protocol():
    # slotted classes rebuild from their canonical values, so protocols 0 and 1 work too
    cases = [(FieldSpec.gf(5), (0, 4, 0, 0, 0, 1)), (FieldSpec.gf(7), (1, -2, 1)),
             (FieldSpec.rationals(), (0, 0, 1)), (FieldSpec.rationals(), (0, -1, 0, 1))]
    for spec, ints in cases:
        h = Poly.from_ints(spec, ints)
        ctx = AhContext(spec, h, gen_symbol="Z")
        structure = classify_aut_group(ctx)
        shear = Automorphism(ctx, 1, 0, h)
        values = [spec, spec.from_int(3) / 2, h, ctx, compute_P(ctx), structure,
                  ctx.gen(), ctx.x() * ctx.gen() + 2, shear, shear.compose(shear)]
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            for value in values:
                twin = pickle.loads(pickle.dumps(value, protocol))
                assert type(twin) is type(value) and twin == value and twin is not value, (value, protocol)
            twin = pickle.loads(pickle.dumps(ctx, protocol))
            assert twin.gen_symbol == "Z" and twin.h_prime == ctx.h_prime
            assert getattr(twin.h, "_record", None) is None


def test_threads_fill_one_value_per_field(monkeypatch):
    # more threads than cores, each fill slowed so that all of them run at once,
    # and the first to start finishing last: the value installed first stays
    started, finished, guard = Counter(), {}, threading.Lock()

    def slowed(module, name):
        real = getattr(module, name)

        def slow(*args, **kwargs):
            key = name, id(args[0])  # the polynomial whose field is filled
            with guard:
                started[key] += 1
                wait = 0.05 - 0.01 * started[key]
            out = real(*args, **kwargs)
            time.sleep(wait)
            with guard:
                finished.setdefault(key, []).append(out)
            return out

        monkeypatch.setattr(module, name, slow)

    fills = ((autgroup, "_presentation"), (autgroup, "_radical"), (autgroup, "_anchor"),
             (center_module, "_correction"), (normal, "factor"))
    for module, name in fills:
        slowed(module, name)
    ctx = AhContext(F7, Poly.from_ints(F7, (4, 2, 0, 1)))  # x^3 + 2x + 4
    g = ctx.h.compose(Poly.from_ints(F7, (3, 2))).scaled(5)  # the anchor of g is 2
    start, results = threading.Barrier(4), {}

    def ask(i):
        start.wait(timeout=30)
        results[i] = (compute_P(ctx), center(ctx), height_one_prime_test(ctx.x(), seed=i).kind,
                      iso_test(ctx.h, g, F7))

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
    fresh = AhContext(F7, Poly.from_ints(F7, (4, 2, 0, 1)))
    assert results[0] == (compute_P(fresh), center(fresh), height_one_prime_test(fresh.x()).kind,
                          iso_test(fresh.h, g, F7))
    for target, field, name in ((ctx.h, "presentation", "_presentation"), (ctx.h, "correction", "_correction"),
                                (ctx.h, "factors", "factor"), (g, "radical", "_radical"),
                                (g, "anchor", "_anchor")):
        assert kept(target, field) is finished[name, id(target)][0]


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
        for name in ("_law_holds", "_unit_of_order", "_prime_divisors"):
            patched.setattr(autgroup, name, _never)
        with pytest.raises(AhError, match=message):
            classify_aut_group(AhContext(spec, h))
    assert kept(h, "presentation") is None
    if p > 10**6:
        # with P certified and kept, the refusal still comes before the generator search
        ctx = AhContext(spec, h)
        compute_P(ctx)
        monkeypatch.setattr(autgroup, "_prime_divisors", _never)
        with pytest.raises(AhError, match=message):
            classify_aut_group(ctx)
