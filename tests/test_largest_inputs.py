"""The largest accepted inputs, each within a work budget: long literals and
large isomorphism scales.

A literal of n terms is parsed in one pass, so its cost is linear in n and
a term ``c*x^i`` costs the same whatever i is.  An isomorphism over QQ finds
its scale by integer roots, never by factoring, so a prime scale near 10^9
costs what a small one costs.  Times are compared between two inputs run in
turn in the same process (the best CPU time of several runs each), never
against a fixed number of seconds, so a slow or busy host moves both sides
alike.
"""

import contextlib
import io
import time

from ahalg import FieldSpec, iso_test, parse_poly
from ahalg.cli import run

from helpers import parse_poly_oracle

QQ = FieldSpec.rationals()
BIG = FieldSpec.gf(1000003)


def _ratio(large, small, spec, rounds=7, work=parse_poly):
    """The best CPU time of work(large, spec) over that of work(small, spec), the two alternated."""
    best = {large: float("inf"), small: float("inf")}
    for _ in range(rounds):
        for src in (small, large):
            start = time.process_time()
            work(src, spec)
            best[src] = min(best[src], time.process_time() - start)
    return best[large] / best[small]


def _dense(n, rational):
    """An n-term literal with every power of x from 0 to n - 1, in mixed order."""
    terms = []
    for k in range(n):
        c = (k * k * 7919 + 13 * k + 5) % 1000003
        coeff = f"{c % 19 - 9}/{k % 6 + 1}" if rational else str(c)
        terms.append(f"{coeff}*x^{(k * 7) % n}")
    return " + ".join(terms)


def test_copies_of_one_high_monomial_sum_to_one_term():
    # 10000 copies are 110 KB, under the 128 KB limit on one command-line argument
    src = " + ".join(["3*x^8000"] * 10000)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(["--field", "GF:1000003", "--h", "x", "eval", src]) == 0
    assert out.getvalue() == "30000*x^8000\n"


def test_dense_literals_match_the_oracle():
    for spec, rational in ((BIG, False), (QQ, True), (QQ, False)):
        src = _dense(400, rational)
        assert parse_poly(src, spec) == parse_poly_oracle(src, spec)


def test_doubling_a_dense_literal_at_most_triples_its_parse_time():
    for spec, rational in ((BIG, False), (QQ, True)):
        ratio = _ratio(_dense(3000, rational), _dense(1500, rational), spec)
        assert ratio < 3, (spec, ratio)


def test_a_high_monomial_costs_what_a_low_one_costs():
    # each term is a scalar times a sparse monomial: x^8000 is three numbers, not a row
    n = 2000
    high = " + ".join(["3*x^8000"] * n)
    low = " + ".join(["3*x^8"] * n)
    for spec in (BIG, QQ):
        ratio = _ratio(high, low, spec)
        assert ratio < 2, (spec, ratio)


def test_a_prime_isomorphism_scale_costs_what_a_small_one_costs():
    # h = x^3 + a^2*x is equivalent to g = x^3 + x by alpha = +-a; with a = 10^9 + 7 the
    # rational-root theorem would try the divisors of a^2, found by trial division
    g = parse_poly("x^3+x", QQ)
    pairs = {a: parse_poly(f"x^3+{a * a}*x", QQ) for a in (10**9 + 7, 101)}

    def solve(a, spec):
        return iso_test(pairs[a], g, spec)

    assert solve(10**9 + 7, QQ) == (QQ.from_int(-(10**9 + 7)), QQ.zero(), QQ.from_int(-(10**9 + 7) ** 3))
    ratio = _ratio(10**9 + 7, 101, QQ, work=solve)
    assert ratio < 3, ratio
