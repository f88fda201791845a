"""The largest accepted inputs, each within a work budget: long literals.

A literal of n terms is parsed in one pass, so its cost is linear in n and
a term ``c*x^i`` costs the same whatever i is.  Times are compared between
two inputs parsed in turn in the same process (the best CPU time of several
runs each), never against a fixed number of seconds, so a slow or busy host
moves both sides alike.
"""

import contextlib
import io
import time

from ahalg import FieldSpec, parse_poly
from ahalg.cli import run

from helpers import parse_poly_oracle

QQ = FieldSpec.rationals()
BIG = FieldSpec.gf(1000003)


def _ratio(large, small, spec, rounds=7):
    """The best CPU time of parsing large over that of small, the two alternated."""
    best = {large: float("inf"), small: float("inf")}
    for _ in range(rounds):
        for src in (small, large):
            start = time.process_time()
            parse_poly(src, spec)
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
