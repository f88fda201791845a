"""Shared pieces of the workloads: the Case record, seeded raw-data
generators and independent oracles on raw coefficient lists.

Raw polynomials are lists of coefficients by increasing degree: ``int``
residues in ``range(p)`` over GF(p), ``Fraction`` values over QQ.  ``p == 0``
stands for QQ throughout.  Nothing here imports ``ahalg``; the oracles
re-derive answers with plain integer arithmetic so that a check does not
depend on the code it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

@dataclass
class Case:
    """One workload operation.

    ``run`` is the timed call: it closes over inputs that were generated
    before timing started.  ``check`` receives the result, untimed, and
    returns True when it is correct.  ``p`` is the field characteristic (0
    for QQ) and ``group`` ties together the operations that share one
    generated input.
    """

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]
    p: int = 0
    group: int = -1
    order: int = 1  # checks run in increasing order, so a cheap check can certify inputs for dearer ones


# -- seeded raw data ------------------------------------------------------------


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\x00\x00"
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, flag in enumerate(sieve) if flag]


def rand_scalar(rng, p: int, nonzero: bool = False):
    while True:
        if p:
            c = rng.randrange(p)
        else:
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if c or not nonzero:
            return c


def rand_poly(rng, p: int, deg: int) -> list:
    """A dense raw polynomial of degree ``deg``: every coefficient nonzero,
    so the cost of an operation does not depend on how many zeros the seed drew."""
    return [rand_scalar(rng, p, nonzero=True) for _ in range(deg + 1)]


# -- raw polynomial arithmetic (the oracles) --------------------------------------


def _reduce(c, p: int):
    return c % p if p else c


def trim(f: list) -> list:
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def raw_mul(f: list, g: list, p: int) -> list:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return trim([_reduce(c, p) for c in out])


def raw_add(f: list, g: list, p: int) -> list:
    n = max(len(f), len(g))
    f = list(f) + [0] * (n - len(f))
    g = list(g) + [0] * (n - len(g))
    return trim([_reduce(a + b, p) for a, b in zip(f, g)])


def raw_scale(f: list, c, p: int) -> list:
    return trim([_reduce(a * c, p) for a in f])


def raw_pow(f: list, n: int, p: int) -> list:
    out = [1]
    for _ in range(n):
        out = raw_mul(out, f, p)
    return out


def raw_derivative(f: list, p: int) -> list:
    return trim([_reduce(i * c, p) for i, c in enumerate(f)][1:])


def raw_eval(f: list, x, p: int):
    acc = 0
    for c in reversed(f):
        acc = _reduce(acc * x + c, p)
    return acc


def raw_compose_affine(f: list, alpha, beta, p: int) -> list:
    """f(alpha*x + beta) by Horner."""
    acc: list = []
    lin = trim([_reduce(beta, p), _reduce(alpha, p)])
    for c in reversed(f):
        acc = raw_add(raw_mul(acc, lin, p), [c], p)
    return acc


def pair_law(h: list, alpha, beta, p: int) -> bool:
    """h(alpha*x + beta) == alpha^deg(h) * h(x)."""
    if not alpha:
        return False
    d = len(h) - 1
    return raw_compose_affine(h, alpha, beta, p) == raw_scale(h, alpha**d, p)


def exhaustive_pairs(h: list, p: int) -> set:
    return {
        (a, b) for a in range(1, p) for b in range(p) if pair_law(h, a, b, p)
    }


def exhaustive_translations(h: list, p: int) -> set:
    return {nu for nu in range(p) if raw_compose_affine(h, 1, nu, p) == h}


def affine_witness_exists(h: list, g: list, p: int) -> bool:
    """Over GF(p): is there (alpha, beta, nu) with h(alpha*x + beta) == nu * g(x)?"""
    if len(h) != len(g):
        return False
    for a in range(1, p):
        for b in range(p):
            moved = raw_compose_affine(h, a, b, p)
            nu = moved[-1] * pow(g[-1], -1, p) % p
            if moved == raw_scale(g, nu, p):
                return True
    return False


def delta_power_x(h: list, n: int, p: int) -> list:
    """delta^n(x) with delta(f) = h * f'."""
    f = [0, 1]
    for _ in range(n):
        f = raw_mul(h, raw_derivative(f, p), p)
    return f


def has_root(f: list, p: int) -> bool:
    return any(raw_eval(f, x, p) == 0 for x in range(p))


def raw_of(poly) -> list:
    """The raw coefficient list of an ``ahalg`` Poly."""
    return [c.val for c in poly.coeffs]


def load_repo_tests_module(name: str):
    """Import ``tests/<name>.py`` of the repository by path, read-only."""
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[2] / "tests" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_repo_tests_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def field_spec(p: int):
    from ahalg import FieldSpec

    return FieldSpec.rationals() if p == 0 else FieldSpec.gf(p)
