"""cli: whole ``ah`` commands through ``ahalg.cli.run(argv)`` in process.

The deck is the 35-command golden corpus of ``tests/test_cli.py`` (read
from that file's source, never imported) plus seeded small commands across
the subcommands, half of them with ``--json``.  Every command must exit 0;
golden commands must print their hand-written bytes, and seeded commands
must print what the library API gives for the same inputs.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
from pathlib import Path

from . import common
from .common import Case, field_spec

SETUP_MODULES = ("ahalg", "ahalg.cli")
TRACE_ROUNDS = 8
ROUND_SECONDS = 0.65  # nominal time of one round on a 2-core x86-64 host; only sets the round count
SEEDED_PER_KIND = 5
SEEDED_FIELDS = (0, 3, 5, 7)
SEEDED_KINDS = (
    "eval", "mul", "add", "comm", "anti", "delta", "to-weyl", "from-weyl",
    "factor", "aut-p", "aut-g", "iso", "is-normal", "is-central",
)


def golden_corpus() -> list[tuple[list[str], str]]:
    """The GOLDEN list of tests/test_cli.py, parsed as a literal."""
    path = Path(__file__).resolve().parents[2] / "tests" / "test_cli.py"
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "GOLDEN" for t in node.targets
        ):
            return [(list(argv), expected) for argv, expected in ast.literal_eval(node.value)]
    raise LookupError("tests/test_cli.py has no GOLDEN list")


# -- seeded commands: raw inputs written out as text -----------------------------


def _poly_text(f: list) -> str:
    terms = [f"{c}*x^{i}" for i, c in enumerate(f) if c]
    text = " + ".join(terms) or "0"
    return "0 + " + text if text.startswith("-") else text


def _element_text(coeffs: list, gen: str) -> str:
    terms = [f"({_poly_text(f)})*{gen}^{i}" for i, f in enumerate(coeffs) if f]
    return " + ".join(terms) or "0"


def _rand_element(rng, p: int) -> list:
    ydeg = rng.randint(0, 3)
    return [common.rand_poly(rng, p, rng.randint(0, 3)) for _ in range(ydeg + 1)]


def plan(seed: int) -> dict:
    rng = random.Random(f"cli:{seed}")
    seeded = []
    for kind in SEEDED_KINDS:
        for i in range(SEEDED_PER_KIND):
            p = SEEDED_FIELDS[(i + len(seeded)) % len(SEEDED_FIELDS)]
            if kind in ("factor", "aut-p", "aut-g"):
                p = p or 5
            seeded.append(
                {
                    "kind": kind,
                    "p": p,
                    "h": common.rand_poly(rng, p, rng.randint(1, 3)),
                    "left": _rand_element(rng, p),
                    "right": _rand_element(rng, p),
                    "poly": common.rand_poly(rng, p, rng.randint(1, 6)),
                    "power": rng.randint(0, 3),
                    "json": i % 2 == 1,
                    "affine": (common.rand_scalar(rng, p, nonzero=True), common.rand_scalar(rng, p)),
                }
            )
    return {"golden": golden_corpus(), "seeded": seeded}


def contexts(plan_: dict) -> list:
    return [field_spec(p) for p in SEEDED_FIELDS]


def _expected(cmd: dict):
    """(argv, expected pretty text or JSON object) for one seeded command."""
    import ahalg
    from ahalg.algebra import format_element
    from ahalg.poly import format_poly

    p, kind = cmd["p"], cmd["kind"]
    spec = field_spec(p)
    ctx = ahalg.AhContext(spec, ahalg.Poly(spec, cmd["h"]))
    left, right = (ctx.element([ahalg.Poly(spec, f) for f in cmd[k]]) for k in ("left", "right"))
    poly = ahalg.Poly(spec, cmd["poly"])
    field = "QQ" if p == 0 else f"GF:{p}"
    argv = ["--field", field, "--h", _poly_text(cmd["h"]), kind]
    if kind in ("eval", "anti", "to-weyl", "is-central", "is-normal"):
        argv.append(_element_text(cmd["left"], "Y"))
    elif kind in ("mul", "add", "comm"):
        argv += [_element_text(cmd["left"], "Y"), _element_text(cmd["right"], "Y")]
    if kind == "eval":
        result = format_element(left)
    elif kind == "mul":
        result = format_element(left * right)
    elif kind == "add":
        result = format_element(left + right)
    elif kind == "comm":
        result = format_element(left * right - right * left)
    elif kind == "anti":
        result = format_element(ahalg.antiautomorphism(left))
    elif kind == "to-weyl":
        result = format_element(ahalg.to_weyl(left))
    elif kind == "from-weyl":
        w = ahalg.to_weyl(left)
        argv.append(_element_text([[c.val for c in f.coeffs] for f in w.coeffs], "y"))
        result = format_element(left)
    elif kind == "delta":
        argv += [_poly_text(cmd["poly"]), str(cmd["power"])]
        f = poly
        for _ in range(cmd["power"]):
            f = f.derivative() * ctx.h
        result = format_poly(f)
    elif kind == "is-central":
        central = (left * ctx.x() == ctx.x() * left) and (left * ctx.gen() == ctx.gen() * left)
        return argv, ({"central": central} if cmd["json"] else str(central).lower())
    elif kind == "is-normal":
        cert = ahalg.is_normal(left)
        data = {"normal": cert.verdict, "r": format_poly(cert.r) if cert.verdict else None}
        pretty = f"normal with [Y, v] = ({data['r']}) * v" if cert.verdict else "not normal"
        return argv, (data if cmd["json"] else pretty)
    elif kind == "factor":
        argv.append(_poly_text(cmd["poly"]))
        fac = ahalg.factor(poly)
        data = {
            "unit": str(fac.unit),
            "factors": [
                {"poly": format_poly(t.poly), "multiplicity": t.multiplicity, "verified": t.verified}
                for t in fac.factors
            ],
        }
        pretty = " * ".join([str(fac.unit)] + [f"({format_poly(t.poly)})^{t.multiplicity}" for t in fac.factors])
        return argv, (data if cmd["json"] else pretty)
    elif kind == "aut-p":
        pairs = common.exhaustive_pairs(cmd["h"], p)
        rendered = [[str(a), str(b)] for a, b in sorted(pairs)]
        return argv, ({"pairs": rendered} if cmd["json"] else "{" + ", ".join(f"({a}, {b})" for a, b in rendered) + "}")
    elif kind == "aut-g":
        G = sorted(common.exhaustive_translations(cmd["h"], p))
        return argv, ({"G": [str(nu) for nu in G]} if cmd["json"] else "{" + ", ".join(map(str, G)) + "}")
    elif kind == "iso":
        alpha, beta = cmd["affine"]
        other = common.raw_compose_affine(cmd["h"], alpha, beta, p)
        argv.append(_poly_text(other))
        return argv, ("iso", cmd["h"], other)
    if cmd["json"]:
        return argv, {"result": result}
    return argv, result


def _run(argv: list[str]):
    from ahalg import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _check_iso(out: str, h: list, other: list, p: int, as_json: bool) -> bool:
    if as_json:
        data = json.loads(out)
        if not data["isomorphic"]:
            return False
        w = data["witness"]
        alpha, beta, nu = (_parse_scalar(w[k], p) for k in ("alpha", "beta", "nu"))
    else:
        parts = dict(item.split(" = ") for item in out.strip().split(", "))
        alpha, beta, nu = (_parse_scalar(parts[k], p) for k in ("alpha", "beta", "nu"))
    return common.raw_compose_affine(h, alpha, beta, p) == common.raw_scale(other, nu, p)


def _parse_scalar(text: str, p: int):
    from fractions import Fraction

    return int(text) % p if p else Fraction(text)


def _check_seeded(result, expected, as_json: bool, p: int) -> bool:
    code, out = result
    if code != 0:
        return False
    if isinstance(expected, tuple):
        return _check_iso(out, expected[1], expected[2], p, as_json)
    if as_json:
        got = json.loads(out)
        if "pairs" in expected:  # the JSON also names the pair-set shape
            return got.get("pairs") == expected["pairs"]
        return got == expected
    return out.rstrip("\n") == expected


def cases(plan_: dict, ctxs: list) -> list[Case]:
    out = [
        Case("golden", lambda argv=argv: _run(argv),
             lambda r, e=expected: r[0] == 0 and r[1].rstrip("\n") == e, group=gi)
        for gi, (argv, expected) in enumerate(plan_["golden"])
    ]
    for cmd in plan_["seeded"]:
        argv, expected = _expected(cmd)
        if cmd["json"]:
            argv = argv + ["--json"]
        out.append(Case(cmd["kind"], lambda argv=argv: _run(argv),
                        lambda r, e=expected, j=cmd["json"], p=cmd["p"]: _check_seeded(r, e, j, p),
                        cmd["p"], len(out)))
    return out
