"""Command-line front end.

Global flags pick the field, the commutation polynomial h, and the output
mode; one subcommand per library operation.  Exit codes: 0 on success, 1 on
domain errors (reported as ``{"error": ...}`` in JSON mode), 2 on usage
errors, malformed integer or fixed-choice positionals included.  All output
is deterministic given the same arguments and --seed.

``COMMANDS`` is the only place a subcommand is defined: it maps each name to
its positional arguments, its help text and a handler that returns the JSON
data and the pretty text; ``FLAGS`` declares the global flags.  ``run`` reads
a well-formed argv off the two tables and leaves any other argv, help
included, to the parser ``build_parser`` declares from them, so every usage,
help and error text is argparse's own; only then is argparse imported and the
parser built, once per process.  Commands with one output shape share a renderer.

Importing this module loads what every command needs (``errors``,
``fields``, ``poly``, ``algebra``, ``parsing``).  The structure operations
are read as ``ahalg.<name>``, which imports ``autgroup``, ``center``,
``normal`` or ``weyl`` the first time a command calls into it, so ``ah
mul`` never loads them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from types import SimpleNamespace

import ahalg

from .algebra import COMMUTATOR_SPACES, AhContext, _element, antiautomorphism, commutator, format_element
from .errors import AhError
from .fields import FieldSpec, decimal_int, value_str
from .parsing import parse_element, parse_poly, parse_scalar, refuse_power
from .poly import FactoredPoly, FactorTerm, Poly, factor, format_poly, is_irreducible


def _field_syntax(text: str) -> str:
    """Accept QQ or GF:<decimal digits>; primality is checked when the field is built."""
    digits = text[3:]
    if text == "QQ" or (text[:3] == "GF:" and digits.isascii() and digits.isdigit()):
        return text
    import argparse

    raise argparse.ArgumentTypeError(f"unknown field {text!r} (use QQ or GF:p)")


# Every global flag, in `ah --help` order: flag -> (dest, default, argparse keywords).
FLAGS = {
    "--field": ("field", "QQ", {"type": _field_syntax, "help": "QQ or GF:p (p prime)"}),
    "--h": ("h", None, {"help": "the commutation polynomial h(x)"}),
    "--h-factored": ("h_factored", None, {
        "help": "comma list of factor^mult entries (with an optional unit) for h"}),
    "--json": ("json", False, {"action": "store_true", "help": "machine-readable output"}),
    "--seed": ("seed", 0, {"type": int, "help": "seed for randomized factoring"}),
}

_DEFAULTS = {dest: default for dest, default, _ in FLAGS.values()}  # the namespace of no flag


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="ah",
        description="Exact computations in the algebras with relation Y*x - x*Y = h(x).",
    )
    # the subcommands' copies default to SUPPRESS: a value given before the name stays
    common = argparse.ArgumentParser(add_help=False)
    for flag, (dest, default, kwargs) in FLAGS.items():
        parser.add_argument(flag, dest=dest, default=default, **kwargs)
        common.add_argument(flag, dest=dest, default=argparse.SUPPRESS, **kwargs)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text, parents=[common])
        for arg, kwargs in _POSITIONALS[name]:
            p.add_argument(arg, **kwargs)
    return parser


def _well_formed(argv):
    """The namespace argparse returns for ``argv``, read off FLAGS and COMMANDS, or
    None unless argv is exact flags with their values, a command name and its
    positionals, none starting with '-' and each taken by argparse's converter."""
    ns, given, words, tokens = dict(_DEFAULTS), [], [], iter(argv)
    for token in tokens:
        if token not in FLAGS:
            words.append(token)
            continue
        dest, _, kwargs = FLAGS[token]
        if "action" in kwargs:  # --json takes no value
            ns[dest] = True
        else:
            given.append(((dest, kwargs), next(tokens, "-")))  # a missing value reads as "-"
    ns["command"], *values = words or [None]
    positional = _POSITIONALS.get(ns["command"])
    if positional is None or len(values) != len(positional):
        return None
    # each value is converted, so a refused one fails even if a later repeat wins
    for (dest, kwargs), text in given + list(zip(positional, values)):
        try:
            value = kwargs.get("type", str)(text)
        except Exception:  # argparse reports the refusal
            return None
        if text.startswith("-") or value not in kwargs.get("choices", (value,)):
            return None
        ns[dest] = value
    return SimpleNamespace(**ns)


def _parse_field(text: str) -> FieldSpec:
    # the syntax was checked by _field_syntax when the arguments were parsed
    if text == "QQ":
        return FieldSpec.rationals()
    return FieldSpec.gf(decimal_int(text[3:]))


def _parse_h_factored(text: str, spec, h: Poly) -> FactoredPoly:
    """Parse 'factor^mult,factor^mult[,unit]' with positive multiplicities and
    distinct factors; the product must reproduce h."""
    terms, chunks = [], {}  # chunks: the text of each factor
    unit = spec.one()
    for chunk in text.split(","):
        chunk = chunk.strip()
        body, _, mult = chunk.rpartition("^") if "^" in chunk else (chunk, "", "1")
        try:
            mult = int(mult)
        except ValueError:
            raise AhError(f"supplied factor {chunk!r} has a multiplicity that is not an integer") from None
        if mult < 1:
            raise AhError(f"supplied factor {chunk!r} has a multiplicity below 1")
        poly = parse_poly(body, spec)
        if poly.degree < 1:
            # a constant chunk contributes c^mult, taken under the parser's power limit
            unit = unit * parse_poly(f"({body})^{mult}", spec).coeff(0)
            continue
        if not poly.is_monic():
            raise AhError(f"supplied factor {chunk!r} is not monic")
        if poly in chunks:
            raise AhError(f"supplied factor {chunk!r} is repeated")
        chunks[poly] = chunk
        terms.append(FactorTerm(poly, mult, True))
    fac = FactoredPoly(unit, tuple(terms))
    # the degree count comes first: it bounds the cost of expand
    if sum(t.poly.degree * t.multiplicity for t in terms) != h.degree or fac.expand() != h:
        raise AhError("--h-factored does not multiply out to h")
    # over GF(p) irreducibility is decidable, and after the product check it costs no more than factor(h)
    for poly, chunk in chunks.items():
        if spec.is_prime_field and not is_irreducible(poly):
            raise AhError(f"supplied factor {chunk!r} is reducible over {spec!r}")
    return fac


class _Env:
    def __init__(self, args):
        self.spec = _parse_field(args.field)
        self.seed = args.seed
        self._h_text = args.h
        self._h_factored_text = args.h_factored
        self._ctx = None

    @property
    def ctx(self) -> AhContext:
        if self._ctx is None:
            if not self._h_text:
                raise AhError("this command needs --h")
            self._ctx = AhContext(self.spec, parse_poly(self._h_text, self.spec))
        return self._ctx

    def h_factored(self) -> FactoredPoly | None:
        if self._h_factored_text is None:
            return None
        return _parse_h_factored(self._h_factored_text, self.spec, self.ctx.h)

    def element(self, text: str):
        return parse_element(text, self.ctx, "Y")

    def weyl_element(self, text: str):
        return parse_element(text, ahalg.weyl_context(self.spec), "y")

    def automorphism(self, alpha, beta, f) -> ahalg.Automorphism:
        return ahalg.Automorphism(
            self.ctx,
            parse_scalar(alpha, self.spec),
            parse_scalar(beta, self.spec),
            parse_poly(f, self.spec),
        )


def _set_text(items) -> str:
    return "{" + ", ".join(items) + "}"


def _result(text: str):
    return {"result": text}, text


def _printed(a):
    return _result(format_element(a))


def _verdict(key: str, value: bool):
    return {key: value}, str(value).lower()


def _automorphism(omega: ahalg.Automorphism):
    data = {"alpha": str(omega.alpha), "beta": str(omega.beta), "f": format_poly(omega.f)}
    return data, f"alpha = {data['alpha']}, beta = {data['beta']}, f = {data['f']}"


def _transported(key: str, verb: str, omega: ahalg.Automorphism | None):
    """An automorphism carried to another algebra, or the verdict that it is not."""
    if omega is None:
        return {key: False}, f"does not {verb}"
    data, _ = _automorphism(omega)
    data.update({key: True, "target_h": format_poly(omega.ctx.h)})
    return data, f"{key} with f = {data['f']} on the algebra of h = {data['target_h']}"


def _endomorphism(endo, a):
    data = {"result": format_element(endo.apply(a)), "surjective": endo.surjective}
    return data, f"{data['result']} (surjective: {endo.surjective})"


def _pairs(pset):
    """The pair set P; the family over QQ stays symbolic."""
    if pset.lam is not None and not pset.ctx.spec.is_prime_field:
        data = {"shape": "one_parameter_family", "lambda": str(pset.lam)}
        return data, f"family (alpha, (1 - alpha)*{pset.lam}) for alpha in QQ*"
    name = functools.cache(value_str)  # each distinct value is formatted once: P has at most p + m
    pairs = [[name(a.val), name(b.val)] for a, b in pset.pairs()]
    data = {"shape": pset.shape, "pairs": pairs}
    if pset.lam is not None:
        data["lambda"] = str(pset.lam)
    return data, _set_text(f"({a}, {b})" for a, b in pairs)


def _structure(env, listed: bool) -> dict:
    """The automorphism-group classification as JSON data; P, which has
    |G|*ell pairs, is listed only when ``listed``."""
    s = ahalg.classify_aut_group(env.ctx)
    return {
        "case": s.case,
        "k": s.k,
        "P": _pairs(s.P)[0] if listed else None,
        "G": [str(nu) for nu in s.G],
        "generator": (
            {"alpha": str(s.generator[0]), "beta": str(s.generator[1])} if s.generator else None
        ),
        "ell": s.ell,
        "t": format_poly(s.t) if s.t is not None else None,
        "t_kind": s.t_kind,
        "q": format_poly(s.q),
        "dz_kind": s.dz_kind,
        "n_exponent": s.n_exponent,
    }


# yh-product multiplies i factors into a result of Y-degree up to i, so it
# costs about i^2 coefficient operations even when every coefficient is a
# constant: with h = x over GF(1000003), i = 800 takes about 3 s (Python 3.11,
# one Xeon core)
MAX_YH_STEPS = 800


def _delta(env, args):
    f = parse_poly(args.poly, env.spec)
    refuse_power("delta power", args.power, env.spec.p, (env.ctx.h,), (f,))
    return _result(format_poly(env.ctx.delta_power(f, args.power)))


def _yh_product(env, args):
    ctx, i = env.ctx, args.power
    # the factor Y + i*h' has the largest shift of either side
    factor = _element(ctx, (ctx.h_prime.scaled(i), Poly.one(ctx.spec)))
    refuse_power("yh-product power", i, ctx.spec.p, (factor,), steps=MAX_YH_STEPS)
    return _printed(ahalg.yh_product(ctx, i, args.side))


def _localized_equal(env, args):
    a, b, h = env.element(args.expr), env.weyl_element(args.weyl_expr), env.ctx.h
    refuse_power("localized-equal power", args.n, env.spec.p, (h,), (a,))
    refuse_power("localized-equal power", args.m, env.spec.p, (h,), (b,))
    return _verdict("equal", ahalg.localized_equal(a, args.m, b, args.n))


def _endo_eta(env, args):
    # eta_k(a) keeps the Y-degree of a and has k times its weight; checking
    # eta_k computes h(x^k), which is sized on its own
    a = env.element(args.expr)
    for value in (env.ctx.h, a):
        refuse_power("endo-eta k", args.k, env.spec.p, (value,), substitute=True)
    return _endomorphism(ahalg.eta_endo(env.ctx, args.k), a)


def _factor(env, args):
    fac = factor(parse_poly(args.poly, env.spec), seed=env.seed)
    data = {"unit": str(fac.unit), "factors": [
        {"poly": format_poly(t.poly), "multiplicity": t.multiplicity, "verified": t.verified}
        for t in fac.factors
    ]}
    return data, " * ".join([data["unit"]] + [f"({t['poly']})^{t['multiplicity']}" for t in data["factors"]])


def _embed(env, args):
    image = ahalg.embed(env.element(args.expr), parse_poly(args.divisor, env.spec))
    data = {"result": format_element(image), "target_h": format_poly(image.ctx.h)}
    return data, f"{data['result']}  (in the algebra of h = {data['target_h']})"


def _ore_witness(env, args):
    expr, s = env.element(args.expr), parse_poly(args.poly, env.spec)
    witness = ahalg.ore_witness(expr, s, args.side)
    data = {"a1": format_element(witness.a1), "s1": format_poly(witness.s1), "side": witness.side}
    return data, f"a1 = {data['a1']}, s1 = {data['s1']} ({witness.side})"


def _center(env, args):
    desc = ahalg.center(env.ctx)
    if desc.is_trivial:
        return {"generators": [], "correction": None}, "trivial center (scalars only)"
    gens = [format_poly(desc.x_generator), format_element(desc.y_generator)]
    correction = format_poly(desc.correction)
    data = {"generators": gens, "correction": correction}
    return data, f"generators {gens[0]} and {gens[1]} (correction {correction})"


def _decompose_central(env, args):
    dec = ahalg.central_decompose(env.element(args.expr))
    entries = [
        {"i": i, "j": j, "terms": [
            {"a": a, "b": b, "coeff": str(c)} for (a, b), c in sorted(cell.items())
        ]}
        for (i, j), cell in sorted(dec.table.items())
    ]
    pretty = "; ".join(
        f"x^{e['i']} h^{e['j']} y^{e['j']}: "
        + " + ".join(f"{t['coeff']}*X^{t['a']}*T^{t['b']}" for t in e["terms"])
        for e in entries
    )
    return {"basis_coordinates": entries}, pretty or "0"


def _is_normal(env, args):
    cert = ahalg.is_normal(env.element(args.expr))
    data = {"normal": cert.verdict, "r": format_poly(cert.r) if cert.verdict else None}
    return data, f"normal with [Y, v] = ({data['r']}) * v" if cert.verdict else "not normal"


def _classify_normal(env, args):
    split = ahalg.classify_normal(env.element(args.expr), env.h_factored())
    data = {
        "factors": [[format_poly(u), beta] for u, beta in split.factors],
        "central": format_element(split.central_part),
    }
    return data, (" * ".join(f"({u})^{b}" for u, b in data["factors"]) or "1") + f" * [{data['central']}]"


def _prime_test(env, args):
    report = ahalg.height_one_prime_test(env.element(args.expr), env.h_factored(), seed=env.seed)
    data = {"kind": report.kind.value, "detail": report.detail}
    return data, f"{report.kind.value}: {report.detail}"


def _aut_g(env, args):
    G = [str(nu) for nu in ahalg.compute_G(env.ctx)]
    return {"G": G}, _set_text(G)


def _aut_classify(env, args):
    data = _structure(env, args.json)
    gen = data["generator"]
    pretty = (
        f"case {data['case']}; k = {data['k']}; G = {_set_text(data['G'])}"
        + (f"; generator ({gen['alpha']}, {gen['beta']}) of order {data['ell']}" if gen else "")
        + f"; t: {data['t']}; q: {data['q']}"
    )
    return data, pretty


def _invariants(env, args):
    data = _structure(env, False)
    kinds = {
        "whole_ring": "every polynomial is invariant",
        "constants": "only scalars are invariant",
        "generated": f"invariants are generated by t = {data['t']}",
    }
    return {k: data[k] for k in ("t", "t_kind")}, kinds[data["t_kind"]]


def _aut_center(env, args):
    data = _structure(env, False)
    if data["dz_kind"] == "whole_ring":
        pretty = "central shears: every polynomial"
    elif data["t_kind"] == "generated":
        pretty = f"central shears: ({data['q']}) * F[{data['t']}]"
    else:
        pretty = f"central shears: scalar multiples of {data['q']}"
    return {k: data[k] for k in ("q", "t", "t_kind", "dz_kind", "n_exponent")}, pretty


def _iso(env, args):
    witness = ahalg.iso_test(env.ctx.h, parse_poly(args.other, env.spec), env.spec)
    if witness is None:
        return {"isomorphic": False, "witness": None}, "not isomorphic"
    alpha, beta, nu = witness
    data = {
        "isomorphic": True,
        "witness": {"alpha": str(alpha), "beta": str(beta), "nu": str(nu)},
    }
    return data, f"alpha = {alpha}, beta = {beta}, nu = {nu}"


_INT = {"type": int}
_SIDE = {"choices": ("left", "right")}
_AUT = ("alpha", "beta", "f")

# Every subcommand, in `ah --help` order: name -> (positional arguments, help
# text, handler).  A positional is a name or a (name, argparse keywords) pair.
# A handler maps (environment, parsed arguments) to (JSON data, pretty text).
COMMANDS = {
    "eval": (("expr",), "normal form of an expression in x and Y",
             lambda env, a: _printed(env.element(a.expr))),
    "mul": (("left", "right"), "product of two elements",
            lambda env, a: _printed(env.element(a.left) * env.element(a.right))),
    "add": (("left", "right"), "sum of two elements",
            lambda env, a: _printed(env.element(a.left) + env.element(a.right))),
    "comm": (("left", "right"), "commutator of two elements",
             lambda env, a: _printed(commutator(env.element(a.left), env.element(a.right)))),
    "anti": (("expr",), "the anti-automorphism x->x, Y->-Y+h'",
             lambda env, a: _printed(antiautomorphism(env.element(a.expr)))),
    "delta": (("poly", ("power", _INT)), "iterated derivation h*f' of a polynomial", _delta),
    "factor": (("poly",), "factor a polynomial over the field", _factor),
    "to-weyl": (("expr",), "expand through Y = y*h into the Weyl algebra",
                lambda env, a: _printed(ahalg.to_weyl(env.element(a.expr)))),
    "from-weyl": (("expr",), "pull a Weyl element back into the subalgebra",
                  lambda env, a: _printed(ahalg.from_weyl(env.weyl_element(a.expr), env.ctx))),
    "embed": (("divisor", "expr"), "embed into the algebra of a divisor of h", _embed),
    "ore-witness": (("expr", "poly", ("side", _SIDE)), "common-denominator witness", _ore_witness),
    "localized-equal": (("expr", ("m", _INT), "weyl_expr", ("n", _INT)),
                        "compare right fractions over powers of h", _localized_equal),
    "yh-product": ((("power", _INT), ("side", _SIDE)), "Y-products equal to y^i h^i / h^i y^i",
                   _yh_product),
    "center": ((), "generators of the center", _center),
    "is-central": (("expr",), "does the element commute with everything",
                   lambda env, a: _verdict("central", ahalg.is_central(env.element(a.expr)))),
    "decompose-central": (("expr",), "coordinates over the center (char p)", _decompose_central),
    "in-commutator": (
        ("expr", ("space", {"choices": COMMUTATOR_SPACES})),
        "membership in [x,A], [Y,A], [A,A]",
        lambda env, a: _verdict("member", ahalg.in_commutator_space(env.element(a.expr), a.space)),
    ),
    "is-normal": (("expr",), "normality certificate", _is_normal),
    "classify-normal": (("expr",), "prime factors of h times a central part", _classify_normal),
    "is-simple": ((), "is the algebra simple",
                  lambda env, a: _verdict("simple", ahalg.is_simple(env.ctx))),
    "prime-test": (("expr",), "does the element generate a height-one prime", _prime_test),
    "aut-p": ((), "the admissible (alpha, beta) pairs",
              lambda env, a: _pairs(ahalg.compute_P(env.ctx))),
    "aut-g": ((), "the translations fixing h", _aut_g),
    "aut-classify": ((), "automorphism-group structure report", _aut_classify),
    "aut-apply": ((*_AUT, "expr"), "apply an automorphism",
                  lambda env, a: _printed(env.automorphism(a.alpha, a.beta, a.f).apply(
                      env.element(a.expr)))),
    "aut-compose": (
        ("alpha1", "beta1", "f1", "alpha2", "beta2", "f2"),
        "compose two automorphisms",
        lambda env, a: _automorphism(env.automorphism(a.alpha1, a.beta1, a.f1).compose(
            env.automorphism(a.alpha2, a.beta2, a.f2))),
    ),
    "aut-invert": (_AUT, "invert an automorphism",
                   lambda env, a: _automorphism(env.automorphism(a.alpha, a.beta, a.f).inverse())),
    "invariants": ((), "the polynomials fixed by every automorphism", _invariants),
    "aut-center": ((), "the center of the automorphism group", _aut_center),
    "iso": (("other",), "isomorphism witness against another polynomial", _iso),
    "endo-eta": ((("k", _INT), "expr"), "apply the power endomorphism (h = x^n)", _endo_eta),
    "endo-kappa": (("shift", "expr"), "apply the central shift endomorphism",
                   lambda env, a: _endomorphism(ahalg.kappa_endo(env.ctx, env.element(a.shift)),
                                                env.element(a.expr))),
    "aut-extend": (
        ("divisor", *_AUT),
        "extend to a larger algebra",
        lambda env, a: _transported("extends", "extend", ahalg.extend_automorphism(
            env.automorphism(a.alpha, a.beta, a.f), parse_poly(a.divisor, env.spec))),
    ),
    "aut-restrict": (
        ("multiple", *_AUT),
        "restrict to a subalgebra",
        lambda env, a: _transported("restricts", "restrict", ahalg.restrict_automorphism(
            env.automorphism(a.alpha, a.beta, a.f), parse_poly(a.multiple, env.spec))),
    ),
}

# (name, argparse keywords) for each positional argument of each command
_POSITIONALS = {name: [(a, {}) if isinstance(a, str) else a for a in c[0]] for name, c in COMMANDS.items()}


def _run(args) -> int:
    data, pretty = COMMANDS[args.command][2](_Env(args), args)
    print(json.dumps(data, sort_keys=True) if args.json else pretty)
    return 0


_parser = functools.cache(build_parser)


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _well_formed(argv) or _parser().parse_args(argv)
    try:
        return _run(args)
    except (AhError, NotImplementedError, ZeroDivisionError, ValueError) as exc:
        message = str(exc) or exc.__class__.__name__
        if args.json:
            print(json.dumps({"error": message}, sort_keys=True))
        else:
            print(f"error: {message}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except OSError as exc:  # stdout closed early (``ah ... | head``) or not writable: exit 1, no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the output: {exc.strerror or exc}", file=sys.stderr)
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
