"""Command-line front end.

Global flags pick the field, the commutation polynomial h, and the output
mode; one subcommand per library operation.  Exit codes: 0 on success, 1 on
domain errors (reported as ``{"error": ...}`` in JSON mode), 2 on usage
errors.  All output is deterministic given the same arguments and --seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import AhContext, antiautomorphism, commutator, format_element
from .autgroup import (
    Automorphism,
    classify_aut_group,
    compute_G,
    compute_P,
    eta_endo,
    extend_automorphism,
    iso_test,
    kappa_endo,
    restrict_automorphism,
)
from .center import (
    COMMUTATOR_SPACES,
    center,
    central_decompose,
    in_commutator_space,
    is_central,
)
from .errors import AhError
from .fields import FieldSpec
from .normal import classify_normal, height_one_prime_test, is_normal, is_simple
from .parsing import parse_element, parse_poly, parse_scalar
from .poly import FactoredPoly, FactorTerm, Poly, factor, format_poly
from .weyl import (
    embed,
    from_weyl,
    localized_equal,
    ore_witness,
    to_weyl,
    weyl_context,
    yh_product,
)


def _field_syntax(text: str) -> str:
    """Accept QQ or GF:<decimal digits>; primality is checked when the field is built."""
    digits = text[3:]
    if text == "QQ" or (text[:3] == "GF:" and digits.isascii() and digits.isdigit()):
        return text
    raise argparse.ArgumentTypeError(f"unknown field {text!r} (use QQ or GF:p)")


def _add_global_flags(parser, suppress: bool) -> None:
    # `suppress` keeps subcommand parsers from clobbering values that were
    # already parsed before the subcommand name
    def default(value):
        return argparse.SUPPRESS if suppress else value

    parser.add_argument(
        "--field", type=_field_syntax, default=default("QQ"), help="QQ or GF:p (p prime)"
    )
    parser.add_argument(
        "--h", dest="h", default=default(None), help="the commutation polynomial h(x)"
    )
    parser.add_argument(
        "--h-factored",
        dest="h_factored",
        default=default(None),
        help="comma list of factor^mult entries (with an optional unit) for h",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        default=default(False),
        help="machine-readable output",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=default(0),
        help="seed for randomized factoring",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ah",
        description="Exact computations in the algebras with relation Y*x - x*Y = h(x).",
    )
    _add_global_flags(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name, *positional, help=None):
        p = sub.add_parser(name, help=help, parents=[common])
        for arg in positional:
            p.add_argument(arg)
        return p

    cmd("eval", "expr", help="normal form of an expression in x and Y")
    cmd("mul", "left", "right", help="product of two elements")
    cmd("add", "left", "right", help="sum of two elements")
    cmd("comm", "left", "right", help="commutator of two elements")
    cmd("anti", "expr", help="the anti-automorphism x->x, Y->-Y+h'")
    cmd("delta", "poly", "power", help="iterated derivation h*f' of a polynomial")
    cmd("factor", "poly", help="factor a polynomial over the field")
    cmd("to-weyl", "expr", help="expand through Y = y*h into the Weyl algebra")
    cmd("from-weyl", "expr", help="pull a Weyl element back into the subalgebra")
    cmd("embed", "divisor", "expr", help="embed into the algebra of a divisor of h")
    cmd("ore-witness", "expr", "poly", "side", help="common-denominator witness")
    cmd(
        "localized-equal",
        "expr",
        "m",
        "weyl_expr",
        "n",
        help="compare right fractions over powers of h",
    )
    cmd("yh-product", "power", "side", help="Y-products equal to y^i h^i / h^i y^i")
    cmd("center", help="generators of the center")
    cmd("is-central", "expr", help="does the element commute with everything")
    cmd("decompose-central", "expr", help="coordinates over the center (char p)")
    cmd("in-commutator", "expr", "space", help="membership in [x,A], [Y,A], [A,A]")
    cmd("is-normal", "expr", help="normality certificate")
    cmd("classify-normal", "expr", help="prime factors of h times a central part")
    cmd("is-simple", help="is the algebra simple")
    cmd("prime-test", "expr", help="does the element generate a height-one prime")
    cmd("aut-p", help="the admissible (alpha, beta) pairs")
    cmd("aut-g", help="the translations fixing h")
    cmd("aut-classify", help="automorphism-group structure report")
    cmd("aut-apply", "alpha", "beta", "f", "expr", help="apply an automorphism")
    cmd(
        "aut-compose",
        "alpha1",
        "beta1",
        "f1",
        "alpha2",
        "beta2",
        "f2",
        help="compose two automorphisms",
    )
    cmd("aut-invert", "alpha", "beta", "f", help="invert an automorphism")
    cmd("invariants", help="the polynomials fixed by every automorphism")
    cmd("aut-center", help="the center of the automorphism group")
    cmd("iso", "other", help="isomorphism witness against another polynomial")
    cmd("endo-eta", "k", "expr", help="apply the power endomorphism (h = x^n)")
    cmd("endo-kappa", "shift", "expr", help="apply the central shift endomorphism")
    cmd("aut-extend", "divisor", "alpha", "beta", "f", help="extend to a larger algebra")
    cmd("aut-restrict", "multiple", "alpha", "beta", "f", help="restrict to a subalgebra")
    return parser


def _parse_field(text: str) -> FieldSpec:
    # the syntax was checked by _field_syntax when the arguments were parsed
    if text == "QQ":
        return FieldSpec.rationals()
    return FieldSpec.gf(int(text[3:]))


def _parse_h_factored(text: str, spec, h: Poly) -> FactoredPoly:
    """Parse 'factor^mult,factor^mult[,unit]'; the product must reproduce h."""
    terms = []
    unit = spec.one()
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "^" in chunk:
            body, _, mult = chunk.rpartition("^")
            poly = parse_poly(body, spec)
            mult = int(mult)
        else:
            poly = parse_poly(chunk, spec)
            mult = 1
        if poly.degree < 1:
            unit = unit * poly.coeff(0)
            continue
        if not poly.is_monic():
            raise AhError(f"supplied factor {chunk!r} is not monic")
        terms.append(FactorTerm(poly, mult, True))
    fac = FactoredPoly(unit, tuple(terms))
    if fac.expand() != h:
        raise AhError("--h-factored does not multiply out to h")
    return fac


class _Env:
    def __init__(self, args):
        self.spec = _parse_field(args.field)
        self.json = args.json
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
        return parse_element(text, weyl_context(self.spec), "y")

    def automorphism(self, alpha, beta, f) -> Automorphism:
        return Automorphism(
            self.ctx,
            parse_scalar(alpha, self.spec),
            parse_scalar(beta, self.spec),
            parse_poly(f, self.spec),
        )


def _emit(env, data: dict, pretty: str) -> None:
    if env.json:
        print(json.dumps(data, sort_keys=True))
    else:
        print(pretty)


def _pairs_json(pset):
    if pset.lam is not None and not pset.ctx.spec.is_prime_field:
        return {"shape": "one_parameter_family", "lambda": str(pset.lam)}
    data = {
        "shape": pset.shape,
        "pairs": [[str(a), str(b)] for a, b in pset.pairs()],
    }
    if pset.lam is not None:
        data["lambda"] = str(pset.lam)
    return data


def _pairs_pretty(pset) -> str:
    if pset.lam is not None and not pset.ctx.spec.is_prime_field:
        return f"family (alpha, (1 - alpha)*{pset.lam}) for alpha in QQ*"
    body = ", ".join(f"({a}, {b})" for a, b in pset.pairs())
    return "{" + body + "}"


def _element_out(env, a) -> None:
    _emit(env, {"result": format_element(a)}, format_element(a))


def _run(args) -> int:
    env = _Env(args)
    name = args.command
    if name == "eval":
        _element_out(env, env.element(args.expr))
    elif name == "mul":
        _element_out(env, env.element(args.left) * env.element(args.right))
    elif name == "add":
        _element_out(env, env.element(args.left) + env.element(args.right))
    elif name == "comm":
        _element_out(env, commutator(env.element(args.left), env.element(args.right)))
    elif name == "anti":
        _element_out(env, antiautomorphism(env.element(args.expr)))
    elif name == "delta":
        f = parse_poly(args.poly, env.spec)
        out = env.ctx.delta_power(f, int(args.power))
        _emit(env, {"result": format_poly(out)}, format_poly(out))
    elif name == "factor":
        fac = factor(parse_poly(args.poly, env.spec), seed=env.seed)
        data = {
            "unit": str(fac.unit),
            "factors": [
                {
                    "poly": format_poly(t.poly),
                    "multiplicity": t.multiplicity,
                    "verified": t.verified,
                }
                for t in fac.factors
            ],
        }
        pretty = " * ".join(
            [str(fac.unit)]
            + [f"({format_poly(t.poly)})^{t.multiplicity}" for t in fac.factors]
        )
        _emit(env, data, pretty)
    elif name == "to-weyl":
        _element_out(env, to_weyl(env.element(args.expr)))
    elif name == "from-weyl":
        _element_out(env, from_weyl(env.weyl_element(args.expr), env.ctx))
    elif name == "embed":
        image = embed(env.element(args.expr), parse_poly(args.divisor, env.spec))
        _emit(
            env,
            {"result": format_element(image), "target_h": format_poly(image.ctx.h)},
            f"{format_element(image)}  (in the algebra of h = {format_poly(image.ctx.h)})",
        )
    elif name == "ore-witness":
        witness = ore_witness(
            env.element(args.expr), parse_poly(args.poly, env.spec), args.side
        )
        data = {
            "a1": format_element(witness.a1),
            "s1": format_poly(witness.s1),
            "side": witness.side,
        }
        _emit(env, data, f"a1 = {data['a1']}, s1 = {data['s1']} ({witness.side})")
    elif name == "localized-equal":
        verdict = localized_equal(
            env.element(args.expr),
            int(args.m),
            env.weyl_element(args.weyl_expr),
            int(args.n),
        )
        _emit(env, {"equal": verdict}, str(verdict).lower())
    elif name == "yh-product":
        _element_out(env, yh_product(env.ctx, int(args.power), args.side))
    elif name == "center":
        desc = center(env.ctx)
        if desc.is_trivial:
            data = {"generators": [], "correction": None}
            pretty = "trivial center (scalars only)"
        else:
            data = {
                "generators": [
                    format_poly(desc.x_generator),
                    format_element(desc.y_generator),
                ],
                "correction": format_poly(desc.correction),
            }
            pretty = (
                f"generators {data['generators'][0]} and {data['generators'][1]}"
                f" (correction {data['correction']})"
            )
        _emit(env, data, pretty)
    elif name == "is-central":
        verdict = is_central(env.element(args.expr))
        _emit(env, {"central": verdict}, str(verdict).lower())
    elif name == "decompose-central":
        dec = central_decompose(env.element(args.expr))
        entries = []
        for (i, j) in sorted(dec.table):
            cell = dec.table[(i, j)]
            entries.append(
                {
                    "i": i,
                    "j": j,
                    "terms": [
                        {"a": a, "b": b, "coeff": str(cell[(a, b)])}
                        for (a, b) in sorted(cell)
                    ],
                }
            )
        pretty = "; ".join(
            f"x^{e['i']} h^{e['j']} y^{e['j']}: "
            + " + ".join(f"{t['coeff']}*X^{t['a']}*T^{t['b']}" for t in e["terms"])
            for e in entries
        )
        _emit(env, {"basis_coordinates": entries}, pretty or "0")
    elif name == "in-commutator":
        if args.space not in COMMUTATOR_SPACES:
            raise AhError(f"space must be one of {', '.join(COMMUTATOR_SPACES)}")
        verdict = in_commutator_space(env.element(args.expr), args.space)
        _emit(env, {"member": verdict}, str(verdict).lower())
    elif name == "is-normal":
        cert = is_normal(env.element(args.expr))
        data = {
            "normal": cert.verdict,
            "r": format_poly(cert.r) if cert.verdict else None,
        }
        pretty = (
            f"normal with [Y, v] = ({data['r']}) * v" if cert.verdict else "not normal"
        )
        _emit(env, data, pretty)
    elif name == "classify-normal":
        split = classify_normal(env.element(args.expr), env.h_factored())
        data = {
            "factors": [[format_poly(u), beta] for u, beta in split.factors],
            "central": format_element(split.central_part),
        }
        pretty = (
            " * ".join(f"({format_poly(u)})^{b}" for u, b in split.factors) or "1"
        ) + f" * [{data['central']}]"
        _emit(env, data, pretty)
    elif name == "is-simple":
        verdict = is_simple(env.ctx)
        _emit(env, {"simple": verdict}, str(verdict).lower())
    elif name == "prime-test":
        report = height_one_prime_test(
            env.element(args.expr), env.h_factored(), seed=env.seed
        )
        data = {"kind": report.kind.value, "detail": report.detail}
        _emit(env, data, f"{report.kind.value}: {report.detail}")
    elif name == "aut-p":
        pset = compute_P(env.ctx)
        _emit(env, _pairs_json(pset), _pairs_pretty(pset))
    elif name == "aut-g":
        G = compute_G(env.ctx)
        _emit(env, {"G": [str(nu) for nu in G]}, "{" + ", ".join(map(str, G)) + "}")
    elif name in ("aut-classify", "invariants", "aut-center"):
        structure = classify_aut_group(env.ctx)
        data = {
            "case": structure.case,
            "k": structure.k,
            "P": _pairs_json(structure.P),
            "G": [str(nu) for nu in structure.G],
            "generator": (
                {"alpha": str(structure.generator[0]), "beta": str(structure.generator[1])}
                if structure.generator
                else None
            ),
            "ell": structure.ell,
            "t": format_poly(structure.t) if structure.t is not None else None,
            "t_kind": structure.t_kind,
            "q": format_poly(structure.q),
            "dz_kind": structure.dz_kind,
            "n_exponent": structure.n_exponent,
        }
        if name == "invariants":
            sub = {k: data[k] for k in ("t", "t_kind")}
            kinds = {
                "whole_ring": "every polynomial is invariant",
                "constants": "only scalars are invariant",
                "generated": f"invariants are generated by t = {data['t']}",
            }
            _emit(env, sub, kinds[structure.t_kind])
        elif name == "aut-center":
            sub = {k: data[k] for k in ("q", "t", "t_kind", "dz_kind", "n_exponent")}
            if structure.dz_kind == "whole_ring":
                pretty = "central shears: every polynomial"
            elif structure.t_kind == "generated":
                pretty = f"central shears: ({data['q']}) * F[{data['t']}]"
            else:
                pretty = f"central shears: scalar multiples of {data['q']}"
            _emit(env, sub, pretty)
        else:
            pretty = (
                f"case {structure.case}; k = {structure.k}; G = "
                + "{"
                + ", ".join(map(str, structure.G))
                + "}"
                + (
                    f"; generator ({structure.generator[0]}, {structure.generator[1]})"
                    f" of order {structure.ell}"
                    if structure.generator
                    else ""
                )
                + f"; t: {data['t']}; q: {data['q']}"
            )
            _emit(env, data, pretty)
    elif name == "aut-apply":
        omega = env.automorphism(args.alpha, args.beta, args.f)
        _element_out(env, omega.apply(env.element(args.expr)))
    elif name == "aut-compose":
        first = env.automorphism(args.alpha1, args.beta1, args.f1)
        second = env.automorphism(args.alpha2, args.beta2, args.f2)
        composed = first.compose(second)
        data = {
            "alpha": str(composed.alpha),
            "beta": str(composed.beta),
            "f": format_poly(composed.f),
        }
        _emit(env, data, f"alpha = {data['alpha']}, beta = {data['beta']}, f = {data['f']}")
    elif name == "aut-invert":
        inv = env.automorphism(args.alpha, args.beta, args.f).inverse()
        data = {"alpha": str(inv.alpha), "beta": str(inv.beta), "f": format_poly(inv.f)}
        _emit(env, data, f"alpha = {data['alpha']}, beta = {data['beta']}, f = {data['f']}")
    elif name == "iso":
        witness = iso_test(env.ctx.h, parse_poly(args.other, env.spec), env.spec)
        if witness is None:
            _emit(env, {"isomorphic": False, "witness": None}, "not isomorphic")
        else:
            alpha, beta, nu = witness
            data = {
                "isomorphic": True,
                "witness": {"alpha": str(alpha), "beta": str(beta), "nu": str(nu)},
            }
            _emit(env, data, f"alpha = {alpha}, beta = {beta}, nu = {nu}")
    elif name == "endo-eta":
        endo = eta_endo(env.ctx, int(args.k))
        image = endo.apply(env.element(args.expr))
        data = {"result": format_element(image), "surjective": endo.surjective}
        _emit(env, data, f"{data['result']} (surjective: {endo.surjective})")
    elif name == "endo-kappa":
        endo = kappa_endo(env.ctx, env.element(args.shift))
        image = endo.apply(env.element(args.expr))
        data = {"result": format_element(image), "surjective": endo.surjective}
        _emit(env, data, f"{data['result']} (surjective: {endo.surjective})")
    elif name == "aut-extend":
        omega = env.automorphism(args.alpha, args.beta, args.f)
        extended = extend_automorphism(omega, parse_poly(args.divisor, env.spec))
        if extended is None:
            _emit(env, {"extends": False}, "does not extend")
        else:
            data = {
                "extends": True,
                "alpha": str(extended.alpha),
                "beta": str(extended.beta),
                "f": format_poly(extended.f),
                "target_h": format_poly(extended.ctx.h),
            }
            _emit(
                env,
                data,
                f"extends with f = {data['f']} on the algebra of h = {data['target_h']}",
            )
    elif name == "aut-restrict":
        psi = env.automorphism(args.alpha, args.beta, args.f)
        restricted = restrict_automorphism(psi, parse_poly(args.multiple, env.spec))
        if restricted is None:
            _emit(env, {"restricts": False}, "does not restrict")
        else:
            data = {
                "restricts": True,
                "alpha": str(restricted.alpha),
                "beta": str(restricted.beta),
                "f": format_poly(restricted.f),
                "target_h": format_poly(restricted.ctx.h),
            }
            _emit(
                env,
                data,
                f"restricts with f = {data['f']} on the algebra of h = {data['target_h']}",
            )
    else:  # pragma: no cover - argparse enforces the command set
        raise AhError(f"unknown command {name!r}")
    return 0


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
    sys.exit(run())


if __name__ == "__main__":
    main()
