"""Refusals at the entry points that no other test reaches, each with its exact text,
and the reflected operators that only a scalar on the left calls."""

from fractions import Fraction

import pytest

from ahalg import (
    AhContext,
    FieldElem,
    FieldSpec,
    Poly,
    bracket_x_preimage,
    bracket_yhat_preimage,
    eta_endo,
    extend_automorphism,
    from_weyl,
    in_commutator_space,
    iso_test,
    kappa_endo,
    localized_equal,
    ore_witness,
    parse_element,
    rational_roots,
    restrict_automorphism,
    tau,
    weyl_context,
    yh_product,
)
from ahalg.errors import (
    AhError,
    CharacteristicError,
    ConstantHError,
    ContextMismatch,
    FieldMismatch,
    NotDivisibleError,
    ZeroInputError,
)
from ahalg.poly import is_irreducible, pow_mod

QQ, F5, F7 = FieldSpec.rationals(), FieldSpec.gf(5), FieldSpec.gf(7)
X_QQ, X_F7 = Poly.x(QQ), Poly.x(F7)
A_X = AhContext(QQ, X_QQ)  # h = x over QQ
A_X7 = AhContext(F7, X_F7)  # h = x over GF(7)
WEYL = weyl_context(QQ)
SIDE = "side must be 'left' or 'right'"
CHAR_0 = "preimage construction is the char-0 one"

REFUSALS = [
    # poly
    ("lc of zero", lambda: Poly.zero(QQ).lc, ZeroInputError, "zero polynomial has no leading coefficient"),
    ("monic of zero", lambda: Poly.zero(F7).monic(), ZeroInputError, "cannot normalize the zero polynomial"),
    ("rational_roots over GF(p)", lambda: rational_roots(X_F7), FieldMismatch,
     "rational_roots is defined over QQ only"),
    ("is_irreducible over QQ", lambda: is_irreducible(X_QQ), FieldMismatch,
     "irreducibility test implemented over GF(p) only"),
    ("Poly ** -1", lambda: X_QQ ** -1, ValueError, "negative polynomial power"),
    ("pow_mod ** -1", lambda: pow_mod(X_F7, -1, X_F7 * X_F7 - 2), ValueError, "negative polynomial power"),
    ("monomial x^-2", lambda: Poly.monomial(F7, 1, -2), ValueError, "negative polynomial power"),
    ("shifted by x^-1", lambda: (X_F7 * X_F7).shifted(-1), ValueError, "negative polynomial power"),
    ("compose with a str", lambda: Poly(F7, (1, 2, 3)).compose("x"), TypeError,
     "cannot compose a polynomial with 'str'"),
    ("compose with None", lambda: Poly(F7, (1, 2, 3)).compose(None), TypeError,
     "cannot compose a polynomial with 'NoneType'"),
    # algebra
    ("OreElement ** -1", lambda: A_X.gen() ** -1, ValueError, "negative powers do not exist in the algebra"),
    ("monomial Y^-3", lambda: A_X7.monomial(X_F7, -3), ValueError, "negative powers do not exist in the algebra"),
    ("h over another field", lambda: AhContext(QQ, X_F7), ContextMismatch,
     "h is not a polynomial over the given field"),
    # parsing
    ("generator Z", lambda: parse_element("x", A_X, "Z"), ValueError, "generator letter must be 'Y' or 'y'"),
    # fields
    ("re-wrap across fields", lambda: FieldElem(F7, FieldElem(F5, 1)), FieldMismatch,
     "cannot re-wrap an element of another field"),
    # weyl
    ("from_weyl of a non-Weyl element", lambda: from_weyl(A_X.gen(), A_X), ContextMismatch,
     "from_weyl expects an element of the Weyl algebra"),
    ("from_weyl across fields", lambda: from_weyl(weyl_context(F7).gen(), A_X), ContextMismatch,
     "Weyl element over a different field"),
    ("yh_product side", lambda: yh_product(A_X, 2, "middle"), ValueError, SIDE),
    ("ore_witness side", lambda: ore_witness(A_X.gen(), X_QQ, "middle"), ValueError, SIDE),
    ("localized_equal exponent", lambda: localized_equal(A_X.gen(), 0, WEYL.gen(), -1), ValueError,
     "denominator exponents must be nonnegative"),
    ("localized_equal non-Weyl b", lambda: localized_equal(A_X.gen(), 0, A_X.gen(), 0), ContextMismatch,
     "second operand must be a Weyl-algebra element"),
    # autgroup
    ("iso_test field", lambda: iso_test(X_QQ, X_F7, QQ), ContextMismatch, "polynomials over the wrong field"),
    ("iso_test zero", lambda: iso_test(Poly.zero(QQ), X_QQ, QQ), AhError,
     "isomorphism testing needs nonzero h and g"),
    ("eta_endo k < 1", lambda: eta_endo(A_X, 0), ValueError, "k must be at least 1"),
    ("kappa_endo foreign shift", lambda: kappa_endo(A_X7, AhContext(F7, X_F7 * X_F7).x()), ContextMismatch,
     "shift element from a different context"),
    ("extend field", lambda: extend_automorphism(tau(A_X, 1, 0), X_F7), ContextMismatch,
     "target polynomial over the wrong field"),
    ("extend constant g", lambda: extend_automorphism(tau(WEYL, 1, 0), X_QQ), ConstantHError,
     "extension is stated for deg g >= 1"),
    ("restrict field", lambda: restrict_automorphism(tau(A_X, 1, 0), X_F7), ContextMismatch,
     "subalgebra polynomial over the wrong field"),
    ("restrict constant g", lambda: restrict_automorphism(tau(A_X, 1, 0), Poly.one(QQ)), ConstantHError,
     "restriction is stated for deg g >= 1"),
    ("restrict f does not divide g", lambda: restrict_automorphism(tau(A_X, 1, 0), X_QQ * X_QQ + 1),
     NotDivisibleError, "x does not divide x^2 + 1"),
    # center
    ("unknown space", lambda: in_commutator_space(A_X.gen(), "nope"), ValueError,
     "unknown commutator space 'nope'"),
    ("bracket_x_preimage in char p", lambda: bracket_x_preimage(A_X7.x()), CharacteristicError, CHAR_0),
    ("bracket_x_preimage of a non-member", lambda: bracket_x_preimage(A_X.one()), ValueError,
     "element is not in [x, A]"),
    ("bracket_yhat_preimage in char p", lambda: bracket_yhat_preimage(A_X7.x()), CharacteristicError, CHAR_0),
]


@pytest.mark.parametrize("call, exc, message", [case[1:] for case in REFUSALS],
                         ids=[case[0].replace(" ", "-") for case in REFUSALS])
def test_entry_point_refuses_with_its_text(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert str(info.value) == message


def test_reflected_operators_with_a_scalar_on_the_left():
    assert 3 - X_QQ == Poly(QQ, (3, -1))
    assert 5 - Poly(F7, (1, 2)) == Poly(F7, (4, 5))
    assert 1 / F7.elem(3) == F7.elem(5)
    assert 2 / QQ.elem(Fraction(3, 4)) == QQ.elem(Fraction(8, 3))
