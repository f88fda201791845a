"""Exact symbolic computation in the subalgebras of the Weyl algebra
defined by the relation Y*x - x*Y = h(x), over QQ and GF(p).

``import ahalg`` loads no submodule.  Each public name below is imported
from its module the first time it is read (PEP 562) and then kept in the
package namespace, so the Ore arithmetic (``AhContext``, ``Poly``, ...)
never pays for the structure modules (``autgroup``, ``center``,
``normal``, ``weyl``) it does not use.
"""

import importlib
import sys
import types

# module -> the public names it provides
_EXPORTS = {
    "algebra": (
        "AhContext", "OreElement", "antiautomorphism", "apply_poly_map", "commutator",
        "div_left_exact", "div_right_exact",
    ),
    "autgroup": (
        "Automorphism", "AutGroupStructure", "PSet", "classify_aut_group", "compute_G",
        "compute_P", "eta_endo", "extend_automorphism", "iso_test", "kappa_endo", "phi",
        "restrict_automorphism", "tau",
    ),
    "center": (
        "CenterDescription", "CentralDecomposition", "bracket_x_preimage",
        "bracket_yhat_preimage", "center", "central_decompose", "centralizer_x_membership",
        "in_commutator_space", "is_central",
    ),
    "fields": ("QQ", "FieldElem", "FieldSpec"),
    "normal": (
        "NormalityCertificate", "PrimeGeneratorReport", "PrimeKind", "classify_normal",
        "height_one_prime_test", "is_normal", "is_simple",
    ),
    "parsing": ("parse_element", "parse_poly", "parse_scalar"),
    "poly": (
        "FactoredPoly", "FactorTerm", "Poly", "distinct_root_count", "factor", "gcd_monic",
        "rational_roots", "squarefree_decomposition", "squarefree_part",
    ),
    "weyl": (
        "OreWitness", "embed", "from_weyl", "localized_equal", "ore_witness", "to_weyl",
        "weyl_context", "yh_product",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
# submodules that are attributes of the package without an import of their own
_SUBMODULES = frozenset(_EXPORTS) | {"errors"}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_HOME})


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # importing a submodule binds it on the package; the public function
        # ``center`` keeps its name over the submodule ``center``
        if not (name in _HOME and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
