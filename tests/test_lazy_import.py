"""The package loads a submodule the first time one of its names is used.

Each test runs in a fresh interpreter, since a module once imported stays in
``sys.modules`` for the rest of the process.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

PRELUDE = """
import sys
def loaded():
    return sorted(m[6:] for m in sys.modules if m.startswith('ahalg.'))
"""


def _fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports ahalg from src/; its stdout."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", PRELUDE + code], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_submodule():
    assert _fresh("import ahalg\nprint(loaded())") == "[]"


def test_the_context_loads_only_the_arithmetic():
    out = _fresh("import ahalg\nahalg.AhContext\nprint(loaded())")
    assert out == "['algebra', 'errors', 'fields', 'poly']"


def test_a_product_on_the_command_line_loads_no_structure_module():
    code = """
from ahalg import cli
cli.run(['--field', 'GF:7', '--h', 'x^2+1', 'mul', 'Y', 'x'])
print(loaded())
"""
    # none of autgroup, center, normal or weyl
    assert _fresh(code).splitlines() == [
        "x*Y + x^2 + 1", "['algebra', 'cli', 'errors', 'fields', 'parsing', 'poly']"
    ]


def test_the_center_function_survives_the_center_submodule():
    code = """
import ahalg
import ahalg.normal
F = ahalg.FieldSpec.gf(3)
print(ahalg.center(ahalg.AhContext(F, ahalg.parse_poly('x', F))).x_generator)
from ahalg import center
print(center is ahalg.center, callable(center), sys.modules['ahalg.center'].center is center)
"""
    assert _fresh(code).splitlines() == ["x^3", "True True True"]


def test_star_import_binds_each_name_from_its_defining_module():
    code = """
import importlib
import ahalg
from ahalg import *
wrong = [n for m, names in ahalg._EXPORTS.items() for n in names
         if globals()[n] is not getattr(importlib.import_module('ahalg.' + m), n)]
print(len(ahalg.__all__), sorted(ahalg.__all__) == sorted(ahalg._HOME), wrong)
print(set(ahalg.__all__) <= set(dir(ahalg)))
"""
    assert _fresh(code).splitlines() == ["59 True []", "True"]


def test_an_unknown_name_raises_attribute_error():
    code = """
import ahalg
for name in ('no_such_name', 'COMMUTATOR_SPACES', '_mul'):
    try:
        getattr(ahalg, name)
    except AttributeError as exc:
        print(exc)
print(hasattr(ahalg, 'weyl'), loaded())
"""
    assert _fresh(code).splitlines() == [
        "module 'ahalg' has no attribute 'no_such_name'",
        "module 'ahalg' has no attribute 'COMMUTATOR_SPACES'",
        "module 'ahalg' has no attribute '_mul'",
        "True ['algebra', 'errors', 'fields', 'poly', 'weyl']",
    ]


def test_the_structure_questions_load_no_dataclasses():
    # the records are namedtuple subclasses: ``_replace``, tuple equality and unpacking
    code = """
import ahalg
F = ahalg.FieldSpec.gf(7)
ctx = ahalg.AhContext(F, ahalg.parse_poly('x^3 - x', F))
structure = ahalg.classify_aut_group(ctx)
ahalg.center(ctx)
ahalg.is_normal(ahalg.parse_element('x^7', ctx))
ahalg.to_weyl(ahalg.parse_element('x*Y + 1', ctx))
pset = structure.P
twin = pset._replace()
print('dataclasses' in sys.modules, len(pset), twin == pset, hash(twin) == hash(pset))
ctx_, lam, c, G, unit, m = pset
print((ctx_, lam, c, G, unit, m) == pset, structure._replace(ell=3) != structure)
"""
    assert _fresh(code).splitlines() == ["False 2 True True", "True True"]
