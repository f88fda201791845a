"""The benchmark's span tracer patches ``vars(cls)[attr]`` for each method in
``perfbench/spans.py``'s ``METHODS``: each one must stay defined on its own
class, not inherited or moved, or the traced benchmark run fails.

The table is read with ``ast`` from the source text, so the test imports and
writes nothing under ``perfbench/``.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _methods() -> dict:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["METHODS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no METHODS table")


def test_every_patched_method_is_in_its_class_dict():
    methods = _methods()
    assert methods
    for layer, classes in methods.items():
        module = importlib.import_module(f"ahalg.{layer}")
        for cls_name, attrs in classes.items():
            cls = getattr(module, cls_name)
            missing = [attr for attr in attrs if attr not in vars(cls)]
            assert not missing, f"ahalg.{layer}.{cls_name} does not define {missing}"
