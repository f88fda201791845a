"""Span tracing of ahalg from outside the package.

:class:`Tracer` replaces public functions and selected methods of each
layer module with wrappers that record a span per call: name, span id,
parent span id, operation id, start and end (``perf_counter_ns``).  Class
attributes are patched on the class, and every module-level binding of a
wrapped function is patched in every ahalg module that imported it, so
internal calls are seen too.  ``uninstall`` restores the originals.

Aggregates (calls, self time, extra counts) are kept per span name while
the run goes; self time is a span's duration minus the durations of its
direct child spans.  Up to ``MAX_SPANS`` raw spans are kept in memory and
written out by :meth:`Tracer.write` when the run ends.

``FieldElem`` constructions are only counted, not timed: there are millions
of them, and scalar arithmetic time stays in the self time of its caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

LAYERS = ("fields", "poly", "algebra", "weyl", "center", "normal", "autgroup", "parsing", "cli")
MAX_SPANS = 200_000
SPAN_FIELDS = ("id", "parent", "op", "name", "start_ns", "end_ns")

# methods wrapped besides each module's public functions
METHODS = {
    "poly": {
        "Poly": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                 "__pow__", "__divmod__", "derivative", "evaluate", "compose", "monic", "scaled",
                 "shifted"),
        "FactoredPoly": ("expand",),
    },
    "algebra": {
        "AhContext": ("delta", "delta_power"),
        "OreElement": ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                       "__rmul__", "__pow__"),
    },
    "center": {"CentralDecomposition": ("reassemble",)},
    "normal": {"NormalClassification": ("reassemble",)},
    "autgroup": {
        "Automorphism": ("apply", "compose", "inverse"),
        "PSet": ("pairs", "contains"),
        "Endomorphism": ("apply",),
    },
}
# span names that differ from the function name: reflected operators fold
# into their operator, and a few functions share one name
ALIASES = {
    "radd": "add", "rsub": "sub", "rmul": "mul",
    "gcd_monic": "gcd",
    "div_left_exact": "div_exact", "div_right_exact": "div_exact",
}


def span_name(layer: str, attr: str) -> str:
    short = attr.strip("_")
    return f"{layer}.{ALIASES.get(short, short)}"


def _poly_mul_pairs(args) -> int:
    """Coefficient pairs one schoolbook product visits; a scalar factor counts once."""
    a, b = args
    return len(a.coeffs) * len(getattr(b, "coeffs", (b,)))


EXTRA_COUNTS = {"poly.mul": _poly_mul_pairs}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.extra: list[int] = []
        self.elem_new = 0
        self._stack: list[list[int]] = []  # [span id, child ns]
        self._next_id = 0
        self.op_id = -1
        self.dropped = 0
        self._spans = {k: array("q") for k in SPAN_FIELDS}
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
            self.extra.append(0)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        extra = EXTRA_COUNTS.get(name)
        stack, calls, self_ns, extras = self._stack, self.calls, self.self_ns, self.extra
        appends = [self._spans[k].append for k in SPAN_FIELDS]
        stored = self._spans["id"]
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent = -1
                if stack:
                    stack[-1][1] += dur
                    parent = stack[-1][0]
                calls[nid] += 1
                self_ns[nid] += dur - frame[1]
                if extra is not None:
                    extras[nid] += extra(args)
                if len(stored) < MAX_SPANS:
                    for append, value in zip(appends, (sid, parent, tracer.op_id, nid, start, end)):
                        append(value)
                else:
                    tracer.dropped += 1

        return traced

    def run_op(self, kind: str, fn):
        """Call ``fn`` as the next workload operation: the root span of its tree."""
        self.op_id += 1
        return self._wrap(fn, f"op.{kind}")()

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"ahalg.{layer}") for layer in LAYERS}
        everywhere = [importlib.import_module("ahalg"), *modules.values()]
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(obj, span_name(layer, attr))
                for home in everywhere:
                    for name, value in list(vars(home).items()):
                        if value is obj:
                            self._patch(home, name, wrapped)
            for cls_name, attrs in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for attr in attrs:
                    self._patch(cls, attr, self._wrap(vars(cls)[attr], span_name(layer, attr)))
        elem = modules["fields"].FieldElem
        original_init = elem.__init__

        def counting_init(obj, spec, value):
            self.elem_new += 1
            original_init(obj, spec, value)

        self._patch(elem, "__init__", counting_init)

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------------

    def totals(self, prefix: str) -> tuple[int, int, int]:
        """(calls, self ns, extra count) over span names equal to or under ``prefix``."""
        calls = self_ns = extra = 0
        for nid, name in enumerate(self.names):
            if name == prefix or name.startswith(prefix + "."):
                calls += self.calls[nid]
                self_ns += self.self_ns[nid]
                extra += self.extra[nid]
        return calls, self_ns, extra

    def write(self, path, meta: dict) -> None:
        spans = self._spans
        with open(path, "w") as out:
            header = dict(meta, names=self.names, spans=len(spans["id"]), dropped=self.dropped,
                          fields=SPAN_FIELDS)
            out.write(json.dumps(header) + "\n")
            for row in zip(*(spans[k] for k in SPAN_FIELDS)):
                out.write(json.dumps(row) + "\n")


# -- per-layer metrics -------------------------------------------------------------

# metrics read straight off the aggregates: "<span prefix>.calls" is calls per
# operation and "<span prefix>.self_ms" is self time in ms per operation
AGGREGATE_METRICS = (
    "poly.mul.calls", "poly.mul.self_ms", "poly.divmod.calls", "poly.divmod.self_ms",
    "poly.gcd.calls", "poly.gcd.self_ms", "poly.factor.self_ms", "poly.compose.calls",
    "poly.compose.self_ms", "poly.self_ms",
    "algebra.mul.calls", "algebra.mul.self_ms", "algebra.delta.calls",
    "algebra.apply_poly_map.calls", "algebra.apply_poly_map.self_ms",
    "algebra.div_exact.self_ms", "algebra.self_ms",
    "weyl.to_weyl.calls", "weyl.to_weyl.self_ms", "weyl.from_weyl.self_ms", "weyl.self_ms",
    "center.self_ms", "normal.self_ms",
    "autgroup.compute_P.self_ms", "autgroup.iso_test.self_ms", "autgroup.self_ms",
    "parsing.calls", "parsing.self_ms", "cli.build_parser.self_ms", "cli.self_ms",
)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-operation layer metrics of one traced pass over ``ops`` operations."""
    out = {"fields.elem_new": (tracer.elem_new / ops, "count/op")}
    _, mul_ns, pairs = tracer.totals("poly.mul")
    out["poly.mul.coeff_pairs"] = (pairs / ops, "count/op")
    out["poly.mul.ns_per_pair"] = (mul_ns / pairs if pairs else 0.0, "ns")
    for name in AGGREGATE_METRICS:
        prefix, kind = name.rsplit(".", 1)
        calls, self_ns, _ = tracer.totals(prefix)
        out[name] = (calls / ops, "count/op") if kind == "calls" else (self_ns / 1e6 / ops, "ms/op")
    return out
