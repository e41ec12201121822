"""Runtime spans around the engine's public functions, for the traced run.

Nothing here is imported by an untraced run.  ``install`` replaces each
wrapped function at every place the ``hsuperplane`` modules bind it (module
attributes, class attributes and registry dicts such as the CLI's suite
table), because several modules import functions by name.

A span has a name, a start, an end and a parent (the span open when it
started).  Spans are aggregated per name as they close, which keeps memory
flat: a cold ``verify all`` pass closes about 60,000 scalar spans.

* ``calls`` counts every span of the name.
* ``total_s`` is inclusive time, counted only for the outermost span of the
  name, so recursion is not counted twice.
* ``self_s`` is a span's duration minus the time its child spans cover.

Scalar operations are leaf spans: a scalar operation called inside another
one (``a - b`` calls ``a + (-b)``) is part of the outer span, not a child.
"""

from __future__ import annotations

import functools
import random
import sys
import time
from typing import Callable

SCALAR_METHODS = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "__pow__",
)

SUITE_FUNCTIONS = {
    "consistency": ("presentations", "consistency_report"),
    "contraction": ("presentations", "contraction_report"),
    "confluence": ("presentations", "confluence_report"),
    "ybe": ("rmatrix", "ybe_report"),
    "rtt": ("rmatrix", "rtt_report"),
    "regenerate": ("rmatrix", "regeneration_report"),
    "dsquared": ("differential", "dsquared_report"),
    "operators": ("differential", "operator_report"),
    "coaction": ("presentations", "coaction_check"),
    "involution": ("presentations", "involution_check"),
    "heisenberg": ("presentations", "build_heisenberg"),
    "oscillator": ("presentations", "oscillator_check"),
}

# (module, owner class or None, attribute, span name)
SPANS = (
    ("algebra", "Presentation", "normal_form", "algebra.normal_form"),
    ("algebra", "Presentation", "act", "algebra.act"),
    ("algebra", "Presentation", "check_confluence", "algebra.check_confluence"),
    ("algebra", "Element", "__mul__", "algebra.element_mul"),
    ("algebra", "Element", "__add__", "algebra.element_add"),
    ("algebra", "AlgebraMorphism", "__call__", "algebra.morphism"),
    ("algebra", "InvolutionSpec", "__call__", "algebra.morphism"),
    ("differential", None, "exterior_d", "differential.exterior_d"),
    ("differential", None, "monomial_basis", "differential.monomial_basis"),
    ("rmatrix", "SuperTensor", "__mul__", "rmatrix.tensor_mul"),
    ("rmatrix", None, "embed", "rmatrix.embed"),
    ("rmatrix", None, "rtt_expand", "rmatrix.rtt_expand"),
    ("rmatrix", None, "regenerate_calculus", "rmatrix.regenerate"),
    ("presentations", None, "solve_consistency", "presentations.solve"),
    ("presentations", None, "contract", "presentations.contract"),
    ("expr", None, "format_element", "expr.format"),
    ("expr", None, "parse_element", "expr.parse"),
    ("expr", None, "parse_scalar", "expr.parse"),
    ("reports", "VerificationReport", "to_json", "reports.to_json"),
) + tuple(
    (module, None, function, f"suite.{suite}")
    for suite, (module, function) in SUITE_FUNCTIONS.items()
)


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Per-name span aggregates, counters and a seeded scalar sample."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        sample_size: int = 0,
        seed: int = 0,
    ) -> None:
        self.clock = clock
        self.active = False
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.sample: list = []
        self._sample_size = sample_size
        self._sample_rng = random.Random(seed)
        self._sampled_ops = 0
        self._stack: list[_Frame] = []
        self._open: dict[str, int] = {}
        self._in_leaf = False

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def enter(self, name: str) -> None:
        self._open[name] = self._open.get(name, 0) + 1
        self._stack.append(_Frame(name, self.clock()))

    def exit(self) -> None:
        end = self.clock()
        frame = self._stack.pop()
        self._open[frame.name] -= 1
        self._close(frame.name, end - frame.start, frame.child_s, self._open[frame.name] == 0)

    def _close(self, name: str, duration: float, child_s: float, outermost: bool) -> None:
        agg = self.spans.get(name)
        if agg is None:
            agg = self.spans[name] = [0, 0.0, 0.0]
        agg[0] += 1
        if outermost:
            agg[1] += duration
        agg[2] += duration - child_s
        if self._stack:
            self._stack[-1].child_s += duration

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return traced

    def wrap_leaf(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        """A span with no child spans; ``observe(name, args, result)`` runs after it."""

        @functools.wraps(fn)
        def traced(*args):
            if not self.active or self._in_leaf:
                return fn(*args)
            self._in_leaf = True
            start = self.clock()
            try:
                result = fn(*args)
            finally:
                duration = self.clock() - start
                self._in_leaf = False
            self._close(name, duration, 0.0, True)
            if observe is not None:
                observe(name, args, result)
            return result

        return traced

    def observe_scalar(self, name: str, args: tuple, result) -> None:
        if result is NotImplemented:
            return
        coeffs = result.den.coeffs
        if any(not c.is_zero() for c in coeffs[:-1]):
            self.count("scalar.nonmonomial")
        if self._sample_size:
            self._sampled_ops += 1
            if len(self.sample) < self._sample_size:
                self.sample.append((name, args, result))
            else:
                slot = self._sample_rng.randrange(self._sampled_ops)
                if slot < self._sample_size:
                    self.sample[slot] = (name, args, result)


def _engine_modules() -> list:
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "hsuperplane" and m]


def _rebind(original, replacement, restore: list) -> int:
    """Point every module-level binding of ``original`` at ``replacement``."""
    bound = 0
    for module in _engine_modules():
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                restore.append((module, key, original, setattr))
                bound += 1
            elif type(value) is dict:
                for dkey, dvalue in list(value.items()):
                    if dvalue is original:
                        value[dkey] = replacement
                        restore.append((value, dkey, original, dict.__setitem__))
                        bound += 1
    return bound


def _rebind_method(owner: type, original, replacement, restore: list) -> None:
    """Replace ``original`` under every attribute name of ``owner`` (aliases too)."""
    for key, value in list(vars(owner).items()):
        if value is original:
            setattr(owner, key, replacement)
            restore.append((owner, key, original, setattr))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap the engine's layer boundaries; returns a function that undoes it."""
    import hsuperplane.cli  # noqa: F401  (loads every module whose bindings are patched)
    from hsuperplane import scalar

    restore: list = []
    originals = {}  # an alias such as __radd__ = __add__ keeps its target's name
    for method in SCALAR_METHODS:
        originals.setdefault(vars(scalar.ScalarQ)[method], "scalar." + method.strip("_"))
    for original, op in originals.items():
        wrapped = tracer.wrap_leaf(op, original, tracer.observe_scalar)
        _rebind_method(scalar.ScalarQ, original, wrapped, restore)

    gcd = scalar.PolyQ.gcd

    def counted_gcd(a, b):
        result = gcd(a, b)
        if tracer.active:
            tracer.count("scalar.gcd.calls")
            if result.degree > 0:
                tracer.count("scalar.gcd.useful")
        return result

    _rebind_method(scalar.PolyQ, gcd, counted_gcd, restore)

    for module_name, owner_name, attr, span in SPANS:
        module = sys.modules[f"hsuperplane.{module_name}"]
        if owner_name is None:
            original = getattr(module, attr)
            if _rebind(original, tracer.wrap(span, original), restore) == 0:
                raise RuntimeError(f"no binding of {module_name}.{attr} found")
        else:
            owner = getattr(module, owner_name)
            original = vars(owner)[attr]
            wrapped = tracer.wrap(span, original)
            if attr == "normal_form":
                wrapped = _count_words_in(tracer, wrapped, module.as_element)
            _rebind_method(owner, original, wrapped, restore)

    def undo() -> None:
        for container, key, original, put in reversed(restore):
            put(container, key, original)

    return undo


def _count_words_in(tracer: Tracer, fn: Callable, as_element: Callable) -> Callable:
    @functools.wraps(fn)
    def counted(self, element, **kwargs):
        if tracer.active:
            tracer.count("algebra.normal_form.words_in", as_element(element).term_count())
        return fn(self, element, **kwargs)

    return counted


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics, by the names ``metrics.json`` lists."""
    spans, counters = tracer.spans, tracer.counters

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    scalar_ops = sum(agg[0] for name, agg in spans.items() if name.startswith("scalar."))
    gcd_calls = counters.get("scalar.gcd.calls", 0)
    out = {
        "scalar.ops": scalar_ops,
        "scalar.self_s": sum(
            agg[2] for name, agg in spans.items() if name.startswith("scalar.")
        ),
        "scalar.gcd.calls": gcd_calls,
        "scalar.gcd.useful_ratio": _ratio(counters.get("scalar.gcd.useful", 0), gcd_calls),
        "scalar.nonmonomial_ratio": _ratio(counters.get("scalar.nonmonomial", 0), scalar_ops),
        "algebra.normal_form.calls": calls("algebra.normal_form"),
        "algebra.normal_form.self_s": self_s("algebra.normal_form"),
        "algebra.normal_form.words_in": counters.get("algebra.normal_form.words_in", 0),
        "algebra.element_mul.self_s": self_s("algebra.element_mul"),
        "algebra.element_add.self_s": self_s("algebra.element_add"),
        "algebra.act.calls": calls("algebra.act"),
        "algebra.check_confluence.s": total_s("algebra.check_confluence"),
        "algebra.morphism.s": total_s("algebra.morphism"),
        "differential.exterior_d.calls": calls("differential.exterior_d"),
        "differential.exterior_d.self_s": self_s("differential.exterior_d"),
        "differential.monomial_basis.s": total_s("differential.monomial_basis"),
        "rmatrix.tensor_mul.calls": calls("rmatrix.tensor_mul"),
        "rmatrix.tensor_mul.self_s": self_s("rmatrix.tensor_mul"),
        "rmatrix.embed.self_s": self_s("rmatrix.embed"),
        "rmatrix.rtt_expand.s": total_s("rmatrix.rtt_expand"),
        "rmatrix.regenerate.s": total_s("rmatrix.regenerate"),
        "presentations.build.s": total_s("presentations.build"),
        "presentations.solve.s": total_s("presentations.solve"),
        "presentations.contract.s": total_s("presentations.contract"),
        "expr.format.calls": calls("expr.format"),
        "expr.format.self_s": self_s("expr.format"),
        "expr.parse.self_s": self_s("expr.parse"),
        "reports.to_json.s": total_s("reports.to_json"),
    }
    for suite in SUITE_FUNCTIONS:
        out[f"suite.{suite}.s"] = total_s(f"suite.{suite}")
    return out
