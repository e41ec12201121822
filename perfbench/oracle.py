"""Correctness checks for the benchmark's outputs, run outside timed regions.

* ``verify all``: every entry's label, verdict and ``normal_form`` string
  must equal the reference captured from the seed commit
  (``reference/verify_all.json``); the version field is not compared.
* ``normal_form``: the cached leftmost result must be in normal form and
  equal the rightmost reduction, which takes another rewriting path and
  never reads the cache; confluence makes the two equal.
* Scalar arithmetic: sampled ``ScalarQ`` operations are recomputed with
  ``sympy.cancel``, an implementation outside the program.  sympy is used
  here and nowhere else.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference" / "verify_all.json"
COMPARED_FIELDS = ("label", "normal_form", "passed")


def load_reference(path: Path = REFERENCE) -> list[dict]:
    entries = json.loads(path.read_text())["entries"]
    return [{key: entry[key] for key in COMPARED_FIELDS} for entry in entries]


def check_verify_entries(entries: list[dict], reference: list[dict]) -> tuple[int, list[str]]:
    """Compare report entries with the reference.

    Returns ``(attempted, problems)``: one problem per reference entry that
    is missing, differs or does not pass, and per unexpected extra entry.
    """
    produced = {}
    for entry in entries:
        produced.setdefault(entry["label"], entry)
    problems = []
    for expected in reference:
        got = produced.pop(expected["label"], None)
        if got is None:
            problems.append(f"missing entry {expected['label']!r}")
        elif not got["passed"]:
            problems.append(f"entry fails: {expected['label']!r}")
        elif any(got[key] != expected[key] for key in COMPARED_FIELDS):
            problems.append(
                f"entry differs: {expected['label']!r}: "
                f"{got['normal_form']!r} != {expected['normal_form']!r}"
            )
    problems.extend(f"unexpected entry {label!r}" for label in produced)
    return len(reference) + len(produced), problems


def check_normal_form(presentation, element, result, rightmost: dict) -> str | None:
    """Why ``result`` is not the normal form of ``element``, or None.

    ``rightmost`` memoises rightmost normal forms of single words across
    calls; ``normal_form`` reduces each word of its input on its own and is
    linear, so the rightmost reduction of the element is their combination.
    """
    from hsuperplane.algebra import Element

    if not presentation.is_normal(result):
        return f"{presentation.name}: result is not in normal form"
    expected = Element()
    for word, coeff in element.items():
        key = (presentation.name, word)
        nf = rightmost.get(key)
        if nf is None:
            nf = rightmost[key] = presentation.normal_form(
                Element.word(word), strategy="rightmost"
            )
        expected = expected + nf.scale(coeff)
    if expected != result:
        return (
            f"{presentation.name}: leftmost {presentation.show(result)} != "
            f"rightmost {presentation.show(expected)}"
        )
    return None


# An alias such as ``__radd__ = __add__`` is traced under its target's name;
# addition and multiplication commute, so the argument order does not matter.
_SYMPY_OPS = {
    "scalar.add": lambda a, b: a + b,
    "scalar.sub": lambda a, b: a - b,
    "scalar.rsub": lambda a, b: b - a,
    "scalar.mul": lambda a, b: a * b,
    "scalar.truediv": lambda a, b: a / b,
    "scalar.rtruediv": lambda a, b: b / a,
    "scalar.neg": lambda a: -a,
    "scalar.pow": lambda a, b: a**b,
}


def _to_sympy(value, q):
    import sympy

    from hsuperplane.scalar import GaussianRational, ScalarQ

    def number(x):
        if isinstance(x, GaussianRational):
            return number(x.re) + sympy.I * number(x.im)
        x = Fraction(x)
        return sympy.Rational(x.numerator, x.denominator)

    def poly(p):
        return sum((number(c) * q**k for k, c in enumerate(p.coeffs)), sympy.Integer(0))

    if isinstance(value, ScalarQ):
        return poly(value.num) / poly(value.den)
    return number(value)


def check_scalar_sample(sample: list) -> list[str]:
    """Recompute each sampled ``(op, args, result)`` with sympy."""
    import sympy

    q = sympy.Symbol("q")
    problems = []
    for op, args, result in sample:
        if op == "scalar.pow":
            expected = _SYMPY_OPS[op](_to_sympy(args[0], q), sympy.Integer(args[1]))
        else:
            expected = _SYMPY_OPS[op](*(_to_sympy(a, q) for a in args))
        if sympy.cancel(sympy.expand(expected - _to_sympy(result, q))) != 0:
            problems.append(f"{op}{tuple(str(a) for a in args)} gave {result}")
    return problems
