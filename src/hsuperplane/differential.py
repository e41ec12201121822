"""The exterior derivative as a graded derivation on the calculus.

The derivative d sends x to dx and th to dth, kills differentials and
the deformation parameter, and extends to words by the graded Leibniz
rule with the Koszul sign of the left prefix.  The same operator is
realized inside the algebra as dx*px + dth*pth acting through ``act``;
the two realizations are cross-checked, together with nilpotency, the
Leibniz rule, the operator exchange identities and the curl formula.
"""

import functools
import random
from typing import Iterable, List, Optional, Sequence, Tuple

from .algebra import AlgebraError, Element, Presentation, _accumulate, gen, linear_extension, word
from .presentations import get_presentation
from .reports import ReportEntry, VerificationReport
from .scalar import ONE, sc


class UnsupportedGeneratorError(AlgebraError):
    """The element contains a generator outside the operation's domain."""


_D_IMAGES = {"x": "dx", "th": "dth"}
_D_CONSTANTS = ("dx", "dth", "h")
_D_LETTERS = frozenset(_D_IMAGES) | frozenset(_D_CONSTANTS)
# Leibniz signs by prefix parity
_LEIBNIZ_SIGNS = (ONE, sc(-1))
_FORM_LETTERS = ("h", "dth", "dx", "th", "x")
_COORDINATE_LETTERS = ("h", "th", "x")


def _check_letters(words: Iterable, allowed: Iterable[str], what: str) -> None:
    allowed = set(allowed)
    for w in words:
        for letter in w:
            if letter not in allowed:
                raise UnsupportedGeneratorError(
                    f"{what} must not contain {letter!r}"
                )


_D_OPERATOR = word("dx", "px") + word("dth", "pth")
# built once, like _D_OPERATOR, so that ``act`` finds each one's memo by identity
_GENERATORS = {g: gen(g) for g in ("x", "th", "px", "pth", "dx", "dth")}


def d_operator() -> Element:
    """The derivative realized inside the algebra: dx*px + dth*pth, one
    shared element, so that ``act`` finds its memo by identity."""
    return _D_OPERATOR


def exterior_d(a: Element, p: Presentation) -> Element:
    """Apply d term-wise by the graded Leibniz rule and normalize.

    d(g_1 ... g_n) is the sum over positions k of the word with g_k
    replaced by its image, signed by the parity of the prefix before k.
    d is linear, so it is the linear extension of its value on one word;
    the normal form of each word's d is kept in ``p.d_memo``, where a miss
    makes room under ``algebra.WORD_MEMO_CAP``.
    """
    return linear_extension(a._terms, lambda w: _d_of_word(w, p), p.d_memo)


def _d_of_word(w: tuple, p: Presentation) -> Element:
    _check_letters((w,), _D_LETTERS, "a form argument")
    p.word_parity(w)  # raises for a letter that p lacks
    parities = p._parities
    terms = {}
    prefix_parity = 0
    for k, letter in enumerate(w):
        image = _D_IMAGES.get(letter)
        if image is not None:
            terms[w[:k] + (image,) + w[k + 1 :]] = _LEIBNIZ_SIGNS[prefix_parity]
        prefix_parity ^= parities[letter]
    return p.normal_form(Element(terms))


def monomial_basis(
    p: Presentation, max_degree: int, letters: Sequence[str] = _FORM_LETTERS
) -> List[Element]:
    """All normal-form monomials of degree at most max_degree, 1 included.

    A word is normal when no adjacent pair of its letters is reducible, so
    the prefixes of a normal word are normal: each degree's words are the
    previous degree's, extended by every letter that forms no reducible
    pair with their last one.  The order is that of ``itertools.product``.
    """
    if max_degree > 0:
        for letter in letters:
            p.generator(letter)
    basis = [Element.scalar(1)]
    level = [()]
    for _ in range(max_degree):
        level = [
            w + (letter,)
            for w in level
            for letter in letters
            if not w or not p.reducible_pair(w[-1], letter)
        ]
        basis.extend(Element.word(w) for w in level)
    return basis


def random_form(
    rng: random.Random,
    p: Presentation,
    max_degree: int,
    letters: Sequence[str] = _FORM_LETTERS,
    terms: int = 3,
    parity: Optional[int] = None,
) -> Element:
    """Random normalized polynomial; fixed parity when requested."""
    collected = {}
    for _ in range(terms):
        degree = rng.randint(0 if parity in (None, 0) else 1, max_degree)
        w = tuple([rng.choice(letters) for _ in range(degree)])
        if parity is not None and p.word_parity(w) != parity:
            continue
        _accumulate(collected, w, sc(rng.choice((1, 2, 3, -1, -2))))
    return p.normal_form(Element(collected))


# A check's residuals come as (label template, elements named in the label,
# residual), so a caller formats only the labels it prints.


def _d_squared_residuals(samples: Iterable[Element], p: Presentation):
    for sample in samples:
        yield "d^2({}) = 0", (sample,), exterior_d(exterior_d(sample, p), p)


def _leibniz_residuals(pairs: Iterable[Tuple[Element, Element]], p: Presentation):
    for f, g in pairs:
        parity = p.parity(f)  # None for 0, which any sign serves
        if parity is None and not f.is_zero():
            raise AlgebraError("left factor must be parity-homogeneous")
        sign = sc(-1 if parity else 1)
        residual = (
            exterior_d(p.multiply(f, g), p)
            - p.multiply(exterior_d(f, p), g)
            - p.multiply(f, exterior_d(g, p)).scale(sign)
        )
        yield "Leibniz on ({}, {})", (f, g), residual


def _entry(template: str, elements: tuple, residual: Element, p: Presentation) -> ReportEntry:
    label = template.format(*(p.show(e) for e in elements))
    return ReportEntry(label, p.show(residual), residual.is_zero())


def _report(suite: str, residuals, p: Presentation) -> VerificationReport:
    report = VerificationReport(suite, p.name)
    report.entries.extend(_entry(*checked, p) for checked in residuals)
    return report


def _first_failure(residuals, p: Presentation) -> str:
    """The first failing entry as it prints, '' if none; every check runs."""
    failure = ""
    for template, elements, residual in residuals:
        if not failure and not residual.is_zero():
            failure = str(_entry(template, elements, residual, p))
    return failure


def check_d_squared(samples: Iterable[Element], p: Presentation) -> VerificationReport:
    """d applied twice annihilates every sample."""
    return _report("dsquared", _d_squared_residuals(samples, p), p)


def check_leibniz(
    pairs: Iterable[Tuple[Element, Element]], p: Presentation
) -> VerificationReport:
    """Graded Leibniz rule on pairs with parity-homogeneous left factor."""
    return _report("leibniz", _leibniz_residuals(pairs, p), p)


def check_operator_relations(p: Presentation) -> VerificationReport:
    """Exchange identities of d with multiplication and derivative operators.

    d is realized as dx*px + dth*pth through ``act``; each identity is
    verified on every normal monomial of degree at most 4.
    """
    basis = monomial_basis(p, 4)
    d = d_operator()

    def d_of(m: Element) -> Element:
        return p.act(d, m)

    def graded_commutator(letter: str):
        # d g - (-1)^|g| g d, less d(g) m when g is a coordinate
        g = _GENERATORS[letter]
        apply = p.act if letter in ("px", "pth") else p.multiply
        odd = p.generator(letter).parity
        dg = _GENERATORS[_D_IMAGES[letter]] if letter in _D_IMAGES else None

        def residual(m: Element) -> Element:
            out = d_of(apply(g, m))
            out = out + apply(g, d_of(m)) if odd else out - apply(g, d_of(m))
            return out if dg is None else out - p.multiply(dg, m)

        return residual

    checks = [
        (label, graded_commutator(letter))
        for label, letter in (
            ("d*x - x*d acts as dx", "x"),
            ("d*th + th*d acts as dth", "th"),
            ("d commutes with px", "px"),
            ("d anticommutes with pth", "pth"),
            ("d anticommutes with dx", "dx"),
            ("d commutes with dth", "dth"),
        )
    ] + [
        ("d squares to zero as an operator", lambda m: d_of(d_of(m))),
        (
            "operator realization matches the derivation",
            lambda m: d_of(m) - exterior_d(m, p),
        ),
    ]
    report = VerificationReport("operators", p.name)
    for label, residual_of in checks:
        failure = None
        for m in basis:
            residual = residual_of(m)
            if not residual.is_zero():
                failure = f"{p.show(m)} -> {p.show(residual)}"
                break
        report.add(
            label,
            "0" if failure is None else failure,
            failure is None,
            monomials=len(basis),
        )
    return report


def _two_form_part(element: Element) -> Element:
    """The words of a two-form lying in the dth*dx component.

    Normal forms put the deformation parameter first, so both pure
    (dth, dx, ...) words and (h, dth, dx, ...) words belong to it.
    """
    part = Element.zero()
    for w, coeff in element.items():
        body = w[1:] if w[:1] == ("h",) else w
        if body[:2] == ("dth", "dx"):
            part = part + Element.word(w, coeff)
    return part


def curl(w1: Element, w2: Element, p: Presentation) -> Element:
    """The curl of the one-form dx*w1 + dth*w2.

    Returns (1/lambda)*px(w2) - pth(w1), where lambda is the exchange
    coefficient of dx*dth -> lambda*dth*dx; the result is verified to
    be the dx*dth component of the exterior derivative of the form.
    """
    for component in (w1, w2):
        _check_letters(component.words(), _COORDINATE_LETTERS, "a curl component")
    rule = p.rules.get(("dx", "dth"))
    if rule is None:
        lam = ONE
    else:
        lam = rule.coefficient(("dth", "dx"))
    if lam.is_zero():
        raise AlgebraError("the dx*dth exchange rule has no dth*dx term")
    value = p.normal_form(
        p.act(gen("px"), w2).scale(ONE / lam) - p.act(gen("pth"), w1)
    )
    derivative = exterior_d(p.multiply(gen("dx"), w1) + p.multiply(gen("dth"), w2), p)
    expected = _two_form_part(derivative)
    recovered = p.multiply(word("dx", "dth"), value)
    if expected != recovered:
        raise AlgebraError("curl does not match the two-form coefficient")
    return value


DSQUARED_SEED_CAP = 4  # seeds whose inputs are kept; least recently used go first


@functools.lru_cache(maxsize=DSQUARED_SEED_CAP)
def _dsquared_inputs(seed: int) -> tuple:
    """For each calculus of the report: its name, its samples (the degree-5
    basis, then 100 random forms) and its 100 Leibniz pairs, drawn from one
    ``random.Random(seed)`` in that order; built once per seed and process."""
    rng = random.Random(seed)
    inputs = []
    for name in ("qh-calculus", "h-calculus"):
        p = get_presentation(name)
        samples = monomial_basis(p, 5) + [random_form(rng, p, 5) for _ in range(100)]
        pairs = []
        while len(pairs) < 100:
            f = random_form(rng, p, 4, parity=rng.choice((0, 1)))
            g = random_form(rng, p, 4)
            if not f.is_zero():
                pairs.append((f, g))
        inputs.append((name, tuple(samples), tuple(pairs)))
    return tuple(inputs)


def dsquared_report(seed: int = 2024) -> VerificationReport:
    """Nilpotency on the monomial basis and random polynomials, plus Leibniz;
    the inputs are drawn once per seed, every residual on every call."""
    combined = VerificationReport("dsquared")
    for name, samples, pairs in _dsquared_inputs(seed):
        p = get_presentation(name)
        failure = _first_failure(_d_squared_residuals(samples, p), p)
        combined.add(
            f"d^2 vanishes on the degree-5 basis and 100 random forms [{name}]",
            failure,
            not failure,
            samples=len(samples),
        )
        failure = _first_failure(_leibniz_residuals(pairs, p), p)
        combined.add(
            f"graded Leibniz rule on 100 random pairs [{name}]",
            failure,
            not failure,
            pairs=len(pairs),
        )
    return combined


def operator_report() -> VerificationReport:
    """Operator exchange identities in the h-level calculus."""
    return check_operator_relations(get_presentation("h-calculus"))
