"""``exterior_d`` checked against the exterior derivative written from its
definition, on generated forms in ``qh-calculus`` and ``h-calculus``.

The reference d below reads only the presentation's generator parities and
``normal_form``: d(g_1 ... g_n) is the sum over positions k of the word with
g_k replaced by its differential, signed by the Koszul sign of the prefix
g_1 ... g_{k-1}, and the sum is then normalised.  On generated forms the
engine must agree with it, be well defined on the quotient (d of a raw
product equals d of its normal form), square to zero and obey the graded
Leibniz rule.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsuperplane.algebra import Element, Presentation
from hsuperplane.differential import exterior_d
from hsuperplane.presentations import get_presentation
from hsuperplane.scalar import ONE, Q, sc

# derandomized, so the tier-1 run is deterministic; no example database on disk
ORACLE = settings(derandomize=True, database=None, deadline=None, max_examples=80)

CALCULI = ("qh-calculus", "h-calculus")
DIFFERENTIALS = {"x": "dx", "th": "dth"}
FORM_LETTERS = ("h", "dth", "dx", "th", "x")
SCALARS = (ONE, sc(-1), sc(2), Q, Q**-1, sc(2) - Q)

words = st.lists(st.sampled_from(FORM_LETTERS), max_size=4).map(tuple)
terms = st.lists(st.tuples(words, st.sampled_from(SCALARS)), max_size=3)


def raw_form(pairs) -> Element:
    """The sum of c * w over the generated (w, c) pairs, not normalised."""
    total = Element.zero()
    for w, c in pairs:
        total = total + Element.word(w, c)
    return total


def reference_d(p: Presentation, form: Element) -> Element:
    total = Element.zero()
    for w, c in form.items():
        for k, letter in enumerate(w):
            image = DIFFERENTIALS.get(letter)
            if image is None:
                continue  # d kills dx, dth and h
            prefix_parity = sum(p.generator(g).parity for g in w[:k])
            sign = sc((-1) ** prefix_parity)
            total = total + Element.word(w[:k] + (image,) + w[k + 1:], c * sign)
    return p.normal_form(total)


@pytest.mark.parametrize("name", CALCULI)
def test_d_matches_its_definition_and_squares_to_zero(name):
    p = get_presentation(name)

    @ORACLE
    @given(terms)
    def check(pairs):
        raw = raw_form(pairs)
        form = p.normal_form(raw)
        d_form = exterior_d(form, p)
        assert d_form == reference_d(p, form)
        assert exterior_d(raw, p) == d_form
        assert exterior_d(d_form, p).is_zero()

    check()


@pytest.mark.parametrize("name", CALCULI)
def test_graded_leibniz_rule(name):
    p = get_presentation(name)

    @ORACLE
    @given(words, st.sampled_from(SCALARS), terms)
    def check(w, c, pairs):
        f = p.normal_form(Element.word(w, c))  # one word: parity-homogeneous
        g = p.normal_form(raw_form(pairs))
        sign = sc(-1) if p.word_parity(w) else ONE
        left = exterior_d(p.normal_form(f * g), p)
        right = p.normal_form(exterior_d(f, p) * g + (f * exterior_d(g, p)).scale(sign))
        assert left == right
        assert left == reference_d(p, p.normal_form(f * g))

    check()
