"""Exterior derivative: nilpotency, Leibniz, operator identities, curl."""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsuperplane import algebra, differential, presentations
from hsuperplane.algebra import (
    AlgebraError,
    AlgebraMorphism,
    Element,
    InvolutionSpec,
    UnknownGeneratorError,
    gen,
    word,
)
from hsuperplane.differential import (
    UnsupportedGeneratorError,
    check_d_squared,
    check_leibniz,
    check_operator_relations,
    curl,
    d_operator,
    dsquared_report,
    exterior_d,
    monomial_basis,
    operator_report,
    random_form,
)
from hsuperplane.cli import run_suite
from hsuperplane.presentations import CATALOGUE_NAMES, build_h_calculus, get_presentation
from hsuperplane.scalar import ONE, Q, sc


HC = get_presentation("h-calculus")
QH = get_presentation("qh-calculus")


# -- the derivation --------------------------------------------------------------


def test_d_on_generators():
    assert exterior_d(gen("x"), HC) == gen("dx")
    assert exterior_d(gen("th"), HC) == gen("dth")
    assert exterior_d(gen("dx"), HC).is_zero()
    assert exterior_d(gen("dth"), HC).is_zero()
    assert exterior_d(gen("h"), HC).is_zero()
    assert exterior_d(Element.scalar(7), HC).is_zero()


def test_d_of_a_two_letter_word():
    result = exterior_d(word("x", "th"), HC)
    assert result == word("dth", "x") + word("dx", "th") - word("h", "dx", "x")


def test_d_of_a_two_letter_word_at_q_level():
    result = exterior_d(word("x", "th"), QH)
    expected = (
        Q * word("dth", "x")
        + (Q * Q) * word("dx", "th")
        - word("h", "dx", "x")
    )
    assert result == QH.normal_form(expected)


def test_d_kills_the_plane_relation():
    relation = word("x", "th") - word("th", "x") - word("h", "x", "x")
    assert exterior_d(relation, HC).is_zero()


def test_d_rejects_derivatives():
    with pytest.raises(UnsupportedGeneratorError):
        exterior_d(word("x", "px"), HC)


def test_d_is_linear():
    f = word("x", "x")
    g = word("th", "x")
    combined = exterior_d(f + g.scale(sc(3)), HC)
    assert combined == HC.normal_form(
        exterior_d(f, HC) + exterior_d(g, HC).scale(sc(3))
    )


def test_d_of_differential_words():
    # d(dx*x) = -dx*dx = 0; d(dth*th) = dth*dth survives
    assert exterior_d(word("dx", "x"), HC).is_zero()
    assert exterior_d(word("dth", "th"), HC) == word("dth", "dth")


# -- nilpotency and Leibniz ------------------------------------------------------


def test_monomial_basis_counts():
    assert len(monomial_basis(HC, 4)) == 66
    assert len(monomial_basis(HC, 5)) == 102
    assert Element.scalar(1) in monomial_basis(HC, 1)


def brute_force_basis(p, max_degree, letters):
    """Every word of every degree, kept when it is normal."""
    basis = [Element.scalar(1)]
    for degree in range(1, max_degree + 1):
        for w in itertools.product(letters, repeat=degree):
            if p.is_normal(Element.word(w)):
                basis.append(Element.word(w))
    return basis


@pytest.mark.parametrize("p", [QH, HC], ids=["qh-calculus", "h-calculus"])
def test_monomial_basis_matches_brute_force_on_the_calculi(p):
    letters = ("h", "dth", "dx", "th", "x")  # the default letters
    for degree in range(6):
        assert monomial_basis(p, degree) == brute_force_basis(p, degree, letters)


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_monomial_basis_matches_brute_force_on_the_catalogue(name):
    p = get_presentation(name)
    letters = tuple(g.name for g in p.generators)
    assert monomial_basis(p, 3, letters) == brute_force_basis(p, 3, letters)


def test_monomial_basis_rejects_an_unknown_letter():
    for letters in (("x", "zz"), ("zz", "x")):
        with pytest.raises(UnknownGeneratorError):
            monomial_basis(HC, 2, letters)


def test_d_squared_on_basis_both_levels():
    for p in (HC, QH):
        report = check_d_squared(monomial_basis(p, 5), p)
        assert report.passed
        assert len(report.entries) == 102


def test_d_squared_on_random_polynomials():
    rng = random.Random(17)
    for p in (HC, QH):
        samples = [random_form(rng, p, 5) for _ in range(25)]
        assert check_d_squared(samples, p).passed


def element_sum_random_form(rng, p, max_degree, letters, terms, parity):
    """``random_form`` as a sum of one-word Elements, normalised at the end."""
    element = Element.zero()
    for _ in range(terms):
        degree = rng.randint(0 if parity in (None, 0) else 1, max_degree)
        w = tuple(rng.choice(letters) for _ in range(degree))
        if parity is not None and p.word_parity(w) != parity:
            continue
        element = element + Element.word(w, sc(rng.choice((1, 2, 3, -1, -2))))
    return p.normal_form(element)


# (max_degree, letters, terms, parity); two letters and six terms repeat words
RANDOM_FORM_CALLS = (
    (5, ("h", "dth", "dx", "th", "x"), 3, None),
    (4, ("h", "dth", "dx", "th", "x"), 3, 0),
    (4, ("h", "dth", "dx", "th", "x"), 4, 1),
    (2, ("th", "x"), 6, None),
)


def test_random_form_matches_the_element_sum():
    """Same elements and the same RNG calls as the Element-sum construction,
    which the golden report cannot tell apart from a changed sample."""
    for seed in range(20):
        for p in (QH, HC):
            rng, reference = random.Random(seed), random.Random(seed)
            for max_degree, letters, terms, parity in RANDOM_FORM_CALLS * 3:
                sample = random_form(rng, p, max_degree, letters, terms, parity)
                expected = element_sum_random_form(
                    reference, p, max_degree, letters, terms, parity
                )
                assert sample == expected
                assert rng.getstate() == reference.getstate()


def test_leibniz_exact_pair():
    report = check_leibniz([(gen("x"), gen("x"))], HC)
    assert report.passed
    assert exterior_d(word("x", "x"), HC) == word("dx", "x").scale(sc(2))


def test_leibniz_on_random_pairs():
    rng = random.Random(23)
    for p in (HC, QH):
        pairs = []
        while len(pairs) < 20:
            f = random_form(rng, p, 4, parity=rng.choice((0, 1)))
            if f.is_zero():
                continue
            pairs.append((f, random_form(rng, p, 4)))
        assert check_leibniz(pairs, p).passed


def test_leibniz_rejects_mixed_parity_left_factor():
    with pytest.raises(AlgebraError):
        check_leibniz([(gen("x") + gen("th"), gen("x"))], HC)


# -- d descends to the quotient --------------------------------------------------
# d is given on the free algebra by the graded Leibniz rule; it is well defined
# on the calculus exactly when it sends each relation among its letters to 0.
# As d also kills dx, dth and h, d^2 = [d, d]/2 is then an even derivation that
# kills every generator, so d^2 = 0 on the whole algebra, not only on samples.


def _failing_relations(p) -> list:
    """The reducible pairs (a, b) of d's letters for which d(a*b - nf(a*b))
    is not 0, out of the 13 that each calculus has."""
    letters = differential._FORM_LETTERS
    pairs = [(a, b) for a in letters for b in letters if p.reducible_pair(a, b)]
    assert len(pairs) == 13
    failing = []
    for pair in pairs:
        relation = Element.word(pair) - p.normal_form(Element.word(pair))
        if not exterior_d(relation, p).is_zero():
            failing.append(pair)
    return failing


@pytest.mark.parametrize("name", ["h-calculus", "qh-calculus", "q-calculus"])
def test_d_sends_every_relation_of_its_letters_to_zero(name):
    assert _failing_relations(get_presentation(name)) == []


@pytest.mark.parametrize("name", ["h-calculus", "qh-calculus", "q-calculus"])
def test_normal_words_count_as_the_undeformed_forms(name):
    # (1+t)^3/(1-t)^2 up to t^8: the deformation keeps the size of each degree
    counts = [0] * 9
    for m in monomial_basis(get_presentation(name), 8):
        counts[len(next(iter(m.words())))] += 1
    assert counts == [1, 5, 12, 20, 28, 36, 44, 52, 60]


def test_relation_check_of_d_fails_with_even_leibniz_signs(monkeypatch):
    monkeypatch.setattr(differential, "_LEIBNIZ_SIGNS", (ONE, ONE))
    assert _failing_relations(build_h_calculus()) == [
        ("th", "h"),
        ("th", "dth"),
        ("th", "dx"),
        ("th", "th"),
        ("x", "h"),
        ("x", "th"),
    ]


def test_relation_check_of_d_fails_with_a_wrong_rule_coefficient():
    relations = [
        "x*dth = dth*x - 2*h*dx*x" if text == "x*dth = dth*x - h*dx*x" else text
        for text in presentations.H_CALCULUS_RELATIONS
    ]
    assert relations != list(presentations.H_CALCULUS_RELATIONS)
    faulty = presentations._from_relations(
        "h-calculus",
        presentations.CALCULUS_GENERATORS,
        relations,
        derivatives=presentations.CALCULUS_DERIVATIVES,
    )
    assert _failing_relations(faulty) == [("x", "th")]


# -- operator realization --------------------------------------------------------


def test_operator_realization_matches_derivation():
    d = d_operator()
    assert d == word("dx", "px") + word("dth", "pth")
    rng = random.Random(31)
    for p in (HC, QH):
        for _ in range(20):
            f = random_form(rng, p, 4)
            assert p.act(d, f) == exterior_d(f, p)


def test_operator_relations_report():
    report = check_operator_relations(HC)
    assert report.passed
    assert len(report.entries) == 8
    labels = [entry.label for entry in report.entries]
    assert "d*x - x*d acts as dx" in labels
    assert "d anticommutes with pth" in labels
    assert all(entry.data["monomials"] == 66 for entry in report.entries)


def test_operator_report_wrapper():
    report = operator_report()
    assert report.passed
    assert report.presentation == "h-calculus"


def test_warm_operator_report_normalises_nothing(monkeypatch):
    # each residual is a sum of act, multiply and exterior_d results, so it
    # is a normal form already
    operator_report()
    calls = []
    plain_normal_form = algebra.Presentation.normal_form

    def counted_normal_form(self, element, **options):
        calls.append(element)
        return plain_normal_form(self, element, **options)

    monkeypatch.setattr(algebra.Presentation, "normal_form", counted_normal_form)
    assert operator_report().passed
    assert calls == []


# -- curl ------------------------------------------------------------------------


def test_curl_of_the_basic_one_form():
    assert curl(gen("th"), gen("x"), QH) == Element.scalar(Q - ONE)


def test_curl_vanishing_cases():
    zero = Element.zero()
    assert curl(zero, zero, QH).is_zero()
    assert curl(gen("x"), zero, QH).is_zero()
    # at the h-level the exchange coefficient is 1 and the curl cancels
    assert curl(gen("th"), gen("x"), HC).is_zero()


def test_curl_verifies_on_random_forms():
    rng = random.Random(41)
    for p in (HC, QH):
        for _ in range(15):
            w1 = random_form(rng, p, 3, letters=("h", "th", "x"))
            w2 = random_form(rng, p, 3, letters=("h", "th", "x"))
            value = curl(w1, w2, p)
            assert p.is_normal(value)


def test_curl_rejects_non_coordinate_input():
    with pytest.raises(UnsupportedGeneratorError):
        curl(gen("dx"), Element.zero(), QH)
    with pytest.raises(UnsupportedGeneratorError):
        curl(Element.zero(), gen("px"), QH)


# -- aggregate report ------------------------------------------------------------


def test_dsquared_report():
    report = dsquared_report()
    assert report.passed
    assert len(report.entries) == 4
    assert report.entries[0].data["samples"] == 202


def test_dsquared_report_under_another_seed():
    default = dsquared_report().to_json()
    report = dsquared_report(7)
    assert report.passed
    assert [report.entries[k].data for k in (0, 2)] == [{"samples": 202}] * 2
    pairs = {
        seed: [drawn for _, _, drawn in differential._dsquared_inputs(seed)]
        for seed in (7, 2024)
    }
    assert pairs[7] != pairs[2024]
    assert dsquared_report().to_json() == default


def test_dsquared_inputs_are_kept_for_a_bounded_number_of_seeds():
    cap = differential.DSQUARED_SEED_CAP
    for seed in range(cap + 1):
        differential._dsquared_inputs(seed)
    info = differential._dsquared_inputs.cache_info()
    assert info.maxsize == cap
    assert info.currsize == cap
    assert differential._dsquared_inputs(2024) is differential._dsquared_inputs(2024)


def test_dsquared_report_prints_the_first_failure_as_the_checks_do(monkeypatch):
    # a wrong d: right on short words, off by the identity on longer ones
    right = differential.exterior_d

    def wrong_d(a, p):
        longest = max((len(w) for w in a.words()), default=0)
        return right(a, p) + (a if longest >= 3 else Element.zero())

    monkeypatch.setattr(differential, "exterior_d", wrong_d)
    report = dsquared_report()
    rng = random.Random(2024)  # the report's default seed, drawn in its order
    expected = []
    for name in ("qh-calculus", "h-calculus"):
        p = get_presentation(name)
        samples = monomial_basis(p, 5) + [random_form(rng, p, 5) for _ in range(100)]
        expected.append(str(check_d_squared(samples, p).failures()[0]))
        pairs = []
        while len(pairs) < 100:
            f = random_form(rng, p, 4, parity=rng.choice((0, 1)))
            g = random_form(rng, p, 4)
            if not f.is_zero():
                pairs.append((f, g))
        expected.append(str(check_leibniz(pairs, p).failures()[0]))
    assert [entry.normal_form for entry in report.entries] == expected
    assert not any(entry.passed for entry in report.entries)
    assert not expected[0].startswith("[FAIL] d^2(1) = 0")  # not the first sample


def test_memo_hits_of_d_and_act_hand_back_the_stored_element():
    assert d_operator() is d_operator()
    p = build_h_calculus()
    for w in (("x", "th"), ("th", "dx", "x"), ()):
        first = exterior_d(Element.word(w), p)
        second = exterior_d(Element.word(w), p)
        assert second is p.d_memo[w] is exterior_d(Element.word(w), p)
        assert second == first
        first = p.act(d_operator(), Element.word(w))
        second = p.act(d_operator(), Element.word(w))
        assert second is p.act(d_operator(), Element.word(w))
        assert second == first


def test_warm_pass_finds_act_memos_by_identity(monkeypatch):
    # the operators of the exchange identities are built once, so each act
    # finds its memo without comparing elements
    run_suite("all")
    callers = []
    plain_eq = Element.__eq__

    def counted_eq(self, other):
        callers.append(sys._getframe(1).f_code)
        return plain_eq(self, other)

    monkeypatch.setattr(Element, "__eq__", counted_eq)
    assert run_suite("all").passed
    assert algebra.Presentation.act.__code__ not in callers


def _memo_values() -> list:
    """Each value held by the ``_nf_cache``, ``d_memo`` and ``_act_memo`` of
    the catalogue's presentations, as (its term dict, a copy of it)."""
    held = []
    for p in presentations._CACHE.values():
        dicts = list(p._nf_cache.values())
        dicts += [image._terms for image in p.d_memo.values()]
        dicts += [image._terms for memo in p._act_memo.values() for image in memo.values()]
        held += [(terms, dict(terms)) for terms in dicts]
    return held


SHARED_STEPS = st.lists(
    st.tuples(
        st.sampled_from(("+", "-", "scale", "multiply", "d", "act")),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.sampled_from((ONE, sc(-1), sc(0), Q, sc(2) - Q)),
    ),
    max_size=10,
)


def test_shared_memo_values_are_never_mutated():
    """Memo hits hand back the stored terms: arithmetic on what they return,
    and a second warm pass, leave every stored value as it was."""
    run_suite("all")
    held = _memo_values()
    pool = [Element.zero()]
    for w in list(HC.d_memo):
        m = Element.word(w)
        pool += [HC.normal_form(m), exterior_d(m, HC), HC.act(d_operator(), m)]
    operations = {
        "+": lambda a, b, c: a + b,
        "-": lambda a, b, c: a - b,
        "scale": lambda a, b, c: a.scale(c),
        "multiply": lambda a, b, c: HC.multiply(a, b),
        "d": lambda a, b, c: exterior_d(a, HC),
        "act": lambda a, b, c: HC.act(d_operator(), a),
    }

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(SHARED_STEPS)
    def arithmetic(steps):
        values = list(pool)
        for op, i, j, c in steps:
            # the right factor of a product is a memo value, so degrees stay small
            a, b = values[i % len(values)], pool[j % len(pool)]
            values.append(operations[op](a, b, c))

    arithmetic()
    run_suite("all")
    assert len(held) > 1000 and len(pool) > 100
    assert [copy for terms, copy in held if terms != copy] == []


def test_d_and_act_agree_warm_and_fresh():
    warm = build_h_calculus()
    rng = random.Random(31)
    samples = [random_form(rng, warm, 4) for _ in range(20)]
    d = d_operator()
    for s in samples:
        exterior_d(3 * s + word("x", "th"), warm)
        warm.act(d, -2 * s)
        warm.act(gen("px"), 5 * s)
    for s in samples:
        fresh = build_h_calculus()
        assert exterior_d(s, warm) == exterior_d(s, fresh)
        assert warm.act(d, s) == fresh.act(d, s)
        assert warm.act(gen("pth"), s) == fresh.act(gen("pth"), s)


def test_word_memos_past_their_cap_keep_their_values(monkeypatch):
    """With the word-memo cap at 2, d, act, a morphism, a star and
    normal_form clear their memos on nearly every call; each value still
    equals the one computed with fresh memos, and no memo holds more than
    the cap plus the words of the call that filled it."""
    monkeypatch.setattr(algebra, "WORD_MEMO_CAP", 2)
    capped = build_h_calculus()
    images = {g.name: gen(g.name) for g in capped.generators}
    images["x"] = 2 * gen("x") + word("h", "th")
    f, star = AlgebraMorphism(capped, capped, images), InvolutionSpec(capped, images)
    operators = (d_operator(), gen("px"), gen("pth"))
    rng = random.Random(37)
    for _ in range(12):
        s = random_form(rng, capped, 4, terms=4)
        fresh = build_h_calculus()
        n = s.term_count()
        assert exterior_d(s, capped) == exterior_d(s, fresh)
        assert len(capped.d_memo) <= 2 + n
        for op in operators:
            assert capped.act(op, s) == fresh.act(op, s)
            assert len(capped._act_memo[op]) <= 2 + n
        assert len(capped._act_memo) <= 2
        assert f(s) == AlgebraMorphism(fresh, fresh, images)(s)
        assert star(s) == InvolutionSpec(fresh, images)(s)
        assert len(f._memo) <= 2 + n and len(star._memo) <= 2 + n
        product = s * random_form(rng, capped, 3)
        assert capped.normal_form(product) == fresh.normal_form(product)
        assert len(capped._nf_cache) <= 2 + product.term_count()


def test_word_memos_never_pass_their_cap(monkeypatch):
    """Each word memo makes room before it grows, so with the cap at 2 no
    memo holds more than 2 entries after any call, however many words the
    call brings."""
    monkeypatch.setattr(algebra, "WORD_MEMO_CAP", 2)
    capped = build_h_calculus()
    images = {g.name: gen(g.name) for g in capped.generators}
    f = AlgebraMorphism(capped, capped, images)
    operators = (d_operator(), gen("px"), gen("pth"))
    rng = random.Random(41)
    for _ in range(12):
        s = random_form(rng, capped, 4, terms=5)
        exterior_d(s, capped)
        assert len(capped.d_memo) <= 2
        for op in operators:
            capped.act(op, s)
            assert len(capped._act_memo) <= 2
            assert all(len(memo) <= 2 for memo in capped._act_memo.values())
        f(s)
        assert len(f._memo) <= 2
        capped.normal_form(s * random_form(rng, capped, 3, terms=4))
        assert len(capped._nf_cache) <= 2
