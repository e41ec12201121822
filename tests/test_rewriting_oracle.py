"""``Presentation.normal_form`` checked against a plain leftmost reducer.

The reducer below reads only a presentation's public rules, generator order
and parities, and follows every rewrite path to its end with no cache, no
memo and no pair table.  Random words are drawn for every catalogue entry,
with lengths capped per entry so that the reference stays fast; on each the
engine must agree with the reference, be idempotent, return a normal
element, and be linear.  The leftmost and rightmost strategies must agree
on random words for every catalogue entry, and a presentation whose
product table and cache were filled by earlier calls must give the normal
forms of a freshly built one.  A non-confluent presentation pins down the
leftmost semantics, where strategies disagree.  A planted presentation
whose one-term rules carry non-unit coefficients checks the single-term
rewrites.  ``multiply`` must equal the normal form of the free product and
normalise exactly its words.  The kernel behind it, ``_add_products``, must
add the normal form of a sum of products to the dict it is given, fold
exactly the uncached words of the free sum once they cancel, and change no
cached value.  Emptying a presentation's stops, so that each
product is keyed by its whole word, must change no normal form or product;
so must emptying its blocks, so that an interleaved word is folded as it
stands rather than as its block-sorted word.  A product stored apart from
the head of its word is put behind that head with the central letter's
Koszul sign.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsuperplane.algebra import Element, Presentation, word
from hsuperplane.presentations import CATALOGUE_NAMES, get_presentation
from hsuperplane.scalar import I, ONE, Q, sc

# derandomized, so the tier-1 run is deterministic; no example database on disk
ORACLE = settings(derandomize=True, database=None, deadline=None, max_examples=80)

# longest random word per catalogue entry; qh-calculus words branch the most
MAX_LENGTH = {"qh-calculus": 7, "q-calculus": 7}
DEFAULT_MAX_LENGTH = 9

SCALARS = (ONE, sc(-1), sc(3), Q, Q**-1, sc(2) - Q, ONE / (Q - 1))


def rewrite_at(p: Presentation, rules: dict, w: tuple, i: int):
    """The (word, coefficient) terms of one rewrite at i; None if inert."""
    a, b = w[i], w[i + 1]
    head, tail = w[:i], w[i + 2:]
    if (a, b) in rules:
        return [(head + rw + tail, c) for rw, c in rules[a, b].items()]
    ga, gb = p.generator(a), p.generator(b)
    if a == b:
        return [] if ga.parity else None
    if ga.order_index > gb.order_index:
        sign = sc(-1) if ga.parity and gb.parity else ONE
        return [(head + (b, a) + tail, sign)]
    return None


def plain_leftmost(p: Presentation, element: Element) -> Element:
    rules = p.rules
    total = Element.zero()
    paths = list(element.items())
    while paths:
        w, c = paths.pop()
        for i in range(len(w) - 1):
            steps = rewrite_at(p, rules, w, i)
            if steps is not None:
                paths.extend((w2, c * c2) for w2, c2 in steps)
                break
        else:
            total = total + Element.word(w, c)
    return total


def words_of(name: str):
    p = get_presentation(name)
    return st.lists(
        st.sampled_from(p.generator_names()),
        max_size=MAX_LENGTH.get(name, DEFAULT_MAX_LENGTH),
    ).map(tuple)


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_normal_form_matches_plain_leftmost(name):
    p = get_presentation(name)

    @ORACLE
    @given(words_of(name), words_of(name), st.sampled_from(SCALARS), st.sampled_from(SCALARS))
    def check(w1, w2, a, b):
        e1, e2 = Element.word(w1), Element.word(w2)
        nf1 = p.normal_form(e1)
        assert nf1 == plain_leftmost(p, e1)
        assert p.is_normal(nf1)
        assert p.normal_form(nf1) == nf1
        nf2 = p.normal_form(e2)
        assert p.normal_form(e1 * a + e2 * b) == nf1 * a + nf2 * b

    check()


# Words for the strategy check are capped at 6 letters: on coaction-product
# the memo-free rightmost strategy exceeds its work budget on some 10-letter
# words.
STRATEGIES = settings(ORACLE, max_examples=40)


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_strategies_agree(name):
    p = get_presentation(name)

    @STRATEGIES
    @given(st.lists(st.sampled_from(p.generator_names()), max_size=6).map(tuple))
    def check(w):
        e = Element.word(w)
        assert p.normal_form(e) == p.normal_form(e, strategy="rightmost")

    check()


def rebuilt(p: Presentation) -> Presentation:
    """A fresh presentation, with empty caches, from ``p``'s public data."""
    return Presentation(p.name, p.generators, p.rules.items(), derivatives=p.derivatives)


WARM = settings(ORACLE, max_examples=40)


# With a cap of 4 the product table is cleared at the start of almost every
# call, so later calls rewrite into a table that lost what earlier ones stored.
@pytest.mark.parametrize("cap", [None, 4])
@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_warm_presentation_matches_fresh_one(name, cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(Presentation, "PRODUCT_TABLE_CAP", cap)
    p = get_presentation(name)
    warm = rebuilt(p)
    short_words = st.lists(st.sampled_from(p.generator_names()), max_size=6).map(tuple)

    @WARM
    @given(st.lists(words_of(name), max_size=4), short_words)
    def check(history, w):
        for earlier in history:
            warm.normal_form(Element.word(earlier))
        e = Element.word(w)
        nf = warm.normal_form(e)
        assert nf == rebuilt(p).normal_form(e)
        assert nf == warm.normal_form(e, strategy="rightmost")

    check()


def test_rightmost_reads_neither_the_cache_nor_the_product_table():
    # a wrong cached normal form of x*th, and a wrong product for (x, th),
    # which the leftmost walk of x*x*th reads
    p = rebuilt(get_presentation("q-superplane"))
    inputs = (word("x", "th"), word("x", "x", "th"))
    expected = [p.normal_form(e, strategy="rightmost") for e in inputs]
    p._nf_cache[("x", "th")] = {("x",): sc(5)}
    p._products[("x",), "th"] = ((("x",), sc(5)),)
    for e, nf in zip(inputs, expected):
        assert p.normal_form(e) != nf
        assert p.normal_form(e, strategy="rightmost") == nf


def non_confluent() -> Presentation:
    return Presentation(
        "nc",
        [("u", 0), ("v", 0)],
        [(("v", "u"), 2 * word("u", "v")), (("v", "v"), word("u"))],
    )


def test_non_confluent_presentation_keeps_leftmost_semantics():
    p = non_confluent()
    assert not p.check_confluence().passed
    vvu = word("v", "v", "u")
    assert p.normal_form(vvu) == word("u", "u")
    assert p.normal_form(vvu) == plain_leftmost(p, vvu)
    assert p.normal_form(vvu, strategy="rightmost") == 4 * word("u", "u")


def planted() -> Presentation:
    """A confluent presentation whose one-term rules carry the coefficients
    i, -i, q and 1/q and feed the two-term rule y*x = q*x*y + 1; s*s = q is a
    one-term rule to the empty word and t*t = 0 a rewrite with no term."""
    return Presentation(
        "planted",
        [("x", 0), ("y", 0), ("z", 0), ("w", 0), ("s", 1), ("t", 1)],
        [
            (("y", "x"), Q * word("x", "y") + ONE),
            (("z", "x"), I * word("x", "z")),
            (("z", "y"), -I * word("y", "z")),
            (("w", "x"), Q * word("x", "w")),
            (("w", "y"), Q**-1 * word("y", "w")),
            (("w", "z"), I * word("z", "w")),
            (("s", "s"), Element.scalar(Q)),
        ],
    )


PLANTED = planted()


def test_planted_presentation_is_confluent():
    assert planted().check_confluence().passed


@settings(ORACLE, max_examples=150)
@given(st.lists(st.sampled_from("xyzwst"), max_size=6).map(tuple))
def test_one_term_rewrites_keep_their_coefficients(w):
    """Single-term rewrites are inserted without a ``_product`` frame; the
    coefficient they carry must reach every word that the rewrite leads to,
    in a fresh presentation and in one whose product table earlier words
    filled."""
    e = Element.word(w)
    expected = plain_leftmost(PLANTED, e)
    for p in (planted(), PLANTED):
        assert p.normal_form(e) == expected
        assert p.normal_form(e, strategy="rightmost") == expected


# Factors of up to three letters keep every product short enough for the
# reference-free comparison below on every catalogue entry.
MULTIPLY = settings(ORACLE, max_examples=30)


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_multiply_normalises_the_words_of_the_product(name):
    """``multiply(a, b)`` equals ``normal_form(a * b)`` and normalises
    exactly the words of ``a * b``: the factors (u + u*v) and (v*w - w)
    cancel the word u*v*w before any rewriting."""
    p = get_presentation(name)
    names = st.sampled_from(p.generator_names())
    terms = st.tuples(st.lists(names, max_size=3).map(tuple), st.sampled_from(SCALARS))
    elements = st.lists(terms, max_size=3).map(
        lambda pairs: sum((Element.word(w, c) for w, c in pairs), Element.zero())
    )

    @MULTIPLY
    @given(elements, elements, names, names, names)
    def check(a, b, u, v, w):
        a = a + word(u) + word(u, v)
        b = b + word(v, w) - word(w)
        product = a * b
        p._nf_cache.clear()
        via_multiply = p.multiply(a, b)
        normalised = set(p._nf_cache)
        assert via_multiply == p.normal_form(product)
        assert normalised == set(product.words())

    check()


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_add_products_reads_cached_words_and_folds_the_cancelled_rest(name, monkeypatch):
    """``_add_products(out, products)`` adds the sum of sign * normal_form(a * b)
    to ``out``.  It folds exactly the words of the free sum that the cache
    lacks, after they cancel across its triples: the last two triples always
    cancel the word u*v*w.  It reads the other words from the cache and
    changes no cached value."""
    p = get_presentation(name)
    kernel = rebuilt(p)
    folded = []
    fold_word = kernel._fold_word

    def recorded(start, spent, budget):
        folded.append(start)
        return fold_word(start, spent, budget)

    monkeypatch.setattr(kernel, "_fold_word", recorded)
    names = st.sampled_from(p.generator_names())
    terms = st.tuples(st.lists(names, max_size=3).map(tuple), st.sampled_from(SCALARS))
    elements = st.lists(terms, max_size=3).map(
        lambda pairs: sum((Element.word(w, c) for w, c in pairs), Element.zero())
    )
    triples = st.lists(
        st.tuples(elements, elements, st.sampled_from((ONE, sc(-1)))), min_size=1, max_size=3
    )

    @MULTIPLY
    @given(triples, elements, names, names, names, st.randoms(use_true_random=False))
    def check(triples, start, u, v, w, rng):
        triples = triples + [(word(u), word(v, w), ONE), (word(u, v), word(w), sc(-1))]
        free = sum(((a * b).scale(sign) for a, b, sign in triples), Element.zero())
        expected = start + sum(
            (p.normal_form(a * b).scale(sign) for a, b, sign in triples), Element.zero()
        )
        products = [(a._terms, b._terms, sign) for a, b, sign in triples]
        words = sorted({w1 + w2 for a, b, _ in triples for w1 in a.words() for w2 in b.words()})
        for warm in (False, True):
            kernel._nf_cache.clear()
            for cached in words:
                if warm and rng.random() < 0.5:
                    kernel.normal_form(Element.word(cached))
            before = dict(kernel._nf_cache)
            snapshot = {cached: dict(terms) for cached, terms in before.items()}
            folded.clear()
            out = dict(start._terms)
            assert kernel._add_products(out, products) is out
            assert Element(out) == expected
            assert sorted(folded) == sorted(set(free.words()) - set(before))
            for cached, terms in before.items():
                assert kernel._nf_cache[cached] is terms
                assert terms == snapshot[cached]

    check()


# A presentation whose stops are emptied keys every product v*g by the whole
# word v, as the engine did before stops; every normal form and product must
# be the same, in a presentation whose table earlier examples filled.
STOPLESS = settings(ORACLE, max_examples=40)


@pytest.mark.parametrize("name", [*CATALOGUE_NAMES, "planted", "nc"])
def test_stops_change_no_normal_form(name):
    build = {"planted": planted, "nc": non_confluent}.get(name) or (
        lambda: rebuilt(get_presentation(name))
    )
    p, stopless = build(), build()
    stopless._stops = {}
    # the planted presentation's central letter t comes last, so it has none
    assert bool(p._stops) is (name != "planted")
    words = st.lists(
        st.sampled_from(p.generator_names()), max_size=MAX_LENGTH.get(name, DEFAULT_MAX_LENGTH)
    ).map(tuple)
    elements = st.lists(st.tuples(words, st.sampled_from(SCALARS)), min_size=1, max_size=3).map(
        lambda pairs: sum((Element.word(w, c) for w, c in pairs), Element.zero())
    )

    @STOPLESS
    @given(elements, elements)
    def check(a, b):
        assert p.normal_form(a) == stopless.normal_form(a)
        assert p.multiply(a, b) == stopless.multiply(a, b)

    check()


# A presentation whose blocks are emptied folds each word as it stands, with
# no sort and no shuffle sign; every normal form and product must be the same,
# in a presentation whose table earlier examples filled.
BLOCKLESS = settings(ORACLE, max_examples=40)


@pytest.mark.parametrize("name", ["q-superplane", "coaction-product", "planted"])
def test_block_sort_changes_no_normal_form(name):
    build = {"planted": planted}.get(name) or (lambda: rebuilt(get_presentation(name)))
    p, blockless = build(), build()
    blockless._blocks = {}
    # planted's blocks are {x, y, z, w} and {s}; its central letter t comes last
    assert max(p._blocks.values()) == 2
    words = st.lists(
        st.sampled_from(p.generator_names()), max_size=DEFAULT_MAX_LENGTH
    ).map(tuple)
    elements = st.lists(st.tuples(words, st.sampled_from(SCALARS)), min_size=1, max_size=3).map(
        lambda pairs: sum((Element.word(w, c) for w, c in pairs), Element.zero())
    )

    @BLOCKLESS
    @given(elements, elements)
    def check(a, b):
        assert p.normal_form(a) == blockless.normal_form(a)
        assert p.multiply(a, b) == blockless.multiply(a, b)

    check()


# head*x*th splits after head's last stop for th, so the product x*th =
# th*x + h*x*x is stored apart from head and its terms are put behind head:
# the term led by the central letter h moves in front of head with the Koszul
# sign (-1)**parity(head), or vanishes when head starts with h.
@pytest.mark.parametrize(
    "name, head, sign",
    [
        ("h-calculus", ("dth",), 1),
        ("h-calculus", ("dx",), -1),
        ("h-calculus", ("dth", "dx"), -1),
        ("h-calculus", ("h", "dx"), 0),
        ("coaction-product", ("a",), 1),
        ("coaction-product", ("bt",), -1),
        ("coaction-product", ("a", "bt", "dx"), 1),
        ("coaction-product", ("h", "a"), 0),
    ],
)
def test_central_letter_moves_in_front_of_the_head(name, head, sign):
    p = rebuilt(get_presentation(name))
    e = Element.word(head + ("x", "th"))
    nf = p.normal_form(e)
    assert list(p._products) == [(("x",), "th")]
    assert nf == Element.word(head + ("th", "x")) + sign * Element.word(("h",) + head + ("x", "x"))
    assert nf == plain_leftmost(p, e)
