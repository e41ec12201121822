"""Free elements, Koszul-sign rewriting, confluence, morphisms, star maps."""

import itertools
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsuperplane.algebra import (
    AlgebraMorphism,
    Element,
    InvolutionSpec,
    NonTerminatingError,
    Presentation,
    RuleError,
    UnknownGeneratorError,
    gen,
    word,
)
from hsuperplane.cli import run_suite
from hsuperplane.presentations import (
    CALCULUS_DERIVATIVES,
    CALCULUS_GENERATORS,
    CATALOGUE_NAMES,
    build_coaction_product,
    build_gl_h11,
    build_h_calculus,
    build_q_superplane,
    build_qh_rules,
    get_presentation,
    set_h_to_zero,
)
from hsuperplane.scalar import I, ONE, Q, qpow, sc


@pytest.fixture
def plane():
    """q-superplane with differentials: a small confluent system."""
    return Presentation(
        "plane",
        [("h", 1), ("dth", 0), ("dx", 1), ("th", 1), ("x", 0)],
        [
            (("x", "th"), Q * word("th", "x")),
            (("th", "th"), Element.zero()),
            (("dx", "dx"), Element.zero()),
            (("dx", "dth"), qpow(-1) * word("dth", "dx")),
            (("h", "h"), Element.zero()),
        ],
    )


# -- elements -----------------------------------------------------------------


def test_element_linear_structure():
    a = word("x", "th") + 2 * word("th")
    b = word("th") - word("x", "th")
    assert a + b == 3 * word("th")
    assert a - a == Element.zero()
    assert (a + b).coefficient(("th",)) == sc(3)
    assert not Element.zero()
    assert Element.zero() + 0 == Element.zero()


def test_element_free_product_concatenates():
    a = word("x") + word("th")
    b = word("dx")
    assert a * b == word("x", "dx") + word("th", "dx")
    # the free product never reorders or inserts signs
    assert word("th") * word("dx") == word("th", "dx")
    assert (2 * word("x")) * (3 * word("x")) == 6 * word("x", "x")


def test_element_scalar_coercion():
    assert word("x") * 2 == 2 * word("x")
    assert Q * word("x") == word("x") * Q
    assert word("x") + 1 == word("x") + Element.scalar(1)
    assert (word("x") * 0).is_zero()


def test_element_equality_and_hash():
    a = word("x", "th") + word("th")
    b = word("th") + word("x", "th")
    assert a == b
    assert hash(a) == hash(b)
    assert a != Element.zero()
    assert len({a, b}) == 1


def test_element_helpers():
    e = word("h", "x") + word("x", "x") + Element.scalar(5)
    assert e.max_letter_count("x") == 2
    assert e.max_letter_count("h") == 1
    assert e.drop_words_containing("h") == word("x", "x") + Element.scalar(5)
    assert Element.scalar(5).is_scalar()
    assert not e.is_scalar()
    assert e.scalar_part() == sc(5)


def test_element_immutable():
    e = word("x")
    with pytest.raises(AttributeError):
        e._terms = {}


def test_identities_hand_back_the_element():
    x = word("x", "th") + Q * word("th")
    assert x + Element.zero() is x
    assert Element.zero() + x is x
    assert x + 0 is x
    assert 0 + x is x
    assert x - 0 is x
    assert x - Element.zero() is x
    assert x.scale(1) is x
    assert x.scale(ONE) is x


def normal_elements(p: Presentation):
    """Normal forms of sums of up to four words of ``p`` of length up to 4."""
    words = st.lists(st.sampled_from(p.generator_names()), max_size=4).map(tuple)
    scalars = st.sampled_from((ONE, sc(-1), sc(3), Q, qpow(-1), sc(2) - Q, I))
    return st.lists(st.tuples(words, scalars), max_size=4).map(
        lambda terms: p.normal_form(sum((Element.word(w, c) for w, c in terms), Element()))
    )


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_arithmetic_agrees_with_the_checked_constructor(name):
    # subtraction, _wrap and the cached hash skip the checks of __init__
    elements = normal_elements(get_presentation(name))

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(elements, elements, st.integers(-20, 20))
    def check(a, b, k):
        difference = a - b
        assert difference == a + (-b)
        assert all(not c.is_zero() for _, c in difference.items())
        assert (a - a).term_count() == 0
        # equal elements hash alike however they were built, hashed before or not
        hashed = hash(difference)
        terms = dict(difference.items())
        for twin in (Element(terms), Element._wrap(dict(terms)), a + (-b), -(b - a)):
            assert twin == difference
            assert hash(twin) == hashed == hash(twin)
        # a scalar element hashes like its ScalarQ and its int
        scalar = (a + k) - a
        assert scalar == Element.scalar(k)
        assert hash(scalar) == hash(sc(k)) == hash(k) == hash(Element.scalar(k))

    check()


# -- rewriting -----------------------------------------------------------------


def test_explicit_rule_applies(plane):
    assert plane.normal_form(word("x", "th")) == Q * word("th", "x")


def test_default_koszul_swap(plane):
    # th(odd) past dx(odd): sign -1; x(even) past dth: sign +1
    assert plane.normal_form(word("th", "dx")) == -word("dx", "th")
    assert plane.normal_form(word("x", "dth")) == word("dth", "x")
    assert plane.normal_form(word("x", "dx")) == word("dx", "x")


def test_default_odd_square_vanishes(plane):
    assert plane.normal_form(word("dx", "dx")).is_zero()
    assert plane.normal_form(word("h", "th", "h")).is_zero()


def test_normal_form_is_linear(plane):
    rng = random.Random(11)
    names = plane.generator_names()
    for _ in range(20):
        w1 = tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
        w2 = tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
        a, b = Element.word(w1), Element.word(w2)
        c = sc(rng.randint(-3, 3))
        lhs = plane.normal_form(a * c + b)
        rhs = plane.normal_form(a) * c + plane.normal_form(b)
        assert lhs == plane.normal_form(rhs)


def test_normal_form_idempotent(plane):
    rng = random.Random(12)
    names = plane.generator_names()
    for _ in range(30):
        w = tuple(rng.choice(names) for _ in range(rng.randint(0, 5)))
        nf = plane.normal_form(Element.word(w))
        assert plane.normal_form(nf) == nf
        assert plane.is_normal(nf)


def test_strategy_independence(plane):
    rng = random.Random(13)
    names = plane.generator_names()
    for _ in range(40):
        w = tuple(rng.choice(names) for _ in range(rng.randint(0, 6)))
        e = Element.word(w)
        assert plane.normal_form(e) == plane.normal_form(e, strategy="rightmost")


def test_multiply_is_associative_after_reduction(plane):
    rng = random.Random(14)
    names = plane.generator_names()
    for _ in range(15):
        ws = [Element.word(tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))) for _ in range(3)]
        a, b, c = ws
        assert plane.multiply(plane.multiply(a, b), c) == plane.multiply(a, plane.multiply(b, c))


def test_normal_words_sorted_with_explicit_exceptions(plane):
    # every normal word has no descending or repeated-odd adjacent pair
    nf = plane.normal_form(word("x", "x", "th", "dx"))
    for w, _ in nf.items():
        assert plane.is_normal(Element.word(w))
        for i in range(len(w) - 1):
            assert not plane.reducible_pair(w[i], w[i + 1])


def test_nontermination_detected():
    runaway = Presentation(
        "runaway",
        [("u", 0), ("v", 0)],
        [(("v", "u"), word("u", "u", "v", "v"))],
    )
    with pytest.raises(NonTerminatingError):
        runaway.normal_form(word("v", "v", "u"), max_steps=500)


def test_budget_error_names_start_word_length_and_work():
    runaway = Presentation(
        "runaway",
        [("u", 0), ("v", 0)],
        [(("v", "u"), word("u", "u", "v", "v"))],
    )
    with pytest.raises(NonTerminatingError, match=r"start word v\*v\*u, current word of length \d+, \d+ work units"):
        runaway.normal_form(word("v", "v", "u"), max_steps=500)


def test_budget_error_pins_the_work_units_spent():
    # One swap rule and the one-term runaway rule: each product-table miss is
    # charged the length of its word, whether its rewrite has one term or more.
    plane = build_q_superplane()
    with pytest.raises(NonTerminatingError, match=r"current word of length 53, 513 work units spent$"):
        plane.normal_form(Element.word(("x",) * 60 + ("th",)), max_steps=500)
    runaway = Presentation(
        "runaway",
        [("u", 0), ("v", 0)],
        [(("v", "u"), word("u", "u", "v", "v"))],
    )
    with pytest.raises(NonTerminatingError, match=r"current word of length 33, 528 work units spent$"):
        runaway.normal_form(word("v", "v", "u"), max_steps=500)


def test_rewriting_cycle_raises():
    # The construction checks reject every cyclic rule set found so far, so
    # the cycle a*b -> b*a -> a*b is planted in the compiled pair table.
    p = Presentation("cyclic", [("a", 0), ("b", 0)])
    p._pairs[("a", "b")] = ((("b", "a"), ONE),)
    with pytest.raises(NonTerminatingError, match=r"start word a\*b, current word of length 2, 4 work units"):
        p.normal_form(word("a", "b"))
    with pytest.raises(NonTerminatingError):
        p.normal_form(word("a", "b"), strategy="rightmost", max_steps=1000)


def test_failed_call_leaves_no_pending_product():
    # the pairs still being rewritten when the budget runs out are unmarked,
    # so a later call does not mistake them for a cycle
    p = build_q_superplane()
    e = Element.word(("x",) * 60 + ("th",))
    with pytest.raises(NonTerminatingError, match="budget of 500 work units"):
        p.normal_form(e, max_steps=500)
    assert p.normal_form(e) == p.normal_form(e, strategy="rightmost")


def test_long_word_needs_no_deep_recursion():
    # th moves left past 1500 x's: a chain of 1500 pairs, each waiting on the next
    p = build_q_superplane()
    e = Element.word(("x",) * 1500 + ("th",))
    assert p.normal_form(e) == Element.word(("th",) + ("x",) * 1500, qpow(1500))


def test_product_table_is_cleared_past_its_cap(plane):
    plane.PRODUCT_TABLE_CAP = 0
    plane.normal_form(word("x", "th"))
    assert plane._products
    plane.normal_form(word("x", "th"))  # a cached input word adds no product
    assert not plane._products


def test_product_table_holds_only_finished_products():
    # th moves left past two x's, so the pair (x*x, th) is still being
    # rewritten when its inner pair (x, th) is charged to the budget
    p = build_q_superplane()
    spend = p._spend
    finished = []

    def watched(*args):
        finished.append(all(type(terms) is tuple for terms in p._products.values()))
        return spend(*args)

    p._spend = watched
    assert p.normal_form(word("x", "x", "th")) == Element.word(("th", "x", "x"), qpow(2))
    assert finished == [True, True]


def test_one_term_chain_stores_only_its_head():
    # th moves left past x*x in one chain of swaps: the pair (x, th) that the
    # chain passes through is rewritten but not stored
    p = build_q_superplane()
    assert p.normal_form(word("x", "x", "th")) == Element.word(("th", "x", "x"), qpow(2))
    assert list(p._products) == [(("x", "x"), "th")]


def test_chain_stops_at_a_stored_product():
    # (x, th) is in the table, so the chain from (x*x*x, th) charges 4 + 3
    # units and takes the stored product instead of rewriting it again
    p = build_q_superplane()
    p.normal_form(word("x", "th"))
    e = word("x", "x", "x", "th")
    with pytest.raises(NonTerminatingError, match=r"current word of length 3, 7 work units spent$"):
        p.normal_form(e, max_steps=6)
    assert p.normal_form(e, max_steps=7) == Element.word(("th", "x", "x", "x"), qpow(3))


def test_cycle_reached_inside_a_chain_raises():
    # the planted cycle a*b -> b*a -> a*b is first met inside the chain from
    # (a*a, b); a chain step is not pending, so the units are not pinned
    p = Presentation("cyclic", [("a", 0), ("b", 0)])
    p._pairs[("a", "b")] = ((("b", "a"), ONE),)
    with pytest.raises(NonTerminatingError, match="cycles back"):
        p.normal_form(word("a", "a", "b"))
    # b*b is still pending when the chain from (b*c, a) reaches it: the chain
    # raises there, before rewriting b*b again
    p = Presentation("planted", [("a", 0), ("b", 0), ("c", 0)])
    p._pairs[("b", "b")] = ((("c", "b", "a"), ONE),)
    p._pairs[("c", "a")] = ((("b",), ONE),)
    with pytest.raises(NonTerminatingError, match=r"cycles back .* length 2, 7 work units spent$"):
        p.normal_form(word("b", "b", "a"))


def test_normal_word_folds_in_linear_time():
    # a word with no reducible pair is its own normal form, found by one scan
    p = build_q_superplane()
    e = Element.word(("x",) * 20000)
    t0 = time.perf_counter()
    assert p.normal_form(e) == e
    assert time.perf_counter() - t0 < 0.5


def test_unknown_letters_raise_in_every_word(plane):
    for strategy in ("leftmost", "rightmost"):
        for w in (("zzz",), ("x", "zzz"), ("zzz", "x")):
            with pytest.raises(UnknownGeneratorError):
                plane.normal_form(Element.word(w), strategy=strategy)
    with pytest.raises(UnknownGeneratorError):
        plane.is_normal(word("zzz"))


def test_step_budget_generous_enough(plane):
    # a modestly deep word reduces comfortably within the default budget
    e = Element.word(tuple(["x", "th", "dx", "dth"] * 3))
    plane.normal_form(e)


# -- construction validation -----------------------------------------------------


def test_rejects_unknown_generator():
    with pytest.raises(UnknownGeneratorError):
        Presentation("p", [("x", 0)], [(("x", "y"), Element.zero())])
    with pytest.raises(UnknownGeneratorError):
        Presentation("p", [("x", 0)], [(("x", "x"), word("z"))])


def test_rejects_reserved_and_duplicate_names():
    with pytest.raises(UnknownGeneratorError):
        Presentation("p", [("q", 0)])
    with pytest.raises(UnknownGeneratorError):
        Presentation("p", [("x", 0), ("x", 1)])


def test_rejects_parity_mismatch():
    with pytest.raises(RuleError):
        # odd lhs, even rhs term
        Presentation(
            "p",
            [("a", 1), ("b", 0)],
            [(("b", "a"), word("b"))],
        )


def test_rejects_ascending_non_unit_rule():
    with pytest.raises(RuleError):
        Presentation("p", [("a", 0), ("b", 0)], [(("a", "b"), word("b", "a"))])


def test_accepts_ascending_unit_rule():
    p = Presentation(
        "units",
        [("a", 0), ("ai", 0)],
        [(("a", "ai"), Element.scalar(1)), (("ai", "a"), Element.scalar(1))],
    )
    assert p.normal_form(word("a", "ai", "a")) == word("a")


def test_rejects_self_referential_rule():
    with pytest.raises(RuleError):
        Presentation("p", [("a", 0), ("b", 0)], [(("b", "a"), word("b", "a"))])


def test_rejects_non_decreasing_rhs():
    with pytest.raises(RuleError):
        # square rule growing to a longer word of equal measure rank
        Presentation("p", [("a", 0), ("b", 0)], [(("b", "b"), word("a", "a", "a"))])


def test_rejects_an_rhs_left_unnormalised():
    # the class normalises each right side first, so its check of normal
    # rhs terms fires only for a normal_form that returns its input
    class Unnormalised(Presentation):
        def normal_form(self, element, **options):
            return element

    generators = [("a", 1), ("b", 0), ("c", 0)]
    rules = [(("c", "b"), word("a", "a"))]
    assert Presentation("p", generators, rules).rules[("c", "b")].is_zero()
    with pytest.raises(RuleError, match=r"rule \('c', 'b'\): rhs term \('a', 'a'\) is not in"):
        Unnormalised("p", generators, rules)


def test_looping_rules_fail_construction():
    with pytest.raises(NonTerminatingError):
        # two rules feeding each other: normalising either rhs diverges
        Presentation(
            "loop",
            [("a", 0), ("b", 0)],
            [(("b", "a"), word("a", "a", "b", "b")), (("b", "b"), word("b", "a"))],
        )


# Traced peak allocation, in MB of 10**6 bytes, of building the looping rule
# set above at the default budget: one word per pair still being rewritten
# is kept until the budget runs out, about 44 MB.
LOOPING_PEAK_MB = 48

LOOPING_PEAK_SCRIPT = """
import tracemalloc
from hsuperplane.algebra import NonTerminatingError, Presentation, word
tracemalloc.start()
try:
    Presentation(
        "loop",
        [("a", 0), ("b", 0)],
        [(("b", "a"), word("a", "a", "b", "b")), (("b", "b"), word("b", "a"))],
    )
except NonTerminatingError:
    print(tracemalloc.get_traced_memory()[1])
"""


def test_looping_rules_peak_allocation_is_bounded():
    # in a process of its own, so that nothing else is traced
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", LOOPING_PEAK_SCRIPT],
        capture_output=True, text=True, env=env, check=True,
    )
    assert int(done.stdout) <= LOOPING_PEAK_MB * 10**6


def test_raw_rhs_is_normalised_on_construction():
    p = Presentation(
        "raw",
        [("u", 0), ("v", 0)],
        [(("v", "u"), word("u", "v") + (word("u", "u") - word("u", "u")))],
    )
    assert p.rules[("v", "u")] == word("u", "v")


def test_two_pass_normalisation_uses_sibling_rules():
    # rhs of the second rule mentions b*b, which the first rule rewrites
    p = Presentation(
        "sibling",
        [("b", 0), ("a", 0)],
        [
            (("b", "b"), word("b")),
            (("a", "a"), word("b", "b")),
        ],
    )
    assert p.rules[("a", "a")] == word("b")


def test_central_letter_is_found_from_the_rules_not_the_name():
    # e is odd and no rule rewrites it, so a rule may lengthen a word by one e
    generators = [("e", 1), ("th", 1), ("x", 0)]
    rules = [
        (("x", "th"), word("th", "x") + word("e", "x", "x")),
        (("th", "th"), -word("e", "th", "x")),
    ]
    p = Presentation("e-plane", generators, rules)
    assert p.normal_form(word("th", "th")) == -word("e", "th", "x")
    # once a rule rewrites e, a longer right side is no longer smaller
    with pytest.raises(RuleError):
        Presentation("e-plane", generators, rules + [(("th", "e"), -word("e", "th"))])


# -- blocks ------------------------------------------------------------------------

GROUP = {"a", "ai", "bt", "gm", "dd", "ddi"}
CALCULUS = {"dth", "dx", "th", "x", "px", "pth"}
BLOCKS = {
    "q-superplane": [{"dth", "dx"}, {"th", "x"}],
    "coaction-product": [GROUP, CALCULUS],
}


def test_blocks_are_the_letter_classes_the_rules_link():
    for name in CATALOGUE_NAMES:
        ranks = get_presentation(name)._blocks
        if name not in BLOCKS:
            assert ranks == {}, name
            continue
        assert {g for g, rank in ranks.items() if rank == 0} == {"h"}
        found = [{g for g, rank in ranks.items() if rank == k} for k in (1, 2)]
        assert found == BLOCKS[name] and max(ranks.values()) == 2


@pytest.mark.parametrize(
    "build, inputs",
    [
        (build_q_superplane, [("x", "dx", "th", "dth"), ("th", "dth", "h", "x", "dx")]),
        (
            build_coaction_product,
            [
                ("x", "a", "th", "dd", "dth", "gm"),
                ("pth", "ai", "x", "ddi", "dx", "bt", "th"),
                ("th", "h", "dd", "x", "gm", "px", "a"),
                ("dx", "bt", "x", "gm", "th", "a", "h"),
            ],
        ),
    ],
)
def test_interleaved_words_fill_the_product_table_block_by_block(build, inputs):
    # an interleaved word is sorted into its blocks, so no stored product
    # (v, g) carries a letter g of one block into a word v holding another
    p = build()
    blocks = BLOCKS[p.name]
    for w in inputs:
        e = Element.word(w)
        assert p.normal_form(e) == p.normal_form(e, strategy="rightmost")
    assert p._products
    for v, g in p._products:
        letters = {x for x in v + (g,) if x != "h"}
        assert any(letters <= block for block in blocks), (v, g)


def test_budget_overrun_inside_a_block_names_the_input_word():
    # the group part a*dd is normal; the calculus part x*x*th is folded
    # alone, and th's chain past both x's spends 3 + 2 units
    p = build_coaction_product()
    with pytest.raises(
        NonTerminatingError,
        match=r"start word a\*x\*dd\*x\*th, current word of length 2, 5 work units spent$",
    ):
        p.normal_form(word("a", "x", "dd", "x", "th"), max_steps=4)


# -- stops -------------------------------------------------------------------------

# each letter's stops, the central letter h aside: no letter that a fold of
# v*g can insert forms a reducible pair with a stop of g
CALCULUS_STOPS = {
    "dth": {"dth"},
    "dx": {"dth"},
    "th": {"dth", "dx"},
    "x": {"dth", "dx"},
    "px": {"dth", "dx", "th", "x", "px"},
    "pth": {"dth", "dx", "th", "x", "px"},
}
H_CALCULUS_STOPS = {**CALCULUS_STOPS, "x": {"dth", "dx", "th", "x"}}
GROUP_STOPS = {"a": {"a"}, "bt": {"a"}, "gm": {"a"}}
STOPS = {
    "q-superplane": {"dth": {"dth"}, "dx": {"dth"}, "th": {"dth", "dx"}},
    "qh-calculus": CALCULUS_STOPS,
    "q-calculus": CALCULUS_STOPS,
    "h-calculus": H_CALCULUS_STOPS,
    "gl-h11": GROUP_STOPS,
    "h-heisenberg": {"th": set(), "x": {"th", "x"}, "px": {"th", "x", "px"}, "pth": {"th", "x", "px"}},
    "q-oscillator": {"ad": {"ad"}, "bd": {"ad"}, "b": {"ad", "bd"}},
    "coaction-product": {
        **GROUP_STOPS,
        "ai": set(),
        "dd": GROUP - {"ddi"},
        "ddi": GROUP - {"dd"},
        **{g: stops | GROUP for g, stops in H_CALCULUS_STOPS.items()},
    },
}


def test_stops_are_the_letters_no_inserted_letter_rewrites():
    for name in CATALOGUE_NAMES:
        p = get_presentation(name)
        central = {"h"} if name != "q-oscillator" else set()
        assert p._central == central, name
        found = {g: stops - central for g, stops in p._stops.items() if g not in central}
        assert found == STOPS[name], name
        # the central letter stops every letter, and every letter stops it
        for g, stops in p._stops.items():
            assert stops >= (set(p.generator_names()) if g in central else central), (name, g)


def test_rule_sets_outside_the_gate_get_no_stops():
    # a rewrite term of four letters, none of them central
    runaway = Presentation("runaway", [("u", 0), ("v", 0)], [(("v", "u"), word("u", "u", "v", "v"))])
    assert runaway._stops == {}
    # the looping rule set fails construction, so its rules are planted in
    # the compiled pair table
    loop = Presentation("loop", [("a", 0), ("b", 0)])
    loop._pairs[("b", "a")] = ((("a", "a", "b", "b"), ONE),)
    loop._pairs[("b", "b")] = ((("b", "a"), ONE),)
    assert loop._stop_sets() == {}
    # a central letter that does not come first in generator order
    assert Presentation("late", [("x", 0), ("e", 1)])._stops == {}


@pytest.mark.parametrize(
    "build, inputs",
    [
        (
            build_h_calculus,
            [("dth", "x", "th", "x", "th"), ("x", "dx", "th", "px", "x"), ("th", "dth", "px", "x", "pth", "th")],
        ),
        (
            build_gl_h11,
            [("a", "gm", "dd", "a"), ("bt", "a", "gm", "dd", "gm", "a"), ("a", "bt", "dd", "gm", "bt")],
        ),
        (
            build_coaction_product,
            [("x", "a", "th", "dd", "dth", "gm"), ("dd", "x", "ai", "th", "a", "dx"), ("gm", "pth", "a", "x", "dth", "th")],
        ),
    ],
)
def test_product_keys_hold_no_stop_before_their_last_letter(build, inputs):
    # a product v*g is stored under the suffix s of v after v's last stop for
    # g, so words that differ only up to that stop share the entry (s, g)
    p = build()
    for w in inputs:
        e = Element.word(w)
        assert p.normal_form(e) == p.normal_form(e, strategy="rightmost")
    assert p._products
    for s, g in p._products:
        assert not set(s[:-1]) & p._stops[g], (s, g)


# -- parity bookkeeping ------------------------------------------------------------


def test_word_parity(plane):
    assert plane.word_parity(("x",)) == 0
    assert plane.word_parity(("th",)) == 1
    assert plane.word_parity(("th", "dx")) == 0
    assert plane.word_parity(("th", "dx", "h")) == 1
    assert plane.parity(word("th", "dx") + word("x")) == 0
    assert plane.parity(word("th") + word("x")) is None
    with pytest.raises(UnknownGeneratorError, match="unknown generator 'y' in presentation plane"):
        plane.word_parity(("th", "y", "x"))


# -- operator action ------------------------------------------------------------


def test_act_drops_dangling_derivatives():
    p = Presentation(
        "ops",
        [("x", 0), ("px", 0)],
        [(("px", "x"), Element.scalar(1) + word("x", "px"))],
        derivatives=("px",),
    )
    # px acting on x: px*x = 1 + x px, the x px term still waits on px
    assert p.act(word("px"), word("x")) == Element.scalar(1)
    assert p.act(word("px"), word("x", "x")) == 2 * word("x")
    assert p.act(word("px"), Element.scalar(1)).is_zero()


def test_act_rejects_derivative_in_function_slot():
    p = Presentation(
        "ops",
        [("x", 0), ("px", 0)],
        [(("px", "x"), Element.scalar(1) + word("x", "px"))],
        derivatives=("px",),
    )
    with pytest.raises(UnknownGeneratorError):
        p.act(word("px"), word("px"))


# -- confluence -----------------------------------------------------------------


def test_confluence_passes_on_plane(plane):
    report = plane.check_confluence()
    assert report.passed
    assert report.words_checked > 0
    assert report.failures == []


def broken_system() -> Presentation:
    # two rules for overlapping squares that disagree on b*b*b
    return Presentation(
        "broken",
        [("c", 0), ("b", 0)],
        [
            (("b", "b"), word("c")),
            (("b", "c"), word("c")),
            (("c", "b"), word("b")),
            (("c", "c"), Element.zero()),
        ],
    )


def test_confluence_detects_broken_system():
    broken = broken_system()
    report = broken.check_confluence()
    assert not report.passed
    words = [w for w, _, _ in report.failures]
    assert ("b", "b", "b") in words


def _direct_exchange_qh() -> Presentation:
    # the qh rules with the exchange coefficient A in place of 1/A, which
    # breaks the px-x-dx overlap (see tests/test_presentations.py)
    tampered = [
        (
            lhs,
            Q * Q * word("dx", "px") + (Q * Q - ONE) * word("dth", "pth") - word("h", "dx", "pth")
            if lhs == ("px", "dx")
            else rhs,
        )
        for lhs, rhs in build_qh_rules().rules.items()
    ]
    return Presentation("qh-direct", CALCULUS_GENERATORS, tampered, derivatives=CALCULUS_DERIVATIVES)


NON_CONFLUENT = {
    "broken": broken_system,
    # the non-confluent pair of tests/test_rewriting_oracle.py
    "nc": lambda: Presentation(
        "nc", [("u", 0), ("v", 0)], [(("v", "u"), 2 * word("u", "v")), (("v", "v"), word("u"))]
    ),
    "qh-direct": _direct_exchange_qh,
}


@pytest.mark.parametrize("name", [*CATALOGUE_NAMES, *NON_CONFLUENT])
def test_cached_critical_pairs_stay_exact(name):
    # the overlaps are built once, on the first check, in generator order;
    # each check still reduces both rewrites of every overlap
    p = NON_CONFLUENT[name]() if name in NON_CONFLUENT else get_presentation(name)
    first = p.check_confluence()
    words = [
        w
        for w in itertools.product(p.generator_names(), repeat=3)
        if p.reducible_pair(*w[:2]) and p.reducible_pair(*w[1:])
    ]
    assert [w for w, _, _ in p._overlaps] == words
    for w, step0, step1 in p._overlaps:
        assert (step0, step1) == (p._step_at(w, 0), p._step_at(w, 1))
    assert first.words_checked == len(words) > 0
    assert first.passed is (name not in NON_CONFLUENT)
    second = p.check_confluence()
    assert second.words_checked == len(words)
    assert second.failures == first.failures
    overlaps = p._overlaps
    snapshot = [(w, dict(step0), dict(step1)) for w, step0, step1 in overlaps]
    run_suite("all")
    run_suite("all")
    assert p._overlaps is overlaps
    assert overlaps == snapshot


# -- derived presentations ---------------------------------------------------------


def test_with_h_dropped(plane):
    q_only = Presentation(
        "withh",
        [("h", 1), ("th", 1), ("x", 0)],
        [
            (("x", "th"), Q * word("th", "x") + word("h", "x", "x")),
            (("th", "th"), -word("h", "th", "x")),
            (("h", "h"), Element.zero()),
        ],
    )
    dropped = set_h_to_zero(q_only)
    assert dropped.rules[("x", "th")] == Q * word("th", "x")
    assert dropped.rules[("th", "th")] == Element.zero()
    assert dropped.has_generator("h")
    assert q_only.generators_equal(dropped)
    assert not q_only.rules_equal(dropped)


# -- morphisms ------------------------------------------------------------------


def test_morphism_is_multiplicative(plane):
    images = {g.name: Element.generator(g.name) for g in plane.generators}
    images["x"] = 2 * word("x")
    f = AlgebraMorphism(plane, plane, images)
    rng = random.Random(15)
    names = plane.generator_names()
    for _ in range(15):
        w1 = Element.word(tuple(rng.choice(names) for _ in range(rng.randint(0, 3))))
        w2 = Element.word(tuple(rng.choice(names) for _ in range(rng.randint(0, 3))))
        assert f(w1 * w2) == plane.multiply(f(w1), f(w2))


def test_morphism_missing_image(plane):
    f = AlgebraMorphism(plane, plane, {"x": word("x")})
    with pytest.raises(UnknownGeneratorError):
        f(word("th"))


def test_antilinear_morphism_conjugates(plane):
    images = {g.name: Element.generator(g.name) for g in plane.generators}
    f = AlgebraMorphism(plane, plane, images, conjugate_scalars=True)
    assert f(I * word("x")) == -I * word("x")
    assert f(Q * word("x")) == Q * word("x")


def test_involution_reverses_without_koszul_sign(plane):
    images = {g.name: Element.generator(g.name) for g in plane.generators}
    # naive reversal star on the plane: (th dx)* = dx* th* = dx th, no sign
    star = InvolutionSpec(plane, images)
    assert star(word("th", "dx")) == word("dx", "th")
    assert star(I * word("x")) == -I * word("x")


def test_involution_involutive_check(plane):
    images = {g.name: Element.generator(g.name) for g in plane.generators}
    star = InvolutionSpec(plane, images)
    assert star.is_involutive()
    # x -> 2x is not involutive
    bad_images = dict(images)
    bad_images["x"] = 2 * word("x")
    assert not InvolutionSpec(plane, bad_images).is_involutive()


# -- memos of the linear extensions ------------------------------------------------


def test_act_keeps_one_memo_per_operator():
    p = Presentation(
        "ops",
        [("x", 0), ("px", 0)],
        [(("px", "x"), Element.scalar(1) + word("x", "px"))],
        derivatives=("px",),
    )
    xx = word("x", "x")
    assert p.act(word("px"), xx) == 2 * word("x")
    assert p.act(word("px", "px"), xx) == Element.scalar(2)
    assert p.act(3 * word("px"), xx) == 6 * word("x")
    assert p.act(Element.scalar(5), xx) == 5 * xx
    assert p.act(word("px"), xx) == 2 * word("x")


def test_memo_hits_hand_back_the_stored_value(plane):
    w = ("x", "x", "th")
    first = plane.normal_form(Element.word(w))
    second = plane.normal_form(Element.word(w))
    assert second._terms is plane._nf_cache[w]
    assert second == first == Element.word(("th", "x", "x"), qpow(2))
    # a scaled word still gets terms of its own
    assert plane.normal_form(Element.word(w, Q))._terms is not plane._nf_cache[w]
    ops = Presentation(
        "ops",
        [("x", 0), ("px", 0)],
        [(("px", "x"), Element.scalar(1) + word("x", "px"))],
        derivatives=("px",),
    )
    first = ops.act(word("px"), word("x", "x"))
    second = ops.act(word("px"), word("x", "x"))
    assert second is ops.act(word("px"), word("x", "x"))
    assert second == first == 2 * word("x")
    images = {g.name: Element.generator(g.name) for g in plane.generators}
    images["x"] = 2 * word("x")
    for f in (
        AlgebraMorphism(plane, plane, images),
        AlgebraMorphism(plane, plane, images, conjugate_scalars=True),
        InvolutionSpec(plane, images),
    ):
        first = f(word("th", "x"))
        second = f(word("th", "x"))
        assert second is f(word("th", "x"))
        assert second == first


class _HashableImages(dict):
    def __hash__(self):
        return hash(frozenset(self.items()))


def test_morphisms_with_equal_images_stay_equal_after_a_call(plane):
    images = {g.name: Element.generator(g.name) for g in plane.generators}
    images["x"] = 2 * word("x")
    f = AlgebraMorphism(plane, plane, _HashableImages(images))
    g = AlgebraMorphism(plane, plane, _HashableImages(images))
    assert f(word("x", "th")) == 2 * Q * word("th", "x")
    assert f == g
    assert hash(f) == hash(g)
    assert "memo" not in repr(f)
    star = InvolutionSpec(plane, _HashableImages(images))
    star(word("th", "x"))
    assert star == InvolutionSpec(plane, _HashableImages(images))


def test_maps_agree_warm_and_fresh(plane):
    images = {g.name: Element.generator(g.name) for g in plane.generators}
    images["x"] = 2 * word("x") + word("dth")
    rng = random.Random(23)
    names = plane.generator_names()
    samples = [
        Element.word(tuple(rng.choice(names) for _ in range(rng.randint(0, 3))))
        for _ in range(20)
    ]
    for conjugate in (False, True):
        warm = AlgebraMorphism(plane, plane, images, conjugate_scalars=conjugate)
        for s in samples:
            warm((3 + I) * s + Q * word("x", "x"))
        for s in samples:
            fresh = AlgebraMorphism(plane, plane, images, conjugate_scalars=conjugate)
            assert warm(I * s) == fresh(I * s)
    warm_star = InvolutionSpec(plane, images)
    for s in samples:
        warm_star((2 - I) * s)
    for s in samples:
        assert warm_star(Q * s) == InvolutionSpec(plane, images)(Q * s)
