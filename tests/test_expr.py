"""Expression grammar: parsing, printing, and the round-trip guarantee."""

import random
from fractions import Fraction

import pytest

from hsuperplane.algebra import Element, Presentation, RuleError, word
from hsuperplane.expr import (
    ExprSyntaxError,
    UnknownSymbolError,
    format_element,
    parse_element,
    parse_relation,
    parse_rule,
    parse_scalar,
)
from hsuperplane.presentations import CATALOGUE_NAMES, get_presentation
from hsuperplane.scalar import I, ONE, Q, ScalarQ, qpow, sc


@pytest.fixture
def plane():
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


# -- parsing --------------------------------------------------------------------


def test_parse_basic_sum(plane):
    assert parse_element("x + th", plane) == word("x") + word("th")
    assert parse_element("x - x", plane) == Element.zero()
    assert parse_element("-x", plane) == -word("x")
    assert parse_element("  x\t+ th ", plane) == word("x") + word("th")


def test_parse_products_are_free(plane):
    # parsing never rewrites: x*th stays in written order
    assert parse_element("x*th", plane) == word("x", "th")
    assert parse_element("2*x*th", plane) == 2 * word("x", "th")
    assert parse_element("q*th*x", plane) == Q * word("th", "x")


def test_parse_powers(plane):
    assert parse_element("x^3", plane) == word("x", "x", "x")
    assert parse_element("x^0", plane) == Element.scalar(1)
    assert parse_element("q^-1", plane) == Element.scalar(qpow(-1))
    assert parse_element("2^-2", plane) == Element.scalar(Fraction(1, 4))
    assert parse_element("(x+th)^2", plane) == (word("x") + word("th")) * (word("x") + word("th"))
    assert parse_element("(q+1)^2", plane) == Element.scalar((Q + 1) ** 2)


def test_parse_division(plane):
    assert parse_element("x/2", plane) == word("x").scale(Fraction(1, 2))
    assert parse_element("x/(q-1)", plane) == word("x").scale(ONE / (Q - 1))
    assert parse_element("3/2", plane) == Element.scalar(Fraction(3, 2))


def test_parse_imaginary_unit(plane):
    assert parse_element("i*x", plane) == I * word("x")
    assert parse_element("i^2", plane) == Element.scalar(-1)


def test_parse_precedence(plane):
    assert parse_element("x + 2*th", plane) == word("x") + 2 * word("th")
    assert parse_element("2*x^2", plane) == 2 * word("x", "x")
    assert parse_element("(2*x)^2", plane) == 4 * word("x", "x")


# -- parse errors -----------------------------------------------------------------


def test_double_star_is_an_error(plane):
    with pytest.raises(ExprSyntaxError) as err:
        parse_element("x**th", plane)
    assert err.value.position == 2


def test_unknown_symbol_reports_name_and_offset(plane):
    with pytest.raises(UnknownSymbolError) as err:
        parse_element("x + spam", plane)
    assert err.value.name == "spam"
    assert err.value.position == 4


def test_non_decimal_digit_is_an_unexpected_character(plane):
    # "²" is a digit to str.isdigit but not a decimal int() can read
    with pytest.raises(ExprSyntaxError, match="unexpected character '²'") as err:
        parse_element("x^²", plane)
    assert err.value.position == 2


@pytest.mark.parametrize("text, position", [("7" * 5000, 0), ("x^" + "7" * 5000, 2)])
def test_integer_too_long_for_int_is_a_syntax_error(plane, text, position):
    with pytest.raises(ExprSyntaxError, match="5000-digit integer too long") as err:
        parse_element(text, plane)
    assert err.value.position == position


def test_negative_power_of_generator_rejected(plane):
    with pytest.raises(ExprSyntaxError):
        parse_element("x^-1", plane)


def test_division_by_non_scalar_rejected(plane):
    with pytest.raises(ExprSyntaxError):
        parse_element("x/th", plane)


def test_division_by_zero_rejected(plane):
    with pytest.raises(ExprSyntaxError):
        parse_element("x/0", plane)
    with pytest.raises(ExprSyntaxError):
        parse_element("x/(q-q)", plane)


def test_missing_product_sign(plane):
    with pytest.raises(ExprSyntaxError) as err:
        parse_element("x th", plane)
    assert err.value.position == 2


def test_unbalanced_parens(plane):
    with pytest.raises(ExprSyntaxError):
        parse_element("(x + th", plane)
    with pytest.raises(ExprSyntaxError):
        parse_element("x + th)", plane)


def test_empty_expression(plane):
    with pytest.raises(ExprSyntaxError):
        parse_element("", plane)
    with pytest.raises(ExprSyntaxError):
        parse_element("   ", plane)


@pytest.mark.parametrize(
    "parse",
    [
        parse_element,
        lambda text, p: parse_relation(text + " = x", p),
        lambda text, p: parse_relation("x = " + text, p),
        lambda text, p: parse_scalar(text.replace("x", "q")),
    ],
    ids=["element", "relation-lhs", "relation-rhs", "scalar"],
)
def test_deep_nesting_is_a_syntax_error(plane, parse):
    # the offset depends on the recursion limit, so it is not pinned
    with pytest.raises(ExprSyntaxError, match="expression nested too deeply"):
        parse("(" * 1000 + "x" + ")" * 1000, plane)


def test_bad_character_offset(plane):
    with pytest.raises(ExprSyntaxError) as err:
        parse_element("x + $", plane)
    assert err.value.position == 4


def test_parse_relation_returns_both_sides_unreduced(plane):
    lhs, rhs = parse_relation("x*th = q*th*x + th*th", plane)
    assert lhs == word("x", "th")
    assert rhs == Q * word("th", "x") + word("th", "th")


def test_parse_relation_needs_exactly_one_equals_sign(plane):
    with pytest.raises(ExprSyntaxError, match="expected '='") as err:
        parse_relation("x*th", plane)
    assert err.value.position == 4
    with pytest.raises(ExprSyntaxError) as err:
        parse_relation("x = th = x", plane)
    assert err.value.position == 7


def test_parse_rule_returns_the_left_word(plane):
    lhs, rhs = parse_rule("x*th = q*th*x + th^2", plane)
    assert lhs == ("x", "th")
    assert rhs == Q * word("th", "x") + word("th", "th")


@pytest.mark.parametrize(
    "text, message",
    [
        ("x*th + th = x", "must be one word"),
        ("x - x = th", "must be one word"),
        ("2*x*th = th*x", "must have factor 1"),
    ],
)
def test_parse_rule_needs_one_word_with_factor_one(plane, text, message):
    with pytest.raises(RuleError, match=message):
        parse_rule(text, plane)


def test_parse_rule_reads_named_scalars(plane):
    lhs, rhs = parse_rule("x*th = A*th*x", plane, {"A": Q * Q})
    assert lhs == ("x", "th")
    assert rhs == Q * Q * word("th", "x")
    # q and i still resolve next to the named scalars
    _, rhs = parse_rule("x*th = (A - q)*i*th*x", plane, {"A": Q * Q})
    assert rhs == (Q * Q - Q) * I * word("th", "x")


def test_named_scalars_last_for_one_call_only(plane):
    parse_rule("x*th = A*th*x", plane, {"A": Q * Q})
    for _ in range(2):
        with pytest.raises(UnknownSymbolError) as err:
            parse_rule("x*th = A*th*x", plane)
        assert err.value.name == "A"
        assert err.value.position == 7


def test_parse_scalar():
    assert parse_scalar("q^2-1") == Q * Q - 1
    assert parse_scalar("(q^2-1)/(q-1)") == Q + 1
    assert parse_scalar("i") == I
    with pytest.raises(ExprSyntaxError):
        parse_scalar("2 +")
    with pytest.raises(UnknownSymbolError):
        parse_scalar("x")


# -- printing --------------------------------------------------------------------


def test_format_basics(plane):
    assert format_element(Element.zero(), plane) == "0"
    assert format_element(word("x"), plane) == "x"
    assert format_element(-word("x"), plane) == "-x"
    assert format_element(word("x", "x", "th"), plane) == "x^2*th"
    assert format_element(word("x") - Q * word("th", "x"), plane) == "x - q*th*x"


def test_format_parenthesises_sum_coefficients(plane):
    e = (Q * Q - 1) * word("dx")
    assert format_element(e, plane) == "(q^2-1)*dx"
    e = (ONE / (Q - 1)) * word("x")
    assert format_element(e, plane) == "1/(q-1)*x"


def test_format_negative_powers(plane):
    assert format_element(qpow(-1) * word("dth", "dx"), plane) == "q^-1*dth*dx"


def test_format_orders_by_presentation(plane):
    # shorter words first, then by generator order h < dth < dx < th < x
    e = word("x") + word("th") + word("dth") + Element.scalar(1)
    assert format_element(e, plane) == "1 + dth + th + x"


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_round_trip_random_elements(name):
    p = get_presentation(name)
    rng = random.Random(77)
    names = p.generator_names()
    pool = [
        sc(1), sc(-1), sc(2), sc(Fraction(-3, 2)), I, -I, Q, qpow(-1),
        Q * Q - 1, ONE / (Q - 1), (Q + 1) / (Q * Q + Q + 1), 3 * qpow(-2),
        I * Q, (Q - 1) ** 2, sc(Fraction(5, 3)) * I + 1,
    ]
    for _ in range(60):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            w = tuple(rng.choice(names) for _ in range(rng.randint(0, 4)))
            terms[w] = rng.choice(pool)
        e = Element(terms)
        text = format_element(e, p)
        assert parse_element(text, p) == e


def test_round_trip_through_presentation_show(plane):
    e = plane.normal_form(word("x", "th", "x"))
    assert parse_element(plane.show(e), plane) == e
