"""The engine's record types: ``Generator``, ``RewriteRule``,
``ConfluenceReport``, ``AlgebraMorphism`` (and the ``InvolutionSpec`` built
on it), the parser's ``_Token``, ``CoefficientSolution`` and ``ReportEntry``.

Each is built by position or by keyword with the same defaults, keeps its
fields under their names, rejects assignment to a field unless it is the
mutable ``ConfluenceReport``, is equal only to a record of its own class with
equal fields, hashes by its fields and prints as ``Name(field=value, ...)``.
"""

import copy
import pickle

import pytest

from hsuperplane import (
    AlgebraMorphism,
    ConfluenceReport,
    Generator,
    InvolutionSpec,
    ReportEntry,
    RewriteRule,
)
from hsuperplane.algebra import Element, word
from hsuperplane.expr import _Token
from hsuperplane.presentations import CoefficientSolution, get_presentation
from hsuperplane.scalar import ONE, Q, ZERO


def _plane():
    return get_presentation("q-superplane")


def _images():
    return {name: Element.generator(name) for name in _plane().generator_names()}


# class, its fields, the positional arguments of a record, and the defaults
# of the fields that have one
RECORDS = {
    "Generator": (Generator, ("name", "parity", "order_index"), lambda: ("th", 1, 0), {}),
    "RewriteRule": (
        RewriteRule,
        ("lhs", "rhs"),
        lambda: (("x", "th"), Q * word("th", "x")),
        {},
    ),
    "ConfluenceReport": (
        ConfluenceReport,
        ("presentation", "words_checked", "failures"),
        lambda: ("q-superplane", 8, []),
        {},
    ),
    "AlgebraMorphism": (
        AlgebraMorphism,
        ("source", "target", "images", "conjugate_scalars"),
        lambda: (_plane(), _plane(), _images()),
        {"conjugate_scalars": False},
    ),
    "_Token": (_Token, ("kind", "text", "pos"), lambda: ("NAME", "th", 2), {}),
    "CoefficientSolution": (
        CoefficientSolution,
        ("A", "B", "F11", "F12", "F21", "F22", "A_free"),
        lambda: (Q * Q, ONE, Q, Q * Q - ONE, -Q, ZERO),
        {"A_free": True},
    ),
    "ReportEntry": (
        ReportEntry,
        ("label", "normal_form", "passed", "data"),
        lambda: ("d(x*th)", "0", True),
        {"data": {}},
    ),
}
# a value for any field that differs from each field's value above
_OTHER = dict.fromkeys(RECORDS, "other")
FROZEN = sorted(set(RECORDS) - {"ConfluenceReport"})
PUBLIC = sorted(set(RECORDS) - {"_Token"})
HASHABLE = ["Generator", "RewriteRule", "_Token", "CoefficientSolution"]


def _values(name):
    _, fields, args, defaults = RECORDS[name]
    return dict(zip(fields, args()), **defaults)


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_built_by_position_or_keyword_with_the_defaults(name):
    cls, fields, args, defaults = RECORDS[name]
    values = _values(name)
    by_position = cls(*args())
    by_keyword = cls(**{f: values[f] for f in fields if f not in defaults})
    for record in (by_position, by_keyword, cls(*values.values()), cls(**values)):
        assert {f: getattr(record, f) for f in fields} == values
        assert record == by_position


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_reject_assignment(name):
    cls, fields, args, _ = RECORDS[name]
    record = cls(*args())
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is before


def test_confluence_report_is_mutable_and_unhashable():
    report = ConfluenceReport("q-superplane", 8, [])
    assert report.passed
    report.failures = [("x", "x", "th")]
    assert not report.passed
    with pytest.raises(TypeError):
        hash(report)


@pytest.mark.parametrize("name", PUBLIC)
def test_equal_only_to_a_record_of_its_own_class(name):
    cls, fields, args, _ = RECORDS[name]
    values = _values(name)
    record = cls(*args())
    assert record == cls(*args())
    assert not record != cls(*args())
    assert record != tuple(values.values())
    assert record != values
    for field in fields:
        assert record != cls(**{**values, field: _OTHER[name]}), field


def test_a_rewrite_rule_is_not_a_tuple():
    rhs = Q * word("th", "x")
    rule = RewriteRule(("x", "th"), rhs)
    assert rule != (("x", "th"), rhs)
    assert not isinstance(rule, tuple)
    assert not isinstance(Generator("x", 0, 1), tuple)


def test_an_involution_is_not_equal_to_the_map_with_its_fields():
    plane, images = _plane(), _images()
    star = InvolutionSpec(plane, images)
    assert (star.source, star.target, star.conjugate_scalars) == (plane, plane, True)
    assert star == InvolutionSpec(plane, images)
    assert star != AlgebraMorphism(plane, plane, images, conjugate_scalars=True)
    assert repr(star).startswith("InvolutionSpec(source=")
    assert "__call__" in vars(InvolutionSpec)


@pytest.mark.parametrize("name", HASHABLE)
def test_hash_follows_the_fields(name):
    cls, _, args, _ = RECORDS[name]
    record = cls(*args())
    assert hash(record) == hash(cls(*args()))
    assert len({record, cls(*args())}) == 1


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_repr_names_each_field(name):
    cls, fields, args, _ = RECORDS[name]
    values = _values(name)
    shown = ", ".join(f"{f}={values[f]!r}" for f in fields)
    assert repr(cls(*args())) == f"{cls.__qualname__}({shown})"


@pytest.mark.parametrize(
    "name",
    ["Generator", "RewriteRule", "ConfluenceReport", "_Token", "CoefficientSolution", "ReportEntry"],
)
def test_copies_and_pickles_equal_the_record(name):
    cls, _, args, _ = RECORDS[name]
    record = cls(*args())
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and type(twin) is cls


def test_report_entries_built_without_data_do_not_share_it():
    first = ReportEntry("a", "0", True)
    second = ReportEntry("b", "0", True)
    first.data["degree"] = 3
    assert second.data == {}
    assert first.data is not second.data


def test_a_filled_memo_changes_neither_equality_nor_repr():
    plane, images = _plane(), _images()
    images["x"] = 2 * word("x")
    warm = AlgebraMorphism(plane, plane, images)
    fresh = AlgebraMorphism(plane, plane, images)
    assert warm(word("th", "x")) == 2 * word("th", "x")
    assert warm._memo and not fresh._memo
    assert warm == fresh
    assert repr(warm) == repr(fresh)
    assert "_memo" not in repr(warm)


def test_each_morphism_has_a_memo_of_its_own():
    plane, images = _plane(), _images()
    first, second = AlgebraMorphism(plane, plane, images), AlgebraMorphism(plane, plane, images)
    first(word("x"))
    assert first._memo is not second._memo and not second._memo

