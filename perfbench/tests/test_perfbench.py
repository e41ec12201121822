"""Tests for the benchmark's own code: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import mix  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from stats import percentile, relative_spread  # noqa: E402


class FakeClock:
    def __init__(self, *times: float) -> None:
        self.times = list(times)

    def __call__(self) -> float:
        return self.times.pop(0)


def test_self_time_subtracts_children_on_nested_spans():
    # A [0, 10] holds B [1, 5] (holding leaf C [2, 3]) and B [6, 7]
    tracer = tracing.Tracer(clock=FakeClock(0, 1, 2, 3, 5, 6, 7, 10))
    tracer.active = True
    leaf = tracer.wrap_leaf("C", lambda: None)
    tracer.enter("A")
    tracer.enter("B")
    leaf()
    tracer.exit()
    tracer.enter("B")
    tracer.exit()
    tracer.exit()
    assert tracer.spans["A"] == [1, 10, 5]
    assert tracer.spans["B"] == [2, 5, 4]
    assert tracer.spans["C"] == [1, 1, 1]


def test_recursive_span_counts_its_total_once():
    tracer = tracing.Tracer(clock=FakeClock(0, 2, 3, 4))
    tracer.enter("A")
    tracer.enter("A")
    tracer.exit()
    tracer.exit()
    calls, total_s, self_s = tracer.spans["A"]
    assert (calls, total_s, self_s) == (2, 4, 4)


def test_leaf_span_inside_leaf_is_not_a_separate_span():
    tracer = tracing.Tracer(clock=FakeClock(0, 5))
    tracer.active = True
    inner = tracer.wrap_leaf("inner", lambda: 1)
    outer = tracer.wrap_leaf("outer", lambda: inner() + 1)
    assert outer() == 2
    assert tracer.spans == {"outer": [1, 5, 5]}


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert percentile(values, 95) == 95
    assert percentile(values, 50) == 50
    assert percentile([3.0, 1.0, 2.0], 95) == 3.0
    assert percentile([7.0], 50) == 7.0
    with pytest.raises(ValueError):
        percentile([], 95)


def test_relative_spread_is_interquartile_range_over_median():
    assert relative_spread([10, 10, 10, 10]) == 0
    assert relative_spread([8, 9, 10, 11, 12]) == pytest.approx(3 / 10)


def test_request_latency_is_the_median_over_repeats():
    repeats = [[1.0, 5.0], [3.0, 4.0], [2.0, 9.0]]
    assert run.request_latencies(repeats) == [2.0, 5.0]


def test_normalised_time_rescales_to_the_reference_speed():
    r = speed.REFERENCE_S
    measured = {"repeats": [[0.5, 1.0]], "reference_s": [[2 * r, 4 * r]]}
    assert run.normalised_repeats(measured) == [[0.25, 0.25]]


def _prefix(seed: int, n: int = 300):
    stream = mix.MixStream(seed)
    return stream.hot, list(itertools.islice(stream, n))


def test_stream_repeats_for_a_seed_and_differs_across_seeds():
    assert _prefix(7) == _prefix(7)
    assert _prefix(7)[1] != _prefix(8)[1]
    assert _prefix(7)[0] != _prefix(8)[0]


def test_stream_elements_have_the_promised_shape():
    hot, elements = _prefix(3, 1000)
    hot_words = {w for words in hot.values() for w in words}
    used = [w for _, terms in elements for w, _ in terms]
    assert 0.35 < sum(w in hot_words for w in used) / len(used) < 0.65
    for name, terms in elements:
        assert name in mix.PRESENTATIONS
        assert 1 <= len(terms) <= 4
        assert len({w for w, _ in terms}) == len(terms)
        for word, coeff in terms:
            letters = [g for g in word if g != "h"]
            assert 4 <= len(letters) <= 10
            assert word.count("h") <= 1
            assert all(letters.count(g) == 1 for g in letters if g in mix.ODD_LETTERS)
            assert 0 <= coeff < len(mix.COEFFICIENTS)
    special = [c for c in mix.COEFFICIENTS if "i" in c or "/(" in c]
    assert len(special) * 3 >= len(mix.COEFFICIENTS)


def test_normal_form_oracle_accepts_the_engine_and_flags_wrong_results():
    from hsuperplane.algebra import Element
    from hsuperplane.presentations import get_presentation
    from hsuperplane.scalar import Q

    p = get_presentation("h-calculus")
    element = Element({("x", "x", "th"): Q, ("px", "x"): 2})
    result = p.normal_form(element)
    memo: dict = {}
    assert oracle.check_normal_form(p, element, result, memo) is None
    wrong = result + Element.word(("x",))
    assert "rightmost" in oracle.check_normal_form(p, element, wrong, memo)
    assert "rightmost" in oracle.check_normal_form(p, element, result.scale(2), memo)
    assert "not in normal form" in oracle.check_normal_form(p, element, element, memo)


def test_verify_oracle_counts_each_bad_entry():
    reference = oracle.load_reference()
    assert len(reference) == 140 and all(entry["passed"] for entry in reference)
    entries = [dict(entry) for entry in reference]
    assert oracle.check_verify_entries(entries, reference) == (140, [])
    entries[0]["normal_form"] += " + 1"
    entries[1]["passed"] = False
    del entries[2]
    entries.append({"label": "extra", "normal_form": "0", "passed": True})
    attempted, problems = oracle.check_verify_entries(entries, reference)
    assert attempted == 141
    assert len(problems) == 4


def test_scalar_oracle_flags_a_wrong_operation():
    from hsuperplane.scalar import ONE, Q, ScalarQ, PolyQ

    good = [
        ("scalar.add", (ONE, Q), ONE + Q),
        ("scalar.truediv", (ONE, Q - ONE), ONE / (Q - ONE)),
        ("scalar.pow", (Q, -2), Q**-2),
        ("scalar.neg", (Q,), -Q),
    ]
    assert oracle.check_scalar_sample(good) == []
    bad = [("scalar.mul", (Q, Q), ScalarQ(PolyQ([0, 0, 2])))]
    assert len(oracle.check_scalar_sample(bad)) == 1


def test_install_wraps_every_binding_and_undo_restores_them():
    from hsuperplane import cli, differential, presentations
    from hsuperplane.algebra import Element, Presentation
    from hsuperplane.scalar import ScalarQ

    before_add, before_nf = ScalarQ.__add__, Presentation.normal_form
    before_suites = dict(cli._SUITES)
    tracer = tracing.Tracer(sample_size=5)
    undo = tracing.install(tracer)
    try:
        assert ScalarQ.__add__ is not before_add and ScalarQ.__radd__ is ScalarQ.__add__
        assert cli._SUITES["dsquared"] is differential.dsquared_report
        assert cli._SUITES["dsquared"] is not before_suites["dsquared"]
        assert cli.consistency_report is presentations.consistency_report
        tracer.active = True
        p = presentations.get_presentation("h-calculus")
        d = differential.exterior_d(p.normal_form(Element.word(("x", "th", "x"))), p)
        tracer.active = False
        assert not d.is_zero()
        metrics = tracing.layer_metrics(tracer)
        assert metrics["algebra.normal_form.calls"] >= 2
        assert metrics["differential.exterior_d.calls"] == 1
        assert metrics["scalar.ops"] > 0 and tracer.sample
    finally:
        undo()
    assert ScalarQ.__add__ is before_add and Presentation.normal_form is before_nf
    assert cli._SUITES == before_suites


def test_benchmark_file_matches_the_metric_records():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(run.MEASURE)
    assert list(run.METRICS["workloads"]) == list(run.MEASURE)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert list(run.METRICS["end_to_end"]) == list(run.END_TO_END_UNITS)
    per_layer = run.METRICS["per_layer"]
    assert [m["name"] for m in bench["per_layer"]] == list(per_layer)
    for metric in bench["per_layer"]:
        assert metric["unit"] == per_layer[metric["name"]]["unit"]
        assert metric["better"] == per_layer[metric["name"]]["better"]
    layer_names = set(tracing.layer_metrics(tracing.Tracer())) | {"trace.overhead_ratio"}
    assert layer_names == set(per_layer)
