"""Catalogue presentations: consistency solution, confluence, contraction."""

import random
from collections import Counter
from pathlib import Path

import pytest

from hsuperplane import presentations, reset
from hsuperplane.algebra import AlgebraError, AlgebraMorphism, Element, Presentation, gen, word
from hsuperplane.presentations import (
    CALCULUS_DERIVATIVES,
    CALCULUS_GENERATORS,
    CATALOGUE_NAMES,
    CoefficientSolution,
    InconsistentSystemError,
    UnknownPresentationError,
    apply_star,
    build_h_calculus,
    build_heisenberg,
    build_q_oscillator,
    build_q_superplane,
    build_qh_rules,
    build_star,
    coaction_check,
    coaction_images,
    consistency_equations,
    consistency_system,
    contract,
    get_presentation,
    involution_check,
    limit_presentation,
    oscillator_check,
    set_h_to_zero,
    solve_consistency,
    solve_linear,
    transport_morphism,
    verify_presentation,
)
from hsuperplane.scalar import I, ONE, PoleAtOne, Q, ScalarQ, ZERO, qpow, sc

C = ONE / (Q - ONE)
DATA = Path(__file__).resolve().parent / "data"


# -- consistency coefficients ---------------------------------------------------


def test_solution_closed_form():
    sol = solve_consistency()
    assert sol.F11 == Q
    assert sol.F12 == Q * Q - ONE
    assert sol.F21 == -Q
    assert sol.F22 == ZERO
    assert sol.B == ONE
    assert sol.A == Q * Q
    assert sol.A_free


def test_solution_satisfies_every_equation():
    sol = solve_consistency()
    for label, residual in consistency_equations(sol):
        assert residual.is_zero(), label


def test_unpinned_system_leaves_one_free_coefficient():
    rows, rhs, labels = consistency_system()
    assert len(rows) == len(rhs) == len(labels) == 8
    with pytest.raises(InconsistentSystemError, match=r"free columns \[4\]"):
        solve_linear(rows, rhs)


def test_one_parameter_family_solves_the_system():
    # every member F22 = t of the family satisfies all eight equations;
    # the catalogue pins t = 0
    for t in (ZERO, sc(5), Q, -Q * Q):
        sol = CoefficientSolution(
            A=Q * Q,
            B=ONE,
            F11=Q * (ONE - t),
            F12=Q * Q * (ONE - t) - ONE,
            F21=Q * (t - ONE),
            F22=t,
        )
        assert all(res.is_zero() for _, res in consistency_equations(sol))


def test_perturbed_solution_leaves_residual():
    sol = solve_consistency()
    bad = CoefficientSolution(
        A=sol.A, B=sol.B, F11=sol.F11 + ONE, F12=sol.F12, F21=sol.F21, F22=sol.F22
    )
    assert any(not res.is_zero() for _, res in consistency_equations(bad))


def test_a_wrong_solution_of_the_consistency_system_is_caught(monkeypatch):
    # a planted fault: the solver returns F11 + 1, which solve_consistency
    # must reject by substituting back into the eight equations
    solve = presentations.solve_linear

    def off_by_one(rows, rhs):
        b, f11, *rest = solve(rows, rhs)
        return [b, f11 + ONE, *rest]

    monkeypatch.setattr(presentations, "solve_linear", off_by_one)
    with pytest.raises(InconsistentSystemError, match="solution violates"):
        solve_consistency()


def test_solve_linear_two_by_two():
    rows = [[ONE, ONE], [ONE, -ONE]]
    rhs = [Q + ONE, Q - ONE]
    assert solve_linear(rows, rhs) == [Q, ONE]


def test_solve_linear_contradictory():
    with pytest.raises(InconsistentSystemError, match="contradictory"):
        solve_linear([[ONE], [ONE]], [ONE, Q])


# -- catalogue ------------------------------------------------------------------


def test_catalogue_names():
    assert set(CATALOGUE_NAMES) == {
        "q-superplane",
        "qh-calculus",
        "q-calculus",
        "h-calculus",
        "gl-h11",
        "h-heisenberg",
        "q-oscillator",
        "coaction-product",
    }


def test_unknown_presentation():
    with pytest.raises(UnknownPresentationError, match="qh-calculus"):
        get_presentation("no-such-algebra")


def test_catalogue_is_cached():
    assert get_presentation("h-calculus") is get_presentation("h-calculus")


def test_catalogue_builds_each_entry_and_solves_once(monkeypatch):
    counts = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    reset()
    monkeypatch.setattr(
        presentations, "solve_consistency", counted("solve", solve_consistency)
    )
    for name, builder in list(presentations._BUILDERS.items()):
        wrapped = counted(name, builder)
        monkeypatch.setitem(presentations._BUILDERS, name, wrapped)
        monkeypatch.setattr(presentations, builder.__name__, wrapped)
    for name in CATALOGUE_NAMES:
        get_presentation(name)
    assert counts == Counter(["solve", *CATALOGUE_NAMES])


@pytest.mark.parametrize("name", CATALOGUE_NAMES)
def test_every_catalogue_presentation_is_confluent(name):
    report = get_presentation(name).check_confluence()
    assert report.failures == []
    assert report.passed
    assert report.words_checked > 0


def test_confluence_report_names_the_first_failing_overlap(monkeypatch):
    nc = Presentation(
        "nc",
        [("u", 0), ("v", 0)],
        [(("v", "u"), 2 * word("u", "v")), (("v", "v"), word("u"))],
    )
    monkeypatch.setattr(presentations, "CATALOGUE_NAMES", ("nc",))
    monkeypatch.setattr(presentations, "get_presentation", lambda name: nc)
    (entry,) = presentations.confluence_report().entries
    assert not entry.passed
    assert str(entry) == (
        "[FAIL] nc has no unresolved critical pairs: "
        "2 words checked; v^2*u reduces to u^2 and to 4*u^2"
    )
    assert entry.data == {"words_checked": 2, "failures": 2}


# -- the q,h-level calculus -----------------------------------------------------


def test_qh_calculus_shape():
    p = build_qh_rules()
    assert [g.name for g in p.generators] == ["h", "dth", "dx", "th", "x", "px", "pth"]
    assert [g.parity for g in p.generators] == [1, 0, 1, 1, 0, 0, 1]
    assert p.derivatives == frozenset(CALCULUS_DERIVATIVES)
    assert len(p.rules) == 19


def test_qh_mixed_sector_coefficients():
    rules = build_qh_rules().rules
    assert rules[("x", "dx")] == Q * Q * word("dx", "x")
    x_dth = rules[("x", "dth")]
    assert x_dth.coefficient(("dth", "x")) == Q
    assert x_dth.coefficient(("dx", "th")) == Q * Q - ONE
    assert x_dth.coefficient(("h", "dx", "x")) == -ONE
    th_dx = rules[("th", "dx")]
    assert th_dx.coefficient(("dx", "th")) == -Q
    assert th_dx.coefficient(("dth", "x")) == ZERO
    assert th_dx.coefficient(("h", "dx", "x")) == -Q
    px_th = rules[("px", "th")]
    assert px_th.coefficient(("th", "px")) == Q
    assert px_th.coefficient(("h", "x", "px")) == -Q
    assert px_th.coefficient(("h", "th", "pth")) == -Q
    px_x = rules[("px", "x")]
    assert px_x.coefficient(()) == ONE
    assert px_x.coefficient(("x", "px")) == Q * Q
    assert px_x.coefficient(("th", "pth")) == Q * Q - ONE
    assert px_x.coefficient(("h", "x", "pth")) == ONE


def test_qh_derivative_differential_sector():
    # the exchange coefficients here are the inverses 1/A and 1/q; any
    # other choice fails associativity (see the collapse test below)
    rules = build_qh_rules().rules
    assert rules[("px", "dx")] == qpow(-2) * word("dx", "px") - qpow(-2) * word(
        "h", "dx", "pth"
    )
    assert rules[("px", "dth")] == qpow(-1) * (
        word("dth", "px") + word("h", "dx", "px") + word("h", "dth", "pth")
    )
    assert rules[("pth", "dx")] == -qpow(-1) * word("dx", "pth")
    assert rules[("pth", "dth")] == word("dth", "pth") + (
        ONE - qpow(-2)
    ) * word("dx", "px") + qpow(-2) * word("h", "dx", "pth")


def test_direct_exchange_coefficient_collapses_the_algebra():
    # exchanging with A instead of 1/A makes the px-x-dx overlap reduce to
    # two different multiples of dx, i.e. it would force dx = 0
    qh = build_qh_rules()
    tampered = [
        (
            lhs,
            Q * Q * word("dx", "px")
            + (Q * Q - ONE) * word("dth", "pth")
            - word("h", "dx", "pth")
            if lhs == ("px", "dx")
            else rhs,
        )
        for lhs, rhs in qh.rules.items()
    ]
    bad = Presentation(
        "qh-direct", CALCULUS_GENERATORS, tampered, derivatives=CALCULUS_DERIVATIVES
    )
    report = bad.check_confluence()
    assert not report.passed
    assert ("px", "x", "dx") in [failure[0] for failure in report.failures]


def test_qh_products_associate_after_rewriting():
    p = get_presentation("qh-calculus")
    names = [g.name for g in p.generators]
    rng = random.Random(7)
    for _ in range(40):
        a, b, c = (
            Element.word(tuple(rng.choices(names, k=rng.randint(1, 2))))
            for _ in range(3)
        )
        assert p.normal_form((a * b) * c) == p.normal_form(a * (b * c))


def test_normal_form_is_idempotent_on_random_elements():
    p = get_presentation("qh-calculus")
    names = [g.name for g in p.generators]
    rng = random.Random(11)
    for _ in range(25):
        e = Element.zero()
        for _ in range(rng.randint(1, 3)):
            e = e + sc(rng.randint(-3, 3)) * Element.word(
                tuple(rng.choices(names, k=rng.randint(1, 3)))
            )
        nf = p.normal_form(e)
        assert p.normal_form(nf) == nf
        assert p.is_normal(nf)


# -- h -> 0 and the plain q level -------------------------------------------------


def test_q_calculus_is_the_h_free_part():
    qc = get_presentation("q-calculus")
    assert qc.rules_equal(set_h_to_zero(build_qh_rules(), "q-calculus"))
    for rhs in qc.rules.values():
        assert all("h" not in w for w in rhs.words())


def test_q_superplane_rules_agree_with_the_calculus():
    qc = get_presentation("q-calculus")
    for lhs, rhs in build_q_superplane().rules.items():
        assert qc.rules[lhs] == rhs


# -- contraction ------------------------------------------------------------------


def test_transport_images():
    sigma = transport_morphism(build_qh_rules())
    assert sigma.images["x"] == gen("x")
    assert sigma.images["th"] == gen("th") - Element.word(("h", "x"), C)
    assert sigma.images["dth"] == gen("dth") + Element.word(("h", "dx"), C)
    assert sigma.images["px"] == gen("px") + Element.word(("h", "pth"), C)
    assert sigma.images["pth"] == gen("pth")
    assert sigma.target.name.endswith("|h=0")


def test_contract_round_trip():
    contracted = contract(build_qh_rules())
    hc = build_h_calculus()
    assert contracted.name == "h-calculus"
    assert contracted.generators_equal(hc)
    assert contracted.rules_equal(hc)


def test_contract_rejects_untransported_rule():
    qh = build_qh_rules()
    tampered = [
        (lhs, rhs + word("h", "dx", "x") if lhs == ("x", "dth") else rhs)
        for lhs, rhs in qh.rules.items()
    ]
    bad = Presentation(
        "qh-tampered", CALCULUS_GENERATORS, tampered, derivatives=CALCULUS_DERIVATIVES
    )
    with pytest.raises(AlgebraError, match="not transported"):
        contract(bad)


def test_limit_propagates_poles():
    singular = Presentation(
        "singular",
        [("th", 1), ("x", 0)],
        [(("x", "th"), C * word("th", "x"))],
    )
    with pytest.raises(PoleAtOne):
        limit_presentation(singular)


# -- Heisenberg realization -------------------------------------------------------


def test_heisenberg_report_passes():
    presentation, report = build_heisenberg()
    assert report.passed
    assert len(report.entries) == 8
    assert presentation.name == "h-heisenberg"
    labels = [e.label for e in report.entries]
    assert "px*x = x*px + i*(1 + h*x*pth)" in labels


def test_warm_heisenberg_report_normalises_nothing(monkeypatch):
    # each residual is the image of a relation under the hatted map, which
    # hands back normal forms
    build_heisenberg()
    calls = []
    plain_normal_form = Presentation.normal_form

    def counted_normal_form(self, element, **options):
        calls.append(element)
        return plain_normal_form(self, element, **options)

    monkeypatch.setattr(Presentation, "normal_form", counted_normal_form)
    assert build_heisenberg()[1].passed
    assert calls == []


def test_heisenberg_presentation_has_imaginary_unit():
    p = get_presentation("h-heisenberg")
    assert p.rules[("px", "x")].coefficient(()) == I


def test_hatted_operators_are_hermitean():
    theta_hat = gen("th") + word("h", "x")
    px_hat = I * gen("px") - I * word("h", "pth")
    assert apply_star(theta_hat) == theta_hat
    assert apply_star(px_hat) == px_hat


# -- oscillator realization ---------------------------------------------------------


def test_oscillator_report_passes():
    report = oscillator_check()
    assert report.passed
    assert len(report.entries) == 5
    for entry in report.entries:
        assert entry.data["h_degree_lhs"] <= 1
        assert entry.data["h_degree_rhs"] <= 1


def test_warm_oscillator_report_multiplies_and_normalises_nothing(monkeypatch):
    # each entry reads the images of one word and of a rule's right side,
    # which the oscillator map keeps in its word memo
    oscillator_check()
    calls = []
    plain_normal_form, plain_mul = Presentation.normal_form, Element.__mul__

    def counted_normal_form(self, element, **options):
        calls.append("normal_form")
        return plain_normal_form(self, element, **options)

    def counted_mul(self, other):
        calls.append("mul")
        return plain_mul(self, other)

    monkeypatch.setattr(Presentation, "normal_form", counted_normal_form)
    monkeypatch.setattr(Element, "__mul__", counted_mul)
    assert oscillator_check().passed
    assert calls == []


def _pair_residuals(phi) -> dict:
    """Each reducible pair (a, b) of ``phi.source`` -> phi(a*b - its terms)."""
    residuals = {}
    for pair, terms in phi.source._pairs.items():
        rewritten = sum((Element.word(w, c) for w, c in terms), Element.zero())
        residuals[pair] = phi(Element.word(pair) - rewritten)
    return residuals


def test_realization_maps_descend_over_the_whole_pair_table():
    # the suites check 5 and 8 of these entries; a map is well defined only
    # if every rule, odd square and Koszul swap of its source maps to 0
    for phi, size in ((presentations._oscillator_map(), 8), (presentations._hatted(), 13)):
        residuals = _pair_residuals(phi)
        assert len(residuals) == size
        assert all(r.is_zero() for r in residuals.values()), phi.source.name


@pytest.mark.parametrize(
    "build, generator, image", [("_oscillator_map", "bd", "th"), ("_hatted", "th", "th")]
)
def test_a_wrong_image_breaks_descent(build, generator, image):
    phi = getattr(presentations, build)()
    images = {**phi.images, generator: phi.target.parse(image)}
    planted = _pair_residuals(AlgebraMorphism(phi.source, phi.target, images))
    assert any(not r.is_zero() for r in planted.values())


def _suite_map(name: str) -> AlgebraMorphism:
    """One of the four maps whose suites check only rules."""
    if name == "star":
        return presentations._star()
    if name == "transport":
        return presentations._contraction_maps(get_presentation("qh-calculus"))[0]
    return dict(zip(("delta", "control"), presentations._coaction_maps()))[name]


@pytest.mark.parametrize("name", ["delta", "control", "star", "transport"])
def test_suite_maps_send_every_default_to_zero(name):
    # relation_residuals walks the rules; of each source's 25 pair-table
    # entries, the 6 commutations with h are defaults with no rule
    phi = _suite_map(name)
    residuals = _pair_residuals(phi)
    defaults = {pair: r for pair, r in residuals.items() if pair not in phi.source.rules}
    assert len(residuals) == 25
    assert sorted(defaults) == [(g, "h") for g in ("dth", "dx", "pth", "px", "th", "x")]
    assert all(r.is_zero() for r in defaults.values())


def test_a_wrong_image_of_h_breaks_a_default():
    delta = _suite_map("delta")
    images = {**delta.images, "h": delta.target.parse("h + th")}
    planted = _pair_residuals(AlgebraMorphism(delta.source, delta.target, images))
    # each of the six commutations with h then fails
    assert all(not planted[g, "h"].is_zero() for g in ("dth", "dx", "pth", "px", "th", "x"))


def test_oscillator_cross_relations_hold_in_the_calculus():
    p = get_presentation("qh-calculus")
    a_plus = gen("x")
    b_plus = gen("th") + Element.word(("h", "x"), C)
    b_op = gen("pth")
    assert p.normal_form(b_op * a_plus - Q * a_plus * b_op).is_zero()
    assert p.normal_form(b_plus * a_plus - qpow(-1) * a_plus * b_plus).is_zero()


def test_oscillator_classical_limit():
    classical = limit_presentation(build_q_oscillator(), "oscillator")
    rules = classical.rules
    assert rules[("a", "ad")] == Element.scalar(1) + word("ad", "a")
    assert rules[("b", "bd")] == Element.scalar(1) - word("bd", "b")
    assert rules[("a", "b")] == word("b", "a")
    assert rules[("bd", "ad")] == word("ad", "bd")


# -- involution ---------------------------------------------------------------------


def test_involution_report_passes():
    report = involution_check()
    assert report.passed
    assert len(report.entries) == 11


def test_star_is_involutive_on_elements():
    hc = get_presentation("h-calculus")
    sample = word("x", "th") + I * word("h", "x") - 2 * word("px", "pth")
    assert apply_star(apply_star(sample)) == hc.normal_form(sample)


def test_mixed_rules_are_not_star_invariant():
    # negative control: the rules moving dth past the other letters are not
    # preserved, each leaves a residual proportional to h
    hc = get_presentation("h-calculus")
    star = build_star()
    for lhs in (("x", "dth"), ("th", "dth"), ("px", "dth"), ("pth", "dth")):
        relation = Element.word(lhs) - hc.rules[lhs]
        residual = hc.normal_form(star(relation))
        assert not residual.is_zero()
        assert all("h" in w for w in residual.words())


def test_star_images_are_normal():
    # involution_check reads each image as the star returns it: a sum of
    # products taken by multiply, which are normal
    hc = get_presentation("h-calculus")
    star = build_star()
    images = {lhs: star(Element.word(lhs) - rhs) for lhs, rhs in hc.rules.items()}
    assert set(presentations._STAR_INVARIANT_PAIRS) < set(images)
    assert len(presentations._STAR_INVARIANT_PAIRS) == 10
    assert any(not image.is_zero() for image in images.values())
    for image in images.values():
        assert hc.is_normal(image)


def star_antilinearity_failures(star) -> list:
    """The generators g for which star(i*g) is not -i*star(g)."""
    hc = get_presentation("h-calculus")
    return [
        g.name
        for g in hc.generators
        if star(I * gen(g.name)) != -I * star(gen(g.name))
    ]


def test_star_is_antilinear():
    assert star_antilinearity_failures(build_star()) == []


def test_antilinearity_check_catches_a_linear_star(monkeypatch):
    # the star's coefficients are all real, so only a non-real one can tell
    # an antilinear star from a linear one
    monkeypatch.setattr(ScalarQ, "conjugate", lambda self: self)
    names = get_presentation("h-calculus").generator_names()
    assert star_antilinearity_failures(build_star()) == list(names)


# -- coaction -------------------------------------------------------------------------


def test_star_and_coaction_images_are_built_fresh():
    assert coaction_check().passed and involution_check().passed
    assert build_star() is not build_star()
    assert coaction_images() is not coaction_images()
    coaction_images().clear()
    build_star().images.clear()
    assert coaction_check().passed
    assert involution_check().passed
    assert set(coaction_images()) == set(get_presentation("h-calculus").generator_names())


def test_coaction_report_passes():
    report = coaction_check()
    assert report.passed
    assert len(report.entries) == 11
    control = report.entries[-1]
    assert control.label.startswith("control:")
    assert control.data["expected"] == "nonzero residual, every term carrying h"


def test_coaction_product_unit_and_derived_rules():
    p = get_presentation("coaction-product")
    rules = p.rules
    assert rules[("a", "ai")] == Element.scalar(1)
    assert rules[("ddi", "dd")] == Element.scalar(1)
    assert rules[("dd", "ai")].coefficient(("ai", "dd")) == ONE
    assert rules[("ddi", "ai")].coefficient(("ai", "ddi")) == ONE
    assert p.normal_form(word("ai", "a", "x")) == gen("x")


@pytest.mark.parametrize(
    "wrong, pair",
    [
        ("dd*ai = ai*dd - h*ai*bt - h*ai^2*bt*dd", "('dd', 'ai')"),
        ("gm*ai = ai*gm - h*ai*dd - h*ai^2*bt*gm", "('gm', 'ai')"),
        ("ddi*ai = ai*ddi - h*ai^2*bt*ddi - h*ai*bt*ddi^2", "('ddi', 'ai')"),
    ],
)
def test_coaction_unit_check_rejects_a_wrong_inverse_rule(monkeypatch, wrong, pair):
    lhs = wrong.split(" = ")[0]
    relations = tuple(
        wrong if text.startswith(lhs + " ") else text
        for text in presentations.COACTION_INVERSE_RELATIONS
    )
    assert wrong in relations
    monkeypatch.setattr(presentations, "COACTION_INVERSE_RELATIONS", relations)
    with pytest.raises(AlgebraError, match="fails its unit check") as err:
        presentations.build_coaction_product()
    assert pair in str(err.value)


def test_catalogue_rules_match_golden_file():
    # data/catalogue_rules.txt holds each entry's name as "[name]", then its
    # rules in order as "lhs = rhs"
    got = []
    for name in CATALOGUE_NAMES:
        p = get_presentation(name)
        got.append(f"[{name}]\n")
        got.extend(f"{p.show(Element.word(lhs))} = {p.show(rhs)}\n" for lhs, rhs in p.rules.items())
    assert "".join(got) == (DATA / "catalogue_rules.txt").read_text()


# -- verification reports ---------------------------------------------------------


def test_verify_presentation_flags_failures():
    hc = get_presentation("h-calculus")
    report = verify_presentation(
        hc, [word("x", "th") - word("th", "x")], suite="demo"
    )
    assert not report.passed
    assert len(report.failures()) == 1
    assert "FAIL" in str(report)


def test_verify_presentation_labeled_relations():
    hc = get_presentation("h-calculus")
    relation = word("x", "th") - word("th", "x") - word("h", "x", "x")
    report = verify_presentation(hc, [("plane relation", relation)])
    assert report.passed
    assert report.entries[0].label == "plane relation"
    assert report.entries[0].normal_form == "0"
