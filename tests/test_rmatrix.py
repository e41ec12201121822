"""Deformation matrices: Yang-Baxter, inverses, RTT, rule regeneration."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsuperplane import rmatrix
from hsuperplane.algebra import AlgebraError, Element, Presentation, gen, word
from hsuperplane.presentations import CALCULUS_DERIVATIVES, CALCULUS_GENERATORS, get_presentation
from hsuperplane.rmatrix import (
    InconsistentRulesError,
    RankMismatchError,
    SingularTensorError,
    SuperIndex,
    SuperTensor,
    TENSOR_BUILDERS,
    _D,
    _DX,
    _X,
    _embedded,
    _entry_sum,
    _free_product,
    _indices,
    build_K_h,
    build_K_hq,
    build_Khat_h,
    build_P,
    build_R_h,
    build_T,
    coordinate_differential_rules,
    embed,
    h_line,
    inverse_check,
    regenerate_calculus,
    regeneration_report,
    rtt_expand,
    rtt_report,
    ybe_check,
    ybe_report,
)
from hsuperplane.scalar import ONE, Q, ZERO, qpow, sc


# -- index and tensor plumbing ---------------------------------------------------


def test_super_index_parities():
    assert SuperIndex.dimension == 2
    assert SuperIndex.parity(1) == 0
    assert SuperIndex.parity(2) == 1
    with pytest.raises(ValueError):
        SuperIndex.parity(3)


def test_h_line_squares_h_to_zero():
    p = h_line()
    assert p.normal_form(word("h", "h")).is_zero()


def test_tensor_rejects_parity_violation():
    with pytest.raises(AlgebraError):
        SuperTensor(h_line(), 4, {(1, 1, 1, 1): gen("h")})


def test_tensor_rejects_bad_rank_and_index():
    with pytest.raises(RankMismatchError):
        SuperTensor(h_line(), 3, {})
    with pytest.raises(RankMismatchError):
        SuperTensor(h_line(), 4, {(1, 1, 1): Element.scalar(1)})
    with pytest.raises(ValueError):
        SuperTensor(h_line(), 4, {(1, 1, 1, 3): Element.scalar(1)})


def test_tensor_drops_zero_entries_and_compares():
    a = SuperTensor(h_line(), 4, {(1, 1, 1, 1): Element.scalar(1)})
    b = SuperTensor(
        h_line(), 4, {(1, 1, 1, 1): Element.scalar(1), (2, 2, 2, 2): Element.zero()}
    )
    assert a == b
    assert (1, 1, 1, 1) in a.entries
    assert a.entry((2, 2, 2, 2)).is_zero()


def test_rank_mismatch_in_products():
    rank4 = SuperTensor.identity(h_line(), 4)
    rank6 = SuperTensor.identity(h_line(), 6)
    with pytest.raises(RankMismatchError):
        rank4 * rank6


# -- the deformation matrices ----------------------------------------------------


def test_permutation_entries_and_square():
    p = build_P()
    assert p.entry((1, 2, 2, 1)) == Element.scalar(1)
    assert p.entry((2, 2, 2, 2)) == Element.scalar(-1)
    assert p.entry((1, 1, 1, 1)) == Element.scalar(1)
    assert p.entry((1, 2, 1, 2)).is_zero()
    assert p * p == SuperTensor.identity(h_line(), 4)


def test_q_level_matrix_entries():
    k = build_K_hq()
    assert k.entry((1, 1, 1, 1)) == Element.scalar(Q)
    assert k.entry((2, 1, 1, 2)) == Element.scalar(Q - qpow(-1))
    assert k.entry((2, 2, 2, 2)) == Element.scalar(qpow(-1))
    assert k.entry((1, 2, 1, 1)) == gen("h")
    assert k.entry((2, 1, 1, 1)) == gen("h").scale(-qpow(-1))


def test_h_level_matrix_is_the_limit():
    k = build_K_h()
    # row with upper index pair (1,2)
    assert k.entry((1, 2, 1, 1)) == gen("h")
    assert k.entry((1, 2, 1, 2)) == Element.scalar(1)
    assert k.entry((1, 2, 2, 1)).is_zero()
    assert k.entry((1, 2, 2, 2)).is_zero()
    assert k.entry((2, 2, 1, 2)) == gen("h").scale(sc(-1))
    assert k.entry((2, 2, 2, 1)) == gen("h").scale(sc(-1))


def test_braid_form_matrix_entries():
    khat = build_Khat_h()
    # row with upper index pair (2,1)
    assert khat.entry((2, 1, 1, 1)) == gen("h").scale(sc(-1))
    assert khat.entry((2, 1, 1, 2)) == Element.scalar(1)
    assert khat.entry((2, 1, 2, 1)).is_zero()
    assert khat.entry((2, 2, 2, 2)) == Element.scalar(-1)


def test_r_matrix_is_permutation_times_braid_form():
    assert build_R_h() == build_P() * build_Khat_h()
    r = build_R_h()
    assert r.entry((1, 2, 1, 1)) == gen("h").scale(sc(-1))
    assert r.entry((2, 1, 1, 1)) == gen("h")
    assert r.entry((2, 2, 1, 2)) == gen("h")
    assert r.entry((2, 2, 2, 2)) == Element.scalar(1)


def test_entry_parity_matches_index_parity():
    parities = {g.name: g.parity for g in h_line().generators}
    for tensor in (build_P(), build_K_hq(), build_K_h(), build_Khat_h(), build_R_h()):
        for idx, element in tensor.entries.items():
            expected = sum(SuperIndex.parity(v) for v in idx) % 2
            for w in element.words():
                assert sum(parities[g] for g in w) % 2 == expected


# -- embeddings ------------------------------------------------------------------


def test_identity_embeds_to_identity():
    rank4 = SuperTensor.identity(h_line(), 4)
    rank6 = SuperTensor.identity(h_line(), 6)
    for slot in (12, 13, 23):
        for graded in (True, False):
            assert embed(rank4, slot, graded) == rank6


def test_outer_embedding_sign():
    khat13 = embed(build_Khat_h(), 13)
    assert khat13.entry((2, 1, 2, 2, 1, 2)) == Element.scalar(-1)


def test_embedding_requires_rank_four():
    with pytest.raises(RankMismatchError):
        embed(SuperTensor.identity(h_line(), 6), 12)
    with pytest.raises(ValueError):
        embed(SuperTensor.identity(h_line(), 4), 14)


def test_embedding_preserves_parity_consistency():
    parities = {g.name: g.parity for g in h_line().generators}
    for slot in (12, 13, 23):
        embedded = embed(build_Khat_h(), slot)
        for idx, element in embedded.entries.items():
            expected = sum(SuperIndex.parity(v) for v in idx) % 2
            for w in element.words():
                assert sum(parities[g] for g in w) % 2 == expected


# -- Yang-Baxter and inverses ----------------------------------------------------


def test_braid_form_satisfies_graded_braid_equation():
    assert ybe_check(build_Khat_h(), "hat", graded=True)


def test_r_matrix_satisfies_both_yang_baxter_forms():
    r = build_R_h()
    assert ybe_check(r, "plain", graded=True)
    assert ybe_check(r, "plain", graded=False)


def test_tampered_tensor_fails_the_braid_equation():
    khat = build_Khat_h()
    entries = dict(khat.entries)
    del entries[(2, 1, 1, 2)]
    assert not ybe_check(SuperTensor(h_line(), 4, entries), "hat", graded=True)


def test_ybe_rejects_unknown_form():
    with pytest.raises(ValueError):
        ybe_check(build_R_h(), "braid")


def test_k_and_r_are_mutually_inverse():
    assert inverse_check()
    identity = SuperTensor.identity(h_line(), 4)
    assert build_K_h() * build_R_h() == identity
    assert build_R_h() * build_K_h() == identity


def test_invert_method_matches_r_matrix():
    assert build_K_h().invert() == build_R_h()
    assert build_P().invert() == build_P()


def test_invert_rejects_singular_scalar_part():
    entries = {(1, 2, 1, 1): gen("h")}
    with pytest.raises(SingularTensorError):
        SuperTensor(h_line(), 4, entries).invert()


def test_invert_rejects_an_entry_beyond_first_order_in_h():
    with pytest.raises(AlgebraError, match=r"entry at \(1, 1\) is not of the form c \+ c'\*h"):
        build_T().invert()


def test_invert_checks_its_own_result(monkeypatch):
    # a wrong inverse of the scalar part must not pass as the inverse
    def identity(m):
        return [[ONE if r == c else ZERO for c in range(len(m))] for r in range(len(m))]

    monkeypatch.setattr(rmatrix, "_invert_scalar_matrix", identity)
    with pytest.raises(SingularTensorError, match="inverse verification failed"):
        build_K_hq().invert()


def test_tensor_builders_return_fresh_tensors():
    assert ybe_report().passed  # the suites' own tensors are built by now
    for build in (build_P, build_K_hq, build_K_h, build_Khat_h, build_R_h):
        assert build() is not build()
    build_R_h().entries.clear()
    build_Khat_h().entries.clear()
    assert build_R_h() == build_P() * build_Khat_h()
    assert ybe_report().passed


def test_trusted_tensors_pass_the_checks_they_skip(monkeypatch):
    # every product and embedding that ybe, rtt and regenerate compute, the
    # products that build their once-per-process tensors included, is built
    # by SuperTensor._wrap; the checked constructor must accept and rebuild it
    built = []
    wrap = SuperTensor._wrap

    def recording(presentation, rank, entries):
        built.append(wrap(presentation, rank, entries))
        return built[-1]

    monkeypatch.setattr(SuperTensor, "_wrap", staticmethod(recording))
    assert ybe_report().passed and rtt_report().passed and regeneration_report().passed
    for build in TENSOR_BUILDERS.values():
        build()
    regenerate_calculus(build_K_h())
    assert {t.rank for t in built} == {4, 6}
    for t in built:
        assert SuperTensor(t.presentation, t.rank, t.entries) == t


def test_ybe_report_passes():
    report = ybe_report()
    assert report.passed
    assert len(report.entries) == 5


# -- RTT expansion ---------------------------------------------------------------


def test_supermatrix_entries_and_parity():
    t = build_T()
    assert t.entry((1, 1)) == gen("a")
    assert t.entry((1, 2)) == gen("bt")
    assert t.entry((2, 1)) == gen("gm")
    assert t.entry((2, 2)) == gen("dd")
    wrong = {(1, 1): gen("bt"), (1, 2): gen("bt"), (2, 1): gen("gm"), (2, 2): gen("dd")}
    with pytest.raises(AlgebraError):
        SuperTensor(get_presentation("gl-h11"), 2, wrong)


def test_rtt_entries_are_free_and_vanish_in_the_supergroup():
    gl = get_presentation("gl-h11")
    entries = rtt_expand(build_Khat_h())
    assert len(entries) == 16
    assert any(not e.is_zero() for e in entries)
    for e in entries:
        assert gl.normal_form(e).is_zero()


def test_rtt_recovers_commutator_and_square_relations():
    entries = rtt_expand(build_Khat_h())
    # the (11,22) slot is minus twice the odd square relation, verbatim
    assert entries[3] == word("bt", "bt").scale(sc(-2))
    # the (12,22) slot carries the even-odd commutation relation
    assert entries[7] == word("bt", "dd") - word("dd", "bt") - word("h", "bt", "bt")


def test_rtt_report_recovers_every_supergroup_relation():
    report = rtt_report()
    assert report.passed
    assert len(report.entries) == 24
    labels = [entry.label for entry in report.entries]
    assert "relation recovered: a*bt = bt*a" in labels
    assert "relation recovered: gm^2 = h*gm*(dd - a)" in labels


def test_rtt_requires_rank_four():
    with pytest.raises(RankMismatchError):
        rtt_expand(SuperTensor.identity(h_line(), 6))


def test_rtt_requires_a_rank_two_matrix():
    gl = get_presentation("gl-h11")
    with pytest.raises(RankMismatchError, match="rank-2 matrix, got 4"):
        rtt_expand(build_Khat_h(), SuperTensor.identity(gl, 4))


# -- regeneration of the calculus ------------------------------------------------


def test_regenerated_rules_match_the_calculus():
    hc = get_presentation("h-calculus")
    regenerated = regenerate_calculus(build_K_h())
    hc_rules = hc.rules
    for lhs, rhs in regenerated.rules.items():
        assert hc_rules[lhs] == rhs
    missing = set(hc_rules) - set(regenerated.rules)
    assert missing == {("dx", "dx"), ("dx", "dth"), ("h", "h")}


def test_regenerated_presentation_is_confluent():
    regenerated = regenerate_calculus(build_K_h())
    outcome = regenerated.check_confluence()
    assert outcome.failures == []
    assert outcome.passed


def test_q_level_regeneration_matches_the_calculus():
    qh = get_presentation("qh-calculus")
    rules = coordinate_differential_rules(build_K_hq(), factor=Q)
    assert set(rules) == {("x", "dx"), ("x", "dth"), ("th", "dx"), ("th", "dth")}
    for lhs, rhs in rules.items():
        assert qh.rules[lhs] == rhs


def test_regeneration_requires_rank_four():
    with pytest.raises(RankMismatchError):
        regenerate_calculus(SuperTensor.identity(h_line(), 6))


def test_regeneration_rejects_undetermined_squares():
    entries = dict(build_K_h().entries)
    entries[(2, 2, 2, 2)] = Element.scalar(-1)
    with pytest.raises(InconsistentRulesError):
        regenerate_calculus(SuperTensor(h_line(), 4, entries))


def test_regeneration_report_passes():
    report = regeneration_report()
    assert report.passed
    assert len(report.entries) == 21


# -- printing --------------------------------------------------------------------


def test_grid_rendering_shows_rows_and_entries():
    grid = build_K_h().to_grid()
    lines = grid.splitlines()
    assert lines[0].split() == ["11", "12", "21", "22"]
    assert len(lines) == 5
    assert "-h" in grid


def test_json_rendering_round_trips():
    data = json.loads(build_Khat_h().to_json())
    assert data["rank"] == 4
    assert data["indices"] == ["11", "12", "21", "22"]
    assert data["entries"][1][0] == "h"
    assert data["entries"][3][3] == "-1"
    rank6 = json.loads(embed(build_Khat_h(), 12).to_json())
    assert len(rank6["indices"]) == 8


# -- the sparse free product ---------------------------------------------------------


def dense_free_product(a: dict, b: dict, n: int) -> dict:
    """Every (upper, mid, lower) index triple, summed in the free algebra."""
    indices = list(itertools.product(SuperIndex.values, repeat=n))
    out = {}
    for upper in indices:
        for lower in indices:
            total = Element.zero()
            for mid in indices:
                left, right = a.get(upper + mid), b.get(mid + lower)
                if left is not None and right is not None:
                    total = total + left * right
            if not total.is_zero():
                out[upper + lower] = total
    return out


def random_entry_map(rng: random.Random, n: int, density: float) -> dict:
    """Entries 1, -1, a or -a at a random share ``density`` of the indices,
    so that the sum over mid often cancels to 0."""
    return {
        idx: Element.word(rng.choice(((), ("a",))), sc(rng.choice((1, -1))))
        for idx in itertools.product(SuperIndex.values, repeat=2 * n)
        if rng.random() < density
    }


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(st.sampled_from((2, 3)), st.integers(0, 2**32), st.sampled_from((0.1, 0.3, 0.6)))
def test_sparse_free_product_matches_the_dense_loop(n, seed, density):
    rng = random.Random(seed)
    a, b = random_entry_map(rng, n, density), random_entry_map(rng, n, density)
    assert _free_product(a, b, n) == dense_free_product(a, b, n)


def per_index_embedded(entries: dict, n: int, active: tuple, graded: bool = True) -> dict:
    """The embedding as a loop over every index, testing the passive slots and
    summing the Koszul parities for each index on each call."""
    par = SuperIndex.parity
    passive = [s for s in range(n) if s not in active]
    right_of = [(s, [a for a in active if a > s]) for s in passive]
    out = {}
    for idx in itertools.product(SuperIndex.values, repeat=2 * n):
        if any(idx[s] != idx[n + s] for s in passive):
            continue
        base = entries.get(tuple(idx[a] for a in active) + tuple(idx[n + a] for a in active))
        if base is None or base.is_zero():
            continue
        if graded and sum(
            par(idx[s]) * (par(idx[a]) + par(idx[n + a])) for s, right in right_of for a in right
        ) % 2:
            base = -base
        out[idx] = base
    return out


# (n, active) as embed (slots 12, 13, 23) and rtt_expand (T1, T2) pass them
EMBEDDING_SHAPES = [(3, (0, 1)), (3, (0, 2)), (3, (1, 2)), (2, (0,)), (2, (1,))]


@pytest.mark.parametrize("graded", [True, False])
@pytest.mark.parametrize("n, active", EMBEDDING_SHAPES)
def test_embedded_matches_the_per_index_loop(n, active, graded):
    rng = random.Random(f"{n}{active}{graded}")
    for density in (0.2, 0.5, 0.9):
        maps = [random_entry_map(rng, len(active), density) for _ in range(2)]
        # a zero entry is skipped, as a missing one is
        maps[1][next(iter(maps[1]), (1,) * 2 * len(active))] = Element.zero()
        # twice in a row, with different maps of the same shape
        for entries in maps:
            got = _embedded(entries, n, active, graded)
            expected = per_index_embedded(entries, n, active, graded)
            assert got == expected
            assert list(got) == list(expected)


# -- regeneration against one builder per sector ------------------------------------


def sector_coordinate_differential_rules(t, factor=ONE):
    """X^i dX^j = factor * (-1)^{i(j+1)} t^{ji}_{kl} dX^k X^l."""
    par = SuperIndex.parity
    rules = {}
    for i, j in _indices(2):
        rhs = _entry_sum(t, lambda k, l: ((j, i, k, l), (_DX[k], _X[l])))
        sign = (-1) ** (par(i) * (par(j) + 1))
        rules[(_X[i], _DX[j])] = rhs.scale(factor * sc(sign))
    return rules


def sector_derivative_coordinate_rules(t):
    """d_j X^i = delta^i_j + (-1)^{ij} t^{ik}_{lj} X^l d_k."""
    par = SuperIndex.parity
    rules = {}
    for i, j in _indices(2):
        rhs = Element.scalar(1) if i == j else Element.zero()
        sign = sc((-1) ** (par(i) * par(j)))
        terms = _entry_sum(t, lambda k, l: ((i, k, l, j), (_X[l], _D[k])))
        rules[(_D[j], _X[i])] = rhs + terms.scale(sign)
    return rules


def sector_derivative_differential_rules(t):
    """d_j dX^i = (-1)^{j(i+1)} (t^-1)^{ik}_{lj} dX^l d_k."""
    inverse = t.invert()
    par = SuperIndex.parity
    rules = {}
    for i, j in _indices(2):
        sign = sc((-1) ** (par(j) * (par(i) + 1)))
        terms = _entry_sum(inverse, lambda k, l: ((i, k, l, j), (_DX[l], _D[k])))
        rules[(_D[j], _DX[i])] = terms.scale(sign)
    return rules


def sector_coordinate_rules(khat):
    """X^i X^j = Khat^{ij}_{kl} X^k X^l, solved for the two plane rules."""
    mixed = _entry_sum(khat, lambda k, l: ((1, 2, k, l), (_X[k], _X[l])))
    if not mixed.coefficient(("x", "th")).is_zero():
        raise InconsistentRulesError("coordinate relation does not determine x*th")
    rules = {("x", "th"): mixed}
    diagonal = _entry_sum(khat, lambda k, l: ((2, 2, k, l), (_X[k], _X[l])))
    self_coeff = diagonal.coefficient(("th", "th"))
    denom = ONE - self_coeff
    if denom.is_zero():
        raise InconsistentRulesError("coordinate relation does not determine th*th")
    remaining = diagonal - Element.word(("th", "th"), self_coeff)
    partial = Presentation(
        "plane-partial",
        CALCULUS_GENERATORS,
        [(("x", "th"), mixed)],
        derivatives=CALCULUS_DERIVATIVES,
    )
    rules[("th", "th")] = partial.normal_form(remaining).scale(ONE / denom)
    return rules


def sector_derivative_rules(khat):
    """d_i d_j = Khat^{kl}_{ji} d_l d_k, solved for the two derivative rules."""
    diagonal = _entry_sum(khat, lambda k, l: ((k, l, 2, 2), (_D[l], _D[k])))
    self_coeff = diagonal.coefficient(("pth", "pth"))
    denom = ONE - self_coeff
    if denom.is_zero():
        raise InconsistentRulesError("derivative relation does not determine pth^2")
    rules = {
        ("pth", "pth"): (diagonal - Element.word(("pth", "pth"), self_coeff)).scale(
            ONE / denom
        )
    }
    mixed = _entry_sum(khat, lambda k, l: ((k, l, 2, 1), (_D[l], _D[k])))
    swap_coeff = mixed.coefficient(("pth", "px"))
    if swap_coeff.is_zero():
        raise InconsistentRulesError("derivative relation does not determine pth*px")
    residue = word("px", "pth") - (mixed - Element.word(("pth", "px"), swap_coeff))
    partial = Presentation(
        "derivative-partial",
        CALCULUS_GENERATORS,
        [(("pth", "pth"), rules[("pth", "pth")])],
        derivatives=CALCULUS_DERIVATIVES,
    )
    rules[("pth", "px")] = partial.normal_form(residue).scale(ONE / swap_coeff)
    return rules


def sector_regeneration(t):
    """The calculus rebuilt by one builder per sector, in the rule order of
    ``regenerate_calculus``."""
    khat = t * build_P()
    rules = {}
    rules.update(sector_coordinate_rules(khat))
    rules.update(sector_coordinate_differential_rules(t))
    rules.update(sector_derivative_coordinate_rules(t))
    rules.update(sector_derivative_differential_rules(t))
    rules.update(sector_derivative_rules(khat))
    return Presentation(
        "regenerated-calculus",
        CALCULUS_GENERATORS,
        list(rules.items()),
        derivatives=CALCULUS_DERIVATIVES,
    )


def perturbed_k_h(seed):
    """Kh with 1-3 entries set to an integer in -2..2, times h at an odd index."""
    rng = random.Random(seed)
    entries = dict(build_K_h().entries)
    for _ in range(rng.randint(1, 3)):
        idx = rng.choice(list(_indices(4)))
        value = Element.scalar(rng.randint(-2, 2))
        entries[idx] = value * gen("h") if sum(map(SuperIndex.parity, idx)) % 2 else value
    return SuperTensor(h_line(), 4, entries)


def regeneration_outcome(regenerate, t):
    """The regenerated rules and their terms in order, or the exception class
    and the last word of its message (the word a relation fails to fix)."""
    try:
        rules = regenerate(t).rules
    except AlgebraError as error:
        return type(error), str(error).split()[-1]
    return [(lhs, list(rhs.items())) for lhs, rhs in rules.items()]


def test_regeneration_matches_the_sector_builders():
    tensors = [build_K_h(), build_K_hq()] + [perturbed_k_h(seed) for seed in range(400)]
    kinds = set()
    for t in tensors:
        expected = regeneration_outcome(sector_regeneration, t)
        assert regeneration_outcome(regenerate_calculus, t) == expected
        kinds.add(expected[0] if isinstance(expected, tuple) else list)
    # the perturbations reach every outcome: rules, an undetermined word and
    # a singular scalar part
    assert kinds == {list, InconsistentRulesError, SingularTensorError}
