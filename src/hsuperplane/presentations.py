"""Catalogue of the deformed superplane algebras and their verification suites.

The central objects are rewrite-rule presentations of:

* the q-superplane and its full differential calculus (coordinates,
  differentials, derivatives) carrying both deformation parameters q and h;
* the h-superplane calculus obtained from it by the singular change of
  generators followed by the q -> 1 limit (``contract``);
* the function algebra of the h-deformed supergroup GL_h(1|1);
* the h-deformed super-Heisenberg algebra and the q-deformed
  super-oscillator algebra realized inside the calculi.

Every entry but ``q-calculus`` (the h -> 0 specialization of ``qh-calculus``)
is written as ``lhs = rhs`` text (the ``*_RELATIONS`` tuples) and read by
``expr.parse_rule``; ``QH_CALCULUS_RELATIONS`` names the solver's coefficients.

The module also houses the linear solver that fixes the calculus
coefficients from the d-consistency equations, and named verification
suites (Heisenberg, oscillator, involution, coaction) returning
:class:`~hsuperplane.reports.VerificationReport` objects.
"""

from __future__ import annotations

import functools
from typing import Optional, Sequence

from .scalar import ONE, ZERO, Q, ScalarQ
from .algebra import (
    AlgebraError,
    AlgebraMorphism,
    Element,
    InvolutionSpec,
    Presentation,
    Record,
    gen,
    relation_residuals,
)
from .expr import parse_relation, parse_rule
from .reports import VerificationReport


class InconsistentSystemError(AlgebraError):
    """The linear system has no (unique) solution."""


class UnknownPresentationError(AlgebraError):
    """No catalogue entry under that name."""


# -- generator tables ---------------------------------------------------------
# Order matters: each tuple lists generators in normal order (rewriting moves
# every word towards ascending order in this listing).

CALCULUS_GENERATORS = (
    ("h", 1),
    ("dth", 0),
    ("dx", 1),
    ("th", 1),
    ("x", 0),
    ("px", 0),
    ("pth", 1),
)
CALCULUS_DERIVATIVES = ("px", "pth")

PLANE_GENERATORS = (("h", 1), ("dth", 0), ("dx", 1), ("th", 1), ("x", 0))

GL_GENERATORS = (("h", 1), ("a", 0), ("bt", 1), ("gm", 1), ("dd", 0))

HEISENBERG_GENERATORS = (("h", 1), ("th", 1), ("x", 0), ("px", 0), ("pth", 1))

OSCILLATOR_GENERATORS = (("ad", 0), ("bd", 1), ("b", 1), ("a", 0))

COACTION_GENERATORS = (
    ("h", 1),
    ("a", 0),
    ("ai", 0),
    ("bt", 1),
    ("gm", 1),
    ("dd", 0),
    ("ddi", 0),
    ("dth", 0),
    ("dx", 1),
    ("th", 1),
    ("x", 0),
    ("px", 0),
    ("pth", 1),
)


# -- consistency coefficients --------------------------------------------------


class CoefficientSolution(Record):
    """The exchange coefficients of the mixed calculus relations.

    ``A`` scales the x--dx exchange and is not constrained by the
    consistency equations (``A_free``); the default is q^2.
    """

    _fields = ("A", "B", "F11", "F12", "F21", "F22", "A_free")

    def __init__(
        self,
        A: ScalarQ,
        B: ScalarQ,
        F11: ScalarQ,
        F12: ScalarQ,
        F21: ScalarQ,
        F22: ScalarQ,
        A_free: bool = True,
    ):
        vars(self).update(A=A, B=B, F11=F11, F12=F12, F21=F21, F22=F22, A_free=A_free)


CONSISTENCY_UNKNOWNS = ("B", "F11", "F12", "F21", "F22")

# In the order the equations arise when the exterior differential is applied
# to each defining relation of the calculus.
CONSISTENCY_EQUATIONS = (
    "F11 = q*(1 - F22)",
    "F12 = -(1 + q*F21)",
    "F12 = q*F11 - 1",
    "F21 = q*(F22 - 1)",
    "F12 + F21 = q*(F11 + F22) - (1 + q)*B",
    "B = 1",
    "F12 + F21 + 1 = (1 - q)*F21",
    "1 - F11 - F22 = (1 - q)*(1 - F22)",
)


@functools.cache
def _relation_forms(texts: tuple[str, ...], p: Presentation) -> tuple[Element, ...]:
    """lhs - rhs of each ``lhs = rhs`` text, read in ``p`` once per process."""
    return tuple(left - right for left, right in (parse_relation(t, p) for t in texts))


@functools.cache
def _consistency_forms() -> tuple[Element, ...]:
    """lhs - rhs of each of ``CONSISTENCY_EQUATIONS``, parsed once."""
    unknowns = Presentation("consistency-unknowns", [(u, 0) for u in CONSISTENCY_UNKNOWNS])
    return _relation_forms(CONSISTENCY_EQUATIONS, unknowns)


def consistency_system() -> tuple[list[list[ScalarQ]], list[ScalarQ], list[str]]:
    """The linear system obeyed by (B, F11, F12, F21, F22).

    A row and its right-hand side are the coefficients and the negated
    constant of lhs - rhs of one of ``CONSISTENCY_EQUATIONS``.  Two of the
    eight equations repeat earlier ones, so the system leaves a
    one-parameter family: F22 is not pinned down by d-consistency alone.
    """
    forms = _consistency_forms()
    rows = [[form.coefficient((u,)) for u in CONSISTENCY_UNKNOWNS] for form in forms]
    rhs = [-form.scalar_part() for form in forms]
    return rows, rhs, list(CONSISTENCY_EQUATIONS)


def consistency_equations(sol: CoefficientSolution) -> list[tuple[str, ScalarQ]]:
    """Residual of each consistency equation under a candidate solution:
    lhs - rhs with the solution substituted for the unknowns.

    All residuals vanish identically in q exactly when the solution
    satisfies the system.
    """
    value = {(u,): getattr(sol, u) for u in CONSISTENCY_UNKNOWNS}
    value[()] = ONE
    return [
        (label, sum((c * value[w] for w, c in form.items()), ZERO))
        for label, form in zip(CONSISTENCY_EQUATIONS, _consistency_forms())
    ]


def solve_linear(
    rows: Sequence[Sequence[ScalarQ]], rhs: Sequence[ScalarQ]
) -> list[ScalarQ]:
    """Solve an exact linear system by Gauss-Jordan elimination.

    Raises InconsistentSystemError when the system is contradictory or
    does not determine every unknown.
    """
    if not rows:
        raise InconsistentSystemError("empty system")
    nvars = len(rows[0])
    m = [list(row) + [b] for row, b in zip(rows, rhs)]
    pivots: list[int] = []
    rank = 0
    for col in range(nvars):
        pivot_row = next(
            (k for k in range(rank, len(m)) if not m[k][col].is_zero()), None
        )
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = ONE / m[rank][col]
        m[rank] = [entry * inv for entry in m[rank]]
        for k in range(len(m)):
            if k != rank and not m[k][col].is_zero():
                factor = m[k][col]
                m[k] = [a - factor * b for a, b in zip(m[k], m[rank])]
        pivots.append(col)
        rank += 1
    for k in range(rank, len(m)):
        if not m[k][nvars].is_zero():
            raise InconsistentSystemError("contradictory linear system")
    if rank < nvars:
        free = [c for c in range(nvars) if c not in pivots]
        raise InconsistentSystemError(
            f"underdetermined system; free columns {free}"
        )
    solution = [ZERO] * nvars
    for row_index, col in enumerate(pivots):
        solution[col] = m[row_index][nvars]
    return solution


def solve_consistency() -> CoefficientSolution:
    """Solve the d-consistency system for the calculus coefficients.

    The system itself fixes B to 1 and ties F11, F12, F21 to F22, leaving a
    one-parameter family.  The catalogue uses the F22 = 0 member: it is the
    normalization under which the mixed relations stay polynomial in q and
    reproduce the standard exchange matrix, and it makes the solution
    unique.  A never enters the system and stays free (default q^2).
    """
    rows, rhs, _ = consistency_system()
    pinned_rows = [list(row) for row in rows]
    pinned_rows.append([ZERO, ZERO, ZERO, ZERO, ONE])
    pinned_rhs = list(rhs) + [ZERO]
    b, f11, f12, f21, f22 = solve_linear(pinned_rows, pinned_rhs)
    solution = CoefficientSolution(
        A=Q * Q, B=b, F11=f11, F12=f12, F21=f21, F22=f22, A_free=True
    )
    bad = [label for label, res in consistency_equations(solution) if not res.is_zero()]
    if bad:
        raise InconsistentSystemError(f"solution violates {bad}")
    return solution


# -- catalogue builders --------------------------------------------------------


Q_SUPERPLANE_RELATIONS = (
    "x*th = q*th*x",
    "th^2 = 0",
    "dx^2 = 0",
    "dx*dth = q^-1*dth*dx",
    "h^2 = 0",
)


def _from_relations(name: str, generators, relations, scalars=None, **options) -> Presentation:
    """A fresh presentation whose rules are read from ``lhs = rhs`` texts,
    with ``scalars`` naming further constants of the texts."""
    free = Presentation(name, generators)
    rules = [parse_rule(text, free, scalars) for text in relations]
    return Presentation(name, generators, rules, **options)


def build_q_superplane() -> Presentation:
    """Coordinates (x, th) and differentials (dx, dth) at the q level.

    h is carried along as a passive odd constant so that elements of the
    contracted algebras parse in this presentation too.
    """
    return _from_relations("q-superplane", PLANE_GENERATORS, Q_SUPERPLANE_RELATIONS)


# The mixed sectors are written in the consistency solution's coefficients
# (B, F11, F12, F21, F22) and the free exchange coefficient A, by name.
QH_CALCULUS_RELATIONS = (
    # coordinates
    "x*th = q*th*x + h*x^2",
    "th^2 = -h*th*x",
    # differentials
    "dx^2 = 0",
    "dx*dth = q^-1*dth*dx",
    # coordinates with differentials
    "x*dx = A*dx*x",
    "x*dth = F11*dth*x + F12*dx*th + (A - F11 - F12)/(q - 1)*h*dx*x",
    "th*dx = F21*dx*th + F22*dth*x - (A + F21 + F22)/(q - 1)*h*dx*x",
    "th*dth = B*dth*th - (B + F12 + F21)/(q - 1)*h*dx*th + (B - F11 - F22)/(q - 1)*h*dth*x",
    # derivatives
    "pth*px = q*px*pth",
    "pth^2 = 0",
    # derivatives with coordinates
    "px*x = 1 + A*x*px + F12*th*pth - (A - F11 - F12)/(q - 1)*h*x*pth",
    "px*th = -F21*th*px - (A + F21 + F22)/(q - 1)*h*x*px - (1 + F12 + F21)/(q - 1)*h*th*pth",
    "pth*x = F11*x*pth",
    "pth*th = 1 - th*pth - F22*x*px - (1 - F11 - F22)/(q - 1)*h*x*pth",
    # derivatives with differentials.  This sector exchanges with the
    # inverse coefficients 1/A and 1/q: together with the sectors above
    # that is the unique choice closing every length-3 critical pair
    # (any other collapses the algebra, e.g. forcing dx = 0), and its
    # q -> 1 limit agrees with the h-level calculus.
    "px*dx = A^-1*dx*px + (A^-1 - q^-1)/(q - 1)*h*dx*pth",
    "px*dth = q^-1*dth*px + q^-1*h*dx*px + q^-1*h*dth*pth",
    "pth*dx = -q^-1*dx*pth",
    "pth*dth = dth*pth + (1 - A^-1)*dx*px - (A^-1 - q^-1)/(q - 1)*h*dx*pth",
    # odd deformation parameter
    "h^2 = 0",
)


def build_qh_rules() -> Presentation:
    """The full calculus carrying both q and h.

    Coordinate, differential and derivative sectors are fixed; the mixed
    sectors take their coefficients from the consistency solution, with the
    free exchange coefficient A = q^2, the value for which the
    differential-derivative sector is valid.
    """
    solution = solve_consistency()
    return _from_relations(
        "qh-calculus",
        CALCULUS_GENERATORS,
        QH_CALCULUS_RELATIONS,
        scalars={u: getattr(solution, u) for u in ("A",) + CONSISTENCY_UNKNOWNS},
        derivatives=CALCULUS_DERIVATIVES,
    )


# The h-superplane calculus, written independently of the q-level
# derivation: the contraction suite compares the two.
H_CALCULUS_RELATIONS = (
    # coordinates
    "x*th = th*x + h*x^2",
    "th^2 = -h*th*x",
    # differentials (dual plane)
    "dx^2 = 0",
    "dx*dth = dth*dx",
    # coordinates with differentials
    "x*dx = dx*x",
    "x*dth = dth*x - h*dx*x",
    "th*dx = -dx*th - h*dx*x",
    "th*dth = dth*th - h*dx*th - h*dth*x",
    # derivatives
    "pth*px = px*pth",
    "pth^2 = 0",
    # derivatives with coordinates
    "px*x = 1 + x*px + h*x*pth",
    "px*th = th*px - h*x*px - h*th*pth",
    "pth*x = x*pth",
    "pth*th = 1 - th*pth + h*x*pth",
    # derivatives with differentials
    "px*dx = dx*px - h*dx*pth",
    "px*dth = dth*px + h*dx*px + h*dth*pth",
    "pth*dx = -dx*pth",
    "pth*dth = dth*pth + h*dx*pth",
    # odd deformation parameter
    "h^2 = 0",
)


def build_h_calculus() -> Presentation:
    """The h-superplane calculus: all exchange coefficients at q = 1."""
    return _from_relations(
        "h-calculus",
        CALCULUS_GENERATORS,
        H_CALCULUS_RELATIONS,
        derivatives=CALCULUS_DERIVATIVES,
    )


GL_H11_RELATIONS = (
    "gm*a = a*gm - h*a^2 - h*gm*bt + h*a*dd",
    "dd*gm = gm*dd - h*dd^2 + h*gm*bt + h*dd*a",
    "gm^2 = h*gm*dd - h*gm*a",
    "gm*bt = -bt*gm + h*bt*dd - h*bt*a",
    "dd*a = a*dd - h*bt*a + h*bt*dd",
)


def build_gl_h11() -> Presentation:
    """Function algebra of the h-deformed supergroup GL_h(1|1).

    Generators: even a, dd on the diagonal, odd bt, gm off the diagonal.
    Pairs without an explicit rule graded-commute, which covers bt with a
    and dd, and the square of bt.
    """
    return _from_relations("gl-h11", GL_GENERATORS, GL_H11_RELATIONS + ("h^2 = 0",))


HEISENBERG_RELATIONS = (
    "x*th = th*x + h*x^2",
    "th^2 = -h*th*x",
    "pth*px = px*pth",
    "pth^2 = 0",
    "px*x = x*px + i*(1 + h*x*pth)",
    "pth*x = x*pth",
    "px*th = th*px - h*(x*px + i*th*pth)",
    "pth*th = 1 - th*pth + h*x*pth",
)


def build_h_heisenberg() -> Presentation:
    """The h-deformed super-Heisenberg algebra on (x, th, px, pth).

    Each of ``HEISENBERG_RELATIONS`` rewrites its one-word left side; h
    squares to zero.
    """
    return _from_relations(
        "h-heisenberg", HEISENBERG_GENERATORS, HEISENBERG_RELATIONS + ("h^2 = 0",)
    )


Q_OSCILLATOR_RELATIONS = (
    "a*ad = 1 + q^2*ad*a + (q^2 - 1)*bd*b",
    "b*bd = 1 - bd*b",
    "a*bd = q*bd*a",
    "a*b = q^-1*b*a",
    "b*ad = q*ad*b",
    "bd*ad = q^-1*ad*bd",
)


def build_q_oscillator() -> Presentation:
    """The q-deformed super-oscillator algebra on (a, ad, b, bd).

    The two exchange rules between the raising sector and ad are fixed by
    the realization of the oscillator inside the calculus; they are exactly
    what the remaining rules need to be confluent.
    """
    return _from_relations("q-oscillator", OSCILLATOR_GENERATORS, Q_OSCILLATOR_RELATIONS)


# -- coaction product algebra ----------------------------------------------


COACTION_UNIT_RELATIONS = ("a*ai = 1", "ai*a = 1", "dd*ddi = 1", "ddi*dd = 1")

# Exchange rules between an inverted diagonal letter and gm, dd or a.  From a
# base rule for the letters u and v, with swap coefficient kappa and h*S the
# rest (S free of h), conjugating by the inverse ui of u gives
#
#     v*ui = kappa^-1*ui*v - kappa^-1*h*(ui*S*ui)   and
#     ui*v = kappa^-1*v*ui - kappa^-1*h*(ui*S*ui)
#
# for the two descending pairs, with ui*S*ui reduced modulo h, which is exact
# because h^2 = 0.  The base rules are gl-h11's dd*a (for dd*ai and ddi*a),
# gm*a (gm*ai) and dd*gm (ddi*gm), and dd*ai above (ddi*ai).
COACTION_INVERSE_RELATIONS = (
    "dd*ai = ai*dd + h*ai*bt - h*ai^2*bt*dd",
    "gm*ai = h + ai*gm - h*ai*dd - h*ai^2*bt*gm",
    "ddi*a = a*ddi - h*bt*ddi + h*a*bt*ddi^2",
    "ddi*gm = h + gm*ddi - h*a*ddi + h*bt*gm*ddi^2",
    "ddi*ai = ai*ddi + h*ai^2*bt*ddi - h*ai*bt*ddi^2",
)


def _coaction_rules(relations: tuple) -> list:
    """The h-calculus rules, then ``relations`` read over the coaction
    generators."""
    free = Presentation("coaction-free", COACTION_GENERATORS)
    return list(get_presentation("h-calculus").rules.items()) + [
        parse_rule(text, free) for text in relations
    ]


def build_coaction_product() -> Presentation:
    """GL_h(1|1) entries, their inverses and the calculus in one algebra.

    The group letters graded-commute with the plane letters (tensor-product
    sign rule).  Formal inverses ai, ddi of the even diagonal letters are
    adjoined with two-sided unit rules and the exchange rules
    ``COACTION_INVERSE_RELATIONS``; each of those is verified by
    multiplying the inverse back in.
    """
    rules = _coaction_rules(
        GL_H11_RELATIONS + COACTION_UNIT_RELATIONS + COACTION_INVERSE_RELATIONS
    )
    derived = rules[-len(COACTION_INVERSE_RELATIONS):]
    full = Presentation(
        "coaction-product", COACTION_GENERATORS, rules, derivatives=CALCULUS_DERIVATIVES
    )
    inverse_of = {"ai": "a", "ddi": "dd"}
    for pair, rhs in derived:
        if pair[1] in inverse_of:
            # rule for v*ui: multiplying by u on the right must give back v
            check = full.multiply(rhs, gen(inverse_of[pair[1]]))
            expected = full.normal_form(gen(pair[0]))
        else:
            # rule for ui*v: multiplying by u on the left must give back v
            check = full.multiply(gen(inverse_of[pair[0]]), rhs)
            expected = full.normal_form(gen(pair[1]))
        if check != expected:
            raise AlgebraError(f"derived inverse rule for {pair} fails its unit check")
    return full


_COACTION_IMAGES = {
    "x": "a*x + bt*th",
    "th": "gm*x + dd*th",
    "dx": "a*dx - bt*dth",
    "dth": "-gm*dx + dd*dth",
    "px": "ai*px - ai*gm*ddi*bt*ai*px - ai*gm*ddi*pth",
    "pth": "ddi*pth - ddi*bt*ai*gm*ddi*pth + ddi*bt*ai*px",
    "h": "h",
}


def coaction_images() -> dict[str, Element]:
    """Images of the calculus generators under the supergroup coaction."""
    product = get_presentation("coaction-product")
    return {g: product.parse(text) for g, text in _COACTION_IMAGES.items()}


@functools.cache
def _coaction_maps() -> tuple[AlgebraMorphism, AlgebraMorphism]:
    """The coaction delta, and the control map into the same product algebra
    with undeformed (graded-commuting) group letters; built once per process
    so that their word memos persist across passes, as ``d_memo`` does."""
    hc = get_presentation("h-calculus")
    images = coaction_images()
    control = Presentation(
        "coaction-control",
        COACTION_GENERATORS,
        _coaction_rules(COACTION_UNIT_RELATIONS),
        derivatives=CALCULUS_DERIVATIVES,
    )
    return (
        AlgebraMorphism(hc, get_presentation("coaction-product"), images),
        AlgebraMorphism(hc, control, images),
    )


# -- contraction pipeline ------------------------------------------------------


def _at_q_one(element: Element) -> Element:
    """The q -> 1 limit of every coefficient; PoleAtOne on a singular one."""
    return element.map_coefficients(ScalarQ.limit_at_one)


def _with_rules_mapped(p: Presentation, name: str, rhs_map) -> Presentation:
    """``p`` renamed, with each rule right-hand side mapped by ``rhs_map``."""
    relations = [(lhs, rhs_map(rhs)) for lhs, rhs in p.rules.items()]
    return Presentation(name, p.generators, relations, derivatives=p.derivatives)


def limit_presentation(p: Presentation, name: Optional[str] = None) -> Presentation:
    """Apply the q -> 1 limit to every rule coefficient.

    Raises PoleAtOne when any coefficient is singular there.
    """
    return _with_rules_mapped(p, name or f"{p.name}|q=1", _at_q_one)


def set_h_to_zero(p: Presentation, name: Optional[str] = None) -> Presentation:
    """Same generators, every rule right-hand side taken modulo h (the h -> 0
    specialization)."""
    return _with_rules_mapped(p, name or f"{p.name}|h=0", lambda r: r.drop_words_containing("h"))


_TRANSPORT_IMAGES = {
    "x": "x",
    "th": "th - h*x/(q - 1)",
    "dx": "dx",
    "dth": "dth + h*dx/(q - 1)",
    "px": "px + h*pth/(q - 1)",
    "pth": "pth",
    "h": "h",
}


def transport_morphism(p_q: Presentation) -> AlgebraMorphism:
    """The singular change of generators into the h -> 0 specialization.

    Each generator of the q,h-level calculus is written in terms of the
    plain q-level generators; the corrections carry the coefficient
    1/(q - 1), which is what makes the q -> 1 limit a contraction.
    """
    target = set_h_to_zero(p_q)
    images: dict[str, Element] = {}
    for g in p_q.generators:
        if g.name not in _TRANSPORT_IMAGES:
            raise AlgebraError(f"no transport image for generator {g.name!r}")
        images[g.name] = target.parse(_TRANSPORT_IMAGES[g.name])
    return AlgebraMorphism(p_q, target, images)


def contract(p_q: Presentation, *, name: Optional[str] = None) -> Presentation:
    """Contract a q,h-level presentation to its h-level limit.

    First verifies that every rule is the correct transport of the plain
    q-level calculus (the rule must hold identically after the singular
    change of generators), then takes the q -> 1 limit coefficient-wise.
    PoleAtOne propagates if any coefficient fails to converge.
    """
    for rule, residual in relation_residuals(transport_morphism(p_q)):
        if not residual.is_zero():
            raise AlgebraError(
                f"rule {rule.lhs} is not transported correctly: residual {residual!r}"
            )
    return limit_presentation(p_q, name or "h-calculus")


# -- verification suites -------------------------------------------------------


def _add_residual(report: VerificationReport, p: Presentation, label: str, residual: Element):
    """An entry of ``report`` for a normal form of ``p``: it passes iff 0."""
    report.add(label, p.show(residual), residual.is_zero())


@functools.cache  # its callers pass only presentations built once per process
def _rule_text(p: Presentation, rule) -> str:
    return f"{p.show(Element.word(rule.lhs))} = {p.show(rule.rhs)}"


def verify_presentation(
    p: Presentation, relations: Sequence, suite: str = "relations"
) -> VerificationReport:
    """Normalize each relation element; an entry passes iff it reduces to 0.

    ``relations`` holds Elements or (label, Element) pairs.
    """
    report = VerificationReport(suite, p.name)
    for index, item in enumerate(relations):
        if isinstance(item, tuple):
            label, element = item
        else:
            label, element = f"relation {index + 1}", item
        _add_residual(report, p, label, p.normal_form(element))
    return report


def build_heisenberg() -> tuple[Presentation, VerificationReport]:
    """Realize the Heisenberg operators inside the calculus and verify.

    The map of the Heisenberg generators onto the hatted operators carries
    lhs - rhs of each of ``HEISENBERG_RELATIONS`` into the calculus, where
    it must vanish.  The abstract presentation they satisfy is returned
    together with the report.  The map and the relations are built once
    per process, the images (normal forms already) on every call.
    """
    hatted = _hatted()
    forms = _relation_forms(HEISENBERG_RELATIONS, hatted.source)
    report = VerificationReport("heisenberg", hatted.target.name)
    for text, form in zip(HEISENBERG_RELATIONS, forms):
        _add_residual(report, hatted.target, text, hatted(form))
    return hatted.source, report


@functools.cache
def _hatted() -> AlgebraMorphism:
    """The Heisenberg generators onto the hatted operators of the h-calculus."""
    hc = get_presentation("h-calculus")
    operators = {"h": "h", "x": "x", "th": "th + h*x", "px": "i*(px - h*pth)", "pth": "pth"}
    images = {g: hc.parse(text) for g, text in operators.items()}
    return AlgebraMorphism(get_presentation("h-heisenberg"), hc, images)


_OSCILLATOR_IMAGES = {"ad": "x", "a": "px - h*pth/(q - 1)", "bd": "th + h*x/(q - 1)", "b": "pth"}

# the words of q-oscillator that the suite checks, under the labels it prints:
# the left side of a rule, or for B^2 = 0 = B+^2 the two odd squares
_OSCILLATOR_CHECKS = (
    ("A*A+ = 1 + q^2*A+*A + (q^2-1)*B+*B", ("a", "ad")),
    ("B*B+ = 1 - B+*B", ("b", "bd")),
    ("B^2 = 0 = B+^2", (("b", "b"), ("bd", "bd"))),
    ("A*B+ = q*B+*A", ("a", "bd")),
    ("A*B = q^-1*B*A", ("a", "b")),
)


@functools.cache
def _oscillator_map() -> AlgebraMorphism:
    """The q-oscillator onto A+, A, B+ and B in the q,h-level calculus."""
    p = get_presentation("qh-calculus")
    images = {g: p.parse(text) for g, text in _OSCILLATOR_IMAGES.items()}
    return AlgebraMorphism(get_presentation("q-oscillator"), p, images)


def oscillator_check() -> VerificationReport:
    """Verify the super-oscillator relations inside the q,h-level calculus.

    The oscillators are A+ = x, A = px - h/(q-1)*pth, B+ = th + h/(q-1)*x,
    B = pth: the images of ad, a, bd and b under a map built once per
    process.  Each checked rule of q-oscillator holds with residual exactly
    0; the entries record the h-degree of each side's image to witness that
    the h-dependence cancels (it never exceeds 1 in the intermediates).
    """
    phi = _oscillator_map()
    p, rules = phi.target, phi.source.rules
    report = VerificationReport("oscillator", p.name)
    for label, lhs in _OSCILLATOR_CHECKS:
        if lhs in rules:
            left, right = phi(Element.word(lhs)), phi(rules[lhs])
            residuals = (left - right,)
        else:  # the two odd squares, each of which must map to 0
            left, right = residuals = tuple(phi(Element.word(w)) for w in lhs)
        report.add(
            label,
            "; ".join(p.show(r) for r in residuals),
            all(r.is_zero() for r in residuals),
            h_degree_lhs=left.max_letter_count("h"),
            h_degree_rhs=right.max_letter_count("h"),
        )
    return report


# The mixed coordinate-differential relations are not star-invariant; the
# star preserves the coordinate, dual-plane and derivative sectors.
_STAR_INVARIANT_PAIRS = (
    ("x", "th"),
    ("th", "th"),
    ("dx", "dx"),
    ("dx", "dth"),
    ("pth", "px"),
    ("pth", "pth"),
    ("px", "x"),
    ("px", "th"),
    ("pth", "x"),
    ("pth", "th"),
)


_STAR_IMAGES = {
    "x": "x",
    "th": "th + 2*h*x",
    "px": "-px + 2*h*pth",
    "pth": "pth",
    "h": "-h",
    "dx": "dx",
    "dth": "dth",
}


def build_star() -> InvolutionSpec:
    """The antilinear anti-automorphism of the h-level calculus.

    x and pth are self-adjoint, th and px pick up 2h-corrections, h is
    anti-self-adjoint, and the differentials are fixed.
    """
    p = get_presentation("h-calculus")
    return InvolutionSpec(p, {g: p.parse(text) for g, text in _STAR_IMAGES.items()})


# the star of the suites, built once per process so that its word memo persists
_star = functools.cache(build_star)


def apply_star(element: Element) -> Element:
    return _star()(element)


def involution_check() -> VerificationReport:
    """Check that the star is involutive and preserves the invariant sectors;
    the star is built once per process, its images on every call."""
    star = _star()
    p = star.presentation
    report = VerificationReport("involution", p.name)
    report.add(
        "star applied twice fixes every generator", "", star.is_involutive()
    )
    for rule, image in relation_residuals(star, _STAR_INVARIANT_PAIRS):
        _add_residual(report, p, f"star preserves {_rule_text(p, rule)}", image)
    return report


def coaction_check() -> VerificationReport:
    """Verify covariance of the calculus under the supergroup coaction.

    The coordinate coaction must preserve the plane relations, its
    extension to differentials the coordinate-differential relations, and
    its extension to derivatives the derivative-coordinate relations.  A
    control run with undeformed group letters fails, with the residual
    proportional to h.  Both maps are built once per process; every residual
    is computed on every call.
    """
    delta, control_map = _coaction_maps()
    hc, product = delta.source, delta.target
    report = VerificationReport("coaction", product.name)
    sectors = (
        ("coordinates", (("x", "th"), ("th", "th"))),
        ("differentials", (("x", "dx"), ("x", "dth"), ("th", "dx"), ("th", "dth"))),
        ("derivatives", (("px", "x"), ("px", "th"), ("pth", "x"), ("pth", "th"))),
    )
    for sector, pairs in sectors:
        for rule, residual in relation_residuals(delta, pairs):
            label = f"{sector}: delta preserves {_rule_text(hc, rule)}"
            _add_residual(report, product, label, residual)
    [(rule, residual0)] = relation_residuals(control_map, [("x", "th")])
    control_ok = (not residual0.is_zero()) and all(
        "h" in w for w in residual0.words()
    )
    report.add(
        f"control: undeformed group letters break {_rule_text(hc, rule)}",
        control_map.target.show(residual0),
        control_ok,
        expected="nonzero residual, every term carrying h",
    )
    return report


# -- catalogue ----------------------------------------------------------------


def _build_q_calculus() -> Presentation:
    return set_h_to_zero(get_presentation("qh-calculus"), "q-calculus")


_BUILDERS = {
    "q-superplane": build_q_superplane,
    "qh-calculus": build_qh_rules,
    "q-calculus": _build_q_calculus,
    "h-calculus": build_h_calculus,
    "gl-h11": build_gl_h11,
    "h-heisenberg": build_h_heisenberg,
    "q-oscillator": build_q_oscillator,
    "coaction-product": build_coaction_product,
}

CATALOGUE_NAMES = tuple(_BUILDERS)


@functools.cache
def get_presentation(name: str) -> Presentation:
    """Fetch a catalogue presentation by name (built once, then cached)."""
    if name not in _BUILDERS:
        known = ", ".join(CATALOGUE_NAMES)
        raise UnknownPresentationError(f"unknown presentation {name!r}; known: {known}")
    return _BUILDERS[name]()


# -- suite report builders -------------------------------------------------------


def consistency_report() -> VerificationReport:
    """Solve the consistency system and back-substitute every equation."""
    solution = solve_consistency()
    report = VerificationReport("consistency", "qh-calculus")
    closed_form = (
        ("B", solution.B, ONE),
        ("F11", solution.F11, Q),
        ("F12", solution.F12, Q * Q - ONE),
        ("F21", solution.F21, -Q),
        ("F22", solution.F22, ZERO),
    )
    for name, value, expected in closed_form:
        report.add(f"{name} = {expected}", str(value), value == expected)
    report.add(
        "A stays free (default q^2)",
        str(solution.A),
        solution.A_free and solution.A == Q * Q,
    )
    for label, residual in consistency_equations(solution):
        report.add(f"back-substitution: {label}", str(residual), residual.is_zero())
    return report


@functools.cache
def _contraction_maps(p_q: Presentation) -> tuple:
    """The transport of the catalogue's ``p_q`` and its q -> 1 limit, built
    once per process like the catalogue."""
    return transport_morphism(p_q), limit_presentation(p_q, "h-calculus")


def contraction_report() -> VerificationReport:
    """Transport every q-level rule to h = 0 and compare the catalogues.

    Each rule's transport residual is an entry of the report; the q -> 1
    limit is then taken directly (``limit_presentation``), since ``contract``
    would compute every residual a second time.
    """
    p_q = get_presentation("qh-calculus")
    sigma, contracted = _contraction_maps(p_q)
    report = VerificationReport("contraction", p_q.name)
    for rule, residual in relation_residuals(sigma):
        label = f"rule {'*'.join(rule.lhs)} transports to the h = 0 plane"
        _add_residual(report, sigma.target, label, residual)
    catalogue = get_presentation("h-calculus")
    report.add(
        "contracted generators match the h-level catalogue",
        "",
        contracted.generators_equal(catalogue),
    )
    report.add(
        "contracted rules match the h-level catalogue",
        "",
        contracted.rules_equal(catalogue),
    )
    return report


def overlap_text(p: Presentation, failure: tuple) -> str:
    """A failure of ``check_confluence``: the overlap and its two normal forms."""
    w, via_left, via_right = failure
    return f"{p.show(Element.word(w))} reduces to {p.show(via_left)} and to {p.show(via_right)}"


def confluence_report() -> VerificationReport:
    """Resolve every doubly-reducible length-3 word in every catalogue entry;
    a failing entry names its first unresolved overlap."""
    report = VerificationReport("confluence")
    for name in CATALOGUE_NAMES:
        p = get_presentation(name)
        outcome = p.check_confluence()
        text = f"{outcome.words_checked} words checked"
        if outcome.failures:
            text += f"; {overlap_text(p, outcome.failures[0])}"
        report.add(
            f"{name} has no unresolved critical pairs",
            text,
            outcome.passed,
            words_checked=outcome.words_checked,
            failures=len(outcome.failures),
        )
    return report
