"""Super-tensor arithmetic for the deformation matrices of the calculus.

The module builds the super permutation P, the deformation matrices
K_{h,q}, K_h, the braid-form matrix Khat_h and the R-matrix R_h, checks
the graded and ungraded Yang-Baxter equations with the slot embeddings
carrying the Koszul signs, expands the reflection equation on a generic
supermatrix into the supergroup relations, and regenerates the calculus
rule catalogue from the K-matrix alone: the coordinate and derivative braid
relations are solved for their rules, and the coordinate-differential,
derivative-coordinate and derivative-differential exchange sectors are read
off the K-matrix and its inverse.

Index values are 1 (x-type, even) and 2 (theta-type, odd).  A rank-2n
tensor maps a multi-index (n upper values followed by n lower values) to
an algebra Element; the entry parity always equals the total parity of
its indices.
"""

import functools
import itertools
import json
from typing import Optional, Sequence

from .algebra import (
    AlgebraError, Element, Presentation, _accumulate, _concatenations, gen, word
)
from .presentations import (
    CALCULUS_DERIVATIVES,
    CALCULUS_GENERATORS,
    InconsistentSystemError,
    _at_q_one,
    _relation_forms,
    get_presentation,
    solve_linear,
    verify_presentation,
)
from .reports import VerificationReport
from .scalar import ONE, Q, ScalarQ, ZERO, qpow, sc


class RankMismatchError(AlgebraError):
    """Tensor ranks do not fit the requested operation."""


class SingularTensorError(AlgebraError):
    """The scalar part of the tensor is not invertible."""


class InconsistentRulesError(AlgebraError):
    """Regenerated relations violate parity or do not close."""


class SuperIndex:
    """Tensor index: value 1 is even (x-type), value 2 is odd (theta-type)."""

    dimension = 2
    values = (1, 2)

    @staticmethod
    def parity(value: int) -> int:
        if value not in (1, 2):
            raise ValueError(f"index value must be 1 or 2, got {value!r}")
        return value - 1


def _indices(n: int):
    return itertools.product(SuperIndex.values, repeat=n)


@functools.cache
def h_line() -> Presentation:
    """The one-generator algebra of the odd deformation parameter."""
    return Presentation("h-line", [("h", 1)], [(("h", "h"), Element.zero())])


class SuperTensor:
    """Rank-2n tensor with Element entries and index-consistent parity.

    ``__init__`` checks each entry's index values, rank and parity.  The
    product and the embeddings of checked tensors skip those checks
    (``_wrap``): a product entry's parity is the sum of its factors', and
    an embedding only signs entries and repeats the untouched slot's index.
    """

    __slots__ = ("presentation", "rank", "entries")

    def __init__(self, presentation: Presentation, rank: int, entries) -> None:
        if rank % 2 != 0 or rank <= 0:
            raise RankMismatchError(f"rank must be a positive even number, got {rank}")
        stored = {}
        for idx, element in dict(entries).items():
            idx = tuple(idx)
            if len(idx) != rank:
                raise RankMismatchError(f"index {idx} does not have rank {rank}")
            for value in idx:
                SuperIndex.parity(value)
            if not isinstance(element, Element):
                element = Element.scalar(element)
            if element.is_zero():
                continue
            parity = presentation.parity(element)
            if parity is None:
                raise AlgebraError(f"inhomogeneous tensor entry {element!r}")
            expected = sum(SuperIndex.parity(v) for v in idx) % 2
            if parity != expected:
                raise AlgebraError(
                    f"entry {element!r} at {idx} has parity {parity}, expected {expected}"
                )
            stored[idx] = element
        self.presentation = presentation
        self.rank = rank
        self.entries = stored

    @staticmethod
    def _wrap(presentation: Presentation, rank: int, entries: dict) -> "SuperTensor":
        """A tensor with the nonzero ``entries``, built from checked tensors
        (see the class docstring); the checks of ``__init__`` are skipped."""
        out = object.__new__(SuperTensor)
        out.presentation = presentation
        out.rank = rank
        out.entries = {idx: element for idx, element in entries.items() if element._terms}
        return out

    @property
    def n(self) -> int:
        return self.rank // 2

    def entry(self, idx) -> Element:
        return self.entries.get(tuple(idx), Element.zero())

    @classmethod
    def identity(cls, presentation: Presentation, rank: int = 4) -> "SuperTensor":
        n = rank // 2
        one = Element.scalar(1)
        return cls(presentation, rank, {idx + idx: one for idx in _indices(n)})

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuperTensor):
            return NotImplemented
        return self.rank == other.rank and self.entries == other.entries

    def __hash__(self):
        return hash((self.rank, frozenset(self.entries.items())))

    def __mul__(self, other: "SuperTensor") -> "SuperTensor":
        if not isinstance(other, SuperTensor):
            return NotImplemented
        if self.rank != other.rank:
            raise RankMismatchError(
                f"cannot multiply rank {self.rank} by rank {other.rank}"
            )
        products = {}
        for idx, left, right in _matching_entries(self.entries, other.entries, self.n):
            products.setdefault(idx, []).append((left._terms, right._terms, ONE))
        p = self.presentation
        entries = {idx: Element._wrap(p._add_products({}, t)) for idx, t in products.items()}
        return SuperTensor._wrap(p, self.rank, entries)

    def map_entries(self, f) -> "SuperTensor":
        return SuperTensor(
            self.presentation,
            self.rank,
            {idx: f(element) for idx, element in self.entries.items()},
        )

    def invert(self) -> "SuperTensor":
        """Inverse of a tensor whose entries have the form c + c'*h.

        With M = M0 + h*M1 and h squaring to zero, the inverse is
        M0^-1 - M0^-1 (h M1) M0^-1; M0 must be invertible.
        """
        for idx, element in self.entries.items():
            if set(element.words()) - {(), ("h",)}:
                raise AlgebraError(f"entry at {idx} is not of the form c + c'*h")
        rows = list(_indices(self.n))
        inv0 = _invert_scalar_matrix(
            [[self.entry(upper + lower).scalar_part() for lower in rows] for upper in rows]
        )
        entries = {
            upper + lower: inv0[r][c]
            for r, upper in enumerate(rows)
            for c, lower in enumerate(rows)
        }
        m0_inverse = SuperTensor(self.presentation, self.rank, entries)
        h_part = self.map_entries(lambda element: element - element.scalar_part())
        correction = m0_inverse * h_part * m0_inverse
        entries = {
            idx: m0_inverse.entry(idx) - correction.entry(idx) for idx in _indices(self.rank)
        }
        result = SuperTensor(self.presentation, self.rank, entries)
        identity = SuperTensor.identity(self.presentation, self.rank)
        if self * result != identity or result * self != identity:
            raise SingularTensorError("inverse verification failed")
        return result

    def _cells(self):
        """Index labels and the rendered entry at each (row, column) label."""
        labels = ["".join(map(str, idx)) for idx in _indices(self.n)]
        cells = [
            [self.presentation.show(self.entry(tuple(map(int, r)) + tuple(map(int, c))))
             for c in labels]
            for r in labels
        ]
        return labels, cells

    def to_grid(self) -> str:
        labels, cells = self._cells()
        width = max(
            [len(s) for row in cells for s in row] + [len(label) for label in labels]
        )
        header = " " * (len(labels[0]) + 2) + "  ".join(c.rjust(width) for c in labels)
        lines = [header]
        for label, row in zip(labels, cells):
            lines.append(f"{label} [" + "  ".join(s.rjust(width) for s in row) + "]")
        return "\n".join(lines)

    def to_json(self, indent: Optional[int] = None) -> str:
        labels, entries = self._cells()
        return json.dumps(
            {"rank": self.rank, "indices": labels, "entries": entries}, indent=indent
        )

    def __repr__(self):
        return f"SuperTensor(rank={self.rank}, {len(self.entries)} nonzero entries)"


def _invert_scalar_matrix(m: Sequence[Sequence[ScalarQ]]) -> list:
    """Inverse of a square scalar matrix, solved one identity column at a time."""
    size = len(m)
    try:
        columns = [
            solve_linear(m, [ONE if r == c else ZERO for r in range(size)])
            for c in range(size)
        ]
    except InconsistentSystemError:
        raise SingularTensorError("scalar part of the tensor is singular") from None
    return [list(row) for row in zip(*columns)]


# -- the deformation matrices ---------------------------------------------------


def _from_rows(rows) -> SuperTensor:
    """Rank-4 tensor from a 4x4 array in the (11, 12, 21, 22) index order."""
    pairs = list(_indices(2))
    entries = {}
    for r, upper in enumerate(pairs):
        for c, lower in enumerate(pairs):
            entries[upper + lower] = rows[r][c]
    return SuperTensor(h_line(), 4, entries)


def build_P() -> SuperTensor:
    """The super permutation: P^{ij}_{kl} = (-1)^{ij} delta^i_l delta^j_k."""
    entries = {}
    for i, j in _indices(2):
        sign = (-1) ** (SuperIndex.parity(i) * SuperIndex.parity(j))
        entries[(i, j, j, i)] = Element.scalar(sign)
    return SuperTensor(h_line(), 4, entries)


def build_K_hq() -> SuperTensor:
    """The q,h-level deformation matrix read off the calculus."""
    h = gen("h")
    one = Element.scalar(1)
    zero = Element.zero()
    return _from_rows(
        [
            [Element.scalar(Q), zero, zero, zero],
            [h, one, zero, zero],
            [-qpow(-1) * h, Element.scalar(Q - qpow(-1)), one, zero],
            [zero, -h, -qpow(-1) * h, Element.scalar(qpow(-1))],
        ]
    )


def build_K_h() -> SuperTensor:
    """The q -> 1 limit of K_{h,q}."""
    return build_K_hq().map_entries(_at_q_one)


def build_Khat_h() -> SuperTensor:
    """The q -> 1 limit of K_{h,q} P (the braid form of the K-matrix)."""
    return (build_K_hq() * build_P()).map_entries(_at_q_one)


def build_R_h() -> SuperTensor:
    """The R-matrix P Khat_h; it is the two-sided inverse of K_h."""
    return build_P() * build_Khat_h()


TENSOR_BUILDERS = {
    "P": build_P,
    "Khq": build_K_hq,
    "Kh": build_K_h,
    "Khat": build_Khat_h,
    "Rh": build_R_h,
}


@functools.cache
def _suite_tensor(name: str) -> SuperTensor:
    """The tensor of ``TENSOR_BUILDERS[name]`` for the suites, built once per
    process; the builders return fresh tensors, whose entries are mutable."""
    return TENSOR_BUILDERS[name]()


# -- embeddings and Yang-Baxter checks -------------------------------------------


@functools.cache
def _embedding(n: int, active: tuple, graded: bool) -> tuple:
    """The (index, source index, odd) triples of ``_embedded`` for one shape:
    each index whose passive slots repeat their upper value below, the
    index of the tensor it reads (active slots, upper then lower), and
    whether its Koszul sign is -1.  Graded, each passive index contributes
    (-1) to the power of its parity times the parities of the active legs
    to its right, upper and lower."""
    par = SuperIndex.parity
    passive = [s for s in range(n) if s not in active]
    right_of = [(s, [a for a in active if a > s]) for s in passive]
    out = []
    for idx in _indices(2 * n):
        if any(idx[s] != idx[n + s] for s in passive):
            continue
        source = tuple(idx[a] for a in active) + tuple(idx[n + a] for a in active)
        odd = graded and sum(
            par(idx[s]) * (par(idx[a]) + par(idx[n + a])) for s, right in right_of for a in right
        ) % 2 == 1
        out.append((idx, source, odd))
    return tuple(out)


def _embedded(entries: dict, n: int, active: tuple, graded: bool = True) -> dict:
    """Entries of a tensor placed on the ``active`` slots (0-based, ascending)
    of an n-fold tensor product, with the identity on the other slots.

    The domain is fixed by the shape: ``_embedding`` builds its 2^(n +
    len(active)) triples once per (n, active, graded), 32 for ``embed`` and
    8 for ``rtt_expand``.  They hold no entries; each call signs its own.
    """
    out = {}
    for idx, source, odd in _embedding(n, active, graded):
        base = entries.get(source)
        if base is not None and not base.is_zero():
            out[idx] = -base if odd else base
    return out


def embed(t: SuperTensor, slot: int, graded: bool = True) -> SuperTensor:
    """Embed a rank-4 tensor into slots (12), (13) or (23) of a triple product.

    The graded embeddings carry the Koszul signs of moving the tensor legs
    past the untouched slot; the ungraded embeddings drop them.
    """
    if t.rank != 4:
        raise RankMismatchError(f"embedding needs a rank-4 tensor, got rank {t.rank}")
    if slot not in (12, 13, 23):
        raise ValueError(f"slot must be one of 12, 13, 23, got {slot!r}")
    active = {12: (0, 1), 13: (0, 2), 23: (1, 2)}[slot]
    return SuperTensor._wrap(t.presentation, 6, _embedded(t.entries, 3, active, graded))


def ybe_check(t: SuperTensor, form: str, graded: bool = True) -> bool:
    """Evaluate a Yang-Baxter equation for a rank-4 tensor.

    The plain form is t12 t13 t23 = t23 t13 t12 and the hat (braid) form
    is t12 t23 t12 = t23 t12 t23; both are checked entrywise over the
    rank-6 products.
    """
    t12 = embed(t, 12, graded)
    t23 = embed(t, 23, graded)
    if form == "hat":
        return t12 * t23 * t12 == t23 * t12 * t23
    if form == "plain":
        t13 = embed(t, 13, graded)
        return t12 * t13 * t23 == t23 * t13 * t12
    raise ValueError(f"form must be 'hat' or 'plain', got {form!r}")


def inverse_check() -> bool:
    """K_h and R_h are two-sided inverses of each other."""
    k, r = _suite_tensor("Kh"), _suite_tensor("Rh")
    identity = SuperTensor.identity(h_line(), 4)
    return k * r == identity and r * k == identity


# -- the reflection relation on the supergroup -----------------------------------


def build_T() -> SuperTensor:
    """The generic supergroup matrix of generators: even diagonal entries,
    odd off-diagonal entries."""
    names = {(1, 1): "a", (1, 2): "bt", (2, 1): "gm", (2, 2): "dd"}
    return SuperTensor(get_presentation("gl-h11"), 2, {i: gen(g) for i, g in names.items()})


def _matching_entries(a: dict, b: dict, n: int):
    """Each (product index, left entry, right entry) of the matrix product of
    the rank-2n entry maps ``a`` and ``b``.

    Sparse: ``b`` is indexed by its upper half once, and each entry of ``a``
    meets only the entries of ``b`` whose upper half is its lower half.
    """
    rows = {}
    for idx, right in b.items():
        rows.setdefault(idx[:n], []).append((idx[n:], right))
    for idx, left in a.items():
        for lower, right in rows.get(idx[n:], ()):
            yield idx[:n] + lower, left, right


def _free_product(a: dict, b: dict, n: int) -> dict:
    """Matrix product of rank-2n entry maps in the free algebra (no rewriting)."""
    out = {}
    for idx, left, right in _matching_entries(a, b, n):
        _concatenations(left._terms, right._terms, out.setdefault(idx, {}))
    return {idx: Element._wrap(terms) for idx, terms in out.items() if terms}


def rtt_expand(t: SuperTensor, T: Optional[SuperTensor] = None) -> list:
    """The 16 entries of t T1 T2 - T1 T2 t as free Elements, for a rank-4 t
    and a rank-2 T (by default ``build_T()``).

    No relations are imposed on the matrix entries; the supergroup
    relations are exactly what makes every returned Element vanish.
    """
    if t.rank != 4:
        raise RankMismatchError(f"reflection relation needs rank 4, got {t.rank}")
    if T is None:
        T = build_T()
    if T.rank != 2:
        raise RankMismatchError(f"reflection relation needs a rank-2 matrix, got {T.rank}")
    t1 = _embedded(T.entries, 2, (0,))
    t2 = _embedded(T.entries, 2, (1,))
    k = dict(t.entries)
    left = _free_product(_free_product(k, t1, 2), t2, 2)
    right = _free_product(_free_product(t1, t2, 2), k, 2)
    out = []
    for upper in _indices(2):
        for lower in _indices(2):
            idx = upper + lower
            out.append(left.get(idx, Element.zero()) - right.get(idx, Element.zero()))
    return out


def _canonical_modulo_h2(element: Element, free: Presentation) -> Element:
    """Canonical form modulo h^2 with order-h words fully commuted.

    The h-free part is kept verbatim.  Words carrying an h are replaced by
    their normal form in ``free``, a presentation on the same generators
    (h first) with no rules: its Koszul defaults move h to the front, kill
    h^2 and odd squares, and sort the rest with signs.  At order h any
    graded reordering lies in h times the relation ideal, so sorting
    exposes the underlying relation.
    """
    kept = element.drop_words_containing("h")
    return kept + free.normal_form(element - kept)


SUPERGROUP_RELATIONS = (
    "a*bt = bt*a",
    "a*gm = gm*a + h*(a^2 + gm*bt - a*dd)",
    "dd*bt = bt*dd",
    "dd*gm = gm*dd - h*(dd^2 - gm*bt - dd*a)",
    "bt^2 = 0",
    "gm^2 = h*gm*(dd - a)",
    "bt*gm = -gm*bt + h*bt*(dd - a)",
    "a*dd = dd*a + h*bt*(a - dd)",
)


# presentations of the suites, built once per process like the catalogue
_free_group = functools.cache(lambda gl: Presentation(f"{gl.name}|free", gl.generators))
_regenerated_h_calculus = functools.cache(lambda: regenerate_calculus(_suite_tensor("Kh")))


def rtt_report() -> VerificationReport:
    """Expand the reflection relation and compare with the supergroup.

    Every entry must normalize to 0 under the supergroup presentation,
    and every relation of ``SUPERGROUP_RELATIONS`` must appear among the
    entries up to a nonzero scalar.  Khat_h and the parsed relations are
    built once per process.
    """
    gl = get_presentation("gl-h11")
    entries = rtt_expand(_suite_tensor("Khat"))
    labels = [
        f"entry ({''.join(map(str, upper))},{''.join(map(str, lower))}) reduces to 0"
        for upper in _indices(2)
        for lower in _indices(2)
    ]
    report = verify_presentation(gl, list(zip(labels, entries)), "rtt")
    free = _free_group(gl)
    canonical = [_canonical_modulo_h2(e, free) for e in entries]
    for label, form in zip(SUPERGROUP_RELATIONS, _relation_forms(SUPERGROUP_RELATIONS, free)):
        relation = _canonical_modulo_h2(form, free)
        lead = sorted(relation.words())[0]
        scale = None
        for candidate in canonical:
            coeff = candidate.coefficient(lead)
            if coeff.is_zero():
                continue
            ratio = coeff / relation.coefficient(lead)
            if not ratio.is_zero() and candidate == relation.scale(ratio):
                scale = ratio
                break
        report.add(
            f"relation recovered: {label}",
            "" if scale is None else f"scale {scale}",
            scale is not None,
        )
    return report


def ybe_report() -> VerificationReport:
    """Yang-Baxter and inverse properties of the deformation matrices, built
    once per process; every embedding and rank-6 product runs on every call."""
    report = VerificationReport("ybe", "h-line")
    p = _suite_tensor("P")
    identity = SuperTensor.identity(h_line(), 4)
    report.add("P squares to the identity", "", p * p == identity)
    report.add(
        "Khat_h satisfies the graded braid equation",
        "",
        ybe_check(_suite_tensor("Khat"), "hat", graded=True),
    )
    r = _suite_tensor("Rh")
    report.add(
        "R_h satisfies the graded Yang-Baxter equation",
        "",
        ybe_check(r, "plain", graded=True),
    )
    report.add(
        "R_h satisfies the ungraded Yang-Baxter equation",
        "",
        ybe_check(r, "plain", graded=False),
    )
    report.add("K_h and R_h are mutually inverse", "", inverse_check())
    return report


# -- regenerating the calculus from the K-matrix ----------------------------------


_X = {1: "x", 2: "th"}
_DX = {1: "dx", 2: "dth"}
_D = {1: "px", 2: "pth"}


def _entry_sum(t: SuperTensor, term) -> Element:
    """Sum over index values k, l of t.entry(index) * word(letters), where
    ``term(k, l)`` gives the (index, letters) pair of each summand."""
    terms = {}
    for k, l in _indices(2):
        index, letters = term(k, l)
        for w, c in t.entry(index).items():
            _accumulate(terms, w + letters, c)
    return Element._wrap(terms)


# each exchange sector: for index values i, j, the word its rule rewrites and,
# for the summed values k, l, the tensor entry and the word that it multiplies
_SECTORS = {
    "coordinate-differential":
        lambda i, j: ((_X[i], _DX[j]), lambda k, l: ((j, i, k, l), (_DX[k], _X[l]))),
    "derivative-coordinate":
        lambda i, j: ((_D[j], _X[i]), lambda k, l: ((i, k, l, j), (_X[l], _D[k]))),
    "derivative-differential":
        lambda i, j: ((_D[j], _DX[i]), lambda k, l: ((i, k, l, j), (_DX[l], _D[k]))),
}
_PARITY = dict(CALCULUS_GENERATORS)
_UNIT = {(_D[v], _X[v]) for v in SuperIndex.values}  # d_i X^i, whose rules add delta^i_i = 1


def _exchange_rules(t: SuperTensor, sector: str, factor: ScalarQ = ONE) -> dict:
    """The four rules of an exchange sector of ``regenerate_calculus``, in
    ``_indices(2)`` order: the sum over k, l of the tensor entries times their
    words, times ``factor`` and the Koszul sign of the rule's two letters."""
    rules = {}
    for i, j in _indices(2):
        lhs, term = _SECTORS[sector](i, j)
        sign = sc((-1) ** (_PARITY[lhs[0]] * _PARITY[lhs[1]]))
        rhs = _entry_sum(t, term).scale(factor * sign)
        rules[lhs] = Element.scalar(1) + rhs if lhs in _UNIT else rhs
    return rules


def coordinate_differential_rules(t: SuperTensor, factor: ScalarQ = ONE) -> dict:
    """The coordinate-differential rules of ``t``; the q-level matrix carries
    the overall ``factor`` q."""
    return _exchange_rules(t, "coordinate-differential", factor)


def _solve(relation: Element, target: tuple) -> Element:
    """The rule for the word ``target`` from ``relation`` = 0, that is
    (c*target - relation)/c with c the coefficient of ``target``."""
    c = relation.coefficient(target)
    if c.is_zero():
        raise InconsistentRulesError(f"braid relation does not determine {'*'.join(target)}")
    return (Element.word(target, c) - relation).scale(ONE / c)


def regenerate_calculus(t: SuperTensor) -> Presentation:
    """Rebuild the calculus rules from the K-matrix alone.

    The braid form khat = t P gives the coordinate and derivative relations

        X^i X^j = khat^{ij}_{kl} X^k X^l,      d_i d_j = khat^{kl}_{ji} d_l d_k,

    solved for x*th (which must not appear on the right), th*th, pth^2 and
    pth*px.  The three exchange sectors read t, with s the Koszul sign of
    the two letters on the left:

        X^i dX^j = s t^{ji}_{kl} dX^k X^l
        d_j X^i  = delta^i_j + s t^{ik}_{lj} X^l d_k
        d_j dX^i = s (t^-1)^{ik}_{lj} dX^l d_k

    The dual-plane rules are not produced by the K-matrix and are left to
    the Koszul defaults.  A regenerated rule that mixes parities is
    rejected by ``Presentation`` (RuleError).
    """
    if t.rank != 4:
        raise RankMismatchError(f"regeneration needs a rank-4 tensor, got {t.rank}")
    khat = t * build_P()

    def coordinates(i, j):
        terms = _entry_sum(khat, lambda k, l: ((i, j, k, l), (_X[k], _X[l])))
        return word(_X[i], _X[j]) - terms

    def derivatives(i, j):
        terms = _entry_sum(khat, lambda k, l: ((k, l, j, i), (_D[l], _D[k])))
        return word(_D[i], _D[j]) - terms

    plane = coordinates(1, 2)
    if plane.coefficient(("x", "th")) != ONE:
        raise InconsistentRulesError("coordinate relation does not determine x*th")
    rules = {("x", "th"): _solve(plane, ("x", "th"))}
    rules[("th", "th")] = _solve(coordinates(2, 2), ("th", "th"))
    rules.update(coordinate_differential_rules(t))
    rules.update(_exchange_rules(t, "derivative-coordinate"))
    rules.update(_exchange_rules(t.invert(), "derivative-differential"))
    rules[("pth", "pth")] = _solve(derivatives(2, 2), ("pth", "pth"))
    rules[("pth", "px")] = _solve(derivatives(1, 2), ("pth", "px"))
    return Presentation(
        "regenerated-calculus",
        CALCULUS_GENERATORS,
        list(rules.items()),
        derivatives=CALCULUS_DERIVATIVES,
    )


def regeneration_report() -> VerificationReport:
    """Compare the regenerated rules with the calculus catalogue."""
    hc = get_presentation("h-calculus")
    regenerated = _regenerated_h_calculus()
    report = VerificationReport("regenerate", regenerated.name)
    hc_rules = hc.rules
    for lhs, rhs in regenerated.rules.items():
        label = "regenerated " + "*".join(lhs) + " rule matches the calculus"
        report.add(label, hc.show(rhs), lhs in hc_rules and hc_rules[lhs] == rhs)
    missing = set(hc_rules) - set(regenerated.rules)
    report.add(
        "rule set is the calculus minus the dual plane and h^2",
        "; ".join(sorted("*".join(lhs) for lhs in missing)),
        missing == {("dx", "dx"), ("dx", "dth"), ("h", "h")},
    )
    qh = get_presentation("qh-calculus")
    q_rules = coordinate_differential_rules(_suite_tensor("Khq"), factor=Q)
    for lhs, rhs in q_rules.items():
        label = "q-level " + "*".join(lhs) + " rule matches the calculus"
        report.add(label, qh.show(rhs), qh.rules[lhs] == rhs)
    return report
