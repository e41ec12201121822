"""Graded free algebra with two-generator rewriting to normal form.

Elements are finite linear combinations of words in named generators over the
``ScalarQ`` field.  A presentation fixes a generator order and a set of
two-generator rewrite rules; every pair of generators not covered by a rule
reorders by default graded commutation with the Koszul sign
(-1)**(parity*parity), and an odd generator with no explicit square rule has
square zero.  Rewriting repeatedly replaces the first reducible adjacent pair
until no rule or default applies; the result is the normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .scalar import ONE, ScalarQ, GaussianRational, sc

_MINUS_ONE = -ONE

Word = tuple  # tuple[str, ...]

_RESERVED_NAMES = frozenset({"q", "i", "d"})


class AlgebraError(Exception):
    """Base class for algebra-level errors."""


class UnknownGeneratorError(AlgebraError):
    """A word or rule refers to a generator the presentation does not have."""


class NonTerminatingError(AlgebraError):
    """Rewriting exceeded its step budget; the rule set does not terminate."""


class RuleError(AlgebraError):
    """A rewrite rule violates a structural invariant."""


@dataclass(frozen=True)
class Generator:
    name: str
    parity: int
    order_index: int


def _coerce_scalar(value) -> ScalarQ:
    if isinstance(value, ScalarQ):
        return value
    return sc(value)


class Element:
    """Linear combination of words with ScalarQ coefficients.

    Addition and the free (concatenation) product never consult a
    presentation; normal forms are computed by ``Presentation.normal_form``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Optional[Mapping[Word, ScalarQ]] = None):
        data = {}
        if terms:
            for word, coeff in terms.items():
                coeff = _coerce_scalar(coeff)
                if not coeff.is_zero():
                    data[tuple(word)] = coeff
        object.__setattr__(self, "_terms", data)

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    @staticmethod
    def zero() -> "Element":
        return Element()

    @staticmethod
    def scalar(value) -> "Element":
        return Element({(): _coerce_scalar(value)})

    @staticmethod
    def word(word: Iterable[str], coeff=ONE) -> "Element":
        return Element({tuple(word): _coerce_scalar(coeff)})

    @staticmethod
    def generator(name: str) -> "Element":
        return Element({(name,): ONE})

    def items(self) -> Iterator:
        return iter(self._terms.items())

    def words(self):
        return self._terms.keys()

    def coefficient(self, word: Iterable[str]) -> ScalarQ:
        return self._terms.get(tuple(word), ScalarQ(0))

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        return not self._terms or set(self._terms) == {()}

    def scalar_part(self) -> ScalarQ:
        return self._terms.get((), ScalarQ(0))

    def term_count(self) -> int:
        return len(self._terms)

    def max_letter_count(self, name: str) -> int:
        """Largest number of occurrences of one generator in any word."""
        return max((w.count(name) for w in self._terms), default=0)

    def map_coefficients(self, fn) -> "Element":
        return Element({w: fn(c) for w, c in self._terms.items()})

    def drop_words_containing(self, name: str) -> "Element":
        return Element({w: c for w, c in self._terms.items() if name not in w})

    def sorted_terms(self, presentation: Optional["Presentation"] = None):
        """Terms in graded lexicographic order (by order_index when known)."""
        if presentation is not None:
            def key(item):
                word = item[0]
                return (len(word), tuple(presentation.generator(g).order_index for g in word))
        else:
            def key(item):
                return (len(item[0]), item[0])
        return sorted(self._terms.items(), key=key)

    @staticmethod
    def _coerce(value) -> "Element":
        if isinstance(value, Element):
            return value
        if isinstance(value, (ScalarQ, int, Fraction, GaussianRational)):
            return Element.scalar(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._terms)
        for w, c in other._terms.items():
            acc = out.get(w)
            acc = c if acc is None else acc + c
            if acc.is_zero():
                out.pop(w, None)
            else:
                out[w] = acc
        return Element(out)

    __radd__ = __add__

    def __neg__(self):
        return Element({w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (ScalarQ, int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        out = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                w = w1 + w2
                c = c1 * c2
                acc = out.get(w)
                acc = c if acc is None else acc + c
                if acc.is_zero():
                    out.pop(w, None)
                else:
                    out[w] = acc
        return Element(out)

    def __rmul__(self, other):
        if isinstance(other, (ScalarQ, int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value) -> "Element":
        value = _coerce_scalar(value)
        if value.is_zero():
            return Element()
        return Element({w: c * value for w, c in self._terms.items()})

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if self.is_scalar():
            return Element.scalar(self.scalar_part() ** n)
        if n < 0:
            raise ValueError("negative power of a non-scalar element")
        out = ONE_ELEMENT
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        # a pure scalar, 0 included, hashes like the scalar it equals
        if self.is_scalar():
            return hash(self.scalar_part())
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.is_zero():
            return "Element(0)"
        parts = [f"{c!s} {'*'.join(w) if w else '1'}" for w, c in self.sorted_terms()]
        return "Element(" + " + ".join(parts) + ")"


ZERO_ELEMENT = Element()
ONE_ELEMENT = Element.scalar(1)


def as_element(value) -> Element:
    coerced = Element._coerce(value)
    if coerced is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as an algebra element")
    return coerced


def gen(name: str) -> Element:
    """Single-generator element, convenience constructor."""
    return Element.generator(name)


def word(*names: str) -> Element:
    return Element.word(names)


@dataclass(frozen=True)
class RewriteRule:
    """Replace the two-generator word ``lhs`` by the element ``rhs``."""

    lhs: Word
    rhs: Element


def _inversions(word: Word, index: Mapping[str, int]) -> int:
    count = 0
    for a in range(len(word)):
        ia = index[word[a]]
        for b in range(a + 1, len(word)):
            if ia > index[word[b]]:
                count += 1
    return count


class Presentation:
    """Generators with a terminating two-generator rewrite system.

    ``generators`` lists (name, parity) pairs in normal order; the position
    gives the order_index.  ``relations`` lists (lhs_word, rhs) pairs whose
    right-hand sides may be written in raw form: they are normalised against
    the full rule set on construction, so stored rules always have normal
    right-hand sides.
    """

    DEFAULT_MAX_STEPS = 5_000_000

    def __init__(
        self,
        name: str,
        generators: Sequence,
        relations: Sequence = (),
        *,
        derivatives: Iterable[str] = (),
        _normalize: bool = True,
    ):
        self.name = name
        gens = []
        for position, spec in enumerate(generators):
            if isinstance(spec, Generator):
                gname, parity = spec.name, spec.parity
            else:
                gname, parity = spec
                parity = {"even": 0, "odd": 1}.get(parity, parity)
            if not gname or not gname.isidentifier() or gname in _RESERVED_NAMES:
                raise UnknownGeneratorError(f"bad generator name {gname!r}")
            if parity not in (0, 1):
                raise RuleError(f"generator {gname} parity must be 0 or 1")
            gens.append(Generator(gname, parity, position))
        self.generators = tuple(gens)
        self._by_name = {g.name: g for g in self.generators}
        if len(self._by_name) != len(self.generators):
            raise UnknownGeneratorError("duplicate generator name")
        self.derivatives = frozenset(derivatives)
        for dname in self.derivatives:
            self.generator(dname)

        rules = {}
        for lhs, rhs in relations:
            lhs = tuple(lhs)
            rhs = as_element(rhs)
            self._check_rule_shape(lhs, rhs)
            if lhs in rules:
                raise RuleError(f"duplicate rule for {lhs}")
            rules[lhs] = rhs
        self._rules = rules
        self._nf_cache = {}
        for lhs, rhs in rules.items():
            self._check_lhs_shape(lhs, rhs)
        if _normalize and rules:
            for lhs in list(rules):
                self._nf_cache.clear()
                rules[lhs] = self.normal_form(rules[lhs])
            self._nf_cache.clear()
        for lhs, rhs in rules.items():
            self._check_rule_invariants(lhs, rhs)

    # -- construction checks -------------------------------------------------

    def _check_rule_shape(self, lhs: Word, rhs: Element):
        if len(lhs) != 2:
            raise RuleError(f"rule lhs must have length 2, got {lhs}")
        for g in lhs:
            self.generator(g)
        for w in rhs.words():
            for g in w:
                self.generator(g)
        lp = self.word_parity(lhs)
        for w in rhs.words():
            if self.word_parity(w) != lp:
                raise RuleError(f"rule {lhs} mixes parities: term {w}")
            if w == lhs:
                raise RuleError(f"rule {lhs} rewrites to itself")

    def _check_lhs_shape(self, lhs: Word, rhs: Element):
        a, b = (self.generator(g) for g in lhs)
        descending = a.order_index > b.order_index
        equal_pair = lhs[0] == lhs[1]
        length_reducing = all(len(w) < 2 for w in rhs.words())
        if not (descending or equal_pair or length_reducing):
            raise RuleError(f"rule lhs {lhs} is neither descending, a square, nor length-reducing")

    def _check_rule_invariants(self, lhs: Word, rhs: Element):
        for w in rhs.words():
            if not self._smaller_than_lhs(w, lhs):
                raise RuleError(f"rule {lhs}: rhs term {w} is not smaller in the termination order")
            if self._first_reducible(w) is not None:
                raise RuleError(f"rule {lhs}: rhs term {w} is not in normal form")

    def _measure(self, word: Word):
        index = {g.name: g.order_index for g in self.generators}
        odd_non_h = sum(1 for g in word if g != "h" and self._by_name[g].parity)
        return (_inversions(word, index), odd_non_h, len(word))

    def _smaller_than_lhs(self, rhs_word: Word, lhs: Word) -> bool:
        h_lhs = lhs.count("h")
        h_rhs = rhs_word.count("h")
        if h_rhs != h_lhs:
            return h_rhs > h_lhs
        return self._measure(rhs_word) < self._measure(lhs)

    # -- basic queries -------------------------------------------------------

    def generator(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownGeneratorError(
                f"unknown generator {name!r} in presentation {self.name}"
            ) from None

    def has_generator(self, name: str) -> bool:
        return name in self._by_name

    def generator_names(self):
        return tuple(g.name for g in self.generators)

    def word_parity(self, word: Word) -> int:
        return sum(self.generator(g).parity for g in word) & 1

    def parity(self, element: Element) -> Optional[int]:
        """Parity of a homogeneous element, None if mixed or zero."""
        parities = {self.word_parity(w) for w in element.words()}
        if len(parities) == 1:
            return parities.pop()
        return None

    @property
    def rules(self) -> Mapping[Word, Element]:
        return dict(self._rules)

    def rule_list(self):
        return [RewriteRule(lhs, rhs) for lhs, rhs in sorted(self._rules.items())]

    # -- rewriting -----------------------------------------------------------

    def reducible_pair(self, a: str, b: str) -> bool:
        if (a, b) in self._rules:
            return True
        ga, gb = self.generator(a), self.generator(b)
        if a == b:
            return ga.parity == 1
        return ga.order_index > gb.order_index

    def _step_at(self, word: Word, i: int):
        """One rewrite at position i, as a list of (word, coeff); None if inert."""
        pair = (word[i], word[i + 1])
        rhs = self._rules.get(pair)
        if rhs is not None:
            head, tail = word[:i], word[i + 2:]
            return [(head + rw + tail, rc) for rw, rc in rhs.items()]
        ga, gb = self.generator(pair[0]), self.generator(pair[1])
        if pair[0] == pair[1]:
            if ga.parity == 1:
                return []
            return None
        if ga.order_index > gb.order_index:
            coeff = _MINUS_ONE if ga.parity and gb.parity else ONE
            return [(word[:i] + (pair[1], pair[0]) + word[i + 2:], coeff)]
        return None

    def _first_reducible(self, word: Word, strategy: str = "leftmost", start: int = 0):
        if strategy == "rightmost":
            positions = reversed(range(len(word) - 1))
        else:
            positions = range(start, len(word) - 1)
        for i in positions:
            if self.reducible_pair(word[i], word[i + 1]):
                return i
        return None

    def normal_form(
        self,
        element,
        *,
        strategy: str = "leftmost",
        max_steps: Optional[int] = None,
    ) -> Element:
        """Rewrite to normal form; raises NonTerminatingError past the budget.

        The budget counts work units, one per letter of each word rewritten,
        so runaway systems that grow their words are cut off early.
        """
        element = as_element(element)
        budget = max_steps if max_steps is not None else self.DEFAULT_MAX_STEPS
        use_cache = strategy == "leftmost"
        out = {}

        def accumulate(word, coeff):
            acc = out.get(word)
            acc = coeff if acc is None else acc + coeff
            if acc.is_zero():
                out.pop(word, None)
            else:
                out[word] = acc

        for start_word, start_coeff in element.items():
            cached = self._nf_cache.get(start_word) if use_cache else None
            if cached is not None:
                for w, c in cached.items():
                    accumulate(w, c * start_coeff)
                continue
            local = {}
            stack = [(start_word, ONE, 0)]
            while stack:
                w, c, resume = stack.pop()
                cached = self._nf_cache.get(w) if use_cache else None
                if cached is not None:
                    for w2, c2 in cached.items():
                        acc = local.get(w2)
                        acc = c * c2 if acc is None else acc + c * c2
                        if acc.is_zero():
                            local.pop(w2, None)
                        else:
                            local[w2] = acc
                    continue
                i = self._first_reducible(w, strategy, resume)
                if i is None:
                    acc = local.get(w)
                    acc = c if acc is None else acc + c
                    if acc.is_zero():
                        local.pop(w, None)
                    else:
                        local[w] = acc
                    continue
                budget -= len(w)
                if budget < 0:
                    raise NonTerminatingError(
                        f"rewriting exceeded step budget in presentation {self.name}"
                    )
                # after a rewrite at i, nothing left of i-1 can become reducible
                again = i - 1 if i > 0 and strategy == "leftmost" else 0
                for w2, c2 in self._step_at(w, i):
                    if c2 is ONE:
                        stack.append((w2, c, again))
                    elif c2 is _MINUS_ONE:
                        stack.append((w2, -c, again))
                    else:
                        stack.append((w2, c * c2, again))
            result = Element(local)
            if use_cache:
                self._nf_cache[start_word] = result
            for w, c in result.items():
                accumulate(w, c * start_coeff)
        return Element(out)

    def multiply(self, a, b) -> Element:
        """Normal form of the product a*b."""
        return self.normal_form(as_element(a) * as_element(b))

    def is_normal(self, element: Element) -> bool:
        return all(self._first_reducible(w) is None for w in element.words())

    # -- operator action -----------------------------------------------------

    def act(self, operator, function) -> Element:
        """Apply an operator to a function: multiply, then drop every term
        still waiting on a derivative (word ending in a derivative generator)."""
        operator = as_element(operator)
        function = as_element(function)
        for w in function.words():
            for g in w:
                if g in self.derivatives:
                    raise UnknownGeneratorError(
                        f"function operand contains derivative generator {g!r}"
                    )
        product = self.normal_form(operator * function)
        kept = {
            w: c for w, c in product.items() if not (w and w[-1] in self.derivatives)
        }
        return Element(kept)

    # -- confluence ----------------------------------------------------------

    def check_confluence(self) -> "ConfluenceReport":
        """Reduce every doubly-reducible length-3 word both ways and compare."""
        failures = []
        checked = 0
        names = self.generator_names()
        for g1 in names:
            for g2 in names:
                left_red = self.reducible_pair(g1, g2)
                for g3 in names:
                    if not (left_red and self.reducible_pair(g2, g3)):
                        continue
                    checked += 1
                    w = (g1, g2, g3)
                    via_left = Element(dict(self._expand_step(w, 0)))
                    via_right = Element(dict(self._expand_step(w, 1)))
                    nf_left = self.normal_form(via_left)
                    nf_right = self.normal_form(via_right)
                    if nf_left != nf_right:
                        failures.append((w, nf_left, nf_right))
        return ConfluenceReport(self.name, checked, failures)

    def _expand_step(self, word: Word, i: int):
        steps = self._step_at(word, i)
        out = {}
        for w, c in steps:
            acc = out.get(w)
            acc = c if acc is None else acc + c
            if acc.is_zero():
                out.pop(w, None)
            else:
                out[w] = acc
        return out.items()

    # -- derived presentations -------------------------------------------------

    def with_h_dropped(self, name: Optional[str] = None) -> "Presentation":
        """Same generators, every rule right-hand side taken modulo h."""
        relations = [
            (lhs, rhs.drop_words_containing("h") if lhs != ("h", "h") else rhs)
            for lhs, rhs in self._rules.items()
        ]
        return Presentation(
            name or f"{self.name}|h=0",
            [(g.name, g.parity) for g in self.generators],
            relations,
            derivatives=self.derivatives,
        )

    def rules_equal(self, other: "Presentation") -> bool:
        return self._rules == other._rules

    def generators_equal(self, other: "Presentation") -> bool:
        return [(g.name, g.parity) for g in self.generators] == [
            (g.name, g.parity) for g in other.generators
        ]

    # -- parsing convenience ---------------------------------------------------

    def parse(self, text: str) -> Element:
        from . import expr

        return expr.parse_element(text, self)

    def show(self, element) -> str:
        from . import expr

        return expr.format_element(as_element(element), self)

    def __repr__(self):
        return f"Presentation({self.name!r}, {len(self.generators)} generators, {len(self._rules)} rules)"


@dataclass
class ConfluenceReport:
    """Outcome of the length-3 overlap check."""

    presentation: str
    words_checked: int
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass(frozen=True)
class AlgebraMorphism:
    """Algebra map given by generator images, extended multiplicatively.

    With ``conjugate_scalars`` set, coefficients are complex-conjugated
    (q stays fixed), giving an antilinear map.
    """

    source: Presentation
    target: Presentation
    images: Mapping[str, Element]
    conjugate_scalars: bool = False

    def image_of(self, name: str) -> Element:
        try:
            return self.images[name]
        except KeyError:
            raise UnknownGeneratorError(f"morphism has no image for {name!r}") from None

    def __call__(self, element) -> Element:
        element = as_element(element)
        total = Element.zero()
        for w, c in element.items():
            if self.conjugate_scalars:
                c = c.conjugate()
            acc = Element.scalar(c)
            for g in w:
                acc = self.target.multiply(acc, self.image_of(g))
            total = total + acc
        return self.target.normal_form(total)


def identity_images(p: Presentation) -> dict:
    return {g.name: Element.generator(g.name) for g in p.generators}


@dataclass(frozen=True)
class InvolutionSpec:
    """Antilinear anti-automorphism: conjugate scalars, reverse words.

    No Koszul sign is inserted on reversal: (uv)+ = v+ u+ for all parities.
    """

    presentation: Presentation
    images: Mapping[str, Element]

    def image_of(self, name: str) -> Element:
        try:
            return self.images[name]
        except KeyError:
            raise UnknownGeneratorError(f"involution has no image for {name!r}") from None

    def __call__(self, element) -> Element:
        element = as_element(element)
        total = Element.zero()
        for w, c in element.items():
            acc = Element.scalar(c.conjugate())
            for g in reversed(w):
                acc = self.presentation.multiply(acc, self.image_of(g))
            total = total + acc
        return self.presentation.normal_form(total)

    def is_involutive(self) -> bool:
        """Applying the star twice fixes every generator."""
        for g in self.presentation.generators:
            e = Element.generator(g.name)
            if self(self(e)) != self.presentation.normal_form(e):
                return False
        return True
