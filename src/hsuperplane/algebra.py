"""Graded free algebra with two-generator rewriting to normal form.

Elements are finite linear combinations of words in named generators over the
``ScalarQ`` field.  A presentation fixes a generator order and a set of
two-generator rewrite rules; every pair of generators not covered by a rule
reorders by default graded commutation with the Koszul sign
(-1)**(parity*parity), and an odd generator with no explicit square rule has
square zero.  Rewriting repeatedly replaces the first reducible adjacent pair
until no rule or default applies; the result is the normal form.

A presentation compiles its rules and the Koszul defaults into one pair
table when it is built: each reducible pair of generator names maps to the
(word, coefficient) terms that replace it, so finding and applying a rewrite
is one dict lookup per adjacent pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .scalar import ONE, ZERO, ScalarQ, GaussianRational, make_room, sc

_MINUS_ONE = sc(-1)

Word = tuple  # tuple[str, ...]

_RESERVED_NAMES = frozenset({"q", "i", "d"})

# entries of each word memo (see linear_extension, normal_form and act)
WORD_MEMO_CAP = 4096


def _accumulate(terms: dict, word: Word, coeff: ScalarQ) -> None:
    """Add ``coeff`` to ``terms[word]``, dropping the entry when it sums to 0;
    scalars are interned, so a zero sum is the one object ``ZERO``."""
    acc = terms.get(word)
    acc = coeff if acc is None else acc + coeff
    if acc is ZERO:
        terms.pop(word, None)
    else:
        terms[word] = acc


def _concatenations(a: dict, b: dict, out=None) -> dict:
    """``out`` (a new dict by default) plus the terms of the free product of
    the term dicts ``a`` and ``b``."""
    out = {} if out is None else out
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            _accumulate(out, w1 + w2, c1 * c2)
    return out


def linear_extension(terms: dict, image_of, memo: dict) -> "Element":
    """The linear extension of a word function: the sum of c * image_of(w)
    over the items (word, c) of the term dict ``terms``.

    ``image_of`` maps one word to an ``Element``.  Each word's image is
    computed once and kept in ``memo``, a dict from word to image that the
    caller owns and fills only through this ``image_of``; the images stay
    for as long as the memo's owner does, and a miss makes room for its
    image under ``WORD_MEMO_CAP`` (``scalar.make_room``).  A lone word with
    coefficient ``ONE`` that the memo holds gives back the stored image
    itself, which is sound because an ``Element`` is immutable.
    """
    out = {}
    for w, c in terms.items():
        image = memo.get(w)
        if image is None:
            image = make_room(memo, WORD_MEMO_CAP)[w] = image_of(w)
        elif c is ONE and len(terms) == 1:
            return image
        for w2, c2 in image._terms.items():
            _accumulate(out, w2, c2 if c is ONE else c * c2)
    return Element._wrap(out)


class AlgebraError(Exception):
    """Base class for algebra-level errors."""


class UnknownGeneratorError(AlgebraError):
    """A word or rule refers to a generator the presentation does not have."""


class NonTerminatingError(AlgebraError):
    """Rewriting exceeded its work budget or cycled; the rules do not terminate."""


class RuleError(AlgebraError):
    """A rewrite rule violates a structural invariant."""


class Record:
    """A frozen record compared, hashed and printed by its ``_fields``, as
    ``Name(field=value, ...)``.  Assigning an attribute raises, so a
    subclass's ``__init__`` sets its fields through ``vars(self)``."""

    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Generator(Record):
    _fields = ("name", "parity", "order_index")

    def __init__(self, name: str, parity: int, order_index: int):
        vars(self).update(name=name, parity=parity, order_index=order_index)


class Element:
    """Linear combination of words with ScalarQ coefficients.

    Addition and the free (concatenation) product never consult a
    presentation; normal forms are computed by ``Presentation.normal_form``
    and, for a product, ``Presentation.multiply``.  An element is immutable,
    so it caches its hash the first time it is hashed.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Optional[Mapping[Word, ScalarQ]] = None):
        data = {}
        if terms:
            for word, coeff in terms.items():
                coeff = sc(coeff)
                if not coeff.is_zero():
                    data[tuple(word)] = coeff
        _set_terms(self, data)

    @staticmethod
    def _wrap(terms: dict) -> "Element":
        """An element owning ``terms``, whose keys are word tuples and whose
        values are nonzero ``ScalarQ``s; the checks of ``__init__`` are skipped."""
        out = object.__new__(Element)
        _set_terms(out, terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("Element is immutable")

    def __reduce__(self):
        return Element._wrap, (dict(self._terms),)

    @staticmethod
    def zero() -> "Element":
        return Element()

    @staticmethod
    def scalar(value) -> "Element":
        return Element({(): sc(value)})

    @staticmethod
    def word(word: Iterable[str], coeff=ONE) -> "Element":
        return Element({tuple(word): sc(coeff)})

    @staticmethod
    def generator(name: str) -> "Element":
        return Element({(name,): ONE})

    def items(self) -> Iterator:
        return iter(self._terms.items())

    def words(self):
        return self._terms.keys()

    def coefficient(self, word: Iterable[str]) -> ScalarQ:
        return self._terms.get(tuple(word), ZERO)

    def is_zero(self) -> bool:
        return not self._terms

    def is_scalar(self) -> bool:
        return not self._terms or set(self._terms) == {()}

    def scalar_part(self) -> ScalarQ:
        return self._terms.get((), ZERO)

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
        if type(value) is Element:
            return value
        if isinstance(value, (ScalarQ, int, Fraction, GaussianRational)):
            return Element.scalar(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        out = dict(self._terms)
        for w, c in other._terms.items():
            _accumulate(out, w, c)
        return Element._wrap(out)

    __radd__ = __add__

    def __neg__(self):
        return Element._wrap({w: -c for w, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._terms:
            return self
        out = dict(self._terms)
        for w, c in other._terms.items():
            _accumulate(out, w, -c)
        return Element._wrap(out)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, (ScalarQ, int, Fraction, GaussianRational)):
            return self.scale(other)
        if not isinstance(other, Element):
            return NotImplemented
        return Element._wrap(_concatenations(self._terms, other._terms))

    def __rmul__(self, other):
        if isinstance(other, (ScalarQ, int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def scale(self, value) -> "Element":
        value = sc(value)
        if value is ONE:
            return self
        if value.is_zero():
            return Element()
        return Element._wrap({w: c * value for w, c in self._terms.items()})

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
        """Computed once: a pure scalar, 0 included, hashes like the scalar
        it equals, any other element like the frozenset of its terms."""
        try:
            return self._hash
        except AttributeError:
            if self.is_scalar():
                value = hash(self.scalar_part())
            else:
                value = hash(frozenset(self._terms.items()))
            _set_hash(self, value)
            return value

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        if self.is_zero():
            return "Element(0)"
        parts = [f"{c!s} {'*'.join(w) if w else '1'}" for w, c in self.sorted_terms()]
        return "Element(" + " + ".join(parts) + ")"


# the slots' own setters build an Element past the __setattr__ that forbids it
_set_terms = Element._terms.__set__
_set_hash = Element._hash.__set__
ONE_ELEMENT = Element.scalar(1)


def as_element(value) -> Element:
    if type(value) is Element:
        return value
    coerced = Element._coerce(value)
    if coerced is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as an algebra element")
    return coerced


def gen(name: str) -> Element:
    """Single-generator element, convenience constructor."""
    return Element.generator(name)


def word(*names: str) -> Element:
    return Element.word(names)


class RewriteRule(Record):
    """Replace the two-generator word ``lhs`` by the element ``rhs``."""

    _fields = ("lhs", "rhs")

    def __init__(self, lhs: Word, rhs: Element):
        vars(self).update(lhs=lhs, rhs=rhs)


def _inversions(ranks: Sequence[int]) -> int:
    count = 0
    for a in range(len(ranks)):
        for b in range(a + 1, len(ranks)):
            if ranks[a] > ranks[b]:
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
    # entries of the product table; 2048 is the knee of the time and memory
    # curve measured on the normalize-mix stream
    PRODUCT_TABLE_CAP = 2048

    def __init__(
        self,
        name: str,
        generators: Sequence,
        relations: Sequence = (),
        *,
        derivatives: Iterable[str] = (),
    ):
        self.name = name
        gens = []
        for position, spec in enumerate(generators):
            if isinstance(spec, Generator):
                gname, parity = spec.name, spec.parity
            else:
                gname, parity = spec
            if not gname or not gname.isidentifier() or gname in _RESERVED_NAMES:
                raise UnknownGeneratorError(f"bad generator name {gname!r}")
            if parity not in (0, 1):
                raise RuleError(f"generator {gname} parity must be 0 or 1")
            gens.append(Generator(gname, parity, position))
        self.generators = tuple(gens)
        self._by_name = {g.name: g for g in self.generators}
        self._parities = {g.name: g.parity for g in self.generators}
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
        self._central = frozenset()  # the central letters, once the rules are final
        self._blocks = {}  # letter -> block rank, once the rules are final
        self._stops = {}  # letter -> its stops, once the rules are final
        # product table: (normal word s, letter g) -> the normal form of s*g
        # as (word, coefficient) pairs, for each reducible pair (s[-1], g)
        # rewritten with no stop for g in s[:-1] (see normal_form)
        self._products = {}
        # linear-extension memos: word -> normal form of its exterior
        # derivative (filled by differential.exterior_d), and operator ->
        # {function word -> its action} (filled by act)
        self.d_memo = {}
        self._act_memo = {}
        self._overlaps = None  # the critical pairs, on the first check_confluence
        for lhs, rhs in rules.items():
            self._check_lhs_shape(lhs, rhs)
        self._pairs = self._compile_pairs()
        for lhs in list(rules):
            rules[lhs] = self.normal_form(rules[lhs])
            self._pairs[lhs] = tuple(rules[lhs].items())
            self._nf_cache.clear()
            self._products.clear()
        self._central = self._central_letters()
        for lhs, rhs in rules.items():
            self._check_rule_invariants(lhs, rhs)
        self._blocks = self._block_ranks()
        self._stops = self._stop_sets()

    # -- construction checks -------------------------------------------------

    def _compile_pairs(self) -> dict:
        """Pair table: each reducible pair (a, b) of names -> its rewrite terms.

        A rule's terms are its right-hand side; a descending pair with no
        rule swaps with the Koszul sign; an odd square with no rule maps to
        no terms (it is zero).
        """
        table = {}
        for a in self.generators:
            for b in self.generators:
                if a.order_index > b.order_index:
                    sign = _MINUS_ONE if a.parity and b.parity else ONE
                    table[a.name, b.name] = (((b.name, a.name), sign),)
                elif a is b and a.parity:
                    table[a.name, b.name] = ()
        for lhs, rhs in self._rules.items():
            table[lhs] = tuple(rhs.items())
        return table

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
        bound = self._measure(lhs)
        for w in rhs.words():
            if not self._measure(w) < bound:
                raise RuleError(f"rule {lhs}: rhs term {w} is not smaller in the termination order")
            if self._first_reducible(w) is not None:
                raise RuleError(f"rule {lhs}: rhs term {w} is not in normal form")

    def _central_letters(self) -> frozenset:
        """The odd generators that no rule rewrites, apart from a square rule
        whose right side is 0.

        Such a letter graded-commutes with every other letter and squares to
        zero, so a nonzero word contains it at most once.
        """
        rewritten = {
            g
            for lhs, rhs in self._rules.items()
            if lhs[0] != lhs[1] or not rhs.is_zero()
            for g in lhs
        }
        return frozenset(g.name for g in self.generators if g.parity and g.name not in rewritten)

    def _block_ranks(self) -> dict:
        """Each letter's rank for the block sort of ``normal_form``: 0 for a
        central letter, then 1, 2, ... for the blocks in generator order;
        empty when there are fewer than two blocks.  A block is a class of
        non-central letters that the rules link: a rule links the letters of
        its left side with those of every word on its right side.
        """
        central = self._central
        blocks = [{g.name} for g in self.generators if g.name not in central]
        for lhs, rhs in self._rules.items():
            linked = {g for w in (lhs, *rhs.words()) for g in w} - central
            if linked:
                joined = [b for b in blocks if b & linked]
                blocks = [b for b in blocks if not b & linked] + [set().union(*joined)]
        if len(blocks) < 2:
            return {}
        blocks.sort(key=lambda b: min(self._by_name[g].order_index for g in b))
        ranks = dict.fromkeys(central, 0)
        for rank, block in enumerate(blocks, 1):
            ranks.update(dict.fromkeys(block, rank))
        return ranks

    def _stop_sets(self) -> dict:
        """Each letter g's stops (see ``normal_form``): the central letter,
        and each letter that forms no reducible pair with a non-central one
        a fold of v*g inserts: g and, for each non-central y inserted, the
        letters of the rewrite terms of every pair (x, y).  Empty unless the
        central letter, if any, comes first in generator order and every
        rewrite term without it has at most two letters."""
        central = self._central
        if central and central != {self.generators[0].name}:
            return {}
        inserted, blocked = {}, {}  # y -> y and the letters (x, y) rewrites to; -> the x
        for (x, y), terms in self._pairs.items():
            if y not in central:
                letters = inserted.setdefault(y, {y})
                for w, _ in terms:
                    if len(w) > 2 and central.isdisjoint(w):
                        return {}
                    letters.update(w)
                blocked.setdefault(y, set()).add(x)
        grown = True
        while grown:  # each set takes in the sets of its letters
            grown = False
            for letters in inserted.values():
                n = len(letters)
                letters.update(*[inserted[y] for y in letters if y in inserted])
                grown |= len(letters) > n
        every = central.union(self._by_name)
        stops = dict.fromkeys(central, every)
        for g, letters in inserted.items():
            stops[g] = every.difference(*[blocked.get(y, ()) for y in letters])
        return stops

    def _measure(self, word: Word):
        """Termination order, smaller first: more central letters, then fewer
        inversions, fewer other odd letters, fewer letters.  A rule may add
        a central letter, which can happen at most once in a nonzero word."""
        gens = [self._by_name[g] for g in word]
        central = sum(1 for g in word if g in self._central)
        odd_other = sum(1 for g in gens if g.parity and g.name not in self._central)
        return (-central, _inversions([g.order_index for g in gens]), odd_other, len(word))

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
        try:
            return sum(map(self._parities.__getitem__, word)) & 1
        except KeyError:
            self._check_letters(word)
            raise

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
        if (a, b) in self._pairs:
            return True
        self.generator(a)
        self.generator(b)
        return False

    def _step_at(self, word: Word, i: int):
        """One rewrite at position i, as a dict {word: coeff}; None if inert."""
        terms = self._pairs.get((word[i], word[i + 1]))
        if terms is None:
            return None
        head, tail = word[:i], word[i + 2:]
        return {head + rw + tail: rc for rw, rc in terms}

    def _first_reducible(self, word: Word):
        pairs = self._pairs
        for i in range(len(word) - 1):
            if (word[i], word[i + 1]) in pairs:
                return i
        return None

    def _check_letters(self, word: Word) -> None:
        for g in word:
            if g not in self._by_name:
                self.generator(g)

    def normal_form(
        self,
        element,
        *,
        strategy: str = "leftmost",
        max_steps: Optional[int] = None,
    ) -> Element:
        """Rewrite to normal form; raises NonTerminatingError past the budget.

        ``strategy="leftmost"`` (the default) rewrites the first reducible
        pair.  A word's normal form is built by inserting its letters one at
        a time, from the empty word: a letter that forms no reducible pair
        with the last letter of a normal word ``v`` is appended, and
        otherwise ``v*g`` is rewritten at that pair, which is the leftmost
        one, and the letters of each term of the rewrite are inserted into
        ``v`` less its last letter (carrying its coefficient from the start
        when the rewrite has one term).  A one-term rewrite whose first
        letter meets another one-term pair is followed there at once, as one
        chain.  The normal-form terms of each ``v*g`` that starts a chain, or
        whose rewrite has another number of terms, are kept in the
        presentation's product table, and those of input words in its
        cache.  The table keys ``v*g`` by the part ``s`` of ``v = head*s``
        after its last stop for ``g`` before its last letter (``_stop_sets``):
        rewriting never reaches a stop but to move a central letter past it
        by Koszul swaps, which commute with every rule, so ``head`` times the
        normal form of ``s*g`` (in ``_insert``) is exact, rewrite for rewrite.
        ``scalar.make_room`` bounds the table and the cache by
        ``PRODUCT_TABLE_CAP`` and ``WORD_MEMO_CAP``; the table makes room only
        as a call starts, so every product a call finishes stays there for
        the rest of the call.  ``strategy="rightmost"`` rewrites the last
        reducible pair and follows every rewrite path, reading neither the
        table nor the cache; on a confluent presentation both give the same
        result.

        With two or more blocks (``_block_ranks``), each input word is first
        sorted stably by block, central letters first, and carries the
        Koszul sign of the shuffle, and the sorted word is folded whole.  No
        rule joins two blocks, so the sorted word times its sign equals the
        input, and on a confluent presentation the result is the leftmost
        normal form.

        The budget, ``DEFAULT_MAX_STEPS`` = 5,000,000 work units unless
        ``max_steps`` is given, bounds the work of one call.  A leftmost work
        unit is one letter of each ``s*g`` rewritten in the call; a
        rightmost one is one letter of each word rewritten.  A runaway rule
        set that grows its words is cut off early, and one whose rewriting
        of ``s*g`` comes back to ``s*g`` is stopped at once.  The table only
        ever holds finished products, so a call that raises keeps those it
        finished and no others.
        """
        element = as_element(element)
        if strategy == "leftmost":
            return Element._wrap(self._normal_terms(element._terms, max_steps))
        if strategy != "rightmost":
            raise ValueError(f"unknown rewriting strategy {strategy!r}")
        budget = max_steps if max_steps is not None else self.DEFAULT_MAX_STEPS
        spent = 0
        out = {}
        for start, coeff in element._terms.items():
            self._check_letters(start)
            spent = self._reduce_rightmost(start, coeff, out, spent, budget)
        return Element._wrap(out)

    def _normal_terms(self, terms: dict, max_steps=None, out=None) -> dict:
        """The leftmost work of ``normal_form`` on a term dict, with no
        Element built: the normal form's terms added to ``out`` (a new dict
        by default), which is returned.  With no ``out``, a lone word with
        coefficient ``ONE`` that the cache holds gives back the cached dict
        itself, so the caller must not mutate the result."""
        make_room(self._products, self.PRODUCT_TABLE_CAP)
        budget = max_steps if max_steps is not None else self.DEFAULT_MAX_STEPS
        spent = 0
        lone = out is None and len(terms) == 1
        out = {} if out is None else out
        for start_word, start_coeff in terms.items():
            result = self._nf_cache.get(start_word)
            if result is None:
                self._check_letters(start_word)
                result, spent = self._fold_word(start_word, spent, budget)
                make_room(self._nf_cache, WORD_MEMO_CAP)[start_word] = result
            elif start_coeff is ONE and lone:
                return result
            for w, c in result.items():
                _accumulate(out, w, c if start_coeff is ONE else c * start_coeff)
        return out

    def _fold_word(self, start: Word, spent: int, budget: int):
        """Leftmost normal-form terms of ``start`` and the work units spent.

        With blocks, ``start`` is first sorted by block, with the Koszul
        sign of the shuffle (see ``normal_form``).  The longest prefix with
        no reducible pair is normal, so the fold starts from it, carrying
        the sign, and a word with no reducible pair is returned as it is.

        The fold drives ``_insert`` and ``_product`` from an explicit stack,
        so no nesting of rewrites deepens the Python stack: each generator
        yields the pair (v, g) it needs; the driver pushes its rewriting and,
        when it finishes, stores the terms as a tuple and sends them back.
        A one-term rewrite is followed as a chain while the first letter
        left to insert forms, with the last letter of the word it goes into,
        another one-term pair that the table does not hold: each step is
        charged, and the letters left are pushed as one ``_insert``.  Only
        the pair that started the chain is stored.  The pairs being
        rewritten wait in ``pending``, in the order they started, and enter
        the product table only when they finish: a pair met again while
        pending, at the head of a chain or inside one, is a cycle.  Every
        error names ``start``.
        """
        w, sign = start, ONE
        ranks = self._blocks
        if ranks:
            w = tuple(sorted(start, key=ranks.__getitem__))
            if w != start:
                odd = [ranks[g] for g in start if self._parities[g]]
                sign = _MINUS_ONE if _inversions(odd) & 1 else ONE
        k = self._first_reducible(w)
        if k is None:
            return {w: sign}, spent
        products, pairs = self._products, self._pairs
        stack = [self._insert({w[:k + 1]: sign}, w[k + 1:])]
        pending = {}
        value = None
        while True:
            try:
                pair = stack[-1].send(value)
            except StopIteration as done:
                stack.pop()
                if not stack:
                    return done.value, spent
                value = products[pending.popitem()[0]] = tuple(done.value.items())
                continue
            u, g = pair
            rewrite = pairs[u[-1], g]
            c, letters = ONE, (g,)
            while True:
                word = u + (g,)
                if (u, g) in pending:
                    raise self._nonterminating(
                        "rewriting cycles back to a word it is still reducing",
                        start, word, spent,
                    )
                spent = self._spend(start, word, spent, budget)
                if len(rewrite) != 1:
                    frame = self._product(u, g)
                    break
                (rw, c2), = rewrite
                c = c2 if c is ONE else c * c2
                u, letters = u[:-1], rw + letters[1:]
                if u and letters:
                    g = letters[0]
                    rewrite = pairs.get((u[-1], g), ())
                    if len(rewrite) == 1 and (u, g) not in products:
                        continue
                frame = self._insert({u: c}, letters)
                break
            pending[pair] = None
            stack.append(frame)
            value = None

    def _insert(self, terms: dict, letters: Word):
        """Generator: the normal-form terms of sum(c * v * letters) over the
        (v, c) of ``terms``, whose words are normal.

        A reducible (v, g) splits v after its last stop for g in v[:-1]
        into head*s, or takes head empty when there is none.  Yields each
        such (s, g) that the product table does not hold and receives the
        (word, coefficient) pairs of the normal form of s*g; the table
        holds only finished products, so a hit is final.  Each term w of
        s*g is put behind head: only a leading central letter of w can
        pass a letter of head, so it moves to the front with the Koszul
        sign of head, or the term is dropped if head starts with it.
        Taking a dict rather than a start word keeps no reference to that
        word once its first letter is in, so a chain of pending pairs holds
        one word per pair.
        """
        pairs, products, stops = self._pairs, self._products, self._stops
        central = self._central
        for g in letters:
            out = {}
            cut = stops.get(g)
            for v, c in terms.items():
                if v and (v[-1], g) in pairs:
                    head = ()
                    if cut:
                        for i in range(len(v) - 2, -1, -1):
                            if v[i] in cut:
                                head, v = v[:i + 1], v[i + 1:]
                                break
                    vg = products.get((v, g))
                    if vg is None:
                        vg = yield v, g
                    odd = None
                    for w, c2 in vg:
                        if head:
                            if w and w[0] in central:
                                if head[0] == w[0]:
                                    continue
                                if odd is None:
                                    odd = self.word_parity(head)
                                w, c2 = w[:1] + head + w[1:], -c2 if odd else c2
                            else:
                                w = head + w
                        if c is not ONE:
                            c2 = c * c2
                        acc = out.get(w)
                        acc = c2 if acc is None else acc + c2
                        if acc is ZERO:
                            out.pop(w, None)
                        else:
                            out[w] = acc
                else:
                    _accumulate(out, v + (g,), c)
            terms = out
        return terms

    def _product(self, v: Word, g: str):
        """Generator: the normal form of ``v*g`` as a dict of its terms, for
        a normal word ``v`` whose last letter forms a reducible pair with
        ``g``, from one rewrite at that pair with no term or several."""
        out = {}
        for rw, c in self._pairs[v[-1], g]:
            terms = yield from self._insert({v[:-1]: ONE}, rw)
            for w, c2 in terms.items():
                _accumulate(out, w, c2 if c is ONE else c * c2)
        return out

    def _reduce_rightmost(self, start: Word, coeff, out: dict, spent: int, budget: int) -> int:
        """Add ``coeff`` times the rightmost normal form of ``start`` to
        ``out`` and return the work units spent, following every rewrite
        path to its end: the memo-free reference that the leftmost walk is
        checked against."""
        pairs = self._pairs
        stack = [(start, coeff)]
        while stack:
            w, c = stack.pop()
            for i in reversed(range(len(w) - 1)):
                if (w[i], w[i + 1]) in pairs:
                    break
            else:
                _accumulate(out, w, c)
                continue
            spent = self._spend(start, w, spent, budget)
            for w2, c2 in self._step_at(w, i).items():
                stack.append((w2, c * c2))
        return spent

    def _spend(self, start: Word, word: Word, spent: int, budget: int) -> int:
        spent += len(word)
        if spent > budget:
            raise self._nonterminating(
                f"rewriting exceeded its budget of {budget} work units", start, word, spent
            )
        return spent

    def _nonterminating(self, reason: str, start: Word, word: Word, spent: int):
        return NonTerminatingError(
            f"{reason} in presentation {self.name}: start word {'*'.join(start) or '1'}, "
            f"current word of length {len(word)}, {spent} work units spent"
        )

    def _add_products(self, out: dict, products) -> dict:
        """Add to ``out``, and return it, the normal form of the sum of
        sign*a*b over the (a, b, sign) triples of ``products``, whose a and b
        are term dicts.  A concatenated word that the cache holds is read from
        it; the others are summed first, so that they cancel as in the free
        sum, and what is left goes through one ``_normal_terms`` call."""
        cache = self._nf_cache
        rest = {}
        for a, b, sign in products:
            for w1, c1 in a.items():
                c1 = sign * c1
                for w2, c2 in b.items():
                    w, c = w1 + w2, c1 * c2
                    result = cache.get(w)
                    if result is None:
                        _accumulate(rest, w, c)
                    else:
                        for v, cv in result.items():
                            _accumulate(out, v, cv if c is ONE else c * cv)
        return self._normal_terms(rest, out=out) if rest else out

    def multiply(self, a, b) -> Element:
        """Normal form of the product a*b, with no Element built for ``a * b``
        (see ``_add_products``)."""
        product = (as_element(a)._terms, as_element(b)._terms, ONE)
        return Element._wrap(self._add_products({}, [product]))

    def is_normal(self, element: Element) -> bool:
        for w in element.words():
            self._check_letters(w)
            if self._first_reducible(w) is not None:
                return False
        return True

    # -- operator action -----------------------------------------------------

    def act(self, operator, function) -> Element:
        """Apply an operator to a function: multiply, then drop every term
        still waiting on a derivative (word ending in a derivative generator).

        The action is linear in the function, so it is the linear extension
        of its value on one function word: the normal form of operator*word
        minus the terms that end in a derivative.  Those values are kept per
        operator on the presentation; a miss makes room for a new operator,
        or for a new word in an operator's memo, under ``WORD_MEMO_CAP``.
        """
        operator = as_element(operator)
        memo = self._act_memo.get(operator)
        if memo is None:
            memo = make_room(self._act_memo, WORD_MEMO_CAP)[operator] = {}
        return linear_extension(
            as_element(function)._terms, lambda w: self._act_on_word(operator, w), memo
        )

    def _act_on_word(self, operator: Element, w: Word) -> Element:
        for g in w:
            if g in self.derivatives:
                raise UnknownGeneratorError(
                    f"function operand contains derivative generator {g!r}"
                )
        product = self.multiply(operator, Element.word(w))
        derivatives = self.derivatives
        return Element._wrap(
            {v: c for v, c in product._terms.items() if not (v and v[-1] in derivatives)}
        )

    # -- confluence ----------------------------------------------------------

    def _critical_pairs(self) -> list:
        """Each doubly-reducible length-3 word w, in (g1, g2, g3) order, with
        its one-step rewrites at 0 and at 1, built from the final pair table
        on the first call.  They are kept in a plain attribute: reading
        ``__dict__``, as ``functools.cached_property`` does, makes every later
        attribute read of the presentation slower on CPython 3.11."""
        if self._overlaps is not None:
            return self._overlaps
        overlaps = []
        names = self.generator_names()
        pairs = self._pairs
        for g1 in names:
            for g2 in names:
                if (g1, g2) not in pairs:
                    continue
                for g3 in names:
                    if (g2, g3) in pairs:
                        w = (g1, g2, g3)
                        overlaps.append((w, self._step_at(w, 0), self._step_at(w, 1)))
        self._overlaps = overlaps
        return overlaps

    def check_confluence(self) -> "ConfluenceReport":
        """Reduce both rewrites of every overlap word and compare the terms;
        only a failure wraps its two normal forms as Elements."""
        failures = []
        overlaps = self._critical_pairs()
        for w, step0, step1 in overlaps:
            left, right = self._normal_terms(step0), self._normal_terms(step1)
            if left != right:
                failures.append((w, Element._wrap(left), Element._wrap(right)))
        return ConfluenceReport(self.name, len(overlaps), failures)

    # -- comparison ------------------------------------------------------------

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


class ConfluenceReport(Record):
    """Outcome of the length-3 overlap check."""

    _fields = ("presentation", "words_checked", "failures")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, presentation: str, words_checked: int, failures: list):
        self.presentation = presentation
        self.words_checked = words_checked
        self.failures = failures

    @property
    def passed(self) -> bool:
        return not self.failures


class AlgebraMorphism(Record):
    """Algebra map given by generator images, extended multiplicatively.

    With ``conjugate_scalars`` set, coefficients are complex-conjugated
    (q stays fixed), giving an antilinear map.  The image of each source
    word is kept in a memo bounded by ``WORD_MEMO_CAP``, so ``images``
    must not change once the map has been called.
    """

    _fields = ("source", "target", "images", "conjugate_scalars")
    _reverses_words = False

    def __init__(
        self,
        source: Presentation,
        target: Presentation,
        images: Mapping[str, Element],
        conjugate_scalars: bool = False,
    ):
        vars(self).update(
            source=source, target=target, images=images, conjugate_scalars=conjugate_scalars
        )
        vars(self)["_memo"] = {}  # not a field: no part of equality, hash or repr

    def __call__(self, element) -> Element:
        terms = as_element(element)._terms
        if self.conjugate_scalars:
            terms = {w: c.conjugate() for w, c in terms.items()}
        return linear_extension(terms, self._image_of_word, self._memo)

    def _image_of_word(self, w: Word) -> Element:
        """Normal form in ``target`` of the product of the letters' images,
        taken in reverse order by an anti-homomorphism."""
        acc = ONE_ELEMENT
        for g in (reversed(w) if self._reverses_words else w):
            try:
                image = self.images[g]
            except KeyError:
                raise UnknownGeneratorError(
                    f"no image for {g!r} in the map into {self.target.name}"
                ) from None
            acc = self.target.multiply(acc, image)
        return acc


class InvolutionSpec(AlgebraMorphism):
    """Antilinear anti-automorphism of a presentation: conjugate scalars,
    reverse words.

    No Koszul sign is inserted on reversal: (uv)+ = v+ u+ for all parities.
    """

    _reverses_words = True

    def __init__(self, presentation: Presentation, images: Mapping[str, Element]):
        super().__init__(presentation, presentation, images, conjugate_scalars=True)

    # an entry of its own, which perfbench/tracing.py wraps in a span
    __call__ = AlgebraMorphism.__call__

    @property
    def presentation(self) -> Presentation:
        return self.source

    def is_involutive(self) -> bool:
        """Applying the star twice fixes every generator."""
        for g in self.source.generators:
            e = Element.generator(g.name)
            if self(self(e)) != self.source.normal_form(e):
                return False
        return True


def relation_residuals(phi: AlgebraMorphism, lhs_words: Optional[Iterable[Word]] = None):
    """Each rule of ``phi.source``, in ``rule_list`` order or for the left
    sides ``lhs_words`` in their order, with its residual phi(lhs - rhs), a
    normal form that is 0 exactly when phi respects the rule."""
    rules = phi.source.rules
    for lhs in sorted(rules) if lhs_words is None else lhs_words:
        rule = RewriteRule(lhs, rules[lhs])
        yield rule, phi(Element.word(lhs) - rule.rhs)
