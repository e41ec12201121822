"""Seeded input stream for the ``normalize-mix`` workload.

The stream is plain data, so it can be generated and compared without
importing the engine: each element is ``(presentation, terms)`` where
``terms`` is a tuple of ``(word, coefficient_index)`` pairs with distinct
words.  ``COEFFICIENTS[coefficient_index]`` is the coefficient in the
expression syntax of ``hsuperplane.expr.parse_scalar``.

Shape of the stream, and why:

* Half the words are drawn from a hot set of 64 words per presentation
  fixed by the seed, the rest are fresh, so the normal-form cache both hits
  (a hot word after its first use) and grows.  A smaller hot set lets a few
  words with large normal forms, recurring all through a run, set the run's
  totals: with 8 hot words the 95th percentile of per-element work varied
  four times as much between seeds.
* Words are long (4 to 10 letters, long ones favoured) and built from the
  generators other than ``h``.  Each odd letter appears at most once and at
  most one "expanding" letter (a derivative or annihilator, whose rules add
  lower-order terms) appears per word.  Repeated odd letters collapse most
  words to 0, and several expanding letters make single words take seconds.
* In ``qh-calculus`` every exchange carries a polynomial in q, so its words
  are capped at 5 letters: a 7-letter word there takes a quarter of a second
  to reduce rightmost-first, and a 10-letter one can take tens of seconds.
* Six of the fifteen coefficients have a non-monomial denominator or a
  non-real part, so the general gcd path of the scalar field runs, unlike in
  ``verify all`` where 97% of scalars have monomial denominators.
* The properties that set an element's cost (presentation, number of terms,
  hot or fresh, word length, expanding letter, ``h``) are dealt from
  shuffled decks rather than drawn independently, so every seed gets the
  same proportions and only the letters and their order vary.  A run times
  several hundred elements; independent draws would make its totals depend
  on the seed more than on the engine.
"""

from __future__ import annotations

import random
from typing import Iterator, Sequence

COEFFICIENTS = (
    "1",
    "-1",
    "2",
    "-3",
    "1/2",
    "q",
    "q^-1",
    "-2*q^2",
    "3*q^-2",
    "1/(q-1)",
    "(q+1)/(q^2+1)",
    "(1+i)*q",
    "i",
    "q/(q+1)",
    "(2-i)/(q^2-q+1)",
)

# presentation -> (letters for long words, expanding letters, longest word,
# whether the presentation has the generator h)
PRESENTATIONS = {
    "qh-calculus": (("dth", "x", "th", "dx"), ("px", "pth"), 5, True),
    "h-calculus": (("dth", "x", "th", "dx"), ("px", "pth"), 10, True),
    "gl-h11": (("a", "bt", "gm", "dd"), (), 10, True),
    "coaction-product": (
        ("a", "ai", "bt", "gm", "dd", "ddi", "dth", "dx", "th", "x"),
        ("px", "pth"),
        10,
        True,
    ),
    "q-oscillator": (("ad", "bd"), ("a", "b"), 10, False),
}

ODD_LETTERS = frozenset({"th", "dx", "pth", "bt", "gm", "bd", "b"})

HOT_WORDS_PER_PRESENTATION = 64
TERM_COUNTS = (1, 2, 3, 4)
LENGTHS = (4, 5, 6, 7, 7, 8, 8, 9, 9, 10)
EXPANDING = (True,) * 3 + (False,) * 17
WITH_H = (True,) * 2 + (False,) * 18

Word = tuple
Spec = tuple  # (presentation name, ((word, coefficient index), ...))


class Deck:
    """Deals the items in a fresh shuffled order each time round."""

    def __init__(self, rng: random.Random, items: Sequence) -> None:
        self._rng = rng
        self._items = list(items)
        self._hand: list = []

    def deal(self):
        if not self._hand:
            self._hand = self._items[:]
            self._rng.shuffle(self._hand)
        return self._hand.pop()


class MixStream:
    """The hot set and the element stream generated from one seed."""

    def __init__(self, seed: int) -> None:
        rng = self._rng = random.Random(seed)
        self._lengths = {
            name: Deck(rng, [n for n in LENGTHS if n <= spec[2]])
            for name, spec in PRESENTATIONS.items()
        }
        self._expanding = Deck(rng, EXPANDING)
        self._with_h = Deck(rng, WITH_H)
        self.hot = {
            name: [self._word(name) for _ in range(HOT_WORDS_PER_PRESENTATION)]
            for name in PRESENTATIONS
        }
        self._shapes = Deck(rng, [(n, k) for n in PRESENTATIONS for k in TERM_COUNTS])
        self._hot_or_fresh = Deck(rng, (True, False))

    def _word(self, presentation: str) -> Word:
        rng = self._rng
        base, expanding, _, has_h = PRESENTATIONS[presentation]
        length = self._lengths[presentation].deal()
        letters: list[str] = []
        if expanding and self._expanding.deal():
            letters.append(rng.choice(expanding))
        while len(letters) < length:
            letter = rng.choice(base)
            if letter not in ODD_LETTERS or letter not in letters:
                letters.append(letter)
        rng.shuffle(letters)
        if has_h and self._with_h.deal():
            letters.insert(rng.randrange(len(letters) + 1), "h")
        return tuple(letters)

    def __iter__(self) -> Iterator[Spec]:
        rng = self._rng
        while True:
            name, count = self._shapes.deal()
            words: list[Word] = []
            while len(words) < count:
                if self._hot_or_fresh.deal():
                    candidate = rng.choice(self.hot[name])
                else:
                    candidate = self._word(name)
                if candidate not in words:
                    words.append(candidate)
            yield name, tuple((w, rng.randrange(len(COEFFICIENTS))) for w in words)
