"""Exact coefficient arithmetic for the deformation parameter q.

A scalar is a rational function of q with Gaussian rational coefficients,
kept as a triple (k, N, D) meaning q^k * N/D: k is any integer, N and D are
coprime polynomials, neither divisible by q, and D is monic.  This form is
canonical, so equality of scalars is a structural comparison.  The q -> 1
specialisation of the contraction machinery, ``ScalarQ.limit_at_one``, is
N(1)/D(1); it raises ``PoleAtOne`` on a genuine pole.

A polynomial coefficient is an ``int`` when integral, a ``Fraction`` when
real and not integral, and a ``GaussianRational`` only when its imaginary
part is nonzero: a real result goes back to ``int`` or ``Fraction``, and
division goes through ``Fraction``, never ``/`` on ints, so most arithmetic
is on ints.  ``PolyQ.coeffs`` and ``lead`` are ``GaussianRational`` views,
and ``ScalarQ.num`` and ``den`` the polynomials q^max(k,0)*N and
q^max(-k,0)*D, for outside readers.

Most scalars met in practice are Laurent monomials c*q^k, that is N = c and
D = 1, so q^k takes O(1) memory, and a product with one adds exponents and
scales the other N, with nothing to cancel.  Any other product, a sum (over
the lower power of q) and construction go through the one reducer
``_reduced``: it strips the powers of q from N and D into k, runs Euclid's
algorithm only when what is left of D has two or more terms, and makes D
monic.  Negation, conjugation and the inverse q^-k*D/N of a division keep
the invariant as they stand.

Scalars are hash-consed: ``ScalarQ._canonical`` is the only place that
creates one, and it first looks the canonical triple up in a weak intern
table, so every live scalar is the one object of its value.  Equality is
identity, and the table holds no more than the scalars alive elsewhere.
``sc(k)`` of a small integer, -16 to 16, returns a constant kept in a dict
(``ZERO`` and ``ONE`` among them) without a lookup.

Products (so quotients), sums (so differences) and negations are memoised:
each result is computed once, by the paths above, and kept in a
module-level table keyed by its operands' serials, the ``_key`` that
``_canonical`` gives each new scalar from a counter.  An equal operand pair
is the same objects, so it gets the same result object, and a lookup hashes
ints without calling ``ScalarQ.__hash__`` or ``__eq__``.  The tables hold no
operands; a serial, unlike an ``id()``, is never reused after its scalar
dies.  Each table is bounded by ``SCALAR_TABLE_CAP`` through ``make_room``,
the one rule for every bounded memo of the engine.  A scalar caches its
hash the first time it is hashed.
"""

from __future__ import annotations

import itertools
import sys
import weakref
from fractions import Fraction
from typing import Union


class DivisionByZero(ZeroDivisionError):
    """Raised when dividing by an exactly-zero scalar."""


class PoleAtOne(ArithmeticError):
    """Raised when specialising a scalar at q = 1 hits a pole."""


_RationalLike = Union[int, Fraction]


def _rational(x: _RationalLike) -> _RationalLike:
    """A non-``int`` ``x`` as an ``int`` when it is integral, else as a
    ``Fraction``; a float has no exact value here, so it is refused."""
    if type(x) is not Fraction:
        if isinstance(x, float):
            raise TypeError(f"a coefficient must be exact, not the float {x!r}")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def _native(x):
    """``x`` as a canonical coefficient: an ``int`` when integral, else a
    ``Fraction`` when real, else a ``GaussianRational`` with nonzero ``im``."""
    if type(x) is int:
        return x
    if isinstance(x, GaussianRational):
        return x if x.im else x.re
    return _rational(x)


def _normal(cs: list) -> tuple:
    """``cs`` as canonical coefficients without trailing zeros; the sum is an
    ``int`` only when every term is, and only then is ``_native`` skipped."""
    while cs and not cs[-1]:
        cs.pop()
    if type(sum(cs)) is not int:
        cs = [_native(c) for c in cs]
    return tuple(cs)


def _div(a, b):
    """The exact quotient a/b of two coefficients, canonical."""
    if type(a) is GaussianRational or type(b) is GaussianRational:
        return _native(a / b)
    return _rational(Fraction(a, b))


class GaussianRational:
    """A number a + b*i with exact rational a, b.

    ``re`` and ``im`` are each an ``int`` when integral and a ``Fraction``
    otherwise, so equal numbers have identical components.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: _RationalLike = 0, im: _RationalLike = 0):
        object.__setattr__(self, "re", re if type(re) is int else _rational(re))
        object.__setattr__(self, "im", im if type(im) is int else _rational(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    @staticmethod
    def _coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise DivisionByZero("division by zero Gaussian rational")
        return GaussianRational(
            Fraction(self.re * other.re + self.im * other.im, norm),
            Fraction(self.im * other.re - self.re * other.im, norm),
        )

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        # a real number hashes like the int or Fraction it equals
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        imag = "i" if abs(self.im) == 1 else f"{abs(self.im)}*i"
        if not self.re:
            return imag if self.im > 0 else f"-{imag}"
        op = "+" if self.im > 0 else "-"
        return f"{self.re}{op}{imag}"


class PolyQ:
    """Polynomial in q over the Gaussian rationals, coefficients ascending in ``_c``."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        object.__setattr__(self, "_c", _normal([_native(c) for c in coeffs]))

    @staticmethod
    def _canonical(coeffs: tuple) -> "PolyQ":
        """Wrap a tuple of canonical coefficients with no trailing zero, unchecked."""
        out = object.__new__(PolyQ)
        object.__setattr__(out, "_c", coeffs)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("PolyQ is immutable")

    def __reduce__(self):
        return PolyQ._canonical, (self._c,)

    @staticmethod
    def constant(c) -> "PolyQ":
        return PolyQ([c])

    @staticmethod
    def variable() -> "PolyQ":
        return PolyQ([0, 1])

    def is_zero(self) -> bool:
        return not self._c

    @property
    def coeffs(self) -> tuple:
        """The coefficients as ``GaussianRational``s, a copy of ``_c``."""
        return tuple(map(GaussianRational._coerce, self._c))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self._c) - 1

    @property
    def lead(self) -> GaussianRational:
        return GaussianRational._coerce(self._c[-1] if self._c else 0)

    def scale(self, c) -> "PolyQ":
        return PolyQ._canonical(_normal([a * c for a in self._c]))

    def monic(self) -> "PolyQ":
        if self.is_zero():
            return self
        return self.scale(_div(1, self._c[-1]))

    def __add__(self, other: "PolyQ") -> "PolyQ":
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out.extend(a[len(b):])
        return PolyQ._canonical(_normal(out))

    def __neg__(self) -> "PolyQ":
        return PolyQ._canonical(tuple(-c for c in self._c))

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        a, b = self._c, other._c
        if not a or not b:
            return _P_ZERO
        # a constant operand, such as a denominator 1, needs no convolution
        if len(b) == 1:
            return self.scale(b[0])
        if len(a) == 1:
            return other.scale(a[0])
        out = [0] * (len(a) + len(b) - 1)
        for j, x in enumerate(a):
            if not x:
                continue
            for k, y in enumerate(b):
                out[j + k] += x * y
        return PolyQ._canonical(_normal(out))

    def __divmod__(self, other: "PolyQ"):
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem, div = list(self._c), other._c
        quo = [0] * max(len(rem) - len(div) + 1, 0)
        while len(rem) >= len(div):
            c = _div(rem[-1], div[-1])
            shift = len(rem) - len(div)
            quo[shift] = c
            for k, b in enumerate(div):
                rem[shift + k] -= c * b
            while rem and not rem[-1]:
                rem.pop()
        return PolyQ._canonical(_normal(quo)), PolyQ._canonical(_normal(rem))

    def __floordiv__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[0]

    def __mod__(self, other: "PolyQ") -> "PolyQ":
        return divmod(self, other)[1]

    def gcd(self, other: "PolyQ") -> "PolyQ":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def evaluate(self, value):
        acc = 0
        for c in reversed(self._c):
            acc = acc * value + c
        return _native(acc)

    def conjugate(self) -> "PolyQ":
        """Complex-conjugate the coefficients; q itself stays fixed."""
        return PolyQ._canonical(tuple(c.conjugate() for c in self._c))

    def __eq__(self, other):
        return isinstance(other, PolyQ) and self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"PolyQ({list(self._c)!r})"

    def __str__(self):
        return _poly_str(self._c, 0)


def _poly_str(coeffs: tuple, shift: int) -> str:
    """The polynomial with ascending ``coeffs``, times q^shift, as text."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        if coeffs[k]:
            parts.append(_poly_term_str(coeffs[k], k + shift, first=not parts))
    return "".join(parts) or "0"


def _poly_term_str(c, power: int, first: bool) -> str:
    if type(c) is GaussianRational:
        if c.re:
            body = f"({c})"
            sign = "+"
        else:
            body = str(GaussianRational(0, abs(c.im)))
            sign = "+" if c.im > 0 else "-"
    else:
        sign = "+" if c > 0 else "-"
        body = str(abs(c))
    if power:
        qpart = "q" if power == 1 else f"q^{power}"
        if body == "1":
            body = qpart
        else:
            body = f"{body}*{qpart}"
    if first:
        return body if sign == "+" else f"-{body}"
    return f"{sign}{body}"


_P_ZERO = PolyQ()
_P_ONE = PolyQ.constant(1)


class ScalarQ:
    """Rational function q^k * N/D of q in canonical form.

    Invariant: N and D are coprime, neither is divisible by q, and D is
    monic (zero is k = 0, N = 0, D = 1), so two equal scalars are
    structurally identical, and interning makes them one object.  ``num``
    and ``den`` read the scalar back as one polynomial over another.
    """

    __slots__ = ("_k", "_n", "_d", "_key", "_hash", "__weakref__")

    def __new__(cls, num=0, den=1):
        num = num if isinstance(num, PolyQ) else PolyQ.constant(num)
        den = den if isinstance(den, PolyQ) else PolyQ.constant(den)
        if den.is_zero():
            raise DivisionByZero("scalar with zero denominator")
        return _reduced(0, num, den)

    @staticmethod
    def _canonical(k: int, num: PolyQ, den: PolyQ) -> "ScalarQ":
        """The one live scalar q^k*num/den, for an unchecked canonical triple:
        the interned object if there is one, else a new one, interned with
        the next serial as its ``_key``.  Every scalar is made here."""
        key = (k, num._c, den._c)
        out = _INTERNED.get(key)
        if out is None:
            out = object.__new__(ScalarQ)
            object.__setattr__(out, "_k", k)
            object.__setattr__(out, "_n", num)
            object.__setattr__(out, "_d", den)
            object.__setattr__(out, "_key", next(_SERIALS))
            _INTERNED[key] = out
        return out

    def __setattr__(self, name, value):
        raise AttributeError("ScalarQ is immutable")

    def __reduce__(self):
        # rebuilt through the intern table, so a copy is the live scalar itself
        return ScalarQ._canonical, (self._k, self._n, self._d)

    @property
    def num(self) -> PolyQ:
        """The numerator q^max(k, 0)*N, coprime to ``den``."""
        return _raised(self._n, max(self._k, 0))

    @property
    def den(self) -> PolyQ:
        """The monic denominator q^max(-k, 0)*D."""
        return _raised(self._d, max(-self._k, 0))

    @staticmethod
    def _coerce(value) -> "ScalarQ":
        if isinstance(value, ScalarQ):
            return value
        if type(value) is int:
            interned = _SMALL_INTS.get(value)
            if interned is not None:
                return interned
        if isinstance(value, (int, Fraction, GaussianRational)):
            return _laurent(value, 0)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self._n._c

    def _monomial(self):
        """``(c, k)`` when this scalar is c*q^k (c nonzero), else None."""
        num = self._n._c
        return (num[0], self._k) if len(num) == 1 and len(self._d._c) == 1 else None

    def __add__(self, other):
        if type(other) is not ScalarQ:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other._n._c:
            return self
        if not self._n._c:
            return other
        key = (self._key, other._key)
        out = _SUMS.get(key)
        if out is None:
            out = make_room(_SUMS, SCALAR_TABLE_CAP)[key] = _sum(self, other)
        return out

    __radd__ = __add__

    def __neg__(self):
        key = self._key
        out = _NEGATIONS.get(key)
        if out is None:
            out = make_room(_NEGATIONS, SCALAR_TABLE_CAP)[key] = ScalarQ._canonical(
                self._k, -self._n, self._d
            )
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if other is ONE:
            return self
        if type(other) is not ScalarQ:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self is ONE:
            return other
        key = (self._key, other._key)
        out = _PRODUCTS.get(key)
        if out is None:
            out = make_room(_PRODUCTS, SCALAR_TABLE_CAP)[key] = _multiply(self, other)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("scalar division by zero")
        # N, D coprime: q^-k*D/N over lead(N) is the canonical inverse, with no gcd
        lead = _div(1, other._n._c[-1])
        return self * ScalarQ._canonical(-other._k, other._d.scale(lead), other._n.scale(lead))

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            if self.is_zero():
                raise DivisionByZero("zero scalar to a negative power")
            return (ONE / self) ** (-exponent)
        out = ONE
        base = self
        k = exponent
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conjugate(self) -> "ScalarQ":
        """Complex conjugation; the deformation parameter q is treated as real,
        so the conjugate of a canonical q^k*N/D is canonical (a monic
        denominator stays monic) and needs no reduction."""
        return ScalarQ._canonical(self._k, self._n.conjugate(), self._d.conjugate())

    def limit_at_one(self) -> GaussianRational:
        """Value N(1)/D(1) at q = 1; a zero denominator here is a genuine pole."""
        dval = self._d.evaluate(1)
        if not dval:
            raise PoleAtOne(f"pole at q = 1 in {self}")
        return GaussianRational._coerce(_div(self._n.evaluate(1), dval))

    def __eq__(self, other):
        """Identity, after coercing an int, Fraction or GaussianRational."""
        if self is other:
            return True
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self is other

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            # a constant hashes like the number it equals
            k, num, den = self._k, self._n._c, self._d._c
            constant = not k and len(den) == 1 and len(num) <= 1
            value = hash((num[0] if num else 0) if constant else (k, num, den))
            object.__setattr__(self, "_hash", value)
            return value

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"ScalarQ({self.num!r}, {self.den!r})"

    def __str__(self):
        mono = self._monomial()
        if mono is not None:
            # c*q^k prints as a single power, k of either sign
            return _poly_term_str(*mono, first=True)
        k, num, den = self._k, self._n._c, self._d._c
        num_str = _poly_str(num, max(k, 0))
        if len(den) == 1 and k >= 0:
            return num_str
        if len(num) > 1:  # two terms at least: N(0) and the lead are nonzero
            num_str = f"({num_str})"
        return f"{num_str}/({_poly_str(den, max(-k, 0))})"


def _raised(p: PolyQ, shift: int) -> PolyQ:
    """p*q^shift, for shift >= 0."""
    return PolyQ._canonical((0,) * shift + p._c) if shift else p


def _laurent(c, k: int) -> ScalarQ:
    """Canonical c*q^k: k with c over 1."""
    if not c:
        return ZERO
    if type(c) is not int:
        c = _native(c)
    return ScalarQ._canonical(k, PolyQ._canonical((c,)), _P_ONE)


def make_room(memo: dict, cap: int) -> dict:
    """``memo``, emptied if it holds ``cap`` entries or more: the one bound of
    every memo, whose owner calls this just before the memo may grow."""
    if len(memo) >= cap:
        memo.clear()
    return memo


def reset() -> None:
    """Empty the scalar result tables and each module-level ``functools``
    cache of the ``hsuperplane`` modules, the catalogue among them.  Interned
    scalars stay: equality is identity, and no serial may be reused."""
    for table in (_PRODUCTS, _SUMS, _NEGATIONS):
        table.clear()
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "hsuperplane":
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


# serial-keyed result tables: (a._key, b._key) -> a*b, -> a+b for nonzero a
# and b, a._key -> -a; each bounded by SCALAR_TABLE_CAP through make_room
SCALAR_TABLE_CAP = 4096
_PRODUCTS: dict = {}
_SUMS: dict = {}
_NEGATIONS: dict = {}


def _reduced(k: int, num: PolyQ, den: PolyQ) -> ScalarQ:
    """The canonical q^k*num/den, for a nonzero den: the powers of q in num
    and den go into k, Euclid runs only when what is left of den has two or
    more terms, and den is made monic.  Only this strips q or takes a gcd."""
    if not num._c:
        return ScalarQ._canonical(0, _P_ZERO, _P_ONE)
    i = next(x for x, c in enumerate(num._c) if c)
    j = next(x for x, c in enumerate(den._c) if c)
    num, den = PolyQ._canonical(num._c[i:]), PolyQ._canonical(den._c[j:])
    if len(den._c) > 1:
        g = num.gcd(den)
        if g.degree > 0:
            num, den = num // g, den // g
    lead = den._c[-1]
    if lead != 1:
        inverse = _div(1, lead)
        num, den = num.scale(inverse), den.scale(inverse)
    return ScalarQ._canonical(k + i - j, num, den)


def _multiply(a: ScalarQ, b: ScalarQ) -> ScalarQ:
    """a*b: an operand c*q^k adds k and scales the other's N, with nothing to
    cancel; any other pair goes through the reduction."""
    if not a._n._c or not b._n._c:
        return ZERO
    k = a._k + b._k
    ma, mb = a._monomial(), b._monomial()
    if ma is not None:
        return ScalarQ._canonical(k, b._n.scale(ma[0]), b._d)
    if mb is not None:
        return ScalarQ._canonical(k, a._n.scale(mb[0]), a._d)
    return _reduced(k, a._n * b._n, a._d * b._d)


def _sum(a: ScalarQ, b: ScalarQ) -> ScalarQ:
    """a+b for nonzero a and b, over the lower power of q."""
    k = min(a._k, b._k)
    na, nb = _raised(a._n, a._k - k), _raised(b._n, b._k - k)
    if a._d == b._d:
        return _reduced(k, na + nb, a._d)
    return _reduced(k, na * b._d + nb * a._d, a._d * b._d)


# the weak intern table: (k, N._c, D._c) -> the one live scalar
_INTERNED = weakref.WeakValueDictionary()
# each scalar's _key; a serial is never given twice, unlike an id()
_SERIALS = itertools.count()
# small integers coerce to these constants without an intern lookup
_SMALL_INTS = {k: ScalarQ(k) for k in range(-16, 17)}
ZERO = _SMALL_INTS[0]
ONE = _SMALL_INTS[1]
I = ScalarQ(GaussianRational(0, 1))
Q = ScalarQ(PolyQ.variable())


def sc(value) -> ScalarQ:
    """Coerce an int, Fraction, or GaussianRational to a ScalarQ; a ScalarQ
    is returned as it is."""
    if type(value) is ScalarQ:
        return value
    out = ScalarQ._coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot coerce {value!r} to ScalarQ")
    return out


def qpow(k: int) -> ScalarQ:
    """The scalar q**k (k may be negative)."""
    return _laurent(1, k)
