"""Exact coefficient arithmetic for the deformation parameter q.

Scalars are rational functions of a single indeterminate q with Gaussian
rational coefficients.  Everything is kept in a canonical reduced form
(numerator and denominator coprime, denominator monic) so that equality of
scalars is a structural comparison, never a numerical one.  The q -> 1
specialisation needed by the contraction machinery is provided by
``ScalarQ.limit_at_one``, which raises ``PoleAtOne`` on a genuine pole.

Each component of a Gaussian rational is a plain ``int`` when it is
integral and a ``Fraction`` only otherwise; division goes through
``Fraction`` and integral results come back as ``int``.  Reducing a scalar
needs no polynomial gcd when its denominator is 1 or a monomial c*q^k: the
gcd is then a power of q, removed by shifting coefficients.  Only a
denominator with two or more terms, such as q-1, runs Euclid's algorithm.

Most scalars met in practice are Laurent monomials c*q^k (k any integer),
and those take exponent arithmetic, never a convolution or Euclid: a
product of two is (c1*c2)*q^(k1+k2), built directly in canonical form; a
monomial times a general N/D scales N and cancels only the power of q it
can share with D or N, since N and D are coprime; sums of two monomials
with the same exponent and ``qpow`` go through the same constructor.
Negation and division need no such case for a monomial: -N/D is
canonical as it stands, and division multiplies by the divisor's inverse,
D/N made monic, with no gcd.  Every path keeps the canonical invariant.

Scalars are hash-consed: ``ScalarQ._canonical`` is the only place that
creates one, and it first looks the canonical pair up in a weak intern
table, so every live scalar is the one object of its value.  Equality is
identity, and the table holds no more than the scalars alive elsewhere.
``sc(k)`` of a small integer, -16 to 16, returns a constant kept in a dict
(``ZERO`` and ``ONE`` among them) without a lookup.

Products (so quotients), sums (so differences) and negations are memoised
by value: each result is computed once, by the paths above, and kept in a
module-level table keyed by its operands; an equal operand pair later gets
the same result object.  Each table is bounded by ``SCALAR_TABLE_CAP``
through ``make_room``, the one rule for every bounded memo of the engine.
A scalar caches its hash the first time it is hashed.
"""

from __future__ import annotations

import weakref
from fractions import Fraction
from typing import Union


class DivisionByZero(ZeroDivisionError):
    """Raised when dividing by an exactly-zero scalar."""


class PoleAtOne(ArithmeticError):
    """Raised when specialising a scalar at q = 1 hits a pole."""


_RationalLike = Union[int, Fraction]


def _rational(x: _RationalLike) -> _RationalLike:
    """A non-``int`` ``x`` as an ``int`` when it is integral, else as a ``Fraction``."""
    if type(x) is not Fraction:
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


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


_G_ZERO = GaussianRational(0)
_G_ONE = GaussianRational(1)


class PolyQ:
    """Polynomial in q over the Gaussian rationals, coefficients ascending."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, GaussianRational) else GaussianRational(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @staticmethod
    def _canonical(coeffs: tuple) -> "PolyQ":
        """Wrap a tuple of GaussianRationals with no trailing zero, unchecked."""
        out = object.__new__(PolyQ)
        object.__setattr__(out, "coeffs", coeffs)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("PolyQ is immutable")

    @staticmethod
    def constant(c) -> "PolyQ":
        return PolyQ([c])

    @staticmethod
    def variable() -> "PolyQ":
        return PolyQ([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> GaussianRational:
        return self.coeffs[-1] if self.coeffs else _G_ZERO

    def scale(self, c: GaussianRational) -> "PolyQ":
        return PolyQ([a * c for a in self.coeffs])

    def monic(self) -> "PolyQ":
        if self.is_zero():
            return self
        return self.scale(_G_ONE / self.lead)

    def __add__(self, other: "PolyQ") -> "PolyQ":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] = out[k] + c
        return PolyQ(out)

    def __neg__(self) -> "PolyQ":
        return PolyQ([-c for c in self.coeffs])

    def __sub__(self, other: "PolyQ") -> "PolyQ":
        return self + (-other)

    def __mul__(self, other: "PolyQ") -> "PolyQ":
        if self.is_zero() or other.is_zero():
            return PolyQ()
        # a constant operand, such as a denominator 1, needs no convolution
        if len(other.coeffs) == 1:
            return self.scale(other.coeffs[0])
        if len(self.coeffs) == 1:
            return other.scale(self.coeffs[0])
        out = [_G_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for k, b in enumerate(other.coeffs):
                out[j + k] = out[j + k] + a * b
        return PolyQ(out)

    def __divmod__(self, other: "PolyQ"):
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [_G_ZERO] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.lead
        dlen = len(other.coeffs)
        while len(rem) >= dlen:
            c = rem[-1] / dlead
            shift = len(rem) - dlen
            quo[shift] = c
            for k, b in enumerate(other.coeffs):
                rem[shift + k] = rem[shift + k] - c * b
            while rem and rem[-1].is_zero():
                rem.pop()
        return PolyQ(quo), PolyQ(rem)

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

    def evaluate(self, value: GaussianRational) -> GaussianRational:
        acc = _G_ZERO
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def conjugate(self) -> "PolyQ":
        """Complex-conjugate the coefficients; q itself stays fixed."""
        return PolyQ([c.conjugate() for c in self.coeffs])

    def __eq__(self, other):
        return isinstance(other, PolyQ) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"PolyQ({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c.is_zero():
                continue
            parts.append(_poly_term_str(c, k, first=not parts))
        return "".join(parts)


def _poly_term_str(c: GaussianRational, power: int, first: bool) -> str:
    if c.im:
        if c.re:
            body = f"({c})"
            sign = "+"
        else:
            body = str(GaussianRational(0, abs(c.im)))
            sign = "+" if c.im > 0 else "-"
    else:
        sign = "+" if c.re > 0 else "-"
        body = str(abs(c.re))
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
    """Rational function of q in canonical reduced form.

    Invariant: numerator and denominator are coprime and the denominator is
    monic, so two equal scalars are structurally identical, and interning
    makes them one object.
    """

    __slots__ = ("num", "den", "_hash", "__weakref__")

    def __new__(cls, num=0, den=1):
        num = num if isinstance(num, PolyQ) else PolyQ.constant(num)
        den = den if isinstance(den, PolyQ) else PolyQ.constant(den)
        if den.is_zero():
            raise DivisionByZero("scalar with zero denominator")
        if num.is_zero():
            num, den = _P_ZERO, _P_ONE
        elif not any(den.coeffs[:-1]):
            # den = c*q^k; gcd(num, den) = q^min(k, v), v the lowest degree in num
            k = den.degree
            shift = min(k, _low_degree(num.coeffs))
            if shift:
                num = PolyQ(num.coeffs[shift:])
            lead = den.lead
            if lead != _G_ONE:
                num = num.scale(_G_ONE / lead)
            den = PolyQ([_G_ZERO] * (k - shift) + [_G_ONE]) if k > shift else _P_ONE
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.lead
            den = den.monic()
            num = num.scale(_G_ONE / lead)
        return ScalarQ._canonical(num, den)

    @staticmethod
    def _canonical(num: PolyQ, den: PolyQ) -> "ScalarQ":
        """The one live scalar num/den, for an unchecked canonical pair: the
        interned object if there is one, else a new one, interned.  Every
        scalar is made here."""
        key = (num.coeffs, den.coeffs)
        out = _INTERNED.get(key)
        if out is None:
            out = object.__new__(ScalarQ)
            object.__setattr__(out, "num", num)
            object.__setattr__(out, "den", den)
            _INTERNED[key] = out
        return out

    def __setattr__(self, name, value):
        raise AttributeError("ScalarQ is immutable")

    @staticmethod
    def _coerce(value) -> "ScalarQ":
        if isinstance(value, ScalarQ):
            return value
        if type(value) is int:
            interned = _SMALL_INTS.get(value)
            if interned is not None:
                return interned
        if isinstance(value, (int, Fraction)):
            value = GaussianRational(value)
        if isinstance(value, GaussianRational):
            return _laurent(value, 0)
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.num.coeffs

    def _monomial(self):
        """``(c, k)`` when this scalar is c*q^k (c nonzero), else None."""
        num, den = self.num.coeffs, self.den.coeffs
        if len(den) == 1:  # canonical: a degree-0 denominator is 1
            if num and not any(num[:-1]):
                return num[-1], len(num) - 1
        elif len(num) == 1 and not any(den[:-1]):
            return num[0], 1 - len(den)
        return None

    def _times_monomial(self, c: GaussianRational, k: int) -> "ScalarQ":
        """This nonzero, non-monomial N/D times c*q^k.

        N and D are coprime, so only a power of q can cancel: the one that
        q^k shares with D (k > 0) or that N shares with q^-k (k < 0).
        """
        num, den = tuple(a * c for a in self.num.coeffs), self.den.coeffs
        if k > 0:
            shift = min(k, _low_degree(den))
            num, den = (_G_ZERO,) * (k - shift) + num, den[shift:]
        elif k < 0:
            shift = min(-k, _low_degree(num))
            num, den = num[shift:], (_G_ZERO,) * (-k - shift) + den
        return ScalarQ._canonical(PolyQ._canonical(num), PolyQ._canonical(den))

    def __add__(self, other):
        if type(other) is not ScalarQ:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.num.coeffs:
            return self
        if not self.num.coeffs:
            return other
        out = _SUMS.get((self, other))
        if out is None:
            out = make_room(_SUMS, SCALAR_TABLE_CAP)[self, other] = _sum(self, other)
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _NEGATIONS.get(self)
        if out is None:
            out = make_room(_NEGATIONS, SCALAR_TABLE_CAP)[self] = ScalarQ._canonical(
                -self.num, self.den
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
        return _product(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("scalar division by zero")
        # N, D coprime: D/N over lead(N) is the canonical inverse, with no gcd
        lead = _G_ONE / other.num.lead
        return _product(self, ScalarQ._canonical(other.den.scale(lead), other.num.scale(lead)))

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
        so the conjugate of a canonical N/D is canonical (a monic denominator
        stays monic) and needs no reduction."""
        return ScalarQ._canonical(self.num.conjugate(), self.den.conjugate())

    def limit_at_one(self) -> GaussianRational:
        """Value at q = 1; a zero denominator here is a genuine pole."""
        dval = self.den.evaluate(_G_ONE)
        if dval.is_zero():
            raise PoleAtOne(f"pole at q = 1 in {self}")
        return self.num.evaluate(_G_ONE) / dval

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
            constant = self.den.degree == 0 and self.num.degree <= 0
            value = hash(self.num.lead if constant else (self.num, self.den))
            object.__setattr__(self, "_hash", value)
            return value

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"ScalarQ({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den.degree == 0:
            return str(self.num)
        mono = self._monomial()
        if mono is not None:
            # c over q^k prints as a single power c*q^-k
            return _poly_term_str(*mono, first=True)
        num_terms = sum(1 for c in self.num.coeffs if not c.is_zero())
        num_str = str(self.num) if num_terms == 1 else f"({self.num})"
        return f"{num_str}/({self.den})"


def _low_degree(coeffs: tuple) -> int:
    """Index of the first nonzero coefficient."""
    return next(j for j, c in enumerate(coeffs) if c)


def _laurent(c: GaussianRational, k: int) -> ScalarQ:
    """Canonical c*q^k: (0,)*k + (c,) over 1, or (c,) over q^-k."""
    if not c:
        return ZERO
    if k >= 0:
        return ScalarQ._canonical(PolyQ._canonical((_G_ZERO,) * k + (c,)), _P_ONE)
    return ScalarQ._canonical(
        PolyQ._canonical((c,)), PolyQ._canonical((_G_ZERO,) * -k + (_G_ONE,))
    )


def make_room(memo: dict, cap: int) -> dict:
    """``memo``, emptied if it holds ``cap`` entries or more: the one bound of
    every memo, whose owner calls this just before the memo may grow."""
    if len(memo) >= cap:
        memo.clear()
    return memo


# value-keyed result tables: (a, b) -> a*b, (a, b) -> a+b for nonzero a and
# b, a -> -a; each bounded by SCALAR_TABLE_CAP through make_room
SCALAR_TABLE_CAP = 4096
_PRODUCTS: dict = {}
_SUMS: dict = {}
_NEGATIONS: dict = {}


def _product(a: ScalarQ, b: ScalarQ) -> ScalarQ:
    """a*b from the product table, computed by ``_multiply`` on a miss."""
    out = _PRODUCTS.get((a, b))
    if out is None:
        out = make_room(_PRODUCTS, SCALAR_TABLE_CAP)[a, b] = _multiply(a, b)
    return out


def _multiply(a: ScalarQ, b: ScalarQ) -> ScalarQ:
    """a*b: exponent arithmetic when an operand is c*q^k, else the reduction."""
    if not a.num.coeffs or not b.num.coeffs:
        return ZERO
    ma, mb = a._monomial(), b._monomial()
    if ma is not None:
        if mb is not None:
            return _laurent(ma[0] * mb[0], ma[1] + mb[1])
        return b._times_monomial(*ma)
    if mb is not None:
        return a._times_monomial(*mb)
    return ScalarQ(a.num * b.num, a.den * b.den)


def _sum(a: ScalarQ, b: ScalarQ) -> ScalarQ:
    """a+b for nonzero a and b."""
    ma, mb = a._monomial(), b._monomial()
    if ma is not None and mb is not None and ma[1] == mb[1]:
        return _laurent(ma[0] + mb[0], ma[1])
    if a.den == b.den:
        return ScalarQ(a.num + b.num, a.den)
    return ScalarQ(a.num * b.den + b.num * a.den, a.den * b.den)


# the weak intern table: (num.coeffs, den.coeffs) -> the one live scalar
_INTERNED = weakref.WeakValueDictionary()
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
    return _laurent(_G_ONE, k)
