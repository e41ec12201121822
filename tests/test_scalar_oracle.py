"""The scalar field Q(i)(q) checked against sympy, an independent oracle.

Inputs reach every reduction path of ``ScalarQ``: integer constants (unit
denominator), Laurent monomials c*q^k with positive and negative k
(monomial denominator), and quotients whose numerator and denominator share
a non-monomial factor such as q-1 or q^2+1 (the Euclidean gcd).
Coefficients include Fractions and non-real Gaussian rationals.

Products, sums and negations are kept in value-keyed tables, so each of
them is checked on a miss, on the hit that follows and after the tables
are cleared.  Division by a non-monomial is a product with the divisor's
inverse, so its result is stored too.
"""

import operator
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hsuperplane import scalar
from hsuperplane.algebra import Element
from hsuperplane.scalar import ONE, Q, ZERO, GaussianRational, PolyQ, ScalarQ, qpow, sc

# derandomized, so the tier-1 run is deterministic; no example database on disk
ORACLE = settings(derandomize=True, database=None, deadline=None, max_examples=150)

QS = sympy.Symbol("q")

# -- inputs ----------------------------------------------------------------------

small_ints = st.integers(-6, 6)
rationals = st.one_of(
    small_ints,
    st.builds(Fraction, small_ints, st.integers(1, 4)),
)
gaussians = st.one_of(
    st.builds(GaussianRational, rationals),
    st.builds(GaussianRational, rationals, rationals),
)
polys = st.lists(gaussians, min_size=1, max_size=3).map(PolyQ)
SHARED_FACTORS = (
    PolyQ([-1, 1]),  # q - 1
    PolyQ([1, 0, 1]),  # q^2 + 1
    PolyQ([1, 1]),  # q + 1
    PolyQ([0, 1]),  # q
)


@st.composite
def laurent_monomials(draw):
    return sc(draw(gaussians)) * qpow(draw(st.integers(-4, 4)))


@st.composite
def quotients(draw):
    """num*f / den*f, with f a shared factor the reduction must cancel."""
    factor = draw(st.sampled_from(SHARED_FACTORS))
    num = draw(polys)
    den = draw(polys.filter(lambda p: not p.is_zero()))
    return ScalarQ(num * factor, den * factor)


scalars = st.one_of(
    small_ints.map(sc),
    laurent_monomials(),
    quotients(),
)
nonzero_scalars = scalars.filter(lambda s: not s.is_zero())

# -- oracle and invariant ----------------------------------------------------------


def sym_number(x):
    if isinstance(x, GaussianRational):
        return sym_number(x.re) + sympy.I * sym_number(x.im)
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def sym_poly(p):
    return sympy.Poly.from_list([sym_number(c) for c in reversed(p.coeffs)], QS, domain=sympy.QQ_I)


def sym_scalar(s):
    return sym_poly(s.num), sym_poly(s.den)


# each operator beside its sympy counterpart on (numerator, denominator) pairs
OPS = {
    "add": (operator.add, lambda a, b: (a[0] * b[1] + b[0] * a[1], a[1] * b[1])),
    "sub": (operator.sub, lambda a, b: (a[0] * b[1] - b[0] * a[1], a[1] * b[1])),
    "mul": (operator.mul, lambda a, b: (a[0] * b[0], a[1] * b[1])),
    "truediv": (operator.truediv, lambda a, b: (a[0] * b[1], a[1] * b[0])),
}


def assert_matches_sympy(result, expected):
    """``result`` is sympy's ``cancel`` of ``expected`` with a monic denominator."""
    num, den = expected[0].cancel(expected[1], include=True)
    assert sym_poly(result.num) == num.quo_ground(den.LC())
    assert sym_poly(result.den) == den.monic()


def assert_canonical(s):
    for p in (s.num, s.den):
        for c in p.coeffs:
            for part in (c.re, c.im):
                assert type(part) is (int if Fraction(part).denominator == 1 else Fraction)
        assert not p.coeffs or not p.coeffs[-1].is_zero()  # no trailing zero
    assert s.den.lead == GaussianRational(1)
    assert sym_poly(s.num).gcd(sym_poly(s.den)).degree() <= 0
    if not any(s.num.coeffs):
        assert s.num.coeffs == () and s.den.coeffs == (GaussianRational(1),)
    # the general reduction gives back the same structure
    reduced = ScalarQ(s.num, s.den)
    assert repr(reduced) == repr(s)
    assert reduced == s and hash(reduced) == hash(s)


def assert_shared_if_small_int(s, *operands):
    """A result equal to an int in -16..16 is that int's shared constant.

    An operation may return an operand as it is (a*1, a+0), which is
    skipped; scalars are interned, so such an operand is shared as well.
    """
    if any(s is operand for operand in operands):
        return
    if s.den.degree == 0 and s.num.degree <= 0:
        value = s.num.lead
        if not value.im and type(value.re) is int and -16 <= value.re <= 16:
            assert s is sc(value.re)


# -- tests -------------------------------------------------------------------------------


@ORACLE
@given(num=polys, den=polys.filter(lambda p: not p.is_zero()))
def test_construction_matches_sympy(num, den):
    s = ScalarQ(num, den)
    assert_canonical(s)
    assert_matches_sympy(s, (sym_poly(num), sym_poly(den)))


@pytest.mark.parametrize("name", sorted(OPS))
@ORACLE
@given(a=scalars, b=nonzero_scalars)
def test_binary_ops_match_sympy(name, a, b):
    op, sym_op = OPS[name]
    result = op(a, b)
    assert_canonical(result)
    assert_matches_sympy(result, sym_op(sym_scalar(a), sym_scalar(b)))
    assert_shared_if_small_int(result, a, b)


@ORACLE
@given(a=scalars)
def test_negation_matches_sympy(a):
    result = -a
    assert_canonical(result)
    num, den = sym_scalar(a)
    assert_matches_sympy(result, (-num, den))
    assert_shared_if_small_int(result, a)


def sym_conjugate(poly):
    """``poly`` with each coefficient complex-conjugated by sympy; q is real."""
    return sympy.Poly([sympy.conjugate(c) for c in poly.all_coeffs()], QS, domain=sympy.QQ_I)


# one sympy check per example, on the paths of conjugation only
@settings(ORACLE, max_examples=60)
@given(a=scalars)
def test_conjugate_matches_sympy(a):
    result = a.conjugate()
    assert_canonical(result)
    num, den = sym_scalar(a)
    assert_matches_sympy(result, (sym_conjugate(num), sym_conjugate(den)))
    assert_shared_if_small_int(result)


def quotient_str(s):
    """The rendering rule read off ``num`` and ``den``: a polynomial over 1
    prints as itself, c over q^k as the single power c*q^-k, and anything
    else as num/(den), num in parentheses when it has two or more terms."""
    num, den = s.num, s.den
    if den.degree == 0:
        return str(num)
    if num.degree == 0 and not any(den.coeffs[:-1]):
        return scalar._poly_term_str(num._c[0], -den.degree, first=True)
    num_str = str(num) if sum(1 for c in num.coeffs if c) == 1 else f"({num})"
    return f"{num_str}/({den})"


@ORACLE
@given(a=scalars, k=st.integers(-(10**4), 10**4))
def test_derived_views_rebuild_and_print_the_scalar(a, k):
    """``num`` and ``den`` are read-only views of q^k*N/D that rebuild the
    scalar itself and print it as the full quotient would."""
    s = a * qpow(k)
    assert ScalarQ(s.num, s.den) is s
    assert str(s) == quotient_str(s)
    for name in ("num", "den"):
        with pytest.raises(AttributeError):
            setattr(s, name, getattr(s, name))


# -- Laurent monomials c*q^k: the exponent-arithmetic paths -------------------------

nonzero_gaussians = gaussians.filter(lambda c: not c.is_zero())


@pytest.mark.parametrize("k", range(-3, 4))
def test_zero_times_monomial_is_zero(k):
    m = sc(GaussianRational(Fraction(-3, 2), 2)) * qpow(k)
    for result in (ZERO * m, m * ZERO, sc(0) * m, m * 0, m - m, m + (-m)):
        assert_canonical(result)
        assert result is ZERO


@ORACLE
@given(c=nonzero_gaussians, k=st.integers(-5, 5))
def test_monomial_times_its_inverse_is_one(c, k):
    m = sc(c) * qpow(k)
    inverse = sc(GaussianRational(1) / c) * qpow(-k)
    assert_canonical(m)
    assert_canonical(inverse)
    assert m * inverse is ONE
    assert inverse * m is ONE
    assert m / m is ONE


@ORACLE
@given(
    c=nonzero_gaussians,
    k=st.integers(-4, 4),
    num=polys.filter(lambda p: not p.is_zero()),
    den=polys.filter(lambda p: not p.is_zero()),
    power=st.integers(1, 3),
    side=st.sampled_from(("num", "den")),
)
def test_monomial_times_quotient_cancels_powers_of_q(c, k, num, den, power, side):
    """q^power divides N or D, so c*q^k * N/D may cancel against it."""
    qp = PolyQ([0] * power + [1])
    s = ScalarQ(num * qp, den) if side == "num" else ScalarQ(num, den * qp)
    m = sc(c) * qpow(k)
    expected = OPS["mul"][1](sym_scalar(m), sym_scalar(s))
    for result in (m * s, s * m, s / (ONE / m)):
        assert_canonical(result)
        assert_matches_sympy(result, expected)
        assert_shared_if_small_int(result, m, s)


@pytest.mark.parametrize("k", range(-5, 6))
def test_qpow_is_q_to_the_k(k):
    power = Q**k
    assert_canonical(qpow(k))
    assert repr(qpow(k)) == repr(power)
    assert qpow(k) == power and hash(qpow(k)) == hash(power)


@ORACLE
@given(a=nonzero_scalars, k=st.integers(-3, 3))
def test_power_matches_sympy(a, k):
    result = a**k
    assert_canonical(result)
    assert_shared_if_small_int(result, a)
    num, den = sym_scalar(a)
    assert_matches_sympy(result, (num**k, den**k) if k >= 0 else (den**-k, num**-k))


# -- the value-keyed result tables -------------------------------------------------

TABLES = (scalar._PRODUCTS, scalar._SUMS, scalar._NEGATIONS)

MEMO_OPS = {
    "mul": (operator.mul, OPS["mul"][1]),
    "add": (operator.add, OPS["add"][1]),
    "sub": (operator.sub, OPS["sub"][1]),
    "neg": (lambda a, b: -a, lambda a, b: (-a[0], a[1])),
}


# three sympy checks per example, so fewer examples than ORACLE
MEMO_ORACLE = settings(ORACLE, max_examples=60)


def clear_tables():
    for table in TABLES:
        table.clear()


@pytest.mark.parametrize("name", sorted(MEMO_OPS))
@MEMO_ORACLE
@given(a=scalars, b=scalars)
def test_memo_hit_matches_sympy(name, a, b):
    """A miss, the hit that follows and a recomputation after the tables are
    cleared each match sympy; a repeat returns the object stored."""
    op, sym_op = MEMO_OPS[name]
    expected = sym_op(sym_scalar(a), sym_scalar(b))
    clear_tables()
    miss = op(a, b)
    hit = op(ScalarQ(a.num, a.den), ScalarQ(b.num, b.den))  # interned: a and b again
    clear_tables()
    again = op(a, b)
    for result in (miss, hit, again):
        assert_canonical(result)
        assert_matches_sympy(result, expected)
    assert op(a, b) is again


# divisors N/D that are not Laurent monomials, some with a monomial numerator
nonmonomial_divisors = st.one_of(
    quotients(),
    st.builds(
        lambda c, k, den: ScalarQ(PolyQ([0] * k + [c]), den),
        nonzero_gaussians,
        st.integers(0, 3),
        polys.filter(lambda p: not p.is_zero()),
    ),
).filter(lambda s: not s.is_zero() and s._monomial() is None)


@settings(ORACLE, max_examples=60)
@given(a=scalars, b=nonmonomial_divisors)
def test_division_by_a_quotient_matches_sympy(a, b):
    """a / b is a times the inverse D/N of b, built with no gcd; the product
    is memoised, so an equal but distinct divisor gets the stored object."""
    clear_tables()
    result = a / b
    assert_canonical(result)
    assert_matches_sympy(result, OPS["truediv"][1](sym_scalar(a), sym_scalar(b)))
    assert_shared_if_small_int(result)
    inverse = ONE / b
    assert_canonical(inverse)
    assert_matches_sympy(inverse, sym_scalar(b)[::-1])
    assert a / ScalarQ(b.num, b.den) is result


def equal_values(g):
    """The number ``g`` in every representation that equals it and must hash
    like it; the last two are a miss and the memo hit that follows."""
    out = [g, ScalarQ(g), sc(g), Element.scalar(g)]
    if not g.im:
        out += [g.re, Fraction(g.re)]
    return out + [(sc(g) * Q) * qpow(-1) for _ in range(2)]


@ORACLE
@given(x=gaussians, y=gaussians)
def test_equal_values_hash_alike(x, y):
    values = equal_values(x) + equal_values(y)
    for a in values:
        for b in values:
            if a == b:
                assert hash(a) == hash(b)


@ORACLE
@given(a=scalars, b=nonzero_scalars)
def test_constructed_scalar_hashes_like_a_memo_hit(a, b):
    clear_tables()
    a * b
    hit = a * b
    built = ScalarQ(hit.num, hit.den)
    assert built == hit and hit == built
    assert hash(built) == hash(hit)


def test_tables_stay_bounded(monkeypatch):
    monkeypatch.setattr(scalar, "SCALAR_TABLE_CAP", 8)
    clear_tables()
    ks = range(-4, 5)
    for j in ks:
        for k in ks:
            m = sc(2) * qpow(j)
            for op in ("mul", "add", "sub"):
                result = OPS[op][0](m, qpow(k))
                assert_matches_sympy(result, OPS[op][1](sym_scalar(m), sym_scalar(qpow(k))))
            result = -(m + qpow(k))
            num, den = sym_scalar(m + qpow(k))
            assert_matches_sympy(result, (-num, den))
            assert all(len(table) <= 8 for table in TABLES)
    assert all(table for table in TABLES)
    clear_tables()
