"""Exact scalar arithmetic: canonical form, field laws, q -> 1 limits."""

import copy
import gc
import pickle
import random
import tracemalloc
import weakref
from fractions import Fraction

import pytest

from hsuperplane import scalar
from hsuperplane.algebra import Element
from hsuperplane.cli import main
from hsuperplane.scalar import (
    DivisionByZero,
    GaussianRational,
    I,
    ONE,
    PoleAtOne,
    PolyQ,
    Q,
    ScalarQ,
    ZERO,
    qpow,
    sc,
)


def random_gaussian(rng):
    return GaussianRational(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
    )


def random_poly(rng, max_degree=3):
    coeffs = [random_gaussian(rng) for _ in range(rng.randint(1, max_degree + 1))]
    return PolyQ(coeffs)


def random_scalar(rng, max_degree=2):
    num = random_poly(rng, max_degree)
    den = random_poly(rng, max_degree)
    while den.is_zero():
        den = random_poly(rng, max_degree)
    return ScalarQ(num, den)


def random_nonzero_scalar(rng, max_degree=2):
    s = random_scalar(rng, max_degree)
    while s.is_zero():
        s = random_scalar(rng, max_degree)
    return s


# -- Gaussian rationals ------------------------------------------------------


def test_gaussian_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert a + b == GaussianRational(4, 1)
    assert a * b == GaussianRational(3 + 2, 6 - 1)  # (1+2i)(3-i) = 5+5i
    assert a - a == GaussianRational(0)
    assert -a == GaussianRational(-1, -2)


def test_gaussian_division_and_conjugate():
    a = GaussianRational(1, 1)
    assert a * a.conjugate() == GaussianRational(2)
    assert a / a == GaussianRational(1)
    assert GaussianRational(1) / GaussianRational(0, 1) == GaussianRational(0, -1)
    with pytest.raises(DivisionByZero):
        a / GaussianRational(0)


def test_gaussian_str():
    assert str(GaussianRational(3)) == "3"
    assert str(GaussianRational(0, 1)) == "i"
    assert str(GaussianRational(0, -1)) == "-i"
    assert str(GaussianRational(Fraction(3, 2))) == "3/2"
    assert str(GaussianRational(3, 2)) == "3+2*i"
    assert str(GaussianRational(3, -1)) == "3-i"
    assert str(GaussianRational(0, Fraction(3, 2))) == "3/2*i"


def test_gaussian_immutable():
    a = GaussianRational(1)
    with pytest.raises(AttributeError):
        a.re = Fraction(2)


# -- polynomials ---------------------------------------------------------------


def test_poly_basics():
    p = PolyQ([GaussianRational(-1), GaussianRational(0), GaussianRational(1)])  # q^2 - 1
    assert p.degree == 2
    assert str(p) == "q^2-1"
    assert p.evaluate(GaussianRational(1)) == GaussianRational(0)
    assert p.evaluate(GaussianRational(2)) == GaussianRational(3)
    assert PolyQ().degree == -1


def test_poly_divmod_identity():
    rng = random.Random(101)
    for _ in range(60):
        a = random_poly(rng, 4)
        b = random_poly(rng, 2)
        if b.is_zero():
            continue
        quot, rem = divmod(a, b)
        assert quot * b + rem == a
        assert rem.is_zero() or rem.degree < b.degree


def test_poly_gcd_divides_both():
    rng = random.Random(202)
    for _ in range(40):
        a = random_poly(rng, 3)
        b = random_poly(rng, 3)
        if a.is_zero() or b.is_zero():
            continue
        g = a.gcd(b)
        assert (a % g).is_zero()
        assert (b % g).is_zero()
        assert g.lead == GaussianRational(1)


def test_poly_gcd_known_factor():
    q = PolyQ.variable()
    one = PolyQ.constant(1)
    a = q * q - one  # (q-1)(q+1)
    b = q - one
    assert a.gcd(b) == b


# -- scalars -------------------------------------------------------------------


def test_scalar_canonical_form():
    q = PolyQ.variable()
    one = PolyQ.constant(1)
    s = ScalarQ(q * q - one, q - one)  # cancels to q + 1
    assert s.den == PolyQ.constant(1)
    assert s == ScalarQ(q + one)
    # denominator comes out monic with the leading unit folded into the numerator
    t = ScalarQ(one, (q - one).scale(GaussianRational(2)))
    assert t.den == q - one
    assert t.num == PolyQ.constant(Fraction(1, 2))
    # a monomial denominator c*q^k cancels against the numerator's q-power
    q2, q3 = q * q, q * q * q
    u = ScalarQ(q3, (q2 * q3).scale(GaussianRational(2)))
    assert u.num == PolyQ.constant(Fraction(1, 2))
    assert u.den == q2
    v = ScalarQ(q2 + q, q)
    assert v.num == q + one
    assert v.den == one
    w = ScalarQ(one + q, q3)
    assert w.num == one + q
    assert w.den == q3
    # components are ints when integral, Fractions otherwise
    two = GaussianRational(Fraction(4, 2)).re
    assert type(two) is int and two == 2
    assert (GaussianRational(1) / 3).re == Fraction(1, 3)


def test_scalar_field_axioms():
    rng = random.Random(303)
    for _ in range(40):
        a = random_scalar(rng)
        b = random_scalar(rng)
        c = random_scalar(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        d = random_nonzero_scalar(rng)
        assert (a / d) * d == a
        assert d * d ** -1 == ONE


def test_scalar_powers():
    assert Q ** 0 == ONE
    assert Q ** 3 == Q * Q * Q
    assert qpow(-2) * Q * Q == ONE
    assert (Q - 1) ** 2 == Q * Q - 2 * Q + 1
    with pytest.raises(DivisionByZero):
        ZERO ** -1


def test_scalar_division_by_zero():
    with pytest.raises(DivisionByZero):
        ONE / ZERO
    with pytest.raises(DivisionByZero):
        ScalarQ(PolyQ.constant(1), PolyQ())


def test_limit_at_one_values():
    assert ((Q * Q - 1) / (Q - 1)).limit_at_one() == GaussianRational(2)
    assert ((Q ** 3 - 1) / (Q - 1)).limit_at_one() == GaussianRational(3)
    assert (Q * Q).limit_at_one() == GaussianRational(1)
    assert (I * Q).limit_at_one() == GaussianRational(0, 1)
    assert ZERO.limit_at_one() == GaussianRational(0)
    # double cancellation: (q-1)^2 / (q^2 - 2q + 1) == 1 identically
    assert (((Q - 1) ** 2) / (Q * Q - 2 * Q + 1)).limit_at_one() == GaussianRational(1)


def test_limit_at_one_pole():
    with pytest.raises(PoleAtOne):
        (ONE / (Q - 1)).limit_at_one()
    with pytest.raises(PoleAtOne):
        ((Q + 1) / ((Q - 1) ** 2 * (Q + 2))).limit_at_one()


def test_conjugate_fixes_q_flips_i():
    assert Q.conjugate() == Q
    assert I.conjugate() == -I
    s = (I * Q + 1) / (Q - 1)
    assert s.conjugate() == (-I * Q + 1) / (Q - 1)
    rng = random.Random(404)
    for _ in range(25):
        a = random_scalar(rng)
        assert a.conjugate().conjugate() == a


def test_scalar_str_forms():
    assert str(Q) == "q"
    assert str(qpow(-1)) == "q^-1"
    assert str(3 * qpow(-2)) == "3*q^-2"
    assert str(Q * Q - 1) == "q^2-1"
    assert str((Q * Q - 1) / (Q - 1)) == "q+1"  # cancels before printing
    assert str(ONE / (Q - 1)) == "1/(q-1)"
    assert str((Q + 1) / (Q * Q + Q + 1)) == "(q+1)/(q^2+q+1)"
    assert str(ZERO) == "0"
    assert str(-ONE) == "-1"
    assert str(I) == "i"


def test_sc_coercion():
    assert sc(3) == ScalarQ(3)
    assert sc(Fraction(1, 2)) + sc(Fraction(1, 2)) == ONE
    assert sc(Q) is Q


def test_scalar_hashable():
    seen = {Q: "q", ONE: "one"}
    assert seen[ScalarQ(PolyQ.variable())] == "q"
    assert seen[(Q * Q - 1) / (Q * Q - 1)] == "one"


def test_constants_hash_like_numbers():
    assert len({ONE, 1}) == 1
    assert hash(GaussianRational(Fraction(4, 2))) == hash(2)
    assert hash(sc(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert hash(I) == hash(GaussianRational(0, 1))
    assert {Element.scalar(1): "x"}[1] == "x"
    assert hash(Element()) == hash(ZERO) == hash(0)


def test_small_int_constants_are_interned():
    assert sc(5) is sc(5)
    assert sc(1) is ONE and sc(0) is ZERO
    assert sc(True) == ONE
    for k in (-16, -3, 0, 1, 5, 16, 17, 1000):
        assert sc(k) == ScalarQ(k) == k
        assert hash(sc(k)) == hash(ScalarQ(k)) == hash(k)
    assert sc(5) + sc(5) == 10
    assert sc(5) * sc(-3) == -15
    assert Element.word(("x",), 5).coefficient(("x",)) is sc(5)
    assert Element.word(("x",), 5).coefficient(("y",)) is ZERO
    assert Element.word(("x",), 5).scalar_part() is ZERO


def test_equal_scalars_are_one_object():
    """Each construction path gives back the one live object of a value."""
    tables = (scalar._PRODUCTS, scalar._SUMS, scalar._NEGATIONS)
    q_plus_1 = ScalarQ(PolyQ([1, 1]))
    assert ScalarQ(PolyQ([0, 3, 3]), PolyQ([0, 3])) is q_plus_1
    assert ScalarQ(PolyQ([1, 2, 1]), PolyQ([1, 1])) is q_plus_1
    assert sc(5) is ScalarQ(5) is ScalarQ(PolyQ([10]), PolyQ([2]))
    assert sc(1000) is ScalarQ(1000) is ScalarQ(PolyQ([0, 2000]), PolyQ([0, 2]))
    assert sc(Fraction(1, 2)) is ScalarQ(1, 2)
    assert sc(GaussianRational(1, -3)) is ScalarQ(PolyQ([GaussianRational(2, -6)]), 2)
    assert qpow(3) is ScalarQ(PolyQ([0, 0, 0, 1]))
    assert qpow(-2) is ScalarQ(1, PolyQ([0, 0, 1]))
    assert Q.conjugate() is Q
    q_plus_i = ScalarQ(PolyQ([GaussianRational(0, 1), 1]))
    assert q_plus_i.conjugate() is ScalarQ(PolyQ([GaussianRational(0, -1), 1]))
    assert ONE / ScalarQ(PolyQ([1, 1])) is ScalarQ(1, PolyQ([1, 1]))
    ratio = ScalarQ(PolyQ([1, 1]), PolyQ([-1, 1]))
    assert ratio * ScalarQ(PolyQ([-1, 1]), PolyQ([2, 1])) is ScalarQ(PolyQ([1, 1]), PolyQ([2, 1]))
    assert ratio * ScalarQ(PolyQ([-1, 1]), PolyQ([1, 1])) is ONE
    operations = [
        (lambda a, b: a + b, ScalarQ(PolyQ([2, 1, 1]), PolyQ([0, 1]))),
        (lambda a, b: a - b, ScalarQ(PolyQ([-2, 1, 1]), PolyQ([0, 1]))),
        (lambda a, b: a * b, ScalarQ(PolyQ([2, 2]), PolyQ([0, 1]))),
        (lambda a, b: a / b, ScalarQ(PolyQ([0, 1, 1]), 2)),
        (lambda a, b: -a, ScalarQ(PolyQ([-1, -1]))),
    ]
    for op, expected in operations:
        for table in tables:
            table.clear()
        miss = op(ScalarQ(PolyQ([1, 1])), ScalarQ(2, PolyQ([0, 1])))
        hit = op(ScalarQ(PolyQ([1, 1])), ScalarQ(2, PolyQ([0, 1])))
        assert miss is hit is expected
    scalar._PRODUCTS.clear()
    assert Q * Q is qpow(2) is ScalarQ(PolyQ([0, 0, 1]))


@pytest.mark.parametrize(
    "make",
    [lambda: Q, lambda: I, lambda: ONE / (Q - ONE), lambda: qpow(-3)],
    ids=["q", "i", "1/(q-1)", "q^-3"],
)
def test_copies_and_pickles_are_the_interned_scalar(make):
    x = make()
    assert pickle.loads(pickle.dumps(x)) is x
    assert copy.deepcopy(x) is x
    assert copy.copy(x) is x


def test_real_results_of_nonreal_or_fractional_operands_are_native():
    """A real coefficient is stored as an int or a Fraction, whatever made it.

    Each path runs once more on multiples of ``big``, values no other test
    keeps alive, so that the walk reads the coefficients that path stored.
    """
    big = 1_000_003
    kept = []

    def check(result, expected):
        kept.append(result)
        assert result is expected()

    # monomial times monomial
    check(I * I, lambda: sc(-1))
    check(sc(GaussianRational(1, 1)) * sc(GaussianRational(1, -1)), lambda: sc(2))
    check(sc(GaussianRational(big, big)) * sc(GaussianRational(1, -1)), lambda: sc(2 * big))
    # a convolution with non-real coefficients and a real result
    check((I * Q + 1) * (-I * Q + 1), lambda: ScalarQ(PolyQ([1, 0, 1])))
    check((I * Q + big) * (-I * Q + big), lambda: ScalarQ(PolyQ([big * big, 0, 1])))
    # a Fraction product that comes out integral
    check((Q / 2) * 2, lambda: Q)
    check((Q / 2) * (2 * big), lambda: big * Q)
    # monic and exact division
    check(ScalarQ(PolyQ([2, 4]), PolyQ([2])), lambda: ScalarQ(PolyQ([1, 2])))
    check(ScalarQ(PolyQ([2 * big, 4]), PolyQ([2])), lambda: ScalarQ(PolyQ([big, 2])))
    kept.append(ONE / (2 * Q - 2))
    assert kept[-1].num == PolyQ.constant(Fraction(1, 2))
    kept.append(ONE / (3 * Q - 3))  # 1/3 has no exact float
    assert kept[-1].num == PolyQ.constant(Fraction(1, 3))
    for s in list(scalar._INTERNED.values()):
        for c in s.num._c + s.den._c:
            assert type(c) is not float
            assert (
                type(c) is int
                or (type(c) is Fraction and c.denominator != 1)
                or (type(c) is GaussianRational and c.im)
            ), (s, c)


def test_float_coefficients_are_refused():
    # the float 0.1 is not 1/10: taking its exact value would silently store
    # 3602879701896397/36028797018963968; sc(0.1) already raises
    for make in (
        lambda: PolyQ([0.1]),
        lambda: PolyQ([1, 0.5]),
        lambda: PolyQ([0.0]),
        lambda: GaussianRational(0.5),
        lambda: GaussianRational(1, 0.5),
        lambda: sc(0.1),
    ):
        with pytest.raises(TypeError):
            make()


def test_intern_table_holds_only_live_scalars():
    gc.collect()
    before = len(scalar._INTERNED)
    made = [ScalarQ(PolyQ([k, 1]), PolyQ([0, 0, 1])) for k in range(10**6, 10**6 + 10_000)]
    assert len(set(map(id, made))) == 10_000
    assert len(scalar._INTERNED) == before + 10_000
    del made
    gc.collect()
    assert len(scalar._INTERNED) == before


def test_result_tables_keep_no_operand_alive():
    """The tables hold results but no operands; a key is never reused."""
    tables = (scalar._PRODUCTS, scalar._SUMS, scalar._NEGATIONS)
    for table in tables:
        table.clear()
    gc.collect()
    before = len(scalar._INTERNED)
    a = ScalarQ(PolyQ([2 * 10**6, 1]), PolyQ([0, 0, 1]))
    b = ScalarQ(PolyQ([3 * 10**6, 0, 1]), PolyQ([1, 1]))
    results = [a * b, a + b, -a, -b, a - b, a / b]
    operands = [weakref.ref(a), weakref.ref(b)]
    del a, b
    gc.collect()
    assert [ref() for ref in operands] == [None, None]
    assert len(scalar._INTERNED) == before + len(set(map(id, results)))
    del results
    for table in tables:
        table.clear()
    gc.collect()
    assert len(scalar._INTERNED) == before

    # a new value, made where a dropped one lived, gets no stale result
    fixed = ScalarQ(PolyQ([1, 2]), PolyQ([3, 0, 1]))
    for k in range(200):
        x = ScalarQ(PolyQ([4 * 10**6 + k, 1]), PolyQ([0, 1]))
        assert x * fixed is scalar._multiply(x, fixed)
        del x


def test_warm_table_hits_call_no_scalar_hash_or_eq(monkeypatch):
    """A hit hashes a tuple of ints: -1 and -2, whose hashes are equal in
    CPython, make no ``ScalarQ.__eq__`` call, and no ``__hash__`` runs."""
    calls = {"hash": 0, "eq": 0}
    plain_hash, plain_eq = ScalarQ.__hash__, ScalarQ.__eq__

    def counted_hash(self):
        calls["hash"] += 1
        return plain_hash(self)

    def counted_eq(self, other):
        calls["eq"] += 1
        return plain_eq(self, other)

    x = ScalarQ(PolyQ([1, 0, 1]), PolyQ([0, 1]))
    a, b = sc(-1) * x, sc(-2) * Q

    def operations():
        return [sc(-1) * x, sc(-2) * x, a + b, -a]

    warm = operations()
    monkeypatch.setattr(ScalarQ, "__hash__", counted_hash)
    monkeypatch.setattr(ScalarQ, "__eq__", counted_eq)
    for _ in range(3):
        assert all(hit is result for hit, result in zip(operations(), warm))
    assert calls == {"hash": 0, "eq": 0}


def test_powers_of_q_take_constant_memory(capsys):
    """q^k is stored as its exponent, so q^(10^7) costs what q costs."""
    for table in (scalar._PRODUCTS, scalar._SUMS, scalar._NEGATIONS):
        table.clear()
    big = 10**7
    tracemalloc.start()
    try:
        for make in (lambda: Q**big, lambda: (ONE / Q) ** big, lambda: qpow(big) * Q):
            tracemalloc.reset_peak()
            make()
            assert tracemalloc.get_traced_memory()[1] < 2**20
    finally:
        tracemalloc.stop()
    for text in ("q^10000000*x", "q^-10000000*x"):
        assert main(["normalize", "--algebra", "q-superplane", text]) == 0
        assert capsys.readouterr().out.strip() == text
