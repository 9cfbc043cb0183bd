from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cscrystal.tpoly import QLaurent, TPoly

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=6)


def test_construction_and_trim():
    assert TPoly((1, 0, 0)) == TPoly((1,))
    assert TPoly(()) == TPoly.zero()
    assert TPoly((0, 0)) == TPoly.zero()
    assert TPoly.one() == TPoly((1,))
    assert TPoly.constant(5) == TPoly((5,))


def test_arithmetic():
    one_minus_t = TPoly((1, -1))
    assert one_minus_t * one_minus_t == TPoly((1, -2, 1))
    assert one_minus_t**2 == TPoly((1, -2, 1))
    assert one_minus_t + TPoly((0, 1)) == TPoly.one()
    assert -one_minus_t == TPoly((-1, 1))
    assert 2 * one_minus_t == TPoly((2, -2))
    assert one_minus_t - one_minus_t == TPoly.zero()
    assert TPoly.zero() * one_minus_t == TPoly.zero()
    assert one_minus_t**0 == TPoly.one()


def test_foreign_operands_raise_type_error():
    p = TPoly((1,))
    for other in ("x", 1.5, [1]):
        for op in (
            lambda: p + other,
            lambda: other + p,
            lambda: p - other,
            lambda: other - p,
            lambda: p * other,
            lambda: other * p,
        ):
            with pytest.raises(TypeError):
                op()


def test_degree_and_coefficient():
    p = TPoly((0, -1, 2, -1))
    assert p.degree() == 3
    assert TPoly.zero().degree() == -1
    assert p.coefficient(2) == 2
    assert p.coefficient(9) == 0


def test_eval():
    p = TPoly((1, -2, 1))  # (1-t)^2
    assert p.eval(0) == 1
    assert p.eval(1) == 0
    assert p.eval(-1) == 4
    assert p.eval(Fraction(1, 2)) == Fraction(1, 4)


def test_format():
    assert TPoly((1, -2, 1)).format("t") == "1-2t+t^2"
    assert TPoly((0, -1)).format("t") == "-t"
    assert TPoly.zero().format("t") == "0"
    assert TPoly((0, 0, 3)).format("t") == "3t^2"
    assert TPoly((1, -1)).format("q") == "1-q^{-1}"
    assert TPoly((0, 0, 1, -1)).format("q") == "q^{-2}-q^{-3}"


@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_axioms(a, b, c):
    p, q, r = TPoly(tuple(a)), TPoly(tuple(b)), TPoly(tuple(c))
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(coeff_lists, coeff_lists, st.integers(min_value=-5, max_value=5))
def test_eval_is_ring_map(a, b, x):
    p, q = TPoly(tuple(a)), TPoly(tuple(b))
    assert (p + q).eval(x) == p.eval(x) + q.eval(x)
    assert (p * q).eval(x) == p.eval(x) * q.eval(x)


def test_qlaurent_basics():
    q2 = QLaurent.q_power(2)
    qm1 = QLaurent.q_power(-1, -3)
    assert q2 * q2 == QLaurent.q_power(4)
    assert (q2 + qm1).terms == {2: 1, -1: -3}
    assert q2 - q2 == QLaurent.zero()
    assert q2.shift(-5) == QLaurent.q_power(-3)
    assert QLaurent.one() * qm1 == qm1
    assert str(QLaurent({2: 1, 0: -1})) == "q^2-1"
    assert str(QLaurent.zero()) == "0"


def test_qlaurent_tpoly_bridge():
    p = TPoly((1, -2, 1))
    q = p.to_qlaurent()
    assert q.terms == {0: 1, -1: -2, -2: 1}
    assert q.to_tpoly() == p
    with pytest.raises(ValueError):
        QLaurent.q_power(1).to_tpoly()


@given(coeff_lists)
def test_qlaurent_roundtrip(a):
    p = TPoly(tuple(a))
    assert p.to_qlaurent().to_tpoly() == p


@given(coeff_lists, coeff_lists)
def test_qlaurent_mul_matches_tpoly(a, b):
    p, q = TPoly(tuple(a)), TPoly(tuple(b))
    assert (p * q).to_qlaurent() == p.to_qlaurent() * q.to_qlaurent()
