from fractions import Fraction

from hypothesis import given, strategies as st

from cscrystal.tpoly import TPoly, q_text

coeff_lists = st.lists(st.integers(min_value=-9, max_value=9), max_size=6)


def test_construction_and_trim():
    assert TPoly((1, 0, 0)) == TPoly((1,))
    assert TPoly(()) == TPoly.zero()
    assert TPoly((0, 0)) == TPoly.zero()


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
    assert str(TPoly((1, -2, 1))) == "1-2t+t^2"
    assert str(TPoly((0, -1))) == "-t"
    assert str(TPoly.zero()) == "0"
    assert str(TPoly((0, 0, 3))) == "3t^2"
    assert q_text(TPoly((1, -1)).in_q(0)) == "1-q^{-1}"
    assert q_text(TPoly((0, 0, 1, -1)).in_q(0)) == "q^{-2}-q^{-3}"


def test_q_text():
    assert q_text([[2, 1], [0, -1]]) == "q^2-1"
    assert q_text([[1, -3], [-1, 2]]) == "-3q+2q^{-1}"
    assert q_text([]) == "0"
    assert q_text(TPoly.zero().in_q(7)) == "0"


def test_in_q():
    assert TPoly((1, -2, 1)).in_q(0) == [[0, 1], [-1, -2], [-2, 1]]
    # t^2 - t^3 read in q and shifted by q^5: q^3 - q^2
    assert TPoly((0, 0, 1, -1)).in_q(5) == [[3, 1], [2, -1]]
    assert q_text(TPoly((1, 0, -1)).in_q(2)) == "q^2-1"
    assert TPoly((1, 0, -1)).in_q(2) == [[2, 1], [0, -1]]


@given(coeff_lists, st.integers(-5, 5))
def test_in_q_roundtrip(a, shift):
    p = TPoly(tuple(a))
    pairs = p.in_q(shift)
    powers = [k for k, _ in pairs]
    assert powers == sorted(powers, reverse=True) and len(set(powers)) == len(powers)
    assert all(k <= shift and c for k, c in pairs)
    coeffs = [0] * (shift + 1 - min(powers, default=shift + 1))
    for k, c in pairs:
        coeffs[shift - k] = c
    assert TPoly(tuple(coeffs)) == p
