from fractions import Fraction

from hypothesis import given, strategies as st

from cscrystal.tpoly import QLaurent, TPoly

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
    assert str(TPoly((1, -1)).to_qlaurent()) == "1-q^{-1}"
    assert str(TPoly((0, 0, 1, -1)).to_qlaurent()) == "q^{-2}-q^{-3}"


def test_qlaurent_basics():
    q2 = QLaurent({2: 1})
    assert q2.shift(-5) == QLaurent({-3: 1})
    assert QLaurent({2: 1, -1: 0}).terms == {2: 1}
    assert str(QLaurent({2: 1, 0: -1})) == "q^2-1"
    assert str(QLaurent.zero()) == "0"


def test_qlaurent_tpoly_bridge():
    p = TPoly((1, -2, 1))
    q = p.to_qlaurent()
    assert q.terms == {0: 1, -1: -2, -2: 1}


@given(coeff_lists)
def test_qlaurent_roundtrip(a):
    p = TPoly(tuple(a))
    terms = p.to_qlaurent().terms
    assert all(k <= 0 for k in terms)
    coeffs = [0] * (1 - min(terms, default=0))
    for k, c in terms.items():
        coeffs[-k] = c
    assert TPoly(tuple(coeffs)) == p
