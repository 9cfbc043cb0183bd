import pytest
from hypothesis import given, settings, strategies as st

from conftest import suite_weights
from cscrystal.laurent import (
    LaurentPoly,
    character,
    cs_lhs,
    cs_rhs,
    deformed_product,
    verify_bn_form,
    verify_identity,
)
from cscrystal.rootsys import GLWeight, lambda_from_fundamental, rho
from cscrystal.tpoly import TPoly
from frozen import CS_LHS_RHO_RANK2


def LP(rank, d):
    return LaurentPoly(rank, {e: TPoly(c) for e, c in d.items()})


def test_monomial_arithmetic():
    x = LaurentPoly.monomial((1, 0))
    y = LaurentPoly.monomial((0, 1))
    assert (x + y) * (x - y) == x * x - y * y
    assert x - x == LaurentPoly.zero(1)
    assert x * LaurentPoly.one(1) == x
    inv = LaurentPoly.monomial((-1, 0))
    assert x * inv == LaurentPoly.one(1)


def test_rank_mismatch_raises():
    with pytest.raises(ValueError):
        LaurentPoly.monomial((1, 0)) + LaurentPoly.monomial((1, 0, 0))
    with pytest.raises(ValueError):
        LaurentPoly(1, {(1, 0, 0): TPoly.one()})


def test_character_small():
    assert character(GLWeight((1, 0))) == LP(1, {(1, 0): (1,), (0, 1): (1,)})
    e2 = character(GLWeight((1, 1, 0)))
    assert e2 == LP(2, {(1, 1, 0): (1,), (1, 0, 1): (1,), (0, 1, 1): (1,)})
    adj = character(GLWeight((2, 1, 0)))
    assert adj.num_terms() == 7
    assert adj.coefficient((1, 1, 1)) == TPoly((2,))
    assert adj.coefficient((2, 1, 0)) == TPoly.one()
    assert adj.coefficient((3, 0, 0)) == TPoly.zero()


def test_character_is_symmetric():
    adj = character(GLWeight((2, 1, 0)))
    swapped = LaurentPoly(
        2, {(e[1], e[0], e[2]): c for e, c in adj.terms.items()}
    )
    assert swapped == adj


def test_deformed_product():
    assert deformed_product(1) == LP(1, {(0, 0): (1,), (-1, 1): (0, -1)})
    got = deformed_product(2)
    assert got.num_terms() == 7
    assert got.coefficient((0, 0, 0)) == TPoly.one()
    assert got.coefficient((-1, 1, 0)) == TPoly((0, -1))
    assert got.coefficient((-1, -1, 2)) == TPoly((0, 0, 1))
    # z1/z2 * z2/z3 * z1/z3 term: (-t)^3 z1^{-2} z2^0 z3^{2}... the
    # product over pairs (1,2),(1,3),(2,3) of -t z_j/z_i
    assert got.coefficient((-2, 0, 2)) == TPoly((0, 0, 0, -1))


def test_positive_root_product_mirrors_deformed():
    fwd = deformed_product(2, reverse=True)
    bwd = deformed_product(2)
    mirrored = LaurentPoly(
        2, {tuple(reversed(e)): c for e, c in bwd.terms.items()}
    )
    assert fwd == mirrored


def test_cs_lhs_rank1():
    assert cs_lhs(GLWeight((0, 0))) == LP(1, {(1, 0): (1,), (0, 1): (0, -1)})


def test_cs_lhs_rank2_frozen():
    got = cs_lhs(GLWeight((0, 0, 0)))
    assert got == LP(2, CS_LHS_RHO_RANK2)


def test_cs_lhs_exponents_stay_nonnegative():
    for lam in suite_weights():
        if lam.rank > 2:
            continue
        for exp, _ in cs_lhs(lam).sorted_terms():
            assert all(k >= 0 for k in exp)


def test_cs_rhs_top_coefficient_is_one():
    for lam in [GLWeight((0, 0, 0)), GLWeight((1, 1, 0)), GLWeight((2, 0))]:
        shifted = lam + rho(lam.rank)
        assert cs_rhs(lam).coefficient(shifted.coords) == TPoly.one()


def test_cs_rhs_example_coefficient():
    # two tableaux of weight (1,2,2) contribute -t(1-t) and t^2(1-t)
    lam = GLWeight((1, 1, 0))
    assert cs_rhs(lam).coefficient((1, 2, 2)) == TPoly((0, -1, 2, -1))


def test_verify_identity_reports():
    rep = verify_identity(GLWeight((0, 0)))
    assert rep.equal and rep.first_mismatch is None
    assert rep.lhs_terms == rep.rhs_terms == 2
    rep2 = verify_identity(lambda_from_fundamental((0, 1), 2))
    assert rep2.equal
    assert rep2.lhs_terms == 12


def test_identity_across_suite(suite):
    for lam in suite:
        rep = verify_identity(lam)
        assert rep.equal, (lam, rep.first_mismatch)


def test_bn_form_across_suite(suite):
    for lam in suite:
        assert verify_bn_form(lam), lam


small_exp = st.tuples(
    st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)
)
small_poly = st.dictionaries(
    small_exp,
    st.lists(st.integers(min_value=-5, max_value=5), max_size=3).map(tuple),
    max_size=4,
).map(lambda d: LaurentPoly(1, {e: TPoly(c) for e, c in d.items()}))


@settings(max_examples=60)
@given(small_poly, small_poly, small_poly)
def test_laurent_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
