import pytest

from conftest import suite_weights
from cscrystal.bzl import weight_sums
from cscrystal.hpoly import _content_histogram
from cscrystal.laurent import (
    LaurentPoly,
    _gather,
    _times_deformed,
    cs_lhs,
    cs_rhs,
    shifted_scores,
    verify_bn_form,
    verify_identity,
)
from cscrystal.rootsys import GLWeight, lambda_from_fundamental, partition_shape, rho
from cscrystal.tpoly import TPoly
from frozen import CS_LHS_RHO_RANK2


def LP(rank, d):
    return LaurentPoly(rank, {e: TPoly(c) for e, c in d.items()})


def character(lam):
    """s_lambda(z): B(lambda)'s content histogram, as exponent -> count."""
    return _content_histogram(partition_shape(lam), lam.rank)


def deformed_product(rank, reverse=False):
    """The shift-and-subtract passes applied to the constant 1."""
    return _gather(rank, _times_deformed({(0,) * (rank + 2): 1}, rank, reverse))


def test_rank_mismatch_raises():
    with pytest.raises(ValueError):
        LaurentPoly(1, {(1, 0, 0): TPoly((1,))})


def test_character_small():
    assert character(GLWeight((1, 0))) == {(1, 0): 1, (0, 1): 1}
    e2 = character(GLWeight((1, 1, 0)))
    assert e2 == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    adj = character(GLWeight((2, 1, 0)))
    assert len(adj) == 7
    assert adj[(1, 1, 1)] == 2
    assert adj[(2, 1, 0)] == 1
    assert (3, 0, 0) not in adj


def test_character_is_symmetric():
    adj = character(GLWeight((2, 1, 0)))
    swapped = {(e[1], e[0], e[2]): c for e, c in adj.items()}
    assert swapped == adj


def test_deformed_product():
    assert deformed_product(1) == LP(1, {(0, 0): (1,), (-1, 1): (0, -1)})
    got = deformed_product(2)
    assert got.num_terms() == 7
    assert got.coefficient((0, 0, 0)) == TPoly((1,))
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
        for exp, _ in sorted(cs_lhs(lam).terms.items()):
            assert all(k >= 0 for k in exp)


def test_cs_rhs_top_coefficient_is_one():
    for lam in [GLWeight((0, 0, 0)), GLWeight((1, 1, 0)), GLWeight((2, 0))]:
        shifted = lam + rho(lam.rank)
        assert cs_rhs(lam).coefficient(shifted.coords) == TPoly((1,))


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


def test_bn_form_fails_when_one_weight_sum_changes():
    # every element's walk still agrees with its scores; only the
    # reversed product comparison can see the change
    lam = lambda_from_fundamental((1, 0), 2)
    scores = shifted_scores(lam)
    sums = weight_sums(scores)
    assert verify_bn_form(lam, scores, sums)
    # one weight sum gains a term
    w, p = next(iter(sums.items()))
    assert not verify_bn_form(lam, scores, {**sums, w: TPoly(p.coeffs + (1,))})
    # the same terms with one coefficient changed
    w, p = next((w, p) for w, p in sums.items() if p.coeffs)
    assert not verify_bn_form(lam, scores, {**sums, w: TPoly((p.coeffs[0] + 1,) + p.coeffs[1:])})
