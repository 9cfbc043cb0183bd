from itertools import product

import pytest

from conftest import suite_weights
from oracles import content_histogram
from cscrystal import crystal, laurent
from cscrystal.cli import main
from cscrystal.laurent import (
    LaurentPoly,
    _times_deformed,
    cs_lhs,
    cs_rhs,
    shifted_sums,
    verify_bn_form,
    verify_identity,
)
from cscrystal.rootsys import Shape, lambda_from_fundamental, shifted
from cscrystal.tpoly import TPoly
from frozen import CS_LHS_RHO_RANK2


def LP(rank, d):
    """A LaurentPoly from {z-exponent: coefficients ascending in t}."""
    return LaurentPoly(rank, {e + (k,): c for e, cs in d.items() for k, c in enumerate(cs) if c})


def deformed_product(rank):
    """The shift-and-subtract passes applied to the constant 1."""
    return LaurentPoly(rank, _times_deformed({(0,) * (rank + 2): 1}, rank))


def test_rank_mismatch_raises():
    with pytest.raises(ValueError):
        LaurentPoly(1, {(1, 0, 0, 0): 1})


def test_character_small():
    assert content_histogram(Shape((1, 0))) == {(1, 0): 1, (0, 1): 1}
    e2 = content_histogram(Shape((1, 1, 0)))
    assert e2 == {(1, 1, 0): 1, (1, 0, 1): 1, (0, 1, 1): 1}
    adj = content_histogram(Shape((2, 1, 0)))
    assert len(adj) == 7
    assert adj[(1, 1, 1)] == 2
    assert adj[(2, 1, 0)] == 1
    assert (3, 0, 0) not in adj


def test_character_is_symmetric():
    adj = content_histogram(Shape((2, 1, 0)))
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
    # prod_{i<j} (1 - t z_i/z_j), expanded over the subsets of its
    # factors, is the deformed product with its coordinates reversed
    pairs = [(0, 1), (0, 2), (1, 2)]
    fwd: dict = {}
    for taken in product((0, 1), repeat=len(pairs)):
        key = [0, 0, 0, sum(taken)]
        for (i, j), k in zip(pairs, taken):
            key[i] += k
            key[j] -= k
        fwd[tuple(key)] = (-1) ** sum(taken)
    bwd = deformed_product(2)
    mirrored = LaurentPoly(
        2, {tuple(reversed(e[:-1])) + e[-1:]: c for e, c in bwd.flat.items()}
    )
    assert LaurentPoly(2, fwd) == mirrored


def test_cs_lhs_rank1():
    assert cs_lhs(Shape((0, 0))) == LP(1, {(1, 0): (1,), (0, 1): (0, -1)})


def test_cs_lhs_rank2_frozen():
    got = cs_lhs(Shape((0, 0, 0)))
    assert got == LP(2, CS_LHS_RHO_RANK2)


def test_cs_lhs_exponents_stay_nonnegative():
    for lam in suite_weights():
        if lam.rank > 2:
            continue
        for key in cs_lhs(lam).flat:
            assert all(k >= 0 for k in key[:-1])


def test_cs_rhs_top_coefficient_is_one():
    for lam in [Shape((0, 0, 0)), Shape((1, 1, 0)), Shape((2, 0))]:
        assert cs_rhs(lam, shifted_sums(lam)).coefficient(shifted(lam).parts) == TPoly((1,))


def test_cs_rhs_example_coefficient():
    # two tableaux of weight (1,2,2) contribute -t(1-t) and t^2(1-t)
    lam = Shape((1, 1, 0))
    assert cs_rhs(lam, shifted_sums(lam)).coefficient((1, 2, 2)) == TPoly((0, -1, 2, -1))


def test_verify_identity_reports():
    lam = Shape((0, 0))
    rep = verify_identity(lam, shifted_sums(lam))
    assert rep.equal and rep.first_mismatch is None
    assert rep.lhs_terms == rep.rhs_terms == 2
    lam = lambda_from_fundamental((0, 1), 2)
    rep2 = verify_identity(lam, shifted_sums(lam))
    assert rep2.equal
    assert rep2.lhs_terms == 12


def test_identity_across_suite(suite):
    for lam in suite:
        rep = verify_identity(lam, shifted_sums(lam))
        assert rep.equal, (lam, rep.first_mismatch)


def test_bn_form_across_suite(suite):
    for lam in suite:
        assert verify_bn_form(lam) is None, lam


def test_walk_check_lists_no_crystal(monkeypatch):
    # the row pass reads GT rows from lam+rho down, so the walk check
    # lists no tableau; at rank 6 omega_1 it walks 9332 blocks, where
    # verify cannot list B(lam+rho) yet
    def refuse(*args):
        raise AssertionError(f"the walk check listed a crystal: {args}")

    monkeypatch.setattr(laurent, "enumerate_crystal", refuse)
    monkeypatch.setattr(crystal, "enumerate_crystal", refuse)
    for rank in (4, 6):
        assert verify_bn_form(lambda_from_fundamental((1,) + (0,) * (rank - 1), rank)) is None


def test_verify_expands_the_product_once(monkeypatch, capsys):
    # the reversed form is the identity relabelled, so its verdict is the
    # identity's and the product is expanded once
    calls = []
    real = laurent._times_deformed

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(laurent, "_times_deformed", counted)
    assert main(["verify", "--rank", "3", "--lambda", "1,0,0"]) == 0
    assert "reversed form: equal" in capsys.readouterr().out
    assert len(calls) == 1
