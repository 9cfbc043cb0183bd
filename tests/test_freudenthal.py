"""Freudenthal's formula against the listed crystal.

rootsys.dominant_multiplicities computes the dominant weight
multiplicities of V(lambda) by Freudenthal's formula, and
rootsys.character spreads them over the Weyl group orbits.  Their twin
is the content histogram of B(lambda) listed by the row filler
(oracles.content_histogram).  The two must agree exactly: on every
lambda with fundamental coefficients <= 2 at ranks 1-3 and <= 1 at
rank 4, on sampled rank-4 weights, and on rho at rank 5.  The
multiplicities must also add up to the Weyl dimension.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cscrystal import cli, rootsys
from cscrystal.rootsys import (
    Shape,
    character,
    dominant_multiplicities,
    lambda_from_fundamental,
    rho,
)

EXHAUSTIVE = [
    lambda_from_fundamental(coeffs, rank)
    for rank, top in [(1, 2), (2, 2), (3, 2), (4, 1)]
    for coeffs in product(range(top + 1), repeat=rank)
]


def _agrees_with_listing(lam):
    got = character(lam)
    assert got == oracles.content_histogram(lam)
    assert sum(got.values()) == oracles.weyl_dimension(lam.parts)


@pytest.mark.parametrize("lam", EXHAUSTIVE, ids=lambda lam: str(lam.parts))
def test_character_matches_listed_crystal(lam):
    _agrees_with_listing(lam)


@st.composite
def rank_4_coefficients(draw):
    """Four fundamental coefficients adding up to at most 4, which keeps
    B(lambda) under 1200 elements."""
    coeffs, left = [], 4
    for _ in range(4):
        coeffs.append(draw(st.integers(0, left)))
        left -= coeffs[-1]
    return coeffs


@settings(max_examples=25, deadline=None)
@given(rank_4_coefficients())
def test_character_matches_listed_crystal_at_rank_4(coeffs):
    _agrees_with_listing(lambda_from_fundamental(coeffs, 4))


def test_character_of_rho_at_rank_5():
    # B(rho) at rank 5 has 2^15 elements
    _agrees_with_listing(rho(5))


def test_dominant_multiplicities_small():
    # the adjoint of GL(3): the zero weight (1, 1, 1) has multiplicity 2
    assert dominant_multiplicities(Shape((2, 1, 0))) == {(2, 1, 0): 1, (1, 1, 1): 2}
    assert dominant_multiplicities(Shape((0, 0))) == {(0, 0): 1}
    assert dominant_multiplicities(Shape((3, 0))) == {(3, 0): 1, (2, 1): 1}


def test_dominant_multiplicities_need_a_partition():
    # lambda is a Shape, and a non-partition is refused as one
    with pytest.raises(ValueError, match="weakly decreasing"):
        dominant_multiplicities(Shape((0, 1)))


def test_a_remainder_is_an_internal_breach(monkeypatch, capsys):
    # with every root string cut after its first step, the division at
    # (2, 2) in V(4, 0) leaves a remainder: exit 3, not a wrong table
    real = rootsys._moved
    monkeypatch.setattr(rootsys, "_moved", lambda nu, i, j, k: real(nu, i, j, k) if k < 2 else ())
    dominant_multiplicities.cache_clear()
    try:
        assert cli.main(["hpoly", "--rank", "1", "--lambda", "4", "--at", "inf"]) == 3
    finally:
        dominant_multiplicities.cache_clear()
    assert "Freudenthal's formula does not divide at (2, 2)" in capsys.readouterr().err
