"""Two relations every H-table must satisfy, checked with no oracle.

Duality: for lambda* = (c_r, ..., c_1), the fundamental coefficients of
lambda reversed, and mu* = mu with its simple-root coordinates
reversed, H_{lambda*}(mu*) = H_lambda(mu).  The substitution
z_i -> 1/z_{r+2-i} sends s_lambda to s_{lambda*} and prod_{i<j}
(z_i - t z_j) to itself, each times a monomial.  B(lambda+rho) and
B(lambda*+rho) have different shapes, so the two sides list and score
different crystals.

Sum rule: sum_mu H_mu(t) = dim V(lambda) (1 - t)^(r(r+1)/2), the product
side of the identity at z = 1, with dim V(lambda) the total of
rootsys.character.

Both hold table by table on every weight at ranks 1-3 with coefficients
summing to at most 3 and at rank 4 summing to at most 2.
"""

from functools import lru_cache
from itertools import product

import pytest

from cscrystal.hpoly import h_table
from cscrystal.rootsys import character, lambda_from_fundamental
from cscrystal.tpoly import TPoly
from oracles import list_add, list_mul

WEIGHTS = [
    coeffs
    for rank, most in ((1, 3), (2, 3), (3, 3), (4, 2))
    for coeffs in product(range(most + 1), repeat=rank)
    if sum(coeffs) <= most
]


@lru_cache(maxsize=None)
def _rows(coeffs):
    """mu -> H of the table of the weight with these fundamental coefficients."""
    table = h_table(lambda_from_fundamental(coeffs, len(coeffs)))
    return {mu: poly for mu, _, poly in table.rows}


def test_the_sweep_has_49_weights():
    assert len(WEIGHTS) == 49


@pytest.mark.parametrize("coeffs", WEIGHTS, ids=str)
def test_duality(coeffs):
    dual = {mu[::-1]: poly for mu, poly in _rows(coeffs[::-1]).items()}
    assert dual == _rows(coeffs)


@pytest.mark.parametrize("coeffs", WEIGHTS, ids=str)
def test_sum_rule(coeffs):
    r = len(coeffs)
    total = []
    for poly in _rows(coeffs).values():
        total = list_add(total, poly.coeffs)
    expected = [sum(character(lambda_from_fundamental(coeffs, r)).values())]
    for _ in range(r * (r + 1) // 2):
        expected = list_mul(expected, [1, -1])
    assert TPoly(tuple(total)) == TPoly(tuple(expected))
