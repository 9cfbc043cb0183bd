"""The identity's product side against a sympy expansion.

laurent builds z^rho s_lambda(z) prod_{i<j} (1 - t z_j/z_i) by
shift-and-subtract passes over one integer term map.  The twin here
expands the same product with sympy, taking s_lambda from the
bialternant formula a_{lambda+rho} / a_rho, so it shares nothing with
the package but the weight.  The reversed-form check relies on the
bijection e -> reversed(e - rho), which carries that product to
s_lambda(z) prod_{i<j} (1 - t z_i/z_j); the twin expands the reversed
product too, and both are multiplied by z^(0, 1, ..., r) first, so that
every exponent is >= 0.

Only this module imports sympy; the package must not
(test_cli.test_verify_does_not_import_sympy).
"""

from itertools import permutations, product
from math import prod

import pytest
import sympy

from cscrystal.laurent import cs_lhs
from cscrystal.rootsys import lambda_from_fundamental, rho

T = sympy.Symbol("t")


def _alternant(exps, z):
    """det(z_i^exps_j), expanded over all permutations."""
    total = 0
    for perm in permutations(range(len(z))):
        inversions = sum(perm[a] > perm[b] for a in range(len(perm)) for b in range(a + 1, len(perm)))
        total += (-1) ** inversions * prod(z[perm[k]] ** e for k, e in enumerate(exps))
    return sympy.Poly(total, *z)


def schur(lam, z):
    """s_lambda(z) = a_{lambda+rho} / a_rho, divided exactly."""
    n = len(z)
    stair = [n - 1 - k for k in range(n)]
    num = _alternant([a + b for a, b in zip(lam, stair)], z)
    return num.exquo(_alternant(stair, z)).as_expr()


def twin_terms(lam, reverse=False):
    """{(z-exponent..., t-degree): int} of z^rho s_lambda prod(1 - t z_j/z_i),
    or with reverse of z^(0,...,r) s_lambda prod(1 - t z_i/z_j)."""
    z = sympy.symbols(f"z0:{len(lam)}")
    n = len(z)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if reverse:
        shift = prod(z[k] ** k for k in range(n))
        factors = prod(1 - T * z[i] / z[j] for i, j in pairs)
    else:
        shift = prod(z[k] ** (n - 1 - k) for k in range(n))
        factors = prod(1 - T * z[j] / z[i] for i, j in pairs)
    expanded = sympy.expand(shift * schur(lam, z) * factors)
    return {monom: int(c) for monom, c in sympy.Poly(expanded, *z, T).terms()}


def package_terms(lam):
    return cs_lhs(lam).flat


def package_reversed_terms(lam):
    """The package's product relabelled by e -> reversed(e - rho), the
    bijection the reversed-form check relies on, times z^(0, 1, ..., r)."""
    shift = rho(lam.rank).parts
    out = {}
    for key, c in package_terms(lam).items():
        e = reversed([x - s for x, s in zip(key[:-1], shift)])
        out[tuple(x + k for k, x in enumerate(e)) + key[-1:]] = c
    return out


TWIN_WEIGHTS = [
    lambda_from_fundamental(coeffs, rank)
    for rank in (1, 2, 3)
    for coeffs in product((0, 1), repeat=rank)
] + [lambda_from_fundamental((1, 0, 0, 0), 4)]


@pytest.mark.parametrize("lam", TWIN_WEIGHTS, ids=lambda lam: str(lam.parts))
def test_lhs_matches_sympy(lam):
    assert package_terms(lam) == twin_terms(lam.parts)


@pytest.mark.parametrize("lam", TWIN_WEIGHTS, ids=lambda lam: str(lam.parts))
def test_reversed_product_matches_sympy(lam):
    flat = package_reversed_terms(lam)
    assert flat == twin_terms(lam.parts, reverse=True)
    # the sign rule that lets _times_deformed skip dropping zeros
    assert all((-1) ** key[-1] * c > 0 for key, c in flat.items())
