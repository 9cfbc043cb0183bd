import itertools

import pytest
from hypothesis import given, strategies as st

from oracles import alpha_to_gl, dot_action, gl_to_alpha, permute_weight
from cscrystal.rootsys import (
    GLWeight,
    Shape,
    dot_orbit_sign,
    lambda_from_fundamental,
    perm_sign,
    rho,
)


def test_rho():
    assert rho(1) == GLWeight((1, 0))
    assert rho(2) == GLWeight((2, 1, 0))
    assert rho(4) == GLWeight((4, 3, 2, 1, 0))


def test_lambda_from_fundamental():
    assert lambda_from_fundamental((0, 1), 2) == GLWeight((1, 1, 0))
    assert lambda_from_fundamental((1, 0, 1), 3) == GLWeight((2, 1, 1, 0))
    assert lambda_from_fundamental((0, 0), 2) == GLWeight((0, 0, 0))
    with pytest.raises(ValueError):
        lambda_from_fundamental((1,), 2)
    with pytest.raises(ValueError):
        lambda_from_fundamental((-1, 0), 2)


def test_weight_arithmetic():
    lam = GLWeight((1, 1, 0))
    assert lam + rho(2) == GLWeight((3, 2, 0))
    assert lam - GLWeight((1, 0, 0)) == GLWeight((0, 1, 0))
    assert lam.is_partition()
    assert not GLWeight((0, 1, 0)).is_partition()


def test_shape_validation():
    Shape((3, 2, 0))
    Shape((0, 0))
    with pytest.raises(ValueError):
        Shape((2, 3, 0))
    with pytest.raises(ValueError):
        Shape((2, -1))
    assert Shape((3, 2, 0)).strictness_defect() is None
    assert Shape((3, 3, 0)).strictness_defect() is not None
    assert Shape((3, 2, 1)).strictness_defect() is not None
    assert Shape((1, 0)).strictness_defect() is None


def test_alpha_gl_conversion():
    assert alpha_to_gl((1, 0), 2) == GLWeight((1, -1, 0))
    assert alpha_to_gl((1, 2), 2) == GLWeight((1, 1, -2))
    assert gl_to_alpha(GLWeight((1, 1, -2))) == (1, 2)
    with pytest.raises(ValueError):
        gl_to_alpha(GLWeight((1, 0, 0)))
    # negative alpha-coordinate along the way
    with pytest.raises(ValueError):
        gl_to_alpha(GLWeight((-1, 0, 1)))


@given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=5))
def test_alpha_gl_roundtrip(coords):
    mu = tuple(coords)
    rank = len(coords)
    assert gl_to_alpha(alpha_to_gl(mu, rank)) == mu


def test_perm_sign():
    assert perm_sign((1, 2, 3)) == 1
    assert perm_sign((2, 1, 3)) == -1
    assert perm_sign((2, 3, 1)) == 1
    assert perm_sign((3, 2, 1)) == -1


def test_permute_weight_convention():
    # position k is sent to position w(k)
    v = GLWeight((5, 7, 9))
    assert permute_weight((2, 3, 1), v) == GLWeight((9, 5, 7))
    assert permute_weight((1, 2, 3), v) == v


def test_dot_action_examples():
    lam = GLWeight((1, 1, 0))
    assert dot_action((2, 1, 3), lam) == GLWeight((0, 2, 0))
    assert dot_action((1, 2, 3), lam) == lam
    zero = GLWeight((0, 0, 0))
    assert dot_action((3, 2, 1), zero) == GLWeight((-2, 0, 2))


def _compose(w1, w2):
    return tuple(w1[w2[k] - 1] for k in range(len(w1)))


def test_dot_action_is_group_action():
    perms = list(itertools.permutations((1, 2, 3)))
    samples = [GLWeight((1, 1, 0)), GLWeight((3, 2, 0)), GLWeight((2, 0, -1))]
    for w1 in perms:
        for w2 in perms:
            for lam in samples:
                assert dot_action(w1, dot_action(w2, lam)) == dot_action(
                    _compose(w1, w2), lam
                )


def test_perm_sign_multiplicative():
    perms = list(itertools.permutations((1, 2, 3, 4)))
    for w1 in perms[:8]:
        for w2 in perms[::5]:
            assert perm_sign(_compose(w1, w2)) == perm_sign(w1) * perm_sign(w2)


def test_dot_orbit_sign():
    # each w is lam + rho - mu with lam + rho = (3, 2, 0)
    lam = GLWeight((1, 1, 0))
    assert dot_orbit_sign(lam, (3, 2, 0)) == 1  # mu = 0
    assert dot_orbit_sign(lam, (2, 3, 0)) == -1  # mu = alpha_1
    assert dot_orbit_sign(lam, (2, 2, 1)) == 0  # mu = alpha_1 + alpha_2
    # mu = 2 alpha_2: lam - mu = (1, 1, 0) - (0, 2, -2) = (1, -1, 2)
    # equals s_2 . lam since s_2(3, 2, 0) = (3, 0, 2)
    assert dot_orbit_sign(lam, (3, 0, 2)) == -1
