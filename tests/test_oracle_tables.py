"""The table-driven specialization oracles against their scanning twins.

hpoly reads the q = inf and q = -1 oracles from the root system: the
dominant multiplicities of V(lambda) by Freudenthal's formula, and the
character s_lambda s_rho; rootsys builds the q = 1 orbit sign by
matching coordinates.  tests/oracles.py keeps the
per-row scans, and these tests hold each oracle to its twin at ranks
1-4, on every row of several H-tables, and on non-dominant weights whose
lambda + rho repeats a coordinate.  cli asks each oracle about the row
weight h_table keeps; the tests hold that to the weight the simple-root
coordinates of the row give.
"""

from collections import Counter
from operator import add
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import suite_weights
from cscrystal import cli, hpoly, laurent
from cscrystal.crystal import enumerate_crystal
from cscrystal.hpoly import h_table, tensor_weight_multiplicity, weight_multiplicity
from cscrystal.rootsys import (
    Shape,
    dot_orbit_sign,
    lambda_from_fundamental,
    rho,
    shifted,
)
from cscrystal.tableaux import content
from cscrystal.tpoly import TPoly

# The largest part per rank keeps every B(lambda) small.
_MAX_PART = {1: 4, 2: 3, 3: 2, 4: 1}


@st.composite
def partitions(draw):
    """A partition weight at rank 1-4."""
    rank = draw(st.integers(1, 4))
    parts = draw(
        st.lists(st.integers(0, _MAX_PART[rank]), min_size=rank + 1, max_size=rank + 1)
    )
    return Shape(tuple(sorted(parts, reverse=True)))


@st.composite
def partition_and_weight(draw):
    """(lambda, nu): nu is the content of an element of B(lambda) or of a
    pair in B(lambda) x B(rho), or a nearby vector that may hit nothing."""
    lam = draw(partitions())
    r = lam.rank
    left = draw(st.sampled_from(enumerate_crystal(lam, r)))
    nu = content(left)
    if draw(st.booleans()):
        right = draw(st.sampled_from(enumerate_crystal(rho(r), r)))
        nu = tuple(map(add, nu, content(right)))
    if draw(st.booleans()):
        shift = draw(st.lists(st.integers(-1, 1), min_size=r + 1, max_size=r + 1))
        nu = tuple(map(add, nu, shift))
    return lam, nu


@settings(max_examples=150, deadline=None)
@given(partition_and_weight())
def test_weight_multiplicity_matches_scan(case):
    lam, nu = case
    assert weight_multiplicity(lam, nu) == oracles.scan_weight_multiplicity(lam, nu)


@settings(max_examples=150, deadline=None)
@given(partition_and_weight())
def test_tensor_weight_multiplicity_matches_scan(case):
    lam, nu = case
    assert tensor_weight_multiplicity(lam, nu) == (
        oracles.scan_tensor_weight_multiplicity(lam, nu)
    )


def _weight(coords):
    """A weight as dot_orbit_sign reads lambda, by its parts and rank.
    Unlike a Shape it may be non-dominant, and then lambda + rho may
    repeat a coordinate."""
    return SimpleNamespace(parts=coords, rank=len(coords) - 1)


@st.composite
def shifted_weights(draw):
    """lambda at rank 1-4 with lambda + rho drawn from a small range, so
    that non-dominant weights with repeated coordinates are common."""
    rank = draw(st.integers(1, 4))
    shifted = draw(st.lists(st.integers(-1, 3), min_size=rank + 1, max_size=rank + 1))
    return _weight(tuple(x - k for x, k in zip(shifted, range(rank, -1, -1))))


@settings(max_examples=300, deadline=None)
@given(shifted_weights(), st.data())
def test_dot_orbit_sign_matches_scan(lam, data):
    r = lam.rank
    mu = tuple(data.draw(st.lists(st.integers(0, r + 1), min_size=r, max_size=r)))
    assert dot_orbit_sign(lam, oracles.row_weight(lam, mu)) == oracles.scan_dot_orbit_sign(lam, mu)


@settings(max_examples=300, deadline=None)
@given(shifted_weights(), st.data())
def test_dot_orbit_sign_matches_scan_on_the_orbit(lam, data):
    # mu taken from a dot image of lambda, so the sign is nonzero
    # whenever the drop has nonnegative simple-root coordinates
    r = lam.rank
    perm = tuple(data.draw(st.permutations(range(1, r + 2))))
    try:
        mu = oracles.gl_to_alpha(oracles.minus(lam.parts, oracles.dot_action(perm, lam.parts)))
    except ValueError:
        return
    sign = dot_orbit_sign(lam, oracles.row_weight(lam, mu))
    assert sign != 0
    assert sign == oracles.scan_dot_orbit_sign(lam, mu)


def test_dot_orbit_sign_takes_first_match_on_repeated_coordinates():
    # lambda + rho = (1, 1, 0) and lambda + rho - mu = (1, 0, 1): both
    # (1, 3, 2) (odd) and (3, 1, 2) (even) match; the scan meets the
    # odd one first
    lam = _weight(oracles.minus((1, 1, 0), rho(2).parts))
    mu = oracles.gl_to_alpha((0, 1, -1))
    assert dot_orbit_sign(lam, (1, 0, 1)) == -1
    assert oracles.scan_dot_orbit_sign(lam, mu) == -1


TABLE_WEIGHTS = [
    lambda_from_fundamental((1, 0, 1), 3),
    lambda_from_fundamental((2, 1, 0), 3),
    lambda_from_fundamental((0, 0, 0, 0), 4),
]


@pytest.mark.parametrize("lam", TABLE_WEIGHTS, ids=lambda lam: str(lam.parts))
def test_every_table_row_matches_scans(lam):
    r = lam.rank
    for mu, _, _ in h_table(lam).rows:
        drop = oracles.alpha_to_gl(mu, r)
        nu = oracles.minus(lam.parts, drop)
        assert weight_multiplicity(lam, nu) == oracles.scan_weight_multiplicity(lam, nu)
        nu = oracles.minus(oracles.plus_rho(lam.parts), drop)
        assert tensor_weight_multiplicity(lam, nu) == (
            oracles.scan_tensor_weight_multiplicity(lam, nu)
        )
        assert dot_orbit_sign(lam, nu) == oracles.scan_dot_orbit_sign(lam, mu)


ROW_WEIGHTS = suite_weights() + [
    lambda_from_fundamental(coeffs, 4) for coeffs in ((0, 0, 0, 0), (1, 0, 0, 0), (0, 0, 0, 1))
]


@pytest.mark.parametrize("lam", ROW_WEIGHTS, ids=lambda lam: str(lam.parts))
def test_row_weights_give_the_old_oracle_arguments(lam):
    # cli reads each oracle's argument off the weight h_table keeps per
    # row; it must be what the round trip through alpha_to_gl gave
    r = lam.rank
    table = h_table(lam)
    shift = rho(r).parts
    for mu, w, _ in table.rows:
        drop = oracles.alpha_to_gl(mu, r)
        assert w == oracles.minus(oracles.plus_rho(lam.parts), drop)
        old = {
            "inf": weight_multiplicity(lam, oracles.minus(lam.parts, drop)),
            "-1": tensor_weight_multiplicity(lam, w),
            "1": oracles.scan_dot_orbit_sign(lam, mu),
        }
        assert old.keys() == cli._AT.keys()
        for at, want in old.items():
            assert cli._oracle_value(lam, w, at, shift) == want, (mu, at)


@pytest.mark.parametrize(
    "w, message",
    [
        ((3, 1, 1), "not in the root lattice"),  # coordinates sum to 5, lambda + rho to 4
        ((4, 0, 0), "must be nonnegative"),  # mu = -alpha_1
    ],
)
def test_h_table_refuses_a_weight_off_the_drops(monkeypatch, w, message):
    # lambda + rho = (3, 1, 0) at lambda = omega_1, rank 2
    monkeypatch.setattr(hpoly, "shifted_sums", lambda lam: {w: TPoly((1,))})
    with pytest.raises(ValueError, match=message):
        h_table(lambda_from_fundamental((1, 0), 2))


def test_wrong_rank_weight():
    lam = Shape((1, 1, 0))
    nu = (1, 1, 1, 0)
    with pytest.raises(ValueError):
        tensor_weight_multiplicity(lam, nu)
    with pytest.raises(ValueError):
        oracles.scan_tensor_weight_multiplicity(lam, nu)
    # B(lambda) has no element of another rank's content
    assert weight_multiplicity(lam, nu) == 0
    assert oracles.scan_weight_multiplicity(lam, nu) == 0


def _count_listings(monkeypatch):
    """Count enumerate_crystal calls per shape at every name the package
    calls it through on verify's and hpoly's paths."""
    calls = Counter()
    real = enumerate_crystal

    def counted(shape, rank):
        calls[shape.parts] += 1
        return real(shape, rank)

    for module in (laurent, hpoly, cli):
        monkeypatch.setattr(module, "enumerate_crystal", counted)
    return calls


@pytest.mark.parametrize("at", ["inf", "-1", "1"])
def test_hpoly_call_enumerates_each_factor_once(at, capsys, monkeypatch):
    # the oracles read the root system: B(lambda+rho), listed once for
    # the table, is the one crystal an hpoly run lists
    calls = _count_listings(monkeypatch)
    assert cli.main(["hpoly", "--rank", "3", "--lambda", "1,0,1", "--at", at]) == 0
    lam = lambda_from_fundamental((1, 0, 1), 3)
    assert dict(calls) == {shifted(lam).parts: 1}
    assert "FAIL" not in capsys.readouterr().out


def test_verify_lists_only_b_lambda_plus_rho(capsys, monkeypatch):
    # cs_lhs reads s_lambda from the root system, so B(lambda+rho),
    # listed once for both checks, is the one crystal
    calls = _count_listings(monkeypatch)
    assert cli.main(["verify", "--rank", "3", "--lambda", "1,0,1"]) == 0
    lam = lambda_from_fundamental((1, 0, 1), 3)
    assert dict(calls) == {shifted(lam).parts: 1}
    assert "MISMATCH" not in capsys.readouterr().out
