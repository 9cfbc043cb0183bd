import itertools
import json
from operator import add

import pytest

import oracles
from conftest import suite_weights
from cscrystal.crystal import enumerate_crystal
from cscrystal.hpoly import (
    format_mu,
    h_table,
    tensor_weight_multiplicity,
    weight_multiplicity,
)
from cscrystal.bzl import c_coefficient, decorate_via_stats
from cscrystal.rootsys import (
    Shape,
    dot_orbit_sign,
    lambda_from_fundamental,
    rho,
)
from cscrystal.tableaux import content
from cscrystal.tpoly import TPoly
from frozen import H_TABLE_OMEGA2, OMEGA2_SIGNS_AT_ONE
from oracles import alpha_to_gl, h_direct, h_tensor, list_add, minus, plus_rho

OMEGA2 = lambda_from_fundamental((0, 1), 2)


def test_h_direct_example_rows():
    assert h_direct(OMEGA2, (0, 0)) == TPoly((1,))
    assert h_direct(OMEGA2, (1, 2)) == TPoly((0, -2, 2))
    assert h_direct(OMEGA2, (3, 3)) == TPoly((0, 0, 0, -1))
    # outside the support of the shifted crystal
    assert h_direct(OMEGA2, (5, 5)) == TPoly.zero()


def test_h_table_matches_frozen_table():
    table = h_table(OMEGA2)
    assert len(table.rows) == 12
    got = {mu: poly.coeffs for mu, _, poly in table.rows}
    expect = {mu: TPoly(c).coeffs for mu, c in H_TABLE_OMEGA2.items()}
    assert got == expect


def test_h_tensor_equals_h_direct_on_omega2():
    tensor = h_tensor(OMEGA2)
    assert set(tensor) == set(H_TABLE_OMEGA2)
    for mu in H_TABLE_OMEGA2:
        assert tensor[mu] == h_direct(OMEGA2, mu)


def test_h_tensor_equals_h_direct_across_suite():
    for lam in suite_weights():
        if lam.rank > 2:
            continue
        table = h_table(lam)
        tensor = h_tensor(lam)
        for mu, _, poly in table.rows:
            assert tensor.get(mu, TPoly.zero()) == h_direct(lam, mu)
            assert poly == h_direct(lam, mu)


@pytest.mark.parametrize(
    "lam",
    suite_weights() + [lambda_from_fundamental((1, 0, 0, 0), 4)],
    ids=lambda lam: str(lam.parts),
)
def test_h_tensor_equals_h_table(lam):
    # the tensor-product route to the whole table: B(lambda) x B(rho)
    # with only the rho factor scored, against one pass over B(lambda+rho)
    nonzero = {mu: p for mu, _, p in h_table(lam).rows if not p.is_zero()}
    assert h_tensor(lam) == nonzero


def test_tensor_route_four_pair_example():
    # weight (1,2,2) in the product crystal: four pairs, whose rho-side
    # coefficients are -t(1-t), 0, t^2, -t^3
    lam_elements = enumerate_crystal(Shape((1, 1, 0)), 2)
    rho_elements = enumerate_crystal(Shape((2, 1, 0)), 2)
    target = (1, 2, 2)
    pairs = [
        (left, right)
        for left in lam_elements
        for right in rho_elements
        if tuple(map(add, content(left), content(right))) == target
    ]
    assert len(pairs) == 4
    values = sorted(
        (c_coefficient(decorate_via_stats(right)).coeffs for _, right in pairs),
        key=lambda c: (len(c), c),
    )
    assert values == sorted(
        [(0, -1, 1), (), (0, 0, 1), (0, 0, 0, -1)], key=lambda c: (len(c), c)
    )
    total = []
    for _, r in pairs:
        total = list_add(total, c_coefficient(decorate_via_stats(r)).coeffs)
    assert TPoly(tuple(total)) == h_direct(OMEGA2, (2, 2))


def test_table_rows_have_nonzero_polynomials():
    for lam in suite_weights():
        if lam.rank > 2:
            continue
        table = h_table(lam)
        for _, _, poly in table.rows:
            assert poly != TPoly.zero()


def test_specializations_match_oracles_for_omega2():
    table = h_table(OMEGA2)
    lam = OMEGA2
    for mu, _, poly in table.rows:
        shifted_target = minus(plus_rho(lam.parts), alpha_to_gl(mu, 2))
        assert poly.eval(0) == weight_multiplicity(
            lam, minus(lam.parts, alpha_to_gl(mu, 2))
        )
        assert poly.eval(-1) == tensor_weight_multiplicity(
            lam, shifted_target
        )
        assert poly.eval(1) == dot_orbit_sign(lam, shifted_target)


def test_value_four_at_alpha1_plus_2alpha2():
    poly = h_direct(OMEGA2, (1, 2))
    assert poly.eval(-1) == 4
    assert tensor_weight_multiplicity(OMEGA2, (2, 1, 2)) == 4


def test_signs_at_q_one():
    table = h_table(OMEGA2)
    for mu, _, poly in table.rows:
        expected = OMEGA2_SIGNS_AT_ONE.get(mu, 0)
        assert poly.eval(1) == expected


def test_weight_multiplicities():
    assert weight_multiplicity(OMEGA2, (1, 1, 0)) == 1
    assert weight_multiplicity(OMEGA2, (0, 2, 0)) == 0
    adj = Shape((2, 1, 0))
    assert weight_multiplicity(adj, (1, 1, 1)) == 2
    assert weight_multiplicity(adj, (9, 0, 0)) == 0


def test_weight_multiplicity_against_brute_force():
    adj = Shape((2, 1, 0))
    for target in itertools.product(range(4), repeat=3):
        if sum(target) != 3:
            continue
        assert weight_multiplicity(adj, target) == (
            oracles.brute_force_weight_multiplicity((2, 1, 0), 3, target)
        )


def test_tensor_weight_multiplicity_against_double_loop():
    lam = OMEGA2
    lam_elements = enumerate_crystal(Shape((1, 1, 0)), 2)
    rho_elements = enumerate_crystal(Shape((2, 1, 0)), 2)
    from collections import Counter

    counts = Counter(
        tuple(map(add, content(a), content(b)))
        for a in lam_elements
        for b in rho_elements
    )
    for nu, n in counts.items():
        assert tensor_weight_multiplicity(lam, nu) == n
    assert tensor_weight_multiplicity(lam, (9, 9, 9)) == 0


def test_dimension_conservation_at_minus_one():
    # summing the t=-1 column over all rows counts the full product crystal
    for lam in [OMEGA2, Shape((2, 2, 0)), Shape((2, 0))]:
        rank = lam.rank
        table = h_table(lam)
        total = sum(
            poly.eval(-1) for _, _, poly in table.rows
        )
        lam_size = len(enumerate_crystal(lam, rank))
        rho_size = len(enumerate_crystal(rho(rank), rank))
        assert total == lam_size * rho_size


def test_weight_multiplicity_conservation_at_zero():
    # t=0 column sums to the dimension of V(lambda): each weight of the
    # shifted crystal hits one weight of V(lambda) or misses entirely
    table = h_table(OMEGA2)
    total = sum(
        poly.eval(0) for _, _, poly in table.rows
    )
    assert total == len(enumerate_crystal(Shape((1, 1, 0)), 2))


def test_mu_formatting():
    assert format_mu((0, 0), "a") == "0"
    assert format_mu((1, 2), "a") == "a1+2a2"
    assert format_mu((0, 3), "a") == "3a2"
    assert format_mu((0, 0), "\\alpha_") == "0"
    assert format_mu((1, 2), "\\alpha_") == "\\alpha_1+2\\alpha_2"
    assert format_mu((2, 0), "\\alpha_") == "2\\alpha_1"


def test_table_sorted_rows_order():
    # h_table builds its rows in (degree, coordinates) order, each row
    # holding the weight lam + rho - mu of its mu
    table = h_table(OMEGA2)
    keys = [mu for mu, _, _ in table.rows]
    assert keys[0] == (0, 0)
    degrees = [sum(k) for k in keys]
    assert degrees == sorted(degrees)
    assert keys == sorted(keys, key=lambda c: (sum(c), c))
    assert len(keys) == len(set(keys))
    assert [w for _, w, _ in table.rows] == [oracles.row_weight(OMEGA2, mu) for mu in keys]


def test_table_serialization_roundtrip():
    table = h_table(OMEGA2)
    # the JSON form is output only: its bytes parse back to the dict,
    # which holds lambda, the rank and every row
    payload = json.loads(json.dumps(table.to_json_dict()))
    assert payload == table.to_json_dict()
    assert (tuple(payload["lambda"]), payload["rank"]) == (table.lam.parts, table.lam.rank)
    got = {tuple(row["mu"]): tuple(row["coeffs"]) for row in payload["rows"]}
    assert got == {mu: poly.coeffs for mu, _, poly in table.rows}
    assert len(got) == len(payload["rows"])
    csv_text = table.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("c1,c2,t0")
    assert len(lines) == 13
    latex = table.to_latex()
    assert "\\alpha_1+2\\alpha_2" in latex
    assert "-2q^{-1}+2q^{-2}" in latex


def test_h_direct_rejects_rank_mismatch():
    with pytest.raises(ValueError):
        h_direct(OMEGA2, (1, 0, 0))


def test_max_t_degree():
    # to_csv pads every row to the largest t-degree, 3 for omega_2
    header = h_table(OMEGA2).to_csv().splitlines()[0]
    assert header.split(",")[-1] == "t3"
