"""Acceptance suite: one test per shipped guarantee.

Each test prints a single ACCEPTANCE line (run pytest with -s to see
them inline; under plain -v the test name carries the same verdict).
Timing limits are asserted where a guarantee includes one.
"""

import contextlib
import json
import time

import oracles
from conftest import shifted_elements, suite_weights
from cscrystal.bzl import (
    bzl_path,
    c_coefficient,
    decorate_via_operators,
    decorate_via_stats,
    g_coefficient,
)
from cscrystal.cli import main
from cscrystal.crystal import (
    e_op,
    enumerate_crystal,
    f_op,
    phi,
    signature,
    surviving_slots,
)
from cscrystal.hpoly import h_table, tensor_weight_multiplicity, weight_multiplicity
from cscrystal.laurent import shifted_sums, verify_identity
from cscrystal.rootsys import (
    GLWeight,
    Shape,
    dot_orbit_sign,
    lambda_from_fundamental,
    rho,
)
from cscrystal.tableaux import is_strict, make_tableau
from frozen import CRYSTAL_SIZES, H_TABLE_OMEGA2, OMEGA2_SIGNS_AT_ONE
from operator_walk import reading_word, word_epsilon
from oracles import alpha_to_gl, h_direct, h_tensor
from stats_twin import twin_stats_a

OMEGA2 = lambda_from_fundamental((0, 1), 2)


@contextlib.contextmanager
def verdict(n, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {n}: FAIL - {label}")
        raise
    print(f"ACCEPTANCE {n}: PASS - {label}")


def test_01_omega2_table_reproduction(capsys):
    with verdict(1, "hpoly table for the rank-2 weight (0,1), 12 exact rows, under 1s"):
        started = time.perf_counter()
        code = main(["hpoly", "--rank", "2", "--lambda", "0,1", "--format", "json"])
        elapsed = time.perf_counter() - started
        out = capsys.readouterr().out
        assert code == 0
        rows = {
            tuple(item["mu"]): tuple(item["coeffs"])
            for item in json.loads(out)["rows"]
        }
        want = {mu: tuple(c) for mu, c in H_TABLE_OMEGA2.items()}
        assert rows == want
        assert len(rows) == 12
        # the two headline values, spelled out
        assert rows[(1, 2)] == (0, -2, 2)
        assert rows[(3, 3)] == (0, 0, 0, -1)
        assert elapsed < 1.0


def test_02_worked_example_coefficients():
    label = "named rank-2 tableaux coefficients and direct == tensor route, under 1s"
    with verdict(2, label):
        started = time.perf_counter()
        named = {
            ((1, 2, 2), (3, 3)): (0, -1, 1),  # -t(1-t)
            ((1, 2, 3), (2, 3)): (0, 0, 1, -1),  # t^2(1-t)
            ((1, 2), (3,)): (0, -1, 1),
            ((1, 3), (2,)): (),  # doubly decorated, killed
            ((2, 2), (3,)): (0, 0, 1),
            ((2, 3), (3,)): (0, 0, 0, -1),
        }
        for rows, coeffs in named.items():
            t = make_tableau(2, [list(r) for r in rows])
            assert c_coefficient(decorate_via_stats(t)).coeffs == coeffs, rows
        tensor = h_tensor(OMEGA2)
        assert tensor.keys() == {mu for mu, _, _ in h_table(OMEGA2).rows}
        for mu, poly in tensor.items():
            assert h_direct(OMEGA2, mu) == poly, mu
        assert time.perf_counter() - started < 1.0


def test_03_identity_suite():
    label = "deformed character identity, exact, all 18 suite weights, under 60s"
    with verdict(3, label):
        started = time.perf_counter()
        for lam in suite_weights():
            report = verify_identity(lam, shifted_sums(lam))
            assert report.equal, (lam.coords, report.first_mismatch)
            assert report.lhs_terms == report.rhs_terms
        assert time.perf_counter() - started < 60.0


def test_04_decoration_equivalence():
    with verdict(4, "operator and statistics decorations agree on every suite element"):
        checked = 0
        for lam in suite_weights():
            for t in shifted_elements(lam):
                ops = decorate_via_operators(t)
                stats = decorate_via_stats(t)
                assert ops == stats, t.rows
                assert bzl_path(t) == twin_stats_a(t.rank, t.rows), t.rows
                checked += 1
        assert checked > 700


def test_05_strictness_lemma():
    label = "non-strict iff doubly decorated iff zero coefficient, every suite element"
    with verdict(5, label):
        for lam in suite_weights():
            for t in shifted_elements(lam):
                tri = decorate_via_stats(t)
                doubled = tri.circled & tri.boxed
                zero = c_coefficient(tri).is_zero()
                if not is_strict(t):
                    assert doubled, t.rows
                    assert zero, t.rows
                else:
                    assert not doubled, t.rows
                    assert not zero, t.rows


def test_06_bridge_between_coefficient_forms():
    with verdict(6, "g times q^(-path total) equals c on every suite element"):
        for lam in suite_weights():
            for t in shifted_elements(lam):
                tri = decorate_via_stats(t)
                bridged = g_coefficient(tri).shift(-bzl_path(t).total())
                assert bridged == c_coefficient(tri).to_qlaurent(), t.rows


def test_07_specialization_oracles():
    label = "all three specializations match their oracles on every suite table row"
    with verdict(7, label):
        for lam in suite_weights():
            r = lam.rank
            table = h_table(lam)
            for mu, _, poly in table.rows:
                shifted_target = lam + rho(r) - alpha_to_gl(mu, r)
                assert poly.eval(0) == weight_multiplicity(
                    lam, lam - alpha_to_gl(mu, r)
                ), (lam.coords, mu)
                got_tensor = poly.eval(-1)
                assert got_tensor == tensor_weight_multiplicity(lam, shifted_target)
                assert poly.eval(1) == dot_orbit_sign(lam, shifted_target.coords)
        # pinned values for the rank-2 weight (0,1)
        assert h_direct(OMEGA2, (1, 2)).eval(-1) == 4
        signs = {
            mu: poly.eval(1)
            for mu, _, poly in h_table(OMEGA2).rows
        }
        for mu_c, sign in signs.items():
            assert sign == OMEGA2_SIGNS_AT_ONE.get(mu_c, 0), mu_c
        assert sorted(OMEGA2_SIGNS_AT_ONE.values()) == [-1, -1, -1, 1, 1, 1]


def test_08_operator_fixture():
    with verdict(8, "rank-4 signature fixture: scan, null raise, exact lower"):
        t = make_tableau(4, [[1, 3, 3], [3, 4], [5]])
        assert reading_word(t) == (3, 3, 4, 1, 3, 5)
        assert surviving_slots(reading_word(t), 3) == ([], [0, 4])
        assert signature(t, 3) == ([3, 3, 4, 3], [0, 0, 1, 1])
        assert word_epsilon(t, 3) == 0 and phi(t, 3) == 2
        assert e_op(t, 3) is None
        assert f_op(t, 3) == make_tableau(4, [[1, 3, 4], [3, 4], [5]])


def test_09_enumeration_matches_brute_force():
    with verdict(9, "crystal sizes equal brute-force filling counts, suite-wide"):
        for lam in suite_weights():
            parts = (lam + rho(lam.rank)).coords
            got = len(enumerate_crystal(Shape(parts), lam.rank))
            assert got == len(oracles.brute_force_ssyt(parts, lam.rank + 1)), parts
        for parts, size in CRYSTAL_SIZES.items():
            rank = len(parts) - 1
            assert len(enumerate_crystal(Shape(parts), rank)) == size
        assert CRYSTAL_SIZES[(3, 2, 0)] == 15
        assert CRYSTAL_SIZES[(2, 1, 0)] == 8
        assert CRYSTAL_SIZES[(5, 3, 2, 0)] == 300


def test_10_out_of_scope_note():
    label = (
        "p-adic Whittaker integral intentionally out of scope; "
        "the exact identity suite (check 3) is the stand-in"
    )
    with verdict(10, label):
        lam = GLWeight((0, 0))
        report = verify_identity(lam, shifted_sums(lam))
        assert report.equal
