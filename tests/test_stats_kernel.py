"""The statistics kernels against their entry-by-entry twins.

Property tests at ranks 4 and 5 draw tableaux of random shapes (the
generators of test_word_kernel) and compare the block kernel's
triangle, marks, counts and memoized coefficients with
tests/stats_twin.py, whose boxes follow the theta rule on the b
statistics where the kernel reads an equality of Gelfand-Tsetlin rows.
On tableaux of any shape, the twin's a and b statistics are held
against their reading from GT rows: a from _stats_block, and
b_{i,j} = l_i - (GT row j)_i, from which the box rule is derived.
The former whole-crystal route, crystal_scores and weight_sums of
tests/oracles.py, is held against the contents and mark counts of
decorate_via_stats on whole crystals and on rank-5 samples, and against
per-element sums.  bzl.crystal_sums, which scores pairs of adjacent
tableau rows as packed integers, is held equal to that route, key set
and order included, on whole crystals up to rank 5 and on the rank-5
samples; its packed fields and coefficients must keep their spare bit.
G, read from the mark counts, is held against the entry-by-entry
product on arbitrarily marked triangles and on operator-route
triangles.  The one-pass strictness scan is held against the scan over
every threshold and row pair.  Coefficients are checked against plain
integer-list sums and products (tests/oracles.py), not the package's
own.
"""

from bisect import bisect_right
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cscrystal import bzl, hpoly, laurent
from cscrystal.bzl import (
    _mark_counts,
    _stats_block,
    c_coefficient,
    crystal_sums,
    decorate_via_operators,
    decorate_via_stats,
    g_coefficient,
)
from cscrystal.cli import main
from cscrystal.crystal import enumerate_crystal
from cscrystal.rootsys import Shape, lambda_from_fundamental, shifted
from cscrystal.tableaux import (
    DecoratedTriangle,
    content,
    gt_rows,
    is_strict,
    make_tableau,
)
from cscrystal.tpoly import TPoly
from oracles import c_product_twin, crystal_scores, list_add, weight_sums
from stats_twin import (
    cells,
    twin_counts,
    twin_decoration,
    twin_first_strictness_violation,
    twin_g_from_triangle,
    twin_stats_a,
    twin_stats_b,
)
from test_block_walk import gt_row, partitions
from test_word_kernel import any_shape_tableaux, fill_shape, strict_shape_tableaux


def _gt_stats(t):
    """(a, b) statistics triangles of t, of any shape, read from its GT
    rows: a_{i,j} from _stats_block, b_{i,j} = l_i - (GT row j)_i."""
    rank = t.rank
    rows = t.rows + ((),) * (rank + 1 - len(t.rows))
    gt = [tuple(bisect_right(row, j) for row in rows[:j]) for j in range(1, rank + 2)]
    a = {}
    for lower, upper in zip(gt, gt[1:]):
        a.update(_stats_block(lower, upper)[0])
    cells = [[(i, j) for j in range(i, rank + 1)] for i in range(1, rank + 1)]
    a_grid = tuple(tuple(a[cell] for cell in row) for row in cells)
    b_grid = tuple(tuple(len(rows[i - 1]) - gt[j - 1][i - 1] for i, j in row) for row in cells)
    return DecoratedTriangle(rank, a_grid), DecoratedTriangle(rank, b_grid)


def _twin_stats(t):
    return twin_stats_a(t.rank, t.rows), twin_stats_b(t.rank, t.rows)


@settings(max_examples=80, deadline=None)
@given(strict_shape_tableaux())
def test_kernel_decoration_matches_twin(t):
    grid, circled, boxed = twin_decoration(t.rank, t.rows)
    tri = decorate_via_stats(t)
    assert tri.grid == grid
    assert tri.circled == circled
    assert tri.boxed == boxed
    assert _gt_stats(t) == _twin_stats(t)


@settings(max_examples=80, deadline=None)
@given(strict_shape_tableaux())
def test_kernel_counts_match_twin(t):
    assert _mark_counts(decorate_via_stats(t)) == twin_counts(t.rank, t.rows)


@settings(max_examples=80, deadline=None)
@given(strict_shape_tableaux())
def test_memoized_coefficient_equals_product(t):
    alive, box, non = twin_counts(t.rank, t.rows)
    want = c_product_twin(box, non) if alive else TPoly.zero()
    tri = decorate_via_stats(t)
    assert c_coefficient(tri) == want
    assert c_coefficient(tri) == want  # a second call reads the memo


def test_binomial_c_product_matches_repeated_multiplication():
    for box in range(13):
        for non in range(13):
            assert bzl._c_product(box, non) == c_product_twin(box, non), (box, non)


@st.composite
def marked_triangles(draw):
    """A triangle of entries 0..3 at rank 1..4 with arbitrary marks,
    doubly marked entries included."""
    rank = draw(st.integers(1, 4))
    index = cells(rank)
    grid = tuple(
        tuple(draw(st.integers(0, 3)) for _ in range(i, rank + 1)) for i in range(1, rank + 1)
    )
    marks = st.sets(st.sampled_from(index))
    return DecoratedTriangle(
        rank=rank,
        grid=grid,
        circled=frozenset(draw(marks)),
        boxed=frozenset(draw(marks)),
    )


@settings(max_examples=150, deadline=None)
@given(marked_triangles())
def test_g_from_counts_matches_entrywise_product(tri):
    assert g_coefficient(tri) == twin_g_from_triangle(tri)


@settings(max_examples=40, deadline=None)
@given(strict_shape_tableaux())
def test_g_of_operator_triangle_matches_entrywise_product(t):
    tri = decorate_via_operators(t)
    assert g_coefficient(tri) == twin_g_from_triangle(tri)


@pytest.mark.parametrize(
    "parts", [(1, 1, 1, 1), (3, 1, 1, 0), (2, 2, 1, 0), (3, 2, 1, 0), (4, 4, 0, 0)]
)
def test_stats_match_twin_on_every_tableau(parts):
    # non-strict shapes too, and a column of rank+1 boxes whose last
    # row never enters a statistic
    for t in enumerate_crystal(Shape(parts), 3):
        assert _gt_stats(t) == _twin_stats(t)


@settings(max_examples=80, deadline=None)
@given(any_shape_tableaux())
def test_stats_match_twin_on_any_shape(t):
    assert _gt_stats(t) == _twin_stats(t)


@settings(max_examples=150, deadline=None)
@given(st.one_of(any_shape_tableaux(), strict_shape_tableaux(1, 5)))
def test_strictness_scan_matches_twin(t):
    assert is_strict(t) == (twin_first_strictness_violation(t.rank, t.rows) is None)


def test_gt_rows_and_strictness_match_twins_exhaustively():
    # the shapes of the exhaustive block-walk check: 7752 tableaux
    for rank, longest in [(1, 6), (2, 5), (3, 4), (4, 3)]:
        for parts in partitions(rank + 1, longest):
            for t in enumerate_crystal(Shape(parts), rank):
                assert gt_rows(t) == tuple(gt_row(t, j) for j in range(1, rank + 2)), t
                assert is_strict(t) == (twin_first_strictness_violation(rank, t.rows) is None), t


def _kernel_crystals():
    """B(lam+rho) for every lam at ranks 1..3 with fundamental
    coefficients <= 2, and rank 4 at omega_1, omega_4 and (1,1,0,0)."""
    weights = [
        lambda_from_fundamental(coeffs, rank)
        for rank in (1, 2, 3)
        for coeffs in product(range(3), repeat=rank)
    ]
    weights += [
        lambda_from_fundamental(coeffs, 4)
        for coeffs in [(1, 0, 0, 0), (0, 0, 0, 1), (1, 1, 0, 0)]
    ]
    for lam in weights:
        shape = shifted(lam)
        yield shape, enumerate_crystal(shape, lam.rank)


def _sums_crystals():
    """B(lam+rho) at ranks 1..3 for fundamental coefficient sums <= 3,
    every rank-4 lam with coefficient sum <= 1 and (1,1,0,0), and rank 5
    at lam = 0 and omega_1."""
    weights = [
        (coeffs, rank)
        for rank in (1, 2, 3, 4)
        for coeffs in product(range(4), repeat=rank)
        if sum(coeffs) <= (3 if rank < 4 else 1)
    ]
    weights += [((1, 1, 0, 0), 4), ((0,) * 5, 5), ((1, 0, 0, 0, 0), 5)]
    for coeffs, rank in weights:
        shape = shifted(lambda_from_fundamental(coeffs, rank))
        yield shape, enumerate_crystal(shape, rank)


def _assert_sums_match_twin(shape, elements):
    got, want = crystal_sums(shape, elements), weight_sums(crystal_scores(shape, elements))
    assert list(got) == list(want), shape  # the key set, in first-seen order
    assert got == want, shape
    assert all(type(w) is tuple for w in got)


def test_crystal_sums_match_twin_on_crystals():
    for shape, elements in _sums_crystals():
        _assert_sums_match_twin(shape, elements)


def test_packed_fields_and_coefficients_keep_a_spare_bit(suite, monkeypatch):
    # every element's packed score, decoded with B bits a field, holds
    # its content and its boxed, marked and doubly marked counts, each
    # below 2^(B-1); every coefficient of a weight sum is below 2^(T-1)
    # in magnitude, the t-digit of the packed sum of C(-t)
    scored = []
    monkeypatch.setattr(bzl, "Counter", lambda scores: scored.append(scores) or Counter(scores))
    for lam in suite + [lambda_from_fundamental(c, 4) for c in [(1, 0, 0, 0), (0, 0, 0, 1)]]:
        shape = shifted(lam)
        elements = enumerate_crystal(shape, lam.rank)
        b, t = bzl._field_bits(shape, len(elements))
        sums = crystal_sums(shape, elements)
        for s, el in zip(scored.pop(), elements, strict=True):
            fields = [s >> b * k & (1 << b) - 1 for k in range(lam.rank + 4)]
            assert s >> b * (lam.rank + 4) == 0 and max(fields) < 1 << b - 1, (lam, el)
            tri = decorate_via_stats(el)
            marks = [len(tri.boxed), len(tri.circled | tri.boxed), len(tri.circled & tri.boxed)]
            assert fields == list(content(el)) + marks, (lam, el)
        assert max(abs(c) for p in sums.values() for c in p.coeffs) < 1 << t - 1, lam


def test_doubly_marked_pair_gives_zero_and_keeps_its_weight():
    # in B(rho) at rank 2, rows (1, 3) over (2,) circle and box (1, 1):
    # c_1(2) = c_1(1) = 1 = c_2(2)
    shape = Shape((2, 1, 0))
    dead, alive = make_tableau(2, [[1, 3], [2]]), make_tableau(2, [[1, 2], [3]])
    tri = decorate_via_stats(dead)
    assert tri.circled & tri.boxed == {(1, 1)}
    assert content(dead) == content(alive) == (1, 1, 1)
    assert crystal_sums(shape, [dead]) == {(1, 1, 1): TPoly.zero()}
    assert crystal_sums(shape, [dead, alive]) == crystal_sums(shape, [alive])
    assert crystal_sums(shape, [alive]) == {(1, 1, 1): c_coefficient(decorate_via_stats(alive))}


def test_kernel_counts_match_triangle_on_crystals():
    for shape, elements in _kernel_crystals():
        scored = list(crystal_scores(shape, elements))
        assert len(scored) == len(elements)
        for t, (w, *counts) in zip(elements, scored):
            assert w == content(t)
            assert tuple(counts) == _mark_counts(decorate_via_stats(t))


def test_weight_sums_match_per_element_sums():
    for shape, elements in _kernel_crystals():
        if shape.rank > 3:
            continue
        want = {}
        for t in elements:
            w = content(t)
            want[w] = list_add(want.get(w, []), c_coefficient(decorate_via_stats(t)).coeffs)
        got = weight_sums(crystal_scores(shape, elements))
        assert list(got) == list(want)  # first-seen order
        assert got == {w: TPoly(tuple(c)) for w, c in want.items()}
    # a weight whose elements all die is kept, with sum zero
    t = make_tableau(2, [[1, 1, 2], [2]])
    assert weight_sums([(content(t), False, 1, 2)]) == {(2, 2, 0): TPoly.zero()}


@st.composite
def rank5_samples(draw):
    """A strict rank-5 shape and a few tableaux of it, so the kernel's
    block memo is shared between elements."""
    gaps = draw(st.lists(st.integers(1, 2), min_size=5, max_size=5))
    parts = [sum(gaps[k:]) for k in range(5)]
    count = draw(st.integers(1, 6))
    return Shape(tuple(parts) + (0,)), [fill_shape(draw, 5, parts) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(rank5_samples())
def test_kernel_counts_match_triangle_at_rank_5(sample):
    shape, elements = sample
    for t, (w, *counts) in zip(elements, crystal_scores(shape, elements), strict=True):
        assert w == content(t)
        assert tuple(counts) == _mark_counts(decorate_via_stats(t))
    # a few elements of one shape share the pair memo, not a whole crystal
    _assert_sums_match_twin(shape, elements)


def _assert_circles_read_row(t):
    tri = decorate_via_stats(t)
    for i, j in cells(t.rank):
        assert ((i, j) in tri.circled) == (j + 1 not in t.rows[i - 1])


def test_circled_iff_row_holds_no_successor(suite):
    # a_{i,j} - a_{i-1,j} counts the j+1's in row i, so (i, j) is
    # circled exactly when row i holds no j+1
    for lam in suite:
        shape = shifted(lam)
        for t in enumerate_crystal(shape, lam.rank):
            _assert_circles_read_row(t)


@settings(max_examples=60, deadline=None)
@given(strict_shape_tableaux())
def test_circled_iff_row_holds_no_successor_at_ranks_4_and_5(t):
    _assert_circles_read_row(t)


def test_kernel_rejects_shape_with_nonzero_last_part():
    with pytest.raises(ValueError, match=r"\(4, 2, 1\) has last part 1"):
        crystal_sums(Shape((4, 2, 1)), [])
    with pytest.raises(ValueError, match="not strictly decreasing"):
        crystal_sums(Shape((3, 3, 0)), [])


def _count_kernel_passes(monkeypatch):
    """Record the calls that list and score B(lam+rho) at the names
    laurent reads, the statistics triangles built, and any call of the
    listing name hpoly re-exports, which must see none."""
    calls = {"listed": [], "scored": [], "stats": [], "hpoly listed": []}
    real_list, real_kernel = laurent.enumerate_crystal, laurent.crystal_sums
    real_stats = bzl.decorate_via_stats

    def listed(shape, rank):
        calls["listed"].append((shape, rank))
        return real_list(shape, rank)

    def scored(shape, elements):
        calls["scored"].append(list(elements))
        return real_kernel(shape, calls["scored"][-1])

    def stats(t):
        calls["stats"].append(t)
        return real_stats(t)

    monkeypatch.setattr(laurent, "enumerate_crystal", listed)
    monkeypatch.setattr(laurent, "crystal_sums", scored)
    monkeypatch.setattr(bzl, "decorate_via_stats", stats)
    monkeypatch.setattr(hpoly, "enumerate_crystal", lambda *args: calls["hpoly listed"].append(args))
    return calls


def _assert_one_kernel_pass(calls, lam):
    shape = shifted(lam)
    assert calls["listed"] == [(shape, lam.rank)]
    assert calls["scored"] == [list(enumerate_crystal(shape, lam.rank))]
    assert calls["stats"] == calls["hpoly listed"] == []


def test_verify_scores_in_one_kernel_pass(capsys, monkeypatch):
    # one pass for both checks: the identity's right-hand side and the
    # reversed form share one scoring of B(lam+rho), and neither builds
    # a statistics triangle
    calls = _count_kernel_passes(monkeypatch)
    assert main(["verify", "--rank", "3", "--lambda", "1,0,0"]) == 0
    _assert_one_kernel_pass(calls, lambda_from_fundamental((1, 0, 0), 3))


@pytest.mark.parametrize("at", [None, "inf", "-1", "1"])
@pytest.mark.parametrize("fmt", ["text", "json", "csv", "latex"])
def test_hpoly_scores_in_one_kernel_pass(capsys, monkeypatch, fmt, at):
    # the H-table reads laurent.shifted_sums, the one place B(lam+rho) is
    # listed and scored, and the oracles of --at list no crystal
    calls = _count_kernel_passes(monkeypatch)
    argv = ["hpoly", "--rank", "3", "--lambda", "1,0,0", "--format", fmt]
    assert main(argv + (["--at", at] if at else [])) == 0
    _assert_one_kernel_pass(calls, lambda_from_fundamental((1, 0, 0), 3))
