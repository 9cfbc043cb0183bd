"""The statistics kernels against their entry-by-entry twins.

Property tests at ranks 4 and 5 draw tableaux of random shapes (the
generators of test_word_kernel) and compare the one-histogram kernel's
triangle, marks, counts and memoized coefficients with
tests/stats_twin.py, whose boxes follow the theta rule on the b
statistics where the kernel reads an equality of Gelfand-Tsetlin rows.
The whole-crystal block kernel, bzl.crystal_scores, is held against
the contents and mark counts of decorate_via_stats on whole crystals
and on rank-5 samples, and its sums by weight, bzl.weight_sums, against
per-element sums.  G, read
from the mark counts, is held against the entry-by-entry product on
arbitrarily marked triangles and on operator-route triangles.  The
one-pass strictness scan is held against the scan over every threshold
and row pair.  Coefficients are checked against plain integer-list
sums and products (tests/oracles.py), not the package's own.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from cscrystal import bzl, laurent
from cscrystal.bzl import (
    _mark_counts,
    c_coefficient,
    c_counts,
    crystal_scores,
    decorate_via_operators,
    decorate_via_stats,
    g_from_triangle,
    weight_sums,
)
from cscrystal.cli import main
from cscrystal.crystal import enumerate_crystal
from cscrystal.rootsys import Shape, lambda_from_fundamental, partition_shape, rho
from cscrystal.tableaux import (
    DecoratedTriangle,
    content,
    first_strictness_violation,
    make_tableau,
    stats_a,
    stats_b,
)
from cscrystal.tpoly import TPoly
from oracles import c_product_twin, list_add
from stats_twin import (
    twin_counts,
    twin_decoration,
    twin_first_strictness_violation,
    twin_g_from_triangle,
    twin_stats_a,
    twin_stats_b,
)
from test_word_kernel import any_shape_tableaux, fill_shape, strict_shape_tableaux


@settings(max_examples=80, deadline=None)
@given(strict_shape_tableaux())
def test_kernel_decoration_matches_twin(t):
    grid, circled, boxed = twin_decoration(t.rank, t.rows)
    tri = decorate_via_stats(t)
    assert tri.grid == grid
    assert tri.circled == circled
    assert tri.boxed == boxed
    assert stats_a(t) == twin_stats_a(t.rank, t.rows)
    assert stats_b(t) == twin_stats_b(t.rank, t.rows)


@settings(max_examples=80, deadline=None)
@given(strict_shape_tableaux())
def test_kernel_counts_match_twin(t):
    assert c_counts(t) == twin_counts(t.rank, t.rows)


@settings(max_examples=80, deadline=None)
@given(strict_shape_tableaux())
def test_memoized_coefficient_equals_product(t):
    alive, box, non = twin_counts(t.rank, t.rows)
    want = c_product_twin(box, non) if alive else TPoly.zero()
    assert c_coefficient(t) == want
    assert c_coefficient(t) == want  # a second call reads the memo


def test_binomial_c_product_matches_repeated_multiplication():
    for box in range(13):
        for non in range(13):
            assert bzl._c_product(box, non) == c_product_twin(box, non), (box, non)


@st.composite
def marked_triangles(draw):
    """A triangle of entries 0..3 at rank 1..4 with arbitrary marks,
    doubly marked entries included."""
    rank = draw(st.integers(1, 4))
    index = [(i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]
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
    assert g_from_triangle(tri) == twin_g_from_triangle(tri)
    assert str(g_from_triangle(tri)) == str(twin_g_from_triangle(tri))


@settings(max_examples=40, deadline=None)
@given(strict_shape_tableaux())
def test_g_of_operator_triangle_matches_entrywise_product(t):
    tri = decorate_via_operators(t)
    assert g_from_triangle(tri) == twin_g_from_triangle(tri)


@pytest.mark.parametrize(
    "parts", [(1, 1, 1, 1), (3, 1, 1, 0), (2, 2, 1, 0), (3, 2, 1, 0), (4, 4, 0, 0)]
)
def test_stats_match_twin_on_every_tableau(parts):
    # non-strict shapes too, and a column of rank+1 boxes whose last
    # row never enters a statistic
    for t in enumerate_crystal(Shape(parts), 3):
        assert stats_a(t) == twin_stats_a(3, t.rows)
        assert stats_b(t) == twin_stats_b(3, t.rows)


@settings(max_examples=80, deadline=None)
@given(any_shape_tableaux())
def test_stats_match_twin_on_any_shape(t):
    assert stats_a(t) == twin_stats_a(t.rank, t.rows)
    assert stats_b(t) == twin_stats_b(t.rank, t.rows)


@settings(max_examples=150, deadline=None)
@given(st.one_of(any_shape_tableaux(), strict_shape_tableaux(1, 5)))
def test_strictness_scan_matches_twin(t):
    want = twin_first_strictness_violation(t.rank, t.rows)
    assert first_strictness_violation(t) == want


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
        shape = partition_shape(lam + rho(lam.rank))
        yield shape, lam.rank, enumerate_crystal(shape, lam.rank)


def test_kernel_counts_match_triangle_on_crystals():
    for shape, rank, elements in _kernel_crystals():
        scored = list(crystal_scores(shape, rank, elements))
        assert len(scored) == len(elements)
        for t, (w, *counts) in zip(elements, scored):
            assert w == content(t).coords
            assert tuple(counts) == _mark_counts(decorate_via_stats(t))


def test_weight_sums_match_per_element_sums():
    for shape, rank, elements in _kernel_crystals():
        if rank > 3:
            continue
        want = {}
        for t in elements:
            w = content(t).coords
            want[w] = list_add(want.get(w, []), c_coefficient(t).coeffs)
        got = weight_sums(crystal_scores(shape, rank, elements))
        assert list(got) == list(want)  # first-seen order
        assert got == {w: TPoly(tuple(c)) for w, c in want.items()}
    # a weight whose elements all die is kept, with sum zero
    t = make_tableau(2, [[1, 1, 2], [2]])
    assert weight_sums([(content(t).coords, False, 1, 2)]) == {(2, 2, 0): TPoly.zero()}


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
    for t, (w, *counts) in zip(elements, crystal_scores(shape, 5, elements), strict=True):
        assert w == content(t).coords
        assert tuple(counts) == _mark_counts(decorate_via_stats(t))


def _assert_circles_read_row(t):
    tri = decorate_via_stats(t)
    for (i, j), _ in tri.items():
        assert ((i, j) in tri.circled) == (j + 1 not in t.rows[i - 1])


def test_circled_iff_row_holds_no_successor(suite):
    # a_{i,j} - a_{i-1,j} counts the j+1's in row i, so (i, j) is
    # circled exactly when row i holds no j+1
    for lam in suite:
        shape = partition_shape(lam + rho(lam.rank))
        for t in enumerate_crystal(shape, lam.rank):
            _assert_circles_read_row(t)


@settings(max_examples=60, deadline=None)
@given(strict_shape_tableaux())
def test_circled_iff_row_holds_no_successor_at_ranks_4_and_5(t):
    _assert_circles_read_row(t)


def test_kernel_rejects_shape_with_nonzero_last_part():
    with pytest.raises(ValueError, match=r"\(4, 2, 1\) has last part 1"):
        list(crystal_scores(Shape((4, 2, 1)), 2, []))
    with pytest.raises(ValueError, match="not strictly decreasing"):
        list(crystal_scores(Shape((3, 3, 0)), 2, []))


def test_verify_scores_in_one_kernel_pass(capsys, monkeypatch):
    # one pass for both checks: the identity's right-hand side and the
    # reversed form share one scoring of B(lam+rho), and neither builds
    # a statistics triangle
    passes, stats_calls, sums_calls = [], [], []
    real_kernel, real_stats = laurent.crystal_scores, bzl.decorate_via_stats
    real_sums = laurent.weight_sums

    def counted_kernel(shape, rank, elements, blocks=None):
        passes.append(list(elements))
        return real_kernel(shape, rank, passes[-1], blocks)

    def counted_stats(t):
        stats_calls.append(t)
        return real_stats(t)

    def counted_sums(scores):
        sums_calls.append(scores)
        return real_sums(scores)

    monkeypatch.setattr(laurent, "crystal_scores", counted_kernel)
    monkeypatch.setattr(bzl, "decorate_via_stats", counted_stats)
    monkeypatch.setattr(laurent, "weight_sums", counted_sums)
    assert main(["verify", "--rank", "3", "--lambda", "1,0,0"]) == 0
    lam = lambda_from_fundamental((1, 0, 0), 3)
    elements = enumerate_crystal(partition_shape(lam + rho(3)), 3)
    assert passes == [list(elements)]
    assert len(sums_calls) == 1
    assert stats_calls == []
