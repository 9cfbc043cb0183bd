"""The one-histogram statistics kernel against its entry-by-entry twin.

Property tests at ranks 4 and 5 draw tableaux of random strict shapes
(the generator of test_word_kernel) and compare the kernel's triangle,
marks, counts and memoized coefficients with tests/stats_twin.py.  G,
read from the mark counts, is held against the entry-by-entry product on
arbitrarily marked triangles and on operator-route triangles.
"""

import pytest
from hypothesis import given, settings, strategies as st

from cscrystal import bzl
from cscrystal.bzl import (
    c_coefficient,
    c_counts,
    decorate_via_operators,
    decorate_via_stats,
    g_from_triangle,
)
from cscrystal.cli import main
from cscrystal.crystal import enumerate_crystal
from cscrystal.rootsys import Shape, lambda_from_fundamental, partition_shape, rho
from cscrystal.tableaux import DecoratedTriangle, stats_a, stats_b
from cscrystal.tpoly import TPoly
from stats_twin import (
    twin_counts,
    twin_decoration,
    twin_g_from_triangle,
    twin_stats_a,
    twin_stats_b,
)
from test_word_kernel import strict_shape_tableaux


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
    want = TPoly((0, -1)) ** box * TPoly((1, -1)) ** non if alive else TPoly.zero()
    assert c_coefficient(t) == want
    assert c_coefficient(t) == want  # a second call reads the memo


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


def test_verify_builds_one_triangle_per_element(capsys, monkeypatch):
    calls = []
    real = bzl.decorate_via_stats

    def counted(t):
        calls.append(t)
        return real(t)

    monkeypatch.setattr(bzl, "decorate_via_stats", counted)
    assert main(["verify", "--rank", "3", "--lambda", "1,0,0"]) == 0
    lam = lambda_from_fundamental((1, 0, 0), 3)
    elements = enumerate_crystal(partition_shape(lam + rho(3)), 3)
    assert len(calls) == len(elements)
    assert set(calls) == set(elements)
