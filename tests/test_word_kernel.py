"""Property tests of the word kernel at ranks 4 and 5.

Tableaux are drawn from random strict shapes, past the ranks the
exhaustive suite covers, and the kernel is held against its slow twins:
the operator walk built from public e_op/phi calls, the statistics
route, and full validation of every operator image.
"""

from hypothesis import given, settings, strategies as st

from cscrystal.bzl import _walk, bzl_path, decorate_via_operators, decorate_via_stats
from cscrystal.crystal import e_op, epsilon, f_op, phi
from cscrystal.tableaux import make_tableau, stats_a
from operator_walk import operator_walk


def fill_shape(draw, rank, parts):
    """A semistandard tableau of shape parts with entries in 1..rank+1.

    Row by row, each entry lies between its left neighbour (and one more
    than the entry above) and the largest value that still leaves room
    for the boxes below it in its column.
    """
    heights = [sum(1 for p in parts if p > col) for col in range(max(parts, default=0))]
    rows = []
    for i, length in enumerate(parts):
        row = []
        for col in range(length):
            low = max(row[-1] if row else 1, rows[-1][col] + 1 if rows else 1)
            high = rank + 1 - (heights[col] - 1 - i)
            row.append(draw(st.integers(low, high)))
        rows.append(row)
    return make_tableau(rank, rows)


@st.composite
def strict_shape_tableaux(draw, low=4, high=5):
    """A semistandard tableau of a random strict shape at a rank in
    low..high, by default 4 or 5."""
    rank = draw(st.integers(low, high))
    gaps = draw(st.lists(st.integers(1, 2), min_size=rank, max_size=rank))
    parts = [sum(gaps[k:]) for k in range(rank)]
    return fill_shape(draw, rank, parts)


@st.composite
def any_shape_tableaux(draw, low=4, high=5):
    """A semistandard tableau of a random shape at a rank in low..high,
    by default 4 or 5.

    Most shapes drawn repeat a part or end in a nonzero part, so they
    are not strict; a full column of rank+1 boxes is allowed.
    """
    rank = draw(st.integers(low, high))
    parts = draw(st.lists(st.integers(0, 4), min_size=rank + 1, max_size=rank + 1))
    return fill_shape(draw, rank, sorted(parts, reverse=True))


@settings(max_examples=60, deadline=None)
@given(strict_shape_tableaux())
def test_kernel_walk_matches_operator_walk(t):
    assert _walk(t) == operator_walk(t)


@settings(max_examples=60, deadline=None)
@given(strict_shape_tableaux())
def test_decoration_routes_agree_at_ranks_4_and_5(t):
    assert decorate_via_operators(t) == decorate_via_stats(t)
    assert bzl_path(t) == stats_a(t)


@settings(max_examples=60, deadline=None)
@given(strict_shape_tableaux())
def test_operator_images_are_valid_and_inverse(t):
    # the word kernel builds images without validation; make_tableau
    # must accept every one of them unchanged
    for i in range(1, t.rank + 1):
        down = f_op(t, i)
        if down is not None:
            assert make_tableau(t.rank, down.rows) == down
            assert e_op(down, i) == t
        up = e_op(t, i)
        if up is not None:
            assert make_tableau(t.rank, up.rows) == up
            assert f_op(up, i) == t
        assert (down is None) == (phi(t, i) == 0)
        assert (up is None) == (epsilon(t, i) == 0)
