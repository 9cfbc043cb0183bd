"""The block lemma behind bzl._block_walk, the one walk of the package.

Block j of the walk (letters j, ..., 1) depends only on the tableau's
Gelfand-Tsetlin rows j and j+1, so bzl walks each block from its pair
of rows alone.  These tests hold that block walk equal to block j of
the slow twin tests/operator_walk.py, which raises the whole tableau
with the public e_op and phi, in step counts and boxed letters, on
tableaux of any shape: exhaustively at ranks 1-4 for rows up to a fixed
length, and on random tableaux at rank 5.  The twin's last element must
be the highest-weight tableau, and every block walk checks that it ends
at its own top.  They also hold the per-element mark counts of the
former whole-crystal route (tests/oracles.py) equal to the marks of
decorate_via_operators, and bzl.crystal_sums equal to the walk's C
summed by weight, on every crystal of the verification suite.  The row
pass bzl.gt_blocks must yield, once each, exactly the blocks of the
listed crystal's elements, on the suite and at ranks 4 and 5, and every
block it yields must equal the statistics block (bzl.block_agrees),
cell by cell.

bzl._block_walk raises runs of equal columns, so its cost does not
grow with row length; its twin word_block_walk raises the block's whole
reading word.  The two must agree on every interlacing pair of GT rows
up to a size and on random pairs with rows up to 60 long, the run walk
must equal the statistics block on random pairs with rows up to 10^6
long, and it must refuse rows that do not interlace, where it would
drop columns.  Its stage, bzl._raise_runs, must apply the signature
rule of crystal.surviving_slots to runs given in any order.
"""

import pytest

from bisect import bisect_right
from itertools import product

from hypothesis import given, settings, strategies as st

from conftest import shifted_elements
from cscrystal.bzl import (
    _block_walk,
    _mark_counts,
    _raise_runs,
    block_agrees,
    c_coefficient,
    crystal_sums,
    decorate_via_operators,
    gt_blocks,
)
from cscrystal.crystal import enumerate_crystal, surviving_slots
from cscrystal.rootsys import Shape, lambda_from_fundamental, shifted
from cscrystal.tableaux import content
from cscrystal.tpoly import TPoly
from operator_walk import operator_walk, word_block_walk
from oracles import crystal_scores, list_add
from test_word_kernel import any_shape_tableaux


def gt_row(t, j):
    """Per row 1..j of t, the number of entries <= j."""
    rows = t.rows + ((),) * j
    return tuple(bisect_right(row, j) for row in rows[:j])


def gt_pairs(t):
    """(GT row j, GT row j+1) of t for j = 1..rank."""
    return [(gt_row(t, j), gt_row(t, j + 1)) for j in range(1, t.rank + 1)]


def check_blocks(t, walked):
    """Each block of t's operator walk equals the walk of its GT row pair,
    and the operator walk ends at the top; walked memoizes _block_walk by
    that pair."""
    entries, boxed, top = operator_walk(t)
    assert top.rows == tuple((i,) * len(row) for i, row in enumerate(t.rows, start=1)), t
    for j in range(1, t.rank + 1):
        key = (gt_row(t, j), gt_row(t, j + 1))
        if key not in walked:
            walked[key] = _block_walk(*key)
        block = {cell: a for cell, a in entries.items() if cell[1] == j}
        assert walked[key] == (block, {cell for cell in boxed if cell[1] == j}), (t, j)


def partitions(parts, largest):
    """Weakly decreasing tuples of the given length with entries <= largest."""
    if parts == 0:
        yield ()
        return
    for p in range(largest, -1, -1):
        for rest in partitions(parts - 1, p):
            yield (p,) + rest


def test_blocks_match_whole_walk_exhaustively():
    # every shape with rank+1 rows of length <= longest, strict or not:
    # 7752 tableaux in all
    for rank, longest in [(1, 6), (2, 5), (3, 4), (4, 3)]:
        walked = {}
        for parts in partitions(rank + 1, longest):
            for t in enumerate_crystal(Shape(parts), rank):
                check_blocks(t, walked)


@settings(max_examples=80, deadline=None)
@given(any_shape_tableaux(5, 5))
def test_blocks_match_whole_walk_at_rank_5(t):
    check_blocks(t, {})


def row_pass_blocks(lam, elements):
    """gt_blocks under lam+rho, held to the GT row pairs of the listed
    elements of B(lam+rho): each of them once, and nothing else."""
    blocks = list(gt_blocks(shifted(lam).parts))
    assert len(set(blocks)) == len(blocks), lam
    assert set(blocks) == {key for t in elements for key in gt_pairs(t)}, lam
    return blocks


def test_walk_counts_match_operator_marks_on_suite(suite):
    for lam in suite:
        elements = shifted_elements(lam)
        walks = [decorate_via_operators(t) for t in elements]
        got = [s[1:] for s in crystal_scores(shifted(lam), elements)]
        assert got == [_mark_counts(tri) for tri in walks], lam
        want = {}
        for t, tri in zip(elements, walks):
            want[content(t)] = list_add(want.get(content(t), []), c_coefficient(tri).coeffs)
        assert crystal_sums(shifted(lam), elements) == {w: TPoly(tuple(c)) for w, c in want.items()}
        assert all(block_agrees(*key) for key in row_pass_blocks(lam, elements)), lam


@pytest.mark.parametrize(
    "coeffs, count", [((1, 0, 0, 0), 444), ((0, 0, 0, 0, 0), 1140), ((1, 0, 0, 0, 0), 2012)]
)
def test_row_pass_is_the_listing_at_ranks_4_and_5(coeffs, count):
    lam = lambda_from_fundamental(coeffs, len(coeffs))
    try:
        assert len(row_pass_blocks(lam, shifted_elements(lam))) == count
    finally:
        enumerate_crystal.cache_clear()  # keep no rank-5 crystal for later tests


def interlacing_pairs(j, largest):
    """Every (lower, upper) with len(upper) = j+1, entries <= largest,
    and upper_1 >= lower_1 >= upper_2 >= ... >= lower_j >= upper_{j+1}."""
    for upper in partitions(j + 1, largest):
        for lower in product(*(range(b, a + 1) for a, b in zip(upper, upper[1:]))):
            yield lower, upper


@pytest.mark.parametrize("largest_j, largest, count", [(4, 7, 15784), (5, 5, 7470)])
def test_column_walk_matches_word_walk(largest_j, largest, count):
    pairs = [p for j in range(1, largest_j + 1) for p in interlacing_pairs(j, largest)]
    assert len(pairs) == count
    for lower, upper in pairs:
        assert _block_walk(lower, upper) == word_block_walk(lower, upper), (lower, upper)


@st.composite
def interlacing_pair(draw, largest_j, largest):
    """A random (lower, upper) as in interlacing_pairs, with j <= largest_j."""
    j = draw(st.integers(1, largest_j))
    parts = draw(st.lists(st.integers(0, largest), min_size=j + 1, max_size=j + 1))
    upper = tuple(sorted(parts, reverse=True))
    lower = tuple(draw(st.integers(b, a)) for a, b in zip(upper, upper[1:]))
    return lower, upper


@settings(max_examples=150, deadline=None)
@given(interlacing_pair(7, 60))
def test_run_walk_matches_word_walk_on_long_rows(pair):
    assert _block_walk(*pair) == word_block_walk(*pair)


@settings(max_examples=300, deadline=None)
@given(interlacing_pair(8, 10**6))
def test_run_walk_matches_statistics_on_very_long_rows(pair):
    # the word walk would take seconds per pair here; the run walk's
    # cost does not depend on the row lengths
    assert block_agrees(*pair)


@st.composite
def stage_runs(draw):
    """A stage i and runs (height, mover, count) in any order, with
    heights near i and movers among 0, i, i+1, i+2, so that every kind
    of sign turns up."""
    i = draw(st.integers(1, 5))
    run = st.tuples(st.integers(0, i + 1), st.sampled_from([0, i, i + 1, i + 2]), st.integers(1, 4))
    return i, draw(st.lists(run, max_size=10))


@settings(max_examples=300, deadline=None)
@given(stage_runs())
def test_raise_runs_is_the_signature_rule_on_runs(stage):
    # runs in any order, not only the walk's rising heights: a '-' run
    # met by open '+' columns must split where surviving_slots says
    i, runs = stage

    def sign(g, m):
        if g == i and m != i + 1:
            return i
        return i + 1 if g < i and m == i + 1 else 0

    columns = [(g, m) for g, m, n in runs for _ in range(n)]
    minus, plus = surviving_slots([sign(g, m) for g, m in columns], i)
    for k in minus:
        columns[k] = (columns[k][0], i)
    assert _raise_runs(runs, i) == (len(minus), len(plus))
    assert [(g, m) for g, m, n in runs for _ in range(n)] == columns
    assert all(n > 0 for _, _, n in runs)


@pytest.mark.parametrize(
    "lower, upper",
    [
        ((3,), (2, 0)),  # lower_1 > upper_1
        ((1,), (2, 2)),  # upper_2 > lower_1
        ((2, 1), (3, 2, 2)),  # upper_3 > lower_2
    ],
)
def test_block_walk_refuses_rows_that_do_not_interlace(lower, upper):
    with pytest.raises(RuntimeError, match="do not interlace"):
        _block_walk(lower, upper)
