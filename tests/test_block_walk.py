"""The block lemma behind bzl._block_walk, the one walk of the package.

Block j of the walk (letters j, ..., 1) depends only on the tableau's
Gelfand-Tsetlin rows j and j+1, so bzl walks each block from its pair
of rows alone.  These tests hold that block walk equal to block j of
the slow twin tests/operator_walk.py, which raises the whole tableau
with the public e_op and phi, in step counts and boxed letters, on
tableaux of any shape: exhaustively at ranks 1-4 for rows up to a fixed
length, and on random tableaux at rank 5.  The twin's last element must
be the highest-weight tableau, and every block walk checks that it ends
at its own top.  They also hold the per-element sums of the whole-crystal
scorer's blocks equal to the marks of decorate_via_operators on every
crystal of the verification suite, and every block of its memo equal to
the statistics block (bzl.block_agrees), cell by cell.
"""

from bisect import bisect_right

from hypothesis import given, settings

from conftest import shifted_elements
from cscrystal.bzl import _block_walk, _mark_counts, block_agrees, crystal_scores, decorate_via_operators
from cscrystal.crystal import enumerate_crystal
from cscrystal.rootsys import Shape, rho
from operator_walk import operator_walk
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


def test_walk_counts_match_operator_marks_on_suite(suite):
    for lam in suite:
        r = lam.rank
        elements = shifted_elements(lam)
        blocks = {}
        got = [s[1:] for s in crystal_scores(Shape((lam + rho(r)).coords), r, elements, blocks)]
        assert got == [_mark_counts(decorate_via_operators(t)) for t in elements], lam
        assert blocks.keys() == {key for t in elements for key in gt_pairs(t)}, lam
        assert all(block_agrees(*key) for key in blocks), lam
