from itertools import combinations_with_replacement

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import shifted_elements, suite_weights
from cscrystal.crystal import (
    e_op,
    enumerate_crystal,
    f_op,
    phi,
    signature,
    surviving_slots,
)
from cscrystal.rootsys import GLWeight, Shape
from cscrystal.tableaux import content, make_tableau
from frozen import CRYSTAL_SIZES
from operator_walk import reading_word, word_e_op, word_epsilon, word_f_op, word_phi


def test_reading_word():
    t = make_tableau(2, [[1, 1, 2], [2, 3]])
    assert reading_word(t) == (2, 1, 3, 1, 2)
    assert reading_word(make_tableau(2, [])) == ()
    col = make_tableau(2, [[1], [2], [3]])
    assert reading_word(col) == (1, 2, 3)


def test_signature_fixture():
    # rank-4 tableau whose 3-signature exercises the cancellation scan
    t = make_tableau(4, [[1, 3, 3], [3, 4], [5]])
    word = reading_word(t)
    assert word == (3, 3, 4, 1, 3, 5)
    assert surviving_slots(word, 3) == ([], [0, 4])
    # the operators read only the 3s and 4s, row by row, each right to left
    assert signature(t, 3) == ([3, 3, 4, 3], [0, 0, 1, 1])
    assert word_epsilon(t, 3) == 0 and phi(t, 3) == 2
    assert e_op(t, 3) is None
    assert f_op(t, 3) == make_tableau(4, [[1, 3, 4], [3, 4], [5]])


def test_signature_word_direct():
    # signs (-,+,-,·,+,·): the '+' at slot 1 cancels the '-' at slot 2
    assert surviving_slots((4, 3, 4, 1, 3, 5), 3) == ([0], [4])


def test_operators_on_single_boxes():
    one = make_tableau(2, [[1]])
    two = make_tableau(2, [[2]])
    three = make_tableau(2, [[3]])
    assert f_op(one, 1) == two
    assert f_op(two, 2) == three
    assert f_op(one, 2) is None
    assert f_op(three, 1) is None
    assert f_op(three, 2) is None
    assert e_op(two, 1) == one
    assert e_op(one, 1) is None
    assert word_epsilon(two, 1) == 1 and phi(two, 1) == 0
    assert phi(two, 2) == 1


def test_letter_range_errors():
    t = make_tableau(2, [[1]])
    with pytest.raises(ValueError):
        f_op(t, 0)
    with pytest.raises(ValueError):
        f_op(t, 3)
    with pytest.raises(ValueError):
        e_op(t, -1)


def test_operators_match_column_word_twins_on_small_shapes():
    # every (element, letter) pair of every shape up to rank 4 with parts
    # at most 4: the row reading and the column word give the same
    # operators, and every image the operators build unvalidated is a
    # semistandard tableau
    pairs = 0
    sweep = [
        (parts, rank)
        for rank in range(1, 5)
        for parts in combinations_with_replacement(range(4, -1, -1), rank + 1)
    ]
    for parts, rank in sweep:
        for t in enumerate_crystal(Shape(parts), rank):
            for i in range(1, rank + 1):
                pairs += 1
                assert phi(t, i) == word_phi(t, i)
                for op, twin in ((f_op, word_f_op), (e_op, word_e_op)):
                    image = op(t, i)
                    assert image == twin(t, i)
                    if image is not None:
                        assert image == make_tableau(rank, image.rows)
    assert pairs == 122195


def test_highest_weight_tableau():
    hw = oracles.highest_weight_tableau(Shape((3, 2, 0)), 2)
    assert hw == make_tableau(2, [[1, 1, 1], [2, 2]])
    for i in (1, 2):
        assert e_op(hw, i) is None
    assert content(hw) == GLWeight((3, 2, 0))


def test_enumeration_counts():
    for parts, size in CRYSTAL_SIZES.items():
        rank = len(parts) - 1
        got = enumerate_crystal(Shape(parts), rank)
        assert len(got) == size
        assert len(set(got)) == size


def test_enumeration_matches_brute_force():
    # as lists: the enumerate and graph commands print in this order
    for parts in [(3, 2, 0), (2, 1, 0), (1, 0), (2, 2, 0), (4, 3, 2, 0), (4, 3, 2, 1, 0)]:
        rank = len(parts) - 1
        ours = [t.rows for t in enumerate_crystal(Shape(parts), rank)]
        assert ours == oracles.brute_force_ssyt(parts, rank + 1)


@st.composite
def shapes(draw):
    """(parts, rank) at ranks 1..4 with parts at most 3, any shape.

    Equal parts and shapes that do not end in 0 come often: there the
    same (row index, row above) pairs recur most in the listing.
    """
    rank = draw(st.integers(1, 4))
    parts = draw(st.lists(st.integers(0, 3), min_size=rank + 1, max_size=rank + 1))
    return tuple(sorted(parts, reverse=True)), rank


@settings(max_examples=100, deadline=None)
@given(shapes())
def test_enumeration_matches_brute_force_on_drawn_shapes(shape):
    parts, rank = shape
    ours = [t.rows for t in enumerate_crystal(Shape(parts), rank)]
    assert ours == oracles.brute_force_ssyt(parts, rank + 1)


def test_listing_holds_each_distinct_row_once():
    # the rows that fit under one row are listed once per call, so all
    # tableaux that hold a row hold the same tuple; the parts differ, so
    # two equal rows sit in the same row of the shape
    crystal = enumerate_crystal(Shape((5, 3, 2, 1, 0)), 4)
    rows = [row for t in crystal for row in t.rows]
    assert len({id(row) for row in rows}) == len(set(rows))


@pytest.mark.parametrize(
    "parts",
    [(0, 0), (3, 2, 0), (2, 2, 0), (2, 1, 1, 0), (4, 3, 2, 0), (4, 3, 2, 1, 0), (5, 3, 2, 1, 0)],
)
def test_enumeration_matches_bfs_closure(parts):
    rank = len(parts) - 1
    assert list(enumerate_crystal(Shape(parts), rank)) == oracles.bfs_crystal(Shape(parts), rank)


def test_enumeration_of_one_long_row():
    # the filler recurses per row, not per cell
    assert len(enumerate_crystal(Shape((1500, 0)), 1)) == 1501


def test_enumeration_weyl_dimension():
    for parts in [(3, 2, 0), (5, 3, 2, 0), (6, 3, 0), (2, 1, 1, 0)]:
        rank = len(parts) - 1
        assert len(enumerate_crystal(Shape(parts), rank)) == oracles.weyl_dimension(
            parts
        )


def test_enumeration_cache_is_bounded():
    bound = enumerate_crystal.cache_info().maxsize
    assert bound == 16
    shapes = [Shape((a, b, 0)) for a in range(1, 7) for b in range(a + 1)]
    assert len(shapes) > bound
    for shape in shapes:
        enumerate_crystal(shape, 2)
    assert enumerate_crystal.cache_info().currsize <= bound
    enumerate_crystal.cache_clear()
    assert enumerate_crystal.cache_info().currsize == 0


def test_crystal_axioms_on_suite():
    # f and e are mutually inverse partial maps and shift the weight by
    # a simple root; phi - eps equals the weight pairing.
    for lam in suite_weights():
        rank = lam.rank
        for t in shifted_elements(lam):
            wt = content(t)
            for i in range(1, rank + 1):
                # the simple root e_i - e_{i+1}
                alpha = GLWeight(tuple(int(k == i) - int(k == i + 1) for k in range(1, rank + 2)))
                down = f_op(t, i)
                if down is not None:
                    assert content(down) == wt - alpha
                    assert e_op(down, i) == t
                up = e_op(t, i)
                if up is not None:
                    assert content(up) == wt + alpha
                    assert f_op(up, i) == t
                pairing = wt.coords[i - 1] - wt.coords[i]
                assert phi(t, i) - word_epsilon(t, i) == pairing


def test_epsilon_phi_count_applications():
    for t in enumerate_crystal(Shape((3, 2, 0)), 2):
        for i in (1, 2):
            walker, n = t, 0
            while (nxt := e_op(walker, i)) is not None:
                walker, n = nxt, n + 1
            assert n == word_epsilon(t, i)
            walker, n = t, 0
            while (nxt := f_op(walker, i)) is not None:
                walker, n = nxt, n + 1
            assert n == phi(t, i)


def test_unique_highest_weight_element():
    for parts in [(3, 2, 0), (2, 1, 0), (4, 3, 2, 0)]:
        rank = len(parts) - 1
        crystal = enumerate_crystal(Shape(parts), rank)
        tops = [
            t
            for t in crystal
            if all(e_op(t, i) is None for i in range(1, rank + 1))
        ]
        assert tops == [oracles.highest_weight_tableau(Shape(parts), rank)]


def test_maximal_e1_clears_row_one_twos():
    # applying e_1 until it dies turns every 2 in row 1 into a 1
    for lam in suite_weights():
        if lam.rank > 2:
            continue
        for t in shifted_elements(lam):
            walker = t
            while (nxt := e_op(walker, 1)) is not None:
                walker = nxt
            assert not walker.rows or 2 not in walker.rows[0]


@settings(max_examples=200)
@given(st.lists(st.integers(min_value=1, max_value=4), max_size=12), st.integers(1, 3))
def test_cancellation_matches_repeated_rescan(word, i):
    # oracle: repeatedly delete adjacent (+, -) pairs until none remain
    signs = []
    for idx, x in enumerate(word):
        if x == i:
            signs.append((idx, "+"))
        elif x == i + 1:
            signs.append((idx, "-"))
    reduced = list(signs)
    changed = True
    while changed:
        changed = False
        for k in range(len(reduced) - 1):
            if reduced[k][1] == "+" and reduced[k + 1][1] == "-":
                del reduced[k : k + 2]
                changed = True
                break
    minus, plus = surviving_slots(word, i)
    assert [(k, "-") for k in minus] + [(k, "+") for k in plus] == reduced

