import pytest
from hypothesis import given, settings, strategies as st

import oracles
from conftest import shifted_elements, suite_weights
from cscrystal.crystal import (
    TensorElement,
    e_op,
    enumerate_crystal,
    epsilon,
    f_op,
    highest_weight_tableau,
    i_signature,
    phi,
    reading_word,
    tensor_e_op,
    tensor_f_op,
)
from cscrystal.rootsys import GLWeight, Shape, simple_root
from cscrystal.tableaux import content, make_tableau
from frozen import CRYSTAL_SIZES


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
    sig = i_signature(word, 3)
    assert sig.render_raw() == "(+,+,-,·,+,·)"
    assert sig.render_reduced() == "(+,·,·,·,+,·)"
    assert sig.eps == 0 and sig.phi == 2
    assert e_op(t, 3) is None
    assert f_op(t, 3) == make_tableau(4, [[1, 3, 4], [3, 4], [5]])


def test_signature_word_direct():
    sig = i_signature((4, 3, 4, 1, 3, 5), 3)
    assert sig.render_raw() == "(-,+,-,·,+,·)"
    assert sig.render_reduced() == "(-,·,·,·,+,·)"
    assert sig.eps == 1 and sig.phi == 1
    assert sig.leftmost_plus() == 4
    assert sig.rightmost_minus() == 0


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
    assert epsilon(two, 1) == 1 and phi(two, 1) == 0
    assert phi(two, 2) == 1


def test_letter_range_errors():
    t = make_tableau(2, [[1]])
    with pytest.raises(ValueError):
        f_op(t, 0)
    with pytest.raises(ValueError):
        f_op(t, 3)
    with pytest.raises(ValueError):
        e_op(t, -1)


def test_highest_weight_tableau():
    hw = highest_weight_tableau(Shape((3, 2, 0)), 2)
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
    for parts in [(3, 2, 0), (2, 1, 0), (1, 0), (2, 2, 0), (4, 3, 2, 0), (4, 3, 2, 1, 0)]:
        rank = len(parts) - 1
        ours = {t.rows for t in enumerate_crystal(Shape(parts), rank)}
        brute = set(oracles.brute_force_ssyt(parts, rank + 1))
        assert ours == brute


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
                alpha = simple_root(i, rank)
                down = f_op(t, i)
                if down is not None:
                    assert content(down) == wt - alpha
                    assert e_op(down, i) == t
                up = e_op(t, i)
                if up is not None:
                    assert content(up) == wt + alpha
                    assert f_op(up, i) == t
                pairing = wt.coords[i - 1] - wt.coords[i]
                assert phi(t, i) - epsilon(t, i) == pairing


def test_epsilon_phi_count_applications():
    for t in enumerate_crystal(Shape((3, 2, 0)), 2):
        for i in (1, 2):
            walker, n = t, 0
            while (nxt := e_op(walker, i)) is not None:
                walker, n = nxt, n + 1
            assert n == epsilon(t, i)
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
        assert tops == [highest_weight_tableau(Shape(parts), rank)]


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
    sig = i_signature(word, i)
    assert sig.raw == tuple(signs)
    assert sig.surviving == tuple(reduced)


def test_tensor_signature_matches_word():
    # the reading word's signature is the tensor signature of its boxes
    for t in enumerate_crystal(Shape((3, 2, 0)), 2):
        word = reading_word(t)
        boxes = TensorElement(tuple(make_tableau(2, [[x]]) for x in word))
        for i in (1, 2):
            assert i_signature(boxes, i).surviving == i_signature(word, i).surviving


def test_tensor_operators():
    left = make_tableau(2, [[2], [3]])
    right = make_tableau(2, [[1, 2], [3]])
    pair = TensorElement((left, right))
    moved = tensor_f_op(pair, 1)
    assert moved == TensorElement((left, make_tableau(2, [[2, 2], [3]])))
    assert tensor_e_op(moved, 1) == pair
    assert pair.weight() == GLWeight((1, 2, 2))
    assert moved.weight() == GLWeight((0, 3, 2))


def test_tensor_single_factor_reduces_to_plain_op():
    for t in enumerate_crystal(Shape((2, 1, 0)), 2):
        for i in (1, 2):
            got = tensor_f_op(TensorElement((t,)), i)
            plain = f_op(t, i)
            if plain is None:
                assert got is None
            else:
                assert got == TensorElement((plain,))


def test_tensor_inverse_property():
    crystal_left = enumerate_crystal(Shape((1, 1, 0)), 2)
    crystal_right = enumerate_crystal(Shape((2, 1, 0)), 2)
    for a in crystal_left:
        for b in crystal_right:
            pair = TensorElement((a, b))
            for i in (1, 2):
                down = tensor_f_op(pair, i)
                if down is not None:
                    assert tensor_e_op(down, i) == pair
                up = tensor_e_op(pair, i)
                if up is not None:
                    assert tensor_f_op(up, i) == pair
