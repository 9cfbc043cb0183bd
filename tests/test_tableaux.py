import json

import pytest

from cscrystal.rootsys import GLWeight
from cscrystal.tableaux import (
    BZL_LAYOUT,
    DecoratedTriangle,
    content,
    is_strict,
    make_tableau,
    parse_tableau,
)
from stats_twin import twin_stats_a, twin_stats_b


def test_make_tableau_valid():
    t = make_tableau(2, [[1, 1, 2], [2, 3]])
    assert t.rank == 2
    assert t.rows == ((1, 1, 2), (2, 3))
    assert sum(map(len, t.rows)) == 5


def test_make_tableau_drops_empty_rows():
    t = make_tableau(2, [[1, 1], []])
    assert t.rows == ((1, 1),)


def test_make_tableau_rejects_nonempty_row_after_empty_one():
    # dropping the empty row first would read these as the tableaux
    # with rows [[1]] and [[1], [2]]
    with pytest.raises(ValueError, match="row 1 is empty"):
        make_tableau(2, [[], [1]])
    with pytest.raises(ValueError, match="row 2 is empty"):
        make_tableau(2, [[1], [], [2]])


def test_make_tableau_rejects_bad_input():
    with pytest.raises(ValueError):
        make_tableau(1, [[2, 1]])  # row decreases
    with pytest.raises(ValueError):
        make_tableau(1, [[1, 1], [1]])  # column not strict
    with pytest.raises(ValueError):
        make_tableau(1, [[1], [1, 2]])  # row lengths increase
    with pytest.raises(ValueError):
        make_tableau(1, [[1, 3]])  # entry above rank + 1
    with pytest.raises(ValueError):
        make_tableau(1, [[1], [2], [2]])  # too many rows
    with pytest.raises(ValueError):
        make_tableau(1, [[0, 1]])  # entries start at 1
    # bool is an int subclass, so a JSON true would otherwise read as 1
    with pytest.raises(ValueError, match="entry True in row 1 is not an integer"):
        make_tableau(2, [[True, 2]])
    with pytest.raises(ValueError, match="rank True is not an integer"):
        make_tableau(True, [[1]])


def test_text_roundtrip():
    t = make_tableau(3, [[1, 1, 2, 2, 3], [2, 3, 3], [3, 4]])
    assert t.to_text() == "1 1 2 2 3 / 2 3 3 / 3 4"
    assert parse_tableau(3, t.to_text()) == t
    empty = make_tableau(2, [])
    assert empty.to_text() == "∅"
    assert parse_tableau(2, "∅") == empty
    assert parse_tableau(2, "") == empty


def test_json_roundtrip():
    # the JSON form is output only: its bytes parse back to the dict,
    # which holds the rank and every row
    t = make_tableau(2, [[1, 2, 2], [3, 3]])
    parsed = json.loads(json.dumps(t.to_json_dict()))
    assert parsed == t.to_json_dict() == {"rank": 2, "rows": [[1, 2, 2], [3, 3]]}


def test_content():
    t = make_tableau(2, [[1, 1, 2], [2, 3]])
    assert content(t) == GLWeight((2, 2, 1))
    big = make_tableau(3, [[1, 1, 2, 2, 3], [2, 3, 3], [3, 4]])
    assert content(big) == GLWeight((2, 3, 4, 1))
    assert sum(content(big).coords) == sum(map(len, big.rows))


def test_stats_grids():
    b2 = make_tableau(3, [[1, 1, 2, 2, 3], [2, 3, 3], [3, 4]])
    a = twin_stats_a(b2.rank, b2.rows)
    assert a.grid == ((2, 1, 0), (3, 0), (1,))
    b = twin_stats_b(b2.rank, b2.rows)
    assert b.grid == ((3, 1, 0), (2, 0), (1,))
    # out-of-range reads are zero
    assert a.entry(0, 1) == 0
    assert a.entry(1, 4) == 0
    assert a.entry(2, 1) == 0


def test_stats_small_examples():
    b5 = make_tableau(2, [[2, 2], [3]])
    assert twin_stats_a(b5.rank, b5.rows).grid == ((2, 0), (1,))
    b1 = make_tableau(2, [[1, 2, 2], [3, 3]])
    assert twin_stats_b(b1.rank, b1.rows).grid == ((2, 0), (2,))


def test_triangular_array_shape():
    tri = DecoratedTriangle(3, ((11, 12, 13), (22, 23), (33,)))
    assert tri.entry(1, 3) == 13
    assert tri.entry(3, 3) == 33
    assert tri.entry(2, 1) == 0
    assert tri.circled == tri.boxed == frozenset()
    assert tri.inline() == "(11, 12, 13; 22, 23; 33)"
    assert tri.inline(BZL_LAYOUT) == "(11; 22, 12; 33, 23, 13)"
    cells = [(i, j) for i in range(1, 4) for j in range(i, 4)]
    assert [tri.entry(*cell) for cell in cells] == [11, 12, 13, 22, 23, 33]
    with pytest.raises(ValueError):
        DecoratedTriangle(2, ((1, 2), (3, 4)))
    with pytest.raises(ValueError):
        DecoratedTriangle(2, ((1, 2), (3,)), circled=frozenset({(2, 1)}))
    with pytest.raises(ValueError):
        tri.inline("PATH")


def test_strictness():
    assert is_strict(make_tableau(2, [[1, 2, 2], [3, 3]]))
    assert is_strict(make_tableau(1, [[1, 1]]))
    b4 = make_tableau(2, [[1, 3], [2]])
    assert not is_strict(b4)
    # a lone large entry dominating the next row does not by itself
    # pinch any truncation: this one stays strict
    assert is_strict(make_tableau(2, [[1, 1, 3], [2]]))
    assert is_strict(make_tableau(3, [[1, 1, 1, 2, 4], [2, 2, 3], [3, 4]]))
    ok = make_tableau(3, [[1, 1, 2, 2, 3], [2, 3, 3], [3, 4]])
    assert is_strict(ok)
    # equal truncation counts deeper in the tableau are caught
    pinched = make_tableau(2, [[1, 1], [2, 2]])
    assert not is_strict(pinched)
