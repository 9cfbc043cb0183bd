"""Raising and lowering operators on tableaux via the signature rule.

For a letter i the operators read the boxes holding i or i+1 row by
row from the top, each row right to left: its (i+1)s, then its is.  An
i is a '+' and an i+1 a '-'; adjacent "+-" pairs cancel until the
surviving signs are all '-' followed by all '+'.  The lowering operator
turns the i of the leftmost surviving '+' (its row's last i) into i+1,
the raising operator the i+1 of the rightmost surviving '-' (its row's
first i+1) into i.  Any admissible reading gives these operators
(Bump-Schilling, Crystal Bases, ch. 2); rows are sorted, so this one is
found by bisection.  Both changes keep rows weakly increasing and
columns strictly increasing, so the images are built without
re-validation.  surviving_slots does the cancellation; bzl's block
walk applies the same rule to runs of equal columns instead.

The enumeration needs no operator: it fills the rows of the shape
directly, memoizing per call the rows that fit under each (row index,
row above), so every tableau of one listing shares the tuple of each
distinct row.
"""

from bisect import bisect_left
from functools import lru_cache
from itertools import combinations_with_replacement
from operator import gt

from .rootsys import Shape
from .tableaux import Tableau


def signature(t: Tableau, i: int) -> tuple[list[int], list[int]]:
    """(word, row of each slot): the letters i+1 and i of t, read row by
    row from the top, each row right to left.  Row r holds no entry
    below r+1, so rows past the (i+1)th hold neither letter."""
    word, where = [], []
    j = i + 1
    for r, row in enumerate(t.rows[:j]):
        lo = bisect_left(row, i)
        mid = bisect_left(row, j, lo)
        hi = bisect_left(row, j + 1, mid)
        word += [j] * (hi - mid) + [i] * (mid - lo)
        where += [r] * (hi - lo)
    return word, where


def surviving_slots(word, i: int) -> tuple[list[int], list[int]]:
    """Slots of the '-' signs (letter i+1) and '+' signs (letter i) of
    word that survive cancellation, each list in reading order (other
    letters are no sign).

    Stack scan; a '-' consumes the nearest unmatched '+' to its left.
    """
    minus, plus = [], []
    j = i + 1
    for slot, x in enumerate(word):
        if x == i:
            plus.append(slot)
        elif x == j:
            if plus:
                plus.pop()
            else:
                minus.append(slot)
    return minus, plus


def _with_entry(t: Tableau, r: int, c: int, x: int) -> Tableau:
    """t with box (r, c) set to x; not validated."""
    row = t.rows[r]
    return Tableau(t.rank, t.rows[:r] + (row[:c] + (x,) + row[c + 1 :],) + t.rows[r + 1 :])


def f_op(t: Tableau, i: int) -> Tableau | None:
    """Lowering operator: turn an i into i+1, or None when no '+' survives."""
    _check_letter(t.rank, i)
    word, where = signature(t, i)
    plus = surviving_slots(word, i)[1]
    if not plus:
        return None
    r = where[plus[0]]
    return _with_entry(t, r, bisect_left(t.rows[r], i + 1) - 1, i + 1)


def e_op(t: Tableau, i: int) -> Tableau | None:
    """Raising operator: turn an i+1 into i, or None when no '-' survives."""
    _check_letter(t.rank, i)
    word, where = signature(t, i)
    minus = surviving_slots(word, i)[0]
    if not minus:
        return None
    r = where[minus[-1]]
    return _with_entry(t, r, bisect_left(t.rows[r], i + 1), i)


def phi(t: Tableau, i: int) -> int:
    """Largest k with f_op applicable k times (surviving '+' count)."""
    _check_letter(t.rank, i)
    return len(surviving_slots(signature(t, i)[0], i)[1])


def _check_letter(rank, i):
    if not 1 <= i <= rank:
        raise ValueError(f"operator index {i} outside 1..{rank}")


@lru_cache(maxsize=16)
def enumerate_crystal(shape: Shape, rank: int) -> tuple[Tableau, ...]:
    """Every semistandard tableau of the shape, sorted by row tuples.

    Rows are filled top down, one recursion level per row: row k
    (1-indexed) takes weakly increasing entries from k..rank+1 and fits
    under the row above when each entry exceeds the one above it.  Which
    rows fit depends on nothing else, so within one call each (k, row
    above) filters row k's candidates once and later visits reuse the
    list; each distinct row is then one tuple, shared by every tableau
    that holds it.  Candidates come in lexicographic order, so the
    listing comes out sorted.  B(shape) is connected, so this is also
    the closure of the highest-weight element under the lowering
    operators.
    """
    if shape.rank != rank:
        raise ValueError(f"shape has rank {shape.rank}, expected {rank}")
    parts = [p for p in shape.parts if p > 0]
    if not parts:
        return (Tableau(rank, ()),)
    candidates = [
        list(combinations_with_replacement(range(k + 1, rank + 2), p))
        for k, p in enumerate(parts)
    ]
    fits = {}  # (k, row above) -> the rows of row k that fit under it
    last = len(parts) - 1
    out = []

    def fill(k, prefix, above):
        rows = fits.get((k, above))
        if rows is None:
            rows = fits[k, above] = [row for row in candidates[k] if all(map(gt, row, above))]
        if k == last:
            out.extend([Tableau(rank, prefix + (row,)) for row in rows])
        else:
            for row in rows:
                fill(k + 1, prefix + (row,), row)

    fill(0, (), ())
    return tuple(out)
