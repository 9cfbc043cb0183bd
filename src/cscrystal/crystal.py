"""Raising and lowering operators on tableaux via the signature rule.

The reading word scans columns right to left, each column top to
bottom.  For a letter i, every box holding i contributes '+' and every
box holding i+1 contributes '-'; adjacent "+-" pairs cancel until the
surviving signs are all '-' followed by all '+'.  The lowering operator
acts at the leftmost surviving '+', the raising operator at the
rightmost surviving '-'.

The rule is a pure word operation, done by surviving_slots for the
operators (bzl's block walk applies it to runs of equal columns
instead).  The operators read a tableau's word through the
per-shape reading order, and a changed word becomes a Tableau again
through the same order.  Changing the letter at a surviving slot keeps
rows weakly increasing and columns strictly increasing, so those
tableaux are built without re-validation.  The enumeration needs no
operator: it fills the rows of the shape directly, memoizing per call
the rows that fit under each (row index, row above), so every tableau
of one listing shares the tuple of each distinct row.
"""

from functools import lru_cache
from itertools import combinations_with_replacement
from operator import gt

from .rootsys import Shape
from .tableaux import Tableau


@lru_cache(maxsize=16)
def _reading_order(lengths: tuple[int, ...]):
    """(box of each word slot, word slots of each row) for the row lengths.

    Boxes are 0-indexed (row, col); each row lists its slots left to
    right.  Only the operators read it, and the operators over one
    crystal (graph's f_op) touch one shape, so a few entries serve every
    hit; the bound keeps a process that meets many one-off shapes from
    holding an order for each of them.
    """
    width = lengths[0] if lengths else 0
    boxes = tuple(
        (row, col)
        for col in range(width - 1, -1, -1)
        for row, n in enumerate(lengths)
        if n > col
    )
    slot_of = {box: k for k, box in enumerate(boxes)}
    rows = tuple(tuple(slot_of[(row, col)] for col in range(n)) for row, n in enumerate(lengths))
    return boxes, rows


def _order_of(t: Tableau):
    return _reading_order(tuple(len(row) for row in t.rows))


def reading_word(t: Tableau) -> tuple[int, ...]:
    rows = t.rows
    return tuple(rows[row][col] for row, col in _order_of(t)[0])


def tableau_from_word(t: Tableau, word) -> Tableau:
    """The tableau of t's rank and shape whose reading word is `word`.

    Not validated: callers pass t's own word, changed only at surviving
    signature slots.
    """
    return Tableau(t.rank, tuple(tuple([word[k] for k in slots]) for slots in _order_of(t)[1]))


def surviving_slots(word, i: int) -> tuple[list[int], list[int]]:
    """Slots of the '-' signs (letter i+1) and '+' signs (letter i) of
    word that survive cancellation, each list in reading order (other
    letters are no sign).  bzl's walk applies the rule to column runs.

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


def f_op(t: Tableau, i: int) -> Tableau | None:
    """Lowering operator: turn an i into i+1, or None when no '+' survives."""
    _check_letter(t.rank, i)
    word = list(reading_word(t))
    plus = surviving_slots(word, i)[1]
    if not plus:
        return None
    word[plus[0]] = i + 1
    return tableau_from_word(t, word)


def e_op(t: Tableau, i: int) -> Tableau | None:
    """Raising operator: turn an i+1 into i, or None when no '-' survives."""
    _check_letter(t.rank, i)
    word = list(reading_word(t))
    minus = surviving_slots(word, i)[0]
    if not minus:
        return None
    word[minus[-1]] = i
    return tableau_from_word(t, word)


def epsilon(t: Tableau, i: int) -> int:
    """Largest k with e_op applicable k times (surviving '-' count)."""
    _check_letter(t.rank, i)
    return len(surviving_slots(reading_word(t), i)[0])


def phi(t: Tableau, i: int) -> int:
    """Largest k with f_op applicable k times (surviving '+' count)."""
    _check_letter(t.rank, i)
    return len(surviving_slots(reading_word(t), i)[1])


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
