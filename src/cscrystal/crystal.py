"""Raising and lowering operators on tableaux via the signature rule.

The reading word scans columns right to left, each column top to
bottom.  For a letter i, every box holding i contributes '+' and every
box holding i+1 contributes '-'; adjacent "+-" pairs cancel until the
surviving signs are all '-' followed by all '+'.  The lowering operator
acts at the leftmost surviving '+', the raising operator at the
rightmost surviving '-'.

The rule is a pure word operation, so the operators, the enumeration
and the walk in bzl all work on flat reading words: surviving_slots
does the cancellation, and a changed word becomes a Tableau again
through the per-shape reading order.  Changing the letter at a
surviving slot keeps rows weakly increasing and columns strictly
increasing, so those tableaux are built without re-validation.
"""

from functools import lru_cache

from .rootsys import Shape
from .tableaux import Tableau, make_tableau


@lru_cache(maxsize=16)
def _reading_order(lengths: tuple[int, ...]):
    """(box of each word slot, word slots of each row) for the row lengths.

    Boxes are 0-indexed (row, col); each row lists its slots left to
    right.  An enumeration or a walk touches one shape, so a few entries
    serve every hit; the bound keeps a process that walks many one-off
    shapes from holding an order for each of them.
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
    word that survive cancellation, each list in reading order.

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


def highest_weight_tableau(shape: Shape, rank: int) -> Tableau:
    """Row i filled with the letter i; killed by every raising operator."""
    if shape.rank != rank:
        raise ValueError(f"shape has rank {shape.rank}, expected {rank}")
    rows = [[i] * p for i, p in enumerate(shape.parts, start=1) if p > 0]
    return make_tableau(rank, rows)


@lru_cache(maxsize=16)
def enumerate_crystal(shape: Shape, rank: int) -> tuple[Tableau, ...]:
    """Every tableau reachable from the highest-weight element.

    Breadth-first closure under all lowering operators (letters in
    increasing order), then sorted by row tuples so the result is a
    canonical listing.  Coincides with the set of all semistandard
    tableaux of the shape.
    """
    start = highest_weight_tableau(shape, rank)
    seen = {reading_word(start)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for word in frontier:
            for i in range(1, rank + 1):
                plus = surviving_slots(word, i)[1]
                if plus:
                    k = plus[0]
                    u = word[:k] + (i + 1,) + word[k + 1 :]
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
        frontier = nxt
    # Drain the word set while building tableaux, so the two are never
    # held in full at the same time.
    out = []
    while seen:
        out.append(tableau_from_word(start, seen.pop()))
    out.sort(key=lambda t: t.rows)
    return tuple(out)
