"""The operators on the column reading word, and the walk of bzl spelled
two slower ways.

word_f_op, word_e_op, word_phi and word_epsilon are the operators on
the column reading word of the whole tableau (columns right to left,
each column top to bottom), mapped back to the tableau through a
per-shape reading order.  They share only surviving_slots with
crystal's operators, which read the rows instead; tests hold the two
equal, element by element.

operator_walk is the slow, obvious twin of the block walk
bzl._block_walk: it raises the whole tableau, and every stage asks
word_phi for the box mark and applies word_e_op until it returns None,
building a Tableau at each step.  Tests compare the two block for block
and, through decorate_via_operators and bzl_path, tableau for tableau.

word_block_walk is the block walk read straight off the block lemma:
it writes the block's whole reading word from two GT rows and raises
it letter by letter with crystal.surviving_slots, where bzl._block_walk
raises runs of equal columns.  Tests hold the two equal on every
interlacing pair of GT rows up to a size and on random longer rows.
"""

from functools import lru_cache

from cscrystal.crystal import surviving_slots
from cscrystal.tableaux import Tableau


@lru_cache(maxsize=16)
def _reading_order(lengths):
    """(box of each word slot, word slots of each row) for the row
    lengths; boxes are 0-indexed (row, col), each row's slots left to
    right."""
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


def _order_of(t):
    return _reading_order(tuple(len(row) for row in t.rows))


def reading_word(t):
    rows = t.rows
    return tuple(rows[row][col] for row, col in _order_of(t)[0])


def tableau_from_word(t, word):
    """The tableau of t's rank and shape whose reading word is `word`.

    Not validated: callers pass t's own word, changed only at surviving
    signature slots.
    """
    return Tableau(t.rank, tuple(tuple([word[k] for k in slots]) for slots in _order_of(t)[1]))


def word_f_op(t, i):
    """Lowering operator: turn an i into i+1, or None when no '+' survives."""
    _check_letter(t.rank, i)
    word = list(reading_word(t))
    plus = surviving_slots(word, i)[1]
    if not plus:
        return None
    word[plus[0]] = i + 1
    return tableau_from_word(t, word)


def word_e_op(t, i):
    """Raising operator: turn an i+1 into i, or None when no '-' survives."""
    _check_letter(t.rank, i)
    word = list(reading_word(t))
    minus = surviving_slots(word, i)[0]
    if not minus:
        return None
    word[minus[-1]] = i
    return tableau_from_word(t, word)


def word_epsilon(t, i):
    """Largest k with e_op applicable k times (surviving '-' count)."""
    _check_letter(t.rank, i)
    return len(surviving_slots(reading_word(t), i)[0])


def word_phi(t, i):
    """Largest k with f_op applicable k times (surviving '+' count)."""
    _check_letter(t.rank, i)
    return len(surviving_slots(reading_word(t), i)[1])


def _check_letter(rank, i):
    if not 1 <= i <= rank:
        raise ValueError(f"operator index {i} outside 1..{rank}")


def operator_walk(t):
    """(step counts per (letter, block), boxed (letter, block) stages, top element)."""
    cur = t
    entries = {}
    boxed = set()
    for block in range(1, t.rank + 1):
        for letter in range(block, 0, -1):
            if word_phi(cur, letter) == 0:
                boxed.add((letter, block))
            count = 0
            nxt = word_e_op(cur, letter)
            while nxt is not None:
                cur = nxt
                count += 1
                nxt = word_e_op(cur, letter)
            entries[(letter, block)] = count
    return entries, boxed, cur


def word_block_walk(lower, upper):
    """({(i, j): step count}, {boxed (i, j)}) of block j = len(lower),
    from the reading word of shape upper: columns right to left, column
    c holding 1..g and then j+1 down to height h, for the heights g and
    h of column c in lower and upper.  Each stage changes every
    surviving '-' of its letter to the letter, and the word must end at
    the top, where row i holds only i."""
    j = len(lower)
    lower, upper = lower + (0,), upper + (0,)
    word, top = [], []
    g = h = 0
    for c in range(upper[0] - 1, -1, -1):
        while upper[h] > c:
            h += 1
        while lower[g] > c:
            g += 1
        word += range(1, g + 1)
        word += [j + 1] * (h - g)
        top += range(1, h + 1)
    entries, boxed = {}, set()
    for letter in range(j, 0, -1):
        minus, plus = surviving_slots(word, letter)
        if not plus:
            boxed.add((letter, j))
        for k in minus:
            word[k] = letter
        entries[(letter, j)] = len(minus)
    if word != top:
        raise RuntimeError("walk did not finish at the highest-weight tableau")
    return entries, boxed
