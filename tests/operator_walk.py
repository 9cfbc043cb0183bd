"""The walk of bzl, spelled two slower ways.

operator_walk is the slow, obvious twin of the block walk
bzl._block_walk: it raises the whole tableau, and every stage asks phi
for the box mark and applies e_op until it returns None, building and
validating a Tableau at each step.  Tests compare the two block for
block and, through decorate_via_operators and bzl_path, tableau for
tableau.

word_block_walk is the block walk read straight off the block lemma:
it writes the block's whole reading word from two GT rows and raises
it letter by letter with crystal.surviving_slots, where bzl._block_walk
raises runs of equal columns.  Tests hold the two equal on every
interlacing pair of GT rows up to a size and on random longer rows.
"""

from cscrystal.crystal import e_op, phi, surviving_slots


def operator_walk(t):
    """(step counts per (letter, block), boxed (letter, block) stages, top element)."""
    cur = t
    entries = {}
    boxed = set()
    for block in range(1, t.rank + 1):
        for letter in range(block, 0, -1):
            if phi(cur, letter) == 0:
                boxed.add((letter, block))
            count = 0
            nxt = e_op(cur, letter)
            while nxt is not None:
                cur = nxt
                count += 1
                nxt = e_op(cur, letter)
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
