"""The walk of bzl, spelled with the public crystal operators.

This is the slow, obvious twin of the word kernel in bzl._walk: every
stage asks phi for the box mark and applies e_op until it returns
None, building and validating a Tableau at each step.  Tests compare
the two walk for walk.
"""

from cscrystal.crystal import e_op, phi


def operator_walk(t):
    """(step counts per (block, position), boxed positions, top element)."""
    cur = t
    entries = {}
    boxed = set()
    for block in range(1, t.rank + 1):
        for pos in range(1, block + 1):
            letter = block - pos + 1
            if phi(cur, letter) == 0:
                boxed.add((block, pos))
            count = 0
            nxt = e_op(cur, letter)
            while nxt is not None:
                cur = nxt
                count += 1
                nxt = e_op(cur, letter)
            entries[(block, pos)] = count
    return entries, boxed, cur
