"""The walk of bzl, spelled with the public crystal operators.

This is the slow, obvious twin of the block walk bzl._block_walk: it
raises the whole tableau, and every stage asks phi for the box mark and
applies e_op until it returns None, building and validating a Tableau
at each step.  Tests compare the two block for block and, through
decorate_via_operators and bzl_path, tableau for tableau.
"""

from cscrystal.crystal import e_op, phi


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
