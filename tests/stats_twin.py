"""The statistics route of bzl, spelled entry by entry.

This is the slow, obvious twin of the Gelfand-Tsetlin block rule behind
bzl.decorate_via_stats (bzl._stats_block): every triangle entry
rescans the rows, and every mark reads its neighbours through
DecoratedTriangle.entry with out-of-range reads equal to 0.  It works on
a rank and bare row tuples, so it shares no code with the kernel beyond
DecoratedTriangle.  Tests compare the two entry for entry; the a and b
statistics alone (twin_stats_a, twin_stats_b) are also the tests' own
reference for the triangles of worked examples.  The decoration
product G is kept here too, one factor per entry multiplied out on plain
{power: coefficient} dicts, as the twin of bzl.g_from_triangle, which
reads it from the mark counts.  So is the strictness scan over every
threshold and row pair, whose None is the twin of tableaux.is_strict.
"""

from cscrystal.tableaux import DecoratedTriangle
from cscrystal.tpoly import QLaurent


def cells(rank):
    """The triangle's index set, (i, j) for 1 <= i <= j <= rank, row by row."""
    return [(i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]


def _triangle(rank, count):
    """The unmarked triangle with entry count(i, j) at each 1 <= i <= j <= rank."""
    grid = tuple(
        tuple(count(i, j) for j in range(i, rank + 1)) for i in range(1, rank + 1)
    )
    return DecoratedTriangle(rank, grid)


def twin_stats_a(rank, rows):
    """Entry (i, j): number of boxes holding j+1 within rows 1..i."""

    def count(i, j):
        return sum(row.count(j + 1) for row in rows[:i])

    return _triangle(rank, count)


def twin_stats_b(rank, rows):
    """Entry (i, j): number of boxes in row i holding at least j+1."""

    def count(i, j):
        if i > len(rows):
            return 0
        return sum(1 for x in rows[i - 1] if x >= j + 1)

    return _triangle(rank, count)


def twin_decoration(rank, rows):
    """(grid, circled, boxed) of the statistics route, STATS layout.

    (i, j) is boxed when b_{i,j} >= theta_i + b_{i+1,j+1} and circled
    when a_{i,j} = a_{i-1,j}; theta_i is the gap between the lengths of
    rows i and i+1.
    """
    lengths = [len(row) for row in rows] + [0] * (rank + 1 - len(rows))
    theta = [lengths[i] - lengths[i + 1] for i in range(rank)]
    a = twin_stats_a(rank, rows)
    b = twin_stats_b(rank, rows)
    index = cells(rank)
    boxed = frozenset(
        (i, j) for i, j in index if b.entry(i, j) >= theta[i - 1] + b.entry(i + 1, j + 1)
    )
    circled = frozenset((i, j) for i, j in index if a.entry(i, j) == a.entry(i - 1, j))
    return a.grid, circled, boxed


def twin_counts(rank, rows):
    """(no doubly marked entry, boxed count, unmarked count), entry by entry."""
    _, circled, boxed = twin_decoration(rank, rows)
    non = sum(1 for pair in cells(rank) if pair not in circled and pair not in boxed)
    return not (circled & boxed), len(boxed), non


def twin_g_from_triangle(tri):
    """Product over marked entries: circled gives q^a, boxed gives -q^(a-1),
    unmarked gives (q-1)q^(a-1), and a doubly marked entry kills the product."""
    result = {0: 1}
    for i, j in cells(tri.rank):
        a = tri.entry(i, j)
        circ, box = (i, j) in tri.circled, (i, j) in tri.boxed
        if circ and box:
            return QLaurent.zero()
        if circ:
            factor = {a: 1}
        elif box:
            factor = {a - 1: -1}
        else:
            factor = {a: 1, a - 1: -1}
        product = {}
        for k1, c1 in result.items():
            for k2, c2 in factor.items():
                product[k1 + k2] = product.get(k1 + k2, 0) + c1 * c2
        result = product
    return QLaurent(result)


def twin_first_strictness_violation(rank, rows):
    """Smallest i such that, for some threshold 1 < k <= rank+1 with
    i < k, rows i and i+1 hold equally many entries <= k; None if none.

    Every (k, i) pair is tried and every count rescans its row, with
    absent rows counting 0.
    """

    def count(k, i):
        if i > len(rows):
            return 0
        return sum(1 for x in rows[i - 1] if x <= k)

    best = None
    for k in range(2, rank + 2):
        for i in range(1, k):
            if count(k, i) == count(k, i + 1):
                if best is None or i < best:
                    best = i
    return best
