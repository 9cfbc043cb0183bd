"""Paths along a fixed reduced word, and two decoration calculi.

Walking a tableau up to the highest-weight element with raising
operators, letter schedule (1; 2,1; 3,2,1; ...; r,...,1), produces a
triangle of step counts.  The same triangle can be filled from counting
statistics on the tableau alone, and both carry circle and box marks:
one rule set derived from the walk, one from the statistics.  The
marked triangle determines the coefficient attached to the tableau.

Both routes fill one tableaux.DecoratedTriangle at the same cells: the
walk records the step count of letter i in block j at (i, j), where the
statistics route puts a_{i,j}, so the two triangles must be equal.  The
PATH layout, one row per block, is a way of printing that triangle
(tableaux.BZL_LAYOUT), not a second coordinate system.

Both routes are read block by block from the tableau's Gelfand-Tsetlin
(GT) rows (tableaux.gt_rows, which keeps the last tableau it read, so a
bzl call's is_strict reads the same rows): GT row j holds, per tableau
row i, the number of entries <= j.  Column j of the triangle depends
only on GT rows j and j+1.  For the statistics this is one rule,
_stats_block: a_{i,j} sums the (j+1)s of rows 1..i, and (i, j) is
circled when GT rows j and j+1 agree at i and boxed when row j+1 at i+1
equals row j at i.  For the walk it is a lemma: block j (letters j,
..., 1) reads only the letters <= j+1, which by then sit at the top of
GT row j, with the (j+1)s where they started.  The rows interlace, so
the block's columns fall into at most 2(j+1) runs of equal columns;
_block_walk raises those runs, and it is the one walk.

One tableau (bzl_path, decorate_via_operators, decorate_via_stats) joins
its blocks (_join_blocks).  crystal_sums sums C by weight over a whole
crystal, reading _stats_block's rule along triangle row i, which depends
only on tableau rows i and i+1: one packed int per distinct row pair.
The row pass gt_blocks yields each distinct pair of GT rows from the
shape down, and laurent.verify_bn_form checks block_agrees, the walk
against the statistics, once per pair.  That check and the identity's
are the whole verdict on the reversed form.
One memoized product, _c_product, gives both coefficients from the mark
counts: C in t, and G = q^total C(1/q), the same TPoly read in q and
shifted by the triangle's entry total (TPoly.in_q).
"""

from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import pairwise, product
from math import comb
from operator import attrgetter

# The walk no longer calls e_op and phi; they stay importable from this
# module because perfbench/child.py traces them under these names.
from .crystal import e_op, phi  # noqa: F401
from .rootsys import Shape
from .tableaux import DecoratedTriangle, Tableau, gt_rows
from .tpoly import TPoly


def _require_strict(parts: tuple, what: str) -> None:
    """ValueError unless the shape parts decrease strictly to a last 0;
    a Shape is built only to say why not."""
    if parts[-1] or any(a <= b for a, b in zip(parts, parts[1:])):
        raise ValueError(f"{what} {Shape(parts).strictness_defect()}")


def _gt_rows(t: Tableau) -> tuple:
    """tableaux.gt_rows of t, whose last row, t's shape, must be strict."""
    gt = gt_rows(t)
    _require_strict(gt[-1], "tableau shape")
    return gt


def _join_blocks(t: Tableau, block) -> tuple:
    """block(GT row j, GT row j+1) for j = 1..rank, its dicts and sets
    merged in place into block 1's."""
    gt = _gt_rows(t)
    joined = block(gt[0], gt[1])
    for parts in map(block, gt[1:], gt[2:]):
        for acc, part in zip(joined, parts):
            acc |= part
    return joined


def _grid(rank, entries):
    return tuple(
        [tuple([entries[(i, j)] for j in range(i, rank + 1)]) for i in range(1, rank + 1)]
    )


def bzl_path(t: Tableau) -> DecoratedTriangle:
    """Step-count triangle of the walk, no marks."""
    entries, _ = _join_blocks(t, _block_walk)
    return DecoratedTriangle(t.rank, _grid(t.rank, entries))


def decorate_via_operators(t: Tableau) -> DecoratedTriangle:
    """Walk-based marks: box where lowering dies, circle on equal neighbors.

    Cell (i, j) holds the step count of letter i in block j.  It is
    boxed when the lowering operator for letter i kills the element
    reached just before that stage, and circled when its count equals
    the count of letter i-1 in the same block, reading 0 for letter 0.
    """
    entries, boxed = _join_blocks(t, _block_walk)
    return DecoratedTriangle(t.rank, _grid(t.rank, entries), _circled(entries), frozenset(boxed))


def _circled(entries) -> frozenset:
    """Cells whose step count equals that of the letter below, in one block."""
    return frozenset([(i, j) for (i, j), a in entries.items() if a == entries.get((i - 1, j), 0)])


def decorate_via_stats(t: Tableau) -> DecoratedTriangle:
    """Statistic-based marks, no crystal walking: _stats_block joined
    over t's GT rows."""
    entries, circled, boxed = _join_blocks(t, _stats_block)
    return DecoratedTriangle(t.rank, _grid(t.rank, entries), frozenset(circled), frozenset(boxed))


def _stats_block(lower: tuple, upper: tuple):
    """Column j = len(lower) of the statistics triangle, as
    ({(i, j): a_{i,j}}, {circled (i, j)}, {boxed (i, j)}), for every
    tableau whose GT rows j and j+1 are lower and upper.

    a_{i,j}, the number of (j+1)s in rows 1..i, sums upper - lower over
    rows 1..i.  (i, j) is circled when a_{i,j} = a_{i-1,j}: row i holds
    no j+1, so upper_i = lower_i.  It is boxed when
    b_{i,j} >= theta_i + b_{i+1,j+1}, for b_{i,j} = l_i - lower_i the
    entries of row i above j and theta_i = l_i - l_{i+1} (l the shape);
    that reads upper_{i+1} >= lower_i, and GT rows interlace, so it is
    upper_{i+1} = lower_i.
    """
    j = len(lower)
    entries, circled, boxed = {}, set(), set()
    a = 0
    for i in range(j):
        a += upper[i] - lower[i]
        entries[(i + 1, j)] = a
        if upper[i] == lower[i]:
            circled.add((i + 1, j))
        if upper[i + 1] == lower[i]:
            boxed.add((i + 1, j))
    return entries, circled, boxed


class _PairMemo(dict):
    """(tableau row, row below) -> its packed score, computed on first read."""

    __slots__ = ("score",)

    def __missing__(self, key):
        value = self[key] = self.score(*key)
        return value


def _field_bits(shape: Shape, count: int) -> tuple[int, int]:
    """(B, T) for count elements of the shape: the bits of a score field
    and of a t-coefficient of a sum of C(-t), each with one to spare."""
    size = shape.rank * (shape.rank + 1) // 2
    return max(sum(shape.parts), size).bit_length() + 1, (count << size).bit_length() + 1


def crystal_sums(shape: Shape, elements) -> dict:
    """content(t) -> sum of c_coefficient(decorate_via_stats(t)) over the
    elements t, all of the given strict shape, in first-seen order; a
    weight whose elements all have C = 0 maps to zero.

    GT row j's i-th part is c_i(j), the number of entries <= j in
    tableau row i.  So _stats_block's rule for column j, read along
    triangle row i instead, says: (i, j), for j = i..rank, is circled
    when c_i(j+1) = c_i(j) and boxed when c_{i+1}(j+1) = c_i(j), and row
    i adds c_i(k) - c_i(k-1) to content coordinate k.  Triangle row i
    depends only on tableau row i, the row of its length, and the row
    below (empty below the last).  Each distinct pair is scored once
    per call, as one int of B-bit fields (_field_bits): content
    1..rank+1, then the boxed, marked (circled or boxed) and doubly
    marked counts.  An element's score is the sum of its pairs', and a
    Counter counts equal scores.  C(-t) = t^box (1+t)^unmarked has no
    negative coefficient, so a weight's sum of n C(-t) is packed, T bits
    per t-degree, as a sum of n (1 + 2^T)^unmarked << T box, and
    unpacked once, with sign (-1)^k at t^k.
    """
    _require_strict(shape.parts, "crystal shape")
    rank, rows_of = shape.rank, {p: i for i, p in enumerate(shape.parts, 1)}
    size = rank * (rank + 1) // 2
    b, t = _field_bits(shape, len(elements))
    box_at, field = b * (rank + 1), (1 << b) - 1  # content fields end at box_at
    box, marked, both = 1 << box_at, 1 << box_at + b, 1 << box_at + 2 * b
    unit = [0] + [1 << k for k in range(0, box_at, b)]  # unit[k]: 1 at content k

    def score(row, below):
        i = rows_of[len(row)]
        s, x = sum(map(unit.__getitem__, row)), bisect_right(row, i)
        for k in range(i + 1, rank + 2):  # cell (i, k-1), x = c_i(k-1)
            y = bisect_right(row, k)
            if bisect_right(below, k) == x:
                s += box + marked + (both if y == x else 0)
            elif y == x:
                s += marked
            x = y
        return s

    memo = _PairMemo()
    memo.score, pairs = score, memo.__getitem__
    tally = Counter(
        [sum(map(pairs, pairwise(rows + ((),)))) for rows in map(attrgetter("rows"), elements)]
    )
    packed, powers = {}, [(1 + (1 << t)) ** k for k in range(size + 1)]
    for s, n in tally.items():
        w, marks = s & box - 1, s >> box_at
        if marks >> 2 * b:  # a doubly marked cell: C = 0, and the weight stays
            n = 0
        packed[w] = packed.get(w, 0) + (n * powers[size - (marks >> b & field)] << t * (marks & field))
    out, digit = {}, (1 << t) - 1
    for w, c in packed.items():
        coeffs = []
        while c:
            coeffs.append(c & digit)
            c >>= t
        coeffs[1::2] = [-c for c in coeffs[1::2]]
        out[tuple([w >> k & field for k in range(0, box_at, b)])] = TPoly(coeffs)
    return out


def gt_blocks(top: tuple):
    """Yield once each distinct (GT row j, GT row j+1) of the crystal of
    shape top, GT row rank+1, with no tableau listed: rows from top down,
    each row's interlacing rows in itertools.product order."""
    level = [top]
    for _ in top[1:]:
        below: dict = {}
        for upper in level:
            for lower in product(*(range(b, a + 1) for a, b in zip(upper, upper[1:]))):
                below[lower] = None
                yield lower, upper
        level = below


def _block_walk(lower: tuple, upper: tuple):
    """Block j = len(lower) of the walk, as ({(i, j): step count},
    {boxed (i, j)}), for every tableau whose GT rows j, j+1 are lower, upper.

    Before block j the letters <= j sit at the top of shape lower, and
    the (j+1)s still fill upper/lower; block j reads no other letter.
    The rows interlace, so in the reading word (columns right to left,
    each top to bottom) a column of height g in lower holds 1..g and at
    most one more box, its mover, which starts as j+1.  Right to left,
    for g = 0..j, come lower_g - upper_{g+1} columns of height g with no
    mover (none for g = 0), then upper_{g+1} - lower_{g+1} with one; a
    negative count means the rows do not interlace.  The walk raises
    these runs, (g, mover or 0, count), with _raise_runs and must end at
    the top, every mover at g+1.
    """
    j = len(lower)
    bounds = (upper[0],) + lower + (0,)  # lower_0 = upper_1, lower_{j+1} = 0
    runs = []
    for g in range(j + 1):
        bare, moving = bounds[g] - upper[g], upper[g] - bounds[g + 1]
        if bare < 0 or moving < 0:
            raise RuntimeError(f"GT rows {lower} and {upper} do not interlace")
        if bare:
            runs.append((g, 0, bare))
        if moving:
            runs.append((g, j + 1, moving))
    entries, boxed = {}, set()
    for i in range(j, 0, -1):
        entries[(i, j)], plus = _raise_runs(runs, i)
        if not plus:
            boxed.add((i, j))
    if any(m and m != g + 1 for g, m, _ in runs):
        raise RuntimeError("walk did not finish at the highest-weight tableau")
    return entries, boxed


def _raise_runs(runs: list, i: int) -> tuple[int, int]:
    """Stage i of a block walk: e_i as far as it goes, in place on runs.
    Returns (the step count, the surviving '+' count).

    A column taller than i holds i over i+1, a "+-" pair that cancels,
    and a mover above i+1.  A run of height i is '+' unless its mover is
    i+1, a shorter one '-' when its mover is i+1 (never i yet).  A '-'
    run's first min(count, open) columns cancel against the '+' still
    open to its left, and its other movers become i.  Runs may come in
    any order; the walk's go up in height, so on interlacing rows no '+'
    is open at a '-' run, which block_agrees checks rather than assumes.
    """
    raised = plus = 0
    for k, (g, m, n) in enumerate(runs):
        if g == i and m != i + 1:
            plus += n
        elif g < i and m == i + 1:
            kept = min(n, plus)
            plus -= kept
            raised += n - kept
            if kept < n:
                runs[k] = (g, i, n - kept)
                if kept:  # the loop meets the raised part next: no sign
                    runs.insert(k, (g, m, kept))
    return raised, plus


def block_agrees(lower: tuple, upper: tuple) -> bool:
    """Whether the walk's block len(lower) equals the statistics block
    _stats_block cell by cell: step counts against a_{i,j}, circled and
    boxed cells."""
    entries, boxed = _block_walk(lower, upper)
    return (entries, _circled(entries), boxed) == _stats_block(lower, upper)


def _mark_counts(tri: DecoratedTriangle) -> tuple[bool, int, int]:
    """(no doubly marked entry, boxed count, unmarked count) of a triangle."""
    size = tri.rank * (tri.rank + 1) // 2
    non = size - len(tri.circled | tri.boxed)
    return tri.circled.isdisjoint(tri.boxed), len(tri.boxed), non


@lru_cache(maxsize=1024)
def _c_product(box: int, non: int) -> TPoly:
    """(-t)^box (1-t)^non, expanded by the binomial theorem: the
    coefficient of t^(box+k) is (-1)^(box+k) binom(non, k).  A shifted
    crystal meets few (box, non) pairs."""
    return TPoly((0,) * box + tuple((-1) ** (box + k) * comb(non, k) for k in range(non + 1)))


def g_coefficient(stats: DecoratedTriangle) -> list:
    """Product over the statistics triangle's marked entries: circled
    gives q^a, boxed gives -q^(a-1), unmarked gives (q-1)q^(a-1), and a
    doubly marked entry kills the product.

    The product depends only on the marks' counts and the entry total:
    (-1)^box q^(total - box - unmarked) (q-1)^unmarked, which is
    q^total C(1/q) for C = (-t)^box (1-t)^unmarked.  So G is C's
    memoized product read in q and shifted by the total, as TPoly.in_q's
    [power, coefficient] pairs; [] when the product dies.
    """
    alive, box, non = _mark_counts(stats)
    if not alive:
        return []
    return _c_product(box, non).in_q(stats.total())


def c_coefficient(stats: DecoratedTriangle) -> TPoly:
    """Per-entry product over the statistics triangle of a tableau t:
    boxed gives -t, unmarked gives 1-t, circled gives 1, and an entry
    both circled and boxed kills the product.

    On every shifted crystal we enumerate, C is nonzero exactly when
    is_strict(t) (the strictness lemma, which the tests check).
    """
    alive, box, non = _mark_counts(stats)
    if not alive:
        return TPoly.zero()
    return _c_product(box, non)


def c_factored_string(stats: DecoratedTriangle) -> str:
    """Human-readable factored form of c_coefficient, e.g. '-t(1-t)'."""
    alive, box, non = _mark_counts(stats)
    if not alive:
        return "0"
    sign = "-" if box % 2 else ""
    tpow = "" if box == 0 else ("t" if box == 1 else f"t^{box}")
    upow = "" if non == 0 else ("(1-t)" if non == 1 else f"(1-t)^{non}")
    return (sign + tpow + upow) or "1"
