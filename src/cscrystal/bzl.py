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

One rule, _row_marks, marks triangle row i from tableau rows i and
i+1, in decorate_via_stats and in crystal_mark_counts; weight_sums
sums C by weight over the scores of the latter.  One memoized product,
_c_product, gives both coefficients from the mark counts: C in t, and
G = q^total C(1/q), the same product rewritten in q and shifted by the
triangle's entry total.

The walk has a whole-crystal form too.  Block j of the walk (letters
j, ..., 1) reads only the letters <= j+1, which by then sit at the top
of the tableau's Gelfand-Tsetlin row j, with the (j+1)s where they
started; so its step counts and marks depend only on GT rows j and j+1.
crystal_walk_counts walks each distinct pair of rows once, on a small
tableau built from them (_block_marks), and sums the blocks' mark
counts per element.  One tableau (bzl_path, decorate_via_operators) is
walked whole by _walk: a per-block walk of one element would build
reading orders for many small shapes and gains nothing without a memo.
"""

from bisect import bisect_right
from functools import lru_cache
from math import comb

from .crystal import reading_word, surviving_slots, tableau_from_word

# The walk no longer calls e_op and phi; they stay importable from this
# module because perfbench/child.py traces them under these names.
from .crystal import e_op, phi  # noqa: F401
from .rootsys import Shape, theta
from .tableaux import DecoratedTriangle, Tableau, _a_rows, _content_coords, _row_histograms
from .tpoly import QLaurent, TPoly


def _require_strict(shape: Shape, what: str) -> Shape:
    defect = shape.strictness_defect()
    if defect is not None:
        raise ValueError(f"{what} {defect}")
    return shape


# theta per shape; a crystal's elements share one shape
_theta = lru_cache(maxsize=64)(theta)


def _walk(t: Tableau):
    """Raise t to the top along the letter schedule.

    Works on one mutable reading word.  A stage changes every surviving
    '-' of its letter to the letter, which is e_i applied until it dies:
    raising the rightmost surviving '-' leaves the others surviving.
    Returns the step counts and the stages where lowering was dead, both
    per (letter, block), and the final element.
    """
    word = list(reading_word(t))
    entries = {}
    boxed = set()
    for block in range(1, t.rank + 1):
        for letter in range(block, 0, -1):
            minus, plus = surviving_slots(word, letter)
            if not plus:
                boxed.add((letter, block))
            for k in minus:
                word[k] = letter
            entries[(letter, block)] = len(minus)
    return entries, boxed, tableau_from_word(t, word)


def _walk_checked(t: Tableau):
    """_walk, checked to end at the top, where row i is filled with i.

    Returns the step counts and the boxed positions.
    """
    entries, boxed, top = _walk(t)
    if any(x != i for i, row in enumerate(top.rows, start=1) for x in row):
        raise RuntimeError("walk did not finish at the highest-weight tableau")
    return entries, boxed


def _walk_to_top(t: Tableau):
    """_walk_checked on a tableau of strict shape."""
    _require_strict(t.shape, "tableau shape")
    return _walk_checked(t)


def _grid(rank, entries):
    return tuple(
        tuple(entries[(i, j)] for j in range(i, rank + 1)) for i in range(1, rank + 1)
    )


def bzl_path(t: Tableau) -> DecoratedTriangle:
    """Step-count triangle of the walk, no marks."""
    entries, _ = _walk_to_top(t)
    return DecoratedTriangle(t.rank, _grid(t.rank, entries))


def decorate_via_operators(t: Tableau) -> DecoratedTriangle:
    """Walk-based marks: box where lowering dies, circle on equal neighbors.

    Cell (i, j) holds the step count of letter i in block j.  It is
    boxed when the lowering operator for letter i kills the element
    reached just before that stage, and circled when its count equals
    the count of letter i-1 in the same block, reading 0 for letter 0.
    """
    entries, boxed = _walk_to_top(t)
    return DecoratedTriangle(t.rank, _grid(t.rank, entries), _circled(entries), frozenset(boxed))


def _circled(entries) -> frozenset:
    """Cells whose step count equals that of the letter below, in one block."""
    return frozenset((i, j) for (i, j), a in entries.items() if a == entries.get((i - 1, j), 0))


def decorate_via_stats(t: Tableau) -> DecoratedTriangle:
    """Statistic-based marks, no crystal walking.

    Entries are the color counts a_{i,j}, from one row histogram; the
    marks of row i come from tableau rows i and i+1 (_row_marks).
    """
    r = t.rank
    th = _theta(_require_strict(t.shape, "tableau shape"))
    rows = t.rows + ((),)  # a strict shape has exactly r nonempty rows
    circled, boxed = [], []
    for i in range(1, r + 1):
        circ, box = _row_marks(r, i, th[i - 1], rows[i - 1], rows[i])
        circled += [(i, j) for j in circ]
        boxed += [(i, j) for j in box]
    return DecoratedTriangle(r, _a_rows(_row_histograms(t)), frozenset(circled), frozenset(boxed))


def _row_marks(rank: int, i: int, gap: int, row: tuple, below: tuple):
    """Circled and boxed columns j of triangle row i, from tableau rows i, i+1.

    (i, j) is circled when a_{i,j} = a_{i-1,j}: row i holds no j+1.  It
    is boxed when b_{i,j} >= theta_i + b_{i+1,j+1}, where b_{i,j} counts
    the entries of row i above j and below is empty for the last row.
    Rows are sorted, so each such count is one bisection.
    """
    circled, boxed = [], []
    for j in range(i, rank + 1):
        if j + 1 not in row:
            circled.append(j)
        if len(row) - bisect_right(row, j) >= gap + len(below) - bisect_right(below, j + 1):
            boxed.append(j)
    return circled, boxed


def _crystal_shape(shape: Shape, rank: int) -> Shape:
    """shape, checked to be strict and of the given rank."""
    if shape.rank != rank:
        raise ValueError(f"shape has rank {shape.rank}, expected {rank}")
    return _require_strict(shape, "crystal shape")


def crystal_mark_counts(shape: Shape, rank: int, elements):
    """Yield (t, alive, boxed count, unmarked count) for each element.

    The whole-crystal twin of _mark_counts(decorate_via_stats(t)).  Row
    i of a triangle is marked from rows i and i+1 of the tableau and
    theta_i alone (_row_marks), so every element, all of the given
    shape, is scored as a sum over its adjacent row pairs.  Strictness
    and theta are checked once per crystal, and each distinct (i, row i,
    row i+1) is counted once, in a memo that lives as long as the call.
    A strict shape has exactly rank nonempty rows.
    """
    th = _theta(_crystal_shape(shape, rank))
    size = rank * (rank + 1) // 2
    memo = {}
    for t in elements:
        rows = t.rows + ((),)
        circled = boxed = both = 0
        for i in range(rank):
            key = (i, rows[i], rows[i + 1])
            marks = memo.get(key)
            if marks is None:
                circ, box = _row_marks(rank, i + 1, th[i], *key[1:])
                marks = memo[key] = (len(circ), len(box), len(set(circ).intersection(box)))
            circled += marks[0]
            boxed += marks[1]
            both += marks[2]
        yield t, not both, boxed, size - circled - boxed + both


def _block_walk(lower: tuple, upper: tuple):
    """Block j = len(lower) of the walk, as ({(i, j): step count},
    {boxed (i, j)}), for every tableau whose Gelfand-Tsetlin rows j and
    j+1 are lower and upper.

    GT row j counts, per tableau row i, the entries <= j.  Before block j
    the letters <= j sit at the top of shape lower, and the (j+1)s still
    fill upper/lower; block j reads no other letter.  So it is walked on
    the rank-j tableau of shape upper whose row i holds i in its first
    lower_i boxes and j+1 in the rest, checked to end at the top.
    """
    j = len(lower)
    rows = tuple(
        (i,) * a + (j + 1,) * (b - a)
        for i, (a, b) in enumerate(zip(lower + (0,), upper), start=1)
        if b
    )
    entries, boxed = _walk_checked(Tableau(j, rows))
    return {(i, j): entries[i, j] for i in range(1, j + 1)}, {(i, b) for i, b in boxed if b == j}


def _block_marks(lower: tuple, upper: tuple) -> tuple[int, int, int]:
    """(circled, boxed, both) counts of the block _block_walk walks."""
    entries, boxed = _block_walk(lower, upper)
    circled = _circled(entries)
    return len(circled), len(boxed), len(circled & boxed)


def crystal_walk_counts(shape: Shape, rank: int, elements):
    """Yield the walk's (alive, boxed count, unmarked count) for each element.

    The walk twin of crystal_mark_counts, and the whole-crystal twin of
    _mark_counts(decorate_via_operators(t)).  Block j of an element's
    walk depends only on its GT rows j and j+1 (_block_marks), so each
    element is scored as a sum over its blocks, and each distinct (GT
    row j, GT row j+1) is walked once, in a memo that lives as long as
    the call.  A strict shape has exactly rank nonempty rows, so GT row
    j+1 has j+1 parts once one empty row is added.
    """
    _crystal_shape(shape, rank)
    size = rank * (rank + 1) // 2
    caps = [(j + 1,) * (j + 1) for j in range(rank + 1)]  # map stops at row j+1
    memo = {}
    for t in elements:
        rows = t.rows + ((),)
        circled = boxed = both = 0
        lower = (bisect_right(rows[0], 1),)
        for j in range(1, rank + 1):
            upper = tuple(map(bisect_right, rows, caps[j]))
            key = (lower, upper)
            marks = memo.get(key)
            if marks is None:
                marks = memo[key] = _block_marks(lower, upper)
            circled += marks[0]
            boxed += marks[1]
            both += marks[2]
            lower = upper
        yield not both, boxed, size - circled - boxed + both


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


def g_from_triangle(tri: DecoratedTriangle) -> QLaurent:
    """Product over marked entries: circled gives q^a, boxed gives -q^(a-1),
    unmarked gives (q-1)q^(a-1), and a doubly marked entry kills the product.

    The product depends only on the marks' counts and the entry total:
    (-1)^box q^(total - box - unmarked) (q-1)^unmarked, which is
    q^total C(1/q) for C = (-t)^box (1-t)^unmarked.  So G is C's
    memoized product rewritten in q and shifted by the total.
    """
    alive, box, non = _mark_counts(tri)
    if not alive:
        return QLaurent.zero()
    return _c_product(box, non).to_qlaurent().shift(tri.total())


def g_coefficient(t: Tableau, *, stats: DecoratedTriangle | None = None) -> QLaurent:
    """Decoration product of t, computed from the statistics route.

    A caller that already holds decorate_via_stats(t) passes it as
    stats, here and in the c_* functions below, to skip rebuilding it.
    """
    return g_from_triangle(stats or decorate_via_stats(t))


def c_counts(t: Tableau, *, stats: DecoratedTriangle | None = None) -> tuple[bool, int, int]:
    """(no doubly marked entry, boxed count, unmarked count).

    The first component agrees with is_strict(t) on every shifted
    crystal we enumerate (the strictness lemma); both are exposed so the
    tests can check that equivalence rather than assume it.
    """
    return _mark_counts(stats or decorate_via_stats(t))


def c_coefficient(t: Tableau, *, stats: DecoratedTriangle | None = None) -> TPoly:
    """Per-entry product: boxed gives -t, unmarked gives 1-t, circled
    gives 1, and an entry both circled and boxed kills the product."""
    alive, box, non = c_counts(t, stats=stats)
    if not alive:
        return TPoly.zero()
    return _c_product(box, non)


def _scaled_sum(pairs) -> TPoly:
    """Sum of n * p over (TPoly p, int n) pairs, added into one integer list."""
    acc: list = []
    for p, n in pairs:
        acc.extend([0] * (len(p.coeffs) - len(acc)))
        for k, c in enumerate(p.coeffs):
            acc[k] += n * c
    return TPoly(tuple(acc))


def weight_sums(scores) -> dict:
    """Content coordinates -> sum of C over the crystal_mark_counts scores.

    Grouped by (content, box, unmarked), so each weight's sum adds n
    times C's coefficients into one integer list per group of size n,
    and becomes one TPoly.  Weights keep first-seen order; one whose
    elements all have C = 0 maps to zero.
    """
    groups: dict = {}  # content coords -> {(box, unmarked): n}
    for t, alive, box, non in scores:
        counts = groups.setdefault(_content_coords(t), {})
        if alive:
            counts[box, non] = counts.get((box, non), 0) + 1
    return {
        w: _scaled_sum((_c_product(box, non), n) for (box, non), n in counts.items())
        for w, counts in groups.items()
    }


def c_factored_string(t: Tableau, *, stats: DecoratedTriangle | None = None) -> str:
    """Human-readable factored form of c_coefficient, e.g. '-t(1-t)'."""
    alive, box, non = c_counts(t, stats=stats)
    if not alive:
        return "0"
    sign = "-" if box % 2 else ""
    tpow = "" if box == 0 else ("t" if box == 1 else f"t^{box}")
    upow = "" if non == 0 else ("(1-t)" if non == 1 else f"(1-t)^{non}")
    return (sign + tpow + upow) or "1"


def path_entry_sum(t: Tableau) -> int:
    """Total of all step counts; the q-power bridging g to c."""
    return bzl_path(t).total()
