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

One tableau (bzl_path, decorate_via_operators, decorate_via_stats)
joins its blocks (_join_blocks).  A whole crystal is scored by
crystal_scores, which applies _stats_block once per distinct pair of
GT rows and sums the blocks' mark counts and weight coordinates per
element; weight_sums sums C by weight over those scores, and
laurent.verify_bn_form checks block_agrees, the walk against the
statistics, once per distinct block of that pass.  That check and the
identity's are the whole verdict on the reversed form.  One memoized
product, _c_product, gives both coefficients from the mark counts: C
in t, and G = q^total C(1/q), the same product rewritten in q and
shifted by the triangle's entry total.
"""

from bisect import bisect_right
from functools import lru_cache
from math import comb
from operator import getitem

# The walk no longer calls e_op and phi; they stay importable from this
# module because perfbench/child.py traces them under these names.
from .crystal import e_op, phi  # noqa: F401
from .rootsys import Shape
from .tableaux import DecoratedTriangle, Tableau, gt_rows
from .tpoly import QLaurent, TPoly


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
        tuple(entries[(i, j)] for j in range(i, rank + 1)) for i in range(1, rank + 1)
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
    return frozenset((i, j) for (i, j), a in entries.items() if a == entries.get((i - 1, j), 0))


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


def crystal_scores(shape: Shape, rank: int, elements, blocks: dict | None = None):
    """Yield (content coordinates, alive, boxed count, unmarked count)
    for each element, all of the given shape.

    The whole-crystal twin of content(t) and _mark_counts(decorate_via_stats(t)).
    Column j of the triangle and content coordinate j+1 depend only on
    GT rows j and j+1 (_stats_block), so every element is scored as a
    sum over its blocks.  Strictness is checked once per crystal.  Each
    distinct (GT row j, GT row j+1) is scored once, into blocks: a memo
    that lives as long as the call, or the caller's dict, from which
    verify_bn_form reads the distinct blocks afterwards.  GT rows are
    read from each distinct tableau row's counts of entries <= 1..rank,
    memoized too and transposed.  A strict shape has exactly rank
    nonempty rows, and its parts are GT row rank+1.
    """
    if shape.rank != rank:
        raise ValueError(f"shape has rank {shape.rank}, expected {rank}")
    _require_strict(shape.parts, "crystal shape")
    size = rank * (rank + 1) // 2
    blocks = {} if blocks is None else blocks
    caps = range(1, rank + 1)
    cuts = [slice(j) for j in caps]  # GT row j keeps tableau rows 1..j
    counts: dict = {}
    for t in elements:
        vectors = []
        for row in t.rows:
            v = counts.get(row)
            if v is None:
                v = counts[row] = tuple(bisect_right(row, k) for k in caps)
            vectors.append(v)
        gt = list(map(getitem, zip(*vectors), cuts))
        gt.append(shape.parts)
        weight = [gt[0][0]]
        circled = boxed = both = 0
        for key in zip(gt, gt[1:]):
            marks = blocks.get(key)
            if marks is None:
                _, circ, box = _stats_block(*key)
                marks = blocks[key] = (
                    len(circ), len(box), len(circ & box), sum(key[1]) - sum(key[0])
                )
            circled += marks[0]
            boxed += marks[1]
            both += marks[2]
            weight.append(marks[3])
        yield tuple(weight), not both, boxed, size - circled - boxed + both


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

    A caller holding decorate_via_stats(t) passes it as stats, here and
    in c_coefficient and c_factored_string, to skip rebuilding it.
    """
    return g_from_triangle(stats or decorate_via_stats(t))


def c_coefficient(t: Tableau, *, stats: DecoratedTriangle | None = None) -> TPoly:
    """Per-entry product: boxed gives -t, unmarked gives 1-t, circled
    gives 1, and an entry both circled and boxed kills the product.

    On every shifted crystal we enumerate, C is nonzero exactly when
    is_strict(t) (the strictness lemma, which the tests check).
    """
    alive, box, non = _mark_counts(stats or decorate_via_stats(t))
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
    """Content coordinates -> sum of C over the crystal_scores scores.

    Grouped by (content, box, unmarked), so each weight's sum adds n
    times C's coefficients into one integer list per group of size n,
    and becomes one TPoly.  Weights keep first-seen order; one whose
    elements all have C = 0 maps to zero.
    """
    groups: dict = {}  # content coords -> {(box, unmarked): n}
    for w, alive, box, non in scores:
        counts = groups.setdefault(w, {})
        if alive:
            counts[box, non] = counts.get((box, non), 0) + 1
    return {
        w: _scaled_sum((_c_product(box, non), n) for (box, non), n in counts.items())
        for w, counts in groups.items()
    }


def c_factored_string(t: Tableau, *, stats: DecoratedTriangle | None = None) -> str:
    """Human-readable factored form of c_coefficient, e.g. '-t(1-t)'."""
    alive, box, non = _mark_counts(stats or decorate_via_stats(t))
    if not alive:
        return "0"
    sign = "-" if box % 2 else ""
    tpow = "" if box == 0 else ("t" if box == 1 else f"t^{box}")
    upow = "" if non == 0 else ("(1-t)" if non == 1 else f"(1-t)^{non}")
    return (sign + tpow + upow) or "1"
