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
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .crystal import highest_weight_tableau, reading_word, surviving_slots, tableau_from_word

# The walk no longer calls e_op and phi; they stay importable from this
# module because perfbench/child.py traces them under these names.
from .crystal import e_op, phi  # noqa: F401
from .rootsys import Shape, theta
from .tableaux import DecoratedTriangle, Tableau, _a_rows, _b_rows, _row_histograms
from .tpoly import QLaurent, TPoly


@dataclass(frozen=True)
class LongWord:
    """The fixed reduced word, blocks (1), (2,1), ..., (r,...,1)."""

    rank: int
    letters: tuple[int, ...]

    def __post_init__(self):
        if self.letters != _long_word_letters(self.rank):
            raise ValueError("letters must follow the fixed block schedule")

    def __len__(self):
        return len(self.letters)


def _long_word_letters(rank: int) -> tuple[int, ...]:
    if rank < 1:
        raise ValueError("rank must be >= 1")
    out = []
    for block in range(1, rank + 1):
        out.extend(range(block, 0, -1))
    return tuple(out)


def long_word(rank: int) -> LongWord:
    return LongWord(rank, _long_word_letters(rank))


def _require_strict_shape(t: Tableau) -> Shape:
    shape = t.shape
    if not shape.is_strict():
        raise ValueError(f"tableau shape {shape.parts} is not strictly decreasing")
    return shape


# theta and the top element per shape; a crystal's elements share one shape
_theta = lru_cache(maxsize=64)(theta)
_top = lru_cache(maxsize=16)(highest_weight_tableau)


def _walk(t: Tableau):
    """Raise t to the top along the letter schedule.

    Works on one mutable reading word: each raising step rescans the
    signature of the stage's letter and changes the rightmost surviving
    '-'.  Returns the step counts per (letter, block), the (letter,
    block) stages where the lowering operator was dead before the stage,
    and the final element.
    """
    word = list(reading_word(t))
    entries = {}
    boxed = set()
    for block in range(1, t.rank + 1):
        for letter in range(block, 0, -1):
            minus, plus = surviving_slots(word, letter)
            if not plus:
                boxed.add((letter, block))
            count = 0
            while minus:
                word[minus[-1]] = letter
                count += 1
                minus = surviving_slots(word, letter)[0]
            entries[(letter, block)] = count
    return entries, boxed, tableau_from_word(t, word)


def _walk_to_top(t: Tableau):
    """_walk on a tableau of strict shape, checked to end at the top.

    Returns the step counts and the boxed positions.
    """
    shape = _require_strict_shape(t)
    entries, boxed, top = _walk(t)
    if top != _top(shape, t.rank):
        raise RuntimeError("walk did not finish at the highest-weight tableau")
    return entries, boxed


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
    circled = frozenset(
        (i, j) for (i, j), a in entries.items() if a == entries.get((i - 1, j), 0)
    )
    return DecoratedTriangle(t.rank, _grid(t.rank, entries), circled, frozenset(boxed))


def decorate_via_stats(t: Tableau) -> DecoratedTriangle:
    """Statistic-based marks, no crystal walking.

    Entries are the color counts a_{i,j}; (i, j) is boxed when
    b_{i,j} >= theta_i + b_{i+1,j+1} and circled when a_{i,j} = a_{i-1,j},
    with out-of-range reads equal to 0.  Both statistics come from one
    histogram of the rows.
    """
    th = _theta(_require_strict_shape(t))
    hist = _row_histograms(t)
    a, b = _a_rows(hist), _b_rows(hist)
    r = t.rank
    circled, boxed = [], []
    above = (0,) * (r + 1)  # a_{0,j} = 0
    for i in range(1, r + 1):
        # row i holds j = i..r; a_{i-1,j} sits one further along row i-1,
        # and b_{i+1,j+1} at the same place in row i+1, 0 past its end
        below = b[i] + (0,) if i < r else (0,)
        for j, a_ij, a_up, b_ij, b_down in zip(
            range(i, r + 1), a[i - 1], above[1:], b[i - 1], below
        ):
            if a_ij == a_up:
                circled.append((i, j))
            if b_ij >= th[i - 1] + b_down:
                boxed.append((i, j))
        above = a[i - 1]
    return DecoratedTriangle(r, a, frozenset(circled), frozenset(boxed))


def _mark_counts(tri: DecoratedTriangle) -> tuple[bool, int, int]:
    """(no doubly marked entry, boxed count, unmarked count) of a triangle."""
    size = tri.rank * (tri.rank + 1) // 2
    non = size - len(tri.circled | tri.boxed)
    return tri.circled.isdisjoint(tri.boxed), len(tri.boxed), non


@lru_cache(maxsize=64)
def _q_minus_one_power(n: int) -> tuple[tuple[int, int], ...]:
    """(q-1)^n as (power, coefficient) pairs."""
    return tuple((k, comb(n, k) * (-1) ** (n - k)) for k in range(n + 1))


def g_from_triangle(tri: DecoratedTriangle) -> QLaurent:
    """Product over marked entries: circled gives q^a, boxed gives -q^(a-1),
    unmarked gives (q-1)q^(a-1), and a doubly marked entry kills the product.

    The product depends only on the marks' counts and the entry total:
    (-1)^box q^(total - box - unmarked) (q-1)^unmarked.
    """
    alive, box, non = _mark_counts(tri)
    if not alive:
        return QLaurent.zero()
    shift = tri.total() - box - non
    sign = -1 if box % 2 else 1
    return QLaurent({shift + k: sign * c for k, c in _q_minus_one_power(non)})


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


@lru_cache(maxsize=1024)
def _c_product(box: int, non: int) -> TPoly:
    """(-t)^box (1-t)^non; a shifted crystal meets few (box, non) pairs."""
    return TPoly((0, -1)) ** box * TPoly((1, -1)) ** non


def c_coefficient(t: Tableau, *, stats: DecoratedTriangle | None = None) -> TPoly:
    """Per-entry product: boxed gives -t, unmarked gives 1-t, circled
    gives 1, and an entry both circled and boxed kills the product."""
    alive, box, non = c_counts(t, stats=stats)
    if not alive:
        return TPoly.zero()
    return _c_product(box, non)


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
