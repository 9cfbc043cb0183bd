"""Paths along a fixed reduced word, and two decoration calculi.

Walking a tableau up to the highest-weight element with raising
operators, letter schedule (1; 2,1; 3,2,1; ...; r,...,1), produces a
triangle of step counts.  The same triangle can be filled from counting
statistics on the tableau alone, and both carry circle and box marks:
one rule set derived from the walk, one from the statistics.  The
marked triangle determines the coefficient attached to the tableau.

Triangles come in two coordinate systems.  PATH layout row i holds
positions j = 1..i (entry (i, j) belongs to letter i-j+1); STATS layout
row i holds positions j = i..r.  They correspond under
(i, j) <-> (i-j+1, i).
"""

from dataclasses import dataclass

from .crystal import highest_weight_tableau, reading_word, surviving_slots, tableau_from_word

# The walk no longer calls e_op and phi; they stay importable from this
# module because perfbench/child.py traces them under these names.
from .crystal import e_op, phi  # noqa: F401
from .rootsys import theta
from .tableaux import Tableau, is_strict, stats_a, stats_b
from .tpoly import QLaurent, TPoly

BZL_LAYOUT = "BZL"
STATS_LAYOUT = "STATS"


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


def _index_set(rank: int, layout: str):
    if layout == BZL_LAYOUT:
        return [(i, j) for i in range(1, rank + 1) for j in range(1, i + 1)]
    if layout == STATS_LAYOUT:
        return [(i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]
    raise ValueError(f"unknown layout {layout!r}")


def _row_lengths(rank: int, layout: str):
    if layout == BZL_LAYOUT:
        return [i for i in range(1, rank + 1)]
    return [rank - i + 1 for i in range(1, rank + 1)]


@dataclass(frozen=True)
class DecoratedTriangle:
    """Triangle of nonnegative entries with circle and box marks.

    grid[i-1] lists row i in the active layout; circled and boxed hold
    (i, j) index pairs.  Reads outside the index set return 0, matching
    the boundary conventions of both decoration rules.
    """

    rank: int
    layout: str
    grid: tuple[tuple[int, ...], ...]
    circled: frozenset
    boxed: frozenset

    def __post_init__(self):
        expected = _row_lengths(self.rank, self.layout)
        if [len(row) for row in self.grid] != expected:
            raise ValueError(f"grid rows do not match {self.layout} layout for rank {self.rank}")
        index = set(_index_set(self.rank, self.layout))
        if not (set(self.circled) <= index and set(self.boxed) <= index):
            raise ValueError("decoration marks outside the triangle")

    def entry(self, i: int, j: int) -> int:
        if self.layout == BZL_LAYOUT:
            if 1 <= j <= i <= self.rank:
                return self.grid[i - 1][j - 1]
        else:
            if 1 <= i <= j <= self.rank:
                return self.grid[i - 1][j - i]
        return 0

    def items(self):
        for i, j in _index_set(self.rank, self.layout):
            yield (i, j), self.entry(i, j)

    def total(self) -> int:
        return sum(a for _, a in self.items())

    def flags(self, i: int, j: int) -> tuple[bool, bool]:
        return ((i, j) in self.circled, (i, j) in self.boxed)

    def doubly_decorated(self) -> list[tuple[int, int]]:
        return sorted(self.circled & self.boxed)

    def to_stats(self) -> "DecoratedTriangle":
        if self.layout == STATS_LAYOUT:
            return self
        return self._convert(STATS_LAYOUT, lambda u, v: (v, v - u + 1))

    def to_bzl(self) -> "DecoratedTriangle":
        if self.layout == BZL_LAYOUT:
            return self
        return self._convert(BZL_LAYOUT, lambda i, j: (i - j + 1, i))

    def _convert(self, layout, source_of):
        mapping = {pair: source_of(*pair) for pair in _index_set(self.rank, layout)}
        grid = []
        for i in range(1, self.rank + 1):
            js = range(1, i + 1) if layout == BZL_LAYOUT else range(i, self.rank + 1)
            grid.append(tuple(self.entry(*mapping[(i, j)]) for j in js))
        inverse = {src: dst for dst, src in mapping.items()}
        return DecoratedTriangle(
            rank=self.rank,
            layout=layout,
            grid=tuple(grid),
            circled=frozenset(inverse[p] for p in self.circled),
            boxed=frozenset(inverse[p] for p in self.boxed),
        )

    def inline(self, markers: bool = True) -> str:
        """Rows joined by '; ', e.g. '(2; 2□, 0◯)'."""
        rows = []
        for i in range(1, self.rank + 1):
            cells = []
            js = range(1, i + 1) if self.layout == BZL_LAYOUT else range(i, self.rank + 1)
            for j in js:
                cell = str(self.entry(i, j))
                if markers:
                    if (i, j) in self.circled:
                        cell += "◯"
                    if (i, j) in self.boxed:
                        cell += "□"
                cells.append(cell)
            rows.append(", ".join(cells))
        return "(" + "; ".join(rows) + ")"

    def to_json_dict(self) -> dict:
        return {
            "rank": self.rank,
            "layout": self.layout,
            "entries": [
                {
                    "i": i,
                    "j": j,
                    "a": self.entry(i, j),
                    "circled": (i, j) in self.circled,
                    "boxed": (i, j) in self.boxed,
                }
                for i, j in _index_set(self.rank, self.layout)
            ],
        }


def triangle_from_json(obj: dict) -> DecoratedTriangle:
    rank, layout = obj["rank"], obj["layout"]
    cells = {(e["i"], e["j"]): e for e in obj["entries"]}
    if set(cells) != set(_index_set(rank, layout)):
        raise ValueError("triangle JSON does not cover the index set exactly")
    grid = []
    for i in range(1, rank + 1):
        js = range(1, i + 1) if layout == BZL_LAYOUT else range(i, rank + 1)
        grid.append(tuple(cells[(i, j)]["a"] for j in js))
    return DecoratedTriangle(
        rank=rank,
        layout=layout,
        grid=tuple(grid),
        circled=frozenset(p for p, e in cells.items() if e["circled"]),
        boxed=frozenset(p for p, e in cells.items() if e["boxed"]),
    )


def _require_strict_shape(t: Tableau):
    if not t.shape.is_strict():
        raise ValueError(f"tableau shape {t.shape.parts} is not strictly decreasing")


def _walk(t: Tableau):
    """Raise t to the top along the letter schedule.

    Works on one mutable reading word: each raising step rescans the
    signature of the stage's letter and changes the rightmost surviving
    '-'.  Returns the step counts per (block, position), the positions
    where the lowering operator was dead before the block step, and the
    final element.
    """
    word = list(reading_word(t))
    entries = {}
    boxed = set()
    for block in range(1, t.rank + 1):
        for pos in range(1, block + 1):
            letter = block - pos + 1
            minus, plus = surviving_slots(word, letter)
            if not plus:
                boxed.add((block, pos))
            count = 0
            while minus:
                word[minus[-1]] = letter
                count += 1
                minus = surviving_slots(word, letter)[0]
            entries[(block, pos)] = count
    return entries, boxed, tableau_from_word(t, word)


def _bzl_grid(rank, entries):
    return tuple(
        tuple(entries[(i, j)] for j in range(1, i + 1)) for i in range(1, rank + 1)
    )


def bzl_path(t: Tableau) -> DecoratedTriangle:
    """Step-count triangle of the walk, PATH layout, no marks."""
    _require_strict_shape(t)
    entries, _, top = _walk(t)
    if top != highest_weight_tableau(t.shape, t.rank):
        raise RuntimeError("walk did not finish at the highest-weight tableau")
    return DecoratedTriangle(
        rank=t.rank,
        layout=BZL_LAYOUT,
        grid=_bzl_grid(t.rank, entries),
        circled=frozenset(),
        boxed=frozenset(),
    )


def decorate_via_operators(t: Tableau) -> DecoratedTriangle:
    """Walk-based marks: box where lowering dies, circle on equal neighbors.

    A position (i, j) is boxed when the lowering operator for its letter
    kills the element reached just before that stage.  It is circled
    when its entry equals the entry at (i, j+1), reading 0 past the row
    end.
    """
    _require_strict_shape(t)
    entries, boxed, top = _walk(t)
    if top != highest_weight_tableau(t.shape, t.rank):
        raise RuntimeError("walk did not finish at the highest-weight tableau")
    circled = set()
    for (i, j), a in entries.items():
        if a == entries.get((i, j + 1), 0):
            circled.add((i, j))
    return DecoratedTriangle(
        rank=t.rank,
        layout=BZL_LAYOUT,
        grid=_bzl_grid(t.rank, entries),
        circled=frozenset(circled),
        boxed=frozenset(boxed),
    )


def decorate_via_stats(t: Tableau) -> DecoratedTriangle:
    """Statistic-based marks, no crystal walking.

    Entries are the color counts a_{i,j}; (i, j) is boxed when
    b_{i,j} >= theta_i + b_{i+1,j+1} and circled when a_{i,j} = a_{i-1,j},
    with out-of-range reads equal to 0.
    """
    _require_strict_shape(t)
    th = theta(t.shape)
    a = stats_a(t)
    b = stats_b(t)
    index = _index_set(t.rank, STATS_LAYOUT)
    boxed = frozenset(
        (i, j) for i, j in index if b.get(i, j) >= th[i - 1] + b.get(i + 1, j + 1)
    )
    circled = frozenset((i, j) for i, j in index if a.get(i, j) == a.get(i - 1, j))
    grid = tuple(
        tuple(a.get(i, j) for j in range(i, t.rank + 1)) for i in range(1, t.rank + 1)
    )
    return DecoratedTriangle(
        rank=t.rank, layout=STATS_LAYOUT, grid=grid, circled=circled, boxed=boxed
    )


def g_from_triangle(tri: DecoratedTriangle) -> QLaurent:
    """Product over marked entries: circled gives q^a, boxed gives -q^(a-1),
    unmarked gives (q-1)q^(a-1), and a doubly marked entry kills the product."""
    result = QLaurent.one()
    for (i, j), a in tri.items():
        circ, box = tri.flags(i, j)
        if circ and box:
            return QLaurent.zero()
        if circ:
            factor = QLaurent.q_power(a)
        elif box:
            factor = QLaurent.q_power(a - 1, -1)
        else:
            factor = QLaurent({a: 1, a - 1: -1})
        result = result * factor
    return result


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
    tri = stats or decorate_via_stats(t)
    box = len(tri.boxed)
    non = sum(1 for pair, _ in tri.items() if pair not in tri.circled and pair not in tri.boxed)
    return not tri.doubly_decorated(), box, non


def c_coefficient(t: Tableau, *, stats: DecoratedTriangle | None = None) -> TPoly:
    """Per-entry product: boxed gives -t, unmarked gives 1-t, circled
    gives 1, and an entry both circled and boxed kills the product."""
    alive, box, non = c_counts(t, stats=stats)
    if not alive:
        return TPoly.zero()
    return TPoly((0, -1)) ** box * TPoly((1, -1)) ** non


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
