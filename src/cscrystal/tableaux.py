"""Semistandard Young tableaux, their content and strictness, and the
triangle type that holds the decoration statistics.

A tableau of rank r has entries in 1..r+1, weakly increasing rows,
strictly increasing columns, and weakly decreasing row lengths.  Rows
and columns are 1-indexed throughout.

DecoratedTriangle is the one triangle type of the package: both
decoration routes of bzl return it.  It stores entry (i, j),
1 <= i <= j <= rank, in one coordinate system; the STATS and BZL (PATH)
layouts are two ways of printing it, defined by one table from printed
label to stored cell.  Tableau and DecoratedTriangle are
rootsys.Record value classes.
"""

from bisect import bisect_right
from functools import lru_cache
from operator import le, lt

from .rootsys import Record


class Tableau(Record):
    __slots__ = ("rank", "rows")

    def __init__(self, rank: int, rows: tuple[tuple[int, ...], ...]):
        self.rank = rank
        self.rows = rows

    def to_text(self) -> str:
        """One-line form, rows joined by ' / '; the empty tableau is '∅'."""
        if not self.rows:
            return "∅"
        return " / ".join([" ".join(map(str, row)) for row in self.rows])

    def to_json_dict(self) -> dict:
        return {"rank": self.rank, "rows": [list(row) for row in self.rows]}

    def __str__(self):
        return self.to_text()


def make_tableau(rank: int, rows) -> Tableau:
    """Validate and build a Tableau; raises ValueError on any defect.

    Trailing empty rows are dropped; an empty row before a nonempty one
    is a defect, not a row to skip.  Booleans are refused as the rank
    and as entries, although bool is a subclass of int: a JSON true
    would otherwise pass as 1.
    """
    rows = [tuple(row) for row in rows]
    for i, row in enumerate(rows, start=1):
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(f"entry {x!r} in row {i} is not an integer")
    return _checked_tableau(rank, rows)


def _checked_tableau(rank: int, rows: list) -> Tableau:
    """Every check of make_tableau but its per-entry type check; rows
    is a list of tuples of ints.  Each check is one C-level pass, and
    the offending entry or column is looked for only once it fails."""
    if isinstance(rank, bool) or not isinstance(rank, int):
        raise ValueError(f"rank {rank!r} is not an integer")
    if rank < 1:
        raise ValueError("rank must be >= 1")
    while rows and not rows[-1]:
        rows.pop()
    if () in rows:
        raise ValueError(f"row {rows.index(()) + 1} is empty but a later row is not")
    rows = tuple(rows)
    if len(rows) > rank + 1:
        raise ValueError(f"too many rows ({len(rows)}) for rank {rank}")
    top = rank + 1
    for i, row in enumerate(rows, start=1):
        if min(row) < 1 or max(row) > top:
            x = next(x for x in row if not 1 <= x <= top)
            raise ValueError(f"entry {x} in row {i} outside 1..{top}")
        if not all(map(le, row, row[1:])):
            raise ValueError(f"row {i} is not weakly increasing: {row}")
    for i, (above, row) in enumerate(zip(rows, rows[1:]), start=1):
        if len(above) < len(row):
            raise ValueError("row lengths must be weakly decreasing")
        if not all(map(lt, above, row)):
            j = next(j for j, (a, b) in enumerate(zip(above, row), start=1) if a >= b)
            raise ValueError(f"column {j} not strictly increasing between rows {i} and {i + 1}")
    return Tableau(rank, rows)


def parse_tableau(rank: int, text: str) -> Tableau:
    """Parse the one-line form produced by Tableau.to_text.

    int() makes every entry an int, so a nonempty tableau skips
    make_tableau's per-entry type check and gets every other check."""
    text = text.strip()
    if text in ("", "∅"):
        return make_tableau(rank, [])
    rows = []
    for chunk in text.split("/"):
        entries = chunk.split()
        if not entries:
            raise ValueError(f"empty row in tableau text {text!r}")
        try:
            rows.append(tuple(map(int, entries)))
        except ValueError:
            raise ValueError(f"non-integer entry in tableau text {text!r}") from None
    return _checked_tableau(rank, rows)


STATS_LAYOUT = "STATS"
BZL_LAYOUT = "BZL"


@lru_cache(maxsize=32)
def _print_rows(rank: int, layout: str) -> tuple:
    """The printed rows of a layout, each a tuple of (label, cell) pairs
    in print order.

    STATS prints cell (i, j) under its own label, row i holding j = i..rank.
    BZL, the PATH layout, prints one row per block i = 1..rank with
    positions j = 1..i; label (i, j) shows cell (i-j+1, i), the step count
    of letter i-j+1 in block i.
    """
    if layout == STATS_LAYOUT:
        return tuple(tuple(((i, j), (i, j)) for j in range(i, rank + 1)) for i in range(1, rank + 1))
    if layout == BZL_LAYOUT:
        return tuple(tuple(((i, j), (i - j + 1, i)) for j in range(1, i + 1)) for i in range(1, rank + 1))
    raise ValueError(f"unknown layout {layout!r}")


@lru_cache(maxsize=32)
def _cells(rank: int) -> dict:
    """The cells (i, j), 1 <= i <= j <= rank, of a rank-r triangle, each
    mapped to its position in the triangle's grid read row by row."""
    cells = [(i, j) for i in range(1, rank + 1) for j in range(i, rank + 1)]
    return {cell: k for k, cell in enumerate(cells)}


@lru_cache(maxsize=32)
def _inline_template(rank: int, layout: str) -> str:
    """DecoratedTriangle.inline's text in a layout, each cell a str.format
    field numbered by its _cells position."""
    rows = [", ".join([f"{{{_cells(rank)[cell]}}}" for _, cell in row]) for row in _print_rows(rank, layout)]
    return "(" + "; ".join(rows) + ")"


class DecoratedTriangle(Record):
    """Integers at (i, j), 1 <= i <= j <= rank, with circle and box marks.

    grid[i-1][j-i] holds entry (i, j); circled and boxed hold (i, j)
    pairs.  Reads outside the triangle return 0, which is how the
    boundary conventions a_{0,j} = 0, b_{i,r+1} = 0 and b_{r+1,j} = 0
    enter the decoration rules.
    """

    __slots__ = ("rank", "grid", "circled", "boxed")

    def __init__(self, rank: int, grid: tuple[tuple[int, ...], ...],
                 circled: frozenset = frozenset(), boxed: frozenset = frozenset()):
        self.rank, self.grid, self.circled, self.boxed = rank, grid, circled, boxed
        if list(map(len, self.grid)) != list(range(self.rank, 0, -1)):
            raise ValueError(f"a rank-{self.rank} triangle needs rows of {self.rank}..1 entries")
        cells = _cells(self.rank).keys()
        if not (self.circled <= cells and self.boxed <= cells):
            raise ValueError("decoration marks outside the triangle")

    def entry(self, i: int, j: int) -> int:
        if 1 <= i <= j <= self.rank:
            return self.grid[i - 1][j - i]
        return 0

    def total(self) -> int:
        return sum(map(sum, self.grid))

    def inline(self, layout: str = STATS_LAYOUT) -> str:
        """Rows joined by '; ' in a print layout: '(2, 0◯; 2□)' in STATS,
        '(2; 2□, 0◯)' for the same triangle in BZL."""
        return self.inlines(layout)[0]

    def inlines(self, *layouts: str) -> tuple:
        """inline in each of the layouts; each cell's text is made once."""
        texts = [str(a) for row in self.grid for a in row]
        index = _cells(self.rank)
        for cell in self.circled:
            texts[index[cell]] += "◯"
        for cell in self.boxed:
            texts[index[cell]] += "□"
        return tuple([_inline_template(self.rank, layout).format(*texts) for layout in layouts])

    def to_json_dict(self, layout: str = STATS_LAYOUT) -> dict:
        return {
            "rank": self.rank,
            "layout": layout,
            "entries": [
                {
                    "i": i,
                    "j": j,
                    "a": self.entry(*cell),
                    "circled": cell in self.circled,
                    "boxed": cell in self.boxed,
                }
                for row in _print_rows(self.rank, layout)
                for (i, j), cell in row
            ],
        }


def content(t: Tableau) -> tuple:
    """Entry-count vector: coordinate k is the number of boxes holding k."""
    counts = [0] * (t.rank + 1)
    for row in t.rows:
        for x in row:
            counts[x - 1] += 1
    return tuple(counts)


@lru_cache(maxsize=1)
def gt_rows(t: Tableau) -> tuple:
    """Gelfand-Tsetlin rows 1..rank+1 of t: row j holds, per tableau row
    1..j, the number of entries <= j.  Absent rows read as empty; rows
    are sorted, so each count is one bisection.  One entry of memo: a
    bzl call reads its tableau's rows once for both decoration routes
    and is_strict, and no more than that one tableau is kept."""
    rows = t.rows + ((),) * (t.rank + 1 - len(t.rows))
    return tuple([tuple([bisect_right(row, j) for row in rows[:j]]) for j in range(1, t.rank + 2)])


def is_strict(t: Tableau) -> bool:
    """Every GT row strictly decreases.

    GT row k holds the counts of entries <= k in rows 1..k, so this is
    the truncation shape of every threshold k being strict.  It is the
    condition under which the tableau's coefficient in the deformed
    character sum survives; comparing row maxima is close but not
    equivalent (a lone large entry in a long row can dominate the next
    row without pinching any truncation shape).
    """
    return all(a > b for row in gt_rows(t) for a, b in zip(row, row[1:]))
