"""tableaux._checked_tableau as it was written before its checks became
C-level passes: one Python-level loop per entry, per row and per column.

It is the reference for the rewrite: on any list of rows of ints, the
two must build the same Tableau or raise the same first ValueError.
"""

from cscrystal.tableaux import Tableau


def _checked_tableau(rank: int, rows: list) -> Tableau:
    """Every check of make_tableau but its per-entry type check; rows
    is a list of tuples of ints."""
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
    for i, row in enumerate(rows, start=1):
        for x in row:
            if not 1 <= x <= rank + 1:
                raise ValueError(f"entry {x} in row {i} outside 1..{rank + 1}")
        if any(a > b for a, b in zip(row, row[1:])):
            raise ValueError(f"row {i} is not weakly increasing: {row}")
    for i in range(len(rows) - 1):
        if len(rows[i]) < len(rows[i + 1]):
            raise ValueError("row lengths must be weakly decreasing")
        for j in range(len(rows[i + 1])):
            if rows[i][j] >= rows[i + 1][j]:
                raise ValueError(
                    f"column {j + 1} not strictly increasing between rows {i + 1} and {i + 2}"
                )
    return Tableau(rank, rows)
