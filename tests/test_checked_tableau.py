"""tableaux._checked_tableau against its loop-by-loop reference.

The package checks a tableau's rows by C-level passes (min and max,
all(map(le, ...)), all(map(lt, ...))) and looks for the offending entry
or column only after a check fails; tests/reference_tableau.py keeps
the checks as they were written entry by entry.  On random lists of
rows of ints, the two must build the same Tableau or raise a ValueError
with the same message, so the first defect found, and its wording, do
not depend on how the checks run.

The row lists are valid tableaux with 0-3 defects laid on top: an entry
anywhere in 0..rank+2, an unsorted row, an empty row inside or at the
end, a row too many, a repeated row, a lower row longer than the one
above.
"""

from hypothesis import given, settings, strategies as st

from cscrystal.tableaux import _checked_tableau

from reference_tableau import _checked_tableau as reference_checked_tableau


def _outcome(check, rank, rows):
    """The Tableau check builds from a copy of rows, or its ValueError's message."""
    try:
        return check(rank, list(rows))
    except ValueError as exc:
        return str(exc)


@st.composite
def valid_rows(draw, rank):
    """A semistandard tableau of rank `rank` as a list of tuples."""
    rows, above = [], None
    for i in range(draw(st.integers(0, rank + 1))):
        row = []
        width = draw(st.integers(1, 5)) if above is None else draw(st.integers(1, len(above)))
        for j in range(width):
            low = max(row[-1] if row else i + 1, above[j] + 1 if above else 1)
            if low > rank + 1:
                break
            row.append(draw(st.integers(low, rank + 1)))
        if not row:
            break
        rows.append(tuple(row))
        above = row
    return rows


@st.composite
def defective_rows(draw):
    """(rank, rows): a valid tableau, then 0-3 defects."""
    rank = draw(st.integers(1, 4))
    rows = draw(valid_rows(rank))
    entries = st.integers(0, rank + 2)
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(["entry", "unsorted", "empty", "extra", "repeat", "longer"]))
        k = draw(st.integers(0, len(rows)))
        if kind == "entry" and rows and rows[k % len(rows)]:
            row = list(rows[k % len(rows)])
            row[draw(st.integers(0, len(row) - 1))] = draw(entries)
            rows[k % len(rows)] = tuple(row)
        elif kind == "unsorted":
            row = draw(st.lists(entries, min_size=2, max_size=6))
            rows.insert(k, tuple(row) if row != sorted(row) else tuple(reversed(row)))
        elif kind == "empty":
            rows.insert(k, ())
        elif kind == "extra":
            rows.append(tuple(sorted(draw(st.lists(entries, min_size=1, max_size=3)))))
        elif kind == "repeat" and rows:
            rows.insert(k, rows[k % len(rows)])
        elif kind == "longer" and rows:
            width = len(rows[0]) + 1
            rows.insert(k, tuple(sorted(draw(st.lists(entries, min_size=width, max_size=width + 2)))))
    return rank, rows


@settings(max_examples=1000, deadline=None)
@given(defective_rows())
def test_checked_tableau_matches_reference(case):
    rank, rows = case
    got = _outcome(_checked_tableau, rank, rows)
    want = _outcome(reference_checked_tableau, rank, rows)
    assert got == want
    if not isinstance(want, str):
        assert got.rows == want.rows and type(got.rows) is tuple


def test_several_defects_report_the_first():
    # rows are checked in order, a row's range before its order, every
    # row before any pair of rows; the first failing column is named
    cases = {
        (2, ((2, 1), (5,))): "row 1 is not weakly increasing: (2, 1)",
        (2, ((1, 2), (0,), (3, 2))): "entry 0 in row 2 outside 1..3",
        (2, ((1, 1), (1, 2), (2, 1))): "row 3 is not weakly increasing: (2, 1)",
        (3, ((1, 2, 3), (2, 2, 3))): "column 2 not strictly increasing between rows 1 and 2",
        (3, ((1, 2), (2, 3), (2, 4))): "column 1 not strictly increasing between rows 2 and 3",
        (2, ((1,), (2, 3), ())): "row lengths must be weakly decreasing",
        (1, ((1,), (), (2,))): "row 2 is empty but a later row is not",
        (0, ((1, 0), ())): "rank must be >= 1",
    }
    for (rank, rows), message in cases.items():
        assert _outcome(_checked_tableau, rank, rows) == message
        assert _outcome(reference_checked_tableau, rank, rows) == message
