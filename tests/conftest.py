import pytest

from cscrystal.crystal import enumerate_crystal
from cscrystal.rootsys import lambda_from_fundamental, shifted
from cscrystal.tableaux import STATS_LAYOUT


def suite_weights():
    """The verification sweep: small dominant weights at ranks 1..3."""
    out = []
    for k in range(4):
        out.append(lambda_from_fundamental((k,), 1))
    for c1 in range(3):
        for c2 in range(3):
            out.append(lambda_from_fundamental((c1, c2), 2))
    for coeffs in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)]:
        out.append(lambda_from_fundamental(coeffs, 3))
    return out


# (rank, fundamental coefficients) of lambda = 0, omega_1 and omega_r at ranks 1-3
CORNER_WEIGHTS = sorted(
    {(r, c) for r in (1, 2, 3) for c in ((0,) * r, (1,) + (0,) * (r - 1), (0,) * (r - 1) + (1,))}
)


def shifted_elements(lam):
    """All tableaux of the rho-shifted crystal of lam."""
    return enumerate_crystal(shifted(lam), lam.rank)


def check_triangle_json(payload, tri, layout):
    """A triangle's parsed JSON against the triangle, with no reader: the
    payload is tri.to_json_dict(layout), and its labels map one to one
    onto the triangle's cells by the layout rule (STATS label (i, j) is
    cell (i, j), BZL label (i, j) is cell (i-j+1, i)), each entry showing
    its cell's value and marks.  So the JSON loses nothing."""
    assert payload == tri.to_json_dict(layout)
    assert (payload["rank"], payload["layout"]) == (tri.rank, layout)
    cells = []
    for e in payload["entries"]:
        i, j = e["i"], e["j"]
        cell = (i, j) if layout == STATS_LAYOUT else (i - j + 1, i)
        assert (e["a"], e["circled"], e["boxed"]) == (
            tri.entry(*cell), cell in tri.circled, cell in tri.boxed
        )
        cells.append(cell)
    r = tri.rank
    assert sorted(cells) == [(i, j) for i in range(1, r + 1) for j in range(i, r + 1)]


@pytest.fixture(scope="session")
def suite():
    return suite_weights()
