"""Deformed weight-multiplicity polynomials and their specializations.

For a dominant weight lambda, each weight drop mu (in simple-root
coordinates) collects the coefficients of the rho-shifted crystal
elements sitting at weight lambda + rho - mu: the coefficient of
z^(lambda+rho-mu) in the crystal sum laurent.cs_rhs, read from the same
bzl.weight_sums over one bzl.crystal_scores pass, which scores each
element from its Gelfand-Tsetlin blocks.  The same polynomial arises
from tensoring the plain lambda-crystal with the rho-crystal and only
scoring the rho factor, which gives an internal cross-check.

Evaluating t at 0, -1 and 1 recovers, in order: a weight multiplicity
of the irreducible, a weight multiplicity of a tensor product, and a
signed indicator of the shifted Weyl orbit.  The first two have
independent oracles here, read from one weight histogram of B(lambda)
and one convolution of it with B(rho), each built once per lambda; the
orbit sign lives in rootsys.  No oracle looks at B(lambda+rho) or at any
coefficient.
"""

import enum
from functools import lru_cache

from .bzl import _scaled_sum, c_coefficient, crystal_scores, weight_sums
from .crystal import enumerate_crystal
from .rootsys import (
    AlphaVector, GLWeight, Record, Shape, alpha_to_gl, gl_to_alpha, partition_shape, rho,
)
from .tableaux import _content_coords, content
from .tpoly import TPoly


class SpecPoint(enum.Enum):
    """The three evaluation points, named by the value of q."""

    Q_INF = "inf"
    Q_MINUS_ONE = "-1"
    Q_ONE = "1"


_T_VALUE = {SpecPoint.Q_INF: 0, SpecPoint.Q_MINUS_ONE: -1, SpecPoint.Q_ONE: 1}


def h_tensor(lam: GLWeight, mu: AlphaVector) -> TPoly:
    """The H-table polynomial of mu, assembled from B(lam) x B(rho).

    Only the rho-side factor is scored: each b in B(rho) adds C(b) times
    the number of B(lam) elements that carry the pair to the target
    weight, read from B(lam)'s content histogram, into one integer list.
    """
    r = lam.rank
    target = lam + rho(r) - alpha_to_gl(mu, r)
    counts = _content_histogram(partition_shape(lam), r)
    scored = []
    for t in enumerate_crystal(partition_shape(rho(r)), r):
        m = counts.get((target - content(t)).coords, 0)
        if m:
            scored.append((c_coefficient(t), m))
    return _scaled_sum(scored)


class HTable(Record):
    """All weight drops of the shifted crystal with their polynomials."""

    __slots__ = ("lam", "rank", "rows")

    def __init__(self, lam: GLWeight, rank: int, rows: dict):
        self.lam, self.rank = lam, rank
        self.rows = rows  # AlphaVector -> TPoly

    def sorted_rows(self):
        """(mu, polynomial) pairs ordered by (degree, coordinates)."""
        return [
            (mu, self.rows[mu])
            for mu in sorted(self.rows, key=lambda m: (m.degree(), m.c))
        ]

    def to_csv(self) -> str:
        """Columns c_1..c_r, then t-coefficients padded to a common degree."""
        width = max(p.degree() for p in self.rows.values()) + 1
        header = [f"c{i}" for i in range(1, self.rank + 1)] + [
            f"t{k}" for k in range(width)
        ]
        lines = [",".join(header)]
        for mu, poly in self.sorted_rows():
            coeffs = [poly.coefficient(k) for k in range(width)]
            lines.append(",".join(str(x) for x in list(mu.c) + coeffs))
        return "\n".join(lines) + "\n"

    def to_latex(self) -> str:
        """Two column-pair tabular, rows split into halves."""
        pairs = [
            (format_mu(mu, "\\alpha_"), str(poly.to_qlaurent()))
            for mu, poly in self.sorted_rows()
        ]
        half = (len(pairs) + 1) // 2
        lines = [
            "\\begin{array}{c|c||c|c}",
            "\\mu & H & \\mu & H \\\\",
            "\\hline",
        ]
        for k in range(half):
            left = pairs[k]
            right = pairs[half + k] if half + k < len(pairs) else ("", "")
            lines.append(f"{left[0]} & {left[1]} & {right[0]} & {right[1]} \\\\")
        lines.append("\\end{array}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.lam.coords),
            "rank": self.rank,
            "rows": [
                {"mu": list(mu.c), "coeffs": list(poly.coeffs)}
                for mu, poly in self.sorted_rows()
            ],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "HTable":
        rows = {
            AlphaVector(tuple(row["mu"])): TPoly(tuple(row["coeffs"]))
            for row in obj["rows"]
        }
        return cls(lam=GLWeight(tuple(obj["lambda"])), rank=obj["rank"], rows=rows)


def format_mu(mu: AlphaVector, root: str) -> str:
    """sum c_i alpha_i with alpha_i written root + i: 'a1+2a2' for root 'a',
    '\\alpha_1+2\\alpha_2' for root '\\alpha_'; the zero drop is '0'."""
    if mu.degree() == 0:
        return "0"
    pieces = []
    for i, c in enumerate(mu.c, start=1):
        if c == 0:
            continue
        head = "" if c == 1 else str(c)
        pieces.append(f"{head}{root}{i}")
    return "+".join(pieces)


def h_table(lam: GLWeight) -> HTable:
    """One row per distinct weight of the rho-shifted crystal.

    The row of mu is bzl.weight_sums of one scoring pass over B(lam+rho)
    at weight lam + rho - mu, rows in weight_sums order.
    """
    r = lam.rank
    shifted = lam + rho(r)
    shape = partition_shape(shifted)
    sums = weight_sums(crystal_scores(shape, r, enumerate_crystal(shape, r)))
    rows = {gl_to_alpha(shifted - GLWeight(w)): poly for w, poly in sums.items()}
    return HTable(lam=lam, rank=r, rows=rows)


def specialize(h: TPoly, point: SpecPoint) -> int:
    return h.eval(_T_VALUE[point])


# Each table is built per (shape, rank) and looked up once per H-table
# row; a process asks about few weights at a time, so a few entries do.
# The cached dicts are shared, so callers only read them.
@lru_cache(maxsize=8)
def _content_histogram(shape: Shape, rank: int) -> dict:
    """Content coordinates -> number of crystal elements with that content."""
    counts: dict = {}
    for t in enumerate_crystal(shape, rank):
        w = _content_coords(t)
        counts[w] = counts.get(w, 0) + 1
    return counts


@lru_cache(maxsize=8)
def _tensor_histogram(shape: Shape, rank: int) -> dict:
    """Weight coordinates -> multiplicity in B(shape) x B(rho): the
    convolution of the two content histograms."""
    left = _content_histogram(shape, rank)
    right = _content_histogram(partition_shape(rho(rank)), rank)
    counts: dict = {}
    for a, m in left.items():
        for b, n in right.items():
            w = tuple(x + y for x, y in zip(a, b))
            counts[w] = counts.get(w, 0) + m * n
    return counts


def weight_multiplicity(lam: GLWeight, nu: GLWeight) -> int:
    """Number of lambda-crystal elements with entry-count vector nu.

    A lookup in the content histogram of B(lambda); a nu of another rank
    matches no element and gives 0.
    """
    return _content_histogram(partition_shape(lam), lam.rank).get(nu.coords, 0)


def tensor_weight_multiplicity(lam: GLWeight, nu: GLWeight) -> int:
    """Multiplicity of nu as a weight of B(lam) x B(rho), by convolution.

    A lookup in the convolution of the B(lambda) and B(rho) content
    histograms; a nu of another rank raises ValueError.
    """
    r = lam.rank
    counts = _tensor_histogram(partition_shape(lam), r)
    if len(nu.coords) != r + 1:
        raise ValueError("rank mismatch between weights")
    return counts.get(nu.coords, 0)
