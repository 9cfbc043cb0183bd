"""Deformed weight-multiplicity polynomials and their specializations.

For a dominant weight lambda, each weight drop mu (in simple-root
coordinates) collects the coefficients of the rho-shifted crystal
elements sitting at weight lambda + rho - mu.  The same polynomial
arises from tensoring the plain lambda-crystal with the rho-crystal and
only scoring the rho factor, which gives an internal cross-check.

Evaluating t at 0, -1 and 1 recovers, in order: a weight multiplicity
of the irreducible, a weight multiplicity of a tensor product, and a
signed indicator of the shifted Weyl orbit.
"""

import enum
from dataclasses import dataclass

from ._threads import parallel_map
from .bzl import c_coefficient
from .crystal import enumerate_crystal
from .rootsys import AlphaVector, GLWeight, alpha_to_gl, gl_to_alpha, partition_shape, rho
from .tableaux import content
from .tpoly import TPoly


class SpecPoint(enum.Enum):
    """The three evaluation points, named by the value of q."""

    Q_INF = "inf"
    Q_MINUS_ONE = "-1"
    Q_ONE = "1"


_T_VALUE = {SpecPoint.Q_INF: 0, SpecPoint.Q_MINUS_ONE: -1, SpecPoint.Q_ONE: 1}


def h_direct(lam: GLWeight, mu: AlphaVector) -> TPoly:
    """Coefficient sum over shifted-crystal elements of weight lam+rho-mu.

    A mu outside the weight support of the shifted crystal contributes
    nothing and yields the zero polynomial.
    """
    r = lam.rank
    target = lam + rho(r) - alpha_to_gl(mu, r)
    shape = partition_shape(lam + rho(r))
    total = TPoly.zero()
    for t in enumerate_crystal(shape, r):
        if content(t) == target:
            total = total + c_coefficient(t)
    return total


def h_tensor(lam: GLWeight, mu: AlphaVector) -> TPoly:
    """Same polynomial assembled from pairs in B(lam) x B(rho).

    Only the rho-side factor is scored; the lam-side factor just
    steers which pairs land on the target weight.
    """
    r = lam.rank
    target = lam + rho(r) - alpha_to_gl(mu, r)
    lam_elements = enumerate_crystal(partition_shape(lam), r)
    rho_elements = enumerate_crystal(partition_shape(rho(r)), r)
    rho_scored = [(content(t), c_coefficient(t)) for t in rho_elements]
    total = TPoly.zero()
    for left in lam_elements:
        left_wt = content(left)
        for right_wt, coeff in rho_scored:
            if left_wt + right_wt == target:
                total = total + coeff
    return total


@dataclass(frozen=True)
class HTable:
    """All weight drops of the shifted crystal with their polynomials."""

    lam: GLWeight
    rank: int
    rows: dict  # AlphaVector -> TPoly

    def sorted_rows(self):
        """(mu, polynomial) pairs ordered by (degree, coordinates)."""
        return [
            (mu, self.rows[mu])
            for mu in sorted(self.rows, key=lambda m: (m.degree(), m.c))
        ]

    def supports(self, mu: AlphaVector) -> bool:
        return mu in self.rows

    def max_t_degree(self) -> int:
        return max(p.degree() for p in self.rows.values())

    def to_csv(self) -> str:
        """Columns c_1..c_r, then t-coefficients padded to a common degree."""
        width = self.max_t_degree() + 1
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
            (format_mu_latex(mu), poly.format("q")) for mu, poly in self.sorted_rows()
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


def format_mu_latex(mu: AlphaVector) -> str:
    if mu.degree() == 0:
        return "0"
    pieces = []
    for i, c in enumerate(mu.c, start=1):
        if c == 0:
            continue
        head = "" if c == 1 else str(c)
        pieces.append(f"{head}\\alpha_{i}")
    return "+".join(pieces)


def format_mu_text(mu: AlphaVector) -> str:
    if mu.degree() == 0:
        return "0"
    pieces = []
    for i, c in enumerate(mu.c, start=1):
        if c == 0:
            continue
        head = "" if c == 1 else str(c)
        pieces.append(f"{head}a{i}")
    return "+".join(pieces)


def h_table(lam: GLWeight, threads: int = 1) -> HTable:
    """One row per distinct weight of the rho-shifted crystal."""
    r = lam.rank
    shifted = lam + rho(r)
    shape = partition_shape(shifted)
    elements = enumerate_crystal(shape, r)

    def term(t):
        return gl_to_alpha(shifted - content(t)), c_coefficient(t)

    rows: dict = {}
    for mu, coeff in parallel_map(term, elements, threads):
        rows[mu] = rows.get(mu, TPoly.zero()) + coeff
    return HTable(lam=lam, rank=r, rows=rows)


def specialize(h: TPoly, point: SpecPoint) -> int:
    return h.eval(_T_VALUE[point])


def weight_multiplicity(lam: GLWeight, nu: GLWeight) -> int:
    """Number of lambda-crystal elements with entry-count vector nu."""
    count = 0
    for t in enumerate_crystal(partition_shape(lam), lam.rank):
        if content(t) == nu:
            count += 1
    return count


def tensor_weight_multiplicity(lam: GLWeight, nu: GLWeight) -> int:
    """Multiplicity of nu as a weight of B(lam) x B(rho), by convolution."""
    r = lam.rank
    lam_counts: dict = {}
    for t in enumerate_crystal(partition_shape(lam), r):
        w = content(t).coords
        lam_counts[w] = lam_counts.get(w, 0) + 1
    total = 0
    for t in enumerate_crystal(partition_shape(rho(r)), r):
        remainder = nu - content(t)
        total += lam_counts.get(remainder.coords, 0)
    return total
