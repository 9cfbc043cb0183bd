"""Deformed weight-multiplicity polynomials and their specializations.

For a dominant weight lambda, each weight drop mu (in simple-root
coordinates) collects the coefficients of the rho-shifted crystal
elements sitting at weight lambda + rho - mu: the coefficient of
z^(lambda+rho-mu) in the crystal sum laurent.cs_rhs, read from the same
bzl.weight_sums over one bzl.crystal_scores pass, which scores each
element from its Gelfand-Tsetlin blocks.  The same polynomial arises
from tensoring the plain lambda-crystal with the rho-crystal and only
scoring the rho factor; tests/oracles.py keeps that route as a twin.

Evaluating t at 0, -1 and 1 recovers, in order: a weight multiplicity
of V(lambda), a weight multiplicity of V(lambda) x V(rho), and a signed
indicator of the shifted Weyl orbit.  All three oracles read the root
system, not a crystal: the first looks the sorted weight up in
rootsys.dominant_multiplicities (Freudenthal's formula), the second in
s_lambda s_rho with s_rho = prod_{i<j} (z_i + z_j), built once per
lambda, and the orbit sign lives in rootsys.  No oracle lists a crystal
or reads a coefficient.
"""

import enum
from functools import lru_cache
from itertools import combinations

from .bzl import crystal_scores, weight_sums

# No function here calls c_coefficient: the oracles read the root
# system, not coefficients.  The name stays importable from this module
# because perfbench/child.py traces it here.
from .bzl import c_coefficient  # noqa: F401
from .crystal import enumerate_crystal
from .rootsys import (
    AlphaVector, GLWeight, Record, character, dominant_multiplicities, gl_to_alpha,
    partition_shape, rho,
)
from .tpoly import TPoly


class SpecPoint(enum.Enum):
    """The three evaluation points, named by the value of q."""

    Q_INF = "inf"
    Q_MINUS_ONE = "-1"
    Q_ONE = "1"


_T_VALUE = {SpecPoint.Q_INF: 0, SpecPoint.Q_MINUS_ONE: -1, SpecPoint.Q_ONE: 1}


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


def weight_multiplicity(lam: GLWeight, nu: GLWeight) -> int:
    """Multiplicity of the weight nu in V(lam), the number of B(lam)
    elements with content nu: the sorted nu looked up in
    rootsys.dominant_multiplicities; 0 for a nu of another rank."""
    return dominant_multiplicities(lam).get(tuple(sorted(nu.coords, reverse=True)), 0)


@lru_cache(maxsize=8)  # built once per lambda; callers only read the dicts
def _tensor_terms(lam: GLWeight) -> dict:
    """Weight coordinates -> multiplicity in V(lam) x V(rho), from
    s_lam(z) s_rho(z) with s_rho = prod_{i<j} (z_i + z_j): each pair is
    one pass that adds the copies of the map moved by e_i and by e_j."""
    flat = character(lam)
    for pair in combinations(range(lam.rank + 1), 2):
        out: dict = {}
        for k in pair:
            for w, m in flat.items():
                w = w[:k] + (w[k] + 1,) + w[k + 1:]
                out[w] = out.get(w, 0) + m
        flat = out
    return flat


def tensor_weight_multiplicity(lam: GLWeight, nu: GLWeight) -> int:
    """Multiplicity of nu as a weight of V(lam) x V(rho), the number of
    pairs in B(lam) x B(rho) with content nu; ValueError for a nu of
    another rank."""
    counts = _tensor_terms(lam)
    if len(nu.coords) != lam.rank + 1:
        raise ValueError("rank mismatch between weights")
    return counts.get(nu.coords, 0)
