"""Deformed weight-multiplicity polynomials and their specializations.

For a dominant weight lambda, a rootsys.Shape, each weight drop mu (in
simple-root coordinates) collects the coefficients of the rho-shifted
crystal elements sitting at weight lambda + rho - mu: the coefficient of
z^(lambda+rho-mu) in the crystal sum laurent.cs_rhs, read from the same
weight sums, laurent.shifted_sums, which lists B(lambda+rho) and scores
each element from its pairs of adjacent rows; lambda + rho is
rootsys.shifted(lambda), the shape of that crystal.  A table is one sorted
tuple of rows (mu, w, H), mu a plain tuple and w = lambda + rho - mu as
those sums key it; cli asks the oracles below about w, less rho at q = inf.
The same polynomial arises from tensoring the plain lambda-crystal with
the rho-crystal and only scoring the rho factor; tests/oracles.py keeps
that route as a twin.

Evaluating t = 1/q at 0, -1 and 1 (q = inf, -1 and 1, the points of
cli._AT) recovers, in order: a weight multiplicity of V(lambda), a
weight multiplicity of V(lambda) x V(rho), and a signed indicator of the
shifted Weyl orbit.  All three oracles read the root system, not a
crystal: the first looks the sorted weight up in
rootsys.dominant_multiplicities (Freudenthal's formula), the second in
s_lambda s_rho with s_rho = prod_{i<j} (z_i + z_j), built once per
lambda, and the orbit sign lives in rootsys.  No oracle lists a crystal
or reads a coefficient.
"""

from functools import lru_cache
from itertools import accumulate, combinations
from operator import sub

# Re-exports that perfbench/child.py traces at this module; no function
# here calls them (laurent.shifted_sums lists and scores the crystal).
from .bzl import c_coefficient  # noqa: F401
from .crystal import enumerate_crystal  # noqa: F401
from .laurent import shifted_sums
from .rootsys import Record, Shape, character, dominant_multiplicities, shifted
from .tpoly import q_text


class HTable(Record):
    """All weight drops of the shifted crystal with their polynomials."""

    __slots__ = ("lam", "rows")

    def __init__(self, lam: Shape, rows: tuple):
        self.lam = lam
        self.rows = rows  # (mu, lam + rho - mu, TPoly) triples, sorted by (degree, mu)

    def to_csv(self) -> str:
        """Columns c_1..c_r, then t-coefficients padded to a common degree."""
        width = max(poly.degree() for _, _, poly in self.rows) + 1
        header = [f"c{i}" for i in range(1, self.lam.rank + 1)] + [
            f"t{k}" for k in range(width)
        ]
        lines = [",".join(header)]
        lines += [
            ",".join(map(str, (*mu, *poly.coeffs))) + ",0" * (width - len(poly.coeffs))
            for mu, _, poly in self.rows
        ]
        return "\n".join(lines) + "\n"

    def to_latex(self) -> str:
        """Two column-pair tabular, rows split into halves."""
        pairs = [
            (format_mu(mu, "\\alpha_"), q_text(poly.in_q(0)))
            for mu, _, poly in self.rows
        ]
        half = (len(pairs) + 1) // 2
        lines = [
            "\\begin{array}{c|c||c|c}",
            "\\mu & H & \\mu & H \\\\",
            "\\hline",
        ]
        for (a, b), (c, d) in zip(pairs[:half], pairs[half:] + [("", "")]):
            lines.append(f"{a} & {b} & {c} & {d} \\\\")
        lines.append("\\end{array}")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.lam.parts),
            "rank": self.lam.rank,
            "rows": [
                {"mu": list(mu), "coeffs": list(poly.coeffs)}
                for mu, _, poly in self.rows
            ],
        }


def format_mu(mu: tuple, root: str) -> str:
    """sum c_i alpha_i, mu = (c_1, ..., c_r), with alpha_i written root + i:
    'a1+2a2' for root 'a', '\\alpha_1+2\\alpha_2' for '\\alpha_'; 0 is '0'."""
    if not any(mu):
        return "0"
    pieces = []
    for i, c in enumerate(mu, start=1):
        if c == 0:
            continue
        head = "" if c == 1 else str(c)
        pieces.append(f"{head}{root}{i}")
    return "+".join(pieces)


def h_table(lam: Shape) -> HTable:
    """One row per distinct weight of the rho-shifted crystal.

    The row of mu is the weight sum of laurent.shifted_sums at weight
    w = lam + rho - mu.  The row keeps w as shifted_sums yields it, and
    mu's coordinates are the partial sums of lam + rho - w, each
    nonnegative; the rows are sorted once, by (degree, mu), as every
    reader prints them.
    """
    top = shifted(lam).parts
    size = sum(top)
    rows = []
    for w, poly in shifted_sums(lam).items():
        if sum(w) != size:
            raise ValueError(f"lambda + rho - {w} is not in the root lattice")
        mu = tuple(accumulate(map(sub, top[:-1], w)))
        if min(mu) < 0:
            raise ValueError(f"alpha coordinates must be nonnegative integers: {mu}")
        rows.append((mu, w, poly))
    rows.sort(key=lambda row: (sum(row[0]), row[0]))
    return HTable(lam=lam, rows=tuple(rows))


def weight_multiplicity(lam: Shape, nu: tuple) -> int:
    """Multiplicity of the weight with coordinates nu in V(lam), the
    number of B(lam) elements with content nu: the sorted nu looked up
    in rootsys.dominant_multiplicities; 0 for a nu of another rank."""
    return dominant_multiplicities(lam).get(tuple(sorted(nu, reverse=True)), 0)


@lru_cache(maxsize=8)  # built once per lambda; callers only read the dicts
def _tensor_terms(lam: Shape) -> dict:
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


def tensor_weight_multiplicity(lam: Shape, nu: tuple) -> int:
    """Multiplicity of the weight with coordinates nu in V(lam) x V(rho),
    the number of pairs in B(lam) x B(rho) with content nu; ValueError
    for a nu of another rank."""
    counts = _tensor_terms(lam)
    if len(nu) != lam.rank + 1:
        raise ValueError("rank mismatch between weights")
    return counts.get(nu, 0)
