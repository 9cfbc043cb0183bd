"""Both sides of the deformed character identity, as integer term maps.

The identity is checked as literal polynomial equality.  The product
side starts from s_lambda(z) term by term, the weight multiplicities of
V(lambda) from rootsys.character (Freudenthal's formula, no crystal
listed), times z^rho, as a flat map
{(z-exponent..., t-degree): int}; each factor (1 - t z_j/z_i) then acts
by one shift-and-subtract pass (_times_deformed).  The crystal side sums
C by weight (bzl.weight_sums) over one scoring pass of B(lambda+rho)
(bzl.crystal_scores), whose memo of distinct Gelfand-Tsetlin blocks
verify_bn_form walks to check the walk against the statistics.
verify_identity builds a LaurentPoly, which has no arithmetic, from
each side only to compare them and report the first difference;
verify_bn_form compares the flat maps themselves.  No floating point;
the one division, Freudenthal's, is exact and checked in rootsys.
"""

from operator import add

from .bzl import block_agrees, crystal_scores, weight_sums

# No function here calls bzl_path, c_coefficient, decorate_via_operators
# or g_from_triangle: verify_bn_form compares the walk with the
# statistics per block, and the crystal is scored in one kernel pass.
# The names stay importable from this module because perfbench/child.py
# traces them here.
from .bzl import bzl_path, c_coefficient, decorate_via_operators, g_from_triangle  # noqa: F401
from .crystal import enumerate_crystal
from .rootsys import GLWeight, Record, character, partition_shape, rho
from .tpoly import TPoly


class LaurentPoly:
    """Sparse map from integer exponent vectors to nonzero TPoly coefficients."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict | None = None):
        self.rank = rank
        clean = {}
        for exp, coeff in (terms or {}).items():
            if coeff.is_zero():
                continue
            exp = tuple(exp)
            if len(exp) != rank + 1:
                raise ValueError(f"exponent {exp} has wrong length for rank {rank}")
            clean[exp] = coeff
        self.terms = clean

    def num_terms(self) -> int:
        return len(self.terms)

    def coefficient(self, exp) -> TPoly:
        return self.terms.get(tuple(exp), TPoly.zero())

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.rank == other.rank and self.terms == other.terms
        return NotImplemented

    def __repr__(self):
        return f"LaurentPoly(rank={self.rank}, {len(self.terms)} terms)"


def _histogram_terms(lam: GLWeight, shift) -> dict:
    """s_lambda(z) z^shift as a flat map {(z-exponent..., 0): count}."""
    return {
        tuple(map(add, w, shift)) + (0,): n
        for w, n in character(lam).items()
    }


def _times_deformed(flat: dict, rank: int, reverse: bool = False) -> dict:
    """flat times prod over i<j of (1 - t z_j/z_i); with reverse, of (1 - t z_i/z_j).

    flat maps (z-exponent..., t-degree) to an int.  Each factor is one
    pass that subtracts the copy of flat moved by t z_j/z_i.  Starting
    from a character (positive counts at t-degree 0), every term of
    t-degree k has taken -t from k factors, so its coefficient has sign
    (-1)^k: nothing cancels, and no zero needs dropping.
    """
    for i in range(rank + 1):
        for j in range(i + 1, rank + 1):
            step = [0] * (rank + 2)
            step[i], step[j], step[-1] = (1, -1, 1) if reverse else (-1, 1, 1)
            out = dict(flat)
            for key, c in flat.items():
                key = tuple(map(add, key, step))
                out[key] = out.get(key, 0) - c
            flat = out
    return flat


def _gather(rank: int, flat: dict) -> LaurentPoly:
    """Group a flat map by z-exponent, one TPoly per exponent."""
    coeffs: dict = {}
    for key, c in flat.items():
        row = coeffs.setdefault(key[:-1], [])
        k = key[-1]
        row.extend([0] * (k + 1 - len(row)))
        row[k] = c
    return LaurentPoly(rank, {exp: TPoly(tuple(row)) for exp, row in coeffs.items()})


def cs_lhs(lam: GLWeight) -> LaurentPoly:
    """z^rho * s_lambda(z) * prod(1 - t z_j/z_i); all exponents end up >= 0."""
    r = lam.rank
    return _gather(r, _times_deformed(_histogram_terms(lam, rho(r).coords), r))


def shifted_sums(lam: GLWeight) -> tuple[dict, dict]:
    """(weight_sums, block memo) of one crystal_scores pass over
    B(lam+rho), enumerated here."""
    r = lam.rank
    shape = partition_shape(lam + rho(r))
    blocks: dict = {}
    return weight_sums(crystal_scores(shape, r, enumerate_crystal(shape, r), blocks)), blocks


def cs_rhs(lam: GLWeight, sums: dict | None = None) -> LaurentPoly:
    """Sum of c_coefficient(b) z^weight(b) over the rho-shifted crystal.

    A caller that already holds the sums of shifted_sums(lam) passes
    them as sums, here and in verify_identity and verify_bn_form, so
    that one verify scores B(lam+rho) once.
    """
    if sums is None:
        sums, _ = shifted_sums(lam)
    return LaurentPoly(lam.rank, sums)


class IdentityReport(Record):
    __slots__ = ("equal", "lhs_terms", "rhs_terms", "first_mismatch")

    def __init__(self, equal: bool, lhs_terms: int, rhs_terms: int, first_mismatch: tuple | None):
        self.equal, self.lhs_terms, self.rhs_terms = equal, lhs_terms, rhs_terms
        self.first_mismatch = first_mismatch  # (exp, lhs coeff, rhs coeff)


def verify_identity(lam: GLWeight, sums: dict | None = None) -> IdentityReport:
    """Compare both sides of the deformed character identity exactly."""
    lhs = cs_lhs(lam)
    rhs = cs_rhs(lam, sums)
    mismatch = None
    for exp in sorted(set(lhs.terms) | set(rhs.terms)):
        a, b = lhs.coefficient(exp), rhs.coefficient(exp)
        if a != b:
            mismatch = (exp, a, b)
            break
    return IdentityReport(
        equal=mismatch is None,
        lhs_terms=lhs.num_terms(),
        rhs_terms=rhs.num_terms(),
        first_mismatch=mismatch,
    )


def verify_bn_form(lam: GLWeight, sums: dict | None = None, blocks: dict | None = None) -> bool:
    """Check the reversed-coordinate form against the walk route.

    Every distinct Gelfand-Tsetlin block of B(lam+rho) is walked once,
    and must equal the statistics block cell by cell (block_agrees).
    Every element's walk then equals its statistics triangle, so the
    bridge G q^(-total) = C(1/q) holds per element.  The weight sums
    of the statistics side, against reversed weights, must then
    reproduce s_lambda(z) * prod(1 - t z_i/z_j) as a flat map.  sums
    and blocks are one shifted_sums(lam), when the caller holds it.
    """
    if sums is None or blocks is None:
        sums, blocks = shifted_sums(lam)
    if not all(block_agrees(*key) for key in blocks):
        return False
    r, rho_r = lam.rank, rho(lam.rank)
    rev = {w: (GLWeight(w) - rho_r).reverse().coords for w in sums}
    rhs = {rev[w] + (k,): c for w, p in sums.items() for k, c in enumerate(p.coeffs) if c}
    return _times_deformed(_histogram_terms(lam, (0,) * (r + 1)), r, reverse=True) == rhs
