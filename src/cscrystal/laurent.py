"""Both sides of the deformed character identity, as integer term maps.

The identity is checked as literal polynomial equality.  The product
side starts from the content histogram of B(lambda), which is
s_lambda(z) term by term, times z^rho, as a flat map
{(z-exponent..., t-degree): int}; each factor (1 - t z_j/z_i) then acts
by one shift-and-subtract pass (_times_deformed).  The crystal side sums
C by weight (bzl.weight_sums).  verify_identity builds a LaurentPoly,
which has no arithmetic, from each side only to compare them and
report the first difference; verify_bn_form compares the flat maps
themselves.  No floating point, no division.
"""

from dataclasses import dataclass
from operator import add

from .bzl import crystal_mark_counts, crystal_walk_counts, weight_sums

# No function here calls bzl_path, c_coefficient, decorate_via_operators
# or g_from_triangle: verify_bn_form compares the walk's mark counts per
# block, and the crystal is scored in kernel passes.  The names stay
# importable from this module because perfbench/child.py traces them
# here.
from .bzl import bzl_path, c_coefficient, decorate_via_operators, g_from_triangle  # noqa: F401
from .crystal import enumerate_crystal
from .hpoly import _content_histogram
from .rootsys import GLWeight, partition_shape, rho
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
        for w, n in _content_histogram(partition_shape(lam), lam.rank).items()
    }


def _times_deformed(flat: dict, rank: int, reverse: bool = False) -> dict:
    """flat times prod over i<j of (1 - t z_j/z_i); with reverse, of (1 - t z_i/z_j).

    flat maps (z-exponent..., t-degree) to an int.  Each factor is one
    pass that subtracts the copy of flat moved by t z_j/z_i.  Starting
    from a histogram (positive counts at t-degree 0), every term of
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


def shifted_scores(lam: GLWeight) -> list:
    """crystal_mark_counts over B(lam+rho), enumerated here, as a list."""
    r = lam.rank
    shape = partition_shape(lam + rho(r))
    return list(crystal_mark_counts(shape, r, enumerate_crystal(shape, r)))


def cs_rhs(lam: GLWeight, sums: dict | None = None) -> LaurentPoly:
    """Sum of c_coefficient(b) z^weight(b) over the rho-shifted crystal.

    A caller that already holds weight_sums(shifted_scores(lam)) passes
    it as sums, here and in verify_identity and verify_bn_form, so that
    one verify scores B(lam+rho) once.
    """
    if sums is None:
        sums = weight_sums(shifted_scores(lam))
    return LaurentPoly(lam.rank, sums)


@dataclass(frozen=True)
class IdentityReport:
    equal: bool
    lhs_terms: int
    rhs_terms: int
    first_mismatch: tuple | None  # (exp, lhs coeff, rhs coeff)


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


def verify_bn_form(lam: GLWeight, scores: list | None = None, sums: dict | None = None) -> bool:
    """Check the reversed-coordinate form against the walk route.

    Per element, the walk's (alive, boxed, unmarked) counts, summed over
    its blocks by crystal_walk_counts, must equal the statistics
    scores.  This is the bridge G q^(-total) = C(1/q): G vanishes
    exactly on dead elements, and (-t)^box (1-t)^unmarked determines
    (box, unmarked).  Once every element agrees, the weight sums of the
    statistics side, against reversed weights, must reproduce
    s_lambda(z) * prod(1 - t z_i/z_j) as a flat map.  scores and sums
    are shifted_scores(lam) and its weight_sums, when the caller holds them.
    """
    if scores is None:
        scores = shifted_scores(lam)
    if sums is None:
        sums = weight_sums(scores)
    r, rho_r = lam.rank, rho(lam.rank)
    walked = crystal_walk_counts(partition_shape(lam + rho_r), r, (t for t, *_ in scores))
    for (_, alive, box, non), (w_alive, w_box, w_non) in zip(scores, walked):
        if alive != w_alive or alive and (box, non) != (w_box, w_non):
            return False
    rev = {w: (GLWeight(w) - rho_r).reverse().coords for w in sums}
    rhs = {rev[w] + (k,): c for w, p in sums.items() for k, c in enumerate(p.coeffs) if c}
    return _times_deformed(_histogram_terms(lam, (0,) * (r + 1)), r, reverse=True) == rhs
