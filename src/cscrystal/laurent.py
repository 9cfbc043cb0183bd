"""Both sides of the deformed character identity, as flat integer maps.

The identity is checked as literal polynomial equality.  Each side is
one map {(z-exponent..., t-degree): int} with no zero values.  The
product side starts from s_lambda(z) term by term, the weight
multiplicities of V(lambda) from rootsys.character (Freudenthal's
formula, no crystal listed), times z^rho; each factor (1 - t z_j/z_i)
then acts by one shift-and-subtract pass (_times_deformed).  The crystal
side sums C by weight (bzl.weight_sums), each sum spread over its
t-degrees, from one scoring pass of B(lambda+rho) (bzl.crystal_scores).
verify_identity compares the two maps, and looks for the first
differing exponent only when they differ.  The reversed form is the
identity relabelled by the bijection e -> reversed(e - rho), so its
verdict is the identity's verdict plus the walk's: verify_bn_form walks
the scorer's memo of distinct Gelfand-Tsetlin blocks and holds each
equal to its statistics block, and compares no weight sums.  Each side
is built once per verify.  No floating point; the one division,
Freudenthal's, is exact and checked in rootsys.
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
    """One side of the identity: a flat map {(z-exponent..., t-degree): int}
    with no zero values, held as given and never written to."""

    __slots__ = ("rank", "flat")

    def __init__(self, rank: int, flat: dict):
        if set(map(len, flat)) - {rank + 2}:
            raise ValueError(f"a key at rank {rank} is {rank + 1} exponents and a t-degree")
        self.rank, self.flat = rank, flat

    def num_terms(self) -> int:
        """The number of z-exponents with a nonzero coefficient."""
        return len({key[:-1] for key in self.flat})

    def coefficient(self, exp) -> TPoly:
        exp = tuple(exp)
        top = max((key[-1] for key in self.flat), default=-1)
        return TPoly(tuple(self.flat.get(exp + (k,), 0) for k in range(top + 1)))

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.rank == other.rank and self.flat == other.flat
        return NotImplemented

    def __repr__(self):
        return f"LaurentPoly(rank={self.rank}, {len(self.flat)} flat terms)"


def _times_deformed(flat: dict, rank: int) -> dict:
    """flat times prod over i<j of (1 - t z_j/z_i).

    flat maps (z-exponent..., t-degree) to an int.  Each factor is one
    pass that subtracts the copy of flat moved by t z_j/z_i.  Starting
    from a character (positive counts at t-degree 0), every term of
    t-degree k has taken -t from k factors, so its coefficient has sign
    (-1)^k: nothing cancels, and no zero needs dropping.
    """
    for i in range(rank + 1):
        for j in range(i + 1, rank + 1):
            step = [0] * (rank + 2)
            step[i], step[j], step[-1] = -1, 1, 1
            out = dict(flat)
            for key, c in flat.items():
                key = tuple(map(add, key, step))
                out[key] = out.get(key, 0) - c
            flat = out
    return flat


def cs_lhs(lam: GLWeight) -> LaurentPoly:
    """z^rho * s_lambda(z) * prod(1 - t z_j/z_i); all exponents end up >= 0."""
    r, shift = lam.rank, rho(lam.rank).coords
    flat = {tuple(map(add, w, shift)) + (0,): n for w, n in character(lam).items()}
    return LaurentPoly(r, _times_deformed(flat, r))


def shifted_sums(lam: GLWeight) -> tuple[dict, dict]:
    """(weight_sums, block memo) of one crystal_scores pass over
    B(lam+rho), enumerated here."""
    r = lam.rank
    shape = partition_shape(lam + rho(r))
    blocks: dict = {}
    return weight_sums(crystal_scores(shape, r, enumerate_crystal(shape, r), blocks)), blocks


def cs_rhs(lam: GLWeight, sums: dict | None = None) -> LaurentPoly:
    """Sum of c_coefficient(b) z^weight(b) over the rho-shifted crystal:
    the weight sums {content: TPoly} spread over their t-degrees.

    A caller that already holds the sums of shifted_sums(lam) passes
    them as sums, here and in verify_identity, so that one verify
    scores B(lam+rho) once.
    """
    if sums is None:
        sums, _ = shifted_sums(lam)
    flat = {w + (k,): c for w, p in sums.items() for k, c in enumerate(p.coeffs) if c}
    return LaurentPoly(lam.rank, flat)


class IdentityReport(Record):
    __slots__ = ("equal", "lhs_terms", "rhs_terms", "first_mismatch")

    def __init__(self, equal: bool, lhs_terms: int, rhs_terms: int, first_mismatch: tuple | None):
        self.equal, self.lhs_terms, self.rhs_terms = equal, lhs_terms, rhs_terms
        self.first_mismatch = first_mismatch  # (exp, lhs coeff, rhs coeff)


def verify_identity(lam: GLWeight, sums: dict | None = None) -> IdentityReport:
    """Compare both sides of the deformed character identity exactly."""
    lhs = cs_lhs(lam)
    rhs = cs_rhs(lam, sums)
    a, b, mismatch = lhs.flat, rhs.flat, None
    if a != b:
        exp = min(key[:-1] for key in a.keys() | b.keys() if a.get(key) != b.get(key))
        mismatch = (exp, lhs.coefficient(exp), rhs.coefficient(exp))
    return IdentityReport(mismatch is None, lhs.num_terms(), rhs.num_terms(), mismatch)


def verify_bn_form(blocks: dict) -> bool:
    """The walk's half of the reversed-coordinate form: every distinct
    Gelfand-Tsetlin block in blocks, the memo of one shifted_sums, is
    walked once and must equal the statistics block cell by cell
    (block_agrees).

    Then every element's walk equals its statistics triangle, so the
    bridge G q^(-total) = C(1/q) holds per element.  The reversed form,
    s_lambda(z) * prod(1 - t z_i/z_j) = sum of C(b) z^reversed(wt(b) - rho),
    is the identity with every exponent e sent to reversed(e - rho) on
    both sides (s_lambda is symmetric), and that is a bijection; so it
    holds exactly when verify_identity does and this returns True.
    """
    return all(block_agrees(*key) for key in blocks)
