"""Both sides of the deformed character identity, as flat integer maps.

The identity is checked as literal polynomial equality.  Each side is
one map {(z-exponent..., t-degree): int} with no zero values.  The
product side starts from s_lambda(z) term by term, the weight
multiplicities of V(lambda) from rootsys.character (Freudenthal's
formula, no crystal listed), times z^rho; each factor (1 - t z_j/z_i)
then acts by one shift-and-subtract pass (_times_deformed).  The crystal
side is C summed by weight over B(lambda+rho), listed at
rootsys.shifted(lambda), in one pass of bzl.crystal_sums, each sum
spread over its t-degrees; lambda is a rootsys.Shape.
verify_identity compares the two maps, and looks for the first
differing exponent only when they differ.  The reversed form is the
identity relabelled by the bijection e -> reversed(e - rho), so its
verdict is the identity's verdict plus the walk's: verify_bn_form holds
each Gelfand-Tsetlin block of the row pass bzl.gt_blocks, which lists no
tableau, equal to its statistics block, and compares no weight sums.
Each side is built once per verify.  No floating point; the one division,
Freudenthal's, is exact and checked in rootsys.
"""

from operator import add

from .bzl import block_agrees, crystal_sums, gt_blocks

# Re-exports that perfbench/child.py traces at this module, g_coefficient
# under its former name; no function here calls them.
from .bzl import bzl_path, c_coefficient, decorate_via_operators  # noqa: F401
from .bzl import g_coefficient as g_from_triangle  # noqa: F401
from .crystal import enumerate_crystal
from .rootsys import Record, Shape, character, rho, shifted
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


def cs_lhs(lam: Shape) -> LaurentPoly:
    """z^rho * s_lambda(z) * prod(1 - t z_j/z_i); all exponents end up >= 0."""
    r, shift = lam.rank, rho(lam.rank).parts
    flat = {tuple(map(add, w, shift)) + (0,): n for w, n in character(lam).items()}
    return LaurentPoly(r, _times_deformed(flat, r))


def shifted_sums(lam: Shape) -> dict:
    """crystal_sums of B(lam+rho), listed here: the one place the
    package lists and scores the shifted crystal."""
    shape = shifted(lam)
    return crystal_sums(shape, enumerate_crystal(shape, lam.rank))


def cs_rhs(lam: Shape, sums: dict) -> LaurentPoly:
    """Sum of c_coefficient(b) z^weight(b) over the rho-shifted crystal:
    sums, the weight sums {content: TPoly} of shifted_sums(lam), spread
    over their t-degrees."""
    flat = {w + (k,): c for w, p in sums.items() for k, c in enumerate(p.coeffs) if c}
    return LaurentPoly(lam.rank, flat)


class IdentityReport(Record):
    __slots__ = ("equal", "lhs_terms", "rhs_terms", "first_mismatch")

    def __init__(self, equal: bool, lhs_terms: int, rhs_terms: int, first_mismatch: tuple | None):
        self.equal, self.lhs_terms, self.rhs_terms = equal, lhs_terms, rhs_terms
        self.first_mismatch = first_mismatch  # (exp, lhs coeff, rhs coeff)


def verify_identity(lam: Shape, sums: dict) -> IdentityReport:
    """Compare both sides of the deformed character identity exactly,
    the crystal side spread from sums, the weight sums of shifted_sums(lam)."""
    lhs = cs_lhs(lam)
    rhs = cs_rhs(lam, sums)
    a, b, mismatch = lhs.flat, rhs.flat, None
    if a != b:
        exp = min(key[:-1] for key in a.keys() | b.keys() if a.get(key) != b.get(key))
        mismatch = (exp, lhs.coefficient(exp), rhs.coefficient(exp))
    return IdentityReport(mismatch is None, lhs.num_terms(), rhs.num_terms(), mismatch)


def verify_bn_form(lam: Shape) -> tuple | None:
    """The walk's half of the reversed-coordinate form: (j, lower, upper)
    of the first block of B(lam+rho) in the row pass gt_blocks whose walk
    differs from its statistics block (block_agrees), or None.

    None means every element's walk equals its statistics triangle, so
    the bridge G q^(-total) = C(1/q) holds per element.  The reversed form,
    s_lambda(z) * prod(1 - t z_i/z_j) = sum of C(b) z^reversed(wt(b) - rho),
    is the identity with every exponent e sent to reversed(e - rho) on
    both sides (s_lambda is symmetric), and that is a bijection; so it
    holds exactly when verify_identity does and this returns None.
    """
    top = shifted(lam).parts
    return next(((len(key[0]),) + key for key in gt_blocks(top) if not block_agrees(*key)), None)
