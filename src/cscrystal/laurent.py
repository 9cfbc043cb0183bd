"""Multivariate Laurent polynomials over exact t-polynomials.

The deformed character identity is checked here as literal polynomial
equality: the product side expands z^rho * s_lambda(z) * prod(1 - t
z_j/z_i) and the crystal side sums C by weight (bzl.weight_sums).  No
floating point, no division.
"""

from dataclasses import dataclass

from .bzl import _c_product, crystal_mark_counts, decorate_via_operators, g_from_triangle, weight_sums

# No function here calls bzl_path or c_coefficient: verify_bn_form
# takes the path total from its one walk, and the crystal is scored in
# kernel passes.  Both names stay importable from this module because
# perfbench/child.py traces them here.
from .bzl import bzl_path, c_coefficient  # noqa: F401
from .crystal import enumerate_crystal
from .rootsys import GLWeight, partition_shape, rho
from .tableaux import _content_coords
from .tpoly import QLaurent, TPoly


class LaurentPoly:
    """Sparse map from integer exponent vectors to TPoly coefficients."""

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict | None = None):
        self.rank = rank
        clean = {}
        for exp, coeff in (terms or {}).items():
            if not isinstance(coeff, TPoly):
                coeff = TPoly.constant(coeff)
            if coeff.is_zero():
                continue
            exp = tuple(exp)
            if len(exp) != rank + 1:
                raise ValueError(f"exponent {exp} has wrong length for rank {rank}")
            clean[exp] = coeff
        self.terms = clean

    @classmethod
    def zero(cls, rank: int):
        return cls(rank)

    @classmethod
    def one(cls, rank: int):
        return cls(rank, {(0,) * (rank + 1): TPoly.one()})

    @classmethod
    def monomial(cls, exp, coeff=TPoly((1,))):
        exp = tuple(exp)
        return cls(len(exp) - 1, {exp: coeff})

    def num_terms(self) -> int:
        return len(self.terms)

    def coefficient(self, exp) -> TPoly:
        return self.terms.get(tuple(exp), TPoly.zero())

    def sorted_terms(self):
        """(exponent, coefficient) pairs in lexicographic exponent order."""
        return [(exp, self.terms[exp]) for exp in sorted(self.terms)]

    def _check(self, other):
        if self.rank != other.rank:
            raise ValueError("rank mismatch")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, TPoly.zero()) + c
        return LaurentPoly(self.rank, out)

    def __neg__(self):
        return LaurentPoly(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                prod = c1 * c2
                if e in out:
                    out[e] = out[e] + prod
                else:
                    out[e] = prod
        return LaurentPoly(self.rank, out)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.rank == other.rank and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({coeff}) z^{exp}" for exp, coeff in self.sorted_terms()
        )

    def __repr__(self):
        return f"LaurentPoly(rank={self.rank}, {len(self.terms)} terms)"


def character(lam: GLWeight) -> LaurentPoly:
    """Schur polynomial of a partition weight, as a monomial sum."""
    shape = partition_shape(lam)
    out = {}
    for t in enumerate_crystal(shape, lam.rank):
        exp = _content_coords(t)
        out[exp] = out.get(exp, 0) + 1
    return LaurentPoly(lam.rank, out)


def deformed_product(rank: int, reverse: bool = False) -> LaurentPoly:
    """prod over i<j of (1 - t z_j / z_i); with reverse, of (1 - t z_i / z_j)."""
    up, down = (1, -1) if reverse else (-1, 1)
    result = LaurentPoly.one(rank)
    for i in range(rank + 1):
        for j in range(i + 1, rank + 1):
            exp = [0] * (rank + 1)
            exp[i] = up
            exp[j] = down
            factor = LaurentPoly(
                rank,
                {(0,) * (rank + 1): TPoly.one(), tuple(exp): TPoly((0, -1))},
            )
            result = result * factor
    return result


def cs_lhs(lam: GLWeight) -> LaurentPoly:
    """z^rho * s_lambda(z) * deformed product; all exponents end up >= 0."""
    r = lam.rank
    return (
        LaurentPoly.monomial(rho(r).coords) * character(lam) * deformed_product(r)
    )


def _shifted_scores(lam: GLWeight):
    """crystal_mark_counts over B(lam+rho), enumerated here."""
    r = lam.rank
    shape = partition_shape(lam + rho(r))
    return crystal_mark_counts(shape, r, enumerate_crystal(shape, r))


def cs_rhs(lam: GLWeight) -> LaurentPoly:
    """Sum of c_coefficient(b) z^weight(b) over the rho-shifted crystal."""
    return LaurentPoly(lam.rank, weight_sums(_shifted_scores(lam)))


@dataclass(frozen=True)
class IdentityReport:
    equal: bool
    lhs_terms: int
    rhs_terms: int
    first_mismatch: tuple | None  # (exp, lhs coeff, rhs coeff)


def verify_identity(lam: GLWeight) -> IdentityReport:
    """Compare both sides of the deformed character identity exactly."""
    lhs = cs_lhs(lam)
    rhs = cs_rhs(lam)
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


def verify_bn_form(lam: GLWeight) -> bool:
    """Check the reversed-coordinate form built from the walk route.

    Per element the operator-side product times q^(-total step count)
    must equal the statistics-side coefficient.  Once every element
    agrees, the weight sums of the statistics side, against reversed
    weights, must reproduce s_lambda(z) * prod(1 - t z_i/z_j).
    """
    scores = list(_shifted_scores(lam))
    for t, alive, box, non in scores:
        tri = decorate_via_operators(t)
        want = _c_product(box, non).to_qlaurent() if alive else QLaurent.zero()
        if g_from_triangle(tri).shift(-tri.total()) != want:
            return False
    r, rho_r = lam.rank, rho(lam.rank)
    rhs = {(GLWeight(w) - rho_r).reverse().coords: p for w, p in weight_sums(scores).items()}
    return character(lam) * deformed_product(r, reverse=True) == LaurentPoly(r, rhs)
