"""Multivariate Laurent polynomials over exact t-polynomials.

The deformed character identity is checked here as literal polynomial
equality: the product side expands z^rho * s_lambda(z) * prod(1 - t
z_j/z_i) and the crystal side sums decorated-tableau coefficients times
monomials.  No floating point, no division.
"""

from dataclasses import dataclass
from fractions import Fraction

from .bzl import c_coefficient, decorate_via_operators, g_from_triangle

# verify_bn_form takes the path total from its one walk and no longer
# calls bzl_path; the name stays importable from this module because
# perfbench/child.py traces it here.
from .bzl import bzl_path  # noqa: F401
from .crystal import enumerate_crystal
from .rootsys import GLWeight, partition_shape, rho
from .tableaux import content
from .tpoly import TPoly


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

    def scale(self, coeff: TPoly) -> "LaurentPoly":
        return LaurentPoly(self.rank, {e: c * coeff for e, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.rank == other.rank and self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def eval_t(self, value) -> "LaurentPoly":
        """Substitute a number for t; constant coefficients remain."""
        return LaurentPoly(
            self.rank, {e: TPoly.constant(c.eval(value)) for e, c in self.terms.items()}
        )

    def eval_z(self, values) -> TPoly:
        """Substitute nonzero numbers for every z_i; exact via Fractions."""
        values = [Fraction(v) for v in values]
        if len(values) != self.rank + 1:
            raise ValueError(f"need {self.rank + 1} values")
        if any(v == 0 for v in values):
            raise ValueError("z values must be nonzero (negative exponents occur)")
        acc = TPoly.zero()
        for exp, coeff in self.terms.items():
            scalar = Fraction(1)
            for v, e in zip(values, exp):
                scalar *= v**e
            acc = acc + coeff * scalar
        return acc

    def to_json(self) -> list:
        return [
            {"exp": list(exp), "coeff": list(coeff.coeffs)}
            for exp, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_json(cls, rank: int, data: list) -> "LaurentPoly":
        return cls(rank, {tuple(item["exp"]): TPoly(tuple(item["coeff"])) for item in data})

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
        exp = content(t).coords
        out[exp] = out.get(exp, TPoly.zero()) + TPoly.one()
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


def shifted_coefficients(lam: GLWeight) -> list:
    """(element, c_coefficient) for every element of B(lam+rho), in crystal order.

    verify computes this once and hands it to both cs_rhs and
    verify_bn_form, so each element's statistics triangle is built once.
    """
    r = lam.rank
    elements = enumerate_crystal(partition_shape(lam + rho(r)), r)
    return [(t, c_coefficient(t)) for t in elements]


def cs_rhs(lam: GLWeight, *, coefficients: list | None = None) -> LaurentPoly:
    """Sum of c_coefficient(b) z^weight(b) over the rho-shifted crystal.

    A caller that already holds shifted_coefficients(lam) passes it as
    coefficients, here and in verify_identity and verify_bn_form.
    """
    if coefficients is None:
        coefficients = shifted_coefficients(lam)
    out = {}
    for t, coeff in coefficients:
        if coeff.is_zero():
            continue
        exp = content(t).coords
        out[exp] = out.get(exp, TPoly.zero()) + coeff
    return LaurentPoly(lam.rank, out)


@dataclass(frozen=True)
class IdentityReport:
    equal: bool
    lhs_terms: int
    rhs_terms: int
    first_mismatch: tuple | None  # (exp, lhs coeff, rhs coeff)


def verify_identity(lam: GLWeight, *, coefficients: list | None = None) -> IdentityReport:
    """Compare both sides of the deformed character identity exactly."""
    lhs = cs_lhs(lam)
    rhs = cs_rhs(lam, coefficients=coefficients)
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


def verify_bn_form(lam: GLWeight, *, coefficients: list | None = None) -> bool:
    """Check the reversed-coordinate form built from the walk route.

    Per element the operator-side product times q^(-total step count)
    must equal the statistics-side coefficient, and summing those
    contributions against reversed weights must reproduce
    s_lambda(z) * prod(1 - t z_i/z_j).
    """
    r = lam.rank
    rho_r = rho(r)
    if coefficients is None:
        coefficients = shifted_coefficients(lam)
    lhs = character(lam) * deformed_product(r, reverse=True)
    rhs = {}
    for t, coeff in coefficients:
        tri = decorate_via_operators(t)
        bridged = g_from_triangle(tri).shift(-tri.total())
        if bridged != coeff.to_qlaurent():
            return False
        if bridged.is_zero():
            continue
        exp = (content(t) - rho_r).reverse().coords
        rhs[exp] = rhs.get(exp, TPoly.zero()) + bridged.to_tpoly()
    return lhs == LaurentPoly(r, rhs)
