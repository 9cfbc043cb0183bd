"""Exact univariate polynomials in the deformation variable.

TPoly is a polynomial in t (internally t stands for q^{-1}), held as
its integer coefficient list.  It has no arithmetic: the sums and
products the package needs are done on plain integers, lists and maps
(bzl._c_product, bzl.crystal_sums, the laurent shift-and-subtract), and
a TPoly is built from the result only to be compared, evaluated or
printed.  It is the package's one polynomial type: the operator-side
product G = q^total C(1/q) is C read in q, which in_q gives as
[power, coefficient] pairs and q_text prints through the signed-sum
writer of TPoly's own str.  TPoly is a rootsys.Record value class.
"""

from .rootsys import Record


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


class TPoly(Record):
    """Dense coefficients ascending from degree 0; () is the zero polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        self.coeffs = _trim(coeffs)

    @classmethod
    def zero(cls):
        return cls(())

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def eval(self, x):
        """Evaluate at an integer or Fraction, exactly."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def coefficient(self, k: int):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def in_q(self, shift: int) -> list:
        """q^shift times the polynomial read with t = q^{-1}, as
        [power, coefficient] pairs in descending powers, zeros left out."""
        return [[shift - k, c] for k, c in enumerate(self.coeffs) if c]

    def __str__(self):
        """Expanded in t, ascending, e.g. '1-2t+t^2'."""
        return _signed_sum(
            ("" if k == 0 else "t" if k == 1 else f"t^{k}", c)
            for k, c in enumerate(self.coeffs)
            if c != 0
        )


def _signed_sum(terms) -> str:
    """(power text, nonzero coefficient) pairs written as one signed sum.

    A coefficient of magnitude 1 is left out before a nonempty power;
    the empty sum is '0'.
    """
    pieces = []
    for power, c in terms:
        mag = abs(c)
        body = power if mag == 1 and power else f"{mag}{power}"
        sign = "-" if c < 0 else ("+" if pieces else "")
        pieces.append(f"{sign}{body}")
    return "".join(pieces) or "0"


def q_text(pairs) -> str:
    """Descending [power, coefficient] pairs in q (TPoly.in_q) written
    as one signed sum, e.g. 'q^2-1' or '1-q^{-1}'."""
    return _signed_sum(
        ("" if k == 0 else "q" if k == 1 else f"q^{k}" if k > 1 else f"q^{{{k}}}", c)
        for k, c in pairs
    )
