"""Exact univariate polynomials for the two coefficient forms.

TPoly is a polynomial in the deformation variable t (internally t
stands for q^{-1}), held as its integer coefficient list.  It has no
arithmetic: the sums and products the package needs are done on plain
integer lists and maps (bzl._c_product, bzl._scaled_sum, the laurent
shift-and-subtract), and a TPoly is built from the result only to be
compared, evaluated or printed.  QLaurent holds the operator-side
product G, which lives in q: it is made from a TPoly by to_qlaurent,
shifted by a power of q, compared, and printed.  Both print through one
signed-sum writer.  TPoly is a rootsys.Record value class.
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

    def to_qlaurent(self) -> "QLaurent":
        """Rewrite with t = q^{-1}."""
        return QLaurent({-k: c for k, c in enumerate(self.coeffs) if c != 0})

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


class QLaurent:
    """Sparse Laurent polynomial in q with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    def shift(self, k: int) -> "QLaurent":
        """Multiply by q^k."""
        return QLaurent({e + k: c for e, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, QLaurent):
            return self.terms == other.terms
        return NotImplemented

    def to_json(self) -> list:
        return [[k, c] for k, c in sorted(self.terms.items(), reverse=True)]

    def __str__(self):
        """Expanded in descending powers of q, e.g. 'q^2-1' or '1-q^{-1}'."""
        return _signed_sum(
            ("" if k == 0 else "q" if k == 1 else f"q^{k}" if k > 1 else f"q^{{{k}}}", c)
            for k, c in sorted(self.terms.items(), reverse=True)
        )

    def __repr__(self):
        return f"QLaurent({self.terms!r})"
