"""Exact univariate polynomial arithmetic for the two coefficient rings.

TPoly is a plain polynomial in the deformation variable t (internally t
stands for q^{-1}).  QLaurent allows negative powers of q and exists so
the operator-side product, which naturally lives in q, can be compared
against the t-side coefficients after an explicit power shift.
"""

from dataclasses import dataclass
from fractions import Fraction


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


@dataclass(frozen=True)
class TPoly:
    """Dense coefficients ascending from degree 0; () is the zero polynomial."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def constant(cls, c):
        return cls((c,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return TPoly(tuple(x + y for x, y in zip(a, b)))

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return TPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return TPoly.zero()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return TPoly(tuple(out))

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not polynomials")
        result = TPoly.one()
        for _ in range(n):
            result = result * self
        return result

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
        return self.format("t")

    def format(self, var: str = "t") -> str:
        """Expanded string, e.g. '1-2t+t^2' or '1-2q^{-1}+q^{-2}'."""
        if self.is_zero():
            return "0"
        pieces = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if var == "t":
                power = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
            else:
                power = "" if k == 0 else f"q^{{-{k}}}"
            mag = abs(c)
            body = power if mag == 1 and power else f"{mag}{power}"
            sign = "-" if c < 0 else ("+" if pieces else "")
            pieces.append(f"{sign}{body}")
        return "".join(pieces)


def _coerce(x):
    """x as a TPoly, or NotImplemented for a type TPoly does not mix with."""
    if isinstance(x, TPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return TPoly.constant(x)
    return NotImplemented


class QLaurent:
    """Sparse Laurent polynomial in q with exact coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict | None = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def q_power(cls, k: int, coeff=1):
        return cls({k: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return QLaurent(out)

    def __neg__(self):
        return QLaurent({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return QLaurent(out)

    def shift(self, k: int) -> "QLaurent":
        """Multiply by q^k."""
        return QLaurent({e + k: c for e, c in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, QLaurent):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def to_json(self) -> list:
        return [[k, c] for k, c in sorted(self.terms.items(), reverse=True)]

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            if k == 0:
                power = ""
            elif k == 1:
                power = "q"
            else:
                power = f"q^{k}" if k > 1 else f"q^{{{k}}}"
            mag = abs(c)
            body = power if mag == 1 and power else f"{mag}{power}"
            sign = "-" if c < 0 else ("+" if pieces else "")
            pieces.append(f"{sign}{body}")
        return "".join(pieces)

    def __repr__(self):
        return f"QLaurent({self.terms!r})"
