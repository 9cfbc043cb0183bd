"""Type-A weight lattice in GL coordinates.

Weights are integer vectors of length r+1 (rank r).  The simple root
alpha_i is e_i - e_{i+1}, rho is (r, r-1, ..., 1, 0), and the i-th
fundamental weight is e_1 + ... + e_i; hpoly keeps a drop sum c_i alpha_i
as the plain tuple (c_1, ..., c_r).  Permutations act by permuting
coordinates; the dot action shifts by rho on both sides.  The sign of a
dot orbit is read off by matching coordinates, not by a search over the
Weyl group.  The weight multiplicities of V(lambda) come from
Freudenthal's formula on its dominant weights (dominant_multiplicities),
in integers, and spread over Weyl orbits they give s_lambda term by term
(character); no crystal is listed for them.

The package's value classes derive from Record, defined here because
this is the bottom module.
"""

from functools import lru_cache
from itertools import combinations, permutations


class Record:
    """Base of the value classes: fields listed in __slots__, set in __init__.

    Instances of one class with equal fields are equal and hash as their
    field tuple; instances of two classes never are.  The repr names the
    fields, as in Shape(parts=(2, 1, 0)).  No code assigns a field after
    __init__.  Plain slots keep the dataclasses module, and with it
    inspect and ast, out of every process's start-up.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


class GLWeight(Record):
    """Weight vector in GL coordinates; rank is len(coords) - 1."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[int, ...]):
        self.coords = coords
        if len(self.coords) < 2:
            raise ValueError("a weight needs at least two coordinates (rank >= 1)")
        if not all(isinstance(c, int) for c in self.coords):
            raise ValueError("weight coordinates must be integers")

    @property
    def rank(self) -> int:
        return len(self.coords) - 1

    def __add__(self, other: "GLWeight") -> "GLWeight":
        self._check_rank(other)
        return GLWeight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "GLWeight") -> "GLWeight":
        self._check_rank(other)
        return GLWeight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def _check_rank(self, other):
        if len(self.coords) != len(other.coords):
            raise ValueError("rank mismatch between weights")

    def is_partition(self) -> bool:
        """True when coordinates are weakly decreasing and nonnegative."""
        return all(a >= b for a, b in zip(self.coords, self.coords[1:])) and self.coords[-1] >= 0


class Shape(Record):
    """Row lengths of a Young diagram, always stored with r+1 parts."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        self.parts = parts
        if len(self.parts) < 2:
            raise ValueError("a shape needs r+1 parts with r >= 1")
        if any(not isinstance(p, int) or p < 0 for p in self.parts):
            raise ValueError("shape parts must be nonnegative integers")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"shape parts must be weakly decreasing: {self.parts}")

    @property
    def rank(self) -> int:
        return len(self.parts) - 1

    def strictness_defect(self) -> str | None:
        """Which rule of a strict shape (strictly decreasing through part
        r, with the last part zero) it breaks, or None when strict.

        The message names the parts, so an error built on it says why a
        shape like (4, 2, 1), strictly decreasing but ending in 1, fails.
        """
        p = self.parts
        if any(a <= b for a, b in zip(p, p[1:])):
            return f"{p} is not strictly decreasing"
        if p[-1] != 0:
            return f"{p} has last part {p[-1]}, and a strict shape needs last part 0"
        return None

    def to_weight(self) -> GLWeight:
        return GLWeight(self.parts)


def partition_shape(lam: GLWeight) -> Shape:
    """The Young diagram of a partition weight; ValueError otherwise."""
    if not lam.is_partition():
        raise ValueError(f"{lam.coords} is not a partition")
    return Shape(lam.coords)


def rho(rank: int) -> GLWeight:
    """The staircase weight (r, r-1, ..., 1, 0)."""
    if rank < 1:
        raise ValueError("rank must be >= 1")
    return GLWeight(tuple(range(rank, -1, -1)))


def lambda_from_fundamental(coeffs, rank: int) -> GLWeight:
    """Dominant weight sum(coeffs[i] * omega_{i+1}) in GL coordinates.

    omega_i has i leading ones, so coordinate j is the sum of the
    coefficients from j on, and the last coordinate is 0.
    """
    coeffs = tuple(coeffs)
    if len(coeffs) != rank:
        raise ValueError(f"need exactly {rank} fundamental coefficients, got {len(coeffs)}")
    if any(not isinstance(c, int) or c < 0 for c in coeffs):
        raise ValueError("fundamental coefficients must be nonnegative integers")
    coords = [sum(coeffs[j:]) for j in range(rank)] + [0]
    return GLWeight(tuple(coords))


def _moved(nu: tuple, i: int, j: int, k: int) -> tuple:
    """nu + k(e_i - e_j), sorted into a partition's order."""
    v = list(nu)
    v[i] += k
    v[j] -= k
    return tuple(sorted(v, reverse=True))


@lru_cache(maxsize=8)  # a process asks about few weights; callers only read the dicts
def dominant_multiplicities(lam: GLWeight) -> dict:
    """Partition nu -> multiplicity of the weight nu in V(lam), for a
    partition lam, by Freudenthal's formula (Humphreys, Intro. to Lie
    Algebras, §22.3): for the roots e_i - e_j,

        (|lam+rho|^2 - |nu+rho|^2) m(nu)
            = 2 sum_{i<j} sum_{k>=1} (nu_i - nu_j + 2k) m(nu + k(e_i - e_j)).

    A weight has the multiplicity of its sorted coordinates, and each
    string stops at its first non-weight.  The dominant weights are the
    partitions lam dominates, reached by moving one box down from row i
    to row j where nu_i - nu_j >= 2.  Each m on the right belongs to a
    partition above nu, with a larger |.+rho|^2, so taking nu in
    decreasing |nu+rho|^2 finds it done.  A division with a remainder
    raises RuntimeError.
    """
    top = partition_shape(lam).parts
    pairs = list(combinations(range(len(top)), 2))
    found, todo = {top}, [top]
    while todo:
        nu = todo.pop()
        for down in {_moved(nu, i, j, -1) for i, j in pairs if nu[i] - nu[j] >= 2} - found:
            found.add(down)
            todo.append(down)

    def norm(nu):  # |nu+rho|^2
        return sum((x + len(nu) - k) ** 2 for k, x in enumerate(nu, start=1))

    mult = {top: 1}
    for nu in sorted(found - {top}, key=lambda nu: (norm(nu), nu), reverse=True):
        total = 0
        for i, j in pairs:
            k = 1
            while m := mult.get(_moved(nu, i, j, k)):
                total += m * (nu[i] - nu[j] + 2 * k)
                k += 1
        mult[nu], rem = divmod(2 * total, norm(top) - norm(nu))
        if rem:
            raise RuntimeError(f"Freudenthal's formula does not divide at {nu} in V{top}")
    return mult


def character(lam: GLWeight) -> dict:
    """s_lam(z) term by term: weight coordinates -> multiplicity in
    V(lam), each dominant multiplicity spread over its Weyl orbit."""
    mults = dominant_multiplicities(lam)
    return {w: m for nu, m in mults.items() for w in set(permutations(nu))}


def perm_sign(perm: tuple[int, ...]) -> int:
    """Sign of a permutation in one-line notation, by inversion count."""
    inversions = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def dot_orbit_sign(lam: GLWeight, w: tuple) -> int:
    """Sign of the permutation v with v . lam == w - rho, else 0, for the
    coordinates w of lam + rho - mu.

    v . lam == lam - mu says that position v(k) of w holds the k-th
    coordinate of lam + rho, so v exists exactly when the two vectors
    are rearrangements of each other.  With repeated coordinates several
    v qualify; slot k takes the smallest unused position holding its
    coordinate, which builds the lexicographically first of them.
    """
    shifted = (lam + rho(lam.rank)).coords
    if sorted(shifted) != sorted(w):
        return 0
    positions: dict = {}
    for p, x in enumerate(w, start=1):
        positions.setdefault(x, []).append(p)
    return perm_sign(tuple(positions[x].pop(0) for x in shifted))
