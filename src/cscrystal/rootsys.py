"""Type-A weight lattice in GL coordinates.

Weights are integer vectors of length r+1 (rank r).  The simple root
alpha_i is e_i - e_{i+1}, rho is (r, r-1, ..., 1, 0), and the i-th
fundamental weight is e_1 + ... + e_i.  Permutations act by permuting
coordinates; the dot action shifts by rho on both sides.  The sign of a
dot orbit is read off by matching coordinates, not by a search over the
Weyl group.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class GLWeight:
    """Weight vector in GL coordinates; rank is len(coords) - 1."""

    coords: tuple[int, ...]

    def __post_init__(self):
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

    def __neg__(self) -> "GLWeight":
        return GLWeight(tuple(-a for a in self.coords))

    def _check_rank(self, other):
        if len(self.coords) != len(other.coords):
            raise ValueError("rank mismatch between weights")

    def is_partition(self) -> bool:
        """True when coordinates are weakly decreasing and nonnegative."""
        return all(a >= b for a, b in zip(self.coords, self.coords[1:])) and self.coords[-1] >= 0

    def reverse(self) -> "GLWeight":
        """Image under the longest Weyl element (coordinate reversal)."""
        return GLWeight(tuple(reversed(self.coords)))


@dataclass(frozen=True)
class Shape:
    """Row lengths of a Young diagram, always stored with r+1 parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        if len(self.parts) < 2:
            raise ValueError("a shape needs r+1 parts with r >= 1")
        if any(not isinstance(p, int) or p < 0 for p in self.parts):
            raise ValueError("shape parts must be nonnegative integers")
        if any(a < b for a, b in zip(self.parts, self.parts[1:])):
            raise ValueError(f"shape parts must be weakly decreasing: {self.parts}")

    @property
    def rank(self) -> int:
        return len(self.parts) - 1

    def size(self) -> int:
        return sum(self.parts)

    def is_strict(self) -> bool:
        """Strictly decreasing through part r, with the last part zero."""
        return self.strictness_defect() is None

    def strictness_defect(self) -> str | None:
        """Which rule of is_strict the shape breaks, or None when strict.

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


@dataclass(frozen=True)
class AlphaVector:
    """Nonnegative coordinates of a weight drop in the simple-root basis."""

    c: tuple[int, ...]

    def __post_init__(self):
        if len(self.c) < 1:
            raise ValueError("alpha coordinates need length >= 1")
        if any(not isinstance(x, int) or x < 0 for x in self.c):
            raise ValueError(f"alpha coordinates must be nonnegative integers: {self.c}")

    @property
    def rank(self) -> int:
        return len(self.c)

    def degree(self) -> int:
        return sum(self.c)


def simple_root(i: int, rank: int) -> GLWeight:
    """alpha_i = e_i - e_{i+1} as a length r+1 vector."""
    if not 1 <= i <= rank:
        raise ValueError(f"simple root index {i} outside 1..{rank}")
    coords = [0] * (rank + 1)
    coords[i - 1] = 1
    coords[i] = -1
    return GLWeight(tuple(coords))


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


def theta(shape: Shape) -> tuple[int, ...]:
    """Consecutive row-length gaps (l_1 - l_2, ..., l_r - l_{r+1}).

    Only defined for strict shapes, where every gap is >= 1.
    """
    defect = shape.strictness_defect()
    if defect is not None:
        raise ValueError(f"theta needs a strict shape: {defect}")
    return tuple(shape.parts[i] - shape.parts[i + 1] for i in range(shape.rank))


def alpha_to_gl(mu: AlphaVector, rank: int) -> GLWeight:
    """Expand sum(c_i * alpha_i) into GL coordinates."""
    if mu.rank != rank:
        raise ValueError(f"alpha vector has rank {mu.rank}, expected {rank}")
    coords = [0] * (rank + 1)
    for i, ci in enumerate(mu.c, start=1):
        coords[i - 1] += ci
        coords[i] -= ci
    return GLWeight(tuple(coords))


def gl_to_alpha(v: GLWeight) -> AlphaVector:
    """Inverse of alpha_to_gl; the partial sums recover the c_i."""
    if sum(v.coords) != 0:
        raise ValueError(f"{v.coords} is not in the root lattice (coordinates sum to {sum(v.coords)})")
    partial = 0
    cs = []
    for x in v.coords[:-1]:
        partial += x
        cs.append(partial)
    return AlphaVector(tuple(cs))


def perm_sign(perm: tuple[int, ...]) -> int:
    """Sign of a permutation in one-line notation, by inversion count."""
    inversions = sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )
    return -1 if inversions % 2 else 1


def _check_perm(perm, n):
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{n}")


def permute_weight(perm: tuple[int, ...], v: GLWeight) -> GLWeight:
    """Coordinate permutation: position w(k) of the result holds v_k."""
    n = len(v.coords)
    _check_perm(perm, n)
    out = [0] * n
    for k in range(n):
        out[perm[k] - 1] = v.coords[k]
    return GLWeight(tuple(out))


def dot_action(perm: tuple[int, ...], lam: GLWeight) -> GLWeight:
    """Shifted action w(lam + rho) - rho."""
    r = lam.rank
    return permute_weight(perm, lam + rho(r)) - rho(r)


def dot_orbit_sign(lam: GLWeight, mu: AlphaVector) -> int:
    """Sign of the permutation w with w . lam == lam - mu, else 0.

    w . lam == lam - mu says that position w(k) of lam + rho - mu holds
    the k-th coordinate of lam + rho, so w exists exactly when the two
    vectors are rearrangements of each other.  With repeated coordinates
    several w qualify; slot k takes the smallest unused position holding
    its coordinate, which builds the lexicographically first of them.
    """
    r = lam.rank
    shifted = (lam + rho(r)).coords
    target = (lam + rho(r) - alpha_to_gl(mu, r)).coords
    if sorted(shifted) != sorted(target):
        return 0
    positions: dict = {}
    for p, x in enumerate(target, start=1):
        positions.setdefault(x, []).append(p)
    return perm_sign(tuple(positions[x].pop(0) for x in shifted))
