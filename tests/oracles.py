"""Independent brute-force oracles used to pin expected values.

The brute-force part touches nothing of the package under test.  Counts
and weight multiplicities are produced by direct enumeration of
fillings, and dimensions by the classical product formula, so the two
routes can be played against each other and against the library.

The last part keeps slow twins of package code.  bfs_crystal lists a
crystal the graph way, as the closure of its highest-weight element
(highest_weight_tableau) under the public lowering operators, against
the row filler of crystal.enumerate_crystal.  content_histogram counts
the contents of listed B(lambda), the twin of the root-system character
rootsys.character.  h_tensor builds a whole H-table from B(lambda) x
B(rho), the twin of hpoly.h_table.  The others scan where the package
reads tables: B(lambda+rho) per H-table row, B(lambda) per weight,
B(rho) per tensor weight, and all (r+1)! permutations per orbit sign,
each acting by the dot action w(lambda + rho) - rho (dot_action).
They use the package's crystals, weight arithmetic and coefficients,
but none of its tables.  Coefficients are added and multiplied here as
plain integer lists (list_add, list_mul), not by package code.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, permutations

from cscrystal.bzl import c_coefficient, decorate_via_stats
from cscrystal.crystal import enumerate_crystal, f_op
from cscrystal.rootsys import GLWeight, partition_shape, perm_sign, rho
from cscrystal.tableaux import content, make_tableau
from cscrystal.tpoly import TPoly


def weakly_increasing_rows(length, max_entry, floor_row):
    """Yield weakly increasing tuples over 1..max_entry.

    floor_row gives, per column, a strict lower bound (the entry sitting
    directly above); pass an empty tuple for the first row.
    """
    if length == 0:
        yield ()
        return
    for row in combinations_with_replacement(range(1, max_entry + 1), length):
        ok = True
        for j in range(min(length, len(floor_row))):
            if row[j] <= floor_row[j]:
                ok = False
                break
        if ok:
            yield row


def brute_force_ssyt(parts, max_entry):
    """All semistandard fillings of the given row lengths, as row tuples."""
    parts = tuple(p for p in parts if p > 0)

    def rec(idx, above):
        if idx == len(parts):
            yield ()
            return
        for row in weakly_increasing_rows(parts[idx], max_entry, above):
            for rest in rec(idx + 1, row):
                yield (row,) + rest

    return list(rec(0, ()))


def weyl_dimension(parts):
    """Dimension of the GL irreducible with the given partition."""
    n = len(parts)
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(parts[i] - parts[j] + j - i, j - i)
    assert dim.denominator == 1
    return int(dim)


def brute_force_weight_multiplicity(parts, max_entry, target):
    """Number of fillings whose entry-count vector equals target."""
    hits = 0
    for rows in brute_force_ssyt(parts, max_entry):
        counts = [0] * max_entry
        for row in rows:
            for x in row:
                counts[x - 1] += 1
        if tuple(counts) == tuple(target):
            hits += 1
    return hits


# --- slow twins of the enumeration, the H-table and the oracles -------------


def highest_weight_tableau(shape, rank):
    """Row i filled with the letter i; killed by every raising operator."""
    if shape.rank != rank:
        raise ValueError(f"shape has rank {shape.rank}, expected {rank}")
    rows = [[i] * p for i, p in enumerate(shape.parts, start=1) if p > 0]
    return make_tableau(rank, rows)


def bfs_crystal(shape, rank):
    """Breadth-first closure of the highest-weight tableau under every
    f_op, sorted by row tuples: the twin of enumerate_crystal."""
    seen = {highest_weight_tableau(shape, rank)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for t in frontier:
            for i in range(1, rank + 1):
                u = f_op(t, i)
                if u is not None and u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return sorted(seen, key=lambda t: t.rows)


def list_add(a, b):
    """Sum of two coefficient lists ascending in t."""
    n = max(len(a), len(b))
    return [(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)]


def list_mul(a, b):
    """Product of two coefficient lists ascending in t: their convolution."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def c_product_twin(box, non):
    """(-t)^box (1-t)^non by box multiplications by -t and non by 1-t."""
    out = [1]
    for _ in range(box):
        out = list_mul(out, [0, -1])
    for _ in range(non):
        out = list_mul(out, [1, -1])
    return TPoly(tuple(out))


def alpha_to_gl(mu: tuple, rank: int) -> GLWeight:
    """Expand sum(c_i * alpha_i), mu = (c_1, ..., c_r), into GL coordinates."""
    if len(mu) != rank:
        raise ValueError(f"alpha vector has rank {len(mu)}, expected {rank}")
    coords = [0] * (rank + 1)
    for i, ci in enumerate(mu, start=1):
        coords[i - 1] += ci
        coords[i] -= ci
    return GLWeight(tuple(coords))


def row_weight(lam, mu):
    """The coordinates of lam + rho - mu, as hpoly.h_table keys mu's row."""
    r = lam.rank
    return (lam + rho(r) - alpha_to_gl(mu, r)).coords


def gl_to_alpha(v: GLWeight) -> tuple:
    """Inverse of alpha_to_gl; the partial sums recover the c_i.
    hpoly.h_table reads each row's mu off its weight the same way.  A
    negative c_i is not a weight drop: ValueError."""
    if sum(v.coords) != 0:
        raise ValueError(f"{v.coords} is not in the root lattice (coordinates sum to {sum(v.coords)})")
    partial = 0
    cs = []
    for x in v.coords[:-1]:
        partial += x
        cs.append(partial)
    if min(cs) < 0:
        raise ValueError(f"alpha coordinates must be nonnegative integers: {tuple(cs)}")
    return tuple(cs)


def h_direct(lam, mu):
    """Coefficient sum over shifted-crystal elements of weight lam+rho-mu.

    The twin of one hpoly.h_table row, at O(|B(lam+rho)|) per mu.  A mu
    outside the weight support of the shifted crystal contributes
    nothing and yields the zero polynomial.
    """
    r = lam.rank
    target = lam + rho(r) - alpha_to_gl(mu, r)
    total = []
    for t in enumerate_crystal(partition_shape(lam + rho(r)), r):
        if content(t) == target:
            total = list_add(total, c_coefficient(decorate_via_stats(t)).coeffs)
    return TPoly(tuple(total))


def content_histogram(lam):
    """Content coordinates -> number of listed B(lam) elements with that
    content: s_lam(z) term by term."""
    counts: dict = {}
    for t in enumerate_crystal(partition_shape(lam), lam.rank):
        w = content(t).coords
        counts[w] = counts.get(w, 0) + 1
    return counts


def h_tensor(lam):
    """The H-table of lam from B(lam) x B(rho), scoring only the rho factor.

    The paper's tensor-product statement, as a whole-table twin of
    hpoly.h_table: each b in B(rho) with C(b) != 0 adds C(b) times
    B(lam)'s content histogram shifted by wt(b).  Returns {mu: TPoly},
    mu the alpha-coordinates of the drop from lam + rho, without the
    rows whose sum is zero.
    """
    r = lam.rank
    counts = content_histogram(lam)
    sums: dict = {}
    for b in enumerate_crystal(partition_shape(rho(r)), r):
        coeffs = c_coefficient(decorate_via_stats(b)).coeffs
        if not coeffs:
            continue
        for w, n in counts.items():
            w = (GLWeight(w) + content(b)).coords
            sums[w] = list_add(sums.get(w, []), [n * c for c in coeffs])
    top = lam + rho(r)
    table = {gl_to_alpha(top - GLWeight(w)): TPoly(tuple(c)) for w, c in sums.items()}
    return {mu: p for mu, p in table.items() if not p.is_zero()}


def scan_weight_multiplicity(lam, nu):
    """Number of lambda-crystal elements with entry-count vector nu."""
    count = 0
    for t in enumerate_crystal(partition_shape(lam), lam.rank):
        if content(t) == nu:
            count += 1
    return count


def scan_tensor_weight_multiplicity(lam, nu):
    """Multiplicity of nu as a weight of B(lam) x B(rho), by convolution."""
    r = lam.rank
    lam_counts: dict = {}
    for t in enumerate_crystal(partition_shape(lam), r):
        w = content(t).coords
        lam_counts[w] = lam_counts.get(w, 0) + 1
    total = 0
    for t in enumerate_crystal(partition_shape(rho(r)), r):
        remainder = nu - content(t)
        total += lam_counts.get(remainder.coords, 0)
    return total


def _check_perm(perm, n):
    if sorted(perm) != list(range(1, n + 1)):
        raise ValueError(f"{perm} is not a permutation of 1..{n}")


def permute_weight(perm, v):
    """Coordinate permutation: position w(k) of the result holds v_k."""
    n = len(v.coords)
    _check_perm(perm, n)
    out = [0] * n
    for k in range(n):
        out[perm[k] - 1] = v.coords[k]
    return GLWeight(tuple(out))


def dot_action(perm, lam):
    """Shifted action w(lam + rho) - rho."""
    r = lam.rank
    return permute_weight(perm, lam + rho(r)) - rho(r)


def scan_dot_orbit_sign(lam, mu):
    """Sign of the permutation w with w . lam == lam - mu, else 0.

    All (r+1)! permutations are scanned in lexicographic order and the
    first match wins; intended for small rank only.
    """
    r = lam.rank
    target = lam - alpha_to_gl(mu, r)
    for perm in permutations(range(1, r + 2)):
        if dot_action(perm, lam) == target:
            return perm_sign(perm)
    return 0
