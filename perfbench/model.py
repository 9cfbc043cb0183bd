"""The benchmark's own mathematics and output checks.

Nothing here imports cscrystal.  Dimensions come from the Weyl product
formula, random tableaux from interlacing Gelfand-Tsetlin patterns, and
strictness from the pattern rows, so every check below is independent
of the code under test.
"""

import hashlib
import json
import re
import time
from fractions import Fraction


def partition_of(coeffs):
    """GL partition of sum(c_i * omega_i): part j is c_j + ... + c_r, last part 0."""
    r = len(coeffs)
    return tuple(sum(coeffs[j:]) for j in range(r)) + (0,)


def shifted(parts):
    """lambda + rho for a partition with r+1 parts."""
    r = len(parts) - 1
    return tuple(p + r - k for k, p in enumerate(parts))


def weyl_dim(parts):
    """Dimension of the GL(n) irreducible with highest weight `parts`."""
    n = len(parts)
    dim = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            dim *= Fraction(parts[i] - parts[j] + j - i, j - i)
    return int(dim)


def table_sums(coeffs):
    """Expected sums over mu of H(mu; t) at t = 0, -1, 1 for lambda = sum c_i omega_i."""
    r = len(coeffs)
    dim = weyl_dim(partition_of(coeffs))
    return {0: dim, -1: dim * 2 ** (r * (r + 1) // 2), 1: 0}


# --- random tableaux --------------------------------------------------------


def random_gt_rows(top, rng):
    """Interlacing pattern rows from `top` (length r+1) down to length 1."""
    rows = [tuple(top)]
    while len(rows[-1]) > 1:
        above = rows[-1]
        rows.append(tuple(rng.randint(above[i + 1], above[i]) for i in range(len(above) - 1)))
    return rows


def tableau_from_gt(rows):
    """Semistandard tableau whose row i holds P_k[i] - P_{k-1}[i] copies of k."""
    levels = list(reversed(rows))  # levels[k-1] is P_k, of length k
    n = len(levels)
    out = []
    for i in range(n):
        row = []
        for k in range(i + 1, n + 1):
            below = levels[k - 2][i] if k - 2 >= 0 and i < k - 1 else 0
            row.extend([k] * (levels[k - 1][i] - below))
        if row:
            out.append(tuple(row))
    return tuple(out)


def tableau_text(rows):
    return " / ".join(" ".join(str(x) for x in row) for row in rows)


def gt_strict(rows, rank):
    """Every truncation P_k (entries <= k in rows 1..k) strictly decreases."""
    for k in range(1, rank + 2):
        counts = [sum(1 for x in row if x <= k) for row in rows[:k]]
        counts += [0] * (k - len(counts))
        if any(a <= b for a, b in zip(counts, counts[1:])):
            return False
    return True


# Largest fundamental coefficient per rank: each rank offers at least 625
# weights for its draws, so redrawing on a repeat stays cheap.
_MAX_COEFF = {4: 4, 5: 3, 6: 2, 7: 2}


def sample_bzl_inputs(rng, count):
    """`count` random tableaux of strict shapes lambda + rho, ranks 4..7.

    Each rank gets the same share of the calls, in a seeded order, so
    the seed moves the mix of cheap and costly ranks not at all.  lambda
    is drawn per tableau and redrawn when (rank, lambda) was drawn before,
    so no shape repeats within a sample: a per-shape cache never hits.
    Returns (rank, text, strict) triples.
    """
    ranks = [4 + k % 4 for k in range(count)]
    rng.shuffle(ranks)
    out, seen = [], set()
    while len(out) < count:
        rank = ranks[len(out)]
        coeffs = tuple(rng.randint(0, _MAX_COEFF[rank]) for _ in range(rank))
        if (rank, coeffs) in seen:
            continue
        seen.add((rank, coeffs))
        rows = tableau_from_gt(random_gt_rows(shifted(partition_of(coeffs)), rng))
        out.append((rank, tableau_text(rows), gt_strict(rows, rank)))
    return out


def repeat_share(inputs):
    """Share of (rank, shape) pairs in `inputs` that an earlier input already had."""
    shapes = {(rank, tuple(len(row.split()) for row in text.split(" / "))) for rank, text, _ in inputs}
    return 1 - len(shapes) / len(inputs)


# --- host speed --------------------------------------------------------------


# Fixed words for the reference loop's bracket matching.
_REF_WORDS = tuple(tuple((k * 7 + 3 * j * j) % 4 + 1 for j in range(24)) for k in range(40))


def _unmatched(word, i):
    """Positions of the unmatched i+1 and i letters of `word`."""
    opened, free = [], []
    for pos, x in enumerate(word):
        if x == i + 1:
            opened.append(pos)
        elif x == i:
            if opened:
                opened.pop()
            else:
                free.append(pos)
    return tuple(opened), tuple(free)


def reference_loop():
    """Fixed pure-Python work whose time tracks how fast the host runs now.

    Half of it is integer arithmetic, half bracket matching on small
    tuples, lists and a dict, which is the kind of code the package runs;
    on a noisy host this pair tracked the package's own slowdown better
    than either half alone.
    """
    total = 0
    for i in range(75_000):
        total += i * i % 7
    seen = {}
    for _ in range(12):
        for word in _REF_WORDS:
            for i in (1, 2, 3):
                opened, free = _unmatched(word, i)
                key = (word[:3], i)
                seen[key] = seen.get(key, 0) + len(opened) + len(free)
    return total + len(seen)


def time_reference():
    """Seconds one reference_loop takes."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


# --- output checks -----------------------------------------------------------


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


_TERM = {
    "t": re.compile(r"([+-]?)(\d*)(t(?:\^(\d+))?)?"),
    "q": re.compile(r"([+-]?)(\d*)(q\^\{-(\d+)\})?"),
}


def parse_poly(text, var):
    """Ascending coefficients of an expanded polynomial such as '1-2t+t^2'.

    var 't' reads the text table, var 'q' the LaTeX form in powers q^{-k}.
    """
    text = text.strip()
    if text == "0":
        return []
    coeffs = {}
    pos = 0
    pattern = _TERM[var]
    while pos < len(text):
        m = pattern.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r}")
        sign, mag, power, exp = m.groups()
        c = int(mag) if mag else 1
        if not mag and not power:
            raise ValueError(f"cannot parse polynomial {text!r}")
        k = 0 if not power else (int(exp) if exp else 1)
        coeffs[k] = coeffs.get(k, 0) + (-c if sign == "-" else c)
        pos = m.end()
    return [coeffs.get(k, 0) for k in range(max(coeffs) + 1)]


def evaluate(coeffs, t):
    return sum(c * t**k for k, c in enumerate(coeffs))


def table_polys(fmt, out):
    """Row polynomials of an `hpoly` table printed in format `fmt`."""
    if fmt == "json":
        return [row["coeffs"] for row in json.loads(out)["rows"]]
    if fmt == "csv":
        lines = out.strip().split("\n")
        header = lines[0].split(",")
        cols = [k for k, h in enumerate(header) if re.fullmatch(r"t\d+", h)]
        return [[int(line.split(",")[k]) for k in cols] for line in lines[1:]]
    if fmt == "latex":
        polys = []
        for line in out.split("\n"):
            if line.endswith("\\\\") and not line.startswith("\\mu"):
                cells = [c.strip() for c in line[:-2].split("&")]
                polys.extend(parse_poly(cells[k], "q") for k in (1, 3) if cells[k])
        return polys
    polys = []
    for line in out.split("\n")[1:]:
        if line:
            polys.append(parse_poly(line.split(": ", 1)[1].split("  |")[0], "t"))
    return polys


def table_rows_header(fmt, out):
    """Row count as the output states it (text header) or lists it."""
    if fmt == "text":
        return int(re.search(r"rows: (\d+)", out).group(1))
    return len(table_polys(fmt, out))


_AT_T = {"inf": 0, "-1": -1, "1": 1}


# The check_* functions return a list of problems, empty when the output
# is right; output too garbled to parse raises, and the caller counts that.


def check_verify(out):
    problems = []
    if out.count("equal") != 2 or "MISMATCH" in out:
        problems.append("verify did not print 'equal' twice")
    if not re.search(r"lhs (\d+) terms, rhs (\d+) terms", out):
        problems.append("verify printed no term counts")
    return problems


def verify_terms(out):
    m = re.search(r"lhs (\d+) terms, rhs (\d+) terms", out)
    return int(m.group(1)), int(m.group(2))


def check_hpoly(coeffs, fmt, at, out):
    """Table sums of an `hpoly` output, and its --at column."""
    problems = []
    want = table_sums(coeffs)
    polys = table_polys(fmt, out)
    for t, total in want.items():
        got = sum(evaluate(p, t) for p in polys)
        if got != total:
            problems.append(f"sum of H at t={t} is {got}, expected {total}")
    if at is not None:
        if fmt == "json":
            spec = json.loads(out)["specialized"]
            values = [row["value"] for row in spec]
            if not all(row["ok"] for row in spec):
                problems.append("oracle mismatch in --at column")
        else:
            at_lines = [line for line in out.split("\n") if "| at q=" in line]
            values = [int(line.split("| at q=")[1].split(": ", 1)[1].split()[0]) for line in at_lines]
            if any("FAIL" in line for line in at_lines) or len(at_lines) != len(polys):
                problems.append("FAIL or missing row in --at column")
        if sum(values) != want[_AT_T[at]]:
            problems.append(f"specialized values at q={at} sum to {sum(values)}, expected {want[_AT_T[at]]}")
    return problems


def check_bzl(text, strict, out):
    """One `bzl` text output against the benchmark's own strictness test."""
    lines = dict(line.split(" ", 1) for line in out.strip().split("\n"))
    problems = []
    if lines.get("tableau:") != text:
        problems.append("tableau echo differs from input")
    c_zero = lines.get("C", "").startswith("= 0 ")
    if c_zero == strict:
        problems.append(f"C line {lines.get('C')!r} disagrees with GT strictness {strict}")
    if lines.get("strict:") != ("yes" if strict else "no"):
        problems.append("strict line disagrees with GT strictness")
    return problems
