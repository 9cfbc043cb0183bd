"""Raising and lowering operators on tableaux via the signature rule.

The reading word scans columns right to left, each column top to
bottom.  For a letter i, every box holding i contributes '+' and every
box holding i+1 contributes '-'; adjacent "+-" pairs cancel until the
surviving signs are all '-' followed by all '+'.  The lowering operator
acts at the leftmost surviving '+', the raising operator at the
rightmost surviving '-'.

The rule is a pure word operation, so the operators, the enumeration
and the walk in bzl all work on flat reading words: surviving_slots
does the cancellation, and a changed word becomes a Tableau again
through the per-shape reading order.  Changing the letter at a
surviving slot keeps rows weakly increasing and columns strictly
increasing, so those tableaux are built without re-validation.
"""

from dataclasses import dataclass
from functools import lru_cache

from .rootsys import Shape
from .tableaux import Tableau, content, make_tableau


@lru_cache(maxsize=16)
def _reading_order(lengths: tuple[int, ...]):
    """(box of each word slot, word slots of each row) for the row lengths.

    Boxes are 0-indexed (row, col); each row lists its slots left to
    right.  An enumeration or a walk touches one shape, so a few entries
    serve every hit; the bound keeps a process that walks many one-off
    shapes from holding an order for each of them.
    """
    width = lengths[0] if lengths else 0
    boxes = tuple(
        (row, col)
        for col in range(width - 1, -1, -1)
        for row, n in enumerate(lengths)
        if n > col
    )
    slot_of = {box: k for k, box in enumerate(boxes)}
    rows = tuple(tuple(slot_of[(row, col)] for col in range(n)) for row, n in enumerate(lengths))
    return boxes, rows


def _order_of(t: Tableau):
    return _reading_order(tuple(len(row) for row in t.rows))


def reading_word(t: Tableau) -> tuple[int, ...]:
    rows = t.rows
    return tuple(rows[row][col] for row, col in _order_of(t)[0])


def tableau_from_word(t: Tableau, word) -> Tableau:
    """The tableau of t's rank and shape whose reading word is `word`.

    Not validated: callers pass t's own word, changed only at surviving
    signature slots.
    """
    return Tableau(t.rank, tuple(tuple([word[k] for k in slots]) for slots in _order_of(t)[1]))


def surviving_slots(word, i: int) -> tuple[list[int], list[int]]:
    """Slots of the '-' signs (letter i+1) and '+' signs (letter i) of
    word that survive cancellation, each list in reading order.

    Stack scan; a '-' consumes the nearest unmatched '+' to its left.
    """
    minus, plus = [], []
    j = i + 1
    for slot, x in enumerate(word):
        if x == i:
            plus.append(slot)
        elif x == j:
            if plus:
                plus.pop()
            else:
                minus.append(slot)
    return minus, plus


@dataclass(frozen=True)
class Signature:
    """Signed slots of a word (or tensor factor list) for one letter i.

    raw holds (slot, sign) pairs in reading order before cancellation,
    surviving the ones left after it.  Slots are 0-indexed.
    """

    slots: int
    raw: tuple[tuple[int, str], ...]
    surviving: tuple[tuple[int, str], ...]

    @property
    def eps(self) -> int:
        return sum(1 for _, s in self.surviving if s == "-")

    @property
    def phi(self) -> int:
        return sum(1 for _, s in self.surviving if s == "+")

    def leftmost_plus(self) -> int | None:
        for slot, s in self.surviving:
            if s == "+":
                return slot
        return None

    def rightmost_minus(self) -> int | None:
        best = None
        for slot, s in self.surviving:
            if s == "-":
                best = slot
        return best

    def render_raw(self) -> str:
        return self._render(self.raw)

    def render_reduced(self) -> str:
        return self._render(self.surviving)

    def _render(self, pairs) -> str:
        symbols = ["·"] * self.slots
        for slot, s in pairs:
            symbols[slot] = s
        return "(" + ",".join(symbols) + ")"


def i_signature(element, i: int) -> Signature:
    """Signature of a reading word, an int sequence, or a TensorElement.

    A tensor element becomes a word too: each factor spells its eps
    surviving '-' as letters i+1, then its phi surviving '+' as letters
    i, and owners[k] names the factor that letter k came from.
    """
    if isinstance(element, TensorElement):
        signs, owners = [], []
        for idx, factor in enumerate(element.factors):
            n_minus, n_plus = epsilon(factor, i), phi(factor, i)
            signs += [i + 1] * n_minus + [i] * n_plus
            owners += [idx] * (n_minus + n_plus)
        slots = len(element.factors)
    else:
        signs = tuple(element)
        owners = range(len(signs))
        slots = len(signs)
    raw = tuple(
        (owners[k], "-" if x == i + 1 else "+") for k, x in enumerate(signs) if x == i or x == i + 1
    )
    minus, plus = surviving_slots(signs, i)
    surviving = tuple((owners[k], "-") for k in minus) + tuple((owners[k], "+") for k in plus)
    return Signature(slots=slots, raw=raw, surviving=surviving)


def f_op(t: Tableau, i: int) -> Tableau | None:
    """Lowering operator: turn an i into i+1, or None when no '+' survives."""
    _check_letter(t.rank, i)
    word = list(reading_word(t))
    plus = surviving_slots(word, i)[1]
    if not plus:
        return None
    word[plus[0]] = i + 1
    return tableau_from_word(t, word)


def e_op(t: Tableau, i: int) -> Tableau | None:
    """Raising operator: turn an i+1 into i, or None when no '-' survives."""
    _check_letter(t.rank, i)
    word = list(reading_word(t))
    minus = surviving_slots(word, i)[0]
    if not minus:
        return None
    word[minus[-1]] = i
    return tableau_from_word(t, word)


def epsilon(t: Tableau, i: int) -> int:
    """Largest k with e_op applicable k times (surviving '-' count)."""
    _check_letter(t.rank, i)
    return len(surviving_slots(reading_word(t), i)[0])


def phi(t: Tableau, i: int) -> int:
    """Largest k with f_op applicable k times (surviving '+' count)."""
    _check_letter(t.rank, i)
    return len(surviving_slots(reading_word(t), i)[1])


def _check_letter(rank, i):
    if not 1 <= i <= rank:
        raise ValueError(f"operator index {i} outside 1..{rank}")


def highest_weight_tableau(shape: Shape, rank: int) -> Tableau:
    """Row i filled with the letter i; killed by every raising operator."""
    if shape.rank != rank:
        raise ValueError(f"shape has rank {shape.rank}, expected {rank}")
    rows = [[i] * p for i, p in enumerate(shape.parts, start=1) if p > 0]
    return make_tableau(rank, rows)


@lru_cache(maxsize=16)
def enumerate_crystal(shape: Shape, rank: int) -> tuple[Tableau, ...]:
    """Every tableau reachable from the highest-weight element.

    Breadth-first closure under all lowering operators (letters in
    increasing order), then sorted by row tuples so the result is a
    canonical listing.  Coincides with the set of all semistandard
    tableaux of the shape.
    """
    start = highest_weight_tableau(shape, rank)
    seen = {reading_word(start)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for word in frontier:
            for i in range(1, rank + 1):
                plus = surviving_slots(word, i)[1]
                if plus:
                    k = plus[0]
                    u = word[:k] + (i + 1,) + word[k + 1 :]
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
        frontier = nxt
    # Drain the word set while building tableaux, so the two are never
    # held in full at the same time.
    out = []
    while seen:
        out.append(tableau_from_word(start, seen.pop()))
    out.sort(key=lambda t: t.rows)
    return tuple(out)


@dataclass(frozen=True)
class TensorElement:
    """Ordered list of tableau factors; operators act on one factor."""

    factors: tuple[Tableau, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("tensor element needs at least one factor")
        ranks = {t.rank for t in self.factors}
        if len(ranks) != 1:
            raise ValueError("tensor factors must share one rank")

    @property
    def rank(self) -> int:
        return self.factors[0].rank

    def weight(self):
        total = content(self.factors[0])
        for factor in self.factors[1:]:
            total = total + content(factor)
        return total


def _tensor_apply(elem: TensorElement, i: int, factor_op, pick):
    sig = i_signature(elem, i)
    idx = pick(sig)
    if idx is None:
        return None
    moved = factor_op(elem.factors[idx], i)
    if moved is None:
        raise RuntimeError("signature promised a move the factor refused")
    factors = list(elem.factors)
    factors[idx] = moved
    return TensorElement(tuple(factors))


def tensor_f_op(elem: TensorElement, i: int) -> TensorElement | None:
    """Lower the factor owning the leftmost surviving '+'."""
    return _tensor_apply(elem, i, f_op, Signature.leftmost_plus)


def tensor_e_op(elem: TensorElement, i: int) -> TensorElement | None:
    """Raise the factor owning the rightmost surviving '-'."""
    return _tensor_apply(elem, i, e_op, Signature.rightmost_minus)
