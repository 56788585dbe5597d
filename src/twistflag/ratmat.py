"""Exact rational matrices: the arithmetic substrate for the pinned group.

Entries are Python ints or Fractions; nothing here ever touches floats.
Every elimination is one Borel column sweep (`_column_sweep`): strata
read its pivot rows, canonical flags its representative, `det` its pivot
values, and the triangular factors of an LDU or UDL splitting are its
representative with its pivots on the diagonal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence

from .errors import DecompositionFails


class RatMatrix:
    __slots__ = ("rows", "n")

    def __init__(self, rows: Sequence[Sequence]):
        self.rows = tuple(tuple(row) for row in rows)
        self.n = len(self.rows)
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        """The product; only the nonzero terms a[i][k] * b[k][j] are summed."""
        b = [[(j, y) for j, y in enumerate(row) if y] for row in other.rows]
        out = []
        for row in self.rows:
            acc = [0] * self.n
            for k, x in enumerate(row):
                if x:
                    for j, y in b[k]:
                        acc[j] += x * y
            out.append(acc)
        return RatMatrix(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)  # ints and equal Fractions hash alike

    def transpose(self) -> "RatMatrix":
        return RatMatrix(list(zip(*self.rows)))

    def det(self) -> Fraction:
        """sign(p) times the pivots of the left-to-right, bottom-most-pivot
        sweep, which leaves a matrix of determinant sign(p); 0 when the
        sweep meets a zero column."""
        try:
            _, p, pivots = _column_sweep(self, True, True)
        except ZeroDivisionError:
            return Fraction(0)
        out = Fraction(-1 if sum(a > b for a, b in combinations(p, 2)) % 2 else 1)
        for d in pivots:
            out *= d
        return out

    def is_identity(self) -> bool:
        return self == RatMatrix.identity(self.n)

    def minor(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> Fraction:
        sub = RatMatrix(tuple(tuple(self.rows[i][j] for j in col_idx) for i in row_idx))
        return sub.det()

    def __repr__(self) -> str:
        return f"RatMatrix({[list(map(str, r)) for r in self.rows]})"


def _column_sweep(g: RatMatrix, left_to_right: bool, pivot_bottom: bool) -> tuple:
    """Sweep the columns of g with column operations of one Borel subgroup.

    Columns are taken left to right (B+) or right to left (B-); each is
    scaled to 1 at its bottom-most (pivot_bottom) or top-most nonzero
    entry, and that row is then cleared in the columns still to come.
    Returns (m, p, pivots): m is the canonical representative of g*B+ or
    g*B-, p[j] is the pivot row of column j, and pivots are the values
    divided out, in sweep order.  Row operations of the left Borel
    subgroup (B+ for bottom-most pivots, B- for top-most) leave p
    unchanged, so p names the cell through g.  A zero column, met only
    when g is singular, raises ZeroDivisionError.
    """
    n = g.n
    cols = [[Fraction(g.rows[i][j]) for i in range(n)] for j in range(n)]
    order = range(n) if left_to_right else range(n - 1, -1, -1)
    p = [None] * n
    pivots = []
    for step, j in enumerate(order):
        cand = [i for i in range(n) if cols[j][i] != 0]
        if not cand:
            raise ZeroDivisionError("matrix is singular")
        i0 = max(cand) if pivot_bottom else min(cand)
        p[j] = i0
        pv = cols[j][i0]
        pivots.append(pv)
        cols[j] = [x / pv for x in cols[j]]
        for k in order[step + 1:]:
            f = cols[k][i0]
            if f != 0:
                cols[k] = [x - f * y for x, y in zip(cols[k], cols[j])]
    return RatMatrix(list(zip(*cols))), tuple(p), tuple(pivots)


def left_factor(m: RatMatrix, left_to_right: bool) -> tuple:
    """(F, pivots): the left factor of m = L D U (left_to_right: F = L) or
    of m = U D L (right to left: F = U), read off one sweep.

    The left-to-right, top-most-pivot sweep of m = L D U leaves L, and the
    right-to-left, bottom-most-pivot sweep of m = U D L leaves U; the
    pivots are the entries of D in sweep order.  The right factor of
    either splitting is the left factor of m.transpose(), transposed back.
    A pivot off the diagonal (a vanishing leading minor) or a singular m
    raises DecompositionFails.
    """
    try:
        f, p, pivots = _column_sweep(m, left_to_right, not left_to_right)
    except ZeroDivisionError:
        raise DecompositionFails("matrix is singular") from None
    if p != tuple(range(m.n)):
        raise DecompositionFails("a leading minor vanishes")
    return f, pivots


def unipotent_left_factor(m: RatMatrix, left_to_right: bool) -> RatMatrix:
    """The left factor of m as a product of two unitriangular matrices;
    DecompositionFails when the diagonal of its splitting is not the identity."""
    f, pivots = left_factor(m, left_to_right)
    if any(d != 1 for d in pivots):
        raise DecompositionFails("unipotent splitting has a nontrivial diagonal")
    return f


def _frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def matrix_to_json(m: RatMatrix) -> list:
    """Entries as "p/q" strings."""
    return [[_frac_str(x) for x in row] for row in m.rows]


def _exact_entry(x) -> Fraction:
    if isinstance(x, bool) or not isinstance(x, (int, str, Fraction)):
        raise ValueError(f"entry {x!r} is not exact: use an int or a \"p/q\" string")
    return Fraction(x)


def matrix_from_json(data: Sequence[Sequence[str]]) -> RatMatrix:
    """Entries as ints or exact "p/q" strings; a float or bool is a ValueError."""
    return RatMatrix(tuple(tuple(_exact_entry(x) for x in row) for row in data))
