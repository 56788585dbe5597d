"""Exact rational matrices: the arithmetic substrate for the pinned group.

Entries are Python ints or Fractions; nothing here ever touches floats.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DecompositionFails


def row_reduce(rows: Sequence[Sequence], ncols: int):
    """Gauss-Jordan elimination over Fraction on the first ncols columns.

    Returns (rows, pivot_cols): the reduced rows, each pivot row scaled
    to 1 at its pivot column and that column cleared in every other row,
    and the pivot columns in order.  Columns past ncols are carried along.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


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
        m = [[Fraction(x) for x in row] for row in self.rows]
        n = self.n
        sign = 1
        out = Fraction(1)
        for c in range(n):
            piv = next((r for r in range(c, n) if m[r][c] != 0), None)
            if piv is None:
                return Fraction(0)
            if piv != c:
                m[c], m[piv] = m[piv], m[c]
                sign = -sign
            out *= m[c][c]
            inv = 1 / m[c][c]
            for r in range(c + 1, n):
                if m[r][c] != 0:
                    f = m[r][c] * inv
                    m[r] = [x - f * y for x, y in zip(m[r], m[c])]
        return out * sign

    def inverse(self) -> "RatMatrix":
        """Exact inverse, by reducing [M | I]."""
        n = self.n
        augmented = [list(row) + [int(i == j) for j in range(n)]
                     for i, row in enumerate(self.rows)]
        reduced, pivots = row_reduce(augmented, n)
        if len(pivots) < n:
            raise ZeroDivisionError("matrix is singular")
        return RatMatrix([row[n:] for row in reduced])

    def is_identity(self) -> bool:
        return self == RatMatrix.identity(self.n)

    def minor(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> Fraction:
        sub = RatMatrix(tuple(tuple(self.rows[i][j] for j in col_idx) for i in row_idx))
        return sub.det()

    def __repr__(self) -> str:
        return f"RatMatrix({[list(map(str, r)) for r in self.rows]})"


def ldu(m: RatMatrix):
    """m = L * D * U with L lower-unitriangular, D diagonal, U upper-unitriangular.

    Exists iff all leading principal minors are nonzero.
    """
    n = m.n
    a = [[Fraction(x) for x in row] for row in m.rows]
    L = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        if a[c][c] == 0:
            raise DecompositionFails(f"leading minor of size {c + 1} vanishes")
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] / a[c][c]
                L[r][c] = f
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    D = [a[i][i] for i in range(n)]
    U = [[a[i][j] / D[i] for j in range(n)] for i in range(n)]
    return RatMatrix(L), D, RatMatrix(U)


def udl(m: RatMatrix):
    """m = U * D * L with U upper-unitriangular, L lower-unitriangular: the
    LDU factors of m with rows and columns reversed, each reversed back."""
    def rev(a):
        return RatMatrix([row[::-1] for row in a.rows[::-1]])
    L1, D1, U1 = ldu(rev(m))
    return rev(L1), D1[::-1], rev(U1)


def unipotent_lu(m: RatMatrix):
    """m = lower-uni * upper-uni; DecompositionFails if the diagonal is not trivial."""
    L, D, U = ldu(m)
    if any(d != 1 for d in D):
        raise DecompositionFails("LU diagonal is not the identity")
    return L, U


def unipotent_ul(m: RatMatrix):
    """m = upper-uni * lower-uni; DecompositionFails if the diagonal is not trivial."""
    U, D, L = udl(m)
    if any(d != 1 for d in D):
        raise DecompositionFails("UL diagonal is not the identity")
    return U, L


def _frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def matrix_to_json(m: RatMatrix) -> list:
    """Entries as "p/q" strings."""
    return [[_frac_str(x) for x in row] for row in m.rows]


def matrix_from_json(data: Sequence[Sequence[str]]) -> RatMatrix:
    return RatMatrix(tuple(tuple(Fraction(x) for x in row) for row in data))
