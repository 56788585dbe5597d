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
        self.rows = tuple(tuple(x for x in row) for row in rows)
        self.n = len(self.rows)
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("matrix must be square")

    @classmethod
    def identity(cls, n: int) -> "RatMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __mul__(self, other: "RatMatrix") -> "RatMatrix":
        n = self.n
        a, b = self.rows, other.rows
        return RatMatrix(tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
            for i in range(n)))

    def __eq__(self, other) -> bool:
        return isinstance(other, RatMatrix) and self.n == other.n and all(
            self.rows[i][j] == other.rows[i][j]
            for i in range(self.n) for j in range(self.n))

    def __hash__(self) -> int:
        return hash(tuple(tuple(Fraction(x) for x in r) for r in self.rows))

    def transpose(self) -> "RatMatrix":
        return RatMatrix(tuple(tuple(self.rows[j][i] for j in range(self.n))
                               for i in range(self.n)))

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
        return all(self.rows[i][j] == (1 if i == j else 0)
                   for i in range(self.n) for j in range(self.n))

    def minor(self, row_idx: Iterable[int], col_idx: Iterable[int]) -> Fraction:
        sub = RatMatrix(tuple(tuple(self.rows[i][j] for j in col_idx) for i in row_idx))
        return sub.det()

    def leading_minors(self) -> list:
        return [self.minor(range(k + 1), range(k + 1)) for k in range(self.n)]

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
    """m = U * D * L with U upper-unitriangular, L lower-unitriangular."""
    n = m.n
    rev = RatMatrix(tuple(tuple(1 if i + j == n - 1 else 0 for j in range(n))
                          for i in range(n)))
    L1, D1, U1 = ldu(rev * m * rev)
    U = rev * L1 * rev
    L = rev * U1 * rev
    return U, list(reversed(D1)), L


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
