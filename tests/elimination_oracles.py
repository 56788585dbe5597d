"""Test oracles for the Borel column sweep in ``twistflag.ratmat``.

These are the eliminations the sweep replaced: Gauss-Jordan reduction
and the inverse built on it, the row-pivoted determinant, and the
unpivoted LDU splitting with its UDL and unipotent forms.  The library
reads each of these off one sweep; the tests compare the reads with the
eliminations below.
"""

from fractions import Fraction
from typing import Sequence

from twistflag import DecompositionFails, RatMatrix


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


def inverse(m: RatMatrix) -> RatMatrix:
    """Exact inverse, by reducing [M | I]."""
    n = m.n
    augmented = [list(row) + [int(i == j) for j in range(n)]
                 for i, row in enumerate(m.rows)]
    reduced, pivots = row_reduce(augmented, n)
    if len(pivots) < n:
        raise ZeroDivisionError("matrix is singular")
    return RatMatrix([row[n:] for row in reduced])


def pivoted_det(m: RatMatrix) -> Fraction:
    """The determinant by row-pivoted elimination."""
    a = [[Fraction(x) for x in row] for row in m.rows]
    n = m.n
    sign = 1
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            sign = -sign
        out *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            if a[r][c] != 0:
                f = a[r][c] * inv
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return out * sign


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
