"""Integer simplicial homology: coreductions first, Smith normal form
only when it is needed.

``reduced_homology`` pairs the cells of the augmented complex by
coreductions (Mrozek-Batko) and counts the critical cells left in each
dimension.  When no two of those dimensions are adjacent, every Morse
differential is zero (Forman), so the counts are the reduced Betti
numbers and there is no torsion.  When two are adjacent, the Smith
normal forms of the whole complex decide.

Certifies sphere signatures at the homology level only; reports never
claim more than "sphere-homology certificate".  Arbitrary-precision
integers throughout; no modular shortcuts.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import deque
from typing import Optional

from .errors import BoundaryError, Inconclusive
from .posets import SimplicialComplex

FACE_BUDGET = 50_000


class ChainComplexZ:
    """Boundary maps of a simplicial complex over Z, as sparse columns.

    ``faces[k]`` is the ordered basis of k-faces (sorted vertex tuples);
    ``boundary(k)`` maps k-chains to (k-1)-chains: its j-th column is a
    dict from the row index of each (k-1)-face of ``faces[k][j]`` to the
    entry.  The composite of two consecutive boundaries is checked to
    vanish on construction; a nonzero composite raises ``BoundaryError``.
    """

    def __init__(self, faces: dict, boundaries: dict):
        self.faces = faces
        self.boundaries = boundaries
        for k in sorted(boundaries):
            if k - 1 in boundaries:
                lower = boundaries[k - 1]
                for col in boundaries[k]:
                    # column of d_{k-1} d_k, accumulated over nonzero entries
                    acc: dict = {}
                    for r, x in col.items():
                        for i, y in lower[r].items():
                            acc[i] = acc.get(i, 0) + y * x
                    if any(acc.values()):
                        raise BoundaryError("boundary of boundary is nonzero")

    def boundary(self, k: int):
        return self.boundaries.get(k, [])


def boundary_matrices(c: SimplicialComplex) -> ChainComplexZ:
    """Standard boundary operators with alternating signs on sorted tuples:
    dropping vertex d of a face gives its facet with sign (-1)^d."""
    faces = c.faces()
    total = sum(len(v) for v in faces.values())
    if total > FACE_BUDGET:
        raise Inconclusive(f"complex has {total} faces, budget is {FACE_BUDGET}")
    boundaries = {}
    for k in sorted(faces):
        if k == 0:
            continue
        index = {f: i for i, f in enumerate(faces[k - 1])}
        boundaries[k] = [{index[f[:d] + f[d + 1:]]: -1 if d % 2 else 1
                          for d in range(len(f))} for f in faces[k]]
    return ChainComplexZ(faces, boundaries)


def smith_normal_form(vectors) -> tuple:
    """Invariant factors d1 | d2 | ... and the rank, via exact row/col ops.

    ``vectors`` are the rows of the matrix as sparse integer vectors
    (dicts from index to entry).  A matrix and its transpose have the
    same invariant factors, so they may as well be its columns, which is
    how ``reduced_homology`` passes the boundary columns.

    Sparse phase first (Dumas-Saunders-Villard): over row and column
    dicts of the nonzero entries, repeatedly take the ±1 entry of least
    Markowitz cost ``(row count - 1) * (column count - 1)``, ties broken
    by smallest (row, column), clear its column by row operations and
    delete its row and column.  Each step is unimodular and splits off
    one invariant factor 1, so the Smith form of the matrix is 1s
    followed by the Smith form of what is left.  When no unit entry is
    left, that block (empty for most order-complex boundaries) goes to
    ``_dense_snf``.  Invariant factors are unique, so the result does not
    depend on the pivot order.
    """
    rows = {}
    cols = {}
    for i, vec in enumerate(vectors):
        entries = {j: x for j, x in vec.items() if x}
        if entries:
            rows[i] = entries
            for j in entries:
                cols.setdefault(j, set()).add(i)
    heap = [((len(r) - 1) * (len(cols[j]) - 1), i, j)
            for i, r in rows.items() for j, x in r.items() if x in (1, -1)]
    heapq.heapify(heap)
    units = 0
    while heap:
        cost, p, c = heapq.heappop(heap)
        prow = rows.get(p)
        if (prow is None or prow.get(c) not in (1, -1)
                or cost != (len(prow) - 1) * (len(cols[c]) - 1)):
            continue  # stale: the entry changed or a fresh cost was pushed
        pv = prow[c]
        del rows[p]
        for j in prow:
            cols[j].discard(p)
        touched = set()
        for i in cols.pop(c):
            row = rows[i]
            f = row[c] * pv
            for j, x in prow.items():
                y = row.get(j, 0) - f * x
                if y:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    if j != c:
                        cols[j].discard(i)
            if row:
                touched.add(i)
            else:
                del rows[i]
        units += 1
        # every unit entry whose row or column count changed gets its new cost
        for i in touched:
            row = rows[i]
            ri = len(row) - 1
            for j, x in row.items():
                if x in (1, -1):
                    heapq.heappush(heap, (ri * (len(cols[j]) - 1), i, j))
        for j in prow:
            if j != c:
                cj = len(cols[j]) - 1
                for i in cols[j] - touched:
                    if rows[i][j] in (1, -1):
                        heapq.heappush(heap, ((len(rows[i]) - 1) * cj, i, j))
    rest = sorted(j for j, s in cols.items() if s)
    diag, rank = _dense_snf([[rows[i].get(j, 0) for j in rest] for i in sorted(rows)])
    return [1] * units + diag, units + rank


def _dense_snf(matrix) -> tuple:
    """Dense Smith normal form: the finisher of ``smith_normal_form`` and,
    on whole matrices, its test oracle.

    Pivoting is deterministic: smallest magnitude first, row-major
    tie-break.
    """
    m = [list(row) for row in matrix]
    R = len(m)
    C = len(m[0]) if R else 0
    t = 0
    while t < min(R, C):
        piv = None
        best = None
        for i in range(t, R):
            for j in range(t, C):
                v = m[i][j]
                if v != 0 and (best is None or abs(v) < best):
                    best = abs(v)
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        if i0 != t:
            m[t], m[i0] = m[i0], m[t]
        if j0 != t:
            for row in m:
                row[t], row[j0] = row[j0], row[t]
        while True:
            # clear the pivot column
            restart = False
            for i in range(t + 1, R):
                if m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    if q:
                        for j in range(t, C):
                            m[i][j] -= q * m[t][j]
                    if m[i][t] != 0:
                        m[t], m[i] = m[i], m[t]
                        restart = True
                        break
            if restart:
                continue
            # clear the pivot row
            for j in range(t + 1, C):
                if m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    if q:
                        for i in range(t, R):
                            m[i][j] -= q * m[i][t]
                    if m[t][j] != 0:
                        for i in range(t, R):
                            m[i][t], m[i][j] = m[i][j], m[i][t]
                        restart = True
                        break
            if restart:
                continue
            # pivot must divide the remaining block
            offender = None
            for i in range(t + 1, R):
                for j in range(t + 1, C):
                    if m[i][j] % m[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            for j in range(t, C):
                m[t][j] += m[offender][j]
        t += 1
    diag = [abs(m[k][k]) for k in range(t)]
    return diag, t


class HomologyProfile:
    """Reduced Betti numbers and torsion coefficients per dimension."""

    def __init__(self, betti: dict, torsion: dict):
        self.betti = {k: v for k, v in betti.items() if v}
        self.torsion = {k: list(v) for k, v in torsion.items() if v}
        for coeffs in self.torsion.values():
            if any(x < 2 for x in coeffs):
                raise ValueError("torsion coefficients must be >= 2")
        self.reduced = True

    def __repr__(self):
        return f"HomologyProfile(betti={self.betti}, torsion={self.torsion})"

    def __eq__(self, other):
        return (isinstance(other, HomologyProfile)
                and self.betti == other.betti and self.torsion == other.torsion)


def reduced_homology(c: SimplicialComplex) -> HomologyProfile:
    """Reduced integral homology: coreductions first, Smith form if needed.

    ``_coreduce`` matches the cells of the augmented complex in ±1 pairs
    and counts the cells left critical in each dimension.  When no two
    critical dimensions are adjacent, every Morse differential vanishes,
    so the reduced Betti numbers are the critical counts and there is no
    torsion.  Otherwise the Smith forms of the whole complex decide
    (``_snf_homology``).
    """
    cx = boundary_matrices(c)
    critical = _coreduce(cx)
    if any(k + 1 in critical for k in critical):
        return _snf_homology(cx)
    return HomologyProfile(critical, {})


def _coreduce(cx: ChainComplexZ) -> dict:
    """Critical cells per dimension of a coreduction matching (Mrozek-Batko).

    Cells get integer ids ordered by dimension, with id 0 the (-1)-cell
    of the augmentation, so that every vertex starts with one face.  A
    cell with exactly one remaining face is paired with that face and
    both are removed; the entry is ±1, so each pair is a unimodular step
    (any other entry raises ``BoundaryError``; simplicial boundaries have
    none).  When no cell is left to pair, the lowest remaining id becomes
    critical: its faces all have lower ids and are gone.  Along every
    gradient path the pairs were removed in strictly decreasing order, so
    the matching is acyclic (Forman) and the Morse complex on the
    critical cells computes the reduced homology.
    """
    faces = cx.faces
    start = [1]  # id of the first k-cell, k = 0, 1, ...
    down = [{}]  # per cell: its boundary column, face row -> incidence
    base = [0]   # per cell: id of the first cell one dimension lower
    if faces:
        down += [{0: 1}] * len(faces[0])
        base += [0] * len(faces[0])
        start.append(len(down))
        for k in range(1, max(faces) + 1):
            cols = cx.boundary(k)
            down += cols
            base += [start[k - 1]] * len(cols)
            start.append(len(down))
    n = len(down)
    up = [[] for _ in range(n)]
    for s in range(1, n):
        b = base[s]
        for r in down[s]:
            up[b + r].append(s)
    left = [len(col) for col in down]  # faces not yet removed
    alive = bytearray(b"\x01") * n
    queue = deque(range(1, start[1] if faces else 1))  # the vertices
    critical: dict = {}
    low = 0
    while True:
        while queue:
            s = queue.popleft()
            if not alive[s] or left[s] != 1:
                continue
            b, col = base[s], down[s]
            for r in col:
                if alive[b + r]:
                    break
            if col[r] not in (1, -1):
                raise BoundaryError(f"coreduction pair has incidence {col[r]}, not ±1")
            for x in (b + r, s):
                alive[x] = 0
                for y in up[x]:
                    left[y] -= 1
                    if left[y] == 1:
                        queue.append(y)
        while low < n and not alive[low]:
            low += 1
        if low == n:
            return critical
        k = bisect_right(start, low) - 1
        critical[k] = critical.get(k, 0) + 1
        alive[low] = 0
        for y in up[low]:
            left[y] -= 1
            if left[y] == 1:
                queue.append(y)


def _snf_homology(cx: ChainComplexZ) -> HomologyProfile:
    """Reduced homology from SNF ranks of the augmented complex: the
    fallback of ``reduced_homology`` and its test oracle."""
    faces = cx.faces
    if not faces:
        return HomologyProfile({-1: 1}, {})
    top = max(faces)
    counts = {k: len(faces[k]) for k in faces}
    snf = {}
    snf[0] = ([1], 1)  # augmentation C_0 -> Z; rank 1 since C_0 is nonempty
    for k in range(1, top + 1):
        snf[k] = smith_normal_form(cx.boundary(k))
    betti = {}
    torsion = {}
    betti[-1] = 1 - snf[0][1]
    for k in range(0, top + 1):
        rk = snf[k][1]
        rk1 = snf[k + 1][1] if k + 1 <= top else 0
        betti[k] = counts[k] - rk - rk1
        if k + 1 <= top:
            tor = [d for d in snf[k + 1][0] if d > 1]
            if tor:
                torsion[k] = tor
    return HomologyProfile(betti, torsion)


def is_sphere_signature(h: HomologyProfile, d: int) -> bool:
    """Reduced homology is Z in dimension d and vanishes elsewhere.

    d = -1 is the empty complex, the sphere bounding a point.
    """
    return h.torsion == {} and h.betti == {d: 1}


def sphere_dimension(h: HomologyProfile) -> Optional[int]:
    """The d with sphere signature, or None."""
    if h.torsion or len(h.betti) != 1:
        return None
    (d, mult), = h.betti.items()
    return d if mult == 1 else None


def euler_characteristic(c: SimplicialComplex) -> int:
    """Reduced Euler characteristic from face counts."""
    faces = c.faces()
    return sum((-1) ** k * len(v) for k, v in faces.items()) - 1


def homology_to_json(h: HomologyProfile) -> dict:
    dims = sorted(set(h.betti) | set(h.torsion))
    top = max(dims, default=-1)
    betti = [h.betti.get(k, 0) for k in range(-1, top + 1)]
    torsion = [h.torsion.get(k, []) for k in range(-1, top + 1)]
    return {"betti": betti, "torsion": torsion, "sphere": sphere_dimension(h)}
