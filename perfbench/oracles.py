"""Reference computations made apart from twistflag.

The benchmark checks the program's outputs against these, never against
stored copies of earlier output.  Nothing here imports twistflag.

* ``CoxeterOracle``: a finite Coxeter group as permutations of a set.
  Type A_{n-1} acts on {0..n-1} (one-line notation, Bruhat order by the
  tableau criterion); the dihedral types B2 and G2 act on the vertices of
  a regular m-gon (Bruhat order: smaller length, or equal).
* ``bottom_left_cell`` / ``top_left_cell``: read the permutation of the
  B+ x B+ and B- y B+ cells of an exact matrix from corner-submatrix ranks.
* ``same_flag``: two invertible matrices span the same flag.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def compose(p: tuple, q: tuple) -> tuple:
    """The permutation p after q."""
    return tuple(p[x] for x in q)


class CoxeterOracle:
    """A finite Coxeter group generated by the given permutations.

    ``kind`` is "A" (tableau criterion) or "dihedral" (length criterion).
    Words are sequences of generator indices read left to right, so the
    word (i1, ..., ik) is the permutation s_{i1} after ... after s_{ik}.
    """

    def __init__(self, gens, kind: str):
        if kind not in ("A", "dihedral"):
            raise ValueError(f"unknown kind {kind!r}")
        self.gens = [tuple(s) for s in gens]
        self.kind = kind
        self.rank = len(self.gens)
        ident = tuple(range(len(self.gens[0])))
        self.identity = ident
        self.length = {ident: 0}
        self.word = {ident: ()}
        frontier = [ident]
        while frontier:
            nxt = []
            for p in frontier:
                for i, s in enumerate(self.gens):
                    q = compose(p, s)
                    if q not in self.length:
                        self.length[q] = self.length[p] + 1
                        self.word[q] = self.word[p] + (i,)
                        nxt.append(q)
            frontier = nxt
        self.elements = sorted(self.length, key=lambda p: (self.length[p], self.word[p]))
        self._leq: dict = {}
        self._longest: dict = {}

    @classmethod
    def type_a(cls, n: int) -> "CoxeterOracle":
        """S_n, generator i swapping i and i+1."""
        gens = []
        for i in range(n - 1):
            p = list(range(n))
            p[i], p[i + 1] = p[i + 1], p[i]
            gens.append(tuple(p))
        return cls(gens, "A")

    @classmethod
    def dihedral(cls, m: int) -> "CoxeterOracle":
        """I2(m) on the vertices of an m-gon: s0(k) = -k, s1(k) = 1 - k."""
        s0 = tuple((-k) % m for k in range(m))
        s1 = tuple((1 - k) % m for k in range(m))
        return cls([s0, s1], "dihedral")

    def from_word(self, word) -> tuple:
        p = self.identity
        for i in word:
            p = compose(p, self.gens[i])
        return p

    def leq(self, u: tuple, w: tuple) -> bool:
        """Bruhat order."""
        key = (u, w)
        got = self._leq.get(key)
        if got is None:
            if self.kind == "dihedral":
                got = u == w or self.length[u] < self.length[w]
            else:
                got = all(a <= b for k in range(1, len(u))
                          for a, b in zip(sorted(u[:k]), sorted(w[:k])))
            self._leq[key] = got
        return got

    def interval_size(self, u: tuple, w: tuple) -> int:
        return sum(1 for z in self.elements if self.leq(u, z) and self.leq(z, w))

    def longest(self, J) -> tuple:
        """The longest element of the parabolic subgroup on the nodes J."""
        J = frozenset(J)
        got = self._longest.get(J)
        if got is None:
            top = self.identity
            frontier = [top]
            seen = {top}
            while frontier:
                nxt = []
                for p in frontier:
                    for j in J:
                        q = compose(p, self.gens[j])
                        if q not in seen:
                            seen.add(q)
                            nxt.append(q)
                if nxt:
                    top = nxt[0]
                frontier = nxt
            got = self._longest[J] = top
        return got

    def j_length(self, w: tuple, J) -> int:
        """l(w^J) - l(w_J), which equals l(w w_{J,0}) - l(w_{J,0})."""
        wj0 = self.longest(J)
        return self.length[compose(w, wj0)] - self.length[wj0]

    def j_leq(self, v: tuple, w: tuple, J) -> bool:
        """v <=J w iff v w_{J,0} <= w w_{J,0} in Bruhat order (finite type)."""
        wj0 = self.longest(J)
        return self.leq(compose(v, wj0), compose(w, wj0))

    def j_interval_size(self, v: tuple, w: tuple, J) -> int:
        wj0 = self.longest(J)
        return self.interval_size(compose(v, wj0), compose(w, wj0))


def all_subsets(n: int) -> list:
    return [frozenset(c) for k in range(n + 1) for c in combinations(range(n), k)]


# -- exact linear algebra ---------------------------------------------------

def prefix_ranks(rows) -> list:
    """r[j] = rank of the first j + 1 columns of a rational matrix.

    One Fraction row reduction; row operations keep the linear relations
    among columns, so the pivots met by column j count that rank.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    out = []
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is not None:
            m[r], m[piv] = m[piv], m[r]
            for i in range(r + 1, len(m)):
                if m[i][c] != 0:
                    f = m[i][c] / m[r][c]
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
            r += 1
        out.append(r)
    return out


def permute_columns(rows, p: tuple) -> list:
    """rows times the permutation matrix with ones at (p[j], j)."""
    return [[row[p[j]] for j in range(len(p))] for row in rows]


def _read_cell(ranks, n: int, from_bottom: bool) -> tuple:
    """Invert r(i, j) = #{c <= j : p(c) in the row block at i}."""
    def r(i, j):
        if j < 0 or i < 0 or i >= n:
            return 0
        return ranks[i][j]

    step = 1 if from_bottom else -1
    p = []
    for j in range(n):
        rows = [i for i in range(n)
                if (r(i, j) - r(i, j - 1)) - (r(i + step, j) - r(i + step, j - 1)) == 1]
        if len(rows) != 1:
            raise ValueError("rank table is not that of a permutation")
        p.append(rows[0])
    if sorted(p) != list(range(n)):
        raise ValueError("rank table is not that of a permutation")
    return tuple(p)


def bottom_left_cell(rows) -> tuple:
    """The x with g in B+ x B+: ranks of g[i:, :j+1] (B+ upper triangular)."""
    return _read_cell([prefix_ranks(rows[i:]) for i in range(len(rows))], len(rows), True)


def top_left_cell(rows) -> tuple:
    """The y with g in B- y B+: ranks of g[:i+1, :j+1]."""
    return _read_cell([prefix_ranks(rows[:i + 1]) for i in range(len(rows))],
                      len(rows), False)


def same_flag(a, b) -> bool:
    """a B+ = b B+: the first k columns of a and of b span one space, every k.

    With the columns interleaved as a0, b0, a1, b1, ..., that is a rank of
    k after the first 2k of them.
    """
    n = len(a)
    mixed = [[x for pair in zip(ra, rb) for x in pair] for ra, rb in zip(a, b)]
    ranks = prefix_ranks(mixed)
    return all(ranks[2 * k - 1] == k for k in range(1, n + 1))
