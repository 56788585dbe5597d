"""Weyl groups of symmetrizable generalized Cartan matrices.

Elements are exact integer matrices acting on the simple-root basis
(columns are the images of the simple roots), which is a faithful
representation uniformly across finite, affine and indefinite type.
Each group interns one element per matrix, so equality is identity and
an element is its own memo key; the matrix is hashed only on interning.

Products are table-driven: the only multiplication is w -> w s_i, a
column update cached on w (``WeylGroup._times_simple``); a general
product x * y applies the letters of a reduced word of y to x.

Determinism rule used everywhere: whenever a descent or a reduced word
must be chosen, the smallest node index wins.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .cartan import CartanMatrix
from .errors import BudgetExceeded, NonReducedWord

Word = tuple  # sequence of node indices

DEFAULT_BUDGET = 20_000


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _positive_definite(m) -> bool:
    """Sylvester's criterion on a symmetric integer matrix: every leading
    principal minor is positive.  Fraction-free (Bareiss) elimination, so
    after step k the entry m[k+1][k+1] is the leading minor of size k+2."""
    m = [list(row) for row in m]
    prev = 1
    for k in range(len(m)):
        piv = m[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]) // prev
        prev = piv
    return True


class WeylElement:
    """A Weyl group element as an integer matrix on the simple-root basis.

    Built only by ``WeylGroup._wrap``, so two elements are equal exactly
    when they are the same object.  Besides the matrix it caches, for the
    life of its group, its inverse, its right neighbours w s_i (slot i,
    filled on first use), its right descent set, its descent-walk word
    (``WeylGroup._strip``) and, for a reflection, its root (filled by
    ``posets.root_of_reflection``).
    """

    __slots__ = ("group", "mat", "_inv", "_nbr", "_rdes", "_word", "_root")

    def __init__(self, group: "WeylGroup", mat):
        self.group = group
        self.mat = mat
        self._inv = None
        self._nbr = None
        self._rdes = None
        self._word = None
        self._root = None

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        """self * other, by right multiplication with the letters of other."""
        if other.group is not self.group:
            raise ValueError("elements live in different Weyl groups")
        g = self.group
        out = self
        for i in reversed(g._strip(other)):
            out = g._times_simple(out, i)
        return out

    def inverse(self) -> "WeylElement":
        """s_{a_1}...s_{a_k} for the stripped letters of w; linked both ways."""
        if self._inv is None:
            inv = self.group.from_word(self.group._strip(self))
            self._inv, inv._inv = inv, self
        return self._inv

    def act(self, vec: Sequence[int]) -> tuple:
        """Image of a root-lattice vector (coordinates in the simple roots)."""
        m, n = self.mat, self.group.n
        return tuple(sum(m[i][k] * vec[k] for k in range(n)) for i in range(n))

    def is_identity(self) -> bool:
        return self is self.group.identity

    def length(self) -> int:
        return self.group.length(self)

    def canonical_word(self) -> Word:
        return self.group.canonical_word(self)

    def __repr__(self) -> str:
        word = self.group.canonical_word(self)
        return "W[" + ",".join(self.group.cartan.labels[i] for i in word) + "]" if word else "W[e]"


class WeylGroup:
    """Element factory plus the memo tables for one Cartan matrix.

    ``_wrap`` interns one element per matrix; that table is the only one
    keyed by matrices.  All other memo state lives on an interned element
    (its slots) or in a group or ``ParabolicContext`` table keyed by
    interned elements, and lives as long as the group.
    """

    def __init__(self, cartan: CartanMatrix, budget: int = DEFAULT_BUDGET):
        self.cartan = cartan
        self.n = cartan.size
        self.budget = budget
        self._elements: dict = {}
        a = cartan.entries
        # column j of w s_i is col_j - _coef[i][j] * col_i
        self._coef = [tuple(a[j][i] for j in range(self.n)) for i in range(self.n)]
        self.identity = self._wrap(_identity(self.n))
        self.identity._word = ()
        # s_i(alpha_j) = alpha_j - a[j][i] alpha_i: the column update of e
        self._simple = [self._times_simple(self.identity, i) for i in range(self.n)]
        self._bruhat: dict = {}
        self._full = None

    def _wrap(self, mat) -> WeylElement:
        el = self._elements.get(mat)
        if el is None:
            el = WeylElement(self, mat)
            self._elements[mat] = el
        return el

    def _times_simple(self, w: WeylElement, i: int) -> WeylElement:
        """w s_i: column j becomes col_j - a[j][i] col_i, so only rows with a
        nonzero entry in column i change.  Cached in w's neighbour slot i,
        and, s_i being an involution, linked back from (w s_i)'s slot i."""
        nbr = w._nbr
        if nbr is None:
            nbr = w._nbr = [None] * self.n
        out = nbr[i]
        if out is None:
            coef = self._coef[i]
            out = self._wrap(tuple(
                tuple(x - c * row[i] for x, c in zip(row, coef)) if row[i] else row
                for row in w.mat))
            nbr[i] = out
            if out._nbr is None:
                out._nbr = [None] * self.n
            out._nbr[i] = w
        return out

    def simple(self, i: int) -> WeylElement:
        if not 0 <= i < self.n:
            raise IndexError(f"node index {i} out of range 0..{self.n - 1}")
        return self._simple[i]

    def full_context(self) -> "ParabolicContext":
        """The parabolic context on all nodes, built once per group, so its
        finiteness verdict and element list are computed once."""
        if self._full is None:
            self._full = ParabolicContext(self, range(self.n))
        return self._full

    def from_word(self, word: Iterable[int]) -> WeylElement:
        el = self.identity
        for i in word:
            el = el * self.simple(i)
        return el

    # -- descents and length -------------------------------------------

    def _col_negative(self, mat, i: int) -> bool:
        col = [mat[k][i] for k in range(self.n)]
        return all(x <= 0 for x in col) and any(x < 0 for x in col)

    def right_descents(self, w: WeylElement) -> frozenset:
        """The i with l(w s_i) < l(w): column i of w is a negative root."""
        if w._rdes is None:
            w._rdes = frozenset(i for i in range(self.n) if self._col_negative(w.mat, i))
        return w._rdes

    def left_descents(self, w: WeylElement) -> frozenset:
        return self.right_descents(w.inverse())

    def descents(self, w: WeylElement, side: str) -> frozenset:
        if side == "right":
            return self.right_descents(w)
        if side == "left":
            return self.left_descents(w)
        raise ValueError("side must be 'left' or 'right'")

    def _strip(self, w: WeylElement) -> Word:
        """Letters a_1..a_k, each the smallest right descent of what is left,
        with w s_{a_1}...s_{a_k} = e; stored on every element walked."""
        if w._word is not None:
            return w._word
        path = []
        cur = w
        while cur._word is None:
            ds = self.right_descents(cur)
            if not ds:
                raise ValueError("descent-free non-identity matrix; corrupted element")
            if len(path) >= self.budget:
                raise BudgetExceeded("descent walk exceeded step budget")
            i = min(ds)
            path.append((cur, i))
            cur = self._times_simple(cur, i)
        tail = cur._word
        for el, i in reversed(path):
            tail = (i,) + tail
            el._word = tail
        return tail

    def length(self, w: WeylElement) -> int:
        return len(self._strip(w))

    def canonical_word(self, w: WeylElement) -> Word:
        """Lexicographically smallest reduced word (smallest left descent first)."""
        return self._strip(w.inverse())

    # -- Bruhat order ---------------------------------------------------

    def bruhat_leq(self, v: WeylElement, w: WeylElement) -> bool:
        """Subword test on the canonical word of w, memoized."""
        if v.group is not self or w.group is not self:
            raise ValueError("elements live in different Weyl groups")
        key = (v, w)
        known = self._bruhat.get(key)
        if known is not None:
            return known
        if self.length(v) > self.length(w):
            self._bruhat[key] = False
            return False
        word = self.canonical_word(w)
        memo: dict = {}

        def scan(k: int, t: WeylElement) -> bool:
            # Can t be spelled as a reduced subword of word[:k]?
            if t.is_identity():
                return True
            if k == 0:
                return False
            mkey = (k, t)
            got = memo.get(mkey)
            if got is not None:
                return got
            res = scan(k - 1, t)
            if not res:
                i = word[k - 1]
                if i in self.right_descents(t):
                    res = scan(k - 1, t * self.simple(i))
            memo[mkey] = res
            return res

        out = scan(len(word), v)
        self._bruhat[key] = out
        return out

    # -- enumeration ------------------------------------------------------

    def ball(self, max_length: int, letters: Optional[Iterable[int]] = None,
             budget: Optional[int] = None) -> list:
        """All elements of length <= max_length over the given letters.

        Breadth-first with element-keyed deduplication; raises
        BudgetExceeded instead of silently truncating.
        """
        if budget is None:
            budget = self.budget
        gens = sorted(letters) if letters is not None else list(range(self.n))
        seen = {self.identity}
        out = [self.identity]
        frontier = [self.identity]
        for _ in range(max_length):
            nxt = []
            for el in frontier:
                for i in gens:
                    cand = el * self.simple(i)
                    if cand not in seen:
                        seen.add(cand)
                        nxt.append(cand)
                        if len(seen) > budget:
                            raise BudgetExceeded(
                                f"ball enumeration exceeded budget of {budget} elements")
            out.extend(nxt)
            if not nxt:
                break
            frontier = nxt
        return out

    def inversion_set(self, w: WeylElement) -> list:
        """Roots beta_k = s_{i_1}...s_{i_{k-1}}(alpha_{i_k}) along the canonical word.

        The list has length l(w), entries are distinct positive root
        vectors in the simple-root basis, and beta_k is the root of the
        k-th reflection in the inversion order of the word.
        """
        word = self.canonical_word(w)
        prefix = self.identity
        out = []
        for i in word:
            e_i = tuple(1 if k == i else 0 for k in range(self.n))
            out.append(prefix.act(e_i))
            prefix = prefix * self.simple(i)
        return out


_GROUPS: dict = {}


def weyl_group(cartan: CartanMatrix, budget: int = DEFAULT_BUDGET) -> WeylGroup:
    """The (cached) Weyl group of a Cartan matrix."""
    key = (cartan.entries, budget)
    g = _GROUPS.get(key)
    if g is None:
        g = WeylGroup(cartan, budget)
        _GROUPS[key] = g
    return g


# Free-function aliases for the core operations ---------------------------

def simple_reflection(cartan: CartanMatrix, i: int) -> WeylElement:
    return weyl_group(cartan).simple(i)


def descents(w: WeylElement, side: str) -> frozenset:
    return w.group.descents(w, side)


def canonical_reduced_word(w: WeylElement) -> Word:
    return w.group.canonical_word(w)


def bruhat_leq(v: WeylElement, w: WeylElement) -> bool:
    return v.group.bruhat_leq(v, w)


def inversion_set(w: WeylElement) -> list:
    return w.group.inversion_set(w)


def enumerate_ball(cartan: CartanMatrix, max_length: int,
                   restrict_to=None, budget: int = DEFAULT_BUDGET) -> list:
    letters = None if restrict_to is None else restrict_to.J
    return weyl_group(cartan, budget).ball(max_length, letters)


def element_to_json(w: WeylElement) -> list:
    """Serialize as the canonical reduced word (array of node indices)."""
    return list(w.canonical_word())


def element_from_json(group: WeylGroup, data: Iterable[int]) -> WeylElement:
    return group.from_word(data)


class ParabolicContext:
    """A subset J of nodes with its derived data (W_J, W^J tests).

    Tables kept per context: W_J balls by radius (``elements``), the
    minimal coset representatives W^J up to a length, by that length
    (``_reps_cache``, filled by ``twisted.j_interval``), parabolic
    decompositions, and the ``j_leq`` and ``minimal_c`` memos.
    """

    def __init__(self, group: WeylGroup, J: Iterable[int]):
        J = frozenset(int(j) for j in J)
        if not J <= set(range(group.n)):
            raise ValueError("J must be a subset of the node indices")
        self.group = group
        self.J = J
        self._elements = None
        self._finite = None
        self._longest = None
        self._ball_cache: dict = {}
        self._reps_cache: dict = {}
        self._jleq_cache: dict = {}
        self._minc_cache: dict = {}
        self._decomp_cache: dict = {}

    def decompose(self, w: WeylElement):
        """The unique w = w^J * w_J with w^J minimal in w*W_J and w_J in W_J."""
        got = self._decomp_cache.get(w)
        if got is not None:
            return got
        g = self.group
        cur = w
        letters = []
        while True:
            ds = g.right_descents(cur) & self.J
            if not ds:
                break
            j = min(ds)
            letters.append(j)
            cur = cur * g.simple(j)
        w_j = g.from_word(reversed(letters))
        if cur * w_j is not w:
            raise ValueError("parabolic decomposition does not recompose w")
        if g.length(cur) + g.length(w_j) != g.length(w):
            raise NonReducedWord("parabolic decomposition is not length-additive")
        self._decomp_cache[w] = (cur, w_j)
        return cur, w_j

    def min_rep(self, w: WeylElement) -> WeylElement:
        return self.decompose(w)[0]

    def contains(self, w: WeylElement) -> bool:
        """Membership in W_J."""
        return self.min_rep(w).is_identity()

    def in_min_coset_reps(self, w: WeylElement) -> bool:
        """Membership in W^J."""
        return not (self.group.right_descents(w) & self.J)

    def elements(self, max_length: Optional[int] = None) -> list:
        """W_J itself when finite, or its ball of the given radius."""
        if max_length is not None:
            got = self._ball_cache.get(max_length)
            if got is None:
                got = self.group.ball(max_length, self.J)
                self._ball_cache[max_length] = got
            return got
        if self._elements is None:
            # BFS terminates on its own exactly when W_J is finite; the
            # group budget guards the infinite case.
            self._elements = self.group.ball(self.group.budget, self.J)
        return self._elements

    def is_finite(self) -> bool:
        """Whether W_J is finite: exactly when the symmetrized Cartan form
        (d_i a_ij) on J is positive definite.  Decided once."""
        if self._finite is None:
            d, a = self.group.cartan.symmetrizer, self.group.cartan.entries
            J = sorted(self.J)
            self._finite = _positive_definite([[d[i] * a[i][j] for j in J] for i in J])
        return self._finite

    def longest(self) -> WeylElement:
        """The longest element w_{J,0} of a finite W_J, by greedy ascent."""
        if self._longest is None:
            if not self.is_finite():
                raise BudgetExceeded("W_J is infinite and has no longest element")
            g = self.group
            top = g.identity
            while up := self.J - g.right_descents(top):
                top = top * g.simple(min(up))
            self._longest = top
        return self._longest

    def __repr__(self) -> str:
        return f"ParabolicContext(J={sorted(self.J)})"


def parabolic_decompose(w: WeylElement, J: ParabolicContext):
    return J.decompose(w)
