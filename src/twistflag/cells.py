"""The type-A pinning: SL_n generators, stratum identification, and the
totally positive samplers.

Every cell is found by one elimination, `ratmat._column_sweep`, which
sweeps the columns with operations of one Borel subgroup.  Strata read
its pivot rows, canonical flags its representative, and the big cell and
the sigma splittings its representative as a triangular factor (the big
cell is where the leading minors do not vanish, so where an LDU
factorization exists).  The rank-profile dictionaries are not taken from
the literature; the test suite re-derives them by sampling
b1 * lift(w) * b2 over whole symmetric groups and checking recovery.
"""

from __future__ import annotations

import zlib
from fractions import Fraction
from random import Random
from typing import Sequence

from .cartan import cartan_A
from .errors import DecompositionFails, NonReducedWord, NotLeq, PatternViolation, StratumMismatch
from .ratmat import (RatMatrix, _column_sweep, _frac_str, left_factor, matrix_to_json,
                     unipotent_left_factor)
from .twisted import j_leq, j_length, minimal_c, mr_positive_subexpression
from .weyl import DEFAULT_BUDGET, ParabolicContext, WeylElement, weyl_group


class PinnedGroup:
    """SL_n with the pinning x_i(a) = I + a E_{i,i+1}, y_i(a) = I + a E_{i+1,i},
    alpha_i^vee(c) = diag(.., c, c^{-1}, ..) and s_i-dot = x_i(1) y_i(-1) x_i(1).

    Node i (0-indexed, type A_{n-1}) touches matrix slots i and i+1.
    Parameters must be exact: an int or a Fraction, never a float.
    """

    def __init__(self, n: int, allow_large: bool = False, budget: int = DEFAULT_BUDGET):
        if n < 2:
            raise ValueError("SL_n needs n >= 2")
        if n > 5 and not allow_large:
            raise ValueError("n > 5 needs allow_large=True (exact minors get big)")
        self.n = n
        self.cartan = cartan_A(n - 1)
        self.weyl = weyl_group(self.cartan, budget)
        self._lift_cache: dict = {}
        self._perm_cache: dict = {}
        # s_i-dot = x_i(1) y_i(-1) x_i(1): rows i, i+1 of the identity become e_{i+1}, -e_i
        eye = RatMatrix.identity(n).rows
        self._simple_lifts = [
            RatMatrix(eye[:i] + (eye[i + 1], tuple(-x for x in eye[i])) + eye[i + 2:])
            for i in range(n - 1)]

    # -- generators ---------------------------------------------------------

    def x(self, i: int, a) -> RatMatrix:
        self._check_args(i, a)
        rows = [[1 if r == c else 0 for c in range(self.n)] for r in range(self.n)]
        rows[i][i + 1] = a
        return RatMatrix(rows)

    def y(self, i: int, a) -> RatMatrix:
        self._check_args(i, a)
        rows = [[1 if r == c else 0 for c in range(self.n)] for r in range(self.n)]
        rows[i + 1][i] = a
        return RatMatrix(rows)

    def cochar(self, i: int, c) -> RatMatrix:
        self._check_args(i, c)
        if c == 0:
            raise ValueError("torus parameter must be nonzero")
        rows = [[0] * self.n for _ in range(self.n)]
        for r in range(self.n):
            rows[r][r] = 1
        rows[i][i] = c
        rows[i + 1][i + 1] = Fraction(1) / Fraction(c)
        return RatMatrix(rows)

    def _check_args(self, i: int, value=0):
        if not 0 <= i < self.n - 1:
            raise IndexError(f"node {i} out of range for SL_{self.n}")
        if not isinstance(value, (int, Fraction)):
            raise ValueError(f"parameter {value!r} is not exact: use an int or a Fraction")

    def lift_simple(self, i: int) -> RatMatrix:
        self._check_args(i)
        return self._simple_lifts[i]

    def lift(self, w) -> RatMatrix:
        """The lift along a reduced word; independent of the word chosen."""
        if isinstance(w, WeylElement):
            word = self.weyl.canonical_word(w)
        else:
            word = tuple(w)
            if self.weyl.length(self.weyl.from_word(word)) != len(word):
                raise NotLeq("lift needs a reduced word")
        got = self._lift_cache.get(word)
        if got is None:
            got = RatMatrix.identity(self.n)
            for i in word:
                got = got * self.lift_simple(i)
            self._lift_cache[word] = got
        return got

    # -- permutations ---------------------------------------------------------

    def perm_of_weyl(self, w: WeylElement) -> tuple:
        """p with lift(w) supported on entries (p[j], j)."""
        m = self.lift(w)
        p = []
        for j in range(self.n):
            col = [r for r in range(self.n) if m.rows[r][j] != 0]
            if len(col) != 1:
                raise ValueError("lift(w) is not a monomial matrix")
            p.append(col[0])
        return tuple(p)

    def weyl_of_perm(self, p: Sequence[int]) -> WeylElement:
        p = tuple(p)
        got = self._perm_cache.get(p)
        if got is not None:
            return got
        if sorted(p) != list(range(self.n)):
            raise ValueError(f"{p} is not a permutation of 0..{self.n - 1}")
        q = list(p)
        word = []
        while True:
            pos = {v: k for k, v in enumerate(q)}
            i = next((i for i in range(self.n - 1) if pos[i] > pos[i + 1]), None)
            if i is None:
                break
            word.append(i)
            q = [i + 1 if v == i else (i if v == i + 1 else v) for v in q]
        w = self.weyl.from_word(word)
        if self.perm_of_weyl(w) != p:
            raise ValueError(f"{p} is not a permutation of 0..{self.n - 1}")
        self._perm_cache[p] = w
        return w


# -- stratum extraction ------------------------------------------------------

def bruhat_stratum(pin: PinnedGroup, g: RatMatrix) -> WeylElement:
    """The w with g in B+ w B+ (columns left to right, bottom-most pivots)."""
    return pin.weyl_of_perm(_column_sweep(g, True, True)[1])


def birkhoff_stratum(pin: PinnedGroup, g: RatMatrix) -> WeylElement:
    """The v with g in B- v B+ (columns left to right, top-most pivots)."""
    return pin.weyl_of_perm(_column_sweep(g, True, False)[1])


def double_minus_stratum(pin: PinnedGroup, g: RatMatrix) -> WeylElement:
    """The u with g in B- u B- (columns right to left, top-most pivots)."""
    return pin.weyl_of_perm(_column_sweep(g, False, False)[1])


def mixed_stratum(pin: PinnedGroup, g: RatMatrix) -> WeylElement:
    """The v with g in B+ v B- (columns right to left, bottom-most pivots)."""
    return pin.weyl_of_perm(_column_sweep(g, False, True)[1])


def richardson_stratum(pin: PinnedGroup, g: RatMatrix) -> tuple:
    v = birkhoff_stratum(pin, g)
    w = bruhat_stratum(pin, g)
    if not pin.weyl.bruhat_leq(v, w):
        raise StratumMismatch("nonemptiness pattern violated: v must be <= w")
    return v, w


def double_bruhat_stratum(pin: PinnedGroup, g: RatMatrix) -> tuple:
    return bruhat_stratum(pin, g), double_minus_stratum(pin, g)


def twisted_stratum(pin: PinnedGroup, g: RatMatrix, J: ParabolicContext) -> tuple:
    """Index (v, w) of the twisted cell through g, via translation by w_{J,0}."""
    wj0 = J.longest()
    v1, w1 = richardson_stratum(pin, g * pin.lift(wj0))
    wj0_inv = wj0.inverse()
    v, w = v1 * wj0_inv, w1 * wj0_inv
    if not j_leq(v, w, J):
        raise StratumMismatch("twisted stratum pair fails v <=J w")
    return v, w


def canonical_flag(g: RatMatrix) -> RatMatrix:
    """The unique representative of g*B+ with pivot-normalized columns."""
    return _column_sweep(g, True, True)[0]


def canonical_flag_minus(g: RatMatrix) -> RatMatrix:
    """The unique representative of g*B- (columns swept right to left)."""
    return _column_sweep(g, False, False)[0]


# -- membership patterns ------------------------------------------------------

def _juminus_positions(pin: PinnedGroup, J: ParabolicContext) -> set:
    """Matrix positions allowed in ^J U^-: J-internal above the diagonal,
    block-crossing below."""
    n = pin.n
    out = set()
    for i in range(n):
        for k in range(n):
            if i == k:
                continue
            lo, hi = min(i, k), max(i, k)
            inside = all(node in J.J for node in range(lo, hi))
            if (i < k and inside) or (i > k and not inside):
                out.add((i, k))
    return out


def in_juminus(pin: PinnedGroup, m: RatMatrix, J: ParabolicContext) -> bool:
    allowed = _juminus_positions(pin, J)  # never on the diagonal, which must be 1
    return all(x == (i == k) or (i, k) in allowed
               for i, row in enumerate(m.rows) for k, x in enumerate(row))


def _big_cell_transport(pin: PinnedGroup, g: RatMatrix, r: WeylElement,
                        J: ParabolicContext) -> tuple:
    """(p, p^{-1}, L): p = r-dot w-dot_{J,0} and L the LDU lower factor of
    p^{-1} g w-dot_{J,0}, which fails when g is outside the big cell at r."""
    wj0 = pin.lift(J.longest())
    p = pin.lift(r) * wj0
    p_inv = p.transpose()  # a signed permutation matrix
    return p, p_inv, left_factor(p_inv * g * wj0, True)[0]


def big_cell_test(pin: PinnedGroup, g: RatMatrix, r: WeylElement,
                  J: ParabolicContext) -> bool:
    """Does the flag of g lie in r-dot ^JU^- ^JB^+ / ^JB^+ ?

    Transported through w_{J,0} this is LU-decomposability without pivoting
    (all leading principal minors nonzero) of (r-dot w-dot_{J,0})^{-1} g w-dot_{J,0}.
    """
    try:
        _big_cell_transport(pin, g, r, J)
    except DecompositionFails:
        return False
    return True


def tnn_test(pin: PinnedGroup, g: RatMatrix) -> bool:
    """All minors nonnegative, exhaustively over equal-size subsets."""
    from itertools import combinations
    if pin.n > 5:
        raise ValueError("tnn_test budget: n <= 5")
    if g.n != pin.n:
        raise ValueError(f"a {g.n} x {g.n} matrix is not in SL_{pin.n}")
    n = pin.n
    for k in range(1, n + 1):
        subsets = list(combinations(range(n), k))
        for rows in subsets:
            for cols in subsets:
                if g.minor(rows, cols) < 0:
                    return False
    return True


# -- samplers -----------------------------------------------------------------

class CellSample:
    """A sampled point: exact matrix, the stratum datum, and its parameters."""

    def __init__(self, matrix: RatMatrix, index: tuple, params: tuple):
        self.matrix = matrix
        self.index = index
        self.params = tuple(params)
        if any(p <= 0 for p in self.params):
            raise ValueError("cell parameters must be positive")

    def to_json(self) -> dict:
        kind = self.index[0]
        datum = [list(el.canonical_word()) if isinstance(el, WeylElement) else el
                 for el in self.index[1:]]
        return {"kind": kind, "index": datum,
                "params": [_frac_str(p) for p in self.params],
                "matrix": matrix_to_json(self.matrix)}


def sample_mr(pin: PinnedGroup, kind: str, v: WeylElement, word_w: Sequence[int],
              params: Sequence, check: bool = True) -> CellSample:
    """Marsh-Rietsch product: lifts at the positive subexpression's letters,
    one-parameter subgroup elements at the skips.

    kind "negative" uses y at skips; with check, a flag outside the
    Richardson stratum (v, eval(word_w)) raises StratumMismatch.
    """
    if kind not in ("negative", "positive"):
        raise ValueError("kind must be 'negative' or 'positive'")
    word_w = tuple(word_w)
    marks = mr_positive_subexpression(v, word_w)
    skips = sum(1 for m in marks if m is None)
    params = tuple(params)
    if len(params) != skips:
        raise ValueError(f"expected {skips} parameters, got {len(params)}")
    if any(p <= 0 for p in params):
        raise ValueError("parameters must be positive")
    gen = pin.y if kind == "negative" else pin.x
    out = RatMatrix.identity(pin.n)
    it = iter(params)
    for letter, mark in zip(word_w, marks):
        out = out * (pin.lift_simple(letter) if mark is not None else gen(letter, next(it)))
    if check and kind == "negative":
        w = pin.weyl.from_word(word_w)
        if richardson_stratum(pin, out) != (v, w):
            raise StratumMismatch("negative Marsh-Rietsch sample missed its stratum")
    return CellSample(out, (kind, v, word_w), params)


def sample_twisted_cell(pin: PinnedGroup, v: WeylElement, w: WeylElement,
                        J: ParabolicContext, params: Sequence,
                        check: bool = True) -> CellSample:
    """A point of the twisted cell for (v, w): the product of a negative
    Marsh-Rietsch factor for (v^J c, w^J) and a positive one for
    (w_J, c^{-1} v_J), c the minimal witness."""
    g = pin.weyl
    c = minimal_c(v, w, J)  # raises NotComparable when v <=J w fails
    v_rep, v_part = J.decompose(v)
    w_rep, w_part = J.decompose(w)
    params = tuple(params)
    dim = j_length(w, J) - j_length(v, J)
    if len(params) != dim:
        raise ValueError(f"expected {dim} parameters, got {len(params)}")
    word1 = g.canonical_word(w_rep)
    target1 = v_rep * c
    skips1 = len(word1) - g.length(target1)
    word2 = g.canonical_word(c.inverse()) + g.canonical_word(v_part)
    if g.length(g.from_word(word2)) != len(word2):
        raise NonReducedWord("c^-1 * v_J is not length-additive")
    s1 = sample_mr(pin, "negative", target1, word1, params[:skips1], check=False)
    s2 = sample_mr(pin, "positive", w_part, word2, params[skips1:], check=False)
    matrix = s1.matrix * s2.matrix
    if check and twisted_stratum(pin, matrix, J) != (v, w):
        raise StratumMismatch("twisted sample missed its stratum")
    return CellSample(matrix, ("twisted", v, w, tuple(sorted(J.J)), c), params)


def sigma_factorize(pin: PinnedGroup, g: RatMatrix, r: WeylElement,
                    J: ParabolicContext) -> tuple:
    """Both unipotent splittings of g in r-dot ^JU^- r-dot^{-1}.

    Returns (g2, h2) with g = g1*g2 = h1*h2, g1/h2 lower-unitriangular
    and g2/h1 upper-unitriangular; both right factors are checked against
    the conjugated root support.
    """
    rdot = pin.lift(r)
    if not in_juminus(pin, rdot.transpose() * g * rdot, J):
        raise PatternViolation("input is not in the conjugated ^JU^- domain")
    gt = g.transpose()  # the right factors are left factors of g^T, transposed back
    g2 = unipotent_left_factor(gt, True).transpose()
    h2 = unipotent_left_factor(gt, False).transpose()
    perm = pin.perm_of_weyl(r)
    allowed = {(perm[a], perm[b]) for (a, b) in _juminus_positions(pin, J)}
    for mat, upper in ((g2, True), (h2, False)):
        for i in range(pin.n):
            for k in range(pin.n):
                if i == k:
                    continue
                if mat.rows[i][k] != 0:
                    if (i, k) not in allowed or (i < k) != upper:
                        raise PatternViolation("factor support leaves the root pattern")
    return g2, h2


def _lower_unitriangular_inverse(h: RatMatrix) -> RatMatrix:
    """h^{-1} by forward substitution; PatternViolation unless h is
    lower-unitriangular."""
    n = h.n
    if any(h.rows[i][k] != (i == k) for i in range(n) for k in range(i, n)):
        raise PatternViolation("UL right factor is not lower-unitriangular")
    inv = [[int(i == k) for k in range(n)] for i in range(n)]
    for i in range(n):
        for k in range(i):
            inv[i][k] = -sum(h.rows[i][t] * inv[t][k] for t in range(k, i))
    return RatMatrix(inv)


def sigma_recompose(g2: RatMatrix, h2: RatMatrix) -> RatMatrix:
    """The unique g = h1 h2 with LU right factor g2 and UL right factor h2:
    h1 is the U factor of the unique unipotent LU of g2 h2^{-1} = g1^{-1} h1."""
    x = g2 * _lower_unitriangular_inverse(h2)
    return unipotent_left_factor(x.transpose(), True).transpose() * h2


def sigma_domain_representative(pin: PinnedGroup, m: RatMatrix, r: WeylElement,
                                J: ParabolicContext) -> RatMatrix:
    """The g in r-dot ^JU^- r-dot^{-1} whose flag equals the flag of m.

    Requires the flag of m to lie in the big cell at r (DecompositionFails
    otherwise): write m = r-dot * u * b with u in ^JU^- and b in ^JB^+ by
    transporting through w_{J,0} and splitting off the lower-unipotent
    part L, then conjugate back: g = p L p^{-1} with p = r-dot w-dot_{J,0}.
    """
    p, p_inv, L = _big_cell_transport(pin, m, r, J)
    return p * L * p_inv


# -- seeded parameter generation ----------------------------------------------

class ParamSampler:
    """Deterministic positive rationals with small numerator and denominator.

    Child samplers are derived from a stable key so batteries stay
    deterministic regardless of iteration order.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._rng = Random(self.seed)

    def child(self, *key) -> "ParamSampler":
        h = zlib.crc32(repr(key).encode("utf8"))
        return ParamSampler(self.seed ^ h)

    def integer(self, lo: int = 1, hi: int = 10) -> int:
        return self._rng.randint(lo, hi)

    def fraction(self, hi: int = 10) -> Fraction:
        return Fraction(self._rng.randint(1, hi), self._rng.randint(1, hi))

    def integers(self, count: int, lo: int = 1, hi: int = 10) -> tuple:
        return tuple(self._rng.randint(lo, hi) for _ in range(count))
