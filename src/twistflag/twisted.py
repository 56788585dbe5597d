"""The J-twisted combinatorics on a Weyl group.

For a subset J of nodes with parabolic decomposition w = w^J * w_J:

* J-length:  lJ(w) = l(w^J) - l(w_J), which can be negative;
* J-Bruhat order:  v <=J w  iff some u in W_J has v^J u <= w^J and
  w_J <= u^{-1} v_J;
* the witness u has a unique Bruhat-minimal choice c, with
  l(c w_J) = l(w_J) - l(c) and l(c^{-1} v_J) = l(c) + l(v_J).

The witness search is made decidable (also for infinite W_J) by the
bound l(u) <= l(w^J) + l(v^J): any witness satisfies
l(u) <= l(v^J u) + l(v^J) <= l(w^J) + l(v^J).
"""

from __future__ import annotations

from .errors import AmbiguousMinimum, IncomparablePair, NotComparable, NotLeq
from .posets import FinitePoset, graded_poset
from .weyl import ParabolicContext, WeylElement, Word


def j_length(w: WeylElement, J: ParabolicContext) -> int:
    rep, part = J.decompose(w)
    return rep.length() - part.length()


def _witnesses(v: WeylElement, w: WeylElement, J: ParabolicContext):
    """The u in W_J with v^J u <= w^J and w_J <= u^{-1} v_J, in enumeration order."""
    g = J.group
    vj_rep, vj = J.decompose(v)
    wj_rep, wj = J.decompose(w)
    if not g.bruhat_leq(vj_rep, wj_rep):
        return  # no witness: v^J u <= w^J forces v^J <= w^J
    bound = wj_rep.length() + vj_rep.length()
    for u in J.elements(max_length=bound):
        if g.bruhat_leq(vj_rep * u, wj_rep) and g.bruhat_leq(wj, u.inverse() * vj):
            yield u


def j_leq(v: WeylElement, w: WeylElement, J: ParabolicContext) -> bool:
    """The twisted order v <=J w, decided by bounded witness search."""
    key = (v, w)
    got = J._jleq_cache.get(key)
    if got is not None:
        return got
    out = any(True for _ in _witnesses(v, w, J))
    J._jleq_cache[key] = out
    return out


def minimal_c(v: WeylElement, w: WeylElement, J: ParabolicContext) -> WeylElement:
    """The unique Bruhat-minimal witness c for v <=J w."""
    g = J.group
    key = (v, w)
    got = J._minc_cache.get(key)
    if got is not None:
        return got
    cands = list(_witnesses(v, w, J))
    if not cands:
        raise NotComparable("v <=J w fails; no witness exists")
    c = min(cands, key=g.length)
    for u in cands:
        if not g.bruhat_leq(c, u):
            raise AmbiguousMinimum("witness set has no unique Bruhat minimum")
    _, vj = J.decompose(v)
    _, wj = J.decompose(w)
    if (c * wj).length() != wj.length() - c.length():
        raise AmbiguousMinimum("minimal witness fails l(c w_J) = l(w_J) - l(c)")
    if (c.inverse() * vj).length() != c.length() + vj.length():
        raise AmbiguousMinimum("minimal witness fails l(c^-1 v_J) = l(c) + l(v_J)")
    J._minc_cache[key] = c
    return c


def demazure_min(w: WeylElement, v: WeylElement) -> WeylElement:
    """Left downward Demazure product: the Bruhat-minimal element of {w'v : w' <= w}.

    Computed by folding the canonical word of w right-to-left with
    x -> min(x, s_i x); tests validate the fold against brute force.
    """
    g = w.group
    x = v
    for i in reversed(g.canonical_word(w)):
        sx = g.simple(i) * x
        if sx.length() < x.length():
            x = sx
    return x


def demazure_max_inverse(w: WeylElement, u: WeylElement) -> WeylElement:
    """The Bruhat-maximal element of {(w')^{-1} u' : w' <= w, u' <= u}.

    Dual fold (x -> max(x, x s_i)) over the words of w^{-1} and then u.
    """
    g = w.group
    x = g.identity
    for i in g.canonical_word(w.inverse()) + g.canonical_word(u):
        xs = x * g.simple(i)
        if xs.length() > x.length():
            x = xs
    return x


def circ_lJ(i: int, w: WeylElement, J: ParabolicContext) -> WeylElement:
    """s_i o_l^J w: the <=J-smaller of {w, s_i w}."""
    g = J.group
    sw = g.simple(i) * w
    down = j_leq(sw, w, J)
    up = j_leq(w, sw, J)
    if down == up:
        raise IncomparablePair(f"s_{i}*w and w are not strictly comparable in <=J")
    return sw if down else w


class TwistedIntervalPoset:
    """An interval [bottom, top] of (W, <=J), graded by J-length.

    The FinitePoset is built once, by ``j_interval``; ``elements`` are in
    its order and ``covers`` are its cover pairs as elements.
    """

    def __init__(self, bottom: WeylElement, top: WeylElement, J: ParabolicContext,
                 poset: FinitePoset, elements: list, jlengths: dict):
        self.bottom = bottom
        self.top = top
        self.J = J
        self.elements = elements
        self.covers = {(elements[a], elements[b]) for a, b in poset.covers}
        self.jlengths = jlengths
        self._poset = poset

    def rank_of(self, el: WeylElement) -> int:
        return self.jlengths[el] - self.jlengths[self.bottom]

    def to_finite_poset(self) -> FinitePoset:
        """The interval as a FinitePoset keyed by canonical words."""
        return self._poset


def j_interval(x: WeylElement, y: WeylElement, J: ParabolicContext) -> TwistedIntervalPoset:
    """All z with x <=J z <=J y, with covers read off the J-length grading.

    The candidate set is finite: z = z^J z_J with l(z^J) <= l(y^J) and
    l(z_J) <= l(z^J) + l(x^J) + l(x_J), both bounds following from the
    witness-length bound of j_leq.
    """
    g = J.group
    if not j_leq(x, y, J):
        raise NotComparable("x <=J y fails")
    yj_rep, _ = J.decompose(y)
    xj_rep, xj = J.decompose(x)
    rep_bound = yj_rep.length()
    reps = J._reps_cache.get(rep_bound)
    if reps is None:
        reps = [z for z in g.ball(rep_bound) if J.in_min_coset_reps(z)]
        J._reps_cache[rep_bound] = reps
    part_bound_base = xj_rep.length() + xj.length()
    elements = []
    for rep in reps:
        for part in J.elements(max_length=rep.length() + part_bound_base):
            z = rep * part
            if j_leq(x, z, J) and j_leq(z, y, J):
                elements.append(z)
    jl = {z: j_length(z, J) for z in elements}
    # Cover = comparable with J-length difference one; valid because every
    # interval of (W, <=J) is graded.
    fp, elements = graded_poset(elements, WeylElement.canonical_word, jl.__getitem__,
                                lambda a, b: j_leq(a, b, J))
    return TwistedIntervalPoset(x, y, J, fp, elements, jl)


def mr_positive_subexpression(v: WeylElement, word_w: Word) -> tuple:
    """The unique positive subexpression for v inside a reduced word.

    Returned as a tuple over {node index, None}, None marking a skipped
    letter.  Greedy right-to-left: use the letter exactly when it
    shortens the running element.  The defining positivity condition
    (every prefix product grows when multiplied by the word's letter) is
    re-checked afterwards.
    """
    g = v.group
    word_w = tuple(word_w)
    w = g.from_word(word_w)
    if g.length(w) != len(word_w):
        raise NotLeq("word_w is not reduced")
    if not g.bruhat_leq(v, w):
        raise NotLeq("v is not below the word's value in Bruhat order")
    cur = v
    marks: list = [None] * len(word_w)
    for k in range(len(word_w) - 1, -1, -1):
        s = g.simple(word_w[k])
        if (cur * s).length() < cur.length():
            marks[k] = word_w[k]
            cur = cur * s
    if not cur.is_identity():
        raise NotLeq("greedy scan did not terminate at the identity")
    prefix = g.identity
    for k, letter in enumerate(word_w):
        grown = prefix * g.simple(letter)
        if not grown.length() > prefix.length():
            raise NotLeq("subexpression fails the positivity condition")
        if marks[k] is not None:
            prefix = grown
    return tuple(marks)
