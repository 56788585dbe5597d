"""Double flag combinatorics through the thickened group.

The base Cartan matrix on nodes I is extended by one node "infinity"
attached to every other node with entries -2.  A pair (w, v) of base
elements embeds as th(w, v) = w s_inf v, and the triple poset

    Q = {(w, v, u) : w o_l v <= u},   (w',v',u') <= (w,v,u) iff
                                       w' <= w, v <= v', u' <= u

embeds into the interval poset of the I-twisted order on the thickened
Weyl group via (w, v, u) -> [u, w s_inf v].  That embedding is what both
the rank convention and the edge labeling of the augmented poset Q-hat
are pulled back through.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .cartan import CartanMatrix
from .cells import PinnedGroup, sample_mr
from .errors import AmbiguousMinimum, NonReducedWord, NotMember, StratumMismatch
from .posets import (LEFT, RIGHT, EdgeLabel, FinitePoset, LabeledPoset,
                     ReflectionOrder, ZERO_HAT, reflection_order_covering)
from .twisted import demazure_min
from .weyl import ParabolicContext, WeylElement, WeylGroup, weyl_group


class ThickenedCartan:
    """The base matrix plus the node at infinity (all new entries -2)."""

    def __init__(self, base: CartanMatrix):
        n = base.size
        rows = [list(r) + [-2] for r in base.entries]
        rows.append([-2] * n + [2])
        self.base = base
        self.extended = CartanMatrix(rows, labels=list(base.labels) + ["inf"])
        self.inf = n
        self.base_group = weyl_group(base)
        self.ext_group = weyl_group(self.extended)
        self.I = ParabolicContext(self.ext_group, range(n))

    def embed(self, w: WeylElement) -> WeylElement:
        """The identification of the base group with the parabolic on I."""
        if w.group is not self.base_group:
            raise ValueError("element does not live in the base group")
        return self.ext_group.from_word(self.base_group.canonical_word(w))

    def th(self, w: WeylElement, v: WeylElement) -> WeylElement:
        """th(w, v) = w s_inf v in the thickened group; length l(w)+l(v)+1."""
        out = self.embed(w) * self.ext_group.simple(self.inf) * self.embed(v)
        if self.ext_group.length(out) != w.length() + v.length() + 1:
            raise NonReducedWord("w s_inf v is not length-additive")
        return out


def extend_cartan(base: CartanMatrix) -> ThickenedCartan:
    return ThickenedCartan(base)


def th_map(w: WeylElement, v: WeylElement, tc: ThickenedCartan) -> WeylElement:
    return tc.th(w, v)


def q_member(w: WeylElement, v: WeylElement, u: WeylElement) -> bool:
    """Nonemptiness of the (w, v, u) stratum: w o_l v <= u."""
    return w.group.bruhat_leq(demazure_min(w, v), u)


class TripleIndex:
    __slots__ = ("w", "v", "u")

    def __init__(self, w: WeylElement, v: WeylElement, u: WeylElement):
        if not q_member(w, v, u):
            raise NotMember("triple fails w o_l v <= u")
        self.w, self.v, self.u = w, v, u

    def rank(self) -> int:
        return self.w.length() + self.u.length() - self.v.length() + 1

    def key(self) -> tuple:
        return (tuple(self.w.canonical_word()), tuple(self.v.canonical_word()),
                tuple(self.u.canonical_word()))

    def __eq__(self, other):
        return (isinstance(other, TripleIndex) and self.w == other.w
                and self.v == other.v and self.u == other.u)

    def __hash__(self):
        return hash((self.w, self.v, self.u))

    def __repr__(self):
        return f"Triple(w={self.w!r}, v={self.v!r}, u={self.u!r})"


def q_leq(a: TripleIndex, b: TripleIndex) -> bool:
    """Componentwise Bruhat order with the middle coordinate reversed."""
    g = a.w.group
    return (g.bruhat_leq(a.w, b.w) and g.bruhat_leq(b.v, a.v)
            and g.bruhat_leq(a.u, b.u))


def triples_below(top: TripleIndex) -> list:
    """All members of Q below the given triple.

    The middle coordinate is bounded by l(v') <= l(w') + l(u') because
    the Demazure minimum of (w', v') has length at least l(v') - l(w').
    """
    g = top.w.group
    w_down = [x for x in g.ball(top.w.length()) if g.bruhat_leq(x, top.w)]
    u_down = [x for x in g.ball(top.u.length()) if g.bruhat_leq(x, top.u)]
    bound = top.w.length() + top.u.length()
    v_up = [x for x in g.ball(bound) if g.bruhat_leq(top.v, x)]
    out = []
    for w in w_down:
        for u in u_down:
            for v in v_up:
                if v.length() > w.length() + u.length():
                    continue
                if q_member(w, v, u):
                    out.append(TripleIndex(w, v, u))
    return out


def q_interval_hat(top: TripleIndex) -> FinitePoset:
    """The interval [0-hat, top] in Q-hat; rank l(w)+l(u)-l(v)+1, 0-hat at 0."""
    members = [t for t in triples_below(top) if q_leq(t, top)]
    members.sort(key=lambda t: (t.rank(), t.key()))
    keys = [ZERO_HAT] + [t.key() for t in members]
    ranks = [0] + [t.rank() for t in members]
    covers = {(0, i) for i, r in enumerate(ranks) if r == 1}
    for i, a in enumerate(members, 1):
        for j, b in enumerate(members, 1):
            if ranks[j] - ranks[i] == 1 and q_leq(a, b):
                covers.add((i, j))
    return FinitePoset(keys, covers, ranks)


def _decode_triple(group: WeylGroup, key) -> Optional[tuple]:
    if key == ZERO_HAT:
        return None
    return tuple(group.from_word(wd) for wd in key)


def q_el_label(interval: FinitePoset, tc: ThickenedCartan,
               order: Optional[ReflectionOrder] = None) -> LabeledPoset:
    """Edge labels of a Q-hat interval, pulled back through the embedding.

    A cover moving u gives (u'-embedded reflection, l); a cover moving w
    or v moves the top endpoint th(w, v) and gives (t, r); the cover out
    of 0-hat takes the first label of the increasing chain of the
    embedded interval, which for a rank-one triple is
    (th(w, v) u^{-1}, r).

    When no order is supplied, one is built for exactly the reflections
    appearing, with the finite-part reflections first.
    """
    g = tc.base_group
    ext = tc.ext_group
    ends = []  # per element: (th(w, v), embedded u), or None for 0-hat
    for key in interval.elements:
        triple = _decode_triple(g, key)
        if triple is None:
            ends.append(None)
        else:
            w, v, u = triple
            ends.append((tc.th(w, v), tc.embed(u)))
    raw = {}
    for (i, j) in interval.covers:
        top2, u2 = ends[j]
        if ends[i] is None:
            t = top2 * u2.inverse()
            if not (t * t).is_identity():
                raise AmbiguousMinimum("0-hat cover does not yield a reflection")
            raw[(i, j)] = (RIGHT, t)
            continue
        top1, u1 = ends[i]
        if u1 is u2:
            raw[(i, j)] = (RIGHT, top2 * top1.inverse())
        else:
            # a rank-one step moves only one endpoint of the embedded interval
            if top1 is not top2:
                raise ValueError("cover moves both endpoints")
            raw[(i, j)] = (LEFT, u1 * u2.inverse())
    if order is None:
        needed = [t for (_, t) in raw.values()]
        order = reflection_order_covering(ext, needed, first_nodes=range(tc.base.size))
    labels = {cover: EdgeLabel(tag, t) for cover, (tag, t) in raw.items()}
    return LabeledPoset(interval, labels, order)


def z_sample(pin: PinnedGroup, w: WeylElement, v: WeylElement, u: WeylElement,
             params: Sequence, check: bool = True) -> tuple:
    """A totally positive point of the double-flag stratum for (w, v, u).

    c is the Bruhat-minimal element with c <= w and v <= c^{-1} u; the
    point is (g1, g2) with g1 a negative Marsh-Rietsch sample for (c, w)
    and g2 a positive one for (v, c^{-1} u).  The three stratum checks
    (g1 in B+ w B+, g2 in B+ v B-, g1 g2 in B- u B-) raise StratumMismatch.
    """
    from .cells import bruhat_stratum, double_minus_stratum, mixed_stratum
    g = w.group
    if not q_member(w, v, u):
        raise NotMember("triple fails w o_l v <= u")
    cands = [c for c in g.ball(w.length())
             if g.bruhat_leq(c, w) and g.bruhat_leq(v, c.inverse() * u)]
    c = min(cands, key=g.length)
    for other in cands:
        if not g.bruhat_leq(c, other):
            raise AmbiguousMinimum("no unique minimal c for the Z stratum")
    cu = c.inverse() * u
    if cu.length() != c.length() + u.length():
        raise AmbiguousMinimum("minimal c fails l(c^-1 u) = l(c) + l(u)")
    dim = w.length() + u.length() - v.length()
    params = tuple(params)
    if len(params) != dim:
        raise ValueError(f"expected {dim} parameters, got {len(params)}")
    k1 = w.length() - c.length()
    s1 = sample_mr(pin, "negative", c, g.canonical_word(w), params[:k1], check=False)
    s2 = sample_mr(pin, "positive", v, g.canonical_word(cu), params[k1:], check=False)
    g1, g2 = s1.matrix, s2.matrix
    if check:
        if bruhat_stratum(pin, g1) != w:
            raise StratumMismatch("g1 missed B+ w B+")
        if mixed_stratum(pin, g2) != v:
            raise StratumMismatch("g2 missed B+ v B-")
        if double_minus_stratum(pin, g1 * g2) != u:
            raise StratumMismatch("g1 g2 missed B- u B-")
    return g1, g2


def z_closure_indices(w: WeylElement, v: WeylElement, u: WeylElement) -> set:
    """Combinatorial closure of the (w, v, u) stratum: the q_leq-down-set."""
    top = TripleIndex(w, v, u)
    return {t.key() for t in triples_below(top) if q_leq(t, top)}


def link_face_poset(w: WeylElement, u: WeylElement,
                    bounded: bool = False) -> FinitePoset:
    """Face poset {(w', u') <= (w, u), != (e, e)} of the link of identity,
    ranked by l(w') + l(u') - 1; optionally with extra bottom and top."""
    g = w.group
    if w.is_identity() and u.is_identity():
        raise ValueError("the pair (e, e) has no link")
    w_down = [x for x in g.ball(w.length()) if g.bruhat_leq(x, w)]
    u_down = [x for x in g.ball(u.length()) if g.bruhat_leq(x, u)]
    pairs = [(a, b) for a in w_down for b in u_down
             if not (a.is_identity() and b.is_identity())]
    pairs.sort(key=lambda p: (p[0].length() + p[1].length(),
                              p[0].canonical_word(), p[1].canonical_word()))
    keys = [(tuple(a.canonical_word()), tuple(b.canonical_word())) for a, b in pairs]
    ranks = [a.length() + b.length() - 1 for a, b in pairs]
    leq = {}
    for i, (a1, b1) in enumerate(pairs):
        for j, (a2, b2) in enumerate(pairs):
            leq[(i, j)] = g.bruhat_leq(a1, a2) and g.bruhat_leq(b1, b2)
    covers = {(i, j) for (i, j), ok in leq.items()
              if ok and ranks[j] - ranks[i] == 1}
    if bounded:
        n = len(keys)
        keys = keys + [("^bot",), ("^top",)]
        ranks = ranks + [min(ranks) - 1, max(ranks) + 1]
        covers |= {(n, i) for i in range(n) if ranks[i] == ranks[n] + 1}
        covers |= {(i, n + 1) for i in range(n) if ranks[i] == ranks[n + 1] - 1}
        base = min(ranks)
        ranks = [r - base for r in ranks]
        return FinitePoset(keys, covers, ranks)
    return FinitePoset(keys, covers, ranks)


def link_boundary_poset(w: WeylElement, u: WeylElement) -> FinitePoset:
    """The proper part {(w', u') < (w, u)} used for the sphere certificate."""
    fp = link_face_poset(w, u)
    top_key = (tuple(w.canonical_word()), tuple(u.canonical_word()))
    keep = [i for i, k in enumerate(fp.elements) if k != top_key]
    renum = {v: k for k, v in enumerate(keep)}
    covers = {(renum[a], renum[b]) for a, b in fp.covers
              if a in renum and b in renum}
    return FinitePoset([fp.elements[i] for i in keep], covers,
                       [fp.rank[i] for i in keep])


def triple_to_json(t: TripleIndex) -> dict:
    return {"w": list(t.w.canonical_word()), "v": list(t.v.canonical_word()),
            "u": list(t.u.canonical_word())}


def triple_from_json(group: WeylGroup, data: dict) -> TripleIndex:
    return TripleIndex(group.from_word(data["w"]), group.from_word(data["v"]),
                       group.from_word(data["u"]))
