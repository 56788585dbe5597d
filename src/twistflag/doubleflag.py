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
from .posets import (RIGHT, EdgeLabel, FinitePoset, LabeledPoset, ReflectionOrder,
                     ZERO_HAT, graded_poset, reflection_order_covering,
                     two_sided_labels)
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
    return graded_poset(triples_below(top), TripleIndex.key, TripleIndex.rank, q_leq,
                        zero_hat=True)[0]


def q_el_label(interval: FinitePoset, tc: ThickenedCartan,
               order: Optional[ReflectionOrder] = None) -> LabeledPoset:
    """Edge labels of a Q-hat interval, pulled back through the embedding.

    Each triple is the interval [u, th(w, v)] of the thickened group, so
    a cover moving u gives (u'-embedded reflection, l) and a cover moving
    w or v moves the top endpoint th(w, v) and gives (t, r); the cover out
    of 0-hat takes the first label of the increasing chain of the
    embedded interval, which for a rank-one triple is
    (th(w, v) u^{-1}, r).

    When no order is supplied, one is built for exactly the reflections
    appearing, with the finite-part reflections first.
    """
    g = tc.base_group
    ends = []  # per element: (embedded u, th(w, v)), or None for 0-hat
    for key in interval.elements:
        if key == ZERO_HAT:
            ends.append(None)
        else:
            w, v, u = (g.from_word(wd) for wd in key)
            ends.append((tc.embed(u), tc.th(w, v)))

    def from_zero(end):
        u, top = end
        t = top * u.inverse()
        if not (t * t).is_identity():
            raise AmbiguousMinimum("0-hat cover does not yield a reflection")
        return EdgeLabel(RIGHT, t)

    labels = two_sided_labels(interval, ends, from_zero)
    if order is None:
        order = reflection_order_covering(tc.ext_group,
                                          [lab.reflection for lab in labels.values()],
                                          first_nodes=range(tc.base.size))
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
    return {t.key() for t in triples_below(TripleIndex(w, v, u))}


def _link_poset(w: WeylElement, u: WeylElement, with_top: bool) -> FinitePoset:
    """The pairs (w', u') <= (w, u) other than (e, e), less (w, u) itself
    unless ``with_top``, ranked by l(w') + l(u') - 1."""
    g = w.group
    if w.is_identity() and u.is_identity():
        raise ValueError("the pair (e, e) has no link")
    w_down = [x for x in g.ball(w.length()) if g.bruhat_leq(x, w)]
    u_down = [x for x in g.ball(u.length()) if g.bruhat_leq(x, u)]
    pairs = [(a, b) for a in w_down for b in u_down
             if not (a.is_identity() and b.is_identity())
             and (with_top or a is not w or b is not u)]
    return graded_poset(pairs, lambda p: (p[0].canonical_word(), p[1].canonical_word()),
                        lambda p: p[0].length() + p[1].length() - 1,
                        lambda p, q: g.bruhat_leq(p[0], q[0]) and g.bruhat_leq(p[1], q[1]))[0]


def link_face_poset(w: WeylElement, u: WeylElement) -> FinitePoset:
    """Face poset {(w', u') <= (w, u), != (e, e)} of the link of identity,
    ranked by l(w') + l(u') - 1."""
    return _link_poset(w, u, True)


def link_boundary_poset(w: WeylElement, u: WeylElement) -> FinitePoset:
    """The proper part {(w', u') < (w, u)} used for the sphere certificate."""
    return _link_poset(w, u, False)


def triple_to_json(t: TripleIndex) -> dict:
    return {"w": list(t.w.canonical_word()), "v": list(t.v.canonical_word()),
            "u": list(t.u.canonical_word())}


def triple_from_json(group: WeylGroup, data: dict) -> TripleIndex:
    return TripleIndex(group.from_word(data["w"]), group.from_word(data["v"]),
                       group.from_word(data["u"]))
