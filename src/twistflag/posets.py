"""Finite posets, purity and thinness checks, reflection orders,
EL-labelings, and order complexes.

The EL machinery certifies instances: ``verify_el`` checks, by a dynamic
program over the cover graph, that every subinterval has a unique
increasing maximal chain which is also lexicographically minimal, so a
passing verdict stands on its own and does not lean on the general
shellability theorems.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import MissingReflection, NonReducedWord
from .weyl import WeylElement, WeylGroup

ZERO_HAT = ("^0",)


class FinitePoset:
    """Elements (opaque hashable keys), cover pairs by index, optional rank."""

    def __init__(self, elements: Sequence, covers: Iterable, rank: Optional[Sequence[int]] = None):
        self.elements = list(elements)
        n = len(self.elements)
        self.covers = {(int(a), int(b)) for a, b in covers}
        for a, b in self.covers:
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError("cover indices out of range")
        self.rank = list(rank) if rank is not None else None
        if self.rank is not None:
            for a, b in self.covers:
                if self.rank[b] - self.rank[a] != 1:
                    raise ValueError(f"cover {a}->{b} does not raise rank by 1")
        self.up = [[] for _ in range(n)]
        self.down = [[] for _ in range(n)]
        for a, b in sorted(self.covers):
            self.up[a].append(b)
            self.down[b].append(a)
        self._leq = self._close()
        self._purity = None  # check_pure's (verdict, witness), once computed

    def _close(self):
        n = len(self.elements)
        leq = [set() for _ in range(n)]
        order = self._topo()
        for a in reversed(order):
            s = {a}
            for b in self.up[a]:
                s |= leq[b]
            leq[a] = s
        return leq

    def _topo(self):
        n = len(self.elements)
        indeg = [len(self.down[i]) for i in range(n)]
        stack = [i for i in range(n) if indeg[i] == 0]
        out = []
        while stack:
            i = stack.pop()
            out.append(i)
            for j in self.up[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    stack.append(j)
        if len(out) != n:
            raise ValueError("cover relation contains a cycle")
        return out

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, a: int, b: int) -> bool:
        return b in self._leq[a]

    def minimal_elements(self) -> list:
        return [i for i in range(len(self.elements)) if not self.down[i]]

    def maximal_elements(self) -> list:
        return [i for i in range(len(self.elements)) if not self.up[i]]

    def interval(self, a: int, b: int) -> list:
        return [z for z in self._leq[a] if self.leq(z, b)]

    def maximal_chains_down(self, top: int, bottom: int) -> list:
        """All maximal chains from top down to bottom, as index tuples."""
        if not self.leq(bottom, top):
            return []
        out = []
        stack = [(top, (top,))]
        while stack:
            cur, path = stack.pop()
            if cur == bottom:
                out.append(path)
                continue
            for nxt in self.down[cur]:
                if self.leq(bottom, nxt):
                    stack.append((nxt, path + (nxt,)))
        return out


def check_pure(p: FinitePoset):
    """True iff all maximal chains between comparable pairs have equal length.

    Returns (verdict, witness); the witness on failure is a pair of
    maximal chains of different lengths for the same pair.  Computed once
    per poset; later calls (check_thin's among them) read the stored result.
    """
    if p._purity is None:
        p._purity = _purity(p)
    return p._purity


def _purity(p: FinitePoset):
    n = len(p.elements)
    shortest: dict = {}
    longest: dict = {}

    def chain_bounds(a, b):
        key = (a, b)
        if key in shortest:
            return shortest[key], longest[key]
        if a == b:
            shortest[key] = longest[key] = 0
            return 0, 0
        lo, hi = None, None
        for c in p.up[a]:
            if p.leq(c, b):
                clo, chi = chain_bounds(c, b)
                lo = clo + 1 if lo is None else min(lo, clo + 1)
                hi = chi + 1 if hi is None else max(hi, chi + 1)
        shortest[key], longest[key] = lo, hi
        return lo, hi

    for a in range(n):
        for b in p._leq[a]:
            lo, hi = chain_bounds(a, b)
            if lo != hi:
                chains = p.maximal_chains_down(b, a)
                lens = {len(c): c for c in chains}
                two = sorted(lens.values(), key=len)
                return False, (two[0], two[-1])
    return True, None


def check_thin(p: FinitePoset):
    """Every rank-2 subinterval must have exactly 4 elements."""
    ok, _ = check_pure(p)
    if not ok:
        raise ValueError("thinness is only defined for pure posets")
    n = len(p.elements)
    for a in range(n):
        for m in p.up[a]:
            for b in p.up[m]:
                size = len(p.interval(a, b))
                if size != 4:
                    return False, (a, b, size)
    return True, None


# -- reflection orders ----------------------------------------------------

def _positive(vec: tuple) -> tuple:
    """The positive one of +-vec (roots are sign-coherent)."""
    return tuple(-x for x in vec) if any(x < 0 for x in vec) else vec


def root_of_reflection(t: WeylElement) -> tuple:
    """The positive root vector beta with t(beta) = -beta, primitive and integral.

    A reflection acts as v -> v - <v, beta^vee> beta, so every column of
    1 - t is an integer multiple of beta: the first nonzero column,
    divided by its gcd, is beta up to sign.  Anything else (a column off
    that line, or t(beta) != -beta) is not a reflection.  The root is
    stored on t once found, so a non-reflection raises on every call.
    """
    if t._root is not None:
        return t._root
    n = t.group.n
    m = t.mat
    cols = [tuple((i == j) - m[i][j] for i in range(n)) for j in range(n)]
    first = next((c for c in cols if any(c)), None)
    if first is None:
        raise ValueError("element is not a reflection")
    g = math.gcd(*first)
    beta = tuple(x // g for x in first)
    p = next(k for k, x in enumerate(beta) if x)
    if any(c[k] * beta[p] != c[p] * beta[k] for c in cols for k in range(n)):
        raise ValueError("element is not a reflection")
    if t.act(beta) != tuple(-x for x in beta):
        raise ValueError("element is not a reflection")
    if any(x < 0 for x in beta) and any(x > 0 for x in beta):
        raise ValueError("root vector is not sign-coherent")
    t._root = _positive(beta)
    return t._root


def _in_open_cone(beta, b1, b2):
    """True iff beta = x*b1 + y*b2 with rationals x, y > 0.

    With det the first nonzero 2x2 minor of (b1, b2), Cramer's rule gives
    x = xn/det and y = yn/det; everything is compared after scaling by det.
    """
    n = len(beta)
    cols = None
    for i in range(n):
        for j in range(i + 1, n):
            det = b1[i] * b2[j] - b1[j] * b2[i]
            if det != 0:
                cols = (i, j, det)
                break
        if cols:
            break
    if cols is None:
        return False  # b1, b2 parallel
    i, j, det = cols
    xn = beta[i] * b2[j] - beta[j] * b2[i]
    yn = b1[i] * beta[j] - b1[j] * beta[i]
    if xn * det <= 0 or yn * det <= 0:
        return False
    return all(xn * b1[k] + yn * b2[k] == beta[k] * det for k in range(n))


def _plane(b1: tuple, b2: tuple) -> tuple:
    """The plane of two independent roots: the wedge b1 ^ b2 (its 2x2
    minors), divided by their gcd, with the first nonzero entry positive."""
    n = len(b1)
    wedge = [b1[p] * b2[q] - b1[q] * b2[p] for p in range(n) for q in range(p + 1, n)]
    g = math.gcd(*wedge)
    if next(x for x in wedge if x) < 0:
        g = -g
    return tuple(x // g for x in wedge)


def _dihedral_walk(t1: WeylElement, t2: WeylElement, b1: tuple, b2: tuple,
                   max_count: int) -> dict:
    """Roots of the reflections of <t1,t2> in plane coordinates, breadth first.

    A root x*b1 + y*b2 is the pair (x, y); t1 and t2 act as
    t1(x, y) = (-x - a*y, y) and t2(x, y) = (x, -b*x - y), with a and b
    read off t1(b2) = b2 - a*b1 and t2(b1) = b1 - b*b2.  The reflections
    are the conjugation orbit of {t1, t2} under rot = t1*t2, and
    rot s_beta rot^-1 = s_rot(beta), so the orbit is walked on positive
    roots (the sign of x*sum(b1) + y*sum(b2) is the sign of the root).
    Each root maps to (seed, k) with seed in (t1, t2) and
    root = +-rot^k(root of seed).  The walk stops once more than
    ``max_count`` roots are known (an infinite dihedral pair never runs dry).
    """
    p = next(k for k, x in enumerate(b1) if x)
    q = next(k for k, x in enumerate(b2) if x)
    a = (b2[p] - t1.act(b2)[p]) // b1[p]
    b = (b1[q] - t2.act(b1)[q]) // b2[q]
    s1, s2 = sum(b1), sum(b2)

    def r1(x, y):
        return -x - a * y, y

    def r2(x, y):
        return x, -b * x - y

    def positive(x, y):
        return (x, y) if x * s1 + y * s2 > 0 else (-x, -y)

    seen = {(1, 0): (t1, 0), (0, 1): (t2, 0)}
    frontier = [(1, 0), (0, 1)]
    while frontier and len(seen) <= max_count:
        nxt = []
        for x, y in frontier:
            seed, k = seen[x, y]
            for img, step in ((positive(*r1(*r2(x, y))), 1), (positive(*r2(*r1(x, y))), -1)):
                if img not in seen:
                    seen[img] = (seed, k + step)
                    nxt.append(img)
        frontier = nxt
    return seen


def _dihedral_conjugate(t1: WeylElement, t2: WeylElement, seed: WeylElement,
                        k: int) -> WeylElement:
    """rot^k * seed * rot^-k with rot = t1*t2: the reflection at (seed, k)."""
    left, right = (t1 * t2, t2 * t1) if k > 0 else (t2 * t1, t1 * t2)
    out = seed
    for _ in range(abs(k)):
        out = left * out * right
    return out


class ReflectionOrder:
    """An ordered list of reflections checked against the pairwise
    dihedral condition, plane by plane (after Dyer).

    For every listed pair, the listed roots of the plane the pair spans
    must sit between the pair exactly when they lie in the open cone of
    the pair's roots.  ``initial_segment`` marks lists built as the
    inversion sequence of a single reduced word; those must also be
    convexly closed (no unlisted reflection may sit strictly between two
    listed ones in its plane); that search alone is bounded, by 2L + 4
    roots of the pair's dihedral orbit.

    The condition is pairwise, so a list that passes need not lie in any
    reflection order: in A3, ``[s1, s2, s3, s1s2s3s2s1]`` passes, although
    every reflection order with ``s1`` before ``s2`` before ``s3`` puts
    ``s1s2s3s2s1`` before ``s3``.  EL verdicts do not rest on it, because
    ``verify_el`` checks every subinterval.
    """

    def __init__(self, group: WeylGroup, reflections: Sequence[WeylElement],
                 initial_segment: bool = False, check: bool = True):
        self.group = group
        self.reflections = list(reflections)
        self.initial_segment = initial_segment
        self._pos = {}
        for k, t in enumerate(self.reflections):
            if t in self._pos:
                raise ValueError("duplicate reflection in order")
            if not (t * t).is_identity() or t.is_identity():
                raise ValueError("order entry is not a reflection")
            self._pos[t] = k
        self._roots = [t._root or root_of_reflection(t) for t in self.reflections]
        self._root_pos = {beta: k for k, beta in enumerate(self._roots)}
        if check:
            bad = self.dihedral_violation()
            if bad is not None:
                raise NonReducedWord(f"dihedral condition violated at {bad}")

    def __len__(self) -> int:
        return len(self.reflections)

    def contains(self, t: WeylElement) -> bool:
        return t in self._pos

    def position(self, t: WeylElement) -> int:
        try:
            return self._pos[t]
        except KeyError:
            raise MissingReflection(f"reflection {t!r} not covered by the order") from None

    def dihedral_violation(self):
        """First pair breaking the pairwise dihedral condition, or None.

        The listed roots are grouped once by the plane each pair spans.
        For each pair (i, j), i < j, in lexicographic order, every other
        listed root of that plane, in list order, must sit strictly
        between the pair exactly when it lies in the open cone of the
        pair's roots; nothing is truncated.  For initial segments the
        orbit of the pair's dihedral subgroup is then walked in plane
        coordinates, breadth first and up to 2L + 4 roots, and a cone
        root missing from the list is a violation too.  The returned
        triple is (t1, t2, c) with c the offending reflection.
        """
        refs, roots = self.reflections, self._roots
        L = len(refs)
        pair_plane = {}
        members: dict = {}
        for i in range(L):
            for j in range(i + 1, L):
                plane = pair_plane[i, j] = _plane(roots[i], roots[j])
                members.setdefault(plane, set()).update((i, j))
        members = {plane: sorted(ks) for plane, ks in members.items()}
        bound = 2 * L + 4
        for (i, j), plane in pair_plane.items():
            t1, t2, b1, b2 = refs[i], refs[j], roots[i], roots[j]
            for k in members[plane]:
                if k != i and k != j and (i < k < j) != _in_open_cone(roots[k], b1, b2):
                    return (t1, t2, refs[k])
            if self.initial_segment:
                # an inversion sequence is convexly closed
                for (x, y), (seed, power) in _dihedral_walk(t1, t2, b1, b2, bound).items():
                    if x > 0 and y > 0 and \
                            tuple(x * p + y * q for p, q in zip(b1, b2)) not in self._root_pos:
                        return (t1, t2, _dihedral_conjugate(t1, t2, seed, power))
        return None


def reflection_order_from_word(group: WeylGroup, word: Sequence[int]) -> ReflectionOrder:
    """Inversion-sequence order t_k = s_{i_1}..s_{i_{k-1}} s_{i_k} s_{i_{k-1}}..s_{i_1}."""
    word = tuple(word)
    if group.length(group.from_word(word)) != len(word):
        raise NonReducedWord("word is not reduced")
    prefix = group.identity
    refs = []
    for i in word:
        refs.append(prefix * group.simple(i) * prefix.inverse())
        prefix = prefix * group.simple(i)
    return ReflectionOrder(group, refs, initial_segment=True)


def reflection_order_covering(group: WeylGroup, needed: Iterable[WeylElement],
                              first_nodes: Optional[Iterable[int]] = None) -> ReflectionOrder:
    """A reflection order on a given finite set, built from slope functionals.

    Roots are sorted by the ratio <y,beta>/<x,beta> with x strictly
    positive; the mediant property makes any such order automatically
    monotone along dihedral strings.  When ``first_nodes`` is given,
    reflections supported on those nodes are forced ahead of all others
    (used for the thickened-group labeling, where the finite-part
    reflections must come first).
    """
    needed = list(dict.fromkeys(needed))
    n = group.n
    roots = {t: t._root or root_of_reflection(t) for t in needed}
    # Each key component is <y, beta>/<x, beta> with x strictly positive;
    # a lexicographic tuple of such slopes still satisfies the mediant
    # property, so betweenness along every dihedral string is automatic.
    primary = None
    if first_nodes is not None:
        outside = [k for k in range(n) if k not in set(first_nodes)]
        primary = tuple(1 if k in outside else 0 for k in range(n))
    for attempt in range(1, 50):
        y = tuple(pow(attempt + 1, k + 1, 10 ** 9 + 7) for k in range(n))
        keys = {}
        for t, beta in roots.items():
            denom = sum(beta)
            key = (Fraction(sum(y[k] * beta[k] for k in range(n)), denom),)
            if primary is not None:
                lead = Fraction(sum(primary[k] * beta[k] for k in range(n)), denom)
                key = (lead,) + key
            keys[t] = key
        if len(set(keys.values())) == len(needed):
            ordered = sorted(needed, key=lambda t: keys[t])
            return ReflectionOrder(group, ordered, initial_segment=False)
    raise MissingReflection("could not separate reflection slopes")


# -- edge labels and EL verification --------------------------------------

BOTTOM = "bottom"
LEFT = "reflection-left"
RIGHT = "reflection-right"


class EdgeLabel:
    """A label in Lambda = {(t,l), (t,r) : t a reflection} + {empty}."""

    __slots__ = ("tag", "reflection")

    def __init__(self, tag: str, reflection: Optional[WeylElement] = None):
        if tag not in (BOTTOM, LEFT, RIGHT):
            raise ValueError(f"unknown tag {tag!r}")
        if (reflection is None) != (tag == BOTTOM):
            raise ValueError("reflection present iff tag is not bottom")
        if reflection is not None:
            if reflection.is_identity() or not (reflection * reflection).is_identity():
                raise ValueError("label element is not a reflection")
        self.tag = tag
        self.reflection = reflection

    def __eq__(self, other):
        return (isinstance(other, EdgeLabel) and self.tag == other.tag
                and self.reflection == other.reflection)

    def __hash__(self):
        return hash((self.tag, self.reflection))

    def __repr__(self):
        if self.tag == BOTTOM:
            return "Label(empty)"
        side = "l" if self.tag == LEFT else "r"
        return f"Label({self.reflection!r},{side})"


class LabeledPoset:
    """A finite poset with Lambda-valued cover labels.

    The label order is (t1,r) < empty < (t2,l) for all reflections, and
    within one side labels compare through the reflection order.
    """

    def __init__(self, poset: FinitePoset, labels: dict, order: ReflectionOrder):
        self.poset = poset
        self.labels = dict(labels)
        self.order = order
        if set(self.labels) != poset.covers:
            raise ValueError("labels must decorate exactly the cover pairs")
        self._key = {}
        for cover, lab in self.labels.items():
            if lab.tag == BOTTOM:
                self._key[cover] = (1,)
            elif lab.tag == RIGHT:
                self._key[cover] = (0, order.position(lab.reflection))
            else:
                self._key[cover] = (2, order.position(lab.reflection))

    def label_key(self, a: int, b: int):
        return self._key[(a, b)]


def el_label_twisted_interval(interval, order: ReflectionOrder) -> LabeledPoset:
    """Label each cover w1 < w2 of a twisted interval by the reflection w2*w1^{-1}."""
    fp = interval.to_finite_poset()
    els = interval.elements
    labels = {}
    for (i, j) in fp.covers:
        t = els[j] * els[i].inverse()
        if not order.contains(t):
            raise MissingReflection("cover reflection missing from the supplied order")
        labels[(i, j)] = EdgeLabel(LEFT, t)
    return LabeledPoset(fp, labels, order)


class ELReport:
    def __init__(self, ok: bool, reason: Optional[str] = None, interval=None):
        self.ok = ok
        self.reason = reason
        self.interval = interval

    def __bool__(self):
        return self.ok

    def __repr__(self):
        return "EL(ok)" if self.ok else f"EL(fail {self.reason} at {self.interval})"


def verify_el(lp: LabeledPoset) -> ELReport:
    """EL check of every subinterval, by a dynamic program over the cover graph.

    A maximal chain y = z0 > z1 > ... > zk = x is read from the top: its
    label sequence is (key(z1, z0), ..., key(zk, z_{k-1})), and it is
    increasing when that sequence strictly increases.  Each interval
    [x, y] needs exactly one increasing chain; that chain lexicographically
    first among all maximal chains; and its first edge strictly smaller than
    every other first edge out of y.

    For each bottom x the elements above x are visited bottom-up (by rank,
    or in ``_topo`` order when the poset has none).  Each y keeps the
    number of increasing chains down to x, grouped by first label, and the
    lexicographically least label sequence.  Then (x, y) passes exactly
    when it has one increasing chain, the least sequence strictly increases
    (so it is that chain's, and no other chain ties it), and exactly one
    lower cover of y carries the least first label.  Pairs are decided in
    the order ``for x: for y in p._leq[x]``, so the first failing pair and
    its reason are those of enumerating every chain.  No chain can tie the
    increasing one without being increasing itself, so a tie fails the
    count and has no reason of its own.
    """
    p = lp.poset
    key = lp._key
    n = len(p.elements)
    if p.rank is not None:
        height = p.rank
    else:
        height = [0] * n
        for k, v in enumerate(p._topo()):
            height[v] = k
    for x in range(n):
        above = p._leq[x]
        rising = {x: None}   # y -> {first label: increasing chains from y to x}
        least = {x: ()}      # y -> least label sequence from y to x
        ties = {}            # y -> lower covers of y carrying the least first label
        for y in sorted(above, key=height.__getitem__):
            if y == x:
                continue
            counts: dict = {}
            low, best = None, []
            for z in p.down[y]:
                if z not in above:
                    continue
                a = key[z, y]
                below = rising[z]
                c = 1 if below is None else sum(k for b, k in below.items() if b > a)
                if c:
                    counts[a] = counts.get(a, 0) + c
                if low is None or a < low:
                    low, best = a, [z]
                elif a == low:
                    best.append(z)
            rising[y] = counts
            least[y] = (low,) + min(least[z] for z in best)
            ties[y] = len(best)
        for y in above:
            if y == x:
                continue
            total = sum(rising[y].values())
            if total != 1:
                return ELReport(False, f"{total} increasing chains", (x, y))
            seq = least[y]
            if any(seq[k] >= seq[k + 1] for k in range(len(seq) - 1)):
                return ELReport(False, "increasing chain not lex-minimal", (x, y))
            if ties[y] != 1:
                return ELReport(False, "first edge not strictly smallest", (x, y))
    return ELReport(True)


def shelling_order(lp: LabeledPoset) -> list:
    """Diagnostic: maximal chains of the full poset, lex-sorted by labels."""
    p = lp.poset
    mins, maxs = p.minimal_elements(), p.maximal_elements()
    if len(mins) != 1 or len(maxs) != 1:
        raise ValueError("shelling order needs a bounded poset")
    chains = p.maximal_chains_down(maxs[0], mins[0])
    keyed = [(tuple(lp.label_key(ch[k + 1], ch[k]) for k in range(len(ch) - 1)), ch)
             for ch in chains]
    keyed.sort()
    return [ch for _, ch in keyed]


# -- order complexes -------------------------------------------------------

class SimplicialComplex:
    """Facet description of a finite simplicial complex (faces downward closed)."""

    def __init__(self, vertices: int, facets: Iterable):
        self.vertices = int(vertices)
        fs = {tuple(sorted(set(f))) for f in facets}
        holders: dict = {}
        for f in fs:
            for v in f:
                holders.setdefault(v, set()).add(f)
        # f is maximal iff no other facet holds all of its vertices (every
        # facet holds the empty one's)
        self.facets = sorted(f for f in fs
                             if len(fs.intersection(*(holders[v] for v in f))) == 1)
        for f in self.facets:
            if f and not (0 <= f[0] and f[-1] < self.vertices):
                raise ValueError("facet vertex out of range")

    def dimension(self) -> int:
        return max((len(f) - 1 for f in self.facets), default=-1)

    def faces(self) -> dict:
        """All faces by dimension, sorted vertex tuples."""
        from itertools import combinations
        out: dict = {}
        seen = set()
        for f in self.facets:
            for k in range(1, len(f) + 1):
                for sub in combinations(f, k):
                    if sub not in seen:
                        seen.add(sub)
                        out.setdefault(k - 1, []).append(sub)
        for k in out:
            out[k].sort()
        return out

    def to_json(self) -> dict:
        return {"vertices": self.vertices, "facets": [list(f) for f in self.facets]}

    @classmethod
    def from_json(cls, data: dict) -> "SimplicialComplex":
        return cls(data["vertices"], [tuple(f) for f in data["facets"]])


def order_complex(p: FinitePoset, mode: str = "full") -> SimplicialComplex:
    """Simplicial complex of chains; open-interval mode strips the unique
    minimum and maximum first."""
    if mode not in ("full", "open-interval"):
        raise ValueError("mode must be 'full' or 'open-interval'")
    keep = list(range(len(p.elements)))
    if mode == "open-interval":
        mins, maxs = p.minimal_elements(), p.maximal_elements()
        if len(mins) != 1 or len(maxs) != 1:
            raise ValueError("open-interval mode needs unique min and max")
        keep = [i for i in keep if i not in (mins[0], maxs[0])]
    if not keep:
        return SimplicialComplex(0, [])
    keep_set = set(keep)
    renum = {v: k for k, v in enumerate(keep)}
    # dropping only the unique minimum and maximum changes no cover among
    # the elements that stay
    induced = {a: [b for b in p.up[a] if b in keep_set] for a in keep}
    facets = []
    starts = [a for a in keep if not any(b in keep_set for b in p.down[a])]
    stack = [(a, (a,)) for a in starts]
    while stack:
        cur, path = stack.pop()
        nxt = induced[cur]
        if not nxt:
            facets.append(tuple(renum[v] for v in path))
            continue
        for b in nxt:
            stack.append((b, path + (b,)))
    return SimplicialComplex(len(keep), facets)


# -- graded interval posets ------------------------------------------------

def graded_poset(items, key, rank, leq, zero_hat: bool = False) -> tuple:
    """The poset on ``items`` graded by ``rank``, and the items in its order.

    Items are sorted by (rank, key) and stored as their keys.  A cover is
    a pair a, b with rank(b) = rank(a) + 1 and ``leq(a, b)``, tested level
    by level; that is the cover relation only because the poset is graded
    by ``rank``.  With ``zero_hat``, ZERO_HAT is adjoined at rank 0 below
    the items of rank 1.  Ranks are shifted to start at 0.
    """
    tagged = sorted(((rank(x), key(x), x) for x in items), key=lambda t: t[:2])
    ranks = [t[0] for t in tagged]
    keys = [t[1] for t in tagged]
    items = [t[2] for t in tagged]
    level: dict = {}
    for i, r in enumerate(ranks):
        level.setdefault(r, []).append(i)
    covers = [(i, j) for i, a in enumerate(items)
              for j in level.get(ranks[i] + 1, ()) if leq(a, items[j])]
    if zero_hat:
        covers = [(0, j + 1) for j in level.get(1, ())] + [(i + 1, j + 1) for i, j in covers]
        keys, ranks = [ZERO_HAT] + keys, [0] + ranks
    base = min(ranks, default=0)
    return FinitePoset(keys, covers, [r - base for r in ranks]), items


def two_sided_labels(fp: FinitePoset, ends: Sequence, zero_label) -> dict:
    """Cover labels of a poset of intervals, read off their endpoints.

    ``ends[i]`` is the (bottom, top) of element i, or None at a 0-hat.  A
    cover moving the top from t1 to t2 gets (t2 t1^-1, r), one moving the
    bottom from b1 to b2 gets (b1 b2^-1, l), and a cover out of the 0-hat
    gets ``zero_label(ends[j])`` for its upper element j.
    """
    labels = {}
    for (i, j) in fp.covers:
        if ends[i] is None:
            labels[(i, j)] = zero_label(ends[j])
            continue
        (b1, t1), (b2, t2) = ends[i], ends[j]
        if b1 == b2:
            labels[(i, j)] = EdgeLabel(RIGHT, t2 * t1.inverse())
        elif t1 == t2:
            labels[(i, j)] = EdgeLabel(LEFT, b1 * b2.inverse())
        else:
            raise ValueError("cover moves both endpoints")
    return labels


# -- interval poset of (W, <=J) --------------------------------------------

def assemble_QJ_interval(bottom_pair, top_pair, J) -> FinitePoset:
    """An interval of the poset of twisted intervals, ordered by containment.

    ``bottom_pair`` may be None, which adjoins the extra minimum below
    all singleton intervals.  Keys are pairs of canonical words, with
    ZERO_HAT for the adjoined minimum.  Comparabilities are read off the
    closure of the top pair's interval; one endpoint of a cover moves by
    one cover of that interval and the other stays.
    """
    from .twisted import j_interval, j_leq

    x_top, y_top = top_pair
    if not j_leq(x_top, y_top, J):
        raise ValueError("top pair is not a twisted interval")
    universe = j_interval(x_top, y_top, J)
    els, jl, covers = universe.elements, universe.jlengths, universe.covers
    up = universe.to_finite_poset()._leq
    augmented = bottom_pair is None
    if augmented:
        pairs = [(a, els[j]) for i, a in enumerate(els) for j in up[i]]
    else:
        xb, yb = bottom_pair
        for rel in ((x_top, xb), (xb, yb), (yb, y_top)):
            if not j_leq(rel[0], rel[1], J):
                raise ValueError("bottom pair is not contained in the top pair")
        ix, iy = els.index(xb), els.index(yb)
        pairs = [(a, els[j]) for i, a in enumerate(els) if ix in up[i] for j in up[iy]]

    def contained(p, q):
        return ((p[0] == q[0] and (p[1], q[1]) in covers)
                or (p[1] == q[1] and (q[0], p[0]) in covers))

    return graded_poset(pairs, lambda q: (q[0].canonical_word(), q[1].canonical_word()),
                        lambda q: jl[q[1]] - jl[q[0]] + augmented, contained,
                        zero_hat=augmented)[0]


def el_label_qj_interval(fp: FinitePoset, group: WeylGroup,
                         order: ReflectionOrder) -> LabeledPoset:
    """Two-sided labeling of an interval-poset interval.

    Top-endpoint covers get (t, r), bottom-endpoint covers get (t, l),
    and the adjoined-minimum covers get the empty label.
    """
    ends = [None if key == ZERO_HAT else (group.from_word(key[0]), group.from_word(key[1]))
            for key in fp.elements]
    return LabeledPoset(fp, two_sided_labels(fp, ends, lambda _: EdgeLabel(BOTTOM)), order)


# -- serialization ----------------------------------------------------------

def _jsonable(key):
    if isinstance(key, tuple):
        return [_jsonable(k) for k in key]
    return key


def poset_to_json(p: FinitePoset) -> dict:
    out = {"elements": [_jsonable(k) for k in p.elements],
           "covers": sorted([a, b] for a, b in p.covers)}
    if p.rank is not None:
        out["rank"] = list(p.rank)
    return out


def poset_from_json(data: dict) -> FinitePoset:
    def detuple(e):
        if isinstance(e, list):
            return tuple(detuple(x) for x in e)
        return e

    elements = [detuple(e) for e in data["elements"]]
    return FinitePoset(elements, [tuple(c) for c in data["covers"]], data.get("rank"))


def poset_to_dot(p: FinitePoset, name: str = "hasse") -> str:
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    for i, key in enumerate(p.elements):
        lines.append(f'  n{i} [label="{key}"];')
    for a, b in sorted(p.covers):
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines)
