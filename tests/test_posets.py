import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from test_weyl import _gcm

from twistflag import (CartanMatrix, FinitePoset, MissingReflection, NonReducedWord,
                       ParabolicContext, SimplicialComplex,
                       assemble_QJ_interval, cartan_A, cartan_B2,
                       cartan_G2, cartan_affine_A1, check_pure, check_thin,
                       el_label_qj_interval, el_label_twisted_interval,
                       extend_cartan, j_interval, j_leq, order_complex,
                       reflection_order_covering,
                       reflection_order_from_word, shelling_order, verify_el)
from twistflag.posets import (LEFT, RIGHT, EdgeLabel, LabeledPoset,
                              ReflectionOrder, ZERO_HAT, _dihedral_conjugate,
                              _dihedral_walk, _in_open_cone, _plane, root_of_reflection)
from twistflag.batteries import all_subsets, twisted_pairs
from twistflag.doubleflag import (ThickenedCartan, TripleIndex, q_el_label,
                                  q_interval_hat, q_member)
from twistflag.weyl import weyl_group

from elimination_oracles import row_reduce


@pytest.fixture
def A2():
    return weyl_group(cartan_A(2))


def test_finite_poset_validation():
    with pytest.raises(ValueError):
        FinitePoset(["a", "b"], [(0, 1), (1, 0)])  # cycle
    with pytest.raises(ValueError):
        FinitePoset(["a", "b"], [(0, 1)], rank=[0, 2])  # bad rank step
    p = FinitePoset(["a", "b", "c"], [(0, 1), (1, 2)], rank=[0, 1, 2])
    assert p.leq(0, 2) and not p.leq(2, 0)
    assert p.minimal_elements() == [0] and p.maximal_elements() == [2]


def test_check_pure():
    chain = FinitePoset([0, 1, 2], [(0, 1), (1, 2)])
    assert check_pure(chain) == (True, None)
    # a < b, a < c < b: two maximal chains of different length
    broken = FinitePoset(["a", "b", "c"], [(0, 1), (0, 2), (2, 1)])
    ok, witness = check_pure(broken)
    assert not ok
    assert {len(witness[0]), len(witness[1])} == {2, 3}


def test_check_thin():
    diamond = FinitePoset(["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert check_thin(diamond) == (True, None)
    chain3 = FinitePoset([0, 1, 2], [(0, 1), (1, 2)])
    ok, witness = check_thin(chain3)
    assert not ok and witness[2] == 3
    broken = FinitePoset(["a", "b", "c"], [(0, 1), (0, 2), (2, 1)])
    with pytest.raises(ValueError):
        check_thin(broken)


def test_bruhat_interval_pure_thin(A2):
    e = A2.identity
    w0 = A2.simple(0) * A2.simple(1) * A2.simple(0)
    fp = j_interval(e, w0, ParabolicContext(A2, set())).to_finite_poset()
    assert check_pure(fp)[0]
    assert check_thin(fp)[0]


def test_reflection_order_from_word(A2):
    a1 = weyl_group(cartan_A(1))
    ro = reflection_order_from_word(a1, (0,))
    assert [t.canonical_word() for t in ro.reflections] == [(0,)]
    ro = reflection_order_from_word(A2, (0, 1, 0))
    assert [t.canonical_word() for t in ro.reflections] == [(0,), (0, 1, 0), (1,)]
    ro2 = reflection_order_from_word(A2, (1, 0, 1))
    assert [t.canonical_word() for t in ro2.reflections] == [(1,), (0, 1, 0), (0,)]
    with pytest.raises(NonReducedWord):
        reflection_order_from_word(A2, (0, 0))


def test_reflection_order_certificate(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    t = s1 * s2 * s1
    with pytest.raises(NonReducedWord):
        ReflectionOrder(A2, [s1, s2, t])  # t belongs between s1 and s2
    ReflectionOrder(A2, [s1, t, s2])
    ReflectionOrder(A2, [s2, t, s1])
    with pytest.raises(ValueError):
        ReflectionOrder(A2, [s1, s1])  # duplicate
    with pytest.raises(ValueError):
        ReflectionOrder(A2, [s1 * s2])  # not a reflection


def test_root_of_reflection(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    assert root_of_reflection(s1) == (1, 0)
    assert root_of_reflection(s2) == (0, 1)
    assert root_of_reflection(s1 * s2 * s1) == (1, 1)
    b2 = weyl_group(cartan_B2())
    # with entries [[2,-2],[-1,2]]: positive roots a0, a1, a0+a1, a0+2a1
    roots = {root_of_reflection(t) for t in
             (b2.simple(0), b2.simple(1),
              b2.simple(0) * b2.simple(1) * b2.simple(0),
              b2.simple(1) * b2.simple(0) * b2.simple(1))}
    assert roots == {(1, 0), (0, 1), (1, 1), (1, 2)}
    w0 = b2.from_word((0, 1, 0, 1))
    assert w0.mat == ((-1, 0), (0, -1))
    with pytest.raises(ValueError):
        root_of_reflection(w0)
    a3 = weyl_group(cartan_A(3))
    with pytest.raises(ValueError):
        root_of_reflection(a3.from_word((0, 1, 2)))  # Coxeter element, not a root
    # in A3 the reflections are exactly the six transpositions
    reflections = {w * a3.simple(i) * w.inverse() for w in a3.ball(6) for i in range(3)}
    assert len(reflections) == 6
    for w in a3.ball(6):
        if w in reflections:
            assert root_of_reflection(w) == _oracle_root(w)
        else:
            with pytest.raises(ValueError):
                root_of_reflection(w)


def test_reflection_order_covering_two_chains():
    """Infinite dihedral labels force the ascending/descending shape."""
    g = weyl_group(cartan_affine_A1())
    s0, s1 = g.simple(0), g.simple(1)
    need = [s0, s1, s0 * s1 * s0, s1 * s0 * s1]
    ro = reflection_order_covering(g, need)
    words = [t.canonical_word() for t in ro.reflections]
    assert words == [(0,), (0, 1, 0), (1, 0, 1), (1,)] or \
        words == [(1,), (1, 0, 1), (0, 1, 0), (0,)]
    assert ro.dihedral_violation() is None


def test_reflection_order_covering_first_nodes():
    from twistflag import extend_cartan
    tc = extend_cartan(cartan_A(2))
    ext = tc.ext_group
    g = tc.base_group
    s1 = tc.embed(g.simple(0))
    sinf = ext.simple(2)
    mixed = sinf * s1 * sinf
    ro = reflection_order_covering(ext, [mixed, s1, sinf],
                                   first_nodes={0, 1})
    assert ro.reflections[0] == s1  # finite-part reflections first
    assert ro.dihedral_violation() is None


def test_el_label_and_verify(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    e = A2.identity
    w0 = s1 * s2 * s1
    J0 = ParabolicContext(A2, set())
    ro = reflection_order_from_word(A2, (0, 1, 0))
    # single edge
    lp = el_label_twisted_interval(j_interval(e, s1, J0), ro)
    assert verify_el(lp).ok
    (cover, label), = lp.labels.items()
    assert label.reflection == s1
    # the [e, s1 s2] interval: labels as derived by hand
    iv = j_interval(e, s1 * s2, J0)
    lp = el_label_twisted_interval(iv, ro)
    assert verify_el(lp).ok
    index = {el: k for k, el in enumerate(iv.elements)}
    chain1 = (lp.labels[(index[e], index[s1])].reflection,
              lp.labels[(index[s1], index[s1 * s2])].reflection)
    chain2 = (lp.labels[(index[e], index[s2])].reflection,
              lp.labels[(index[s2], index[s1 * s2])].reflection)
    assert chain1 == (s1, s1 * s2 * s1)  # increasing
    assert chain2 == (s2, s1)            # decreasing
    # labels square to the identity
    for lab in lp.labels.values():
        assert (lab.reflection * lab.reflection).is_identity()
    # full interval passes with either w0-word order
    for word in ((0, 1, 0), (1, 0, 1)):
        order = reflection_order_from_word(A2, word)
        assert verify_el(el_label_twisted_interval(j_interval(e, w0, J0), order)).ok


def test_el_negative_control(A2):
    """A non-monotone list is not a reflection order and breaks EL."""
    s1, s2 = A2.simple(0), A2.simple(1)
    e = A2.identity
    w0 = s1 * s2 * s1
    bad = ReflectionOrder(A2, [s1, s2, s1 * s2 * s1], check=False)
    assert bad.dihedral_violation() is not None
    iv = j_interval(e, w0, ParabolicContext(A2, set()))
    report = verify_el(el_label_twisted_interval(iv, bad))
    assert not report.ok


def _hand_labeled(n, labeled_covers, rank=None):
    """A poset on range(n) whose cover (a, b) carries the k-th reflection of
    an A3 inversion order, for ``labeled_covers`` = {(a, b): k}."""
    g = weyl_group(cartan_A(3))
    order = reflection_order_from_word(g, (0, 1, 0, 2, 1, 0))
    fp = FinitePoset(list(range(n)), labeled_covers, rank)
    labels = {c: EdgeLabel(LEFT, order.reflections[k]) for c, k in labeled_covers.items()}
    return LabeledPoset(fp, labels, order)


def test_el_report_reasons():
    """Each failure reason, at its interval; chains read from the top."""
    # a chain labeled (1, 0) from the top down is not increasing
    chain = _hand_labeled(3, {(0, 1): 0, (1, 2): 1}, rank=[0, 1, 2])
    report = verify_el(chain)
    assert (report.ok, report.reason, report.interval) == (False, "0 increasing chains", (0, 2))
    # a diamond whose chains read (0, 2) and (1, 3)
    both = _hand_labeled(4, {(1, 3): 0, (0, 1): 2, (2, 3): 1, (0, 2): 3}, rank=[0, 1, 1, 2])
    report = verify_el(both)
    assert (report.reason, report.interval) == ("2 increasing chains", (0, 3))
    # (2, 3) is the one increasing chain, but (1, 0) comes first
    late = _hand_labeled(4, {(1, 3): 2, (0, 1): 3, (2, 3): 1, (0, 2): 0}, rank=[0, 1, 1, 2])
    report = verify_el(late)
    assert (report.reason, report.interval) == ("increasing chain not lex-minimal", (0, 3))
    # [0, 1] has the chains 1 > 2 > 0, reading (0, 1), and 1 > 3 > 4 > 0,
    # reading (0, 2, 1): one increasing chain, lexicographically first, but
    # both first edges carry label 0.  [0, 3] fails too (its one chain
    # reads (2, 1)), but [0, 1] is checked first.
    tied = _hand_labeled(5, {(0, 2): 1, (2, 1): 0, (0, 4): 1, (4, 3): 2, (3, 1): 0})
    report = verify_el(tied)
    assert (report.reason, report.interval) == ("first edge not strictly smallest", (0, 1))
    assert verify_el(_hand_labeled(3, {(0, 1): 1, (1, 2): 0}, rank=[0, 1, 2])).ok


def _shuffled_labels(lp, rng):
    covers = sorted(lp.labels)
    labels = [lp.labels[c] for c in covers]
    rng.shuffle(labels)
    return LabeledPoset(lp.poset, dict(zip(covers, labels)), lp.order)


def test_verify_el_matches_exhaustive_on_shuffled_labels(verify_el_exhaustive):
    """The twisted-interval labelings of the intervals workload (A3, B2 and
    G2, every J, J-length difference at most 4) and the Q-hat labelings of
    the qhat workload (A1 and A2 thickened, rank at most 2) pass; with their
    labels shuffled among the covers, about half fail, and the dynamic
    program gives the exhaustive checker's verdict, reason and interval
    every time."""
    labelings = []
    for cartan in (cartan_A(3), cartan_B2(), cartan_G2()):
        g = weyl_group(cartan)
        els = g.full_context().elements()
        order = reflection_order_from_word(g, g.canonical_word(g.full_context().longest()))
        for J_set in all_subsets(g.n):
            J = ParabolicContext(g, J_set)
            for v, w in twisted_pairs(g, J, els, 4):
                labelings.append(el_label_twisted_interval(j_interval(v, w, J), order))
    for base in (cartan_A(1), cartan_A(2)):
        tc = ThickenedCartan(base)
        full = tc.base_group.full_context().elements()
        for w, v, u in itertools.product(full, repeat=3):
            if q_member(w, v, u) and w.length() + u.length() - v.length() <= 2:
                labelings.append(q_el_label(q_interval_hat(TripleIndex(w, v, u)), tc))
    rng = random.Random(5)
    reasons = {}
    for lp in labelings:
        assert verify_el(lp).ok
        for _ in range(2):
            shuffled = _shuffled_labels(lp, rng)
            got, want = verify_el(shuffled), verify_el_exhaustive(shuffled)
            assert (got.ok, got.reason, got.interval) == (want.ok, want.reason, want.interval)
            reasons[got.reason] = reasons.get(got.reason, 0) + 1
    assert set(reasons) == {None, "0 increasing chains", "2 increasing chains",
                            "increasing chain not lex-minimal"}


def test_el_missing_reflection(A2):
    s1 = A2.simple(0)
    e = A2.identity
    iv = j_interval(e, s1, ParabolicContext(A2, set()))
    short = ReflectionOrder(A2, [A2.simple(1)])
    with pytest.raises(MissingReflection):
        el_label_twisted_interval(iv, short)


def test_order_complex():
    chain = FinitePoset([0, 1, 2], [(0, 1), (1, 2)])
    sc = order_complex(chain, "full")
    assert sc.facets == [(0, 1, 2)]
    # open interval of the boolean lattice B_2: two isolated points
    diamond = FinitePoset(["0", "a", "b", "1"], [(0, 1), (0, 2), (1, 3), (2, 3)])
    sc = order_complex(diamond, "open-interval")
    assert sc.vertices == 2 and sc.facets == [(0,), (1,)]
    with pytest.raises(ValueError):
        order_complex(FinitePoset([0, 1], []), "open-interval")


def _order_complex_by_closure(p, mode):
    """Order complex whose covers are recomputed from the order relation of
    the kept elements: the oracle of reading them off ``p.up``."""
    keep = list(range(len(p.elements)))
    if mode == "open-interval":
        keep = [i for i in keep
                if i not in (p.minimal_elements()[0], p.maximal_elements()[0])]
    keep_set = set(keep)
    renum = {v: k for k, v in enumerate(keep)}
    sub_leq = {a: (p._leq[a] & keep_set) - {a} for a in keep}
    induced = {}
    for a in keep:
        direct = set(sub_leq[a])
        for b in sub_leq[a]:
            direct -= sub_leq[b]
        induced[a] = sorted(direct)
    facets = []
    stack = [(a, (a,)) for a in keep if not any(a in sub_leq[b] for b in keep)]
    while stack:
        cur, path = stack.pop()
        if not induced[cur]:
            facets.append(tuple(renum[v] for v in path))
        for b in induced[cur]:
            stack.append((b, path + (b,)))
    return SimplicialComplex(len(keep), facets)


def test_order_complex_matches_closure_oracle():
    """Covers read off ``p.up`` give the facets of covers recomputed from
    the order: on every twisted interval of B2 and G2, in both modes, and
    on an unranked poset whose cover list also holds a relation it implies."""
    cases = [FinitePoset(list(range(4)), [(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)])]
    for cartan in (cartan_B2(), cartan_G2()):
        g = weyl_group(cartan)
        els = g.full_context().elements()
        for J_set in all_subsets(g.n):
            J = ParabolicContext(g, J_set)
            cases += [j_interval(v, w, J).to_finite_poset()
                       for v, w in twisted_pairs(g, J, els)]
    for p in cases:
        for mode in ("full", "open-interval"):
            assert order_complex(p, mode).facets == _order_complex_by_closure(p, mode).facets


def test_order_complex_bruhat_circle(A2):
    e = A2.identity
    w0 = A2.simple(0) * A2.simple(1) * A2.simple(0)
    fp = j_interval(e, w0, ParabolicContext(A2, set())).to_finite_poset()
    sc = order_complex(fp, "open-interval")
    assert sc.vertices == 4
    assert len(sc.facets) == 4
    assert all(len(f) == 2 for f in sc.facets)


def test_assemble_QJ_interval(A2):
    s1 = A2.simple(0)
    e = A2.identity
    J0 = ParabolicContext(A2, set())
    single = assemble_QJ_interval((s1, s1), (s1, s1), J0)
    assert len(single.elements) == 1
    two = assemble_QJ_interval((s1, s1), (e, s1), J0)
    assert len(two.elements) == 2
    aug = assemble_QJ_interval(None, (e, s1), J0)
    assert len(aug.elements) == 4
    assert ZERO_HAT in aug.elements
    assert check_pure(aug)[0] and check_thin(aug)[0]


def test_qj_interval_el(A2):
    """Interval-poset intervals carry the two-sided EL-labeling."""
    s1, s2 = A2.simple(0), A2.simple(1)
    e = A2.identity
    w0 = s1 * s2 * s1
    ro = reflection_order_from_word(A2, (0, 1, 0))
    for J_set in (set(), {0}, {1}, {0, 1}):
        J = ParabolicContext(A2, J_set)
        from twistflag import j_leq
        for top_lo in A2.ball(3):
            for top_hi in A2.ball(3):
                if not j_leq(top_lo, top_hi, J):
                    continue
                fp = assemble_QJ_interval(None, (top_lo, top_hi), J)
                assert check_pure(fp)[0]
                assert check_thin(fp)[0]
                lp = el_label_qj_interval(fp, A2, ro)
                assert verify_el(lp).ok


def _assemble_QJ_interval_oracle(bottom_pair, top_pair, J):
    """The closure-poset interval from an all-pairs ``j_leq`` table and an
    all-pairs cover loop, as (keys, covers, ranks)."""
    x_top, y_top = top_pair
    universe = j_interval(x_top, y_top, J)
    els = universe.elements
    jl = universe.jlengths
    leq = {(a, b): (a == b) or ((a, b) in universe.covers) for a in els for b in els}
    for a in els:
        for b in els:
            if jl[b] > jl[a] + 1:
                leq[(a, b)] = j_leq(a, b, J)
    if bottom_pair is None:
        pairs = [(a, b) for a in els for b in els if leq[(a, b)]]
        augmented = True
    else:
        xb, yb = bottom_pair
        pairs = [(a, b) for a in els for b in els
                 if leq[(a, b)] and leq[(a, xb)] and leq[(yb, b)]]
        augmented = False

    def rank(pair):
        return jl[pair[1]] - jl[pair[0]] + (1 if augmented else 0)

    pairs.sort(key=lambda q: (rank(q), q[0].canonical_word(), q[1].canonical_word()))
    keys = [(tuple(a.canonical_word()), tuple(b.canonical_word())) for a, b in pairs]
    ranks = [rank(q) for q in pairs]
    offset = 0
    if augmented:
        keys = [ZERO_HAT] + keys
        ranks = [0] + ranks
        offset = 1
    covers = set()
    for i, (a1, b1) in enumerate(pairs):
        for j, (a2, b2) in enumerate(pairs):
            if ranks[offset + j] - ranks[offset + i] != 1:
                continue
            if (a1 == a2 and leq[(b1, b2)]) or (b1 == b2 and leq[(a2, a1)]):
                covers.add((offset + i, offset + j))
    if augmented:
        for i, q in enumerate(pairs):
            if ranks[offset + i] == 1:
                covers.add((0, offset + i))
    base = min(ranks)
    return keys, covers, [r - base for r in ranks]


def _el_label_qj_oracle(fp, group):
    """The two-sided labels of a closure-poset interval, decoded cover by cover."""
    labels = {}
    for (i, j) in fp.covers:
        if fp.elements[i] == ZERO_HAT:
            labels[(i, j)] = EdgeLabel("bottom")
            continue
        (a1, b1), (a2, b2) = [tuple(group.from_word(k) for k in fp.elements[x]) for x in (i, j)]
        if a1 == a2:
            labels[(i, j)] = EdgeLabel(RIGHT, b2 * b1.inverse())
        else:
            assert b1 == b2
            labels[(i, j)] = EdgeLabel(LEFT, a1 * a2.inverse())
    return labels


@pytest.mark.parametrize("cartan,counts", [(cartan_A(2), (76, 340)), (cartan_B2(), (132, 900))],
                         ids=["A2", "B2"])
def test_assemble_QJ_interval_matches_oracle(cartan, counts):
    """Every closure poset of A2 and B2 (every J, every top pair, with the
    0-hat and with every bottom pair) keeps the elements, covers and ranks
    of the all-pairs builder, and the augmented ones keep their labels and
    EL reports."""
    g = weyl_group(cartan)
    full = ParabolicContext(g, range(g.n)).elements()
    ro = reflection_order_from_word(g, g.canonical_word(max(full, key=g.length)))
    tops = bottoms = 0
    for J_set in all_subsets(g.n):
        J = ParabolicContext(g, J_set)
        for x, y in itertools.product(full, repeat=2):
            if not j_leq(x, y, J):
                continue
            fp = assemble_QJ_interval(None, (x, y), J)
            assert (fp.elements, fp.covers, fp.rank) == _assemble_QJ_interval_oracle(None, (x, y), J)
            lp = el_label_qj_interval(fp, g, ro)
            assert lp.labels == _el_label_qj_oracle(fp, g)
            want = verify_el(LabeledPoset(fp, _el_label_qj_oracle(fp, g), ro))
            got = verify_el(lp)
            assert (got.ok, got.reason, got.interval) == (want.ok, want.reason, want.interval)
            tops += 1
            for a, b in itertools.product(j_interval(x, y, J).elements, repeat=2):
                if j_leq(a, b, J):
                    fp = assemble_QJ_interval((a, b), (x, y), J)
                    assert ((fp.elements, fp.covers, fp.rank)
                            == _assemble_QJ_interval_oracle((a, b), (x, y), J))
                    bottoms += 1
    assert (tops, bottoms) == counts


def test_qj_label_order_shape(A2):
    """(t1, r) < empty < (t2, l) in the label order."""
    s1 = A2.simple(0)
    e = A2.identity
    J0 = ParabolicContext(A2, set())
    fp = assemble_QJ_interval(None, (e, s1), J0)
    ro = reflection_order_from_word(A2, (0, 1, 0))
    lp = el_label_qj_interval(fp, A2, ro)
    keys = {lab.tag: lp._key[cover] for cover, lab in lp.labels.items()}
    assert keys[RIGHT] < keys["bottom"] < keys[LEFT]


def test_shelling_order_diagnostic(A2):
    e = A2.identity
    w0 = A2.simple(0) * A2.simple(1) * A2.simple(0)
    iv = j_interval(e, w0, ParabolicContext(A2, set()))
    ro = reflection_order_from_word(A2, (0, 1, 0))
    lp = el_label_twisted_interval(iv, ro)
    order = shelling_order(lp)
    assert len(order) == 4  # four maximal chains through the hexagon
    assert all(len(ch) == 4 for ch in order)


def test_simplicial_complex_json():
    sc = SimplicialComplex(3, [(0, 1), (1, 2), (0, 2)])
    data = sc.to_json()
    assert data == {"vertices": 3, "facets": [[0, 1], [0, 2], [1, 2]]}
    rt = SimplicialComplex.from_json(data)
    assert rt.facets == sc.facets
    # facets absorb contained faces
    sc2 = SimplicialComplex(3, [(0, 1), (0, 1, 2)])
    assert sc2.facets == [(0, 1, 2)]
    # duplicates collapse; the empty facet survives only on its own
    assert SimplicialComplex(3, [(2, 1), (1, 2, 2), ()]).facets == [(1, 2)]
    assert SimplicialComplex(3, [(), ()]).facets == [()]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.lists(st.lists(st.integers(0, 5), max_size=5), max_size=9))
def test_facet_filter_matches_quadratic(quadratic_maximal_facets, facets):
    """Unsorted facets with repeated vertices, duplicates, contained and
    empty facets keep exactly the facets, in the order, of the quadratic filter."""
    assert SimplicialComplex(6, facets).facets == quadratic_maximal_facets(facets)


# -- elimination and conjugation oracles for the root-coordinate certificate --

def _oracle_root(t):
    """Root of t from the null space of t + 1, by Fraction elimination."""
    n = t.group.n
    rows, pivots = row_reduce(
        [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(t.mat)], n)
    free = [c for c in range(n) if c not in pivots]
    assert len(free) == 1
    vec = [Fraction(0)] * n
    vec[free[0]] = Fraction(1)
    for row, c in zip(rows, pivots):
        vec[c] = -row[free[0]]
    scale = math.lcm(*(x.denominator for x in vec))
    ints = [int(x * scale) for x in vec]
    if any(x < 0 for x in ints):
        ints = [-x for x in ints]
    return tuple(ints)


def _oracle_dihedral_reflections(t1, t2, max_count):
    """Reflections of <t1,t2> as the conjugation orbit of {t1,t2} under t1*t2."""
    rot, rotinv = t1 * t2, t2 * t1
    seen = {t1: None, t2: None}
    frontier = [t1, t2]
    while frontier and len(seen) <= max_count:
        nxt = []
        for c in frontier:
            for left, right in ((rot, rotinv), (rotinv, rot)):
                cc = left * c * right
                if cc not in seen:
                    seen[cc] = None
                    nxt.append(cc)
        frontier = nxt
    return list(seen)


def _oracle_plane_coords(beta, b1, b2):
    """(x, y) over Fraction with beta = x*b1 + y*b2, or None off their plane."""
    n = len(beta)
    for i, j in itertools.combinations(range(n), 2):
        det = b1[i] * b2[j] - b1[j] * b2[i]
        if det != 0:
            break
    else:
        return None
    x = Fraction(beta[i] * b2[j] - beta[j] * b2[i], det)
    y = Fraction(b1[i] * beta[j] - b1[j] * beta[i], det)
    return (x, y) if all(x * b1[k] + y * b2[k] == beta[k] for k in range(n)) else None


def _oracle_in_open_cone(beta, b1, b2):
    """Solve beta = x*b1 + y*b2 over Fraction; True iff x, y > 0."""
    xy = _oracle_plane_coords(beta, b1, b2)
    return xy is not None and min(xy) > 0


def _oracle_violation(refs, initial_segment):
    """Per pair (i, j) in lexicographic order: every other listed root of
    their plane, in list order, then (initial segments) the first unlisted
    cone reflection of the bounded conjugation orbit."""
    pos = {t: k for k, t in enumerate(refs)}
    roots = [_oracle_root(t) for t in refs]
    bound = 2 * len(refs) + 4
    for i, j in itertools.combinations(range(len(refs)), 2):
        t1, t2 = refs[i], refs[j]
        for k, beta in enumerate(roots):
            xy = _oracle_plane_coords(beta, roots[i], roots[j])
            if k not in (i, j) and xy is not None and (i < k < j) != (min(xy) > 0):
                return (t1, t2, refs[k])
        if initial_segment:
            for c in _oracle_dihedral_reflections(t1, t2, bound):
                if c not in pos and _oracle_in_open_cone(_oracle_root(c), roots[i], roots[j]):
                    return (t1, t2, c)
    return None


def _oracle_orbit_violation(refs, initial_segment):
    """The earlier certificate: only reflections of the bounded conjugation
    orbit of each pair were checked.  Every list it rejects is still rejected."""
    pos = {t: k for k, t in enumerate(refs)}
    roots = [_oracle_root(t) for t in refs]
    bound = 2 * len(refs) + 4
    for i, j in itertools.combinations(range(len(refs)), 2):
        t1, t2 = refs[i], refs[j]
        for c in _oracle_dihedral_reflections(t1, t2, bound):
            if c == t1 or c == t2:
                continue
            inside = _oracle_in_open_cone(_oracle_root(c), roots[i], roots[j])
            if c in pos:
                if (i < pos[c] < j) != inside:
                    return (t1, t2, c)
            elif inside and initial_segment:
                return (t1, t2, c)
    return None


def _far_conjugate(g, i, j, k):
    """(s_i s_j)^k s_i (s_i s_j)^-k: far out on the orbit when a_ij a_ji >= 4."""
    rot = g.simple(i) * g.simple(j)
    out = g.simple(i)
    for _ in range(k):
        out = rot * out * rot.inverse()
    return out


def _plane_lists(g, reflections):
    """Lists whose listed coplanar roots lie off the pair's bounded orbit:
    a commuting pair with a root of its cone (B2's e1, e2 and e1 + e2), and
    two simple reflections of an infinite dihedral pair with a far conjugate."""
    lists = []
    roots = {t: _oracle_root(t) for t in reflections}
    commuting = [(t1, t2) for t1, t2 in itertools.combinations(reflections, 2)
                 if t1 * t2 == t2 * t1]
    for t1, t2 in commuting:
        for c in reflections:
            if _oracle_in_open_cone(roots[c], roots[t1], roots[t2]):
                for refs in ([t1, t2, c], [t1, c, t2], [c, t1, t2]):
                    lists += [(refs, False), (refs, True)]
                break
        if len(lists) >= 12:
            break
    cartan = g.cartan.entries
    for i, j in itertools.combinations(range(g.n), 2):
        if cartan[i][j] * cartan[j][i] >= 4:
            t = _far_conjugate(g, i, j, 4)
            for refs in ([g.simple(i), g.simple(j), t], [g.simple(i), t, g.simple(j)],
                         [t, g.simple(i), g.simple(j)]):
                lists += [(refs, False), (refs, True)]
            break
    return lists


def _compare_with_oracles(g, lists, rng):
    """Walks, plane keys, cone verdicts and violation triples of every list
    against the oracles; returns what the lists exercised."""
    seen = {"pass": False, "fail": False, "mixed": False, "off walk": False}
    for refs, initial in lists:
        order = ReflectionOrder(g, refs, initial_segment=initial, check=False)
        roots = [root_of_reflection(t) for t in refs]
        bound = 2 * len(refs) + 4
        for (t1, b1), (t2, b2) in itertools.combinations(zip(refs, roots), 2):
            walk = _dihedral_walk(t1, t2, b1, b2, bound)
            oracle = _oracle_dihedral_reflections(t1, t2, bound)
            vecs = [tuple(x * p + y * q for p, q in zip(b1, b2)) for x, y in walk]
            assert vecs == [_oracle_root(c) for c in oracle]
            for ((x, y), (seed, k)), beta, c in zip(walk.items(), vecs, oracle):
                assert _dihedral_conjugate(t1, t2, seed, k) == c
                assert (x > 0 and y > 0) == _oracle_in_open_cone(beta, b1, b2)
                assert _in_open_cone(beta, b1, b2) == _oracle_in_open_cone(beta, b1, b2)
                seen["mixed"] |= x * y < 0
            for beta in roots:
                if beta not in (b1, b2):
                    coplanar = _oracle_plane_coords(beta, b1, b2) is not None
                    assert (_plane(b1, beta) == _plane(b1, b2)) == coplanar
                    seen["off walk"] |= coplanar and beta not in vecs
            for _ in range(4):
                vec = tuple(rng.randint(-3, 3) for _ in range(g.n))
                assert _in_open_cone(vec, b1, b2) == _oracle_in_open_cone(vec, b1, b2)
        got = order.dihedral_violation()
        assert got == _oracle_violation(refs, initial)
        # strictly stronger than the orbit-only certificate
        assert got is not None or _oracle_orbit_violation(refs, initial) is None
        seen["pass" if got is None else "fail"] = True
    return seen
_ORACLE_GROUPS = {
    "A2": (cartan_A(2), 3),
    "A3": (cartan_A(3), 6),
    "B2": (cartan_B2(), 4),
    "G2": (cartan_G2(), 6),
    "affine A1": (cartan_affine_A1(), 4),
    "[[2,-3],[-3,2]]": (CartanMatrix([[2, -3], [-3, 2]]), 4),
    "hyperbolic rank 3": (CartanMatrix([[2, -2, 0], [-2, 2, -1], [0, -1, 2]]), 3),
    "thickened A1": (extend_cartan(cartan_A(1)).extended, 4),
    "thickened A2": (extend_cartan(cartan_A(2)).extended, 3),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_GROUPS))
def test_root_certificate_matches_oracles(name):
    """Integer roots, plane walks, plane keys, cone verdicts and violation
    triples agree with the elimination and conjugation oracles."""
    cartan, radius = _ORACLE_GROUPS[name]
    g = weyl_group(cartan)
    rng = random.Random(name)
    ball = g.ball(radius)
    reflections = sorted({w * g.simple(i) * w.inverse() for w in ball for i in range(g.n)},
                         key=lambda t: (t.length(), t.canonical_word()))
    for t in reflections:
        assert root_of_reflection(t) == _oracle_root(t)
    for w in ball:
        if w.length() % 2 == 0:  # even length: never a reflection
            with pytest.raises(ValueError):
                root_of_reflection(w)

    lists = []
    for _ in range(12):
        refs = rng.sample(reflections, min(len(reflections), rng.randint(2, 6)))
        lists.append((refs, rng.random() < 0.5))
    for w in rng.sample(ball, min(len(ball), 6)):
        word = w.canonical_word()
        if len(word) < 2:
            continue
        seq = reflection_order_from_word(g, word).reflections
        lists.append((seq, True))
        lists.append((seq[:1] + seq[2:], True))  # a gap in an inversion sequence
        lists.append((seq[::-1], False))
    plane_lists = _plane_lists(g, reflections)
    lists += plane_lists

    seen = _compare_with_oracles(g, lists, rng)
    assert seen["pass"] and seen["fail"]  # both passing and failing lists were compared
    assert seen["mixed"]  # some walk met a root with mixed-sign plane coordinates
    if plane_lists:
        assert seen["off walk"]  # a listed coplanar root the bounded walk never meets


@settings(max_examples=25, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_gcm(), st.randoms(use_true_random=False))
def test_root_certificate_matches_oracles_property(cartan, rng):
    """The same comparison on random rank <= 3 groups."""
    g = weyl_group(cartan)
    assume(g.n >= 2)
    reflections = sorted({w * g.simple(i) * w.inverse() for w in g.ball(3) for i in range(g.n)},
                         key=lambda t: (t.length(), t.canonical_word()))
    lists = []
    for _ in range(4):
        refs = rng.sample(reflections, min(len(reflections), rng.randint(2, 5)))
        lists.append((refs, rng.random() < 0.5))
    w = rng.choice(g.ball(4))
    seq = reflection_order_from_word(g, w.canonical_word()).reflections
    lists += [(seq, True), (seq[::-1], False)]
    lists += _plane_lists(g, reflections)
    _compare_with_oracles(g, lists, rng)


def test_far_orbit_root_is_checked():
    """A listed root in the open cone of a pair, far out on its infinite
    dihedral orbit, must sit between the pair."""
    g = weyl_group(CartanMatrix([[2, -3], [-3, 2]]))
    s0, s1 = g.simple(0), g.simple(1)
    t = _far_conjugate(g, 0, 1, 4)  # (s0 s1)^4 s0 (s0 s1)^-4
    assert root_of_reflection(t) == (2584, 987)
    with pytest.raises(NonReducedWord):
        ReflectionOrder(g, [s0, s1, t])
    ReflectionOrder(g, [s0, t, s1])
