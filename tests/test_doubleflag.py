import itertools

import pytest

from twistflag import (NotMember, ParabolicContext, PinnedGroup, TripleIndex,
                       bruhat_leq, cartan_A, cartan_B2, check_pure, check_thin,
                       extend_cartan, is_sphere_signature, j_leq,
                       link_boundary_poset, link_face_poset, order_complex,
                       q_el_label, q_interval_hat, q_leq, q_member,
                       reduced_homology, th_map, triples_below, verify_el,
                       z_sample)
from twistflag.doubleflag import (ThickenedCartan, triple_from_json,
                                  triple_to_json, z_closure_indices)
from twistflag.posets import (LEFT, RIGHT, ZERO_HAT, EdgeLabel, LabeledPoset,
                              reflection_order_covering)
from twistflag.twisted import demazure_min
from twistflag.weyl import weyl_group


@pytest.fixture(scope="module")
def tcA1():
    return extend_cartan(cartan_A(1))


@pytest.fixture(scope="module")
def tcA2():
    return extend_cartan(cartan_A(2))


def test_extend_cartan(tcA1, tcA2):
    assert tcA1.extended.entries == ((2, -2), (-2, 2))
    assert tcA2.extended.entries == ((2, -1, -2), (-1, 2, -2), (-2, -2, 2))
    assert tcA2.extended.entries[2][2] == 2
    assert tcA2.extended.labels == ("1", "2", "inf")
    # symmetrizability is preserved
    assert all(x > 0 for x in tcA2.extended.symmetrizer)


def test_th_map(tcA1, tcA2):
    g = tcA1.base_group
    e, s = g.identity, g.simple(0)
    assert th_map(e, e, tcA1).length() == 1
    assert th_map(s, s, tcA1).length() == 3
    g2 = tcA2.base_group
    for w in g2.ball(2):
        for v in g2.ball(2):
            assert th_map(w, v, tcA2).length() == w.length() + v.length() + 1


@pytest.mark.parametrize("base_nodes,max_len", [(1, 3), (2, 3)])
def test_th_order_embedding(base_nodes, max_len):
    """(w1<=w2 and v1>=v2) iff th(w1,v1) <=I th(w2,v2), exhaustively."""
    tc = extend_cartan(cartan_A(base_nodes))
    g = tc.base_group
    short = [x for x in g.ball(max_len)]
    for w1, v1, w2, v2 in itertools.product(short, repeat=4):
        lhs = bruhat_leq(w1, w2) and bruhat_leq(v2, v1)
        rhs = j_leq(tc.th(w1, v1), tc.th(w2, v2), tc.I)
        assert lhs == rhs


def test_q_member(tcA1):
    g = tcA1.base_group
    e, s = g.identity, g.simple(0)
    for w in (e, s):
        assert q_member(w, e, e)
    assert not q_member(e, s, e)
    assert q_member(s, s, e)
    assert q_member(e, s, s)
    with pytest.raises(NotMember):
        TripleIndex(e, s, e)


def test_q_leq(tcA1):
    g = tcA1.base_group
    e, s = g.identity, g.simple(0)
    a = TripleIndex(e, s, s)
    b = TripleIndex(s, e, s)
    assert q_leq(a, a)
    assert q_leq(a, b)
    assert not q_leq(TripleIndex(s, e, e), TripleIndex(e, e, e))


def test_q_interval_hat_examples(tcA1):
    g = tcA1.base_group
    e, s = g.identity, g.simple(0)
    fp = q_interval_hat(TripleIndex(e, e, e))
    assert len(fp.elements) == 2 and ZERO_HAT in fp.elements
    fp = q_interval_hat(TripleIndex(s, e, s))
    assert len(fp.elements) == 8
    assert check_pure(fp)[0]
    assert check_thin(fp)[0]
    # every rank-2 subinterval has exactly 4 elements (thin), spot formula
    for i in range(len(fp.elements)):
        for j in range(len(fp.elements)):
            if fp.leq(i, j) and fp.rank[j] - fp.rank[i] == 2:
                assert len(fp.interval(i, j)) == 4


def _q_interval_hat_oracle(top):
    """The Q-hat interval with every rank recomputed inside the cover loop."""
    members = [t for t in triples_below(top) if q_leq(t, top)]
    members.sort(key=lambda t: (t.rank(), t.key()))
    keys = [ZERO_HAT] + [t.key() for t in members]
    ranks = [0] + [t.rank() for t in members]
    covers = set()
    for i, a in enumerate(members):
        if a.rank() == 1:
            covers.add((0, 1 + i))
        for j, b in enumerate(members):
            if b.rank() - a.rank() == 1 and q_leq(a, b):
                covers.add((1 + i, 1 + j))
    return keys, covers, ranks


def _q_el_label_oracle(interval, tc):
    """Q-hat labels decoded cover by cover, with the order fitted to them."""
    g = tc.base_group
    ends = [None if key == ZERO_HAT else
            (tc.th(g.from_word(key[0]), g.from_word(key[1])), tc.embed(g.from_word(key[2])))
            for key in interval.elements]
    raw = {}
    for (i, j) in interval.covers:
        top2, u2 = ends[j]
        if ends[i] is None:
            raw[(i, j)] = (RIGHT, top2 * u2.inverse())
            continue
        top1, u1 = ends[i]
        if u1 is u2:
            raw[(i, j)] = (RIGHT, top2 * top1.inverse())
        else:
            assert top1 is top2
            raw[(i, j)] = (LEFT, u1 * u2.inverse())
    order = reflection_order_covering(tc.ext_group, [t for (_, t) in raw.values()],
                                      first_nodes=range(tc.base.size))
    return {cover: EdgeLabel(tag, t) for cover, (tag, t) in raw.items()}, order


def test_q_interval_hat_matches_oracle(tcA1, tcA2):
    """Every A1/A2 top with l(w) + l(u) - l(v) <= 3 keeps its keys, covers
    and ranks, its labels, its fitted order and its EL report."""
    tops = 0
    for tc in (tcA1, tcA2):
        full = tc.base_group.ball(3)
        for w, v, u in itertools.product(full, repeat=3):
            if q_member(w, v, u) and w.length() + u.length() - v.length() <= 3:
                top = TripleIndex(w, v, u)
                fp = q_interval_hat(top)
                assert (fp.elements, fp.covers, fp.rank) == _q_interval_hat_oracle(top)
                lp = q_el_label(fp, tc)
                labels, order = _q_el_label_oracle(fp, tc)
                assert lp.labels == labels
                assert lp.order.reflections == order.reflections
                want = verify_el(LabeledPoset(fp, labels, order))
                got = verify_el(lp)
                assert (got.ok, got.reason, got.interval) == (want.ok, want.reason, want.interval)
                tops += 1
    assert tops == 149


def test_triples_enumeration_oracle(tcA1, tcA2):
    """The bounded middle-coordinate scan lists exactly the members of Q
    below the top, each once."""
    gA1 = tcA1.base_group
    cases = [(gA1, TripleIndex(gA1.simple(0), gA1.identity, gA1.simple(0)))]
    g = tcA2.base_group
    cases += [(g, TripleIndex(g.simple(0), g.identity, g.simple(1) * g.simple(0))),
              (g, TripleIndex(g.simple(0) * g.simple(1), g.simple(0), g.simple(0)))]
    for group, top in cases:
        full = ParabolicContext(group, range(group.n)).elements()
        listed = [t.key() for t in triples_below(top)]
        got = set(listed)
        assert len(listed) == len(got)
        expect = set()
        for w, v, u in itertools.product(full, repeat=3):
            if q_member(w, v, u) and q_leq(TripleIndex(w, v, u), top):
                expect.add(TripleIndex(w, v, u).key())
        assert got == expect


def test_q_el_label(tcA1):
    g = tcA1.base_group
    e, s = g.identity, g.simple(0)
    fp = q_interval_hat(TripleIndex(s, e, s))
    lp = q_el_label(fp, tcA1)
    assert verify_el(lp).ok
    # the 0-hat covers carry genuine reflections tagged r
    z = fp.elements.index(ZERO_HAT)
    for (a, b), lab in lp.labels.items():
        if a == z:
            assert lab.tag == "reflection-right"
            assert (lab.reflection * lab.reflection).is_identity()
    # rank-one triples get th(w,v) * u^{-1}
    eee = fp.elements.index(((), (), ()))
    t = lp.labels[(z, eee)].reflection
    assert t == tcA1.ext_group.simple(tcA1.inf)


def test_q_el_label_respects_finite_first(tcA2):
    g = tcA2.base_group
    top = TripleIndex(g.simple(0) * g.simple(1), g.simple(0), g.simple(0))
    fp = q_interval_hat(top)
    lp = q_el_label(fp, tcA2)
    order = lp.order
    inf = tcA2.inf
    from twistflag.posets import root_of_reflection
    seen_outside = False
    for t in order.reflections:
        outside = root_of_reflection(t)[inf] > 0
        if outside:
            seen_outside = True
        else:
            assert not seen_outside, "finite-part reflection after an infinite one"
    assert verify_el(lp).ok


def test_h_embedding_fidelity(tcA1):
    """q_leq agrees with interval containment in the thickened order."""
    g = tcA1.base_group
    full = ParabolicContext(g, range(g.n)).elements()
    members = [TripleIndex(w, v, u)
               for w, v, u in itertools.product(full, repeat=3)
               if q_member(w, v, u)]
    for a in members:
        for b in members:
            ha_lo, ha_hi = tcA1.embed(a.u), tcA1.th(a.w, a.v)
            hb_lo, hb_hi = tcA1.embed(b.u), tcA1.th(b.w, b.v)
            contained = (j_leq(hb_lo, ha_lo, tcA1.I)
                         and j_leq(ha_lo, ha_hi, tcA1.I)
                         and j_leq(ha_hi, hb_hi, tcA1.I))
            assert q_leq(a, b) == contained


def test_z_sample_examples():
    pin = PinnedGroup(2)
    g = pin.weyl
    e, s = g.identity, g.simple(0)
    g1, g2 = z_sample(pin, e, e, e, [])
    assert g1.is_identity() and g2.is_identity()
    g1, g2 = z_sample(pin, s, e, s, [3, 4])
    assert g1 == pin.y(0, 3) and g2 == pin.x(0, 4)
    g1, g2 = z_sample(pin, s, s, e, [])
    assert g1 == pin.lift(s)
    with pytest.raises(NotMember):
        z_sample(pin, e, s, e, [])
    with pytest.raises(ValueError):
        z_sample(pin, s, e, s, [1])


def test_z_sample_refuses_float_parameters():
    """A float parameter is refused, in either Marsh-Rietsch factor."""
    pin = PinnedGroup(2)
    s = pin.weyl.simple(0)
    for params in ([3, 0.5], [0.5, 4]):
        with pytest.raises(ValueError, match="not exact"):
            z_sample(pin, s, pin.weyl.identity, s, params)


def test_z_sample_injectivity():
    """Distinct parameter vectors give distinct pairs (g1, g2 B^-)."""
    import itertools as it
    from twistflag import canonical_flag_minus
    pin = PinnedGroup(3)
    g = pin.weyl
    w = g.simple(0) * g.simple(1)
    v = g.identity
    u = g.simple(0)
    dim = w.length() + u.length() - v.length()
    assert dim == 3
    seen = set()
    for params in it.product((1, 2, 4), repeat=dim):
        g1, g2 = z_sample(pin, w, v, u, params, check=False)
        seen.add((g1, canonical_flag_minus(g2)))
    assert len(seen) == 27


def test_z_closure_matches_paper_index_set(tcA2):
    """Closure = {w'<=w, v<=v', u'<=u, w' o_l v' <= u'} by double enumeration."""
    g = tcA2.base_group
    full = ParabolicContext(g, range(g.n)).elements()
    s1, s2 = g.simple(0), g.simple(1)
    for (w, v, u) in [(s1, g.identity, s2 * s1), (s1 * s2, s1, s1)]:
        got = z_closure_indices(w, v, u)
        expect = set()
        for wp, vp, up in itertools.product(full, repeat=3):
            if (bruhat_leq(wp, w) and bruhat_leq(v, vp) and bruhat_leq(up, u)
                    and bruhat_leq(demazure_min(wp, vp), up)):
                expect.add(TripleIndex(wp, vp, up).key())
        assert got == expect


def test_link_face_poset(tcA1):
    g = weyl_group(cartan_A(1))
    e, s = g.identity, g.simple(0)
    single = link_face_poset(s, e)
    assert len(single.elements) == 1
    v_shape = link_face_poset(s, s)
    assert len(v_shape.elements) == 3
    assert v_shape.rank == [0, 0, 1]
    with pytest.raises(ValueError):
        link_face_poset(e, e)
    # the boundary, with a bottom and a top adjoined, is thin
    from twistflag import FinitePoset
    bd = link_boundary_poset(s, s)
    n = len(bd.elements)
    diamond = FinitePoset(list(bd.elements) + ["bot", "top"],
                          set(bd.covers) | {(n, i) for i in range(n)}
                          | {(i, n + 1) for i in range(n)},
                          [r + 1 for r in bd.rank] + [0, 2])
    assert check_thin(diamond)[0]


def _link_face_poset_oracle(w, u):
    """The link face poset from an all-pairs Bruhat table, as (keys, covers, ranks)."""
    g = w.group
    w_down = [x for x in g.ball(w.length()) if g.bruhat_leq(x, w)]
    u_down = [x for x in g.ball(u.length()) if g.bruhat_leq(x, u)]
    pairs = [(a, b) for a in w_down for b in u_down
             if not (a.is_identity() and b.is_identity())]
    pairs.sort(key=lambda p: (p[0].length() + p[1].length(),
                              p[0].canonical_word(), p[1].canonical_word()))
    keys = [(tuple(a.canonical_word()), tuple(b.canonical_word())) for a, b in pairs]
    ranks = [a.length() + b.length() - 1 for a, b in pairs]
    covers = set()
    for i, (a1, b1) in enumerate(pairs):
        for j, (a2, b2) in enumerate(pairs):
            if g.bruhat_leq(a1, a2) and g.bruhat_leq(b1, b2) and ranks[j] - ranks[i] == 1:
                covers.add((i, j))
    return keys, covers, ranks


def _link_boundary_poset_oracle(w, u):
    """The oracle face poset with its top renumbered away."""
    keys, covers, ranks = _link_face_poset_oracle(w, u)
    top_key = (tuple(w.canonical_word()), tuple(u.canonical_word()))
    keep = [i for i, k in enumerate(keys) if k != top_key]
    renum = {v: k for k, v in enumerate(keep)}
    return ([keys[i] for i in keep],
            {(renum[a], renum[b]) for a, b in covers if a in renum and b in renum},
            [ranks[i] for i in keep])


def test_link_posets_match_oracle():
    """Every pair of A2, B2 and A3 with 1 <= l(w) + l(u) <= 5 keeps the
    elements, covers and ranks of its face and boundary posets."""
    pairs = 0
    for cartan in (cartan_A(2), cartan_B2(), cartan_A(3)):
        g = weyl_group(cartan)
        full = ParabolicContext(g, range(g.n)).elements()
        for w, u in itertools.product(full, repeat=2):
            if 1 <= w.length() + u.length() <= 5:
                fp = link_face_poset(w, u)
                assert (fp.elements, fp.covers, fp.rank) == _link_face_poset_oracle(w, u)
                bd = link_boundary_poset(w, u)
                assert (bd.elements, bd.covers, bd.rank) == _link_boundary_poset_oracle(w, u)
                pairs += 1
    assert pairs == 318


def test_link_boundary_sphere(tcA2):
    g = weyl_group(cartan_A(2))
    s1, s2 = g.simple(0), g.simple(1)
    # boundary of the link at (s1, s1): two points, a 0-sphere
    bd = link_boundary_poset(s1, s1)
    h = reduced_homology(order_complex(bd, "full"))
    assert is_sphere_signature(h, 0)
    # (s1 s2, s1): boundary sphere of dimension 1
    bd = link_boundary_poset(s1 * s2, s1)
    h = reduced_homology(order_complex(bd, "full"))
    assert is_sphere_signature(h, 1)


def test_triple_serialization(tcA1):
    g = tcA1.base_group
    t = TripleIndex(g.simple(0), g.identity, g.simple(0))
    data = triple_to_json(t)
    assert data == {"w": [0], "v": [], "u": [0]}
    assert triple_from_json(g, data) == t
