import itertools

import pytest

from twistflag import (FinitePoset, MissingReflection, NonReducedWord,
                       ParabolicContext, SimplicialComplex,
                       assemble_QJ_interval, cartan_A, cartan_B2,
                       cartan_affine_A1, check_pure, check_thin,
                       el_label_qj_interval, el_label_twisted_interval,
                       j_interval, order_complex, reflection_order_covering,
                       reflection_order_from_word, shelling_order, verify_el)
from twistflag.posets import (LEFT, RIGHT, EdgeLabel, LabeledPoset,
                              ReflectionOrder, ZERO_HAT, root_of_reflection)
from twistflag.weyl import weyl_group


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
