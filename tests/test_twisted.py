import itertools
import random

import pytest
from hypothesis import HealthCheck, given, settings
from test_weyl import _gcm

from twistflag import (AmbiguousMinimum, IncomparablePair, NotComparable,
                       NotLeq, ParabolicContext, bruhat_leq, cartan_A,
                       cartan_B2, cartan_G2, cartan_affine_A1, circ_lJ,
                       demazure_max_inverse, demazure_min, j_interval, j_leq,
                       j_length, minimal_c, mr_positive_subexpression)
from twistflag.weyl import WeylGroup, weyl_group


@pytest.fixture
def A2():
    return weyl_group(cartan_A(2))


def all_J(group):
    out = []
    for k in range(group.n + 1):
        out.extend(ParabolicContext(group, J)
                   for J in itertools.combinations(range(group.n), k))
    return out


def test_j_length(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    w0 = s1 * s2 * s1
    J = ParabolicContext(A2, {1})
    Jempty = ParabolicContext(A2, set())
    for w in A2.ball(3):
        assert j_length(w, Jempty) == w.length()
    assert j_length(s2, J) == -1
    assert j_length(w0, J) == 1


def test_j_leq_degenerate_cases(A2):
    Jempty = ParabolicContext(A2, set())
    Jfull = ParabolicContext(A2, {0, 1})
    for v in A2.ball(3):
        for w in A2.ball(3):
            assert j_leq(v, w, Jempty) == bruhat_leq(v, w)
            assert j_leq(v, w, Jfull) == bruhat_leq(w, v)


def test_j_leq_examples(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    w0 = s1 * s2 * s1
    J = ParabolicContext(A2, {1})
    assert j_leq(s2, s1, J)
    assert not j_leq(s1, w0, J)


def test_j_leq_partial_order_all_finite_rank2():
    for cartan in (cartan_A(2), cartan_B2()):
        g = weyl_group(cartan)
        els = g.ball(10)
        for J in all_J(g):
            rel = {(a, b): j_leq(a, b, J) for a in els for b in els}
            for a in els:
                assert rel[(a, a)]
            for a in els:
                for b in els:
                    if rel[(a, b)] and rel[(b, a)]:
                        assert a == b
            for a, b, c in itertools.product(els, repeat=3):
                if rel[(a, b)] and rel[(b, c)]:
                    assert rel[(a, c)]


@settings(max_examples=60, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_gcm())
def test_j_leq_axioms_property(cartan):
    """On a ball of a random symmetrizable group of rank <= 3 (finite, affine
    or indefinite) and for every J, <=J is reflexive, antisymmetric and
    transitive, and <=J for J empty is the Bruhat order."""
    g = WeylGroup(cartan)
    els = g.ball(5)
    for J in all_J(g):
        below = {a: {b for b in els if j_leq(b, a, J)} for a in els}
        for a in els:
            assert a in below[a]
            for b in below[a]:
                assert b is a or a not in below[b]
                assert below[b] <= below[a]
            if not J.J:
                assert below[a] == {b for b in els if bruhat_leq(b, a)}


def test_finite_type_translation():
    """v <=J w iff v*w_{J,0} <= w*w_{J,0} when W_J is finite."""
    for cartan in (cartan_A(2), cartan_B2()):
        g = weyl_group(cartan)
        els = g.ball(10)
        for J in all_J(g):
            wj0 = J.longest()
            for v in els:
                for w in els:
                    assert j_leq(v, w, J) == bruhat_leq(v * wj0, w * wj0)


def test_j_leq_affine_samples():
    g = weyl_group(cartan_affine_A1())
    els = g.ball(5)
    for J in all_J(g):
        for a in els:
            assert j_leq(a, a, J)
        for a in els:
            for b in els:
                if j_leq(a, b, J) and j_leq(b, a, J):
                    assert a == b
                if j_leq(a, b, J) and a != b:
                    assert j_length(a, J) < j_length(b, J)


def test_minimal_c_examples(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    e = A2.identity
    w0 = s1 * s2 * s1
    J = ParabolicContext(A2, {1})
    for w in A2.ball(3):
        assert minimal_c(w, w, J).is_identity()
    assert minimal_c(e, w0, J) == s2
    assert minimal_c(s2, s1, J).is_identity()
    with pytest.raises(NotComparable):
        minimal_c(s1, w0, J)


def test_minimal_c_length_relations():
    for cartan in (cartan_A(2), cartan_B2()):
        g = weyl_group(cartan)
        els = g.ball(10)
        for J in all_J(g):
            for v in els:
                for w in els:
                    if not j_leq(v, w, J):
                        continue
                    c = minimal_c(v, w, J)
                    _, vj = J.decompose(v)
                    _, wj = J.decompose(w)
                    assert (c * wj).length() == wj.length() - c.length()
                    assert (c.inverse() * vj).length() == c.length() + vj.length()


def _brute_demazure_min(group, w, v):
    cands = [x * v for x in group.ball(w.length()) if bruhat_leq(x, w)]
    best = min(cands, key=group.length)
    assert all(bruhat_leq(best, c) for c in cands)
    return best


def _brute_demazure_max_inverse(group, w, u):
    cands = [x.inverse() * y
             for x in group.ball(w.length()) if bruhat_leq(x, w)
             for y in group.ball(u.length()) if bruhat_leq(y, u)]
    best = max(cands, key=group.length)
    assert all(bruhat_leq(c, best) for c in cands)
    return best


def test_demazure_examples(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    e = A2.identity
    for w in A2.ball(3):
        assert demazure_min(w, e).is_identity()
        assert demazure_min(e, w) == w
        assert demazure_max_inverse(e, w) == w
        assert demazure_max_inverse(w, e) == w.inverse()
    assert demazure_min(s1 * s2, s2 * s1).is_identity()
    assert demazure_max_inverse(s1, s1) == s1


def test_demazure_against_brute_force():
    for cartan in (cartan_A(2), cartan_B2()):
        g = weyl_group(cartan)
        els = [w for w in g.ball(4)]
        for w in els:
            for v in els:
                assert demazure_min(w, v) == _brute_demazure_min(g, w, v)
                assert demazure_max_inverse(w, v) == _brute_demazure_max_inverse(g, w, v)


def test_circ_lJ(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    J = ParabolicContext(A2, {1})
    Jempty = ParabolicContext(A2, set())
    Jfull = ParabolicContext(A2, {0, 1})
    assert circ_lJ(0, s2, J) == s2
    for i in range(2):
        for w in A2.ball(3):
            # ordinary order: the Bruhat-smaller of the pair
            got = circ_lJ(i, w, Jempty)
            sw = A2.simple(i) * w
            assert got == (sw if sw.length() < w.length() else w)
            # opposite order: the Bruhat-bigger
            got = circ_lJ(i, w, Jfull)
            assert got == (sw if sw.length() > w.length() else w)


def test_circ_lJ_monotone():
    """s_i o_l^J is monotone for <=J (downward lemma), exhaustively at rank 2."""
    for cartan in (cartan_A(2), cartan_B2()):
        g = weyl_group(cartan)
        els = g.ball(10)
        for J in all_J(g):
            for i in range(g.n):
                for v in els:
                    for w in els:
                        if j_leq(v, w, J):
                            assert j_leq(circ_lJ(i, v, J), circ_lJ(i, w, J), J)


def test_j_interval_examples(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    e = A2.identity
    w0 = s1 * s2 * s1
    J = ParabolicContext(A2, {1})
    Jempty = ParabolicContext(A2, set())
    single = j_interval(s1, s1, J)
    assert len(single.elements) == 1
    iv = j_interval(s2, s1, J)
    assert {z.canonical_word() for z in iv.elements} == {(1,), (), (0, 1), (0,)}
    assert sorted(set(iv.jlengths.values())) == [-1, 0, 1]
    full = j_interval(e, w0, Jempty)
    assert len(full.elements) == 6
    ranks = sorted(full.jlengths.values())
    assert ranks == [0, 1, 1, 2, 2, 3]
    with pytest.raises(NotComparable):
        j_interval(s1, e, Jempty)


def test_j_interval_against_double_filter_oracle():
    """Candidate bounds validated against a generous-ball double filter."""
    for cartan in (cartan_A(2), cartan_B2()):
        g = weyl_group(cartan)
        els = g.ball(10)
        for J in all_J(g):
            for x in els:
                for y in els:
                    if not j_leq(x, y, J):
                        continue
                    got = {z for z in j_interval(x, y, J).elements}
                    expect = {z for z in els if j_leq(x, z, J) and j_leq(z, y, J)}
                    assert got == expect


def test_j_interval_affine():
    g = weyl_group(cartan_affine_A1())
    J = ParabolicContext(g, {1})
    e = g.identity
    s0 = g.simple(0)
    top = s0 * g.simple(1) * s0
    iv = j_interval(e, top, J)
    # oracle: double filter over a generous ball
    expect = {z for z in g.ball(8) if j_leq(e, z, J) and j_leq(z, top, J)}
    assert set(iv.elements) == expect
    # covers raise J-length by exactly one
    for a, b in iv.covers:
        assert iv.jlengths[b] - iv.jlengths[a] == 1


def _assert_graded(iv):
    """The covers read off the J-length grading generate <=J on the interval."""
    closure = iv.to_finite_poset()
    for i, a in enumerate(iv.elements):
        for j, b in enumerate(iv.elements):
            assert closure.leq(i, j) == j_leq(a, b, iv.J), (a, b)


def test_j_interval_covers_generate_j_leq():
    """Every twisted interval of A2, B2 and G2 (every J), a seeded sample of
    those of A3, and those between elements of length at most 5 in affine
    A1: the covers, read off adjacent J-length levels, generate <=J on the
    interval, so the J-length grades it."""
    for cartan in (cartan_A(2), cartan_B2(), cartan_G2()):
        g = weyl_group(cartan)
        els = g.full_context().elements()
        for J in all_J(g):
            for x in els:
                for y in els:
                    if j_leq(x, y, J):
                        _assert_graded(j_interval(x, y, J))
    g = weyl_group(cartan_A(3))
    els = g.full_context().elements()
    rng = random.Random(3)
    for J in all_J(g):
        pairs = [(x, y) for x in els for y in els if j_leq(x, y, J)]
        for x, y in rng.sample(pairs, 40):
            _assert_graded(j_interval(x, y, J))
    g = weyl_group(cartan_affine_A1())
    els = g.ball(5)
    for J in all_J(g):
        for x in els:
            for y in els:
                if j_leq(x, y, J):
                    _assert_graded(j_interval(x, y, J))


def _j_interval_poset_oracle(iv):
    """The interval's poset from its elements alone: sorted by (J-length,
    canonical word), covers by an all-pairs ``j_leq`` test one J-length
    apart, ranks counted from the bottom; as (keys, covers, ranks) and the
    cover pairs as elements."""
    jl = iv.jlengths
    els = sorted(iv.elements, key=lambda z: (jl[z], z.canonical_word()))
    covers = {(a, b) for a in els for b in els
              if jl[b] - jl[a] == 1 and j_leq(a, b, iv.J)}
    index = {z: k for k, z in enumerate(els)}
    return (([z.canonical_word() for z in els], {(index[a], index[b]) for a, b in covers},
             [jl[z] - jl[iv.bottom] for z in els]), covers)


def test_j_interval_poset_matches_oracle():
    """Every twisted interval between elements of length at most 3 in A3,
    B2 and G2 (every J) keeps the elements, covers and ranks of the
    all-pairs builder."""
    intervals = 0
    for cartan in (cartan_A(3), cartan_B2(), cartan_G2()):
        g = weyl_group(cartan)
        els = g.ball(3)
        for J in all_J(g):
            for x in els:
                for y in els:
                    if j_leq(x, y, J):
                        iv = j_interval(x, y, J)
                        fp = iv.to_finite_poset()
                        poset, covers = _j_interval_poset_oracle(iv)
                        assert (fp.elements, fp.covers, fp.rank) == poset
                        assert iv.covers == covers
                        intervals += 1
    assert intervals == 874


def test_positive_subexpression(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    e = A2.identity
    w0 = s1 * s2 * s1
    assert mr_positive_subexpression(e, (0, 1, 0)) == (None, None, None)
    assert mr_positive_subexpression(w0, (0, 1, 0)) == (0, 1, 0)
    assert mr_positive_subexpression(s2, (0, 1, 0)) == (None, 1, None)
    with pytest.raises(NotLeq):
        mr_positive_subexpression(s1 * s2, (1, 0))  # not below s2 s1
    with pytest.raises(NotLeq):
        mr_positive_subexpression(s1, (0, 0))  # word not reduced


def test_positive_subexpression_uniqueness():
    """The greedy subexpression is the only positive one (exhaustive scan)."""
    g = weyl_group(cartan_B2())
    for w in g.ball(4):
        word = g.canonical_word(w)
        n = len(word)
        for v in g.ball(4):
            if not bruhat_leq(v, w):
                continue
            greedy = mr_positive_subexpression(v, word)
            positives = []
            for mask in range(1 << n):
                marks = tuple(word[i] if mask >> i & 1 else None for i in range(n))
                prefix = g.identity
                ok = True
                for k, letter in enumerate(word):
                    grown = prefix * g.simple(letter)
                    if grown.length() <= prefix.length():
                        ok = False
                        break
                    if marks[k] is not None:
                        prefix = grown
                if ok and prefix == v:
                    positives.append(marks)
            assert positives == [greedy]


def test_interval_export(A2):
    from twistflag.posets import poset_from_json, poset_to_dot, poset_to_json
    s1, s2 = A2.simple(0), A2.simple(1)
    J = ParabolicContext(A2, {1})
    fp = j_interval(s2, s1, J).to_finite_poset()
    data = poset_to_json(fp)
    assert set(data) == {"elements", "covers", "rank"}
    fp2 = poset_from_json(data)
    assert fp2.covers == fp.covers
    assert fp2.rank == fp.rank
    dot = poset_to_dot(fp)
    assert dot.startswith("digraph") and "->" in dot
