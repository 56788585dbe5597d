import itertools

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from twistflag import (BudgetExceeded, CartanMatrix, ParabolicContext,
                       RatMatrix, WeylElement, bruhat_leq,
                       canonical_reduced_word, cartan_A, cartan_B2, cartan_G2,
                       cartan_affine_A1, descents, enumerate_ball,
                       extend_cartan, inversion_set, simple_reflection)
from twistflag.weyl import WeylGroup, weyl_group

from elimination_oracles import inverse


@pytest.fixture
def A2():
    return weyl_group(cartan_A(2))


def test_cartan_validation():
    with pytest.raises(ValueError):
        CartanMatrix([[2, -1], [0, 2]])  # broken vanishing pattern
    with pytest.raises(ValueError):
        CartanMatrix([[1, 0], [0, 2]])  # bad diagonal
    with pytest.raises(ValueError):
        CartanMatrix([[2, 1], [1, 2]])  # positive off-diagonal
    with pytest.raises(ValueError):
        CartanMatrix([[2, -1.7], [-1.2, 2]])  # not integers; int() would read A2
    with pytest.raises(ValueError):
        CartanMatrix([[2, -1], [-1, 2]], labels=["a", "a"])  # repeated label
    cm = cartan_B2()
    d = cm.symmetrizer
    for i in range(2):
        for j in range(2):
            assert d[i] * cm.entries[i][j] == d[j] * cm.entries[j][i]
    assert all(x > 0 for x in d)


def test_cartan_json_roundtrip():
    cm = CartanMatrix.from_json('{"cartan": [[2,-1],[-1,2]], "labels": ["1","2"]}')
    assert cm == cartan_A(2)
    assert cm.node_of_label("2") == 1
    assert CartanMatrix.from_config(cm.to_config()) == cm


def test_simple_reflection_convention(A2):
    s1 = A2.simple(0)
    # s_1(alpha_1) = -alpha_1, s_1(alpha_2) = alpha_2 + alpha_1
    assert s1.act((1, 0)) == (-1, 0)
    assert s1.act((0, 1)) == (1, 1)
    assert (s1 * s1).is_identity()
    a1 = weyl_group(cartan_A(1))
    assert a1.simple(0).mat == ((-1,),)
    with pytest.raises(IndexError):
        simple_reflection(cartan_A(2), 5)


def test_multiply_and_length(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    e = A2.identity
    assert e * s1 == s1
    assert (s1 * s1).is_identity()
    prod = s1 * s2
    assert prod.length() == 2
    assert prod.act((1, 0)) == (0, 1)  # s1 s2 (alpha_1) = alpha_2
    assert e.length() == 0
    assert (s1 * s2 * s1).length() == 3


def test_descents(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    assert descents(A2.identity, "right") == set()
    assert descents(s1, "right") == {0}
    assert descents(s1, "left") == {0}
    assert descents(s1 * s2, "right") == {1}
    assert descents(s1 * s2, "left") == {0}


def test_canonical_word(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    w0 = s1 * s2 * s1
    assert canonical_reduced_word(A2.identity) == ()
    assert canonical_reduced_word(w0) == (0, 1, 0)
    assert canonical_reduced_word(s2) == (1,)
    # evaluates back
    for w in A2.ball(3):
        assert A2.from_word(canonical_reduced_word(w)) == w


def _all_subwords_reduced(group, word, v):
    """Exhaustive subword oracle for the Bruhat order."""
    n = len(word)
    lv = group.length(v)
    for mask in range(1 << n):
        picked = [word[i] for i in range(n) if mask >> i & 1]
        if len(picked) == lv and group.from_word(picked) == v:
            return True
    return False


def test_bruhat_leq_against_subword_oracle(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    assert bruhat_leq(s1, s1 * s2)
    assert not bruhat_leq(s1 * s2, s2 * s1)
    for v in A2.ball(3):
        for w in A2.ball(3):
            expected = _all_subwords_reduced(A2, canonical_reduced_word(w), v)
            assert bruhat_leq(v, w) == expected
    b2 = weyl_group(cartan_B2())
    for v in b2.ball(4):
        for w in b2.ball(4):
            expected = _all_subwords_reduced(b2, canonical_reduced_word(w), v)
            assert bruhat_leq(v, w) == expected


def test_random_subwords_stay_below():
    """Evaluating any subword of a reduced word lands weakly below."""
    import random
    rng = random.Random(42)
    for cartan in (cartan_A(3), cartan_G2()):
        g = weyl_group(cartan)
        els = g.ball(5)
        for _ in range(60):
            w = rng.choice(els)
            word = canonical_reduced_word(w)
            picked = [i for i in word if rng.random() < 0.6]
            v = g.from_word(picked)
            assert bruhat_leq(v, w)


def test_bruhat_partial_order_axioms(A2):
    els = A2.ball(3)
    for v in els:
        assert bruhat_leq(v, v)
    for v in els:
        for w in els:
            if bruhat_leq(v, w) and bruhat_leq(w, v):
                assert v == w
    for a, b, c in itertools.product(els, repeat=3):
        if bruhat_leq(a, b) and bruhat_leq(b, c):
            assert bruhat_leq(a, c)


def test_parabolic_decompose(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    J = ParabolicContext(A2, {1})
    rep, part = J.decompose(s2)
    assert rep.is_identity() and part == s2
    rep, part = J.decompose(s1 * s2)
    assert rep == s1 and part == s2
    Jempty = ParabolicContext(A2, set())
    for w in A2.ball(3):
        rep, part = Jempty.decompose(w)
        assert rep == w and part.is_identity()
    # lengths add and the product reassembles, for every J
    for Jset in [set(), {0}, {1}, {0, 1}]:
        J = ParabolicContext(A2, Jset)
        for w in A2.ball(3):
            rep, part = J.decompose(w)
            assert rep * part == w
            assert rep.length() + part.length() == w.length()
            assert J.in_min_coset_reps(rep)
            assert J.contains(part)


@pytest.mark.parametrize("cartan,order", [
    (cartan_A(2), 6), (cartan_A(3), 24), (cartan_B2(), 8), (cartan_G2(), 12)])
def test_finite_group_orders(cartan, order):
    g = weyl_group(cartan)
    assert len(g.ball(30)) == order


def test_enumerate_ball(A2):
    assert len(enumerate_ball(cartan_A(2), 3)) == 6
    ball1 = enumerate_ball(cartan_A(2), 1)
    assert {w.canonical_word() for w in ball1} == {(), (0,), (1,)}
    aff = enumerate_ball(cartan_affine_A1(), 4)
    assert len(aff) == 9
    by_len = {}
    g = weyl_group(cartan_affine_A1())
    for w in aff:
        by_len.setdefault(g.length(w), []).append(w)
    assert {k: len(v) for k, v in by_len.items()} == {0: 1, 1: 2, 2: 2, 3: 2, 4: 2}
    with pytest.raises(BudgetExceeded):
        weyl_group(cartan_affine_A1(), budget=5).ball(100)
    # restriction to a parabolic
    g2 = weyl_group(cartan_A(2))
    J = ParabolicContext(g2, {1})
    assert len(enumerate_ball(cartan_A(2), 5, restrict_to=J)) == 2


def test_inversion_set(A2):
    s1, s2 = A2.simple(0), A2.simple(1)
    assert inversion_set(A2.identity) == []
    assert inversion_set(s1) == [(1, 0)]
    assert inversion_set(s1 * s2) == [(1, 0), (1, 1)]
    for w in A2.ball(3):
        inv = inversion_set(w)
        assert len(inv) == w.length()
        assert len(set(inv)) == len(inv)
        for beta in inv:
            assert all(x >= 0 for x in beta) and any(x > 0 for x in beta)


def test_length_equals_inversion_count_g2():
    g = weyl_group(cartan_G2())
    for w in g.ball(6):
        assert len(inversion_set(w)) == w.length()
        assert len(canonical_reduced_word(w)) == w.length()


def test_parabolic_longest():
    g = weyl_group(cartan_A(3))
    J = ParabolicContext(g, {0, 1})
    assert J.longest().length() == 3
    assert J.is_finite()
    aff = weyl_group(cartan_affine_A1(), budget=200)
    Jaff = ParabolicContext(aff, {0, 1})
    assert not Jaff.is_finite()


def test_finiteness_decided_once(monkeypatch):
    """The whole-group context is built once and its verdict, negative
    included, is not recomputed."""
    aff = weyl_group(cartan_affine_A1(), budget=200)
    full = aff.full_context()
    assert full is aff.full_context() and full.J == {0, 1}
    assert not full.is_finite()
    calls = []
    monkeypatch.setattr(aff, "ball", lambda *a, **k: calls.append(a))
    assert not full.is_finite() and not aff.full_context().is_finite()
    assert calls == []
    a3 = weyl_group(cartan_A(3))
    assert a3.full_context().is_finite() and len(a3.full_context().elements()) == 24


# -- the enumerating paths the Weyl layer replaced, kept as oracles ---------

def _mat_mul(a, b, n):
    """The dense matrix product that the column-update kernel replaced."""
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _descents_by_column_sign(w: WeylElement) -> set:
    """The i whose column w(alpha_i) is a negative root."""
    cols = [[row[i] for row in w.mat] for i in range(w.group.n)]
    return {i for i, col in enumerate(cols) if max(col) <= 0 < -min(col)}


def _check_kernel(g: WeylGroup, radius: int):
    """Products, neighbour slots and descent sets against the dense oracles,
    and interning: every element reached is the one interned for its matrix."""
    ball = g.ball(radius)
    reached = list(ball)
    for x in ball:
        for y in ball:
            xy = x * y
            assert xy.mat == _mat_mul(x.mat, y.mat, g.n), (x, y)
            reached.append(xy)
        for i in range(g.n):
            xs = g._times_simple(x, i)
            assert xs is x * g.simple(i) and x._nbr[i] is xs
            assert g._times_simple(xs, i) is x and xs._nbr[i] is x
        des = g.right_descents(x)
        assert isinstance(des, frozenset) and des is g.right_descents(x)
        assert des == _descents_by_column_sign(x)
        reached += [x.inverse(), g.from_word(canonical_reduced_word(x))]
    by_mat = {}
    for x in reached:
        assert g._elements[x.mat] is x
        assert by_mat.setdefault(x.mat, x) is x  # equal matrices, same object

def _bfs_finite(ctx: ParabolicContext, cap: int) -> bool:
    """W_J is finite iff its breadth-first enumeration ends within cap elements."""
    try:
        ctx.group.ball(cap, ctx.J, budget=cap)
    except BudgetExceeded:
        return False
    return True


def _longest_by_scan(ctx: ParabolicContext) -> WeylElement:
    """The unique element of maximal length in the enumerated W_J."""
    els = ctx.elements()
    top = max(els, key=ctx.group.length)
    assert sum(1 for e in els if e.length() == top.length()) == 1
    return top


_B3 = CartanMatrix([[2, -1, 0], [-1, 2, -2], [0, -1, 2]])
_F4 = CartanMatrix([[2, -1, 0, 0], [-1, 2, -2, 0], [0, -1, 2, -1], [0, 0, -1, 2]])
_ORACLE_MATRICES = {
    "A3": (cartan_A(3), 24),
    "A4": (cartan_A(4), 120),
    "B2": (cartan_B2(), 8),
    "G2": (cartan_G2(), 12),
    "B3": (_B3, 48),
    "F4": (_F4, 1152),
    "affine A1": (cartan_affine_A1(), None),
    "affine A2": (CartanMatrix([[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]), None),
    "[[2,-3],[-3,2]]": (CartanMatrix([[2, -3], [-3, 2]]), None),
    "hyperbolic rank 3": (CartanMatrix([[2, -2, 0], [-2, 2, -1], [0, -1, 2]]), None),
    "thickened A1": (extend_cartan(cartan_A(1)).extended, None),
    "thickened A2": (extend_cartan(cartan_A(2)).extended, None),
}


@pytest.mark.parametrize("name", sorted(_ORACLE_MATRICES))
def test_weyl_layer_matches_oracles(name):
    """The Cartan-form verdict, the greedy-ascent longest element, the
    descent-walk inverse and the column-update products agree with the BFS,
    the max-length scan, the Fraction inverse and the dense product."""
    cartan, order = _ORACLE_MATRICES[name]
    g = weyl_group(cartan)
    for r in range(g.n + 1):
        for J in itertools.combinations(range(g.n), r):
            ctx = ParabolicContext(g, J)
            finite = ctx.is_finite()
            assert finite == _bfs_finite(ctx, 2_000), J
            if finite:
                assert ctx.longest() == _longest_by_scan(ctx), J
            else:
                with pytest.raises(BudgetExceeded):
                    ctx.longest()
    assert g.full_context().is_finite() == (order is not None)
    if order is not None:
        assert len(g.full_context().elements()) == order
    for w in g.ball(4):
        assert RatMatrix(w.inverse().mat) == inverse(RatMatrix(w.mat))  # Fraction oracle
        assert w.inverse().inverse() is w
        assert g.length(w) == len(canonical_reduced_word(w)) == len(inversion_set(w))
    _check_kernel(g, 3)


@st.composite
def _gcm(draw):
    """A random generalized Cartan matrix of rank <= 3 that is symmetrizable."""
    n = draw(st.integers(1, 3))
    a = [[2] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        if draw(st.booleans()):
            a[i][j], a[j][i] = draw(st.integers(-3, -1)), draw(st.integers(-3, -1))
        else:
            a[i][j] = a[j][i] = 0
    try:
        return CartanMatrix(a)
    except ValueError:  # a 3-cycle with a12*a23*a31 != a21*a32*a13 has no symmetrizer
        assume(False)


@settings(max_examples=30, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_gcm())
def test_weyl_layer_properties(cartan):
    g = WeylGroup(cartan)
    for r in range(g.n + 1):
        for J in itertools.combinations(range(g.n), r):
            ctx = ParabolicContext(g, J)
            assert ctx.is_finite() == _bfs_finite(ctx, 5_000), J
    for w in g.ball(3):
        assert w.inverse().inverse() is w
        assert w.length() == len(inversion_set(w))
    _check_kernel(g, 3)


def test_finiteness_from_cartan_form(monkeypatch):
    """The verdict does not depend on the group budget, and neither it nor
    the longest element enumerates W_J."""
    assert weyl_group(cartan_A(3), budget=5).full_context().is_finite()

    def no_enumeration(*args, **kwargs):
        raise AssertionError("W_J was enumerated")

    monkeypatch.setattr(WeylGroup, "ball", no_enumeration)
    a7 = ParabolicContext(weyl_group(cartan_A(7)), range(7))
    assert a7.is_finite() and a7.longest().length() == 28
    assert not ParabolicContext(weyl_group(cartan_affine_A1()), {0, 1}).is_finite()
    assert ParabolicContext(weyl_group(cartan_affine_A1()), {1}).is_finite()


def test_element_serialization(A2):
    from twistflag.weyl import element_from_json, element_to_json
    w = A2.simple(0) * A2.simple(1)
    assert element_to_json(w) == [0, 1]
    assert element_from_json(A2, [0, 1]) == w


def test_inverse(A2):
    for w in A2.ball(3):
        assert (w * w.inverse()).is_identity()
    with pytest.raises(ValueError):
        WeylElement(A2, ((2, 0), (0, 1))).inverse()  # inverse not integral
    with pytest.raises(ValueError):
        WeylElement(A2, ((1, 1), (1, 1))).inverse()  # singular


def test_mismatched_groups_rejected():
    g1 = weyl_group(cartan_A(2))
    g2 = weyl_group(cartan_B2())
    with pytest.raises(ValueError):
        g1.simple(0) * g2.simple(0)
