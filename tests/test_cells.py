import collections
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistflag import (DecompositionFails, NotComparable, ParabolicContext,
                       ParamSampler, PatternViolation, PinnedGroup, RatMatrix,
                       big_cell_test, birkhoff_stratum, bruhat_stratum,
                       canonical_flag, canonical_flag_minus, cartan_A,
                       double_bruhat_stratum, double_minus_stratum, j_leq,
                       j_length,
                       matrix_from_json, matrix_to_json, mixed_stratum,
                       richardson_stratum, sample_mr, sample_twisted_cell,
                       sigma_factorize, sigma_recompose, tnn_test,
                       twisted_stratum)
from twistflag.batteries import all_subsets, twisted_pairs
from twistflag.cells import _lower_unitriangular_inverse, sigma_domain_representative
from twistflag.ratmat import left_factor, unipotent_left_factor

from elimination_oracles import inverse, ldu, pivoted_det, udl, unipotent_lu, unipotent_ul


def _dense_product(a, b):
    """Oracle for RatMatrix.__mul__: the full triple sum, zero terms included."""
    n = a.n
    return RatMatrix([[sum(a.rows[i][k] * b.rows[k][j] for k in range(n)) for j in range(n)]
                      for i in range(n)])


def _leading_minors(m):
    """Oracle for big_cell_test: the leading principal minors by determinants."""
    return [m.minor(range(k + 1), range(k + 1)) for k in range(m.n)]


@pytest.fixture(scope="module")
def pin2():
    return PinnedGroup(2)


@pytest.fixture(scope="module")
def pin3():
    return PinnedGroup(3)


@pytest.fixture(scope="module")
def pin4():
    return PinnedGroup(4)


def test_generators(pin2):
    a = Fraction(3, 7)
    assert pin2.x(0, a).rows == ((1, a), (0, 1))
    assert pin2.y(0, a).rows == ((1, 0), (a, 1))
    t = pin2.cochar(0, 5)
    assert t.rows == ((5, 0), (0, Fraction(1, 5)))
    assert pin2.lift_simple(0).rows == ((0, 1), (-1, 0))
    assert pin2.lift((0,)).rows == ((0, 1), (-1, 0))
    for m in (pin2.x(0, a), pin2.y(0, a), t, pin2.lift_simple(0)):
        assert m.det() == 1


def test_lift_braid_invariance(pin3, pin4):
    assert pin3.lift((0, 1, 0)) == pin3.lift((1, 0, 1))
    g = pin4.weyl
    w0 = max(g.ball(6), key=g.length)
    m = pin4.lift(w0)
    # a different reduced word for w0 gives the same lift
    alt = (2, 1, 2, 0, 1, 2)
    assert g.from_word(alt) == w0
    ref = RatMatrix.identity(4)
    for i in alt:
        ref = ref * pin4.lift_simple(i)
    assert ref == m


def test_ratmat_basics():
    m = RatMatrix([[1, 2], [3, 4]])
    assert m.det() == -2
    assert (m * inverse(m)).is_identity()
    with pytest.raises(ZeroDivisionError):
        inverse(RatMatrix([[1, 2], [2, 4]]))
    assert RatMatrix([[1, 2], [2, 4]]).det() == 0
    assert m.transpose().rows == ((1, 3), (2, 4))
    assert m.minor([0], [1]) == 2
    assert _leading_minors(m) == [1, -2]


def test_lu_ul():
    m = RatMatrix([[1, 1], [1, 2]])
    L, D, U = ldu(m)
    assert (L * RatMatrix([[D[0], 0], [0, D[1]]]) * U) == m
    U2, D2, L2 = udl(m)
    assert (U2 * RatMatrix([[D2[0], 0], [0, D2[1]]]) * L2) == m
    with pytest.raises(DecompositionFails):
        ldu(RatMatrix([[0, 1], [-1, 0]]))
    with pytest.raises(DecompositionFails):
        unipotent_lu(RatMatrix([[2, 0], [0, Fraction(1, 2)]]))


def test_matrix_json_roundtrip():
    m = RatMatrix([[1, Fraction(2, 3)], [0, 1]])
    data = matrix_to_json(m)
    assert data == [["1", "2/3"], ["0", "1"]]
    assert matrix_from_json(data) == m
    assert matrix_from_json([[1, "-2/3"], [0, "1"]]) == RatMatrix([[1, Fraction(-2, 3)], [0, 1]])


@pytest.mark.parametrize("entry", [0.1, 1.0, True, False, None, [1]])
def test_matrix_from_json_refuses_inexact(entry):
    """A float would become a binary fraction (0.1 is not 1/10), and a
    bool or any other non-exact type is no matrix entry: each is refused,
    not coerced."""
    with pytest.raises(ValueError, match="not exact"):
        matrix_from_json([[entry, 0], [0, 10]])


def _rand_upper(pin, rng):
    n = pin.n
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(rng.integer(1, 7))
        for j in range(i + 1, n):
            rows[i][j] = Fraction(rng.integer(1, 7))
    det = 1
    for i in range(n):
        det *= rows[i][i]
    rows[0] = [x / det for x in rows[0]]
    return RatMatrix(rows)


def _rand_lower(pin, rng):
    return _rand_upper(pin, rng).transpose()


@pytest.mark.parametrize("n", [3, 4])
def test_stratum_dictionaries_by_sampling_oracle(n):
    """Derive the rank-profile <-> permutation dictionaries by sampling.

    For every w in the symmetric group, random b1 * lift(w) * b2 products
    must recover w, for all four Borel-pair conventions.
    """
    pin = PinnedGroup(n)
    g = pin.weyl
    rng = ParamSampler(1234 + n).child("oracle")
    full = ParabolicContext(g, range(g.n)).elements()
    for w in full:
        dot = pin.lift(w)
        for trial in range(3):
            b1, b2 = _rand_upper(pin, rng), _rand_upper(pin, rng)
            l1, l2 = _rand_lower(pin, rng), _rand_lower(pin, rng)
            assert bruhat_stratum(pin, b1 * dot * b2) == w
            assert birkhoff_stratum(pin, l1 * dot * b2) == w
            assert double_minus_stratum(pin, l1 * dot * l2) == w
            assert mixed_stratum(pin, b1 * dot * l2) == w


def _rank_profile_bruhat(pin, m, w):
    """Literal rank-profile comparison: rank of lower-left corners."""
    n = pin.n
    dot = pin.lift(w)

    def rk(mat, i, j):
        rows = range(i, n)
        cols = range(j + 1)
        sub = [[Fraction(mat.rows[r][c]) for c in cols] for r in rows]
        rank = 0
        for c in range(len(cols)):
            piv = next((r for r in range(rank, len(sub)) if sub[r][c] != 0), None)
            if piv is None:
                continue
            sub[rank], sub[piv] = sub[piv], sub[rank]
            pv = sub[rank][c]
            for r in range(len(sub)):
                if r != rank and sub[r][c] != 0:
                    f = sub[r][c] / pv
                    sub[r] = [x - f * y for x, y in zip(sub[r], sub[rank])]
            rank += 1
        return rank

    return all(rk(m, i, j) == rk(dot, i, j) for i in range(n) for j in range(n))


def test_bruhat_stratum_matches_rank_profile(pin3):
    """The elimination agrees with the defining rank-profile criterion."""
    g = pin3.weyl
    rng = ParamSampler(7).child("profile")
    for w in ParabolicContext(g, range(2)).elements():
        m = _rand_upper(pin3, rng) * pin3.lift(w) * _rand_upper(pin3, rng)
        assert _rank_profile_bruhat(pin3, m, bruhat_stratum(pin3, m))


def test_stratum_examples(pin2, pin3):
    g = pin2.weyl
    s = g.simple(0)
    e = g.identity
    assert bruhat_stratum(pin2, RatMatrix.identity(2)) == e
    assert bruhat_stratum(pin2, pin2.lift(s)) == s
    assert bruhat_stratum(pin2, pin2.y(0, 1)) == s
    assert birkhoff_stratum(pin2, RatMatrix.identity(2)) == e
    assert birkhoff_stratum(pin2, pin2.y(0, 1)) == e
    assert birkhoff_stratum(pin2, pin2.lift(s)) == s
    assert richardson_stratum(pin2, RatMatrix.identity(2)) == (e, e)
    assert richardson_stratum(pin2, pin2.y(0, 1)) == (e, s)
    assert richardson_stratum(pin2, pin2.lift(s)) == (s, s)
    assert double_bruhat_stratum(pin2, RatMatrix.identity(2)) == (e, e)
    assert double_bruhat_stratum(pin2, pin2.lift(s)) == (s, s)
    assert double_bruhat_stratum(pin2, pin2.y(0, 1) * pin2.x(0, 1)) == (s, s)


def test_twisted_stratum_examples(pin3):
    g = pin3.weyl
    J = ParabolicContext(g, {1})
    assert twisted_stratum(pin3, RatMatrix.identity(3), J) == (g.identity, g.identity)
    J0 = ParabolicContext(g, set())
    rng = ParamSampler(11).child("tw")
    for w in g.ball(3):
        m = _rand_upper(pin3, rng) * pin3.lift(w) * _rand_lower(pin3, rng).transpose()
        assert twisted_stratum(pin3, m, J0) == richardson_stratum(pin3, m)


def test_big_cell(pin2, pin3):
    g2 = pin2.weyl
    J0 = ParabolicContext(g2, set())
    assert not big_cell_test(pin2, pin2.lift(g2.simple(0)), g2.identity, J0)
    assert big_cell_test(pin2, pin2.y(0, 1), g2.identity, J0)
    # explicit member of the big cell at r
    g3 = pin3.weyl
    J = ParabolicContext(g3, {1})
    r = g3.simple(0)
    member = pin3.lift(r) * pin3.y(0, 2) * pin3.x(1, 3)  # r-dot * (^JU^- element)
    assert big_cell_test(pin3, member, r, J)


def test_sample_mr(pin2, pin3):
    g2 = pin2.weyl
    s = g2.simple(0)
    cs = sample_mr(pin2, "negative", g2.identity, (0,), [1])
    assert cs.matrix == pin2.y(0, 1)
    assert richardson_stratum(pin2, cs.matrix) == (g2.identity, s)
    cs = sample_mr(pin2, "negative", s, (0,), [])
    assert cs.matrix == pin2.lift(s)
    g3 = pin3.weyl
    s2 = g3.simple(1)
    cs = sample_mr(pin3, "negative", s2, (0, 1, 0), [3, 7])
    assert cs.matrix == pin3.y(0, 3) * pin3.lift(s2) * pin3.y(0, 7)
    assert richardson_stratum(pin3, cs.matrix) == (s2, g3.from_word((0, 1, 0)))
    with pytest.raises(ValueError):
        sample_mr(pin2, "negative", g2.identity, (0,), [1, 2])
    with pytest.raises(ValueError):
        sample_mr(pin2, "negative", g2.identity, (0,), [-1])


def test_sample_twisted_cell_examples(pin3):
    g = pin3.weyl
    s1, s2 = g.simple(0), g.simple(1)
    e = g.identity
    w0 = s1 * s2 * s1
    J = ParabolicContext(g, {1})
    cs = sample_twisted_cell(pin3, w0, w0, J, [])
    assert cs.matrix == pin3.lift(w0)
    cs = sample_twisted_cell(pin3, s2, s1, J, [2, 5])
    assert twisted_stratum(pin3, cs.matrix, J) == (s2, s1)
    cs = sample_twisted_cell(pin3, e, w0, J, [4])
    assert twisted_stratum(pin3, cs.matrix, J) == (e, w0)
    with pytest.raises(NotComparable):
        sample_twisted_cell(pin3, s1, w0, J, [1])
    with pytest.raises(ValueError):
        sample_twisted_cell(pin3, s2, s1, J, [1])  # wrong parameter count
    data = cs.to_json()
    assert data["kind"] == "twisted" and data["params"] == ["4"]


def test_one_dim_cells_both_signs(pin3):
    """J-length difference one: the +-parameter sampler covers both signs
    and stays in the stratum."""
    g = pin3.weyl
    for J_set in (set(), {0}, {1}, {0, 1}):
        J = ParabolicContext(g, J_set)
        for v in g.ball(3):
            for w in g.ball(3):
                if not j_leq(v, w, J) or j_length(w, J) - j_length(v, J) != 1:
                    continue
                for a in (Fraction(3), Fraction(-3)):
                    # nonzero version of the sampler: same product shape
                    from twistflag.twisted import minimal_c, mr_positive_subexpression
                    c = minimal_c(v, w, J)
                    v_rep, v_part = J.decompose(v)
                    w_rep, w_part = J.decompose(w)
                    word1 = g.canonical_word(w_rep)
                    word2 = g.canonical_word(c.inverse()) + g.canonical_word(v_part)
                    marks1 = mr_positive_subexpression(v_rep * c, word1)
                    marks2 = mr_positive_subexpression(w_part, word2)
                    m = RatMatrix.identity(3)
                    for letter, mark in zip(word1, marks1):
                        m = m * (pin3.lift_simple(letter) if mark is not None
                                 else pin3.y(letter, a))
                    for letter, mark in zip(word2, marks2):
                        m = m * (pin3.lift_simple(letter) if mark is not None
                                 else pin3.x(letter, a))
                    assert twisted_stratum(pin3, m, J) == (v, w)


def test_sigma_factorize(pin3):
    g = pin3.weyl
    s1 = g.simple(0)
    J0 = ParabolicContext(g, set())
    # identity factors trivially
    g2, h2 = sigma_factorize(pin3, RatMatrix.identity(3), g.identity, J0)
    assert g2.is_identity() and h2.is_identity()
    # r = e, J = empty, g in U^-: (identity, g)
    m = pin3.y(0, 2) * pin3.y(1, 5)
    g2, h2 = sigma_factorize(pin3, m, g.identity, J0)
    assert g2.is_identity() and h2 == m
    # conjugated domain element
    rdot = pin3.lift(s1)
    m = rdot * pin3.y(1, 3) * inverse(rdot)
    g2, h2 = sigma_factorize(pin3, m, s1, J0)
    assert sigma_recompose(g2, h2) == m
    with pytest.raises(PatternViolation):
        sigma_factorize(pin3, pin3.x(0, 1), g.identity, J0)  # not in U^-
    with pytest.raises(PatternViolation):
        sigma_recompose(RatMatrix.identity(3), pin3.x(0, 1))  # h2 not lower-unitriangular


def test_sigma_full_pipeline(pin3):
    g = pin3.weyl
    J = ParabolicContext(g, {1})
    v, w = g.simple(1), g.simple(0)
    sam = sample_twisted_cell(pin3, v, w, J, [2, 5])
    wj0 = pin3.lift(J.longest())
    between = [r for r in g.ball(3) if j_leq(v, r, J) and j_leq(r, w, J)]
    assert len(between) == 4
    for r in between:
        assert big_cell_test(pin3, sam.matrix, r, J)
        gmat = sigma_domain_representative(pin3, sam.matrix, r, J)
        g2, h2 = sigma_factorize(pin3, gmat, r, J)
        rd = pin3.lift(r)
        assert twisted_stratum(pin3, g2 * rd, J) == (v, r)
        assert twisted_stratum(pin3, h2 * rd, J) == (r, w)
        rec = sigma_recompose(g2, h2)
        assert canonical_flag(rec * rd * wj0) == canonical_flag(sam.matrix * wj0)


def test_canonical_flag_invariance(pin3):
    rng = ParamSampler(5).child("flag")
    for _ in range(20):
        m = pin3.y(0, rng.integer()) * pin3.lift_simple(1) * pin3.x(0, rng.integer())
        b = _rand_upper(pin3, rng)
        assert canonical_flag(m * b) == canonical_flag(m)
        assert canonical_flag(m * pin3.x(1, rng.integer())) == canonical_flag(m)


def test_canonical_flag_minus_invariance(pin3):
    rng = ParamSampler(5).child("flag-minus")
    for _ in range(20):
        m = pin3.x(0, rng.integer()) * pin3.lift_simple(1) * pin3.y(0, rng.integer())
        b = _rand_lower(pin3, rng)
        assert canonical_flag_minus(m * b) == canonical_flag_minus(m)
        assert canonical_flag_minus(m * pin3.y(1, rng.integer())) == canonical_flag_minus(m)
    with pytest.raises(ZeroDivisionError):
        canonical_flag_minus(RatMatrix([[1, 2, 0], [2, 4, 0], [0, 0, 1]]))


def test_tnn(pin2, pin3):
    assert tnn_test(pin2, RatMatrix.identity(2))
    assert tnn_test(pin2, pin2.y(0, 1) * pin2.x(0, 1))
    assert not tnn_test(pin2, pin2.x(0, -1))
    # monoid property
    rng = ParamSampler(99).child("monoid")
    mats = []
    for _ in range(6):
        m = RatMatrix.identity(3)
        for _ in range(3):
            kind = rng.integer(0, 2)
            i = rng.integer(0, 1)
            if kind == 0:
                m = m * pin3.x(i, rng.fraction())
            elif kind == 1:
                m = m * pin3.y(i, rng.fraction())
            else:
                m = m * pin3.cochar(i, rng.fraction())
        mats.append(m)
        assert tnn_test(pin3, m)
    for a in mats[:3]:
        for b in mats[3:]:
            assert tnn_test(pin3, a * b)


def test_tnn_refuses_wrong_size(pin3):
    """Minors over range(pin.n) would miss the rest of a larger matrix:
    a 4 x 4 matrix with one negative entry outside the top-left 3 x 3
    block is refused by PinnedGroup(3), and found by PinnedGroup(4)."""
    big = RatMatrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, -5, 1]])
    assert not tnn_test(PinnedGroup(4), big)
    for g in (big, RatMatrix.identity(2)):
        with pytest.raises(ValueError, match="not in SL_3"):
            tnn_test(pin3, g)


def test_size_budget():
    with pytest.raises(ValueError):
        PinnedGroup(6)
    pin6 = PinnedGroup(6, allow_large=True)
    with pytest.raises(ValueError):
        tnn_test(pin6, RatMatrix.identity(6))


def test_generators_refuse_floats(pin2, pin3):
    """Parameters are exact: a float is refused, not stored as an entry."""
    for make in (pin2.x, pin2.y, pin2.cochar):
        with pytest.raises(ValueError, match="not exact"):
            make(0, 0.25)
        assert make(0, Fraction(1, 4)) == make(0, Fraction(2, 8))
    g = pin3.weyl
    w0 = g.from_word((0, 1, 0))
    J = ParabolicContext(g, {1})
    with pytest.raises(ValueError, match="not exact"):
        sample_twisted_cell(pin3, g.identity, w0, J, [0.5])


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_lift_simple_matches_generators(n):
    pin = PinnedGroup(n)
    for i in range(n - 1):
        ref = _dense_product(_dense_product(pin.x(i, 1), pin.y(i, -1)), pin.x(i, 1))
        assert pin.lift_simple(i) == ref
        assert pin.lift_simple(i) is pin.lift_simple(i)
    with pytest.raises(IndexError):
        pin.lift_simple(n - 1)


_ENTRIES = st.one_of(st.just(0), st.integers(-6, 6),
                     st.fractions(min_value=-4, max_value=4, max_denominator=6))


@st.composite
def _operand(draw, n):
    """A dense, monomial (signed permutation times a scalar) or elementary
    n x n matrix over ints and Fractions, some of its rows maybe zeroed."""
    kind = draw(st.sampled_from(("dense", "monomial", "elementary")))
    if kind == "dense":
        rows = [[draw(_ENTRIES) for _ in range(n)] for _ in range(n)]
    elif kind == "monomial":
        perm = draw(st.permutations(range(n)))
        scale = draw(st.sampled_from((1, -1, Fraction(1), Fraction(-3, 2))))
        rows = [[scale if j == perm[i] else 0 for j in range(n)] for i in range(n)]
    else:
        i, j = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                    .filter(lambda ij: ij[0] != ij[1]))
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        rows[i][j] = draw(_ENTRIES)
    for i in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        rows[i] = [0] * n
    return RatMatrix(rows)


_PAIRS = st.integers(2, 5).flatmap(lambda n: st.tuples(_operand(n), _operand(n)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_PAIRS)
def test_product_matches_dense(pair):
    a, b = pair
    got, ref = a * b, _dense_product(a, b)
    # skipped zero terms leave int entries where the dense sum has Fractions
    assert got == ref and hash(got) == hash(ref)
    assert all(isinstance(x, (int, Fraction)) for row in got.rows for x in row)


def _udl_by_reversal_matrix(m):
    """Oracle for udl: conjugate by the reversal permutation matrix."""
    n = m.n
    rev = RatMatrix([[int(i + j == n - 1) for j in range(n)] for i in range(n)])
    L1, D1, U1 = ldu(rev * m * rev)
    return rev * L1 * rev, list(reversed(D1)), rev * U1 * rev


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_PAIRS)
def test_udl_matches_reversal_matrix(pair):
    m = pair[0] * pair[1]
    try:
        ref = _udl_by_reversal_matrix(m)
    except DecompositionFails:
        with pytest.raises(DecompositionFails):
            udl(m)
        return
    U, D, L = udl(m)
    assert (U, D, L) == ref
    diag = RatMatrix([[D[i] if i == j else 0 for j in range(m.n)] for i in range(m.n)])
    assert U * diag * L == m
    assert left_factor(m, False) == (U, tuple(reversed(D)))
    assert left_factor(m.transpose(), False)[0].transpose() == L


def _random_product(rng, n):
    """A product of 1 to 8 generators of SL_n (x_i(a) and y_i(a) with a in
    -3..3, torus elements and simple lifts), so that leading minors vanish
    by cancellation as well as by permutation; one in four has a row
    replaced by the sum of two others, which makes it singular."""
    pin = PinnedGroup(n)
    m = RatMatrix.identity(n)
    for _ in range(rng.randint(1, 8)):
        i, kind = rng.randrange(n - 1), rng.randrange(4)
        if kind == 3:
            m = m * pin.lift_simple(i)
        elif kind == 2:
            m = m * pin.cochar(i, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
        else:
            m = m * (pin.x, pin.y)[kind](i, rng.randint(-3, 3))
    if rng.randrange(4) == 0:
        rows = [list(row) for row in m.rows]
        a, b, c = rng.sample(range(n), 3) if n > 2 else (0, 1, 1)
        rows[a] = [x + y for x, y in zip(rows[b], rows[c])]
        m = RatMatrix(rows)
    return m


def test_sweep_reads_match_oracles():
    """Seeded random SL2-SL5 products: det is the pivoted determinant, and
    each triangular factor read off one sweep (the left factor of m, and
    of m^T transposed back) is the LDU or UDL factor of the elimination
    oracles, with both sides failing on the same matrices."""
    rng = random.Random(1901)
    kinds = collections.Counter()
    for trial in range(1200):
        m = _random_product(rng, 2 + trial % 4)
        assert m.det() == pivoted_det(m)
        for left_to_right, oracle in ((True, ldu), (False, udl)):
            try:
                left, d, right = oracle(m)
            except DecompositionFails:
                for a in (m, m.transpose()):
                    with pytest.raises(DecompositionFails):
                        left_factor(a, left_to_right)
                    with pytest.raises(DecompositionFails):
                        unipotent_left_factor(a, left_to_right)
                kinds["fails, singular" if m.det() == 0 else "fails"] += 1
                continue
            d = tuple(d) if left_to_right else tuple(reversed(d))
            assert left_factor(m, left_to_right) == (left, d)
            assert left_factor(m.transpose(), left_to_right) == (right.transpose(), d)
            unipotent = unipotent_lu if left_to_right else unipotent_ul
            try:
                uni = unipotent(m)
            except DecompositionFails:
                with pytest.raises(DecompositionFails):
                    unipotent_left_factor(m, left_to_right)
                kinds["splits"] += 1
                continue
            assert unipotent_left_factor(m, left_to_right) == uni[0]
            assert unipotent_left_factor(m.transpose(), left_to_right).transpose() == uni[1]
            kinds["splits, unipotent"] += 1
    assert all(kinds[k] > 0 for k in ("fails", "fails, singular", "splits", "splits, unipotent"))


def test_big_cell_and_sigma_match_oracles(pin3):
    """SL3, every J, every pair with J-length difference <= 2, every r in W:
    big_cell_test agrees with the leading minors of the transported matrix,
    and for r between v and w the domain representative and the
    recomposition agree with their four-inverse and L^-1 g2 forms."""
    g = pin3.weyl
    els = ParabolicContext(g, range(g.n)).elements()
    sampler = ParamSampler(17)
    seen = set()
    h2_inverses = 0
    for J_set in all_subsets(g.n):
        J = ParabolicContext(g, J_set)
        wj0 = pin3.lift(J.longest())
        for v, w in twisted_pairs(g, J, els, 2):
            dim = j_length(w, J) - j_length(v, J)
            child = sampler.child(tuple(sorted(J_set)), g.canonical_word(v),
                                  g.canonical_word(w))
            m = sample_twisted_cell(pin3, v, w, J, child.integers(dim)).matrix
            for r in els:
                rd = pin3.lift(r)
                inside = all(x != 0 for x in _leading_minors(
                    inverse(rd * wj0) * m * wj0))
                assert big_cell_test(pin3, m, r, J) == inside
                seen.add(inside)
                if not (inside and j_leq(v, r, J) and j_leq(r, w, J)):
                    continue
                L = ldu(inverse(wj0) * inverse(rd) * m * wj0)[0]
                gmat = sigma_domain_representative(pin3, m, r, J)
                assert gmat == rd * (wj0 * L * inverse(wj0)) * inverse(rd)
                g2, h2 = sigma_factorize(pin3, gmat, r, J)
                assert (g2, h2) == (unipotent_lu(gmat)[1], unipotent_ul(gmat)[1])
                h2_inv = _lower_unitriangular_inverse(h2)
                assert h2_inv == inverse(h2)
                h2_inverses += 1
                L2 = unipotent_lu(g2 * h2_inv)[0]
                assert sigma_recompose(g2, h2) == inverse(L2) * g2 == gmat
    assert seen == {True, False}
    assert h2_inverses > 0


def test_lift_inverses_are_transposes():
    """lift(r) and lift(r) lift(w_{J,0}) are signed permutation matrices, so
    their inverses are their transposes: every r and J in SL2-SL4."""
    pairs = 0
    for n in (2, 3, 4):
        pin = PinnedGroup(n)
        g = pin.weyl
        els = ParabolicContext(g, range(g.n)).elements()
        for J_set in all_subsets(g.n):
            wj0 = pin.lift(ParabolicContext(g, J_set).longest())
            for r in els:
                for p in (pin.lift(r), pin.lift(r) * wj0):
                    assert p.transpose() == inverse(p)
                pairs += 1
    assert pairs == 220


def test_weyl_of_perm_rejects_non_permutations(pin3):
    """A repeated entry, an entry out of range and a wrong length are each
    refused with a ValueError, before any position lookup."""
    for p in ((0, 0, 1), (0, 1, 5), (1, 0)):
        with pytest.raises(ValueError, match="not a permutation"):
            pin3.weyl_of_perm(p)
    assert pin3.weyl_of_perm((1, 0, 2)) == pin3.weyl.simple(0)
