import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twistflag import (BoundaryError, CartanMatrix, ChainComplexZ, Inconclusive,
                       ParabolicContext, SimplicialComplex, boundary_matrices,
                       cartan_A, euler_characteristic, homology, is_sphere_signature,
                       j_interval, link_boundary_poset, order_complex,
                       reduced_homology, smith_normal_form, sphere_dimension)
from twistflag.homology import (FACE_BUDGET, HomologyProfile, _coreduce, _dense_snf,
                                homology_to_json)
from twistflag.weyl import weyl_group


def _dense_boundaries(c):
    """The dense boundary matrices ``F_{k-1} x F_k`` of a complex: the
    oracle of the sparse columns of ``boundary_matrices``."""
    faces = c.faces()
    index = {k: {f: i for i, f in enumerate(faces[k])} for k in faces}
    boundaries = {}
    for k in sorted(faces):
        if k == 0:
            continue
        mat = [[0] * len(faces[k]) for _ in range(len(faces[k - 1]))]
        for j, f in enumerate(faces[k]):
            for drop in range(len(f)):
                sub = f[:drop] + f[drop + 1:]
                mat[index[k - 1][sub]][j] = 1 if drop % 2 == 0 else -1
        boundaries[k] = mat
    return boundaries


def _vectors(mat):
    """The rows of a dense matrix as sparse vectors."""
    return [{j: x for j, x in enumerate(row) if x} for row in mat]


def _columns(mat):
    """The columns of a dense matrix as sparse vectors."""
    return _vectors(zip(*mat))


def _check_against_dense(c):
    """Sparse boundaries equal the dense oracle column by column, and their
    Smith forms equal the dense Smith forms."""
    cx = boundary_matrices(c)
    dense = _dense_boundaries(c)
    assert set(cx.boundaries) == set(dense)
    for k, mat in dense.items():
        assert cx.boundary(k) == _columns(mat)
        assert smith_normal_form(cx.boundary(k)) == _dense_snf(mat)
    return cx


def test_boundary_matrices():
    point = SimplicialComplex(1, [(0,)])
    cx = boundary_matrices(point)
    assert cx.boundaries == {}
    edge = SimplicialComplex(2, [(0, 1)])
    cx = boundary_matrices(edge)
    assert cx.boundary(1) == [{0: -1, 1: 1}]
    triangle = SimplicialComplex(3, [(0, 1), (0, 2), (1, 2)])
    b1 = boundary_matrices(triangle).boundary(1)
    assert all(sum(col.values()) == 0 for col in b1)
    _, rank = smith_normal_form(b1)
    assert rank == 2
    for c in (point, edge, triangle, SimplicialComplex(4, [(0, 1, 2, 3)])):
        _check_against_dense(c)


def test_boundary_squares_to_zero():
    filled = SimplicialComplex(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    cx = boundary_matrices(filled)  # checks d(d(x)) = 0 internally
    assert set(cx.boundaries) == {1, 2}
    # flipping one sign of d_2 breaks d_1 d_2 = 0 and must be caught
    bad = {k: [dict(col) for col in cols] for k, cols in cx.boundaries.items()}
    bad[2][0][0] = -bad[2][0][0]
    assert bad[2][0][0] != 0
    with pytest.raises(BoundaryError, match="boundary of boundary"):
        ChainComplexZ(cx.faces, bad)
    ChainComplexZ(cx.faces, cx.boundaries)


def test_smith_normal_form():
    def snf(mat):
        out = smith_normal_form(_vectors(mat))
        assert smith_normal_form(_columns(mat)) == out
        return out
    assert snf([[1, 0], [0, 1]]) == ([1, 1], 2)
    assert snf([[2, 0], [0, 4]]) == ([2, 4], 2)
    assert snf([[2, 4], [6, 8]]) == ([2, 4], 2)
    assert snf([[0, 0], [0, 0]]) == ([], 0)
    assert snf([]) == ([], 0)
    diag, rank = snf([[6, 0], [0, 10]])
    assert diag == [2, 30] and rank == 2  # divisibility chain enforced
    # invariant factors divide in order, random-ish integer matrices
    mats = [[[3, 1, 4], [1, 5, 9], [2, 6, 5]],
            [[12, 8], [20, 16]],
            [[2, 3], [4, 6]]]
    for m in mats:
        diag, rank = snf(m)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0
    # explicit zero entries in a vector are not entries
    assert smith_normal_form([{0: 0, 1: 2}, {1: 0}]) == ([2], 1)


def _link_complexes(cartan, max_length):
    """Order complexes of every link with 1 <= l(w) + l(u) <= max_length."""
    full = ParabolicContext(weyl_group(cartan), range(cartan.size)).elements()
    for w, u in itertools.product(full, repeat=2):
        if 1 <= w.length() + u.length() <= max_length:
            yield order_complex(link_boundary_poset(w, u), "full")


def test_snf_matches_dense_on_link_boundaries():
    complexes = [c for n in (1, 2) for c in _link_complexes(cartan_A(n), 5)]
    assert sum(len(_dense_boundaries(c)) for c in complexes) > 30
    for c in complexes:
        _check_against_dense(c)


def test_snf_matches_dense_on_A3_interval():
    g = weyl_group(cartan_A(3))
    x = g.from_word((1,))
    y = g.from_word((0, 1, 2, 1, 0))
    fp = j_interval(x, y, ParabolicContext(g, {1})).to_finite_poset()
    cx = _check_against_dense(order_complex(fp, "open-interval"))
    assert sum(len(f) for f in cx.faces.values()) == 1130


@st.composite
def _int_matrices(draw):
    """Up to 7x7 over [-6, 6]: empty shapes, zero rows and columns, and
    matrices with no unit entry, which skip the sparse phase entirely."""
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    values = list(range(-6, 7))
    if draw(st.booleans()):
        values = [x for x in values if x not in (1, -1)]
    entry = st.one_of(st.just(0), st.sampled_from(values))
    zero_rows, zero_cols = draw(st.sets(st.integers(0, 6))), draw(st.sets(st.integers(0, 6)))
    return [[0 if i in zero_rows or j in zero_cols else draw(entry) for j in range(cols)]
            for i in range(rows)]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_int_matrices())
def test_snf_matches_dense_property(m):
    diag, rank = smith_normal_form(_vectors(m))
    assert (diag, rank) == _dense_snf(m)
    assert smith_normal_form(_columns(m)) == (diag, rank)
    assert len(diag) == rank and all(d >= 1 for d in diag)
    assert all(b % a == 0 for a, b in zip(diag, diag[1:]))


def test_snf_matches_sympy():
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    from sympy import ZZ, Matrix
    rng = random.Random(8)
    mats = []
    for _ in range(150):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        mats.append([[rng.choice((0, 0, 1, -1, 2, -3, 4, 6)) for _ in range(c)]
                     for _ in range(r)])
    mats += [m for c in _link_complexes(cartan_A(1), 3) for m in _dense_boundaries(c).values()]
    for m in mats:
        expected = [abs(int(d)) for d in normalforms.invariant_factors(Matrix(m), domain=ZZ)
                    if d != 0]
        assert smith_normal_form(_vectors(m)) == (expected, len(expected))


def test_reduced_homology_spheres():
    two_points = SimplicialComplex(2, [(0,), (1,)])
    h = reduced_homology(two_points)
    assert h.betti == {0: 1} and not h.torsion
    assert is_sphere_signature(h, 0)
    assert not is_sphere_signature(h, 1)
    hollow = SimplicialComplex(3, [(0, 1), (0, 2), (1, 2)])
    h = reduced_homology(hollow)
    assert h.betti == {1: 1} and not h.torsion
    assert is_sphere_signature(h, 1)
    assert sphere_dimension(h) == 1
    # boundary of a tetrahedron: S^2
    s2 = SimplicialComplex(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
    h = reduced_homology(s2)
    assert is_sphere_signature(h, 2)
    # a cone is contractible
    cone = SimplicialComplex(3, [(0, 1, 2)])
    h = reduced_homology(cone)
    assert h.betti == {} and h.torsion == {}
    assert sphere_dimension(h) is None
    # empty complex: the (-1)-sphere
    h = reduced_homology(SimplicialComplex(0, []))
    assert is_sphere_signature(h, -1)


@pytest.fixture
def snf_calls(monkeypatch):
    """The complexes that ``reduced_homology`` hands to its Smith-form
    fallback, in order."""
    calls = []
    snf = homology._snf_homology

    def spy(cx):
        calls.append(cx)
        return snf(cx)
    monkeypatch.setattr(homology, "_snf_homology", spy)
    return calls


def _critical(c) -> dict:
    return _coreduce(boundary_matrices(c))


def test_projective_plane_torsion(snf_calls):
    """The 6-vertex real projective plane has H_1 = Z/2.  Its critical
    cells sit in the adjacent dimensions 1 and 2, where the Morse
    differential is multiplication by 2, so the Smith forms decide."""
    rp2 = SimplicialComplex(6, [
        (0, 1, 4), (0, 1, 5), (0, 2, 3), (0, 2, 4), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 4, 5), (3, 4, 5)])
    assert _critical(rp2) == {1: 1, 2: 1}
    h = reduced_homology(rp2)
    assert len(snf_calls) == 1
    assert h.betti == {}
    assert h.torsion == {1: [2]}
    assert not is_sphere_signature(h, 1)


def test_critical_counts(snf_calls):
    """Critical cells in pairwise non-adjacent dimensions are the reduced
    Betti numbers, read off with no Smith form; the (-1)-cell of the
    augmentation is critical only for the empty complex."""
    cases = [
        (SimplicialComplex(0, []), {-1: 1}),
        (SimplicialComplex(2, [(0,), (1,)]), {0: 1}),
        (SimplicialComplex(3, [(0, 1), (0, 2), (1, 2)]), {1: 1}),
        (SimplicialComplex(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]), {2: 1}),
        (SimplicialComplex(5, [(0, 1, 2, 3, 4)]), {}),            # a simplex
        (SimplicialComplex(4, [(0, 1, 2), (0, 2, 3)]), {}),        # a cone on a path
        # an edge, a point and a filled triangle: reduced H_0 = Z^2
        (SimplicialComplex(6, [(0, 1), (2,), (3, 4, 5)]), {0: 2}),
        # a point beside the boundary of a tetrahedron: S^0 and S^2 at once
        (SimplicialComplex(5, [(0,), (1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]),
         {0: 1, 2: 1}),
    ]
    for c, critical in cases:
        assert _critical(c) == critical
        assert reduced_homology(c) == HomologyProfile(critical, {})
    assert snf_calls == []


def test_adjacent_critical_cells_fall_back(snf_calls):
    """A point beside a circle leaves critical cells in dimensions 0 and 1;
    their Morse differential is zero here, but only the Smith forms may
    say so."""
    c = SimplicialComplex(4, [(0,), (1, 2), (1, 3), (2, 3)])
    assert _critical(c) == {0: 1, 1: 1}
    assert reduced_homology(c) == HomologyProfile({0: 1, 1: 1}, {})
    assert len(snf_calls) == 1


def test_coreduction_refuses_non_unit_pair():
    """A pair is a unimodular step only with incidence ±1; any other entry
    raises a package error, not an assertion."""
    cx = ChainComplexZ({0: [(0,), (1,)], 1: [(0, 1)]}, {1: [{0: 2, 1: -2}]})
    with pytest.raises(BoundaryError, match="incidence -2"):
        _coreduce(cx)


def test_b3_difference_8_coreduces_to_s6():
    """The open B3 interval (e, s1s2s1s3s2s1s3s2), J empty, J-length
    difference 8: its 31,574 faces lie under FACE_BUDGET and coreduce to
    one vertex, paired with the (-1)-cell, and one 6-cell.  That is an S^6
    signature with no Smith form (which gives the same, far more slowly)."""
    g = weyl_group(CartanMatrix([[2, -1, 0], [-1, 2, -1], [0, -2, 2]]))
    y = g.from_word((0, 1, 0, 2, 1, 0, 2, 1))
    fp = j_interval(g.identity, y, ParabolicContext(g, set())).to_finite_poset()
    cx = boundary_matrices(order_complex(fp, "open-interval"))
    assert sum(len(f) for f in cx.faces.values()) == 31_574 < FACE_BUDGET
    critical = _coreduce(cx)
    assert critical == {6: 1}
    assert sphere_dimension(HomologyProfile(critical, {})) == 6


def test_bruhat_interval_circle():
    g = weyl_group(cartan_A(2))
    e = g.identity
    w0 = g.simple(0) * g.simple(1) * g.simple(0)
    fp = j_interval(e, w0, ParabolicContext(g, set())).to_finite_poset()
    h = reduced_homology(order_complex(fp, "open-interval"))
    assert h.betti == {1: 1} and not h.torsion


def test_euler_characteristic():
    for sc, expected in [
        (SimplicialComplex(2, [(0,), (1,)]), 1),          # S^0
        (SimplicialComplex(3, [(0, 1), (0, 2), (1, 2)]), -1),  # S^1
        (SimplicialComplex(3, [(0, 1, 2)]), 0),           # disk
    ]:
        assert euler_characteristic(sc) == expected
        h = reduced_homology(sc)
        alt = sum((-1) ** k * b for k, b in h.betti.items() if k >= 0)
        assert alt == expected


def test_face_budget(monkeypatch):
    monkeypatch.setattr(homology, "FACE_BUDGET", 5)
    big = SimplicialComplex(4, [(0, 1, 2, 3)])
    with pytest.raises(Inconclusive):
        boundary_matrices(big)
    with pytest.raises(Inconclusive):
        reduced_homology(big)


def test_homology_json():
    hollow = SimplicialComplex(3, [(0, 1), (0, 2), (1, 2)])
    data = homology_to_json(reduced_homology(hollow))
    assert data == {"betti": [0, 0, 1], "torsion": [[], [], []], "sphere": 1}
    # consumes poset_lab's complex JSON
    rt = SimplicialComplex.from_json(hollow.to_json())
    assert homology_to_json(reduced_homology(rt)) == data


def test_profile_validation():
    with pytest.raises(ValueError):
        HomologyProfile({0: 1}, {0: [1]})
