import sys

import pytest

from twistflag import SimplicialComplex, homology


def _quadratic_maximal_facets(facets) -> list:
    """The facet filter that compares every facet with every other one: the
    oracle of the vertex-indexed filter in ``SimplicialComplex``."""
    fs = {tuple(sorted(set(f))) for f in facets}
    return sorted(f for f in fs if not any(set(f) < set(g) for g in fs if g != f))


@pytest.fixture(scope="session")
def quadratic_maximal_facets():
    return _quadratic_maximal_facets


@pytest.fixture(autouse=True)
def _facets_match_quadratic_filter(monkeypatch):
    """Every complex a test builds, order complexes among them, keeps the
    facets that the quadratic filter keeps."""
    init = SimplicialComplex.__init__

    def checked(self, vertices, facets):
        facets = list(facets)
        init(self, vertices, facets)
        assert self.facets == _quadratic_maximal_facets(facets)
    monkeypatch.setattr(SimplicialComplex, "__init__", checked)


@pytest.fixture(autouse=True)
def _homology_matches_snf(monkeypatch):
    """Every complex whose homology a test computes, through any module
    that imported ``reduced_homology``, gets the profile that the Smith
    forms of the whole complex give."""
    fast, snf = homology.reduced_homology, homology._snf_homology

    def checked(c):
        h = fast(c)
        assert h == snf(homology.boundary_matrices(c))
        return h
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get("reduced_homology") is fast:
            monkeypatch.setattr(module, "reduced_homology", checked)
