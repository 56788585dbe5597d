import sys

import pytest

from twistflag import SimplicialComplex, homology, posets


def _quadratic_maximal_facets(facets) -> list:
    """The facet filter that compares every facet with every other one: the
    oracle of the vertex-indexed filter in ``SimplicialComplex``."""
    fs = {tuple(sorted(set(f))) for f in facets}
    return sorted(f for f in fs if not any(set(f) < set(g) for g in fs if g != f))


@pytest.fixture(scope="session")
def quadratic_maximal_facets():
    return _quadratic_maximal_facets


def _verify_el_exhaustive(lp) -> posets.ELReport:
    """The EL check that enumerates every maximal chain of every
    subinterval: the oracle of the dynamic program in ``verify_el``."""
    p = lp.poset
    n = len(p.elements)
    for x in range(n):
        for y in p._leq[x]:
            if x == y:
                continue
            chains = p.maximal_chains_down(y, x)
            seqs = []
            for ch in chains:
                seqs.append((tuple(lp.label_key(ch[k + 1], ch[k]) for k in range(len(ch) - 1)), ch))
            rising = [(s, ch) for s, ch in seqs
                      if all(s[k] < s[k + 1] for k in range(len(s) - 1))]
            if len(rising) != 1:
                return posets.ELReport(False, f"{len(rising)} increasing chains", (x, y))
            rseq, rchain = rising[0]
            for s, ch in seqs:
                if ch is rchain:
                    continue
                if s <= rseq:
                    reason = "lex tie" if s == rseq else "increasing chain not lex-minimal"
                    return posets.ELReport(False, reason, (x, y))
            # local criterion: the increasing chain's first edge beats
            # every alternative first edge out of y
            z1 = rchain[1]
            first = rseq[0]
            for yp in p.down[y]:
                if yp != z1 and p.leq(x, yp):
                    if not first < lp.label_key(yp, y):
                        return posets.ELReport(False, "first edge not strictly smallest", (x, y))
    return posets.ELReport(True)


@pytest.fixture(scope="session")
def verify_el_exhaustive():
    return _verify_el_exhaustive


def _patch_everywhere(monkeypatch, name, fast, checked):
    for module in list(sys.modules.values()):
        if getattr(module, "__dict__", {}).get(name) is fast:
            monkeypatch.setattr(module, name, checked)


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
    _patch_everywhere(monkeypatch, "reduced_homology", fast, checked)


@pytest.fixture(autouse=True)
def _el_matches_exhaustive(monkeypatch):
    """Every labeled poset that a test passes to ``verify_el``, through any
    module that imported it, gets the verdict, reason and interval of the
    exhaustive chain enumeration."""
    fast = posets.verify_el

    def checked(lp):
        got, want = fast(lp), _verify_el_exhaustive(lp)
        assert (got.ok, got.reason, got.interval) == (want.ok, want.reason, want.interval)
        return got
    _patch_everywhere(monkeypatch, "verify_el", fast, checked)


@pytest.fixture(autouse=True)
def _ranked_posets_are_pure(monkeypatch):
    """Every ranked poset that a test passes to ``check_pure``, through any
    module that imported it, is pure: the constructor checks that each
    cover raises the rank by one, so the verdict could be read off the
    grading."""
    check = posets.check_pure

    def checked(p):
        got = check(p)
        if p.rank is not None:
            assert got == (True, None)
        return got
    _patch_everywhere(monkeypatch, "check_pure", check, checked)
