"""Reusable verification batteries.

Each battery returns a list of check records
``{"name", "status": "pass"|"fail"|"inconclusive", "detail"}``; the CLI
and the acceptance suite both drive these, at different scales.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional

from .cartan import CartanMatrix, cartan_A
from .cells import (ParamSampler, PinnedGroup, canonical_flag,
                    sample_mr, sample_twisted_cell,
                    sigma_domain_representative, sigma_factorize,
                    sigma_recompose, tnn_test, twisted_stratum)
from .doubleflag import (ThickenedCartan, TripleIndex, q_el_label,
                         q_interval_hat, q_member, z_sample)
from .errors import NotComparable, StratumMismatch, TwistflagError
from .homology import is_sphere_signature, reduced_homology
from .posets import (ReflectionOrder, check_pure, check_thin,
                     el_label_twisted_interval, order_complex,
                     reflection_order_covering, reflection_order_from_word,
                     verify_el)
from .ratmat import RatMatrix
from .twisted import TwistedIntervalPoset, j_leq, j_length, minimal_c
from .weyl import ParabolicContext, WeylGroup


def _check(name: str, ok: bool, detail: str = "") -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "detail": detail}


def _inconclusive(name: str, detail: str) -> dict:
    return {"name": name, "status": "inconclusive", "detail": detail}


def all_subsets(n: int) -> list:
    out = []
    for k in range(n + 1):
        out.extend(frozenset(c) for c in itertools.combinations(range(n), k))
    return out


def twisted_pairs(group: WeylGroup, J: ParabolicContext, elements: list,
                  max_diff: Optional[int] = None) -> list:
    """All (v, w) with v <=J w (and bounded J-length difference)."""
    out = []
    for v in elements:
        for w in elements:
            if j_leq(v, w, J):
                if max_diff is None or j_length(w, J) - j_length(v, J) <= max_diff:
                    out.append((v, w))
    return out


def order_for_interval(interval: TwistedIntervalPoset) -> ReflectionOrder:
    """A reflection order covering the labels of a twisted interval.

    Finite groups take the inversion order of the longest element; in
    the infinite case an order is fitted around exactly the labels that
    occur.
    """
    g = interval.J.group
    everything = g.full_context()
    if everything.is_finite():
        return reflection_order_from_word(g, g.canonical_word(everything.longest()))
    labels = {w2 * w1.inverse() for (w1, w2) in interval.covers}
    return reflection_order_covering(g, labels)


def interval_certificates(interval: TwistedIntervalPoset,
                          order: Optional[ReflectionOrder] = None,
                          with_homology: bool = True) -> dict:
    """pure/thin/EL verdicts and the sphere-homology dimension of an interval."""
    fp = interval.to_finite_poset()
    pure, _ = check_pure(fp)
    out = {"pure": pure, "thin": None, "el": None, "sphere": None}
    if not pure:
        return out
    thin, _ = check_thin(fp)
    out["thin"] = thin
    if order is None:
        order = order_for_interval(interval)
    out["el"] = bool(verify_el(el_label_twisted_interval(interval, order)))
    if with_homology and len(fp) > 1:
        rank = max(fp.rank) - min(fp.rank)
        h = reduced_homology(order_complex(fp, "open-interval"))
        out["sphere"] = rank - 2 if is_sphere_signature(h, rank - 2) else None
    return out


# -- suite: flags (Marsh-Rietsch round trips) --------------------------------

def battery_flags(n: int, seed: int, samples: int = 5) -> list:
    """Negative Marsh-Rietsch samples land in their Richardson strata."""
    pin = PinnedGroup(n)
    g = pin.weyl
    sampler = ParamSampler(seed)
    elements = g.full_context().elements()
    checks = []
    bad = []
    count = 0
    for w in elements:
        word = g.canonical_word(w)
        for v in elements:
            if not g.bruhat_leq(v, w):
                continue
            child = sampler.child("mr", word, g.canonical_word(v))
            skips = len(word) - g.length(v)
            for k in range(samples):
                count += 1
                try:
                    sample_mr(pin, "negative", v, word, child.integers(skips))
                except StratumMismatch:
                    bad.append((v, w))
    checks.append(_check(f"flags: SL{n} Marsh-Rietsch round-trips ({count} samples)",
                         not bad, f"failures: {len(bad)}"))
    return checks


# -- suite: twisted ------------------------------------------------------------

def battery_twisted(n: int, seed: int, samples: int = 5,
                    max_diff: Optional[int] = 2, sigma_samples: int = 2) -> list:
    """Twisted-cell parametrization, nonemptiness, inclusion and sigma checks."""
    pin = PinnedGroup(n)
    g = pin.weyl
    sampler = ParamSampler(seed)
    elements = g.ball(n * (n - 1) // 2)
    checks = []
    for J_set in all_subsets(g.n):
        J = ParabolicContext(g, J_set)
        pairs = twisted_pairs(g, J, elements, max_diff)
        jname = "{" + ",".join(g.cartan.labels[i] for i in sorted(J_set)) + "}"
        bad_round = bad_dim = bad_nonempty = 0
        for v, w in pairs:
            dim = j_length(w, J) - j_length(v, J)
            if dim < 0:
                bad_dim += 1
                continue
            child = sampler.child("tw", n, tuple(sorted(J_set)),
                                  g.canonical_word(v), g.canonical_word(w))
            for k in range(samples):
                try:
                    sample_twisted_cell(pin, v, w, J, child.integers(dim))
                except TwistflagError:  # StratumMismatch among them
                    bad_round += 1
        for v in elements:
            for w in elements:
                if j_leq(v, w, J):
                    continue
                try:
                    minimal_c(v, w, J)
                    bad_nonempty += 1
                except NotComparable:
                    pass
        checks.append(_check(f"twisted: SL{n} J={jname} parametrization "
                             f"({len(pairs)} pairs)", bad_round == 0 and bad_dim == 0,
                             f"round-trip failures {bad_round}"))
        checks.append(_check(f"twisted: SL{n} J={jname} sampler fails off-pattern",
                             bad_nonempty == 0, ""))
        bad_sigma = 0
        n_sigma = 0
        for v, w in pairs:
            dim = j_length(w, J) - j_length(v, J)
            rs = [r for r in elements if j_leq(v, r, J) and j_leq(r, w, J)]
            child = sampler.child("sg", n, tuple(sorted(J_set)),
                                  g.canonical_word(v), g.canonical_word(w))
            for k in range(sigma_samples):
                m = sample_twisted_cell(pin, v, w, J, child.integers(dim),
                                        check=False).matrix
                for r in rs:
                    n_sigma += 1
                    try:
                        # outside the big cell this raises DecompositionFails
                        gmat = sigma_domain_representative(pin, m, r, J)
                        g2, h2 = sigma_factorize(pin, gmat, r, J)
                        rd = pin.lift(r)
                        wj0 = pin.lift(J.longest())
                        if twisted_stratum(pin, g2 * rd, J) != (v, r):
                            bad_sigma += 1
                        elif twisted_stratum(pin, h2 * rd, J) != (r, w):
                            bad_sigma += 1
                        elif canonical_flag(sigma_recompose(g2, h2) * rd * wj0) != \
                                canonical_flag(m * wj0):
                            bad_sigma += 1
                    except TwistflagError:
                        bad_sigma += 1
        checks.append(_check(f"twisted: SL{n} J={jname} inclusion+product "
                             f"({n_sigma} cases)", bad_sigma == 0,
                             f"failures {bad_sigma}"))
    return checks


def battery_tnn(n: int, seed: int, count: int = 100) -> list:
    """Products of positive generators are TNN; one flipped factor breaks it."""
    pin = PinnedGroup(n)
    sampler = ParamSampler(seed)
    rng = sampler.child("tnn", n)
    bad_pos = bad_neg = 0
    for k in range(count):
        word_len = rng.integer(2, 6)
        m = RatMatrix.identity(n)
        for _ in range(word_len):
            kind = rng.integer(0, 2)
            i = rng.integer(0, n - 2)
            if kind == 0:
                m = m * pin.x(i, rng.fraction())
            elif kind == 1:
                m = m * pin.y(i, rng.fraction())
            else:
                m = m * pin.cochar(i, rng.fraction())
        if not tnn_test(pin, m):
            bad_pos += 1
        # force one negated parameter large enough to expose a negative entry
        i = rng.integer(0, n - 2)
        col = [m.rows[r][i] for r in range(n)]
        nxt = [m.rows[r][i + 1] for r in range(n)]
        scale = max((Fraction(abs(b), a) for a, b in zip(col, nxt) if a != 0), default=1)
        adv = m * pin.x(i, -(scale + 1))
        if tnn_test(pin, adv):
            bad_neg += 1
    out = [_check(f"tnn: SL{n} {count} positive products pass", bad_pos == 0,
                  f"failures {bad_pos}"),
           _check(f"tnn: SL{n} {count} adversarial products fail", bad_neg == 0,
                  f"false passes {bad_neg}")]
    return out


# -- suite: doubleflag ----------------------------------------------------------

def battery_doubleflag(base: CartanMatrix, seed: int, max_rank: int = 3,
                       z_matrix_size: Optional[int] = None,
                       z_samples: int = 3) -> list:
    """Q-hat certificates, thickening order embedding, and Z samples."""
    tc = ThickenedCartan(base)
    g = tc.base_group
    checks = []
    full = g.full_context()
    if not full.is_finite():
        return [_inconclusive("doubleflag: base group must be finite", "")]
    elements = full.elements()

    bad_embed = 0
    short = [x for x in elements if g.length(x) <= 3]
    for w1, v1, w2, v2 in itertools.product(short, repeat=4):
        lhs = g.bruhat_leq(w1, w2) and g.bruhat_leq(v2, v1)
        rhs = j_leq(tc.th(w1, v1), tc.th(w2, v2), tc.I)
        if lhs != rhs:
            bad_embed += 1
    checks.append(_check(f"doubleflag: {base.size}-node thickening order embedding",
                         bad_embed == 0, f"mismatches {bad_embed}"))

    bad_q = 0
    n_q = 0
    for w, v, u in itertools.product(elements, repeat=3):
        if not q_member(w, v, u):
            continue
        t = TripleIndex(w, v, u)
        if t.rank() - 1 > max_rank:
            continue
        n_q += 1
        fp = q_interval_hat(t)
        ok = check_pure(fp)[0] and check_thin(fp)[0] and bool(verify_el(q_el_label(fp, tc)))
        if not ok:
            bad_q += 1
    checks.append(_check(f"doubleflag: Q-hat certificates ({n_q} intervals)",
                         bad_q == 0, f"failures {bad_q}"))

    if z_matrix_size is not None:
        pin = PinnedGroup(z_matrix_size)
        sampler = ParamSampler(seed)
        bad_z = 0
        n_z = 0
        for w, v, u in itertools.product(elements, repeat=3):
            if not q_member(w, v, u):
                continue
            dim = w.length() + u.length() - v.length()
            child = sampler.child("z", g.canonical_word(w), g.canonical_word(v),
                                  g.canonical_word(u))
            for k in range(z_samples):
                n_z += 1
                try:
                    z_sample(pin, w, v, u, child.integers(dim))
                except TwistflagError:  # StratumMismatch among them
                    bad_z += 1
        checks.append(_check(f"doubleflag: Z parametrization ({n_z} samples)",
                             bad_z == 0, f"failures {bad_z}"))
    return checks


def run_suite(suite: str, seed: int) -> list:
    checks = []
    if suite in ("flags", "all"):
        checks += battery_flags(3, seed)
    if suite in ("twisted", "all"):
        checks += battery_twisted(3, seed)
        checks += battery_tnn(3, seed, count=60)
    if suite in ("doubleflag", "all"):
        checks += battery_doubleflag(cartan_A(1), seed, z_matrix_size=2)
        checks += battery_doubleflag(cartan_A(2), seed, max_rank=2)
    return checks
