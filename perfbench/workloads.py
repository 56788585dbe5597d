"""The four workloads.  ``BUILDERS[name](seed, workdir, toy)`` does the
set-up (groups, configs, input selection) and returns one round: a list
of ``Op``s that the runner repeats whole.

``Op.run`` is the timed call into the program's public functions;
``Op.check`` runs afterwards, untimed, and compares the output with
properties the method must have and with the oracles in ``oracles.py``.

Import this module only after the tracer (if any) is installed: the
from-imports below then bind the traced functions.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from fractions import Fraction

from twistflag import cli
from twistflag.batteries import (all_subsets, interval_certificates,
                                 twisted_pairs)
from twistflag.cartan import (CartanMatrix, cartan_A, cartan_affine_A1,
                              cartan_B2, cartan_G2)
from twistflag.cells import (PinnedGroup, big_cell_test,
                             sample_twisted_cell, sigma_domain_representative,
                             sigma_factorize, sigma_recompose)
from twistflag.doubleflag import (ThickenedCartan, TripleIndex,
                                  link_boundary_poset, q_el_label,
                                  q_interval_hat, q_member)
from twistflag.homology import reduced_homology
from twistflag.posets import (check_pure, check_thin, order_complex,
                              reflection_order_from_word, verify_el)
from twistflag.twisted import j_interval, j_length
from twistflag.weyl import ParabolicContext, weyl_group

from oracles import (CoxeterOracle, bottom_left_cell, compose,
                     permute_columns, same_flag, top_left_cell)
from oracles import all_subsets as oracle_subsets


class Op:
    __slots__ = ("kind", "run", "check")

    def __init__(self, kind: str, run, check):
        self.kind = kind
        self.run = run
        self.check = check


def _full(group):
    return ParabolicContext(group, range(group.n)).elements()


def _perm(oracle: CoxeterOracle, el) -> tuple:
    return oracle.from_word(el.canonical_word())


def _cell_ok(rows, oracle: CoxeterOracle, v: tuple, w: tuple, J) -> bool:
    """g w_{J,0} lies in B- (v w_{J,0}) B+ and in B+ (w w_{J,0}) B+."""
    wj0 = oracle.longest(J)
    moved = permute_columns(rows, wj0)
    return (top_left_cell(moved) == compose(v, wj0)
            and bottom_left_cell(moved) == compose(w, wj0))


def _sphere_ok(certs: dict, rank: int) -> bool:
    want = rank - 2 if rank >= 1 else None
    return (certs["pure"] is True and certs["thin"] is True
            and certs["el"] is True and certs["sphere"] == want)


# -- intervals ----------------------------------------------------------------

FINITE = (("A3", cartan_A(3), lambda: CoxeterOracle.type_a(4)),
          ("B2", cartan_B2(), lambda: CoxeterOracle.dihedral(4)),
          ("G2", cartan_G2(), lambda: CoxeterOracle.dihedral(6)))
INFINITE = (cartan_affine_A1(), CartanMatrix([[2, -3], [-3, 2]]))
INFINITE_PER_GROUP = 2


def _finite_interval_op(v, w, J, order, oracle):
    def run():
        iv = j_interval(v, w, J)
        return iv, interval_certificates(iv, order=order)

    def check(out):
        iv, certs = out
        pv, pw = _perm(oracle, v), _perm(oracle, w)
        rank = oracle.j_length(pw, J.J) - oracle.j_length(pv, J.J)
        return (_sphere_ok(certs, rank)
                and len(iv.elements) == oracle.j_interval_size(pv, pw, J.J))
    return Op("finite", run, check)


def _infinite_interval_op(v, w, J):
    def run():
        iv = j_interval(v, w, J)
        return iv, interval_certificates(iv)

    def check(out):
        iv, certs = out
        rank = iv.jlengths[iv.top] - iv.jlengths[iv.bottom]
        return rank == j_length(w, J) - j_length(v, J) and _sphere_ok(certs, rank)
    return Op("infinite", run, check)


def build_intervals(seed: int, workdir: str, toy: bool = False) -> list:
    rng = random.Random(seed)
    ops = []
    for name, cartan, make_oracle in FINITE:
        if toy and name != "B2":
            continue
        oracle = make_oracle()
        g = weyl_group(cartan)
        els = _full(g)
        order = reflection_order_from_word(g, g.canonical_word(max(els, key=g.length)))
        for J_set in all_subsets(g.n):
            J = ParabolicContext(g, J_set)
            for v, w in twisted_pairs(g, J, els, 4):
                ops.append(_finite_interval_op(v, w, J, order, oracle))
    for cartan in INFINITE:
        if toy:
            break
        g = weyl_group(cartan)
        els = g.ball(5)
        population = []
        for J_set in all_subsets(g.n):
            J = ParabolicContext(g, J_set)
            population += [(v, w, J) for v, w in twisted_pairs(g, J, els, 4) if v != w]
        for v, w, J in rng.sample(population, INFINITE_PER_GROUP):
            ops.append(_infinite_interval_op(v, w, J))
    rng.shuffle(ops)
    return ops


# -- qhat ---------------------------------------------------------------------

QHAT_MAX_RANK = 2      # l(w) + l(u) - l(v) of the top triple
LINK_MAX_LENGTH = 5    # l(w) + l(u)


def _qhat_op(w, v, u, tc, oracle):
    def run():
        fp = q_interval_hat(TripleIndex(w, v, u))
        pure = check_pure(fp)[0]
        thin = pure and check_thin(fp)[0]
        el = bool(verify_el(q_el_label(fp, tc)))
        return fp, pure, thin, el

    def check(out):
        fp, pure, thin, el = out
        rank = sum(oracle.length[_perm(oracle, x)] for x in (w, u)) \
            - oracle.length[_perm(oracle, v)] + 1
        return pure is True and thin is True and el and max(fp.rank) == rank
    return Op("qhat", run, check)


def _link_op(w, u, oracle):
    def run():
        return reduced_homology(order_complex(link_boundary_poset(w, u), "full"))

    def check(h):
        s = oracle.length[_perm(oracle, w)] + oracle.length[_perm(oracle, u)]
        return h.torsion == {} and h.betti == {s - 2: 1}
    return Op("link", run, check)


def build_qhat(seed: int, workdir: str, toy: bool = False) -> list:
    rng = random.Random(seed)
    ops = []
    for base in (cartan_A(1),) if toy else (cartan_A(1), cartan_A(2)):
        tc = ThickenedCartan(base)
        oracle = CoxeterOracle.type_a(base.size + 1)
        g = tc.base_group
        full = _full(g)
        for w, v, u in itertools.product(full, repeat=3):
            if q_member(w, v, u) and w.length() + u.length() - v.length() <= QHAT_MAX_RANK:
                ops.append(_qhat_op(w, v, u, tc, oracle))
        for w, u in itertools.product(full, repeat=2):
            if 1 <= w.length() + u.length() <= LINK_MAX_LENGTH:
                ops.append(_link_op(w, u, oracle))
    rng.shuffle(ops)
    return ops


# -- cells --------------------------------------------------------------------

SAMPLES_PER_PAIR = 3
# (n, largest J-length difference, one pair in `share` per (J, difference))
CELL_SCOPE = ((3, 3, 1), (4, 1, 4))


def _sample_op(pin, v, w, J, params, oracle):
    def run():
        return sample_twisted_cell(pin, v, w, J, params, check=True)

    def check(cs):
        pv, pw = _perm(oracle, v), _perm(oracle, w)
        dim = oracle.j_length(pw, J.J) - oracle.j_length(pv, J.J)
        return (cs.params == params and len(params) == dim
                and _cell_ok(cs.matrix.rows, oracle, pv, pw, J.J))
    return Op("sample", run, check)


def _sigma_op(pin, v, w, J, params, oracle):
    def run():
        m = sample_twisted_cell(pin, v, w, J, params, check=False).matrix
        out = []
        for r in j_interval(v, w, J).elements:
            inside = big_cell_test(pin, m, r, J)
            g2, h2 = sigma_factorize(pin, sigma_domain_representative(pin, m, r, J), r, J)
            out.append((r, inside, g2, h2, sigma_recompose(g2, h2)))
        return m, out

    def check(res):
        m, out = res
        pv, pw = _perm(oracle, v), _perm(oracle, w)
        if len(out) != oracle.j_interval_size(pv, pw, J.J):
            return False
        wj0 = oracle.longest(J.J)
        target = permute_columns(m.rows, wj0)
        for r, inside, g2, h2, rec in out:
            pr = _perm(oracle, r)
            rw = compose(pr, wj0)
            if not (inside and _cell_ok(permute_columns(g2.rows, pr), oracle, pv, pr, J.J)
                    and _cell_ok(permute_columns(h2.rows, pr), oracle, pr, pw, J.J)
                    and same_flag(permute_columns(rec.rows, rw), target)):
                return False
        return True
    return Op("sigma", run, check)


def build_cells(seed: int, workdir: str, toy: bool = False) -> list:
    rng = random.Random(seed)
    ops = []
    for n, max_diff, share in ((3, 1, 1),) if toy else CELL_SCOPE:
        pin = PinnedGroup(n)
        g = pin.weyl
        oracle = CoxeterOracle.type_a(n)
        els = _full(g)
        for J_set in all_subsets(g.n):
            J = ParabolicContext(g, J_set)
            by_diff: dict = {}
            for v, w in twisted_pairs(g, J, els, max_diff):
                by_diff.setdefault(j_length(w, J) - j_length(v, J), []).append((v, w))
            for dim, pairs in sorted(by_diff.items()):
                if share > 1:
                    pairs = rng.sample(pairs, -(-len(pairs) // share))
                for v, w in pairs:
                    for _ in range(SAMPLES_PER_PAIR):
                        params = tuple(rng.randint(1, 10) for _ in range(dim))
                        ops.append(_sample_op(pin, v, w, J, params, oracle))
                    params = tuple(rng.randint(1, 10) for _ in range(dim))
                    ops.append(_sigma_op(pin, v, w, J, params, oracle))
    rng.shuffle(ops)
    return ops


# -- cli ----------------------------------------------------------------------

CLI_GROUPS = (
    # name, config, oracle, interval picks per J-length difference
    ("A3", {"cartan": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]], "labels": ["1", "2", "3"]},
     lambda: CoxeterOracle.type_a(4), {0: 3, 1: 3, 2: 3, 3: 3, 4: 3}),
    ("B2", {"cartan": [[2, -2], [-1, 2]], "labels": ["a", "b"]},
     lambda: CoxeterOracle.dihedral(4), {0: 2, 1: 2, 2: 2, 3: 2, 4: 2}),
    ("G2", {"cartan": [[2, -3], [-1, 2]], "labels": ["a", "b"]},
     lambda: CoxeterOracle.dihedral(6), {0: 2, 1: 2, 2: 2, 3: 2, 4: 2, 5: 2}),
)
CLI_ORDER_PER_GROUP = 14
# A3 intervals of J-length difference 5 cost 100-270 ms each, so a seeded
# pick would move the round's time by more than the metric bounds; these
# four, spread over the 48 in enumeration order, are fixed.
CLI_A3_DIFF5 = (0, 12, 24, 36)
CLI_SAMPLE_PER_DIFF = 5
CLI_SAMPLE_COUNT = 3


def _words(labels, oracle, p) -> str:
    return " ".join(labels[i] for i in oracle.word[p])


def _cli_op(kind, argv, out_path, check_payload):
    def run():
        return cli.main(argv + ["--out", out_path])

    def check(rc):
        if rc != 0:
            return False
        with open(out_path) as fh:
            return check_payload(json.load(fh))
    return Op(kind, run, check)


def _cli_order(cfg, labels, oracle, v, w, J, out_path):
    argv = ["--config", cfg, "order", _words(labels, oracle, v),
            _words(labels, oracle, w), "--J", ",".join(labels[j] for j in sorted(J))]

    def check(payload):
        comparable = oracle.j_leq(v, w, J)
        return (payload["comparable"] is comparable
                and payload["v"]["jlength"] == oracle.j_length(v, J)
                and payload["w"]["jlength"] == oracle.j_length(w, J)
                and ("witness_c" in payload) == comparable)
    return _cli_op("order", argv, out_path, check)


def _cli_interval(cfg, labels, oracle, v, w, J, out_path):
    argv = ["--config", cfg, "interval", _words(labels, oracle, v),
            _words(labels, oracle, w), "--J", ",".join(labels[j] for j in sorted(J))]

    def check(payload):
        rank = oracle.j_length(w, J) - oracle.j_length(v, J)
        ranks = payload["poset"]["rank"]
        return (max(ranks) - min(ranks) == rank
                and len(payload["poset"]["elements"]) == oracle.j_interval_size(v, w, J)
                and _sphere_ok(payload["checks"], rank))
    return _cli_op("interval", argv, out_path, check)


def _cli_sample(cfg, labels, oracle, v, w, J, seed, out_path):
    argv = ["--config", cfg, "sample", _words(labels, oracle, v), _words(labels, oracle, w),
            "--J", ",".join(labels[j] for j in sorted(J)), "--count", str(CLI_SAMPLE_COUNT),
            "--seed", str(seed)]

    def check(payload):
        dim = oracle.j_length(w, J) - oracle.j_length(v, J)
        samples = payload["samples"]
        if payload["cell"]["dimension"] != dim or len(samples) != CLI_SAMPLE_COUNT:
            return False
        for s in samples:
            params = [Fraction(x) for x in s["params"]]
            rows = [[Fraction(x) for x in row] for row in s["matrix"]]
            if len(params) != dim or any(x <= 0 for x in params):
                return False
            if not _cell_ok(rows, oracle, v, w, J):
                return False
        return True
    return _cli_op("sample", argv, out_path, check)


def build_cli(seed: int, workdir: str, toy: bool = False) -> list:
    rng = random.Random(seed)
    out_path = os.path.join(workdir, "report.json")
    ops = []
    for name, config, make_oracle, picks in CLI_GROUPS:
        if toy and name != "B2":
            continue
        cfg = os.path.join(workdir, f"{name}.json")
        with open(cfg, "w") as fh:
            json.dump(config, fh)
        labels = config["labels"]
        oracle = make_oracle()
        subsets = oracle_subsets(oracle.rank)
        els = oracle.elements
        for _ in range(1 if toy else CLI_ORDER_PER_GROUP):
            v, w, J = rng.choice(els), rng.choice(els), rng.choice(subsets)
            ops.append(_cli_order(cfg, labels, oracle, v, w, J, out_path))
        if toy:
            continue
        by_diff: dict = {}
        for J in subsets:
            for v, w in itertools.product(els, repeat=2):
                if oracle.j_leq(v, w, J):
                    d = oracle.j_length(w, J) - oracle.j_length(v, J)
                    by_diff.setdefault(d, []).append((v, w, J))
        for d, k in picks.items():
            for v, w, J in rng.sample(by_diff[d], k):
                ops.append(_cli_interval(cfg, labels, oracle, v, w, J, out_path))
        if name == "A3":
            for k in CLI_A3_DIFF5:
                v, w, J = by_diff[5][k]
                ops.append(_cli_interval(cfg, labels, oracle, v, w, J, out_path))
            for d in range(4):
                for v, w, J in rng.sample(by_diff[d], CLI_SAMPLE_PER_DIFF):
                    ops.append(_cli_sample(cfg, labels, oracle, v, w, J,
                                           rng.randrange(1 << 30), out_path))
    rng.shuffle(ops)
    return ops


BUILDERS = {"intervals": build_intervals, "qhat": build_qhat,
            "cells": build_cells, "cli": build_cli}
