"""Fast self-test of the benchmark's own oracles and workloads.

    python3 perfbench/selftest.py

Checks, at tiny sizes: the permutation Bruhat order (19 comparable pairs
in S3), the dihedral oracles, the rank-condition cell reader on
hand-built b1 * w * b2 products in SL3, the flag comparison, one op of
every workload, and that a traced op reports every per-layer metric.
Exits 1 on the first failure.
"""

from __future__ import annotations

import importlib
import itertools
import random
import shutil
import sys
from fractions import Fraction

import run

from oracles import (CoxeterOracle, bottom_left_cell, same_flag,
                     top_left_cell)


def expect(ok: bool, what: str):
    if not ok:
        raise SystemExit(f"FAIL: {what}")
    print(f"ok: {what}")


def _mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _triangular(rng, n, upper: bool):
    """A random invertible upper (or lower) triangular rational matrix."""
    m = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        for j in (range(i + 1, n) if upper else range(i)):
            m[i][j] = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
    return m


def _perm_matrix(p):
    n = len(p)
    return [[Fraction(int(p[j] == i)) for j in range(n)] for i in range(n)]


def test_oracles():
    s3 = CoxeterOracle.type_a(3)
    pairs = sum(s3.leq(u, w) for u, w in itertools.product(s3.elements, repeat=2))
    expect(len(s3.elements) == 6 and pairs == 19, "S3 Bruhat order has 19 comparable pairs")
    s4 = CoxeterOracle.type_a(4)
    w0 = s4.longest(range(3))
    expect(s4.length[w0] == 6 and s4.interval_size(s4.identity, w0) == 24,
           "S4: longest element of length 6 bounds all 24 elements")
    for m in (4, 6):
        d = CoxeterOracle.dihedral(m)
        top = d.longest((0, 1))
        expect(len(d.elements) == 2 * m and d.length[top] == m
               and d.interval_size(d.identity, top) == 2 * m,
               f"I2({m}): {2 * m} elements, longest of length {m}")
    # <=J at J = everything is reversed Bruhat order
    expect(all(s3.j_leq(v, w, (0, 1)) == s3.leq(w, v)
               for v, w in itertools.product(s3.elements, repeat=2)),
           "S3: <=J with J = all nodes is reversed Bruhat order")


def test_cell_reader():
    rng = random.Random(7)
    s3 = CoxeterOracle.type_a(3)
    for p in s3.elements:
        for _ in range(4):
            pm = _perm_matrix(p)
            up = _mul(_mul(_triangular(rng, 3, True), pm), _triangular(rng, 3, True))
            low = _mul(_mul(_triangular(rng, 3, False), pm), _triangular(rng, 3, True))
            if bottom_left_cell(up) != p or top_left_cell(low) != p:
                expect(False, f"cell reader recovers {p}")
    expect(True, "cell reader recovers w from b1 w b2 in SL3 (B+ x B+ and B- x B+)")
    a = _mul(_perm_matrix((2, 0, 1)), _triangular(rng, 3, False))
    expect(same_flag(a, _mul(a, _triangular(rng, 3, True)))
           and not same_flag(a, _mul(a, _perm_matrix((1, 0, 2)))),
           "flag comparison: invariant under B+, not under a swap")


def test_workloads(trace: bool):
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = None
    try:
        if trace:
            from layertrace import PER_LAYER, Tracer
            tracer = Tracer()
            tracer.install()
        workloads = importlib.reload(importlib.import_module("workloads"))
        for name, build in workloads.BUILDERS.items():
            op = build(1, str(workdir), toy=True)[0]
            if tracer is not None:
                tracer.reset()
                tracer.begin_op(0)
            out = op.run()
            if tracer is not None:
                tracer.end_op()
                metrics = tracer.metrics()
                expect(set(metrics) == set(PER_LAYER)
                       and sum(m["value"] for k, m in metrics.items() if k.endswith("self_s")) > 0,
                       f"{name}: a traced toy op reports every per-layer metric")
            else:
                expect(op.check(out), f"{name}: one toy {op.kind} op passes its checks")
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    run._import_program()
    test_oracles()
    test_cell_reader()
    test_workloads(trace=False)
    test_workloads(trace=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
