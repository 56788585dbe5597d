"""twistflag benchmark: run one workload at one seed and print its metrics.

    python3 perfbench/run.py --workload intervals --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The workload runs as a closed loop in this one process and thread: one
op at a time, in whole rounds of the same ops, until the op time is as
near ``--seconds`` as whole rounds allow (at least ``MIN_ROUNDS`` rounds).
Every op's output is checked after its timing.

``--trace 0`` prints the end-to-end metrics.  They are read from each
op's median latency over the rounds: ``ops_per_s`` is the round's op
count over the sum of those medians, ``op_p50_ms`` and ``op_p90_ms``
are their percentiles.  ``setup_s`` is the median
of ``SETUP_SAMPLES`` fresh processes that each start Python, import the
program and build the workload's inputs, timed from spawn to the first
op they would run.  ``--trace 1`` installs the per-layer wrappers, runs
exactly one round (so counts repeat for a seed) and prints the per-layer
metrics; its spans go to ``perfbench/out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5
MIN_ROUNDS = 3
WORKLOADS = ("intervals", "qhat", "cells", "cli")


def _import_program():
    src = ROOT / "src"
    if not (src / "twistflag" / "__init__.py").is_file():
        sys.exit(f"run.py: no twistflag sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    import twistflag
    if Path(twistflag.__file__).resolve().parent != src / "twistflag":
        sys.exit(f"run.py: imported twistflag from {twistflag.__file__}, not from {src}")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="build the inputs, print 'ready' and exit (a setup_s sample)")
    return ap.parse_args(argv)


def _setup_sample(args) -> float:
    """Seconds from spawning a fresh benchmark process until it is ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != "ready" or code != 0:
        sys.exit(f"run.py: set-up process failed (exit {code})")
    return elapsed


def _percentile(values, q) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    setup_times = []
    if args.trace == 0 and not args.setup_only:
        setup_times = [_setup_sample(args) for _ in range(SETUP_SAMPLES)]
    tracer = None
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads   # after install, so its from-imports bind the wrappers

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.BUILDERS[args.workload](args.seed, str(workdir))
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return _measure(args, ops, tracer, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_round(ops, tracer, first_index, status) -> list:
    """One pass over the round: each op's latency in seconds, or None if it raised."""
    latencies = []
    clock = time.perf_counter
    for k, op in enumerate(ops):
        index = first_index + k
        if tracer is not None:
            tracer.begin_op(index)
        start = clock()
        try:
            out = op.run()
        except Exception:
            if tracer is not None:
                tracer.end_op()
            latencies.append(None)
            status["failed"] += 1
            print(f"op {index} ({op.kind}) failed:", file=sys.stderr)
            traceback.print_exc()
            continue
        latencies.append(clock() - start)
        if tracer is not None:
            tracer.end_op()
        try:
            ok = op.check(out)
        except Exception:
            traceback.print_exc()
            ok = False
        if not ok:
            status["correct"] = False
            print(f"op {index} ({op.kind}): wrong output", file=sys.stderr)
    return latencies


def _measure(args, ops, tracer, setup_times) -> int:
    status = {"correct": True, "failed": 0}
    rounds, round_busy = [], []
    while True:
        rounds.append(_run_round(ops, tracer, len(rounds) * len(ops), status))
        round_busy.append(sum(t for t in rounds[-1] if t is not None))
        # stop at the round count whose op time comes nearest to --seconds
        if tracer is not None or (len(rounds) >= MIN_ROUNDS
                                  and sum(round_busy) + round_busy[-1] / 2 >= args.seconds):
            break
    attempted = len(rounds) * len(ops)
    busy_by_kind: dict = {}
    for r in rounds:
        for op, t in zip(ops, r):
            if t is not None:
                busy_by_kind[op.kind] = busy_by_kind.get(op.kind, 0.0) + t
    # An op's latency in a typical round: its median over the run's rounds,
    # so a stretch of the run slowed by the machine moves no metric alone.
    typical = []
    for k in range(len(ops)):
        times = [r[k] for r in rounds if r[k] is not None]
        if times:
            typical.append(statistics.median(times))
    if not typical:
        sys.exit("run.py: every op failed in every round")

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        metrics = tracer.metrics()
        kept, total = tracer.write_spans(OUT / f"{stem}.spans.csv")
        print(f"spans: {kept} of {total} written", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": len(typical) / sum(typical), "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(typical) * 1e3, "unit": "ms"},
            "op_p90_ms": {"value": _percentile(typical, 0.9) * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    result = {"correct": status["correct"], "attempted": attempted,
              "failed": status["failed"], "metrics": metrics}
    (OUT / f"{stem}.json").write_text(json.dumps(
        dict(result, ops_per_round=len(ops), round_busy_s=round_busy,
             busy_by_kind_s=busy_by_kind, setup_samples_s=setup_times), indent=1) + "\n")
    print(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of {len(ops)} ops, "
          f"{sum(round_busy):.2f} s in ops", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
