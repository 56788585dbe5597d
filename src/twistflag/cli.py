"""Command-line surface.

Exit codes: 0 pass, 2 check failure, 3 inconclusive only, 4 usage error.
Reports are byte-identical for identical (config, seed); timings are
only added under --timings since they are not reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .batteries import interval_certificates, run_suite
from .cartan import CartanMatrix, cartan_A
from .errors import BudgetExceeded, Inconclusive, TwistflagError
from .posets import poset_to_dot, poset_to_json
from .twisted import j_interval, j_length, j_leq, minimal_c
from .weyl import DEFAULT_BUDGET, ParabolicContext, weyl_group

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_INCONCLUSIVE = 3
EXIT_USAGE = 4


class _UsageError(Exception):
    """A bad command line or --config file; ``main`` prints it and exits 4."""


def _load_cartan(args) -> CartanMatrix:
    if args.config:
        try:
            with open(args.config) as fh:
                return CartanMatrix.from_config(json.load(fh))
        except KeyError as ex:
            raise _UsageError(f"config {args.config}: missing key {ex}") from None
        # json.JSONDecodeError is a ValueError; TypeError is a config of the wrong shape
        except (OSError, TypeError, ValueError) as ex:
            raise _UsageError(f"config {args.config}: {ex}") from None
    return CartanMatrix.from_config({"cartan": [[2, -1], [-1, 2]],
                                     "labels": ["1", "2"]})


def _budget(args) -> int:
    return DEFAULT_BUDGET if args.budget_elems is None else args.budget_elems


def _parse_word(cartan: CartanMatrix, text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    parts = text.replace(",", " ").split()
    return tuple(cartan.node_of_label(p) for p in parts)


def _parse_J(cartan: CartanMatrix, text: str) -> frozenset:
    if not text:
        return frozenset()
    return frozenset(cartan.node_of_label(p)
                     for p in text.replace(",", " ").split())


def _parse_query(cartan: CartanMatrix, group, J_text: str, first: str, second: str):
    """The (J, first, second) of a query verb; a bad label is a usage error."""
    try:
        return (ParabolicContext(group, _parse_J(cartan, J_text)),
                group.from_word(_parse_word(cartan, first)),
                group.from_word(_parse_word(cartan, second)))
    except ValueError as ex:
        raise _UsageError(ex) from None


def _emit(args, payload, dot: str = None):
    if args.format == "dot" and dot is not None:
        text = dot
    elif args.format == "text":
        text = "\n".join(_flatten_text(payload))
    else:
        text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _flatten_text(payload, prefix=""):
    if isinstance(payload, dict):
        for k in sorted(payload):
            yield from _flatten_text(payload[k], f"{prefix}{k}.")
    elif isinstance(payload, list):
        for i, v in enumerate(payload):
            yield from _flatten_text(v, f"{prefix}{i}.")
    else:
        yield f"{prefix[:-1]}: {payload}"


def cmd_order(args) -> int:
    cartan = _load_cartan(args)
    group = weyl_group(cartan, _budget(args))
    J, v, w = _parse_query(cartan, group, args.J, args.v, args.w)
    payload = {
        "v": {"word": list(v.canonical_word()), "length": v.length(),
              "jlength": j_length(v, J)},
        "w": {"word": list(w.canonical_word()), "length": w.length(),
              "jlength": j_length(w, J)},
        "J": sorted(cartan.labels[i] for i in J.J),
        "comparable": j_leq(v, w, J),
    }
    if payload["comparable"]:
        payload["witness_c"] = list(minimal_c(v, w, J).canonical_word())
    _emit(args, payload)
    return EXIT_PASS


def cmd_interval(args) -> int:
    cartan = _load_cartan(args)
    group = weyl_group(cartan, _budget(args))
    J, x, y = _parse_query(cartan, group, args.J, args.x, args.y)
    wanted = set(args.checks.split(",")) if args.checks else set()
    unknown = wanted - {"pure", "thin", "el", "homology", ""}
    if unknown:
        raise _UsageError(f"unknown checks {sorted(unknown)}")
    try:
        if not j_leq(x, y, J):
            raise _UsageError("x <=J y fails")
        interval = j_interval(x, y, J)
        fp = interval.to_finite_poset()
        payload = {"poset": poset_to_json(fp), "checks": {}}
        if wanted:
            certs = interval_certificates(interval,
                                          with_homology="homology" in wanted)
            for key in ("pure", "thin", "el"):
                if key in wanted:
                    payload["checks"][key] = certs[key]
            if "homology" in wanted:
                payload["checks"]["sphere"] = certs["sphere"]
    except (BudgetExceeded, Inconclusive) as ex:
        _emit(args, {"inconclusive": str(ex)})
        return EXIT_INCONCLUSIVE
    _emit(args, payload, dot=poset_to_dot(fp))
    failed = any(v is False for v in payload["checks"].values())
    return EXIT_FAIL if failed else EXIT_PASS


def cmd_sample(args) -> int:
    from .cells import ParamSampler, PinnedGroup, sample_twisted_cell
    from .twisted import j_length
    cartan = _load_cartan(args)
    if cartan.entries != cartan_A(cartan.size).entries:
        raise _UsageError("sample needs a type A Cartan matrix (the SL_n pinning)")
    try:
        pin = PinnedGroup(cartan.size + 1, budget=_budget(args))
    except ValueError as ex:
        raise _UsageError(ex) from None
    J, v, w = _parse_query(cartan, pin.weyl, args.J, args.v, args.w)
    try:
        if not j_leq(v, w, J):
            raise _UsageError("v <=J w fails, the cell is empty")
        dim = j_length(w, J) - j_length(v, J)
        sampler = ParamSampler(args.seed).child("cli-sample")
        samples = [sample_twisted_cell(pin, v, w, J, sampler.integers(dim)).to_json()
                   for _ in range(args.count)]
    except BudgetExceeded as ex:
        _emit(args, {"inconclusive": str(ex)})
        return EXIT_INCONCLUSIVE
    _emit(args, {"cell": {"v": list(v.canonical_word()),
                          "w": list(w.canonical_word()),
                          "J": sorted(cartan.labels[i] for i in J.J),
                          "dimension": dim},
                 "samples": samples})
    return EXIT_PASS


def cmd_verify(args) -> int:
    if args.suite not in ("flags", "twisted", "doubleflag", "all"):
        raise _UsageError("suite must be flags|twisted|doubleflag|all")
    for option, value in (("--config", args.config), ("--budget-elems", args.budget_elems)):
        if value is not None:
            raise _UsageError("verify runs its suites on their built-in groups; "
                              f"{option} is not used")
    started = time.monotonic()
    checks = run_suite(args.suite, args.seed)
    payload = {"suite": args.suite, "seed": args.seed, "checks": checks}
    if args.timings:
        payload["elapsed_seconds"] = round(time.monotonic() - started, 3)
    _emit(args, payload)
    statuses = {c["status"] for c in checks}
    if "fail" in statuses:
        return EXIT_FAIL
    if statuses == {"inconclusive"}:
        return EXIT_INCONCLUSIVE
    return EXIT_PASS


def _common_options(ap: argparse.ArgumentParser, defaults: bool):
    d = (lambda v: v) if defaults else (lambda v: argparse.SUPPRESS)
    ap.add_argument("--config", default=d(None),
                    help="JSON file with {'cartan': ..., 'labels': ...}")
    ap.add_argument("--J", default=d(""),
                    help="comma-separated node labels, e.g. '2,3'")
    ap.add_argument("--seed", type=int, default=d(0))
    ap.add_argument("--budget-elems", type=int, default=d(None),
                    help=f"element budget of enumerations (default {DEFAULT_BUDGET})")
    ap.add_argument("--format", choices=("json", "dot", "text"), default=d("json"))
    ap.add_argument("--out", default=d(None),
                    help="write the report here instead of stdout")
    ap.add_argument("--timings", action="store_true", default=d(False),
                    help="include wall-clock timing in the report")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="twistflag",
        description="Twisted Bruhat orders, positive cells, and their certificates")
    _common_options(ap, defaults=True)
    sub = ap.add_subparsers(dest="command")
    p_order = sub.add_parser("order", help="compare two elements in <=J")
    p_order.add_argument("v")
    p_order.add_argument("w")
    _common_options(p_order, defaults=False)
    p_interval = sub.add_parser("interval", help="build and certify [x, y] in <=J")
    p_interval.add_argument("x")
    p_interval.add_argument("y")
    p_interval.add_argument("--checks", default="pure,thin,el,homology")
    _common_options(p_interval, defaults=False)
    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", default="all")
    _common_options(p_verify, defaults=False)
    p_sample = sub.add_parser("sample",
                              help="sample points of a totally positive twisted cell")
    p_sample.add_argument("v")
    p_sample.add_argument("w")
    p_sample.add_argument("--count", type=int, default=1)
    _common_options(p_sample, defaults=False)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.command == "order":
            return cmd_order(args)
        if args.command == "interval":
            return cmd_interval(args)
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "sample":
            return cmd_sample(args)
    except _UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except TwistflagError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_FAIL
    ap.print_help()
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
