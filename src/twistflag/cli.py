"""Command-line surface.

Exit codes: 0 pass, 2 check failure, 3 inconclusive only, 4 usage error.
Reports are byte-identical for identical (config, seed); timings are
only added under --timings since they are not reproducible.
"""

from __future__ import annotations

import argparse
import functools
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
    if args.format == "dot":  # only interval reaches here under dot, with its poset
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
        if args.format == "dot":  # no poset to draw
            print(f"inconclusive: {ex}", file=sys.stderr)
        else:
            _emit(args, {"inconclusive": str(ex)})
        return EXIT_INCONCLUSIVE
    _emit(args, payload, dot=poset_to_dot(fp))
    failed = any(v is False for v in payload["checks"].values())
    return EXIT_FAIL if failed else EXIT_PASS


def cmd_sample(args) -> int:
    from .cells import ParamSampler, PinnedGroup, sample_twisted_cell
    from .twisted import j_length
    if args.count < 0:
        raise _UsageError(f"--count must be >= 0, got {args.count}")
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


# the shared options' defaults, the starting namespace of every parse: the
# options themselves default to SUPPRESS, so a verb's parser leaves a value
# given before the verb alone
_DEFAULTS = {"config": None, "J": "", "seed": 0, "budget_elems": None,
             "format": "json", "out": None, "timings": False}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--config", help="JSON file with {'cartan': ..., 'labels': ...}")
    shared.add_argument("--J", help="comma-separated node labels, e.g. '2,3'")
    shared.add_argument("--seed", type=int)
    shared.add_argument("--budget-elems", type=int,
                        help=f"element budget of enumerations (default {DEFAULT_BUDGET})")
    shared.add_argument("--format", choices=("json", "dot", "text"),
                        help="report format; dot is for interval only")
    shared.add_argument("--out", help="write the report here instead of stdout")
    shared.add_argument("--timings", action="store_true",
                        help="include wall-clock timing in the report")
    ap = argparse.ArgumentParser(
        prog="twistflag", parents=[shared],
        description="Twisted Bruhat orders, positive cells, and their certificates")
    sub = ap.add_subparsers(dest="command")
    p_order = sub.add_parser("order", parents=[shared], help="compare two elements in <=J")
    p_order.add_argument("v")
    p_order.add_argument("w")
    p_interval = sub.add_parser("interval", parents=[shared],
                                help="build and certify [x, y] in <=J")
    p_interval.add_argument("x")
    p_interval.add_argument("y")
    p_interval.add_argument("--checks", default="pure,thin,el,homology")
    p_verify = sub.add_parser("verify", parents=[shared], help="run a verification suite")
    p_verify.add_argument("--suite", default="all")
    p_sample = sub.add_parser("sample", parents=[shared],
                              help="sample points of a totally positive twisted cell")
    p_sample.add_argument("v")
    p_sample.add_argument("w")
    p_sample.add_argument("--count", type=int, default=1)
    return ap


_COMMANDS = {"order": cmd_order, "interval": cmd_interval, "verify": cmd_verify,
             "sample": cmd_sample}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv, argparse.Namespace(**_DEFAULTS))
    if args.command is None:
        ap.print_help()
        return EXIT_USAGE
    try:
        if args.format == "dot" and args.command != "interval":
            raise _UsageError(f"--format dot is for interval only, not {args.command}")
        return _COMMANDS[args.command](args)
    except _UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except TwistflagError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
