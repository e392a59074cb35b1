"""Command-line surface with stable, scriptable output.

Exit codes: 0 success / all matches, 1 verification mismatch,
2 usage or validation error.  Divisor lists are comma-separated without
spaces; ranges use lo..hi inclusive.  Flags can be defaulted through
environment variables with the ICG_ prefix (ICG_FORMAT, ICG_JOBS): each
one that is set is read as a leading ``--format=VALUE`` or
``--jobs=VALUE``, so it is parsed and checked like the flag, an explicit
flag wins, and a malformed value exits 2 even when the flag is given.
Commands that enumerate divisor sets refuse an order with more than
``canonical.MAX_SUBSETS`` candidate sets (exit 2), except that
``enumerate --kind separated`` with a ``--t`` above the number of prime
factors prints no sets and exits 0, since no such set is separated.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .canonical import enumerate_connected, enumerate_separated, make_separated
from .core import make_divisor_set, make_instance
from .distance import diameter
from .errors import IcgError
from .extremal import (
    predict_max_for_t,
    predict_overall_max,
    saxena_family,
    worst_vertex,
)
from .numtheory import factorize
from .pst import pst_admissible
from .verify import verify_range

FORMATS = ("text", "json", "csv")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _divisor_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _order_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected lo..hi, got {text!r}")


def _emit(obj: dict, text: str, fmt: str) -> None:
    print(json.dumps(obj, sort_keys=True) if fmt == "json" else text)


def cmd_diameter(args) -> int:
    g = make_instance(args.n, args.divisors)
    result = diameter(g)
    obj = {"instance": g.to_json_obj(), **result.to_json_obj()}
    if result.value is None:
        text = f"infinite (disconnected); unreachable vertex {result.witness_vertex}"
    else:
        path = "-".join(str(v) for v in result.witness_path)
        text = f"{result.value} (witness vertex {result.witness_vertex}, path {path})"
    _emit(obj, text, args.format)
    return 0


def cmd_predict(args) -> int:
    f = factorize(args.n)
    pred = predict_overall_max(f) if args.t is None else predict_max_for_t(f, args.t)
    obj = {"n": args.n, "t": args.t, **pred.to_json_obj()}
    suffix = "" if pred.applicable else " (upper bound only; t > k)"
    _emit(obj, f"{pred.value} [{pred.case_label.value}]{suffix}", args.format)
    return 0


def cmd_verify(args) -> int:
    lo, hi = args.range
    report = verify_range(lo, hi, jobs=args.jobs, fail_fast=args.fail_fast)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        print(report.to_csv(), end="")
    else:
        print(f"range {lo}..{hi}: {report.match_count} matches, {len(report.mismatches)} mismatches")
        for r in report.mismatches:
            print(
                f"  MISMATCH n={r.n} t={'all' if r.t is None else r.t} "
                f"predicted={r.predicted.value} observed={r.observed_max} "
                f"witness={list(r.witness_set)}"
            )
    return 1 if report.mismatches else 0


def cmd_enumerate(args) -> int:
    if args.kind == "separated":
        sets = enumerate_separated(args.n, args.t)
    else:
        sets = enumerate_connected(args.n, args.t)
    for ds in sets:
        print(json.dumps({"n": ds.n, "divisors": list(ds.divisors)}))
    return 0


def cmd_worst_vertex(args) -> int:
    f = factorize(args.n)
    ds, w = make_separated(args.n, args.divisors)
    vertex = worst_vertex(f, ds, w, variant=args.variant)
    obj = {
        "n": args.n,
        "divisors": list(ds.divisors),
        "variant": args.variant,
        "witness": w.to_json_obj(),
        "vertex": vertex,
    }
    _emit(obj, str(vertex), args.format)
    return 0


def cmd_pst(args) -> int:
    f = factorize(args.n)
    ds = make_divisor_set(args.n, args.divisors)
    dec = pst_admissible(f, ds)
    if dec is None:
        _emit({"n": args.n, "divisors": list(ds.divisors), "admissible": False},
              "not PST-admissible", args.format)
    else:
        _emit(
            {"n": args.n, "divisors": list(ds.divisors), "admissible": True,
             "decomposition": dec.to_json_obj()},
            f"PST-admissible: hub n/2^{dec.a} = {dec.hub}, "
            f"D3={list(dec.d3tilde)}, D2={list(dec.d2)}",
            args.format,
        )
    return 0


def cmd_family(args) -> int:
    n, ds, predicted = saxena_family(args.primes)
    obj = {"n": n, "divisors": list(ds.divisors), "predicted_diameter": predicted}
    _emit(obj, f"n={n} D={','.join(map(str, ds.divisors))} predicted {predicted}", args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="icg", description="Integral circulant graph diameters and maximal-diameter theory"
    )
    parser.add_argument("--format", choices=FORMATS, default="text", help="output format")
    parser.add_argument(
        "--jobs", type=_positive_int, default=1, help="worker processes for verify"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diameter", help="exact diameter of ICG_n(D)")
    p.add_argument("n", type=int)
    p.add_argument("divisors", type=_divisor_list)
    p.set_defaults(func=cmd_diameter)

    p = sub.add_parser("predict", help="closed-form maximal diameter for order n")
    p.add_argument("n", type=int)
    p.add_argument("--t", type=int, default=None, help="divisor-set cardinality (omit for overall)")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("verify", help="sweep a range of orders against the BFS oracle")
    p.add_argument("range", type=_order_range, help="inclusive range lo..hi")
    p.add_argument("--fail-fast", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="enumerate divisor sets as JSON lines")
    p.add_argument("n", type=int)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--kind", choices=["separated", "connected"], default="connected")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("worst-vertex", help="CRT worst vertex for an extremal divisor set")
    p.add_argument("n", type=int)
    p.add_argument("divisors", type=_divisor_list)
    p.add_argument("--variant", choices=["I", "II"], default="I")
    p.set_defaults(func=cmd_worst_vertex)

    p = sub.add_parser("pst", help="perfect-state-transfer admissibility of (n, D)")
    p.add_argument("n", type=int)
    p.add_argument("divisors", type=_divisor_list)
    p.set_defaults(func=cmd_pst)

    p = sub.add_parser("family", help="named extremal families")
    p.add_argument("name", choices=["saxena"])
    p.add_argument("primes", type=_divisor_list)
    p.set_defaults(func=cmd_family)

    return parser


PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    # The = form keeps a value starting with "-" a value; an explicit flag
    # comes later in the arguments and wins.
    env_flags = [
        f"--{flag}={os.environ[var]}"
        for flag, var in (("format", "ICG_FORMAT"), ("jobs", "ICG_JOBS"))
        if var in os.environ
    ]
    args = PARSER.parse_args(env_flags + (sys.argv[1:] if argv is None else argv))
    if args.command == "enumerate" and args.kind == "separated" and args.t is None:
        PARSER.error("enumerate --kind separated requires --t")
    try:
        return args.func(args)
    except IcgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
