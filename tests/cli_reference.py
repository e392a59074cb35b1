"""The argparse parser that ``icg.cli`` used before its table parser, kept as
a test reference.

``build_parser`` is the old code, unchanged; ``parse_args`` does what the
old ``main`` did before it called the handler: it puts each ICG_ default
that is set in front of the arguments and refuses ``enumerate --kind
separated`` without ``--t``.  Tests compare ``icg.cli.parse_args`` with it.
"""

import argparse
import os

from icg.cli import (
    FORMATS,
    _divisor_list,
    _order_range,
    _positive_int,
    cmd_diameter,
    cmd_enumerate,
    cmd_family,
    cmd_predict,
    cmd_pst,
    cmd_verify,
    cmd_worst_vertex,
)


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


def parse_args(argv: list[str]) -> argparse.Namespace:
    env_flags = [
        f"--{flag}={os.environ[var]}"
        for flag, var in (("format", "ICG_FORMAT"), ("jobs", "ICG_JOBS"))
        if var in os.environ
    ]
    args = PARSER.parse_args(env_flags + argv)
    if args.command == "enumerate" and args.kind == "separated" and args.t is None:
        PARSER.error("enumerate --kind separated requires --t")
    return args
