"""Command-line surface with stable, scriptable output.

The grammar is ``icg [global flags] command [arguments]``.  The global
flags, ``--format`` and ``--jobs``, come before the command; after it they
are unrecognized arguments.  A flag takes its value as the next argument or
after ``=`` (``--t 2`` or ``--t=2``), and a unique prefix of a long flag
names it (``--fail`` for ``--fail-fast``).  A ``--`` makes the rest of its
level positionals: before the command, the rest up to the command.
``-h`` or ``--help`` prints the usage line to stdout and exits 0; before
the command it lists every command, after it every positional and flag of
the command, with their choices.  One loop reads all of it from one table,
``COMMANDS``; the tests compare it with the argparse parser it replaced
(``tests/cli_reference.py``).

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

import json
import os
import re
import sys
from types import SimpleNamespace

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
        raise ValueError(f"expected a positive integer, got {text!r}")
    return value


def _divisor_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}") from None


def _order_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise ValueError(f"expected lo..hi, got {text!r}") from None


def _emit(obj: dict, text: str | None, fmt: str) -> None:
    print(json.dumps(obj, sort_keys=True) if fmt == "json" else text)


def cmd_diameter(args) -> int:
    g = make_instance(args.n, args.divisors)
    result = diameter(g)
    obj = {"instance": g.to_json_obj(), **result.to_json_obj()}
    if args.format == "json":
        text = None  # not printed, so the path line is not built
    elif result.value is None:
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


#: The flags that come before the command: flag -> (dest, convert, default).
#: A convert that is not callable is the collection of allowed values.
GLOBAL_FLAGS = {
    "--format": ("format", FORMATS, "text"),
    "--jobs": ("jobs", _positive_int, 1),
}

#: command -> (handler, help, positionals as (dest, convert) pairs, flags as
#: in GLOBAL_FLAGS).  A flag whose convert is None takes no value and, when
#: given, stores True.
COMMANDS = {
    "diameter": (
        cmd_diameter, "exact diameter of ICG_n(D)",
        (("n", int), ("divisors", _divisor_list)), {},
    ),
    "predict": (
        cmd_predict, "closed-form maximal diameter for order n",
        (("n", int),), {"--t": ("t", int, None)},
    ),
    "verify": (
        cmd_verify, "sweep a range lo..hi of orders against the BFS oracle",
        (("range", _order_range),), {"--fail-fast": ("fail_fast", None, False)},
    ),
    "enumerate": (
        cmd_enumerate, "enumerate divisor sets as JSON lines",
        (("n", int),),
        {"--t": ("t", int, None), "--kind": ("kind", ("separated", "connected"), "connected")},
    ),
    "worst-vertex": (
        cmd_worst_vertex, "CRT worst vertex for an extremal divisor set",
        (("n", int), ("divisors", _divisor_list)), {"--variant": ("variant", ("I", "II"), "I")},
    ),
    "pst": (
        cmd_pst, "perfect-state-transfer admissibility of (n, D)",
        (("n", int), ("divisors", _divisor_list)), {},
    ),
    "family": (
        cmd_family, "named extremal families",
        (("name", ("saxena",)), ("primes", _divisor_list)), {},
    ),
}

#: The level before the command, in the shape of a COMMANDS entry.
TOP = (None, "Integral circulant graph diameters and maximal-diameter theory",
       (("command", COMMANDS),), GLOBAL_FLAGS)

_HELP = ("-h", "--help")
#: Tokens that start with "-" but are positionals, as argparse reads them.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _UsageError(Exception):
    """A malformed command line; parse_args prints it and exits 2."""


def _flag(token: str, flags: dict) -> tuple[str | None, str | None] | None:
    """Read ``token`` against ``flags`` and -h/--help as argparse does.

    None means a positional.  Otherwise the pair is the flag named (None
    for an unknown one, which is kept for the "unrecognized arguments"
    error) and the value given with it by ``=`` or, after ``-h``, attached.
    A unique prefix of a long flag names it.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token in flags or token in _HELP:
        return token, None
    name, eq, value = token.partition("=")
    if eq and (name in flags or name in _HELP):
        return name, value
    if token[1] == "-":
        found = [flag for flag in (*flags, "--help") if flag.startswith(name)]
        if len(found) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif token[1] == "h":
        return "-h", token[2:]
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _convert(name: str, convert, text: str):
    if not callable(convert):
        if text in convert:
            return text
        choices = ", ".join(map(repr, convert))
        raise _UsageError(f"argument {name}: invalid choice: {text!r} (choose from {choices})")
    try:
        return convert(text)
    except ValueError as exc:
        reason = f"invalid int value: {text!r}" if convert is int else str(exc)
        raise _UsageError(f"argument {name}: {reason}") from None


def _metavar(name: str, convert) -> str:
    return name if callable(convert) else "{" + ",".join(convert) + "}"


def _usage(prog: str, level: tuple) -> str:
    _, _, positionals, flags = level
    words = [prog, "[-h]"]
    for flag, (dest, convert, _) in flags.items():
        words.append(f"[{flag}]" if convert is None else f"[{flag} {_metavar(dest.upper(), convert)}]")
    words += (_metavar(dest, convert) for dest, convert in positionals)
    return "usage: " + " ".join(words) + (" ..." if level is TOP else "")


def _help(prog: str, level: tuple) -> str:
    lines = [_usage(prog, level), "", level[1]]
    if level is TOP:
        lines += ["", "commands:"] + [f"  {name:14}{entry[1]}" for name, entry in COMMANDS.items()]
    return "\n".join(lines)


def parse_args(argv: list[str]):
    """Parse ``icg``'s arguments into a namespace whose ``func`` is the
    command's handler.

    Each ICG_ default that is set comes first, as ``--format=VALUE`` or
    ``--jobs=VALUE``.  A usage error prints the usage line and
    ``error: ...`` to stderr and raises SystemExit(2); ``-h`` prints help
    to stdout and raises SystemExit(0).
    """
    tokens = []
    for flag, var in (("format", "ICG_FORMAT"), ("jobs", "ICG_JOBS")):
        value = os.environ.get(var)
        if value is not None:
            tokens.append(f"--{flag}={value}")
    tokens += argv
    prog, level = "icg", TOP
    _, _, positionals, flags = level
    values = {dest: default for dest, _, default in flags.values()}
    values["command"] = None
    extras = []
    done = 0  # positionals of this level read so far
    only_positionals = False  # after a "--" in this level
    i = 0
    try:
        while i < len(tokens):
            token = tokens[i]
            i += 1
            if only_positionals:
                match = None
            elif token == "--":
                only_positionals = True
                continue
            else:
                match = _flag(token, flags)
            if match is None:
                if done == len(positionals):
                    extras.append(token)
                    continue
                dest, convert = positionals[done]
                done += 1
                values[dest] = _convert(dest, convert, token)
                if convert is COMMANDS:
                    prog, level = f"icg {token}", COMMANDS[token]
                    values["func"], _, positionals, flags = level
                    values.update((dest, default) for dest, _, default in flags.values())
                    done = 0
                    only_positionals = False  # a "--" before the command ends the global flags
                continue
            flag, value = match
            if flag is None:
                extras.append(token)
            elif flag in _HELP:
                # -hh is -h twice; -hx is -h and an unknown -x.
                if value is not None and (flag == "--help" or not value or value.strip("h")):
                    raise _UsageError(f"argument -h/--help: ignored explicit argument {value!r}")
                # Every token is read against the global flags before any
                # is acted on, as argparse does, so an ambiguous one (such
                # as "--=x", which matches every long flag) wins over -h.
                for token in tokens:
                    if token == "--":
                        break
                    _flag(token, GLOBAL_FLAGS)
                print(_help(prog, level))
                raise SystemExit(0)
            else:
                dest, convert, _ = flags[flag]
                if convert is None:
                    if value is not None:
                        raise _UsageError(f"argument {flag}: ignored explicit argument {value!r}")
                    values[dest] = True
                    continue
                if value is None:
                    if i == len(tokens) or tokens[i] == "--" or _flag(tokens[i], flags) is not None:
                        raise _UsageError(f"argument {flag}: expected one argument")
                    value = tokens[i]
                    i += 1
                values[dest] = _convert(flag, convert, value)
        if done < len(positionals):
            missing = ", ".join(dest for dest, _ in positionals[done:])
            raise _UsageError(f"the following arguments are required: {missing}")
        if extras:
            raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
        if values["command"] == "enumerate" and values["kind"] == "separated" and values["t"] is None:
            raise _UsageError("enumerate --kind separated requires --t")
    except _UsageError as exc:
        print(_usage(prog, level), f"{prog}: error: {exc}", sep="\n", file=sys.stderr)
        raise SystemExit(2) from None
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        return args.func(args)
    except IcgError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
