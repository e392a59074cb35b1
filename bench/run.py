"""Benchmark for icg: four workloads, end-to-end and per-layer metrics.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` next to this
directory, and the workloads and metric names from ``BENCHMARK.json``.

Every pass of a workload runs in a fresh interpreter (``worker.py``), one at
a time, so no process sees an input twice and the engine's caches start
empty.  A run takes about ``--seconds``.

Times are taken at a reference speed.  On the shared 2-CPU host this
benchmark was built on, the same pure-Python loop takes 25 ms in one
minute and 37 ms in the next, and within seconds swings up to 59 ms; CPU
time tracks wall time, so the slowdown comes from outside the guest.  Each
worker therefore times a fixed calibration loop right after set-up and
between ops at least 0.25 s apart, and every op time is multiplied by
``CAL_REF_S`` / the mean of the samples just before and just after the op
(set-up by ``CAL_REF_S`` / the first sample).  Over eight seeds of
``instance``, this cut the spread (quartile distance / median) of
``ops_per_s`` from 0.135 to 0.041, and of ``setup_s`` on ``sweep`` from
0.165 to 0.049.  A change to icg moves the op times and not the loop, so it
shows in full.

``--trace 0`` reports the end-to-end metrics.  An op that runs in several
passes (every sweep and theory op, the instance worked examples) counts
once, at its fastest run: contention only ever slows an op down.

- ``ops_per_s``: distinct ops / the sum of their times;
- ``op_p50_ms``, ``op_p90_ms``: percentiles of the ops' times;
- ``setup_s``: median, over passes, of the time from launching the
  interpreter to the first op being ready (imports and inputs; reference
  answers are computed after the timed region);
- ``peak_rss_mb``: median over passes of the worker's ``ru_maxrss``;
- ``ok_frac``: 1 - ops that raised, were refused or failed a check / ops.
  (``fail_frac`` would read 0 on a correct program, and a metric that is 0
  has no relative spread.)

``--trace 1`` runs pairs of an untraced and a traced pass on input set 0
instead, and reports the per-layer metrics of the traced passes (medians
over pairs).  The two passes of a pair must give identical outputs.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Exit code 2 when the program or the spec is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
PASS_TIMEOUT_S = 170
#: Seconds the worker's calibration loop takes at the reference speed
#: (this benchmark's 2-CPU host in its fast phase).
CAL_REF_S = 1.25e-3

#: Spans whose calls and self time are reported as <name>.calls/.self_s.
SPAN_NAMES = (
    "numtheory.factorize",
    "numtheory.proper_divisors",
    "core.make_instance",
    "distance.bfs",
    "distance.profile",
    "distance.diameter",
    "verify.order",
    "canonical.enumerate_separated",
    "canonical.separation_witness",
    "canonical.iter_witnesses",
    "extremal.predict",
    "extremal.check",
    "extremal.worst_vertex",
    "extremal.summands",
    "pst.enumerate",
    "pst.admissible",
    "cli.main",
)


class BenchError(Exception):
    pass


def run_pass(workload: str, seed: int, input_idx: int, trace: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(BENCH / "worker.py"), workload, str(seed), str(input_idx), str(int(trace))]
    launched = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, cwd=ROOT, timeout=PASS_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass of {workload} exceeded {PASS_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"a pass of {workload} failed:\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - launched
    return result


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> list[list[dict]]:
    """Group p is pass p on input set p, or with ``trace`` an untraced and a
    traced pass, both on input set 0, so that every group measures the same
    work.  Groups run one at a time while the next is expected (from the
    last one) to end within ``seconds``; at least two untraced passes or one
    group."""
    groups: list[list[dict]] = []
    start = time.monotonic()
    took = 0.0
    while len(groups) < (1 if trace else 2) or time.monotonic() - start + took <= seconds:
        t0 = time.monotonic()
        if trace:
            group = [run_pass(workload, seed, 0, False), run_pass(workload, seed, 0, True)]
        else:
            group = [run_pass(workload, seed, len(groups), False)]
        groups.append(group)
        took = time.monotonic() - t0
    return groups


def at_reference(p: dict) -> list[float]:
    """A pass's op times at the reference speed."""
    return [t * CAL_REF_S / speed for t, speed in zip(p["times"], p["speeds"])]


def end_to_end(passes: list[dict]) -> tuple[dict[str, float], int]:
    by_key: dict[str, float] = {}
    for p in passes:
        for key, t in zip(p["keys"], at_reference(p)):
            by_key[key] = min(t, by_key.get(key, t))
    latencies = list(by_key.values())
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[8],
        "setup_s": statistics.median(p["setup_s"] * CAL_REF_S / p["setup_cal"] for p in passes),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "ok_frac": 1 - failed / attempted,
    }
    return metrics, len(latencies)


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: dict, traced: dict) -> dict[str, float]:
    layers, counters = traced["layers"], traced["counters"]
    metrics: dict[str, float] = {}
    f = CAL_REF_S / statistics.median(traced["speeds"])
    for name in SPAN_NAMES:
        entry = layers.get(name, {})
        metrics[f"{name}.calls"] = entry.get("calls", 0)
        metrics[f"{name}.self_s"] = entry.get("self_s", 0.0) * f
    metrics["distance.bfs.levels"] = counters.get("distance.bfs.levels", 0)
    metrics["verify.bfs_useful_frac"] = ratio(
        counters.get("verify.useful_sets", 0), metrics["distance.bfs.calls"]
    )
    metrics["verify.mismatch_records"] = counters.get("verify.mismatch_records", 0)
    metrics["canonical.separated_frac"] = ratio(
        counters.get("canonical.separated", 0), counters.get("canonical.tried", 0)
    )
    metrics["pst.admissible_frac"] = ratio(
        counters.get("pst.admissible.hits", 0), metrics["pst.admissible.calls"]
    )
    # Self time of the op's root span: the benchmark's own loop plus icg
    # code outside every wrapped function.
    metrics["unattributed.self_s"] = layers.get("op", {}).get("self_s", 0.0) * f
    metrics["trace.op_time_s"] = sum(at_reference(traced))
    metrics["trace.overhead_frac"] = metrics["trace.op_time_s"] / sum(at_reference(plain)) - 1
    return metrics


def commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv: list[str] | None = None) -> int:
    if not SPEC.is_file() or not (ROOT / "src" / "icg" / "__init__.py").is_file():
        print(f"error: needs {SPEC.name} and src/icg/ under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    try:
        groups = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    passes = [p for group in groups for p in group]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0
    for p in passes:
        for line in p["errors"]:
            print(f"check failed: {line}", file=sys.stderr)

    if args.trace:
        per_pair = []
        for plain, traced in groups:
            if plain["digest"] != traced["digest"]:
                correct = False
                print("check failed: traced and untraced outputs differ", file=sys.stderr)
            per_pair.append(per_layer(plain, traced))
        values = {k: statistics.median(m[k] for m in per_pair) for k in per_pair[0]}
        wanted = spec["per_layer"]
        absent = sorted({name for _, traced in groups for name in traced["absent"]})
        samples = len(groups)
    else:
        values, samples = end_to_end(passes)
        wanted = spec["end_to_end"]
        absent = []

    print(
        f"# icg benchmark workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(passes)} samples={samples} python={platform.python_version()} "
        f"cpus={os.cpu_count()} commit={commit()}"
    )
    if absent:
        print(f"# absent from this version of icg (reported as 0): {', '.join(absent)}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
