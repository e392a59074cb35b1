"""One pass of one workload, in a fresh interpreter.

Usage: python3 bench/worker.py WORKLOAD SEED INPUT_SET TRACE

Imports icg (found through PYTHONPATH), builds input set INPUT_SET of the
seed, runs every op in the timed region, then checks the outputs and prints
one JSON object.  ``ready`` is the ``time.monotonic()`` reading when the
first op is about to start; the parent subtracts its own launch reading to
get the set-up time.  The calibration loop runs right after ``ready``,
between ops at least ``CAL_EVERY_S`` apart, and after the last op;
``speeds`` gives each op the mean of the samples just before and just
after it, ``setup_cal`` the first sample.  With TRACE=1 every call into icg
is wrapped in a span first.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from contextlib import nullcontext
from time import perf_counter

import icg  # noqa: F401  (part of set-up: the package and what cli pulls in)
import icg.cli  # noqa: F401

from tracing import Tracer
from workloads import WORKLOADS, icg_modules

CAL_EVERY_S = 0.25


def no_span(_name):
    return nullcontext()


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop, best of three: a measure of how
    fast the host runs this process right now."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i % 7
        best = min(best, perf_counter() - t0)
    return best


def main(argv: list[str]) -> int:
    name, seed, input_idx, trace = argv[0], int(argv[1]), int(argv[2]), argv[3] == "1"
    workload = WORKLOADS[name]
    m = icg_modules()
    items = workload.inputs(seed, input_idx)
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    span = tracer.span if tracer is not None else no_span
    ready = time.monotonic()

    outputs, times, before = [], [], []
    cal = [calibrate()]
    last_cal = perf_counter()
    for _key, inp in items:
        if perf_counter() - last_cal >= CAL_EVERY_S:
            cal.append(calibrate())
            last_cal = perf_counter()
        before.append(len(cal) - 1)
        t0 = perf_counter()
        try:
            with span("op"):
                out = workload.run(m, inp, span)
        except Exception as exc:  # one failed op must not end the pass
            out = exc
        times.append(perf_counter() - t0)
        outputs.append(out)
    cal.append(calibrate())
    # Samples are taken only between ops, so the one after sample i is the
    # first taken after every op that started after sample i.
    speeds = [(cal[i] + cal[i + 1]) / 2 for i in before]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()

    failed = 0
    errors: list[str] = []
    projected = []
    for (key, inp), out in zip(items, outputs):
        if isinstance(out, Exception):
            data, problems = f"error: {out!r}", [f"{key}: raised {type(out).__name__}: {out}"]
        else:
            try:
                data = workload.project(out)
                problems = workload.check(m, inp, data)
            except Exception as exc:  # a malformed answer can break the checker
                data, problems = f"error: {exc!r}", [f"{key}: check raised {type(exc).__name__}: {exc}"]
        projected.append(data)
        if problems:
            failed += 1
            errors.extend(problems)

    digest = hashlib.sha256(
        json.dumps([[key, data] for (key, _), data in zip(items, projected)], sort_keys=True).encode()
    ).hexdigest()
    result = {
        "ready": ready,
        "keys": [key for key, _ in items],
        "times": times,
        "speeds": speeds,
        "setup_cal": cal[0],
        "rss_mb": rss_mb,
        "attempted": len(items),
        "failed": failed,
        "errors": errors[:10],
        "digest": digest,
        "counters": workload.counters(items, projected),
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["counters"].update(tracer.counters)
        result["absent"] = tracer.absent
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
