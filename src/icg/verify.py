"""Exhaustive verification: closed-form predictions vs BFS.

For each order n with k distinct prime factors, every connected divisor
set with at most k elements gets a BFS diameter; maxima per cardinality
and overall are compared against the predictions.  Larger sets cannot
change a record: adding a divisor only adds edges, and every connected set
contains a minimal connected subset, whose divisors each have their own
prime dividing all the others, so it has at most k elements.  Sets come
from ``canonical.divisor_subsets`` by size, then lexicographically, so each
witness is the first set to reach its maximum, as over the full power set;
an order with more than ``MAX_SUBSETS`` such sets is refused.

Mismatches are first-class records, not assertion failures: the whole
sweep completes, and the caller decides the exit status.
"""

from __future__ import annotations

import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from enum import Enum

from .canonical import divisor_subsets, enumerate_separated
from .core import make_instance
from .distance import DivisorClasses, apsp_oracle, class_diameter
from .errors import ValidationError
from .extremal import MaxDiameterPrediction, predict_max_for_t, predict_overall_max
from .numtheory import factorize, proper_divisors


class Status(str, Enum):
    MATCH = "MATCH"
    MISMATCH = "MISMATCH"


@dataclass(frozen=True)
class VerificationRecord:
    n: int
    t: int | None  # None = overall (all cardinalities)
    predicted: MaxDiameterPrediction
    observed_max: int
    witness_set: tuple[int, ...]
    status: Status

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "t": self.t,
            "predicted": self.predicted.to_json_obj(),
            "observed_max": self.observed_max,
            "witness_set": list(self.witness_set),
            "status": self.status.value,
        }

    def to_csv_row(self) -> list:
        return [
            self.n,
            "all" if self.t is None else self.t,
            self.predicted.value,
            self.observed_max,
            self.status.value,
        ]


def verify_order(n: int) -> list[VerificationRecord]:
    """One record per cardinality t = 1..k plus one overall record."""
    f = factorize(n)
    classes = DivisorClasses(f)
    best: dict[int, tuple[int, tuple[int, ...]]] = {}  # t -> (max diam, witness)
    for combo in divisor_subsets(n, 1, f.k):
        if math.gcd(*combo) != 1:
            continue
        diam = class_diameter(classes, combo)
        if diam is None:
            raise RuntimeError(f"n={n}: connected set {combo} left classes unreached")
        size = len(combo)
        if size not in best or diam > best[size][0]:
            best[size] = (diam, combo)
    records = []
    for t in range(1, f.k + 1):
        predicted = predict_max_for_t(f, t)
        observed, witness = best[t]
        status = Status.MATCH if predicted.value == observed else Status.MISMATCH
        records.append(VerificationRecord(n, t, predicted, observed, witness, status))
    predicted = predict_overall_max(f)
    # The first strict maximum over sizes 1..k, in enumeration order.
    observed, witness = max(best.values(), key=lambda entry: entry[0])
    status = Status.MATCH if predicted.value == observed else Status.MISMATCH
    records.append(VerificationRecord(n, None, predicted, observed, witness, status))
    return records


@dataclass(frozen=True)
class RangeReport:
    n_lo: int
    n_hi: int
    records: tuple[VerificationRecord, ...]

    @property
    def mismatches(self) -> tuple[VerificationRecord, ...]:
        return tuple(r for r in self.records if r.status is Status.MISMATCH)

    @property
    def match_count(self) -> int:
        return sum(1 for r in self.records if r.status is Status.MATCH)

    def to_json(self) -> str:
        return json.dumps(
            {
                "range": [self.n_lo, self.n_hi],
                "matches": self.match_count,
                "mismatches": len(self.mismatches),
                "mismatch_details": [r.to_json_obj() for r in self.mismatches],
                "records": [r.to_json_obj() for r in self.records],
            },
            indent=2,
            sort_keys=True,
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["n", "t", "predicted", "observed", "status"])
        for r in self.records:
            writer.writerow(r.to_csv_row())
        return buf.getvalue()


def verify_range(
    n_lo: int,
    n_hi: int,
    jobs: int = 1,
    fail_fast: bool = False,
) -> RangeReport:
    """Verify every order in [n_lo, n_hi]; deterministic regardless of jobs."""
    if n_lo < 2 or n_hi < n_lo:
        raise ValidationError(f"invalid range [{n_lo}, {n_hi}]")
    orders = range(n_lo, n_hi + 1)
    records: list[VerificationRecord] = []
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        for chunk in (map if pool is None else pool.map)(verify_order, orders):
            records.extend(chunk)
            if fail_fast and any(r.status is Status.MISMATCH for r in chunk):
                if pool is not None:
                    # map has submitted every order; drop those not yet started.
                    pool.shutdown(cancel_futures=True)
                break
    return RangeReport(n_lo, n_hi, tuple(records))


def verify_transitivity(n_max: int) -> dict:
    """Constant row eccentricity (vertex transitivity) via the all-pairs
    oracle, over deterministic sample instances for each order."""
    checked = 0
    failures = []
    for n in range(3, n_max + 1):
        divisor_sets = [[1], list(proper_divisors(n))]
        k = factorize(n).k
        if k >= 2:
            separated = enumerate_separated(n, 2)
            if separated:
                divisor_sets.append(list(separated[0].divisors))
        seen = set()
        for divisors in divisor_sets:
            key = tuple(divisors)
            if key in seen:
                continue
            seen.add(key)
            g = make_instance(n, divisors)
            table = apsp_oracle(g)
            eccs = {
                None if any(d is None for d in row) else max(row) for row in table
            }
            checked += 1
            if len(eccs) != 1:
                failures.append({"n": n, "divisors": divisors})
    return {"checked": checked, "failures": failures, "ok": not failures}
