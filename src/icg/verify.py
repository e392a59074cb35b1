"""Exhaustive verification: closed-form predictions vs BFS.

For each order n with k distinct prime factors, the connected divisor sets
with at most k elements decide the maxima per cardinality and overall that
are compared against the predictions.  Larger sets cannot change a record:
adding a divisor only adds edges, and every connected set contains a
minimal connected subset, whose divisors each have their own prime
dividing all the others, so it has at most k elements.

The sets are searched depth first over the proper divisors, so each set
comes before its extensions and the sets of one size come in lexicographic
order.  Each connected set gets a BFS diameter, which bounds the diameter
of every extension; the extensions are skipped when it is no more than the
record of every larger size.  Every set of one level of the search extends
the level's prefix, so the diameter of the prefix, or of its nearest
connected ancestor when it is not connected, bounds them all, and the
level returns once that bound is no more than the record of its size and
of every larger one.  A skipped set cannot strictly improve a record, so
each witness is still the first set, by size then lexicographically, to
reach its maximum, as over the full power set.  An order with more than
``MAX_SUBSETS`` sets of at most k elements is refused before any BFS,
although the search runs a BFS on far fewer of them, and a range that
holds such an order is refused before any order is searched.

The search carries each set's class-index bitmask and reads its diameter
from the signature table of ``icg.distance``; only a set that misses runs a
BFS, and the table keeps the result for every later order of the
signature.  The successor row that BFS reads is built lazily, from step
rows that the search fetches from the order table once each: it keeps them
in a list by class index, filled on a divisor's first use, because each
fetch looks the signature table up again.  A set whose parent's row is
known gets its row by one OR with the step row of its last divisor, read
from that list, and a level of the search with no known row ORs its
prefix's row from the list once, on its first miss.  With ``jobs`` above 1
each pool worker fills its own tables, and each search its own list.

The search reads the divisors only through their class indices, taken in
ascending order of value: connectivity, rows, diameters, the floor below
and the guard are all functions of the class digits.  So its result, each
size's maximum and witness written as class indices, is a function of the
signature and of the order's divisor order, and the signature table keeps
one witness row per divisor order.  The search returns the row in the form
the table stores, and every order maps its indices through its own
divisors; an order whose row is stored runs no search: 2..3000 has 2,999
orders but 339 divisor orders.  The guard runs before the lookup, so an
order it refuses is refused whether its row is stored or not.

The per-size maxima are a function of the signature alone, so every row
of a signature holds the same ones.  A new divisor order of a known
signature runs the search with the maxima of any stored row as a floor: a
set's extensions are skipped when each larger size holds a record they
cannot beat or has a known maximum above the set's diameter, and a level
of the search stops once its size and every larger one hold a set at its
known maximum.  Only the first set, by size then lexicographically, to
reach a size's maximum can be its witness, and no skip passes over one,
so the witnesses do not change.

The rest of an order's work outside the search is read, not recomputed:
the proper divisors and their class indices from the order table, the k + 1
predictions from the signature's row (``extremal.prediction_row``), and
the guard's subset count from a cache per number of divisors and sizes.

Mismatches are first-class records, not assertion failures: the whole
sweep completes, and the caller decides the exit status.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from operator import or_
from typing import NamedTuple

from .canonical import subset_sizes
from .distance import DivisorClasses, class_diameter, divisor_classes, or_rows
from .errors import ValidationError
from .extremal import MaxDiameterPrediction, prediction_row
from .numtheory import factorize


class Status(str, Enum):
    MATCH = "MATCH"
    MISMATCH = "MISMATCH"


class VerificationRecord(NamedTuple):
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
    classes = divisor_classes(f)
    subset_sizes(n, len(classes.proper_divisors), 1, f.k)
    order = tuple(map(classes.index.__getitem__, classes.proper_divisors))  # the divisor order
    witnesses = classes.witnesses
    row = witnesses.get(order)
    if row is None:
        row = witnesses[order] = _search(classes, order, f.k)
    divisor_of = classes.divisors.__getitem__
    best = [(diam, tuple(map(divisor_of, w))) for diam, w in row]
    predictions = prediction_row(classes.signature)
    records = []
    for t, (predicted, (observed, witness)) in enumerate(zip(predictions.per_t, best), 1):
        status = Status.MATCH if predicted.value == observed else Status.MISMATCH
        records.append(VerificationRecord(n, t, predicted, observed, witness, status))
    predicted = predictions.overall
    # The first strict maximum over sizes 1..k, smallest size first.
    observed, witness = max(best, key=lambda entry: entry[0])
    status = Status.MATCH if predicted.value == observed else Status.MISMATCH
    records.append(VerificationRecord(n, None, predicted, observed, witness, status))
    return records


def _search(
    classes: DivisorClasses, order: tuple[int, ...], k: int
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """For each size t = 1..k, the maximal diameter of a connected set of t
    proper divisors and the first such set, by size then lexicographically,
    as class indices, like order: the row as the signature table stores it.

    Every row it ORs, a node's or a level's prefix's, is built from the
    list ``steps``, which holds each divisor's step row by class index once
    ``classes.step`` has fetched it, on its first use in this search."""
    divisors = classes.proper_divisors
    divisor_of = classes.divisors.__getitem__
    diameters = classes.diameters
    known = next(iter(classes.witnesses.values()), None)
    # floor[t] is the known maximum of size t, 0 while it is unknown.
    floor = (0, *(m for m, _ in known)) if known else (0,) * (k + 1)
    best = [(0, ())] * (k + 1)  # t -> (max diam, witness), (0, ()) before any set
    # bar[t]: no set of size t with diameter <= bar[t] is the first to reach its maximum.
    bar = [m - 1 for m in floor]
    done = k + 1  # every size from done to k holds a set at its known maximum
    bits = [1 << i for i in order]
    steps = [None] * len(classes.divisors)

    def step(c: int) -> tuple[int, ...]:
        row = steps[c]
        if row is None:
            row = steps[c] = classes.step(divisor_of(c))
        return row

    def extend(
        prefix: tuple[int, ...],
        prefix_gcd: int,
        prefix_mask: int,
        prefix_row: list[int] | None,
        start: int,
        cap: int,
    ) -> None:
        """Visit each set prefix + (order[i],) with i from start, then its
        extensions; prefix holds class indices, prefix_mask has them set,
        prefix_row is its successor row, or None until a set here misses
        the signature's diameters, and cap bounds the diameter of every set
        here: that of prefix's nearest connected ancestor, prefix included."""
        nonlocal done
        size = len(prefix) + 1
        for i in range(start, len(divisors)):
            if size >= done:
                return  # these sets and their extensions cannot change a record
            node_gcd = math.gcd(prefix_gcd, divisors[i])
            if node_gcd != 1 and size == k:
                continue  # no BFS and no extensions: its row is never read
            node = prefix + (order[i],)
            mask = prefix_mask | bits[i]
            row = None
            if node_gcd == 1:
                diam = diameters.get(mask)
                if diam is None:
                    if prefix_row is None:
                        prefix_row = or_rows([0] * len(steps), map(step, prefix))
                    row = list(map(or_, prefix_row, step(order[i])))
                    diam = class_diameter(row)
                    if diam is None:
                        n, node = classes.divisors[-1], tuple(map(divisor_of, node))
                        raise RuntimeError(f"n={n}: connected set {node} left classes unreached")
                    diameters[mask] = diam
                if diam > best[size][0]:
                    best[size] = (diam, node)
                    bar[size] = max(diam, bar[size])
                    if diam == floor[size]:
                        while done > 1 and best[done - 1][0] == floor[done - 1]:
                            done -= 1
                    # The level cut, tested on bar[size] alone before the
                    # slice, which costs when taken on most visits.
                    if cap <= bar[size] and cap <= min(bar[size:]):
                        return  # no later set here can beat a record or reach a maximum
                # Every extension has diameter <= diam: none can beat a
                # record or reach a known maximum above diam.
                if size == k or diam <= min(bar[size + 1 :]):
                    continue
            if row is None and prefix_row is not None:
                row = list(map(or_, prefix_row, step(order[i])))
            extend(node, node_gcd, mask, row, i + 1, diam if node_gcd == 1 else cap)
            if cap <= bar[size] and cap <= min(bar[size:]):
                return

    # No diameter reaches the number of classes.
    extend((), 0, 0, None, 0, len(classes.divisors))
    return tuple(best[1:])


class RangeReport(NamedTuple):
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
        # Every cell is an int or a bare word, so none needs quoting.
        lines = ["n,t,predicted,observed,status"]
        lines += (",".join(map(str, r.to_csv_row())) for r in self.records)
        return "\n".join(lines) + "\n"


def verify_range(
    n_lo: int,
    n_hi: int,
    jobs: int = 1,
    fail_fast: bool = False,
) -> RangeReport:
    """Verify every order in [n_lo, n_hi]; deterministic regardless of jobs.

    Raises ResourceLimitError, before searching any order or starting a
    pool, when ``subset_sizes`` refuses some order of the range.  With one
    worker, or one order, the orders run in a plain loop in this process.
    With more than one worker they run in a process pool, which is
    imported here and only then, so importing icg loads no pool machinery.
    """
    if n_lo < 2 or n_hi < n_lo:
        raise ValidationError(f"invalid range [{n_lo}, {n_hi}]")
    orders = range(n_lo, n_hi + 1)
    if len(orders) > 1:  # verify_order checks a lone order before its search
        for n in orders:
            f = factorize(n)  # n has tau(n) - 1 proper divisors
            subset_sizes(n, math.prod(a + 1 for a in f.exponents) - 1, 1, f.k)
    records: list[VerificationRecord] = []
    # The pool may fork all its workers at once: start no more than orders.
    workers = min(jobs, len(orders))
    if workers <= 1:
        for n in orders:
            chunk = verify_order(n)
            records += chunk
            if fail_fast and _mismatched(chunk):
                break
        return RangeReport(n_lo, n_hi, tuple(records))
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        for chunk in pool.map(verify_order, orders):
            records += chunk
            if fail_fast and _mismatched(chunk):
                # map has submitted every order; drop those not yet started.
                pool.shutdown(cancel_futures=True)
                break
    return RangeReport(n_lo, n_hi, tuple(records))


def _mismatched(records: list[VerificationRecord]) -> bool:
    return any(r.status is Status.MISMATCH for r in records)
