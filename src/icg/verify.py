"""Exhaustive verification: closed-form predictions vs BFS.

For each order n with k distinct prime factors, the connected divisor sets
with at most k elements decide the maxima per cardinality and overall that
are compared against the predictions.  Larger sets cannot change a record:
adding a divisor only adds edges, and every connected set contains a
minimal connected subset, whose divisors each have their own prime
dividing all the others, so it has at most k elements.  An order with more
than ``MAX_SUBSETS`` such sets is refused before any BFS, and a range that
holds one is refused before any order is verified.

A set's class-BFS diameter depends only on the exponent signature and the
class indices of its members (see ``icg.distance``), so the maxima are
found once per signature, by one class BFS over all the sets at once: bit
s of its ints stands for the s-th subset of the proper classes with 1..k
members, by size then lexicographically by class index.  Per class it
keeps the sets that have not reached the class and those that reached it
last level; a level ORs the latter sets that hold a class i into each
class that the step row of i takes the class to.  A set's diameter is the
level at which it has reached every class, and a connected set that
leaves a class unreached raises ``RuntimeError``.  The signature table
keeps each size's maximum and the one mask of the sets that reach it.

The witness of a size, the first set by size then lexicographically in
value order to reach its maximum, is a function of the signature and of
the order's divisor order, the class indices of its proper divisors
ascending by value, and so are the predictions and each record's status.
So the signature table keeps one record row per divisor order, the
order's records with the witnesses as class indices, built the first time
the divisor order is seen.  An order whose row is stored runs no BFS and
no prediction: it maps its witnesses to divisors.  2..3000 has 2,999
orders, 339 divisor orders and 99 signatures.  The guard runs before the
lookup.  With ``jobs`` above 1 each pool worker fills its own tables.

Mismatches are first-class records, not assertion failures: the whole
sweep completes, and the caller decides the exit status.
"""

from __future__ import annotations

import json
import math
from enum import Enum
from functools import lru_cache, reduce
from operator import or_
from typing import NamedTuple

from .canonical import subset_sizes
from .distance import DivisorClasses, divisor_classes
from .errors import ValidationError
from .extremal import MaxDiameterPrediction, prediction_row
from .numtheory import Factorization, factorize


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
    order = classes.divisor_order
    subset_sizes(n, len(order), 1, f.k)
    row = classes.records.get(order)
    if row is None:
        row = classes.records[order] = _record_row(classes, f)
    divisor_of = classes.divisors.__getitem__
    return [
        VerificationRecord(n, t, predicted, observed, tuple(map(divisor_of, witness)), status)
        for t, predicted, observed, witness, status in row
    ]


def _record_row(classes: DivisorClasses, f: Factorization) -> tuple:
    """The records of every order with the signature and divisor order of
    classes, the row the signature table stores: (t, predicted, observed,
    witness, status) for t = 1..k, then the overall entry with t None,
    each witness as class indices ascending by value.  A size's witness is
    read off its mask in one pass over the classes in value order: each
    class that a set still in the running holds, keeping those sets."""
    maxima = classes.maxima
    if not maxima:
        maxima += _maxima(classes, f)
    member = _members(len(classes.divisor_order), f.k)
    best = []
    for top, sets in maxima:
        running, witness = sets, []
        for c in classes.divisor_order:
            held = running & member[c]
            if held:
                running = held
                witness.append(c)
        best.append((top, tuple(witness)))
    predictions = prediction_row(classes.signature)
    row = []
    # The overall entry is the first strict maximum over sizes 1..k,
    # smallest size first.
    for t, predicted, (observed, witness) in [
        *zip(range(1, len(best) + 1), predictions.per_t, best),
        (None, predictions.overall, max(best, key=lambda entry: entry[0])),
    ]:
        status = Status.MATCH if predicted.value == observed else Status.MISMATCH
        row.append((t, predicted, observed, witness, status))
    return tuple(row)


def _maxima(classes: DivisorClasses, f: Factorization) -> list:
    """For each size t = 1..k, (top, sets): the maximal diameter of a
    connected set of t proper divisors, and the mask of the connected t-sets
    that reach it, in the subset bits of ``_members``.  One class BFS runs
    over all the sets at once."""
    k = f.k
    m = len(classes.divisor_order)  # class m is n, that is vertex 0
    member = _members(m, k)
    connected = -1
    for p in f.primes:  # some member is prime to p
        connected &= reduce(or_, [s for s, d in zip(member, classes.divisors) if d % p])
    steps = []  # (the connected sets that hold class i, the step row of i)
    for i, held in enumerate(member):
        held &= connected
        if held:
            steps.append((held, classes.row(i)))
    sizes = []  # the mask of the sets of each size
    start = 0
    for t in range(1, k + 1):
        width = math.comb(m, t)
        sizes.append((1 << width) - 1 << start)
        start += width
    frontier = {m: connected}  # class -> the sets that reached it last level
    unreached = [connected] * m + [0]
    pending = connected  # the sets that have not reached every class
    best = [(0, 0)] * k  # per size: the last level that completed a set, and those sets
    level = 0
    while pending:
        level += 1
        nxt = [0] * (m + 1)
        for c, sets in frontier.items():
            sets &= pending
            if not sets:
                continue
            for held, row in steps:
                x = sets & held
                if x:
                    r = row[c]
                    while r:
                        low = r & -r
                        nxt[low.bit_length() - 1] |= x
                        r ^= low
        frontier = {}
        for c, x in enumerate(nxt):
            x &= unreached[c]
            if x:
                frontier[c] = x
                unreached[c] ^= x
        if not frontier:
            break
        done = pending
        pending = reduce(or_, unreached)
        done ^= pending  # the sets whose last classes this level reached
        for t, size in enumerate(sizes):
            if done & size:
                best[t] = (level, done & size)
    if pending:
        s = (pending & -pending).bit_length() - 1
        node = tuple(d for d, held in zip(classes.divisors, member) if held >> s & 1)
        raise RuntimeError(f"n={f.n}: connected set {node} left classes unreached")
    return best


# Read by _maxima and _record_row; tau(n) = 180 at k = 3 takes about 16 MB.
@lru_cache(maxsize=4)
def _members(m: int, k: int) -> tuple[int, ...]:
    """For each c < m, the mask of the subsets of range(m) with 1..k members
    that hold c, bit s for the s-th subset by size then lexicographically.
    The t-subsets with least member f form one block, whose members past f
    run over the (t - 1)-subsets above f: a suffix of those, in order."""
    member = [1 << c for c in range(m)]
    held = member[:]  # the same for the (t - 1)-subsets, in their own bits
    low = m  # the bit of the first t-subset
    for t in range(2, k + 1):
        suffix = [math.comb(m, t - 1) - math.comb(m - f, t - 1) for f in range(m + 1)]
        block = [math.comb(m, t) - math.comb(m - f, t) for f in range(m + 1)]
        grown = []
        for c in range(m):
            x = (1 << block[c + 1]) - (1 << block[c])
            for f in range(c):
                x |= held[c] >> suffix[f + 1] << block[f]
            member[c] |= x << low
            grown.append(x if t < k else 0)  # kept only for the next size
        held = grown
        low += block[m]
    return tuple(member)


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

    Raises ResourceLimitError, before verifying any order or starting a
    pool, when ``subset_sizes`` refuses some order of the range.  With one
    worker, or one order, the orders run in a plain loop in this process.
    With more than one worker they run in a process pool, imported here
    and only then, so importing icg loads no pool machinery; each worker
    takes about eight contiguous runs of orders, one round trip per run.
    """
    if n_lo < 2 or n_hi < n_lo:
        raise ValidationError(f"invalid range [{n_lo}, {n_hi}]")
    orders = range(n_lo, n_hi + 1)
    if len(orders) > 1:  # verify_order checks a lone order before its BFS
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
        for chunk in pool.map(verify_order, orders, chunksize=-(-len(orders) // (8 * workers))):
            records += chunk
            if fail_fast and _mismatched(chunk):
                # map has submitted every run; drop those not yet started.
                pool.shutdown(cancel_futures=True)
                break
    return RangeReport(n_lo, n_hi, tuple(records))


def _mismatched(records: list[VerificationRecord]) -> bool:
    return any(r.status is Status.MISMATCH for r in records)
