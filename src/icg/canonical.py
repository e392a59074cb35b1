"""Reduction machinery for the maximal-diameter search.

A connected divisor set D = {d_1, ..., d_t} is in canonical (separated)
form when every divisor d_s has a dedicated prime p of n with p not
dividing d_s but dividing every other member of D.  The primes eligible
for d are those dividing the leave-one-out gcd(D - {d}) but not gcd(D).
No other divisor can take such a prime, so the eligible-prime lists are
disjoint and a set is separated exactly when none is empty.
Maximal-diameter graphs can always be reduced to such sets, so
enumeration over them drives the whole verification harness.  Every
enumeration of divisor subsets goes through ``divisor_subsets``, the one
place that refuses a request for more than ``MAX_SUBSETS`` sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, product
from typing import Iterator

from .core import DivisorSet, make_divisor_set
from .errors import DomainError, ResourceLimitError
from .numtheory import Factorization, factorize, proper_divisors

#: Refuse to enumerate more divisor subsets than this for one order; the
#: full power set passes exactly when n has at most 20 proper divisors.
MAX_SUBSETS = 1 << 20


@dataclass(frozen=True)
class SeparationWitness:
    """Assignment divisor -> dedicated prime.

    For each (d, p) pair: p does not divide d, and p divides every other
    divisor of the set, so no other divisor can have p: it is injective.
    """

    assignment: tuple[tuple[int, int], ...]  # ((divisor, prime), ...) divisor-ascending

    def prime_for(self, d: int) -> int:
        for dv, p in self.assignment:
            if dv == d:
                return p
        raise KeyError(d)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for _, p in self.assignment)

    def to_json_obj(self) -> dict:
        return {"assignment": [{"divisor": d, "prime": p} for d, p in self.assignment]}


def _leave_one_out_gcds(divisors: tuple[int, ...]) -> list[int]:
    """gcd(D - {d}) for each d in D, in order; the gcd of no divisors is 0."""
    return [math.gcd(*divisors[:i], *divisors[i + 1 :]) for i in range(len(divisors))]


def eligible_primes(f: Factorization, divisors: tuple[int, ...]) -> list[list[int]]:
    """For each divisor d, the primes of n dividing gcd(D - {d}) but not
    gcd(D): those not dividing d but dividing every other divisor."""
    g = math.gcd(*divisors)
    return [
        [p for p in f.primes if loo % p == 0 and g % p != 0]
        for loo in _leave_one_out_gcds(divisors)
    ]


def iter_witnesses(f: Factorization, ds: DivisorSet) -> Iterator[SeparationWitness]:
    """All separation witnesses, in deterministic order.

    The eligible-prime lists are disjoint, so the witnesses are their
    product: first divisor slowest, smallest prime first.  With |D| = k
    each list holds one prime, so there is at most one witness.
    """
    divisors = ds.divisors
    for primes in product(*eligible_primes(f, divisors)):
        yield SeparationWitness(tuple(zip(divisors, primes)))


def separation_witness(f: Factorization, ds: DivisorSet) -> SeparationWitness | None:
    """First separation witness in canonical order, or None if none exists."""
    return next(iter_witnesses(f, ds), None)


def minimal_connected(ds: DivisorSet) -> bool:
    """gcd(D) = 1 while every proper subset has gcd > 1.

    Checking the leave-one-out subsets suffices (gcd is antitone under
    set inclusion); gcd of the empty set is 0, counted as > 1.
    """
    divisors = ds.divisors
    return math.gcd(*divisors) == 1 and 1 not in _leave_one_out_gcds(divisors)


def divisor_subsets(n: int, lo: int = 1, hi: int | None = None) -> Iterator[tuple[int, ...]]:
    """Subsets of n's proper divisors with lo..hi elements (any size from lo
    when hi is None), by size, then lexicographically.

    Raises ResourceLimitError, before yielding anything, when there are
    more than MAX_SUBSETS of them.
    """
    if lo < 1:
        raise DomainError(f"cardinality must be >= 1, got {lo}")
    divisors = proper_divisors(n)
    top = len(divisors) if hi is None else min(hi, len(divisors))
    sizes = range(lo, top + 1)
    count = sum(math.comb(len(divisors), size) for size in sizes)
    if count > MAX_SUBSETS:
        raise ResourceLimitError(
            f"n={n} has {count} divisor subsets of size {lo}..{top}, cap is {MAX_SUBSETS}"
        )
    return chain.from_iterable(combinations(divisors, size) for size in sizes)


def enumerate_separated(n: int, t: int) -> list[DivisorSet]:
    """All t-element divisor sets of n admitting a separation witness, ascending."""
    f = factorize(n)
    return [
        DivisorSet(n, combo)
        for combo in divisor_subsets(n, t, t)
        if all(eligible_primes(f, combo))
    ]


def enumerate_connected(n: int, t: int | None = None) -> list[DivisorSet]:
    """All connected divisor sets of n with |D| = t (or any size if t is None)."""
    subsets = divisor_subsets(n) if t is None else divisor_subsets(n, t, t)
    return [DivisorSet(n, combo) for combo in subsets if math.gcd(*combo) == 1]


def make_separated(n: int, divisors) -> tuple[DivisorSet, SeparationWitness]:
    """Validate a divisor set and require a separation witness for it."""
    ds = make_divisor_set(n, divisors)
    w = separation_witness(factorize(n), ds)
    if w is None:
        raise DomainError(f"divisor set {list(ds.divisors)} of n={n} admits no separation witness")
    return ds, w
