"""Reduction machinery for the maximal-diameter search.

A connected divisor set D = {d_1, ..., d_t} is in canonical (separated)
form when every divisor d_s has a dedicated prime p of n with p not
dividing d_s but dividing every other member of D.  The primes eligible
for d are those dividing the leave-one-out gcd(D - {d}) but not gcd(D).
No other divisor can take such a prime, so the eligible-prime lists are
disjoint and a set is separated exactly when none is empty.
Maximal-diameter graphs can always be reduced to such sets, so
enumeration over them drives the whole verification harness.

Whether p is eligible for d depends only on which members p divides, so
separation is a property of the members' prime-support masks (bit i set
when the i-th prime divides d): the primes eligible for a member with
mask m are the bits of AND(other masks) & ~m.  The leave-one-out gcd
stays the definition, and the tests check the masks against it; the code
reads the members' classes and masks, the primes of each mask and the
divisors bucketed by mask from the order table of ``icg.distance``,
which refuses a non-divisor, and caches the eligible bits per tuple of
masks.  ``enumerate_separated`` builds its sets as products of the
buckets, over the separated mask sets of size t, which depend only on k
and t.  Every enumeration of divisor subsets lists the divisors from the
order table and is sized by ``subset_sizes``, the one place that refuses
a request for more than ``MAX_SUBSETS`` sets.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from itertools import chain, combinations, product
from operator import and_
from typing import Iterator, NamedTuple

from .core import DivisorSet, make_divisor_set
from .distance import divisor_classes
from .errors import DomainError, ResourceLimitError
from .numtheory import Factorization, factorize

#: Refuse to enumerate more divisor subsets than this for one order; the
#: full power set passes exactly when n has at most 20 proper divisors.
MAX_SUBSETS = 1 << 20


class SeparationWitness(NamedTuple):
    """Assignment divisor -> dedicated prime.

    For each (d, p) pair: p does not divide d, and p divides every other
    divisor of the set, so no other divisor can have p: it is injective.
    """

    assignment: tuple[tuple[int, int], ...]  # ((divisor, prime), ...) divisor-ascending

    def to_json_obj(self) -> dict:
        return {"assignment": [{"divisor": d, "prime": p} for d, p in self.assignment]}


@lru_cache(maxsize=1024)  # the separated sets of the orders 2..1199 have 156 keys
def eligible_bits(k: int, masks: tuple[int, ...]) -> tuple[int, ...]:
    """For each member mask m over k primes, the mask of its eligible
    primes: AND(other masks) & ~m, where the AND of no masks is every prime."""
    full = (1 << k) - 1
    return tuple(
        reduce(and_, masks[:i] + masks[i + 1 :], full) & ~m for i, m in enumerate(masks)
    )


def _eligible(f: Factorization, divisors: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The eligible primes of each divisor, from the order table."""
    classes = divisor_classes(f)
    masks = tuple(map(classes.masks.__getitem__, classes.indices(divisors)))
    return [classes.mask_primes[b] for b in eligible_bits(f.k, masks)]


def eligible_primes(f: Factorization, divisors: tuple[int, ...]) -> list[list[int]]:
    """For each divisor d of n (n itself allowed), the primes of n dividing
    gcd(D - {d}) but not gcd(D): those not dividing d but dividing every
    other divisor."""
    return [list(primes) for primes in _eligible(f, divisors)]


def iter_witnesses(f: Factorization, ds: DivisorSet) -> Iterator[SeparationWitness]:
    """All separation witnesses, in deterministic order.

    The eligible-prime lists are disjoint, so the witnesses are their
    product: first divisor slowest, smallest prime first.  With |D| = k
    each list holds one prime, so there is at most one witness.
    """
    divisors = ds.divisors
    for primes in product(*_eligible(f, divisors)):
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
    return math.gcd(*divisors) == 1 and all(
        math.gcd(*divisors[:i], *divisors[i + 1 :]) != 1 for i in range(len(divisors))
    )


def subset_sizes(n: int, count: int, lo: int, hi: int | None) -> range:
    """The sizes lo..hi, capped at count (any size from lo when hi is
    None), of subsets of n's count proper divisors.

    Raises DomainError when lo < 1, and ResourceLimitError when there are
    more than MAX_SUBSETS subsets of these sizes, whether or not the caller
    visits them all.
    """
    if lo < 1:
        raise DomainError(f"cardinality must be >= 1, got {lo}")
    top = count if hi is None else min(hi, count)
    subsets = _subset_count(count, lo, top)
    if subsets > MAX_SUBSETS:
        raise ResourceLimitError(
            f"n={n} has {subsets} divisor subsets of size {lo}..{top}, cap is {MAX_SUBSETS}"
        )
    return range(lo, top + 1)


@lru_cache(maxsize=256)  # bounds memory; verify_range(2, 3000) reads 48 keys
def _subset_count(m: int, lo: int, top: int) -> int:
    """The number of subsets of an m-set with lo..top elements."""
    return sum(math.comb(m, size) for size in range(lo, top + 1))


def divisor_subsets(n: int, lo: int = 1, hi: int | None = None) -> Iterator[tuple[int, ...]]:
    """Subsets of n's proper divisors with lo..hi elements (any size from lo
    when hi is None), by size, then lexicographically.

    Raises ResourceLimitError, before yielding anything, when there are
    more than MAX_SUBSETS of them.
    """
    divisors = divisor_classes(factorize(n)).proper_divisors
    sizes = subset_sizes(n, len(divisors), lo, hi)
    return chain.from_iterable(combinations(divisors, size) for size in sizes)


@lru_cache(maxsize=None)  # keys (k, t) with t <= k <= 11 below FACTOR_BOUND
def _separated_masks(k: int, t: int) -> tuple[tuple[int, ...], ...]:
    """The t-sets of prime-support masks over k primes, ascending, in
    which each mask m meets AND(other masks) & ~m != 0.

    Built from the members' eligible blocks, not by testing every t-set
    of masks.  Each prime either lies in the block of one member s, and
    then every member but s has its bit, or is eligible for no member,
    and then the members having its bit are any set S but one of t - 1
    members (the one left out would take it).  Members are numbered in
    the order of their blocks' least primes, so each mask set is built
    exactly once; every block must be nonempty.
    """
    spread = [s for s in range(1 << t) if bin(s).count("1") != t - 1]
    states: list[tuple[int, tuple[int, ...]]] = [(0, (0,) * t)]  # (blocks opened, masks)
    for i in range(k):
        bit = 1 << i
        later = k - 1 - i
        grown = []
        for opened, masks in states:
            for s in range(min(opened + 1, t)):  # prime i joins block s, or opens it
                now = max(opened, s + 1)
                if t - now <= later:
                    joined = [m if j == s else m | bit for j, m in enumerate(masks)]
                    grown.append((now, tuple(joined)))
            if t - opened <= later:  # prime i is eligible for no member
                for members in spread:
                    spread_to = [m | bit if members >> j & 1 else m for j, m in enumerate(masks)]
                    grown.append((opened, tuple(spread_to)))
        states = grown
    return tuple(sorted(tuple(sorted(masks)) for opened, masks in states if opened == t))


def enumerate_separated(n: int, t: int) -> list[DivisorSet]:
    """All t-element divisor sets of n admitting a separation witness, ascending.

    A separated set has at most k members, since their eligible-prime
    lists are disjoint and nonempty, so t > k gives no sets and no
    refusal.  Otherwise each set is one divisor from each bucket of a
    separated mask set.  The table of mask sets is built only after the
    ``subset_sizes`` guard passes: n has at least 2^k - 1 proper divisors,
    so the table holds no more than the C(len(divisors), t) subsets the
    guard admits, and building it takes at most k steps per mask set.
    """
    f = factorize(n)
    if t > f.k:
        return []
    classes = divisor_classes(f)
    subset_sizes(n, len(classes.divisor_order), t, t)
    buckets = classes.buckets
    combos = sorted(
        tuple(sorted(combo))
        for masks in _separated_masks(f.k, t)
        for combo in product(*(buckets[m] for m in masks))
    )
    return [DivisorSet(n, combo) for combo in combos]


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
