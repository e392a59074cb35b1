"""Exact distances on integral circulant graphs.

Multiplying by a unit of Z_n is an automorphism of ICG_n(D) that fixes 0,
so d(0, x) depends only on gcd(x, n).  BFS therefore runs over the divisor
classes of n instead of its n vertices; the class n stands for vertex 0.
By CRT, adding a symbol of class d to a vertex of class g splits into one
rule per prime p | n, on i = v_p(g), j = v_p(d) and a = v_p(n):

- i != j: the sum has valuation min(i, j);
- i = j = a: the sum has valuation a;
- i = j < a, p odd: any valuation from i to a;
- i = j < a, p = 2: any valuation from i + 1 to a.

This is the gcd-graph view of Klotz and Sander, "Some properties of unitary
Cayley graphs" (EJC 2007).  The smallest vertex of class g < n is g itself,
so diameters and their witness vertices are read off the class distances.

The BFS reads one successor row per divisor set D: entry i is the mask of
classes that one symbol of D takes class i to.  It is the OR of the rows
of D's symbol classes (``DivisorClasses.reach``, or ``or_rows`` over rows
already fetched), so a BFS does one OR per frontier class.  The class
indices put 2 in the lowest digit, then the odd primes by ascending
exponent, ties by prime, and the rules see a prime only through p == 2
and its exponent.  So a step row depends on n only through its exponent
signature (``numtheory.Signature``): the exponent of 2, 0 for odd n, and
the sorted odd exponents.  60, 84, 132 and 140 have the same rows, and so
do 90 = 2 3^2 5 and 150 = 2 3 5^2.  The predictions of ``extremal`` read
n only through its signature too, and its verdicts on a divisor set read
each member and witness prime only through its class digits.

Two cached tables hold what is shared.  The order table of n is its
``DivisorClasses``, built by ``divisor_classes(f)`` for the 8 most
recent orders: the one place that lists an order's divisors, maps a
member of n to its class (``indices``) and refuses a hand-built divisor
set that is empty or holds n (``set_indices``).  It builds at once only
what ``verify_order`` reads: the divisors by class index, the divisor
order (the class indices of the proper divisors, ascending by value),
the signature and the parts of its signature table.  Its other parts are
cached properties, built on first read.  The signature table,
``_exponent_table``, kept for the 128 most recent signatures, holds the
step ``rows`` by class index, built from cached per-prime layers on
first use; the per-size ``maxima`` of ``verify``, each a maximum and the
one mask of the sets that reach it, and its finished record rows,
``records``, keyed by divisor order; and the ``verdicts`` of
``extremal``, keyed by the bitmask of the set's class indices or, at
t = k, by the class indices of the members and of the witness's
(divisor, prime) pairs, and its ``untouched``-prime flags, keyed by the
bitmask.  Every entry is a function of the signature and its key alone,
so a table is exact for every order of its signature, also when an
order table holds it after its eviction.

Witness paths are built in class space too.  A step back from vertex cur
goes to the smallest u one level closer to 0 with gcd(cur - u, n) in D.
The candidates of class c reached by a symbol of class e are the
progression u = 0 (mod c), u = cur (mod e), and the pair is searched only
when the step row of e takes the class of cur to c, so each search ends
at a hit below n.  ``diameter`` fetches the step row of each member of D
once: it ORs the rows into D's row for the BFS and reuses them at every
step of the path.

``apsp_oracle`` deliberately uses a plain queue-based BFS per source vertex
over all n vertices, so it is an independent cross-check of the class BFS.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Mapping, Sequence
from functools import cached_property, lru_cache
from operator import or_
from types import MappingProxyType
from typing import NamedTuple

from .core import IcgInstance, is_connected
from .errors import DomainError, ResourceLimitError
from .numtheory import Factorization, Signature

#: Cap on n for the all-pairs oracle.
ORACLE_BOUND = 5000


class DistanceProfile(NamedTuple):
    """Shortest-path distances from vertex 0; None marks unreachable."""

    n: int
    dist: tuple[int | None, ...]


class DiameterResult(NamedTuple):
    """Diameter with a deterministic witness.

    value is None for a disconnected graph (infinite diameter); then
    witness_vertex is the smallest unreachable vertex and witness_path
    is None.  Otherwise witness_vertex is the smallest vertex at maximal
    distance and witness_path a shortest path from 0 to it.
    """

    value: int | None
    witness_vertex: int
    witness_path: tuple[int, ...] | None

    def to_json_obj(self) -> dict:
        return {
            "value": self.value,
            "infinite": self.value is None,
            "witness_vertex": self.witness_vertex,
            "witness_path": list(self.witness_path) if self.witness_path is not None else None,
        }


class DivisorClasses:
    """The divisor classes of Z_n, indexed in mixed radix: the order table
    of n, see the module docstring.

    Class index i has the digit (i // stride_p) % (a_p + 1) = v_p of its
    divisor for each prime p, so a set of classes is one bitmask integer.
    Index 0 is the class 1 and the top index is the class n, i.e. vertex 0.
    A successor row maps each class index to the mask of classes one step
    away; the row of a divisor set is the elementwise OR of its members'
    rows, ``reach``; ``row(i)`` is the step row of class index i.

    ``divisors``, ``divisor_order`` and ``signature`` are built with the
    table, which also takes the parts of n's signature table once: the step
    ``rows``, the ``maxima`` of ``verify`` (per size, a maximum and one mask
    of the sets that reach it) and its ``records`` (a finished record row
    per divisor order) and the ``verdicts`` and ``untouched`` flags of
    ``extremal``.  ``verify_order`` reads only ``records`` and the first
    three.  ``index``, the one map keyed by divisor, ``proper_divisors``
    and the prime-support data of ``canonical`` are built on first read.
    """

    def __init__(self, f: Factorization) -> None:
        # A stable sort: primes of one exponent stay ascending.
        self._factors = sorted(f.factors, key=lambda pa: (pa[0] != 2, pa[1]))
        divisors = [1]
        for p, a in self._factors:
            # Digit e of p is the block of the divisors of the earlier
            # primes times p**e: each new entry is p times the entry one
            # block, the stride of p, below it.
            for i in range(len(divisors) * a):
                divisors.append(divisors[i] * p)
        #: divisors[i] is the divisor of class index i.
        self.divisors = tuple(divisors)
        #: The divisor order: the class indices of the proper divisors,
        #: ascending by value.  The top index, the class n, is the largest.
        self.divisor_order = tuple(sorted(range(len(divisors) - 1), key=divisors.__getitem__))
        # The factors are already in signature order: 2 first, then the
        # odd exponents ascending.
        exponents = [a for _, a in self._factors]
        self.signature = Signature(exponents.pop(0) if f.n % 2 == 0 else 0, tuple(exponents))
        self.rows, self.maxima, self.records, self.verdicts, self.untouched = _exponent_table(
            self.signature
        )

    @cached_property
    def index(self) -> dict[int, int]:
        """Each divisor of n, n included, to its class index."""
        return dict(zip(self.divisors, range(len(self.divisors))))

    @cached_property
    def proper_divisors(self) -> tuple[int, ...]:
        """The proper divisors of n, ascending."""
        return tuple(map(self.divisors.__getitem__, self.divisor_order))

    @cached_property
    def masks(self) -> tuple[int, ...]:
        """By class index, the divisor's mask: bit i if the i-th prime divides it."""
        primes = sorted(p for p, _ in self._factors)
        masks = [0]
        for p, a in self._factors:
            bit = 1 << primes.index(p)
            masks += [m | bit for m in masks] * a
        return tuple(masks)

    @cached_property
    def mask_primes(self) -> tuple[tuple[int, ...], ...]:
        """By mask, its primes ascending."""
        mask_primes: list[tuple[int, ...]] = [()]
        for p in sorted(p for p, _ in self._factors):
            mask_primes += [ps + (p,) for ps in mask_primes]
        return tuple(mask_primes)

    @cached_property
    def buckets(self) -> tuple[tuple[int, ...], ...]:
        """By mask, the proper divisors with that mask, ascending."""
        buckets: list[list[int]] = [[] for _ in range(1 << len(self._factors))]
        for i in self.divisor_order:
            buckets[self.masks[i]].append(self.divisors[i])
        return tuple(map(tuple, buckets))

    def indices(self, numbers) -> tuple[int, ...]:
        """The class index of each number; DomainError for one not dividing n."""
        try:
            return tuple(map(self.index.__getitem__, numbers))
        except KeyError as exc:
            raise DomainError(f"{exc.args[0]} does not divide n={self.divisors[-1]}") from None

    def set_indices(self, members) -> tuple[int, ...]:
        """The class indices of a divisor set's members; DomainError for a
        hand-built set that ``make_divisor_set`` refuses: an empty one, or
        one holding n, the class of vertex 0, or a non-divisor."""
        n = self.divisors[-1]
        if not members:
            raise DomainError("divisor set must be nonempty")
        if n in members:
            raise DomainError(f"{n} is not a proper divisor of {n}")
        return self.indices(members)

    def row(self, i: int) -> tuple[int, ...]:
        """For each class index, the mask of classes that adding a symbol
        of class index i to a vertex of that class can reach.

        The reachable classes are a product over primes of the valuations
        the sum can take, so the row is the outer product of one layer per
        prime, see ``_layer``.  Before prime p the row holds the masks of
        the stride_p classes of the smaller primes; they lie below bit
        stride_p, so each product with a layer mask is a union of shifted
        copies.
        """
        row = self.rows.get(i)
        if row is None:
            row = [1]  # len(row) is the stride of the next prime
            for p, a in self._factors:
                layer = _layer(p == 2, a, i // len(row) % (a + 1), len(row))
                row = [m * mask for mask in layer for m in row]
            row = self.rows[i] = tuple(row)
        return row

    def reach(self, divisors) -> list[int]:
        """The successor row of the divisor set: for each class index, the
        mask of classes that one symbol of any class in divisors reaches."""
        return or_rows([0] * len(self.divisors), map(self.row, self.indices(divisors)))


@lru_cache(maxsize=8)  # callers go order by order; tau(n) = 6720 takes about 1.3 MB
def divisor_classes(f: Factorization) -> DivisorClasses:
    """The order table of n, built once for each recent order."""
    return DivisorClasses(f)


# Bounds memory; holds the 99 signatures of 2..3000, so an ascending sweep
# of that range evicts no table before it comes back to its signature.
@lru_cache(maxsize=128)
def _exponent_table(signature: Signature) -> tuple[dict, list, dict, dict, dict]:
    """The signature table: step rows, the per-size maxima of ``verify``
    (a maximum and one mask of the sets reaching it) and its record rows,
    and the verdicts and untouched-prime flags of ``extremal``."""
    return {}, [], {}, {}, {}


@lru_cache(maxsize=None)  # keys: a, j <= 40 and stride < tau(n) <= 6720 below FACTOR_BOUND
def _layer(two: bool, a: int, j: int, stride: int) -> tuple[int, ...]:
    """For each valuation i = 0..a of a vertex at a prime with exponent a,
    the mask with bit e * stride set for each valuation e of the sum with a
    symbol of valuation j that the per-prime rules of the module docstring
    allow; two marks the prime 2."""
    return tuple(
        sum(
            1 << (e * stride)
            for e in ([min(i, j)] if i != j else [a] if i == a else range(i + two, a + 1))
        )
        for i in range(a + 1)
    )


def _bits(mask: int):
    """Indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def or_rows(row, rows) -> Sequence[int]:
    """row OR-ed elementwise with each row of rows, a new list unless rows
    is empty: the successor row of a divisor set is the OR of its
    members' step rows."""
    for other in rows:
        row = list(map(or_, row, other))
    return row


def levels_from_zero(row) -> list[int]:
    """Bitmask of newly reached classes per BFS level, starting at the
    class of vertex 0, for the successor row of a divisor set (see
    ``DivisorClasses.reach``); bit i stands for class index i.  The
    search stops once every class is reached."""
    full = (1 << len(row)) - 1
    frontier = reached = 1 << (len(row) - 1)
    levels = [frontier]
    while reached != full:
        nxt = 0
        rest = frontier
        while rest:  # _bits inlined: this loop is the BFS's hot spot
            low = rest & -rest
            nxt |= row[low.bit_length() - 1]
            rest ^= low
        frontier = nxt & ~reached
        if not frontier:
            return levels
        reached |= frontier
        levels.append(frontier)
    return levels


def class_diameter(row) -> int | None:
    """Diameter of ICG_n(D) for the successor row of D; None when some
    class is not reached."""
    levels = levels_from_zero(row)
    if sum(levels) != (1 << len(row)) - 1:
        return None
    return len(levels) - 1


@lru_cache(maxsize=8)
def _class_distances(g: IcgInstance) -> Mapping[int, int | None]:
    """d(0, x) keyed by gcd(x, n), with n for vertex 0; None marks an
    unreachable class.  Kept for the recent instances, so repeated
    ``distance`` calls on one graph run one BFS; the mapping is read-only
    because every caller shares it."""
    classes = divisor_classes(g.factorization)
    rows = list(map(classes.row, classes.set_indices(g.divisor_set.divisors)))
    dist: dict[int, int | None] = dict.fromkeys(classes.divisors)
    for d, m in enumerate(levels_from_zero(or_rows(rows[0], rows[1:]))):
        for i in _bits(m):
            dist[classes.divisors[i]] = d
    return MappingProxyType(dist)


def bfs_profile(g: IcgInstance) -> DistanceProfile:
    """Exact shortest-path distances from vertex 0 (disconnected allowed)."""
    n = g.n
    dist = _class_distances(g)
    return DistanceProfile(n, tuple(dist[math.gcd(v, n)] for v in range(n)))


def _step_towards_zero(classes: DivisorClasses, steps, level: int, cur: int) -> int:
    """Smallest vertex u in the classes of the bitmask level with
    gcd(cur - u, n) = e for some pair (e, step row of e) of steps; see
    ``diameter``."""
    n = classes.divisors[-1]
    gate = classes.index[math.gcd(cur, n)]
    best = n
    for e, step in steps:
        for i in _bits(step[gate] & level):
            c = classes.divisors[i]
            h = math.gcd(c, e)
            u = c * (cur // h * pow(c // h, -1, e // h) % (e // h))
            while u < best:
                if math.gcd(u, n) == c and math.gcd(cur - u, n) == e:
                    best = u
                    break
                u += c // h * e
    return best


def diameter(g: IcgInstance) -> DiameterResult:
    """Diameter with the smallest witness vertex and one shortest path.

    The reconstructed path is the one a BFS with ascending frontier order
    would record: each step backtracks to the smallest vertex one level
    closer to 0.  The step is found in class space.  The vertices u of
    class c with gcd(cur - u, n) = e are the terms of the progression
    u = 0 (mod c), u = cur (mod e), of step lcm(c, e) and first term
    c * ((cur/h) * (c/h)^-1 mod e/h) with h = gcd(c, e).  A pair (c, e)
    is walked only when the step row of e has bit c at the class of cur,
    that is when some symbol of class e takes cur into class c, so every
    walked progression holds a hit below n.  A walk stops at the best hit so far,
    and the first term whose two gcds are exactly c and e is the smallest
    of its pair, so the minimum over pairs is the smallest vertex of all.
    """
    classes = divisor_classes(g.factorization)
    members = g.divisor_set.divisors
    steps = list(zip(members, map(classes.row, classes.set_indices(members))))
    levels = levels_from_zero(or_rows(steps[0][1], (step for _, step in steps[1:])))
    if not is_connected(g.divisor_set):
        reached = sum(levels)
        witness = min(c for i, c in enumerate(classes.divisors) if not reached >> i & 1)
        return DiameterResult(None, witness, None)
    witness = min(classes.divisors[i] for i in _bits(levels[-1]))
    path = [witness]
    for level in reversed(levels[:-1]):
        path.append(_step_towards_zero(classes, steps, level, path[-1]))
    return DiameterResult(len(levels) - 1, witness, tuple(reversed(path)))


def distance(g: IcgInstance, u: int, v: int) -> int | None:
    """d(u, v) via translation invariance: equals d(0, (v - u) mod n)."""
    n = g.n
    if not (0 <= u < n and 0 <= v < n):
        raise DomainError(f"vertices must lie in [0, {n}), got ({u}, {v})")
    return _class_distances(g)[math.gcd(v - u, n)]


def apsp_oracle(g: IcgInstance) -> list[list[int | None]]:
    """All-pairs distances by a plain BFS from every vertex.

    Independent of the class BFS; used to validate vertex transitivity
    and the translation-invariant ``distance``.
    """
    n = g.n
    if n > ORACLE_BOUND:
        raise ResourceLimitError(f"apsp_oracle bound exceeded: n={n} > {ORACLE_BOUND}")
    dset = set(g.divisor_set.divisors)
    offsets = [x for x in range(1, n) if math.gcd(x, n) in dset]
    table: list[list[int | None]] = []
    for src in range(n):
        dist: list[int | None] = [None] * n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            du = dist[u]
            for off in offsets:
                v = (u + off) % n
                if dist[v] is None:
                    dist[v] = du + 1
                    queue.append(v)
        table.append(dist)
    return table
