"""Reference answers for the benchmark's output checks, computed without icg.

Multiplying by a unit of Z_n is an automorphism of ICG_n(D) that fixes 0,
so d(0, x) depends only on gcd(x, n).  BFS therefore runs over the divisors
of n, each written as its vector of prime valuations.  Adding a symbol of
class d to the vertex g splits, by CRT, into one rule per prime p | n with
i = v_p(g), j = v_p(d), a = v_p(n):

- i != j: the sum has valuation min(i, j);
- i = j = a: the sum has valuation a;
- i = j < a, p odd: any valuation from i to a;
- i = j < a, p = 2: any valuation from i + 1 to a.

The engine under test runs a bitmask BFS over all n vertices, so the two
share no code.
"""

from __future__ import annotations

import math
from itertools import product


def factor(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n as ((p, a), ...), primes ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += 1
    if n > 1:
        out.append((n, 1))
    return out


def divisors(n: int) -> list[int]:
    """All divisors of n, ascending, n included."""
    out = [1]
    for p, a in factor(n):
        out = [d * p**e for d in out for e in range(a + 1)]
    return sorted(out)


def proper_divisors(n: int) -> list[int]:
    return divisors(n)[:-1]


def _vector(g: int, fac) -> tuple[int, ...]:
    out = []
    for p, _ in fac:
        i = 0
        while g % p == 0:
            g //= p
            i += 1
        out.append(i)
    return tuple(out)


def class_distances(n: int, ds) -> dict[int, int | None]:
    """d(0, g) for every divisor g of n (g = n stands for vertex 0)."""
    fac = factor(n)
    vec_of = {g: _vector(g, fac) for g in divisors(n)}
    div_of = {v: g for g, v in vec_of.items()}
    symbols = [vec_of[d] for d in ds]
    start = vec_of[n]
    dist = {start: 0}
    frontier = [start]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for v in frontier:
            for s in symbols:
                choices = []
                for (p, a), i, j in zip(fac, v, s):
                    if i != j:
                        choices.append((min(i, j),))
                    elif i == a:
                        choices.append((a,))
                    else:
                        choices.append(range(i + (p == 2), a + 1))
                for w in product(*choices):
                    if w not in dist:
                        dist[w] = depth
                        nxt.append(w)
        frontier = nxt
    return {div_of[v]: dist.get(v) for v in div_of}


def diameter(n: int, ds) -> tuple[int | None, int]:
    """(diameter, smallest vertex at that distance); (None, smallest
    unreachable vertex) when ICG_n(D) is disconnected.

    The smallest vertex of class g is g itself, so both are read off the
    class distances.
    """
    dist = class_distances(n, ds)
    unreachable = [g for g, d in dist.items() if d is None]
    if unreachable:
        return None, min(unreachable)
    value = max(dist.values())
    return value, min(g for g, d in dist.items() if d == value)


def distance_from_zero(n: int, ds, x: int) -> int | None:
    return class_distances(n, ds)[math.gcd(x, n)]
