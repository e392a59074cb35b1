"""A BFS over all n vertices on bitmask frontiers, kept as a test oracle.

The set of vertices reached so far is one Python integer, and expanding a
level rotates that integer once per symbol offset.  It shares no code with
the divisor-class BFS in ``icg.distance``, so tests compare the two.
"""

import math


def symbol_mask(n, divisors):
    """Bitmask of the offsets s in 1..n-1 with gcd(s, n) in divisors."""
    dset = set(divisors)
    m = 0
    for x in range(1, n):
        if math.gcd(x, n) in dset:
            m |= 1 << x
    return m


def _expand(mask, smask, n, full):
    """Union of mask shifted by every symbol offset (cyclically).

    Rotating the reached set by each symbol equals rotating the symbol mask
    by each reached vertex, so the sparser of the two drives the loop.
    """
    out = 0
    a, b = (mask, smask) if mask.bit_count() <= smask.bit_count() else (smask, mask)
    while a:
        low = a & -a
        s = low.bit_length() - 1
        a ^= low
        out |= (b << s) | (b >> (n - s))
    return out & full


def vertex_levels(n, smask):
    """Bitmask of newly reached vertices per BFS level, starting at {0}."""
    full = (1 << n) - 1
    reached = 1
    frontier = 1
    levels = [1]
    while True:
        frontier = _expand(frontier, smask, n, full) & ~reached
        if not frontier:
            return levels
        reached |= frontier
        levels.append(frontier)


def diameter_of_symbol_mask(n, smask):
    """Diameter given a symbol bitmask; None when not all vertices are reached."""
    levels = vertex_levels(n, smask)
    if sum(levels) != (1 << n) - 1:
        return None
    return len(levels) - 1
