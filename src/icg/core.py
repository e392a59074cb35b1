"""The graph model: validated divisor sets, ICG instances, adjacency,
degree and connectivity.

Vertices are the residues 0..n-1; two vertices a, b are adjacent exactly
when gcd((a - b) mod n, n) lies in the divisor set D.  An instance stores
only n's factorization and D; the symbol set (all connection offsets) has
n - 1 candidates and is built only when asked for.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, ValidationError
from .numtheory import Factorization, euler_phi, factorize


class DivisorSet(NamedTuple):
    """A validated, ascending set of proper divisors of n."""

    n: int
    divisors: tuple[int, ...]


class IcgInstance(NamedTuple):
    """An integral circulant graph, defined by order n and divisor set D."""

    factorization: Factorization
    divisor_set: DivisorSet

    @property
    def n(self) -> int:
        return self.factorization.n

    @property
    def symbol_set(self) -> tuple[int, ...]:
        """Ascending offsets s with gcd(s, n) in D, built on each access."""
        n = self.n
        dset = set(self.divisor_set.divisors)
        return tuple(x for x in range(1, n) if math.gcd(x, n) in dset)

    def to_json_obj(self) -> dict:
        return {"n": self.n, "divisors": list(self.divisor_set.divisors)}


def make_divisor_set(n: int, divisors) -> DivisorSet:
    """Validate and canonically order a divisor set over n."""
    if n < 2:
        raise ValidationError(f"order must be >= 2, got {n}")
    ds = list(divisors)
    if not ds:
        raise ValidationError("divisor set must be nonempty")
    # bool is an int subclass; True would otherwise pass as the divisor 1.
    bad = [d for d in ds if not isinstance(d, int) or isinstance(d, bool) or not 0 < d < n or n % d]
    if bad:
        raise ValidationError(f"invalid divisors for n={n}: {sorted(set(bad))}")
    if len(set(ds)) != len(ds):
        dupes = sorted({d for d in ds if ds.count(d) > 1})
        raise ValidationError(f"duplicate divisors: {dupes}")
    return DivisorSet(n, tuple(sorted(ds)))


def make_instance(n: int, divisors) -> IcgInstance:
    """Build a validated IcgInstance."""
    return IcgInstance(factorize(n), make_divisor_set(n, divisors))


def adjacent(g: IcgInstance, a: int, b: int) -> bool:
    """True iff gcd((a - b) mod n, n) is a member of D.  adjacent(a, a) is False."""
    n = g.n
    if not (0 <= a < n and 0 <= b < n):
        raise DomainError(f"vertices must lie in [0, {n}), got ({a}, {b})")
    if a == b:
        return False
    return math.gcd((a - b) % n, n) in set(g.divisor_set.divisors)


def is_connected(ds: DivisorSet) -> bool:
    """Connectivity criterion: gcd over all divisors equals 1."""
    return math.gcd(*ds.divisors) == 1


def degree(g: IcgInstance) -> int:
    """Vertex degree: the class of d holds phi(n/d) symbols."""
    return sum(euler_phi(g.n // d) for d in g.divisor_set.divisors)
