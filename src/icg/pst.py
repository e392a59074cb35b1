"""Perfect-state-transfer admissibility as a set predicate.

A divisor set D over n admits PST exactly when n is a multiple of 4 and

    D = D3 u D2 u 2*D2 u 4*D2 u {n / 2^a},   a in {1, 2},

where D3 = {d in D : n/d = 0 (mod 8)} and D2 = {d in D : n/d = 4 (mod 8)}
minus {n/4}.  ``pst_admissible`` applies the characterization verbatim
to a given set; no spectral machinery is involved.  ``enumerate_pst_sets``
runs it the other way: it builds each set from its parts, taking D3 and
D2 from their pools of proper divisors, instead of testing every subset.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .canonical import subset_sizes
from .core import DivisorSet, is_connected
from .distance import class_diameter, divisor_classes
from .errors import DomainError
from .extremal import predict_overall_max
from .numtheory import Factorization


class PstDecomposition(NamedTuple):
    d3tilde: tuple[int, ...]
    d2: tuple[int, ...]
    two_d2: tuple[int, ...]
    four_d2: tuple[int, ...]
    hub: int  # n / 2^a
    a: int  # 1 or 2

    def parts_union(self) -> set[int]:
        return {self.hub, *self.d3tilde, *self.d2, *self.two_d2, *self.four_d2}

    def to_json_obj(self) -> dict:
        return {
            "d3tilde": list(self.d3tilde),
            "d2": list(self.d2),
            "two_d2": list(self.two_d2),
            "four_d2": list(self.four_d2),
            "hub": self.hub,
            "a": self.a,
        }


def pst_admissible(f: Factorization, ds: DivisorSet) -> PstDecomposition | None:
    """Decompose D per the PST characterization, or None if it does not fit.

    Neither n/2 nor n/4 falls in the other parts, so at most one hub fits
    and it must lie in D; a = 1 is tried first.
    """
    n = f.n
    divisor_classes(f).indices(ds.divisors)
    if n % 4 != 0:
        return None
    dset = set(ds.divisors)
    a = next((a for a in (1, 2) if n >> a in dset), None)
    if a is None:
        return None
    d3 = tuple(d for d in ds.divisors if (n // d) % 8 == 0)
    d2 = tuple(d for d in ds.divisors if (n // d) % 8 == 4 and d != n // 4)
    dec = PstDecomposition(d3, d2, tuple(2 * d for d in d2), tuple(4 * d for d in d2), n >> a, a)
    return dec if dec.parts_union() == dset else None


def enumerate_pst_sets(
    f: Factorization, max_size: int | None = None
) -> list[tuple[DivisorSet, PstDecomposition]]:
    """All PST-admissible divisor sets of n, optionally capped in
    cardinality, by size and then lexicographically.

    Each set is D3 u D2 u 2*D2 u 4*D2 u {n / 2^a}, with D3 drawn from the
    proper divisors d with n/d = 0 (mod 8) and D2 from those with
    n/d = 4 (mod 8) other than n/4.  The five parts are disjoint: on them
    n/d is 0 mod 8, 4 mod 8 (but never 4), 2 mod 4, odd, and 2 or 4.  So
    the set has |D3| + 3|D2| + 1 elements and ``pst_admissible`` returns
    exactly these parts for it.  Orders with too many subsets of the allowed sizes are
    refused by ``subset_sizes``, as for every other enumeration.
    """
    n = f.n
    if n % 4 != 0:
        return []
    divisors = divisor_classes(f).proper_divisors
    d3_pool = [d for d in divisors if (n // d) % 8 == 0]
    d2_pool = [d for d in divisors if (n // d) % 8 == 4 and d != n // 4]
    out = []
    for size in subset_sizes(n, len(divisors), 1, max_size):
        for s2 in range((size - 1) // 3 + 1):
            for d2 in combinations(d2_pool, s2):
                for d3 in combinations(d3_pool, size - 1 - 3 * s2):
                    for a in (1, 2):
                        dec = PstDecomposition(
                            d3, d2, tuple(2 * d for d in d2), tuple(4 * d for d in d2), n >> a, a
                        )
                        out.append((DivisorSet(n, tuple(sorted(dec.parts_union()))), dec))
    out.sort(key=lambda pair: (len(pair[0].divisors), pair[0].divisors))
    return out


def pst_never_maximal(f: Factorization) -> bool:
    """Exhaustive check that no PST-admissible D with |D| <= k attains the
    overall maximal diameter of its order."""
    if f.n % 4 != 0:
        raise DomainError(f"pst_never_maximal requires n in 4N, got {f.n}")
    bound = predict_overall_max(f).value
    classes = divisor_classes(f)
    for ds, _dec in enumerate_pst_sets(f, max_size=f.k):
        if is_connected(ds) and class_diameter(classes.reach(ds.divisors)) == bound:
            return False
    return True
