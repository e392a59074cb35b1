"""Perfect-state-transfer admissibility as a set predicate.

A divisor set D over n admits PST exactly when n is a multiple of 4 and

    D = D3 u D2 u 2*D2 u 4*D2 u {n / 2^a},   a in {1, 2},

where D3 = {d in D : n/d = 0 (mod 8)} and D2 = {d in D : n/d = 4 (mod 8)}
minus {n/4}.  This module applies the characterization verbatim; no
spectral machinery is involved.
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import divisor_subsets
from .core import DivisorSet, is_connected
from .distance import DivisorClasses, class_diameter
from .errors import DomainError
from .extremal import predict_overall_max
from .numtheory import Factorization


@dataclass(frozen=True)
class PstDecomposition:
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
    """All PST-admissible divisor sets of n, optionally capped in cardinality."""
    n = f.n
    if n % 4 != 0:
        return []
    out = []
    for combo in divisor_subsets(n, 1, max_size):
        ds = DivisorSet(n, combo)
        dec = pst_admissible(f, ds)
        if dec is not None:
            out.append((ds, dec))
    return out


def pst_never_maximal(f: Factorization) -> bool:
    """Exhaustive check that no PST-admissible D with |D| <= k attains the
    overall maximal diameter of its order."""
    if f.n % 4 != 0:
        raise DomainError(f"pst_never_maximal requires n in 4N, got {f.n}")
    bound = predict_overall_max(f).value
    classes = DivisorClasses(f)
    for ds, _dec in enumerate_pst_sets(f, max_size=f.k):
        if is_connected(ds) and class_diameter(classes, ds.divisors) == bound:
            return False
    return True
