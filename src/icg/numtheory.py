"""Exact integer number theory: factorization, valuations, Euler phi, CRT,
and the diameter statistics r(n) and s(n).

All functions are pure and operate on exact Python integers.  Factorization
uses deterministic trial division, which is plenty below ``FACTOR_BOUND``
(2**40) and keeps results reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .errors import DomainError

#: Largest n accepted by :func:`factorize`.
FACTOR_BOUND = 1 << 40


@dataclass(frozen=True)
class Factorization:
    """n together with its ordered prime-power decomposition."""

    n: int
    factors: tuple[tuple[int, int], ...]  # ((p_1, a_1), ...), primes ascending

    @property
    def k(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    # Cached in the instance __dict__; == and hash still read only the fields.
    @cached_property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    @cached_property
    def exponents(self) -> tuple[int, ...]:
        return tuple(a for _, a in self.factors)


@dataclass(frozen=True)
class CrtSystem:
    """A system of congruences x = r_i (mod m_i) with pairwise coprime moduli."""

    congruences: tuple[tuple[int, int], ...]  # ((residue, modulus), ...)


def factorize(n: int) -> Factorization:
    """Prime factorization of n by trial division up to sqrt(n)."""
    if n < 2:
        raise DomainError(f"factorize requires n >= 2, got {n}")
    if n > FACTOR_BOUND:
        raise DomainError(f"factorize bound exceeded: {n} > {FACTOR_BOUND}")
    factors = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
        p += 1 if p == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def valuation(p: int, n: int) -> int:
    """Largest a with p**a dividing n (the p-adic valuation S_p(n))."""
    if p < 2 or n < 1:
        raise DomainError(f"valuation requires p >= 2 (prime) and n >= 1, got ({p}, {n})")
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a


def euler_phi(n: int) -> int:
    """Euler's totient, computed from the factorization (exact integers)."""
    if n < 1:
        raise DomainError(f"euler_phi requires n >= 1, got {n}")
    if n == 1:
        return 1
    result = n
    for p, _ in factorize(n).factors:
        result -= result // p
    return result


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b)."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def crt_solve(system: CrtSystem) -> int:
    """Unique x in [0, prod m_i) satisfying every congruence of the system.

    Solved by iterative pairwise combination with the extended gcd.
    Raises DomainError if the moduli are not pairwise coprime.
    """
    if not system.congruences:
        raise DomainError("crt_solve requires at least one congruence")
    for r, m in system.congruences:
        if m < 2:
            raise DomainError(f"modulus must be >= 2, got {m}")
        if not 0 <= r < m:
            raise DomainError(f"residue {r} out of range for modulus {m}")
    x, mod = system.congruences[0]
    for r, m in system.congruences[1:]:
        g, inv, _ = extended_gcd(mod, m)
        if g != 1:
            raise DomainError(f"moduli {mod} and {m} are not coprime")
        # x' = x (mod mod), x' = r (mod m)
        x = (x + (r - x) * inv % m * mod) % (mod * m)
        mod *= m
    return x % mod


def r_of(f: Factorization) -> int:
    """k plus the number of prime exponents exceeding 1."""
    return f.k + sum(1 for a in f.exponents if a > 1)


def s_of(f: Factorization) -> int:
    """Number of prime exponents equal to 1."""
    return sum(1 for a in f.exponents if a == 1)


def proper_divisors(n: int) -> tuple[int, ...]:
    """All divisors d of n with 1 <= d < n, ascending."""
    if n < 2:
        raise DomainError(f"proper_divisors requires n >= 2, got {n}")
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    divisors = small + large[::-1]
    return tuple(divisors[:-1])  # drop n itself


def gcd_of(values) -> int:
    """gcd over an iterable; gcd of the empty collection is 0 by convention."""
    return math.gcd(*values) if values else 0
