"""Exact integer number theory: factorization, proper divisors, valuations,
Euler phi, CRT, and the diameter statistics r(n) and s(n).

All functions are pure and operate on exact Python integers.  Factorization
trial-divides by the primes below 2**8, then tests what is left with a
Miller-Rabin base set that is deterministic below ``FACTOR_BOUND`` (2**40)
and splits a composite rest with Brent's Pollard rho from fixed starting
values, so results are reproducible bit-for-bit.  The proper-divisor listing
trial-divides up to sqrt(n).  Both refuse n above the bound.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .errors import DomainError

#: Largest n accepted by :func:`factorize`.
FACTOR_BOUND = 1 << 40

#: The primes below 2**8, by which :func:`factorize` trial-divides.  A rest
#: with no prime factor below 2**8 is prime when it is below 2**16 (257**2 is
#: above it).
_SMALL_PRIMES = tuple(
    p for p in range(2, 1 << 8) if all(p % q for q in range(2, math.isqrt(p) + 1))
)

#: Miller-Rabin bases that decide primality for every n < 2,152,302,898,747,
#: a range that holds ``FACTOR_BOUND``.
_MR_BASES = (2, 3, 5, 7, 11)


class Factorization(NamedTuple):
    """n together with its ordered prime-power decomposition."""

    n: int
    factors: tuple[tuple[int, int], ...]  # ((p_1, a_1), ...), primes ascending

    @property
    def k(self) -> int:
        """Number of distinct prime factors."""
        return len(self.factors)

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple([p for p, _ in self.factors])

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple([a for _, a in self.factors])


class CrtSystem(NamedTuple):
    """A system of congruences x = r_i (mod m_i) with pairwise coprime moduli."""

    congruences: tuple[tuple[int, int], ...]  # ((residue, modulus), ...)


def factorize(n: int) -> Factorization:
    """Prime factorization of n.

    Trial division by the primes below 2**8 stops once p * p exceeds the
    rest.  A rest of 2**16 or more is then factored by :func:`_large_factors`.
    """
    if n < 2:
        raise DomainError(f"factorize requires n >= 2, got {n}")
    if n > FACTOR_BOUND:
        raise DomainError(f"factorize bound exceeded: {n} > {FACTOR_BOUND}")
    factors = []
    m = n
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            factors.append((p, a))
    else:  # every small prime divided out; m may still be composite
        if m >= 1 << 16:
            factors.extend(_large_factors(m))
            return Factorization(n, tuple(factors))
    if m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def _large_factors(m: int) -> list[tuple[int, int]]:
    """Ascending (p, a) pairs of m <= FACTOR_BOUND with no prime factor
    below 2**8: Miller-Rabin tells primes from composites, and Brent's rho
    splits each composite until only primes are left."""
    primes = []
    stack = [m]
    while stack:
        m = stack.pop()
        if m < 1 << 16 or _is_prime(m):
            primes.append(m)
        else:
            d = _brent_rho(m)
            stack += (d, m // d)
    return sorted(Counter(primes).items())


def _is_prime(m: int) -> bool:
    """Miller-Rabin on ``_MR_BASES``, exact for odd m <= FACTOR_BOUND with
    no prime factor below 2**8."""
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _brent_rho(m: int) -> int:
    """A factor 1 < d < m of the odd composite m, by Brent's variant of
    Pollard rho on x -> x^2 + c for c = 1, 2, ... until one splits m.

    Differences are multiplied together in batches of up to 128 and share
    one gcd; a batch whose gcd reaches m is stepped through again one
    difference at a time."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += 128
            r *= 2
        if g == m:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g


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


def crt_solve(system: CrtSystem) -> int:
    """Unique x in [0, prod m_i) satisfying every congruence of the system.

    Solved by iterative pairwise combination with modular inverses.
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
        if math.gcd(mod, m) != 1:
            raise DomainError(f"moduli {mod} and {m} are not coprime")
        # x' = x (mod mod), x' = r (mod m)
        x = (x + (r - x) * pow(mod, -1, m) % m * mod) % (mod * m)
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
    if n > FACTOR_BOUND:
        raise DomainError(f"proper_divisors bound exceeded: {n} > {FACTOR_BOUND}")
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
