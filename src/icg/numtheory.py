"""Exact integer number theory: factorization, proper divisors, valuations,
Euler phi, CRT, and the diameter statistics r(n) and s(n).

All functions are pure and operate on exact Python integers.  Factorization
takes one gcd of n with the product of the primes below 2**8 and divides out
only the primes of that gcd.  A rest of 2**16 or more is tested by
Miller-Rabin on the first of four base sets whose bound exceeds it; the
bounds are Jaeschke's ("On strong pseudoprimes to several bases", Math.
Comp. 61, 1993), and the last lies above ``FACTOR_BOUND`` (2**40).  A
prime rest is kept as it is, and a composite one is split by Brent's Pollard
rho from fixed starting values, so results are reproducible bit-for-bit.
The proper-divisor listing trial-divides up to sqrt(n).  Both refuse n above
the bound.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import NamedTuple

from .errors import DomainError

#: Largest n accepted by :func:`factorize`.
FACTOR_BOUND = 1 << 40

#: The primes below 2**8.  A rest with no prime factor below 2**8 is prime
#: when it is below 2**16 (257**2 is above it).
_SMALL_PRIMES = tuple(
    p for p in range(2, 1 << 8) if all(p % q for q in range(2, math.isqrt(p) + 1))
)

#: Their product: gcd(n, _SMALL_PRODUCT) is the product of n's primes below 2**8.
_SMALL_PRODUCT = math.prod(_SMALL_PRIMES)

#: (bound, bases) rows, bounds ascending: Miller-Rabin on the bases of the
#: first row whose bound exceeds m decides whether m is prime.  Each bound is
#: the least strong pseudoprime to all of its row's bases (Jaeschke 1993), and
#: the last is above ``FACTOR_BOUND``.
_MR_BASES = (
    (1_373_653, (2, 3)),
    (25_326_001, (2, 3, 5)),
    (4_759_123_141, (2, 7, 61)),
    (1_122_004_669_633, (2, 13, 23, 1_662_803)),
)


class Signature(NamedTuple):
    """The exponent of 2 in n (0 for odd n) and the exponents of its odd
    primes, ascending: all that ``icg.distance`` and the predictions read."""

    two: int
    odd: tuple[int, ...]


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

    @property
    def signature(self) -> Signature:
        exponents = [a for _, a in self.factors]
        two = exponents.pop(0) if self.n % 2 == 0 else 0
        return Signature(two, tuple(sorted(exponents)))


class CrtSystem(NamedTuple):
    """A system of congruences x = r_i (mod m_i) with pairwise coprime moduli."""

    congruences: tuple[tuple[int, int], ...]  # ((residue, modulus), ...)


def factorize(n: int) -> Factorization:
    """Prime factorization of n.

    g = gcd(n, product of the primes below 2**8) names n's small primes, and
    only those are divided out, ascending, until g is 1 or p * p exceeds the
    rest.  A rest of 2**16 or more is kept when :func:`_is_prime` says it is
    prime, and split by :func:`_large_factors` otherwise.
    """
    if n < 2:
        raise DomainError(f"factorize requires n >= 2, got {n}")
    if n > FACTOR_BOUND:
        raise DomainError(f"factorize bound exceeded: {n} > {FACTOR_BOUND}")
    factors = []
    m = n
    g = math.gcd(n, _SMALL_PRODUCT)
    if g > 1:
        for p in _SMALL_PRIMES:
            if p * p > m:  # m is 1 or prime, and below 2**16
                break
            if g % p == 0:
                a = 0
                while m % p == 0:
                    m //= p
                    a += 1
                factors.append((p, a))
                g //= p
                if g == 1:  # m has no prime factor below 2**8
                    break
    if m >= 1 << 16 and not _is_prime(m):
        factors.extend(_large_factors(m))
    elif m > 1:
        factors.append((m, 1))
    return Factorization(n, tuple(factors))


def _large_factors(m: int) -> list[tuple[int, int]]:
    """Ascending (p, a) pairs of a composite m <= FACTOR_BOUND with no prime
    factor below 2**8: Brent's rho splits m, and then each composite part,
    until Miller-Rabin calls every part prime."""
    primes = []
    stack = [m]
    while stack:
        m = stack.pop()
        d = _brent_rho(m)
        for part in (d, m // d):
            if part < 1 << 16 or _is_prime(part):
                primes.append(part)
            else:
                stack.append(part)
    return sorted(Counter(primes).items())


def _is_prime(m: int) -> bool:
    """Miller-Rabin on the bases of the first ``_MR_BASES`` row whose bound
    exceeds m, exact for odd 2**16 <= m <= FACTOR_BOUND with no prime factor
    below 2**8."""
    for bound, bases in _MR_BASES:
        if m < bound:
            break
    d = m - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
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
