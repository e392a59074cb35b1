"""Tests for the number theory helpers.

Reference values are frozen from independent recomputation: factorizations
and totients are checked against a naive sieve-free implementation built
inline, and CRT solutions are verified by direct substitution.
"""

import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icg.errors import DomainError, ValidationError
from icg.numtheory import (
    FACTOR_BOUND,
    CrtSystem,
    Factorization,
    crt_solve,
    euler_phi,
    factorize,
    proper_divisors,
    r_of,
    s_of,
    valuation,
)
from icg.numtheory import _MR_BASES, _SMALL_PRIMES, _brent_rho, _is_prime


def naive_phi(n):
    return sum(1 for x in range(1, n + 1) if math.gcd(x, n) == 1)


def naive_factor(n):
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            a = 0
            while m % p == 0:
                m //= p
                a += 1
            out.append((p, a))
        p += 1
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def strong_probable_prime(m, bases):
    """Whether the odd m > max(bases) passes Miller-Rabin to every base."""
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def reference_is_prime(m):
    """The five-base test that factorize used for every rest before it took
    its bases from a table: trial division by 2..11, then Miller-Rabin on
    2, 3, 5, 7, 11, exact below 2,152,302,898,747 (above FACTOR_BOUND)."""
    for p in (2, 3, 5, 7, 11):
        if m % p == 0:
            return m == p
    return m > 1 and strong_probable_prime(m, (2, 3, 5, 7, 11))


class TestFactorize:
    def test_small_range_against_naive(self):
        for n in range(2, 2000):
            assert factorize(n).factors == naive_factor(n)

    def test_known_values(self):
        assert factorize(540).factors == ((2, 2), (3, 3), (5, 1))
        assert factorize(6750).factors == ((2, 1), (3, 3), (5, 3))
        assert factorize(22050).factors == ((2, 1), (3, 2), (5, 2), (7, 2))

    def test_product_reconstructs(self):
        for n in (97, 360, 1024, 9973, 123456):
            f = factorize(n)
            prod = 1
            for p, a in f.factors:
                prod *= p**a
            assert prod == n

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            factorize(1)
        with pytest.raises(DomainError):
            factorize(0)
        with pytest.raises(DomainError):
            factorize(-6)

    def test_rejects_above_factor_bound(self):
        assert factorize(FACTOR_BOUND).factors == ((2, 40),)
        with pytest.raises(DomainError):
            factorize(FACTOR_BOUND + 1)

    def test_properties(self):
        f = factorize(540)
        assert f.k == 3
        assert f.primes == (2, 3, 5)
        assert f.exponents == (2, 3, 1)


# Products of primes above 2**8 leave factorize a rest of 2**16 or more,
# which Miller-Rabin and Brent's rho must handle.  KNOWN_PRIMES holds small
# primes up to 251 (the largest below 2**8), the Fermat primes 257 and
# 65537, the Mersenne primes 2**13 - 1, 2**17 - 1, 2**19 - 1 and 2**31 - 1,
# the two largest primes below 2**20, the largest below 2**16, 10**9, 2**32
# and 2**40, and the moduli 10007, 998244353 and 10**9 + 7.
KNOWN_PRIMES = (
    2, 3, 5, 7, 11, 13, 251, 257, 8191, 10007, 65521, 65537, 131071, 524287,
    1048571, 1048573, 998244353, 999999937, 1000000007, 2147483647, 4294967291,
    1099511627689,
)


class TestFactorizeLarge:
    @pytest.mark.parametrize(
        "n, factors",
        [
            # Strong pseudoprimes with every prime factor above 2**8, to the
            # bases 2, 3, 5, 7 (so a base set without 11 calls it prime);
            # 2, 7, 13, 61; 2, 3, 5; and 2, 3.
            (118670087467, ((172243, 1), (688969, 1))),
            (4759123141, ((48781, 1), (97561, 1))),
            (25326001, ((2251, 1), (11251, 1))),
            (1373653, ((829, 1), (1657, 1))),
            # Prime powers above 2**8.
            (257**2, ((257, 2),)),
            (65521**2, ((65521, 2),)),
            (10007**3, ((10007, 3),)),
            # Rho with c = 1 reaches the whole of 65537**2; c = 2 splits it.
            (65537**2, ((65537, 2),)),
            # Near the bound.
            (1048573 * 1048571, ((1048571, 1), (1048573, 1))),
            (1099511627689, ((1099511627689, 1),)),
            (1 << 40, ((2, 40),)),
            (3**25, ((3, 25),)),
            # Carmichael numbers.
            (5394826801, ((7, 1), (13, 1), (17, 1), (23, 1), (31, 1), (67, 1), (73, 1))),
            (232250619601, ((7, 1), (11, 1), (13, 1), (17, 1), (31, 1), (37, 1), (73, 1), (163, 1))),
        ],
    )
    def test_hard_inputs(self, n, factors):
        assert factorize(n).factors == factors

    def test_seeded_products_of_known_primes(self):
        rng = random.Random(8)
        reach_rho = 0
        for _ in range(300):
            n, chosen = 1, []
            while len(chosen) < 12:
                p = rng.choice(KNOWN_PRIMES)
                if n * p > FACTOR_BOUND:
                    break
                n *= p
                chosen.append(p)
            assert factorize(n).factors == tuple(sorted(Counter(chosen).items())), n
            reach_rho += sum(p > 1 << 8 for p in chosen) >= 2
        # Enough of the batch leaves a composite rest for Brent's rho to split.
        assert reach_rho >= 50

    @pytest.mark.parametrize(
        "m",
        [257**2, 65521**2, 65537**2, 10007**3, 1048573 * 1048571, 118670087467, 4759123141],
    )
    def test_rho_splits_properly(self, m):
        d = _brent_rho(m)
        assert 1 < d < m and m % d == 0

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=2, max_value=FACTOR_BOUND))
    def test_factors_are_ascending_primes_with_product_n(self, n):
        factors = factorize(n).factors
        primes = [p for p, _ in factors]
        assert primes == sorted(set(primes))
        assert all(a >= 1 for _, a in factors)
        assert math.prod(p**a for p, a in factors) == n
        assert all(reference_is_prime(p) for p in primes)


SMALL_PRODUCT = math.prod(_SMALL_PRIMES)


def rough(m):
    """Whether m has no prime factor below 2**8."""
    return math.gcd(m, SMALL_PRODUCT) == 1


class TestIsPrime:
    def test_table_rows(self):
        bounds = [bound for bound, _ in _MR_BASES]
        assert bounds == sorted(set(bounds))
        assert bounds[-1] > FACTOR_BOUND
        # A row serves the m from the previous row's bound (from 2**16, the
        # smallest rest that factorize tests, for the first row) up to its
        # own; a base of m or more would not be a base mod m.
        for lo, (_, bases) in zip([1 << 16, *bounds], _MR_BASES):
            assert max(bases) < lo

    def test_every_rough_odd_below_2_21_against_a_sieve(self):
        top = 1 << 21
        sieve = bytearray([1]) * top
        sieve[:2] = b"\0\0"
        for p in range(2, math.isqrt(top) + 1):
            if sieve[p]:
                sieve[p * p :: p] = bytes(len(range(p * p, top, p)))
        checked = primes = 0
        for m in range(1 << 16 | 1, top, 2):
            if rough(m):
                assert _is_prime(m) == bool(sieve[m]), m
                checked += 1
                primes += sieve[m]
        assert checked > 100_000 and primes > 50_000

    def test_seeded_rests_of_every_row_against_five_bases(self):
        rng = random.Random(20)
        lo = 1 << 16
        for bound, _ in _MR_BASES:
            hi = min(bound, FACTOR_BOUND + 1)
            primes = composites = 0
            while primes < 200 or composites < 200:
                m = rng.randrange(lo, hi) | 1
                if not rough(m):
                    continue
                expected = reference_is_prime(m)
                assert _is_prime(m) == expected, m
                primes += expected
                composites += not expected
            lo = bound

    @pytest.mark.parametrize("row", range(1, len(_MR_BASES)))
    def test_each_bound_fools_the_previous_row(self, row):
        # The bound of a row is the least strong pseudoprime to the bases of
        # the row before it, so a rest equal to it needs the next row.
        m = _MR_BASES[row - 1][0]
        assert strong_probable_prime(m, _MR_BASES[row - 1][1])
        assert not reference_is_prime(m)
        assert not _is_prime(m)
        factors = factorize(m).factors
        assert len(factors) >= 2 and math.prod(p**a for p, a in factors) == m
        assert all(reference_is_prime(p) for p, _ in factors)


# Composites m = p * (j * (p - 1) + 1), p and j * (p - 1) + 1 primes above
# 2**8, each a strong pseudoprime to all but one base of the _MR_BASES row
# that serves it.  Together they leave out every base of every row once, so
# a row without any one of its bases calls one of them prime.
ALL_BUT_ONE_BASE = [
    (188191, (3,)),
    (873181, (2,)),
    (10679131, (3, 5)),
    (9863461, (2, 5)),
    (1373653, (2, 3)),
    (31470211, (7, 61)),
    (27509653, (2, 61)),
    (36307981, (2, 7)),
    (6987215791, (13, 23, 1662803)),
    (5165497261, (2, 23, 1662803)),
    (11974322881, (2, 13, 1662803)),
    (4759123141, (2, 13, 23)),
]


def row_of(m):
    return next(i for i, (bound, _) in enumerate(_MR_BASES) if m < bound)


class TestEveryBaseIsNeeded:
    def test_every_base_of_every_row_is_left_out_once(self):
        left_out = [
            (row_of(m), *set(_MR_BASES[row_of(m)][1]) - set(fooled))
            for m, fooled in ALL_BUT_ONE_BASE
        ]
        every = [(i, a) for i, (_, bases) in enumerate(_MR_BASES) for a in sorted(bases)]
        assert sorted(left_out) == every

    @pytest.mark.parametrize("m, fooled", ALL_BUT_ONE_BASE)
    def test_pseudoprime_to_the_other_bases_is_composite(self, m, fooled):
        assert rough(m) and m >= 1 << 16
        assert strong_probable_prime(m, fooled)
        assert not reference_is_prime(m)
        assert not _is_prime(m)
        assert len(factorize(m).factors) == 2


class TestValuation:
    def test_exact(self):
        assert valuation(2, 48) == 4
        assert valuation(3, 48) == 1
        assert valuation(5, 48) == 0
        assert valuation(7, 1) == 0

    @pytest.mark.parametrize("n", [2, 12, 360, 1000])
    def test_divides_exactly(self, n):
        for p in (2, 3, 5, 7):
            v = valuation(p, n)
            assert n % p**v == 0
            assert n % p ** (v + 1) != 0


class TestEulerPhi:
    def test_range(self):
        for n in range(1, 500):
            assert euler_phi(n) == naive_phi(n)


class TestCrtSolve:
    def test_worked_example(self):
        assert crt_solve(CrtSystem(((4, 5), (3, 27), (2, 4)))) == 354

    def test_substitution_property(self):
        cases = [
            [(1, 3), (2, 5), (3, 7)],
            [(0, 4), (2, 9), (4, 25)],
            [(6, 7), (10, 11), (12, 13)],
        ]
        for system in cases:
            x = crt_solve(CrtSystem(tuple(system)))
            modulus = math.prod(m for _, m in system)
            assert 0 <= x < modulus
            for res, mod in system:
                assert x % mod == res % mod

    @pytest.mark.parametrize("size", [2, 3])
    def test_matches_brute_force(self, size):
        # Every choice of `size` moduli in 2..30.  Pairwise coprime: the
        # residues of each x below the product must give back x, the unique
        # solution there; that is every system for two moduli, and an evenly
        # spaced sample of about 40 solutions for three.  Otherwise the
        # system must be refused.
        for ms in combinations(range(2, 31), size):
            if any(math.gcd(a, b) != 1 for a, b in combinations(ms, 2)):
                with pytest.raises(DomainError, match="not coprime"):
                    crt_solve(CrtSystem(tuple((0, m) for m in ms)))
                continue
            prod = math.prod(ms)
            xs = range(prod) if size == 2 else {*range(0, prod, prod // 40 + 1), prod - 1}
            for x in xs:
                system = tuple((x % m, m) for m in ms)
                assert crt_solve(CrtSystem(system)) == x
                assert crt_solve(CrtSystem(system[::-1])) == x

    def test_non_coprime_rejected(self):
        with pytest.raises(DomainError):
            crt_solve(CrtSystem(((1, 4), (2, 6))))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            crt_solve(CrtSystem(()))


class TestRandS:
    def test_known(self):
        assert r_of(factorize(540)) == 5
        assert s_of(factorize(540)) == 1
        assert r_of(factorize(6750)) == 5
        assert r_of(factorize(30)) == 3
        assert s_of(factorize(30)) == 3
        assert r_of(factorize(2)) == 1

    def test_invariants(self):
        # r = k + (#exponents > 1) and s = (#exponents == 1), so r + s is
        # bounded by 2k and r - k + s = k.
        for n in range(2, 400):
            f = factorize(n)
            assert r_of(f) == f.k + sum(1 for a in f.exponents if a > 1)
            assert s_of(f) == sum(1 for a in f.exponents if a == 1)
            assert r_of(f) - f.k + s_of(f) == f.k


class TestProperDivisors:
    def test_small(self):
        assert proper_divisors(12) == (1, 2, 3, 4, 6)
        assert proper_divisors(7) == (1,)
        assert proper_divisors(2) == (1,)

    def test_every_entry_divides(self):
        for n in (36, 100, 210, 256):
            ds = proper_divisors(n)
            assert all(n % d == 0 for d in ds)
            assert n not in ds
            assert ds == tuple(sorted(ds))

    def test_bound(self):
        with pytest.raises(DomainError, match="bound exceeded"):
            proper_divisors(FACTOR_BOUND + 1)
