"""Tests for separation witnesses and divisor-set enumeration.

The separation property is re-derived by a brute-force definition check
(try every injective divisor-to-prime assignment) and compared against
the production witnesses, the product of the eligible-prime lists.  The
eligible primes, read from prime-support masks, are compared with their
leave-one-out gcd definition.  The separated sets built from masks are
compared with a filter over every t-subset, which is how they were
enumerated before, and the table of separated mask sets with a filter
over every t-set of masks.
"""

import itertools
import math
from functools import reduce
from operator import and_

import pytest

from icg.canonical import (
    _separated_masks,
    divisor_subsets,
    eligible_primes,
    enumerate_connected,
    enumerate_separated,
    iter_witnesses,
    make_separated,
    minimal_connected,
    separation_witness,
)
from icg.core import DivisorSet, make_divisor_set
from icg.distance import divisor_classes
from icg.errors import DomainError, ResourceLimitError
from icg.numtheory import factorize, proper_divisors


def brute_force_separated(n, divisors):
    """Definition check: exists injective map d -> p with p | e for all
    other divisors e and p not dividing d."""
    primes = factorize(n).primes
    for assign in itertools.permutations(primes, len(divisors)):
        ok = True
        for d, p in zip(divisors, assign):
            if d % p == 0:
                ok = False
                break
            if any(e % p != 0 for e in divisors if e != d):
                ok = False
                break
        if ok:
            return True
    return False


def brute_force_witnesses(n, divisors):
    """Every valid injective assignment, permutations of n's primes in
    lexicographic order."""
    primes = factorize(n).primes
    return [
        tuple(zip(divisors, assign))
        for assign in itertools.permutations(primes, len(divisors))
        if all(
            d % p != 0 and all(e % p == 0 for e in divisors if e != d)
            for d, p in zip(divisors, assign)
        )
    ]


def gcd_eligible(primes, divisors):
    """For each divisor d, the primes dividing the leave-one-out gcd
    gcd(D - {d}) but not gcd(D); the gcd of no divisors is 0."""
    g = math.gcd(*divisors)
    return [
        [
            p
            for p in primes
            if math.gcd(*divisors[:i], *divisors[i + 1 :]) % p == 0 and g % p != 0
        ]
        for i in range(len(divisors))
    ]


def filter_separated(n, t):
    """Every t-subset of the proper divisors whose eligible-prime lists are
    all nonempty, ascending: the reference for ``enumerate_separated``."""
    primes = factorize(n).primes
    return [
        DivisorSet(n, combo)
        for combo in divisor_subsets(n, t, t)
        if all(gcd_eligible(primes, combo))
    ]


def filter_separated_masks(k, t):
    """Every t-set of masks over k primes, ascending, in which each mask m
    meets AND(other masks) & ~m != 0: the reference for ``_separated_masks``."""
    full = (1 << k) - 1
    return tuple(
        masks
        for masks in itertools.combinations(range(full), t)
        if all(reduce(and_, masks[:i] + masks[i + 1 :], full) & ~m for i, m in enumerate(masks))
    )


class TestSeparationWitness:
    def test_worked_example(self):
        f = factorize(540)
        ds = make_divisor_set(540, [45, 20, 108])
        w = separation_witness(f, ds)
        assert w is not None
        assert dict(w.assignment) == {45: 2, 20: 3, 108: 5}

    def test_witness_satisfies_definition(self):
        for n, dset in [(540, [45, 20, 108]), (30, [3, 10]), (210, [15, 14])]:
            f = factorize(n)
            ds = make_divisor_set(n, dset)
            w = separation_witness(f, ds)
            assert w is not None
            for d, p in w.assignment:
                assert d % p != 0
                assert all(e % p == 0 for e in ds.divisors if e != d)
            primes = [p for _, p in w.assignment]
            assert len(set(primes)) == len(primes)

    def test_agrees_with_brute_force(self):
        for n in range(2, 120):
            f = factorize(n)
            divs = proper_divisors(n)
            for size in (1, 2, 3):
                for combo in itertools.combinations(divs, size):
                    ds = DivisorSet(n, combo)
                    got = separation_witness(f, ds) is not None
                    assert got == brute_force_separated(n, combo), (n, combo)

    def test_no_witness_cases(self):
        assert separation_witness(factorize(12), make_divisor_set(12, [1, 2])) is None
        assert separation_witness(factorize(12), make_divisor_set(12, [1, 6])) is None

    def test_singleton_one_has_witness(self):
        # With a single divisor the "divides all others" clause is vacuous,
        # so any prime of n not dividing d works.
        assert separation_witness(factorize(30), make_divisor_set(30, [1])) is not None

    def test_iter_witnesses_all_valid_and_deterministic(self):
        f = factorize(210)
        ds = make_divisor_set(210, [15, 14])
        ws = list(iter_witnesses(f, ds))
        assert ws == list(iter_witnesses(f, ds))
        assert len(ws) >= 1
        for w in ws:
            for d, p in w.assignment:
                assert d % p != 0
                assert all(e % p == 0 for e in ds.divisors if e != d)

    def test_separation_witness_refuses_a_non_divisor(self):
        # The message is the one extremal's checks give for such a member.
        with pytest.raises(DomainError, match="^7 does not divide n=30$"):
            separation_witness(factorize(30), DivisorSet(30, (7, 10)))

    def test_iter_witnesses_refuses_a_non_divisor(self):
        with pytest.raises(DomainError, match="^4 does not divide n=30$"):
            next(iter_witnesses(factorize(30), DivisorSet(30, (4, 15))))

    def test_all_witnesses_match_brute_force_in_order(self):
        # Every divisor subset with at most k elements, n <= 300.
        for n in range(2, 301):
            f = factorize(n)
            for combo in divisor_subsets(n, 1, f.k):
                got = [w.assignment for w in iter_witnesses(f, DivisorSet(n, combo))]
                assert got == brute_force_witnesses(n, combo), (n, combo)
                if len(combo) == f.k:
                    assert len(got) <= 1, (n, combo)


class TestEligiblePrimes:
    def test_matches_leave_one_out_gcds(self):
        # Every subset of at most k proper divisors, n <= 400, t = 1 included.
        # The order table's masks, the primes of each mask and its buckets
        # are checked against the primes dividing each divisor.
        for n in range(2, 401):
            f = factorize(n)
            classes = divisor_classes(f)
            for d in (*proper_divisors(n), n):
                bits = [i for i, p in enumerate(f.primes) if d % p == 0]
                mask = classes.masks[classes.index[d]]
                assert mask == sum(1 << i for i in bits), (n, d)
                assert classes.mask_primes[mask] == tuple(f.primes[i] for i in bits)
            for m, bucket in enumerate(classes.buckets):
                assert bucket == tuple(
                    d for d in proper_divisors(n) if classes.masks[classes.index[d]] == m
                )
            for combo in divisor_subsets(n, 1, f.k):
                assert eligible_primes(f, combo) == gcd_eligible(f.primes, combo), (n, combo)

    def test_over_a_part_of_n(self):
        # Sets leaving primes of n untouched are checked over the part m of
        # n that they touch, where a member can equal m itself.
        for m, divisors, expected in (
            (15, (15,), [[]]),
            (15, (3, 5), [[5], [3]]),
            (12, (4, 12), [[3], []]),
            (30, (6, 10, 15), [[5], [3], [2]]),
        ):
            f = factorize(m)
            assert eligible_primes(f, divisors) == gcd_eligible(f.primes, divisors) == expected

    def test_refuses_a_non_divisor(self):
        with pytest.raises(DomainError, match="^7 does not divide n=30$"):
            eligible_primes(factorize(30), (7,))

    def test_lists_are_fresh(self):
        f = factorize(30)
        first = eligible_primes(f, (6, 10, 15))
        first[0].append(7)
        first.append([])
        assert eligible_primes(f, (6, 10, 15)) == [[5], [3], [2]]


class TestMakeSeparated:
    def test_accepts_separated(self):
        ds, w = make_separated(540, [45, 20, 108])
        assert ds.divisors == (20, 45, 108)
        assert {p for _, p in w.assignment} == {2, 3, 5}

    def test_rejects_unseparated(self):
        with pytest.raises(DomainError):
            make_separated(12, [1, 2])


class TestMinimalConnected:
    def test_definition_check(self):
        for n in (30, 60, 210):
            divs = proper_divisors(n)
            for size in (1, 2, 3):
                for combo in itertools.combinations(divs, size):
                    ds = DivisorSet(n, combo)
                    connected = math.gcd(*combo) == 1
                    proper_sub = all(
                        math.gcd(*rest) != 1
                        for rest in itertools.combinations(combo, size - 1)
                        if rest
                    )
                    expected = connected and (size == 1 or proper_sub)
                    if size == 1:
                        expected = connected
                    assert minimal_connected(ds) == expected, (n, combo)


class TestEnumeration:
    def test_enumerate_connected_counts(self):
        # Count connected subsets directly from the power set.
        for n in (12, 30, 45):
            divs = proper_divisors(n)
            total = 0
            for size in range(1, len(divs) + 1):
                for combo in itertools.combinations(divs, size):
                    if math.gcd(*combo) == 1:
                        total += 1
            assert len(enumerate_connected(n)) == total

    def test_enumerate_connected_fixed_size(self):
        out = enumerate_connected(30, 2)
        assert all(len(ds.divisors) == 2 for ds in out)
        assert all(math.gcd(*ds.divisors) == 1 for ds in out)

    def test_enumerate_separated_all_have_witnesses(self):
        for n in (30, 60):
            f = factorize(n)
            for t in (1, 2, 3):
                out = enumerate_separated(n, t)
                assert all(len(ds.divisors) == t for ds in out)
                for ds in out:
                    assert separation_witness(f, ds) is not None
                # Completeness against the brute-force definition.
                expected = sum(
                    1
                    for combo in itertools.combinations(proper_divisors(n), t)
                    if brute_force_separated(n, combo)
                )
                assert len(out) == expected

    def test_divisor_cap(self):
        with pytest.raises(ResourceLimitError):
            enumerate_connected(720720, None)


class TestSeparatedFromMasks:
    def test_matches_subset_filter(self):
        # Same lists, in the same order, for every order up to 1200 and
        # every size up to k.
        for n in range(2, 1201):
            for t in range(1, factorize(n).k + 1):
                assert enumerate_separated(n, t) == filter_separated(n, t), (n, t)

    def test_refuses_what_the_filter_refuses(self):
        # Each order has more than 2^20 subsets of the size t <= k asked for.
        for n, t in ((720720, 6), (720720, 3), (30030, 6)):
            with pytest.raises(ResourceLimitError) as expected:
                filter_separated(n, t)
            with pytest.raises(ResourceLimitError) as got:
                enumerate_separated(n, t)
            assert str(got.value) == str(expected.value), (n, t)

    def test_sizes_beyond_k_are_empty_without_the_guard(self):
        # k = 6 and 8,088,059,011,227 candidate 7-subsets.
        assert enumerate_separated(720720, 7) == []
        assert enumerate_separated(30, 4) == filter_separated(30, 4) == []

    def test_mask_table_matches_filter(self):
        for k in range(1, 6):
            for t in range(1, k + 1):
                assert _separated_masks(k, t) == filter_separated_masks(k, t), (k, t)

    def test_one_mask_set_at_full_size(self):
        # With t = k, member s has every prime but the s-th.
        for k in range(1, 6):
            full = (1 << k) - 1
            assert _separated_masks(k, k) == (tuple(sorted(full ^ (1 << s) for s in range(k))),)

    def test_no_mask_sets_beyond_k(self):
        for k in range(1, 5):
            assert _separated_masks(k, k + 1) == ()


class TestDivisorSubsets:
    def test_size_then_lexicographic_order(self):
        divs = proper_divisors(60)
        expected = [c for size in (2, 3) for c in itertools.combinations(divs, size)]
        assert list(divisor_subsets(60, 2, 3)) == expected
        assert len(list(divisor_subsets(60))) == 2 ** len(divs) - 1

    def test_size_beyond_divisor_count_is_empty(self):
        assert list(divisor_subsets(7, 2, 2)) == []

    def test_full_power_set_guard_is_twenty_proper_divisors(self):
        # 2^m - 1 > MAX_SUBSETS exactly when m > 20; the check runs before
        # the first subset, so neither call enumerates anything.
        assert len(proper_divisors(576)) == 20
        divisor_subsets(576)
        assert len(proper_divisors(3072)) == 21
        with pytest.raises(ResourceLimitError):
            divisor_subsets(3072)

    def test_bounded_sizes_pass_where_power_set_is_refused(self):
        # 360 has 23 proper divisors: 2^23 - 1 sets in all, 2,047 with
        # at most k = 3 elements.
        with pytest.raises(ResourceLimitError):
            divisor_subsets(360)
        assert sum(1 for _ in divisor_subsets(360, 1, 3)) == 23 + 253 + 1771

    def test_empty_and_negative_sizes_rejected(self):
        for t in (0, -1):
            with pytest.raises(DomainError):
                divisor_subsets(12, t, t)
        with pytest.raises(DomainError):
            enumerate_separated(12, 0)  # would yield the empty set
