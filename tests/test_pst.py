"""Tests for the perfect-state-transfer admissibility predicate."""

import math
from itertools import combinations

import pytest

from icg.canonical import divisor_subsets, separation_witness
from icg.core import DivisorSet, make_divisor_set
from icg.errors import DomainError, ResourceLimitError
from icg.numtheory import factorize, proper_divisors
from icg.pst import PstDecomposition, enumerate_pst_sets, pst_admissible, pst_never_maximal


def reference_admissible(n, divisors):
    """Independent re-derivation of the set characterization.

    D fits when n is a multiple of 4 and D equals the union of its own
    8N-class, its (8N+4)-class minus {n/4} together with the doubles and
    quadruples of that class, and a hub n/2 or n/4.
    """
    if n % 4 != 0:
        return False
    dset = set(divisors)
    d3 = {d for d in dset if (n // d) % 8 == 0}
    d2 = {d for d in dset if (n // d) % 8 == 4} - {n // 4}
    for a in (1, 2):
        hub = n // 2**a
        if hub not in dset:
            continue
        union = d3 | d2 | {2 * d for d in d2} | {4 * d for d in d2} | {hub}
        if union == dset:
            return True
    return False


def filter_pst_sets(f, max_size=None):
    """The characterization tested on every subset of at most max_size
    proper divisors with plain set arithmetic, by size and then
    lexicographically: the reference for ``enumerate_pst_sets``.

    D fits when it holds a hub n/2^a, a = 1 tried first, and equals the
    union of the hub, D3, D2, 2*D2 and 4*D2, as in ``icg.pst``.
    """
    n = f.n
    if n % 4 != 0:
        return []
    divisors = proper_divisors(n)
    d3_pool = {d for d in divisors if (n // d) % 8 == 0}
    d2_pool = {d for d in divisors if (n // d) % 8 == 4} - {n // 4}
    out = []
    for combo in divisor_subsets(n, 1, max_size):
        dset = set(combo)
        for a in (1, 2):
            if n >> a in dset:
                break
        else:
            continue
        d2 = dset & d2_pool
        union = dset & d3_pool | d2 | {n >> a}
        for d in d2:
            union |= {2 * d, 4 * d}
        if union == dset:
            d3 = tuple(d for d in combo if d in d3_pool)
            d2 = tuple(sorted(d2))
            two, four = tuple(2 * d for d in d2), tuple(4 * d for d in d2)
            out.append((DivisorSet(n, combo), PstDecomposition(d3, d2, two, four, n >> a, a)))
    return out


class TestPstAdmissible:
    def test_matches_reference_exhaustively(self):
        for n in range(4, 129):
            f = factorize(n)
            divs = proper_divisors(n)
            if len(divs) > 11:
                continue  # subset count guard; spot checks cover dense n
            for size in range(1, len(divs) + 1):
                for combo in combinations(divs, size):
                    ds = DivisorSet(n, combo)
                    got = pst_admissible(f, ds) is not None
                    assert got == reference_admissible(n, combo), (n, combo)

    def test_dense_order_matches_reference(self):
        n = 120  # 14 proper divisors
        f = factorize(n)
        divs = proper_divisors(n)
        for size in (1, 2, 3):
            for combo in combinations(divs, size):
                ds = DivisorSet(n, combo)
                got = pst_admissible(f, ds) is not None
                assert got == reference_admissible(n, combo), combo

    def test_decomposition_fields(self):
        f = factorize(8)
        dec = pst_admissible(f, make_divisor_set(8, [1, 2]))
        assert dec is not None
        assert dec.hub == 2 and dec.a == 2
        assert dec.parts_union() == {1, 2}

    def test_prefers_a_equals_one(self):
        # When both hubs are present and both splits fit, a=1 is reported.
        f = factorize(16)
        dec = pst_admissible(f, make_divisor_set(16, [1, 2, 8]))
        if dec is not None:
            assert dec.a == 1

    def test_at_most_one_hub_fits(self):
        # n/2 and n/4 never fall in the other parts, so the unions for a = 1
        # and a = 2 cannot both equal D; pst_admissible tries only the hub in D.
        for n in range(4, 129, 4):
            for size in (1, 2, 3, 4):
                for combo in combinations(proper_divisors(n), size):
                    dset = set(combo)
                    d2 = {d for d in dset if (n // d) % 8 == 4} - {n // 4}
                    parts = {d for d in dset if (n // d) % 8 == 0} | d2
                    parts |= {2 * d for d in d2} | {4 * d for d in d2}
                    assert n // 2 not in parts and n // 4 not in parts, (n, combo)
                    fits = [a for a in (1, 2) if parts | {n >> a} == dset]
                    assert len(fits) <= 1, (n, combo)

    def test_refuses_a_non_divisor(self):
        # 24 is a multiple of 12, not a divisor: it would otherwise land in D3.
        with pytest.raises(DomainError, match="^24 does not divide n=12$"):
            pst_admissible(factorize(12), DivisorSet(12, (6, 24)))

    def test_rejects_non_multiples_of_four(self):
        assert pst_admissible(factorize(6), make_divisor_set(6, [1, 2])) is None
        assert pst_admissible(factorize(15), make_divisor_set(15, [1])) is None


class TestEnumerate:
    def test_consistent_with_predicate(self):
        for n in (8, 12, 16, 24, 32, 48):
            f = factorize(n)
            found = {ds.divisors for ds, _ in enumerate_pst_sets(f)}
            divs = proper_divisors(n)
            expected = set()
            for size in range(1, len(divs) + 1):
                for combo in combinations(divs, size):
                    if reference_admissible(n, combo):
                        expected.add(combo)
            assert found == expected, n

    def test_odd_and_2mod4_orders_empty(self):
        assert enumerate_pst_sets(factorize(15)) == []
        assert enumerate_pst_sets(factorize(18)) == []

    def test_size_cap(self):
        f = factorize(48)
        capped = enumerate_pst_sets(f, max_size=2)
        assert all(len(ds.divisors) <= 2 for ds, _ in capped)

    def test_matches_subset_filter(self):
        # Same sets and decompositions, in the same order: capped at k for
        # every multiple of 4 up to 1200, uncapped up to 300.
        for n in range(4, 1201, 4):
            f = factorize(n)
            assert enumerate_pst_sets(f, f.k) == filter_pst_sets(f, f.k), n
            if n <= 300:
                assert enumerate_pst_sets(f) == filter_pst_sets(f), n

    def test_refuses_what_the_filter_refuses(self):
        # 3072 has 21 proper divisors, so 2^21 - 1 subsets in all.
        f = factorize(3072)
        with pytest.raises(ResourceLimitError) as expected:
            filter_pst_sets(f)
        with pytest.raises(ResourceLimitError) as got:
            enumerate_pst_sets(f)
        assert str(got.value) == str(expected.value)


# Orders up to 128 where some connected admissible set with |D| <= k does
# attain the overall maximal diameter.  Each attaining set was confirmed by
# two independent BFS implementations; they all contain 1 plus a hub (for
# example {1, 6} over n = 24 with diameter 3 = r(24)).
MAXIMAL_COUNTEREXAMPLE_ORDERS = (4, 24, 40, 48, 56, 80, 88, 96, 104, 112)


class TestNeverMaximal:
    def test_matches_direct_bfs_enumeration(self):
        from icg.core import is_connected, make_instance
        from icg.distance import diameter
        from icg.extremal import predict_overall_max

        for n in range(4, 129, 4):
            f = factorize(n)
            bound = predict_overall_max(f).value
            attained = any(
                is_connected(ds)
                and diameter(make_instance(n, ds.divisors)).value == bound
                for ds, _ in enumerate_pst_sets(f, max_size=f.k)
            )
            assert pst_never_maximal(f) == (not attained), n
            assert attained == (n in MAXIMAL_COUNTEREXAMPLE_ORDERS), n

    def test_attaining_sets_are_not_separated(self):
        # The attaining sets all escape the separation-based argument: none
        # of them admits a witness, apart from the degenerate 4-cycle.
        from icg.core import is_connected, make_instance
        from icg.distance import diameter
        from icg.extremal import predict_overall_max

        for n in MAXIMAL_COUNTEREXAMPLE_ORDERS:
            f = factorize(n)
            bound = predict_overall_max(f).value
            for ds, _ in enumerate_pst_sets(f, max_size=f.k):
                if not is_connected(ds):
                    continue
                if diameter(make_instance(n, ds.divisors)).value != bound:
                    continue
                if n == 4:
                    assert ds.divisors == (1,)
                else:
                    assert separation_witness(f, ds) is None, (n, ds.divisors)

    def test_requires_multiple_of_four(self):
        with pytest.raises(DomainError):
            pst_never_maximal(factorize(18))


class TestSeparationWitnesses:
    def test_witnessed_admissible_sets_are_lone_hubs(self):
        # The only admissible sets with a separation witness are singleton
        # hubs {n/4}; all of them are disconnected except {1} over n = 4.
        for n in range(4, 129, 4):
            f = factorize(n)
            for ds, _dec in enumerate_pst_sets(f):
                if separation_witness(f, ds) is not None:
                    assert ds.divisors == (n // 4,), (n, ds.divisors)
