"""Tests for graph construction: divisor sets, adjacency, connectivity."""

import math

import pytest

from icg.core import (
    adjacent,
    degree,
    is_connected,
    make_divisor_set,
    make_instance,
)
from icg.errors import ValidationError
from icg.numtheory import euler_phi, factorize


class TestMakeDivisorSet:
    def test_sorts_ascending(self):
        ds = make_divisor_set(12, [4, 3, 6])
        assert ds.divisors == (3, 4, 6)

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            make_divisor_set(12, [4, 3, 4])

    def test_rejects_non_divisors(self):
        with pytest.raises(ValidationError):
            make_divisor_set(12, [5])
        with pytest.raises(ValidationError):
            make_divisor_set(12, [12])  # n itself is not allowed
        with pytest.raises(ValidationError):
            make_divisor_set(12, [])

    def test_rejects_bools(self):
        # bool is an int subclass, so True would pass as the divisor 1.
        with pytest.raises(ValidationError):
            make_divisor_set(4, [True])
        with pytest.raises(ValidationError):
            make_divisor_set(12, [3, True])

    def test_error_lists_offenders(self):
        with pytest.raises(ValidationError) as exc:
            make_divisor_set(12, [3, 5, 7])
        assert "5" in str(exc.value) and "7" in str(exc.value)


class TestSymbolSet:
    def test_matches_gcd_definition(self):
        for n, dset in [(12, [3, 4]), (12, [3, 4, 6]), (30, [1]), (16, [2])]:
            inst = make_instance(n, dset)
            expected = {x for x in range(1, n) if math.gcd(x, n) in dset}
            assert set(inst.symbol_set) == expected

    def test_symbols_closed_under_negation(self):
        inst = make_instance(20, [2, 5])
        for x in inst.symbol_set:
            assert (20 - x) % 20 in inst.symbol_set


class TestAdjacent:
    def test_figure_instance(self):
        inst = make_instance(12, [3, 4])
        assert adjacent(inst, 0, 3)
        assert adjacent(inst, 0, 4)
        assert adjacent(inst, 0, 9)
        assert not adjacent(inst, 0, 6)
        assert not adjacent(inst, 0, 1)

    def test_translation_invariance(self):
        inst = make_instance(15, [1, 3])
        for u in range(15):
            for v in range(15):
                if u != v:
                    assert adjacent(inst, u, v) == adjacent(inst, 0, (v - u) % 15)


class TestDegree:
    def test_totient_sum(self):
        # The neighborhood of 0 splits into classes of size phi(n/d).
        for n, dset in [(12, [3, 4]), (540, [45, 20, 108]), (30, [1, 3, 5])]:
            inst = make_instance(n, dset)
            assert degree(inst) == sum(euler_phi(n // d) for d in dset)
            assert degree(inst) == len(inst.symbol_set)


class TestConnectivity:
    def test_connected_iff_gcd_one(self):
        for n in range(2, 60):
            from icg.numtheory import proper_divisors

            divs = proper_divisors(n)
            # Single-divisor sets are enough to exercise both branches.
            for d in divs:
                assert is_connected(make_divisor_set(n, [d])) == (d == 1)

    def test_pair_sets(self):
        assert is_connected(make_divisor_set(30, [2, 3]))
        assert not is_connected(make_divisor_set(30, [2, 6]))


class TestInstance:
    def test_n_property_and_json(self):
        inst = make_instance(12, [3, 4])
        assert inst.n == 12
        obj = inst.to_json_obj()
        assert obj["n"] == 12
        assert obj["divisors"] == [3, 4]
