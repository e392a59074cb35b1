"""The record types: immutable, picklable, compared and hashed field-wise."""

import pickle

import pytest

from icg.canonical import make_separated
from icg.core import make_divisor_set, make_instance
from icg.distance import bfs_profile, diameter
from icg.extremal import (
    check_untouched_prime,
    extremal_check_t_eq_k,
    predict_overall_max,
    two_three_summands,
)
from icg.numtheory import CrtSystem, Factorization, factorize
from icg.pst import pst_admissible
from icg.verify import verify_order, verify_range


def _samples() -> list:
    """One instance of each record type, made by the code that returns it."""
    f = factorize(30)
    ds, w = make_separated(30, [6, 10, 15])
    g = make_instance(12, [3, 4])
    return [
        f,
        CrtSystem(((1, 2), (2, 3))),
        ds,
        g,
        w,
        bfs_profile(g),
        diameter(g),
        predict_overall_max(f),
        extremal_check_t_eq_k(f, ds, w),
        check_untouched_prime(f, make_divisor_set(30, [2, 3])),
        two_three_summands(30, 3, 9),
        pst_admissible(factorize(8), make_divisor_set(8, [1, 2])),
        verify_order(12)[0],
        verify_range(12, 12),
    ]


SAMPLES = _samples()


def test_one_sample_per_record_type():
    assert len({type(record) for record in SAMPLES}) == 14


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
class TestRecordContract:
    def test_fields_cannot_be_set(self, record):
        field = record._fields[0]
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None

    def test_repr_names_the_type(self, record):
        assert repr(record).startswith(f"{type(record).__name__}(")

    def test_pickle_round_trip(self, record):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record
        assert hash(copy) == hash(record)


def test_factorization_is_its_fields():
    f = Factorization(30, ((2, 1), (3, 1), (5, 1)))
    g = factorize(30)
    assert f == g
    assert hash(f) == hash(g)
    assert (f.primes, f.exponents, f.k) == (g.primes, g.exponents, g.k) == ((2, 3, 5), (1, 1, 1), 3)
