"""Tests for the verification harness."""

import concurrent.futures
import hashlib
import importlib
import json
import math
import random
from itertools import combinations

import pytest

import icg.verify
from icg.canonical import divisor_subsets
from icg.core import make_instance
from icg.distance import DivisorClasses, _bits, class_diameter, diameter
from icg.errors import ResourceLimitError, ValidationError
from icg.extremal import predict_max_for_t, predict_overall_max, prediction_row
from icg.numtheory import factorize, proper_divisors, s_of
from icg.verify import (
    RangeReport,
    Status,
    verify_order,
    verify_range,
)

from tables import clear_tables

# The package re-exports the function ``distance`` under the module's name.
distance_module = importlib.import_module("icg.distance")

#: SHA-256 of verify_range(2, 1000).to_json() before verify_order carried
#: successor rows down its search.
SWEEP_1000_SHA256 = "8f44c1ebeb244957e4cabe8d052f754f1b8673a955e273afb05695fbf9d1a6e5"

#: SHA-256 of verify_range(2, 3000).to_json() before verify_order read
#: diameters from the shape tables.
SWEEP_3000_SHA256 = "2bcc4988604344c16a4db97ade9041f41a7748572d5fe29a1a2cc8e984264f31"


def naive_maxima(n):
    """Per-cardinality and overall (diameter, witness) maxima over the full
    power set; each witness is the first strict maximum in size-then-
    lexicographic order."""
    divs = proper_divisors(n)
    classes = DivisorClasses(factorize(n))
    per_t = {}
    overall = (0, ())
    for size in range(1, len(divs) + 1):
        for combo in combinations(divs, size):
            if math.gcd(*combo) != 1:
                continue
            dv = class_diameter(classes.reach(combo))
            if dv > per_t.get(size, (0, ()))[0]:
                per_t[size] = (dv, combo)
            if dv > overall[0]:
                overall = (dv, combo)
    return per_t, overall


def flat_records(n):
    """(t, predicted, observed, witness, status) per t = 1..k, then overall
    (t None), from a BFS on every connected set with at most k divisors, by
    size, then lexicographically: the loop verify_order ran before its
    search skipped extensions."""
    f = factorize(n)
    classes = DivisorClasses(f)
    best = {}
    for combo in divisor_subsets(n, 1, f.k):
        if math.gcd(*combo) != 1:
            continue
        dv = class_diameter(classes.reach(combo))
        if len(combo) not in best or dv > best[len(combo)][0]:
            best[len(combo)] = (dv, combo)
    rows = [(t, predict_max_for_t(f, t), *best[t]) for t in range(1, f.k + 1)]
    rows.append((None, predict_overall_max(f), *max(best.values(), key=lambda e: e[0])))
    return [
        (t, pred.value, dv, combo, "MATCH" if pred.value == dv else "MISMATCH")
        for t, pred, dv, combo in rows
    ]


def batch_sets(sets, member):
    """The class sets, ascending, that reach a size's maximum, from the
    mask of those sets that the signature table keeps, decoded through the
    member masks of ``_members``."""
    return [tuple(c for c, held in enumerate(member) if held >> s & 1) for s in _bits(sets)]


def record_rows(records):
    return [
        (r.t, r.predicted.value, r.observed_max, r.witness_set, r.status.value) for r in records
    ]


class TestVerifyOrder:
    def test_structure(self):
        records = verify_order(30)
        k = factorize(30).k
        ts = [r.t for r in records]
        assert ts == [1, 2, 3, None]  # one record per t = 1..k, then overall
        assert all(r.n == 30 for r in records)

    def test_against_naive_enumeration(self):
        # verify_order enumerates only |D| <= k; the naive maxima range over
        # every connected set.  54, 120, 210, 250 and 270 add exponents of
        # 3 or more, n = 2 (mod 4) and k = 4.
        for n in (12, 18, 30, 45, 60, 54, 120, 210, 250, 270):
            records = verify_order(n)
            per_t, overall = naive_maxima(n)
            assert [r.t for r in records] == [*range(1, factorize(n).k + 1), None]
            for r in records:
                expected = overall if r.t is None else per_t[r.t]
                assert (r.observed_max, r.witness_set) == expected, (n, r.t)

    def test_all_match_small_orders(self):
        for n in range(2, 60):
            if len(proper_divisors(n)) > 16:
                continue
            for r in verify_order(n):
                assert r.status is Status.MATCH, (n, r.t)

    def test_witness_set_attains_observed(self):
        for n in (30, 40, 90):
            for r in verify_order(n):
                if not r.witness_set:
                    continue
                dv = diameter(make_instance(n, r.witness_set)).value
                assert dv == r.observed_max, (n, r.t)

    def test_predictions_consistent(self):
        f = factorize(84)
        for r in verify_order(84):
            if r.t is None:
                assert r.predicted == predict_overall_max(f)
            else:
                assert r.predicted == predict_max_for_t(f, r.t)


class TestPrunedSearch:
    """verify_order gives the records of the flat loop: a BFS on every
    connected set with at most k divisors, by size, then lexicographically."""

    def test_matches_flat_loop(self):
        for n in range(2, 401):
            assert record_rows(verify_order(n)) == flat_records(n), n

    @pytest.mark.parametrize(
        "n, expected",
        [
            (2310, [
                (1, 3, 3, (1,), "MATCH"),
                (2, 5, 5, (6, 35), "MATCH"),
                (3, 6, 6, (30, 231, 770), "MATCH"),
                (4, 6, 6, (30, 210, 231, 770), "MATCH"),
                (5, 5, 5, (6, 30, 35, 66, 210), "MATCH"),
                (None, 6, 6, (30, 231, 770), "MATCH"),
            ]),
            (5670, [
                (1, 3, 3, (1,), "MATCH"),
                (2, 5, 5, (6, 35), "MATCH"),
                (3, 6, 6, (45, 70, 126), "MATCH"),
                (4, 5, 6, (45, 70, 126, 135), "MISMATCH"),
                (None, 6, 6, (45, 70, 126), "MATCH"),
            ]),
            (47250, [
                (1, 3, 3, (1,), "MATCH"),
                (2, 5, 5, (6, 25), "MATCH"),
                (3, 7, 7, (126, 225, 350), "MATCH"),
                (4, 6, 7, (126, 225, 350, 378), "MISMATCH"),
                (None, 7, 7, (126, 225, 350), "MATCH"),
            ]),
        ],
    )
    def test_large_orders_pinned(self, n, expected):
        # Records of the flat loop; 5670 and 47250 miss the t = k
        # prediction by one, as the orders 2 p^a q up to 1000 do.
        assert record_rows(verify_order(n)) == expected

    def test_guard_refuses_before_any_bfs(self, monkeypatch):
        # 20790 = 2 3^3 5 7 11 has 63 proper divisors, hence 7,666,239
        # sets with at most k = 5 of them.
        calls = []
        monkeypatch.setattr(icg.verify, "_maxima", lambda *args: calls.append(args))
        with pytest.raises(ResourceLimitError) as exc:
            verify_order(20790)
        assert str(exc.value) == (
            "n=20790 has 7666239 divisor subsets of size 1..5, cap is 1048576"
        )
        assert calls == []


class TestClassBatch:
    """The per-size maxima come from one bit-sliced class BFS per signature
    over every subset of the proper classes with at most k members."""

    def test_member_masks_follow_the_subset_order(self):
        for m in range(1, 10):
            for k in range(1, 5):
                subsets = [s for t in range(1, k + 1) for s in combinations(range(m), t)]
                member = icg.verify._members(m, k)
                assert len(member) == m
                for c, held in enumerate(member):
                    assert held == sum(1 << i for i, s in enumerate(subsets) if c in s), (m, k, c)

    def test_maxima_match_brute_force(self):
        # Each size's maximum and every class set that reaches it, against
        # a BFS on each connected t-set of proper classes.
        for n in range(2, 401):
            f = factorize(n)
            classes = DivisorClasses(f)
            m = len(classes.divisors) - 1
            expected = []
            for t in range(1, f.k + 1):
                diameters = {}
                for s in combinations(range(m), t):
                    divisors = [classes.divisors[c] for c in s]
                    if math.gcd(*divisors) == 1:
                        diameters[s] = class_diameter(classes.reach(divisors))
                top = max(diameters.values())
                expected.append((top, sorted(s for s, d in diameters.items() if d == top)))
            member = icg.verify._members(m, f.k)
            found = [(top, batch_sets(sets, member)) for top, sets in icg.verify._maxima(classes, f)]
            assert found == expected, n

    def test_batch_fetches_each_step_row_once(self, monkeypatch):
        # One fetch per class that some connected set holds: with k = 1
        # only the class of 1, index 0, otherwise every proper class.
        fetched = []
        row = DivisorClasses.row

        def count_rows(self, i):
            fetched.append(i)
            return row(self, i)

        monkeypatch.setattr(DivisorClasses, "row", count_rows)
        for n in (16, 210, 2310):
            clear_tables()
            fetched.clear()
            verify_order(n)
            f = factorize(n)
            assert fetched == ([0] if f.k == 1 else list(range(len(DivisorClasses(f).divisors) - 1))), n
        clear_tables()

    def test_unreached_class_raises(self, monkeypatch):
        # A step row that takes no class anywhere leaves {1}, class index
        # 0, at vertex 0.
        row = DivisorClasses.row
        monkeypatch.setattr(
            DivisorClasses, "row", lambda self, i: (0,) * len(self.divisors) if i == 0 else row(self, i)
        )
        clear_tables()
        with pytest.raises(RuntimeError, match=r"^n=30: connected set \(1,\) left classes unreached$"):
            verify_order(30)
        clear_tables()


class TestSignatureMaxima:
    """Every order of a signature gets the same per-size maxima, kept once
    in the signature's table, whichever of its orders fills it."""

    def test_orders_of_a_signature_share_maxima(self):
        maxima = {}
        for n in range(2, 1001):
            clear_tables()  # verify every order cold
            observed = tuple(r.observed_max for r in verify_order(n) if r.t is not None)
            exponents = dict(factorize(n).factors)
            signature = exponents.pop(2, 0), tuple(sorted(exponents.values()))
            maxima.setdefault(signature, set()).add(observed)
            rows = DivisorClasses(factorize(n)).records.values()
            assert [tuple(o for t, _, o, _, _ in row if t is not None) for row in rows] == [observed], n
        assert len(maxima) == 67
        assert {sig: found for sig, found in maxima.items() if len(found) > 1} == {}

    def test_descending_orders_match_pinned_sweep(self):
        # Each signature's maxima now come from its largest order up to
        # 1000 instead of its smallest.
        clear_tables()
        chunks = {n: verify_order(n) for n in range(1000, 1, -1)}
        report = RangeReport(2, 1000, tuple(r for n in range(2, 1001) for r in chunks[n]))
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == SWEEP_1000_SHA256


class TestShapeTable:
    """The records do not depend on which order of a signature fills its
    table first."""

    def test_shuffled_cold_sweep_matches_pin(self):
        clear_tables()
        orders = list(range(2, 1001))
        random.Random(1000).shuffle(orders)
        chunks = {n: verify_order(n) for n in orders}
        report = RangeReport(2, 1000, tuple(r for n in sorted(chunks) for r in chunks[n]))
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == SWEEP_1000_SHA256


class TestWitnessRows:
    """A witness is read off the maxima through its order's divisor order,
    the class indices of its proper divisors ascending by value, so
    verify_order keeps one finished record row per signature and divisor
    order, and an order whose row is stored runs no BFS and no
    predictions."""

    def test_orders_of_one_row_skip_the_search(self, monkeypatch):
        # 77 = 7 * 11 and 91 = 7 * 13 list their classes in one order.
        clear_tables()
        cold = verify_order(91)
        clear_tables()
        verify_order(77)

        def refuse(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(icg.verify, "_maxima", refuse)
        monkeypatch.setattr(icg.verify, "_record_row", refuse)
        monkeypatch.setattr(icg.verify, "prediction_row", refuse)
        monkeypatch.setattr(DivisorClasses, "row", refuse)
        assert verify_order(91) == cold
        assert len(DivisorClasses(factorize(91)).records) == 1

    def test_divisor_orders_of_a_signature_get_their_own_rows(self):
        # 45 = 3^2 * 5 lists 5 before 9 = 3^2; 75 = 3 * 5^2 lists 3 before
        # 25 = 5^2, so their classes come in different orders.
        clear_tables()
        verify_order(45)
        verify_order(75)
        rows = DivisorClasses(factorize(45)).records
        assert DivisorClasses(factorize(75)).records is rows
        assert sorted(rows) == [(0, 1, 2, 3, 4), (0, 2, 1, 4, 3)]
        maxima = {tuple(observed for _, _, observed, _, _ in row) for row in rows.values()}
        assert len(maxima) == 1

    def test_rows_survive_a_cleared_member_cache(self):
        # 45 and 75 share a signature, so 75's row is read off the maxima
        # that 45 stored, here through member masks built anew.
        cold = {}
        for n in (45, 75):
            clear_tables()
            classes = DivisorClasses(factorize(n))
            verify_order(n)
            cold[classes.divisor_order] = classes.records[classes.divisor_order]
        clear_tables()
        verify_order(45)
        icg.verify._members.cache_clear()
        verify_order(75)
        assert icg.verify._members.cache_info().misses == 1
        assert DivisorClasses(factorize(75)).records == cold
        clear_tables()

    def test_search_returns_the_stored_row(self):
        # 90 = 2 * 3^2 * 5 lists its classes as 1, 2, 5, 10, 3, 6, ..., not
        # in value order, so a row of divisors differs from one of indices.
        clear_tables()
        records = verify_order(90)
        f = factorize(90)
        classes = DivisorClasses(f)
        assert classes.divisors[:6] == (1, 2, 5, 10, 3, 6)
        ((order, row),) = classes.records.items()
        assert order == classes.divisor_order
        assert icg.verify._record_row(classes, f) == row
        witnesses = [tuple(classes.divisors[i] for i in w) for _, _, _, w, _ in row]
        assert witnesses == [r.witness_set for r in records]

    def test_guard_refuses_before_the_lookup(self):
        # 4620 is the first order the subset guard refuses: a row stored
        # under its divisor order must not let it through.
        clear_tables()
        classes = DivisorClasses(factorize(4620))
        order = tuple(classes.index[d] for d in sorted(classes.divisors)[:-1])
        predicted = prediction_row(classes.signature).overall
        classes.records[order] = ((1, predicted, 1, (0,), Status.MATCH),) * 6
        with pytest.raises(ResourceLimitError):
            verify_order(4620)
        clear_tables()

    def test_cold_sweep_to_3000_searches_once_per_row(self, monkeypatch):
        # 2,999 orders, 99 signatures and 339 divisor orders: one batch per
        # signature and one record row per divisor order.
        batches = []
        rows = []
        maxima, record_row = icg.verify._maxima, icg.verify._record_row

        def count_batches(*args):
            batches.append(args)
            return maxima(*args)

        def count_rows(*args):
            rows.append(args)
            return record_row(*args)

        monkeypatch.setattr(icg.verify, "_maxima", count_batches)
        monkeypatch.setattr(icg.verify, "_record_row", count_rows)
        clear_tables()
        verify_range(2, 3000)
        tables = {id(t): t for t in (DivisorClasses(factorize(n)).records for n in range(2, 3001))}
        assert sum(map(len, tables.values())) == len(rows) == 339
        assert len(batches) == 99


class TestKnownCounterexamples:
    def test_t_eq_k_mismatches_up_to_1000(self):
        # The t = k prediction r(n) is one short for these orders, which
        # meet the rule of test_t_eq_k_rule_up_to_4619; the overall
        # prediction still holds.  Every order is verified: its sets with
        # |D| <= k stay far below the subset guard (the most, 36,456, are
        # n = 840's).
        mismatches = []
        for n in range(2, 1001):
            for r in verify_order(n):
                if r.t is None:
                    assert r.status is Status.MATCH, n
                elif r.status is Status.MISMATCH:
                    mismatches.append((r.n, r.t, r.predicted.value, r.observed_max))
        assert mismatches == [
            (n, 3, 4, 5) for n in (270, 378, 594, 702, 750, 810, 918)
        ]

    @staticmethod
    def rule_mismatches(lo, hi):
        """The t = k mismatches of lo..hi, checked against the rule: the
        orders with a mismatch are exactly those with n = 2 (mod 4),
        s(n) >= 2 and some odd prime exponent >= 3.  Each has one
        mismatch, at t = k and one above the prediction, and its overall
        record matches."""
        mismatches = []
        for r in verify_range(lo, hi).records:
            if r.t is None:
                assert r.status is Status.MATCH, r.n
            elif r.status is Status.MISMATCH:
                mismatches.append((r.n, r.t, r.observed_max - r.predicted.value))
        rule = []
        for n in range(lo, hi + 1):
            f = factorize(n)
            if n % 4 == 2 and s_of(f) >= 2 and any(a >= 3 for p, a in f.factors if p > 2):
                rule.append((n, f.k, 1))
        assert mismatches == rule
        return [n for n, _, _ in rule]

    def test_t_eq_k_rule_up_to_4619(self):
        # Every order the subset guard admits below 4620, its first refusal.
        assert len(self.rule_mismatches(2, 4619)) == 43

    def test_t_eq_k_rule_from_4621_to_5459(self):
        # The first run of orders past 4620 that the subset guard admits.
        orders = self.rule_mismatches(4621, 5459)
        assert len(orders) == 10 and orders[0] == 4698 and orders[-1] == 5454


class TestVerifyRange:
    def test_sweep_to_1000_pinned(self):
        digest = hashlib.sha256(verify_range(2, 1000).to_json().encode()).hexdigest()
        assert digest == SWEEP_1000_SHA256

    def test_sweep_to_3000_pinned(self):
        # k = 5 (2310), exponents of 3 or more, n = 2 (mod 4) and the t = k
        # mismatches, with the signature tables warm from earlier orders.
        # The range has 99 signatures, and an ascending sweep must build
        # each one's table once: an evicted table would be rebuilt on the
        # signature's next order, and its diameters measured again.  The
        # prediction rows are keyed by the same signatures.
        clear_tables()
        prediction_row.cache_clear()
        digest = hashlib.sha256(verify_range(2, 3000).to_json().encode()).hexdigest()
        assert digest == SWEEP_3000_SHA256
        assert distance_module._exponent_table.cache_info().misses == 99
        assert prediction_row.cache_info().misses == 99

    @pytest.mark.parametrize("n", [2, 30, 270, 2310])
    def test_one_order_lists_no_divisors_by_trial_division(self, monkeypatch, n):
        # verify_order reads the proper divisors from its DivisorClasses.
        expected = verify_range(n, n).to_json()

        def refuse(m):
            raise AssertionError(f"proper_divisors({m}) called")

        monkeypatch.setattr(icg.verify, "proper_divisors", refuse, raising=False)
        clear_tables()
        assert verify_range(n, n).to_json() == expected
        assert verify_range(n, n).to_json() == expected  # warm, from the witness row

    @pytest.mark.parametrize("lo, hi", [(2, 300), (2300, 2320)])
    def test_range_lists_no_divisors_by_trial_division(self, monkeypatch, lo, hi):
        # The guard of a multi-order range counts each order's proper
        # divisors from its factorization, as tau(n) - 1.
        expected = verify_range(lo, hi).to_json()

        def refuse(m):
            raise AssertionError(f"proper_divisors({m}) called")

        monkeypatch.setattr(icg.verify, "proper_divisors", refuse, raising=False)
        clear_tables()
        assert verify_range(lo, hi).to_json() == expected

    def test_csv_to_400_pinned(self):
        # SHA-256 of the report as csv.writer wrote it, before to_csv
        # joined its cells itself.
        digest = hashlib.sha256(verify_range(2, 400).to_csv().encode()).hexdigest()
        assert digest == "dfdba7e561c05600de9c3a95714c18eebf2d2abf5ed78753e1cdcb99a21b63d0"

    def test_small_range_no_mismatch(self):
        report = verify_range(2, 40)
        assert report.mismatches == ()
        assert report.match_count == len(report.records)

    def test_determinism(self):
        a = verify_range(10, 25)
        b = verify_range(10, 25)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_parallel_matches_serial(self):
        serial = verify_range(2, 30, jobs=1)
        parallel = verify_range(2, 30, jobs=2)
        assert serial.to_json() == parallel.to_json()

    def test_json_shape(self):
        report = verify_range(12, 12)
        obj = json.loads(report.to_json())
        assert obj["range"] == [12, 12]
        assert obj["mismatches"] == 0
        assert obj["records"]

    def test_csv_shape(self):
        report = verify_range(12, 12)
        lines = report.to_csv().splitlines()
        assert lines[0] == "n,t,predicted,observed,status"
        assert all(line.startswith("12,") for line in lines[1:])

    def test_fail_fast_parallel_matches_serial(self):
        # 270 is the first order with a mismatch, so both stop after it.
        serial = verify_range(270, 320, fail_fast=True)
        parallel = verify_range(270, 320, jobs=2, fail_fast=True)
        assert {r.n for r in serial.records} == {270}
        assert parallel.to_json() == serial.to_json()

    def test_pool_takes_contiguous_runs(self, monkeypatch):
        # 399 orders on two workers go in runs of 25, about eight per worker,
        # and the report is the serial one.
        sizes = []
        pool_map = concurrent.futures.ProcessPoolExecutor.map

        def recording_map(pool, fn, *iterables, chunksize=1, **kwargs):
            sizes.append(chunksize)
            return pool_map(pool, fn, *iterables, chunksize=chunksize, **kwargs)

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor, "map", recording_map)
        assert verify_range(2, 400, jobs=2).to_json() == verify_range(2, 400).to_json()
        assert sizes == [25]

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Sizes of the pools verify_range builds.  The stand-in pool maps
        in this process, so these tests start no worker processes."""
        built = []

        class RecordingPool:
            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, iterable, *, chunksize):
                return map(fn, iterable)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        return built

    def test_pool_is_capped_at_the_number_of_orders(self, pool_sizes):
        report = verify_range(2, 4, jobs=1000)
        assert pool_sizes == [3]
        assert report.to_json() == verify_range(2, 4, jobs=1).to_json()

    def test_one_order_builds_no_pool(self, pool_sizes):
        report = verify_range(7, 7, jobs=8)
        assert pool_sizes == []
        assert report.to_json() == verify_range(7, 7).to_json()

    def test_refused_order_stops_the_range_before_any_search(self, monkeypatch, pool_sizes):
        # 4620 = 4 * 3 * 5 * 7 * 11 is the first order the subset guard
        # refuses; the orders before it are not searched, and no pool starts.
        searched = []
        monkeypatch.setattr(icg.verify, "verify_order", searched.append)
        for jobs, fail_fast in ((1, False), (2, False), (2, True)):
            with pytest.raises(ResourceLimitError, match="n=4620 has 1729647"):
                verify_range(4600, 4620, jobs=jobs, fail_fast=fail_fast)
        assert searched == [] and pool_sizes == []

    def test_lone_order_is_its_verify_order(self, monkeypatch, pool_sizes):
        # One order, or one worker, runs a plain loop in this process; the
        # report holds exactly what verify_order gives, fail_fast or not.
        for n in (2, 12, 270, 378):
            records = tuple(verify_order(n))
            for fail_fast in (False, True):
                report = verify_range(n, n, fail_fast=fail_fast)
                assert report == RangeReport(n, n, records), (n, fail_fast)
        # 270 is the first order with a mismatch: a serial fail_fast run
        # stops after it.
        report = verify_range(269, 272, fail_fast=True)
        assert [r.n for r in report.records][-1] == 270
        assert verify_range(269, 272).records[-1].n == 272
        # A lone refused order is refused by verify_order before its BFS.
        searched = []
        monkeypatch.setattr(icg.verify, "_maxima", lambda *args: searched.append(args))
        with pytest.raises(ResourceLimitError, match="n=4620 has 1729647"):
            verify_range(4620, 4620)
        assert searched == [] and pool_sizes == []

    def test_invalid_range(self):
        with pytest.raises(ValidationError):
            verify_range(5, 4)
        with pytest.raises(ValidationError):
            verify_range(1, 10)


class TestSubgraphMonotonicity:
    def test_adding_divisors_never_increases_diameter(self):
        # Growing the divisor set adds edges, so distances cannot grow.
        for n in range(2, 61):
            divs = proper_divisors(n)
            if len(divs) > 10:
                continue
            for size in range(1, len(divs)):
                for combo in combinations(divs, size):
                    if math.gcd(*combo) != 1:
                        continue
                    base = diameter(make_instance(n, combo)).value
                    for extra in divs:
                        if extra in combo:
                            continue
                        bigger = diameter(
                            make_instance(n, sorted(combo + (extra,)))
                        ).value
                        assert bigger <= base, (n, combo, extra)
