"""Tests for the closed-form diameter theory.

Every predicted or characterized value is adjudicated by BFS, which is
the ground truth throughout.  Attainment conditions are sufficient by
construction; sufficiency is exercised exhaustively on small orders, and
the handful of sets where the bound is reached without the condition are
pinned down explicitly.
"""

import hashlib
import importlib
import itertools
import json
import math
from collections import Counter
from itertools import combinations

import pytest

from icg.canonical import (
    SeparationWitness,
    divisor_subsets,
    enumerate_separated,
    iter_witnesses,
    make_separated,
    separation_witness,
)
from icg.core import DivisorSet, make_divisor_set, make_instance
from icg.distance import DivisorClasses, class_diameter, diameter, distance, levels_from_zero
from icg.errors import DomainError
from icg.extremal import (
    CaseLabel,
    ExtremalVerdict,
    MaxDiameterPrediction,
    check_untouched_prime,
    diameter_two_cases,
    extremal_check_t_eq_k,
    extremal_check_t_lt_k,
    lift_diameter,
    lift_diameter_small,
    predict_max_for_t,
    predict_overall_max,
    prediction_row,
    saxena_family,
    small_family_lookup,
    two_three_summands,
    worst_vertex,
)
from icg.numtheory import factorize, proper_divisors, r_of, s_of

from tables import clear_tables

distance_module = importlib.import_module("icg.distance")
extremal_module = importlib.import_module("icg.extremal")


class TestPredictOverallMax:
    def test_reference_values(self):
        # Frozen from the exhaustive BFS sweep over all connected divisor
        # sets (see test_verify for the live comparison).
        expected = {
            12: 3, 30: 4, 45: 3, 60: 4, 90: 5, 540: 5, 150: 5,
            18: 3, 50: 3, 2: 1, 4: 2, 9: 2,
        }
        for n, want in expected.items():
            assert predict_overall_max(factorize(n)).value == want, n

    def test_case_labels(self):
        assert predict_overall_max(factorize(30)).case_label == CaseLabel.OVERALL_R_PLUS_1
        assert predict_overall_max(factorize(12)).case_label == CaseLabel.OVERALL_R
        # 2 * odd square part: only one exponent-1 prime, so no +1.
        assert predict_overall_max(factorize(18)).case_label == CaseLabel.OVERALL_R
        assert predict_overall_max(factorize(50)).case_label == CaseLabel.OVERALL_R


class TestPredictMaxForT:
    def test_branch_selection(self):
        f540 = factorize(540)  # k=3, s=1
        assert predict_max_for_t(f540, 3).case_label == CaseLabel.T_EQ_K
        assert predict_max_for_t(f540, 3).value == 5
        assert predict_max_for_t(f540, 2).case_label == CaseLabel.TWO_T_PLUS_1_SMALL_S
        assert predict_max_for_t(f540, 2).value == 5
        assert predict_max_for_t(f540, 1).value == 3

        f30 = factorize(30)  # k=3, s=3
        assert predict_max_for_t(f30, 2).case_label == CaseLabel.R_PLUS_1
        assert predict_max_for_t(f30, 2).value == 4
        assert predict_max_for_t(f30, 1).case_label == CaseLabel.TWO_T_PLUS_1_BIG_S
        assert predict_max_for_t(f30, 1).value == 3

        f105 = factorize(105)  # odd, k=3, s=3
        assert predict_max_for_t(f105, 2).case_label == CaseLabel.R_CASE
        assert predict_max_for_t(f105, 1).case_label == CaseLabel.TWO_T_BIG_S

    def test_t_above_k_not_applicable(self):
        pred = predict_max_for_t(factorize(30), 5)
        assert not pred.applicable
        assert pred.value == predict_overall_max(factorize(30)).value

    def test_invalid_t(self):
        with pytest.raises(DomainError):
            predict_max_for_t(factorize(30), 0)


def reference_overall(f):
    """The overall prediction as computed per order before the memoized
    prediction rows."""
    if f.n % 4 == 2 and s_of(f) >= 2:
        return MaxDiameterPrediction(r_of(f) + 1, CaseLabel.OVERALL_R_PLUS_1)
    return MaxDiameterPrediction(r_of(f), CaseLabel.OVERALL_R)


def reference_for_t(f, t):
    """The seven-branch split on (n mod 4, s(n), t vs k - floor(s/2)) as
    computed per order before the memoized prediction rows."""
    k = f.k
    if t > k:
        overall = reference_overall(f)
        return MaxDiameterPrediction(overall.value, overall.case_label, applicable=False)
    if t == k:
        return MaxDiameterPrediction(r_of(f), CaseLabel.T_EQ_K)
    n, r, s = f.n, r_of(f), s_of(f)
    if s >= 2 and k - s // 2 <= t:
        if n % 4 == 2:
            return MaxDiameterPrediction(r + 1, CaseLabel.R_PLUS_1)
        return MaxDiameterPrediction(r, CaseLabel.R_CASE)
    if s >= 2:
        if n % 2 == 0:
            return MaxDiameterPrediction(2 * t + 1, CaseLabel.TWO_T_PLUS_1_BIG_S)
        return MaxDiameterPrediction(2 * t, CaseLabel.TWO_T_BIG_S)
    if n % 2 == 0:
        return MaxDiameterPrediction(2 * t + 1, CaseLabel.TWO_T_PLUS_1_SMALL_S)
    return MaxDiameterPrediction(2 * t, CaseLabel.TWO_T_SMALL_S)


class TestPredictionRow:
    """The predictions are read from one row per exponent signature; the
    per-order split stays here as the reference."""

    def test_rows_match_the_reference_split(self):
        labels = set()
        for n in range(2, 5001):
            f = factorize(n)
            row = prediction_row(f.signature)
            assert row.overall == predict_overall_max(f) == reference_overall(f), n
            assert len(row.per_t) == f.k, n
            for t in range(1, f.k + 2):
                want = reference_for_t(f, t)
                assert predict_max_for_t(f, t) == want, (n, t)
                assert predict_max_for_t(f, t).applicable == (t <= f.k), (n, t)
                if t <= f.k:
                    assert row.per_t[t - 1] == want, (n, t)
                labels.add(want.case_label)
        assert labels == set(CaseLabel)

    def test_t_zero_still_raises(self):
        prediction_row(factorize(30030).signature)  # t < 1 is refused with the row cached too
        for t in (0, -1):
            with pytest.raises(DomainError):
                predict_max_for_t(factorize(30030), t)

    def test_orders_of_one_key_share_a_row(self):
        # 60 = 4 3 5 and 90 = 2 3^2 5 have the exponents {1, 1, 2}; 60 is
        # 0 mod 4 and 90 is 2 mod 4, so their rows differ.  15 = 3 mod 4
        # and 21 = 1 mod 4 have one signature.
        def row(n):
            return prediction_row(factorize(n).signature)

        for a, b in ((60, 84), (90, 150), (15, 21)):
            assert row(a) is row(b), (a, b)
        assert row(60) != row(90)


class TestFullCardinality:
    def test_square_condition_example(self):
        f = factorize(540)
        ds, w = make_separated(540, [45, 20, 108])
        v = extremal_check_t_eq_k(f, ds, w)
        assert v.attains and v.matched_condition == "thm:r(n) i"
        assert diameter(make_instance(540, [45, 20, 108])).value == r_of(f) == 5

    def test_even_order_pairing_example(self):
        f = factorize(6750)
        ds, w = make_separated(6750, [75, 250, 18])
        v = extremal_check_t_eq_k(f, ds, w)
        assert v.attains and v.matched_condition == "thm:r(n) ii"
        assert diameter(make_instance(6750, [75, 250, 18])).value == r_of(f) == 5

    def test_not_attaining_examples(self):
        for n, dset, diam in [
            (1260, [105, 140, 252, 180], 5),
            (420, [105, 70, 84, 60], 4),
            (22050, [105, 2450, 882, 450], 5),
        ]:
            f = factorize(n)
            ds, w = make_separated(n, dset)
            v = extremal_check_t_eq_k(f, ds, w)
            assert not v.attains, (n, dset)
            assert diameter(make_instance(n, dset)).value == diam
            assert diam < r_of(f) or (diam == r_of(f) and not v.attains)

    def test_wrong_cardinality_rejected(self):
        f = factorize(540)
        ds, w = make_separated(540, [45, 20])
        with pytest.raises(DomainError):
            extremal_check_t_eq_k(f, ds, w)

    def test_attains_implies_bfs_equals_r(self):
        # Sufficiency, exhaustively over small orders: whenever the verdict
        # says the bound is attained, BFS must agree.
        for n in range(2, 130):
            f = factorize(n)
            if f.k < 2:
                continue
            divs = proper_divisors(n)
            for combo in combinations(divs, f.k):
                ds = DivisorSet(n, combo)
                w = separation_witness(f, ds)
                if w is None:
                    continue
                v = extremal_check_t_eq_k(f, ds, w)
                if v.attains:
                    dv = diameter(make_instance(n, combo)).value
                    want = r_of(f) + (1 if v.matched_condition == "thm:r(n) ii" else 0)
                    if v.matched_condition == "thm:r(n) ii":
                        # The pairing condition certifies r(n)+1 only where
                        # the +1 branch applies; otherwise r(n).
                        want = predict_max_for_t(f, f.k).value
                    assert dv == want or dv == r_of(f), (n, combo, dv)


def _injection_by_witness(f, ds, w):
    """The injection condition for one witness, in its definitional form:
    odd witness primes, each of exponent > 1 square-dividing every divisor
    but its dedicated one, and each non-witness prime of exponent 1 missing
    exactly one divisor, whose witness prime has exponent 1, injectively."""
    exponent = dict(f.factors)
    dedicated = dict(w.assignment)
    if 2 in dedicated.values():
        return False
    for d, p in w.assignment:
        if exponent[p] > 1 and any(e % (p * p) for e in ds.divisors if e != d):
            return False
    targets = []
    for p, a in f.factors:
        if p in dedicated.values():
            continue
        missing = [d for d in ds.divisors if d % p != 0]
        if a != 1 or len(missing) != 1 or exponent[dedicated[missing[0]]] != 1:
            return False
        targets.append(missing[0])
    return len(targets) == len(set(targets))


def _t_lt_k_by_witness_search(f, ds):
    """extremal_check_t_lt_k as a search over every separation witness,
    raising DomainError where the check must."""
    if len(ds.divisors) >= f.k:
        raise DomainError("|D| >= k")
    n = f.n
    witnesses = list(iter_witnesses(f, ds))
    untouched = any(all(d % p for d in ds.divisors) for p in f.primes)
    if s_of(f) >= 2:
        if untouched:
            raise DomainError("untouched prime in an injection case")
        case = "thm:t<k ii" if n % 4 == 2 else "thm:t<k i"
        holds = any(_injection_by_witness(f, ds, w) for w in witnesses)
    else:
        case = "thm:t<k iv" if n % 2 == 0 else "thm:t<k iii"
        if untouched:
            v = check_untouched_prime(f, ds)
            holds = v.attains_two_t_plus_one if n % 2 == 0 else v.attains_two_t
        else:
            holds = any(
                all(
                    p != 2 and all(e % (p * p) == 0 for e in ds.divisors if e != d)
                    for d, p in w.assignment
                )
                for w in witnesses
            )
    return ExtremalVerdict(True, case) if holds else ExtremalVerdict(False)


class TestPartialCardinality:
    def test_worked_example(self):
        f = factorize(450)
        ds, w = make_separated(450, [25, 9])
        v = extremal_check_t_lt_k(f, ds, w)
        assert v.attains and v.matched_condition == "thm:t<k iv"
        assert predict_max_for_t(f, 2).value == 5
        assert diameter(make_instance(450, [25, 9])).value == 5

    def test_injection_case_example(self):
        f = factorize(210)
        ds, w = make_separated(210, [15, 14])
        v = extremal_check_t_lt_k(f, ds, w)
        assert v.attains and v.matched_condition == "thm:t<k ii"
        assert diameter(make_instance(210, [15, 14])).value == 5
        assert predict_max_for_t(f, 2).value == 5

    def test_attains_implies_bfs_attains_bound(self):
        # Sufficiency sweep: a positive verdict must be confirmed by BFS.
        hits = 0
        for n in range(2, 160):
            f = factorize(n)
            if f.k < 2:
                continue
            divs = proper_divisors(n)
            for t in range(1, f.k):
                if t >= f.k - s_of(f) // 2:
                    continue
                bound = predict_max_for_t(f, t).value
                for combo in combinations(divs, t):
                    if math.gcd(*combo) != 1:
                        continue
                    ds = DivisorSet(n, combo)
                    w = separation_witness(f, ds)
                    if w is None:
                        continue
                    try:
                        v = extremal_check_t_lt_k(f, ds, w)
                    except DomainError:
                        continue  # untouched prime in an injection case
                    if v.attains:
                        hits += 1
                        assert diameter(make_instance(n, combo)).value == bound, (n, combo)
        assert hits > 20  # the sweep actually exercised positive verdicts

    def test_per_divisor_verdict_matches_witness_search(self):
        # Every divisor subset with |D| < k and n < 400, separated or not:
        # the per-divisor decision agrees with trying every witness, and
        # raises DomainError exactly where the search does.
        positives = 0
        for n in range(2, 400):
            f = factorize(n)
            for combo in divisor_subsets(n, 1, f.k - 1):
                ds = DivisorSet(n, combo)
                w = separation_witness(f, ds)  # not read; None without a witness
                try:
                    want = _t_lt_k_by_witness_search(f, ds)
                except DomainError:
                    with pytest.raises(DomainError):
                        extremal_check_t_lt_k(f, ds, w)
                    continue
                assert extremal_check_t_lt_k(f, ds, w) == want, (n, combo)
                positives += want.attains
        assert positives > 100

    def test_condition_is_not_necessary(self):
        # Known sets reaching the 2t+1 bound although the square-pair
        # condition fails; the verdict stays negative and BFS adjudicates.
        for dset in ([9, 10], [9, 20]):
            f = factorize(180)
            ds, w = make_separated(180, dset)
            v = extremal_check_t_lt_k(f, ds, w)
            assert not v.attains
            assert diameter(make_instance(180, dset)).value == 5
            assert predict_max_for_t(f, 2).value == 5

    def test_unitary_set_reduces_to_untouched_part(self):
        # D = {1} leaves every prime untouched; the verdict comes from the
        # parity rule over the trivial touched part.
        f = factorize(36)  # s(36)=0, even: the 2t+1 branch
        ds, w = make_separated(36, [1])
        v = extremal_check_t_lt_k(f, ds, w)
        assert v.attains
        assert diameter(make_instance(36, [1])).value == 3

    def test_injection_case_untouched_prime_rejected(self):
        f = factorize(30)  # s(30)=3: injection branch
        ds, w = make_separated(30, [1])
        with pytest.raises(DomainError):
            extremal_check_t_lt_k(f, ds, w)

    def test_full_cardinality_rejected(self):
        f = factorize(540)
        ds, w = make_separated(540, [45, 20, 108])
        with pytest.raises(DomainError):
            extremal_check_t_lt_k(f, ds, w)


def untouched_reference(n, divisors):
    """check_untouched_prime's verdict from its definition: the witness over
    the touched part m takes, for each divisor, the least prime of m that
    divides the leave-one-out gcd but not gcd(D)."""
    factors = factorize(n).factors
    untouched = [(p, a) for p, a in factors if all(d % p for d in divisors)]
    n_prime = math.prod(p**a for p, a in untouched)
    m = n // n_prime
    square_pair = attains_r = False
    if m == 1:
        square_pair = len(factors) >= 2
    elif len(divisors) == len(factors) - len(untouched):
        g = math.gcd(*divisors)
        eligible = [
            [
                p
                for p, _ in factorize(m).factors
                if math.gcd(*divisors[:i], *divisors[i + 1 :]) % p == 0 and g % p
            ]
            for i in range(len(divisors))
        ]
        if all(eligible):
            w = [(d, ps[0]) for d, ps in zip(divisors, eligible)]

            def squares_off(p, d):
                return all(e % (p * p) == 0 for e in divisors if e != d)

            square_pair = all(squares_off(p, d) for d, p in w)
            attains_r = n_prime == 2 and all(squares_off(p, d) for d, p in w if m % (p * p) == 0)
    even = n_prime % 2 == 0
    return attains_r, square_pair and even, square_pair and not even, m, n_prime


class TestUntouchedPrime:
    def test_matches_definition(self):
        # Every set of at most k proper divisors leaving a prime untouched,
        # n <= 400; t = 1 and members equal to the touched part included.
        checked = 0
        for n in range(2, 401):
            f = factorize(n)
            for combo in divisor_subsets(n, 1, f.k):
                if all(any(d % p == 0 for d in combo) for p in f.primes):
                    continue
                v = check_untouched_prime(f, DivisorSet(n, combo))
                got = (v.attains, v.attains_two_t_plus_one, v.attains_two_t, v.touched, v.untouched)
                assert got == untouched_reference(n, combo), (n, combo)
                checked += 1
        assert checked > 10_000
        v = check_untouched_prime(factorize(30), DivisorSet(30, (15,)))
        assert (v.touched, v.untouched, v.attains_two_t_plus_one) == (15, 2, False)

    def test_examples(self):
        f = factorize(450)
        v = check_untouched_prime(f, make_divisor_set(450, [25, 9]))
        assert v.attains and v.attains_two_t_plus_one
        assert (v.touched, v.untouched) == (225, 2)
        assert diameter(make_instance(450, [25, 9])).value == r_of(f) == 5

        f900 = factorize(900)
        v900 = check_untouched_prime(f900, make_divisor_set(900, [25, 9]))
        assert not v900.attains  # untouched part is 4, not 2
        assert v900.attains_two_t_plus_one
        assert diameter(make_instance(900, [25, 9])).value == 5 == 2 * 2 + 1
        assert r_of(f900) == 6

        f105 = factorize(105)
        v105 = check_untouched_prime(f105, make_divisor_set(105, [5, 7]))
        assert not v105.attains and not v105.attains_two_t_plus_one

    def test_condition_is_not_necessary(self):
        # n' = 2 and BFS reaches r(210) = 4, but {3, 15, 35} has no separation
        # witness over m = 105 (no prime divides 3 and 35 but not 15), so the
        # sufficient condition for r(n) cannot hold; the verdict stays negative.
        f = factorize(210)
        ds = make_divisor_set(210, [3, 15, 35])
        v = check_untouched_prime(f, ds)
        assert (v.touched, v.untouched) == (105, 2)
        assert not v.attains and v.matched_condition is None
        assert class_diameter(DivisorClasses(f).reach(ds.divisors)) == r_of(f) == 4

    def test_all_touched_rejected(self):
        with pytest.raises(DomainError):
            check_untouched_prime(factorize(450), make_divisor_set(450, [25, 9, 2]))

    def test_positive_verdicts_confirmed_by_bfs(self):
        for n in range(6, 200):
            f = factorize(n)
            divs = proper_divisors(n)
            if len(divs) > 16:
                continue
            for t in (1, 2):
                for combo in combinations(divs, t):
                    if math.gcd(*combo) != 1:
                        continue
                    ds = DivisorSet(n, combo)
                    try:
                        v = check_untouched_prime(f, ds)
                    except DomainError:
                        continue
                    dv = diameter(make_instance(n, combo)).value
                    if v.attains:
                        assert dv == r_of(f), (n, combo)
                    if v.attains_two_t_plus_one:
                        assert dv == 2 * t + 1, (n, combo)
                    if v.attains_two_t:
                        assert dv == 2 * t, (n, combo)


class TestVerdictCounts:
    def test_separated_sets_up_to_399(self):
        # Pins the verdicts themselves, not only their sufficiency: every
        # separated set with t <= k and n <= 399, checked with its first
        # witness, routed as the closed-form layer routes it.  A change that
        # turned positive verdicts negative (or the reverse) moves a count.
        t_eq_k, t_lt_k, untouched = Counter(), Counter(), Counter()
        for n in range(2, 400):
            f = factorize(n)
            for t in range(1, f.k + 1):
                for ds in enumerate_separated(n, t):
                    w = separation_witness(f, ds)
                    if t == f.k:
                        label = extremal_check_t_eq_k(f, ds, w).matched_condition
                        t_eq_k[label and label.split()[-1]] += 1
                    elif any(all(d % p for d in ds.divisors) for p in f.primes):
                        v = check_untouched_prime(f, ds)
                        flags = (v.attains, v.attains_two_t_plus_one, v.attains_two_t)
                        untouched["".join("T" if b else "F" for b in flags)] += 1
                    else:
                        label = extremal_check_t_lt_k(f, ds, w).matched_condition
                        t_lt_k[label and label.split()[-1]] += 1
        assert t_eq_k == {"i": 516, "ii": 8, None: 345}
        assert t_lt_k == {"i": 34, "ii": 95, None: 1056}
        assert untouched == {"FFF": 1750, "FFT": 116, "FTF": 191, "TFF": 48}

    def test_closed_form_layer_below_1200_pinned(self):
        # Every separated set with t <= k of every order 2..1199 with at most
        # 20 proper divisors, with all its witnesses, its verdict routed as
        # the closed-form layer routes it, and the worst vertex of a t = k
        # set that attains r(n).  The digest was computed before separation
        # was read from prime-support masks.
        lines = []
        for n in range(2, 1200):
            if len(proper_divisors(n)) > 20:
                continue
            f = factorize(n)
            for t in range(1, f.k + 1):
                for ds in enumerate_separated(n, t):
                    witnesses = list(iter_witnesses(f, ds))
                    vertex = None
                    if t == f.k:
                        verdict = extremal_check_t_eq_k(f, ds, witnesses[0])
                        if verdict.attains:
                            variant = "II" if verdict.matched_condition.endswith("ii") else "I"
                            vertex = worst_vertex(f, ds, witnesses[0], variant)
                    elif any(all(d % p for d in ds.divisors) for p in f.primes):
                        verdict = check_untouched_prime(f, ds)
                    else:
                        verdict = extremal_check_t_lt_k(f, ds, witnesses[0])
                    assignments = [w.assignment for w in witnesses]
                    row = [n, t, ds.divisors, assignments, verdict.to_json_obj(), vertex]
                    lines.append(json.dumps(row))
        assert len(lines) == 15471
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "9740d8571b0d1f58437b8bfef1c3b31e8f5da88ac4a00f5d4a63fa82ea928ac9"


#: The orders of the closed-form layer: 2..1199 with at most 20 proper divisors.
CLOSED_FORM_ORDERS = tuple(n for n in range(2, 1200) if len(proper_divisors(n)) <= 20)


def _route(f, ds, w):
    """The verdict of a separated set, routed as the closed-form layer
    routes it."""
    if len(ds.divisors) == f.k:
        return extremal_check_t_eq_k(f, ds, w)
    if any(all(d % p for d in ds.divisors) for p in f.primes):
        return check_untouched_prime(f, ds)
    return extremal_check_t_lt_k(f, ds, w)


def _closed_form_verdicts(orders) -> dict:
    """(n, divisors) -> verdict for every separated set of the orders."""
    out = {}
    for n in orders:
        f = factorize(n)
        for t in range(1, f.k + 1):
            for ds in enumerate_separated(n, t):
                out[n, ds.divisors] = _route(f, ds, separation_witness(f, ds))
    return out


class TestVerdictTable:
    """The verdicts are kept in the verdict map of the signature table."""

    @pytest.fixture(autouse=True)
    def cold_tables(self):
        clear_tables()
        yield
        clear_tables()

    @pytest.fixture
    def filled(self, monkeypatch):
        """Counts the calls of the predicates that fill the verdict map."""
        calls = Counter()
        for name in ("_t_eq_k_verdict", "_t_lt_k_verdict", "_untouched_flags"):

            def counting(*args, _name=name, _fill=getattr(extremal_module, name)):
                calls[_name] += 1
                return _fill(*args)

            monkeypatch.setattr(extremal_module, name, counting)
        return calls

    def test_exact_whichever_order_fills_the_table(self):
        # Ascending, each signature's entries come from its smallest orders;
        # descending, from its largest.  Both must give every set the
        # verdict its own predicates give with a cleared table.
        up = _closed_form_verdicts(CLOSED_FORM_ORDERS)
        clear_tables()
        down = _closed_form_verdicts(reversed(CLOSED_FORM_ORDERS))
        assert len(up) == 15471 and up == down
        for (n, divisors), verdict in up.items():
            f = factorize(n)
            ds = DivisorSet(n, divisors)
            clear_tables()
            assert _route(f, ds, separation_witness(f, ds)) == verdict, (n, divisors)

    def test_most_checks_read_the_table(self, filled):
        # The 15,471 separated sets of the 1,166 orders have 1,266 keys, one
        # fill each; a second pass over the same orders fills nothing.
        expected = {"_t_eq_k_verdict": 411, "_t_lt_k_verdict": 356, "_untouched_flags": 499}
        _closed_form_verdicts(CLOSED_FORM_ORDERS)
        assert filled == expected
        _closed_form_verdicts(CLOSED_FORM_ORDERS)
        assert filled == expected

    def test_orders_of_one_signature_share_verdicts(self, filled):
        # 210 = 2 3 5 7 and 330 = 2 3 5 11 have one signature and list their
        # divisors in one class order: once 210 has filled the table, 330
        # reads every verdict from it.  90 = 2 3^2 5 and 150 = 2 3 5^2 share
        # a signature too, but a t = k key holds the members and the witness
        # pairs in the order of their values, which differs for two of the
        # t = k sets of 150; it reads every verdict below t = k.
        for first, second, t_eq_k_fills in ((210, 330, 0), (90, 150, 2)):
            _closed_form_verdicts([first])
            before = Counter(filled)
            _closed_form_verdicts([second])
            assert filled - before == Counter({"_t_eq_k_verdict": t_eq_k_fills}), second

    def test_another_witness_gets_its_own_verdict(self):
        # Each t = k set is checked with its own witness first, then with
        # the witness of every other t = k set of its order: the answer must
        # be what the predicates give for that witness with a cleared table,
        # not the stored verdict of the set's own witness.
        changed = 0
        for n in (180, 540, 1260):
            f = factorize(n)
            sets = [(ds, separation_witness(f, ds)) for ds in enumerate_separated(n, f.k)]
            expected = {}
            for ds, _ in sets:
                for _, w in sets:
                    clear_tables()
                    expected[ds, w] = extremal_check_t_eq_k(f, ds, w)
            clear_tables()
            for ds, w in sets:
                extremal_check_t_eq_k(f, ds, w)
            for ds, own in sets:
                for _, w in sets:
                    assert extremal_check_t_eq_k(f, ds, w) == expected[ds, w], (n, ds, w)
                    changed += expected[ds, w] != expected[ds, own]
        assert changed > 0

    def test_domain_errors_on_every_call(self):
        # Each refusal is made before the lookup: on a second call as on the
        # first, and also when the verdict map holds an entry under each key
        # the refused call could read.
        f30, f450, f540 = factorize(30), factorize(450), factorize(540)
        ds, w = make_separated(540, [45, 20, 108])
        pair = make_divisor_set(540, [45, 20])
        two_three = make_divisor_set(30, [2, 3])
        all_touched = make_divisor_set(450, [25, 9, 2])
        foreign = SeparationWitness(((45, 7),) + w.assignment[1:])
        empty = DivisorSet(30, ())
        with_n = DivisorSet(30, (1, 30))
        cases = [
            # |D| != k at t = k, and |D| >= k below it.
            (f540, pair, w, lambda: extremal_check_t_eq_k(f540, pair, w)),
            (f540, ds, w, lambda: extremal_check_t_lt_k(f540, ds, w)),
            # 30 has s(n) = 3, and 5 divides neither 2 nor 3.
            (f30, two_three, None, lambda: extremal_check_t_lt_k(f30, two_three, w)),
            # Every prime of 450 divides one of 25, 9 and 2.
            (f450, all_touched, None, lambda: check_untouched_prime(f450, all_touched)),
            # The empty set, whose key would be 0.
            (f30, empty, None, lambda: extremal_check_t_lt_k(f30, empty, SeparationWitness(()))),
            (f30, empty, None, lambda: check_untouched_prime(f30, empty)),
            # n itself, the class of vertex 0.
            (f30, with_n, None, lambda: extremal_check_t_lt_k(f30, with_n, None)),
            # A witness naming 7, which does not divide 540.
            (f540, ds, None, lambda: extremal_check_t_eq_k(f540, ds, foreign)),
        ]
        for f, refused, witness, call in cases:
            classes = distance_module.divisor_classes(f)
            for _ in range(2):
                with pytest.raises(DomainError):
                    call()
            assert not classes.verdicts and not classes.untouched
            mask = sum(1 << classes.index[d] for d in refused.divisors)
            classes.verdicts[mask] = ExtremalVerdict(True, "stored")
            classes.untouched[mask] = (True, True, True)
            if witness is not None:
                pairs = itertools.chain(refused.divisors, *witness.assignment)
                classes.verdicts[tuple(classes.index[x] for x in pairs)] = ExtremalVerdict(True)
            with pytest.raises(DomainError):
                call()
            clear_tables()

    def test_worst_vertex_reads_the_stored_verdict(self, monkeypatch):
        # The closed-form layer checks a t = k set and then asks for its
        # worst vertex: the conditions of the r(n) theorem are evaluated once.
        evaluated = Counter()
        for name in ("_condition_i_holds", "_condition_ii_holds"):

            def counting(*args, _name=name, _holds=getattr(extremal_module, name)):
                evaluated[_name] += 1
                return _holds(*args)

            monkeypatch.setattr(extremal_module, name, counting)
        f = factorize(540)
        ds, w = make_separated(540, [45, 20, 108])
        assert extremal_check_t_eq_k(f, ds, w).matched_condition == "thm:r(n) i"
        assert evaluated == {"_condition_i_holds": 1}
        assert worst_vertex(f, ds, w, variant="I") == 354
        assert evaluated == {"_condition_i_holds": 1}
        f = factorize(6750)
        ds, w = make_separated(6750, [75, 250, 18])
        assert extremal_check_t_eq_k(f, ds, w).matched_condition == "thm:r(n) ii"
        worst_vertex(f, ds, w, variant="II")
        assert evaluated == {"_condition_i_holds": 2, "_condition_ii_holds": 1}


class TestSmallFamilies:
    def test_listed_orders(self):
        for n in (15, 20, 30, 18, 6):
            f = factorize(n)
            fams = small_family_lookup(f)
            assert fams, n
            for ds, pred in fams:
                dv = diameter(make_instance(n, ds.divisors)).value
                assert dv == pred, (n, ds.divisors)

    def test_six_reaches_r_plus_one(self):
        f = factorize(6)
        fams = dict((ds.divisors, pred) for ds, pred in small_family_lookup(f))
        assert fams[(1,)] == r_of(f) + 1 == 3


class TestWorstVertex:
    def test_variant_one_example(self):
        f = factorize(540)
        ds, w = make_separated(540, [45, 20, 108])
        l0 = worst_vertex(f, ds, w, variant="I")
        assert l0 == 354
        assert distance(make_instance(540, [45, 20, 108]), 0, l0) == 5

    def test_variant_two_example(self):
        f = factorize(6750)
        ds, w = make_separated(6750, [75, 250, 18])
        l0 = worst_vertex(f, ds, w, variant="II")
        assert l0 == 4005
        assert distance(make_instance(6750, [75, 250, 18]), 0, l0) == 5

    def test_variant_two_requires_prime_two_pairing(self):
        f = factorize(540)
        ds, w = make_separated(540, [45, 20, 108])
        # The divisor dedicated to the prime 2 is 45 = 3^2 * 5, so 5 is the
        # one sharp prime and the CRT system is solvable, but the set meets
        # condition i, not ii: variant II's vertex 30 lies at distance 4 in
        # a graph of diameter 5, so the variant is refused.
        assert extremal_check_t_eq_k(f, ds, w).matched_condition == "thm:r(n) i"
        assert distance(make_instance(540, [45, 20, 108]), 0, 30) == 4
        with pytest.raises(DomainError):
            worst_vertex(f, ds, w, variant="II")

    def test_variant_one_requires_condition_i(self):
        f = factorize(6750)
        ds, w = make_separated(6750, [18, 75, 250])
        # Condition ii only: variant I's vertex 4755 lies at distance 3.
        assert extremal_check_t_eq_k(f, ds, w).matched_condition == "thm:r(n) ii"
        assert distance(make_instance(6750, [18, 75, 250]), 0, 4755) == 3
        with pytest.raises(DomainError):
            worst_vertex(f, ds, w, variant="I")

    def test_requires_full_cardinality(self):
        f = factorize(540)
        ds, w = make_separated(540, [4, 27])
        with pytest.raises(DomainError):
            worst_vertex(f, ds, w, variant="I")

    def test_vertex_at_distance_r_for_every_matching_set(self):
        # Every full-cardinality separated set up to 400 whose check
        # matches a condition: that condition's variant reaches r(n).
        for n in range(2, 400):
            f = factorize(n)
            classes = DivisorClasses(f)
            for ds in enumerate_separated(n, f.k):
                w = separation_witness(f, ds)
                matched = extremal_check_t_eq_k(f, ds, w).matched_condition
                if matched is None:
                    continue
                variant = "II" if matched.endswith("ii") else "I"
                l0 = worst_vertex(f, ds, w, variant)
                levels = levels_from_zero(classes.reach(ds.divisors))
                dist = next(d for d, m in enumerate(levels)
                            if m >> classes.index[math.gcd(l0, n)] & 1)
                assert dist == r_of(f), (n, ds.divisors, variant)

    def test_bad_variant(self):
        f = factorize(540)
        ds, w = make_separated(540, [45, 20, 108])
        with pytest.raises(DomainError):
            worst_vertex(f, ds, w, variant="III")


class TestTwoThreeSummands:
    def test_congruence_and_gcd(self):
        # Exhaustive property check on a small grid; the acceptance test
        # extends this to n <= 300.
        for n in range(2, 60):
            for d in proper_divisors(n):
                for l in range(0, n, d):
                    rep = two_three_summands(n, d, l)
                    q = n // d
                    total = sum(rep.parts) + (1 if rep.plus_one else 0)
                    assert (d * total - l) % n == 0 or (d * total) % n == l % n
                    for y in rep.parts:
                        assert math.gcd(d * y, n) == d
                    if q % 2 == 1:
                        assert not rep.plus_one

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            two_three_summands(12, 5, 10)
        with pytest.raises(DomainError):
            two_three_summands(12, 3, 4)

    def test_rejects_d_outside_proper_divisors(self):
        for d in (0, -3, 12):
            with pytest.raises(DomainError, match="not a proper divisor"):
                two_three_summands(12, d, 0)


class TestLift:
    def test_examples(self):
        assert lift_diameter(12, 3, 5) == 3
        assert diameter(make_instance(60, [3, 4])).value == 3
        assert lift_diameter(12, 3, 7) == 3
        assert diameter(make_instance(45, [9, 5])).value == 3
        assert lift_diameter(45, 3, 2) == 4
        assert diameter(make_instance(90, [9, 5])).value == 4

    def test_small_base_cases(self):
        assert lift_diameter_small(5, make_divisor_set(5, [1]), 1, 3) == 2
        assert diameter(make_instance(15, [1])).value == 2
        assert lift_diameter_small(5, make_divisor_set(5, [1]), 1, 2) == 3
        assert diameter(make_instance(10, [1])).value == 3
        assert lift_diameter_small(15, make_divisor_set(15, [1]), 2, 2) == 3
        assert diameter(make_instance(30, [1])).value == 3
        assert lift_diameter_small(4, make_divisor_set(4, [1, 2]), 2, 3) == 2
        assert diameter(make_instance(12, [1, 2])).value == 2

    def test_small_even_base_matches_bfs(self):
        # Every connected diameter-2 set with |D| <= 3 over an even m < 200,
        # lifted by the smallest odd prime n' coprime to m.
        checked = 0
        for m in range(2, 200, 2):
            n_prime = next(q for q in (3, 5, 7) if m % q)
            base = DivisorClasses(factorize(m))
            lifted = DivisorClasses(factorize(m * n_prime))
            for size in (1, 2, 3):
                for combo in combinations(proper_divisors(m), size):
                    if math.gcd(*combo) != 1 or class_diameter(base.reach(combo)) != 2:
                        continue
                    got = lift_diameter_small(m, DivisorSet(m, combo), 2, n_prime)
                    assert got == class_diameter(lifted.reach(combo)), (m, combo, n_prime)
                    checked += 1
        assert checked == 1745

    def test_guards(self):
        ds = make_divisor_set(12, [3, 4])
        with pytest.raises(DomainError):
            lift_diameter(12, 2, 5)
        with pytest.raises(DomainError):
            lift_diameter(12, 3, 4)  # not coprime
        with pytest.raises(DomainError):
            lift_diameter_small(12, ds, 3, 5)


class TestSaxenaFamily:
    def test_construction(self):
        n, ds, pred = saxena_family([3, 5])
        assert n == 450
        assert ds.divisors == (9, 25)
        assert pred == 5

    def test_rejects_bad_primes(self):
        with pytest.raises(DomainError):
            saxena_family([2, 3])
        with pytest.raises(DomainError):
            saxena_family([9])
        with pytest.raises(DomainError):
            saxena_family([3, 3])
        with pytest.raises(DomainError):
            saxena_family([])

    @pytest.mark.parametrize("p", [1, 0, -3])
    def test_rejects_values_below_two_as_not_prime(self, p):
        with pytest.raises(DomainError, match=f"^{p} is not prime$"):
            saxena_family([p])


class TestDiameterTwoCases:
    def test_qualifying_instances(self):
        assert diameter_two_cases(factorize(27), make_divisor_set(27, [1]))
        assert diameter_two_cases(factorize(16), make_divisor_set(16, [1]))
        assert diameter_two_cases(factorize(12), make_divisor_set(12, [1, 4]))
        assert diameter_two_cases(factorize(15), make_divisor_set(15, [1]))

    def test_non_qualifying(self):
        # even order without the full 2-power in D
        assert not diameter_two_cases(factorize(12), make_divisor_set(12, [1, 2]))
        # 2 * odd is covered only through the 2^a membership rule
        assert diameter_two_cases(factorize(10), make_divisor_set(10, [1, 2]))

    def test_requires_one_in_d(self):
        with pytest.raises(DomainError):
            diameter_two_cases(factorize(12), make_divisor_set(12, [3, 4]))

    def test_requires_proper_subset(self):
        with pytest.raises(DomainError):
            diameter_two_cases(factorize(6), make_divisor_set(6, [1, 2, 3]))
