"""Tests for BFS distances and diameters.

The main correctness tool here is cross-validation: the divisor-class BFS
is compared against apsp_oracle, a deliberately plain per-source BFS over
all vertices, and against the vertex-level bitmask BFS in bitmask_oracle;
neither shares code with the production path.
"""

import functools
import importlib
import itertools
import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icg import canonical, extremal, pst
from icg.canonical import SeparationWitness
from icg.core import DivisorSet, IcgInstance, make_instance
from icg.distance import (
    DivisorClasses,
    apsp_oracle,
    bfs_profile,
    diameter,
    distance,
    levels_from_zero,
)
from icg.errors import DomainError, ResourceLimitError
from icg.extremal import saxena_family
from icg.numtheory import factorize, proper_divisors, valuation

from bitmask_oracle import symbol_mask, vertex_levels
from tables import clear_tables

# The package re-exports the function ``distance`` under the module's name.
distance_module = importlib.import_module("icg.distance")


class TestAgainstOracle:
    def test_all_divisor_pairs_small_n(self):
        for n in range(2, 40):
            divs = proper_divisors(n)
            for size in (1, 2):
                for dset in itertools.combinations(divs, size):
                    inst = make_instance(n, dset)
                    table = apsp_oracle(inst)
                    prof = bfs_profile(inst)
                    assert list(prof.dist) == table[0]

    def test_diameter_matches_oracle(self):
        for n, dset in [(12, [3, 4]), (30, [2, 3]), (45, [9, 5]), (64, [1])]:
            inst = make_instance(n, dset)
            table = apsp_oracle(inst)
            ecc = max(d for row in table for d in row)
            assert diameter(inst).value == ecc


class TestVertexTransitivity:
    def test_rows_are_rotations(self):
        for n, dset in [(12, [3, 4]), (20, [1, 4]), (30, [2, 3, 5])]:
            inst = make_instance(n, dset)
            table = apsp_oracle(inst)
            for u in range(n):
                for v in range(n):
                    assert table[u][v] == table[0][(v - u) % n]


class TestDiameter:
    def test_figure_values(self):
        assert diameter(make_instance(12, [3, 4])).value == 3
        assert diameter(make_instance(12, [3, 4, 6])).value == 2

    def test_disconnected_reports_none(self):
        res = diameter(make_instance(12, [2, 4]))
        assert res.value is None

    def test_witness_path_is_valid(self):
        inst = make_instance(540, [45, 20, 108])
        res = diameter(inst)
        path = res.witness_path
        assert path[0] == 0
        assert path[-1] == res.witness_vertex
        assert len(path) - 1 == res.value
        from icg.core import adjacent

        for a, b in zip(path, path[1:]):
            assert adjacent(inst, a, b)

    def test_path_backtracks_to_smallest_vertex(self):
        # Each step goes to the smallest vertex one level closer to 0 that
        # is adjacent to the current one, read off the oracle's distances.
        for n, dset in [(12, [3, 4]), (30, [2, 3]), (90, [9, 10]), (540, [45, 20, 108])]:
            inst = make_instance(n, dset)
            dist = apsp_oracle(inst)[0]
            res = diameter(inst)
            expected = [res.witness_vertex]
            for level in range(res.value - 1, -1, -1):
                cur = expected[-1]
                expected.append(
                    min(u for u in range(n) if dist[u] == level and math.gcd(cur - u, n) in dset)
                )
            assert res.witness_path == tuple(reversed(expected)), (n, dset)
        assert diameter(make_instance(12, [3, 4])).witness_path == (0, 8, 5, 2)
        assert diameter(make_instance(6750, [18, 75, 250])).witness_path == (0, 234, 159, 84, 9, 45)
        big = diameter(make_instance(22050, [105, 450, 882, 2450]))
        assert big.witness_path == (0, 6174, 324, 219, 114, 9)

    def test_witness_is_smallest(self):
        inst = make_instance(12, [3, 4])
        table = apsp_oracle(inst)
        ecc = max(table[0])
        expected = min(v for v, d in enumerate(table[0]) if d == ecc)
        assert diameter(inst).witness_vertex == expected


def scan_diameter(g):
    """Value, witness and path as the vertex scan found them before path
    steps moved to class space: each step takes the first u = 0, 1, ...
    one level closer to 0 with gcd(cur - u, n) in D.  Connected only."""
    n = g.n
    dist = bfs_profile(g).dist
    value = max(dist)
    witness = dist.index(value)
    dset = set(g.divisor_set.divisors)
    path = [witness]
    cur = witness
    for d in range(value - 1, -1, -1):
        cur = next(u for u in range(n) if math.gcd(cur - u, n) in dset and dist[u] == d)
        path.append(cur)
    return value, witness, tuple(reversed(path))


def seeded_connected_sets():
    """Connected (n, D) with n < 20,000 and |D| <= 5: 1,200 random orders,
    then 40 sets on each of 2310, 4620 and 9240 (k >= 4), 1890 and 6750
    (n = 2 mod 4, exponent 3) and 3888 = 2^4 * 3^5."""
    rng = random.Random(2024)
    orders = [rng.randrange(2, 20000) for _ in range(1200)]
    orders += [n for n in (2310, 4620, 9240, 1890, 6750, 3888) for _ in range(40)]
    for n in orders:
        divs = proper_divisors(n)
        ds = rng.sample(divs, rng.randint(1, min(5, len(divs))))
        if math.gcd(*ds) != 1:
            ds[-1] = 1
        yield n, sorted(ds)


class TestClassSpacePath:
    def test_matches_vertex_scan(self):
        cases = list(seeded_connected_sets())
        for n, ds in cases:
            inst = make_instance(n, ds)
            res = diameter(inst)
            assert (res.value, res.witness_vertex, res.witness_path) == scan_diameter(inst), (n, ds)
        # The set holds |D| up to 5, n = 2 (mod 4), an odd exponent >= 3
        # and k >= 4.
        assert {len(ds) for _, ds in cases} == {1, 2, 3, 4, 5}
        exponents = [factorize(n).exponents for n, _ in cases]
        assert any(n % 4 == 2 for n, _ in cases)
        assert any(a >= 3 and a % 2 for es in exponents for a in es)
        assert any(len(es) >= 4 for es in exponents)

    def test_saxena_k4_pinned(self):
        # n = 2 * (3*5*7*11)^2 = 2,668,050; the path the vertex scan found.
        res = diameter(make_instance(2668050, [11025, 27225, 53361, 148225]))
        assert res.witness_path == (0, 1598625, 584766, 993141, 252016, 103791, 50430, 23205, 12180, 1155)

    def test_step_rows_bound_the_walk(self):
        # n = 2^2 * 7^2 * 11^6.  Some (class, symbol class) pairs here have
        # no vertex at all; the step rows skip them.  Walked anyway, the
        # first of them runs through about n / lcm terms (a minute), where
        # the gated search takes under a millisecond.  Path from the scan.
        res = diameter(make_instance(347225956, [2, 77, 9317]))
        assert (res.value, res.witness_path) == (3, (0, 78, 1, 7))


class TestDistance:
    def test_symmetry_and_identity(self):
        inst = make_instance(30, [2, 3])
        for u in range(0, 30, 7):
            assert distance(inst, u, u) == 0
            for v in range(30):
                assert distance(inst, u, v) == distance(inst, v, u)

    def test_triangle_inequality(self):
        inst = make_instance(24, [1, 8])
        for u, v, w in itertools.product(range(0, 24, 5), repeat=3):
            duv = distance(inst, u, v)
            duw = distance(inst, u, w)
            dwv = distance(inst, w, v)
            assert duv <= duw + dwv

    def test_out_of_range_vertex(self):
        inst = make_instance(12, [3, 4])
        with pytest.raises(DomainError):
            distance(inst, 0, 12)

    def test_repeated_calls_build_one_divisor_classes(self, monkeypatch):
        # The 14 path checks on Saxena k = 6 in acceptance 6 share one set
        # of step rows and one class BFS.
        n, ds, _ = saxena_family((3, 5, 7, 11, 13, 17))
        g = make_instance(n, ds.divisors)
        path = diameter(g).witness_path
        built = []
        searched = []

        class CountingClasses(DivisorClasses):
            def __init__(self, f):
                built.append(f.n)
                super().__init__(f)

        def counting_levels(row):
            searched.append(len(row))
            return levels_from_zero(row)

        monkeypatch.setattr(distance_module, "DivisorClasses", CountingClasses)
        monkeypatch.setattr(distance_module, "levels_from_zero", counting_levels)
        distance_module._class_distances.cache_clear()
        distance_module.divisor_classes.cache_clear()
        try:
            assert [distance(g, 0, v) for v in path] == list(range(14))
            # Every caller gets the same mapping, so none may change it.
            with pytest.raises(TypeError):
                distance_module._class_distances(g)[1] = 0
        finally:
            distance_module._class_distances.cache_clear()
            distance_module.divisor_classes.cache_clear()
        assert built == [n]
        assert len(searched) == 1


@st.composite
def connected_instances(draw):
    """An order n <= 120, a connected divisor set of n and two vertices.

    A drawn set whose gcd g exceeds 1 gains one divisor coprime to g (1 is
    always one), so every draw is connected without rejection.
    """
    n = draw(st.integers(2, 120))
    divs = proper_divisors(n)
    chosen = draw(st.sets(st.sampled_from(divs), min_size=1))
    g = math.gcd(*chosen)
    if g != 1:
        chosen.add(draw(st.sampled_from([d for d in divs if math.gcd(d, g) == 1])))
    u = draw(st.integers(0, n - 1))
    v = draw(st.integers(0, n - 1))
    return make_instance(n, chosen), u, v


class TestOracleProperties:
    @settings(derandomize=True, deadline=None)
    @given(connected_instances())
    def test_engine_matches_oracle(self, drawn):
        inst, u, v = drawn
        table = apsp_oracle(inst)
        res = diameter(inst)
        assert res.value == max(max(row) for row in table)
        assert (res.value, res.witness_vertex, res.witness_path) == scan_diameter(inst)
        assert distance(inst, u, v) == table[u][v]


class TestLevels:
    def test_levels_partition_divisor_classes(self):
        inst = make_instance(30, [2, 3])
        classes = DivisorClasses(inst.factorization)
        assert sorted(classes.divisors) == [*proper_divisors(30), 30]
        levels = levels_from_zero(classes.reach(inst.divisor_set.divisors))
        seen = 0
        for lvl in levels:
            assert lvl & seen == 0
            seen |= lvl
        assert seen == (1 << len(classes.divisors)) - 1
        assert levels[0] == 1 << classes.index[30]

    def test_class_levels_match_vertex_levels(self):
        # Vertex x sits on the level of its class gcd(x, n), connected or not.
        for n, dset in [(30, [2, 3]), (72, [8, 9]), (100, [4, 25, 10]), (48, [6, 16]), (90, [6, 10])]:
            classes = DivisorClasses(make_instance(n, dset).factorization)
            class_levels = levels_from_zero(classes.reach(dset))
            vertex = vertex_levels(n, symbol_mask(n, dset))
            assert len(class_levels) == len(vertex), (n, dset)
            for cmask, vmask in zip(class_levels, vertex):
                expected = 0
                for x in range(n):
                    if vmask >> x & 1:
                        expected |= 1 << classes.index[math.gcd(x, n)]
                assert cmask == expected, (n, dset)


def all_levels(row):
    """levels_from_zero as it was before it stopped once every class is
    reached: it expands the last frontier too and stops when nothing new
    is found."""
    frontier = reached = 1 << (len(row) - 1)
    levels = [frontier]
    while True:
        nxt = 0
        for i in range(len(row)):
            if frontier >> i & 1:
                nxt |= row[i]
        frontier = nxt & ~reached
        if not frontier:
            return levels
        reached |= frontier
        levels.append(frontier)


class TestLevelsEarlyExit:
    def test_matches_full_loop_on_every_set(self):
        # Every set of proper divisors of n <= 64, connected or not, and
        # the empty set, whose BFS reaches only the class of vertex 0.
        disconnected = 0
        for n in range(2, 65):
            classes = DivisorClasses(factorize(n))
            divs = proper_divisors(n)
            for size in range(len(divs) + 1):
                for combo in itertools.combinations(divs, size):
                    row = classes.reach(combo)
                    levels = levels_from_zero(row)
                    assert levels == all_levels(row), (n, combo)
                    disconnected += sum(levels) != (1 << len(row)) - 1
        assert disconnected > 0


class TestStepRows:
    def test_rows_match_vertex_sums(self):
        # Bit c of row(index[d])[index[g]] is set exactly when some symbol
        # s of class d takes vertex g to a vertex of class c.  2..300 holds
        # exponents of 3 or more, 4 | n and n = 2 (mod 4).
        for n in range(2, 301):
            classes = DivisorClasses(factorize(n))
            for d in proper_divisors(n):
                symbols = [s for s in range(n) if math.gcd(s, n) == d]
                row = classes.row(classes.index[d])
                for g in classes.divisors:
                    expected = 0
                    for s in symbols:
                        expected |= 1 << classes.index[math.gcd(g + s, n)]
                    assert row[classes.index[g]] == expected, (n, d, g)


    def test_reach_is_or_of_steps(self):
        # The row of a set is what one symbol of any of its classes reaches.
        for n in range(2, 121):
            classes = DivisorClasses(factorize(n))
            divs = proper_divisors(n)
            assert classes.reach(()) == [0] * len(classes.divisors)
            for size in (1, 2, 3):
                for combo in itertools.combinations(divs, size):
                    expected = [
                        functools.reduce(operator.or_, masks)
                        for masks in zip(*(classes.row(classes.index[d]) for d in combo))
                    ]
                    assert classes.reach(combo) == expected, (n, combo)


class TestShapeTable:
    def test_orders_of_one_shape_share_rows(self):
        # 60, 84, 132 and 140 are 4 p q: one row per class index for all.
        rows = [DivisorClasses(factorize(n)) for n in (60, 84, 132, 140)]
        for i in range(len(rows[0].divisors)):
            steps = {id(c.row(i)) for c in rows}
            assert len(steps) == 1, i
        assert rows[0].maxima is rows[3].maxima

    def test_orders_of_one_signature_share_a_table(self):
        # 90 = 2 3^2 5 and 150 = 2 3 5^2, and 45 = 3^2 5 and 75 = 3 5^2,
        # differ only by a swap of two odd primes, which the digit order
        # undoes: the prime of exponent 2 takes the higher digit.
        for pair in ((90, 150), (45, 75)):
            a, b = (DivisorClasses(factorize(n)) for n in pair)
            assert a.maxima is b.maxima and a.records is b.records, pair
            for i in range(len(a.divisors)):
                assert a.row(i) is b.row(i), (pair, i)
        assert DivisorClasses(factorize(90)).divisors[:6] == (1, 2, 5, 10, 3, 6)

    def test_shape_tells_two_apart(self):
        # 6 = 2 * 3 and 15 = 3 * 5 have the same exponents, but adding two
        # odd symbols of 6 never gives an odd vertex.
        six, fifteen = DivisorClasses(factorize(6)), DivisorClasses(factorize(15))
        assert six.maxima is not fifteen.maxima and six.records is not fifteen.records
        assert six.row(0) != fifteen.row(0)


class TestOracleLimits:
    def test_oracle_refuses_huge_instances(self):
        with pytest.raises(ResourceLimitError):
            apsp_oracle(make_instance(6000, [1]))


class TestOrderTable:
    """Each order's divisors are listed once, by its DivisorClasses, built
    through the bounded cache ``divisor_classes``."""

    def test_closed_form_layer_builds_one_table(self, monkeypatch):
        # 1260 = 2^2 3^2 5 7: every separated set with all its witnesses and its
        # extremal check, then the PST sets, as the closed-form layer runs.
        from icg.canonical import enumerate_separated, iter_witnesses
        from icg.extremal import (
            check_untouched_prime,
            extremal_check_t_eq_k,
            extremal_check_t_lt_k,
        )
        from icg.pst import enumerate_pst_sets

        built = []
        init = DivisorClasses.__init__

        def counting_init(self, f):
            built.append(f.n)
            init(self, f)

        monkeypatch.setattr(DivisorClasses, "__init__", counting_init)
        distance_module.divisor_classes.cache_clear()
        f = factorize(1260)
        assert f.k == 4
        checked = 0
        for t in range(1, f.k + 1):
            for ds in enumerate_separated(1260, t):
                w = list(iter_witnesses(f, ds))[0]
                if t == f.k:
                    extremal_check_t_eq_k(f, ds, w)
                elif any(all(d % p for d in ds.divisors) for p in f.primes):
                    check_untouched_prime(f, ds)
                else:
                    extremal_check_t_lt_k(f, ds, w)
                checked += 1
        assert checked > 100 and enumerate_pst_sets(f, f.k)
        assert built == [1260]

    def test_table_holds_its_signature_table(self):
        # An order table's parts are its signature table's.  Once the
        # signature table is evicted, the cached order table still holds
        # it, and its records equal those a fresh table gives.
        from icg.verify import verify_order

        for n in (16, 60, 90, 270, 2310):
            f = factorize(n)
            clear_tables()
            classes = distance_module.divisor_classes(f)
            parts = distance_module._exponent_table(f.signature)
            held = classes.rows, classes.maxima, classes.records, classes.verdicts, classes.untouched
            assert len(held) == len(parts) and all(map(operator.is_, held, parts)), n
            cold = verify_order(n)
            distance_module._exponent_table.cache_clear()
            assert distance_module.divisor_classes(f) is classes
            assert verify_order(n) == cold and classes.divisor_order in classes.records, n
            clear_tables()
            fresh = distance_module.divisor_classes(f)
            assert fresh.records is not classes.records and not fresh.records, n
            assert verify_order(n) == cold and fresh.records == classes.records, n

    def test_signature_from_the_ordered_factors(self):
        # The order table reads its signature off its own ordered factors;
        # it must be the one Factorization.signature sorts out, for odd and
        # even orders, with repeated exponents and a high power of 2.
        for n in [*range(2, 3001), 2**40, 3**25, 2 * 3**2 * 5**2 * 7, 1099511627689]:
            f = factorize(n)
            assert distance_module.divisor_classes(f).signature == f.signature, n

    def test_proper_divisors(self):
        # The table lists each divisor as p times the one a block below it.
        # Its index must invert that list, each class index's mixed-radix
        # digits (2 lowest, then the odd primes by ascending exponent, ties
        # by prime) must be the valuations of its divisor, and its proper
        # divisors must be the ascending ones: by trial division up to
        # 3000, and as a product of prime powers above it.  The divisor
        # order must list their class indices in that order.
        for n in [*range(2, 3001), 2**40, 3**25, 2 * 3**2 * 5**2 * 7, 1099511627689]:
            f = factorize(n)
            classes = distance_module.divisor_classes(f)
            if n <= 3000:
                expected = proper_divisors(n)
            else:
                divisors = [1]
                for p, a in f.factors:
                    divisors = [d * p**e for d in divisors for e in range(a + 1)]
                expected = tuple(sorted(divisors)[:-1])
            assert classes.proper_divisors == expected, n
            assert tuple(classes.divisors[i] for i in classes.divisor_order) == expected, n
            assert len(classes.index) == len(classes.divisors) == len(expected) + 1, n
            assert all(classes.index[d] == i for i, d in enumerate(classes.divisors)), n
            # index and proper_divisors are built on first read, each on
            # its own: whichever is read first, both equal the eager ones.
            for first in ("index", "proper_divisors"):
                fresh = DivisorClasses(f)
                assert "index" not in vars(fresh) and "proper_divisors" not in vars(fresh), n
                getattr(fresh, first)
                assert fresh.index == classes.index and fresh.proper_divisors == expected, n
            assert not hasattr(fresh, "nope")
            radix = sorted(f.factors, key=lambda pa: (pa[0] != 2, pa[1], pa[0]))
            for i, d in enumerate(classes.divisors):
                digits = []
                for p, a in radix:
                    digits.append(i % (a + 1))
                    i //= a + 1
                assert digits == [valuation(p, d) for p, _ in radix], (n, d)

    def test_verify_hit_builds_no_index(self):
        # An order whose record row is stored reads only the divisors and
        # the divisor order of its table.
        from icg.verify import verify_order

        for n in range(2, 3001):
            verify_order(n)
        distance_module.divisor_classes.cache_clear()
        for n in range(2, 3001):
            classes = distance_module.divisor_classes(factorize(n))
            assert classes.divisor_order in classes.records, n
            verify_order(n)
            assert "index" not in vars(classes) and "proper_divisors" not in vars(classes), n

    @pytest.mark.parametrize(
        "n, bad, call",
        [
            (30, 7, lambda f: canonical.eligible_primes(f, (7,))),
            (30, 4, lambda f: next(canonical.iter_witnesses(f, DivisorSet(30, (4, 15))))),
            (
                30,
                45,
                lambda f: extremal.extremal_check_t_eq_k(
                    f, DivisorSet(30, (6, 10, 45)), SeparationWitness(((6, 5), (10, 3), (45, 2)))
                ),
            ),
            (30, 45, lambda f: extremal.extremal_check_t_lt_k(f, DivisorSet(30, (6, 45)), None)),
            (30, 45, lambda f: extremal.check_untouched_prime(f, DivisorSet(30, (45,)))),
            (15, 45, lambda f: extremal.diameter_two_cases(f, DivisorSet(15, (1, 45)))),
            (12, 24, lambda f: pst.pst_admissible(f, DivisorSet(12, (6, 24)))),
            (12, 5, lambda f: diameter(IcgInstance(f, DivisorSet(12, (5,))))),
            (12, 5, lambda f: distance(IcgInstance(f, DivisorSet(12, (5,))), 0, 1)),
            (12, 5, lambda f: bfs_profile(IcgInstance(f, DivisorSet(12, (5,))))),
            (12, 5, lambda f: distance_module.divisor_classes(f).reach((1, 5))),
        ],
        ids=[
            "eligible_primes",
            "iter_witnesses",
            "extremal_check_t_eq_k",
            "extremal_check_t_lt_k",
            "check_untouched_prime",
            "diameter_two_cases",
            "pst_admissible",
            "diameter",
            "distance",
            "bfs_profile",
            "reach",
        ],
    )
    def test_entry_points_refuse_a_non_divisor(self, n, bad, call):
        # Every entry point that reads a member through the order table
        # refuses one that does not divide n, with the one message of
        # DivisorClasses.indices, before and after the table cache is cleared.
        for _ in range(2):
            with pytest.raises(DomainError, match=f"^{bad} does not divide n={n}$"):
                call(factorize(n))
            distance_module.divisor_classes.cache_clear()

    @pytest.mark.parametrize(
        "members, message",
        [((), "divisor set must be nonempty"), ((1, 12), "12 is not a proper divisor of 12")],
        ids=["empty", "holds_n"],
    )
    def test_distance_layer_refuses_an_invalid_set(self, members, message):
        # make_divisor_set refuses both sets; a hand-built one reaches the
        # BFS only through diameter or _class_distances, and each refuses it
        # (diameter raised IndexError on the empty set and answered 3 with n).
        g = IcgInstance(factorize(12), DivisorSet(12, members))
        for call in (diameter, bfs_profile, lambda g: distance(g, 0, 1)):
            with pytest.raises(DomainError, match=f"^{message}$"):
                call(g)

    @pytest.mark.parametrize("n", [2, 12, 1260, 2310, 1099511627689])
    def test_no_divisors_by_trial_division(self, monkeypatch, n):
        # divisor_subsets, enumerate_pst_sets and diameter_two_cases read
        # the proper divisors from the order table.
        # A prime near 2^40 makes proper_divisors trial-divide for 0.16 s.
        from icg import numtheory

        f = factorize(n)

        def run():
            subsets = list(canonical.divisor_subsets(n, 1, 2))
            pst_sets = pst.enumerate_pst_sets(f, f.k)
            try:  # D = {1} is all of D_n for a prime, which is refused
                two = extremal.diameter_two_cases(f, DivisorSet(n, (1,)))
            except DomainError as e:
                two = str(e)
            return subsets, pst_sets, two

        expected = run()

        def refuse(m):
            raise AssertionError(f"proper_divisors({m}) called")

        for module in (numtheory, canonical, extremal, pst):
            monkeypatch.setattr(module, "proper_divisors", refuse, raising=False)
        distance_module.divisor_classes.cache_clear()
        assert run() == expected
