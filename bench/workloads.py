"""The benchmark's four workloads: seeded inputs, the timed op, output checks.

Each workload gives, for input set i of a seed, a list of ``(key, input)``.
The key names the op in latency statistics; keys never repeat within a
set, so no ``(n, D)`` reaches the engine's caches twice in one process.  ``run`` does
one op through icg and returns what icg returned; ``project`` turns that
into plain JSON data after the timed region; ``check`` compares the data
with answers computed here and returns a list of error strings.

Why each workload exists:

- ``sweep``: exhaustive verification, ``verify_range(n, n)`` per order.
  Mostly the bitmask BFS core; 96.8% of its BFS calls are on sets with
  ``|D| > k``, which can never set a record.
- ``instance``: one ``icg diameter`` query per op on large graphs.  BFS,
  profile decode, path reconstruction and ``make_instance``, none of which
  ``sweep`` exercises at this size.
- ``theory``: the closed-form layer with no BFS (``canonical``,
  ``extremal``, ``pst``).  The bypass workload for any ``distance`` change.
- ``predict``: ``icg predict N`` with a prime factor of ``N`` above 2^28,
  the only traffic where ``factorize`` dominates.

Orders with more than ``MAX_PROPER_DIVISORS`` proper divisors are left out
of ``theory``: the program refuses them by design.  ``verify --jobs`` is
not measured: on a two-core machine shared with other tenants the scaling
of a process pool measures the scheduler.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import random
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import reference as ref

HERE = Path(__file__).resolve().parent

#: The seed program's enumeration cap.  Fixed here, so that the theory
#: input set stays the same when the program's cap moves.
MAX_PROPER_DIVISORS = 20


def icg_modules() -> SimpleNamespace:
    """The icg modules, reached by name.  Ops call ``m.<module>.<function>``
    so that a tracer's rebinding is seen at call time."""
    names = ("numtheory", "core", "distance", "canonical", "extremal", "pst", "verify", "cli")
    return SimpleNamespace(**{name: importlib.import_module(f"icg.{name}") for name in names})


def rng_for(workload: str, seed: int, idx: int) -> random.Random:
    # A str seed is hashed with SHA-512: the same on every run and platform.
    return random.Random(f"{workload}:{seed}:{idx}")


def r_of(n: int) -> int:
    fac = ref.factor(n)
    return len(fac) + sum(1 for _, a in fac if a > 1)


def cli_json(m, argv: list[str]) -> tuple[int, str]:
    """Run ``icg --format json <argv>`` in process; (exit code, stdout)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = m.cli.main(["--format", "json", *argv])
    return code, buf.getvalue()


def parse_cli(out) -> tuple[dict | None, list[str]]:
    code, text = out
    if code != 0:
        return None, [f"exit code {code}"]
    try:
        return json.loads(text), []
    except json.JSONDecodeError as exc:
        return None, [f"unparseable output: {exc}"]


class Sweep:
    """One op is ``verify_range(n, n)`` for one order n."""

    orders = tuple(range(2, 151)) + (210, 250, 270)
    #: Orders small enough for the all-pairs oracle cross-check.
    apsp_max_order = 24
    #: Orders with this many proper divisors or more (120, 144, 210, 270)
    #: take 85% of the time of the whole set.  Input set 0 holds every
    #: order; later sets hold the others and half of these, {120, 210} and
    #: {144, 270} in turn, so that the short ops get more runs in the same
    #: time.
    heavy_divisors = 14

    def __init__(self) -> None:
        self._maxima: dict | None = None

    @property
    def maxima(self) -> dict:
        """Observed maximal diameter per order and cardinality (t, or
        "all"), from ``sweep_maxima.json``; see ``make_sweep_maxima.py``."""
        if self._maxima is None:
            self._maxima = json.loads((HERE / "sweep_maxima.json").read_text())
        return self._maxima

    def inputs(self, seed: int, idx: int) -> list:
        heavy = [n for n in self.orders if len(ref.proper_divisors(n)) >= self.heavy_divisors]
        if idx > 0:
            heavy = heavy[(idx - 1) % 2 :: 2]
        orders = [n for n in self.orders if len(ref.proper_divisors(n)) < self.heavy_divisors] + heavy
        rng_for("sweep", seed, idx).shuffle(orders)
        return [(str(n), n) for n in orders]

    def run(self, m, n, span):
        return m.verify.verify_range(n, n)

    def project(self, report):
        return [r.to_json_obj() for r in report.records]

    def check(self, m, n, records) -> list[str]:
        expected = self.maxima[str(n)]
        errors = []
        seen = set()
        for rec in records:
            key = "all" if rec["t"] is None else str(rec["t"])
            seen.add(key)
            observed = rec["observed_max"]
            if expected.get(key) != observed:
                errors.append(f"n={n} t={key}: observed {observed}, stored maximum {expected.get(key)}")
            w = rec["witness_set"]
            if rec["t"] is not None and len(w) != rec["t"]:
                errors.append(f"n={n} t={key}: witness {w} has the wrong size")
            if not w or any(d < 1 or d >= n or n % d for d in w) or math.gcd(*w) != 1:
                errors.append(f"n={n} t={key}: witness {w} is not a connected divisor set")
            elif ref.diameter(n, w)[0] != observed:
                errors.append(f"n={n} t={key}: witness {w} has diameter {ref.diameter(n, w)[0]}")
            elif n <= self.apsp_max_order and hasattr(m.distance, "apsp_oracle"):
                table = m.distance.apsp_oracle(m.core.make_instance(n, w))
                if max(max(row) for row in table) != observed:
                    errors.append(f"n={n} t={key}: apsp_oracle disagrees on witness {w}")
            pred = rec["predicted"]
            matches = pred["applicable"] and pred["value"] == observed
            if (rec["status"] == "MATCH") != matches:
                errors.append(f"n={n} t={key}: status {rec['status']} contradicts the record")
        if seen != set(expected):
            errors.append(f"n={n}: records for {sorted(seen)}, expected {sorted(expected)}")
        return errors

    def counters(self, items, projected) -> dict[str, int]:
        """MISMATCH records, and connected |D| <= k sets: the only sets that
        can set a per-cardinality or overall record."""
        useful = 0
        for _key, n in items:
            divs = ref.proper_divisors(n)
            k = len(ref.factor(n))
            for size in range(1, k + 1):
                useful += sum(1 for c in combinations(divs, size) if math.gcd(*c) == 1)
        mismatches = sum(
            1 for records in projected if isinstance(records, list)
            for rec in records if rec["status"] == "MISMATCH"
        )
        return {"verify.useful_sets": useful, "verify.mismatch_records": mismatches}


def saxena(primes) -> tuple[int, tuple[int, ...]]:
    m = math.prod(p * p for p in primes)
    return 2 * m, tuple(sorted(m // (p * p) for p in primes))


class Instance:
    """One op is ``icg --format json diameter n D`` on a distinct (n, D)."""

    worked = (
        (420, (60, 70, 84, 105)),
        (1260, (105, 140, 180, 252)),
        (6750, (18, 75, 250)),
        (22050, (105, 450, 882, 2450)),
    )
    max_order = 25_000
    #: Saxena's family n = 2 p_1^2 ... p_k^2, k <= 3, with n <= max_order.
    family = tuple(
        saxena(ps)
        for k in (1, 2, 3)
        for ps in combinations((3, 5, 7, 11), k)
        if saxena(ps)[0] <= 25_000
    )
    min_order = 2_000
    #: Seeded queries per input set, one per stratum of [min_order, max_order).
    strata = 24
    max_size = 4

    def inputs(self, seed: int, idx: int) -> list:
        rng = rng_for("instance", seed, idx)
        queries = list(self.worked) + list(self.family)
        seen = set(queries)
        width = (self.max_order - self.min_order) / self.strata
        for j in range(self.strata):
            lo = int(self.min_order + j * width)
            while True:
                n = rng.randrange(lo, int(lo + width))
                divs = ref.proper_divisors(n)
                if len(divs) < 3:
                    continue
                size = rng.randint(2, min(self.max_size, len(divs)))
                ds = tuple(sorted(rng.sample(divs, size)))
                if math.gcd(*ds) == 1 and (n, ds) not in seen:
                    break
            seen.add((n, ds))
            queries.append((n, ds))
        return [(f"{n}:{','.join(map(str, ds))}", (n, ds)) for n, ds in queries]

    def run(self, m, inp, span):
        n, ds = inp
        return cli_json(m, ["diameter", str(n), ",".join(map(str, ds))])

    def project(self, out):
        return list(out)

    def check(self, m, inp, out) -> list[str]:
        n, ds = inp
        obj, errors = parse_cli(out)
        if obj is None:
            return errors
        value, witness = ref.diameter(n, ds)
        if obj.get("value") != value:
            errors.append(f"n={n} D={ds}: diameter {obj.get('value')}, reference {value}")
        if obj.get("witness_vertex") != witness:
            errors.append(f"n={n} D={ds}: witness {obj.get('witness_vertex')}, reference {witness}")
        errors += check_path(n, ds, obj.get("value"), obj.get("witness_vertex"), obj.get("witness_path"))
        return errors

    def counters(self, items, projected) -> dict[str, int]:
        return {}


def check_path(n, ds, value, witness, path) -> list[str]:
    """A shortest path 0 -> witness: every step a symbol, length = diameter."""
    if not isinstance(path, list) or not path:
        return [f"n={n} D={ds}: no witness path"]
    errors = []
    if path[0] != 0 or path[-1] != witness:
        errors.append(f"n={n} D={ds}: path runs {path[0]} -> {path[-1]}, not 0 -> {witness}")
    if len(path) - 1 != value:
        errors.append(f"n={n} D={ds}: path has {len(path) - 1} steps, diameter {value}")
    dset = set(ds)
    for a, b in zip(path, path[1:]):
        if math.gcd((b - a) % n, n) not in dset:
            errors.append(f"n={n} D={ds}: step {a} -> {b} is not a symbol")
            break
    return errors


class Theory:
    """One op is the closed-form layer for one order n: predictions, small
    families, separated sets with all their witnesses, the extremal check
    and worst vertex for each, PST sets when 4 | n, and summands."""

    max_order = 1199
    targets_per_order = 4

    def inputs(self, seed: int, idx: int) -> list:
        rng = rng_for("theory", seed, idx)
        items = []
        for n in range(2, self.max_order + 1):
            divs = ref.proper_divisors(n)
            if len(divs) > MAX_PROPER_DIVISORS:
                continue
            targets = []
            for _ in range(self.targets_per_order):
                d = rng.choice(divs)
                targets.append((d, d * rng.randrange(n // d)))
            items.append((str(n), (n, tuple(targets))))
        rng.shuffle(items)
        return items

    def run(self, m, inp, span):
        n, targets = inp
        ex, can = m.extremal, m.canonical
        f = m.numtheory.factorize(n)
        k = f.k
        preds = [ex.predict_max_for_t(f, t) for t in range(1, k + 1)]
        overall = ex.predict_overall_max(f)
        family = ex.small_family_lookup(f)
        sets = []
        for t in range(1, k + 1):
            for ds in can.enumerate_separated(n, t):
                with span("canonical.iter_witnesses"):
                    witnesses = list(can.iter_witnesses(f, ds))
                w = witnesses[0]
                vertex = None
                if t == k:
                    verdict = ex.extremal_check_t_eq_k(f, ds, w)
                    if verdict.attains:
                        variant = "II" if verdict.matched_condition.endswith("ii") else "I"
                        vertex = ex.worst_vertex(f, ds, w, variant)
                elif any(all(d % p for d in ds.divisors) for p in f.primes):
                    verdict = ex.check_untouched_prime(f, ds)
                else:
                    verdict = ex.extremal_check_t_lt_k(f, ds, w)
                sets.append((t, ds, witnesses, verdict, vertex))
        pst = m.pst.enumerate_pst_sets(f, max_size=k) if n % 4 == 0 else []
        summands = [ex.two_three_summands(n, d, l) for d, l in targets]
        return preds, overall, family, sets, pst, summands

    def project(self, out):
        preds, overall, family, sets, pst, summands = out
        return {
            "predictions": [p.to_json_obj() for p in preds],
            "overall": overall.to_json_obj(),
            "family": [[list(ds.divisors), d] for ds, d in family],
            "separated": [
                {
                    "t": t,
                    "divisors": list(ds.divisors),
                    "witnesses": [[list(pair) for pair in w.assignment] for w in witnesses],
                    "verdict": verdict.to_json_obj(),
                    "worst_vertex": vertex,
                }
                for t, ds, witnesses, verdict, vertex in sets
            ],
            "pst": [[list(ds.divisors), dec.to_json_obj()] for ds, dec in pst],
            "summands": [s.to_json_obj() for s in summands],
        }

    def check(self, m, inp, out) -> list[str]:
        n, targets = inp
        errors = []
        for divs, value in out["family"]:
            if ref.diameter(n, divs)[0] != value:
                errors.append(f"n={n}: small family {divs} has diameter {ref.diameter(n, divs)[0]}, not {value}")
        primes = [p for p, _ in ref.factor(n)]
        r = r_of(n)
        for entry in out["separated"]:
            divs = entry["divisors"]
            if len(divs) != entry["t"] or not entry["witnesses"]:
                errors.append(f"n={n}: separated set {divs} of size {entry['t']} without a witness")
            for w in entry["witnesses"]:
                if not valid_witness(primes, divs, w):
                    errors.append(f"n={n}: invalid separation witness {w} for {divs}")
            vertex = entry["worst_vertex"]
            if vertex is not None and ref.distance_from_zero(n, divs, vertex) != r:
                errors.append(f"n={n} D={divs}: worst vertex {vertex} is not at distance r(n) = {r}")
        if sorted(map(pst_key, out["pst"])) != pst_sets(n):
            errors.append(f"n={n}: PST sets differ from the re-derivation")
        if [[s["d"], s["l"]] for s in out["summands"]] != [list(t) for t in targets]:
            errors.append(f"n={n}: summands answer other targets than {targets}")
        for s in out["summands"]:
            errors += check_summand(n, s)
        return errors

    def counters(self, items, projected) -> dict[str, int]:
        """Separated sets found, against t-subsets of proper divisors tried."""
        tried = separated = 0
        for (_key, (n, _targets)), out in zip(items, projected):
            if not isinstance(out, dict):  # the op raised
                continue
            tau = len(ref.proper_divisors(n))
            tried += sum(math.comb(tau, t) for t in range(1, len(ref.factor(n)) + 1))
            separated += len(out["separated"])
        return {"canonical.separated": separated, "canonical.tried": tried}


def valid_witness(primes, divs, assignment) -> bool:
    """Brute force: each divisor gets its own prime of n, which divides
    every other divisor of the set and not the divisor itself."""
    if [d for d, _ in assignment] != list(divs):
        return False
    used = [p for _, p in assignment]
    if len(set(used)) != len(used) or not set(used) <= set(primes):
        return False
    return all(
        d % p != 0 and all(e % p == 0 for e in divs if e != d) for d, p in assignment
    )


def check_summand(n, s) -> list[str]:
    """l = d*(y1 + y2 [+ 1]) mod n with gcd(d*y_i, n) = d; the +1 form
    exactly when n/d is even and l/d is odd."""
    d, l, parts, plus_one = s["d"], s["l"], s["parts"], s["plus_one"]
    ok = (
        len(parts) == 2
        and (d * (sum(parts) + plus_one) - l) % n == 0
        and all(math.gcd(d * y, n) == d for y in parts)
        and plus_one == ((n // d) % 2 == 0 and (l // d) % 2 == 1)
    )
    return [] if ok else [f"n={n}: bad summand representation {s}"]


def pst_key(entry):
    divs, dec = entry
    return (tuple(divs), tuple(dec["d3tilde"]), tuple(dec["d2"]), dec["hub"], dec["a"])


def pst_sets(n: int) -> list:
    """PST-admissible sets with |D| <= k, built rather than filtered.

    D = D3 u D2 u 2*D2 u 4*D2 u {n / 2^a}: D3 is any subset of the divisors
    d with n/d = 0 (mod 8), D2 any subset of those with n/d = 4 (mod 8)
    other than n/4.  The doubled, quadrupled and hub members fall in
    neither class, so each set is built exactly once.
    """
    if n % 4:
        return []
    k = len(ref.factor(n))
    divs = ref.proper_divisors(n)
    d3_pool = [d for d in divs if (n // d) % 8 == 0]
    d2_pool = [d for d in divs if (n // d) % 8 == 4 and d != n // 4]
    out = []
    for a in (1, 2):
        hub = n >> a
        for d3 in subsets(d3_pool, k - 1):
            for d2 in subsets(d2_pool, (k - 1 - len(d3)) // 3):
                members = set(d3) | set(d2) | {2 * d for d in d2} | {4 * d for d in d2} | {hub}
                out.append((tuple(sorted(members)), d3, d2, hub, a))
    return sorted(out)


def subsets(pool, max_size):
    for size in range(max_size + 1):
        yield from combinations(pool, size)


class Predict:
    """One op is ``icg --format json predict N`` (every other op with
    ``--t``), N = s * P < 2^40 with s a product of small primes and P a
    prime of 28 to 34 bits, so that factorize trial-divides up to sqrt(P)."""

    queries = 100
    small_primes = (2, 3, 5, 7, 11, 13)
    min_bits, max_bits = 28, 34
    limit = 1 << 40

    def inputs(self, seed: int, idx: int) -> list:
        rng = rng_for("predict", seed, idx)
        items = []
        seen = set()
        for j in range(self.queries):
            while True:
                # Stratified prime sizes: every pass covers the bit range evenly.
                bits = self.min_bits + (self.max_bits - self.min_bits) * (j + rng.random()) / self.queries
                p = next_prime(int(2**bits))
                s = 1
                for _ in range(rng.randint(0, 6)):
                    q = rng.choice(self.small_primes)
                    if s * q * p < self.limit:
                        s *= q
                factors = (*ref.factor(s), (p, 1))
                n = s * p
                t = None if j % 2 == 0 else 1 + (j // 2) % len(factors)
                if (n, t) not in seen:
                    break
            seen.add((n, t))
            items.append((f"{n}:{t}", (n, t, factors)))
        return items

    def run(self, m, inp, span):
        n, t, _factors = inp
        argv = ["predict", str(n)] + ([] if t is None else ["--t", str(t)])
        return cli_json(m, argv)

    def project(self, out):
        return list(out)

    def check(self, m, inp, out) -> list[str]:
        n, t, factors = inp
        obj, errors = parse_cli(out)
        if obj is None:
            return errors
        f = m.numtheory.Factorization(n, factors)
        pred = m.extremal.predict_overall_max(f) if t is None else m.extremal.predict_max_for_t(f, t)
        expected = {"n": n, "t": t, **pred.to_json_obj()}
        if obj != expected:
            errors.append(f"N={n} t={t}: output {obj}, expected {expected}")
        return errors

    def counters(self, items, projected) -> dict[str, int]:
        return {}


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in bases:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


WORKLOADS = {"sweep": Sweep(), "instance": Instance(), "theory": Theory(), "predict": Predict()}
