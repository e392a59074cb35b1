"""Closed-form maximal-diameter theory for integral circulant graphs.

For n = p_1^a_1 ... p_k^a_k define

    r(n) = k + #{i : a_i > 1}      s(n) = #{i : a_i = 1}.

Over all connected divisor sets of order n the maximal diameter is r(n),
or r(n)+1 when n = 2 (mod 4); fixing the divisor-set cardinality t <= k
refines this into a seven-branch case split on (parity of n, s(n), t).
This module implements those predictions, the predicates characterizing
which divisor sets attain them, the CRT worst-vertex constructions, the
two/three-summand representation lemma, the diameter behaviour under
coprime order extension, and the tight 2k+1 family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .canonical import SeparationWitness, eligible_primes, separation_witness
from .core import DivisorSet, make_divisor_set, make_instance
from .distance import DivisorClasses
from .errors import DomainError
from .numtheory import (
    CrtSystem,
    Factorization,
    crt_solve,
    factorize,
    proper_divisors,
    r_of,
    s_of,
)


class CaseLabel(str, Enum):
    T_EQ_K = "T_EQ_K"
    R_PLUS_1 = "R_PLUS_1"
    R_CASE = "R_CASE"
    TWO_T_PLUS_1_BIG_S = "TWO_T_PLUS_1_BIG_S"
    TWO_T_BIG_S = "TWO_T_BIG_S"
    TWO_T_PLUS_1_SMALL_S = "TWO_T_PLUS_1_SMALL_S"
    TWO_T_SMALL_S = "TWO_T_SMALL_S"
    OVERALL_R = "OVERALL_R"
    OVERALL_R_PLUS_1 = "OVERALL_R_PLUS_1"


@dataclass(frozen=True)
class MaxDiameterPrediction:
    value: int
    case_label: CaseLabel
    applicable: bool = True

    def to_json_obj(self) -> dict:
        return {
            "value": self.value,
            "case_label": self.case_label.value,
            "applicable": self.applicable,
        }


@dataclass(frozen=True)
class ExtremalVerdict:
    attains: bool
    matched_condition: str | None = None

    def to_json_obj(self) -> dict:
        return {"attains": self.attains, "matched_condition": self.matched_condition}


@dataclass(frozen=True)
class UntouchedPrimeVerdict:
    """Verdict for divisor sets leaving at least one prime of n untouched."""

    attains: bool  # attains r(n) for the full order n
    matched_condition: str | None
    attains_two_t_plus_one: bool  # attains 2|D|+1 (even untouched part)
    touched: int  # product of prime powers dividing some divisor
    untouched: int  # complementary coprime part
    attains_two_t: bool = False  # attains 2|D| (odd order)

    def to_json_obj(self) -> dict:
        return {
            "attains": self.attains,
            "matched_condition": self.matched_condition,
            "attains_two_t_plus_one": self.attains_two_t_plus_one,
            "attains_two_t": self.attains_two_t,
            "touched": self.touched,
            "untouched": self.untouched,
        }


@dataclass(frozen=True)
class SummandRepresentation:
    """l = d*(y_1 + y_2 [+ 1]) (mod n) with gcd(d*y_i, n) = d."""

    d: int
    l: int
    parts: tuple[int, ...]
    plus_one: bool

    def to_json_obj(self) -> dict:
        return {"d": self.d, "l": self.l, "parts": list(self.parts), "plus_one": self.plus_one}


def predict_overall_max(f: Factorization) -> MaxDiameterPrediction:
    """Maximal diameter over ALL connected divisor sets of order n.

    r(n)+1 when n = 2 (mod 4) and s(n) >= 2, else r(n).  The s(n) <= 1
    proviso matters: for n = 2 * (odd square part) no cardinality branch
    exceeds r(n), and the r(n)+1 value is unattainable.  It also covers
    the degenerate n = 2 (K_2, diameter 1 = r(2)).
    """
    if f.n % 4 == 2 and s_of(f) >= 2:
        return MaxDiameterPrediction(r_of(f) + 1, CaseLabel.OVERALL_R_PLUS_1)
    return MaxDiameterPrediction(r_of(f), CaseLabel.OVERALL_R)


def predict_max_for_t(f: Factorization, t: int) -> MaxDiameterPrediction:
    """Maximal diameter over connected divisor sets of cardinality t.

    Seven-branch case split on (n mod 4, s(n), t vs k - floor(s/2)).  For
    t > k only the overall bound applies; returned with applicable=False.
    """
    if t < 1:
        raise DomainError(f"cardinality must be >= 1, got {t}")
    k = f.k
    if t > k:
        overall = predict_overall_max(f)
        return MaxDiameterPrediction(overall.value, overall.case_label, applicable=False)
    if t == k:
        return MaxDiameterPrediction(r_of(f), CaseLabel.T_EQ_K)
    n, r, s = f.n, r_of(f), s_of(f)
    if s >= 2 and k - s // 2 <= t:
        if n % 4 == 2:
            return MaxDiameterPrediction(r + 1, CaseLabel.R_PLUS_1)
        return MaxDiameterPrediction(r, CaseLabel.R_CASE)
    if s >= 2:  # t < k - s//2
        if n % 2 == 0:
            return MaxDiameterPrediction(2 * t + 1, CaseLabel.TWO_T_PLUS_1_BIG_S)
        return MaxDiameterPrediction(2 * t, CaseLabel.TWO_T_BIG_S)
    if n % 2 == 0:
        return MaxDiameterPrediction(2 * t + 1, CaseLabel.TWO_T_PLUS_1_SMALL_S)
    return MaxDiameterPrediction(2 * t, CaseLabel.TWO_T_SMALL_S)


def _squares_off(ds: DivisorSet, p: int, skip: tuple[int, ...]) -> bool:
    """p**2 divides every divisor of ds outside skip."""
    pp = p * p
    return all(e % pp == 0 for e in ds.divisors if e not in skip)


def _sharp_primes(f: Factorization, w: SeparationWitness) -> tuple[int | None, list[int]]:
    """The divisor dedicated to 2 (None when 2 is not a witness prime) and
    the odd primes of n exactly dividing it."""
    d1 = next((d for d, p in w.assignment if p == 2), None)
    if d1 is None:
        return None, []
    return d1, [p for p in f.primes if p != 2 and d1 % p == 0 and d1 % (p * p) != 0]


def _untouched(f: Factorization, ds: DivisorSet) -> list[tuple[int, int]]:
    """The prime powers (p, a) of n whose prime divides no divisor of ds."""
    return [(p, a) for p, a in f.factors if all(d % p != 0 for d in ds.divisors)]


def _condition_i_holds(f: Factorization, ds: DivisorSet, w: SeparationWitness) -> bool:
    """For every witness prime p with exponent > 1, every divisor other than
    its dedicated one is divisible by p**2."""
    return all(_squares_off(ds, p, (d,)) for d, p in w.assignment if f.n % (p * p) == 0)


def _condition_ii_holds(f: Factorization, ds: DivisorSet, w: SeparationWitness) -> bool:
    """n = 2 (mod 4) and exactly one odd prime pj exactly divides the divisor
    d1 dedicated to 2; pj**2 divides every divisor but d1 and pj's own, and
    every other witness prime with exponent > 1 square-divides every divisor
    but its dedicated one."""
    d1, sharp = _sharp_primes(f, w)
    if f.n % 4 != 2 or len(sharp) != 1:
        return False
    pj = sharp[0]
    return all(
        _squares_off(ds, p, (d1, d) if p == pj else (d,))
        for d, p in w.assignment
        if p == pj or f.n % (p * p) == 0
    )


def extremal_check_t_eq_k(
    f: Factorization, ds: DivisorSet, w: SeparationWitness
) -> ExtremalVerdict:
    """Does a full-cardinality separated set attain diameter r(n)?

    With |D| = k the k eligible-prime lists are disjoint and nonempty, so
    each holds exactly one prime: ``w`` is the set's only witness.
    """
    if len(ds.divisors) != f.k:
        raise DomainError(
            f"extremal_check_t_eq_k requires |D| = k = {f.k}, got {len(ds.divisors)}"
        )
    if _condition_i_holds(f, ds, w):
        return ExtremalVerdict(True, "thm:r(n) i")
    if _condition_ii_holds(f, ds, w):
        return ExtremalVerdict(True, "thm:r(n) ii")
    return ExtremalVerdict(False)


def _square_pair_condition(f: Factorization, ds: DivisorSet, w: SeparationWitness) -> bool:
    """Cases with the 2t/2t+1 bound: each witness prime square-divides every
    divisor except its dedicated one."""
    return all(_squares_off(ds, p, (d,)) for d, p in w.assignment)


def extremal_check_t_lt_k(
    f: Factorization, ds: DivisorSet, w: SeparationWitness
) -> ExtremalVerdict:
    """Which of the four t < k cases applies, and is its bound attained?

    Standing hypothesis: every prime of n divides at least one divisor
    (otherwise the caller must take the untouched-prime route).  The
    conditions ask for some choice of dedicated primes.  The eligible-prime
    lists are disjoint and every test concerns one divisor and a prime of
    its own list, so such a choice exists exactly when each divisor has a
    passing prime of its own; the verdict is decided per divisor and ``w``
    is not read.

    - Injection cases (s(n) >= 2): every prime of n is eligible for some
      divisor, each list is one prime or two primes of exponent 1, and each
      divisor has an odd eligible p with p**2 not dividing n or
      square-dividing every other divisor.
    - Square-pair cases (s(n) < 2): each divisor has an odd eligible p
      square-dividing every other divisor.
    """
    if len(ds.divisors) >= f.k:
        raise DomainError(f"extremal_check_t_lt_k requires |D| < k = {f.k}")
    n = f.n
    untouched = _untouched(f, ds)
    eligible = list(zip(ds.divisors, eligible_primes(f, ds.divisors)))

    def each_has_odd_prime(test) -> bool:
        return all(any(p != 2 and test(d, p) for p in ps) for d, ps in eligible)

    if s_of(f) >= 2:
        # The injection cases need every prime of n to touch some divisor.
        if untouched:
            raise DomainError(
                f"primes {[p for p, _ in untouched]} divide no divisor; use check_untouched_prime"
            )
        case = "thm:t<k ii" if n % 4 == 2 else "thm:t<k i"
        holds = (
            sum(len(ps) for _, ps in eligible) == f.k
            and all(
                len(ps) == 1 or (len(ps) == 2 and all(n % (p * p) for p in ps))
                for _, ps in eligible
            )
            and each_has_odd_prime(lambda d, p: n % (p * p) != 0 or _squares_off(ds, p, (d,)))
        )
    else:
        case = "thm:t<k iv" if n % 2 == 0 else "thm:t<k iii"
        if untouched:
            # The square-pair cases reduce to the touched part: split off the
            # untouched prime powers and test the condition over what remains.
            v = check_untouched_prime(f, ds)
            holds = v.attains_two_t_plus_one if n % 2 == 0 else v.attains_two_t
        else:
            # Case iv (even n) needs odd witness primes; for odd n, 2 is never one.
            holds = each_has_odd_prime(lambda d, p: _squares_off(ds, p, (d,)))
    return ExtremalVerdict(True, case) if holds else ExtremalVerdict(False)


def check_untouched_prime(f: Factorization, ds: DivisorSet) -> UntouchedPrimeVerdict:
    """Divisor sets leaving some prime power of n untouched.

    Split n = m * n' with n' the product of the untouched prime powers.
    The set attains r(n) when n' = 2 (so m is odd) and the divisors attain
    r(m) through the square-divisibility condition; this is sufficient, not
    necessary.  It attains 2|D|+1 exactly when n' is even, |D| = k(m) and
    the set's one witness over m has every witness prime square-dividing
    all non-dedicated divisors.
    """
    untouched = _untouched(f, ds)
    if not untouched:
        raise DomainError("every prime of n divides some divisor; nothing untouched")
    touched = tuple(pa for pa in f.factors if pa not in untouched)
    n_prime = math.prod(p**a for p, a in untouched)
    m = f.n // n_prime
    square_pair = attains_r = False
    if m == 1:
        # D = {1}: the square-pair condition over the (empty) touched part
        # holds vacuously, so attainment is decided by the parity of n'.
        # Needs at least two primes; for prime powers the 2t/2t+1 branch of
        # the cardinality formula does not exist.
        square_pair = f.k >= 2
    else:
        fm = Factorization(m, touched)
        # Every divisor divides m, as it divides n and is coprime to n'.
        ds_m = DivisorSet(m, ds.divisors)
        w = separation_witness(fm, ds_m) if len(ds.divisors) == fm.k else None
        if w is not None:
            square_pair = _square_pair_condition(fm, ds_m, w)
            attains_r = n_prime == 2 and _condition_i_holds(fm, ds_m, w)
    even = n_prime % 2 == 0
    return UntouchedPrimeVerdict(
        attains_r,
        "thm:main" if attains_r else None,
        square_pair and even,
        m,
        n_prime,
        square_pair and not even,
    )


def small_family_lookup(f: Factorization) -> list[tuple[DivisorSet, int]]:
    """Concrete small families with known extremal diameter.

    Matches n against the five templates; returns the listed divisor sets
    with their exact diameter (r(n), or r(n)+1 for n = 2*p).  Empty when
    no template matches.
    """
    n = f.n
    primes, exps = f.primes, f.exponents
    r = r_of(f)
    out: list[tuple[DivisorSet, int]] = []
    if f.k == 2 and exps == (1, 1) and primes[0] != 2:
        # n = p1 * p2 odd
        out.append((make_divisor_set(n, [1]), r))
    elif f.k == 2 and primes[0] == 2 and exps == (2, 1):
        # n = 4 * p2
        out.append((make_divisor_set(n, [1]), r))
    elif f.k == 3 and primes[0] == 2 and exps == (1, 1, 1):
        # n = 2 * p2 * p3
        p2, p3 = primes[1], primes[2]
        for d in ([1], [1, p2], [2, p2], [p2, p3], [1, p2, p3]):
            out.append((make_divisor_set(n, d), r))
    elif f.k == 2 and primes[0] == 2 and exps == (1, 2):
        # n = 2 * p2^2
        p2 = primes[1]
        out.append((make_divisor_set(n, [1]), r))
        out.append((make_divisor_set(n, [1, p2]), r))
    elif f.k == 2 and primes[0] == 2 and exps == (1, 1):
        # n = 2 * p2
        out.append((make_divisor_set(n, [1]), r + 1))
    return out


def worst_vertex(
    f: Factorization, ds: DivisorSet, w: SeparationWitness, variant: str = "I"
) -> int:
    """CRT-constructed vertex at distance r(n) from 0.

    Variant I:  l0 = -1 (mod p) for exponent-1 primes, l0 = p (mod p^a)
    otherwise.  Variant II replaces the congruence at the unique odd prime
    exactly dividing the divisor dedicated to 2 with l0 = p^2 (mod p^a).
    Each needs |D| = k and ``extremal_check_t_eq_k`` matching its own
    condition of the r(n) theorem: i for variant I, ii for variant II.
    """
    if variant not in ("I", "II"):
        raise DomainError(f"variant must be 'I' or 'II', got {variant!r}")
    special: int | None = None
    if variant == "II":
        d1, sharp = _sharp_primes(f, w)
        if d1 is None:
            raise DomainError("variant II requires a divisor dedicated to the prime 2")
        if len(sharp) != 1:
            raise DomainError(
                f"variant II requires exactly one odd prime exactly dividing {d1}, "
                f"found {sharp}"
            )
        special = sharp[0]
    condition = f"thm:r(n) {variant.lower()}"
    if len(ds.divisors) != f.k or extremal_check_t_eq_k(f, ds, w).matched_condition != condition:
        raise DomainError(
            f"variant {variant} requires |D| = k = {f.k} and a set matching {condition}"
        )
    congruences = []
    for p, a in f.factors:
        if p == special:
            congruences.append((p * p % p**a, p**a))
        elif a == 1:
            congruences.append((p - 1, p))
        else:
            congruences.append((p, p**a))
    return crt_solve(CrtSystem(tuple(congruences)))


def two_three_summands(n: int, d: int, l: int) -> SummandRepresentation:
    """Represent l as d*(y1 + y2) or d*(y1 + y2 + 1) mod n with
    gcd(d*y_i, n) = d.

    The +1 form is used exactly when n/d is even and the two-part form has
    no solution (parity: both y_i must then be odd).  Deterministic search:
    smallest y1, then the unique matching y2 residue.
    """
    if not 0 < d < n or n % d != 0:
        raise DomainError(f"{d} is not a proper divisor of {n}")
    if l % d != 0:
        raise DomainError(f"{d} does not divide target {l}")
    if not 0 <= l < n:
        raise DomainError(f"target must lie in [0, {n}), got {l}")
    q = n // d
    plus_one = q % 2 == 0 and (l // d) % 2 == 1
    target = (l // d - (1 if plus_one else 0)) % q
    for y1 in range(1, q):
        if math.gcd(y1, q) != 1:
            continue
        y2 = (target - y1) % q
        if y2 != 0 and math.gcd(y2, q) == 1:
            return SummandRepresentation(d, l, (y1, y2), plus_one)
    raise DomainError(f"no two-summand representation for n={n}, d={d}, l={l}")


def lift_diameter(m: int, base_diam: int, n_prime: int) -> int:
    """Diameter of the order-(m*n') graph with the same divisors.

    Exact when base_diam = diam over order m exceeds 2 and gcd(m, n') = 1:
    the diameter grows by one for even n' and is unchanged for odd n'.
    """
    if base_diam <= 2:
        raise DomainError("base diameter must exceed 2; use lift_diameter_small")
    if n_prime <= 1 or math.gcd(m, n_prime) != 1:
        raise DomainError(f"n'={n_prime} must exceed 1 and be coprime to m={m}")
    return base_diam + 1 if n_prime % 2 == 0 else base_diam


def lift_diameter_small(m: int, ds: DivisorSet, base_diam: int, n_prime: int) -> int:
    """Order extension when the base diameter is 1 or 2.

    Complete base graph: 2 for odd n', 3 for even n'.  Diameter-2 base:
    odd m keeps 2 for odd n' and becomes 3 for even n'; even m (n'
    necessarily odd) keeps 2 exactly when every nonzero vertex of the base
    graph is the endpoint of some two-edge walk from 0, else 3.
    """
    if base_diam not in (1, 2):
        raise DomainError(f"base diameter must be 1 or 2, got {base_diam}")
    if n_prime <= 1 or math.gcd(m, n_prime) != 1:
        raise DomainError(f"n'={n_prime} must exceed 1 and be coprime to m={m}")
    if base_diam == 1:
        return 2 if n_prime % 2 == 1 else 3
    if m % 2 == 1:
        return 3 if n_prime % 2 == 0 else 2
    # m even, n' odd: units permute the two-walk endpoints, so check
    # that every divisor class but the top one (vertex 0) holds a sum of
    # two symbols.
    g = make_instance(m, ds.divisors)
    classes = DivisorClasses(g.factorization)
    sums = 0
    for d in g.divisor_set.divisors:
        for e in g.divisor_set.divisors:
            sums |= classes.step(e)[classes.index[d]]
    top = 1 << (len(classes.divisors) - 1)
    return 2 if sums | top == 2 * top - 1 else 3


def saxena_family(primes) -> tuple[int, DivisorSet, int]:
    """The tight family for the 2k+1 bound: n = 2 * p_1^2 ... p_k^2 with
    D = {m / p_i^2}; its diameter is exactly 2k+1."""
    ps = list(primes)
    if not ps:
        raise DomainError("at least one odd prime is required")
    if len(set(ps)) != len(ps):
        raise DomainError(f"primes must be distinct, got {ps}")
    for p in ps:
        if p == 2:
            raise DomainError("primes must be odd")
        fp = factorize(p)
        if fp.factors != ((p, 1),):
            raise DomainError(f"{p} is not prime")
    m = math.prod(p * p for p in ps)
    n = 2 * m
    ds = make_divisor_set(n, sorted(m // (p * p) for p in ps))
    return n, ds, 2 * len(ps) + 1


def diameter_two_cases(f: Factorization, ds: DivisorSet) -> bool:
    """True when the diameter is exactly 2 by the lower-bound cases:
    1 in D with n an odd composite or a power of 2, or n = 2^a * m (m > 1
    odd) with both 1 and 2^a in D.  Requires D != D_n."""
    n = f.n
    dset = set(ds.divisors)
    if 1 not in dset:
        raise DomainError("diameter_two_cases requires 1 in D")
    if dset == set(proper_divisors(n)):
        raise DomainError("diameter_two_cases requires D != D_n")
    if f.k == 1:
        prime_power_composite = f.exponents[0] > 1
        return prime_power_composite and (n % 2 == 1 or f.primes[0] == 2)
    if n % 2 == 1:
        return True
    a = f.exponents[0] if f.primes[0] == 2 else 0
    return a >= 1 and 2**a in dset
