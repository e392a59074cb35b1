"""Exhaustive verification of the closed-form predictions.

For every order in a range with k distinct prime factors, every
connected divisor set with at most k elements is enumerated, its diameter
computed by BFS over the divisor classes, and the per-cardinality and
overall maxima compared against the closed-form predictions.  Larger sets
never set a record, so this equals a sweep over the full power set.  The
whole 2..150 sweep takes a fraction of a second.

Run:  python3 demos/04_verification_sweep.py
"""

import time

from icg.verify import verify_range

t0 = time.perf_counter()
report = verify_range(2, 150)
elapsed = time.perf_counter() - t0

print(f"verify_range(2, 150): {len(report.records)} records in {elapsed:.2f} s")
print(f"  matches:    {report.match_count}")
print(f"  mismatches: {len(report.mismatches)}")
for r in report.mismatches:
    print("  MISMATCH:", r.to_json_obj())

print()
print("sample records for n = 90:")
for r in report.records:
    if r.n == 90:
        t = "all" if r.t is None else r.t
        print(f"  t = {t}: predicted {r.predicted.value} "
              f"[{r.predicted.case_label.value}], observed {r.observed_max}, "
              f"witness {list(r.witness_set)}, {r.status.value}")
