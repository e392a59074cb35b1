"""Regenerate sweep_maxima.json: the maximal diameter per order of the sweep
workload, per cardinality t = 1..k and overall, over every connected divisor
set.  Uses only the reference engine, never icg, so the stored values do not
depend on the engine or the predictions under test.

Usage: python3 bench/make_sweep_maxima.py
"""

from __future__ import annotations

import json
import math
from itertools import combinations

import reference as ref
from workloads import HERE, Sweep


def maxima(n: int) -> dict[str, int]:
    divs = ref.proper_divisors(n)
    k = len(ref.factor(n))
    best: dict[str, int] = {}
    for size in range(1, len(divs) + 1):
        for combo in combinations(divs, size):
            if math.gcd(*combo) != 1:
                continue
            value = ref.diameter(n, combo)[0]
            keys = ("all", str(size)) if size <= k else ("all",)
            for key in keys:
                best[key] = max(best.get(key, 0), value)
    return best


def main() -> None:
    lines = [f'"{n}": {json.dumps(maxima(n), sort_keys=True)}' for n in Sweep.orders]
    (HERE / "sweep_maxima.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
