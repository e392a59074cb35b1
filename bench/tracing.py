"""Spans around calls into icg, recorded from outside the package.

Each public function listed in ``TARGETS`` is wrapped once and the wrapper
is rebound in every loaded ``icg`` module that holds the original, since
``cli``, ``verify``, ``pst``, ``extremal``, ``canonical`` and ``core`` import
functions by name.  Calls a module makes to its own globals (for example
``diameter`` -> ``bfs_profile`` -> ``levels_from_zero``) then pass through
the wrapper too.  Modules are reached through ``sys.modules``:
``icg.distance`` as an attribute of the package is the ``distance``
function, not the module.

A target that a later version of icg no longer has is recorded in
``absent`` and reported with zero calls.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from contextlib import contextmanager
from itertools import count
from time import perf_counter

#: (module, function, span name).  Several functions may share a span name.
TARGETS = (
    ("icg.numtheory", "factorize", "numtheory.factorize"),
    ("icg.numtheory", "proper_divisors", "numtheory.proper_divisors"),
    ("icg.core", "make_instance", "core.make_instance"),
    ("icg.distance", "levels_from_zero", "distance.bfs"),
    ("icg.distance", "bfs_profile", "distance.profile"),
    ("icg.distance", "diameter", "distance.diameter"),
    ("icg.verify", "verify_order", "verify.order"),
    ("icg.canonical", "enumerate_separated", "canonical.enumerate_separated"),
    ("icg.canonical", "separation_witness", "canonical.separation_witness"),
    ("icg.extremal", "predict_max_for_t", "extremal.predict"),
    ("icg.extremal", "predict_overall_max", "extremal.predict"),
    ("icg.extremal", "extremal_check_t_eq_k", "extremal.check"),
    ("icg.extremal", "extremal_check_t_lt_k", "extremal.check"),
    ("icg.extremal", "check_untouched_prime", "extremal.check"),
    ("icg.extremal", "worst_vertex", "extremal.worst_vertex"),
    ("icg.extremal", "two_three_summands", "extremal.summands"),
    ("icg.pst", "enumerate_pst_sets", "pst.enumerate"),
    ("icg.pst", "pst_admissible", "pst.admissible"),
    ("icg.cli", "main", "cli.main"),
)

#: Span names whose results feed a counter: span name -> (counter, fn).
RESULT_COUNTERS = {
    # BFS depth of one levels_from_zero call: one list entry per level.
    "distance.bfs": ("distance.bfs.levels", lambda levels: len(levels) - 1),
    "pst.admissible": ("pst.admissible.hits", lambda dec: dec is not None),
}


class Tracer:
    """In-memory spans (name, id, parent, root, start, end) plus counters.

    A span opened with no span open is the root of one op; every span the
    op causes carries that root's id.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int, float, float]] = []
        self.counters: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._ids = count(1)
        self._rebound: list[tuple[object, str, object]] = []

    def _push(self) -> tuple[int, int, int]:
        """Open a span: its id, its parent's id (0 for none) and its root's."""
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        root = self._stack[0] if self._stack else sid
        self._stack.append(sid)
        return sid, parent, root

    def _pop(self, name: str, ids: tuple[int, int, int], t0: float) -> None:
        t1 = perf_counter()
        self._stack.pop()
        self.spans.append((name, *ids, t0, t1))

    @contextmanager
    def span(self, name: str):
        ids = self._push()
        t0 = perf_counter()
        try:
            yield
        finally:
            self._pop(name, ids, t0)

    def _wrap(self, name: str, fn):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ids = self._push()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._pop(name, ids, t0)
            if counter is not None:
                self.counters[counter[0]] += counter[1](result)
            return result

        return wrapper

    def install(self, targets=TARGETS) -> None:
        """Rebind a wrapper for each target in every icg module holding it."""
        modules = [m for key, m in sys.modules.items() if key == "icg" or key.startswith("icg.")]
        for module_name, attr, name in targets:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebound.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        """Restore every rebound name; spans already recorded are kept."""
        for module, key, original in reversed(self._rebound):
            setattr(module, key, original)
        self._rebound.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children; calls are synchronous, so children never overlap.
        """
        child_time: Counter[int] = Counter()
        for _name, _sid, parent, _root, t0, t1 in self.spans:
            if parent:
                child_time[parent] += t1 - t0
        out: dict[str, dict[str, float]] = {}
        for name, sid, _parent, _root, t0, t1 in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += t1 - t0
            entry["self_s"] += t1 - t0 - child_time[sid]
        return out
