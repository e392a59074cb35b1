"""Self-tests of the benchmark: inputs, reference answers, checkers, tracing.

Run: python3 -m pytest -q bench
"""

from __future__ import annotations

import copy
import json
import math
import sys
from itertools import combinations
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import reference as ref  # noqa: E402
from make_sweep_maxima import maxima  # noqa: E402
from tracing import TARGETS, Tracer  # noqa: E402
from worker import no_span  # noqa: E402
from workloads import WORKLOADS, icg_modules  # noqa: E402

from icg import diameter, make_instance  # noqa: E402

M = icg_modules()


def run_ops(name, items, span=no_span):
    w = WORKLOADS[name]
    return [w.project(w.run(M, inp, span)) for _key, inp in items]


def small_items(name):
    """A few inputs of a pass, cheap enough for a unit test."""
    items = WORKLOADS[name].inputs(3, 0)
    if name == "sweep":
        return [item for item in items if item[1] <= 40][:12]
    if name == "theory":
        return [item for item in items if item[1][0] <= 200][:40]
    if name == "instance":
        return [item for item in items if item[1][0] <= 2500][:6]
    return items[:10]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_inputs_and_unique_keys(name):
    a = WORKLOADS[name].inputs(5, 2)
    assert a == WORKLOADS[name].inputs(5, 2)
    keys = [key for key, _ in a]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("name", ["instance", "predict"])
def test_other_seed_or_pass_changes_inputs(name):
    w = WORKLOADS[name]
    assert w.inputs(5, 0) != w.inputs(6, 0)
    assert w.inputs(5, 0) != w.inputs(5, 1)


def test_sweep_set_0_holds_every_order_and_later_sets_alternate():
    sets = [{key for key, _ in WORKLOADS["sweep"].inputs(1, i)} for i in range(3)]
    assert sets[0] == {str(n) for n in WORKLOADS["sweep"].orders}
    assert sets[1] != sets[2] and sets[1] | sets[2] == sets[0]


def test_theory_order_set_is_fixed():
    orders = sorted(inp[0] for _, inp in WORKLOADS["theory"].inputs(1, 0))
    assert len(orders) == 1166
    assert orders == sorted(inp[0] for _, inp in WORKLOADS["theory"].inputs(2, 0))


def test_predict_factorizations_are_known():
    for _key, (n, t, factors) in WORKLOADS["predict"].inputs(4, 0):
        assert math.prod(p**a for p, a in factors) == n < 1 << 40
        assert tuple(ref.factor(n)) == factors
        assert factors[-1][0] >= 1 << 28
        assert t is None or 1 <= t <= len(factors)


def test_reference_matches_engine_on_every_divisor_set():
    for n in range(2, 41):
        divs = ref.proper_divisors(n)
        for size in range(1, len(divs) + 1):
            for ds in combinations(divs, size):
                res = diameter(make_instance(n, ds))
                assert ref.diameter(n, ds) == (res.value, res.witness_vertex), (n, ds)


def test_stored_sweep_maxima_match_the_reference():
    table = WORKLOADS["sweep"].maxima
    assert sorted(map(int, table)) == sorted(WORKLOADS["sweep"].orders)
    for n in (12, 30, 36, 60):
        assert table[str(n)] == maxima(n)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_real_outputs_pass_the_checks(name):
    items = small_items(name)
    for (_key, inp), out in zip(items, run_ops(name, items)):
        assert WORKLOADS[name].check(M, inp, out) == []


def corrupt_cli(out, edit):
    code, text = out
    obj = json.loads(text)
    edit(obj)
    return [code, json.dumps(obj)]


def test_instance_check_rejects_corrupted_answers():
    w = WORKLOADS["instance"]
    inp = (420, (60, 70, 84, 105))
    (out,) = run_ops("instance", [("q", inp)])

    def off_by_one(obj):
        obj["value"] += 1

    def non_symbol_step(obj):
        obj["witness_path"][1] += 1

    def other_witness(obj):
        obj["witness_vertex"] += 1

    for edit in (off_by_one, non_symbol_step, other_witness):
        assert w.check(M, inp, corrupt_cli(out, edit)), edit.__name__
    assert w.check(M, inp, [2, ""]) == ["exit code 2"]


def test_predict_check_rejects_a_wrong_prediction():
    w = WORKLOADS["predict"]
    items = w.inputs(1, 0)[:2]
    for (_key, inp), out in zip(items, run_ops("predict", items)):

        def wrong(obj):
            obj["value"] += 1

        assert w.check(M, inp, corrupt_cli(out, wrong))


def test_sweep_check_rejects_corrupted_records():
    w = WORKLOADS["sweep"]
    (records,) = run_ops("sweep", [("30", 30)])
    bad = copy.deepcopy(records)
    bad[0]["observed_max"] += 1
    assert w.check(M, 30, bad)
    bad = copy.deepcopy(records)
    bad[-1]["witness_set"] = [2, 3]  # diameter differs from the record's
    assert w.check(M, 30, bad)
    bad = copy.deepcopy(records)
    bad[0]["status"] = "MISMATCH" if bad[0]["status"] == "MATCH" else "MATCH"
    assert w.check(M, 30, bad)
    assert w.check(M, 30, records[:-1])


def test_theory_check_rejects_corrupted_answers():
    w = WORKLOADS["theory"]
    inp = (180, ((3, 9), (2, 4), (1, 7), (45, 90)))
    (out,) = run_ops("theory", [("180", inp)])
    assert w.check(M, inp, out) == []
    assert out["pst"] and any(s["worst_vertex"] is not None for s in out["separated"])

    def bad_summand(o):
        o["summands"][0]["parts"][0] += 1

    def foreign_prime(o):
        o["separated"][0]["witnesses"][0][0][1] = 7

    def worst_vertex_at_zero(o):
        full = [s for s in o["separated"] if s["worst_vertex"] is not None]
        full[0]["worst_vertex"] = 0

    def extra_pst_set(o):
        o["pst"].append([[1], {"d3tilde": [], "d2": [], "hub": 1, "a": 1}])

    for edit in (bad_summand, foreign_prime, worst_vertex_at_zero, extra_pst_set):
        bad = copy.deepcopy(out)
        edit(bad)
        assert w.check(M, inp, bad), edit.__name__


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(name):
    items = small_items(name)
    plain = run_ops(name, items)
    tracer = Tracer()
    originals = {id(getattr(sys.modules[mod], attr)) for mod, attr, _ in TARGETS}
    tracer.install()
    try:
        traced = run_ops(name, items, tracer.span)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert tracer.spans and not tracer.absent
    assert {id(getattr(sys.modules[mod], attr)) for mod, attr, _ in TARGETS} == originals


def test_tracer_spans_nest_under_one_root_per_op():
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(2):
            with tracer.span("op"):
                M.cli.main(["--format", "json", "predict", "540"])
    finally:
        tracer.uninstall()
    roots = {root for *_, root, _t0, _t1 in tracer.spans}
    assert len(roots) == 2
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 2
    assert summary["numtheory.factorize"]["calls"] == 2
    assert 0 <= summary["cli.main"]["self_s"] <= summary["cli.main"]["total_s"]


def test_tracer_reports_a_missing_function_as_absent():
    tracer = Tracer()
    tracer.install([("icg.distance", "no_such_function", "distance.none")])
    tracer.uninstall()
    assert tracer.absent == ["icg.distance.no_such_function"]
