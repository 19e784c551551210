"""Self-tests of the benchmark itself (not of the program under test).

Run from the repository root::

    python3 -m pytest perfbench -q

They pin what the benchmark's numbers rest on: seeded inputs, metric
names that match ``BENCHMARK.json``, checkers that catch a wrong
response, and a client that counts a refused request as failed.
"""

from __future__ import annotations

import copy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import (  # noqa: E402
    accuracy,
    common,
    cycle_calibrate,
    design_search,
    layers,
    paper_grid,
    run,
    serve_mixed,
)

INPUTS = {
    "paper-grid": paper_grid.pass_inputs,
    "design-search": design_search.pass_inputs,
    "serve-mixed": serve_mixed.pass_inputs,
    "cycle-calibrate": cycle_calibrate.pass_inputs,
}


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_same_seed_same_inputs_other_seed_differs(name):
    make = INPUTS[name]
    assert [make(7, i) for i in range(4)] == [make(7, i) for i in range(4)]
    assert [make(7, i) for i in range(4)] != [make(8, i) for i in range(4)]


def test_serve_mixed_warm_keys_follow_the_seed():
    assert serve_mixed.warm_requests(3) == serve_mixed.warm_requests(3)
    assert serve_mixed.warm_requests(3) != serve_mixed.warm_requests(4)


def test_serve_mixed_cold_misses_are_never_repeated():
    seeds = [
        spec["seed"]
        for index in range(-2, 20)
        for kind, spec in serve_mixed.pass_inputs(5, index)
        if kind == "cold"
    ]
    warm = {r["seed"] for r in serve_mixed.warm_requests(5)}
    assert len(seeds) == len(set(seeds))
    assert not warm & set(seeds)


def test_end_to_end_names_match_the_spec():
    spec = common.load_spec()
    passes = [common.PassResult(1.0, 4, 0, [1.0, 2.0])]
    emitted = run.e2e_metrics(passes, [(0.5, 1.0)], 100.0, (1.0, 2.0, {}))
    assert set(emitted) == {m["name"] for m in spec["end_to_end"]}


def test_per_layer_names_match_the_spec():
    spec = common.load_spec()
    assert list(layers.LAYER_METRICS) == [m["name"] for m in spec["per_layer"]]
    out = layers.common_layers({"ops": 1})
    out["telemetry.overhead_pct"] = 0.0
    assert set(out) == set(layers.LAYER_METRICS)


def test_result_line_refuses_names_outside_the_spec():
    with pytest.raises(RuntimeError, match="extra"):
        common.result_line(
            correct=True,
            attempted=1,
            failed=0,
            metrics={"not_a_metric": 1.0},
            section="end_to_end",
        )


def test_one_corrupted_warm_reply_lowers_ok_frac():
    first = {"execution_time": 1.5, "energy": 2.0}
    replies = [{"cached": True, "result": copy.deepcopy(first)} for _ in range(10)]
    replies[3]["result"]["energy"] = 2.0000001
    failed = sum(not serve_mixed.warm_ok(r, first) for r in replies)
    assert failed == 1
    passes = [common.PassResult(1.0, len(replies), failed, [1.0])]
    metrics = run.e2e_metrics(passes, [(0.5, 1.0)], 100.0, (1.0, 2.0, {}))
    assert metrics["ok_frac"] == pytest.approx(0.9)


def test_an_uncached_warm_reply_fails():
    first = {"execution_time": 1.5}
    assert not serve_mixed.warm_ok({"cached": False, "result": first}, first)
    assert not serve_mixed.warm_ok(None, first)


def test_golden_checker_catches_one_corrupted_value():
    goldens = {
        "average_reduction_percent": {"energy": {"hygcn": 80.0}},
        "normalized_execution_time": {"cora": {"aurora": 0.2}},
    }
    view = copy.deepcopy(goldens)
    assert accuracy.matches_goldens(view, goldens)
    view["normalized_execution_time"]["cora"]["aurora"] = 0.21
    assert not accuracy.matches_goldens(view, goldens)


@pytest.mark.parametrize("status", [429, 503])
def test_refused_request_is_failed_not_retried(status):
    calls = []

    def transport(method, path, body, headers, timeout):
        calls.append(path)
        return status, {"error": "shed"}, {"retry-after": "0"}

    client = serve_mixed.make_client(1, transport=transport)
    payload, ms = serve_mixed.send(client, {"dataset": "cora"})
    assert payload is None
    assert ms >= 0.0
    assert calls == ["/simulate"]


def test_reference_scaling_divides_out_a_slow_cpu():
    # Same work, the second pass on a CPU at half speed: its probe took
    # twice the reference time, so its times scale back by half.
    fast = common.PassResult(1.0, 10, parts=[("a", 600.0), ("b", 400.0)])
    slow = common.PassResult(2.0, 10, parts=[("a", 1200.0), ("b", 800.0)], scale=0.5)
    assert slow.at_reference().parts == fast.parts
    assert slow.at_reference().rate == fast.rate


def test_composed_pass_takes_each_class_median():
    passes = [
        common.PassResult(1.0, 2, parts=[("a", a), ("b", b)])
        for a, b in ((10.0, 100.0), (11.0, 300.0), (90.0, 102.0))
    ]
    assert common.composed_pass(passes) == [11.0, 102.0]
    assert common.composed_rate(passes) == pytest.approx(2 / 0.113)
    assert common.headline_latencies(passes) == [11.0, 102.0]


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert common.percentile(values, 50) == 50
    assert common.percentile(values, 90) == 90
    assert common.percentile([4.0], 90) == 4.0


def test_delta_checker_allows_one_dirty_tile_per_layer():
    tiles = serve_mixed.BASE_TILES
    assert serve_mixed.delta_ok({"tiles_reused": 2 * tiles - 2, "tiles_recomputed": 2})
    assert serve_mixed.delta_ok({"tiles_reused": 2 * tiles, "tiles_recomputed": 0})
    assert not serve_mixed.delta_ok({"tiles_reused": 2 * tiles - 3, "tiles_recomputed": 3})
    assert not serve_mixed.delta_ok({"tiles_reused": 0, "tiles_recomputed": 2 * tiles})
    assert not serve_mixed.delta_ok(None)
