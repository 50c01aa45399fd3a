import json
import os

import pytest

import run
from spans import Span, layer_metrics, self_time
from workloads import Workload

BENCHMARK = os.path.join(run.ROOT, "BENCHMARK.json")


def test_self_time_subtracts_union_of_children():
    root = Span(0, None, "cli.train", 0.0, 10.0)
    children = [
        Span(1, 0, "a", 1.0, 4.0),
        Span(2, 0, "b", 3.0, 6.0),    # overlaps a: counted once
        Span(5, 0, "e", 4.5, 5.0),    # inside b: adds nothing
        Span(3, 0, "c", 8.0, 12.0),   # clipped to the root's end
        Span(4, 0, "d", 11.0, 13.0),  # wholly outside the root
    ]
    assert self_time(root, children) == pytest.approx(10.0 - 5.0 - 2.0)
    assert self_time(root, []) == pytest.approx(10.0)


def test_layer_metrics_take_median_per_stage_and_add_across_stages():
    spans = [
        Span(0, None, "cli.train", 0.0, 10.0, {"traced": True}),
        Span(1, 0, "data.load_dataset", 0.0, 1.0, {"bytes": 100}),
        Span(2, 0, "network.grid_search", 1.0, 9.0),
        Span(3, 2, "network.train", 1.0, 5.0, {"steps": 10, "live_fraction": 0.5}),
        Span(4, 2, "network.train", 5.0, 9.0, {"steps": 10, "live_fraction": 0.25}),
        Span(5, None, "cli.train", 20.0, 24.0, {"traced": True}),
        Span(6, 5, "data.load_dataset", 20.0, 23.0, {"bytes": 100}),
        Span(7, None, "cli.explain", 30.0, 32.0, {"traced": True}),
        Span(8, 7, "data.load_dataset", 30.0, 31.0, {"bytes": 50}),
        Span(9, None, "cli.explain", 40.0, 99.0, {"traced": False}),
    ]
    m = layer_metrics(spans)
    # train runs: load 1 s and 3 s -> median 2; explain: 1 s
    assert m["data.load_dataset.s"] == pytest.approx(3.0)
    assert m["data.load_dataset.bytes"] == pytest.approx(150)
    assert m["cli.train.self_s"] == pytest.approx((1.0 + 1.0) / 2)
    assert m["cli.explain.self_s"] == pytest.approx(1.0)
    assert m["network.train.calls"] == pytest.approx(1.0)  # median of 2 and 0
    assert m["network.live_input_fraction"] == 0.25


TINY = Workload(
    name="tiny",
    why="test",
    synth_args=("--patient-count", "2", "--trials-per-patient-per-side", "3",
                "--length-range", "12", "24", "--t-max", "30",
                "--comp-prob-affected", "1.0"),
    train_args=("--epochs", "1"),
)
TINY_TRIALS = 2 * 2 * 3
COUNTS = (".calls", ".steps", ".rows", ".entries", ".points", ".bytes")


def traced_metrics(workdir):
    os.makedirs(workdir)
    result = run.run_workload(TINY, seed=7, seconds=0.0, trace=True,
                              workdir=str(workdir))
    assert result["checks"].failures == []
    return {k: v for k, (v, _) in run.per_layer_values(result).items()}


def test_traced_run_sees_every_layer_call(tmp_path):
    with open(BENCHMARK, encoding="utf-8") as fh:
        wanted = [m["name"] for m in json.load(fh)["per_layer"]]
    first = traced_metrics(tmp_path / "a")
    second = traced_metrics(tmp_path / "b")
    for name in wanted:
        assert first.get(name, 0) > 0, name
    assert first["network.train.calls"] == 8 * 3 + 1
    assert first["network.input_gradient.calls"] == TINY_TRIALS + 1
    assert first["evaluation.sweep.calls"] == 3 * 5
    assert first["evaluation.select_frames.useful_ratio"] == 0.5
    counts = {k for k in first if k.endswith(COUNTS)}
    assert counts and {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_benchmark_json_lists_the_workloads_defined_here():
    from workloads import WORKLOADS

    with open(BENCHMARK, encoding="utf-8") as fh:
        listed = {w["name"]: w["why"] for w in json.load(fh)["workloads"]}
    assert listed == {w.name: w.why for w in WORKLOADS.values()}
