"""framescore stage-and-layer benchmark.

    python3 perfbench/run.py --workload train-grid --seed 42 --seconds 34 --trace 0

Runs one workload of `workloads.py` from the root of a framescore checkout.
Set-up runs `synth` a few times; then train, explain and sweep run in a
loop for `--seconds`, one stage at a time, with the speed probe of
`speed.py` timed after each stage.

--trace 0 runs each stage as its own `python -m framescore.cli` process and
reports the end-to-end metrics of BENCHMARK.json: per-stage means of wall
time (scaled by the run's speed factor), medians of peak RSS, set-up time,
and the quality numbers read from the artifacts. --trace 1 calls the same
stages in this process through `cli.main(argv)`, with span wrappers around
the public functions of data, synth, network, saliency and evaluation on
every second pass, and reports the per-layer metrics derived from the spans.

Every stage exit, artifact shape and cross-iteration artifact hash is a
check; `failed / attempted` is the error rate. The last line of stdout is
one JSON object with `correct`, `attempted`, `failed` and `metrics`. Work
files go to `.perfbench-work/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

import quality
from stages import ChildStages, InProcessStages
from spans import SpanRecorder, Tracer, layer_metrics, micro_batch_ms
from speed import SpeedProbe
from workloads import WORKLOADS, StagePaths

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_ROUNDS = 3  # synth runs; setup_s is their median
LOOP_STAGES = ("train", "explain", "sweep")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class Checks:
    """Attempted and failed checks; their ratio is the error rate."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def run_stage(runner, probe, checks, samples, argv, traced=True):
    """Run one stage, then the speed probe; record wall time and RSS."""
    run = runner.run(argv, traced)
    probe.measure()
    checks.expect(run.ok, f"{run.stage} exited non-zero")
    samples.setdefault(f"{run.stage}_wall_s", []).append(run.seconds)
    if run.rss_mb is not None:
        samples.setdefault(f"{run.stage}_rss_mb", []).append(run.rss_mb)


def check_outputs(workload, paths, checks, iteration_hashes) -> dict:
    """Shape and determinism checks, plus facts read from the artifacts."""
    for name in iteration_hashes[0]:
        seen = {h.get(name) for h in iteration_hashes}
        checks.expect(len(seen) == 1, f"{name} differs between iterations")

    trials, t_max, frames = quality.dataset_shape(paths.data)
    checks.expect(quality.count_data_rows(paths.scores) == trials * t_max,
                  "scores.csv does not have trials x t_max rows")
    modes, windows = workload.modes, workload.windows
    for mode in modes:
        for w in windows:
            report = os.path.join(paths.reports, f"report-{mode}-w{w}.csv")
            checks.expect(
                os.path.exists(report)
                and quality.sweep_threshold_rows(report) == quality.THRESHOLD_ROWS,
                f"{report} lacks {quality.THRESHOLD_ROWS} threshold rows")
    summary = quality.read_summary(os.path.join(paths.reports, "summary.csv"))
    checks.expect(set(summary) == {(m, int(w)) for m in modes for w in windows},
                  "summary.csv does not have one row per (mode, window)")

    test_accuracy, live = quality.checkpoint_facts(paths.model)
    best = summary[("comp-no-pad", 1)]
    best_f2 = float(best["best_fbeta"])
    baseline = quality.all_positive_f2(int(best["group0"]), int(best["group1"]))
    return {
        "test_accuracy": test_accuracy,
        "best_f2": best_f2,
        "f2_margin": best_f2 - baseline,
        "f2_vs_all_positive": best_f2 / baseline,
        "auroc": quality.pooled_auroc(
            os.path.join(paths.reports, "pooled-scores-comp-no-pad.csv")),
        "properties": {
            "padded_slot_share": 1.0 - frames / (trials * t_max),
            "live_input_fraction": live,
            "pool_frames": {m: int(summary[(m, 1)]["total"]) for m in modes
                            if (m, 1) in summary},
        },
    }


def run_workload(workload, seed, seconds, trace, workdir):
    paths = StagePaths(workdir)
    paths.write_grid(workload)
    checks = Checks()
    samples: dict[str, list[float]] = {}
    probe = SpeedProbe()
    recorder = tracer = None
    if trace:
        recorder = SpanRecorder()
        tracer = Tracer(recorder)
        runner = InProcessStages(SRC, workdir, recorder, tracer)
    else:
        runner = ChildStages(SRC, workdir)

    probe.measure()
    data_hashes = []
    for _ in range(SETUP_ROUNDS):
        run_stage(runner, probe, checks, samples,
                  paths.argv(workload, "synth", seed))
        data_hashes.append(quality.sha256(paths.data))
    checks.expect(len(set(data_hashes)) == 1,
                  "data.jsonl differs between set-up rounds")

    # In-process, pass 0 warms up untraced (the first fit in a process is
    # slow); later passes alternate traced and untraced, so that the two
    # medians give the tracing overhead.
    iteration_hashes = []
    deadline = time.perf_counter() + seconds
    min_iterations = 3 if trace else 1
    while True:
        start = time.perf_counter()
        traced = len(iteration_hashes) % 2 == 1
        for stage in LOOP_STAGES:
            run_stage(runner, probe, checks, samples,
                      paths.argv(workload, stage, seed), traced)
        iteration_hashes.append(quality.artifact_hashes(workdir))
        now = time.perf_counter()
        # start another pass only if at least half of it fits
        if len(iteration_hashes) >= min_iterations and \
                now + (now - start) / 2 > deadline:
            break

    try:
        facts = check_outputs(workload, paths, checks, iteration_hashes)
    except (OSError, KeyError, ValueError) as exc:
        checks.expect(False, f"reading outputs failed: {exc!r}")
        facts = {}
    return {
        "checks": checks,
        "samples": samples,
        "iterations": len(iteration_hashes),
        "hashes": iteration_hashes[-1],
        "facts": facts,
        "recorder": recorder,
        "tracer": tracer,
        "probe": probe,
    }


def end_to_end_values(result) -> dict[str, tuple[float, int]]:
    """Metric -> (value, sample count) for the untraced run."""
    speed = result["probe"].factor()
    samples = result["samples"]
    values = {}
    for key, xs in samples.items():
        if key.endswith("_wall_s"):
            # The mean, not the median: the machine alternates between two
            # speeds, and a median of a few samples jumps from one to the
            # other where the mean follows the share of time spent slow.
            name = "setup_s" if key == "synth_wall_s" else key[:-6] + "s"
            values[name] = (statistics.fmean(xs) * speed, len(xs))
        elif key.endswith("_rss_mb"):
            values[key] = (statistics.median(xs), len(xs))
    for key in ("test_accuracy", "best_f2", "f2_vs_all_positive", "auroc"):
        if key in result["facts"]:
            values[key] = (result["facts"][key], 1)
    return values


def per_layer_values(result) -> dict[str, tuple[float, int]]:
    spans = result["recorder"].spans
    speed = result["probe"].factor()
    values = layer_metrics(spans, speed)
    if result["tracer"].last_fit is not None:
        micro = micro_batch_ms(result["tracer"].last_fit)
        values.update({k: v * speed for k, v in micro.items()})
    overhead = {}
    for stage in ("train", "explain", "sweep"):
        runs = [s for s in spans if s.name == f"cli.{stage}"]
        on = [s.seconds for s in runs if s.attrs["traced"]]
        off = [s.seconds for s in runs[1:] if not s.attrs["traced"]]
        if on and off:
            overhead[stage] = speed * (statistics.median(on)
                                       - statistics.median(off))
    result["tracing_overhead_s"] = overhead
    return {k: (v, 1) for k, v in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "framescore", "cli.py")):
        print(f"error: framescore sources not found under {SRC}", file=sys.stderr)
        return 2
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".perfbench-work",
                           f"{workload.name}-trace{args.trace}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    result = run_workload(workload, args.seed, args.seconds, args.trace, workdir)
    values = per_layer_values(result) if args.trace else end_to_end_values(result)
    checks = result["checks"]
    metrics = {}
    for m in wanted:
        value, n = values.get(m["name"], (None, 0))
        if value is None:
            checks.expect(False, f"metric {m['name']} not measured")
            value = 0.0
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"metric {m['name']} {value:.6g} {m['unit']} (n={n})")

    facts = result["facts"]
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "inputs": workload.record(),
        "environment": environment(),
        "properties": facts.get("properties"),
        "iterations": result["iterations"],
        "samples": result["samples"],
        "probe_s": result["probe"].times,
        "artifact_sha256": result["hashes"],
        "tracing_overhead_s": result.get("tracing_overhead_s"),
        "failures": checks.failures,
        "metrics": metrics,
    }
    for key in ("inputs", "environment", "properties", "samples",
                "tracing_overhead_s"):
        print(f"{key} {json.dumps(record[key])}")
    for name, digest in result["hashes"].items():
        print(f"sha256 {digest} {name}")
    if "f2_margin" in facts:
        print(f"f2_margin {facts['f2_margin']:+.6f} (best F2 minus all-positive F2)")
    walls = {k: statistics.fmean(v)
             for k, v in result["samples"].items() if k.endswith("_wall_s")}
    print(f"unscaled_means {json.dumps(walls)}")
    print(f"speed_factor {result['probe'].factor():.6g} "
          f"(probe times {json.dumps(result['probe'].times)})")
    print(f"iterations {result['iterations']}")
    print(f"error_rate {len(checks.failures) / checks.attempted:.6g} "
          f"({len(checks.failures)} of {checks.attempted} checks failed)")
    for failure in checks.failures:
        print(f"failed: {failure}")
    with open(os.path.join(workdir, "record.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if result["recorder"] is not None:
        result["recorder"].dump(os.path.join(workdir, "spans.json"))
    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
