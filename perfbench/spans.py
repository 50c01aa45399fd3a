"""Span recording around the public functions of framescore's layers.

Only the traced run uses this module. `Tracer.installed()` swaps each wrapped
function for a recording wrapper in every framescore namespace that holds it
(the CLI looks names up as module attributes, `network.grid_search` calls
the module-global `train`, and `saliency` and `evaluation` import some
functions by name), and puts the originals back on exit. Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import json
import math
import os
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# Module -> public functions wrapped in the traced run.
WRAPPED = {
    "data": ("load_dataset", "save_dataset", "featurize", "split_dataset"),
    "synth": ("generate_dataset",),
    "network": ("grid_search", "train", "evaluate_accuracy", "input_gradient",
                "save_model", "load_model"),
    "saliency": ("compute_tracks", "write_raw_scores", "export_heatmap",
                 "read_raw_scores", "normalize_pool", "windows_over_pool",
                 "write_pooled_scores"),
    "evaluation": ("select_frames", "run_experiment_matrix", "sweep",
                   "write_sweep_report", "write_histogram", "write_summary"),
}
NAMESPACES = ("framescore", "framescore.data", "framescore.synth",
              "framescore.network", "framescore.saliency",
              "framescore.evaluation", "framescore.cli")
# Spans whose busy time adds up to evaluation.write_outputs.s.
WRITE_OUTPUTS = ("evaluation.write_sweep_report", "evaluation.write_histogram",
                 "evaluation.write_summary")
MICRO_ROWS = 16


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Nested spans of one thread, kept in memory until `dump`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, time.perf_counter(),
                    attrs=attrs)
        self.spans.append(span)
        self._open.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str, **attrs):
        s = self.open(name, **attrs)
        try:
            yield s
        finally:
            self.close(s)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the union of its children's intervals."""
    covered = 0.0
    cur_start = cur_end = None
    for c in sorted(children, key=lambda c: c.start):
        lo, hi = max(c.start, span.start), min(c.end, span.end)
        if hi <= lo:
            continue
        if cur_end is None or lo > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = lo, hi
        else:
            cur_end = max(cur_end, hi)
    if cur_end is not None:
        covered += cur_end - cur_start
    return span.seconds - covered


def _file_bytes(a, result):
    return {"bytes": os.path.getsize(a["path"])}


def _train_attrs(a, result):
    n = len(a["X"])
    batches = math.ceil(n / a["config"].batch_size)
    return {"steps": a["config"].epochs * batches,
            "live_fraction": float(result.scaler.live_mask.mean())}


# Counts read from a wrapped call's arguments and result.
COUNTERS = {
    "data.load_dataset": _file_bytes,
    "network.save_model": _file_bytes,
    "network.train": _train_attrs,
    "saliency.write_raw_scores": lambda a, r: {
        "rows": sum(len(t.raw_scores) for t in a["tracks"])},
    "saliency.normalize_pool": lambda a, r: {"entries": len(a["entries"])},
    "evaluation.select_frames": lambda a, r: {"mode": a["mode"].value},
    "evaluation.sweep": lambda a, r: {"points": len(a["scores"])},
}


class Tracer:
    """Installs span wrappers on framescore's public layer functions."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.last_fit = None  # (X rows, y rows, model) of the latest train call

    def _wrap(self, name: str, fn):
        recorder, counter = self.recorder, COUNTERS.get(name)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            # A counter that no longer fits the function's signature leaves
            # its counts out instead of failing the traced run.
            try:
                bound = signature.bind(*args, **kwargs).arguments
                if counter is not None:
                    span.attrs.update(counter(bound, result))
                if name == "network.train":
                    self.last_fit = (bound["X"][:MICRO_ROWS],
                                     bound["y"][:MICRO_ROWS], result)
            except (TypeError, KeyError, AttributeError):
                pass
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        originals = {}
        for module, names in WRAPPED.items():
            mod = importlib.import_module(f"framescore.{module}")
            for name in names:
                fn = getattr(mod, name, None)
                if fn is not None:
                    originals[id(fn)] = (fn, self._wrap(f"{module}.{name}", fn))
        patched = []
        for ns_name in NAMESPACES:
            ns = importlib.import_module(ns_name)
            for attr, value in vars(ns).copy().items():
                if id(value) in originals and originals[id(value)][0] is value:
                    setattr(ns, attr, originals[id(value)][1])
                    patched.append((ns, attr, value))
        try:
            yield
        finally:
            for ns, attr, value in patched:
                setattr(ns, attr, value)


def _descendants(spans: list[Span], root: Span) -> list[Span]:
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out, todo = [], list(children.get(root.id, []))
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(children.get(s.id, []))
    return out


def stage_sums(spans: list[Span], root: Span) -> dict[str, float]:
    """Busy time, call counts and counted attributes under one stage span."""
    sums: dict[str, float] = {}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    below = _descendants(spans, root)
    direct = [s for s in below if s.parent == root.id]
    add(f"{root.name}.self_s", self_time(root, direct))
    modes = set()
    for s in below:
        add(f"{s.name}.s", s.seconds)
        add(f"{s.name}.calls", 1)
        for key, value in s.attrs.items():
            if key == "mode":
                modes.add(value)
            elif key != "live_fraction":
                add(f"{s.name}.{key}", value)
        if s.name in WRITE_OUTPUTS:
            add("evaluation.write_outputs.s", s.seconds)
    live = [s.attrs["live_fraction"] for s in below if "live_fraction" in s.attrs]
    if live:  # the final fit is the last one
        sums["network.live_input_fraction"] = live[-1]
    if modes:
        sums["evaluation.select_frames.modes"] = len(modes)
    return sums


def layer_metrics(spans: list[Span], speed: float = 1.0) -> dict[str, float]:
    """Per-layer numbers for one pass of the workload's stages.

    Each stage kind (the root spans `cli.synth`, `cli.train`, ...) gives one
    dict of sums per run of that stage; a key's value is the median over
    those runs, added up across stage kinds. Times are multiplied by
    `speed`. Ratios are formed last.
    """
    runs: dict[str, list[dict[str, float]]] = {}
    for root in spans:
        if root.parent is None and root.attrs.get("traced", True):
            runs.setdefault(root.name, []).append(stage_sums(spans, root))
    out: dict[str, float] = {}
    for stage_runs in runs.values():
        for key in sorted({k for run in stage_runs for k in run}):
            value = statistics.median(run.get(key, 0.0) for run in stage_runs)
            if key.endswith((".s", "self_s")):
                value *= speed
            out[key] = out.get(key, 0.0) + value
    if out.get("network.train.steps"):
        out["network.train.step_ms"] = (
            1000.0 * out["network.train.s"] / out["network.train.steps"])
    if out.get("evaluation.select_frames.calls"):
        out["evaluation.select_frames.useful_ratio"] = (
            out.get("evaluation.select_frames.modes", 0.0)
            / out["evaluation.select_frames.calls"])
    if "network.save_model.bytes" in out:
        out["network.checkpoint_bytes"] = out["network.save_model.bytes"]
    return out


def micro_batch_ms(last_fit, repeats: int = 200) -> dict[str, float]:
    """Median ms of one forward and one forward+backward on 16 training rows."""
    from framescore import network

    X, y, model = last_fit
    out = {}
    for name, call in (
        ("network.predict_proba.batch_ms", lambda: network.predict_proba(model, X)),
        ("network.loss_gradients.batch_ms",
         lambda: network.loss_gradients(model, X, y)),
    ):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            call()
            times.append(time.perf_counter() - t0)
        out[name] = 1000.0 * statistics.median(times)
    return out
