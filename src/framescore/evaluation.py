"""Filter modes, confusion metrics, F-beta threshold sweeps, and reports.

The positive class throughout is compensatory (frame label 0): a frame or
window is predicted compensatory when its normalized score exceeds the
threshold. A sweep evaluates a uniform threshold grid over [0, 1] as
columns: each label group's scores are sorted once, and one binary search
over the whole grid gives the count above every threshold. The report holds
one array per column and picks the threshold maximizing F-beta, ties
resolved toward the smallest threshold.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import LABEL_COMPENSATORY, LABEL_NORMAL, DatasetManifest
from .errors import ContractError
from .saliency import FramePool, normalize_pool, windows_over_pool

DEFAULT_BETA = 2.0
DEFAULT_STEP = 0.01
DEFAULT_WINDOWS = (1, 5, 10, 15, 20)
HISTOGRAM_BINS = 50


class FilterMode(enum.Enum):
    """Frame-selection regimes for pooling scores."""

    ALL = "all"
    NO_PAD = "no-pad"
    COMP_NO_PAD = "comp-no-pad"

    @classmethod
    def parse(cls, text: str) -> "FilterMode":
        for mode in cls:
            if mode.value == text:
                return mode
        raise ContractError(
            f"unknown filter mode {text!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


def select_frames(manifest: DatasetManifest, raw: np.ndarray,
                  mode: FilterMode) -> FramePool:
    """The un-normalized pool of the frames the mode admits from `raw`, the
    (trials x t_max) raw-score block with rows in manifest order."""
    labels = manifest.frame_labels
    if raw.shape != labels.shape:
        raise ContractError(
            f"raw scores {raw.shape} do not match trials x frames {labels.shape}")
    padded = manifest.padded
    mask = np.ones_like(padded) if mode is FilterMode.ALL else ~padded
    if mode is FilterMode.COMP_NO_PAD:
        comp = manifest.trial_labels == LABEL_COMPENSATORY
        if not comp.any():
            raise ContractError(
                "comp-no-pad selection is empty: no compensatory trials"
            )
        mask &= comp[:, None]
    trial, frame = np.nonzero(mask)
    return FramePool(trial=trial, trial_ids=manifest.trial_ids, frame_index=frame,
                     raw=raw[mask], label=labels[mask], padded=padded[mask])


@dataclass(frozen=True)
class ConfusionCounts:
    """Counts with compensatory as the positive class: ints at one
    threshold, or arrays with one entry per threshold."""

    tp: int | np.ndarray
    fp: int | np.ndarray
    tn: int | np.ndarray
    fn: int | np.ndarray

    @property
    def total(self) -> int | np.ndarray:
        return self.tp + self.fp + self.tn + self.fn


def confusion_at(scores: np.ndarray, labels: np.ndarray, tau
                 ) -> ConfusionCounts:
    """Counts of `scores > tau` per label group, at one threshold or at each
    of an array of thresholds."""
    scores = np.asarray(scores, dtype=np.float64)
    actual_comp = np.asarray(labels, dtype=np.int64) == LABEL_COMPENSATORY
    comp = np.sort(scores[actual_comp])
    normal = np.sort(scores[~actual_comp])
    # the scores above tau are those right of its rightmost insertion point
    tp = len(comp) - np.searchsorted(comp, tau, side="right")
    fp = len(normal) - np.searchsorted(normal, tau, side="right")
    if np.ndim(tau) == 0:
        tp, fp = int(tp), int(fp)
    return ConfusionCounts(tp=tp, fp=fp, tn=len(normal) - fp, fn=len(comp) - tp)


def _ratio(num, denom):
    """num / denom, and 0 where denom is 0 (num is 0 there too)."""
    return num / (denom + (denom == 0))


def precision(counts: ConfusionCounts):
    return _ratio(counts.tp, counts.tp + counts.fp)


def recall(counts: ConfusionCounts):
    return _ratio(counts.tp, counts.tp + counts.fn)


def fbeta(counts: ConfusionCounts, beta: float):
    """(1 + b^2) P R / (b^2 P + R), zero when both P and R are zero."""
    if not 0.0 < beta < np.inf:
        raise ContractError(f"beta must be positive and finite, got {beta}")
    p = precision(counts)
    r = recall(counts)
    b2 = beta * beta
    return _ratio((1.0 + b2) * p * r, b2 * p + r)


def threshold_grid(step: float) -> list[float]:
    """{0, step, 2 step, ...} capped and completed with 1."""
    if not 0.0 < step <= 1.0:
        raise ContractError("step must be in (0, 1]")
    taus = []
    i = 0
    while True:
        tau = round(i * step, 12)
        if tau > 1.0:
            break
        taus.append(tau)
        i += 1
    if taus[-1] != 1.0:
        taus.append(1.0)
    return taus


@dataclass(frozen=True)
class ThresholdSweepReport:
    """One column entry per grid threshold; best_index maximizes F-beta."""

    mode: FilterMode
    window_size: int
    beta: float
    step: float
    taus: np.ndarray
    counts: ConfusionCounts
    precision: np.ndarray
    recall: np.ndarray
    fbeta: np.ndarray
    best_index: int

    @property
    def best_tau(self) -> float:
        return float(self.taus[self.best_index])

    @property
    def best_recall(self) -> float:
        return float(self.recall[self.best_index])

    @property
    def best_fbeta(self) -> float:
        return float(self.fbeta[self.best_index])

    @property
    def group0(self) -> int:
        return int(self.counts.tp[0] + self.counts.fn[0])

    @property
    def group1(self) -> int:
        return int(self.counts.fp[0] + self.counts.tn[0])

    @property
    def total(self) -> int:
        return self.group0 + self.group1


def sweep(
    scores: np.ndarray,
    labels: np.ndarray,
    beta: float = DEFAULT_BETA,
    step: float = DEFAULT_STEP,
    mode: FilterMode = FilterMode.ALL,
    window_size: int = 1,
) -> ThresholdSweepReport:
    """Evaluate every threshold on the grid; the best one maximizes F-beta,
    ties resolved toward the smallest threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if len(scores) == 0:
        raise ContractError("cannot sweep an empty pool")
    if scores.shape != labels.shape:
        raise ContractError("scores and labels must align")
    taus = np.array(threshold_grid(step))
    counts = confusion_at(scores, labels, taus)
    f = fbeta(counts, beta)
    return ThresholdSweepReport(
        mode=mode,
        window_size=window_size,
        beta=beta,
        step=step,
        taus=taus,
        counts=counts,
        precision=precision(counts),
        recall=recall(counts),
        fbeta=f,
        best_index=int(np.argmax(f)),
    )


@dataclass(frozen=True)
class ScoreHistogram:
    """Per-group score histograms over [0, 1] plus their overlap mass."""

    bin_edges: np.ndarray
    counts0: np.ndarray
    counts1: np.ndarray

    @property
    def overlap_mass(self) -> int:
        return int(np.minimum(self.counts0, self.counts1).sum())


def histogram(pool: FramePool, bins: int = HISTOGRAM_BINS) -> ScoreHistogram:
    """Bin normalized scores by their frame label group."""
    if not len(pool):
        raise ContractError("cannot histogram an empty pool")
    edges = np.linspace(0.0, 1.0, bins + 1)
    scores, labels = pool.normalized, pool.label
    counts0, _ = np.histogram(scores[labels == LABEL_COMPENSATORY], bins=edges)
    counts1, _ = np.histogram(scores[labels == LABEL_NORMAL], bins=edges)
    return ScoreHistogram(edges, counts0, counts1)


@dataclass(frozen=True)
class ModeResult:
    mode: FilterMode
    pool: FramePool
    histogram: ScoreHistogram
    reports: tuple[ThresholdSweepReport, ...]


def run_experiment_matrix(
    manifest: DatasetManifest,
    raw: np.ndarray,
    modes: Sequence[FilterMode] = tuple(FilterMode),
    windows: Sequence[int] = DEFAULT_WINDOWS,
    beta: float = DEFAULT_BETA,
    step: float = DEFAULT_STEP,
) -> tuple[ModeResult, ...]:
    """Select, normalize, window, and sweep for every (mode, window) cell
    of the raw-score block; one result per mode, in the order given."""
    results = []
    for mode in modes:
        pool = normalize_pool(select_frames(manifest, raw, mode))
        reports = [
            sweep(*windows_over_pool(pool, w), beta=beta, step=step,
                  mode=mode, window_size=w)
            for w in windows
        ]
        results.append(
            ModeResult(mode, pool, histogram(pool), tuple(reports))
        )
    return tuple(results)


def write_sweep_report(report: ThresholdSweepReport, path) -> None:
    """One row per threshold plus a best-row summary block."""
    c = report.counts
    columns = (report.taus, c.tp, c.fp, c.tn, c.fn,
               report.precision, report.recall, report.fbeta)
    lead = [report.mode.value, report.window_size, repr(report.beta)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["mode", "window", "beta", "tau", "tp", "fp", "tn", "fn",
             "precision", "recall", "fbeta"]
        )
        writer.writerows(
            lead + [repr(v) for v in row]
            for row in zip(*(col.tolist() for col in columns))
        )
        writer.writerow([])
        writer.writerow(["# best", "tau", "recall", "fbeta", "group0", "group1"])
        writer.writerow(
            ["# best",
             repr(report.best_tau),
             repr(report.best_recall),
             repr(report.best_fbeta),
             report.group0,
             report.group1]
        )


def write_histogram(hist: ScoreHistogram, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count_group0", "count_group1"])
        for i in range(len(hist.counts0)):
            writer.writerow(
                [repr(float(hist.bin_edges[i])),
                 repr(float(hist.bin_edges[i + 1])),
                 int(hist.counts0[i]),
                 int(hist.counts1[i])]
            )
        writer.writerow(["# overlap_mass", hist.overlap_mass, "", ""])


def format_summary(results: Sequence[ModeResult]) -> str:
    """Human-readable best-row table per (mode, window) cell."""
    lines = [
        f"{'mode':<14} {'window':>6} {'best_tau':>9} {'recall':>7} "
        f"{'fbeta':>7} {'group0':>8} {'group1':>8}"
    ]
    for res in results:
        for report in res.reports:
            lines.append(
                f"{report.mode.value:<14} {report.window_size:>6} "
                f"{report.best_tau:>9.2f} {report.best_recall:>7.3f} "
                f"{report.best_fbeta:>7.3f} {report.group0:>8} {report.group1:>8}"
            )
    return "\n".join(lines)


def format_pool_table(results: Sequence[ModeResult]) -> str:
    """Per-pool group sizes and percentages (frame level, one row per mode)."""
    lines = [
        f"{'pool':<14} {'group0':>8} {'pct0':>7} {'group1':>8} {'pct1':>7} "
        f"{'total':>8}"
    ]
    for res in results:
        labels = res.pool.label
        g0 = int(np.sum(labels == LABEL_COMPENSATORY))
        g1 = int(np.sum(labels == LABEL_NORMAL))
        total = g0 + g1
        lines.append(
            f"{res.mode.value:<14} {g0:>8} {g0 / total:>6.1%} "
            f"{g1:>8} {g1 / total:>6.1%} {total:>8}"
        )
    return "\n".join(lines)


def write_summary(results: Sequence[ModeResult], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["mode", "window", "best_tau", "best_recall", "best_fbeta",
             "group0", "group1", "total"]
        )
        for res in results:
            for report in res.reports:
                writer.writerow(
                    [
                        report.mode.value,
                        report.window_size,
                        repr(report.best_tau),
                        repr(report.best_recall),
                        repr(report.best_fbeta),
                        report.group0,
                        report.group1,
                        report.total,
                    ]
                )
