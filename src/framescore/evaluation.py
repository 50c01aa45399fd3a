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

import enum
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import LABEL_COMPENSATORY, LABEL_NORMAL, DatasetManifest, write_csv
from .errors import DataValidationError
from .saliency import FramePool, normalize_pool, windows_over_pool

DEFAULT_BETA = 2.0
DEFAULT_STEP = 0.01
# Thresholds are rounded to 12 decimals, so a step below 5e-13 repeats
# them. Each sweep report holds 8 columns of about 1 / step entries, all
# kept until sweep writes them: 10,001 thresholds take about 9.6 MB over
# the default 15 reports, and 1e-6 would take about 1 GB.
MIN_STEP = 1e-4
# The largest beta whose square is finite: above it F-beta reads NaN.
MAX_BETA = math.sqrt(sys.float_info.max)
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
        raise DataValidationError(
            f"unknown filter mode {text!r}; expected one of "
            f"{[m.value for m in cls]}"
        )


def select_frames(manifest: DatasetManifest, raw: np.ndarray,
                  mode: FilterMode) -> FramePool:
    """The un-normalized pool of the frames the mode admits from `raw`, the
    (trials x t_max) raw-score block with rows in manifest order."""
    labels = manifest.frame_labels
    if raw.shape != labels.shape:
        raise DataValidationError(
            f"raw scores {raw.shape} do not match trials x frames {labels.shape}")
    padded = manifest.padded
    mask = np.ones_like(padded) if mode is FilterMode.ALL else ~padded
    if mode is FilterMode.COMP_NO_PAD:
        comp = manifest.trial_labels == LABEL_COMPENSATORY
        if not comp.any():
            raise DataValidationError(
                "comp-no-pad selection is empty: no compensatory trials"
            )
        mask &= comp[:, None]
    trial, frame = np.nonzero(mask)
    return FramePool(trial=trial, trial_ids=manifest.trial_ids, frame_index=frame,
                     raw=raw[mask], label=labels[mask], padded=padded[mask])


@dataclass(frozen=True)
class ConfusionCounts:
    """Counts with compensatory as the positive class, as arrays with one
    entry per threshold."""

    tp: np.ndarray
    fp: np.ndarray
    tn: np.ndarray
    fn: np.ndarray


def confusion_at(scores: np.ndarray, labels: np.ndarray, taus: np.ndarray
                 ) -> ConfusionCounts:
    """Counts of `scores > tau` per label group at each threshold tau of
    `taus`, as arrays with one entry per threshold."""
    scores = np.asarray(scores, dtype=np.float64)
    actual_comp = np.asarray(labels, dtype=np.int64) == LABEL_COMPENSATORY
    comp = np.sort(scores[actual_comp])
    normal = np.sort(scores[~actual_comp])
    # the scores above tau are those right of its rightmost insertion point
    tp = len(comp) - np.searchsorted(comp, taus, side="right")
    fp = len(normal) - np.searchsorted(normal, taus, side="right")
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
    if not 0.0 < beta <= MAX_BETA:
        raise DataValidationError(f"beta must be in (0, {MAX_BETA}], got {beta}")
    p = precision(counts)
    r = recall(counts)
    b2 = beta * beta
    return _ratio((1.0 + b2) * p * r, b2 * p + r)


def threshold_grid(step: float) -> list[float]:
    """{0, step, 2 step, ...} capped and completed with 1."""
    if not MIN_STEP <= step <= 1.0:
        raise DataValidationError(f"step must be in [{MIN_STEP:g}, 1], got {step}")
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
        raise DataValidationError("cannot sweep an empty pool")
    if scores.shape != labels.shape:
        raise DataValidationError("scores and labels must align")
    taus = np.array(threshold_grid(step))
    counts = confusion_at(scores, labels, taus)
    f = fbeta(counts, beta)
    return ThresholdSweepReport(
        mode=mode,
        window_size=window_size,
        beta=beta,
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
        raise DataValidationError("cannot histogram an empty pool")
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


def _best_row(report: ThresholdSweepReport) -> list:
    """The best threshold's tau, recall and F-beta, then the group sizes."""
    return [report.best_tau, report.best_recall, report.best_fbeta,
            report.group0, report.group1]


def write_sweep_report(report: ThresholdSweepReport, path) -> None:
    """One row per threshold plus a best-row summary block."""
    c = report.counts
    columns = (report.taus, c.tp, c.fp, c.tn, c.fn,
               report.precision, report.recall, report.fbeta)
    lead = [report.mode.value, report.window_size, report.beta]
    write_csv(path, [
        ["mode", "window", "beta", "tau", "tp", "fp", "tn", "fn",
         "precision", "recall", "fbeta"],
        *([*lead, *row] for row in zip(*(col.tolist() for col in columns))),
        [],
        ["# best", "tau", "recall", "fbeta", "group0", "group1"],
        ["# best", *_best_row(report)],
    ])


def write_histogram(hist: ScoreHistogram, path) -> None:
    edges = hist.bin_edges.tolist()
    write_csv(path, [
        ["bin_lo", "bin_hi", "count_group0", "count_group1"],
        *zip(edges[:-1], edges[1:], hist.counts0.tolist(), hist.counts1.tolist()),
        ["# overlap_mass", hist.overlap_mass, "", ""],
    ])


def format_summary(results: Sequence[ModeResult]) -> str:
    """Human-readable best-row table per (mode, window) cell."""
    lines = [
        f"{'mode':<14} {'window':>6} {'best_tau':>9} {'recall':>7} "
        f"{'fbeta':>7} {'group0':>8} {'group1':>8}"
    ]
    for res in results:
        for report in res.reports:
            tau, recall, f, group0, group1 = _best_row(report)
            lines.append(
                f"{report.mode.value:<14} {report.window_size:>6} "
                f"{tau:>9.2f} {recall:>7.3f} {f:>7.3f} {group0:>8} {group1:>8}"
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
    write_csv(path, [
        ["mode", "window", "best_tau", "best_recall", "best_fbeta",
         "group0", "group1", "total"],
        *([report.mode.value, report.window_size, *_best_row(report),
           report.total] for res in results for report in res.reports),
    ])
