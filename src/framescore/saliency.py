"""Per-frame scores from input gradients: aggregation, pooling, windows.

The saliency matrix of a trial is the loss gradient at the trial's true
label, reshaped to frames x features. A frame's raw score is the sum of
absolute gradient entries across features; normalized scores are min-max
scaled over a pooled set of selected frames, so they depend on which frames
the experiment admits.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import LABEL_NORMAL, FeatureTrial
from .errors import ContractError, DataValidationError
from .network import TrainedModel, input_gradient


@dataclass(frozen=True)
class FrameScoreTrack:
    """Per-frame aggregated saliency for one trial."""

    trial_id: str
    raw_scores: np.ndarray
    padded_mask: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.raw_scores, dtype=np.float64)
        mask = np.asarray(self.padded_mask, dtype=bool)
        if raw.ndim != 1 or mask.shape != raw.shape:
            raise DataValidationError("raw_scores and padded_mask must align")
        if (raw < 0).any():
            raise DataValidationError("raw scores must be non-negative")
        object.__setattr__(self, "raw_scores", raw)
        object.__setattr__(self, "padded_mask", mask)

    @property
    def frame_count(self) -> int:
        return len(self.raw_scores)


@dataclass(frozen=True)
class FramePool:
    """Selected frames as parallel arrays, in trial order, then frame order.

    `normalized` is None until `normalize_pool` fills it.
    """

    trial_id: np.ndarray
    frame_index: np.ndarray
    raw: np.ndarray
    label: np.ndarray
    padded: np.ndarray
    normalized: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.raw)


def compute_saliency(model: TrainedModel, ft: FeatureTrial) -> np.ndarray:
    """Loss gradient at the trial's true label, read-only, (frames, features)."""
    grad = input_gradient(model, ft.features.ravel(), ft.trial_label)
    if not np.isfinite(grad).all():
        raise DataValidationError(f"trial {ft.trial_id!r}: non-finite saliency")
    sal = grad.reshape(ft.features.shape)
    sal.flags.writeable = False
    return sal


def frame_aggregate(trial_id: str, sal: np.ndarray, original_length: int
                    ) -> FrameScoreTrack:
    """Raw frame score: sum of absolute gradient entries over features."""
    raw = np.abs(sal).sum(axis=1)
    mask = np.arange(len(raw)) >= original_length
    return FrameScoreTrack(trial_id, raw, mask)


def compute_tracks(model: TrainedModel, ftrials: Sequence[FeatureTrial]
                   ) -> list[FrameScoreTrack]:
    return [
        frame_aggregate(ft.trial_id, compute_saliency(model, ft),
                        ft.original_length)
        for ft in ftrials
    ]


def normalize_pool(entries: FramePool) -> FramePool:
    """Min-max normalize raw scores over exactly these frames.

    A degenerate pool (max == min) normalizes to all zeros, which every
    threshold classifies as normal.
    """
    if not len(entries):
        raise ContractError("cannot normalize an empty pool")
    lo, hi = float(entries.raw.min()), float(entries.raw.max())
    if hi > lo:
        normalized = (entries.raw - lo) / (hi - lo)
    else:
        normalized = np.zeros_like(entries.raw)
    return replace(entries, normalized=normalized)


def windows_over_pool(pool: FramePool, window_size: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping windows over each trial's selected frames.

    A window's score is the mean of its normalized scores; its label is the
    majority vote, ties going to compensatory (0). Windows never span
    trials, and each trial's final partial window is kept, so a trial with n
    selected frames emits ceil(n / window_size) windows.
    """
    if window_size < 1:
        raise ContractError("window_size must be at least 1")
    first = np.flatnonzero(np.r_[True, pool.trial_id[1:] != pool.trial_id[:-1]])
    end = np.r_[first[1:], len(pool)]
    counts = -(-(end - first) // window_size)
    # Window k of a trial starts k * window_size frames into the trial.
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    starts = np.repeat(first, counts) + window_size * k
    sizes = np.minimum(starts + window_size, np.repeat(end, counts)) - starts
    scores = np.empty(len(starts))
    normal = np.empty(len(starts), dtype=np.int64)
    for size in np.unique(sizes):
        at = sizes == size
        members = starts[at, None] + np.arange(size)
        # Row sums of a (windows, size) block add in the same order as the
        # mean of each slice; np.add.reduceat does not, and would change the
        # last bits of some window scores.
        scores[at] = pool.normalized[members].sum(axis=1) / size
        normal[at] = (pool.label[members] == LABEL_NORMAL).sum(axis=1)
    return scores, (2 * normal > sizes).astype(np.int64)


def importance_matrix(sal: np.ndarray) -> np.ndarray:
    """Absolute gradients min-max normalized over the whole matrix."""
    mag = np.abs(sal)
    lo, hi = float(mag.min()), float(mag.max())
    if hi > lo:
        return (mag - lo) / (hi - lo)
    return np.zeros_like(mag)


def export_heatmap(matrix: np.ndarray, path, feature_names: Sequence[str]) -> None:
    """Write a frames x features grid as CSV with a frame-index column."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(feature_names):
        raise ContractError(
            f"matrix shape {matrix.shape} does not match "
            f"{len(feature_names)} feature names"
        )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frame", *feature_names])
        for t in range(matrix.shape[0]):
            writer.writerow([t, *(repr(float(v)) for v in matrix[t])])


def load_heatmap(path) -> np.ndarray:
    """Read a heatmap CSV back into an array (inverse of export_heatmap)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        width = len(header) - 1
        rows = []
        for row in reader:
            if len(row) != width + 1:
                raise DataValidationError(f"{path}: ragged heatmap row")
            rows.append([float(v) for v in row[1:]])
    return np.array(rows)


_SCORE_COLUMNS = (
    "trial_id",
    "frame_index",
    "raw_score",
    "normalized_score",
    "frame_label",
    "padded",
)


def write_raw_scores(path, ftrials: Sequence[FeatureTrial],
                     tracks: Sequence[FrameScoreTrack]) -> None:
    """One row per (trial, frame); normalized_score left empty."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SCORE_COLUMNS)
        for ft, track in zip(ftrials, tracks):
            for t in range(track.frame_count):
                writer.writerow(
                    [
                        ft.trial_id,
                        t,
                        repr(float(track.raw_scores[t])),
                        "",
                        int(ft.frame_labels[t]),
                        int(track.padded_mask[t]),
                    ]
                )


def write_pooled_scores(path, pool: FramePool) -> None:
    """Pooled frames with their normalized scores filled in."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SCORE_COLUMNS)
        writer.writerows(
            zip(
                pool.trial_id.tolist(),
                pool.frame_index.tolist(),
                map(repr, pool.raw.tolist()),
                map(repr, pool.normalized.tolist()),
                pool.label.tolist(),
                pool.padded.astype(np.int64).tolist(),
            )
        )


def read_raw_scores(path) -> dict[str, dict[str, np.ndarray]]:
    """Read a raw score file into per-trial arrays, preserving trial order."""
    per_trial: dict[str, dict[str, list]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != _SCORE_COLUMNS:
            raise DataValidationError(f"{path}: unexpected score file header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(_SCORE_COLUMNS):
                raise DataValidationError(f"{path}:{lineno}: ragged score row")
            rec = per_trial.setdefault(
                row[0], {"frame_index": [], "raw": [], "label": [], "padded": []}
            )
            try:
                rec["frame_index"].append(int(row[1]))
                raw = float(row[2])
                rec["label"].append(int(row[4]))
                rec["padded"].append(bool(int(row[5])))
            except ValueError as exc:
                raise DataValidationError(f"{path}:{lineno}: {exc}") from exc
            if not 0.0 <= raw < math.inf:
                raise DataValidationError(
                    f"{path}:{lineno}: raw score {row[2]!r} is not a finite, "
                    f"non-negative number"
                )
            rec["raw"].append(raw)
    out: dict[str, dict[str, np.ndarray]] = {}
    for trial_id, rec in per_trial.items():
        order = np.argsort(rec["frame_index"])
        expected = np.arange(len(order))
        if np.any(np.asarray(rec["frame_index"])[order] != expected):
            raise DataValidationError(
                f"{path}: trial {trial_id!r} has missing or duplicate frames"
            )
        out[trial_id] = {
            "raw": np.asarray(rec["raw"])[order],
            "label": np.asarray(rec["label"], dtype=np.int64)[order],
            "padded": np.asarray(rec["padded"], dtype=bool)[order],
        }
    return out
