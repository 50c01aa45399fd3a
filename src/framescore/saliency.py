"""Per-frame scores from input gradients: aggregation, pooling, windows.

The saliency matrix of a trial is the loss gradient at the trial's true
label, reshaped to frames x features. A frame's raw score is the sum of
absolute gradient entries across features; normalized scores are min-max
scaled over a pooled set of selected frames, so they depend on which frames
the experiment admits. A raw score file is read back as one read-only
(trials x t_max) block, with rows in the dataset's trial order.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass, replace
from itertools import repeat
from typing import Sequence

import numpy as np

from .data import LABEL_NORMAL, DatasetManifest
from .errors import ContractError, DataValidationError
from .network import TrainedModel, input_gradient


@dataclass(frozen=True)
class FrameScoreTrack:
    """Per-frame aggregated saliency for one trial: explain's output. It is
    kept, rather than a row of the score block, because the benchmark's span
    counters (perfbench/spans.py) count written rows from each track."""

    trial_id: str
    raw_scores: np.ndarray

    def __post_init__(self) -> None:
        raw = np.asarray(self.raw_scores, dtype=np.float64)
        if raw.ndim != 1:
            raise DataValidationError("raw_scores must be 1-D")
        object.__setattr__(self, "raw_scores", raw)


@dataclass(frozen=True)
class FramePool:
    """Selected frames as parallel arrays, in trial order, then frame order.

    Row k is frame `frame_index[k]` of trial `trial_ids[trial[k]]`, where
    `trial_ids` is the manifest's id tuple, shared rather than copied.
    `normalized` is None until `normalize_pool` fills it.
    """

    trial: np.ndarray
    trial_ids: tuple[str, ...]
    frame_index: np.ndarray
    raw: np.ndarray
    label: np.ndarray
    padded: np.ndarray
    normalized: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.raw)


def compute_saliency(model: TrainedModel, manifest: DatasetManifest,
                     X: np.ndarray, i: int) -> np.ndarray:
    """Loss gradient at trial i's true label, read-only, (t_max, features).

    X is the manifest's feature block, `data.featurize(manifest)`.
    """
    grad = input_gradient(model, X[i].ravel(), manifest.trial_labels[i])
    if not np.isfinite(grad).all():
        raise DataValidationError(
            f"trial {manifest.trial_ids[i]!r}: non-finite saliency")
    sal = grad.reshape(X.shape[1:])
    sal.flags.writeable = False
    return sal


def compute_tracks(model: TrainedModel, manifest: DatasetManifest,
                   X: np.ndarray) -> list[FrameScoreTrack]:
    """One track per trial, in manifest order. A frame's raw score is the
    sum of its absolute saliency entries over features, sum |gradient|."""
    return [FrameScoreTrack(
                tid, np.abs(compute_saliency(model, manifest, X, i)).sum(axis=1))
            for i, tid in enumerate(manifest.trial_ids)]


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
    first = np.flatnonzero(np.r_[True, pool.trial[1:] != pool.trial[:-1]])
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


# One score row as csv.writer writes it, once the trial id is quoted; "{}"
# formats a float exactly as repr does.
_SCORE_ROW = "{},{},{},{},{},{}\r\n".format
# Score rows are formatted and written this many at a time: whole columns
# as Python lists would add megabytes to the peak RSS of explain and sweep.
_ROWS_PER_WRITE = 16384


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it inside a row: quoted when it holds a
    comma, a quote or a line break. Built by hand because the csv module
    of Python 3.10 cannot write a NUL character."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_pools(path, trial_ids: Sequence[str], pools) -> None:
    """The score header, then the rows of each pool over `trial_ids`;
    normalized_score is left empty where a pool has none."""
    quoted = list(map(_csv_field, trial_ids))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(_SCORE_COLUMNS)
        for pool in pools:
            for lo in range(0, len(pool), _ROWS_PER_WRITE):
                part = slice(lo, lo + _ROWS_PER_WRITE)
                normalized = repeat("") if pool.normalized is None \
                    else pool.normalized[part].tolist()
                fh.write("".join(map(
                    _SCORE_ROW, map(quoted.__getitem__, pool.trial[part].tolist()),
                    pool.frame_index[part].tolist(), pool.raw[part].tolist(),
                    normalized, pool.label[part].tolist(),
                    pool.padded[part].astype(np.int64).tolist())))


def write_raw_scores(path, manifest: DatasetManifest,
                     tracks: Sequence[FrameScoreTrack]) -> None:
    """One row per (trial, frame); normalized_score left empty."""
    ids, frames = manifest.trial_ids, np.arange(manifest.t_max)
    _write_pools(path, ids, (
        FramePool(np.full(len(frames), i), ids, frames, track.raw_scores,
                  labels, padded)
        for i, (track, labels, padded) in enumerate(zip(
            tracks, manifest.frame_labels, manifest.padded))))


def write_pooled_scores(path, pool: FramePool) -> None:
    """Pooled frames with their normalized scores filled in."""
    _write_pools(path, pool.trial_ids, [pool])


def read_raw_scores(path, manifest: DatasetManifest) -> np.ndarray:
    """Read a raw score file written for these trials, in any row order.

    Every (trial, frame) slot of the block must appear exactly once, with
    the slot's frame label and padding flag. Returns the read-only float64
    (trials x t_max) raw-score block, with rows in the order of `manifest`.
    Faults name the file line on which the offending record ends.
    """
    def records(reader):
        try:
            yield from reader
        except csv.Error as exc:  # e.g. a field over the csv size limit
            raise DataValidationError(f"{path}:{reader.line_num}: {exc}") from exc

    ids = manifest.trial_ids
    position = {tid: i for i, tid in enumerate(ids)}
    t_max = manifest.t_max
    # Typed buffers, not a tuple per row: they hold 8 bytes per field.
    ints, raws = array("q"), array("d")
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        rows = records(reader)
        header = next(rows, None)
        if header is None or tuple(header) != _SCORE_COLUMNS:
            raise DataValidationError(f"{path}: unexpected score file header")
        for row in rows:
            if not row:
                continue
            lineno = reader.line_num  # a quoted id may hold line breaks
            if len(row) != len(_SCORE_COLUMNS):
                raise DataValidationError(f"{path}:{lineno}: ragged score row")
            trial = position.get(row[0], -1)
            try:
                frame, raw = int(row[1]), float(row[2])
                ints.extend((lineno, trial, frame, int(row[4]), int(row[5])))
            except (ValueError, OverflowError) as exc:
                raise DataValidationError(f"{path}:{lineno}: {exc}") from exc
            if not 0.0 <= raw < math.inf:
                raise DataValidationError(
                    f"{path}:{lineno}: raw score {row[2]!r} is not a finite, "
                    f"non-negative number"
                )
            if trial < 0 or not 0 <= frame < t_max:
                raise DataValidationError(
                    f"{path}:{lineno}: trial {row[0]!r} frame {frame} is not "
                    f"in the dataset"
                )
            raws.append(raw)
    table = np.frombuffer(ints, dtype=np.int64).reshape(-1, 5)
    line, trial, frame = table[:, :3].T

    # Slot trial * t_max + frame of the flattened block must be hit once.
    slot = trial * t_max + frame
    hits = np.bincount(slot, minlength=len(ids) * t_max).reshape(-1, t_max)
    if (hits != 1).any():
        i, f = np.argwhere(hits != 1)[0]
        where = f"trial {ids[i]!r}"
        if hits[i].any():
            where += f" frame {f}"
        fault = "appears more than once" if hits[i, f] > 1 else "is missing"
        raise DataValidationError(f"{path}: {where} {fault}")

    want = np.c_[manifest.frame_labels.ravel()[slot],
                 manifest.padded.ravel()[slot]]
    bad = np.flatnonzero((table[:, 3:] != want).any(axis=1))
    if bad.size:
        j = bad[0]
        raise DataValidationError(
            f"{path}:{line[j]}: trial {ids[trial[j]]!r} frame {frame[j]}: "
            f"frame_label, padded = {table[j, 3]}, {table[j, 4]}; the dataset "
            f"has {want[j, 0]}, {want[j, 1]}"
        )
    raw = np.empty(hits.size)
    raw[slot] = np.frombuffer(raws)
    raw = raw.reshape(hits.shape)
    raw.flags.writeable = False
    return raw
