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
import os
import warnings
from array import array
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .data import LABEL_NORMAL, DatasetManifest, write_csv
from .errors import DataValidationError
from .network import TrainedModel, input_gradient


@dataclass(frozen=True)
class FrameScoreTrack:
    """Per-frame aggregated saliency for one trial: explain's output. It is
    kept, rather than a row of the score block, because the benchmark's span
    counters (perfbench/spans.py) count written rows from each track."""

    trial_id: str
    raw_scores: np.ndarray


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
        raise DataValidationError("cannot normalize an empty pool")
    return replace(entries, normalized=_min_max(entries.raw))


def _min_max(a: np.ndarray) -> np.ndarray:
    """(a - min) / (max - min), or all zeros when max == min."""
    lo, hi = float(a.min()), float(a.max())
    if hi > lo:
        return (a - lo) / (hi - lo)
    return np.zeros_like(a)


def windows_over_pool(pool: FramePool, window_size: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Non-overlapping windows over each trial's selected frames.

    A window's score is the mean of its normalized scores; its label is the
    majority vote, ties going to compensatory (0). Windows never span
    trials, and each trial's final partial window is kept, so a trial with n
    selected frames emits ceil(n / window_size) windows.
    """
    if window_size < 1:
        raise DataValidationError("window_size must be at least 1")
    # No trial's run is longer than the pool, so a larger window gives the
    # same windows; the cap keeps the index arithmetic within int64.
    window_size = min(window_size, max(len(pool), 1))
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
    return _min_max(np.abs(sal))


def export_heatmap(matrix: np.ndarray, path, feature_names: Sequence[str]) -> None:
    """Write a frames x features grid as CSV with a frame-index column."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[1] != len(feature_names):
        raise DataValidationError(
            f"matrix shape {matrix.shape} does not match "
            f"{len(feature_names)} feature names"
        )
    write_csv(path, [["frame", *feature_names],
                     *([t, *row] for t, row in enumerate(matrix.tolist()))])


_SCORE_COLUMNS = (
    "trial_id",
    "frame_index",
    "raw_score",
    "normalized_score",
    "frame_label",
    "padded",
)


# Score rows are encoded and written this many at a time: whole columns
# as Python lists would add megabytes to the peak RSS of explain and sweep.
_ROWS_PER_WRITE = 4096


def _csv_field(text: str) -> str:
    """`text` as csv.writer writes it inside a row: quoted when it holds a
    comma, a quote or a line break. Built by hand because the csv module
    of Python 3.10 cannot write a NUL character."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_pool(path, pool: FramePool) -> None:
    """The score header, then the rows of `pool` as csv.writer would write
    them; normalized_score is empty where the pool has none. Each chunk of
    rows is one list of cells, w to a row: the quoted trial id and the frame
    index, each with its comma, from tables; repr of the raw score; for a
    pooled file "," and repr of the normalized score; and the row's end, one
    of four, picked by 2 * label + padded."""
    pooled = pool.normalized is not None
    ids = [_csv_field(tid) + "," for tid in pool.trial_ids]
    frames = [f"{t}," for t in range(int(pool.frame_index.max(initial=-1)) + 1)]
    ends = [f"{',' * (not pooled)},{label},{padded}\r\n"
            for label in (0, 1) for padded in (0, 1)]
    w = 4 + 2 * pooled
    with open(path, "wb") as fh:
        fh.write((",".join(_SCORE_COLUMNS) + "\r\n").encode("utf-8"))
        for start in range(0, len(pool), _ROWS_PER_WRITE):
            part = slice(start, start + _ROWS_PER_WRITE)
            raw = pool.raw[part].tolist()
            cells = [","] * (w * len(raw))
            cells[0::w] = map(ids.__getitem__, pool.trial[part].tolist())
            cells[1::w] = map(frames.__getitem__, pool.frame_index[part].tolist())
            cells[2::w] = map(repr, raw)
            if pooled:
                cells[4::w] = map(repr, pool.normalized[part].tolist())
            cells[w - 1::w] = map(ends.__getitem__, (
                2 * pool.label[part] + pool.padded[part]).tolist())
            fh.write("".join(cells).encode("utf-8"))


def write_raw_scores(path, manifest: DatasetManifest,
                     tracks: Sequence[FrameScoreTrack]) -> None:
    """One row per (trial, frame); normalized_score left empty."""
    ids, t_max = manifest.trial_ids, manifest.t_max
    if tuple(t.trial_id for t in tracks) != ids or \
            any(np.shape(t.raw_scores) != (t_max,) for t in tracks):
        raise DataValidationError(f"write_raw_scores needs one track of t_max "
                            f"{t_max} scores per trial, in manifest order")
    trial, frame = np.divmod(np.arange(len(ids) * t_max), t_max)
    _write_pool(path, FramePool(
        trial, ids, frame, np.concatenate([t.raw_scores for t in tracks]),
        manifest.frame_labels.ravel(), manifest.padded.ravel()))


def write_pooled_scores(path, pool: FramePool) -> None:
    """Pooled frames with their normalized scores filled in."""
    _write_pool(path, pool)


def read_raw_scores(path, manifest: DatasetManifest) -> np.ndarray:
    """Read a raw score file written for these trials, in any row order.

    Every (trial, frame) slot of the block must appear exactly once, with
    the slot's frame label and padding flag. Returns the read-only float64
    (trials x t_max) raw-score block, with rows in the order of `manifest`.
    numpy's tokenizer is the only reader that accepts a file. When it or a
    check rejects one, `_raise_score_fault` names the first fault in file
    order; a file it finds no fault in is rejected with numpy's message.
    """
    ids, t_max = manifest.trial_ids, manifest.t_max
    position = {tid: i for i, tid in enumerate(ids)}
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh, \
                warnings.catch_warnings():
            # numpy before 2.0 reads "1.0" as an integer, with a warning.
            warnings.simplefilter("error")
            if tuple(next(csv.reader(fh), ())) != _SCORE_COLUMNS:
                raise ValueError("unexpected score file header")
            fh.seek(0)
            rows = np.loadtxt(
                fh, delimiter=",", quotechar='"', comments=None, skiprows=1,
                ndmin=1, converters={0: lambda s: position.get(s, -1)},
                # Every column typed, so that a seventh field fails the read;
                # narrow, so that the rows take 22 bytes and a value out of
                # range fails it too.
                dtype=list(zip(_SCORE_COLUMNS, "i4 i4 f8 U1 i1 i1".split())))
        # Raises on an unknown trial (-1) or a frame outside [0, t_max).
        slot = np.ravel_multi_index((rows["trial_id"], rows["frame_index"]),
                                    (len(ids), t_max))
        block = np.full((len(ids), t_max), -1.0)
        block.reshape(-1)[slot] = rows["raw_score"]
        # With one row per slot, a slot left at -1 means another came twice.
        if len(rows) != block.size or \
                not ((0 <= block) & (block < math.inf)).all() or \
                (rows["frame_label"] != manifest.frame_labels.ravel()[slot]).any() \
                or (rows["padded"] != manifest.padded.ravel()[slot]).any():
            raise ValueError("score rows do not match the dataset")
    except (ValueError, csv.Error, Warning) as exc:  # UnicodeDecodeError too
        _raise_score_fault(path, manifest)
        raise DataValidationError(f"{path}: {exc}") from exc
    block.flags.writeable = False
    return block


def _raise_score_fault(path, manifest: DatasetManifest) -> None:
    """Raise the first fault of a score file, read one csv record at a
    time: a fault within a record, in file order, then a missing or
    repeated slot, then a label or padding flag that the dataset does not
    have. Faults name the file line on which the offending record ends.
    Returns if it finds none."""
    def number(text: str, kind):
        # numpy's tokenizer reads no underscore and no non-ASCII digit.
        if not text.isascii() or "_" in text:
            raise ValueError(f"could not convert string {text!r}")
        return kind(text)

    def records(reader):
        try:
            for row in reader:
                # The file is read with each byte that is not UTF-8 escaped
                # to a lone surrogate; decoding the field's bytes again
                # tells why it is not.
                for field in row:
                    try:
                        field.encode("utf-8", "surrogateescape").decode()
                    except UnicodeDecodeError as exc:
                        raise DataValidationError(
                            f"{path}:{reader.line_num}: invalid UTF-8 "
                            f"({exc.reason})") from exc
                yield row
        except csv.Error as exc:  # e.g. a NUL on Python 3.10
            raise DataValidationError(f"{path}:{reader.line_num}: {exc}") from exc

    ids = manifest.trial_ids
    position = {tid: i for i, tid in enumerate(ids)}
    t_max = manifest.t_max
    # A typed buffer, not a tuple per row: it holds 8 bytes per field.
    ints = array("q")
    limit = csv.field_size_limit()
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape",
                  newline="") as fh:
            # Like numpy, the scan holds no field to a size limit.
            csv.field_size_limit(max(limit, os.fstat(fh.fileno()).st_size))
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
                    frame, raw = number(row[1], int), number(row[2], float)
                    ints.extend((lineno, trial, frame, number(row[4], int),
                                 number(row[5], int)))
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
    finally:
        csv.field_size_limit(limit)
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
