"""The dataset as columns, displacement features, splits, and the file format.

A `DatasetManifest` holds the trials of one dataset as columns: ids,
patients and sides as tuples, each trial's keypoints (per-frame 2D joint
positions) as one read-only array, and the frame labels of every trial as
one (trials x t_max) block in which slots past a trial's length are padding
labelled "normal". Lengths, trial labels and the padding mask derive from
these columns; `DatasetManifest.padded` is the one place that says which
slots are padding. Featurization turns the keypoints into one
(trials x t_max x features) block of signed per-coordinate displacements
from each trial's first frame, zero on padding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DataValidationError

LABEL_COMPENSATORY = 0
LABEL_NORMAL = 1
SIDES = ("affected", "unaffected")
PROVENANCE = "synthetic"

DEFAULT_T_MAX = 394
DEFAULT_JOINTS = (
    "Head",
    "Neck",
    "ShoulderRight",
    "ElbowRight",
    "WristRight",
    "ShoulderLeft",
    "ElbowLeft",
    "WristLeft",
)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class JointLayout:
    """Ordered joint names; features are (x, y) per joint in joint order."""

    joints: tuple[str, ...] = DEFAULT_JOINTS

    def __post_init__(self) -> None:
        if len(self.joints) == 0:
            raise DataValidationError("layout needs at least one joint")
        if len(set(self.joints)) != len(self.joints):
            raise DataValidationError("duplicate joint names in layout")

    @property
    def joint_count(self) -> int:
        return len(self.joints)

    @property
    def feature_count(self) -> int:
        return 2 * len(self.joints)

    def feature_index(self, joint: str, coord: str) -> int:
        """Index of a joint coordinate in the flattened feature axis."""
        c = {"x": 0, "y": 1}[coord.lower()]
        return 2 * self.joints.index(joint) + c

    def feature_names(self) -> list[str]:
        return [f"{j}{c}" for j in self.joints for c in ("X", "Y")]


@dataclass(frozen=True)
class DatasetManifest:
    """The trials of one dataset as columns, in dataset order.

    frames[i] has shape (L_i, joints, 2) in pixels; row i of frame_labels
    holds trial i's labels over {0 = compensatory, 1 = normal} in its first
    L_i slots and 1 after them, so its t_max is the block's width. Arrays
    are read-only. A record from a file is validated by `load_dataset`, and
    `synth` builds only valid trials; the constructor checks only that the
    columns agree with one another.
    """

    trial_ids: tuple[str, ...]
    patient_ids: tuple[str, ...]
    sides: tuple[str, ...]
    frames: tuple[np.ndarray, ...]
    frame_labels: np.ndarray
    layout: JointLayout = field(default_factory=JointLayout)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("trial_ids", "patient_ids", "sides"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "frames", tuple(map(_readonly, self.frames)))
        labels = _readonly(np.asarray(self.frame_labels, dtype=np.int64))
        object.__setattr__(self, "frame_labels", labels)
        if labels.ndim != 2 or labels.shape[1] < 1:
            raise DataValidationError(
                f"frame_labels must be a (trials, t_max) block with t_max at "
                f"least 1, got shape {labels.shape}"
            )
        columns = (self.trial_ids, self.patient_ids, self.sides, self.frames,
                   labels)
        if len({len(c) for c in columns}) != 1:
            raise DataValidationError(
                f"dataset columns differ in length: {[len(c) for c in columns]}"
            )
        seen = set()
        for tid in self.trial_ids:
            if tid in seen:
                raise DataValidationError(f"duplicate trial id {tid!r}")
            seen.add(tid)

    @classmethod
    def from_rows(cls, rows, t_max: int, layout: JointLayout = JointLayout(),
                  seed: int = 0) -> "DatasetManifest":
        """Columns of checked (trial_id, patient_id, side, frames,
        frame_labels) rows, each trial's labels padded out to t_max."""
        rows = list(rows)
        labels = np.full((len(rows), t_max), LABEL_NORMAL, dtype=np.int64)
        for i, row in enumerate(rows):
            labels[i, : len(row[4])] = row[4]
        ids, patients, sides, frames = (
            tuple(r[k] for r in rows) for k in range(4))
        return cls(ids, patients, sides, frames, labels, layout, seed)

    def __len__(self) -> int:
        return len(self.trial_ids)

    @property
    def t_max(self) -> int:
        return self.frame_labels.shape[1]

    @cached_property
    def lengths(self) -> np.ndarray:
        return _readonly(np.array([len(f) for f in self.frames], dtype=np.int64))

    @cached_property
    def trial_labels(self) -> np.ndarray:
        """0 exactly for the trials with a compensatory frame."""
        return _readonly(self.frame_labels.min(axis=1))

    @cached_property
    def padded(self) -> np.ndarray:
        """(trials, t_max) mask of the padding slots."""
        return _readonly(np.arange(self.t_max) >= self.lengths[:, None])


def featurize(manifest: DatasetManifest) -> np.ndarray:
    """Read-only (trials, t_max, features) block of displacement features.

    Row t of trial i holds the signed displacement of every joint coordinate
    from its position in the trial's frame 0; padding rows are exactly zero.
    """
    features = np.zeros((len(manifest), manifest.t_max,
                         manifest.layout.feature_count))
    for i, f in enumerate(manifest.frames):
        features[i, : len(f)] = (f - f[0]).reshape(len(f), -1)
    return _readonly(features)


def split_dataset(
    manifest: DatasetManifest, train_fraction: float, seed: int
) -> tuple[DatasetManifest, DatasetManifest]:
    """Trial-level split, deterministic for a fixed (manifest, fraction, seed)."""
    if not 0.0 < train_fraction < 1.0:
        raise DataValidationError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    n = len(manifest)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(round(train_fraction * n))
    if not 0 < n_train < n:
        raise DataValidationError(
            f"train fraction {train_fraction} of {n} trials leaves {n_train} "
            f"train / {n - n_train} test trials; each side needs at least one"
        )

    def subset(idx: np.ndarray) -> DatasetManifest:
        def pick(column):
            return tuple(column[i] for i in idx)

        m = manifest
        return DatasetManifest(pick(m.trial_ids), pick(m.patient_ids),
                               pick(m.sides), pick(m.frames),
                               m.frame_labels[idx], m.layout, m.seed)

    return subset(np.sort(perm[:n_train])), subset(np.sort(perm[n_train:]))


def save_dataset(manifest: DatasetManifest, path) -> None:
    """Write one header line plus one JSON record per trial."""
    m = manifest
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "t_max": m.t_max,
            "joints": list(m.layout.joints),
            "provenance": PROVENANCE,
            "seed": m.seed,
        }
        fh.write(json.dumps(header) + "\n")
        for tid, pid, side, frames, labels, trial_label in zip(
            m.trial_ids, m.patient_ids, m.sides, m.frames, m.frame_labels,
            m.trial_labels.tolist(),
        ):
            record = {
                "trial_id": tid,
                "patient_id": pid,
                "side": side,
                "frames": frames.tolist(),
                "frame_labels": labels[: len(frames)].tolist(),
                "trial_label": trial_label,
            }
            fh.write(json.dumps(record) + "\n")


_TRIAL_FIELDS = (
    "trial_id",
    "patient_id",
    "side",
    "frames",
    "frame_labels",
    "trial_label",
)


def _trial_row(rec: dict, layout: JointLayout, t_max: int) -> tuple:
    """The (trial_id, patient_id, side, frames, frame_labels) row of one
    parsed trial record, after checking every field against the header."""
    for name in _TRIAL_FIELDS:
        if name not in rec:
            raise DataValidationError(f"missing field {name!r}")
    tid, pid, side = rec["trial_id"], rec["patient_id"], rec["side"]
    if not (isinstance(tid, str) and isinstance(pid, str)):
        raise DataValidationError(
            f"trial_id and patient_id must be strings, got {tid!r}, {pid!r}"
        )

    def bad(message) -> DataValidationError:
        return DataValidationError(f"trial {tid!r}: {message}")

    try:
        frames = np.asarray(rec["frames"], dtype=np.float64)
        labels = np.asarray(rec["frame_labels"], dtype=np.float64)
        trial_label = float(rec["trial_label"])
    except (ValueError, TypeError, OverflowError) as exc:
        raise bad(exc) from exc
    if frames.ndim != 3 or frames.shape[1:] != (layout.joint_count, 2):
        raise bad(f"frames must have shape (L, {layout.joint_count}, 2), "
                  f"got {frames.shape}")
    length = frames.shape[0]
    if not 1 <= length <= t_max:
        raise bad(f"{length} frames; a trial needs 1 to t_max {t_max}")
    if not np.isfinite(frames).all():
        raise bad("non-finite coordinate")
    if labels.shape != (length,):
        raise bad(f"frame_labels length {labels.shape} does not match frame "
                  f"count {length}")
    if not np.isin(labels, (LABEL_COMPENSATORY, LABEL_NORMAL)).all():
        raise bad("frame labels must be 0 or 1")
    if side not in SIDES:
        raise bad(f"side must be one of {SIDES}, got {side!r}")
    if trial_label != labels.min():
        raise bad(f"trial_label {rec['trial_label']!r} inconsistent with "
                  f"frame labels")
    return tid, pid, side, frames, labels.astype(np.int64)


def load_dataset(path) -> DatasetManifest:
    """Parse a dataset file one line at a time; validation errors name the
    offending line."""

    def parse(lineno: int, text: str) -> dict:
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataValidationError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise DataValidationError(f"{path}:{lineno}: expected an object")
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        lines = enumerate((line.rstrip("\n") for line in fh), start=1)
        first = next(lines, None)
        if first is None:
            raise DataValidationError(f"{path}: empty dataset file")
        header = parse(*first)
        for key in ("t_max", "joints", "provenance", "seed"):
            if key not in header:
                raise DataValidationError(f"{path}:1: missing field {key!r}")
        joints = header["joints"]
        if not isinstance(joints, list) or \
                not all(isinstance(j, str) for j in joints):
            raise DataValidationError(
                f"{path}:1: field 'joints' must be a list of names, got {joints!r}"
            )
        for key in ("t_max", "seed"):
            try:
                header[key] = int(header[key])
            except (TypeError, ValueError) as exc:
                raise DataValidationError(
                    f"{path}:1: field {key!r} must be an integer, "
                    f"got {header[key]!r}"
                ) from exc
        if header["provenance"] != PROVENANCE:
            raise DataValidationError(
                f"{path}:1: provenance must be {PROVENANCE!r}, "
                f"got {header['provenance']!r}"
            )
        try:
            layout = JointLayout(joints=tuple(joints))
        except DataValidationError as exc:
            raise DataValidationError(f"{path}:1: field 'joints': {exc}") from exc

        rows = []
        for lineno, text in lines:
            if not text.strip():
                continue
            rec = parse(lineno, text)
            try:
                rows.append(_trial_row(rec, layout, header["t_max"]))
            except DataValidationError as exc:
                raise DataValidationError(f"{path}:{lineno}: {exc}") from exc
    if not rows:
        raise DataValidationError(f"{path}: no trials")
    try:
        return DatasetManifest.from_rows(rows, header["t_max"], layout,
                                         header["seed"])
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc
