"""Trials, displacement features, padding, splits, and on-disk formats.

A dataset is a collection of keypoint trials (per-frame 2D joint positions
with frame- and trial-level binary labels). Featurization turns the whole
dataset into one (trials x t_max x features) block of signed per-coordinate
displacements from each trial's first frame; trials shorter than the frame
capacity t_max are padded with zero rows that carry the "normal" label, and
`FeatureSet.padded` is the one place that says which slots are padding.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataValidationError

LABEL_COMPENSATORY = 0
LABEL_NORMAL = 1
SIDES = ("affected", "unaffected")
PROVENANCES = ("synthetic",)

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
class KeypointTrial:
    """One exercise trial: raw keypoints plus frame and trial labels.

    frames has shape (L, joint_count, 2) in pixels; frame_labels has length L
    over {0 = compensatory, 1 = normal}; trial_label is 0 exactly when some
    frame is compensatory.
    """

    trial_id: str
    patient_id: str
    side: str
    frames: np.ndarray
    frame_labels: np.ndarray
    trial_label: int

    def __post_init__(self) -> None:
        frames = np.asarray(self.frames, dtype=np.float64)
        labels = np.asarray(self.frame_labels, dtype=np.int64)
        if frames.ndim != 3 or frames.shape[2] != 2:
            raise DataValidationError(
                f"trial {self.trial_id!r}: frames must have shape (L, joints, 2), "
                f"got {frames.shape}"
            )
        if frames.shape[0] < 1:
            raise DataValidationError(f"trial {self.trial_id!r}: no frames")
        if not np.isfinite(frames).all():
            raise DataValidationError(
                f"trial {self.trial_id!r}: non-finite coordinate"
            )
        if labels.shape != (frames.shape[0],):
            raise DataValidationError(
                f"trial {self.trial_id!r}: frame_labels length {labels.shape} "
                f"does not match frame count {frames.shape[0]}"
            )
        if not np.isin(labels, (LABEL_COMPENSATORY, LABEL_NORMAL)).all():
            raise DataValidationError(
                f"trial {self.trial_id!r}: frame labels must be 0 or 1"
            )
        if self.side not in SIDES:
            raise DataValidationError(
                f"trial {self.trial_id!r}: side must be one of {SIDES}"
            )
        if int(self.trial_label) != int(labels.min()):
            raise DataValidationError(
                f"trial {self.trial_id!r}: trial_label {self.trial_label} "
                f"inconsistent with frame labels"
            )
        object.__setattr__(self, "frames", _readonly(frames))
        object.__setattr__(self, "frame_labels", _readonly(labels))
        object.__setattr__(self, "trial_label", int(self.trial_label))

    @property
    def length(self) -> int:
        return self.frames.shape[0]

    @property
    def joint_count(self) -> int:
        return self.frames.shape[1]


@dataclass(frozen=True)
class DatasetManifest:
    """A set of trials sharing one layout and one frame capacity."""

    trials: tuple[KeypointTrial, ...]
    t_max: int = DEFAULT_T_MAX
    layout: JointLayout = field(default_factory=JointLayout)
    provenance: str = "synthetic"
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "trials", tuple(self.trials))
        if self.t_max < 1:
            raise DataValidationError("t_max must be at least 1")
        if self.provenance not in PROVENANCES:
            raise DataValidationError(
                f"provenance must be one of {PROVENANCES}, got {self.provenance!r}"
            )
        ids = [t.trial_id for t in self.trials]
        if len(set(ids)) != len(ids):
            raise DataValidationError("duplicate trial ids in manifest")
        for t in self.trials:
            if t.joint_count != self.layout.joint_count:
                raise DataValidationError(
                    f"trial {t.trial_id!r}: {t.joint_count} joints, layout "
                    f"expects {self.layout.joint_count}"
                )
            if t.length > self.t_max:
                raise DataValidationError(
                    f"trial {t.trial_id!r}: length {t.length} exceeds t_max "
                    f"{self.t_max}"
                )

    def __len__(self) -> int:
        return len(self.trials)


@dataclass(frozen=True)
class FeatureSet:
    """Displacement features of a whole dataset as one padded block.

    features has shape (trials, t_max, features); row t of trial i holds the
    signed displacement of every joint coordinate from its position in the
    trial's frame 0. Rows at or beyond lengths[i] are padding: exactly zero
    and labelled normal. Every array is read-only.
    """

    trial_ids: tuple[str, ...]
    features: np.ndarray
    frame_labels: np.ndarray
    lengths: np.ndarray
    trial_labels: np.ndarray

    def __len__(self) -> int:
        return len(self.trial_ids)

    @property
    def padded(self) -> np.ndarray:
        """(trials, t_max) mask of the padding slots."""
        return np.arange(self.features.shape[1]) >= self.lengths[:, None]


def featurize(manifest: DatasetManifest) -> FeatureSet:
    """Displacement features of every trial, padded to the manifest's t_max."""
    trials = manifest.trials
    features = np.zeros((len(trials), manifest.t_max,
                         manifest.layout.feature_count))
    frame_labels = np.full(features.shape[:2], LABEL_NORMAL, dtype=np.int64)
    for i, t in enumerate(trials):
        features[i, : t.length] = (t.frames - t.frames[0]).reshape(t.length, -1)
        frame_labels[i, : t.length] = t.frame_labels
    return FeatureSet(
        trial_ids=tuple(t.trial_id for t in trials),
        features=_readonly(features),
        frame_labels=_readonly(frame_labels),
        lengths=_readonly(np.array([t.length for t in trials], np.int64)),
        trial_labels=_readonly(np.array([t.trial_label for t in trials], np.int64)),
    )


def split_dataset(
    manifest: DatasetManifest, train_fraction: float, seed: int
) -> tuple[DatasetManifest, DatasetManifest]:
    """Trial-level split, deterministic for a fixed (manifest, fraction, seed)."""
    if not 0.0 < train_fraction < 1.0:
        raise DataValidationError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    n = len(manifest.trials)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(round(train_fraction * n))
    if not 0 < n_train < n:
        raise DataValidationError(
            f"train fraction {train_fraction} of {n} trials leaves {n_train} "
            f"train / {n - n_train} test trials; each side needs at least one"
        )
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])

    def subset(idx: np.ndarray) -> DatasetManifest:
        return DatasetManifest(
            trials=tuple(manifest.trials[i] for i in idx),
            t_max=manifest.t_max,
            layout=manifest.layout,
            provenance=manifest.provenance,
            seed=manifest.seed,
        )

    return subset(train_idx), subset(test_idx)


def save_dataset(manifest: DatasetManifest, path) -> None:
    """Write one header line plus one JSON record per trial."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {
            "t_max": manifest.t_max,
            "joints": list(manifest.layout.joints),
            "provenance": manifest.provenance,
            "seed": manifest.seed,
        }
        fh.write(json.dumps(header) + "\n")
        for t in manifest.trials:
            record = {
                "trial_id": t.trial_id,
                "patient_id": t.patient_id,
                "side": t.side,
                "frames": t.frames.tolist(),
                "frame_labels": t.frame_labels.tolist(),
                "trial_label": t.trial_label,
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
        layout = JointLayout(joints=tuple(joints))

        trials = []
        for lineno, text in lines:
            if not text.strip():
                continue
            rec = parse(lineno, text)
            for field_name in _TRIAL_FIELDS:
                if field_name not in rec:
                    raise DataValidationError(
                        f"{path}:{lineno}: missing field {field_name!r}"
                    )
            try:
                trials.append(
                    KeypointTrial(
                        trial_id=rec["trial_id"],
                        patient_id=rec["patient_id"],
                        side=rec["side"],
                        frames=np.asarray(rec["frames"], dtype=np.float64),
                        frame_labels=np.asarray(rec["frame_labels"],
                                                dtype=np.int64),
                        trial_label=int(rec["trial_label"]),
                    )
                )
            except (DataValidationError, ValueError, TypeError) as exc:
                raise DataValidationError(f"{path}:{lineno}: {exc}") from exc
    if not trials:
        raise DataValidationError(f"{path}: no trials")
    try:
        return DatasetManifest(
            trials=tuple(trials),
            t_max=header["t_max"],
            layout=layout,
            provenance=header["provenance"],
            seed=header["seed"],
        )
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc

