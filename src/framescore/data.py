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

A dataset file is one JSON header line and one JSON record per trial. A
record holds a trial's keypoints as one string, the hex text of its
row-major, little-endian float64 bytes, and its frame labels and trial
label as JSON numbers. `json_object` parses each line, and every other JSON
input of the package too (the checkpoint, the grid file and the synth
config), with errors that name the file or line. `write_csv` writes every
report table.
"""

from __future__ import annotations

import binascii
import csv
import json
import sys
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

    def feature_names(self) -> list[str]:
        return [f"{j}{c}" for j in self.joints for c in ("X", "Y")]


@dataclass(frozen=True)
class DatasetManifest:
    """The trials of one dataset as columns, in dataset order.

    frames[i] is a float64 array of shape (L_i, joints, 2) in pixels; a
    dataset file holds it as the hex text of its little-endian bytes, so a
    load gives back the same bits. Row i of frame_labels holds trial i's
    labels over {0 = compensatory, 1 = normal} in its first L_i slots and 1
    after them, so its t_max is the block's width. Arrays are read-only. A
    record from a file is validated by `load_dataset`, and `synth` builds
    only valid trials; the constructor checks only that the columns agree
    with one another.
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
        check_feature_block(len(rows), t_max, layout)
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


def check_feature_block(trials: int, t_max: int, layout: JointLayout) -> None:
    """Refuse sizes whose (trials, t_max, features) float64 feature block,
    the largest array a dataset builds, would pass sys.maxsize bytes: numpy
    cannot make it, and raises a bare ValueError, not a MemoryError."""
    size = 8 * trials * t_max * layout.feature_count
    if size > sys.maxsize:
        raise DataValidationError(
            f"t_max {t_max} is too large for {trials} trials: their float64 "
            f"features would take {size} bytes, more than sys.maxsize "
            f"({sys.maxsize})"
        )


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


def random_stream(seed: int, *key: int) -> np.random.Generator:
    """The independent stream of `seed` that `key` names. Every seeded draw
    of the package comes from one:

        ()                      the train/test split, default_rng(seed)'s stream
        (0,)                    the initial weights
        (1,)                    the batch order
        (2,)                    the grid folds
        (patient, side, trial)  one synthetic trial; side indexes SIDES

    A negative seed raises DataValidationError.
    """
    if seed < 0:
        raise DataValidationError(f"seed must be at least 0, got {seed}")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def split_dataset(
    manifest: DatasetManifest, train_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Trial-level split as sorted (train, test) row indices, fixed by seed."""
    if not 0.0 < train_fraction < 1.0:
        raise DataValidationError(
            f"train_fraction must be in (0, 1), got {train_fraction}"
        )
    n = len(manifest)
    perm = random_stream(seed).permutation(n)
    n_train = int(round(train_fraction * n))
    if not 0 < n_train < n:
        raise DataValidationError(
            f"train fraction {train_fraction} of {n} trials leaves {n_train} "
            f"train / {n - n_train} test trials; each side needs at least one"
        )
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def save_dataset(manifest: DatasetManifest, path) -> None:
    """Write one header line plus one JSON record per trial, each trial's
    frames as the hex text of their little-endian float64 bytes. Each
    record is written as soon as it is encoded, so one is held at a time."""
    m = manifest
    trial_labels = m.trial_labels.tolist()

    def record(i: int) -> bytes:
        return (json.dumps({
            "trial_id": m.trial_ids[i],
            "patient_id": m.patient_ids[i],
            "side": m.sides[i],
            "frames": m.frames[i].astype("<f8", copy=False).tobytes().hex(),
            "frame_labels": m.frame_labels[i, : len(m.frames[i])].tolist(),
            "trial_label": trial_labels[i],
        }) + "\n").encode("utf-8")

    header = {
        "t_max": m.t_max,
        "joints": list(m.layout.joints),
        "provenance": PROVENANCE,
        "seed": m.seed,
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        fh.writelines(map(record, range(len(m))))


_TRIAL_FIELDS = (
    "trial_id",
    "patient_id",
    "side",
    "frames",
    "frame_labels",
    "trial_label",
)


def json_object(raw: bytes, where) -> dict:
    """The JSON object that the UTF-8 bytes `raw` hold. Anything else
    raises DataValidationError naming `where`, a file or one of its lines."""
    try:
        # The bytes are let go before the parse, so that a checkpoint read
        # as `json_object(fh.read(), path)` is not held twice over while it
        # parses (CPython 3.11 and later hand a call its arguments).
        text, raw = raw.decode("utf-8"), None
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # or nested too deep
        raise DataValidationError(f"{where}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataValidationError(
            f"{where}: must be a JSON object, got {type(obj).__name__}")
    return obj


def write_csv(path, rows) -> None:
    """Write `rows`, each a sequence of cells, to `path` as a UTF-8 CSV table
    with CRLF line endings: the one writer of the package's report tables."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _holds_bool(value) -> bool:
    """Whether a parsed JSON value is a boolean or a list nesting one. A
    list is checked by the set of its items' types, at C speed."""
    if not isinstance(value, list):
        return isinstance(value, bool)
    kinds = set(map(type, value))
    return bool in kinds or list in kinds and any(map(_holds_bool, value))


def json_numbers(value, what: str) -> np.ndarray:
    """`value`, a parsed JSON number or nested list of numbers, as an array.

    No dtype: JSON strings would convert to numbers, and must show as a
    non-numeric dtype instead. np.asarray turns a boolean among numbers into
    a number, so the lists are walked for one."""
    a = np.asarray(value)
    if a.dtype.kind not in "iuf":
        raise DataValidationError(
            f"{what} must hold only numbers, got {a.dtype} values")
    if _holds_bool(value):
        raise DataValidationError(f"{what} must hold only numbers, got a boolean")
    return a


def _frames(text, joints: int) -> np.ndarray:
    """The (L, joints, 2) float64 frames whose little-endian bytes the hex
    string `text` holds, as a read-only view of the decoded bytes."""
    if not isinstance(text, str):
        raise DataValidationError(
            f"frames must be a hex string of little-endian float64 bytes, got "
            f"a {type(text).__name__}; a file written before frames were hex "
            f"text must be regenerated with synth")
    try:
        raw = binascii.a2b_hex(text)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise DataValidationError(f"frames are not hex text: {exc}") from exc
    frame_bytes = joints * 2 * 8
    if len(raw) % frame_bytes:
        raise DataValidationError(
            f"frames hold {len(raw)} bytes, not a whole number of frames of "
            f"{joints} joints x 2 float64 coordinates ({frame_bytes} bytes)")
    return np.frombuffer(raw, "<f8").reshape(-1, joints, 2)


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
        frames = _frames(rec["frames"], layout.joint_count)
        labels = json_numbers(rec["frame_labels"], "frame_labels")
    except (ValueError, TypeError, OverflowError) as exc:
        raise bad(exc) from exc
    trial_label = rec["trial_label"]
    if type(trial_label) not in (int, float):
        raise bad(f"trial_label must be a number, got {trial_label!r}")
    length = frames.shape[0]
    if not 1 <= length <= t_max:
        raise bad(f"{length} frames; a trial needs 1 to t_max {t_max}")
    if not np.isfinite(frames).all():
        raise bad("non-finite coordinate")
    if labels.shape != (length,):
        raise bad(f"frame_labels length {labels.shape} does not match frame "
                  f"count {length}")
    if not ((labels == LABEL_COMPENSATORY) | (labels == LABEL_NORMAL)).all():
        raise bad("frame labels must be 0 or 1")
    if side not in SIDES:
        raise bad(f"side must be one of {SIDES}, got {side!r}")
    if trial_label != labels.min():
        raise bad(f"trial_label {rec['trial_label']!r} inconsistent with "
                  f"frame labels")
    return tid, pid, side, frames, labels.astype(np.int64)


def load_dataset(path) -> DatasetManifest:
    """The dataset in a file, parsed one line at a time, with validation
    errors that name the offending line."""
    # A record is one line of about 41 KB; read through the default 8 KB
    # buffer, the lines of a 12.4 MB file take 9-14 ms to split, and 2 ms
    # through a 1 MB one.
    with open(path, "rb", buffering=1 << 20) as fh:
        first = fh.readline()
        if not first:
            raise DataValidationError(f"{path}: empty dataset file")
        header = json_object(first, f"{path}:1")
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
            if type(header[key]) is not int:
                raise DataValidationError(
                    f"{path}:1: field {key!r} must be an integer, "
                    f"got {header[key]!r}"
                )
        if header["provenance"] != PROVENANCE:
            raise DataValidationError(
                f"{path}:1: provenance must be {PROVENANCE!r}, "
                f"got {header['provenance']!r}"
            )
        try:
            layout = JointLayout(joints=tuple(joints))
        except DataValidationError as exc:
            raise DataValidationError(f"{path}:1: field 'joints': {exc}") from exc
        found = []
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            rec = json_object(line, f"{path}:{lineno}")
            try:
                found.append(_trial_row(rec, layout, header["t_max"]))
            except DataValidationError as exc:
                raise DataValidationError(f"{path}:{lineno}: {exc}") from exc
    if not found:
        raise DataValidationError(f"{path}: no trials")
    try:
        return DatasetManifest.from_rows(found, header["t_max"], layout,
                                         header["seed"])
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc
