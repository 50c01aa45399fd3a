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

A dataset file is one JSON header line and one JSON record per trial.
`json_object` parses each line, and every other JSON input of the package
too (the sidecar's header, the checkpoint, the grid file and the synth
config), with errors that name the file or line. `write_csv` writes every
report table.
`load_dataset` reads the records in one process. One helper writes the
dataset file and both `saliency` score files: with two usable CPUs, a forked
child encodes the second half of the records or rows, copied in after the
first. The bytes are the same either way, and only the CPU count decides.

`save_dataset` also writes a binary sidecar next to the file, named
`<dataset path>.npz`: the frames of all trials concatenated into one
(sum of lengths, joints, 2) float64 array, the lengths, the frame-label
block, and a JSON header text with t_max, the joints, the seed, the trial
ids, the patient ids, the sides and a fingerprint of the file's bytes.
`load_dataset` trusts the sidecar only when its fingerprint matches the
file and its columns pass the same checks the record parser makes; in any
other case it parses the file. The JSONL file stays the source of truth:
the sidecar may be deleted at any time, and only `save_dataset` (that is,
`synth`) writes it.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import signal
import tokenize
import warnings
import zipfile
import zlib
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
) -> tuple[np.ndarray, np.ndarray]:
    """Trial-level split as sorted (train, test) row indices, fixed by seed."""
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
    return np.sort(perm[:n_train]), np.sort(perm[n_train:])


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # macOS; Windows, which has no os.fork either
        return 1


def _write_halves(fh, count: int, encode) -> None:
    """Write `encode(0, count)`, an iterable of bytes, to the binary file
    `fh`. With count > 1 and two usable CPUs, a forked child encodes
    `encode(mid, count)` while this process writes `encode(0, mid)`, and its
    bytes follow, so the two halves must join to the same bytes. A child
    that dies or exits non-zero raises ChildProcessError."""
    pid = None
    if count > 1 and _usable_cpus() > 1:
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
    mid = count if pid is None else count // 2
    if pid == 0:
        # The child encodes its whole half before writing, or it would
        # stall on the full pipe until the parent's half was written.
        # It leaves only through os._exit, so no exit handler or test
        # runner of the parent runs twice.
        code = 1
        try:
            os.close(r)
            chunks = list(encode(mid, count))
            with os.fdopen(w, "wb") as out:
                out.writelines(chunks)
            code = 0
        finally:
            os._exit(code)
    if pid is not None:
        os.close(w)
        child = os.fdopen(r, "rb")
    try:
        fh.writelines(encode(0, mid))
        if pid is not None:
            shutil.copyfileobj(child, fh)
    except BaseException:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if pid is not None:
            child.close()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if pid is not None and code:
        how = f"signal {-code}" if code < 0 else f"status {code}"
        raise ChildProcessError(f"{fh.name}: worker process ended with {how}")


def save_dataset(manifest: DatasetManifest, path) -> None:
    """Write one header line plus one JSON record per trial, then the
    binary sidecar of the file."""
    m = manifest
    trial_labels = m.trial_labels.tolist()

    def records(lo: int, hi: int) -> list[bytes]:
        return [
            (json.dumps({
                "trial_id": m.trial_ids[i],
                "patient_id": m.patient_ids[i],
                "side": m.sides[i],
                "frames": m.frames[i].tolist(),
                "frame_labels": m.frame_labels[i, : len(m.frames[i])].tolist(),
                "trial_label": trial_labels[i],
            }) + "\n").encode("utf-8")
            for i in range(lo, hi)
        ]

    header = {
        "t_max": m.t_max,
        "joints": list(m.layout.joints),
        "provenance": PROVENANCE,
        "seed": m.seed,
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("utf-8"))
        _write_halves(fh, len(m), records)
    _save_sidecar(m, path)


def _fingerprint(path) -> list[int]:
    """[byte length, CRC-32] of a file, read 1 MB at a time.

    Not a cryptographic hash, on purpose: whoever can edit the dataset file
    can rewrite the sidecar next to it, and its sha256 as easily, so a hash
    would protect nothing more. The fingerprint catches a sidecar gone stale
    after the file was edited or replaced, and CRC-32 does that without
    loading OpenSSL (hashlib adds about 3.5 MB of peak RSS to every stage).
    """
    size = crc = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            size += len(chunk)
            crc = zlib.crc32(chunk, crc)
    return [size, crc]


def sidecar_path(path) -> str:
    """The path of the binary sidecar of the dataset file `path`."""
    return f"{path}.npz"


def _save_sidecar(m: DatasetManifest, path) -> None:
    """Write the sidecar of the dataset file `path`, just saved from `m`.

    The string columns go into the JSON header text, not into numpy string
    arrays, which drop trailing NUL characters.
    """
    header = {
        "fingerprint": _fingerprint(path),
        "t_max": m.t_max,
        "joints": list(m.layout.joints),
        "seed": m.seed,
        "trial_ids": list(m.trial_ids),
        "patient_ids": list(m.patient_ids),
        "sides": list(m.sides),
    }
    empty = np.empty((0, m.layout.joint_count, 2))
    with open(sidecar_path(path), "wb") as fh:
        np.savez(fh,
                 header=np.frombuffer(json.dumps(header).encode(), np.uint8),
                 frames=np.concatenate(m.frames or (empty,)),
                 lengths=m.lengths, frame_labels=m.frame_labels)


# What reading a missing, stale or damaged sidecar raises. zipfile reports
# damaged headers as EOFError, or as NotImplementedError and RuntimeError
# (a compression method or an encryption flag it does not support). numpy
# retries an array header that does not parse through tokenize, which
# raises TokenError on unbalanced brackets. The members are read with
# warnings raised as errors (a header that numpy takes for one written on
# Python 2 warns), so a damaged sidecar falls back without a word.
_UNTRUSTED = (OSError, ValueError, KeyError, TypeError, EOFError,
              RuntimeError, zipfile.BadZipFile, tokenize.TokenError, Warning)


def _sidecar_manifest(path) -> DatasetManifest:
    """The manifest held by the sidecar of the dataset file `path`.

    Raises one of `_UNTRUSTED` unless the sidecar exists, matches the
    file's fingerprint, opens without pickles and holds columns that the
    record parser would accept from the file.
    """
    with zipfile.ZipFile(sidecar_path(path)) as z:
        def member(name: str) -> np.ndarray:
            if z.getinfo(name + ".npy").compress_type != zipfile.ZIP_STORED:
                raise ValueError(f"compressed sidecar member {name!r}")
            with z.open(name + ".npy") as fh, warnings.catch_warnings():
                warnings.simplefilter("error")
                return np.lib.format.read_array(fh, allow_pickle=False)

        header = json_object(member("header").tobytes(), sidecar_path(path))
        if header["fingerprint"] != _fingerprint(path):
            raise ValueError("stale sidecar")
        frames, lengths, labels = map(member,
                                      ("frames", "lengths", "frame_labels"))
    t_max, seed = header["t_max"], header["seed"]
    joints, ids, patients, sides = (header[k] for k in (
        "joints", "trial_ids", "patient_ids", "sides"))
    layout = JointLayout(tuple(joints))
    n = len(ids)
    if not (
        type(t_max) is int and type(seed) is int
        and all(type(c) is list for c in (joints, ids, patients, sides))
        and all(type(s) is str for s in (*joints, *ids, *patients))
        and set(sides) <= set(SIDES)
        and frames.dtype == np.float64
        and lengths.dtype == labels.dtype == np.int64
        and frames.ndim == 3 and frames.shape[1:] == (layout.joint_count, 2)
        and n > 0 and lengths.shape == (n,) and labels.shape == (n, t_max)
        and 1 <= lengths.min() and lengths.max() <= t_max
        and lengths.sum() == len(frames)
        and np.isfinite(frames).all()
        and ((labels == LABEL_COMPENSATORY) | (labels == LABEL_NORMAL)).all()
        and (labels[np.arange(t_max) >= lengths[:, None]] == LABEL_NORMAL).all()
    ):
        raise ValueError("sidecar fails its checks")
    frames = np.split(_readonly(frames), np.cumsum(lengths)[:-1])
    return DatasetManifest(ids, patients, sides, frames, labels, layout, seed)


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


def json_numbers(value, what: str, booleans: bool = True) -> np.ndarray:
    """`value`, a parsed JSON number or nested list of numbers, as an array.

    No dtype: JSON strings would convert to numbers, and must show as a
    non-numeric dtype instead. np.asarray turns a boolean among numbers into
    a number, so the lists are walked for one unless `booleans` is False,
    which says that the JSON text holds no `true` or `false`."""
    a = np.asarray(value)
    if a.dtype.kind not in "iuf":
        raise DataValidationError(
            f"{what} must hold only numbers, got {a.dtype} values")
    if booleans and _holds_bool(value):
        raise DataValidationError(f"{what} must hold only numbers, got a boolean")
    return a


def _trial_row(rec: dict, layout: JointLayout, t_max: int,
               booleans: bool = True) -> tuple:
    """The (trial_id, patient_id, side, frames, frame_labels) row of one
    parsed trial record, after checking every field against the header.
    `booleans=False` says the record's line holds no `true` or `false`,
    which spares walking its number lists for one."""
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
        frames, labels = (json_numbers(rec[name], name, booleans)
                          for name in ("frames", "frame_labels"))
    except (ValueError, TypeError, OverflowError) as exc:
        raise bad(exc) from exc
    trial_label = rec["trial_label"]
    if type(trial_label) not in (int, float):
        raise bad(f"trial_label must be a number, got {trial_label!r}")
    if frames.ndim != 3 or frames.shape[1:] != (layout.joint_count, 2):
        raise bad(f"frames must have shape (L, {layout.joint_count}, 2), "
                  f"got {frames.shape}")
    length = frames.shape[0]
    if not 1 <= length <= t_max:
        raise bad(f"{length} frames; a trial needs 1 to t_max {t_max}")
    frames = frames.astype(np.float64, copy=False)
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
    """The dataset in a file: from its sidecar when that is trusted, else
    parsed one line at a time, with validation errors that name the
    offending line."""
    try:
        return _sidecar_manifest(path)
    except _UNTRUSTED:
        pass

    with open(path, "rb") as fh:
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
                found.append(_trial_row(rec, layout, header["t_max"],
                                        b"true" in line or b"false" in line))
            except DataValidationError as exc:
                raise DataValidationError(f"{path}:{lineno}: {exc}") from exc
    if not found:
        raise DataValidationError(f"{path}: no trials")
    try:
        return DatasetManifest.from_rows(found, header["t_max"], layout,
                                         header["seed"])
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from exc
