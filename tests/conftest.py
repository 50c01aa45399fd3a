import json

import numpy as np
import pytest

from framescore import network
from framescore.data import DatasetManifest, JointLayout, save_dataset
from framescore.synth import SynthConfig, generate_dataset


def make_trial(trial_id="t0", patient_id="P00", side="affected", length=6,
               joints=8, comp_frames=(), base=100.0, rng=None):
    """Hand-built (trial_id, patient_id, side, frames, frame_labels) row
    with optional compensatory frames."""
    if rng is None:
        frames = np.full((length, joints, 2), base)
        frames += np.arange(length)[:, None, None]
    else:
        frames = base + rng.normal(0, 5.0, size=(length, joints, 2))
    labels = np.ones(length, dtype=np.int64)
    for t in comp_frames:
        labels[t] = 0
    return trial_id, patient_id, side, frames, labels


def make_manifest(*trials, t_max=None, layout=None):
    """Manifest of hand-built rows; t_max defaults to the longest trial."""
    t_max = t_max or max(len(t[3]) for t in trials)
    return DatasetManifest.from_rows(trials, t_max, layout or JointLayout())


def initial_model(architecture, rng, scaler):
    """The model training starts from: its initial draw, with the live
    first-layer rows filled in and +0.0 in the dead ones."""
    model, W0, _ = network._init_layers(architecture, rng, scaler)
    model.weights[0][scaler.live_mask] = W0
    return model


def edit_frames(record, edit, joints=8):
    """Decode a trial record's `frames`, hex text of little-endian float64
    bytes, to a writable (L, joints, 2) array; apply `edit`, which changes
    the array in place or returns a new one; and store the result as hex
    text again. Returns the record."""
    frames = np.frombuffer(bytes.fromhex(record["frames"]), "<f8")
    frames = frames.reshape(-1, joints, 2).copy()
    edited = edit(frames)
    record["frames"] = np.asarray(frames if edited is None else edited,
                                  "<f8").tobytes().hex()
    return record


def edit_lines(path, edits):
    """Rewrite trial records of a saved dataset file: `edits` maps a line
    number (line 2 is the first record) to a function that changes that
    line's record in place."""
    lines = path.read_text().splitlines()
    for line, edit in edits.items():
        record = json.loads(lines[line - 1])
        edit(record)
        lines[line - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    return path


def edit_dataset(manifest, path, edit, line=2):
    """Save the manifest, then rewrite one trial record of the file with
    `edit(record)`, which changes it in place."""
    save_dataset(manifest, path)
    return edit_lines(path, {line: edit})


@pytest.fixture
def tiny_manifest():
    rng = np.random.default_rng(7)
    return make_manifest(
        make_trial("t0", "P00", "affected", length=5, comp_frames=(1, 2), rng=rng),
        make_trial("t1", "P00", "unaffected", length=8, rng=rng),
        make_trial("t2", "P01", "affected", length=10, comp_frames=(9,), rng=rng),
        t_max=10,
    )


@pytest.fixture(scope="session")
def small_synth_manifest():
    config = SynthConfig(
        patient_count=3,
        trials_per_patient_per_side=2,
        length_range=(20, 30),
        compensation_probability_affected=1.0,
        t_max=40,
        seed=5,
    )
    return generate_dataset(config)
