import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framescore.data import (
    DatasetManifest,
    LABEL_NORMAL,
    JointLayout,
    KeypointTrial,
    featurize,
    load_dataset,
    save_dataset,
    split_dataset,
)
from framescore.errors import DataValidationError
from tests.conftest import make_trial


class TestJointLayout:
    @pytest.mark.parametrize(
        "index,joint,coord",
        [
            (0, "Head", "x"),
            (2, "Neck", "x"),
            (5, "ShoulderRight", "y"),
            (6, "ElbowRight", "x"),
            (7, "ElbowRight", "y"),
            (8, "WristRight", "x"),
            (9, "WristRight", "y"),
            (10, "ShoulderLeft", "x"),
        ],
    )
    def test_default_feature_indices(self, index, joint, coord):
        assert JointLayout().feature_index(joint, coord) == index

    def test_feature_count_and_names(self):
        layout = JointLayout()
        assert layout.feature_count == 16
        names = layout.feature_names()
        assert names[0] == "HeadX"
        assert names[5] == "ShoulderRightY"
        assert len(names) == 16

    def test_formula_2j_plus_c(self):
        layout = JointLayout()
        for j, joint in enumerate(layout.joints):
            assert layout.feature_index(joint, "x") == 2 * j
            assert layout.feature_index(joint, "y") == 2 * j + 1

    def test_empty_layout_rejected(self):
        with pytest.raises(DataValidationError):
            JointLayout(joints=())


def featurize_one(trial, t_max=None):
    """Feature block of a one-trial manifest, t_max defaulting to its length."""
    return featurize(DatasetManifest(trials=(trial,), t_max=t_max or trial.length))


class TestExtractFeatures:
    """Displacement features of single trials, through featurize."""

    def test_displacement_definition(self):
        frames = np.full((6, 8, 2), 100.0)
        frames[:, :, 1] = 200.0
        frames[5, 3] = (103.0, 196.0)
        trial = KeypointTrial("t", "p", "affected", frames,
                             np.ones(6, dtype=np.int64), 1)
        fs = featurize_one(trial)
        assert fs.features[0, 5, 6] == 3.0
        assert fs.features[0, 5, 7] == -4.0

    def test_first_row_is_zero(self):
        rng = np.random.default_rng(0)
        trial = make_trial(length=9, rng=rng)
        fs = featurize_one(trial)
        assert np.all(fs.features[0, 0] == 0.0)

    def test_constant_trajectory_all_zero(self):
        frames = np.full((7, 8, 2), 55.5)
        trial = KeypointTrial("t", "p", "affected", frames,
                             np.ones(7, dtype=np.int64), 1)
        fs = featurize_one(trial)
        assert np.all(fs.features == 0.0)

    def test_labels_carried_through(self):
        trial = make_trial(length=5, comp_frames=(2,))
        fs = featurize_one(trial)
        assert np.array_equal(fs.frame_labels[0], trial.frame_labels)
        assert fs.trial_labels[0] == 0

    @given(offset=st.floats(-1e4, 1e4, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_translation_invariance(self, offset):
        rng = np.random.default_rng(3)
        trial = make_trial(length=6, rng=rng)
        shifted = KeypointTrial(
            trial.trial_id, trial.patient_id, trial.side,
            trial.frames + offset, trial.frame_labels, trial.trial_label,
        )
        a = featurize_one(trial).features
        b = featurize_one(shifted).features
        assert np.allclose(a, b, atol=1e-9)

    def test_joint_count_mismatch(self):
        frames = np.zeros((4, 5, 2))
        trial = KeypointTrial("t", "p", "affected", frames,
                             np.ones(4, dtype=np.int64), 1)
        with pytest.raises(DataValidationError):
            featurize_one(trial)

    def test_non_finite_rejected_at_construction(self):
        frames = np.zeros((4, 8, 2))
        frames[2, 1, 0] = np.nan
        with pytest.raises(DataValidationError):
            KeypointTrial("t", "p", "affected", frames,
                          np.ones(4, dtype=np.int64), 1)


class TestPadTrial:
    """Padding of trials shorter than t_max, through featurize."""

    def test_pad_appends_zero_rows_and_normal_labels(self):
        rng = np.random.default_rng(1)
        fs = featurize_one(make_trial(length=300, rng=rng), t_max=394)
        assert fs.features.shape[1] == 394
        assert np.all(fs.features[0, 300:] == 0.0)
        assert np.all(fs.frame_labels[0, 300:] == 1)
        assert int(fs.padded.sum()) == 94

    def test_full_length_trial_unchanged(self):
        rng = np.random.default_rng(2)
        trial = make_trial(length=12, rng=rng)
        fs = featurize_one(trial, t_max=12)
        assert np.array_equal(fs.features[0],
                              (trial.frames - trial.frames[0]).reshape(12, 16))
        assert not fs.padded.any()

    def test_too_long_rejected(self):
        with pytest.raises(DataValidationError):
            featurize_one(make_trial(length=12), t_max=11)


@st.composite
def manifests(draw):
    """Small manifests of random shape, lengths, coordinates and labels."""
    joints = draw(st.integers(1, 3))
    t_max = draw(st.integers(1, 8))
    lengths = draw(st.lists(st.integers(1, t_max), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    trials = []
    for i, length in enumerate(lengths):
        labels = rng.integers(0, 2, size=length)
        trials.append(KeypointTrial(
            f"t{i}", "p", "affected",
            rng.uniform(-1e3, 1e3, size=(length, joints, 2)),
            labels, int(labels.min()),
        ))
    layout = JointLayout(joints=tuple(f"J{j}" for j in range(joints)))
    return DatasetManifest(trials=tuple(trials), t_max=t_max, layout=layout)


class TestFeatureSet:
    @given(manifest=manifests())
    @settings(max_examples=60, deadline=None)
    def test_block_matches_trials_padding_and_is_read_only(self, manifest):
        fs = featurize(manifest)
        n, t_max, F = len(manifest), manifest.t_max, manifest.layout.feature_count
        assert fs.features.shape == (n, t_max, F)
        assert fs.frame_labels.shape == (n, t_max)
        assert fs.trial_ids == tuple(t.trial_id for t in manifest.trials)
        assert fs.lengths.tolist() == [t.length for t in manifest.trials]
        assert fs.trial_labels.tolist() == [t.trial_label for t in manifest.trials]
        for i, t in enumerate(manifest.trials):
            L = t.length
            assert np.array_equal(fs.features[i, :L],
                                  (t.frames - t.frames[0]).reshape(L, F))
            assert np.array_equal(fs.frame_labels[i, :L], t.frame_labels)
            assert np.all(fs.features[i, L:] == 0.0)
            assert np.all(fs.frame_labels[i, L:] == LABEL_NORMAL)
        assert np.array_equal(fs.padded,
                              np.arange(t_max) >= fs.lengths[:, None])
        for a in (fs.features, fs.frame_labels, fs.lengths, fs.trial_labels):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            fs.features[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            fs.frame_labels[0, 0] = 0


class TestSplit:
    def test_80_20(self, tiny_manifest):
        trials = [make_trial(f"t{i}", length=4) for i in range(10)]
        manifest = DatasetManifest(trials=tuple(trials), t_max=5)
        train, test = split_dataset(manifest, 0.8, seed=0)
        assert (len(train), len(test)) == (8, 2)

    def test_even_split_of_two(self):
        trials = [make_trial(f"t{i}", length=4) for i in range(2)]
        manifest = DatasetManifest(trials=tuple(trials), t_max=5)
        train, test = split_dataset(manifest, 0.5, seed=3)
        assert (len(train), len(test)) == (1, 1)

    def test_disjoint_and_exhaustive(self, tiny_manifest):
        train, test = split_dataset(tiny_manifest, 0.5, seed=1)
        train_ids = {t.trial_id for t in train.trials}
        test_ids = {t.trial_id for t in test.trials}
        assert not train_ids & test_ids
        assert train_ids | test_ids == {t.trial_id for t in tiny_manifest.trials}

    def test_deterministic(self, tiny_manifest):
        a = split_dataset(tiny_manifest, 0.5, seed=9)
        b = split_dataset(tiny_manifest, 0.5, seed=9)
        assert [t.trial_id for t in a[0].trials] == [t.trial_id for t in b[0].trials]
        assert [t.trial_id for t in a[1].trials] == [t.trial_id for t in b[1].trials]

    def test_empty_dataset_rejected(self):
        manifest = DatasetManifest(trials=(), t_max=5)
        with pytest.raises(DataValidationError):
            split_dataset(manifest, 0.5, seed=0)

    @pytest.mark.parametrize("fraction, counts", [(0.1, "0 train / 3 test"),
                                                  (0.9, "3 train / 0 test")])
    def test_empty_side_rejected(self, tiny_manifest, fraction, counts):
        with pytest.raises(DataValidationError, match=counts):
            split_dataset(tiny_manifest, fraction, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, -0.2, 1.5])
    def test_fraction_bounds(self, tiny_manifest, fraction):
        with pytest.raises(DataValidationError):
            split_dataset(tiny_manifest, fraction, seed=0)


class TestDatasetIO:
    def test_round_trip(self, tiny_manifest, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(tiny_manifest, path)
        loaded = load_dataset(path)
        assert loaded.t_max == tiny_manifest.t_max
        assert loaded.layout == tiny_manifest.layout
        assert loaded.provenance == tiny_manifest.provenance
        assert loaded.seed == tiny_manifest.seed
        assert len(loaded) == len(tiny_manifest)
        for a, b in zip(loaded.trials, tiny_manifest.trials):
            assert a.trial_id == b.trial_id
            assert a.patient_id == b.patient_id
            assert a.side == b.side
            assert np.array_equal(a.frames, b.frames)
            assert np.array_equal(a.frame_labels, b.frame_labels)
            assert a.trial_label == b.trial_label

    def test_missing_field_names_line(self, tiny_manifest, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(tiny_manifest, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        del record["frame_labels"]
        lines[2] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError, match=r":3.*frame_labels"):
            load_dataset(path)

    def test_label_length_mismatch_names_line(self, tiny_manifest, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(tiny_manifest, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[1])
        record["frame_labels"] = record["frame_labels"][:-1]
        lines[1] = json.dumps(record)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError, match=r":2"):
            load_dataset(path)

    def test_invalid_json_line(self, tiny_manifest, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(tiny_manifest, path)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(DataValidationError, match=r":5"):
            load_dataset(path)


class TestInvariants:
    def test_trial_label_consistency_enforced(self):
        with pytest.raises(DataValidationError):
            KeypointTrial("t", "p", "affected", np.zeros((3, 8, 2)),
                          np.array([1, 0, 1]), 1)

    def test_labels_binary(self):
        with pytest.raises(DataValidationError):
            KeypointTrial("t", "p", "affected", np.zeros((3, 8, 2)),
                          np.array([1, 2, 1]), 1)

    def test_duplicate_trial_ids_rejected(self):
        trials = (make_trial("same"), make_trial("same"))
        with pytest.raises(DataValidationError):
            DatasetManifest(trials=trials, t_max=10)

    def test_too_long_trial_rejected_by_manifest(self):
        with pytest.raises(DataValidationError):
            DatasetManifest(trials=(make_trial(length=11),), t_max=10)

    def test_bookkeeping_identity(self, small_synth_manifest):
        m = small_synth_manifest
        fs = featurize(m)
        comp = int((fs.frame_labels == 0).sum())
        unpadded_normal = int(((fs.frame_labels == 1) & ~fs.padded).sum())
        padded = int(fs.padded.sum())
        assert padded == len(m) * m.t_max - sum(t.length for t in m.trials)
        assert comp + unpadded_normal + padded == len(m) * m.t_max

    def test_arrays_read_only(self, tiny_manifest):
        trial = tiny_manifest.trials[0]
        with pytest.raises(ValueError):
            trial.frames[0, 0, 0] = 1.0
        fs = featurize(tiny_manifest)
        with pytest.raises(ValueError):
            fs.features[0, 0, 0] = 1.0
