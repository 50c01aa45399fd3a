import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framescore.data import (
    DatasetManifest,
    FeatureTrial,
    JointLayout,
    KeypointTrial,
    extract_features,
    featurize,
    load_dataset,
    pad_trial,
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


class TestExtractFeatures:
    def test_displacement_definition(self):
        frames = np.full((6, 8, 2), 100.0)
        frames[:, :, 1] = 200.0
        frames[5, 3] = (103.0, 196.0)
        trial = KeypointTrial("t", "p", "affected", frames,
                             np.ones(6, dtype=np.int64), 1)
        ft = extract_features(trial, JointLayout())
        assert ft.features[5, 6] == 3.0
        assert ft.features[5, 7] == -4.0

    def test_first_row_is_zero(self):
        rng = np.random.default_rng(0)
        trial = make_trial(length=9, rng=rng)
        ft = extract_features(trial, JointLayout())
        assert np.all(ft.features[0] == 0.0)

    def test_constant_trajectory_all_zero(self):
        frames = np.full((7, 8, 2), 55.5)
        trial = KeypointTrial("t", "p", "affected", frames,
                             np.ones(7, dtype=np.int64), 1)
        ft = extract_features(trial, JointLayout())
        assert np.all(ft.features == 0.0)

    def test_labels_carried_through(self):
        trial = make_trial(length=5, comp_frames=(2,))
        ft = extract_features(trial, JointLayout())
        assert np.array_equal(ft.frame_labels, trial.frame_labels)
        assert ft.trial_label == 0

    @given(offset=st.floats(-1e4, 1e4, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_translation_invariance(self, offset):
        rng = np.random.default_rng(3)
        trial = make_trial(length=6, rng=rng)
        shifted = KeypointTrial(
            trial.trial_id, trial.patient_id, trial.side,
            trial.frames + offset, trial.frame_labels, trial.trial_label,
        )
        a = extract_features(trial, JointLayout()).features
        b = extract_features(shifted, JointLayout()).features
        assert np.allclose(a, b, atol=1e-9)

    def test_joint_count_mismatch(self):
        frames = np.zeros((4, 5, 2))
        trial = KeypointTrial("t", "p", "affected", frames,
                             np.ones(4, dtype=np.int64), 1)
        with pytest.raises(DataValidationError):
            extract_features(trial, JointLayout())

    def test_non_finite_rejected_at_construction(self):
        frames = np.zeros((4, 8, 2))
        frames[2, 1, 0] = np.nan
        with pytest.raises(DataValidationError):
            KeypointTrial("t", "p", "affected", frames,
                          np.ones(4, dtype=np.int64), 1)


class TestPadTrial:
    def test_pad_appends_zero_rows_and_normal_labels(self):
        rng = np.random.default_rng(1)
        ft = extract_features(make_trial(length=300, rng=rng), JointLayout())
        padded = pad_trial(ft, 394)
        assert padded.frame_count == 394
        assert np.all(padded.features[300:] == 0.0)
        assert np.all(padded.frame_labels[300:] == 1)
        assert int(padded.padded_mask.sum()) == 94

    def test_full_length_trial_unchanged(self):
        rng = np.random.default_rng(2)
        ft = extract_features(make_trial(length=12, rng=rng), JointLayout())
        assert pad_trial(ft, 12) is ft

    def test_too_long_rejected(self):
        ft = extract_features(make_trial(length=12), JointLayout())
        with pytest.raises(DataValidationError):
            pad_trial(ft, 11)

    def test_feature_trial_invariants_enforced(self):
        feats = np.zeros((5, 4))
        feats[4, 0] = 1.0  # nonzero in the padded zone
        with pytest.raises(DataValidationError):
            FeatureTrial("t", feats, 3, np.ones(5, dtype=np.int64), 1)
        feats = np.zeros((5, 4))
        feats[0, 0] = 1.0  # nonzero first row
        with pytest.raises(DataValidationError):
            FeatureTrial("t", feats, 5, np.ones(5, dtype=np.int64), 1)
        labels = np.ones(5, dtype=np.int64)
        labels[4] = 0  # compensatory label on a padded frame
        with pytest.raises(DataValidationError):
            FeatureTrial("t", np.zeros((5, 4)), 3, labels, 0)


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
        ftrials = featurize(m)
        comp = sum(int((ft.frame_labels == 0).sum()) for ft in ftrials)
        unpadded_normal = sum(
            int((ft.frame_labels[: ft.original_length] == 1).sum())
            for ft in ftrials
        )
        padded = sum(ft.frame_count - ft.original_length for ft in ftrials)
        assert comp + unpadded_normal + padded == len(m) * m.t_max

    def test_arrays_read_only(self, tiny_manifest):
        trial = tiny_manifest.trials[0]
        with pytest.raises(ValueError):
            trial.frames[0, 0, 0] = 1.0
        ft = featurize(tiny_manifest)[0]
        with pytest.raises(ValueError):
            ft.features[0, 0] = 1.0
