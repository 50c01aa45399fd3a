import numpy as np
import pytest

from framescore.data import (
    SIDES,
    JointLayout,
    featurize,
    random_stream,
    save_dataset,
)
from framescore.errors import DataValidationError
from framescore.synth import (
    SynthConfig,
    generate_dataset,
    generate_trial,
    load_synth_config,
)
from tests.conftest import make_manifest

FEATURES = JointLayout().feature_names()


def feature_index(joint, coord):
    """Column of a joint coordinate in the feature block."""
    return FEATURES.index(joint + coord.upper())


def trial_features(trial):
    """(frames, features) displacement block of one unpadded trial."""
    return featurize(make_manifest(trial))[0]


def comp_channel_indices(side):
    """Feature indices the compensation overlay writes to."""
    if side == "affected":
        joints = [("Head", "x"), ("Neck", "x"), ("ShoulderLeft", "x"),
                  ("ShoulderRight", "y")]
    else:
        joints = [("Head", "x"), ("Neck", "x"), ("ShoulderRight", "x"),
                  ("ShoulderLeft", "y")]
    return [feature_index(j, c) for j, c in joints]


def quiet_channel_indices(side):
    """Head/neck/contralateral-shoulder channels, untouched without overlay."""
    contra = "ShoulderLeft" if side == "affected" else "ShoulderRight"
    out = []
    for joint in ("Head", "Neck", contra):
        out.append(feature_index(joint, "x"))
        out.append(feature_index(joint, "y"))
    return out


class TestConfig:
    def test_defaults(self):
        config = SynthConfig()
        assert config.patient_count == 15
        assert config.trials_per_patient_per_side == 10
        assert config.length_range == (120, 200)
        assert config.t_max == 394

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trials_per_patient_per_side": 0},
            {"patient_count": 0},
            {"compensation_probability_affected": 1.5},
            {"compensation_probability_unaffected": -0.1},
            {"length_range": (0, 10)},
            {"length_range": (50, 20)},
            {"length_range": (10, 500)},
            {"compensation_coverage_range": (0.9, 0.2)},
            {"compensation_coverage_range": (-0.1, 0.5)},
            {"noise_std": -1.0},
            {"compensation_amplitude": -5.0},
            {"seed": -1},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(DataValidationError):
            SynthConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": "a"},
            {"patient_count": 1.5},
            {"t_max": True},
            {"length_range": (10.5, 20)},
            {"length_range": (10,)},
            {"noise_std": "1"},
            {"compensation_amplitude": False},
            {"compensation_coverage_range": (0.5, None)},
            {"noise_std": float("nan")},
            {"motion_amplitude": float("inf")},
        ],
    )
    def test_wrong_field_types_rejected(self, kwargs):
        with pytest.raises(DataValidationError, match=next(iter(kwargs))):
            SynthConfig(**kwargs)

    def test_config_file_huge_integer_seed_accepted(self, tmp_path):
        path = tmp_path / "synth.json"
        path.write_text('{"seed": ' + "9" * 400 + "}")
        assert load_synth_config(path).seed == int("9" * 400)

    def test_numeric_fields_accept_ints_and_numpy_scalars(self):
        config = SynthConfig(noise_std=2, seed=np.int64(3),
                             compensation_coverage_range=[0, np.float64(1)])
        assert config.compensation_coverage_range == (0, 1.0)

    def test_config_file_round_trip(self, tmp_path):
        path = tmp_path / "synth.json"
        path.write_text('{"patient_count": 4, "seed": 11}')
        config = load_synth_config(path)
        assert config.patient_count == 4
        assert config.seed == 11
        assert config.trials_per_patient_per_side == 10

    def test_config_file_unknown_field(self, tmp_path):
        path = tmp_path / "synth.json"
        path.write_text('{"patient": 4}')
        with pytest.raises(DataValidationError):
            load_synth_config(path)


class TestGenerateTrial:
    def test_no_compensation_means_all_normal(self):
        config = SynthConfig(
            compensation_probability_affected=0.0,
            compensation_probability_unaffected=0.0,
        )
        *_, labels = generate_trial(config, "P00", "affected",
                                    random_stream(0, 0, 0, 0))
        assert labels.min() == 1
        assert np.all(labels == 1)

    def test_full_coverage_labels_every_frame(self):
        config = SynthConfig(
            compensation_probability_affected=1.0,
            compensation_coverage_range=(1.0, 1.0),
        )
        *_, labels = generate_trial(config, "P00", "affected",
                                    random_stream(0, 0, 0, 0))
        assert np.all(labels == 0)
        assert labels.min() == 0

    def test_length_in_range(self):
        config = SynthConfig(length_range=(50, 60), t_max=100)
        for k in range(5):
            *_, frames, labels = generate_trial(
                config, "P00", "affected", random_stream(3, 0, 0, k),
                trial_index=k)
            assert 50 <= len(frames) == len(labels) <= 60

    def test_compensatory_segment_is_contiguous(self):
        config = SynthConfig(compensation_probability_affected=1.0)
        for k in range(8):
            *_, labels = generate_trial(config, "P00", "affected",
                                        random_stream(1, 0, 0, k),
                                        trial_index=k)
            comp = np.flatnonzero(labels == 0)
            assert len(comp) >= 1
            assert np.all(np.diff(comp) == 1)

    @pytest.mark.parametrize("side", ["affected", "unaffected"])
    def test_quiet_channels_noise_only_without_compensation(self, side):
        config = SynthConfig(
            compensation_probability_affected=0.0,
            compensation_probability_unaffected=0.0,
            noise_std=1.0,
        )
        trial = generate_trial(config, "P00", side,
                               random_stream(2, 0, SIDES.index(side), 0))
        feats = trial_features(trial)
        quiet = feats[:, quiet_channel_indices(side)]
        # displacement noise has std sqrt(2) * noise_std; a 5-sigma bound
        assert np.abs(quiet).max() < 5 * np.sqrt(2) * config.noise_std

    @pytest.mark.parametrize("side", ["affected", "unaffected"])
    def test_overlay_channels_exceed_five_noise_std(self, side):
        config = SynthConfig(
            compensation_probability_affected=1.0,
            compensation_probability_unaffected=1.0,
            compensation_coverage_range=(0.6, 0.6),
        )
        trial = generate_trial(config, "P00", side,
                               random_stream(4, 0, SIDES.index(side), 0))
        feats = trial_features(trial)
        comp = np.flatnonzero(trial[4] == 0)
        center = comp[len(comp) // 2]
        for f in comp_channel_indices(side):
            assert abs(feats[center, f]) > 5 * config.noise_std

    def test_unknown_side_rejected(self):
        with pytest.raises(DataValidationError):
            generate_trial(SynthConfig(), "P00", "left",
                           random_stream(0, 0, 0, 0))


class TestGenerateDataset:
    def test_default_trial_count(self):
        manifest = generate_dataset(SynthConfig(seed=0))
        assert len(manifest) == 300

    def test_mean_length_near_160(self):
        manifest = generate_dataset(SynthConfig(seed=0))
        mean_length = np.mean(manifest.lengths)
        assert 150 <= mean_length <= 170

    def test_aggregate_label_statistics(self):
        manifest = generate_dataset(SynthConfig(seed=0))
        comp_trials = manifest.trial_labels == 0
        assert 0.2 <= comp_trials.sum() / len(manifest) <= 0.35
        unpadded = manifest.lengths.sum()
        comp_frames = (manifest.frame_labels == 0).sum()
        assert 0.15 <= comp_frames / unpadded <= 0.30
        comp_unpadded = manifest.lengths[comp_trials].sum()
        comp_comp = (manifest.frame_labels[comp_trials] == 0).sum()
        assert 0.55 <= comp_comp / comp_unpadded <= 0.75

    def test_unaffected_side_never_compensates_by_default(self):
        manifest = generate_dataset(SynthConfig(seed=0))
        for side, trial_label in zip(manifest.sides, manifest.trial_labels):
            if side == "unaffected":
                assert trial_label == 1

    def test_seed_determinism_bytes(self, tmp_path):
        config = SynthConfig(patient_count=2, trials_per_patient_per_side=2,
                             length_range=(20, 30), t_max=40, seed=7)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(generate_dataset(config), a)
        save_dataset(generate_dataset(config), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        config = SynthConfig(patient_count=1, trials_per_patient_per_side=1,
                             length_range=(20, 30), t_max=40)
        a = generate_dataset(config)
        b = generate_dataset(SynthConfig(
            patient_count=1, trials_per_patient_per_side=1,
            length_range=(20, 30), t_max=40, seed=123))
        assert not np.array_equal(a.frames[0], b.frames[0])

    def test_trial_substreams_independent_of_iteration(self):
        """A trial regenerated from its keyed substream matches the dataset."""
        config = SynthConfig(patient_count=2, trials_per_patient_per_side=3,
                             length_range=(20, 30), t_max=40, seed=9)
        manifest = generate_dataset(config)
        target = 4  # P00, unaffected, index 1
        trial_id, _, _, frames, labels = generate_trial(
            config, "P00", "unaffected", random_stream(9, 0, 1, 1),
            trial_index=1)
        assert trial_id == manifest.trial_ids[target]
        assert np.array_equal(frames, manifest.frames[target])
        assert np.array_equal(labels, manifest.frame_labels[target, :len(labels)])
