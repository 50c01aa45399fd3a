import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framescore import data
from framescore.cli import main
from framescore.data import (
    DatasetManifest,
    LABEL_NORMAL,
    JointLayout,
    featurize,
    load_dataset,
    save_dataset,
    split_dataset,
)
from framescore.errors import DataValidationError
from tests.conftest import (edit_dataset, edit_frames, edit_lines,
                            make_manifest, make_trial)


def moved_column(layout, joint, coord):
    """The one feature column that moving one joint coordinate changes."""
    frames = np.zeros((2, layout.joint_count, 2))
    frames[1, layout.joints.index(joint), "xy".index(coord)] = 1.0
    manifest = make_manifest(("t", "P", "affected", frames, np.ones(2)),
                             layout=layout)
    return int(np.flatnonzero(featurize(manifest)[0, 1]).item())


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
        layout = JointLayout()
        assert layout.feature_names()[index] == joint + coord.upper()
        assert moved_column(layout, joint, coord) == index

    def test_feature_count_and_names(self):
        layout = JointLayout()
        assert layout.feature_count == 16
        names = layout.feature_names()
        assert names[0] == "HeadX"
        assert names[5] == "ShoulderRightY"
        assert len(names) == 16

    def test_formula_2j_plus_c(self):
        layout = JointLayout()
        names = layout.feature_names()
        for j, joint in enumerate(layout.joints):
            assert names[2 * j : 2 * j + 2] == [joint + "X", joint + "Y"]
            assert moved_column(layout, joint, "x") == 2 * j
            assert moved_column(layout, joint, "y") == 2 * j + 1

    def test_empty_layout_rejected(self):
        with pytest.raises(DataValidationError):
            JointLayout(joints=())


def featurize_one(trial, t_max=None):
    """Feature block of a one-trial manifest, t_max defaulting to its length."""
    return featurize(make_manifest(trial, t_max=t_max))


class TestExtractFeatures:
    """Displacement features of single trials, through featurize."""

    def test_displacement_definition(self):
        frames = np.full((6, 8, 2), 100.0)
        frames[:, :, 1] = 200.0
        frames[5, 3] = (103.0, 196.0)
        X = featurize_one(("t", "p", "affected", frames,
                           np.ones(6, dtype=np.int64)))
        assert X[0, 5, 6] == 3.0
        assert X[0, 5, 7] == -4.0

    def test_first_row_is_zero(self):
        rng = np.random.default_rng(0)
        X = featurize_one(make_trial(length=9, rng=rng))
        assert np.all(X[0, 0] == 0.0)

    def test_constant_trajectory_all_zero(self):
        frames = np.full((7, 8, 2), 55.5)
        X = featurize_one(("t", "p", "affected", frames,
                           np.ones(7, dtype=np.int64)))
        assert np.all(X == 0.0)

    def test_labels_carried_through(self):
        trial = make_trial(length=5, comp_frames=(2,))
        manifest = make_manifest(trial)
        assert np.array_equal(manifest.frame_labels[0], trial[4])
        assert manifest.trial_labels[0] == 0

    @given(offset=st.floats(-1e4, 1e4, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_translation_invariance(self, offset):
        rng = np.random.default_rng(3)
        trial = make_trial(length=6, rng=rng)
        shifted = (*trial[:3], trial[3] + offset, trial[4])
        a = featurize_one(trial)
        b = featurize_one(shifted)
        assert np.allclose(a, b, atol=1e-9)

    def test_joint_count_mismatch(self, tmp_path):
        # 6 frames of 5 joints are 480 bytes: 3.75 frames of 8 joints.
        def five_joints(record):
            edit_frames(record, lambda frames: frames[:, :5])

        path = edit_dataset(make_manifest(make_trial("t")),
                            tmp_path / "data.jsonl", five_joints)
        with pytest.raises(DataValidationError,
                           match=r":2: trial 't': frames hold 480 bytes, not a "
                                 r"whole number of frames of 8 joints"):
            load_dataset(path)

    def test_non_finite_rejected_at_construction(self, tmp_path):
        def nan(record):
            edit_frames(record, lambda frames: frames.__setitem__(
                (2, 1, 0), np.nan))

        path = edit_dataset(make_manifest(make_trial("t", length=4)),
                            tmp_path / "data.jsonl", nan)
        with pytest.raises(DataValidationError, match=r":2: trial 't'.*non-finite"):
            load_dataset(path)


class TestPadTrial:
    """Padding of trials shorter than t_max, through featurize."""

    def test_pad_appends_zero_rows_and_normal_labels(self):
        rng = np.random.default_rng(1)
        manifest = make_manifest(make_trial(length=300, rng=rng), t_max=394)
        X = featurize(manifest)
        assert X.shape[1] == 394
        assert np.all(X[0, 300:] == 0.0)
        assert np.all(manifest.frame_labels[0, 300:] == 1)
        assert int(manifest.padded.sum()) == 94

    def test_full_length_trial_unchanged(self):
        rng = np.random.default_rng(2)
        trial = make_trial(length=12, rng=rng)
        manifest = make_manifest(trial, t_max=12)
        assert np.array_equal(featurize(manifest)[0],
                              (trial[3] - trial[3][0]).reshape(12, 16))
        assert not manifest.padded.any()

    def test_too_long_rejected(self, tmp_path):
        def shrink_t_max(header):
            header["t_max"] = 11

        path = edit_dataset(make_manifest(make_trial("t", length=12)),
                            tmp_path / "data.jsonl", shrink_t_max, line=1)
        with pytest.raises(DataValidationError, match=r":2: trial 't': 12 frames"):
            load_dataset(path)


@st.composite
def manifests(draw):
    """Small manifests of random shape, lengths, coordinates, labels and
    sides, with the rows they were built from."""
    joints = draw(st.integers(1, 3))
    t_max = draw(st.integers(1, 8))
    lengths = draw(st.lists(st.integers(1, t_max), min_size=1, max_size=4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for i, length in enumerate(lengths):
        rows.append((
            f"t{i}", f"P{i % 2}", draw(st.sampled_from(("affected", "unaffected"))),
            rng.uniform(-1e3, 1e3, size=(length, joints, 2)),
            rng.integers(0, 2, size=length),
        ))
    layout = JointLayout(joints=tuple(f"J{j}" for j in range(joints)))
    seed = draw(st.integers(0, 2**63))
    return rows, DatasetManifest.from_rows(rows, t_max, layout, seed)


class TestFeatureSet:
    @given(built=manifests())
    @settings(max_examples=60, deadline=None)
    def test_block_matches_trials_padding_and_is_read_only(self, built):
        rows, manifest = built
        X = featurize(manifest)
        n, t_max, F = len(manifest), manifest.t_max, manifest.layout.feature_count
        assert X.shape == (n, t_max, F)
        assert manifest.frame_labels.shape == (n, t_max)
        assert manifest.trial_ids == tuple(r[0] for r in rows)
        assert manifest.lengths.tolist() == [len(r[3]) for r in rows]
        assert manifest.trial_labels.tolist() == [r[4].min() for r in rows]
        for i, (_, _, _, frames, labels) in enumerate(rows):
            L = len(frames)
            assert np.array_equal(X[i, :L], (frames - frames[0]).reshape(L, F))
            assert np.array_equal(manifest.frame_labels[i, :L], labels)
            assert np.all(X[i, L:] == 0.0)
            assert np.all(manifest.frame_labels[i, L:] == LABEL_NORMAL)
        assert np.array_equal(manifest.padded,
                              np.arange(t_max) >= manifest.lengths[:, None])
        for a in (X, manifest.frame_labels, manifest.lengths,
                  manifest.trial_labels, manifest.padded, *manifest.frames):
            assert not a.flags.writeable
        with pytest.raises(ValueError):
            X[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            manifest.frame_labels[0, 0] = 0


class TestRandomStream:
    @given(seed=st.integers(0, 2**70),
           key=st.lists(st.integers(0, 2**40), max_size=4).map(tuple))
    @settings(max_examples=50, deadline=None)
    def test_draws_as_its_seed_sequence(self, seed, key):
        def draws(rng):
            return rng.random(4).tolist(), rng.permutation(10).tolist()

        got = draws(data.random_stream(seed, *key))
        assert got == draws(np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=key)))
        if key == ():
            assert got == draws(np.random.default_rng(seed))

    @pytest.mark.parametrize("seed", [-1, -3, -2**70])
    def test_negative_seed_rejected(self, seed, tiny_manifest):
        for draw in (lambda: data.random_stream(seed, 0),
                     lambda: split_dataset(tiny_manifest, 0.5, seed)):
            with pytest.raises(DataValidationError,
                               match=rf"seed must be at least 0, got {seed}$"):
                draw()


class TestSplit:
    def test_80_20(self, tiny_manifest):
        manifest = make_manifest(
            *(make_trial(f"t{i}", length=4) for i in range(10)), t_max=5)
        train, test = split_dataset(manifest, 0.8, seed=0)
        assert (len(train), len(test)) == (8, 2)

    def test_even_split_of_two(self):
        manifest = make_manifest(
            *(make_trial(f"t{i}", length=4) for i in range(2)), t_max=5)
        train, test = split_dataset(manifest, 0.5, seed=3)
        assert (len(train), len(test)) == (1, 1)

    def test_disjoint_and_exhaustive(self, tiny_manifest):
        train, test = split_dataset(tiny_manifest, 0.5, seed=1)
        for rows in (train, test):
            assert rows.dtype.kind == "i"
            assert np.all(np.diff(rows) > 0)
        assert not set(train.tolist()) & set(test.tolist())
        assert sorted([*train, *test]) == list(range(len(tiny_manifest)))

    def test_deterministic(self, tiny_manifest):
        a = split_dataset(tiny_manifest, 0.5, seed=9)
        b = split_dataset(tiny_manifest, 0.5, seed=9)
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_empty_dataset_rejected(self):
        manifest = DatasetManifest.from_rows([], t_max=5)
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


def assert_same_manifest(a, b):
    """Equal columns, with the frames compared bit for bit."""
    assert (a.trial_ids, a.patient_ids, a.sides) == \
        (b.trial_ids, b.patient_ids, b.sides)
    assert (a.t_max, a.layout, a.seed) == (b.t_max, b.layout, b.seed)
    for name in ("frame_labels", "lengths", "trial_labels", "padded"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y)
    assert len(a.frames) == len(b.frames)
    for x, y in zip(a.frames, b.frames):
        assert (x.dtype, x.shape) == (y.dtype, y.shape)
        assert x.tobytes() == y.tobytes()
        assert not x.flags.writeable


class TestDatasetIO:
    def test_round_trip(self, tiny_manifest, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(tiny_manifest, path)
        loaded = load_dataset(path)
        assert loaded.t_max == tiny_manifest.t_max
        assert loaded.layout == tiny_manifest.layout
        assert json.loads(path.read_text().splitlines()[0])["provenance"] \
            == "synthetic"
        assert loaded.seed == tiny_manifest.seed
        assert len(loaded) == len(tiny_manifest)
        assert loaded.trial_ids == tiny_manifest.trial_ids
        assert loaded.patient_ids == tiny_manifest.patient_ids
        assert loaded.sides == tiny_manifest.sides
        for a, b in zip(loaded.frames, tiny_manifest.frames):
            assert np.array_equal(a, b)
        assert np.array_equal(loaded.frame_labels, tiny_manifest.frame_labels)
        assert np.array_equal(loaded.trial_labels, tiny_manifest.trial_labels)

    @given(built=manifests())
    @settings(max_examples=40, deadline=None)
    def test_save_load_save_is_byte_identical(self, built):
        rows, manifest = built
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp, "a.jsonl"), Path(tmp, "b.jsonl")
            save_dataset(manifest, first)
            loaded = load_dataset(first)
            save_dataset(loaded, second)
            assert first.read_bytes() == second.read_bytes()
        X = featurize(loaded)
        for i, (_, _, _, frames, _) in enumerate(rows):
            L = len(frames)
            assert np.array_equal(X[i, :L], (frames - frames[0]).reshape(L, -1))
            assert np.all(X[i, L:] == 0.0)

    @given(built=manifests())
    @settings(max_examples=30, deadline=None)
    def test_random_manifests_round_trip(self, built):
        _, manifest = built
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "data.jsonl")
            save_dataset(manifest, path)
            assert_same_manifest(load_dataset(path), manifest)

    def test_string_columns_round_trip(self, tmp_path):
        ids = ("t\x00", "a,b", 'say "hi"', "\u00e9")
        manifest = make_manifest(*(
            make_trial(tid, f"P{tid}", side)
            for tid, side in zip(ids, ("affected", "unaffected") * 2)))
        path = tmp_path / "data.jsonl"
        save_dataset(manifest, path)
        loaded = load_dataset(path)
        assert loaded.trial_ids == ids
        assert loaded.patient_ids == tuple(f"P{tid}" for tid in ids)
        assert_same_manifest(loaded, manifest)

    def test_frames_are_hex_of_little_endian_float64(self, tiny_manifest,
                                                     tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(tiny_manifest, path)
        record = json.loads(path.read_text().splitlines()[1])
        assert record["frames"] == \
            tiny_manifest.frames[0].astype("<f8").tobytes().hex()

    # Trial 't' has 6 frames of 8 joints: 768 bytes, 1536 hex digits.
    @pytest.mark.parametrize("frames, message", [
        ([[[0.0, 0.0]] * 8] * 6,
         "frames must be a hex string of little-endian float64 bytes, got a "
         "list; a file written before frames were hex text must be "
         "regenerated with synth"),
        ("zz" * 768, "frames are not hex text: Non-hexadecimal digit found"),
        ("\u00e9" * 1536, "frames are not hex text: string argument should "
                         "contain only ASCII characters"),
        ("0" * 1535, "frames are not hex text: Odd-length string"),
        ("0" * 1520, "frames hold 760 bytes, not a whole number of frames of "
                     "8 joints x 2 float64 coordinates (128 bytes)"),
    ], ids=["list", "non-hex-character", "non-ascii", "odd-length",
            "not-whole-frames"])
    def test_frames_text_fault_names_line(self, tmp_path, frames, message):
        path = edit_dataset(make_manifest(make_trial("t")),
                            tmp_path / "data.jsonl",
                            lambda record: record.update(frames=frames))
        with pytest.raises(DataValidationError) as exc:
            load_dataset(path)
        assert str(exc.value) == f"{path}:2: trial 't': {message}"

    def test_read_commands_write_nothing_next_to_the_data(self, tmp_path):
        data_dir, out = tmp_path / "data", tmp_path / "out"
        data_dir.mkdir()
        out.mkdir()
        path = data_dir / "data.jsonl"
        assert main(["synth", "--out", str(path), "--seed", "5",
                     "--patient-count", "2", "--trials-per-patient-per-side",
                     "2", "--length-range", "8", "12", "--t-max", "12"]) == 0
        assert [p.name for p in data_dir.iterdir()] == ["data.jsonl"]
        (out / "grid.json").write_text(
            '{"hidden_layers": [[4]], "learning_rates": [0.001]}')
        before = path.read_bytes()
        model, scores = str(out / "model.json"), str(out / "scores.csv")
        for argv in (
            ["train", "--data", str(path), "--out", model, "--split", "0.5",
             "--grid", str(out / "grid.json"), "--epochs", "1"],
            ["explain", "--model", model, "--data", str(path), "--out", scores],
            ["sweep", "--scores", scores, "--data", str(path),
             "--out", str(out / "reports")],
        ):
            assert main(argv) == 0
            assert [p.name for p in data_dir.iterdir()] == ["data.jsonl"]
            assert path.read_bytes() == before

    def test_missing_field_names_line(self, tiny_manifest, tmp_path):
        path = edit_dataset(tiny_manifest, tmp_path / "data.jsonl",
                            lambda record: record.pop("frame_labels"), line=3)
        with pytest.raises(DataValidationError, match=r":3.*frame_labels"):
            load_dataset(path)

    def test_label_length_mismatch_names_line(self, tiny_manifest, tmp_path):
        path = edit_dataset(tiny_manifest, tmp_path / "data.jsonl",
                            lambda record: record["frame_labels"].pop())
        with pytest.raises(DataValidationError, match=r":2"):
            load_dataset(path)

    def test_invalid_json_line(self, tiny_manifest, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(tiny_manifest, path)
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(DataValidationError, match=r":5"):
            load_dataset(path)

    # Lines end at b"\n" only; blank lines are skipped but still counted.
    @pytest.mark.parametrize("edit, message", [
        (lambda b: b.replace(b"\n", b"\n\n", 1), r":4: trial 't1': side"),
        (lambda b: b.replace(b"\n", b"\n \r\n", 1), r":4: trial 't1': side"),
        (lambda b: b.replace(b'\n{"trial_id": "t1"', b'\r{"trial_id": "t1"'),
         r":2: invalid JSON"),
        (lambda b: b.replace(b'"t0"', b'"t\xff"'), r":2: invalid JSON"),
    ], ids=["blank-line", "whitespace-line", "lone-cr", "invalid-utf-8"])
    def test_line_numbers_count_newlines(self, tiny_manifest, tmp_path, edit,
                                         message):
        path = edit_dataset(tiny_manifest, tmp_path / "data.jsonl", bad_side,
                            line=3)
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(DataValidationError, match=message):
            load_dataset(path)

    def test_record_that_is_not_an_object_names_its_line(self, tiny_manifest,
                                                         tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(tiny_manifest, path)
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"[" + lines[2] + b"]"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(DataValidationError,
                           match=r":3: must be a JSON object, got list"):
            load_dataset(path)


class TestJsonObject:
    """json_object is the one JSON parse of the package."""

    def test_object(self):
        assert data.json_object('{"a": [1, "\u00e9"]}'.encode(), "f") == \
            {"a": [1, "\u00e9"]}

    @pytest.mark.parametrize("raw, message", [
        (b"[1]", "f.json: must be a JSON object, got list"),
        (b"null", "f.json: must be a JSON object, got NoneType"),
        (b"{", "f.json: invalid JSON: Expecting property name"),
        (b'{"a": "\xff"}', "f.json: invalid JSON: 'utf-8' codec"),
        (b"\xef\xbb\xbf{}", "f.json: invalid JSON: Unexpected UTF-8 BOM"),
        (b"[" * 100_000, "f.json: invalid JSON: maximum recursion depth"),
    ], ids=["list", "null", "unclosed", "bad-utf-8", "bom", "nested-too-deep"])
    def test_anything_else_names_where(self, raw, message):
        with pytest.raises(DataValidationError) as exc:
            data.json_object(raw, "f.json")
        assert str(exc.value).startswith(message)


class TestInvariants:
    def test_trial_label_consistency_enforced(self, tmp_path):
        def flip(record):
            record["trial_label"] = 1 - record["trial_label"]

        path = edit_dataset(make_manifest(make_trial("t", comp_frames=(1,))),
                            tmp_path / "data.jsonl", flip)
        with pytest.raises(DataValidationError,
                           match=r":2: trial 't': trial_label 1 inconsistent"):
            load_dataset(path)

    def test_labels_binary(self, tmp_path):
        def two(record):
            record["frame_labels"][1] = 2

        path = edit_dataset(make_manifest(make_trial("t")),
                            tmp_path / "data.jsonl", two)
        with pytest.raises(DataValidationError, match=r":2: trial 't'.*0 or 1"):
            load_dataset(path)

    def test_duplicate_trial_ids_rejected(self):
        with pytest.raises(DataValidationError, match="duplicate trial id 'same'"):
            make_manifest(make_trial("same"), make_trial("same"), t_max=10)

    def test_too_long_trial_rejected_by_manifest(self, tmp_path):
        def lengthen(record):
            edit_frames(record, lambda frames: frames[[*range(10), 9]])
            record["frame_labels"].append(1)

        path = edit_dataset(make_manifest(make_trial("t", length=10)),
                            tmp_path / "data.jsonl", lengthen)
        with pytest.raises(DataValidationError,
                           match=r":2: trial 't': 11 frames.*t_max 10"):
            load_dataset(path)

    def test_bookkeeping_identity(self, small_synth_manifest):
        m = small_synth_manifest
        comp = int((m.frame_labels == 0).sum())
        unpadded_normal = int(((m.frame_labels == 1) & ~m.padded).sum())
        padded = int(m.padded.sum())
        assert padded == len(m) * m.t_max - int(m.lengths.sum())
        assert comp + unpadded_normal + padded == len(m) * m.t_max

    def test_arrays_read_only(self, tiny_manifest):
        with pytest.raises(ValueError):
            tiny_manifest.frames[0][0, 0, 0] = 1.0
        X = featurize(tiny_manifest)
        with pytest.raises(ValueError):
            X[0, 0, 0] = 1.0


def bad_side(record):
    record["side"] = "left"


class TestParsedLoad:
    """save_dataset writes the file, and load_dataset parses it."""

    @pytest.fixture
    def saved(self, small_synth_manifest, tmp_path):
        path = tmp_path / "data.jsonl"
        save_dataset(small_synth_manifest, path)
        return small_synth_manifest, path

    @pytest.fixture
    def long_saved(self, tmp_path):
        """12 trials of 300 frames."""
        rng = np.random.default_rng(3)
        manifest = make_manifest(*(make_trial(f"t{i}", length=300, rng=rng)
                                   for i in range(12)))
        path = tmp_path / "long.jsonl"
        save_dataset(manifest, path)
        return manifest, path

    @pytest.mark.parametrize("lines", [(3,), (3, 13)],
                             ids=["first-half", "both-halves"])
    def test_the_first_fault_in_file_order_is_raised(self, long_saved, lines):
        _, path = long_saved
        edit_lines(path, dict.fromkeys(lines, bad_side))
        with pytest.raises(DataValidationError, match=r":3: trial 't1': side"):
            load_dataset(path)

    # Each fault gives trial 't' of a one-trial file a string or a boolean
    # where a number belongs, and json would hand these to numpy, which
    # would convert them; or frames that are not hex text: a character that
    # is not a hex digit, or the list of numbers that files held before.
    @pytest.mark.parametrize("edit", [
        lambda r: r.update(frames="g" + r["frames"][1:]),
        lambda r: r["frame_labels"].__setitem__(0, "1"),
        lambda r: r.update(trial_label=str(r["trial_label"])),
        lambda r: r.update(frame_labels=[bool(v) for v in r["frame_labels"]]),
        lambda r: r.update(trial_label=bool(r["trial_label"])),
        lambda r: r.update(frames=[[[True, 0.0]] * 8]),
        lambda r: r["frame_labels"].__setitem__(-1, True),
    ], ids=["string-coordinate", "string-frame-label", "string-trial-label",
            "boolean-frame-labels", "boolean-trial-label",
            "boolean-among-coordinates", "boolean-among-frame-labels"])
    def test_non_numeric_field_rejected(self, tmp_path, capsys, edit):
        path = edit_dataset(make_manifest(make_trial("t", comp_frames=(1,))),
                            tmp_path / "data.jsonl", edit)
        with pytest.raises(DataValidationError, match=r":2: trial 't': "):
            load_dataset(path)
        assert main(["sweep", "--scores", str(tmp_path / "none.csv"),
                     "--data", str(path), "--out", str(tmp_path / "r")]) == 2
        assert f"{path}:2: trial 't': " in capsys.readouterr().err

    def test_last_record_without_a_newline_is_read(self, saved):
        manifest, path = saved
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        assert load_dataset(path).trial_ids == manifest.trial_ids

    def test_fault_in_the_last_record_names_its_line(self, saved):
        manifest, path = saved
        edit_lines(path, {13: bad_side})
        with pytest.raises(DataValidationError,
                           match=rf":13: trial '{manifest.trial_ids[-1]}': side"):
            load_dataset(path)

    def test_any_exception_from_a_record_reaches_the_caller(self, saved,
                                                            monkeypatch):
        manifest, path = saved
        real, last = data._trial_row, manifest.trial_ids[-1]

        def trial_row(rec, *args):
            if rec["trial_id"] == last:
                raise RuntimeError(f"no row for {last}")
            return real(rec, *args)

        monkeypatch.setattr(data, "_trial_row", trial_row)
        with pytest.raises(RuntimeError, match=f"no row for {last}"):
            load_dataset(path)
