import base64
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import framescore
from framescore.cli import _write_grid_report, main
from framescore.network import (GridCell, GridSearchResult, ModelArchitecture,
                                TrainConfig)
from tests.conftest import edit_frames


def run(*argv):
    return main([str(a) for a in argv])


def make_dataset(tmp_path, name="data.jsonl", seed=5, patients=3, trials=2,
                 extra=()):
    path = tmp_path / name
    code = run(
        "synth", "--out", path, "--seed", seed,
        "--patient-count", patients,
        "--trials-per-patient-per-side", trials,
        "--length-range", 20, 30,
        "--t-max", 40,
        "--comp-prob-affected", 1.0,
        *extra,
    )
    assert code == 0
    return path


def write_grid(tmp_path, hidden=((4,),), rates=(0.001,)):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(
        {"hidden_layers": [list(h) for h in hidden], "learning_rates": list(rates)}
    ))
    return path


def run_child(*argv):
    """Run the CLI in a separate interpreter, so that Python's own warning
    display is what the user would see, not the test runner's capture."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(
        os.path.dirname(framescore.__file__)))
    return subprocess.run(
        [sys.executable, "-m", "framescore.cli", *map(str, argv)],
        capture_output=True, text=True, env=env, check=False)


def train_small(tmp_path, data, epochs=3):
    model = tmp_path / "model.json"
    code = run(
        "train", "--data", data, "--out", model, "--split", 0.5,
        "--seed", 0, "--grid", write_grid(tmp_path), "--epochs", epochs,
        "--batch-size", 4,
    )
    assert code == 0
    return model


class TestSynthCommand:
    def test_default_run_reports_300_trials(self, tmp_path, capsys):
        out = tmp_path / "full.jsonl"
        assert run("synth", "--out", out, "--seed", 42) == 0
        stdout = capsys.readouterr().out
        assert "300 trials" in stdout
        assert out.exists()

    def test_same_seed_identical_files(self, tmp_path):
        a = make_dataset(tmp_path, "a.jsonl", seed=7)
        b = make_dataset(tmp_path, "b.jsonl", seed=7)
        assert a.read_bytes() == b.read_bytes()

    def test_zero_trials_config_rejected(self, tmp_path, capsys):
        out = tmp_path / "bad.jsonl"
        code = run("synth", "--out", out, "--trials-per-patient-per-side", 0)
        assert code == 2
        assert not out.exists()
        assert "error" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({
            "patient_count": 2, "trials_per_patient_per_side": 2,
            "length_range": [20, 30], "t_max": 40, "seed": 3,
        }))
        out = tmp_path / "cfg.jsonl"
        assert run("synth", "--out", out, "--config", config,
                   "--patient-count", 1) == 0
        assert "4 trials" in capsys.readouterr().out

    def test_flag_replaces_an_invalid_file_value(self, tmp_path):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps({"patient_count": 0}))
        with_file = make_dataset(tmp_path, "with.jsonl", patients=1,
                                 extra=("--config", config))
        without = make_dataset(tmp_path, "without.jsonl", patients=1)
        assert with_file.read_bytes() == without.read_bytes()

    def test_invalid_config_file(self, tmp_path):
        config = tmp_path / "synth.json"
        config.write_text("{broken")
        assert run("synth", "--out", tmp_path / "x.jsonl",
                   "--config", config) == 2

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def generate_dataset(config):
            raise MemoryError("Unable to allocate 1.42 PiB")

        monkeypatch.setattr("framescore.synth.generate_dataset",
                            generate_dataset)
        out = tmp_path / "x.jsonl"
        assert run("synth", "--out", out) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 1.42 PiB\n"
        assert not out.exists()

    @pytest.mark.parametrize("fields", [
        {"seed": "a"},
        {"patient_count": 1.5},
        {"length_range": [10.5, 20]},
        {"seed": -1},
    ])
    def test_malformed_config_field_exits_2(self, tmp_path, capsys, fields):
        config = tmp_path / "synth.json"
        config.write_text(json.dumps(fields))
        out = tmp_path / "x.jsonl"
        assert run("synth", "--out", out, "--config", config) == 2
        err = capsys.readouterr().err
        assert str(config) in err and next(iter(fields)) in err
        assert not out.exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.jsonl"
        assert run("synth", "--out", out, "--seed", -1) == 2
        assert capsys.readouterr().err == "error: seed must be at least 0\n"
        assert not out.exists()


def _lengthen(record, length):
    edit_frames(record, lambda f: f[[*range(len(f)), *[-1] * (length - len(f))]])
    record["frame_labels"] += [1] * (length - len(record["frame_labels"]))


# Each fault edits, in place, the first trial record of a 12-trial dataset
# with t_max 40: trial 'P00-affected-00', compensatory, 20 frames long, on
# line 2.
RECORD_FAULTS = {
    "bad-side": lambda r: r.update(side="left"),
    "nan-coordinate": lambda r: edit_frames(
        r, lambda f: f.__setitem__((3, 1, 0), math.nan)),
    "label-2": lambda r: r["frame_labels"].__setitem__(0, 2),
    "flipped-trial-label": lambda r: r.update(trial_label=1 - r["trial_label"]),
    "labels-one-short": lambda r: r["frame_labels"].pop(),
    "seven-joints": lambda r: edit_frames(r, lambda f: f[:, :7]),
    "longer-than-t-max": lambda r: _lengthen(r, 41),
    # frame 2 loses the coordinates of its last joint
    "ragged-frames": lambda r: edit_frames(
        r, lambda f: np.delete(f.reshape(-1, 2), 2 * 8 + 7, axis=0)),
    "odd-length-frames": lambda r: r.update(frames=r["frames"][:-1]),
    # the last frame loses its last coordinate
    "partial-frame": lambda r: r.update(frames=r["frames"][:-16]),
    # every file written before frames were hex text
    "list-frames": lambda r: r.update(frames=np.frombuffer(
        bytes.fromhex(r["frames"]), "<f8").reshape(-1, 8, 2).tolist()),
    "duplicate-id": lambda r: r.update(trial_id="P00-affected-01"),
    "fractional-labels": lambda r: r.update(
        frame_labels=[l or 0.5 for l in r["frame_labels"]], trial_label=0.5),
}


def _header(field, value):
    """An edit of a dataset file's lines that sets one header field."""
    def edit(lines):
        header = json.loads(lines[0])
        header[field] = value
        return [json.dumps(header), *lines[1:]]
    return edit


# Each fault edits the lines of a 12-trial dataset file: (edit, the error's
# text after the file name). t_max and seed must be JSON integers, not
# floats, numeric strings or booleans.
DATASET_FILE_FAULTS = {
    "t_max-abc": (_header("t_max", "abc"), ":1: field 't_max'"),
    "joints-5": (_header("joints", 5), ":1: field 'joints'"),
    "joints-value2": (_header("joints", []), ":1: field 'joints'"),
    "t_max-40.9": (_header("t_max", 40.9), ":1: field 't_max'"),
    "t_max-40": (_header("t_max", "40"), ":1: field 't_max'"),
    "seed-5.7": (_header("seed", 5.7), ":1: field 'seed'"),
    "seed-True": (_header("seed", True), ":1: field 'seed'"),
    "provenance-recorded": (
        _header("provenance", "recorded"),
        ":1: provenance must be 'synthetic', got 'recorded'"),
    "header-only": (lambda lines: lines[:1], ": no trials"),
    "empty": (lambda lines: [], ": empty dataset file"),
}


class TestTrainCommand:
    def test_writes_checkpoint_and_grid_report(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        model = train_small(tmp_path, data)
        assert model.exists()
        assert (tmp_path / "model.json.grid.csv").exists()
        stdout = capsys.readouterr().out
        assert "6 train / 6 test" in stdout
        assert "test accuracy" in stdout

    def test_grid_report_exact_text(self, tmp_path):
        result = GridSearchResult(
            (GridCell(ModelArchitecture(3, (4,)), TrainConfig(learning_rate=1),
                      0.5, (0.25, 0.75)),
             GridCell(ModelArchitecture(3, (8, 4)),
                      TrainConfig(learning_rate=0.001), 2 / 3, (1 / 3, 1.0))),
            1, ("fold 0: validation split contains a single class, again",))
        _write_grid_report(result, tmp_path / "grid.csv")
        assert (tmp_path / "grid.csv").read_bytes() == (
            b"hidden_layers,learning_rate,mean_val_accuracy,fold_accuracies,"
            b"parameters,selected\r\n"
            b"4,1,0.5,0.25;0.75,21,0\r\n"
            b"8x4,0.001,0.6666666666666666,0.3333333333333333;1.0,73,1\r\n"
            b'"# warning: fold 0: validation split contains a single class, '
            b'again"\r\n'
        )

    def test_batch_size_above_training_rows_records_rows(self, tmp_path):
        data = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        assert run("train", "--data", data, "--out", model, "--split", 0.5,
                   "--seed", 0, "--grid", write_grid(tmp_path), "--epochs", 1,
                   "--batch-size", 16) == 0
        metadata = json.loads(model.read_text())["metadata"]
        assert metadata["train_trials"] == 6
        assert metadata["config"]["batch_size"] == 6

    def test_default_grid_has_eight_cells(self, tmp_path):
        data = make_dataset(tmp_path)
        model = tmp_path / "model8.json"
        report = tmp_path / "grid8.csv"
        code = run(
            "train", "--data", data, "--out", model, "--split", 0.5,
            "--seed", 0, "--epochs", 1, "--batch-size", 4,
            "--grid-report", report,
        )
        assert code == 0
        lines = [l for l in report.read_text().splitlines()[1:]
                 if l and not l.startswith("#")]
        assert len(lines) == 8
        assert sum(l.rstrip().endswith(",1") for l in lines) == 1

    def test_single_class_fold_notes_are_clean_warnings(self, tmp_path):
        data = make_dataset(tmp_path)
        proc = run_child("train", "--data", data, "--out",
                         tmp_path / "model.json", "--split", 0.5, "--seed", 0,
                         "--grid", write_grid(tmp_path), "--epochs", 1,
                         "--batch-size", 4)
        assert proc.returncode == 0, proc.stderr
        assert "warning: fold" in proc.stderr
        assert "UserWarning" not in proc.stderr
        assert "network.grid_search(" not in proc.stderr
        notes = proc.stderr.splitlines()
        assert len(notes) == len(set(notes))

    def test_last_update_divergence_exits_3_and_writes_nothing(self, tmp_path):
        # One epoch of one batch, so the only update is never followed by a
        # loss check; a separate interpreter shows any raw Python warning.
        data = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        proc = run_child("train", "--data", data, "--out", model, "--split",
                         0.5, "--seed", 0, "--grid",
                         write_grid(tmp_path, rates=(1e300,)), "--epochs", 1,
                         "--batch-size", 100)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            "numeric failure: grid cell 0 (hidden [4], lr 1e+300), fold 0: "
            "non-finite parameters after the last update\n")
        assert not model.exists()
        assert not (tmp_path / "model.json.grid.csv").exists()

    def test_feature_overflow_exits_2_without_a_warning(self, tmp_path):
        # Every coordinate is finite, but the sums behind the grid search's
        # scaler overflow; a separate interpreter shows any raw warning.
        data = make_dataset(tmp_path, extra=("--motion-amplitude", 1e308))
        model = tmp_path / "model.json"
        proc = run_child("train", "--data", data, "--out", model, "--split",
                         0.5, "--seed", 0, "--grid", write_grid(tmp_path),
                         "--epochs", 1, "--batch-size", 4)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == (
            "error: the features' mean or standard deviation overflows "
            "float64, first at input coordinate 22\n")
        assert not model.exists()
        assert not (tmp_path / "model.json.grid.csv").exists()

    def test_more_folds_than_training_trials_exits_2(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        assert run("train", "--data", data, "--out", model, "--split", 0.5,
                   "--folds", 7) == 2
        assert capsys.readouterr().err == (
            "error: 6 samples cannot form 7 folds\n")
        assert not model.exists()
        assert not (tmp_path / "model.json.grid.csv").exists()

    @pytest.mark.parametrize("grid, field", [
        ({"hidden_layers": [32], "learning_rates": [0.001]}, "hidden_layers"),
        ({"hidden_layers": [[4]], "learning_rates": ["fast"]}, "learning_rates"),
        ({"hidden_layers": [[4.5]], "learning_rates": [0.001]}, "hidden_layers"),
        pytest.param(
            {"hidden_layers": [[4]], "learning_rates": [0.001], "epochs": 1000},
            "unknown grid fields: ['epochs']", id="grid3-epochs"),
        ({"hidden_layers": [[4.5]], "learning_rates": ["fast"]}, "hidden_layers"),
        pytest.param({"hidden_layers": [[4]]},
                     "grid file needs 'hidden_layers' and 'learning_rates'",
                     id="grid5-no-learning-rates"),
    ])
    def test_malformed_grid_file_exits_2(self, tmp_path, capsys, monkeypatch,
                                         grid, field):
        data = make_dataset(tmp_path)
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        model = tmp_path / "model.json"
        capsys.readouterr()

        def load(*args, **kwargs):
            raise AssertionError("the dataset was loaded before the grid file "
                                 "was parsed")

        monkeypatch.setattr("framescore.data.load_dataset", load)
        code = run("train", "--data", data, "--out", model, "--split", 0.5,
                   "--grid", path, "--epochs", 1, "--batch-size", 4)
        assert code == 2
        out, err = capsys.readouterr()
        assert str(path) in err and field in err
        assert out == ""
        assert not model.exists()
        assert not (tmp_path / "model.json.grid.csv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--epochs", 0, "epochs must be at least 1"),
        ("--batch-size", 0, "batch_size must be at least 1"),
        ("--momentum", 1.0, "momentum must be in [0, 1)"),
        ("--folds", 1, "--folds must be at least 2, got 1"),
        ("--split", 1.5, "--split must be in (0, 1), got 1.5"),
        ("--seed", -1, "seed must be at least 0"),
    ], ids=["epochs", "batch-size", "momentum", "folds", "split", "seed"])
    def test_bad_hyperparameter_rejected_before_loading(
            self, tmp_path, capsys, monkeypatch, flag, value, message):
        data = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        capsys.readouterr()

        def load(*args, **kwargs):
            raise AssertionError("the dataset was loaded before the "
                                 "hyperparameters were checked")

        monkeypatch.setattr("framescore.data.load_dataset", load)
        assert run("train", "--data", data, "--out", model, flag, value) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert message in err
        assert not model.exists()

    def test_missing_grid_file_exits_2(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        grid = tmp_path / "no-grid.json"
        model = tmp_path / "model.json"
        capsys.readouterr()
        assert run("train", "--data", data, "--out", model,
                   "--grid", grid) == 2
        assert str(grid) in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("fault", RECORD_FAULTS)
    def test_record_fault_rejected(self, tmp_path, capsys, fault):
        # train and sweep each name the faulted record on line 2 and, moved
        # to the end of the file, on the last line. sweep reads --data
        # first, so its score file need not exist.
        data = make_dataset(tmp_path)
        header, first, *rest = data.read_text().splitlines()
        record = json.loads(first)
        RECORD_FAULTS[fault](record)
        out = tmp_path / "out"
        commands = (
            ["train", "--out", out, "--split", 0.5, "--grid",
             write_grid(tmp_path), "--epochs", 1, "--batch-size", 4],
            ["sweep", "--scores", tmp_path / "none.csv", "--out", out],
        )
        for lineno, lines in ((2, [header, json.dumps(record), *rest]),
                              (len(rest) + 2, [header, *rest, json.dumps(record)])):
            data.write_text("\n".join(lines) + "\n")
            for command, *argv in commands:
                capsys.readouterr()
                assert run(command, "--data", data, *argv) == 2
                err = capsys.readouterr().err
                if fault == "duplicate-id":
                    assert f"{data}: duplicate trial id 'P00-affected-01'" in err
                else:
                    assert f"{data}:{lineno}: trial 'P00-affected-00': " in err
                assert "Traceback" not in err
                assert not out.exists()

    def test_missing_data_file(self, tmp_path):
        assert run("train", "--data", tmp_path / "nope.jsonl",
                   "--out", tmp_path / "m.json") == 2

    def test_invalid_split(self, tmp_path):
        data = make_dataset(tmp_path)
        assert run("train", "--data", data, "--out", tmp_path / "m.json",
                   "--split", 1.5) == 2

    @pytest.mark.parametrize("split", [0.99, 0.01])
    def test_empty_split_side_rejected(self, tmp_path, capsys, split):
        data = make_dataset(tmp_path)
        model = tmp_path / "m.json"
        assert run("train", "--data", data, "--out", model,
                   "--split", split) == 2
        train, test = (12, 0) if split > 0.5 else (0, 12)
        assert f"{train} train / {test} test" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("fault", DATASET_FILE_FAULTS)
    def test_malformed_header_names_line(self, tmp_path, capsys, fault):
        # sweep reads --data first, so its score file need not exist.
        data = make_dataset(tmp_path)
        edit, message = DATASET_FILE_FAULTS[fault]
        data.write_text("".join(
            line + "\n" for line in edit(data.read_text().splitlines())))
        out = tmp_path / "out"
        for argv in (["train", "--out", out],
                     ["sweep", "--scores", tmp_path / "none.csv", "--out", out]):
            capsys.readouterr()
            assert run(*argv, "--data", data) == 2
            assert f"{data}{message}" in capsys.readouterr().err
            assert not out.exists()


class TestExplainCommand:
    def test_scores_cover_every_frame_slot(self, tmp_path):
        data = make_dataset(tmp_path)
        model = train_small(tmp_path, data)
        scores = tmp_path / "scores.csv"
        assert run("explain", "--model", model, "--data", data,
                   "--out", scores) == 0
        lines = scores.read_text().splitlines()
        assert len(lines) == 1 + 12 * 40  # header + trials x t_max

    def test_heatmap_grid_shape(self, tmp_path):
        data = make_dataset(tmp_path)
        model = train_small(tmp_path, data)
        heat = tmp_path / "heat.csv"
        assert run("explain", "--model", model, "--data", data,
                   "--out", tmp_path / "scores.csv",
                   "--heatmap", "P00-affected-00",
                   "--heatmap-out", heat) == 0
        lines = heat.read_text().splitlines()
        assert len(lines) == 41  # t_max + header
        assert all(len(l.split(",")) == 17 for l in lines)

    def test_default_heatmap_path_printed_as_given(self, tmp_path, capsys,
                                                   monkeypatch):
        data = make_dataset(tmp_path)
        model = train_small(tmp_path, data)
        (tmp_path / "out").mkdir()
        monkeypatch.chdir(tmp_path)
        capsys.readouterr()
        assert run("explain", "--model", model, "--data", data,
                   "--out", os.path.join("out", "scores.csv"),
                   "--heatmap", "P00-affected-00") == 0
        heat = os.path.join("out", "heatmap-P00-affected-00.csv")
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"heatmap for P00-affected-00 -> {heat}")
        assert (tmp_path / heat).exists()

    def test_unknown_heatmap_trial(self, tmp_path):
        data = make_dataset(tmp_path)
        model = train_small(tmp_path, data)
        out = tmp_path / "s.csv"
        assert run("explain", "--model", model, "--data", data, "--out", out,
                   "--heatmap", "nope") == 2
        assert not out.exists()

    def test_shape_mismatch_rejected(self, tmp_path):
        data = make_dataset(tmp_path)
        model = train_small(tmp_path, data)
        other = make_dataset(tmp_path, "other.jsonl", extra=("--t-max", "50"))
        out = tmp_path / "s.csv"
        assert run("explain", "--model", model, "--data", other,
                   "--out", out) == 2
        assert not out.exists()

    def test_reordered_joints_rejected(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        model = train_small(tmp_path, data)
        header, *records = [json.loads(l) for l in data.read_text().splitlines()]
        joints = header["joints"]
        joints[2], joints[5] = joints[5], joints[2]
        for rec in records:
            edit_frames(rec, lambda f: f[:, [0, 1, 5, 3, 4, 2, 6, 7]])
        swapped = tmp_path / "swapped.jsonl"
        swapped.write_text("".join(json.dumps(o) + "\n"
                                   for o in [header, *records]))
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert run("explain", "--model", model, "--data", swapped,
                   "--out", out) == 2
        assert "checkpoint joints" in capsys.readouterr().err
        assert not out.exists()

    def test_checkpoint_without_layout_rejected(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        model = train_small(tmp_path, data)
        payload = json.loads(model.read_text())
        del payload["metadata"]["joints"]
        model.write_text(json.dumps(payload))
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert run("explain", "--model", model, "--data", data,
                   "--out", out) == 2
        assert "checkpoint joints 'not recorded'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("corrupt, expected", [
        # Each corruption edits the payload in place and returns the JSON.
        (lambda p: (p.pop("scaler"), p)[1], "'scaler' is missing"),
        (lambda p: (p["weights"].__setitem__(0, p["weights"][0][:-4]), p)[1],
         "checkpoint field 'weights': "),
        (lambda p: [p], "must be a JSON object"),
        (lambda p: (p["architecture"].update(hidden_layers="32"), p)[1],
         "hidden_layers"),
        (lambda p: (p["weights"].pop(), p)[1], "layer count mismatch"),
        (lambda p: (p["weights"].append([0.0]), p)[1], "layer count mismatch"),
        # json would hand these numbers to numpy, which would convert them.
        (lambda p: (p["biases"][0].__setitem__(0, "0.25"), p)[1],
         "checkpoint field 'biases': layer 0 must hold only numbers"),
        (lambda p: (p["scaler"]["scale"].__setitem__(0, True), p)[1],
         "checkpoint field 'scaler': scale must hold only numbers"),
        (lambda p: (p["weights"].__setitem__(-1, False), p)[1],
         "checkpoint field 'weights': argument should be a bytes-like object "
         "or ASCII string, not 'bool'"),
        (lambda p: (p["weights"].__setitem__(0, "!" + p["weights"][0][1:]), p)[1],
         "checkpoint field 'weights': "),
        (lambda p: _edit_weights(p, lambda ws: ws[0].__setitem__(0, math.nan)),
         "layer 0: non-finite parameters"),
        # The first format held each weight matrix as a flat list of numbers.
        (lambda p: _edit_weights(p, lambda ws: None, "ffnet-checkpoint-v1"),
         "unsupported checkpoint format 'ffnet-checkpoint-v1'"),
        # A scaler that no fit makes: the saliency would blame a trial.
        (lambda p: (p["scaler"]["mean"].__setitem__(0, math.nan), p)[1],
         "checkpoint field 'scaler': scaler mean and scale must be finite"),
        (lambda p: (p["scaler"]["scale"].__setitem__(0, math.inf), p)[1],
         "checkpoint field 'scaler': scaler mean and scale must be finite"),
        (lambda p: (p["scaler"]["scale"].__setitem__(0, -1.0), p)[1],
         "checkpoint field 'scaler': scaler mean and scale must be finite"),
        (lambda p: (p.update(metadata=[]), p)[1],
         "checkpoint field 'metadata' must be a JSON object"),
    ], ids=["no-scaler", "short-weights", "list", "string-widths",
            "missing-layer", "extra-layer", "string-bias", "boolean-scale",
            "boolean-last-weight", "bad-base64-character", "nan-weight",
            "v1-format", "nan-mean", "inf-scale", "negative-scale",
            "list-metadata"])
    def test_malformed_checkpoint_exits_2(self, tmp_path, capsys, corrupt,
                                          expected):
        data = make_dataset(tmp_path)
        model = train_small(tmp_path, data)
        model.write_text(json.dumps(corrupt(json.loads(model.read_text()))))
        out = tmp_path / "s.csv"
        capsys.readouterr()
        assert run("explain", "--model", model, "--data", data,
                   "--out", out) == 2
        err = capsys.readouterr().err
        assert str(model) in err and expected in err
        assert not out.exists()


def _edit_weights(payload, edit, fmt=None):
    """Decode the checkpoint's weights, apply `edit` to the list of flat
    weight arrays, and store them again: as base64 strings, or as lists of
    JSON numbers with the format set to `fmt` when one is given."""
    ws = [np.frombuffer(base64.b64decode(w), "<f8").copy()
          for w in payload["weights"]]
    edit(ws)
    if fmt is None:
        payload["weights"] = [base64.b64encode(w.tobytes()).decode("ascii")
                              for w in ws]
    else:
        payload["format"] = fmt
        payload["weights"] = [w.tolist() for w in ws]
    return payload


def _set(lines, lineno, column, value):
    row = lines[lineno - 1].split(",")
    row[column] = value(row[column])
    lines[lineno - 1] = ",".join(row)
    return lines


def _flip(text):
    return str(1 - int(text))


FIRST = "'P00-affected-00'"
# Each fault edits the lines of a 12-trial x 40-frame score file.
SCORE_FILE_FAULTS = {
    "missing-trial": (
        lambda ls: [l for l in ls if not l.startswith("P00-affected-00,")],
        f"scores.csv: trial {FIRST} is missing"),
    "unknown-trial": (
        lambda ls: _set(ls, 6, 0, lambda _: "nobody"),
        "scores.csv:6: trial 'nobody' frame 4 is not in the dataset"),
    "frame-out-of-range": (
        lambda ls: _set(ls, 6, 1, lambda _: "40"),
        f"scores.csv:6: trial {FIRST} frame 40 is not in the dataset"),
    "missing-frame": (
        lambda ls: ls[:5] + ls[6:],
        f"scores.csv: trial {FIRST} frame 4 is missing"),
    "duplicate-frame": (
        lambda ls: ls + ls[5:6],
        f"scores.csv: trial {FIRST} frame 4 appears more than once"),
    "flipped-label": (
        lambda ls: _set(ls, 6, 4, _flip),
        f"scores.csv:6: trial {FIRST} frame 4: frame_label, padded"),
    "flipped-padding": (
        lambda ls: _set(ls, 6, 5, _flip),
        f"scores.csv:6: trial {FIRST} frame 4: frame_label, padded"),
    "label-not-a-flag": (
        lambda ls: _set(ls, 6, 4, lambda _: "2"),
        f"scores.csv:6: trial {FIRST} frame 4: frame_label, padded = 2"),
    "label-overflows-int64": (
        lambda ls: _set(ls, 6, 4, lambda _: "9" * 30),
        "scores.csv:6: "),
    "ragged-row": (
        lambda ls: _set(ls, 6, 5, lambda v: v + ",0"),
        "scores.csv:6: ragged score row"),
    "wrong-header": (
        lambda ls: _set(ls, 1, 2, lambda _: "score"),
        "scores.csv: unexpected score file header"),
    "field-over-csv-limit": (
        lambda ls: _set(ls, 2, 0, lambda _: "x" * 200_000),
        "scores.csv:2: trial 'xxx"),
    # Frames that only Python parses as numbers.
    "frame-1_0": (
        lambda ls: _set(ls, 12, 1, lambda _: "1_0"),
        "scores.csv:12: could not convert string '1_0'"),
    "frame-arabic-indic-digits": (
        lambda ls: _set(ls, 12, 1, lambda _: "\u0661\u0660"),
        "scores.csv:12: could not convert string '\u0661\u0660'"),
}


class TestSweepCommand:
    @pytest.fixture
    def prepared(self, tmp_path):
        data = make_dataset(tmp_path)
        model = train_small(tmp_path, data)
        scores = tmp_path / "scores.csv"
        assert run("explain", "--model", model, "--data", data,
                   "--out", scores) == 0
        return data, scores

    def test_full_matrix_outputs(self, prepared, tmp_path, capsys):
        data, scores = prepared
        out = tmp_path / "reports"
        assert run("sweep", "--scores", scores, "--data", data,
                   "--out", out) == 0
        reports = sorted(p.name for p in out.glob("report-*.csv"))
        assert len(reports) == 15
        assert (out / "summary.csv").exists()
        for mode in ("all", "no-pad", "comp-no-pad"):
            assert (out / f"hist-{mode}.csv").exists()
            assert (out / f"pooled-scores-{mode}.csv").exists()
        stdout = capsys.readouterr().out
        assert "beta 2.0" in stdout
        assert "comp-no-pad" in stdout

    def test_beta_recorded_in_report_rows(self, prepared, tmp_path):
        # Up to the largest beta whose square is finite, F-beta is finite.
        data, scores = prepared
        for beta in ("2", "1.3e154", "1.3407807929942596e154"):
            out = tmp_path / f"reports-beta-{beta}"
            assert run("sweep", "--scores", scores, "--data", data, "--out",
                       out, "--beta", beta, "--windows", "1") == 0
            body = (out / "report-all-w1.csv").read_text().splitlines()
            assert body[1].split(",")[2] == repr(float(beta))
            for report in [*out.glob("report-*.csv"), out / "summary.csv"]:
                assert "nan" not in report.read_text()

    # Above the square root of the largest float, beta squared overflows
    # and every F-beta would read NaN.
    @pytest.mark.parametrize("beta", ["nan", "inf", "0", "-1", "1e200",
                                      "1.3407807929942597e154"])
    def test_beta_outside_zero_to_infinity_rejected(self, tmp_path, capsys,
                                                    beta):
        # Neither input exists: beta is refused before either is read.
        out = tmp_path / "reports-bad-beta"
        assert run("sweep", "--scores", tmp_path / "none.csv", "--data",
                   tmp_path / "none.jsonl", "--out", out, "--beta", beta) == 2
        assert capsys.readouterr().err.startswith(
            "error: --beta must be in (0, 1.3407807929942596e+154], got ")
        assert not out.exists()

    def test_coarse_step_grid(self, prepared, tmp_path):
        data, scores = prepared
        out = tmp_path / "reports-step"
        assert run("sweep", "--scores", scores, "--data", data, "--out", out,
                   "--step", 0.5, "--windows", "1", "--modes", "all") == 0
        rows = (out / "report-all-w1.csv").read_text().splitlines()
        taus = [r.split(",")[3] for r in rows[1:] if r.startswith("all,")]
        assert taus == ["0.0", "0.5", "1.0"]

    @pytest.mark.parametrize("step", ["1e-13", "9.99e-7", "1e-5", "9.99e-5"])
    def test_step_below_the_floor_rejected_before_any_read(self, tmp_path,
                                                           capsys, step):
        # Neither input exists: the step is refused before either is read.
        out = tmp_path / "reports-tiny-step"
        start = time.monotonic()
        assert run("sweep", "--scores", tmp_path / "none.csv", "--data",
                   tmp_path / "none.jsonl", "--out", out, "--step", step) == 2
        assert time.monotonic() - start < 1
        assert "--step must be in [0.0001, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_modes_and_windows_run_once(self, prepared, tmp_path,
                                                  capsys):
        data, scores = prepared
        outputs = {}
        for name, modes, windows in (("once", "comp-no-pad", "1"),
                                     ("twice", "comp-no-pad,comp-no-pad", "1,1")):
            out = tmp_path / name
            capsys.readouterr()
            assert run("sweep", "--scores", scores, "--data", data,
                       "--out", out, "--modes", modes, "--windows", windows) == 0
            stdout = capsys.readouterr().out.replace(str(out), "<out>")
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            outputs[name] = (stdout, files)
        assert outputs["twice"] == outputs["once"]
        assert "report-comp-no-pad-w1.csv" in outputs["once"][1]
        assert len(outputs["once"][1]["summary.csv"].splitlines()) == 2

    def test_empty_mode_skipped_with_warning(self, tmp_path, capsys):
        data = make_dataset(tmp_path, "nocomp.jsonl",
                            extra=("--comp-prob-affected", "0.0"))
        model = train_small(tmp_path, data)
        scores = tmp_path / "scores.csv"
        assert run("explain", "--model", model, "--data", data,
                   "--out", scores) == 0
        out = tmp_path / "reports-skip"
        capsys.readouterr()
        assert run("sweep", "--scores", scores, "--data", data, "--out", out,
                   "--windows", "1") == 0
        captured = capsys.readouterr()
        assert "skipping mode 'comp-no-pad'" in captured.err
        assert not (out / "report-comp-no-pad-w1.csv").exists()
        assert (out / "report-all-w1.csv").exists()
        # With no other mode asked for, there is nothing to report.
        out = tmp_path / "reports-none"
        assert run("sweep", "--scores", scores, "--data", data, "--out", out,
                   "--modes", "comp-no-pad") == 0
        assert capsys.readouterr().err.splitlines() == [
            "warning: skipping mode 'comp-no-pad': comp-no-pad selection is "
            "empty: no compensatory trials",
            "warning: no usable filter modes; nothing to report"]
        assert not out.exists()

    def test_score_dataset_mismatch(self, prepared, tmp_path):
        data, scores = prepared
        other = make_dataset(tmp_path, "other2.jsonl", seed=99)
        assert run("sweep", "--scores", scores, "--data", other,
                   "--out", tmp_path / "r") == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1.0"])
    def test_non_finite_or_negative_score_rejected(self, prepared, tmp_path,
                                                   capsys, bad):
        data, scores = prepared
        lines = scores.read_text().splitlines()
        row = lines[5].split(",")
        row[2] = bad
        lines[5] = ",".join(row)
        scores.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        out = tmp_path / "r"
        assert run("sweep", "--scores", scores, "--data", data,
                   "--out", out) == 2
        assert f"scores.csv:6: raw score '{bad}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fault", SCORE_FILE_FAULTS)
    def test_score_file_fault_rejected(self, prepared, tmp_path, capsys,
                                       fault):
        data, scores = prepared
        edit, message = SCORE_FILE_FAULTS[fault]
        scores.write_text("\n".join(edit(scores.read_text().splitlines()))
                          + "\n")
        capsys.readouterr()
        out = tmp_path / "r"
        assert run("sweep", "--scores", scores, "--data", data,
                   "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_mode_rejected_before_any_read(self, tmp_path, capsys):
        # The score file does not exist: the mode is refused before it is
        # read.
        out = tmp_path / "r"
        assert run("sweep", "--scores", tmp_path / "none.csv", "--data",
                   tmp_path / "none.jsonl", "--out", out,
                   "--modes", "bogus") == 2
        assert capsys.readouterr().err == (
            "error: unknown filter mode 'bogus'; expected one of "
            "['all', 'no-pad', 'comp-no-pad']\n")
        assert not out.exists()

    def test_bad_mode_name(self, prepared, tmp_path):
        data, scores = prepared
        assert run("sweep", "--scores", scores, "--data", data,
                   "--out", tmp_path / "r", "--modes", "everything") == 2


def _append_ff(path):
    path.write_bytes(path.read_bytes() + b"\xff")


def _ff_in_a_trial_id(path):
    lines = path.read_bytes().split(b"\r\n")
    lines[5] = lines[5].replace(b",", b"\xff,", 1)
    path.write_bytes(b"\r\n".join(lines))


def _ragged_row_before_ff(path):
    lines = path.read_bytes().split(b"\r\n")
    lines[1] += b",0"
    lines[4] = b"\xff" + lines[4]
    path.write_bytes(b"\r\n".join(lines))


class TestInvalidUtf8:
    """One 0xff byte in an input file exits 2 with a message that names the
    file, not with a UnicodeDecodeError traceback."""

    # A row fault before such a byte is the one named.
    @pytest.mark.parametrize("kind", ["checkpoint", "grid", "scores",
                                      "config", "scores-after-a-row-fault"])
    def test_exits_2_naming_the_file(self, tmp_path, capsys, kind):
        data = make_dataset(tmp_path)
        model = train_small(tmp_path, data)
        scores = tmp_path / "scores.csv"
        assert run("explain", "--model", model, "--data", data,
                   "--out", scores) == 0
        out = tmp_path / "out"
        grid = write_grid(tmp_path)
        config = tmp_path / "synth.json"
        config.write_text('{"seed": 1}')
        bad, edit, argv, message = {
            "checkpoint": (model, _append_ff, (
                "explain", "--model", model, "--data", data, "--out", out),
                f"{model}: invalid JSON: "),
            "grid": (grid, _append_ff, (
                "train", "--data", data, "--out", out, "--grid", grid),
                f"{grid}: invalid JSON: "),
            "scores": (scores, _ff_in_a_trial_id, (
                "sweep", "--scores", scores, "--data", data, "--out", out),
                f"{scores}:6: invalid UTF-8 (invalid start byte)"),
            "scores-after-a-row-fault": (scores, _ragged_row_before_ff, (
                "sweep", "--scores", scores, "--data", data, "--out", out),
                f"{scores}:2: ragged score row"),
            "config": (config, _append_ff, (
                "synth", "--config", config, "--out", out),
                f"{config}: invalid JSON: "),
        }[kind]
        edit(bad)
        capsys.readouterr()
        assert run(*argv) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


# Command lines refused before any work, each for one output path that
# cannot be written or one flag value that no run can take, relative to a
# directory holding the files `taken`, `in.json` and `in.jsonl`, the
# link `link.jsonl` to `in.jsonl`, the directory `heatmap-t0.csv` and the
# directory `rr` with the files `summary.csv` and `hist-all.csv`: (argv,
# what the error must name). A command that checks its outputs first
# never reads its inputs, so they need not be valid.
_EXPLAIN = ["explain", "--model", "in.json", "--data", "in.jsonl"]
_SWEEP = ["sweep", "--scores", "in.csv", "--data", "in.jsonl", "--out", "r"]
_BAD_OUTPUTS = {
    "synth-out": (["synth", "--out", "nodir/x.jsonl"], "nodir/x.jsonl"),
    "train-out": (["train", "--data", "in.jsonl", "--out", "nodir/m.json"],
                  "nodir/m.json"),
    "train-out-is-a-directory": (
        ["train", "--data", "in.jsonl", "--out", "heatmap-t0.csv"],
        "heatmap-t0.csv"),
    "train-grid-report": (["train", "--data", "in.jsonl", "--out", "m.json",
                           "--grid-report", "nodir/g.csv"], "nodir/g.csv"),
    "explain-out": ([*_EXPLAIN, "--out", "nodir/s.csv"], "nodir/s.csv"),
    "explain-heatmap-out": ([*_EXPLAIN, "--out", "s.csv", "--heatmap", "t0",
                             "--heatmap-out", "nodir/h.csv"], "nodir/h.csv"),
    "explain-default-heatmap": ([*_EXPLAIN, "--out", "s.csv", "--heatmap", "t0"],
                                "heatmap-t0.csv"),
    "sweep-out-is-a-file": (["sweep", "--scores", "in.csv", "--data", "in.jsonl",
                             "--out", "taken"], "taken"),
    "sweep-out-below-a-file": (["sweep", "--scores", "in.csv", "--data",
                                "in.jsonl", "--out", "taken/reports"],
                               "taken/reports"),
    "train-out-is-grid-report": (
        ["train", "--data", "in.jsonl", "--out", "m.json", "--grid-report",
         "m.json"], "output m.json is the same file as output m.json"),
    "train-out-is-data": (
        ["train", "--data", "in.jsonl", "--out", "in.jsonl"],
        "output in.jsonl is the same file as input in.jsonl"),
    "train-out-is-a-link-to-data": (
        ["train", "--data", "in.jsonl", "--out", "link.jsonl"],
        "output link.jsonl is the same file as input in.jsonl"),
    "explain-out-is-data": (
        [*_EXPLAIN, "--out", "in.jsonl"],
        "output in.jsonl is the same file as input in.jsonl"),
    "explain-out-is-model": (
        [*_EXPLAIN, "--out", "in.json"],
        "output in.json is the same file as input in.json"),
    "explain-heatmap-out-is-out": (
        [*_EXPLAIN, "--out", "s.csv", "--heatmap", "t0", "--heatmap-out",
         "s.csv"], "output s.csv is the same file as output s.csv"),
    "synth-out-is-config": (
        ["synth", "--out", "in.json", "--config", "in.json"],
        "output in.json is the same file as input in.json"),
    "sweep-summary-is-scores": (
        ["sweep", "--scores", "rr/summary.csv", "--data", "in.jsonl", "--out",
         "rr"], "output rr/summary.csv is the same file as input rr/summary.csv"),
    "sweep-histogram-is-data": (
        ["sweep", "--scores", "in.csv", "--data", "rr/hist-all.csv", "--out",
         "rr"], "output rr/hist-all.csv is the same file as input rr/hist-all.csv"),
    "sweep-windows-1.5": (
        [*_SWEEP, "--windows", "1.5"],
        "--windows must be a comma-separated list of integers, got '1.5'"),
    "sweep-windows-5,x": (
        [*_SWEEP, "--windows", "5,x"],
        "--windows must be a comma-separated list of integers, got '5,x'"),
    "sweep-windows-0": ([*_SWEEP, "--windows", "0"],
                        "window sizes must be at least 1"),
    "sweep-windows-comma": ([*_SWEEP, "--windows", ","],
                            "need at least one mode and one window size"),
}


class TestOutputPaths:
    @pytest.mark.parametrize("case", _BAD_OUTPUTS)
    def test_rejected_before_any_work(self, case, tmp_path, monkeypatch,
                                      capsys):
        argv, bad = _BAD_OUTPUTS[case]
        monkeypatch.chdir(tmp_path)
        (tmp_path / "taken").write_text("")
        (tmp_path / "in.json").write_text("{}")
        (tmp_path / "in.jsonl").write_text("{}\n")
        (tmp_path / "link.jsonl").symlink_to("in.jsonl")
        (tmp_path / "heatmap-t0.csv").mkdir()
        (tmp_path / "rr").mkdir()
        (tmp_path / "rr" / "summary.csv").write_text("")
        (tmp_path / "rr" / "hist-all.csv").write_text("")

        def work(*args, **kwargs):
            raise AssertionError("the command did work before it checked "
                                 "its output paths")

        for name in ("synth.load_synth_config", "data.load_dataset",
                     "network.load_model", "network.grid_search"):
            monkeypatch.setattr(f"framescore.{name}", work)
        def contents():
            return {p: p.is_file() and p.read_bytes()
                    for p in tmp_path.rglob("*")}

        before = contents()
        assert run(*argv) == 2
        assert bad in capsys.readouterr().err
        assert contents() == before


class TestSizesPastSysMaxsize:
    """A size whose arrays no numpy array can hold exits 2 with one line
    naming it, no traceback and no file; a size numpy can index but no
    machine can allocate exits 2 as running out of memory."""

    @pytest.mark.parametrize("flags, message", [
        (["--t-max", 10**18, "--patient-count", 1,
          "--trials-per-patient-per-side", 1],
         "error: t_max 1000000000000000000 is too large for 2 trials"),
        (["--length-range", 1, 10**19, "--t-max", 10**19],
         "error: t_max 10000000000000000000 is too large for 300 trials"),
        (["--t-max", 10**14, "--patient-count", 1,
          "--trials-per-patient-per-side", 1],
         "error: out of memory: "),
    ], ids=["t-max", "length-range", "merely-large-t-max"])
    def test_synth(self, tmp_path, capsys, flags, message):
        out = tmp_path / "huge.jsonl"
        assert run("synth", "--out", out, *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "explain", "sweep"])
    def test_dataset_header_t_max(self, tmp_path, capsys, command):
        data = make_dataset(tmp_path)
        model = train_small(tmp_path, data, epochs=1)
        scores = tmp_path / "scores.csv"
        assert run("explain", "--model", model, "--data", data,
                   "--out", scores) == 0
        lines = data.read_text().splitlines()
        header = json.loads(lines[0])
        header["t_max"] = 10**18
        data.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        out = tmp_path / "out"
        argv = {"train": ["--out", out],
                "explain": ["--model", model, "--out", out],
                "sweep": ["--scores", scores, "--out", out]}[command]
        capsys.readouterr()
        assert run(command, "--data", data, *argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {data}: t_max 1000000000000000000 is too large for 12 "
            f"trials: their float64 features would take "
            f"1536000000000000000000 bytes, more than sys.maxsize")
        assert not out.exists()

    def test_grid_width(self, tmp_path, capsys):
        data = make_dataset(tmp_path)
        model = tmp_path / "model.json"
        assert run("train", "--data", data, "--out", model, "--split", 0.5,
                   "--grid", write_grid(tmp_path, hidden=((2**63 - 1,),))) == 2
        assert capsys.readouterr().err == (
            f"error: hidden widths [{2**63 - 1}] are too large for input_dim "
            f"640: their float64 parameters would take "
            f"{8 * (641 * (2**63 - 1) + 2**63 - 1 + 1)} bytes, more than "
            f"sys.maxsize ({sys.maxsize})\n")
        assert not model.exists()
        assert not (tmp_path / "model.json.grid.csv").exists()


class TestUsageAndHelp:
    def test_help_lists_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("synth", "--help")
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--seed" in text
        assert "--patient-count" in text
        assert "default" in text

    def test_every_command_has_help(self, capsys):
        for command in ("synth", "train", "explain", "sweep"):
            with pytest.raises(SystemExit) as exc:
                run(command, "--help")
            assert exc.value.code == 0
            assert "--help" in capsys.readouterr().out

    def test_unknown_command_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 1

    def test_heatmap_out_without_heatmap_exits_1(self, tmp_path, capsys,
                                                 monkeypatch):
        def work(*args, **kwargs):
            raise AssertionError("explain did work before it checked its flags")

        for name in ("data.load_dataset", "network.load_model"):
            monkeypatch.setattr(f"framescore.{name}", work)
        with pytest.raises(SystemExit) as exc:
            run("explain", "--model", tmp_path / "m.json", "--data",
                tmp_path / "d.jsonl", "--out", tmp_path / "s.csv",
                "--heatmap-out", tmp_path / "h.csv")
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert "--heatmap-out needs --heatmap TRIAL_ID" in err
        assert list(tmp_path.iterdir()) == []

    def test_missing_required_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("synth")
        assert exc.value.code == 1
