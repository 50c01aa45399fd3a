"""Batch pipeline driver: synthesize, train, explain, sweep.

Exit codes: 0 success, 1 usage error, 2 data or configuration validation
error, 3 numeric failure during training. Commands validate their inputs
before writing any output file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import data, evaluation, network, saliency, synth
from .errors import ContractError, DataValidationError, NumericFailure

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def build_parser() -> _Parser:
    parser = _Parser(
        prog="framescore",
        description=(
            "Localize salient frames in motion time series from weak "
            "trial-level labels via input-gradient saliency."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser(
        "synth", formatter_class=fmt,
        help="generate a labelled synthetic dataset",
    )
    p.add_argument("--out", required=True, help="output dataset file")
    p.add_argument("--config", default=None, help="JSON file of generator fields")
    p.add_argument("--seed", type=int, default=None,
                   help="override the generator seed")
    p.add_argument("--patient-count", type=int, default=None)
    p.add_argument("--trials-per-patient-per-side", type=int, default=None)
    p.add_argument("--length-range", type=int, nargs=2, default=None,
                   metavar=("MIN", "MAX"))
    p.add_argument("--comp-prob-affected", type=float, default=None,
                   dest="compensation_probability_affected")
    p.add_argument("--comp-prob-unaffected", type=float, default=None,
                   dest="compensation_probability_unaffected")
    p.add_argument("--coverage-range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"),
                   dest="compensation_coverage_range")
    p.add_argument("--comp-amplitude", type=float, default=None,
                   dest="compensation_amplitude")
    p.add_argument("--motion-amplitude", type=float, default=None)
    p.add_argument("--noise-std", type=float, default=None)
    p.add_argument("--t-max", type=int, default=None)

    p = sub.add_parser(
        "train", formatter_class=fmt,
        help="featurize, split, grid-search, and train the classifier",
    )
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--out", required=True, help="model checkpoint path")
    p.add_argument("--split", type=float, default=0.8,
                   help="training fraction of the trial-level split")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", default=None,
                   help="JSON grid file with hidden_layers and learning_rates")
    p.add_argument("--grid-report", default=None,
                   help="grid report CSV path (default: <out>.grid.csv)")
    p.add_argument("--folds", type=int, default=3,
                   help="cross-validation folds for the grid search")
    p.add_argument("--epochs", type=int, default=network.TrainConfig.epochs)
    p.add_argument("--batch-size", type=int,
                   default=network.TrainConfig.batch_size)
    p.add_argument("--momentum", type=float,
                   default=network.TrainConfig.momentum)

    p = sub.add_parser(
        "explain", formatter_class=fmt,
        help="compute per-frame saliency scores for every trial",
    )
    p.add_argument("--model", required=True, help="model checkpoint")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--out", required=True, help="raw score CSV path")
    p.add_argument("--heatmap", default=None, metavar="TRIAL_ID",
                   help="also export a normalized importance grid for a trial")
    p.add_argument("--heatmap-out", default=None,
                   help="heatmap path (default: <out dir>/heatmap-<trial>.csv)")

    p = sub.add_parser(
        "sweep", formatter_class=fmt,
        help="threshold sweeps over filter modes and window sizes",
    )
    p.add_argument("--scores", required=True, help="raw score CSV from explain")
    p.add_argument("--data", required=True, help="dataset file")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--modes",
                   default=",".join(m.value for m in evaluation.FilterMode),
                   help="comma-separated filter modes")
    p.add_argument("--windows",
                   default=",".join(map(str, evaluation.DEFAULT_WINDOWS)),
                   help="comma-separated window sizes")
    p.add_argument("--beta", type=float, default=evaluation.DEFAULT_BETA)
    p.add_argument("--step", type=float, default=evaluation.DEFAULT_STEP)
    return parser


def _cmd_synth(args) -> int:
    # each flag's dest is the name of the generator field it overrides
    config = synth.load_synth_config(args.config, **{
        f.name: getattr(args, f.name) for f in fields(synth.SynthConfig)
    })
    manifest = synth.generate_dataset(config)
    data.save_dataset(manifest, args.out)

    unpadded = int(manifest.lengths.sum())
    comp = int(np.count_nonzero(manifest.frame_labels == data.LABEL_COMPENSATORY))
    comp_trials = int(np.count_nonzero(
        manifest.trial_labels == data.LABEL_COMPENSATORY))
    padded_slots = int(manifest.padded.sum())
    print(
        f"{len(manifest)} trials ({comp_trials} compensatory), "
        f"{unpadded} frames ({comp} compensatory, {unpadded - comp} normal), "
        f"{padded_slots} padded slots, t_max {manifest.t_max}, "
        f"seed {config.seed} -> {args.out}"
    )
    return EXIT_OK


def _parse_grid(path):
    """Hidden-layer options and learning rates of a JSON grid file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError as exc:
        raise DataValidationError(f"grid file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise DataValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(obj, dict) or \
            not {"hidden_layers", "learning_rates"} <= set(obj):
        raise DataValidationError(
            f"{path}: grid file needs 'hidden_layers' and 'learning_rates'"
        )

    # type() rather than isinstance(): JSON true and false are not numbers.
    def widths(h) -> bool:
        return isinstance(h, list) and all(type(w) is int and w >= 1 for w in h)

    def rate(r) -> bool:
        return type(r) in (int, float) and 0 < r < math.inf

    for name, ok, want in (("hidden_layers", widths, "lists of integers >= 1"),
                           ("learning_rates", rate, "finite positive numbers")):
        values = obj[name]
        if not isinstance(values, list) or not values or not all(map(ok, values)):
            raise DataValidationError(
                f"{path}: field {name!r} must be a non-empty list of {want}, "
                f"got {values!r}"
            )
    return obj["hidden_layers"], obj["learning_rates"]


def _write_grid_report(result: network.GridSearchResult, path) -> None:
    import csv

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["hidden_layers", "learning_rate", "mean_val_accuracy",
             "fold_accuracies", "parameters", "selected"]
        )
        for i, cell in enumerate(result.cells):
            writer.writerow(
                [
                    "x".join(str(w) for w in cell.architecture.hidden_layers),
                    repr(cell.config.learning_rate),
                    repr(cell.mean_val_accuracy),
                    ";".join(repr(a) for a in cell.fold_accuracies),
                    cell.architecture.parameter_count,
                    int(i == result.best_index),
                ]
            )
        for note in result.warnings:
            writer.writerow([f"# warning: {note}"])


def _layout(manifest: data.DatasetManifest) -> dict:
    """Dataset layout a checkpoint records at train time and explain checks."""
    return {
        "t_max": manifest.t_max,
        "feature_count": manifest.layout.feature_count,
        "joints": list(manifest.layout.joints),
    }


def _cmd_train(args) -> int:
    manifest = data.load_dataset(args.data)
    train_set, test_set = data.split_dataset(manifest, args.split, args.seed)
    print(f"{len(train_set)} train / {len(test_set)} test trials "
          f"(split {args.split}, seed {args.seed})")

    def flatten(m: data.DatasetManifest):
        return (data.featurize(m).reshape(len(m), -1),
                m.trial_labels.astype(np.float64))

    X_train, y_train = flatten(train_set)
    X_test, y_test = flatten(test_set)
    input_dim = X_train.shape[1]

    base_config = network.TrainConfig(
        momentum=args.momentum,
        epochs=args.epochs,
        batch_size=min(args.batch_size, len(train_set)),
        seed=args.seed,
    )
    if args.grid is None:
        grid = network.build_grid(input_dim, base_config=base_config)
    else:
        hidden, rates = _parse_grid(args.grid)
        grid = network.build_grid(input_dim, hidden, rates, base_config)

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = network.grid_search(X_train, y_train, grid,
                                     folds=args.folds, seed=args.seed)
    for message in dict.fromkeys(str(w.message) for w in caught):
        _warn(message)
    best = result.best
    hidden = "x".join(str(w) for w in best.architecture.hidden_layers)
    print(f"grid search: {len(result.cells)} cells, best hidden [{hidden}] "
          f"lr {best.config.learning_rate} "
          f"(mean val accuracy {best.mean_val_accuracy:.4f})")

    model = network.train(X_train, y_train, best.architecture, best.config)
    model.metadata["test_accuracy"] = network.evaluate_accuracy(
        model, X_test, y_test
    )
    model.metadata["train_trials"] = len(train_set)
    model.metadata["test_trials"] = len(test_set)
    model.metadata["split"] = args.split
    model.metadata.update(_layout(manifest))

    network.save_model(model, args.out)
    grid_report = args.grid_report or f"{args.out}.grid.csv"
    _write_grid_report(result, grid_report)
    print(
        f"train accuracy {model.metadata['train_accuracy']:.4f}, "
        f"test accuracy {model.metadata['test_accuracy']:.4f} -> {args.out}"
    )
    return EXIT_OK


def _cmd_explain(args) -> int:
    model = network.load_model(args.model)
    manifest = data.load_dataset(args.data)
    for key, value in _layout(manifest).items():
        got = model.metadata.get(key, "not recorded")
        if got != value:
            raise DataValidationError(
                f"{args.model}: checkpoint {key} {got!r} does not match "
                f"dataset {key} {value!r}"
            )
    if args.heatmap is not None and args.heatmap not in manifest.trial_ids:
        raise DataValidationError(f"trial {args.heatmap!r} not in dataset")

    X = data.featurize(manifest)
    tracks = saliency.compute_tracks(model, manifest, X)
    saliency.write_raw_scores(args.out, manifest, tracks)
    print(f"{len(tracks)} trials x {manifest.t_max} frames -> {args.out}")

    if args.heatmap is not None:
        grid = saliency.importance_matrix(saliency.compute_saliency(
            model, manifest, X, manifest.trial_ids.index(args.heatmap)
        ))
        out = args.heatmap_out or os.path.join(
            os.path.dirname(os.path.abspath(args.out)),
            f"heatmap-{args.heatmap}.csv",
        )
        saliency.export_heatmap(grid, out, manifest.layout.feature_names())
        print(f"heatmap for {args.heatmap} -> {out}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    try:
        modes = list(dict.fromkeys(evaluation.FilterMode.parse(m.strip())
                                   for m in args.modes.split(",") if m.strip()))
        windows = list(dict.fromkeys(int(w) for w in args.windows.split(",")
                                     if w.strip()))
    except (ContractError, ValueError) as exc:
        raise DataValidationError(str(exc)) from exc
    if not modes or not windows:
        raise DataValidationError("need at least one mode and one window size")
    if any(w < 1 for w in windows):
        raise DataValidationError("window sizes must be at least 1")
    if not 0.0 < args.beta < math.inf:
        raise DataValidationError(
            f"--beta must be positive and finite, got {args.beta}")
    if not 0.0 < args.step <= 1.0:
        raise DataValidationError("--step must be in (0, 1]")

    manifest = data.load_dataset(args.data)
    raw = saliency.read_raw_scores(args.scores, manifest)

    # Each usable mode is selected here, to skip one whose pool cannot be
    # formed, and again in run_experiment_matrix: the benchmark's span tests
    # pin that count (select_frames useful_ratio == 0.5) until they change.
    usable = []
    for mode in modes:
        try:
            evaluation.select_frames(manifest, raw, mode)
        except ContractError as exc:
            _warn(f"skipping mode {mode.value!r}: {exc}")
            continue
        usable.append(mode)
    if not usable:
        _warn("no usable filter modes; nothing to report")
        return EXIT_OK

    results = evaluation.run_experiment_matrix(
        manifest, raw, usable, windows, beta=args.beta, step=args.step
    )
    os.makedirs(args.out, exist_ok=True)
    for res in results:
        saliency.write_pooled_scores(
            os.path.join(args.out, f"pooled-scores-{res.mode.value}.csv"),
            res.pool,
        )
        evaluation.write_histogram(
            res.histogram, os.path.join(args.out, f"hist-{res.mode.value}.csv")
        )
        for report in res.reports:
            evaluation.write_sweep_report(
                report,
                os.path.join(
                    args.out,
                    f"report-{res.mode.value}-w{report.window_size}.csv",
                ),
            )
    evaluation.write_summary(results, os.path.join(args.out, "summary.csv"))
    print(f"beta {args.beta}, step {args.step}")
    print(evaluation.format_pool_table(results))
    print()
    print(evaluation.format_summary(results))
    print(f"reports -> {args.out}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "explain": _cmd_explain,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DataValidationError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
