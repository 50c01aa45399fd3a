"""The benchmark's workloads: CLI arguments for each stage, built from a seed.

Every workload runs train, explain and sweep, so that every end-to-end
metric exists for each of them; they differ in which layer does most of the
work. The program sees only the generated dataset, the grid file and argv.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

HEATMAP_TRIAL = "P00-affected-02"
# One cell, the architecture the default grid search picks: a light train
# stage whose time is mostly loading, featurizing and saving.
ONE_CELL_GRID = {"hidden_layers": [[32]], "learning_rates": [0.001]}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth_args: tuple[str, ...] = ()
    train_args: tuple[str, ...] = ()
    grid: dict | None = None  # written to grid.json and passed as --grid
    sweep_args: tuple[str, ...] = ()

    @property
    def modes(self) -> list[str]:
        return _flag_list(self.sweep_args, "--modes", "all,no-pad,comp-no-pad")

    @property
    def windows(self) -> list[str]:
        return _flag_list(self.sweep_args, "--windows", "1,5,10,15,20")

    def record(self) -> dict:
        """The workload's inputs, as recorded next to its results."""
        return {
            "synth": list(self.synth_args),
            "train": list(self.train_args),
            "grid": self.grid or "default 8-cell grid",
            "sweep": list(self.sweep_args),
            "heatmap": HEATMAP_TRIAL,
        }


def _flag_list(args, flag, default) -> list[str]:
    value = args[args.index(flag) + 1] if flag in args else default
    return [v.strip() for v in value.split(",") if v.strip()]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="train-grid",
            why="8-cell grid x 3 folds on the default, 60%-padded data: "
                "network fits do most of the work",
            train_args=("--epochs", "3"),
            sweep_args=("--modes", "comp-no-pad"),
        ),
        Workload(
            name="score-default",
            why="one-cell train, explain and a full sweep on the default data: "
                "saliency, evaluation and CSV I/O dominate",
            grid=ONE_CELL_GRID,
            train_args=("--folds", "2", "--epochs", "10"),
        ),
        Workload(
            name="full-length",
            why="trials of 360-394 frames, almost no padding: live inputs "
                "and pools grow, so pad-specific shortcuts show",
            synth_args=("--patient-count", "8", "--length-range", "360", "394"),
            train_args=("--epochs", "2"),
        ),
    )
}


class StagePaths:
    """Files of one workload run inside its work directory."""

    def __init__(self, workdir) -> None:
        self.workdir = workdir
        self.data = os.path.join(workdir, "data.jsonl")
        self.grid = os.path.join(workdir, "grid.json")
        self.model = os.path.join(workdir, "model.json")
        self.scores = os.path.join(workdir, "scores.csv")
        self.reports = os.path.join(workdir, "reports")

    def argv(self, workload: Workload, stage: str, seed: int) -> list[str]:
        if stage == "synth":
            return ["synth", "--out", self.data, "--seed", str(seed),
                    *workload.synth_args]
        if stage == "train":
            grid = ["--grid", self.grid] if workload.grid else []
            return ["train", "--data", self.data, "--out", self.model,
                    "--seed", str(seed), *grid, *workload.train_args]
        if stage == "explain":
            return ["explain", "--model", self.model, "--data", self.data,
                    "--out", self.scores, "--heatmap", HEATMAP_TRIAL]
        if stage == "sweep":
            return ["sweep", "--scores", self.scores, "--data", self.data,
                    "--out", self.reports, *workload.sweep_args]
        raise ValueError(f"unknown stage {stage!r}")

    def write_grid(self, workload: Workload) -> None:
        if workload.grid:
            with open(self.grid, "w", encoding="utf-8") as fh:
                json.dump(workload.grid, fh)
