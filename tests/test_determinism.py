"""The byte contract across CPUs.

numpy's OpenBLAS chooses its kernel from the CPU at run time, and kernels
round matrix products differently. Two sets of artifacts follow:

- machine-independent, byte-identical under any kernel: the dataset, the
  grid report, `summary.csv`, every `report-*.csv` and `hist-*.csv`, and
  each stage's stdout once the output paths it prints are set aside;
- machine-dependent, equal to within 1e-11 relative: `model.json`,
  `scores.csv` and the `pooled-scores-*.csv` files.

The test runs CI's 12-trial pipeline twice in child processes, once with the
kernel this CPU gets and once with `OPENBLAS_CORETYPE=Prescott`, the oldest
x86-64 kernel.
"""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framescore
from framescore.network import load_model

SRC = str(Path(framescore.__file__).resolve().parents[1])


def dynamic_openblas() -> bool:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return False
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


def pipeline(root: Path, env: dict) -> str:
    """synth, a 1-cell 1-epoch train, explain and sweep in `root`; their
    stdout with `root` replaced by `<root>`."""
    grid = root / "grid.json"
    grid.write_text('{"hidden_layers": [[4]], "learning_rates": [0.001]}')
    data, model, scores = root / "data.jsonl", root / "model.json", root / "scores.csv"
    stages = [
        ["synth", "--out", data, "--seed", "5", "--patient-count", "3",
         "--trials-per-patient-per-side", "2", "--length-range", "20", "30",
         "--t-max", "40", "--comp-prob-affected", "1.0"],
        ["train", "--data", data, "--out", model, "--split", "0.5", "--seed",
         "0", "--grid", grid, "--epochs", "1", "--batch-size", "4"],
        ["explain", "--model", model, "--data", data, "--out", scores],
        ["sweep", "--scores", scores, "--data", data, "--out", root / "reports"],
    ]
    child_env = {**os.environ, **env,
                 "PYTHONPATH": os.pathsep.join(
                     filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    out = []
    for argv in stages:
        done = subprocess.run(
            [sys.executable, "-m", "framescore.cli", *map(str, argv)],
            env=child_env, capture_output=True, text=True, check=True)
        out.append(done.stdout)
    return "".join(out).replace(str(root), "<root>")


def raw_scores(path: Path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(r["raw_score"]) for r in csv.DictReader(fh)])


@pytest.mark.skipif(not dynamic_openblas(),
                    reason="numpy's OpenBLAS does not pick its kernel at run time")
def test_artifacts_under_another_blas_kernel(tmp_path):
    here, there = tmp_path / "here", tmp_path / "prescott"
    here.mkdir()
    there.mkdir()
    stdout = pipeline(here, {}), pipeline(there, {"OPENBLAS_CORETYPE": "Prescott"})
    if (here / "model.json").read_bytes() == (there / "model.json").read_bytes():
        pytest.skip("this CPU's kernel and Prescott train the same bytes")

    assert stdout[0] == stdout[1]
    same = ["data.jsonl", "model.json.grid.csv", "reports/summary.csv"]
    same += [p.relative_to(here).as_posix()
             for pattern in ("report-*.csv", "hist-*.csv")
             for p in sorted((here / "reports").glob(pattern))]
    assert len(same) == 3 + 15 + 3
    for name in same:
        assert (here / name).read_bytes() == (there / name).read_bytes(), name

    a, b = load_model(here / "model.json"), load_model(there / "model.json")
    for got, want in zip(a.weights + a.biases, b.weights + b.biases):
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0)
    np.testing.assert_allclose(raw_scores(here / "scores.csv"),
                               raw_scores(there / "scores.csv"),
                               rtol=1e-11, atol=0)
