"""Quality numbers and output checks read from the pipeline's artifacts.

Everything here reads files the CLI wrote; nothing imports framescore, so
the untraced benchmark measures the program only through its processes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

import numpy as np

LABEL_COMPENSATORY = 0
THRESHOLD_ROWS = 101  # sweep grid 0.00, 0.01, ..., 1.00 at the default step


def auroc(scores, positive) -> float:
    """Area under the ROC curve by ranks (Mann-Whitney U), ties averaged.

    `positive` marks the positive class. Both classes must be present.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positive = np.asarray(positive, dtype=bool)
    n_pos = int(positive.sum())
    n_neg = len(scores) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs both classes")
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    # 1-based rank of each run of equal scores is the mean of its positions
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], len(scores)]
    run_rank = (starts + ends + 1) / 2.0
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(run_rank, ends - starts)
    u = ranks[positive].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def all_positive_f2(group0: int, group1: int) -> float:
    """F2 of flagging every frame: 5p / (4p + 1) with p = group0 / total."""
    p = group0 / (group0 + group1)
    return 5.0 * p / (4.0 * p + 1.0)


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def artifact_hashes(workdir) -> dict[str, str]:
    """sha256 of every file under workdir except the stage logs."""
    out = {}
    for dirpath, _, files in os.walk(workdir):
        for name in files:
            if name.endswith(".log"):
                continue
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, workdir)] = sha256(path)
    return dict(sorted(out.items()))


def dataset_shape(path) -> tuple[int, int, int]:
    """(trials, t_max, unpadded frames) of a dataset file."""
    trials = frames = 0
    with open(path, "r", encoding="utf-8") as fh:
        t_max = int(json.loads(fh.readline())["t_max"])
        for line in fh:
            if line.strip():
                trials += 1
                frames += len(json.loads(line)["frame_labels"])
    return trials, t_max, frames


def count_data_rows(path) -> int:
    """Rows after the header line of a CSV file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def sweep_threshold_rows(path) -> int:
    """Threshold rows of a sweep report: those before its best-row block."""
    rows = 0
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if not row:
                break
            rows += 1
    return rows


def read_summary(path) -> dict[tuple[str, int], dict[str, str]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return {(r["mode"], int(r["window"])): r for r in csv.DictReader(fh)}


def pooled_auroc(path) -> float:
    """Frame AUROC of a pooled score file, compensatory as the positive class."""
    scores, positive = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for r in csv.DictReader(fh):
            scores.append(float(r["normalized_score"]))
            positive.append(int(r["frame_label"]) == LABEL_COMPENSATORY)
    return auroc(scores, positive)


def checkpoint_facts(path) -> tuple[float, float]:
    """(test accuracy, live-input fraction) of a model checkpoint."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    scale = np.asarray(payload["scaler"]["scale"], dtype=np.float64)
    return float(payload["metadata"]["test_accuracy"]), float((scale > 0).mean())
