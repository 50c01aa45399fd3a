"""End-to-end acceptance suite.

Runs the default synthetic pipeline once (seed 42) and checks every
criterion at its stated tolerance, printing one PASS line per criterion
(visible with pytest -s).
"""

import time
from dataclasses import dataclass

import numpy as np
import pytest

from framescore.cli import main as cli_main
from framescore.data import featurize, split_dataset
from framescore.evaluation import (
    ConfusionCounts,
    FilterMode,
    fbeta,
    run_experiment_matrix,
    select_frames,
    sweep,
)
from framescore.network import (
    InputScaler,
    ModelArchitecture,
    TrainConfig,
    _forward_batch,
    bce_loss,
    evaluate_accuracy,
    init_model,
    input_gradient,
    predict_proba,
    train,
)
from framescore.saliency import (
    FramePool,
    compute_saliency,
    compute_tracks,
    export_heatmap,
    importance_matrix,
    normalize_pool,
)
from framescore.synth import SynthConfig, generate_dataset

SEED = 42


@dataclass
class PipelineRun:
    manifest: object
    features: object
    model: object
    test_accuracy: float
    raw: object
    results: tuple
    elapsed_seconds: float


@pytest.fixture(scope="session")
def pipeline():
    """Default config end-to-end run: synth, featurize, train, explain, sweep."""
    start = time.perf_counter()
    manifest = generate_dataset(SynthConfig(seed=SEED))
    features = featurize(manifest)
    train_rows, test_rows = split_dataset(manifest, 0.8, seed=SEED)
    X = features.reshape(len(manifest), -1)
    y = manifest.trial_labels.astype(np.float64)
    X_train, y_train = X[train_rows], y[train_rows]
    X_test, y_test = X[test_rows], y[test_rows]
    model = train(
        X_train, y_train,
        ModelArchitecture(input_dim=X_train.shape[1]),
        TrainConfig(seed=SEED),
    )
    test_accuracy = evaluate_accuracy(model, X_test, y_test)
    raw = np.array([t.raw_scores
                    for t in compute_tracks(model, manifest, features)])
    results = run_experiment_matrix(manifest, raw)
    elapsed = time.perf_counter() - start
    return PipelineRun(manifest, features, model, test_accuracy, raw,
                       results, elapsed)


def _kink_free_triple(base_seed):
    """Random (model, input, label) with margin around every ReLU kink."""
    for attempt in range(50):
        rng = np.random.default_rng((base_seed, attempt))
        input_dim = int(rng.integers(6, 20))
        hidden = (int(rng.integers(4, 12)), int(rng.integers(3, 8)))
        model = init_model(ModelArchitecture(input_dim, hidden), rng,
                           InputScaler(np.zeros(input_dim), np.ones(input_dim)))
        x = rng.normal(size=input_dim)
        y = int(rng.integers(0, 2))
        _, pre, _ = _forward_batch(model, x[None])
        if min(float(np.abs(z).min()) for z in pre) > 1e-3:
            return model, x, y
    raise AssertionError("no kink-free triple found")


def test_criterion_1_gradient_oracle():
    start = time.perf_counter()
    worst = 0.0
    for k in range(20):
        model, x, y = _kink_free_triple(1000 + k)
        analytic = input_gradient(model, x, y)
        fd = np.zeros_like(x)
        for i in range(len(x)):
            h = 1e-6 * max(1.0, abs(x[i]))
            xp, xm = x.copy(), x.copy()
            xp[i] += h
            xm[i] -= h
            lp, lm = (bce_loss(predict_proba(model, v[None])[0], y)
                      for v in (xp, xm))
            fd[i] = (lp - lm) / (2.0 * h)
        denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(fd)))
        rel = np.abs(analytic - fd) / denom
        worst = max(worst, float(rel.max()))
        assert np.all(rel <= 1e-5)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE PASS [1] gradient oracle: 20 triples, "
          f"max rel err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_metric_oracle():
    start = time.perf_counter()
    beta = 2.0
    b2 = beta * beta
    for tp in range(21):
        for fp in range(21):
            for tn in range(21):
                for fn in range(21):
                    got = fbeta(ConfusionCounts(tp, fp, tn, fn), beta)
                    p = tp / (tp + fp) if tp + fp else 0.0
                    r = tp / (tp + fn) if tp + fn else 0.0
                    want = ((1 + b2) * p * r / (b2 * p + r)
                            if (p or r) else 0.0)
                    assert abs(got - want) <= 1e-12
                    if p > 0 and r > 0:
                        harmonic = (1 + b2) / (b2 / r + 1 / p)
                        assert abs(got - harmonic) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE PASS [2] metric oracle: 21^4 confusion matrices "
          f"(product and harmonic forms), {elapsed:.2f}s")


def test_criterion_3_bookkeeping_oracle(pipeline):
    manifest, raw = pipeline.manifest, pipeline.raw
    assert len(manifest) == 300
    assert pipeline.manifest.t_max == 394
    all_entries = select_frames(manifest, raw, FilterMode.ALL)
    assert len(all_entries) == 118_200
    no_pad = select_frames(manifest, raw, FilterMode.NO_PAD)
    assert len(no_pad) == manifest.lengths.sum()
    comp = select_frames(manifest, raw, FilterMode.COMP_NO_PAD)
    comp_keys = set(zip(comp.trial.tolist(), comp.frame_index.tolist()))
    no_pad_keys = set(zip(no_pad.trial.tolist(), no_pad.frame_index.tolist()))
    assert comp_keys <= no_pad_keys
    print(f"\nACCEPTANCE PASS [3] bookkeeping: ALL=118200, "
          f"NO_PAD={len(no_pad)}, COMP_NO_PAD={len(comp)} (nested)")


def test_criterion_4_normalization_properties():
    rng = np.random.default_rng(SEED)
    for case in range(25):
        n = int(rng.integers(5, 300))
        raws = rng.uniform(0.0, rng.uniform(0.1, 100.0), size=n)
        if raws.max() == raws.min():
            continue
        def normalized(r):
            return normalize_pool(FramePool(
                trial=np.zeros(n, dtype=np.int64), trial_ids=("t",),
                frame_index=np.arange(n), raw=r,
                label=np.ones(n, dtype=np.int64), padded=np.zeros(n, dtype=bool),
            )).normalized

        base = normalized(raws)
        assert base.min() == 0.0
        assert base.max() == 1.0
        for c in (0.5, 3.0, 1000.0):
            scaled = normalized(c * raws)
            assert np.all(np.abs(scaled - base) <= 1e-12)
    print("\nACCEPTANCE PASS [4] normalization: min 0 / max 1, "
          "scale-invariant to 1e-12 under c in {0.5, 3, 1000}")


def test_criterion_5_sweep_monotonicity(pipeline):
    rng = np.random.default_rng(SEED + 1)
    checked = 0
    for _ in range(10):
        n = int(rng.integers(20, 500))
        report = sweep(rng.uniform(size=n), rng.integers(0, 2, size=n))
        recalls = report.recall.tolist()
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))
        c = report.counts
        assert np.all(c.tp + c.fp + c.tn + c.fn == n)
        checked += 1
    for report in [r for res in pipeline.results for r in res.reports]:
        recalls = report.recall.tolist()
        assert all(a >= b for a, b in zip(recalls, recalls[1:]))
        c = report.counts
        totals = set((c.tp + c.fp + c.tn + c.fn).tolist())
        assert totals == {report.total}
        checked += 1
    print(f"\nACCEPTANCE PASS [5] sweep monotonicity on {checked} sweeps "
          f"(random pools + end-to-end reports)")


def test_criterion_6_end_to_end_trends(pipeline):
    assert pipeline.elapsed_seconds < 300.0
    assert pipeline.test_accuracy >= 0.95
    reports = {(res.mode, r.window_size): r
               for res in pipeline.results for r in res.reports}
    comp5 = reports[FilterMode.COMP_NO_PAD, 5]
    all5 = reports[FilterMode.ALL, 5]
    assert comp5.best_fbeta >= 0.80
    assert comp5.best_recall >= 0.90
    assert comp5.best_fbeta > all5.best_fbeta
    print(f"\nACCEPTANCE PASS [6] end-to-end: test accuracy "
          f"{pipeline.test_accuracy:.3f} (>=0.95), comp-no-pad w5 "
          f"F2 {comp5.best_fbeta:.3f} (>=0.80) recall "
          f"{comp5.best_recall:.3f} (>=0.90), all w5 F2 "
          f"{all5.best_fbeta:.3f} (strictly below), "
          f"{pipeline.elapsed_seconds:.0f}s (<300s)")


def test_criterion_7_window_robustness(pipeline):
    reports = {(res.mode, r.window_size): r
               for res in pipeline.results for r in res.reports}
    scores = [
        reports[FilterMode.COMP_NO_PAD, w].best_fbeta
        for w in (5, 10, 15, 20)
    ]
    spread = max(scores) - min(scores)
    assert spread <= 0.1
    print(f"\nACCEPTANCE PASS [7] window robustness: comp-no-pad best F2 "
          f"per w {[round(s, 4) for s in scores]}, spread {spread:.4f} (<=0.1)")


def test_criterion_8_determinism(tmp_path_factory):
    """Two runs in one process write every artifact byte for byte, the
    second from a dataset of another name. Across BLAS kernels only the
    machine-independent set is byte-identical: the dataset, the grid
    report, `summary.csv`, every `report-*.csv` and `hist-*.csv`, and
    stdout apart from its paths. `model.json`, `scores.csv` and the pooled
    score files agree to 1e-11 relative (tests/test_determinism.py)."""
    outputs = []
    for run, name in (("one", "data.jsonl"), ("two", "cold.jsonl")):
        root = tmp_path_factory.mktemp(f"determinism_{run}")
        data = root / name
        model = root / "model.json"
        scores = root / "scores.csv"
        reports = root / "reports"
        grid = root / "grid.json"
        grid.write_text('{"hidden_layers": [[8]], "learning_rates": [0.001]}')
        assert cli_main([
            "synth", "--out", str(data), "--seed", "11",
            "--patient-count", "4", "--trials-per-patient-per-side", "2",
            "--length-range", "30", "50", "--t-max", "60",
        ]) == 0
        assert cli_main([
            "train", "--data", str(data), "--out", str(model),
            "--split", "0.5", "--seed", "11", "--grid", str(grid),
            "--epochs", "25", "--batch-size", "4",
        ]) == 0
        assert cli_main([
            "explain", "--model", str(model), "--data", str(data),
            "--out", str(scores),
        ]) == 0
        assert cli_main([
            "sweep", "--scores", str(scores), "--data", str(data),
            "--out", str(reports), "--windows", "1,5",
        ]) == 0
        bundle = {
            "dataset": data.read_bytes(),
            "model": model.read_bytes(),
            "grid_report": (root / "model.json.grid.csv").read_bytes(),
            "scores": scores.read_bytes(),
        }
        for path in sorted(reports.iterdir()):
            bundle[f"report/{path.name}"] = path.read_bytes()
        outputs.append(bundle)
    assert outputs[0].keys() == outputs[1].keys()
    for name in outputs[0]:
        assert outputs[0][name] == outputs[1][name], f"{name} differs"
    print(f"\nACCEPTANCE PASS [8] determinism: {len(outputs[0])} artifacts "
          f"byte-identical across two full pipeline runs")


def test_criterion_9_heatmap_contrast(pipeline):
    ratios = []
    exported = False
    manifest = pipeline.manifest
    for i, trial_id in enumerate(manifest.trial_ids):
        if manifest.trial_labels[i] != 0:
            continue
        grid = importance_matrix(
            compute_saliency(pipeline.model, manifest, pipeline.features, i))
        if not exported:
            # exercise the on-disk path once and assert on the file contents
            import tempfile, os

            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "heatmap.csv")
                export_heatmap(
                    grid, path, pipeline.manifest.layout.feature_names()
                )
                lines = open(path).read().splitlines()
                assert len(lines) == 395
                assert all(len(l.split(",")) == 17 for l in lines)
                grid = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:]
            exported = True
        length = manifest.lengths[i]
        segment = manifest.frame_labels[i, :length] == 0
        seg_mean = grid[:length][segment].mean()
        pad_mean = grid[length:].mean()
        assert seg_mean >= 2.0 * pad_mean, \
            f"trial {trial_id}: {seg_mean:.4g} < 2 x {pad_mean:.4g}"
        ratios.append(seg_mean / pad_mean if pad_mean > 0 else np.inf)
    assert ratios, "no compensatory trials generated"
    finite = [r for r in ratios if np.isfinite(r)]
    print(f"\nACCEPTANCE PASS [9] heatmap contrast: {len(ratios)} "
          f"compensatory trials, min ratio "
          f"{min(finite):.2f} (every trial >= 2x)")
