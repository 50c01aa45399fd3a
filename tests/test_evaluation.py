import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framescore.errors import DataValidationError
from framescore.evaluation import (
    MIN_STEP,
    ConfusionCounts,
    FilterMode,
    ModeResult,
    ScoreHistogram,
    confusion_at,
    fbeta,
    format_pool_table,
    format_summary,
    histogram,
    precision,
    recall,
    run_experiment_matrix,
    select_frames,
    sweep,
    threshold_grid,
    write_histogram,
    write_summary,
    write_sweep_report,
)
from framescore.saliency import FramePool, normalize_pool
from tests.conftest import make_manifest, make_trial


def raw_for(manifest, seed=0):
    """A random (trials x t_max) raw-score block for the manifest."""
    rng = np.random.default_rng(seed)
    return rng.uniform(size=manifest.frame_labels.shape)


def pool_of(raws, labels):
    n = len(raws)
    return normalize_pool(FramePool(
        trial=np.zeros(n, dtype=np.int64),
        trial_ids=("t",),
        frame_index=np.arange(n),
        raw=np.asarray(raws, dtype=np.float64),
        label=np.asarray(labels, dtype=np.int64),
        padded=np.zeros(n, dtype=bool),
    ))


def frame_keys(pool):
    return [(pool.trial_ids[i], f) for i, f in
            zip(pool.trial.tolist(), pool.frame_index.tolist())]


class TestClassify:
    def test_boundary_is_normal(self):
        counts = confusion_at(np.array([0.36]), np.array([1]), np.array([0.36]))
        assert (counts.tn.tolist(), counts.fp.tolist()) == ([1], [0])

    def test_above_threshold_is_compensatory(self):
        counts = confusion_at(np.array([0.37]), np.array([0]), np.array([0.36]))
        assert (counts.tp.tolist(), counts.fn.tolist()) == ([1], [0])

    def test_max_threshold_flags_nothing(self):
        counts = confusion_at(np.array([0.0, 0.5, 1.0]), np.array([0, 1, 0]),
                              np.array([1.0]))
        assert (counts.tp + counts.fp).tolist() == [0]


class TestFbeta:
    def test_perfect(self):
        counts = ConfusionCounts(tp=10, fp=0, tn=5, fn=0)
        assert fbeta(counts, 2.0) == 1.0

    def test_hand_value(self):
        # P = 0.5, R = 1 -> F2 = 5 * 0.5 / (4 * 0.5 + 1) = 2.5 / 3
        counts = ConfusionCounts(tp=10, fp=10, tn=0, fn=0)
        assert fbeta(counts, 2.0) == pytest.approx(2.5 / 3.0, rel=1e-12)

    def test_degenerate_conventions(self):
        assert precision(ConfusionCounts(0, 0, 5, 5)) == 0.0
        assert recall(ConfusionCounts(0, 5, 5, 0)) == 0.0
        assert fbeta(ConfusionCounts(0, 0, 5, 0), 2.0) == 0.0

    def test_implied_precision_probe(self):
        # inverting F2 = 0.91 at R = 0.96 gives P ~ 0.753; the formula must
        # reproduce the starting F2 from that pair
        r, f2 = 0.96, 0.91
        p = r * f2 / (5.0 * r - 4.0 * f2)
        assert p == pytest.approx(0.753, abs=2e-3)
        assert 5.0 * p * r / (4.0 * p + r) == pytest.approx(f2, rel=1e-12)

    def test_invalid_beta(self):
        for beta in (0.0, -1.0, float("nan"), float("inf"), 1e200):
            with pytest.raises(DataValidationError):
                fbeta(ConfusionCounts(1, 1, 1, 1), beta)

    @given(
        tp=st.integers(0, 20), fp=st.integers(0, 20),
        tn=st.integers(0, 20), fn=st.integers(0, 20),
        beta=st.sampled_from([0.5, 1.0, 2.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_harmonic_mean_form(self, tp, fp, tn, fn, beta):
        counts = ConfusionCounts(tp, fp, tn, fn)
        p, r = precision(counts), recall(counts)
        if p > 0 and r > 0:
            harmonic = (1.0 + beta**2) / (beta**2 / r + 1.0 / p)
            assert fbeta(counts, beta) == pytest.approx(harmonic, rel=1e-12)


class TestThresholdGrid:
    def test_default_step(self):
        taus = threshold_grid(0.01)
        assert len(taus) == 101
        assert taus[0] == 0.0
        assert taus[-1] == 1.0
        assert taus[36] == 0.36

    def test_half_step(self):
        assert threshold_grid(0.5) == [0.0, 0.5, 1.0]

    def test_non_divisor_step_completed_with_one(self):
        assert threshold_grid(0.3) == [0.0, 0.3, 0.6, 0.9, 1.0]

    def test_invalid_step(self):
        # Below 5e-13 the rounded thresholds repeat; each sweep report keeps
        # 8 columns of 1 / step entries, about 64 MB apiece at 1e-6.
        for step in (0.0, -0.1, 1.5, math.nan, 1e-13, 9.99e-7, 1e-6, 9.99e-5):
            with pytest.raises(DataValidationError, match=r"step must be in \[0.0001, 1\]"):
                threshold_grid(step)

    def test_smallest_step(self):
        taus = threshold_grid(MIN_STEP)
        assert len(taus) == 10_001
        assert taus == sorted(set(taus))
        assert taus[1] == 1e-4 and taus[-1] == 1.0


class TestSelectFrames:
    def test_mode_nesting(self, small_synth_manifest):
        manifest = small_synth_manifest
        raw = raw_for(manifest)
        sets = {}
        for mode in FilterMode:
            sets[mode] = set(frame_keys(select_frames(manifest, raw, mode)))
        assert sets[FilterMode.COMP_NO_PAD] <= sets[FilterMode.NO_PAD]
        assert sets[FilterMode.NO_PAD] <= sets[FilterMode.ALL]

    def test_all_counts(self, small_synth_manifest):
        manifest = small_synth_manifest
        entries = select_frames(manifest, raw_for(manifest), FilterMode.ALL)
        assert len(entries) == len(manifest) * small_synth_manifest.t_max

    def test_no_pad_counts(self, small_synth_manifest):
        manifest = small_synth_manifest
        entries = select_frames(manifest, raw_for(manifest), FilterMode.NO_PAD)
        assert len(entries) == manifest.lengths.sum()
        assert not entries.padded.any()

    def test_full_length_trial_identical_under_no_pad(self):
        manifest = make_manifest(make_trial("full", length=10), t_max=10)
        raw = raw_for(manifest)
        all_entries = select_frames(manifest, raw, FilterMode.ALL)
        nopad_entries = select_frames(manifest, raw, FilterMode.NO_PAD)
        assert frame_keys(all_entries) == frame_keys(nopad_entries)

    def test_comp_mode_requires_compensatory_trials(self):
        manifest = make_manifest(make_trial("n", length=6), t_max=8)
        with pytest.raises(DataValidationError):
            select_frames(manifest, raw_for(manifest), FilterMode.COMP_NO_PAD)

    def test_track_alignment_checked(self, small_synth_manifest):
        manifest = small_synth_manifest
        raw = raw_for(manifest)
        with pytest.raises(DataValidationError):
            select_frames(manifest, raw[:-1], FilterMode.ALL)
        wide = np.c_[raw, np.zeros(len(raw))]
        with pytest.raises(DataValidationError):
            select_frames(manifest, wide, FilterMode.ALL)

    def test_parse_mode(self):
        assert FilterMode.parse("comp-no-pad") is FilterMode.COMP_NO_PAD
        with pytest.raises(DataValidationError):
            FilterMode.parse("bogus")


class TestSweep:
    def test_perfectly_separated_pool(self):
        # compensatory units score 1, normal units score 0; F2 is 1 from the
        # first grid point on, so the smallest-tau tie-break reports 0
        scores = np.array([1.0] * 5 + [0.0] * 5)
        labels = np.array([0] * 5 + [1] * 5)
        report = sweep(scores, labels)
        assert report.best_fbeta == 1.0
        assert report.best_tau == 0.0
        assert report.best_recall == 1.0

    def test_no_positives(self):
        scores = np.array([0.2, 0.8, 0.5])
        labels = np.array([1, 1, 1])
        report = sweep(scores, labels)
        assert np.all(report.fbeta == 0.0)
        assert report.best_tau == 0.0

    def test_recall_non_increasing_and_totals_constant(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = int(rng.integers(10, 200))
            scores = rng.uniform(size=n)
            labels = rng.integers(0, 2, size=n)
            report = sweep(scores, labels, step=0.05)
            recalls = report.recall.tolist()
            assert all(a >= b - 1e-15 for a, b in zip(recalls, recalls[1:]))
            c = report.counts
            assert np.all(c.tp + c.fp + c.tn + c.fn == n)

    def test_endpoint_behavior(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(0.01, 0.99, size=50)
        labels = rng.integers(0, 2, size=50)
        report = sweep(scores, labels)
        c = report.counts
        assert report.taus[-1] == 1.0
        assert c.tp[-1] == 0 and c.fp[-1] == 0
        flagged = int((scores > 0).sum())
        assert c.tp[0] + c.fp[0] == flagged

    def test_rows_cover_grid(self):
        report = sweep(np.array([0.5]), np.array([0]), step=0.25)
        assert report.taus.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_empty_pool_rejected(self):
        with pytest.raises(DataValidationError):
            sweep(np.array([]), np.array([]))

    def test_group_sizes(self):
        report = sweep(np.array([0.1, 0.9, 0.5]), np.array([0, 1, 0]))
        assert report.group0 == 2
        assert report.group1 == 1
        assert report.total == 3

    @given(
        pool=st.lists(
            st.tuples(
                st.one_of(
                    st.floats(0.0, 1.0),
                    # exactly on a threshold of the 0.01, 0.25 or 0.3 grid
                    st.integers(0, 100).map(lambda i: round(i * 0.01, 12)),
                    st.sampled_from([0.0, 0.25, 0.3, 0.5, 0.6, 0.75, 0.9, 1.0]),
                ),
                st.sampled_from([0, 1]),
            ),
            min_size=1, max_size=60,
        ),
        one_class=st.sampled_from([None, 0, 1]),
        step=st.sampled_from([0.01, 0.25, 0.3]),
        beta=st.sampled_from([0.5, 1.0, 2.0]),
    )
    @settings(max_examples=300, deadline=None)
    def test_columns_match_a_per_threshold_loop(self, pool, one_class, step,
                                                beta):
        scores = np.array([s for s, _ in pool])
        labels = np.array([l if one_class is None else one_class
                           for _, l in pool])
        report = sweep(scores, labels, beta=beta, step=step)
        b2 = beta * beta
        comp = labels == 0
        want = {k: [] for k in ("tp", "fp", "tn", "fn", "p", "r", "f")}
        for tau in threshold_grid(step):
            flagged = scores > tau
            tp = int(np.sum(flagged & comp))
            fp = int(np.sum(flagged & ~comp))
            fn = int(np.sum(~flagged & comp))
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            want["tp"].append(tp)
            want["fp"].append(fp)
            want["tn"].append(int(np.sum(~flagged & ~comp)))
            want["fn"].append(fn)
            want["p"].append(p)
            want["r"].append(r)
            want["f"].append((1.0 + b2) * p * r / (b2 * p + r)
                             if p or r else 0.0)
        c = report.counts
        assert report.taus.tolist() == threshold_grid(step)
        assert c.tp.tolist() == want["tp"]
        assert c.fp.tolist() == want["fp"]
        assert c.tn.tolist() == want["tn"]
        assert c.fn.tolist() == want["fn"]
        assert report.precision.tolist() == want["p"]
        assert report.recall.tolist() == want["r"]
        assert report.fbeta.tolist() == want["f"]
        assert report.best_index == want["f"].index(max(want["f"]))


class TestHistogram:
    def test_disjoint_groups_no_overlap(self):
        pool = pool_of([0.0] * 10 + [1.0] * 10, [0] * 10 + [1] * 10)
        hist = histogram(pool)
        assert hist.overlap_mass == 0
        assert hist.counts0.sum() == 10
        assert hist.counts1.sum() == 10

    def test_identical_distributions_full_overlap(self):
        raws = list(np.linspace(0, 1, 20))
        pool = pool_of(raws + raws, [0] * 20 + [1] * 20)
        hist = histogram(pool)
        assert hist.overlap_mass == 20

    def test_counts_sum_to_group_sizes(self):
        rng = np.random.default_rng(2)
        raws = rng.uniform(size=100)
        labels = rng.integers(0, 2, size=100)
        hist = histogram(pool_of(raws, labels))
        assert hist.counts0.sum() == int((labels == 0).sum())
        assert hist.counts1.sum() == int((labels == 1).sum())
        assert len(hist.counts0) == 50


class TestTableBytes:
    """The whole text of each evaluation table, on hand-built inputs:
    csv's \r\n line endings, repr-exact floats and the comment rows."""

    SCORES = np.array([0.1, 0.6, 0.8, 0.3, 0.55])
    LABELS = np.array([0, 0, 1, 1, 0])

    def test_sweep_report(self, tmp_path):
        report = sweep(self.SCORES, self.LABELS, beta=2.0, step=0.5,
                       mode=FilterMode.NO_PAD, window_size=5)
        write_sweep_report(report, tmp_path / "report.csv")
        assert (tmp_path / "report.csv").read_bytes() == (
            b"mode,window,beta,tau,tp,fp,tn,fn,precision,recall,fbeta\r\n"
            b"no-pad,5,2.0,0.0,3,2,0,0,0.6,1.0,0.8823529411764706\r\n"
            b"no-pad,5,2.0,0.5,2,1,1,1,0.6666666666666666,0.6666666666666666,"
            b"0.6666666666666666\r\n"
            b"no-pad,5,2.0,1.0,0,0,2,3,0.0,0.0,0.0\r\n"
            b"\r\n"
            b"# best,tau,recall,fbeta,group0,group1\r\n"
            b"# best,0.0,1.0,0.8823529411764706,3,2\r\n"
        )

    def test_histogram(self, tmp_path):
        hist = ScoreHistogram(np.linspace(0.0, 1.0, 3), np.array([2, 1]),
                              np.array([1, 3]))
        write_histogram(hist, tmp_path / "hist.csv")
        assert (tmp_path / "hist.csv").read_bytes() == (
            b"bin_lo,bin_hi,count_group0,count_group1\r\n"
            b"0.0,0.5,2,1\r\n"
            b"0.5,1.0,1,3\r\n"
            b"# overlap_mass,2,,\r\n"
        )

    def test_summary_file_and_table(self, tmp_path):
        reports = (
            sweep(self.SCORES, self.LABELS, step=0.5, window_size=1),
            sweep([0.1, 0.8, 0.9, 0.2, 0.3], [1, 0, 0, 1, 1], step=0.5,
                  window_size=5),
        )
        results = [ModeResult(FilterMode.ALL, None, None, reports)]
        write_summary(results, tmp_path / "summary.csv")
        assert (tmp_path / "summary.csv").read_bytes() == (
            b"mode,window,best_tau,best_recall,best_fbeta,group0,group1,total"
            b"\r\n"
            b"all,1,0.0,1.0,0.8823529411764706,3,2,5\r\n"
            b"all,5,0.5,1.0,1.0,2,3,5\r\n"
        )
        assert format_summary(results).split("\n") == [
            "mode           window  best_tau  recall   fbeta   group0   group1",
            "all                 1      0.00   1.000   0.882        3        2",
            "all                 5      0.50   1.000   1.000        2        3",
        ]


class TestExperimentMatrix:
    def test_full_matrix_shape(self, small_synth_manifest):
        manifest = small_synth_manifest
        results = run_experiment_matrix(manifest, raw_for(manifest))
        reports = [r for res in results for r in res.reports]
        assert len(reports) == 15
        pairs = {(r.mode, r.window_size) for r in reports}
        assert len(pairs) == 15
        [report] = [r for res in results if res.mode is FilterMode.ALL
                    for r in res.reports if r.window_size == 5]
        assert report.window_size == 5

    def test_window_counts_match_ceil_arithmetic(self, small_synth_manifest):
        manifest = small_synth_manifest
        results = run_experiment_matrix(
            manifest, raw_for(manifest), modes=(FilterMode.NO_PAD,), windows=(5,)
        )
        report = results[0].reports[0]
        expected = sum(math.ceil(L / 5) for L in manifest.lengths.tolist())
        assert report.total == expected

    def test_writers_produce_files(self, small_synth_manifest, tmp_path):
        manifest = small_synth_manifest
        results = run_experiment_matrix(
            manifest, raw_for(manifest), windows=(1, 5)
        )
        write_summary(results, tmp_path / "summary.csv")
        write_sweep_report(results[0].reports[0], tmp_path / "report.csv")
        write_histogram(results[0].histogram, tmp_path / "hist.csv")
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary) == 1 + 6  # header + 3 modes x 2 windows
        report_lines = (tmp_path / "report.csv").read_text().splitlines()
        assert report_lines[0].startswith("mode,window,beta,tau")
        assert len([l for l in report_lines if l.startswith("all,")]) == 101
        text = format_summary(results)
        assert "comp-no-pad" in text
        pool_text = format_pool_table(results)
        assert pool_text.count("\n") == 3  # header + one row per mode
        assert "%" in pool_text

    def test_confusion_at_vectorized_agreement(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(size=200)
        labels = rng.integers(0, 2, size=200)
        counts = confusion_at(scores, labels, np.array([0.4]))
        slow = [0 if s > 0.4 else 1 for s in scores]
        assert counts.tp.tolist() == [
            sum(1 for p, l in zip(slow, labels) if p == 0 and l == 0)]
        assert counts.fp.tolist() == [
            sum(1 for p, l in zip(slow, labels) if p == 0 and l == 1)]
        assert counts.tn.tolist() == [
            sum(1 for p, l in zip(slow, labels) if p == 1 and l == 1)]
        assert counts.fn.tolist() == [
            sum(1 for p, l in zip(slow, labels) if p == 1 and l == 0)]
        assert (counts.tp + counts.fp + counts.tn + counts.fn).tolist() == [200]
