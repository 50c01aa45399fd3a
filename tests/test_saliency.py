import csv
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from framescore import saliency
from framescore.data import JointLayout, featurize
from framescore.errors import DataValidationError
from framescore.evaluation import FilterMode, select_frames
from framescore.network import ModelArchitecture, TrainConfig, train
from framescore.saliency import (
    FramePool,
    FrameScoreTrack,
    compute_saliency,
    compute_tracks,
    export_heatmap,
    importance_matrix,
    normalize_pool,
    read_raw_scores,
    windows_over_pool,
    write_pooled_scores,
    write_raw_scores,
)
from tests.conftest import make_manifest, make_trial


def pool_of(raws, labels=None, trial_ids=None, normalized=None):
    """A pool of hand-made frames; `trial_ids` names each frame's trial,
    and every frame is trial "t0" by default."""
    raws = np.asarray(raws, dtype=np.float64)
    n = len(raws)
    labels = np.ones(n, dtype=np.int64) if labels is None else labels
    trial_ids = ["t0"] * n if trial_ids is None else trial_ids
    ids = tuple(dict.fromkeys(trial_ids))
    return FramePool(
        trial=np.array([ids.index(t) for t in trial_ids], dtype=np.int64),
        trial_ids=ids,
        frame_index=np.arange(n),
        raw=raws,
        label=np.asarray(labels, dtype=np.int64),
        padded=np.zeros(n, dtype=bool),
        normalized=None if normalized is None else np.asarray(normalized,
                                                              dtype=np.float64),
    )


def same_bits(a, b):
    """Whether two arrays agree in dtype, shape and every bit."""
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def windows_of(scores, labels, window_size):
    """Windows over one trial whose normalized scores are given."""
    w_scores, w_labels = windows_over_pool(
        pool_of(np.zeros(len(scores)), labels, normalized=scores), window_size
    )
    return list(zip(w_scores.tolist(), w_labels.tolist()))


def track_of(sal):
    """The track compute_tracks makes for one trial "t" whose saliency
    matrix, as compute_saliency returns it, is `sal`."""
    manifest = make_manifest(make_trial("t", length=len(sal)))
    with mock.patch.object(saliency, "compute_saliency", lambda *_: sal):
        [track] = compute_tracks(None, manifest, None)
    return track


class TestFrameAggregate:
    def test_sum_of_absolute_values(self):
        sal = np.array([[0.1, -0.3, 0.2], [0.0, 0.0, 0.0]])
        track = track_of(sal)
        assert track.trial_id == "t"
        assert track.raw_scores[0] == pytest.approx(0.6, abs=1e-12)
        assert track.raw_scores[1] == 0.0

    @given(c=st.floats(1e-3, 1e3))
    @settings(max_examples=30, deadline=None)
    def test_positive_homogeneity(self, c):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(4, 3))
        a = track_of(values).raw_scores
        b = track_of(c * values).raw_scores
        assert np.allclose(b, c * a, rtol=1e-12)

    def test_matches_model_gradient_shape(self, small_synth_manifest):
        m = small_synth_manifest
        block = featurize(m)
        X = block.reshape(len(m), -1)
        y = m.trial_labels.astype(np.float64)
        model = train(X, y, ModelArchitecture(X.shape[1], (8,)),
                      TrainConfig(epochs=3, batch_size=4, seed=0))
        sal = compute_saliency(model, m, block, 0)
        assert sal.shape == block.shape[1:]
        assert not sal.flags.writeable
        tracks = compute_tracks(model, m, block)
        assert len(tracks) == len(m)
        assert len(tracks[0].raw_scores) == small_synth_manifest.t_max
        assert np.array_equal(tracks[0].raw_scores, np.abs(sal).sum(axis=1))


class TestNormalizePool:
    def test_min_max_arithmetic(self):
        pool = normalize_pool(pool_of([0.2, 0.5, 0.8]))
        assert pool.normalized.tolist() == \
            pytest.approx([0.0, 0.5, 1.0], abs=1e-12)
        assert np.array_equal(pool.raw, [0.2, 0.5, 0.8])

    def test_degenerate_pool_all_zero(self):
        pool = normalize_pool(pool_of([0.7, 0.7, 0.7]))
        assert np.all(pool.normalized == 0.0)

    def test_empty_pool_rejected(self):
        with pytest.raises(DataValidationError):
            normalize_pool(pool_of([]))

    def test_bounds_and_extremes(self):
        rng = np.random.default_rng(1)
        pool = normalize_pool(pool_of(rng.uniform(1.0, 9.0, size=50)))
        scores = pool.normalized
        assert scores.min() == 0.0
        assert scores.max() == 1.0
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    @pytest.mark.parametrize("c", [0.5, 3.0, 1000.0])
    def test_scale_invariance(self, c):
        rng = np.random.default_rng(2)
        raws = rng.uniform(0.0, 5.0, size=40)
        a = normalize_pool(pool_of(raws)).normalized
        b = normalize_pool(pool_of(c * raws)).normalized
        assert np.all(np.abs(a - b) <= 1e-12)

    def test_order_preserved(self):
        rng = np.random.default_rng(3)
        raws = rng.uniform(0.0, 5.0, size=30)
        scores = normalize_pool(pool_of(raws)).normalized
        assert np.array_equal(np.argsort(raws, kind="stable"),
                              np.argsort(scores, kind="stable"))

    def test_pool_composition_changes_normalization(self):
        """Shared frames renormalize when the padded pool holds the max."""
        manifest = make_manifest(make_trial("a", length=2),
                                 make_trial("b", length=3), t_max=3)
        raw = np.array([[1.0, 2.0, 9.0], [0.0, 3.0, 0.5]])

        def normalized_by_key(mode):
            pool = normalize_pool(select_frames(manifest, raw, mode))
            keys = ((pool.trial_ids[i], f) for i, f in
                    zip(pool.trial.tolist(), pool.frame_index.tolist()))
            return pool, dict(zip(keys, pool.normalized.tolist()))

        every, by_key_all = normalized_by_key(FilterMode.ALL)
        unpadded, by_key_unp = normalized_by_key(FilterMode.NO_PAD)
        assert every.raw.max() == 9.0
        assert unpadded.raw.max() == 3.0
        for key, v in by_key_unp.items():
            if key == ("b", 0):  # the shared pool minimum stays 0
                continue
            assert v != by_key_all[key]
        assert by_key_unp[("b", 1)] == 1.0
        assert by_key_all[("b", 1)] == pytest.approx(3.0 / 9.0)


def naive_windows(trials, window_size):
    """Reference: mean of each slice, majority label with ties going to 0."""
    w_scores, w_labels = [], []
    for scores, labels in trials:
        scores = np.asarray(scores, dtype=np.float64)
        labels = np.asarray(labels, dtype=np.int64)
        for start in range(0, len(scores), window_size):
            chunk = labels[start:start + window_size]
            normal = int((chunk == 1).sum())
            w_scores.append(float(scores[start:start + window_size].mean()))
            w_labels.append(1 if normal > len(chunk) - normal else 0)
    return w_scores, w_labels


frame_lists = st.lists(
    st.tuples(st.floats(0.0, 1.0), st.integers(0, 1)), max_size=60
)


class TestWindowAggregate:
    def test_single_full_window(self):
        out = windows_of(np.array([0.2, 0.4, 0.6, 0.8, 1.0]),
                         np.ones(5, dtype=int), 5)
        assert out == [(pytest.approx(0.6), 1)]

    def test_window_count_ceil(self):
        scores = np.linspace(0, 1, 394)
        labels = np.ones(394, dtype=int)
        assert len(windows_of(scores, labels, 5)) == 79

    def test_tie_goes_to_compensatory(self):
        out = windows_of(np.zeros(4), np.array([0, 0, 1, 1]), 4)
        assert out[0][1] == 0

    def test_majority_normal(self):
        out = windows_of(np.zeros(5), np.array([0, 0, 1, 1, 1]), 5)
        assert out[0][1] == 1

    def test_w1_is_identity(self):
        scores = np.array([0.1, 0.9, 0.4])
        labels = np.array([1, 0, 1])
        out = windows_of(scores, labels, 1)
        assert out == [(0.1, 1), (0.9, 0), (0.4, 1)]

    def test_invalid_window_rejected(self):
        with pytest.raises(DataValidationError):
            windows_of(np.zeros(3), np.zeros(3, dtype=int), 0)

    def test_windows_over_pool_counts_and_isolation(self):
        rng = np.random.default_rng(4)
        lengths = {"a": 7, "b": 11, "c": 3}
        ids = [tid for tid, n in lengths.items() for _ in range(n)]
        pool = normalize_pool(pool_of(rng.uniform(size=len(ids)), trial_ids=ids))
        for w in (1, 2, 5):
            scores, labels = windows_over_pool(pool, w)
            expected = sum(int(np.ceil(n / w)) for n in lengths.values())
            assert len(scores) == expected == len(labels)

    def test_size_past_int64_gives_windows_of_the_pool_length(self):
        # A start plus 2**63 - 1 wraps in int64, and 10**20 does not fit.
        rng = np.random.default_rng(5)
        ids = ["a"] * 7 + ["b"] * 11 + ["c"] * 3
        pool = normalize_pool(pool_of(rng.uniform(size=len(ids)),
                                      rng.integers(0, 2, len(ids)), ids))
        want = windows_over_pool(pool, len(pool))
        for w in (2**63 - 1, 10**20):
            got = windows_over_pool(pool, w)
            assert all(same_bits(g, x) for g, x in zip(got, want))

    @given(trials=st.lists(frame_lists, min_size=1, max_size=8),
           window_size=st.integers(1, 25))
    @example(trials=[[(s, 1) for s in np.linspace(0, 1, 394).tolist()]],
             window_size=5)
    @example(trials=[[(0.0, 0), (0.0, 0), (0.0, 1), (0.0, 1)]], window_size=4)
    @example(trials=[[(0.1, 1), (0.9, 0), (0.4, 1)]], window_size=1)
    @settings(max_examples=200, deadline=None)
    def test_matches_naive_per_trial_loop(self, trials, window_size):
        ids = [f"t{i}" for i, frames in enumerate(trials) for _ in frames]
        flat = [frame for frames in trials for frame in frames]
        pool = pool_of(np.zeros(len(flat)), [l for _, l in flat], ids,
                       normalized=[s for s, _ in flat])
        scores, labels = windows_over_pool(pool, window_size)
        want_scores, want_labels = naive_windows(
            [([s for s, _ in f], [l for _, l in f]) for f in trials],
            window_size,
        )
        assert scores.tolist() == want_scores
        assert labels.tolist() == want_labels


class TestHeatmap:
    def test_shape_and_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = rng.uniform(size=(394, 16))
        path = tmp_path / "heat.csv"
        export_heatmap(matrix, path, JointLayout().feature_names())
        lines = path.read_text().splitlines()
        assert len(lines) == 395
        assert all(len(line.split(",")) == 17 for line in lines)
        back = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:]
        assert np.array_equal(back, matrix)

    def test_exact_text(self, tmp_path):
        path = tmp_path / "heat.csv"
        export_heatmap(np.array([[0.0, 0.25], [1.0, 1 / 3]]), path,
                       ("Head_x", "Head_y"))
        assert path.read_bytes() == (
            b"frame,Head_x,Head_y\r\n"
            b"0,0.0,0.25\r\n"
            b"1,1.0,0.3333333333333333\r\n"
        )

    def test_name_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(DataValidationError):
            export_heatmap(np.zeros((4, 3)), tmp_path / "x.csv", ["a", "b"])

    def test_importance_matrix_normalized(self):
        imp = importance_matrix(np.array([[1.0, -5.0], [0.5, 2.0]]))
        assert imp.min() == 0.0
        assert imp.max() == 1.0
        assert imp[0, 1] == 1.0  # largest magnitude
        assert imp[0, 0] == pytest.approx((1.0 - 0.5) / (5.0 - 0.5))

    def test_importance_matrix_degenerate(self):
        imp = importance_matrix(np.full((3, 2), 2.5))
        assert np.all(imp == 0.0)


class TestScoreFiles:
    @pytest.fixture
    def written(self, small_synth_manifest, tmp_path):
        rng = np.random.default_rng(6)
        tracks = [FrameScoreTrack(tid, rng.uniform(size=small_synth_manifest.t_max))
                  for tid in small_synth_manifest.trial_ids]
        path = tmp_path / "scores.csv"
        write_raw_scores(path, small_synth_manifest, tracks)
        return small_synth_manifest, tracks, path

    def test_round_trip(self, written):
        manifest, tracks, path = written
        back = read_raw_scores(path, manifest)
        assert same_bits(back, np.array([t.raw_scores for t in tracks]))

    def test_shuffled_rows_read_back_to_the_same_tracks(self, written):
        manifest, tracks, path = written
        header, *rows = path.read_text().splitlines()
        order = np.random.default_rng(7).permutation(len(rows))
        path.write_text("\n".join([header, *(rows[i] for i in order)]) + "\n")
        back = read_raw_scores(path, manifest)
        assert same_bits(back, np.array([t.raw_scores for t in tracks]))

    def test_reads_tracks_in_dataset_order(self, written):
        manifest, tracks, path = written
        m = manifest
        reversed_manifest = replace(
            m, trial_ids=m.trial_ids[::-1], patient_ids=m.patient_ids[::-1],
            sides=m.sides[::-1], frames=m.frames[::-1],
            frame_labels=m.frame_labels[::-1])
        back = read_raw_scores(path, reversed_manifest)
        assert same_bits(back, np.array([t.raw_scores for t in tracks[::-1]]))

    def test_block_is_read_only_float64(self, written):
        manifest, _, path = written
        back = read_raw_scores(path, manifest)
        assert back.dtype == np.float64
        assert back.shape == (len(manifest), manifest.t_max)
        with pytest.raises(ValueError):
            back[0, 0] = 1.0

    def test_fault_names_the_file_line_where_the_record_ends(self, tmp_path):
        """Trial "a\\nb" takes two file lines per row, so frame 1 of trial
        "c" is record 6, counting the header, but ends on line 9."""
        manifest = make_manifest(make_trial("a\nb", length=3),
                                 make_trial("c", length=3))
        path = tmp_path / "s.csv"
        write_raw_scores(path, manifest, [FrameScoreTrack(tid, np.zeros(3))
                                          for tid in manifest.trial_ids])
        lines = path.read_bytes().decode("utf-8").split("\r\n")
        fields = lines[5].split(",")
        assert fields[:2] == ["c", "1"]
        fields[4] = str(1 - int(fields[4]))
        lines[5] = ",".join(fields)
        path.write_bytes("\r\n".join(lines).encode("utf-8"))
        with pytest.raises(DataValidationError,
                           match=r"s\.csv:9: trial 'c' frame 1: frame_label"):
            read_raw_scores(path, manifest)

    @pytest.mark.parametrize("fault", [
        lambda tracks: tracks[:-1],
        lambda tracks: [tracks[0], FrameScoreTrack(tracks[1].trial_id,
                                                   tracks[1].raw_scores[:5]),
                        *tracks[2:]],
        lambda tracks: [tracks[1], tracks[0], *tracks[2:]],
    ], ids=["one-track-short", "five-scores", "swapped-tracks"])
    def test_tracks_that_do_not_match_the_manifest_are_refused(
            self, written, tmp_path, fault):
        manifest, tracks, _ = written
        path = tmp_path / "bad.csv"
        with pytest.raises(DataValidationError, match="one track of t_max 40 scores"):
            write_raw_scores(path, manifest, fault(tracks))
        assert not path.exists()


class TestTrialsByPosition:
    """Pool rows name their trial by its position in the manifest, so ids
    that differ only in a trailing NUL, which numpy unicode arrays drop,
    stay two trials."""

    @pytest.fixture
    def pool(self):
        manifest = make_manifest(make_trial("a", length=3, comp_frames=(0,)),
                                 make_trial("a\0", length=3, comp_frames=(0,)))
        raw = np.tile(np.arange(3.0), (len(manifest), 1))
        return normalize_pool(select_frames(manifest, raw, FilterMode.NO_PAD))

    def test_rows_hold_trial_positions(self, pool):
        assert pool.trial.tolist() == [0, 0, 0, 1, 1, 1]
        assert pool.trial_ids == ("a", "a\0")

    def test_windows_stop_at_the_trial_boundary(self, pool):
        scores, labels = windows_over_pool(pool, 2)
        assert len(scores) == len(labels) == 4

    def test_pooled_file_keeps_the_trailing_nul(self, pool, tmp_path):
        # Read as text: csv.reader handles NUL differently across versions.
        path = tmp_path / "pooled.csv"
        write_pooled_scores(path, pool)
        rows = path.read_bytes().decode("utf-8").splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["a"] * 3 + ["a\0"] * 3


# Trial ids that csv.writer must quote, or must not: commas, quotes, line
# breaks, spaces, non-ASCII and the empty id.
_AWKWARD_IDS = st.lists(
    st.text(alphabet=st.sampled_from(list('ab,"\r\n é')), max_size=5),
    min_size=1, max_size=4, unique=True)
_SCORES = st.floats(allow_nan=True, allow_infinity=True, width=64)


def csv_writer_bytes(path, rows):
    """Reference score file: the header and `rows` through csv.writer."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(saliency._SCORE_COLUMNS)
        writer.writerows(rows)
    return path.read_bytes()


class TestScoreWritersMatchCsvWriter:
    """Both score writers write the bytes of csv.writer, with rows encoded
    `chunk` at a time, so that rows fall on either side of a chunk edge."""

    @staticmethod
    def assert_writes(write, rows, chunk):
        with tempfile.TemporaryDirectory() as tmp:
            reference = csv_writer_bytes(Path(tmp, "ref.csv"), rows)
            with mock.patch.object(saliency, "_ROWS_PER_WRITE", chunk):
                write(Path(tmp, "out.csv"))
            assert Path(tmp, "out.csv").read_bytes() == reference

    @given(ids=_AWKWARD_IDS, data=st.data(), chunk=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_raw_scores(self, ids, data, chunk):
        t_max = data.draw(st.integers(1, 5))
        lengths = data.draw(st.lists(st.integers(1, t_max), min_size=len(ids),
                                     max_size=len(ids)))
        manifest = make_manifest(
            *(make_trial(tid, length=L, comp_frames=(0,) * (i % 2))
              for i, (tid, L) in enumerate(zip(ids, lengths))), t_max=t_max)
        tracks = [FrameScoreTrack(tid, np.array(data.draw(st.lists(
            _SCORES, min_size=t_max, max_size=t_max)))) for tid in ids]
        rows = [(tid, t, repr(float(track.raw_scores[t])), "",
                 int(manifest.frame_labels[i, t]), int(manifest.padded[i, t]))
                for i, (tid, track) in enumerate(zip(ids, tracks))
                for t in range(t_max)]
        self.assert_writes(lambda path: write_raw_scores(path, manifest, tracks),
                           rows, chunk)

    @given(ids=_AWKWARD_IDS, data=st.data(), chunk=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_pooled_scores(self, ids, data, chunk):
        n = data.draw(st.integers(1, 12))
        trial = sorted(data.draw(st.lists(st.integers(0, len(ids) - 1),
                                          min_size=n, max_size=n)))
        pool = normalize_pool(FramePool(
            trial=np.array(trial, dtype=np.int64),
            trial_ids=tuple(ids),
            frame_index=np.arange(n),
            raw=np.array(data.draw(st.lists(
                st.floats(0, 1e6), min_size=n, max_size=n))),
            label=np.array(data.draw(st.lists(st.integers(0, 1), min_size=n,
                                              max_size=n))),
            padded=np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                               max_size=n))),
        ))
        rows = [(ids[trial[k]], k, repr(float(pool.raw[k])),
                 repr(float(pool.normalized[k])), int(pool.label[k]),
                 int(pool.padded[k])) for k in range(n)]
        self.assert_writes(lambda path: write_pooled_scores(path, pool),
                           rows, chunk)


# Trial ids with every character on which numpy's tokenizer and the csv
# module might split a row differently: comma, quote, both line breaks,
# NUL, a leading "#" and spaces.
_ODD_IDS = st.lists(st.text(alphabet=st.sampled_from(list('a,"\r\n\0# ')),
                            max_size=4), min_size=1, max_size=4, unique=True)


def reader_outcome(path, manifest):
    """What read_raw_scores makes of one file: the block's bytes, or the
    error message. Also whether it called the fault scan."""
    scan = saliency._raise_score_fault
    with mock.patch.object(saliency, "_raise_score_fault", wraps=scan) as spy:
        try:
            got = read_raw_scores(path, manifest).tobytes()
        except DataValidationError as exc:
            got = str(exc)
    return got, spy.called


def score_file(path, manifest, raws, order=None, endings=None, blanks=(),
               fault=None):
    """Write a score file by hand: the data rows in `order`, row k ended by
    `endings[k]` (CRLF by default) and followed by an empty line when k
    is in `blanks`. `fault` = (k, column, text) puts `text` in one field of
    the k-th row written."""
    ids, t_max = manifest.trial_ids, manifest.t_max
    rows = [[saliency._csv_field(tid), str(t), repr(float(raws[i, t])), "",
             str(manifest.frame_labels[i, t]), str(int(manifest.padded[i, t]))]
            for i, tid in enumerate(ids) for t in range(t_max)]
    order = list(range(len(rows)) if order is None else order)
    endings = endings or ["\r\n"] * len(rows)
    if fault is not None:
        k, column, value = fault
        rows[order[k]][column] = value
    text = ",".join(saliency._SCORE_COLUMNS) + endings[0]
    for k, j in enumerate(order):
        text += ",".join(rows[j]) + endings[k] + endings[k] * (k in blanks)
    path.write_bytes(text.encode("utf-8"))
    return path


class TestFastAndRowReadersAgree:
    """numpy is the one reader that accepts a score file; the row scan only
    names the fault in a file that numpy or a check rejects. The two must
    agree on which files hold a fault."""

    @given(ids=_ODD_IDS, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_same_bits_in_any_row_order_and_line_ending(self, ids, data):
        t_max = data.draw(st.integers(1, 4))
        lengths = data.draw(st.lists(st.integers(1, t_max), min_size=len(ids),
                                     max_size=len(ids)))
        manifest = make_manifest(
            *(make_trial(tid, length=L, comp_frames=(0,) * (i % 2))
              for i, (tid, L) in enumerate(zip(ids, lengths))), t_max=t_max)
        n = len(ids) * t_max
        raws = np.array(data.draw(st.lists(
            st.floats(0.0, 1e300) | st.just(-0.0), min_size=n, max_size=n)))
        order = data.draw(st.permutations(range(n)))
        endings = data.draw(st.lists(st.sampled_from(["\r\n", "\n"]),
                                     min_size=n, max_size=n))
        blanks = data.draw(st.sets(st.integers(0, n - 1)))
        with tempfile.TemporaryDirectory() as tmp:
            path = score_file(Path(tmp, "s.csv"), manifest,
                              raws.reshape(-1, t_max), order, endings, blanks)
            got, scanned = reader_outcome(path, manifest)
        # Every written file, NUL ids included, is read without the scan.
        assert got == raws.tobytes()
        assert not scanned

    @given(ids=_ODD_IDS, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_same_message_for_a_fault(self, ids, data):
        manifest = make_manifest(*(make_trial(tid, length=2) for tid in ids),
                                 t_max=3)
        raws = np.arange(len(ids) * 3, dtype=np.float64).reshape(-1, 3)
        fault = (data.draw(st.integers(0, raws.size - 1)),
                 data.draw(st.integers(1, 5)),
                 data.draw(st.sampled_from(["nan", "inf", "-1", "3", "1.0",
                                            "x", "", "2", " 0 ", "1,1", "257",
                                            "2147483648", "1_0",
                                            "\u0661"])))
        with tempfile.TemporaryDirectory() as tmp:
            path = score_file(Path(tmp, "s.csv"), manifest, raws, fault=fault)
            got, scanned = reader_outcome(path, manifest)
            if scanned:
                with pytest.raises(DataValidationError) as scan:
                    saliency._raise_score_fault(path, manifest)
        # A rejected file gets the scan's message; an accepted one holds
        # the value that the fault wrote, if it wrote a raw score.
        if scanned:
            assert got == str(scan.value)
        else:
            if fault[1] == 2:
                raws.flat[fault[0]] = float(fault[2])
            assert got == raws.tobytes()

    @pytest.fixture
    def written(self, tmp_path):
        manifest = make_manifest(make_trial("a", length=12, comp_frames=(3,)),
                                 make_trial("b", length=9), t_max=12)
        raws = np.arange(24, dtype=np.float64).reshape(2, 12) / 7
        return manifest, raws, score_file(tmp_path / "s.csv", manifest, raws)

    def edit_line(self, path, lineno, edit):
        """Apply `edit` to one line, its CRLF ending left out."""
        lines = path.read_bytes().split(b"\r\n")
        line = lines[lineno - 1]
        lines[lineno - 1] = edit(line)
        assert lines[lineno - 1] != line
        path.write_bytes(b"\r\n".join(lines))

    @pytest.mark.parametrize("edits, message", [
        ({3: lambda line: line + b"\r\n  "}, "s.csv:4: ragged score row"),
        ({3: lambda line: line + b",0"}, "s.csv:3: ragged score row"),
        ({3: lambda line: line.replace(b",,1,", b",,1.0,")},
         "s.csv:3: invalid literal for int() with base 10: '1.0'"),
        # A row fault is named before a later byte that is not UTF-8.
        ({2: lambda line: line + b",0", 5: lambda line: b"\xff" + line},
         "s.csv:2: ragged score row"),
        ({1: lambda line: line.replace(b"raw", b"r\xe9w")},
         "s.csv:1: invalid UTF-8 (invalid continuation byte)"),
        # numpy has no field size limit, so the scan has none either.
        ({2: lambda line: line.replace(b",,", b"," + b"9" * 200_000 + b","),
          10: lambda line: line + b",0"},
         "s.csv:10: ragged score row"),
    ], ids=["whitespace-line", "seven-fields", "label-1.0",
            "seven-fields-before-a-bad-byte", "bad-byte-in-the-header",
            "seven-fields-after-a-long-field"])
    def test_both_reject(self, written, edits, message):
        manifest, _, path = written
        for lineno, edit in edits.items():
            self.edit_line(path, lineno, edit)
        got, scanned = reader_outcome(path, manifest)
        assert got == f"{path.parent}/{message}"
        assert scanned

    def test_scan_restores_the_csv_field_limit(self, written):
        manifest, _, path = written
        self.edit_line(path, 2, lambda line: b"x" * 200_000 + line)
        limit = csv.field_size_limit()
        with pytest.raises(DataValidationError, match=r"s\.csv:2: trial 'xxx"):
            saliency.read_raw_scores(path, manifest)
        assert csv.field_size_limit() == limit

    @pytest.mark.parametrize("lineno, edit", [
        (3, lambda line: line.replace(b",,", b",0.5,")),
        (3, lambda line: line.replace(b",,", b"," + b"9" * 200_000 + b",")),
        (12, lambda line: line.replace(b"a,10,", b"a," + b"0" * 4999 + b"10,")),
    ], ids=["normalized-score", "long-normalized-score", "frame-4999-zeros"])
    def test_both_accept(self, written, lineno, edit):
        manifest, raws, path = written
        self.edit_line(path, lineno, edit)
        got, scanned = reader_outcome(path, manifest)
        assert got == raws.tobytes()
        assert not scanned
