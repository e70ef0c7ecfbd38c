import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sidewatch import featurize
from sidewatch.errors import IndexOutOfRangeError, TooFewRowsError
from sidewatch.featurize import (
    chunk_sequences,
    downsample,
    make_branch_set,
    make_row_windows,
    rolling_mean,
    window_samples,
    zscore_apply,
    zscore_fit,
)

from conftest import random_trace


def brute_rolling_mean(x: np.ndarray, w: int) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    for i in range(x.shape[0]):
        lo = max(0, i - w + 1)
        out[i] = x[lo : i + 1].mean(axis=0)
    return out


def brute_window(branch: np.ndarray, last: int, width: int) -> np.ndarray:
    rows = [branch[max(0, j)] for j in range(last - width + 1, last + 1)]
    return np.stack(rows)


class TestZScore:
    def test_two_point_example(self):
        stats = zscore_fit(np.array([[0.0], [2.0]]))
        assert stats.mean[0] == 1.0
        assert stats.std[0] == 1.0  # population std of {0, 2}

    def test_constant_feature_guard(self):
        stats = zscore_fit(np.array([[5.0, 1.0], [5.0, 3.0]]))
        assert stats.std[0] == 1.0

    def test_too_few_rows(self):
        with pytest.raises(TooFewRowsError):
            zscore_fit(np.array([[1.0, 2.0]]))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(1000, 5)) * 7 + 3
        stats = zscore_fit(X)
        mean = np.array([sum(X[:, j]) / 1000 for j in range(5)])
        var = np.array([sum((X[:, j] - mean[j]) ** 2) / 1000 for j in range(5)])
        np.testing.assert_allclose(stats.mean, mean, atol=1e-12)
        np.testing.assert_allclose(stats.std, np.sqrt(var), atol=1e-12)

    def test_apply_standardizes(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(500, 4)) * 3 + 10
        Z = zscore_apply(zscore_fit(X), X)
        assert np.all(np.abs(Z.mean(axis=0)) < 1e-9)
        np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-9)


class TestRollingMean:
    def test_window_one_is_identity(self):
        x = np.arange(12.0).reshape(6, 2)
        np.testing.assert_array_equal(rolling_mean(x, 1), x)

    def test_causal_edge_example(self):
        out = rolling_mean(np.array([1.0, 2.0, 3.0, 4.0]), 2)
        np.testing.assert_allclose(out, [1.0, 1.5, 2.5, 3.5])

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            T = int(rng.integers(1, 60))
            F = int(rng.integers(1, 4))
            w = int(rng.integers(1, 20))
            x = rng.normal(size=(T, F)) * 10
            np.testing.assert_allclose(rolling_mean(x, w), brute_rolling_mean(x, w),
                                       atol=1e-9)

    @given(
        arrays(np.float64, (17, 2), elements=st.floats(-100, 100)),
        st.integers(1, 8),
        st.floats(-3, 3),
        st.floats(-5, 5),
    )
    @settings(max_examples=50)
    def test_commutes_with_affine_maps(self, x, w, a, b):
        lhs = rolling_mean(a * x + b, w)
        rhs = a * rolling_mean(x, w) + b
        np.testing.assert_allclose(lhs, rhs, atol=1e-8)


class TestDownsample:
    def test_factor_one_identity(self):
        x = np.arange(10.0).reshape(5, 2)
        np.testing.assert_array_equal(downsample(x, 1), x)

    def test_floor_rule(self):
        x = np.zeros((960, 3))
        assert downsample(x, 10).shape == (96, 3)
        assert downsample(x, 25).shape == (38, 3)

    def test_matches_index_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            T = int(rng.integers(1, 80))
            f = int(rng.integers(1, 12))
            x = rng.normal(size=(T, 2))
            got = downsample(x, f)
            expect = np.stack([x[k * f] for k in range(T // f)]) if T // f else \
                np.zeros((0, 2))
            np.testing.assert_array_equal(got, expect)

    def test_composition(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(60, 2))  # 60 = 2*5*6: exact multiples
        np.testing.assert_array_equal(
            downsample(downsample(x, 2), 5), downsample(x, 10))


class TestBranchSet:
    def test_lengths_at_default_period(self):
        rng = np.random.default_rng(5)
        bs = make_branch_set(rng.normal(size=(960, 4)), 0.5)
        assert bs.raw.shape[0] == 960
        assert bs.smooth_short.shape[0] == 960
        assert bs.smooth_long.shape[0] == 960
        assert bs.down_mid.shape == (96, 4)
        assert bs.down_long.shape == (38, 4)
        assert (bs.mid_factor, bs.long_factor) == (10, 25)

    def test_window_seconds_to_samples(self):
        assert window_samples(2.5, 0.5) == 5
        assert window_samples(12.5, 0.5) == 25
        assert window_samples(5.0, 0.5) == 10

    def test_single_row_trace(self):
        bs = make_branch_set(np.ones((1, 3)), 0.5)
        assert bs.raw.shape[0] == 1
        assert bs.down_mid.shape[0] == 0
        assert bs.down_long.shape[0] == 0

    def test_constant_trace_stays_constant(self):
        bs = make_branch_set(np.full((100, 2), 3.25), 0.5)
        for branch in (bs.raw, bs.smooth_short, bs.smooth_long, bs.down_mid, bs.down_long):
            assert np.all(branch == 3.25)


class TestRowWindows:
    def test_final_row_padding_counts(self):
        # 960 rows: raw windows need no padding at the end; down_long has
        # 38 real rows and 26 replicated pad rows in a 64-row window.
        rng = np.random.default_rng(6)
        rows = rng.normal(size=(960, 2))
        bs = make_branch_set(rows, 0.5)
        wins = make_row_windows(bs, 959)
        assert [w.shape[0] for w in wins] == [128, 128, 128, 64, 64]
        np.testing.assert_array_equal(wins[0], rows[960 - 128 :])
        dl = wins[4]
        np.testing.assert_array_equal(dl[:26], np.repeat(bs.down_long[0:1], 26, axis=0))
        np.testing.assert_array_equal(dl[26:], bs.down_long)

    def test_row_zero_full_padding(self):
        rng = np.random.default_rng(7)
        rows = rng.normal(size=(50, 2))
        bs = make_branch_set(rows, 0.5)
        wins = make_row_windows(bs, 0)
        np.testing.assert_array_equal(wins[0], np.repeat(rows[0:1], 128, axis=0))
        np.testing.assert_array_equal(wins[3], np.repeat(bs.down_mid[0:1], 64, axis=0))

    def test_causality_under_future_mutation(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(300, 3))
        i = 141
        bs1 = make_branch_set(rows, 0.5)
        mutated = rows.copy()
        mutated[i + 1 :] += 100.0
        bs2 = make_branch_set(mutated, 0.5)
        w1 = make_row_windows(bs1, i)
        w2 = make_row_windows(bs2, i)
        for a, b in zip(w1, w2):
            np.testing.assert_array_equal(a, b)

    def test_index_out_of_range(self):
        bs = make_branch_set(np.zeros((5, 1)), 0.5)
        with pytest.raises(IndexOutOfRangeError):
            make_row_windows(bs, 5)
        with pytest.raises(IndexOutOfRangeError):
            make_row_windows(bs, -1)

    def test_matches_index_arithmetic_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(60):
            T = int(rng.integers(1, 140))
            rows = rng.normal(size=(T, 2))
            bs = make_branch_set(rows, 0.5)
            i = int(rng.integers(0, T))
            wins = make_row_windows(bs, i, raw_window=16, down_window=8)
            for w, branch in zip(wins[:3], (bs.raw, bs.smooth_short, bs.smooth_long)):
                np.testing.assert_array_equal(w, brute_window(branch, i, 16))
            for w, (branch, f) in zip(
                wins[3:],
                ((bs.down_mid, bs.mid_factor), (bs.down_long, bs.long_factor)),
            ):
                if branch.shape[0] == 0:
                    np.testing.assert_array_equal(w, np.zeros((8, 2)))
                else:
                    last = min(i // f, branch.shape[0] - 1)
                    np.testing.assert_array_equal(w, brute_window(branch, last, 8))


class TestChunking:
    def test_sixteen_full_files(self):
        rng = np.random.default_rng(10)
        traces = [random_trace(rng, T=960, F=2) for _ in range(16)]
        batch = chunk_sequences(traces, 960)
        assert batch.num_sequences == 16

    def test_single_file_l5(self):
        rng = np.random.default_rng(11)
        batch = chunk_sequences([random_trace(rng, T=960, F=2)], 5)
        assert batch.num_sequences == 192

    def test_short_files_contribute_nothing(self):
        rng = np.random.default_rng(12)
        batch = chunk_sequences([random_trace(rng, T=9, F=2)], 10)
        assert batch.num_sequences == 0

    def test_count_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            lengths = rng.integers(1, 200, size=rng.integers(1, 8))
            L = int(rng.integers(1, 64))
            traces = [random_trace(rng, T=int(T), F=2) for T in lengths]
            batch = chunk_sequences(traces, L)
            assert batch.num_sequences == sum(int(T) // L for T in lengths)

    def test_majority_vote_with_malicious_ties(self):
        rng = np.random.default_rng(14)
        trace = random_trace(rng, T=8, F=1, category="virus", onset_row=4)
        batch = chunk_sequences([trace], 8)  # 4 benign + 4 malicious rows: tie
        assert batch.labels[0] == 1
        trace2 = random_trace(rng, T=8, F=1, category="virus", onset_row=5)
        batch2 = chunk_sequences([trace2], 8)  # 5 benign vs 3 malicious
        assert batch2.labels[0] == 0

    @given(seed=st.integers(0, 2**32 - 1), lengths=st.lists(st.integers(0, 50), max_size=4),
           L=st.integers(1, 25), F=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_equals_per_chunk_slices_and_majority_vote(self, seed, lengths, L, F):
        """Each chunk is its rows' slice, labeled by the majority of their
        labels (ties malicious), bit for bit, float64 and int64 even when
        no trace reaches L."""
        rng = np.random.default_rng(seed)
        traces = []
        for T in lengths:
            trace = random_trace(rng, T=T, F=F)
            trace.labels = rng.integers(0, 2, size=T)
            traces.append(trace)
        batch = chunk_sequences(traces, L)
        chunks = [(t.features[lo:lo + L], t.labels[lo:lo + L])
                  for t in traces for lo in range(0, t.num_rows - L + 1, L)]
        want = (np.stack([rows for rows, _ in chunks]) if chunks
                else np.zeros((0, L, F if traces else 0)))
        votes = np.array([1 if 2 * int(labels.sum()) >= L else 0 for _, labels in chunks],
                         dtype=np.int64)
        assert batch.sequences.dtype == np.float64 and batch.labels.dtype == np.int64
        assert batch.sequences.shape == want.shape and batch.labels.shape == votes.shape
        assert batch.sequences.tobytes() == want.tobytes()
        assert batch.labels.tobytes() == votes.tobytes()
