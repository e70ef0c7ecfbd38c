import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidewatch import featurize, models
from sidewatch.errors import (
    BadShapeError,
    CorruptArtifactError,
    NoDataError,
    NonMonotonicTimeError,
    ShapeMismatchError,
    VersionMismatchError,
    WrongSequenceLengthError,
)
from sidewatch.models import (
    RNN_FAMILIES,
    RowStreamPredictor,
    TrainConfig,
    WindowConfig,
    build_autoencoder,
    build_conv_multibranch,
    build_mlp,
    build_rnn,
    encode_dataset,
    encode_rows,
    expected_param_count,
    load_model,
    predict_rows,
    predict_rows_windowed,
    predict_sequences,
    save_model,
    train_model,
)
from sidewatch.nn import Conv1D, OptimizerSpec
from sidewatch.telemetry import SampleRow

from conftest import random_trace

DATA = Path(__file__).parent / "data"


class TestParameterAccounting:
    def test_mlp_default_count(self):
        m = build_mlp(132)
        assert m.param_count == 13401
        assert m.param_count == expected_param_count("mlp", 132, m.hyper)

    def test_mlp_logistic_regression(self):
        m = build_mlp(1, hidden=())
        assert m.param_count == 2

    def test_conv_counts(self):
        m = build_conv_multibranch(132)
        per_branch = 32 * 132 * 64 + 64
        assert per_branch == 270400
        head = 5 * 64 * 64 + 64 + 64 + 1
        assert m.param_count == 5 * per_branch + head
        assert m.param_count == expected_param_count("conv_multibranch", 132, m.hyper)

    def test_conv_concat_width(self):
        m = build_conv_multibranch(4, filters=64, kernel=2,
                                   window=WindowConfig(8, 4))
        assert m.network.head.layers[0].in_dim == 320

    def test_vanilla_rnn_exact_6833(self):
        m = build_rnn(132, cell="vanilla")
        # Closed form: sum over layers of in*h + h^2 + h, plus the head.
        expect = (132 * 16 + 256 + 16) + (16 * 32 + 1024 + 32) \
            + (32 * 32 + 1024 + 32) + (32 * 16 + 256 + 16) + 17
        assert expect == 6833
        assert m.param_count == 6833

    def test_lstm_is_four_times_recurrent_term(self):
        v = build_rnn(7, cell="vanilla")
        l = build_rnn(7, cell="lstm")
        head = 16 + 1
        assert (l.param_count - head) == 4 * (v.param_count - head)

    def test_gru_is_three_times_recurrent_term(self):
        v = build_rnn(7, cell="vanilla")
        g = build_rnn(7, cell="gru")
        head = 16 + 1
        assert (g.param_count - head) == 3 * (v.param_count - head)

    def test_bidirectional_counts(self):
        for cell in ("lstm", "gru"):
            m = build_rnn(9, cell=cell, bidirectional=True)
            assert m.param_count == expected_param_count(m.family, 9, m.hyper)
            # head input width doubles
            assert m.network.layers[-1].in_dim == 32

    def test_autoencoder_count(self):
        m = build_autoencoder(132, 20)
        assert m.param_count == 132 * 20 + 20 + 20 * 132 + 132

    def test_builder_validation(self):
        with pytest.raises(BadShapeError):
            build_mlp(0)
        with pytest.raises(BadShapeError):
            build_autoencoder(10, 10)
        with pytest.raises(BadShapeError):
            build_autoencoder(10, 0)
        with pytest.raises(BadShapeError):
            build_rnn(5, cell="vanilla", bidirectional=True)
        from sidewatch.errors import KernelTooLongError
        with pytest.raises(KernelTooLongError):
            build_conv_multibranch(4, kernel=32, window=WindowConfig(16, 16))

    def test_autoencoder_sanity_near_full_dim(self):
        m = build_autoencoder(6, 5)
        assert m.param_count == expected_param_count("autoencoder", 6, m.hyper)

    def test_conv_forward_on_zero_windows_is_finite_probability(self):
        m = build_conv_multibranch(3, filters=4, kernel=4, dense_units=4,
                                   window=WindowConfig(16, 8), seed=0)
        xs = [np.zeros((16, 3))] * 3 + [np.zeros((8, 3))] * 2
        p, _ = m.network.forward(xs, mode="infer")
        p = float(np.asarray(p).reshape(-1)[0])
        assert np.isfinite(p) and 0.0 < p < 1.0

    def test_layer_specs_describe_architecture(self):
        m = build_conv_multibranch(3, filters=4, kernel=4, dense_units=4,
                                   window=WindowConfig(16, 8), seed=0)
        specs = m.layer_specs()
        assert sum(1 for s in specs if s.get("kind") == "conv1d") == 5
        assert any(s.get("kind") == "dropout" for s in specs)
        r = build_rnn(3, cell="lstm", bidirectional=True)
        kinds = [s["kind"] for s in r.layer_specs()]
        assert kinds == ["bidirectional_wrapper"] * 4 + ["dense"]

    def test_build_determinism(self):
        a = build_conv_multibranch(5, filters=4, kernel=3, window=WindowConfig(8, 4),
                                   seed=11)
        b = build_conv_multibranch(5, filters=4, kernel=3, window=WindowConfig(8, 4),
                                   seed=11)
        for (ka, va), (kb, vb) in zip(a.network.params().items(),
                                      b.network.params().items()):
            assert ka == kb
            np.testing.assert_array_equal(va, vb)


def _blob_data(rng, n=120):
    """Linearly separable 2-D blobs."""
    X0 = rng.normal(size=(n // 2, 2)) + [-3, -3]
    X1 = rng.normal(size=(n // 2, 2)) + [3, 3]
    X = np.vstack([X0, X1])
    y = np.concatenate([np.zeros(n // 2), np.ones(n // 2)])
    return X, y


class TestTraining:
    @pytest.mark.parametrize("field", ["max_epochs", "batch_size", "rows_per_trace"])
    def test_zero_counts_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: 0})

    def test_same_seed_identical_runs(self):
        rng = np.random.default_rng(0)
        X, y = _blob_data(rng)
        logs = []
        arts = []
        for _ in range(2):
            m = build_mlp(2, hidden=(8,), seed=3)
            m, log = train_model(m, (X, y), TrainConfig(max_epochs=12, seed=5))
            logs.append(log)
            arts.append(m)
        assert [e.train_loss for e in logs[0]] == [e.train_loss for e in logs[1]]
        for pa, pb in zip(arts[0].network.params().values(),
                          arts[1].network.params().values()):
            np.testing.assert_array_equal(pa, pb)

    def test_mlp_separable_blobs_reach_full_accuracy(self):
        rng = np.random.default_rng(1)
        X, y = _blob_data(rng)
        m = build_mlp(2, hidden=(8,), seed=0)
        m, log = train_model(m, (X, y), TrainConfig(max_epochs=200, seed=0,
                                                    early_stop_patience=25))
        Xn = featurize.zscore_apply(m.norm, X)
        probs, _ = m.network.forward(Xn, mode="infer")
        acc = np.mean((probs.reshape(-1) > 0.5) == y)
        assert acc == 1.0
        assert len(log) <= 200

    def test_loss_log_always_finite(self):
        rng = np.random.default_rng(2)
        X, y = _blob_data(rng, n=60)
        m = build_mlp(2, hidden=(4,), seed=0)
        m, log = train_model(m, (X, y),
                             TrainConfig(max_epochs=30, seed=0,
                                         optimizer=OptimizerSpec(learning_rate=0.5)))
        assert all(np.isfinite(e.train_loss) for e in log)

    def test_no_data_raises(self):
        m = build_mlp(2)
        with pytest.raises(NoDataError):
            train_model(m, (np.zeros((0, 2)), np.zeros(0)), TrainConfig(max_epochs=1))

    def test_validation_restores_best(self):
        rng = np.random.default_rng(3)
        X, y = _blob_data(rng)
        m = build_mlp(2, hidden=(8,), seed=0)
        m, log = train_model(
            m, (X, y), TrainConfig(max_epochs=40, seed=0, validation_fraction=0.25))
        assert any(e.val_loss is not None for e in log)

    def test_storage_order_invariance(self):
        # Shuffling depends only on the seed: permuting the input rows with
        # dropout disabled and re-sorting canonically yields the same model.
        rng = np.random.default_rng(4)
        X, y = _blob_data(rng, n=40)
        order = rng.permutation(40)
        key = np.lexsort((y, *X.T[::-1]))
        Xs, ys = X[key], y[key]
        key2 = np.lexsort((y[order], *X[order].T[::-1]))
        Xs2, ys2 = X[order][key2], y[order][key2]
        np.testing.assert_array_equal(Xs, Xs2)
        m1 = build_mlp(2, seed=1)
        m1, _ = train_model(m1, (Xs, ys), TrainConfig(max_epochs=5, seed=9))
        m2 = build_mlp(2, seed=1)
        m2, _ = train_model(m2, (Xs2, ys2), TrainConfig(max_epochs=5, seed=9))
        for pa, pb in zip(m1.network.params().values(), m2.network.params().values()):
            np.testing.assert_array_equal(pa, pb)

    def test_autoencoder_rank1_reconstruction(self):
        # Rank-1 data is representable by a single bottleneck unit up to
        # the tanh nonlinearity; the trained MSE must be a small fraction
        # of the (normalized) data variance.
        rng = np.random.default_rng(5)
        direction = rng.normal(size=4)
        coeff = rng.normal(size=(300, 1))
        X = coeff * direction
        ae = build_autoencoder(4, 1, seed=0)
        ae, log = train_model(
            ae, X, TrainConfig(max_epochs=600, seed=0,
                               optimizer=OptimizerSpec(learning_rate=0.01),
                               batch_size=64))
        Xn = featurize.zscore_apply(ae.norm, X)
        recon, _ = ae.network.forward(Xn, mode="infer")
        mse = float(np.mean((recon - Xn) ** 2))
        assert mse < 0.05  # normalized variance is 1 per feature

    def test_autoencoder_capacity_ordering(self):
        rng = np.random.default_rng(6)
        basis = rng.normal(size=(2, 5))
        X = rng.normal(size=(300, 2)) @ basis
        final = {}
        for d in (1, 3):
            ae = build_autoencoder(5, d, seed=0)
            cfg = TrainConfig(max_epochs=400, seed=0,
                              optimizer=OptimizerSpec(learning_rate=0.01),
                              batch_size=64)
            ae, log = train_model(ae, X, cfg)
            final[d] = log[-1].train_loss
        assert final[3] < final[1]


class TestPrediction:
    def test_mlp_rowwise_equals_batch(self):
        rng = np.random.default_rng(7)
        trace = random_trace(rng, T=30, F=3)
        m = build_mlp(3, hidden=(4,), seed=0)
        m.norm = featurize.zscore_fit(trace.features)
        batch = predict_rows(m, trace)
        rows = featurize.zscore_apply(m.norm, trace.features)
        single = np.array([
            float(m.network.forward(rows[i], mode="infer")[0].reshape(-1)[0])
            for i in range(30)
        ])
        np.testing.assert_allclose(batch, single, atol=0.0)

    def test_row_count_matches_trace(self):
        rng = np.random.default_rng(8)
        trace = random_trace(rng, T=200, F=3)
        m = build_conv_multibranch(3, filters=4, kernel=4, dense_units=4,
                                   window=WindowConfig(16, 8), seed=0)
        m.norm = featurize.zscore_fit(trace.features)
        assert predict_rows(m, trace).shape == (200,)

    def test_conv_fast_path_equals_windowed_path(self):
        rng = np.random.default_rng(9)
        for trial in range(3):
            T = int(rng.integers(40, 140))
            trace = random_trace(rng, T=T, F=2)
            m = build_conv_multibranch(2, filters=3, kernel=4, dense_units=4,
                                       window=WindowConfig(16, 8), seed=trial)
            m.norm = featurize.zscore_fit(trace.features)
            fast = predict_rows(m, trace)
            slow = predict_rows_windowed(m, trace)
            np.testing.assert_allclose(fast, slow, atol=1e-12)

    def test_conv_probs_causal_under_future_mutation(self):
        rng = np.random.default_rng(10)
        trace = random_trace(rng, T=120, F=2)
        m = build_conv_multibranch(2, filters=3, kernel=4, dense_units=4,
                                   window=WindowConfig(16, 8), seed=0)
        m.norm = featurize.zscore_fit(trace.features)
        p1 = predict_rows(m, trace)
        mutated = random_trace(rng, T=120, F=2)
        cut = 70
        mutated.features[:cut] = trace.features[:cut]
        mutated.times[:] = trace.times
        p2 = predict_rows(m, mutated)
        np.testing.assert_allclose(p1[:cut], p2[:cut], atol=1e-12)

    def test_appending_rows_preserves_earlier_predictions(self):
        # Causality under append. Decimated branches use the floor-length
        # rule, so rows in the trailing partial block gain a fresher
        # decimation point when the trace grows; every row before that
        # block must keep its probability bit-for-bit.
        rng = np.random.default_rng(21)
        short = random_trace(rng, T=115, F=2)
        m = build_conv_multibranch(2, filters=3, kernel=4, dense_units=4,
                                   window=WindowConfig(16, 8), seed=0)
        m.norm = featurize.zscore_fit(short.features)
        longer_rows = np.vstack([short.features, rng.normal(size=(30, 2))])
        longer = random_trace(rng, T=145, F=2)
        longer.features[:] = longer_rows
        p_short = predict_rows(m, short)
        p_long = predict_rows(m, longer)
        bs = featurize.make_branch_set(short.features, 0.5)
        tail_start = min(bs.down_mid.shape[0] * bs.mid_factor,
                         bs.down_long.shape[0] * bs.long_factor)
        np.testing.assert_array_equal(p_short[:tail_start], p_long[:tail_start])

        mlp = build_mlp(2, hidden=(4,), seed=0)
        mlp.norm = m.norm
        np.testing.assert_array_equal(predict_rows(mlp, short),
                                      predict_rows(mlp, longer)[:115])

    def test_outputs_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(11)
        trace = random_trace(rng, T=100, F=3)
        m = build_mlp(3, seed=0)
        m.norm = featurize.zscore_fit(trace.features)
        p = predict_rows(m, trace)
        assert np.all(p > 0) and np.all(p < 1)

    def test_sequence_prediction_shapes_and_batching(self):
        rng = np.random.default_rng(12)
        traces = [random_trace(rng, T=60, F=3) for _ in range(2)]
        batch = featurize.chunk_sequences(traces, 15)
        m = build_rnn(3, cell="lstm", seed=0)
        m.norm = featurize.zscore_fit(np.vstack([t.features for t in traces]))
        m.sequence_length = 15
        probs = predict_sequences(m, batch)
        assert probs.shape == (8,)
        singles = [
            float(predict_sequences(
                m, featurize.SequenceBatch(batch.sequences[i : i + 1],
                                           batch.labels[i : i + 1]))[0])
            for i in range(8)
        ]
        np.testing.assert_allclose(probs, singles, atol=1e-12)

    def test_wrong_sequence_length(self):
        rng = np.random.default_rng(13)
        m = build_rnn(2, cell="gru", seed=0)
        m.sequence_length = 10
        batch = featurize.chunk_sequences([random_trace(rng, T=24, F=2)], 12)
        with pytest.raises(WrongSequenceLengthError):
            predict_sequences(m, batch)


class TestRowStream:
    @staticmethod
    def _stream(m, trace):
        predictor = RowStreamPredictor(m)
        return np.array([predictor.push(row) for row in trace.rows()])

    @staticmethod
    def _comparable_rows(T: int, period: float) -> int:
        # The batch decimated branches drop the trailing partial block, so
        # the last T mod factor rows differ by design (see RowStreamPredictor).
        _, _, f_mid, f_long = featurize.branch_geometry(period)
        return T - max(T % f_mid, T % f_long)

    @given(data=st.data(), period=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
           F=st.integers(1, 4), kernel=st.integers(1, 5),
           raw_extra=st.integers(0, 8), down_extra=st.integers(0, 6),
           with_encoder=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_stream_equals_batch(self, data, period, F, kernel, raw_extra,
                                 down_extra, with_encoder, seed):
        down_window = kernel + down_extra
        long_factor = featurize.branch_geometry(period)[3]
        # From shorter than the kernel to past the point where the
        # decimated activation rings wrap.
        T = data.draw(st.integers(1, (down_window + 2) * long_factor), label="T")
        rng = np.random.default_rng(seed)
        F_raw = F + 1 if with_encoder else F
        trace = random_trace(rng, T=T, F=F_raw, period=period)
        m = build_conv_multibranch(F, filters=3, kernel=kernel, dense_units=4,
                                   window=WindowConfig(kernel + raw_extra, down_window),
                                   seed=seed)
        codes = trace.features
        if with_encoder:
            m.encoder = build_autoencoder(F_raw, F, seed=seed)
            m.encoder.norm = featurize.zscore_fit(np.vstack([trace.features,
                                                             trace.features + 1.0]))
            codes = encode_rows(m.encoder, trace.features)
        # Two shifted copies: zscore_fit needs two rows and T may be 1.
        m.norm = featurize.zscore_fit(np.vstack([codes, codes + 1.0]))
        n = self._comparable_rows(T, period)
        np.testing.assert_allclose(self._stream(m, trace)[:n],
                                   predict_rows(m, trace)[:n], rtol=0, atol=1e-9)

    def test_bare_arrays_assume_the_default_period(self):
        rng = np.random.default_rng(30)
        trace = random_trace(rng, T=90, F=2, period=0.5)
        m = build_conv_multibranch(2, filters=3, kernel=4, dense_units=4,
                                   window=WindowConfig(16, 8), seed=0)
        m.norm = featurize.zscore_fit(trace.features)
        predictor = RowStreamPredictor(m)
        bare = np.array([predictor.push(row) for row in trace.features])
        np.testing.assert_array_equal(bare, self._stream(m, trace))

    def test_time_must_increase(self):
        m = build_conv_multibranch(2, filters=3, kernel=4, dense_units=4,
                                   window=WindowConfig(16, 8), seed=0)
        predictor = RowStreamPredictor(m)
        predictor.push(SampleRow(t=3.0, features=np.zeros(2), label=0))
        with pytest.raises(NonMonotonicTimeError):
            predictor.push(SampleRow(t=3.0, features=np.ones(2), label=0))

    def test_state_is_bounded_and_work_is_constant(self, monkeypatch):
        rng = np.random.default_rng(31)
        m = build_conv_multibranch(3, filters=3, kernel=4, dense_units=4,
                                   window=WindowConfig(16, 8), seed=0)
        rows = rng.normal(size=(64, 3))
        predictor = RowStreamPredictor(m)
        # Count only blocks allocated by sidewatch code: tracemalloc sees the
        # whole process, and a table of the test runner or the interpreter
        # may grow once while the loop runs.
        ours = [tracemalloc.Filter(True, str(Path(models.__file__).parent / "*"))]
        retained = {}
        tracemalloc.start()
        try:
            for i in range(10_000):
                predictor.push(SampleRow(t=0.5 * i, features=rows[i % 64], label=0))
                if i + 1 in (2_000, 10_000):
                    snap = tracemalloc.take_snapshot().filter_traces(ours)
                    retained[i + 1] = sum(s.size for s in snap.statistics("filename"))
        finally:
            tracemalloc.stop()
        assert abs(retained[10_000] - retained[2_000]) <= 512

        calls = []
        forward = Conv1D.forward

        def counting(layer, *args, **kwargs):
            calls.append(layer)
            return forward(layer, *args, **kwargs)

        monkeypatch.setattr(Conv1D, "forward", counting)
        _, _, f_mid, f_long = featurize.branch_geometry(0.5)
        for i in range(10_000, 10_100):
            calls.clear()
            predictor.push(SampleRow(t=0.5 * i, features=rows[i % 64], label=0))
            assert len(calls) == 3 + (i % f_mid == 0) + (i % f_long == 0) <= 5


class TestEncoders:
    def test_encode_dimensions_and_labels_preserved(self):
        rng = np.random.default_rng(14)
        traces = [random_trace(rng, T=40, F=132, category="worm", onset_row=20)]
        enc = build_autoencoder(132, 30, seed=0)
        enc.norm = featurize.zscore_fit(traces[0].features)
        out = encode_dataset(enc, traces)
        assert out[0].num_features == 30
        assert out[0].num_rows == 40
        np.testing.assert_array_equal(out[0].labels, traces[0].labels)
        np.testing.assert_array_equal(out[0].times, traces[0].times)

    def test_identity_probe_reproduces_tanh(self):
        # An identity-initialized encoder layer maps normalized rows to
        # tanh(normalized rows) on its retained coordinates.
        rng = np.random.default_rng(15)
        rows = rng.normal(size=(20, 4))
        enc = build_autoencoder(4, 3, seed=0)
        enc.network.layers[0].W[...] = np.eye(4)[:, :3]
        enc.network.layers[0].b[...] = 0.0
        enc.norm = featurize.zscore_fit(rows)
        normed = featurize.zscore_apply(enc.norm, rows)
        codes = encode_rows(enc, rows)
        np.testing.assert_allclose(codes, np.tanh(normed[:, :3]), atol=1e-12)

    def test_downstream_model_with_encoder_trains(self):
        rng = np.random.default_rng(16)
        traces = [random_trace(rng, T=60, F=10, category="virus", onset_row=20)
                  for _ in range(2)]
        for t in traces:
            t.features[t.labels == 1] += 4.0
        enc = build_autoencoder(10, 4, seed=0)
        rows = np.vstack([t.features for t in traces])
        enc, _ = train_model(enc, rows, TrainConfig(max_epochs=20, seed=0))
        clf = build_mlp(4, hidden=(6,), seed=0)
        clf.encoder = enc
        labels = np.concatenate([t.labels for t in traces])
        clf, _ = train_model(clf, (rows, labels), TrainConfig(max_epochs=30, seed=0))
        probs = predict_rows(clf, traces[0])
        assert probs.shape == (60,)


class TestPersistence:
    def test_roundtrip_bit_exact_probe(self, tmp_path):
        rng = np.random.default_rng(17)
        trace = random_trace(rng, T=80, F=3)
        m = build_conv_multibranch(3, filters=3, kernel=4, dense_units=4,
                                   window=WindowConfig(16, 8), seed=2)
        m.norm = featurize.zscore_fit(trace.features)
        m.epochs_trained = 7
        probe = predict_rows(m, trace)
        path = tmp_path / "model.json"
        save_model(m, path)
        back = load_model(path)
        assert back.family == m.family
        assert back.epochs_trained == 7
        np.testing.assert_array_equal(predict_rows(back, trace), probe)

    def test_roundtrip_with_embedded_encoder(self, tmp_path):
        rng = np.random.default_rng(18)
        trace = random_trace(rng, T=50, F=8)
        enc = build_autoencoder(8, 3, seed=0)
        enc.norm = featurize.zscore_fit(trace.features)
        m = build_mlp(3, hidden=(4,), seed=1)
        m.encoder = enc
        m.norm = featurize.zscore_fit(encode_rows(enc, trace.features))
        probe = predict_rows(m, trace)
        path = tmp_path / "model.json"
        save_model(m, path)
        back = load_model(path)
        assert back.encoder is not None
        np.testing.assert_array_equal(predict_rows(back, trace), probe)

    def test_save_is_byte_stable(self, tmp_path):
        m = build_mlp(4, hidden=(3,), seed=0)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(m, p1)
        save_model(m, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_is_corrupt(self, tmp_path):
        m = build_mlp(3, seed=0)
        path = tmp_path / "model.json"
        save_model(m, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CorruptArtifactError):
            load_model(path)

    def test_checksum_detects_edits(self, tmp_path):
        m = build_mlp(3, seed=0)
        path = tmp_path / "model.json"
        save_model(m, path)
        text = path.read_text().replace('"epochs_trained":0', '"epochs_trained":5')
        path.write_text(text)
        with pytest.raises(CorruptArtifactError):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        m = build_mlp(3, seed=0)
        path = tmp_path / "model.json"
        save_model(m, path)
        doc = json.loads(path.read_text())
        doc["version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatchError):
            load_model(path)

    def test_missing_path_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "nope.json")
        with pytest.raises(OSError):
            load_model("")

    def test_non_utf8_byte_is_corrupt(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(build_mlp(3, seed=0), path)
        data = bytearray(path.read_bytes())
        data[40] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError):
            load_model(path)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_single_byte_edit_is_refused(self, tmp_path_factory, data):
        # The checksum covers the bytes as written, so no edit before the
        # line end can load, and none may escape as another exception.
        original = (DATA / "v1_mlp.json").read_bytes()
        pos = data.draw(st.integers(0, len(original) - 2), label="pos")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != original[pos]),
                         label="byte")
        path = tmp_path_factory.getbasetemp() / "byte_edit.json"
        path.write_bytes(original[:pos] + bytes([byte]) + original[pos + 1:])
        with pytest.raises((CorruptArtifactError, VersionMismatchError)):
            load_model(path)

    def test_reindented_artifact_is_refused(self, tmp_path):
        # The checksum is over the bytes save_model wrote: the same document
        # serialised another way counts as edited.
        path = tmp_path / "model.json"
        save_model(build_mlp(3, seed=0), path)
        load_model(path)
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2))
        with pytest.raises(CorruptArtifactError):
            load_model(path)

    def test_crlf_line_end_is_accepted(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(build_mlp(3, seed=0), path)
        path.write_bytes(path.read_bytes()[:-1] + b"\r\n")
        assert load_model(path).family == "mlp"

    def test_version_1_artifact_still_loads(self, tmp_path):
        # tests/data/v1_mlp.json was written by the version-1 save_model
        # (build_mlp(3, hidden=(4,), seed=0) with z-score stats); the probe
        # file beside it holds input rows and the probabilities it gave.
        original = (DATA / "v1_mlp.json").read_bytes()
        probe = json.loads((DATA / "v1_mlp_probe.json").read_text())
        m = load_model(DATA / "v1_mlp.json")
        trace = random_trace(np.random.default_rng(0), T=len(probe["rows"]), F=3)
        trace.features = np.array(probe["rows"], dtype=np.float64)
        np.testing.assert_array_equal(predict_rows(m, trace), probe["probs"])
        path = tmp_path / "resaved.json"
        save_model(m, path)
        assert path.read_bytes() == original
