import dataclasses
import hashlib
import itertools
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidewatch import featurize, models
from sidewatch.detector import DetectorConfig, row_flags
from sidewatch.errors import (
    BadShapeError,
    CorruptArtifactError,
    NoDataError,
    NoSequencesError,
    NonMonotonicTimeError,
    ShapeMismatchError,
    VersionMismatchError,
    WrongSequenceLengthError,
)
from sidewatch.evalharness import ConfusionCounts, evaluate_model
from sidewatch.models import (
    RNN_FAMILIES,
    RowStreamPredictor,
    TrainConfig,
    WindowConfig,
    build_autoencoder,
    build_conv_multibranch,
    build_mlp,
    build_rnn,
    encode_rows,
    expected_param_count,
    load_model,
    predict_rows,
    predict_sequences,
    save_model,
    train_model,
)
from sidewatch.nn import Conv1D, GlobalMaxPool1D, OptimizerSpec, Regularizer, evaluate_loss
from sidewatch.telemetry import SampleRow

from conftest import random_trace

DATA = Path(__file__).parent / "data"
V2_FIXTURE = DATA / "v2_mlp.bin"
V2_HEADER_START = 48  # magic (8 bytes), header length (8), sha256 digest (32)


def v2_parts(data: bytes) -> tuple[dict, bytes]:
    """The header and the parameter buffer of a version-2 artifact."""
    (length,) = struct.unpack_from("<Q", data, 8)
    end = V2_HEADER_START + length
    return json.loads(data[V2_HEADER_START:end]), data[end:]


def reference_windows(artifact, trace, rows, causal=True) -> list[np.ndarray]:
    """The five materialized causal windows of each of *rows*, stacked per
    branch. With *causal* the decimated views keep the trailing partial
    block, the rule predict_rows, the live stream and conv training follow;
    without it they follow make_branch_set's floor-length rule."""
    x = models._model_rows(artifact, trace.features)
    branches = featurize.make_branch_set(x, trace.meta.sample_period_s)
    if causal:
        branches = dataclasses.replace(branches, down_mid=x[::branches.mid_factor],
                                       down_long=x[::branches.long_factor])
    w = artifact.window
    wins = [featurize.make_row_windows(branches, int(i), w.raw_window, w.down_window)
            for i in rows]
    return [np.stack([win[s] for win in wins]) for s in range(5)]


def predict_rows_windowed(artifact, trace) -> np.ndarray:
    """Reference per-row conv path: the independent slow route predict_rows
    is checked against, one forward per row's windows."""
    probs = np.empty(trace.num_rows)
    for i in range(trace.num_rows):
        p, _ = artifact.network.forward(reference_windows(artifact, trace, [i]), mode="infer")
        probs[i] = float(p.reshape(-1)[0])
    return probs


def window_path_loss(artifact, trace, rows, targets, rng, causal) -> tuple:
    """Reference conv training loss and gradients: evaluate_loss over
    MultiBranch on the sampled rows' materialized windows."""
    xs = reference_windows(artifact, trace, rows, causal)
    return evaluate_loss(artifact.network, xs, targets, "bce", mode="train", rng=rng)


def header_text(header: dict) -> bytes:
    return json.dumps(header, sort_keys=True, separators=(",", ":")).encode()


def v2_container(text: bytes, buffer: bytes, length: int | None = None) -> bytes:
    """A version-2 artifact around *text* and *buffer* with a correct digest."""
    preamble = models.ARTIFACT_MAGIC + struct.pack("<Q", len(text) if length is None else length)
    return preamble + hashlib.sha256(preamble + text + buffer).digest() + text + buffer


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


def _tiny_family_case(family):
    """A fresh-model factory and train_model data for *family* on tiny shapes.

    The labels are unrelated to the random features, so the validation
    loss stops improving within a few epochs.
    """
    rng = np.random.default_rng(40)
    traces = [random_trace(rng, T=48, F=3, category="worm" if i % 2 else "benign",
                           onset_row=20 if i % 2 else None) for i in range(6)]
    rows = np.vstack([t.features for t in traces])
    if family == "mlp":
        return (lambda: build_mlp(3, hidden=(4,), seed=0),
                (rows, np.concatenate([t.labels for t in traces])), "rows")
    if family == "autoencoder":
        return lambda: build_autoencoder(3, 2, seed=0), rows, "rows"
    if family == "conv_multibranch":
        return (lambda: build_conv_multibranch(3, filters=2, kernel=3, dense_units=3,
                                               window=WindowConfig(6, 4), seed=0),
                traces, "traces")
    cell, bidirectional = {"rnn_gru": ("gru", False), "rnn_lstm_bi": ("lstm", True)}[family]
    return (lambda: build_rnn(3, cell=cell, bidirectional=bidirectional, hidden=(3,), seed=0),
            featurize.chunk_sequences(traces, 8), "sequences")


def _last_improving_epoch(log, tol: float) -> int:
    """The last epoch whose monitored loss beat the best so far by more than tol."""
    best, last = np.inf, 0
    for e in log:
        monitored = e.train_loss if e.val_loss is None else e.val_loss
        if monitored < best - tol:
            best, last = monitored, e.epoch
    return last


@pytest.mark.parametrize("family", ["mlp", "autoencoder", "conv_multibranch",
                                    "rnn_gru", "rnn_lstm_bi"])
class TestFitContract:
    """What the epoch loop promises every family."""

    @staticmethod
    def _config(**overrides):
        kwargs = dict(max_epochs=12, seed=1, batch_size=16, rows_per_trace=8,
                      optimizer=OptimizerSpec(learning_rate=0.1))
        kwargs.update(overrides)
        return TrainConfig(**kwargs)

    def test_validation_restores_last_improving_epoch(self, family):
        build, data, _ = _tiny_family_case(family)
        config = self._config(validation_fraction=0.34)
        model, log = train_model(build(), data, config)
        b = _last_improving_epoch(log, config.early_stop_tol)
        assert all(e.val_loss is not None for e in log)
        assert 1 <= b < len(log) == config.max_epochs  # the restore matters
        capped, capped_log = train_model(build(), data, self._config(
            validation_fraction=0.34, max_epochs=b))
        assert capped_log == log[:b]
        for name, value in model.network.params().items():
            np.testing.assert_array_equal(value, capped.network.params()[name], err_msg=name)

    @pytest.mark.parametrize("validation_fraction", [0.0, 0.34])
    def test_patience_stops_p_epochs_after_the_last_improvement(self, family,
                                                                validation_fraction):
        build, data, _ = _tiny_family_case(family)
        config = self._config(max_epochs=30, early_stop_patience=2, early_stop_tol=0.01,
                              validation_fraction=validation_fraction)
        model, log = train_model(build(), data, config)
        assert len(log) < config.max_epochs  # patience fired
        assert len(log) == _last_improving_epoch(log, config.early_stop_tol) + 2
        assert model.epochs_trained == len(log)

    def test_no_training_units_is_no_data_error(self, family):
        build, data, unit = _tiny_family_case(family)
        config = self._config()
        # TrainConfig refuses a fraction of 1; set it past that check to
        # reach the loop's own guard.
        config.validation_fraction = 1.0
        with pytest.raises(NoDataError, match=f"no training {unit}"):
            train_model(build(), data, config)


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
        # Causality under append: a decimated branch samples row i when
        # i % factor == 0, so every row of the shorter trace, its trailing
        # partial block included, keeps its probability bit for bit.
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
        np.testing.assert_array_equal(p_short, p_long[:115])

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
    def _stream_blocks(m, trace, sizes):
        """The stream pushed in blocks of *sizes* rows, cycled."""
        predictor = RowStreamPredictor(m)
        probs, lo = [], 0
        for size in itertools.cycle(sizes):
            if lo >= trace.num_rows:
                return np.array(probs)
            probs += predictor.push_block(trace.features[lo:lo + size],
                                          trace.times[lo:lo + size].tolist())
            lo += size

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
        # decimated branches' windows fill.
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
        batch = predict_rows(m, trace)
        np.testing.assert_allclose(self._stream(m, trace), batch, rtol=0, atol=1e-9)
        sizes = data.draw(st.lists(st.integers(1, 9), min_size=1, max_size=4), label="sizes")
        np.testing.assert_allclose(self._stream_blocks(m, trace, sizes), batch,
                                   rtol=0, atol=1e-9)

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


class TestSequenceStream:
    """RowStreamPredictor over the recurrent families: each row that closes
    a chunk of sequence_length rows gets that chunk's predict_sequences
    probability, every other row None, however the stream is cut into
    blocks; evaluate_model counts those chunks."""

    @given(data=st.data(), family=st.sampled_from(RNN_FAMILIES), L=st.integers(1, 40),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_stream_equals_chunked_batch(self, data, family, L, seed):
        T = data.draw(st.integers(1, 3 * L + 5), label="T")
        cuts = sorted(data.draw(st.sets(st.integers(1, T), max_size=6), label="cuts") - {T})
        rng = np.random.default_rng(seed)
        trace = random_trace(rng, T=T, F=3)
        trace.labels[:] = rng.integers(0, 2, size=T)
        cell, bidirectional = models.RNN_VARIANTS[family]
        m = build_rnn(3, cell=cell, bidirectional=bidirectional, seed=seed)
        m.norm = featurize.zscore_fit(np.vstack([trace.features, trace.features + 1.0]))
        m.sequence_length = L
        batch = featurize.chunk_sequences([trace], L)
        reference = predict_sequences(m, batch)

        predictor = RowStreamPredictor(m)
        probs, expected = [], []
        for lo, hi in zip([0, *cuts], [*cuts, T]):
            probs += predictor.push_block(trace.features[lo:hi], trace.times[lo:hi].tolist())
            # The chunks this block closes, in one forward as the stream
            # scores them: a forward's rounding depends on how many chunks
            # it takes (numpy multiplies one chunk's rows as a vector).
            closed = slice(lo // L, hi // L)
            expected.append(predict_sequences(m, featurize.SequenceBatch(
                batch.sequences[closed], batch.labels[closed])))
        closes = [i for i, p in enumerate(probs) if p is not None]
        assert closes == list(range(L - 1, T - T % L, L))
        streamed = np.array([probs[i] for i in closes])
        assert streamed.tobytes() == np.concatenate(expected).tobytes()
        np.testing.assert_allclose(streamed, reference, rtol=0, atol=1e-12)

        whole = RowStreamPredictor(m).push_block(trace.features, trace.times)
        assert np.array([p for p in whole if p is not None]).tobytes() == reference.tobytes()
        if not closes:
            with pytest.raises(NoSequencesError):
                evaluate_model(m, [trace], DetectorConfig())
            return
        cfg = DetectorConfig(prob_cutoff=float(np.median(reference)))
        counts = ConfusionCounts("sequence").add(row_flags(reference, cfg), batch.labels == 1)
        assert evaluate_model(m, [trace], cfg).seq_confusion == counts


class TestConvEngine:
    """models._ConvEngine: predict_rows steps it by a whole trace, the live
    stream by one row at a time."""

    @staticmethod
    def _model(F, kernel, raw_window, down_window, seed=0):
        m = build_conv_multibranch(F, filters=3, kernel=kernel, dense_units=4,
                                   window=WindowConfig(raw_window, down_window), seed=seed)
        m.norm = featurize.NormStats(mean=np.zeros(F), std=np.ones(F))
        return m

    @staticmethod
    def _stepped(m, rows, period, sizes):
        engine = models._ConvEngine(m, period)
        ends = np.cumsum(sizes)
        return np.concatenate([engine.step_block(rows[end - size:end])
                               for size, end in zip(sizes, ends)])

    def _check_split(self, m, rows, period, sizes):
        assert sum(sizes) == len(rows)
        whole = models._ConvEngine(m, period).step_block(rows)
        np.testing.assert_allclose(self._stepped(m, rows, period, sizes), whole,
                                   rtol=0, atol=1e-9)

    @given(data=st.data(), period=st.sampled_from([0.25, 0.5, 1.0, 2.0]),
           F=st.integers(1, 3), kernel=st.integers(1, 5), raw_extra=st.integers(0, 6),
           down_extra=st.integers(0, 4), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_any_split_into_blocks_equals_one_block(self, data, period, F, kernel,
                                                    raw_extra, down_extra, seed):
        down_window = kernel + down_extra
        T = data.draw(st.integers(1, (down_window + 2) * featurize.branch_geometry(period)[3]),
                      label="T")
        if data.draw(st.booleans(), label="blocks of one row"):
            sizes = [1] * T
        else:
            cuts = sorted(data.draw(st.sets(st.integers(1, T - 1)), label="cuts")) if T > 1 else []
            sizes = list(np.diff([0, *cuts, T]))
        rows = np.random.default_rng(seed).normal(size=(T, F)) * 3.0
        self._check_split(self._model(F, kernel, kernel + raw_extra, down_window, seed),
                          rows, period, sizes)

    @pytest.mark.parametrize("kernel, raw_window, sizes", [
        (4, 16, [1] * 60),                   # blocks of one row
        (4, 16, [1, 9, 11, 4, 35]),          # rows 1-9 and 21-24 hold no decimated sample
        (4, 16, [3, 4]),                     # shorter than both decimation factors
        (1, 16, [7, 13, 40]),                # kernel 1: no inputs kept
        (4, 4, [5, 30, 25]),                 # raw window == kernel: no activations kept
    ])
    def test_named_splits_equal_one_block(self, kernel, raw_window, sizes):
        # At 0.5 s the decimation factors are 10 and 25.
        rows = np.random.default_rng(40).normal(size=(sum(sizes), 2)) * 3.0
        self._check_split(self._model(2, kernel, raw_window, 8), rows, 0.5, sizes)

    @pytest.mark.parametrize("T", [1, 7, 60, 400])
    def test_predict_rows_convolves_each_branch_once(self, monkeypatch, T):
        m = self._model(2, 4, 16, 8)
        calls = []
        forward = Conv1D.forward

        def counting(layer, *args, **kwargs):
            calls.append(layer)
            return forward(layer, *args, **kwargs)

        monkeypatch.setattr(Conv1D, "forward", counting)
        predict_rows(m, random_trace(np.random.default_rng(41), T=T, F=2))
        assert sorted(map(id, calls)) == sorted(id(b.layers[0]) for b in m.network.branches)

    def test_empty_block_gives_no_probabilities(self):
        m = self._model(2, 4, 16, 8)
        rows = np.random.default_rng(42).normal(size=(9, 2))
        engine = models._ConvEngine(m, 0.5)
        assert engine.step_block(np.zeros((0, 2))).shape == (0,)
        first = engine.step_block(rows[:4])
        assert engine.step_block(np.zeros((0, 2))).shape == (0,)
        np.testing.assert_allclose(np.concatenate([first, engine.step_block(rows[4:])]),
                                   models._ConvEngine(m, 0.5).step_block(rows), rtol=0, atol=1e-9)


def test_predict_rows_memory_is_bounded_by_an_im2col_piece():
    # A whole-trace im2col of this conv is T x k*F floats, 41 MB; infer mode
    # takes it CHUNK positions at a time.
    T = 20_000
    trace = random_trace(np.random.default_rng(62), T=T, F=8)
    m = build_conv_multibranch(8, filters=4, kernel=32, dense_units=4, seed=0)
    m.norm = featurize.zscore_fit(trace.features)
    tracemalloc.start()
    try:
        predict_rows(m, trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 30e6


class TestConvTraining:
    """Conv training through whole-trace branch views (models._conv_loss)."""

    @given(data=st.data(), period=st.sampled_from([0.25, 0.5, 1.0]),
           F=st.integers(1, 3), kernel=st.integers(1, 5), raw_extra=st.integers(0, 8),
           down_extra=st.integers(0, 6), constant=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_loss_and_gradients_equal_the_window_path(self, data, period, F, kernel,
                                                      raw_extra, down_extra, constant, seed):
        down_window = kernel + down_extra
        _, _, f_mid, f_long = featurize.branch_geometry(period)
        # From shorter than a window to past the point where the decimated
        # branches' windows fill; T mod factor is mostly not 0.
        T = data.draw(st.integers(1, (down_window + 2) * f_long), label="T")
        # Rows where the floor-length and causal decimation rules give the
        # same sample; on the rest only the causal reference applies.
        agree = min(T // f_mid * f_mid, T // f_long * f_long)
        causal = not agree or data.draw(st.booleans(), label="causal reference")
        limit = T if causal else agree
        rows = np.array(data.draw(st.lists(st.integers(0, limit - 1), min_size=1, max_size=16),
                                  label="rows"))
        rng = np.random.default_rng(seed)
        trace = random_trace(rng, T=T, F=F, period=period)
        if constant:  # every pooled max is a tie
            trace.features[:] = trace.features[0]
        targets = rng.integers(0, 2, size=len(rows)).astype(np.float64)
        m = build_conv_multibranch(F, filters=3, kernel=kernel, dense_units=4,
                                   window=WindowConfig(kernel + raw_extra, down_window),
                                   seed=seed)
        m.norm = featurize.zscore_fit(np.vstack([trace.features, trace.features + 1.0]))

        batches = models._conv_batches(m, [trace], TrainConfig())
        batch, _ = next(batches.train(np.array([0]), np.random.default_rng(0)))
        loss, grads = batches.evaluate(m.network, batch._replace(rows=rows), targets,
                                       batches.loss, mode="train",
                                       rng=np.random.default_rng(seed))
        ref_loss, ref_grads = window_path_loss(m, trace, rows, targets,
                                               np.random.default_rng(seed), causal)
        assert loss == pytest.approx(ref_loss, rel=1e-9, abs=0)
        assert grads.keys() == ref_grads.keys()
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(grads[name], ref, rtol=1e-9,
                                       atol=1e-9 * np.abs(ref).max(), err_msg=name)

    def test_sliding_max_takes_the_first_max_like_global_max_pool(self):
        values = np.random.default_rng(51).integers(0, 3, size=(40, 6)).astype(np.float64)
        width, starts = 7, np.array([0, 3, 3, 33, 12, 0])
        pooled, at = models._sliding_max(values, width, starts)
        ref, cache = GlobalMaxPool1D().forward(np.stack([values[s:s + width] for s in starts]))
        np.testing.assert_array_equal(pooled, ref)
        np.testing.assert_array_equal(at, starts[:, None] + cache["idx"])
        ties = models._sliding_max(np.ones((10, 2)), 4, np.arange(7))[1]
        np.testing.assert_array_equal(ties, np.repeat(np.arange(7)[:, None], 2, axis=1))
        np.testing.assert_array_equal(models._sliding_max(values, width),
                                      np.stack([values[s:s + width].max(axis=0)
                                                for s in range(40 - width + 1)]))

    def test_long_trace_convolves_only_the_sampled_windows(self, monkeypatch):
        # A minibatch's conv work (and im2col memory, positions x kernel x F)
        # is bounded by rows_per_trace windows per branch, not by the trace
        # length.
        lengths = []
        forward = Conv1D.forward

        def recording(layer, x, *args, **kwargs):
            lengths.append(len(x) - layer.kernel_size + 1)
            return forward(layer, x, *args, **kwargs)

        monkeypatch.setattr(Conv1D, "forward", recording)
        rng = np.random.default_rng(52)
        trace = random_trace(rng, T=20_000, F=2, category="worm", onset_row=10_000, period=0.5)
        m = build_conv_multibranch(2, filters=3, kernel=4, dense_units=4,
                                   window=WindowConfig(16, 8), seed=0)
        rows = 4
        batches = models._conv_batches(m, [trace], TrainConfig(rows_per_trace=rows))
        batch, targets = next(batches.train(np.array([0]), rng))
        batches.evaluate(m.network, batch, targets, batches.loss, mode="train", rng=rng)
        assert sum(lengths) <= rows * (3 * (16 - 4 + 1) + 2 * (8 - 4 + 1))

    def test_fit_memory_grows_by_one_normalized_copy_per_trace(self):
        # The fit keeps one normalized copy of each trace and builds the
        # five branch views only for the trace being scored, so an extra
        # trace adds about one copy to the peak (three at the full-rate
        # views kept per trace before).
        T, F = 20_000, 8
        rng = np.random.default_rng(60)
        traces = [random_trace(rng, T=T, F=F, category="worm", onset_row=T // 2)
                  for _ in range(6)]

        def peak(n):
            m = build_conv_multibranch(F, filters=4, kernel=8, dense_units=4,
                                       window=WindowConfig(16, 8), seed=0)
            tracemalloc.start()
            try:
                train_model(m, traces[:n], TrainConfig(max_epochs=1, rows_per_trace=8))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        copy = T * F * 8
        assert peak(6) - peak(1) <= 5 * 1.5 * copy

    def test_no_row_windows_are_built(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("conv training built per-row windows")

        monkeypatch.setattr(featurize, "make_row_windows", refuse)
        monkeypatch.setattr(models, "make_row_windows", refuse, raising=False)
        build, traces, _ = _tiny_family_case("conv_multibranch")
        train_model(build(), traces, TrainConfig(max_epochs=1, rows_per_trace=8))

    def test_conv_regularizer_is_refused(self):
        build, traces, _ = _tiny_family_case("conv_multibranch")
        m = build()
        m.network.branches[2].layers[0].reg = Regularizer(l2=1e-4)
        with pytest.raises(BadShapeError, match="regularizer"):
            train_model(m, traces, TrainConfig(max_epochs=1))

    def test_same_seed_gives_byte_identical_artifacts(self, tmp_path):
        build, traces, _ = _tiny_family_case("conv_multibranch")
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for path in paths:
            m, _ = train_model(build(), traces, TrainConfig(max_epochs=3, rows_per_trace=8,
                                                            validation_fraction=0.34))
            save_model(m, path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestEncoders:
    def test_encode_dimensions_and_labels_preserved(self):
        rng = np.random.default_rng(14)
        traces = [random_trace(rng, T=40, F=132, category="worm", onset_row=20)]
        enc = build_autoencoder(132, 30, seed=0)
        enc.norm = featurize.zscore_fit(traces[0].features)
        codes = encode_rows(enc, traces[0].features)
        out = dataclasses.replace(traces[0], header=[f"enc{i}" for i in range(30)],
                                  features=codes)
        assert out.num_features == 30
        assert out.num_rows == 40
        np.testing.assert_array_equal(out.labels, traces[0].labels)
        np.testing.assert_array_equal(out.times, traces[0].times)

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
        path = tmp_path / "model.json"
        text = (DATA / "v1_mlp.json").read_text()
        assert text.count('"epochs_trained":2') == 1
        path.write_text(text.replace('"epochs_trained":2', '"epochs_trained":5'))
        with pytest.raises(CorruptArtifactError):
            load_model(path)

    def test_v2_checksum_detects_edits(self, tmp_path):
        path = tmp_path / "model.json"
        data = V2_FIXTURE.read_bytes()
        assert data.count(b'"epochs_trained":3') == 1
        path.write_bytes(data.replace(b'"epochs_trained":3', b'"epochs_trained":5'))
        with pytest.raises(CorruptArtifactError):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.json"
        doc = json.loads((DATA / "v1_mlp.json").read_text())
        doc["version"] = 999
        path.write_text(json.dumps(doc))
        with pytest.raises(VersionMismatchError):
            load_model(path)

    def test_v2_version_mismatch(self, tmp_path):
        # The version is checked before the checksum, as in version 1.
        data = V2_FIXTURE.read_bytes()
        header, buffer = v2_parts(data)
        header["version"] = 999
        path = tmp_path / "model.json"
        for edited in (v2_container(header_text(header), buffer),
                       data.replace(b'"version":2', b'"version":9')):
            path.write_bytes(edited)
            with pytest.raises(VersionMismatchError):
                load_model(path)

    def test_missing_path_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_model(tmp_path / "nope.json")
        with pytest.raises(OSError):
            load_model("")

    def test_non_utf8_byte_is_corrupt(self, tmp_path):
        path = tmp_path / "model.json"
        data = bytearray((DATA / "v1_mlp.json").read_bytes())
        data[40] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError):
            load_model(path)

    def test_v2_non_utf8_header_byte_is_corrupt(self, tmp_path):
        path = tmp_path / "model.json"
        data = bytearray(V2_FIXTURE.read_bytes())
        data[V2_HEADER_START + 5] = 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptArtifactError, match="not a valid artifact file"):
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

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_v2_any_single_byte_edit_is_refused(self, tmp_path_factory, data):
        # The digest covers every byte but its own, and a digest byte edit
        # breaks the match: no edit anywhere can load, and none may escape
        # as another exception. The fixture embeds an encoder.
        original = V2_FIXTURE.read_bytes()
        pos = data.draw(st.integers(0, len(original) - 1), label="pos")
        byte = data.draw(st.integers(0, 255).filter(lambda b: b != original[pos]),
                         label="byte")
        path = tmp_path_factory.getbasetemp() / "byte_edit_v2.json"
        path.write_bytes(original[:pos] + bytes([byte]) + original[pos + 1:])
        with pytest.raises((CorruptArtifactError, VersionMismatchError)):
            load_model(path)

    def test_v2_length_edit_cannot_hide_in_padding(self, tmp_path):
        # One byte less of header still parses (it ends in padding); only
        # the digest over the length field refuses it.
        path = tmp_path / "model.json"
        save_model(load_model(V2_FIXTURE), path)
        data = path.read_bytes()
        (length,) = struct.unpack_from("<Q", data, 8)
        shorter = data[V2_HEADER_START:V2_HEADER_START + length - 1]
        assert json.loads(shorter) == v2_parts(data)[0]
        path.write_bytes(data[:8] + struct.pack("<Q", length - 1) + data[16:])
        with pytest.raises(CorruptArtifactError, match="checksum"):
            load_model(path)

    @pytest.mark.parametrize("damage", [
        "cut_in_preamble", "length_past_end", "offset_past_end", "offset_negative",
        "offset_unaligned", "truncated_buffer", "non_utf8_header"])
    def test_v2_structural_damage_is_corrupt(self, tmp_path, damage):
        # Each damaged file carries a correct digest, so the structural
        # checks themselves must refuse it.
        header, buffer = v2_parts(V2_FIXTURE.read_bytes())
        length = None
        if damage.startswith("offset"):
            header["params"]["1.b"]["offset"] = {
                "offset_past_end": len(buffer), "offset_negative": -8,
                "offset_unaligned": 4}[damage]
        text = header_text(header)
        if damage == "length_past_end":
            length = len(text) + len(buffer) + 1
        if damage == "truncated_buffer":
            buffer = buffer[:-8]
        if damage == "non_utf8_header":
            text = text.replace(b'"family":"mlp"', b'"family":"ml\xff"')
        data = v2_container(text, buffer, length)
        if damage == "cut_in_preamble":
            data = data[:V2_HEADER_START - 1]
        path = tmp_path / "model.json"
        path.write_bytes(data)
        with pytest.raises(CorruptArtifactError):
            load_model(path)

    @pytest.mark.parametrize("version", [1, 2])
    def test_deeply_nested_json_is_corrupt(self, tmp_path, version):
        nested = b"[" * 100_000
        path = tmp_path / "model.json"
        path.write_bytes(b'{"a":' + nested if version == 1 else v2_container(nested, b""))
        with pytest.raises(CorruptArtifactError, match="not a valid artifact file"):
            load_model(path)

    def test_reindented_artifact_is_refused(self, tmp_path):
        # The checksum is over the bytes save_model wrote: the same document
        # serialised another way counts as edited.
        path = tmp_path / "model.json"
        path.write_bytes((DATA / "v1_mlp.json").read_bytes())
        load_model(path)
        path.write_text(json.dumps(json.loads(path.read_text()), indent=2))
        with pytest.raises(CorruptArtifactError):
            load_model(path)

    def test_v2_reindented_header_is_refused(self, tmp_path):
        data = V2_FIXTURE.read_bytes()
        header, buffer = v2_parts(data)
        text = json.dumps(header, sort_keys=True, indent=2).encode()
        text += b" " * (-len(text) % 8)
        path = tmp_path / "model.json"
        path.write_bytes(data[:8] + struct.pack("<Q", len(text))
                         + data[16:V2_HEADER_START] + text + buffer)
        with pytest.raises(CorruptArtifactError, match="checksum"):
            load_model(path)

    def test_crlf_line_end_is_accepted(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes((DATA / "v1_mlp.json").read_bytes()[:-1] + b"\r\n")
        assert load_model(path).family == "mlp"

    def test_v2_appended_line_end_is_refused(self, tmp_path):
        # Version 2 has no line end: the digest covers every byte to the
        # end of the file.
        path = tmp_path / "model.json"
        path.write_bytes(V2_FIXTURE.read_bytes() + b"\r\n")
        with pytest.raises(CorruptArtifactError, match="checksum"):
            load_model(path)

    def test_version_1_artifact_still_loads(self, tmp_path):
        # tests/data/v1_mlp.json was written by the version-1 save_model
        # (build_mlp(3, hidden=(4,), seed=0) with z-score stats); the probe
        # file beside it holds input rows and the probabilities it gave.
        # save_model converts it to version 2 without changing a value.
        probe = json.loads((DATA / "v1_mlp_probe.json").read_text())
        m = load_model(DATA / "v1_mlp.json")
        trace = random_trace(np.random.default_rng(0), T=len(probe["rows"]), F=3)
        trace.features = np.array(probe["rows"], dtype=np.float64)
        np.testing.assert_array_equal(predict_rows(m, trace), probe["probs"])
        converted, again = tmp_path / "converted.json", tmp_path / "again.json"
        save_model(m, converted)
        back = load_model(converted)
        assert back.epochs_trained == m.epochs_trained
        params = back.network.params()
        for name, p in m.network.params().items():
            np.testing.assert_array_equal(params[name], p)
        np.testing.assert_array_equal(predict_rows(back, trace), probe["probs"])
        save_model(back, again)
        assert again.read_bytes() == converted.read_bytes()

    def test_version_2_fixture_loads_and_resaves(self, tmp_path):
        # tests/data/v2_mlp.bin was written by the version-2 save_model from
        # build_mlp(3, hidden=(4,), seed=0) with an embedded
        # build_autoencoder(6, 3, seed=1), z-score stats on both and
        # epochs_trained 3; its probe holds input rows and the probabilities
        # it gave. A change to the writer's bytes fails here.
        probe = json.loads((DATA / "v2_mlp_probe.json").read_text())
        m = load_model(V2_FIXTURE)
        assert m.encoder is not None and m.encoder.family == "autoencoder"
        trace = random_trace(np.random.default_rng(0), T=len(probe["rows"]), F=6)
        trace.features = np.array(probe["rows"], dtype=np.float64)
        np.testing.assert_array_equal(predict_rows(m, trace), probe["probs"])
        path = tmp_path / "resaved.json"
        save_model(m, path)
        assert path.read_bytes() == V2_FIXTURE.read_bytes()

    def test_v2_layout(self):
        # The documented layout, read independently of load_model: magic,
        # header length, a digest of every other byte, the padded sorted-key
        # header, then the buffer at 8-byte-aligned offsets.
        data = V2_FIXTURE.read_bytes()
        assert data[:8] == models.ARTIFACT_MAGIC
        (length,) = struct.unpack_from("<Q", data, 8)
        assert length % 8 == 0
        assert hashlib.sha256(data[:16] + data[V2_HEADER_START:]).digest() == data[16:48]
        header, buffer = v2_parts(data)
        assert header_text(header) == data[V2_HEADER_START:V2_HEADER_START + length].rstrip(b" ")
        m = load_model(V2_FIXTURE)
        for art, entries in ((m, header["params"]), (m.encoder, header["encoder"]["params"])):
            for name, p in art.network.params().items():
                off = entries[name]["offset"]
                assert off % 8 == 0
                np.testing.assert_array_equal(
                    np.frombuffer(buffer, "<f8", p.size, off).reshape(p.shape), p)
