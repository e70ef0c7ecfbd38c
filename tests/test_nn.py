import numpy as np
import pytest

from sidewatch.errors import (
    KernelTooLongError,
    ShapeMismatchError,
    StaleCacheError,
)
from sidewatch.nn import (
    Adam,
    BCE_EPS,
    Bidirectional,
    Conv1D,
    Dense,
    Dropout,
    GRU,
    GlobalMaxPool1D,
    LSTM,
    OptimizerSpec,
    PlateauScheduler,
    RMSprop,
    Regularizer,
    Sequential,
    VanillaRNN,
    bce_loss,
    grad_check,
    make_optimizer,
    mse_loss,
)


class TestForwardOracles:
    def test_dense_identity(self):
        layer = Dense(3, 3, "linear", rng=np.random.default_rng(0))
        layer.W[...] = np.eye(3)
        layer.b[...] = 0.0
        x = np.array([1.5, -2.0, 0.25])
        y, _ = layer.forward(x)
        np.testing.assert_array_equal(y, x)

    def test_conv_hand_example(self):
        # all-ones single filter, k=2, linear: [1,2,3] -> [3,5]
        layer = Conv1D(1, 1, 2, "linear", rng=np.random.default_rng(0))
        layer.W[...] = 1.0
        layer.b[...] = 0.0
        y, _ = layer.forward(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(y.reshape(-1), [3.0, 5.0])

    def test_global_max_pool(self):
        y, _ = GlobalMaxPool1D().forward(np.array([[1.0, 9.0], [4.0, 2.0]]))
        np.testing.assert_array_equal(y, [4.0, 9.0])

    def test_conv_kernel_too_long(self):
        layer = Conv1D(1, 1, 8, rng=np.random.default_rng(0))
        with pytest.raises(KernelTooLongError):
            layer.forward(np.zeros((4, 1)))

    def test_dense_shape_mismatch(self):
        layer = Dense(3, 2, rng=np.random.default_rng(0))
        with pytest.raises(ShapeMismatchError):
            layer.forward(np.zeros(4))

    def test_stale_cache_rejected(self):
        rng = np.random.default_rng(0)
        a = Dense(2, 2, rng=rng)
        b = Dense(2, 2, rng=rng)
        _, cache = a.forward(np.zeros(2))
        with pytest.raises(StaleCacheError):
            b.backward(cache, np.zeros(2))

    def test_dropout_infer_identity(self):
        layer = Dropout(0.5)
        x = np.random.default_rng(0).normal(size=(7, 3))
        y, _ = layer.forward(x, mode="infer")
        np.testing.assert_array_equal(y, x)

    def test_dropout_train_expectation(self):
        # Inverted dropout is mean-preserving: average of many masked
        # passes approaches the input within 3 sigma.
        rate = 0.3
        layer = Dropout(rate)
        rng = np.random.default_rng(123)
        x = np.full(100_000, 2.0)
        y, _ = layer.forward(x, mode="train", rng=rng)
        sigma = 2.0 * np.sqrt(rate / (1 - rate)) / np.sqrt(x.size)
        assert abs(y.mean() - 2.0) < 3 * sigma

    def test_tanh_sigmoid_ranges(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(50, 4)) * 4
        yt, _ = Dense(4, 8, "tanh", rng=rng).forward(x)
        ys, _ = Dense(4, 8, "sigmoid", rng=rng).forward(x)
        assert np.all(yt > -1) and np.all(yt < 1)
        assert np.all(ys > 0) and np.all(ys < 1)
        # float64 saturation may round to the boundary; the BCE clamp keeps
        # the loss finite even then.
        loss, _ = bce_loss(np.tanh(1000.0), 0.0)
        assert np.isfinite(float(loss))

    def test_zero_upstream_gives_zero_grads_plus_reg(self):
        rng = np.random.default_rng(2)
        layer = Dense(3, 2, "tanh", Regularizer(l1=0.01, l2=0.02), rng=rng)
        y, cache = layer.forward(rng.normal(size=3))
        gx, grads = layer.backward(cache, np.zeros(2))
        np.testing.assert_array_equal(gx, np.zeros(3))
        np.testing.assert_allclose(
            grads["W"], 0.01 * np.sign(layer.W) + 0.04 * layer.W)
        np.testing.assert_array_equal(grads["b"], np.zeros(2))

    def test_dense_tanh_unit_local_derivative_at_zero(self):
        # At z=0 the tanh derivative is 1: upstream passes through to b.
        layer = Dense(3, 2, "tanh", rng=np.random.default_rng(3))
        layer.W[...] = 0.0
        layer.b[...] = 0.0
        _, cache = layer.forward(np.zeros(3))
        upstream = np.array([0.7, -1.2])
        _, grads = layer.backward(cache, upstream)
        np.testing.assert_allclose(grads["b"], upstream)


def _im2col_conv(layer: Conv1D, x: np.ndarray) -> np.ndarray:
    """Conv1D by an explicit sliding-window im2col, the general path."""
    xb = x[None] if x.ndim == 2 else x
    k = layer.kernel_size
    sw = np.lib.stride_tricks.sliding_window_view(xb, k, axis=1)
    cols = np.ascontiguousarray(
        sw.transpose(0, 1, 3, 2).reshape(xb.shape[0], xb.shape[1] - k + 1, k * xb.shape[2]))
    y = np.tanh(cols @ layer.W.reshape(k * layer.in_channels, layer.filters) + layer.b)
    return y[0] if x.ndim == 2 else y


class TestConv1DOnePosition:
    """An input exactly one kernel long (a live stream's step) skips the
    sliding-window view; the output must not change by a bit."""

    @pytest.mark.parametrize("k,C,filters,B", [
        (1, 1, 1, 1), (2, 3, 4, 2), (4, 7, 5, 3), (32, 132, 64, 1), (32, 132, 64, 4)])
    def test_forward_equals_im2col_bit_for_bit(self, k, C, filters, B):
        rng = np.random.default_rng(k * 1000 + C)
        layer = Conv1D(C, filters, k, "tanh", rng=rng)
        layer.b[...] = rng.normal(size=filters)
        buf = rng.normal(size=(B, 3 * k, C))
        for start in (0, 1, k):
            x = buf[:, start:start + k]  # a slice, as from a ring buffer
            y, _ = layer.forward(x[0])
            assert np.array_equal(y, _im2col_conv(layer, x[0]))
            y, _ = layer.forward(x)
            assert np.array_equal(y, _im2col_conv(layer, x))

    def test_gradient_at_one_position(self):
        rng = np.random.default_rng(21)
        net = Sequential([Conv1D(2, 3, 4, "tanh", rng=rng), GlobalMaxPool1D(),
                          Dense(3, 1, "sigmoid", rng=rng)])
        assert grad_check(net, rng.normal(size=(4, 2)), 1.0) <= 1e-5


class TestLosses:
    def test_bce_half(self):
        for y in (0.0, 1.0):
            loss, _ = bce_loss(0.5, y)
            assert abs(float(loss) - np.log(2)) < 1e-12

    def test_bce_saturated_clamp(self):
        loss, _ = bce_loss(1.0, 1.0)
        assert float(loss) <= -np.log1p(-BCE_EPS) + 1e-18
        loss0, _ = bce_loss(0.0, 0.0)
        assert np.isfinite(float(loss0))

    def test_bce_grad_matches_finite_difference(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            p = float(rng.uniform(0.01, 0.99))
            y = float(rng.integers(0, 2))
            _, g = bce_loss(p, y)
            h = 1e-7
            lp, _ = bce_loss(p + h, y)
            lm, _ = bce_loss(p - h, y)
            num = (float(lp) - float(lm)) / (2 * h)
            assert abs(float(g) - num) / max(1.0, abs(num)) < 1e-6

    def test_mse_examples(self):
        x = np.arange(6.0).reshape(2, 3)
        assert mse_loss(x, x)[0] == 0.0
        assert mse_loss(x + 1, x)[0] == pytest.approx(1.0)

    def test_mse_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        loss, _ = mse_loss(a, b)
        expect = sum((a[i, j] - b[i, j]) ** 2 for i in range(4) for j in range(5)) / 20
        assert abs(loss - expect) < 1e-12

    def test_mse_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mse_loss(np.zeros(3), np.zeros(4))


class TestOptimizers:
    def test_zero_gradient_keeps_params(self):
        for kind in ("adam", "rmsprop"):
            opt = make_optimizer(OptimizerSpec(kind=kind, learning_rate=0.1))
            w = {"w": np.array([1.0, -2.0])}
            before = w["w"].copy()
            for _ in range(5):
                opt.step(w, {"w": np.zeros(2)})
            np.testing.assert_array_equal(w["w"], before)

    def test_adam_quadratic_convergence(self):
        opt = Adam(OptimizerSpec(kind="adam", learning_rate=0.1))
        w = {"w": np.array([1.0])}
        steps = 0
        for steps in range(1, 501):
            opt.step(w, {"w": 2.0 * w["w"]})
            if abs(w["w"][0]) < 1e-3:
                break
        assert abs(w["w"][0]) < 1e-3
        assert steps <= 500

    def test_rmsprop_matches_hand_recurrence(self):
        spec = OptimizerSpec(kind="rmsprop", learning_rate=0.01, rho=0.9)
        opt = RMSprop(spec)
        w = {"w": np.array([0.5])}
        grads = [np.array([1.0]), np.array([-2.0]), np.array([0.25])]
        # independent hand-unrolled recurrence
        expect = 0.5
        v = 0.0
        for g in [1.0, -2.0, 0.25]:
            v = 0.9 * v + 0.1 * g * g
            expect -= 0.01 * g / (np.sqrt(v) + spec.resolved_eps)
        for g in grads:
            opt.step(w, {"w": g})
        assert w["w"][0] == pytest.approx(expect, abs=0.0)

    def test_shape_mismatch(self):
        opt = Adam(OptimizerSpec())
        with pytest.raises(ShapeMismatchError):
            opt.step({"w": np.zeros(2)}, {"w": np.zeros(3)})

    def test_plateau_halves_after_patience(self):
        spec = OptimizerSpec(learning_rate=0.4, plateau_factor=0.5,
                             plateau_patience=3, lr_floor=1e-5)
        opt = Adam(spec)
        sched = PlateauScheduler(opt, spec)
        sched.observe(1.0)
        assert not sched.observe(1.0)
        assert not sched.observe(1.0)
        assert sched.observe(1.0)  # third stall: halve
        assert opt.lr == pytest.approx(0.2)

    def test_plateau_floor(self):
        spec = OptimizerSpec(learning_rate=2e-5, plateau_factor=0.5,
                             plateau_patience=1, lr_floor=1e-5)
        opt = Adam(spec)
        sched = PlateauScheduler(opt, spec)
        sched.observe(1.0)
        for _ in range(10):
            sched.observe(1.0)
        assert opt.lr == 1e-5

    def test_optimizer_spec_validation(self):
        with pytest.raises(ValueError):
            OptimizerSpec(kind="sgd")
        with pytest.raises(ValueError):
            OptimizerSpec(learning_rate=0.0)
        with pytest.raises(ValueError):
            OptimizerSpec(beta1=1.0)


def _small_nets(rng):
    """One tiny network per layer kind, for the per-layer gradient suite."""
    reg = Regularizer(l1=1e-3, l2=1e-3, activity_l2=1e-3)
    return {
        "dense": Sequential([
            Dense(3, 4, "tanh", reg, rng), Dense(4, 1, "sigmoid", rng=rng)]),
        "conv1d": Sequential([
            Conv1D(2, 3, 3, "tanh", reg, rng), GlobalMaxPool1D(),
            Dense(3, 1, "sigmoid", rng=rng)]),
        "dropout": Sequential([
            Dense(3, 4, "tanh", rng=rng), Dropout(0.4),
            Dense(4, 1, "sigmoid", rng=rng)]),
        "recurrent_vanilla": Sequential([
            VanillaRNN(2, 3, return_sequences=True, rng=rng),
            VanillaRNN(3, 2, rng=rng), Dense(2, 1, "sigmoid", rng=rng)]),
        "recurrent_lstm": Sequential([
            LSTM(2, 3, return_sequences=True, rng=rng),
            LSTM(3, 2, rng=rng), Dense(2, 1, "sigmoid", rng=rng)]),
        "recurrent_gru": Sequential([
            GRU(2, 3, return_sequences=True, rng=rng),
            GRU(3, 2, rng=rng), Dense(2, 1, "sigmoid", rng=rng)]),
        "bidirectional": Sequential([
            Bidirectional("gru", 2, 2, return_sequences=True, rng=rng),
            Bidirectional("lstm", 4, 2, rng=rng),
            Dense(4, 1, "sigmoid", rng=rng)]),
    }


class TestGradients:
    @pytest.mark.parametrize("kind", [
        "dense", "conv1d", "dropout",
        "recurrent_vanilla", "recurrent_lstm", "recurrent_gru", "bidirectional",
    ])
    def test_every_layer_kind_against_finite_differences(self, kind):
        rng = np.random.default_rng(hashb := abs(hash(kind)) % 2**31)
        tol = 1e-4 if kind.startswith(("recurrent", "bidirectional")) else 1e-5
        for trial in range(5):
            net = _small_nets(rng)[kind]
            if kind in ("dense", "dropout"):
                x = rng.normal(size=3)
            elif kind == "conv1d":
                x = rng.normal(size=(6, 2))
            else:
                x = rng.normal(size=(7, 2))
            err = grad_check(net, x, float(rng.integers(0, 2)), mask_seed=trial)
            assert err <= tol, f"{kind} trial {trial}: {err}"

    def test_pool_gradient(self):
        rng = np.random.default_rng(11)
        net = Sequential([GlobalMaxPool1D(), Dense(2, 1, "sigmoid", rng=rng)])
        err = grad_check(net, rng.normal(size=(5, 2)), 1.0)
        assert err <= 1e-6

    def test_mse_network_gradient(self):
        rng = np.random.default_rng(12)
        net = Sequential([Dense(4, 2, "tanh", rng=rng), Dense(2, 4, "linear", rng=rng)])
        x = rng.normal(size=(3, 4))
        err = grad_check(net, x, x, loss_kind="mse")
        assert err <= 1e-6


class TestDeterminismAndSymmetry:
    def test_seeded_init_is_bit_identical(self):
        a = Sequential([Dense(4, 3, "tanh", rng=np.random.default_rng(99))])
        b = Sequential([Dense(4, 3, "tanh", rng=np.random.default_rng(99))])
        for (ka, va), (kb, vb) in zip(a.params().items(), b.params().items()):
            assert ka == kb
            np.testing.assert_array_equal(va, vb)

    def test_seeded_dropout_masks_identical(self):
        layer = Dropout(0.5)
        x = np.ones(64)
        y1, _ = layer.forward(x, "train", np.random.default_rng(5))
        y2, _ = layer.forward(x, "train", np.random.default_rng(5))
        np.testing.assert_array_equal(y1, y2)

    def test_bidirectional_palindrome_symmetry(self):
        # Tie forward/backward weights: a palindromic input must produce
        # identical forward and backward final states.
        rng = np.random.default_rng(17)
        layer = Bidirectional("lstm", 2, 3, return_sequences=False, rng=rng)
        for name, p in layer.fwd.params().items():
            layer.bwd.params()[name][...] = p
        seq = rng.normal(size=(4, 2))
        x = np.concatenate([seq, seq[::-1]], axis=0)  # palindrome
        y, _ = layer.forward(x)
        np.testing.assert_allclose(y[:3], y[3:], atol=1e-12)

    def test_bidirectional_param_count_doubles(self):
        rng = np.random.default_rng(18)
        single = GRU(3, 4, rng=rng)
        double = Bidirectional("gru", 3, 4, rng=rng)
        n1 = sum(p.size for p in single.params().values())
        n2 = sum(p.size for p in double.params().values())
        assert n2 == 2 * n1
