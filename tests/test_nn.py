import numpy as np
import pytest

from sidewatch.errors import (
    KernelTooLongError,
    ShapeMismatchError,
    StaleCacheError,
)
from sidewatch.models import build_mlp, build_rnn
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
from sidewatch.nn.optim import (
    ADAM_BETA1,
    ADAM_BETA2,
    BLOCK,
    LR_FLOOR,
    PLATEAU_FACTOR,
    PLATEAU_PATIENCE,
    RMSPROP_RHO,
)
from sidewatch.nn.layers import CHUNK, _sigmoid


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
    """An input exactly one kernel long (a live stream's step) is its own
    im2col row, taken without a copy; the output must not change by a bit."""

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


class TestConv1DPieces:
    """Infer mode takes the im2col in pieces of at most CHUNK positions;
    train mode takes all of it at once, for backward."""

    @pytest.mark.parametrize("B", [1, 3])
    @pytest.mark.parametrize("P", [1, 2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1,
                                   4 * CHUNK + 3])
    def test_piecewise_forward_is_the_whole_forward_bit_for_bit(self, P, B):
        rng = np.random.default_rng(P * 10 + B)
        layer = Conv1D(6, 5, 4, "tanh", rng=rng)
        layer.b[...] = rng.normal(size=5)
        x = rng.normal(size=(B, P + 3, 6))
        whole, cache = layer.forward(x, mode="train")
        assert cache["cols"].shape == (B, P, 24)
        y, _ = layer.forward(x, mode="infer")
        assert y.tobytes() == whole.tobytes()
        y, _ = layer.forward(x[-1], mode="infer")
        assert y.tobytes() == whole[-1].tobytes()

    def test_infer_cache_of_a_long_input_refuses_backward(self):
        layer = Conv1D(2, 3, 4, rng=np.random.default_rng(22))
        y, cache = layer.forward(np.zeros((CHUNK + 4, 2)), mode="infer")
        with pytest.raises(StaleCacheError, match="train mode"):
            layer.backward(cache, np.ones_like(y))


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
        spec = OptimizerSpec(kind="rmsprop", learning_rate=0.01)
        opt = RMSprop(spec)
        w = {"w": np.array([0.5])}
        grads = [np.array([1.0]), np.array([-2.0]), np.array([0.25])]
        # independent hand-unrolled recurrence
        expect = 0.5
        v = 0.0
        for g in [1.0, -2.0, 0.25]:
            v = RMSPROP_RHO * v + (1.0 - RMSPROP_RHO) * g * g
            expect -= 0.01 * g / (np.sqrt(v) + spec.resolved_eps)
        for g in grads:
            opt.step(w, {"w": g})
        assert w["w"][0] == pytest.approx(expect, abs=0.0)

    @pytest.mark.parametrize("kind", ["adam", "rmsprop"])
    def test_in_place_steps_equal_the_plain_formulas_bit_for_bit(self, kind):
        # The update written as plain expressions, one fresh array per
        # operation; the optimizers reuse buffers and must keep every
        # rounding of this order of operations.
        spec = OptimizerSpec(kind=kind, learning_rate=3e-3)
        b1, b2, rho, eps = ADAM_BETA1, ADAM_BETA2, RMSPROP_RHO, spec.resolved_eps
        rng = np.random.default_rng(50)
        # A parameter of more than two optimizer blocks, with a ragged tail.
        shapes = {"W": (4, 3, 5), "b": (5,), "s": (), "big": (2, BLOCK + 7)}
        params = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        expect = {k: p.copy() for k, p in params.items()}
        m = {k: np.zeros(shape) for k, shape in shapes.items()}
        v = {k: np.zeros(shape) for k, shape in shapes.items()}
        opt = make_optimizer(spec)
        for t, lr in enumerate((3e-3, 3e-3, 1.5e-3), start=1):
            grads = {k: rng.normal(size=shape) * 10.0 ** rng.integers(-4, 3)
                     for k, shape in shapes.items()}
            opt.lr = lr
            opt.step(params, grads)
            for k, g in grads.items():
                if kind == "adam":
                    m[k] = b1 * m[k] + (1.0 - b1) * g
                    v[k] = b2 * v[k] + (1.0 - b2) * g * g
                    mhat = m[k] / (1.0 - b1 ** t)
                    vhat = v[k] / (1.0 - b2 ** t)
                    expect[k] = expect[k] - lr * mhat / (np.sqrt(vhat) + eps)
                else:
                    v[k] = rho * v[k] + (1.0 - rho) * g * g
                    expect[k] = expect[k] - lr * g / (np.sqrt(v[k]) + eps)
                assert params[k].tobytes() == expect[k].tobytes(), (t, k)

    def test_shape_mismatch(self):
        opt = Adam(OptimizerSpec())
        with pytest.raises(ShapeMismatchError):
            opt.step({"w": np.zeros(2)}, {"w": np.zeros(3)})

    @pytest.mark.parametrize("kind", ["adam", "rmsprop"])
    def test_non_contiguous_parameter_is_refused(self, kind):
        # Its flattened blocks would be a copy, so the update would be lost.
        w = np.zeros((4, 6))[:, ::2]
        with pytest.raises(ShapeMismatchError, match="C-contiguous"):
            make_optimizer(OptimizerSpec(kind=kind)).step({"w": w}, {"w": np.ones_like(w)})

    def test_plateau_halves_after_patience(self):
        assert PLATEAU_FACTOR == 0.5
        opt = Adam(OptimizerSpec(learning_rate=0.4))
        sched = PlateauScheduler(opt)
        sched.observe(1.0)
        for _ in range(PLATEAU_PATIENCE - 1):
            assert not sched.observe(1.0)
        assert sched.observe(1.0)  # the patience-th stall: halve
        assert opt.lr == pytest.approx(0.2)

    def test_plateau_floor(self):
        opt = Adam(OptimizerSpec(learning_rate=2e-5))
        sched = PlateauScheduler(opt)
        sched.observe(1.0)
        for _ in range(10 * PLATEAU_PATIENCE):
            sched.observe(1.0)
        assert opt.lr == LR_FLOOR == 1e-5

    def test_optimizer_spec_validation(self):
        with pytest.raises(ValueError):
            OptimizerSpec(kind="sgd")
        with pytest.raises(ValueError):
            OptimizerSpec(learning_rate=0.0)


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


# Reference cells for TestRecurrentLoop: a forward and a backward loop per
# cell, written out step by step with every input product taken per step.
# gh [B, T, H] is the upstream gradient of every step's hidden state.


def _reference_vanilla(layer, xb, gh):
    B, T, _ = xb.shape
    hs = np.empty((B, T, layer.units))
    h = np.zeros((B, layer.units))
    for t in range(T):
        h = np.tanh(xb[:, t] @ layer.Wx + h @ layer.Wh + layer.b)
        hs[:, t] = h
    dWx, dWh, db = (np.zeros_like(p) for p in (layer.Wx, layer.Wh, layer.b))
    gx = np.empty_like(xb)
    carry = np.zeros((B, layer.units))
    for t in range(T - 1, -1, -1):
        dh = gh[:, t] + carry
        da = dh * (1.0 - hs[:, t] ** 2)
        h_prev = hs[:, t - 1] if t > 0 else np.zeros((B, layer.units))
        dWx += xb[:, t].T @ da
        dWh += h_prev.T @ da
        db += da.sum(axis=0)
        gx[:, t] = da @ layer.Wx.T
        carry = da @ layer.Wh.T
    return hs, gx, {"Wx": dWx, "Wh": dWh, "b": db}


def _reference_lstm(layer, xb, gh):
    B, T, _ = xb.shape
    H = layer.units
    hs, cs, gates = np.empty((B, T, H)), np.empty((B, T, H)), np.empty((B, T, 4 * H))
    h, c = np.zeros((B, H)), np.zeros((B, H))
    for t in range(T):
        z = xb[:, t] @ layer.Wx + h @ layer.Wh + layer.b
        i = _sigmoid(z[:, :H])
        f = _sigmoid(z[:, H : 2 * H])
        g = np.tanh(z[:, 2 * H : 3 * H])
        o = _sigmoid(z[:, 3 * H :])
        c = f * c + i * g
        h = o * np.tanh(c)
        hs[:, t], cs[:, t] = h, c
        gates[:, t] = np.concatenate([i, f, g, o], axis=1)
    dWx, dWh, db = (np.zeros_like(p) for p in (layer.Wx, layer.Wh, layer.b))
    gx = np.empty_like(xb)
    dh_carry, dc_carry = np.zeros((B, H)), np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        i, f, g, o = np.split(gates[:, t], 4, axis=1)
        c_prev = cs[:, t - 1] if t > 0 else np.zeros((B, H))
        h_prev = hs[:, t - 1] if t > 0 else np.zeros((B, H))
        tc = np.tanh(cs[:, t])
        dh = gh[:, t] + dh_carry
        do = dh * tc
        dc = dc_carry + dh * o * (1.0 - tc * tc)
        di, df, dg = dc * g, dc * c_prev, dc * i
        dc_carry = dc * f
        dz = np.concatenate([di * i * (1.0 - i), df * f * (1.0 - f),
                             dg * (1.0 - g * g), do * o * (1.0 - o)], axis=1)
        dWx += xb[:, t].T @ dz
        dWh += h_prev.T @ dz
        db += dz.sum(axis=0)
        gx[:, t] = dz @ layer.Wx.T
        dh_carry = dz @ layer.Wh.T
    return hs, gx, {"Wx": dWx, "Wh": dWh, "b": db}


def _reference_gru(layer, xb, gh):
    B, T, _ = xb.shape
    H = layer.units
    hs, zs, rs, hhs = (np.empty((B, T, H)) for _ in range(4))
    h = np.zeros((B, H))
    for t in range(T):
        px = xb[:, t] @ layer.Wx + layer.b
        ph = h @ layer.Wh[:, : 2 * H]
        z = _sigmoid(px[:, :H] + ph[:, :H])
        r = _sigmoid(px[:, H : 2 * H] + ph[:, H:])
        hh = np.tanh(px[:, 2 * H :] + (r * h) @ layer.Wh[:, 2 * H :])
        h = (1.0 - z) * h + z * hh
        hs[:, t], zs[:, t], rs[:, t], hhs[:, t] = h, z, r, hh
    dWx, dWh, db = (np.zeros_like(p) for p in (layer.Wx, layer.Wh, layer.b))
    gx = np.empty_like(xb)
    dh_carry = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        z, r, hh = zs[:, t], rs[:, t], hhs[:, t]
        h_prev = hs[:, t - 1] if t > 0 else np.zeros((B, H))
        dh = gh[:, t] + dh_carry
        dz_gate = dh * (hh - h_prev)
        dah = dh * z * (1.0 - hh * hh)
        drh = dah @ layer.Wh[:, 2 * H :].T
        dh_prev = dh * (1.0 - z) + drh * r
        daz = dz_gate * z * (1.0 - z)
        dar = drh * h_prev * r * (1.0 - r)
        da = np.concatenate([daz, dar, dah], axis=1)
        dWx += xb[:, t].T @ da
        db += da.sum(axis=0)
        dWh[:, :H] += h_prev.T @ daz
        dWh[:, H : 2 * H] += h_prev.T @ dar
        dWh[:, 2 * H :] += (r * h_prev).T @ dah
        dh_prev = dh_prev + daz @ layer.Wh[:, :H].T + dar @ layer.Wh[:, H : 2 * H].T
        gx[:, t] = da @ layer.Wx.T
        dh_carry = dh_prev
    return hs, gx, {"Wx": dWx, "Wh": dWh, "b": db}


_REFERENCE_CELLS = {VanillaRNN: _reference_vanilla, LSTM: _reference_lstm,
                    GRU: _reference_gru}


def _assert_rel_close(actual, expected, tol, what):
    """Max-abs error within tol of expected's max-abs (exact when it is 0:
    dWh at T = 1, where h_prev is the zero initial state)."""
    err, scale = np.max(np.abs(actual - expected)), np.max(np.abs(expected))
    assert err <= tol * scale, f"{what}: error {err:.3g} > {tol:g} x {scale:.3g}"


class TestRecurrentLoop:
    """The shared time loop with hoisted input products against each cell's
    own per-step forward and backward loops (the reference functions above),
    including T = 1, where the first step is also the last."""

    @pytest.mark.parametrize("cls", [VanillaRNN, LSTM, GRU])
    @pytest.mark.parametrize("batch", [None, 1, 3])  # None: a squeezed [T, F] input
    @pytest.mark.parametrize("T", [1, 2, 7])
    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_matches_the_per_step_reference(self, cls, batch, T, return_sequences):
        rng = np.random.default_rng([T, batch or 0, return_sequences])
        layer = cls(5, 4, return_sequences=return_sequences, rng=rng)
        layer.b[...] = rng.normal(scale=0.5, size=layer.b.shape)
        xb = rng.normal(size=(batch or 1, T, 5))
        gh = rng.normal(size=(batch or 1, T, 4))
        if not return_sequences:
            gh[:, :-1] = 0.0
        ref_hs, ref_gx, ref_grads = _REFERENCE_CELLS[cls](layer, xb, gh)

        x = xb if batch else xb[0]
        gy = gh if return_sequences else gh[:, -1]
        y, cache = layer.forward(x, mode="train")
        gx, grads = layer.backward(cache, gy if batch else gy[0])
        ref_y = ref_hs if return_sequences else ref_hs[:, -1]
        assert y.shape == (ref_y if batch else ref_y[0]).shape
        assert gx.shape == x.shape
        _assert_rel_close(y, ref_y if batch else ref_y[0], 1e-12, "output")
        _assert_rel_close(gx, ref_gx if batch else ref_gx[0], 1e-10, "input gradient")
        assert list(grads) == list(ref_grads)
        for name, g in grads.items():
            _assert_rel_close(g, ref_grads[name], 1e-10, name)


class TestInputGradientAtTheBoundary:
    """backward(need_input_grad=False) gives no input gradient and the
    parameter gradients of a full backward, bit for bit."""

    @pytest.mark.parametrize("network, x_shape", [
        (lambda: build_mlp(6, hidden=(5, 4), seed=3).network, (8, 6)),
        (lambda: build_rnn(6, cell="gru", hidden=(4, 3), seed=3).network, (3, 5, 6)),
        (lambda: build_rnn(6, cell="lstm", bidirectional=True, hidden=(4, 3),
                           seed=3).network, (3, 5, 6)),
    ], ids=["mlp", "gru stack", "bi-lstm stack"])
    def test_parameter_gradients_are_unchanged(self, network, x_shape):
        net = network()
        rng = np.random.default_rng(23)
        y, caches = net.forward(rng.normal(size=x_shape), mode="train", rng=rng)
        gy = rng.normal(size=y.shape)
        gx, full = net.backward(caches, gy)
        none, skipped = net.backward(caches, gy, need_input_grad=False)
        assert gx.shape == x_shape and none is None
        assert list(skipped) == list(full)
        for name, g in full.items():
            assert skipped[name].tobytes() == g.tobytes(), name


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
