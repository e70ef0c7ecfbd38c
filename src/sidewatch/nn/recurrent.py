"""Recurrent layers (vanilla/LSTM/GRU) with backpropagation through time.

Inputs are [T, F] or [B, T, F]; the initial hidden (and cell) state is
zero. With ``return_sequences`` the layer emits its full hidden sequence
(for stacking); otherwise the final hidden state (classifier head input).
The bidirectional wrapper runs a forward and a time-reversed pass with
independent parameters and concatenates along the feature axis.

``_Recurrent`` owns the one forward and the one backward time loop. A cell
supplies ``_step``, its gate arithmetic for one step, and ``_adjoint``,
that step's backward: the step's pre-activation gradient and the gradient
carried to the step before. What does not depend on the recurrence is
hoisted out of the loops (Appleyard et al. 2016, arXiv:1604.01946): one
[B*T, F] @ [F, G*H] GEMM before the forward loop, and after the backward
loop, over the per-step gradients DA [B, T, G*H] it collects, one GEMM
each for dWx = X^T DA, gx = DA Wx^T and dWh = H_prev^T DA (GRU's candidate
block takes r * h_prev for h_prev). Only the products with Wh stay in the
loops. Per-step values live in buffers of
T + 1 steps whose step 0 is the zero initial state: the state (h, or
[h | c] for the LSTM) and, for LSTM and GRU, the gate activations.

Gate layouts: LSTM packs (input, forget, candidate, output) gates into
[., 4H] matrices; GRU packs (update, reset, candidate) into [., 3H] with
the classic reset-before-matmul candidate, so parameter counts are 4x and
3x the vanilla cell's in*h + h^2 + h.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatchError
from .layers import Layer, _promote, _sigmoid, glorot_uniform


class _Recurrent(Layer):
    gates: int  # G: Wx, Wh and b are G*H wide
    kind: str  # the cell's name in layer specs
    saves: tuple[int, ...] = (1,)  # per-step buffer widths, in units of H

    def __init__(self, in_dim: int, units: int, return_sequences: bool = False, rng=None):
        self.in_dim = in_dim
        self.units = units
        self.return_sequences = return_sequences
        rng = rng or np.random.default_rng()
        width = self.gates * units
        self.Wx = glorot_uniform(rng, (in_dim, width), in_dim, width)
        self.Wh = glorot_uniform(rng, (units, width), units, width)
        self.b = np.zeros(width, dtype=np.float64)

    def params(self):
        return {"Wx": self.Wx, "Wh": self.Wh, "b": self.b}

    def forward(self, x, mode: str = "infer", rng=None):
        xb, squeezed = _promote(x, 2, f"{type(self).__name__} input")
        B, T, F = xb.shape
        if F != self.in_dim:
            raise ShapeMismatchError(
                f"{type(self).__name__} expects {self.in_dim} features, got {F}"
            )
        X = xb.reshape(B * T, F)
        xw = (X @ self.Wx).reshape(B, T, -1)
        seq = [np.zeros((B, T + 1, w * self.units)) for w in self.saves]
        for t in range(T):
            self._step(xw[:, t], [s[:, t] for s in seq], [s[:, t + 1] for s in seq])
        hs = seq[0][:, 1:, : self.units]
        y = hs if self.return_sequences else hs[:, -1]
        cache = {"layer": self, "x": X, "seq": seq, "squeezed": squeezed}
        return (y[0] if squeezed else y), cache

    def backward(self, cache, gy, need_input_grad: bool = True):
        self._check_cache(cache)
        X, seq, squeezed = cache["x"], cache["seq"], cache["squeezed"]
        B, T, H = seq[0].shape[0], seq[0].shape[1] - 1, self.units
        gh = np.asarray(gy, dtype=np.float64).reshape(B, -1, H)
        if not self.return_sequences:  # the gradient enters at the last step only
            gh = np.concatenate([np.zeros((B, T - 1, H)), gh], axis=1)
        da = np.empty((B, T, self.gates * H))
        carry = np.zeros_like(seq[0][:, 0])
        for t in range(T - 1, -1, -1):
            da[:, t], carry = self._adjoint(
                gh[:, t], carry, [s[:, t] for s in seq], [s[:, t + 1] for s in seq])
        da = da.reshape(B * T, -1)
        h_prev = seq[0][:, :T, :H].reshape(B * T, H)
        grads = {"Wx": X.T @ da, "Wh": self._dWh(h_prev, seq, da), "b": da.sum(axis=0)}
        if not need_input_grad:
            return None, grads
        gx = (da @ self.Wx.T).reshape(B, T, -1)
        return (gx[0] if squeezed else gx), grads

    def _dWh(self, h_prev, seq, da) -> np.ndarray:
        """H_prev^T DA, where h_prev [B*T, H] is the state each step read."""
        return h_prev.T @ da


class VanillaRNN(_Recurrent):
    """h_t = tanh(x_t Wx + h_{t-1} Wh + b)"""

    gates, kind = 1, "recurrent_vanilla"

    def _step(self, xw, prev, cur):
        np.tanh(xw + prev[0] @ self.Wh + self.b, out=cur[0])

    def _adjoint(self, gh, carry, prev, cur):
        da = (gh + carry) * (1.0 - cur[0] ** 2)
        return da, da @ self.Wh.T


class LSTM(_Recurrent):
    gates, kind, saves = 4, "recurrent_lstm", (2, 4)

    # Bound here and in GRU, not only inherited: bench/tracing.py wraps the
    # forward and backward it finds in each class's own __dict__.
    forward, backward = _Recurrent.forward, _Recurrent.backward

    def _step(self, xw, prev, cur):
        H = self.units
        state, acts = cur
        a = xw + prev[0][:, :H] @ self.Wh + self.b
        acts[:] = _sigmoid(a)
        acts[:, 2 * H : 3 * H] = np.tanh(a[:, 2 * H : 3 * H])
        i, f, g, o = (acts[:, k * H : (k + 1) * H] for k in range(4))
        state[:, H:] = f * prev[0][:, H:] + i * g
        state[:, :H] = o * np.tanh(state[:, H:])

    def _adjoint(self, gh, carry, prev, cur):
        H = self.units
        i, f, g, o = (cur[1][:, k * H : (k + 1) * H] for k in range(4))
        c_prev = prev[0][:, H:]
        tc = np.tanh(cur[0][:, H:])
        dh = gh + carry[:, :H]
        dc = carry[:, H:] + dh * o * (1.0 - tc * tc)
        da = np.concatenate([dc * g * i * (1.0 - i), dc * c_prev * f * (1.0 - f),
                             dc * i * (1.0 - g * g), dh * tc * o * (1.0 - o)], axis=1)
        return da, np.concatenate([da @ self.Wh.T, dc * f], axis=1)


class GRU(_Recurrent):
    gates, kind, saves = 3, "recurrent_gru", (1, 3)

    forward, backward = _Recurrent.forward, _Recurrent.backward

    def _step(self, xw, prev, cur):
        H = self.units
        h, (state, acts) = prev[0], cur
        px = xw + self.b
        acts[:, : 2 * H] = _sigmoid(px[:, : 2 * H] + h @ self.Wh[:, : 2 * H])
        z, r = acts[:, :H], acts[:, H : 2 * H]
        acts[:, 2 * H :] = np.tanh(px[:, 2 * H :] + (r * h) @ self.Wh[:, 2 * H :])
        state[:] = (1.0 - z) * h + z * acts[:, 2 * H :]

    def _adjoint(self, gh, carry, prev, cur):
        H = self.units
        z, r, hh = (cur[1][:, k * H : (k + 1) * H] for k in range(3))
        h_prev = prev[0]
        dh = gh + carry
        dah = dh * z * (1.0 - hh * hh)
        drh = dah @ self.Wh[:, 2 * H :].T
        daz = dh * (hh - h_prev) * z * (1.0 - z)
        dar = drh * h_prev * r * (1.0 - r)
        da = np.concatenate([daz, dar, dah], axis=1)
        return da, dh * (1.0 - z) + drh * r + da[:, : 2 * H] @ self.Wh[:, : 2 * H].T

    def _dWh(self, h_prev, seq, da):
        # The candidate block multiplies r * h_prev by Wh, not h_prev.
        H = self.units
        r = seq[1][:, 1:, H : 2 * H].reshape(-1, H)
        return np.concatenate(
            [h_prev.T @ da[:, : 2 * H], (r * h_prev).T @ da[:, 2 * H :]], axis=1)


CELL_CLASSES = {"vanilla": VanillaRNN, "lstm": LSTM, "gru": GRU}


def make_cell(kind: str, in_dim: int, units: int, return_sequences: bool, rng) -> _Recurrent:
    try:
        cls = CELL_CLASSES[kind]
    except KeyError:
        raise ValueError(f"unknown recurrent cell kind {kind!r}") from None
    return cls(in_dim, units, return_sequences=return_sequences, rng=rng)


class Bidirectional(Layer):
    """Runs a forward and a reversed pass and concatenates their outputs.

    Output width is 2*units: per-step [fwd_t | bwd_t] with sequences, else
    the two final states side by side.
    """

    def __init__(self, cell_kind: str, in_dim: int, units: int, return_sequences=False, rng=None):
        rng = rng or np.random.default_rng()
        self.fwd = make_cell(cell_kind, in_dim, units, return_sequences, rng)
        self.bwd = make_cell(cell_kind, in_dim, units, return_sequences, rng)
        self.units = units
        self.return_sequences = return_sequences

    def params(self):
        out = {}
        for name, p in self.fwd.params().items():
            out[f"fwd_{name}"] = p
        for name, p in self.bwd.params().items():
            out[f"bwd_{name}"] = p
        return out

    def forward(self, x, mode: str = "infer", rng=None):
        xb, squeezed = _promote(x, 2, "Bidirectional input")
        yf, cf = self.fwd.forward(xb, mode, rng)
        yb, cb = self.bwd.forward(np.ascontiguousarray(xb[:, ::-1]), mode, rng)
        if self.return_sequences:
            yb = yb[:, ::-1]
        y = np.concatenate([yf, yb], axis=-1)
        cache = {"layer": self, "cf": cf, "cb": cb, "squeezed": squeezed}
        return (y[0] if squeezed else y), cache

    def backward(self, cache, gy, need_input_grad: bool = True):
        self._check_cache(cache)
        gyb = np.asarray(gy, dtype=np.float64)
        if cache["squeezed"]:
            gyb = gyb[None, ...]
        H = self.units
        gf = gyb[..., :H]
        gb = gyb[..., H:]
        if self.return_sequences:
            gb = np.ascontiguousarray(gb[:, ::-1])
        gxf, grads_f = self.fwd.backward(cache["cf"], gf, need_input_grad)
        gxb_rev, grads_b = self.bwd.backward(cache["cb"], gb, need_input_grad)
        grads = {f"fwd_{k}": v for k, v in grads_f.items()}
        grads.update({f"bwd_{k}": v for k, v in grads_b.items()})
        if not need_input_grad:
            return None, grads
        gx = gxf + gxb_rev[:, ::-1]
        return (gx[0] if cache["squeezed"] else gx), grads
