"""Dense, 1-D convolution, global max pooling, and dropout layers.

Shape conventions (feature axis last):
  Dense           [F] or [B, F]        -> [units] / [B, units]
  Conv1D          [T, F] or [B, T, F]  -> [T-k+1, filters] (valid, causal in
                                          the sense that consumers only feed
                                          lookback windows)
  GlobalMaxPool1D [T, C] or [B, T, C]  -> [C] / [B, C]
  Dropout         any shape            -> same shape

Unbatched inputs are promoted internally and the output rank matches the
input rank. Caches carry the owning layer so a backward call with a
foreign cache fails loudly instead of producing garbage gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import KernelTooLongError, ShapeMismatchError, StaleCacheError


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "tanh":
        return np.tanh(z)
    if name == "sigmoid":
        return _sigmoid(z)
    if name == "linear":
        return z
    raise ValueError(f"unknown activation {name!r}")


def activate_grad(name: str, y: np.ndarray) -> np.ndarray:
    """Derivative of the activation expressed through its output y."""
    if name == "tanh":
        return 1.0 - y * y
    if name == "sigmoid":
        return y * (1.0 - y)
    if name == "linear":
        return np.ones_like(y)
    raise ValueError(f"unknown activation {name!r}")


@dataclass(frozen=True)
class Regularizer:
    """Kernel L1/L2 penalties plus an L2 penalty on the layer's output."""

    l1: float = 0.0
    l2: float = 0.0
    activity_l2: float = 0.0


def _promote(x: np.ndarray, rank: int, what: str) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == rank:
        return x[None, ...], True
    if x.ndim == rank + 1:
        return x, False
    raise ShapeMismatchError(f"{what}: expected rank {rank} or {rank + 1}, got shape {x.shape}")


class Layer:
    """Common cache bookkeeping for all layer kinds."""

    def params(self) -> dict[str, np.ndarray]:
        return {}

    def penalty(self) -> float:
        return 0.0

    def activity_penalty(self, cache: dict) -> float:
        return 0.0

    def _check_cache(self, cache: dict) -> None:
        if cache.get("layer") is not self:
            raise StaleCacheError(f"cache does not belong to this {type(self).__name__}")


class Dense(Layer):
    def __init__(
        self,
        in_dim: int,
        units: int,
        activation: str = "linear",
        regularizer: Regularizer | None = None,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng()
        self.in_dim = in_dim
        self.units = units
        self.activation = activation
        self.reg = regularizer or Regularizer()
        self.W = glorot_uniform(rng, (in_dim, units), in_dim, units)
        self.b = np.zeros(units, dtype=np.float64)

    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def penalty(self) -> float:
        p = 0.0
        if self.reg.l1:
            p += self.reg.l1 * np.abs(self.W).sum()
        if self.reg.l2:
            p += self.reg.l2 * (self.W ** 2).sum()
        return p

    def activity_penalty(self, cache: dict) -> float:
        if not self.reg.activity_l2:
            return 0.0
        return self.reg.activity_l2 * (cache["y"] ** 2).sum()

    def forward(self, x, mode: str = "infer", rng: np.random.Generator | None = None):
        xb, squeezed = _promote(x, 1, "Dense input")
        if xb.shape[1] != self.in_dim:
            raise ShapeMismatchError(f"Dense expects {self.in_dim} inputs, got {xb.shape[1]}")
        y = activate(self.activation, xb @ self.W + self.b)
        cache = {"layer": self, "x": xb, "y": y, "squeezed": squeezed}
        return (y[0] if squeezed else y), cache

    def backward(self, cache: dict, gy):
        self._check_cache(cache)
        xb, y = cache["x"], cache["y"]
        gyb = np.asarray(gy, dtype=np.float64)
        if cache["squeezed"]:
            gyb = gyb[None, ...]
        if self.reg.activity_l2:
            gyb = gyb + 2.0 * self.reg.activity_l2 * y
        dz = gyb * activate_grad(self.activation, y)
        dW = xb.T @ dz
        if self.reg.l1:
            dW += self.reg.l1 * np.sign(self.W)
        if self.reg.l2:
            dW += 2.0 * self.reg.l2 * self.W
        db = dz.sum(axis=0)
        gx = dz @ self.W.T
        return (gx[0] if cache["squeezed"] else gx), {"W": dW, "b": db}


class Conv1D(Layer):
    """Valid cross-correlation along time, then activation."""

    def __init__(
        self,
        in_channels: int,
        filters: int,
        kernel_size: int,
        activation: str = "linear",
        regularizer: Regularizer | None = None,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng()
        self.in_channels = in_channels
        self.filters = filters
        self.kernel_size = kernel_size
        self.activation = activation
        self.reg = regularizer or Regularizer()
        fan_in = kernel_size * in_channels
        fan_out = kernel_size * filters
        self.W = glorot_uniform(rng, (kernel_size, in_channels, filters), fan_in, fan_out)
        self.b = np.zeros(filters, dtype=np.float64)

    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def penalty(self) -> float:
        p = 0.0
        if self.reg.l1:
            p += self.reg.l1 * np.abs(self.W).sum()
        if self.reg.l2:
            p += self.reg.l2 * (self.W ** 2).sum()
        return p

    def activity_penalty(self, cache: dict) -> float:
        if not self.reg.activity_l2:
            return 0.0
        return self.reg.activity_l2 * (cache["y"] ** 2).sum()

    def _cols(self, xb: np.ndarray) -> np.ndarray:
        # [B, T, C] -> [B, P, k*C] with kernel-major flattening to match W.
        # The reshape of the sliding view would stay an overlapping view
        # (window rows are contiguous), which matmul cannot hand to BLAS;
        # materializing it buys a ~10x faster GEMM for one extra copy.
        k = self.kernel_size
        if xb.shape[1] == k:
            # One position (a live stream's step): the kernel-major row is
            # the input's own row-major layout.
            return np.ascontiguousarray(xb).reshape(xb.shape[0], 1, k * xb.shape[2])
        sw = np.lib.stride_tricks.sliding_window_view(xb, k, axis=1)  # [B, P, C, k]
        cols = sw.transpose(0, 1, 3, 2).reshape(
            xb.shape[0], xb.shape[1] - k + 1, k * xb.shape[2])
        return np.ascontiguousarray(cols)

    def forward(self, x, mode: str = "infer", rng: np.random.Generator | None = None):
        xb, squeezed = _promote(x, 2, "Conv1D input")
        B, T, C = xb.shape
        if C != self.in_channels:
            raise ShapeMismatchError(f"Conv1D expects {self.in_channels} channels, got {C}")
        if T < self.kernel_size:
            raise KernelTooLongError(f"kernel {self.kernel_size} > input length {T}")
        cols = self._cols(xb)
        Wm = self.W.reshape(self.kernel_size * self.in_channels, self.filters)
        y = activate(self.activation, cols @ Wm + self.b)
        cache = {"layer": self, "cols": cols, "y": y, "squeezed": squeezed, "T": T}
        return (y[0] if squeezed else y), cache

    def backward(self, cache: dict, gy, need_input_grad: bool = True):
        self._check_cache(cache)
        cols, y, T = cache["cols"], cache["y"], cache["T"]
        gyb = np.asarray(gy, dtype=np.float64)
        if cache["squeezed"]:
            gyb = gyb[None, ...]
        if self.reg.activity_l2:
            gyb = gyb + 2.0 * self.reg.activity_l2 * y
        dz = gyb * activate_grad(self.activation, y)  # [B, P, filters]
        B, P, _ = dz.shape
        k, C = self.kernel_size, self.in_channels
        Wm = self.W.reshape(k * C, self.filters)
        dWm = cols.reshape(B * P, k * C).T @ dz.reshape(B * P, self.filters)
        dW = dWm.reshape(k, C, self.filters)
        if self.reg.l1:
            dW += self.reg.l1 * np.sign(self.W)
        if self.reg.l2:
            dW += 2.0 * self.reg.l2 * self.W
        db = dz.sum(axis=(0, 1))
        if not need_input_grad:
            return None, {"W": dW, "b": db}
        dcols = (dz @ Wm.T).reshape(B, P, k, C)
        gx = np.zeros((B, T, C), dtype=np.float64)
        for j in range(k):
            gx[:, j : j + P, :] += dcols[:, :, j, :]
        return (gx[0] if cache["squeezed"] else gx), {"W": dW, "b": db}


class GlobalMaxPool1D(Layer):
    """Per-channel maximum over the time axis."""

    def forward(self, x, mode: str = "infer", rng: np.random.Generator | None = None):
        xb, squeezed = _promote(x, 2, "GlobalMaxPool1D input")
        idx = np.argmax(xb, axis=1)  # [B, C], first max wins
        y = np.take_along_axis(xb, idx[:, None, :], axis=1)[:, 0, :]
        cache = {"layer": self, "idx": idx, "shape": xb.shape, "squeezed": squeezed}
        return (y[0] if squeezed else y), cache

    def backward(self, cache: dict, gy):
        self._check_cache(cache)
        gyb = np.asarray(gy, dtype=np.float64)
        if cache["squeezed"]:
            gyb = gyb[None, ...]
        gx = np.zeros(cache["shape"], dtype=np.float64)
        np.put_along_axis(gx, cache["idx"][:, None, :], gyb[:, None, :], axis=1)
        return (gx[0] if cache["squeezed"] else gx), {}


class Dropout(Layer):
    """Inverted dropout: train mode zeroes units with probability *rate*
    and scales survivors by 1/(1-rate); infer mode is the identity."""

    def __init__(self, rate: float):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate

    def forward(self, x, mode: str = "infer", rng: np.random.Generator | None = None):
        x = np.asarray(x, dtype=np.float64)
        if mode == "train" and self.rate > 0.0:
            if rng is None:
                raise ValueError("Dropout in train mode needs an rng")
            mask = (rng.random(x.shape) >= self.rate) / (1.0 - self.rate)
            y = x * mask
            return y, {"layer": self, "mask": mask}
        return x, {"layer": self, "mask": None}

    def backward(self, cache: dict, gy):
        self._check_cache(cache)
        gy = np.asarray(gy, dtype=np.float64)
        if cache["mask"] is None:
            return gy, {}
        return gy * cache["mask"], {}
