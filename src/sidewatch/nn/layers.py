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

# Most conv positions one infer-mode im2col piece holds: 8.7 MB at the
# default branch's k*C = 32*132.
CHUNK = 256


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # 1 / (1 + exp(-z)) for z >= 0, exp(z) / (1 + exp(z)) below: exp never
    # overflows, and as e <= 1, max(e, z >= 0) is either numerator.
    e = np.exp(-np.abs(z))
    return np.maximum(e, z >= 0) / (1.0 + e)


def activate(name: str, z: np.ndarray) -> np.ndarray:
    """The activation of z, in place where it can be (z must be a fresh array)."""
    if name == "tanh":
        return np.tanh(z, out=z)
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


def kernel_windows(x: np.ndarray, k: int) -> np.ndarray:
    """The im2col rows of a C-contiguous [..., T, C] *x* as a read-only view
    [..., T-k+1, k*C]: row p is x[p:p+k].ravel(), the kernel-major layout of
    a Conv1D kernel W.reshape(k*C, filters). Window rows are contiguous, so
    the view costs nothing, but its rows overlap in memory: a GEMM takes a
    contiguous copy of the rows it needs."""
    *lead, T, C = x.shape
    if not x.flags.c_contiguous:
        raise ShapeMismatchError(f"kernel windows need a C-contiguous input, got strides {x.strides}")
    return np.lib.stride_tricks.as_strided(x, (*lead, T - k + 1, k * C), x.strides,
                                           writeable=False)


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


class _Kernel(Layer):
    """A layer with a kernel W and a bias b, activation and Regularizer
    (Dense and Conv1D): the initialization, the penalties and their gradients."""

    def __init__(self, shape: tuple[int, ...], fan_in: int, fan_out: int, activation: str,
                 regularizer: Regularizer | None, rng: np.random.Generator | None):
        self.activation = activation
        self.reg = regularizer or Regularizer()
        self.W = glorot_uniform(rng or np.random.default_rng(), shape, fan_in, fan_out)
        self.b = np.zeros(shape[-1], dtype=np.float64)

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

    def _dz(self, cache: dict, gy) -> np.ndarray:
        """The pre-activation gradient, the activity penalty's included."""
        gyb = np.asarray(gy, dtype=np.float64)
        if cache["squeezed"]:
            gyb = gyb[None, ...]
        if self.reg.activity_l2:
            gyb = gyb + 2.0 * self.reg.activity_l2 * cache["y"]
        return gyb * activate_grad(self.activation, cache["y"])

    def _penalized(self, dW: np.ndarray) -> np.ndarray:
        """The kernel gradient dW with the kernel penalties' added (in place)."""
        if self.reg.l1:
            dW += self.reg.l1 * np.sign(self.W)
        if self.reg.l2:
            dW += 2.0 * self.reg.l2 * self.W
        return dW


class Dense(_Kernel):
    def __init__(
        self,
        in_dim: int,
        units: int,
        activation: str = "linear",
        regularizer: Regularizer | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__((in_dim, units), in_dim, units, activation, regularizer, rng)
        self.in_dim = in_dim
        self.units = units

    def forward(self, x, mode: str = "infer", rng: np.random.Generator | None = None):
        xb, squeezed = _promote(x, 1, "Dense input")
        if xb.shape[1] != self.in_dim:
            raise ShapeMismatchError(f"Dense expects {self.in_dim} inputs, got {xb.shape[1]}")
        z = xb @ self.W
        z += self.b
        y = activate(self.activation, z)
        cache = {"layer": self, "x": xb, "y": y, "squeezed": squeezed}
        return (y[0] if squeezed else y), cache

    def backward(self, cache: dict, gy, need_input_grad: bool = True):
        self._check_cache(cache)
        dz = self._dz(cache, gy)
        grads = {"W": self._penalized(cache["x"].T @ dz), "b": dz.sum(axis=0)}
        if not need_input_grad:
            return None, grads
        gx = dz @ self.W.T
        return (gx[0] if cache["squeezed"] else gx), grads


class Conv1D(_Kernel):
    """Valid cross-correlation along time, then activation.

    Train mode keeps the whole [B, P, k*C] im2col for backward; infer mode
    builds it in pieces of at most CHUNK positions, with the same output
    bit for bit.
    """

    def __init__(
        self,
        in_channels: int,
        filters: int,
        kernel_size: int,
        activation: str = "linear",
        regularizer: Regularizer | None = None,
        rng: np.random.Generator | None = None,
    ):
        super().__init__((kernel_size, in_channels, filters), kernel_size * in_channels,
                         kernel_size * filters, activation, regularizer, rng)
        self.in_channels = in_channels
        self.filters = filters
        self.kernel_size = kernel_size

    def forward(self, x, mode: str = "infer", rng: np.random.Generator | None = None):
        xb, squeezed = _promote(x, 2, "Conv1D input")
        B, T, C = xb.shape
        if C != self.in_channels:
            raise ShapeMismatchError(f"Conv1D expects {self.in_channels} channels, got {C}")
        if T < self.kernel_size:
            raise KernelTooLongError(f"kernel {self.kernel_size} > input length {T}")
        k, P = self.kernel_size, T - self.kernel_size + 1
        xb = np.ascontiguousarray(xb)
        Wm = self.W.reshape(k * C, self.filters)
        if mode == "train" or P <= CHUNK:
            # One GEMM over the whole im2col copy, which backward reads. One
            # position (a live stream's step) is the input's own layout;
            # the window view would hand matmul a stride BLAS refuses.
            cols = (xb.reshape(B, 1, k * C) if P == 1
                    else np.ascontiguousarray(kernel_windows(xb, k)))
            z = cols @ Wm
        else:
            # Infer mode: im2col in near-equal pieces of at most CHUNK
            # positions, never a short tail (the rows of a GEMM of a few
            # rows can round differently), so memory is bounded by a piece.
            cols = None
            windows = kernel_windows(xb, k)
            z = np.empty((B, P, self.filters))
            n = -(-P // CHUNK)
            cuts = [P * i // n for i in range(n + 1)]
            for b in range(B):
                for lo, hi in zip(cuts, cuts[1:]):
                    np.matmul(np.ascontiguousarray(windows[b, lo:hi]), Wm, out=z[b, lo:hi])
        z += self.b
        y = activate(self.activation, z)
        cache = {"layer": self, "cols": cols, "y": y, "squeezed": squeezed, "T": T}
        return (y[0] if squeezed else y), cache

    def backward(self, cache: dict, gy, need_input_grad: bool = True):
        self._check_cache(cache)
        cols, T = cache["cols"], cache["T"]
        if cols is None:
            raise StaleCacheError(f"an infer-mode forward over more than {CHUNK} positions "
                                  "keeps no im2col to differentiate; use train mode")
        dz = self._dz(cache, gy)  # [B, P, filters]
        B, P, _ = dz.shape
        k, C = self.kernel_size, self.in_channels
        Wm = self.W.reshape(k * C, self.filters)
        dWm = cols.reshape(B * P, k * C).T @ dz.reshape(B * P, self.filters)
        grads = {"W": self._penalized(dWm.reshape(k, C, self.filters)),
                 "b": dz.sum(axis=(0, 1))}
        if not need_input_grad:
            return None, grads
        dcols = (dz @ Wm.T).reshape(B, P, k, C)
        gx = np.zeros((B, T, C), dtype=np.float64)
        for j in range(k):
            gx[:, j : j + P, :] += dcols[:, :, j, :]
        return (gx[0] if cache["squeezed"] else gx), grads


class GlobalMaxPool1D(Layer):
    """Per-channel maximum over the time axis."""

    def forward(self, x, mode: str = "infer", rng: np.random.Generator | None = None):
        xb, squeezed = _promote(x, 2, "GlobalMaxPool1D input")
        idx = np.argmax(xb, axis=1)  # [B, C], first max wins
        y = np.take_along_axis(xb, idx[:, None, :], axis=1)[:, 0, :]
        cache = {"layer": self, "idx": idx, "shape": xb.shape, "squeezed": squeezed}
        return (y[0] if squeezed else y), cache

    def backward(self, cache: dict, gy, need_input_grad: bool = True):
        self._check_cache(cache)
        if not need_input_grad:
            return None, {}
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

    def backward(self, cache: dict, gy, need_input_grad: bool = True):
        self._check_cache(cache)
        if not need_input_grad:
            return None, {}
        gy = np.asarray(gy, dtype=np.float64)
        if cache["mask"] is None:
            return gy, {}
        return gy * cache["mask"], {}
