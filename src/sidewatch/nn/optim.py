"""Adam and RMSprop with a halve-on-plateau adaptive learning rate.

Their constants are fixed: ADAM_BETA1, ADAM_BETA2 and ADAM_EPS (Adam's
published defaults, Kingma & Ba 2014), RMSPROP_RHO and RMSPROP_EPS, and
the plateau schedule's PLATEAU_FACTOR, PLATEAU_PATIENCE and LR_FLOOR.

A step keeps no per-parameter work buffers: each parameter's update runs
over slices of at most BLOCK elements of the flattened arrays, through two
BLOCK-element buffers the optimizer shares between its parameters. The
per-element operations are the same as over whole arrays, so the result is
the same bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ShapeMismatchError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-7
PLATEAU_FACTOR = 0.5
PLATEAU_PATIENCE = 10
LR_FLOOR = 1e-5
# Elements per slice of an optimizer step: with its parameter, gradient,
# moment and work slices the update's working set stays in cache.
BLOCK = 16_384


@dataclass
class OptimizerSpec:
    """Optimizer kind and initial learning rate.

    The update and plateau constants are the module's (ADAM_BETA1,
    ADAM_BETA2, RMSPROP_RHO, PLATEAU_FACTOR, PLATEAU_PATIENCE, LR_FLOOR);
    resolved_eps is the kind's epsilon (ADAM_EPS or RMSPROP_EPS).
    """

    kind: str = "adam"
    learning_rate: float = 1e-3

    def __post_init__(self):
        if self.kind not in ("adam", "rmsprop"):
            raise ValueError(f"unknown optimizer kind {self.kind!r}")
        if self.learning_rate <= 0:
            raise ValueError("learning rate must be > 0")

    @property
    def resolved_eps(self) -> float:
        return ADAM_EPS if self.kind == "adam" else RMSPROP_EPS


class _Optimizer:
    """Shared by Adam and RMSprop: the gradient checks, and two BLOCK-element
    work buffers that every parameter's update runs through, one slice of
    the flattened parameter at a time, so the working set stays in cache
    and a step allocates nothing after each name's first."""

    def __init__(self, spec: OptimizerSpec):
        self.spec = spec
        self.lr = spec.learning_rate
        self._work = (np.empty(BLOCK), np.empty(BLOCK))

    def _check(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            g = grads.get(name)
            if g is None or g.shape != p.shape:
                got = None if g is None else g.shape
                raise ShapeMismatchError(f"gradient for {name!r}: shape {got} vs {p.shape}")
            if not p.flags.c_contiguous:
                # reshape(-1) would be a copy, and the update would miss p.
                raise ShapeMismatchError(f"parameter {name!r} is not C-contiguous")

    def _blocks(self, p: np.ndarray, g: np.ndarray, *state: np.ndarray):
        """(p, g, *state, s1, s2) slices of at most BLOCK elements, covering
        the flattened parameter in order; state arrays have p's shape."""
        flats = [a.reshape(-1) for a in (p, g, *state)]
        s1, s2 = self._work
        for lo in range(0, p.size, BLOCK):
            hi = min(lo + BLOCK, p.size)
            yield (*(a[lo:hi] for a in flats), s1[:hi - lo], s2[:hi - lo])


class Adam(_Optimizer):
    """Bias-corrected first/second moment update, applied in place.

    Per parameter it keeps m and v, allocated on the name's first step;
    the update runs block by block through the shared work buffers. Each
    step computes, per element and in this order of operations:
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, and
    p -= (lr * (m / (1 - b1**t))) / (sqrt(v / (1 - b2**t)) + eps).
    """

    def __init__(self, spec: OptimizerSpec):
        super().__init__(spec)
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self._check(params, grads)
        self.t += 1
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, self.spec.resolved_eps
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for name, p in params.items():
            if name not in self.m:
                self.m[name], self.v[name] = np.zeros_like(p), np.zeros_like(p)
            for p_, g, m, v, s1, s2 in self._blocks(p, grads[name], self.m[name], self.v[name]):
                m *= b1
                m += np.multiply(1.0 - b1, g, out=s1)
                v *= b2
                v += np.multiply(np.multiply(1.0 - b2, g, out=s1), g, out=s1)
                denom = np.add(np.sqrt(np.divide(v, c2, out=s1), out=s1), eps, out=s1)
                step = np.multiply(self.lr, np.divide(m, c1, out=s2), out=s2)
                p_ -= np.divide(step, denom, out=s2)


class RMSprop(_Optimizer):
    """Decayed squared-gradient accumulator update, applied in place.

    Per parameter it keeps v, allocated on the name's first step; the
    update runs block by block through the shared work buffers. Each step
    computes, per element and in this order of operations:
    v = rho*v + ((1-rho)*g)*g and p -= (lr * g) / (sqrt(v) + eps).
    """

    def __init__(self, spec: OptimizerSpec):
        super().__init__(spec)
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self._check(params, grads)
        rho, eps = RMSPROP_RHO, self.spec.resolved_eps
        for name, p in params.items():
            if name not in self.v:
                self.v[name] = np.zeros_like(p)
            for p_, g, v, s1, s2 in self._blocks(p, grads[name], self.v[name]):
                v *= rho
                v += np.multiply(np.multiply(1.0 - rho, g, out=s1), g, out=s1)
                denom = np.add(np.sqrt(v, out=s1), eps, out=s1)
                p_ -= np.divide(np.multiply(self.lr, g, out=s2), denom, out=s2)


def make_optimizer(spec: OptimizerSpec) -> _Optimizer:
    return Adam(spec) if spec.kind == "adam" else RMSprop(spec)


class PlateauScheduler:
    """Halve the optimizer's learning rate when the monitored loss stalls.

    One observe() call per evaluation; after PLATEAU_PATIENCE evaluations
    with no improvement the rate is multiplied by PLATEAU_FACTOR (never
    below LR_FLOOR) and the stall counter resets.
    """

    def __init__(self, optimizer: _Optimizer):
        self.optimizer = optimizer
        self.best = np.inf
        self.stalled = 0

    def observe(self, loss: float) -> bool:
        if loss < self.best:
            self.best = loss
            self.stalled = 0
            return False
        self.stalled += 1
        if self.stalled >= PLATEAU_PATIENCE:
            self.optimizer.lr = max(LR_FLOOR, self.optimizer.lr * PLATEAU_FACTOR)
            self.stalled = 0
            return True
        return False
