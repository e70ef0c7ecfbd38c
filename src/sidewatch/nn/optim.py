"""Adam and RMSprop with a halve-on-plateau adaptive learning rate.

Their constants are fixed: ADAM_BETA1, ADAM_BETA2 and ADAM_EPS (Adam's
published defaults, Kingma & Ba 2014), RMSPROP_RHO and RMSPROP_EPS, and
the plateau schedule's PLATEAU_FACTOR, PLATEAU_PATIENCE and LR_FLOOR.
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
    def __init__(self, spec: OptimizerSpec):
        self.spec = spec
        self.lr = spec.learning_rate

    def _check(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        for name, p in params.items():
            g = grads.get(name)
            if g is None or g.shape != p.shape:
                got = None if g is None else g.shape
                raise ShapeMismatchError(f"gradient for {name!r}: shape {got} vs {p.shape}")


class Adam(_Optimizer):
    """Bias-corrected first/second moment update, applied in place.

    Per parameter it keeps m, v and two work buffers, so a step allocates
    nothing. Each step computes, in this order of operations:
    m = b1*m + (1-b1)*g, v = b2*v + ((1-b2)*g)*g, and
    p -= (lr * (m / (1 - b1**t))) / (sqrt(v / (1 - b2**t)) + eps).
    """

    def __init__(self, spec: OptimizerSpec):
        super().__init__(spec)
        self.t = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.buffers: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self._check(params, grads)
        self.t += 1
        b1, b2, eps = ADAM_BETA1, ADAM_BETA2, self.spec.resolved_eps
        for name, p in params.items():
            g = grads[name]
            m = self.m.setdefault(name, np.zeros_like(p))
            v = self.v.setdefault(name, np.zeros_like(p))
            s1, s2 = self.buffers.setdefault(name, (np.empty_like(p), np.empty_like(p)))
            m *= b1
            m += np.multiply(1.0 - b1, g, out=s1)
            v *= b2
            v += np.multiply(np.multiply(1.0 - b2, g, out=s1), g, out=s1)
            denom = np.add(np.sqrt(np.divide(v, 1.0 - b2 ** self.t, out=s1), out=s1), eps, out=s1)
            step = np.multiply(self.lr, np.divide(m, 1.0 - b1 ** self.t, out=s2), out=s2)
            p -= np.divide(step, denom, out=s2)


class RMSprop(_Optimizer):
    """Decayed squared-gradient accumulator update, applied in place.

    Per parameter it keeps v and two work buffers, so a step allocates
    nothing. Each step computes, in this order of operations:
    v = rho*v + ((1-rho)*g)*g and p -= (lr * g) / (sqrt(v) + eps).
    """

    def __init__(self, spec: OptimizerSpec):
        super().__init__(spec)
        self.v: dict[str, np.ndarray] = {}
        self.buffers: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self._check(params, grads)
        rho, eps = RMSPROP_RHO, self.spec.resolved_eps
        for name, p in params.items():
            g = grads[name]
            v = self.v.setdefault(name, np.zeros_like(p))
            s1, s2 = self.buffers.setdefault(name, (np.empty_like(p), np.empty_like(p)))
            v *= rho
            v += np.multiply(np.multiply(1.0 - rho, g, out=s1), g, out=s1)
            denom = np.add(np.sqrt(v, out=s1), eps, out=s1)
            p -= np.divide(np.multiply(self.lr, g, out=s2), denom, out=s2)


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
