"""Network containers: a sequential stack and a multi-branch join.

Parameters are exposed as an ordered ``name -> array`` mapping (arrays by
reference, so optimizers update the live network). Loss evaluation adds
kernel penalties and cached activity penalties to the data term so that
finite-difference checks see exactly the function being differentiated.
"""

from __future__ import annotations

import numpy as np

from .losses import bce_loss, mse_loss


class Sequential:
    def __init__(self, layers: list):
        self.layers = list(layers)

    def params(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, layer in enumerate(self.layers):
            for name, p in layer.params().items():
                out[f"{i}.{name}"] = p
        return out

    def penalty(self) -> float:
        return sum(layer.penalty() for layer in self.layers)

    def activity_penalty(self, caches: list) -> float:
        return sum(layer.activity_penalty(c) for layer, c in zip(self.layers, caches))

    def forward(self, x, mode: str = "infer", rng=None):
        caches = []
        for layer in self.layers:
            x, cache = layer.forward(x, mode=mode, rng=rng)
            caches.append(cache)
        return x, caches

    def backward(self, caches: list, gy, need_input_grad: bool = True):
        """(input gradient, or None without *need_input_grad*; parameter
        gradients). Only the first layer may skip its input gradient: it is
        dead work at the network boundary."""
        grads: dict[str, np.ndarray] = {}
        for i in range(len(self.layers) - 1, -1, -1):
            gy, layer_grads = self.layers[i].backward(caches[i], gy, need_input_grad or i > 0)
            for name, g in layer_grads.items():
                grads[f"{i}.{name}"] = g
        return gy, grads


class MultiBranch:
    """Parallel branch stacks concatenated into a shared head.

    forward() takes one input per branch; each branch must reduce to a
    fixed-width vector (optionally batched) before concatenation.
    """

    def __init__(self, branches: list[Sequential], head: Sequential):
        self.branches = list(branches)
        self.head = head

    def params(self) -> dict[str, np.ndarray]:
        out: dict[str, np.ndarray] = {}
        for i, branch in enumerate(self.branches):
            for name, p in branch.params().items():
                out[f"branch{i}.{name}"] = p
        for name, p in self.head.params().items():
            out[f"head.{name}"] = p
        return out

    def penalty(self) -> float:
        return sum(b.penalty() for b in self.branches) + self.head.penalty()

    def activity_penalty(self, caches) -> float:
        branch_caches, head_caches, _ = caches
        total = sum(
            b.activity_penalty(c) for b, c in zip(self.branches, branch_caches)
        )
        return total + self.head.activity_penalty(head_caches)

    def forward(self, xs: list, mode: str = "infer", rng=None):
        if len(xs) != len(self.branches):
            raise ValueError(f"expected {len(self.branches)} branch inputs, got {len(xs)}")
        outs, branch_caches = [], []
        for branch, x in zip(self.branches, xs):
            y, caches = branch.forward(x, mode=mode, rng=rng)
            outs.append(np.asarray(y, dtype=np.float64))
            branch_caches.append(caches)
        widths = [o.shape[-1] for o in outs]
        joined = np.concatenate(outs, axis=-1)
        y, head_caches = self.head.forward(joined, mode=mode, rng=rng)
        return y, (branch_caches, head_caches, widths)

    def backward(self, caches, gy, need_input_grad: bool = True):
        branch_caches, head_caches, widths = caches
        gjoined, grads_head = self.head.backward(head_caches, gy)
        grads: dict[str, np.ndarray] = {f"head.{k}": v for k, v in grads_head.items()}
        gxs = []
        offset = 0
        for i, (branch, b_caches) in enumerate(zip(self.branches, branch_caches)):
            gslice = gjoined[..., offset : offset + widths[i]]
            offset += widths[i]
            gx, branch_grads = branch.backward(b_caches, gslice, need_input_grad)
            gxs.append(gx)
            for name, g in branch_grads.items():
                grads[f"branch{i}.{name}"] = g
        return (gxs if need_input_grad else None), grads


def data_loss_and_grad(y, target, loss_kind: str):
    """Mean data loss and the matching upstream gradient for backward()."""
    if loss_kind == "bce":
        out = np.asarray(y, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        losses, dps = bce_loss(out.reshape(-1), target.reshape(-1))
        loss = float(np.mean(losses))
        gy = (dps / dps.size).reshape(out.shape)
        return loss, gy
    if loss_kind == "mse":
        return mse_loss(y, target)
    raise ValueError(f"unknown loss kind {loss_kind!r}")


def evaluate_loss(net, inputs, target, loss_kind: str, mode: str = "train", rng=None,
                  with_grads: bool = True):
    """Total loss (data + penalties) and, optionally, parameter gradients."""
    y, caches = net.forward(inputs, mode=mode, rng=rng)
    loss, gy = data_loss_and_grad(y, target, loss_kind)
    total = loss + net.penalty() + net.activity_penalty(caches)
    if not with_grads:
        return total, None
    _, grads = net.backward(caches, gy, need_input_grad=False)
    return total, grads
