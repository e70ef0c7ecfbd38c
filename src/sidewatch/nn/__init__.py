"""Minimal dense/conv/recurrent neural engine with exact analytic gradients.

Everything runs in float64 on numpy arrays. Layers expose
``forward(x, mode, rng) -> (y, cache)`` and
``backward(cache, gy, need_input_grad=True) -> (gx, param_grads)``, gx
None when the input gradient is not needed; networks flatten their
parameters into an ordered name -> array mapping that the optimizers
update in place. Determinism contract: a fixed seed yields bit-identical
initialization, dropout masks, and training trajectories.
"""

from .layers import Conv1D, Dense, Dropout, GlobalMaxPool1D, Regularizer, glorot_uniform
from .losses import BCE_EPS, bce_loss, mse_loss
from .network import MultiBranch, Sequential, evaluate_loss
from .optim import Adam, OptimizerSpec, PlateauScheduler, RMSprop, make_optimizer
from .recurrent import GRU, LSTM, Bidirectional, VanillaRNN
from .gradcheck import grad_check

__all__ = [
    "Adam",
    "BCE_EPS",
    "Bidirectional",
    "Conv1D",
    "Dense",
    "Dropout",
    "GRU",
    "GlobalMaxPool1D",
    "LSTM",
    "MultiBranch",
    "OptimizerSpec",
    "PlateauScheduler",
    "RMSprop",
    "Regularizer",
    "Sequential",
    "VanillaRNN",
    "bce_loss",
    "evaluate_loss",
    "glorot_uniform",
    "grad_check",
    "make_optimizer",
    "mse_loss",
]
