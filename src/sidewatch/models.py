"""The four model families: assembly, training, prediction, persistence.

Families:
  mlp               dense tanh stack + sigmoid head, trained on single rows
  conv_multibranch  five parallel conv1d(64, k=32, tanh) -> global-max-pool
                    branches over the raw/smoothed/downsampled views, joined
                    by a regularized tanh dense layer, dropout 0.3, sigmoid
  autoencoder       dense tanh encoder -> linear decoder, MSE objective
  rnn_vanilla / rnn_lstm / rnn_lstm_bi / rnn_gru / rnn_gru_bi
                    stacked 16/32/32/16 recurrent layers (full sequence
                    between layers, final state at the top) + sigmoid head

Every model normalizes its input rows with z-score statistics fit on its
training data (training rows only; stored in the artifact). A model with
an attached encoder first maps rows through the encoder, then normalizes
the codes with its own statistics.

Everything that differs between families sits in one table (_FAMILY_TABLE,
with RNN_VARIANTS naming the recurrent cells): the network constructor,
the closed-form parameter count, the batch source that turns train_model
data into minibatches, the train_model data built from a list of traces,
and a row stream's unit and block step. Every family trains through one
epoch loop (_fit); every family that can stream is scored by one
RowStreamPredictor, stepped by a whole trace (predict_rows, evaluate_model)
or by the blocks of a live stream (detect).

The conv step is one stateful engine (_ConvEngine), which keeps its own
period (the gap between a stream's first two timestamps) and slides the
causal lookback windows over the branch views: one convolution per branch
and block plus sliding-window maxima, exactly equivalent to convolving
each materialized causal window. The recurrent step buffers rows into
chunks and scores every chunk a block closes in one forward.

Conv training sees the same views. _conv_batches keeps one normalized copy
of each trace; per minibatch, _conv_loss builds that trace's five padded
branch sample arrays (_ConvEngine.trace_views) and convolves, per branch,
each run of positions that the sampled rows' windows cover, once however
many windows overlap it, and pools those windows, keeping each max's
position. The head runs forward and backward as usual. A max passes
gradient to its position alone and the conv layers carry no regularizer,
so each branch's weight gradient is one product of the im2col rows at
those positions with their dz.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import featurize
from .errors import (
    BadShapeError,
    CorruptArtifactError,
    KernelTooLongError,
    NoDataError,
    NonMonotonicTimeError,
    ShapeMismatchError,
    VersionMismatchError,
    WrongSequenceLengthError,
)
from .featurize import (
    NormStats,
    SequenceBatch,
    chunk_sequences,
    zscore_apply,
    zscore_fit,
)
from .nn import (
    Bidirectional,
    Conv1D,
    Dense,
    Dropout,
    GlobalMaxPool1D,
    MultiBranch,
    OptimizerSpec,
    PlateauScheduler,
    Regularizer,
    Sequential,
    evaluate_loss,
    make_optimizer,
)
from .nn.layers import activate_grad, kernel_windows
from .nn.network import data_loss_and_grad
from .nn.recurrent import CELL_CLASSES, make_cell
from .telemetry import DEFAULT_SAMPLE_PERIOD_S, Trace

# The five recurrent families: family name -> (cell, bidirectional).
RNN_VARIANTS = {
    "rnn_vanilla": ("vanilla", False),
    "rnn_lstm": ("lstm", False),
    "rnn_lstm_bi": ("lstm", True),
    "rnn_gru": ("gru", False),
    "rnn_gru_bi": ("gru", True),
}

RNN_HIDDEN = (16, 32, 32, 16)

ARTIFACT_FORMAT = "sidewatch-model"
ARTIFACT_VERSION = 2
# PNG-style: the high byte and the line ends expose a text-mode transfer.
ARTIFACT_MAGIC = b"\x89SWM\r\n\x1a\n"
_LENGTH = struct.Struct("<Q")
_DIGEST_START = len(ARTIFACT_MAGIC) + _LENGTH.size
_HEADER_START = _DIGEST_START + hashlib.sha256().digest_size


@dataclass(frozen=True)
class WindowConfig:
    """Causal lookback window lengths for the conv model's five branches."""

    raw_window: int = featurize.RAW_WINDOW_ROWS
    down_window: int = featurize.DOWN_WINDOW_ROWS


@dataclass
class ModelArtifact:
    """A (possibly trained) network plus everything needed to reuse it."""

    family: str
    input_dim: int
    hyper: dict
    network: object
    norm: NormStats | None = None
    window: WindowConfig | None = None
    sequence_length: int | None = None
    encoder: "ModelArtifact | None" = None
    seed: int = 0
    epochs_trained: int = 0

    @property
    def param_count(self) -> int:
        return int(sum(p.size for p in self.network.params().values()))

    def layer_specs(self) -> list[dict]:
        """Human-readable per-layer descriptors (kind, sizes, activation)."""
        return describe_network(self.network)


def _describe_layer(layer) -> dict:
    if isinstance(layer, Dense):
        spec = {"kind": "dense", "units": layer.units, "activation": layer.activation}
        reg = layer.reg
        if reg.l1 or reg.l2 or reg.activity_l2:
            spec["regularizer"] = {"l1": reg.l1, "l2": reg.l2,
                                   "activity_l2": reg.activity_l2}
        return spec
    if isinstance(layer, Conv1D):
        return {"kind": "conv1d", "filters": layer.filters,
                "kernel": layer.kernel_size, "activation": layer.activation}
    if isinstance(layer, GlobalMaxPool1D):
        return {"kind": "global_max_pool1d"}
    if isinstance(layer, Dropout):
        return {"kind": "dropout", "rate": layer.rate}
    if isinstance(layer, Bidirectional):
        return {"kind": "bidirectional_wrapper", "wraps": layer.fwd.kind,
                "units": layer.units, "return_sequences": layer.return_sequences}
    if isinstance(layer, tuple(CELL_CLASSES.values())):
        return {"kind": layer.kind, "units": layer.units,
                "return_sequences": layer.return_sequences}
    return {"kind": type(layer).__name__}


def describe_network(network) -> list[dict]:
    if isinstance(network, MultiBranch):
        return (
            [{"branch": i, **_describe_layer(l)}
             for i, branch in enumerate(network.branches) for l in branch.layers]
            + [{"head": True, **_describe_layer(l)} for l in network.head.layers]
        )
    return [_describe_layer(l) for l in network.layers]


# --- builders ---------------------------------------------------------------


def _new_artifact(family: str, F: int, hyper: dict, seed: int, **fields) -> ModelArtifact:
    network = _FAMILY_TABLE[family].network(F, hyper, np.random.default_rng(seed))
    return ModelArtifact(family=family, input_dim=F, hyper=hyper, network=network,
                         seed=seed, **fields)


def _mlp_network(F: int, hyper: dict, rng) -> Sequential:
    layers = []
    prev = F
    for h in hyper["hidden"]:
        layers.append(Dense(prev, h, "tanh", rng=rng))
        prev = h
    layers.append(Dense(prev, 1, "sigmoid", rng=rng))
    return Sequential(layers)


def _mlp_param_count(F: int, hyper: dict) -> int:
    total, prev = 0, F
    for h in list(hyper["hidden"]) + [1]:
        total += prev * h + h
        prev = h
    return total


def build_mlp(F: int, hidden: tuple[int, ...] = (100,), seed: int = 0) -> ModelArtifact:
    """Dense tanh stack with a 1-unit sigmoid head.

    Parameter count: sum over layers of in*out + out, e.g. F=132 with the
    default (100,) gives 132*100+100 + 100*1+1 = 13401.
    """
    if F < 1 or any(h < 1 for h in hidden):
        raise BadShapeError(f"bad mlp dims F={F} hidden={hidden}")
    return _new_artifact("mlp", F, {"hidden": list(hidden)}, seed)


def _conv_network(F: int, hyper: dict, rng) -> MultiBranch:
    reg = Regularizer(l1=hyper["l1"], l2=hyper["l2"], activity_l2=hyper["activity_l2"])
    branches = [
        Sequential([
            Conv1D(F, hyper["filters"], hyper["kernel"], "tanh", rng=rng),
            GlobalMaxPool1D(),
        ])
        for _ in range(5)
    ]
    head = Sequential([
        Dense(5 * hyper["filters"], hyper["dense_units"], "tanh", regularizer=reg, rng=rng),
        Dropout(hyper["dropout"]),
        Dense(hyper["dense_units"], 1, "sigmoid", rng=rng),
    ])
    return MultiBranch(branches, head)


def _conv_param_count(F: int, hyper: dict) -> int:
    k, nf, du = hyper["kernel"], hyper["filters"], hyper["dense_units"]
    per_branch = k * F * nf + nf
    head = 5 * nf * du + du + du * 1 + 1
    return 5 * per_branch + head


def build_conv_multibranch(
    F: int,
    window: WindowConfig = WindowConfig(),
    filters: int = 64,
    kernel: int = 32,
    dense_units: int = 64,
    dropout: float = 0.3,
    l1: float = 1e-4,
    l2: float = 1e-4,
    activity_l2: float = 1e-4,
    seed: int = 0,
) -> ModelArtifact:
    """Five-branch 1-D conv classifier over the multi-resolution views.

    Per-branch conv parameters: kernel*F*filters + filters (270400 at
    F=132 defaults); pooled widths concatenate to 5*filters.
    """
    if F < 1:
        raise BadShapeError(f"bad input dim {F}")
    if min(window.raw_window, window.down_window) < kernel:
        raise KernelTooLongError(
            f"kernel {kernel} exceeds branch windows {window.raw_window}/{window.down_window}"
        )
    hyper = {
        "filters": filters,
        "kernel": kernel,
        "dense_units": dense_units,
        "dropout": dropout,
        "l1": l1,
        "l2": l2,
        "activity_l2": activity_l2,
    }
    return _new_artifact("conv_multibranch", F, hyper, seed, window=window)


def _autoencoder_network(F: int, hyper: dict, rng) -> Sequential:
    d = hyper["bottleneck"]
    return Sequential([
        Dense(F, d, "tanh", rng=rng),
        Dense(d, F, "linear", rng=rng),
    ])


def _autoencoder_param_count(F: int, hyper: dict) -> int:
    d = hyper["bottleneck"]
    return F * d + d + d * F + F


def build_autoencoder(F: int, d: int, seed: int = 0) -> ModelArtifact:
    """Dense tanh encoder to d dimensions plus a linear decoder."""
    if not 1 <= d < F:
        raise BadShapeError(f"bottleneck must satisfy 1 <= d < F, got d={d}, F={F}")
    return _new_artifact("autoencoder", F, {"bottleneck": d}, seed)


def _rnn_network(F: int, hyper: dict, rng) -> Sequential:
    cell = hyper["cell"]
    bidirectional = hyper["bidirectional"]
    layers = []
    prev = F
    hidden = tuple(hyper["hidden"])
    for li, h in enumerate(hidden):
        return_sequences = li < len(hidden) - 1
        if bidirectional:
            layers.append(Bidirectional(cell, prev, h, return_sequences=return_sequences, rng=rng))
            prev = 2 * h
        else:
            layers.append(make_cell(cell, prev, h, return_sequences, rng))
            prev = h
    layers.append(Dense(prev, 1, "sigmoid", rng=rng))
    return Sequential(layers)


def _rnn_param_count(F: int, hyper: dict) -> int:
    mult = CELL_CLASSES[hyper["cell"]].gates
    directions = 2 if hyper["bidirectional"] else 1
    total, prev = 0, F
    for h in hyper["hidden"]:
        total += directions * mult * (prev * h + h * h + h)
        prev = directions * h
    return total + prev + 1


def build_rnn(
    F: int,
    cell: str = "vanilla",
    bidirectional: bool = False,
    hidden: tuple[int, ...] = RNN_HIDDEN,
    seed: int = 0,
) -> ModelArtifact:
    """Stacked recurrent classifier: full sequences between layers, final
    state at the top, 1-unit sigmoid head."""
    if F < 1 or any(h < 1 for h in hidden):
        raise BadShapeError(f"bad rnn dims F={F} hidden={hidden}")
    family = next((name for name, parts in RNN_VARIANTS.items()
                   if parts == (cell, bidirectional)), None)
    if family is None:
        raise BadShapeError(f"cell {cell!r} with bidirectional={bidirectional} "
                            "is not one of the five recurrent variants")
    hyper = {"cell": cell, "bidirectional": bidirectional, "hidden": list(hidden)}
    return _new_artifact(family, F, hyper, seed)


def expected_param_count(family: str, F: int, hyper: dict) -> int:
    """Closed-form parameter count (documents what param_count reports)."""
    return _family(family).param_count(F, hyper)


# --- training ----------------------------------------------------------------


@dataclass
class TrainConfig:
    optimizer: OptimizerSpec = field(default_factory=OptimizerSpec)
    max_epochs: int = 100
    batch_size: int = 32
    early_stop_patience: int | None = None
    # Loss must drop below best - early_stop_tol to count as an improvement
    # (mirrors the scikit-learn MLP tol semantics).
    early_stop_tol: float = 1e-4
    seed: int = 0
    validation_fraction: float = 0.0
    rows_per_trace: int = 16  # conv training rows sampled per trace per epoch

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.rows_per_trace < 1:
            raise ValueError("rows_per_trace must be >= 1")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in [0, 1)")
        if self.early_stop_tol < 0:
            raise ValueError("early_stop_tol must be >= 0")


@dataclass(frozen=True)
class TrainLogEntry:
    epoch: int
    train_loss: float
    val_loss: float | None
    learning_rate: float


def write_training_log(log: list[TrainLogEntry], path: str | Path) -> None:
    """Columnar text log: epoch, train loss, val loss, learning rate."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch\ttrain_loss\tval_loss\tlearning_rate\n")
        for e in log:
            val = "nan" if e.val_loss is None else repr(e.val_loss)
            fh.write(f"{e.epoch}\t{e.train_loss!r}\t{val}\t{e.learning_rate!r}\n")


class _Batches(NamedTuple):
    """A family's training data as the epoch loop sees it."""

    count: int         # units the split permutes
    unit: str          # their name ("rows", "traces" or "sequences"), for errors
    loss: str          # loss kind for evaluate_loss
    train: Callable    # (unit order, rng) -> iterator of (inputs, targets) minibatches
    val: Callable      # (unit indices) -> list of fixed (inputs, targets) batches
    # The loss of a minibatch, with evaluate_loss's signature. None is
    # evaluate_loss itself, looked up when called, so that a wrapper put on
    # the module's name (a tracer) sees every call.
    evaluate: Callable | None = None


def _fit(artifact: ModelArtifact, batches: _Batches, config: TrainConfig):
    """The epoch loop every family trains through.

    It draws from one seed-``config.seed`` generator in a fixed order: the
    train/validation split, then per epoch the unit order, then per
    minibatch whatever the batch source draws followed by the dropout
    draws. Each epoch feeds the plateau schedule and early stopping; with
    a validation split the best-validation parameters are restored at the
    end.
    """
    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(batches.count)
    n_val = int(batches.count * config.validation_fraction)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        raise NoDataError(f"validation fraction leaves no training {batches.unit}")
    val_sets = batches.val(val_idx) if n_val else []
    evaluate = batches.evaluate or evaluate_loss

    net = artifact.network
    optimizer = make_optimizer(config.optimizer)
    scheduler = PlateauScheduler(optimizer)
    log: list[TrainLogEntry] = []
    best, best_params, stalled = math.inf, None, 0
    for epoch in range(1, config.max_epochs + 1):
        order = train_idx[rng.permutation(train_idx.size)]
        losses = []
        for xs, targets in batches.train(order, rng):
            loss, grads = evaluate(net, xs, targets, batches.loss, mode="train", rng=rng)
            optimizer.step(net.params(), grads)
            del grads  # not alive through the next minibatch's loss
            losses.append(loss)
        train_loss = float(np.mean(losses))
        if not math.isfinite(train_loss):
            raise ArithmeticError(f"non-finite training loss at epoch {epoch}")
        val_loss = None
        if val_sets:
            val_loss = float(np.mean([
                evaluate(net, xs, targets, batches.loss, mode="infer", with_grads=False)[0]
                for xs, targets in val_sets]))
        monitored = train_loss if val_loss is None else val_loss
        scheduler.observe(monitored)
        log.append(TrainLogEntry(epoch, train_loss, val_loss, optimizer.lr))
        if monitored < best - config.early_stop_tol:
            best, stalled = monitored, 0
            if val_sets:
                best_params = {k: v.copy() for k, v in net.params().items()}
        else:
            stalled += 1
            patience = config.early_stop_patience
            if patience is not None and stalled >= patience:
                break
    if best_params is not None:
        for k, v in net.params().items():
            v[...] = best_params[k]
    artifact.epochs_trained = log[-1].epoch
    return artifact, log


def _fit_norm_if_missing(artifact: ModelArtifact, rows: np.ndarray) -> None:
    if artifact.norm is None:
        artifact.norm = zscore_fit(rows)


def _encoded_rows(artifact: ModelArtifact, rows: np.ndarray) -> np.ndarray:
    """Rows in the model's input space: encoded (if any) and width-checked."""
    if artifact.encoder is not None:
        rows = encode_rows(artifact.encoder, rows)
    if rows.shape[-1] != artifact.input_dim:
        raise ShapeMismatchError(
            f"model expects {artifact.input_dim} features, got {rows.shape[-1]}"
        )
    return rows


def _model_rows(artifact: ModelArtifact, rows: np.ndarray) -> np.ndarray:
    """Rows as the model sees them: encoded (if any), width-checked, z-scored."""
    rows = _encoded_rows(artifact, rows)
    if artifact.norm is not None:
        rows = zscore_apply(artifact.norm, rows)
    return rows


def _array_batches(X: np.ndarray, targets: np.ndarray, config: TrainConfig,
                   unit: str, loss: str) -> _Batches:
    """Minibatches of config.batch_size units; validation is one batch."""
    def train(order, rng):
        for lo in range(0, order.size, config.batch_size):
            sel = order[lo : lo + config.batch_size]
            yield X[sel], targets[sel]

    return _Batches(X.shape[0], unit, loss, train, lambda idx: [(X[idx], targets[idx])])


def _row_batches(artifact: ModelArtifact, X, y, config: TrainConfig, loss: str) -> _Batches:
    """Single-row units; y=None makes the rows their own targets."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise NoDataError(f"need a nonempty [N, F] row matrix, got shape {X.shape}")
    X = _encoded_rows(artifact, X)
    _fit_norm_if_missing(artifact, X)
    X = zscore_apply(artifact.norm, X)
    targets = X if y is None else np.asarray(y, dtype=np.float64)
    return _array_batches(X, targets, config, "rows", loss)


def _sequence_batches(artifact: ModelArtifact, batch: SequenceBatch,
                      config: TrainConfig) -> _Batches:
    if batch.num_sequences == 0:
        raise NoDataError("no training sequences")
    N, L, F = batch.sequences.shape
    if artifact.encoder is not None:
        raise ShapeMismatchError("recurrent models do not take an encoder front-end")
    if F != artifact.input_dim:
        raise ShapeMismatchError(f"model expects {artifact.input_dim} features, got {F}")
    _fit_norm_if_missing(artifact, batch.sequences.reshape(N * L, F))
    artifact.sequence_length = L
    return _array_batches(zscore_apply(artifact.norm, batch.sequences),
                          batch.labels.astype(np.float64), config, "sequences", "bce")


def _sample_training_rows(labels: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Class-balanced row sample (all rows if the trace is small)."""
    T = labels.shape[0]
    if T <= count:
        return np.arange(T)
    mal = np.nonzero(labels == 1)[0]
    ben = np.nonzero(labels == 0)[0]
    if mal.size and ben.size:
        n_mal = min(mal.size, count // 2)
        n_ben = min(ben.size, count - n_mal)
        n_mal = min(mal.size, count - n_ben)
        picks = np.concatenate([
            rng.choice(mal, size=n_mal, replace=False),
            rng.choice(ben, size=n_ben, replace=False),
        ])
    else:
        pool = mal if mal.size else ben
        picks = rng.choice(pool, size=min(count, pool.size), replace=False)
    rng.shuffle(picks)
    return picks


class _TraceBatch(NamedTuple):
    """A conv minibatch: one trace's normalized rows, the _ConvEngine whose
    branch views (trace_views) _conv_loss convolves, and the trace rows
    sampled for this minibatch. The views are built per minibatch, so only
    the trace being scored has them."""

    x: np.ndarray
    engine: _ConvEngine
    rows: np.ndarray | None = None


def _conv_batches(artifact: ModelArtifact, traces: list[Trace], config: TrainConfig) -> _Batches:
    """One minibatch per trace: config.rows_per_trace sampled rows, scored
    by _conv_loss through the trace's branch views. The fit keeps one
    normalized copy of each trace; the views are built per minibatch."""
    if not traces:
        raise NoDataError("no training traces")
    if any(branch.layers[0].reg != Regularizer() for branch in artifact.network.branches):
        raise BadShapeError("conv layers must carry no regularizer: conv training takes "
                            "their gradient at the pooled argmax positions only")
    encoded = [_encoded_rows(artifact, t.features) for t in traces]
    _fit_norm_if_missing(artifact, np.vstack(encoded))
    prepared = [(_TraceBatch(zscore_apply(artifact.norm, rows),
                             _ConvEngine(artifact, t.meta.sample_period_s)), t.labels)
                for rows, t in zip(encoded, traces)]

    def train(order, rng):
        for ti in order:
            batch, labels = prepared[ti]
            rows = _sample_training_rows(labels, config.rows_per_trace, rng)
            yield batch._replace(rows=rows), labels[rows].astype(np.float64)

    # Validation rows come from their own generator, drawn once, so the
    # monitored loss is comparable across epochs.
    return _Batches(len(prepared), "traces", "bce", train,
                    lambda idx: list(train(idx, np.random.default_rng(config.seed + 1))),
                    _conv_loss)


def _pooled_at(conv: Conv1D, x: np.ndarray, width: int, starts: np.ndarray):
    """The pooled vectors of the windows of *width* conv positions over the
    samples *x* that start at *starts* [B], [B, filters], and the position
    of each max. Only the runs of positions those windows cover are
    convolved, one Conv1D.forward each, so the cost is bounded by B * width
    positions, however long the trace."""
    s = np.unique(starts)
    firsts = np.split(s, np.flatnonzero(s[1:] > s[:-1] + width) + 1)
    runs = [(run[0], run[-1] + width) for run in firsts]
    acts = np.concatenate([conv.forward(x[lo:hi + conv.kernel_size - 1], mode="infer")[0]
                           for lo, hi in runs])
    positions = np.concatenate([np.arange(lo, hi) for lo, hi in runs])
    pooled, at = _sliding_max(acts, width, np.searchsorted(positions, starts))
    return pooled, positions[at]


def _conv_loss(net: MultiBranch, batch: _TraceBatch, targets, loss_kind: str,
               mode: str = "train", rng=None, with_grads: bool = True):
    """evaluate_loss of a conv minibatch, from its trace's branch views.

    Each branch's conv runs in infer mode over the positions the sampled
    rows' lookback windows cover (_pooled_at); each row pools the
    activations its window covers, the first maximum winning as in
    GlobalMaxPool1D. The head runs
    as in MultiBranch.forward/backward. A pooled maximum passes gradient to
    its argmax position alone, so a branch's weight gradient is one product
    of the im2col rows at those positions with the dz gathered there, and
    no input gradient is formed. This equals evaluate_loss over the rows'
    materialized windows, up to float rounding.
    """
    convs = [branch.layers[0] for branch in net.branches]
    engine = batch.engine
    samples = engine.trace_views(batch.x)
    pools = [_pooled_at(conv, x, win - conv.kernel_size + 1, batch.rows // factor)
             for conv, x, factor, win in zip(convs, samples, engine.factors, engine.wins)]
    y, head_caches = net.head.forward(np.concatenate([p for p, _ in pools], axis=1),
                                      mode=mode, rng=rng)
    loss, gy = data_loss_and_grad(y, targets, loss_kind)
    total = loss + net.penalty() + net.head.activity_penalty(head_caches)
    if not with_grads:
        return total, None
    gjoined, head_grads = net.head.backward(head_caches, gy)
    grads = {f"head.{name}": g for name, g in head_grads.items()}
    offset = 0
    for i, (conv, x, (pooled, at)) in enumerate(zip(convs, samples, pools)):
        nf, k = conv.filters, conv.kernel_size
        dz = gjoined[:, offset:offset + nf] * activate_grad(conv.activation, pooled)
        offset += nf
        positions, slot = np.unique(at.reshape(-1), return_inverse=True)
        dz_at = np.bincount(slot * nf + np.arange(at.size) % nf, dz.reshape(-1),
                            len(positions) * nf).reshape(-1, nf)
        cols = kernel_windows(x, k)[positions]  # the im2col rows at those positions
        grads[f"branch{i}.0.W"] = (cols.T @ dz_at).reshape(conv.W.shape)
        grads[f"branch{i}.0.b"] = dz.sum(axis=0)
    return total, grads


def train_model(artifact: ModelArtifact, data, config: TrainConfig):
    """Train in place; returns (artifact, log).

    Data forms by family: mlp takes (rows, labels); autoencoder takes
    rows (it targets its own input); conv_multibranch takes a list of
    labeled traces; the recurrent families take a SequenceBatch
    (training_data builds each from traces). Epoch order is
    seed-shuffled; with a validation fraction the best-validation
    parameters are restored at the end.
    """
    batches = _family(artifact.family).batches(artifact, data, config)
    return _fit(artifact, batches, config)


# --- prediction ---------------------------------------------------------------


def _sliding_max(values: np.ndarray, width: int, starts: np.ndarray | None = None):
    """[P, C] -> [P-width+1, C]: the max over each length-*width* run of rows.
    With *starts* [B], only the runs that start at those rows, [B, C], and
    the row each max is at, [B, C], the first one on a tie."""
    if starts is None and values.shape[0] == width:
        # One window (a live stream's step).
        return values.max(axis=0, keepdims=True)
    sw = np.lib.stride_tricks.sliding_window_view(values, width, axis=0)
    if starts is None:
        return sw.max(axis=-1)
    sw = sw[starts]  # [B, C, width]
    at = sw.argmax(axis=-1)
    return np.take_along_axis(sw, at[..., None], axis=-1)[..., 0], starts[:, None] + at


class _Tail:
    """The newest rows of a series, in a buffer with room to append to.
    extend(block, keep) appends a block, gives it with the rows kept before
    it, then keeps the last *keep* rows. Rows are only ever written past the
    ones it gave, so those views stay valid."""

    def __init__(self, rows: np.ndarray):
        self.buf, self.start, self.end = rows, 0, len(rows)

    def extend(self, block: np.ndarray, keep: int) -> np.ndarray:
        start, end = self.start, self.end + len(block)
        if end > len(self.buf):  # full: move the kept rows to a new buffer, with room
            kept = self.buf[start:self.end]
            self.buf = np.empty((len(kept) + len(block) + 16, block.shape[1]))
            self.buf[:len(kept)] = kept
            start, end = 0, len(kept) + len(block)
        self.buf[end - len(block):end] = block
        self.start, self.end = max(start, end - keep), end
        return self.buf[start:end]


class _Branch:
    """One conv branch of a _ConvEngine: its last kernel - 1 inputs, its
    last win - kernel conv activations and its newest pooled vectors. It
    starts as if front-padded with win - 1 copies of its first row, which is
    also its first sample (the padding _ConvEngine.trace_views writes out),
    so every padded activation is the first step's first one."""

    def __init__(self, conv: Conv1D, win: int, first: np.ndarray):
        self.conv, self.keep, self.width = conv, conv.kernel_size - 1, win - conv.kernel_size + 1
        self.inputs = _Tail(np.repeat(first, self.keep, axis=0))
        self.acts = None

    def step(self, view: np.ndarray, seen: int, factor: int) -> np.ndarray:
        """The pooled vector each row of the block *view* (rows seen.. of the
        series) sees: that of the newest sample i <= row with i % factor == 0."""
        if factor == 1:
            return self._convolve(view)
        skip = -seen % factor  # rows of the block before its first sample
        if skip >= len(view):  # no sample: every row sees the newest pooled vector
            newest = self.pooled[-1:]
            return newest if len(view) == 1 else newest.repeat(len(view), axis=0)
        last = self.pooled[-1:] if skip else None
        pooled = self._convolve(view[skip::factor])
        if skip:
            pooled = np.concatenate((last, pooled))
        return pooled[(np.arange(len(view)) - skip) // factor + (skip > 0)]

    def _convolve(self, samples: np.ndarray) -> np.ndarray:
        """Each new sample's pooled vector: one Conv1D.forward over the kept
        inputs plus the samples, then a sliding max over the activations."""
        acts, _ = self.conv.forward(self.inputs.extend(samples, self.keep), mode="infer")
        if self.acts is None:
            self.acts = _Tail(np.repeat(acts[:1], self.width - 1, axis=0))
        self.pooled = _sliding_max(self.acts.extend(acts, self.width - 1), self.width)
        return self.pooled


class _ConvEngine:
    """The conv family's one inference engine, for a whole trace and a live
    stream alike: step_block(rows) takes the next n normalized rows of a
    series and gives their n probabilities. Full-rate branches sample every
    row, a decimated one row i when i % factor == 0 (see _Branch); the
    smoothed views are rolling means over the kept last w_long - 1 rows plus
    the block. Any split of a series into blocks gives the same
    probabilities as one block, up to float rounding, from bounded state.

    Called as a row stream's block step (_Family.step), it scores row 1 on
    at the gap between the stream's first two timestamps, the period
    parse_trace_csv gives a file (row 0 scores the same at any period);
    bare rows keep *period*.
    """

    def __init__(self, artifact: ModelArtifact, period: float = DEFAULT_SAMPLE_PERIOD_S):
        net: MultiBranch = artifact.network
        w = artifact.window
        self.convs = [b.layers[0] for b in net.branches]
        self.wins = (w.raw_window,) * 3 + (w.down_window,) * 2
        self.head = net.head
        self._set_period(period)
        self.seen = 0

    def _set_period(self, period: float) -> None:
        self.w_short, self.w_long, f_mid, f_long = featurize.branch_geometry(period)
        self.factors = (1, 1, 1, f_mid, f_long)

    def __call__(self, x: np.ndarray, times) -> list[float]:
        if not self.seen:
            self.t0 = None if times is None else times[0]
        if self.seen < 2 <= self.seen + len(x) and times is not None and self.t0 is not None:
            t = times[1 - self.seen]
            period = float(t) - float(self.t0)
            if period <= 0:
                raise NonMonotonicTimeError(f"time does not increase at row 1 ({self.t0} -> {t})")
            self._set_period(period)
        return self.step_block(x).tolist()

    def step_block(self, rows: np.ndarray) -> np.ndarray:
        if not len(rows):
            return np.zeros(0)
        if not self.seen:
            self.recent = _Tail(rows[:0])
            self.branches = [_Branch(conv, win, rows[:1]) for conv, win in zip(self.convs, self.wins)]
        history = self.recent.extend(rows, self.w_long - 1)
        views = self._views(history, len(history) - len(rows))
        joined = np.concatenate([branch.step(view, self.seen, factor) for branch, view, factor
                                 in zip(self.branches, views, self.factors)], axis=1)
        self.seen += len(rows)
        return self.head.forward(joined, mode="infer")[0].reshape(-1)

    def _views(self, rows: np.ndarray, start: int = 0) -> tuple[np.ndarray, ...]:
        """The five branch views of rows[start:]: the rows, their two causal
        rolling means (the rows before *start* feed only the means), and the
        rows again for the decimated branches to sample."""
        block = rows[start:]
        return (block, *featurize.rolling_means(rows, (self.w_short, self.w_long), start),
                block, block)

    def trace_views(self, rows: np.ndarray) -> list[np.ndarray]:
        """Each branch's samples of a whole trace, as a fresh engine's
        step_block(rows) convolves them: the branch's view, decimated
        causally (view[::factor]), after win - 1 copies of its first sample."""
        return [np.concatenate((np.repeat(view[:1], win - 1, axis=0), view[::factor]))
                for view, factor, win in zip(self._views(rows), self.factors, self.wins)]


def predict_rows(artifact: ModelArtifact, trace: Trace) -> np.ndarray:
    """Per-row malicious probability of a row family, causal in the row
    index: a fresh RowStreamPredictor stepped by the whole trace."""
    if stream_unit(artifact.family) != "row":
        raise BadShapeError(f"{artifact.family} does not score single rows")
    return np.array(RowStreamPredictor(artifact).push_block(trace.features, trace.times))


def predict_sequences(artifact: ModelArtifact, batch: SequenceBatch) -> np.ndarray:
    """One malicious probability per fixed-length sequence."""
    if stream_unit(artifact.family) != "sequence":
        raise BadShapeError(f"{artifact.family} is not a sequence model")
    if artifact.sequence_length is not None and batch.length != artifact.sequence_length:
        raise WrongSequenceLengthError(
            f"model trained on length {artifact.sequence_length}, got {batch.length}"
        )
    if batch.num_sequences == 0:
        return np.zeros(0)
    return _forward(artifact, _model_rows(artifact, batch.sequences))


def _forward(artifact: ModelArtifact, x: np.ndarray) -> np.ndarray:
    """The network's probabilities of model rows [n, F] or chunks [n, L, F]."""
    probs, _ = artifact.network.forward(x, mode="infer")
    return probs.reshape(-1)


def encode_rows(encoder: ModelArtifact, rows: np.ndarray) -> np.ndarray:
    """Map raw rows to bottleneck codes (normalize, then encoder layer)."""
    if encoder.family != "autoencoder":
        raise BadShapeError(f"{encoder.family} is not an autoencoder")
    rows = np.asarray(rows, dtype=np.float64)
    if rows.shape[-1] != encoder.input_dim:
        raise ShapeMismatchError(
            f"encoder expects {encoder.input_dim} features, got {rows.shape[-1]}"
        )
    if encoder.norm is not None:
        rows = zscore_apply(encoder.norm, rows)
    codes, _ = encoder.network.layers[0].forward(rows, mode="infer")
    return codes


# --- the stream predictor ---------------------------------------------------------


class RowStreamPredictor:
    """Incremental probabilities for a row stream: the one scorer of every
    family that can stream, stepped by a whole trace (predict_rows,
    evaluate_model) or by a live stream's blocks (detect).

    push_block normalizes the next block of rows and hands it to the
    family's block step (_Family.step); push is its one-row case. A row
    family scores every row; a sequence family scores each row that closes
    a chunk of sequence_length rows, counted from row 0, and gives None to
    the others; unit_rows is the rows one probability covers, which the
    detector's run counts. Property tests pin that any cut of a stream into
    blocks gives the same probabilities, up to float rounding, from bounded
    state.
    """

    def __init__(self, artifact: ModelArtifact):
        family = _family(artifact.family)
        if family.step is None:
            raise BadShapeError(f"{artifact.family} cannot stream rows")
        self.artifact = artifact
        self._step = family.step(artifact)
        self.unit_rows = artifact.sequence_length if family.unit == "sequence" else 1

    def push(self, row) -> float | None:
        """The next row's probability; *row* is a SampleRow or a bare [F] array."""
        features = row.features if hasattr(row, "features") else row
        t = getattr(row, "t", None)
        return self.push_block(np.asarray(features, dtype=np.float64)[None, :],
                               None if t is None else (t,))[0]

    def push_block(self, features: np.ndarray, times=None) -> list[float | None]:
        """The probabilities of the next n rows, *features* [n, F] (n >= 1)
        with their timestamps *times* [n], or None for bare rows."""
        return self._step(_model_rows(self.artifact, features), times)


def _dense_step(artifact: ModelArtifact):
    """mlp: each row scored alone, one forward per block."""
    return lambda x, times: _forward(artifact, x).tolist()


class _ChunkStep:
    """The recurrent families: the stream's rows buffered into chunks of
    sequence_length rows. A chunk's probability falls on the row that
    closes it and every other row gets None; one forward scores every
    chunk a block closes."""

    def __init__(self, artifact: ModelArtifact):
        if artifact.sequence_length is None:
            raise BadShapeError("sequence model has no configured length (untrained?)")
        self.artifact = artifact
        self._parts: list[np.ndarray] = []  # the rows of the unfinished chunk
        self._buffered = 0

    def __call__(self, x: np.ndarray, times) -> list[float | None]:
        L, k, n = self.artifact.sequence_length, self._buffered, len(x)
        done = (k + n) // L
        probs = [None] * n
        if done:
            rows = np.concatenate(self._parts + [x[:done * L - k]])
            probs[L - 1 - k::L] = _forward(self.artifact, rows.reshape(done, L, -1)).tolist()
            self._parts, self._buffered, x = [], 0, x[done * L - k:]
        if len(x):
            self._parts.append(np.array(x, dtype=np.float64))
            self._buffered += len(x)
        return probs


# --- the family table -------------------------------------------------------------


@dataclass(frozen=True)
class _Family:
    """What differs between model families; the rest of the module is shared."""

    network: Callable       # (F, hyper, rng) -> network with weights drawn from rng
    param_count: Callable   # (F, hyper) -> closed-form parameter count
    batches: Callable       # (artifact, train_model data, config) -> _Batches
    train_data: Callable    # (traces, sequence length) -> train_model data
    unit: str | None        # a stream's unit: "row", "sequence" (sequence_length rows)
                            # or None for a family that cannot stream rows
    step: Callable | None   # (artifact) -> block step: (model rows [n, F], times or
                            # None) -> n probabilities, None on a row closing no unit


def _stacked_rows(traces: list[Trace], sequence_length=None) -> np.ndarray:
    return np.vstack([t.features for t in traces])


_RNN = _Family(_rnn_network, _rnn_param_count, _sequence_batches, chunk_sequences,
               "sequence", _ChunkStep)

_FAMILY_TABLE = {
    "mlp": _Family(
        _mlp_network, _mlp_param_count,
        lambda artifact, data, config: _row_batches(artifact, *data, config, "bce"),
        lambda traces, L: (_stacked_rows(traces), np.concatenate([t.labels for t in traces])),
        "row", _dense_step),
    "conv_multibranch": _Family(
        _conv_network, _conv_param_count, _conv_batches, lambda traces, L: traces,
        "row", _ConvEngine),
    "autoencoder": _Family(
        _autoencoder_network, _autoencoder_param_count,
        lambda artifact, rows, config: _row_batches(artifact, rows, None, config, "mse"),
        _stacked_rows, None, None),
    **dict.fromkeys(RNN_VARIANTS, _RNN),
}

FAMILIES = tuple(_FAMILY_TABLE)
ROW_FAMILIES = tuple(f for f in FAMILIES if _FAMILY_TABLE[f].unit == "row")
RNN_FAMILIES = tuple(f for f in FAMILIES if _FAMILY_TABLE[f].unit == "sequence")


def _family(name: str) -> _Family:
    if name not in _FAMILY_TABLE:
        raise BadShapeError(f"unknown family {name!r}")
    return _FAMILY_TABLE[name]


def training_data(family: str, traces: list[Trace], sequence_length: int | None = None):
    """The train_model data of *family* built from labeled traces; the
    recurrent families chunk them into *sequence_length* rows."""
    return _family(family).train_data(traces, sequence_length)


def stream_unit(family: str) -> str | None:
    """What a stream of *family*'s rows scores: "row", "sequence", or None
    for a family that cannot stream rows."""
    return _family(family).unit


# --- persistence ----------------------------------------------------------------
#
# A version-2 artifact is, in order: ARTIFACT_MAGIC; the header length as a
# little-endian uint64; the sha256 digest of every other byte of the file
# (the length field included, so no edit of it can hide in the header's
# padding); the header, sorted-key JSON padded with spaces to a multiple of
# 8 bytes; and one buffer of little-endian float64 parameters. The header
# gives each parameter's shape and its byte offset into the buffer; an
# embedded encoder has its own nested header pointing into the same buffer.
# Version-1 artifacts, one JSON document with base64 parameters, still load.


def _norm_to_doc(norm: NormStats | None):
    if norm is None:
        return None
    return {"mean": norm.mean.tolist(), "std": norm.std.tolist()}


def _norm_from_doc(doc) -> NormStats | None:
    if doc is None:
        return None
    return NormStats(mean=np.asarray(doc["mean"], dtype=np.float64),
                     std=np.asarray(doc["std"], dtype=np.float64))


def _artifact_to_header(artifact: ModelArtifact, arrays: list[np.ndarray]) -> dict:
    """The artifact's header. Its parameters join *arrays* as contiguous
    little-endian float64, at the buffer offsets the header records."""
    offset = sum(a.nbytes for a in arrays)
    params = {}
    for name, p in artifact.network.params().items():
        arr = np.ascontiguousarray(p, dtype="<f8")
        params[name] = {"shape": list(p.shape), "offset": offset}
        arrays.append(arr)
        offset += arr.nbytes
    return {
        "family": artifact.family,
        "input_dim": artifact.input_dim,
        "hyper": artifact.hyper,
        "window": None if artifact.window is None else asdict(artifact.window),
        "sequence_length": artifact.sequence_length,
        "norm": _norm_to_doc(artifact.norm),
        "seed": artifact.seed,
        "epochs_trained": artifact.epochs_trained,
        "encoder": (None if artifact.encoder is None
                    else _artifact_to_header(artifact.encoder, arrays)),
        "params": params,
    }


class _Unset:
    """Takes the weight-init generator's place when a network is built only
    to receive stored parameters: every draw is an uninitialised array."""

    @staticmethod
    def uniform(low, high, size):
        return np.empty(size)


def _artifact_from_header(header: dict, values: Callable) -> ModelArtifact:
    """The artifact *header* describes; values(entry, size) gives the
    stored float64 values of one parameter's header entry, flat."""
    family = header["family"]
    if family not in FAMILIES:
        raise CorruptArtifactError(f"unknown family {family!r}")
    F, hyper, encoder = header["input_dim"], header["hyper"], header["encoder"]
    artifact = ModelArtifact(
        family=family, input_dim=F, hyper=hyper,
        network=_FAMILY_TABLE[family].network(F, hyper, _Unset()),
        norm=_norm_from_doc(header["norm"]),
        window=None if header["window"] is None else WindowConfig(**header["window"]),
        sequence_length=header["sequence_length"],
        encoder=None if encoder is None else _artifact_from_header(encoder, values),
        seed=header["seed"],
        epochs_trained=header["epochs_trained"],
    )
    params = artifact.network.params()
    stored = header["params"]
    if set(stored) != set(params):
        raise CorruptArtifactError("parameter names do not match the architecture")
    for name, p in params.items():
        entry = stored[name]
        arr = values(entry, p.size)
        if list(p.shape) != entry["shape"] or arr.size != p.size:
            raise CorruptArtifactError(f"parameter {name!r} has the wrong shape")
        p[...] = arr.reshape(p.shape)
    return artifact


def save_model(artifact: ModelArtifact, path: str | Path) -> None:
    """Write the version-2 artifact container (byte-stable; layout above)."""
    arrays: list[np.ndarray] = []
    header = _artifact_to_header(artifact, arrays)
    header["format"] = ARTIFACT_FORMAT
    header["version"] = ARTIFACT_VERSION
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    text += b" " * (-len(text) % 8)
    preamble = ARTIFACT_MAGIC + _LENGTH.pack(len(text))
    digest = hashlib.sha256(preamble)
    for chunk in (text, *arrays):
        digest.update(chunk)
    with open(path, "wb") as fh:
        for chunk in (preamble, digest.digest(), text, *arrays):
            fh.write(chunk)


def _check_header(header, path, version: int) -> None:
    if not isinstance(header, dict) or header.get("format") != ARTIFACT_FORMAT:
        raise CorruptArtifactError(f"{path}: not a sidewatch model artifact")
    if header.get("version") != version:
        raise VersionMismatchError(
            f"{path}: artifact version {header.get('version')} != {version}"
        )


def _read_v2(data: bytes, path):
    """The header of a version-2 artifact and its parameter reader."""
    if not data.startswith(ARTIFACT_MAGIC):
        raise CorruptArtifactError(f"{path}: not a sidewatch model artifact")
    if len(data) < _HEADER_START:
        raise CorruptArtifactError(f"{path}: truncated artifact")
    (length,) = _LENGTH.unpack_from(data, len(ARTIFACT_MAGIC))
    end = _HEADER_START + length
    if end > len(data):
        raise CorruptArtifactError(f"{path}: header length {length} runs past the end of the file")
    try:
        header = json.loads(data[_HEADER_START:end].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or nested too deep
        raise CorruptArtifactError(f"{path}: not a valid artifact file ({exc})") from None
    _check_header(header, path, ARTIFACT_VERSION)
    view = memoryview(data)
    digest = hashlib.sha256(view[:_DIGEST_START])
    digest.update(view[_HEADER_START:])
    if digest.digest() != view[_DIGEST_START:_HEADER_START]:
        raise CorruptArtifactError(f"{path}: checksum mismatch (truncated or edited?)")
    buffer = view[end:]

    def values(entry, size):
        offset = entry["offset"]
        if (type(offset) is not int or offset < 0 or offset % 8
                or offset + 8 * size > len(buffer)):
            raise CorruptArtifactError(
                f"{path}: parameter offset {offset!r} is outside the buffer")
        return np.frombuffer(buffer, dtype="<f8", count=size, offset=offset)

    return header, values


_CHECKSUM_HEAD = b'{"checksum":"'


def _checksum_matches(data: bytes) -> bool:
    """Whether *data*, a whole version-1 artifact file, carries the checksum
    of its bytes.

    The version-1 save_model sorted keys, so the checksum is the first
    member, and the document it hashed is the file without
    ``"checksum":"<hex>",`` and without the line end. Those bytes are
    hashed in place.
    """
    hex_end = len(_CHECKSUM_HEAD) + 64
    if not data.startswith(_CHECKSUM_HEAD) or data[hex_end:hex_end + 2] != b'",':
        return False
    body = memoryview(data)[hex_end + 2:]
    while body and body[-1] in b"\r\n":
        body = body[:-1]
    digest = hashlib.sha256(b"{")
    digest.update(body)
    return digest.hexdigest().encode() == data[len(_CHECKSUM_HEAD):hex_end]


def _read_v1(data: bytes, path):
    """The document of a version-1 (JSON) artifact and its parameter reader."""
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or nested too deep
        raise CorruptArtifactError(f"{path}: not a valid artifact file ({exc})") from None
    _check_header(doc, path, 1)
    if not _checksum_matches(data):
        raise CorruptArtifactError(f"{path}: checksum mismatch (truncated or edited?)")
    return doc, lambda entry, size: np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")


def load_model(path: str | Path) -> ModelArtifact:
    """Read an artifact: version 2, or version 1, which is JSON text and
    so starts with "{" (the content tells them apart, not the name)."""
    with open(path, "rb") as fh:
        data = fh.read()
    header, values = (_read_v1 if data.startswith(b"{") else _read_v2)(data, path)
    try:
        return _artifact_from_header(header, values)
    except KeyError as exc:
        raise CorruptArtifactError(f"{path}: missing field {exc}") from None
