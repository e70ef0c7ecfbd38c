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

Per-row conv prediction slides the causal lookback windows over the
branch views. The implementation computes each branch's convolution once
over a front-padded series and takes sliding-window maxima, which is
exactly equivalent to convolving each materialized window (verified in
the test suite against the per-window path).
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

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
    BranchSet,
    NormStats,
    SequenceBatch,
    make_branch_set,
    make_row_windows,
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
from .nn.layers import activate
from .nn.recurrent import make_cell
from .telemetry import DEFAULT_SAMPLE_PERIOD_S, Trace

ROW_FAMILIES = ("mlp", "conv_multibranch")
RNN_FAMILIES = ("rnn_vanilla", "rnn_lstm", "rnn_lstm_bi", "rnn_gru", "rnn_gru_bi")
FAMILIES = ROW_FAMILIES + ("autoencoder",) + RNN_FAMILIES

RNN_HIDDEN = (16, 32, 32, 16)

ARTIFACT_FORMAT = "sidewatch-model"
ARTIFACT_VERSION = 1


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
    from .nn.recurrent import GRU, LSTM, VanillaRNN

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
        inner = _describe_layer(layer.fwd)
        return {"kind": "bidirectional_wrapper", "wraps": inner["kind"],
                "units": layer.units, "return_sequences": layer.return_sequences}
    for cls, kind in ((VanillaRNN, "recurrent_vanilla"), (LSTM, "recurrent_lstm"),
                      (GRU, "recurrent_gru")):
        if isinstance(layer, cls):
            return {"kind": kind, "units": layer.units,
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


def _mlp_network(F: int, hidden: tuple[int, ...], seed: int) -> Sequential:
    rng = np.random.default_rng(seed)
    layers = []
    prev = F
    for h in hidden:
        layers.append(Dense(prev, h, "tanh", rng=rng))
        prev = h
    layers.append(Dense(prev, 1, "sigmoid", rng=rng))
    return Sequential(layers)


def build_mlp(F: int, hidden: tuple[int, ...] = (100,), seed: int = 0) -> ModelArtifact:
    """Dense tanh stack with a 1-unit sigmoid head.

    Parameter count: sum over layers of in*out + out, e.g. F=132 with the
    default (100,) gives 132*100+100 + 100*1+1 = 13401.
    """
    if F < 1 or any(h < 1 for h in hidden):
        raise BadShapeError(f"bad mlp dims F={F} hidden={hidden}")
    return ModelArtifact(
        family="mlp",
        input_dim=F,
        hyper={"hidden": list(hidden)},
        network=_mlp_network(F, tuple(hidden), seed),
        seed=seed,
    )


def _conv_network(F: int, hyper: dict, seed: int) -> MultiBranch:
    rng = np.random.default_rng(seed)
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
    return ModelArtifact(
        family="conv_multibranch",
        input_dim=F,
        hyper=hyper,
        network=_conv_network(F, hyper, seed),
        window=window,
        seed=seed,
    )


def _autoencoder_network(F: int, d: int, seed: int) -> Sequential:
    rng = np.random.default_rng(seed)
    return Sequential([
        Dense(F, d, "tanh", rng=rng),
        Dense(d, F, "linear", rng=rng),
    ])


def build_autoencoder(F: int, d: int, seed: int = 0) -> ModelArtifact:
    """Dense tanh encoder to d dimensions plus a linear decoder."""
    if not 1 <= d < F:
        raise BadShapeError(f"bottleneck must satisfy 1 <= d < F, got d={d}, F={F}")
    return ModelArtifact(
        family="autoencoder",
        input_dim=F,
        hyper={"bottleneck": d},
        network=_autoencoder_network(F, d, seed),
        seed=seed,
    )


def _rnn_family(cell: str, bidirectional: bool) -> str:
    if cell == "vanilla":
        if bidirectional:
            raise BadShapeError("bidirectional vanilla RNN is not one of the five variants")
        return "rnn_vanilla"
    if cell in ("lstm", "gru"):
        return f"rnn_{cell}_bi" if bidirectional else f"rnn_{cell}"
    raise BadShapeError(f"unknown recurrent cell {cell!r}")


def _rnn_network(F: int, hyper: dict, seed: int) -> Sequential:
    rng = np.random.default_rng(seed)
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
    family = _rnn_family(cell, bidirectional)
    hyper = {"cell": cell, "bidirectional": bidirectional, "hidden": list(hidden)}
    return ModelArtifact(
        family=family,
        input_dim=F,
        hyper=hyper,
        network=_rnn_network(F, hyper, seed),
        seed=seed,
    )


def _build_network(family: str, F: int, hyper: dict, seed: int):
    if family == "mlp":
        return _mlp_network(F, tuple(hyper["hidden"]), seed)
    if family == "conv_multibranch":
        return _conv_network(F, hyper, seed)
    if family == "autoencoder":
        return _autoencoder_network(F, hyper["bottleneck"], seed)
    if family in RNN_FAMILIES:
        return _rnn_network(F, hyper, seed)
    raise BadShapeError(f"unknown family {family!r}")


def expected_param_count(family: str, F: int, hyper: dict) -> int:
    """Closed-form parameter count (documents what param_count reports)."""
    if family == "mlp":
        total, prev = 0, F
        for h in list(hyper["hidden"]) + [1]:
            total += prev * h + h
            prev = h
        return total
    if family == "conv_multibranch":
        k, nf, du = hyper["kernel"], hyper["filters"], hyper["dense_units"]
        per_branch = k * F * nf + nf
        head = 5 * nf * du + du + du * 1 + 1
        return 5 * per_branch + head
    if family == "autoencoder":
        d = hyper["bottleneck"]
        return F * d + d + d * F + F
    if family in RNN_FAMILIES:
        mult = {"vanilla": 1, "lstm": 4, "gru": 3}[hyper["cell"]]
        directions = 2 if hyper["bidirectional"] else 1
        total, prev = 0, F
        for h in hyper["hidden"]:
            total += directions * mult * (prev * h + h * h + h)
            prev = directions * h
        return total + prev + 1
    raise BadShapeError(f"unknown family {family!r}")


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


def _snapshot(params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {k: v.copy() for k, v in params.items()}


def _restore(params: dict[str, np.ndarray], saved: dict[str, np.ndarray]) -> None:
    for k, v in params.items():
        v[...] = saved[k]


class _EpochDriver:
    """Shared epoch loop: plateau schedule, early stop, best-param restore."""

    def __init__(self, net, config: TrainConfig, monitor_val: bool):
        self.net = net
        self.config = config
        self.optimizer = make_optimizer(config.optimizer)
        self.scheduler = PlateauScheduler(self.optimizer, config.optimizer)
        self.monitor_val = monitor_val
        self.log: list[TrainLogEntry] = []
        self.best = math.inf
        self.best_params: dict[str, np.ndarray] | None = None
        self.stalled = 0
        self.stop = False

    def end_epoch(self, epoch: int, train_loss: float, val_loss: float | None) -> None:
        if not math.isfinite(train_loss):
            raise ArithmeticError(f"non-finite training loss at epoch {epoch}")
        monitored = val_loss if (self.monitor_val and val_loss is not None) else train_loss
        self.scheduler.observe(monitored)
        self.log.append(TrainLogEntry(epoch, train_loss, val_loss, self.optimizer.lr))
        if monitored < self.best - self.config.early_stop_tol:
            self.best = monitored
            self.stalled = 0
            if self.monitor_val:
                self.best_params = _snapshot(self.net.params())
        else:
            self.stalled += 1
            patience = self.config.early_stop_patience
            if patience is not None and self.stalled >= patience:
                self.stop = True

    def finish(self) -> None:
        if self.monitor_val and self.best_params is not None:
            _restore(self.net.params(), self.best_params)


def _fit_norm_if_missing(artifact: ModelArtifact, rows: np.ndarray) -> None:
    if artifact.norm is None:
        artifact.norm = zscore_fit(rows)


def _model_rows(artifact: ModelArtifact, rows: np.ndarray) -> np.ndarray:
    """Rows as the model sees them: encoded first (if any), then z-scored."""
    if artifact.encoder is not None:
        rows = encode_rows(artifact.encoder, rows)
    if artifact.norm is not None:
        rows = zscore_apply(artifact.norm, rows)
    return rows


def _train_rows(artifact: ModelArtifact, X, y, config: TrainConfig, loss_kind: str):
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise NoDataError(f"need a nonempty [N, F] row matrix, got shape {X.shape}")
    if artifact.encoder is not None:
        X = encode_rows(artifact.encoder, X)
    if X.shape[1] != artifact.input_dim:
        raise ShapeMismatchError(f"model expects {artifact.input_dim} features, got {X.shape[1]}")
    _fit_norm_if_missing(artifact, X)
    X = zscore_apply(artifact.norm, X)
    targets = X if y is None else np.asarray(y, dtype=np.float64)

    rng = np.random.default_rng(config.seed)
    N = X.shape[0]
    perm = rng.permutation(N)
    n_val = int(N * config.validation_fraction)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        raise NoDataError("validation fraction leaves no training rows")

    driver = _EpochDriver(artifact.network, config, monitor_val=n_val > 0)
    net = artifact.network
    for epoch in range(1, config.max_epochs + 1):
        order = train_idx[rng.permutation(train_idx.size)]
        losses = []
        for lo in range(0, order.size, config.batch_size):
            batch = order[lo : lo + config.batch_size]
            tb = targets[batch] if y is not None else X[batch]
            loss, grads = evaluate_loss(net, X[batch], tb, loss_kind, mode="train", rng=rng)
            driver.optimizer.step(net.params(), grads)
            losses.append(loss)
        val_loss = None
        if n_val:
            tv = targets[val_idx] if y is not None else X[val_idx]
            val_loss, _ = evaluate_loss(net, X[val_idx], tv, loss_kind, mode="infer",
                                        with_grads=False)
        driver.end_epoch(epoch, float(np.mean(losses)), val_loss)
        if driver.stop:
            break
    driver.finish()
    artifact.epochs_trained = driver.log[-1].epoch
    return artifact, driver.log


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


def _window_batch(branches: BranchSet, rows: np.ndarray, window: WindowConfig) -> list[np.ndarray]:
    wins = [make_row_windows(branches, int(i), window.raw_window, window.down_window)
            for i in rows]
    return [np.stack([w[s] for w in wins]) for s in range(5)]


def _train_conv(artifact: ModelArtifact, traces: list[Trace], config: TrainConfig):
    if not traces:
        raise NoDataError("no training traces")
    all_rows = np.vstack([t.features for t in traces])
    if artifact.encoder is not None:
        all_rows = encode_rows(artifact.encoder, all_rows)
    if all_rows.shape[1] != artifact.input_dim:
        raise ShapeMismatchError(
            f"model expects {artifact.input_dim} features, got {all_rows.shape[1]}"
        )
    _fit_norm_if_missing(artifact, all_rows)

    prepared = []
    for t in traces:
        rows = _model_rows(artifact, t.features)
        prepared.append((make_branch_set(rows, t.meta.sample_period_s), t.labels))

    rng = np.random.default_rng(config.seed)
    n = len(prepared)
    perm = rng.permutation(n)
    n_val = int(n * config.validation_fraction)
    val_i, train_i = perm[:n_val], perm[n_val:]
    if train_i.size == 0:
        raise NoDataError("validation fraction leaves no training traces")

    # Fixed validation windows so the monitored loss is comparable across epochs.
    val_sets = []
    val_rng = np.random.default_rng(config.seed + 1)
    for ti in val_i:
        branches, labels = prepared[ti]
        rows = _sample_training_rows(labels, config.rows_per_trace, val_rng)
        val_sets.append((_window_batch(branches, rows, artifact.window), labels[rows]))

    driver = _EpochDriver(artifact.network, config, monitor_val=n_val > 0)
    net = artifact.network
    for epoch in range(1, config.max_epochs + 1):
        order = train_i[rng.permutation(train_i.size)]
        losses = []
        for ti in order:
            branches, labels = prepared[ti]
            rows = _sample_training_rows(labels, config.rows_per_trace, rng)
            xs = _window_batch(branches, rows, artifact.window)
            loss, grads = evaluate_loss(net, xs, labels[rows].astype(np.float64),
                                        "bce", mode="train", rng=rng)
            driver.optimizer.step(net.params(), grads)
            losses.append(loss)
        val_loss = None
        if val_sets:
            vals = [evaluate_loss(net, xs, yb.astype(np.float64), "bce", mode="infer",
                                  with_grads=False)[0] for xs, yb in val_sets]
            val_loss = float(np.mean(vals))
        driver.end_epoch(epoch, float(np.mean(losses)), val_loss)
        if driver.stop:
            break
    driver.finish()
    artifact.epochs_trained = driver.log[-1].epoch
    return artifact, driver.log


def _train_rnn(artifact: ModelArtifact, batch: SequenceBatch, config: TrainConfig):
    if batch.num_sequences == 0:
        raise NoDataError("no training sequences")
    N, L, F = batch.sequences.shape
    flat = batch.sequences.reshape(N * L, F)
    if artifact.encoder is not None:
        raise ShapeMismatchError("recurrent models do not take an encoder front-end")
    if F != artifact.input_dim:
        raise ShapeMismatchError(f"model expects {artifact.input_dim} features, got {F}")
    _fit_norm_if_missing(artifact, flat)
    X = zscore_apply(artifact.norm, batch.sequences)
    y = batch.labels.astype(np.float64)
    artifact.sequence_length = L

    rng = np.random.default_rng(config.seed)
    perm = rng.permutation(N)
    n_val = int(N * config.validation_fraction)
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    if train_idx.size == 0:
        raise NoDataError("validation fraction leaves no training sequences")

    driver = _EpochDriver(artifact.network, config, monitor_val=n_val > 0)
    net = artifact.network
    for epoch in range(1, config.max_epochs + 1):
        order = train_idx[rng.permutation(train_idx.size)]
        losses = []
        for lo in range(0, order.size, config.batch_size):
            sel = order[lo : lo + config.batch_size]
            loss, grads = evaluate_loss(net, X[sel], y[sel], "bce", mode="train", rng=rng)
            driver.optimizer.step(net.params(), grads)
            losses.append(loss)
        val_loss = None
        if n_val:
            val_loss, _ = evaluate_loss(net, X[val_idx], y[val_idx], "bce", mode="infer",
                                        with_grads=False)
        driver.end_epoch(epoch, float(np.mean(losses)), val_loss)
        if driver.stop:
            break
    driver.finish()
    artifact.epochs_trained = driver.log[-1].epoch
    return artifact, driver.log


def train_model(artifact: ModelArtifact, data, config: TrainConfig):
    """Train in place; returns (artifact, log).

    Data forms by family: mlp takes (rows, labels); autoencoder takes
    rows (it targets its own input); conv_multibranch takes a list of
    labeled traces; the recurrent families take a SequenceBatch. Epoch
    order is seed-shuffled; with a validation fraction the best-validation
    parameters are restored at the end.
    """
    family = artifact.family
    if family == "mlp":
        X, y = data
        return _train_rows(artifact, X, y, config, "bce")
    if family == "autoencoder":
        return _train_rows(artifact, data, None, config, "mse")
    if family == "conv_multibranch":
        return _train_conv(artifact, data, config)
    if family in RNN_FAMILIES:
        return _train_rnn(artifact, data, config)
    raise BadShapeError(f"unknown family {family!r}")


# --- prediction ---------------------------------------------------------------


def _sliding_max(values: np.ndarray, width: int) -> np.ndarray:
    # [P, C] -> [P-width+1, C]: max over each length-`width` run of rows.
    sw = np.lib.stride_tricks.sliding_window_view(values, width, axis=0)
    return sw.max(axis=-1)


def _conv_branch_pooled(conv: Conv1D, branch: np.ndarray, win: int, T: int,
                        factor: int | None) -> np.ndarray:
    """Pooled conv activations for every row's causal window, in one pass.

    Front-padding the branch with win-1 copies of its first row makes row
    i's window the contiguous slice [i, i+win) of the padded series, so
    one convolution plus a sliding max reproduces the per-window values.
    """
    k = conv.kernel_size
    if branch.shape[0] == 0:
        # Empty decimated branch: windows are all zeros, conv gives the bias.
        pooled_row = activate(conv.activation, conv.b)[None, :]
        return np.repeat(pooled_row, T, axis=0)
    padded = np.concatenate([np.repeat(branch[0:1], win - 1, axis=0), branch], axis=0)
    acts, _ = conv.forward(padded, mode="infer")
    pooled = _sliding_max(acts, win - k + 1)  # one row per branch position
    if factor is None:
        return pooled
    last = np.minimum(np.arange(T) // factor, branch.shape[0] - 1)
    return pooled[last]


def _conv_predict_rows(artifact: ModelArtifact, rows: np.ndarray, period: float) -> np.ndarray:
    branches = make_branch_set(rows, period)
    T = branches.num_rows
    w = artifact.window
    net: MultiBranch = artifact.network
    plan = [
        (branches.raw, w.raw_window, None),
        (branches.smooth_short, w.raw_window, None),
        (branches.smooth_long, w.raw_window, None),
        (branches.down_mid, w.down_window, branches.mid_factor),
        (branches.down_long, w.down_window, branches.long_factor),
    ]
    pooled = [
        _conv_branch_pooled(net.branches[i].layers[0], branch, win, T, factor)
        for i, (branch, win, factor) in enumerate(plan)
    ]
    joined = np.concatenate(pooled, axis=-1)
    probs, _ = net.head.forward(joined, mode="infer")
    return probs.reshape(-1)


def predict_rows(artifact: ModelArtifact, trace: Trace,
                 encoder: ModelArtifact | None = None) -> np.ndarray:
    """Per-row malicious probability, causal in the row index."""
    if artifact.family not in ROW_FAMILIES:
        raise BadShapeError(f"{artifact.family} is not a per-row model")
    rows = trace.features
    enc = encoder or artifact.encoder
    if enc is not None:
        rows = encode_rows(enc, rows)
    if rows.shape[1] != artifact.input_dim:
        raise ShapeMismatchError(
            f"model expects {artifact.input_dim} features, got {rows.shape[1]}"
        )
    if artifact.norm is not None:
        rows = zscore_apply(artifact.norm, rows)
    if artifact.family == "mlp":
        probs, _ = artifact.network.forward(rows, mode="infer")
        return probs.reshape(-1)
    return _conv_predict_rows(artifact, rows, trace.meta.sample_period_s)


def predict_rows_windowed(artifact: ModelArtifact, trace: Trace) -> np.ndarray:
    """Reference per-row path: materialize every causal window set.

    Mathematically identical to predict_rows for the conv family; kept as
    the independent slow route for equivalence testing.
    """
    rows = trace.features
    if artifact.encoder is not None:
        rows = encode_rows(artifact.encoder, rows)
    if artifact.norm is not None:
        rows = zscore_apply(artifact.norm, rows)
    branches = make_branch_set(rows, trace.meta.sample_period_s)
    w = artifact.window
    probs = np.empty(branches.num_rows)
    for i in range(branches.num_rows):
        xs = list(make_row_windows(branches, i, w.raw_window, w.down_window))
        p, _ = artifact.network.forward(xs, mode="infer")
        probs[i] = float(p.reshape(-1)[0])
    return probs


def predict_sequences(artifact: ModelArtifact, batch: SequenceBatch) -> np.ndarray:
    """One malicious probability per fixed-length sequence."""
    if artifact.family not in RNN_FAMILIES:
        raise BadShapeError(f"{artifact.family} is not a sequence model")
    if artifact.sequence_length is not None and batch.length != artifact.sequence_length:
        raise WrongSequenceLengthError(
            f"model trained on length {artifact.sequence_length}, got {batch.length}"
        )
    if batch.num_sequences == 0:
        return np.zeros(0)
    X = batch.sequences
    if X.shape[2] != artifact.input_dim:
        raise ShapeMismatchError(f"model expects {artifact.input_dim} features, got {X.shape[2]}")
    if artifact.norm is not None:
        X = zscore_apply(artifact.norm, X)
    probs, _ = artifact.network.forward(X, mode="infer")
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


def encode_dataset(encoder: ModelArtifact, traces: list[Trace]) -> list[Trace]:
    """Traces with features replaced by their d-dimensional codes."""
    out = []
    d = encoder.hyper["bottleneck"]
    header = [f"enc{i}" for i in range(d)]
    for t in traces:
        codes = encode_rows(encoder, t.features)
        out.append(Trace(meta=t.meta, header=list(header), times=t.times.copy(),
                         features=codes, labels=t.labels.copy()))
    return out


# --- streaming predictors ---------------------------------------------------------


class RowStreamPredictor:
    """Incremental per-row probabilities for a live row stream.

    Every push does a constant amount of work and the predictor holds a
    bounded amount of state, however long the stream runs. For the conv
    family each branch keeps its last ``kernel`` inputs and its last
    ``win - kernel + 1`` conv activations (see _BranchStream): a push
    computes one new conv position per full-rate branch, plus one per
    decimated branch when that branch takes a sample (row i with
    i % factor == 0). The smoothed inputs are means over one ring of the
    latest normalized rows. Every ring starts filled from the first row,
    the front-padding the batch path applies.

    The branch geometry follows the stream's own sample period: the gap
    between the first two rows' timestamps (``row.t``), the rule
    telemetry.parse_trace_csv applies to a batch trace. Rows without a
    timestamp (bare arrays) assume telemetry.DEFAULT_SAMPLE_PERIOD_S.

    Matches the batch predict_rows at any period (a property test pins
    this) except on the final ``T mod factor`` rows of a finished trace,
    where the batch decimated branch (floor-length rule) lacks the
    newest decimated sample the stream already has.
    """

    def __init__(self, artifact: ModelArtifact):
        if artifact.family not in ROW_FAMILIES:
            raise BadShapeError(f"{artifact.family} cannot stream rows")
        self.artifact = artifact
        self.rows_seen = 0

    def push(self, row) -> float:
        features = row.features if hasattr(row, "features") else np.asarray(row)
        x = np.asarray(features, dtype=np.float64)
        if self.artifact.encoder is not None:
            x = encode_rows(self.artifact.encoder, x[None, :])[0]
        if self.artifact.norm is not None:
            x = zscore_apply(self.artifact.norm, x)
        if self.artifact.family == "mlp":
            p, _ = self.artifact.network.forward(x, mode="infer")
            return float(p.reshape(-1)[0])
        return self._push_conv(x, getattr(row, "t", None))

    def _push_conv(self, x: np.ndarray, t: float | None) -> float:
        net: MultiBranch = self.artifact.network
        i = self.rows_seen
        if i == 0:
            # Every branch equals x on the first row: no geometry needed yet.
            w = self.artifact.window
            wins = (w.raw_window,) * 3 + (w.down_window,) * 2
            self._branches = [_BranchStream(b.layers[0], win, x)
                              for b, win in zip(net.branches, wins)]
            self._first = (t, x)
        else:
            if i == 1:
                self._set_geometry(t)
            self._recent.push(x)
            raw, smooth_short, smooth_long, down_mid, down_long = self._branches
            raw.step(x)
            smooth_short.step(self._recent.tail(min(i + 1, self._w_short)).mean(axis=0))
            smooth_long.step(self._recent.tail(min(i + 1, self._w_long)).mean(axis=0))
            if i % self._f_mid == 0:
                down_mid.step(x)
            if i % self._f_long == 0:
                down_long.step(x)
        self.rows_seen = i + 1
        joined = np.concatenate([b.pooled for b in self._branches])
        p, _ = net.head.forward(joined, mode="infer")
        return float(p.reshape(-1)[0])

    def _set_geometry(self, t: float | None) -> None:
        t0, x0 = self._first
        period = DEFAULT_SAMPLE_PERIOD_S
        if t is not None and t0 is not None:
            period = float(t) - float(t0)
            if period <= 0:
                raise NonMonotonicTimeError(f"time does not increase at row 1 ({t0} -> {t})")
        self._w_short, self._w_long, self._f_mid, self._f_long = (
            featurize.branch_geometry(period))
        self._recent = _RowRing(max(self._w_short, self._w_long), x0)


class _RowRing:
    """The last *size* rows of a stream, each stored twice, so that any
    tail of them is one contiguous slice. Starts full of *fill*."""

    def __init__(self, size: int, fill: np.ndarray):
        self.size = size
        self.buf = np.repeat(fill[None, :], 2 * size, axis=0)
        self.next = 0

    def push(self, x: np.ndarray) -> None:
        self.buf[self.next] = x
        self.buf[self.next + self.size] = x
        self.next = (self.next + 1) % self.size

    def tail(self, n: int) -> np.ndarray:
        end = self.next + self.size
        return self.buf[end - n : end]


class _BranchStream:
    """One conv branch of a stream: its last k inputs and the conv
    activations of its last win-k+1 positions, whose column-wise max is
    the branch's pooled output for the current window."""

    def __init__(self, conv: Conv1D, win: int, x0: np.ndarray):
        self.conv = conv
        self.inputs = _RowRing(conv.kernel_size, x0)
        first = self._newest_position()
        self.acts = np.repeat(first[None, :], win - conv.kernel_size + 1, axis=0)
        self.slot = 0
        self.pooled = first

    def _newest_position(self) -> np.ndarray:
        acts, _ = self.conv.forward(self.inputs.tail(self.conv.kernel_size), mode="infer")
        return acts[0]

    def step(self, x: np.ndarray) -> None:
        self.inputs.push(x)
        self.acts[self.slot] = self._newest_position()
        self.slot = (self.slot + 1) % self.acts.shape[0]
        self.pooled = self.acts.max(axis=0)


class SequenceStreamPredictor:
    """Buffers a live row stream into model-length chunks.

    push() returns a probability only when a chunk completes, else None;
    the consecutive-sample counter then counts chunk predictions.
    """

    def __init__(self, artifact: ModelArtifact):
        if artifact.family not in RNN_FAMILIES:
            raise BadShapeError(f"{artifact.family} is not a sequence model")
        if artifact.sequence_length is None:
            raise BadShapeError("sequence model has no configured length (untrained?)")
        self.artifact = artifact
        self.buffer: list[np.ndarray] = []

    def push(self, row) -> float | None:
        features = row.features if hasattr(row, "features") else np.asarray(row)
        self.buffer.append(np.asarray(features, dtype=np.float64))
        L = self.artifact.sequence_length
        if len(self.buffer) < L:
            return None
        chunk = np.stack(self.buffer)
        self.buffer = []
        batch = SequenceBatch(sequences=chunk[None, ...], labels=np.zeros(1, dtype=np.int64))
        return float(predict_sequences(self.artifact, batch)[0])


# --- persistence ----------------------------------------------------------------


def _norm_to_doc(norm: NormStats | None):
    if norm is None:
        return None
    return {"mean": norm.mean.tolist(), "std": norm.std.tolist()}


def _norm_from_doc(doc) -> NormStats | None:
    if doc is None:
        return None
    return NormStats(mean=np.asarray(doc["mean"], dtype=np.float64),
                     std=np.asarray(doc["std"], dtype=np.float64))


def _artifact_to_doc(artifact: ModelArtifact) -> dict:
    params = {}
    for name, p in artifact.network.params().items():
        params[name] = {
            "shape": list(p.shape),
            "data": base64.b64encode(np.ascontiguousarray(p, dtype="<f8").tobytes()).decode(),
        }
    window = None
    if artifact.window is not None:
        window = {"raw_window": artifact.window.raw_window,
                  "down_window": artifact.window.down_window}
    return {
        "family": artifact.family,
        "input_dim": artifact.input_dim,
        "hyper": artifact.hyper,
        "window": window,
        "sequence_length": artifact.sequence_length,
        "norm": _norm_to_doc(artifact.norm),
        "seed": artifact.seed,
        "epochs_trained": artifact.epochs_trained,
        "encoder": None if artifact.encoder is None else _artifact_to_doc(artifact.encoder),
        "params": params,
    }


def _artifact_from_doc(doc: dict) -> ModelArtifact:
    family = doc["family"]
    if family not in FAMILIES:
        raise CorruptArtifactError(f"unknown family {family!r}")
    network = _build_network(family, doc["input_dim"], doc["hyper"], doc["seed"])
    artifact = ModelArtifact(
        family=family,
        input_dim=doc["input_dim"],
        hyper=doc["hyper"],
        network=network,
        norm=_norm_from_doc(doc["norm"]),
        window=None if doc["window"] is None else WindowConfig(**doc["window"]),
        sequence_length=doc["sequence_length"],
        encoder=None if doc["encoder"] is None else _artifact_from_doc(doc["encoder"]),
        seed=doc["seed"],
        epochs_trained=doc["epochs_trained"],
    )
    params = network.params()
    stored = doc["params"]
    if set(stored) != set(params):
        raise CorruptArtifactError("parameter names do not match the architecture")
    for name, p in params.items():
        entry = stored[name]
        raw = base64.b64decode(entry["data"])
        arr = np.frombuffer(raw, dtype="<f8")
        if list(p.shape) != entry["shape"] or arr.size != p.size:
            raise CorruptArtifactError(f"parameter {name!r} has the wrong shape")
        p[...] = arr.reshape(p.shape)
    return artifact


def _checksum(doc: dict) -> str:
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_model(artifact: ModelArtifact, path: str | Path) -> None:
    """Write the versioned, checksummed artifact container (byte-stable)."""
    doc = _artifact_to_doc(artifact)
    doc["format"] = ARTIFACT_FORMAT
    doc["version"] = ARTIFACT_VERSION
    doc["checksum"] = _checksum(doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


_CHECKSUM_HEAD = b'{"checksum":"'


def _checksum_matches(data: bytes) -> bool:
    """Whether *data*, a whole artifact file, carries the checksum of its bytes.

    save_model sorts keys, so the checksum is the first member, and the
    document it hashed is the file without ``"checksum":"<hex>",`` and
    without the line end. Those bytes are hashed in place.
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


def load_model(path: str | Path) -> ModelArtifact:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        doc = json.loads(data)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise CorruptArtifactError(f"{path}: not a valid artifact file ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != ARTIFACT_FORMAT:
        raise CorruptArtifactError(f"{path}: not a sidewatch model artifact")
    if doc.get("version") != ARTIFACT_VERSION:
        raise VersionMismatchError(
            f"{path}: artifact version {doc.get('version')} != {ARTIFACT_VERSION}"
        )
    if not _checksum_matches(data):
        raise CorruptArtifactError(f"{path}: checksum mismatch (truncated or edited?)")
    try:
        return _artifact_from_doc(doc)
    except KeyError as exc:
        raise CorruptArtifactError(f"{path}: missing field {exc}") from None
