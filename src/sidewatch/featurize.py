"""Normalization, multi-resolution branches, causal windows, sequence chunks.

The multi-branch convolutional classifier consumes five aligned views of a
trace: the raw signal, two rolling-mean smoothings (2.5 s and 12.5 s), and
two decimations (5 s and 12.5 s periods). All smoothing is *causal*
(trailing window, shortened at the start): a live detector cannot look at
the future. Decimation keeps every factor-th row with no anti-alias
filter; the smoothed branches already provide filtered views.

Per-row prediction uses fixed-length causal lookback windows over these
branches: 128 rows on the full-rate branches, 64 on the decimated ones,
front-padded by replicating the earliest available row. 128/64 are the
smallest powers of two comfortably above the kernel size 32, so every
window satisfies the convolution length precondition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRangeError, TooFewRowsError
from .telemetry import Trace

SMOOTH_SHORT_S = 2.5
SMOOTH_LONG_S = 12.5
DOWN_MID_S = 5.0
DOWN_LONG_S = 12.5

RAW_WINDOW_ROWS = 128
DOWN_WINDOW_ROWS = 64


@dataclass(frozen=True)
class NormStats:
    """Per-feature z-score statistics, fit on training rows only."""

    mean: np.ndarray
    std: np.ndarray


def zscore_fit(rows: np.ndarray) -> NormStats:
    """Per-feature mean and population std; zero-variance features get std 1."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise TooFewRowsError(f"need a 2-D matrix with >= 2 rows, got shape {rows.shape}")
    mean = rows.mean(axis=0)
    std = rows.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return NormStats(mean=mean, std=std)


def zscore_apply(stats: NormStats, rows: np.ndarray) -> np.ndarray:
    return (np.asarray(rows, dtype=np.float64) - stats.mean) / stats.std


def rolling_mean(series: np.ndarray, window: int) -> np.ndarray:
    """Causal rolling mean: out[i] = mean(in[max(0, i-window+1) .. i]).

    Length-preserving; the window is shortened at the start of the series.
    """
    return rolling_means(series, (window,))[0]


def rolling_means(series: np.ndarray, windows: tuple[int, ...],
                  start: int = 0) -> list[np.ndarray]:
    """rolling_mean of *series* for each of *windows*, from one cumulative
    sum; each result leaves out the rows before *start*."""
    series = np.asarray(series, dtype=np.float64)
    squeeze = series.ndim == 1
    c = np.add.accumulate(series[:, None] if squeeze else series, axis=0)
    outs = []
    for window in windows:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        # Rows before `split` average every row so far, the rest their last `window`.
        split = min(max(window, start), len(c))
        if split == len(c):
            out = c[start:] / np.arange(start + 1, split + 1.0)[:, None]
        else:
            out = c[split:] - c[split - window : len(c) - window]
            out /= window
            if split > start:
                head = c[start:split] / np.arange(start + 1, split + 1.0)[:, None]
                out = np.concatenate((head, out))
        outs.append(out[:, 0] if squeeze else out)
    return outs


def downsample(series: np.ndarray, factor: int) -> np.ndarray:
    """Decimation: out[k] = in[k*factor] for k < floor(T/factor)."""
    if factor < 1:
        raise ValueError(f"factor must be >= 1, got {factor}")
    series = np.asarray(series, dtype=np.float64)
    T = series.shape[0]
    return series[: (T // factor) * factor : factor].copy()


def window_samples(seconds: float, sample_period_s: float) -> int:
    """Convert a window duration to a sample count (at least 1)."""
    return max(1, int(round(seconds / sample_period_s)))


@dataclass(frozen=True)
class BranchSet:
    """The five aligned views of one trace consumed by the conv model."""

    raw: np.ndarray           # [T, F]
    smooth_short: np.ndarray  # [T, F]
    smooth_long: np.ndarray   # [T, F]
    down_mid: np.ndarray      # [T // mid_factor, F]
    down_long: np.ndarray     # [T // long_factor, F]
    mid_factor: int
    long_factor: int

    @property
    def num_rows(self) -> int:
        return int(self.raw.shape[0])


def branch_geometry(sample_period_s: float) -> tuple[int, int, int, int]:
    """Smoothing windows and decimation factors, in samples, for a period.

    Returns (short window, long window, mid factor, long factor). At the
    default 0.5 s period this gives smoothing windows of 5 and 25 samples
    and decimation factors of 10 and 25.
    """
    return tuple(window_samples(s, sample_period_s)
                 for s in (SMOOTH_SHORT_S, SMOOTH_LONG_S, DOWN_MID_S, DOWN_LONG_S))


def make_branch_set(rows: np.ndarray, sample_period_s: float) -> BranchSet:
    """Build all five branches; window/factor sizes derive from the period
    (see branch_geometry)."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError(f"need a nonempty [T, F] matrix, got shape {rows.shape}")
    w_short, w_long, f_mid, f_long = branch_geometry(sample_period_s)
    smooth_short, smooth_long = rolling_means(rows, (w_short, w_long))
    return BranchSet(
        raw=rows,
        smooth_short=smooth_short,
        smooth_long=smooth_long,
        down_mid=downsample(rows, f_mid),
        down_long=downsample(rows, f_long),
        mid_factor=f_mid,
        long_factor=f_long,
    )


def _causal_window(branch: np.ndarray, last: int, width: int, F: int) -> np.ndarray:
    """Rows (last-width+1 .. last), front-padded by replicating row 0.

    An empty branch yields an all-zero window (consumers must pad).
    """
    if branch.shape[0] == 0:
        return np.zeros((width, F), dtype=np.float64)
    start = last - width + 1
    if start >= 0:
        return branch[start : last + 1].copy()
    pad = np.repeat(branch[0:1], -start, axis=0)
    return np.concatenate([pad, branch[: last + 1]], axis=0)


def make_row_windows(
    branches: BranchSet,
    row_index: int,
    raw_window: int = RAW_WINDOW_ROWS,
    down_window: int = DOWN_WINDOW_ROWS,
) -> tuple[np.ndarray, ...]:
    """Five fixed-length causal lookback windows ending at row *row_index*.

    Full-rate branches contribute their last *raw_window* rows up to and
    including the row; decimated branches contribute their last
    *down_window* rows at or before the row's time. Neither training nor
    prediction builds these windows: both convolve whole branch views once
    (models._ConvEngine). They remain the materialized reference those
    paths are tested against. With make_branch_set's floor-length
    decimation the final ``T mod factor`` rows of a trace see a decimated
    sample up to one factor older than the causal rule (row i sampled when
    i % factor == 0, as by ``rows[::factor]``) that the models follow.
    """
    T = branches.num_rows
    if not 0 <= row_index < T:
        raise IndexOutOfRangeError(f"row {row_index} outside trace of {T} rows")
    F = branches.raw.shape[1]
    wins = [
        _causal_window(b, row_index, raw_window, F)
        for b in (branches.raw, branches.smooth_short, branches.smooth_long)
    ]
    for branch, factor in (
        (branches.down_mid, branches.mid_factor),
        (branches.down_long, branches.long_factor),
    ):
        if branch.shape[0] == 0:
            wins.append(np.zeros((down_window, F), dtype=np.float64))
        else:
            last = min(row_index // factor, branch.shape[0] - 1)
            wins.append(_causal_window(branch, last, down_window, F))
    return tuple(wins)


@dataclass
class SequenceBatch:
    """Fixed-length sequence chunks with one label per sequence."""

    sequences: np.ndarray  # [N, L, F]
    labels: np.ndarray     # [N] int

    @property
    def length(self) -> int:
        return int(self.sequences.shape[1])

    @property
    def num_sequences(self) -> int:
        return int(self.sequences.shape[0])


def unit_labels(labels: np.ndarray, closes: np.ndarray) -> np.ndarray:
    """The label of each unit of a trace's rows, given *closes*, the
    increasing indices of the rows that close the units: the majority label
    of the rows since the previous unit closed, ties malicious, as int64."""
    malicious = np.diff(np.cumsum(labels)[closes], prepend=0)
    return (2 * malicious >= np.diff(closes, prepend=-1)).astype(np.int64)


def chunk_sequences(traces: list[Trace], length: int) -> SequenceBatch:
    """Break traces into non-overlapping length-L chunks starting at row 0,
    each labeled by the majority of its rows (unit_labels, the rule eval
    scores chunks by).

    Remainder rows are dropped; traces shorter than L contribute nothing.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    F = traces[0].num_features if traces else 0
    seqs, labels = [np.zeros((0, length, F))], [np.zeros(0, dtype=np.int64)]
    for trace in traces:
        if trace.num_features != F:
            raise ValueError("all traces must share the same feature count")
        n = trace.num_rows // length
        seqs.append(trace.features[:n * length].reshape(n, length, F))
        labels.append(unit_labels(trace.labels, np.arange(length - 1, n * length, length)))
    return SequenceBatch(sequences=np.concatenate(seqs), labels=np.concatenate(labels))
