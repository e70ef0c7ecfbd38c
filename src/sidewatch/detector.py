"""File-level verdicts from per-row probabilities: the consecutive-sample
threshold rule, time-to-detect, and a latching streaming detector.

A row counts as malicious when its probability exceeds the cutoff; a file
is malicious only once some run of at least ``consec_threshold``
consecutive malicious rows exists (50 by default, i.e. 25 seconds at the
0.5 s sample period). Requiring a run keeps single-row transients from
flagging a whole file. The alert row is the run's threshold-th row,
counted inclusively, so a perfect detector's time-to-detect is exactly
``consec_threshold * sample_period_s``.

The detector sees only probabilities: telemetry's row parser decides
whether a row, its time order included, is valid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlertBeforeOnsetError

DEFAULT_CONSEC_THRESHOLD = 50


@dataclass(frozen=True)
class DetectorConfig:
    prob_cutoff: float = 0.5
    consec_threshold: int = DEFAULT_CONSEC_THRESHOLD
    sample_period_s: float = 0.5
    latching: bool = True
    # How a sequence model's per-sequence verdicts roll up to a file verdict.
    rnn_aggregation: str = "any"  # "any" | "majority"

    def __post_init__(self):
        if not 0.0 < self.prob_cutoff < 1.0:
            raise ValueError(f"prob_cutoff must be in (0, 1), got {self.prob_cutoff}")
        if self.consec_threshold < 1:
            raise ValueError(f"consec_threshold must be >= 1, got {self.consec_threshold}")
        if self.rnn_aggregation not in ("any", "majority"):
            raise ValueError(f"unknown rnn_aggregation {self.rnn_aggregation!r}")


@dataclass(frozen=True)
class DetectionVerdict:
    file_label: str  # "benign" | "malicious"
    alert_row: int | None = None
    time_to_detect_s: float | None = None

    @property
    def is_malicious(self) -> bool:
        return self.file_label == "malicious"


def row_flags(row_probs: np.ndarray, cfg: DetectorConfig) -> np.ndarray:
    """Row labels: probability strictly above the cutoff is malicious."""
    return np.asarray(row_probs, dtype=np.float64) > cfg.prob_cutoff


def find_alert_row(flags: np.ndarray, threshold: int) -> int | None:
    """Index of the threshold-th row of the first qualifying run, if any."""
    run = 0
    for i, flag in enumerate(np.asarray(flags, dtype=bool)):
        run = run + 1 if flag else 0
        if run == threshold:
            return i
    return None


def classify_file(row_probs: np.ndarray, cfg: DetectorConfig) -> DetectionVerdict:
    """Apply the consecutive-sample rule to a whole file's probabilities."""
    flags = row_flags(row_probs, cfg)
    alert = find_alert_row(flags, cfg.consec_threshold)
    if alert is None:
        return DetectionVerdict("benign")
    return DetectionVerdict("malicious", alert_row=alert)


def time_to_detect(verdict: DetectionVerdict, onset_row: int, cfg: DetectorConfig) -> float:
    """Seconds from onset to alert, counting the alert row inclusively.

    A perfect detector therefore scores exactly
    consec_threshold * sample_period_s (25 s at the defaults).
    """
    if not verdict.is_malicious or verdict.alert_row is None:
        raise ValueError("time_to_detect needs a malicious verdict with an alert row")
    if onset_row > verdict.alert_row:
        raise AlertBeforeOnsetError(
            f"alert at row {verdict.alert_row} precedes onset row {onset_row} "
            "(false-positive run straddling onset)"
        )
    return (verdict.alert_row - onset_row + 1) * cfg.sample_period_s


EVENT_NONE = "none"
EVENT_ALERT = "alert"
EVENT_STILL_MALICIOUS = "still_malicious"


@dataclass
class StreamState:
    """Incremental consecutive-counter state for one telemetry stream."""

    cfg: DetectorConfig
    run: int = 0
    rows_seen: int = 0
    alerted: bool = False
    alert_row: int | None = None


def stream_step(state: StreamState, prob: float) -> str:
    """Advance the detector by one row's probability; returns the event:
    ``alert`` exactly once, when the counter first reaches the threshold;
    in latching mode ``still_malicious`` on every later row of the stream;
    non-latching mode re-arms once the malicious run breaks.
    """
    cfg = state.cfg
    index = state.rows_seen
    state.rows_seen += 1

    if state.alerted and cfg.latching:
        return EVENT_STILL_MALICIOUS

    malicious = prob > cfg.prob_cutoff
    state.run = state.run + 1 if malicious else 0

    if not malicious:
        if state.alerted and not cfg.latching:
            state.alerted = False  # run broke: re-arm
        return EVENT_NONE

    if state.run == cfg.consec_threshold and not state.alerted:
        state.alerted = True
        state.alert_row = index
        return EVENT_ALERT
    if state.alerted:
        return EVENT_STILL_MALICIOUS
    return EVENT_NONE


def stream_verdict(state: StreamState) -> DetectionVerdict:
    """Verdict equivalent to classify_file over everything streamed so far."""
    if state.alert_row is None:
        return DetectionVerdict("benign")
    return DetectionVerdict("malicious", alert_row=state.alert_row)


def aggregate_sequence_verdict(seq_probs: np.ndarray, cfg: DetectorConfig) -> DetectionVerdict:
    """File verdict from a sequence model's per-sequence probabilities."""
    flags = row_flags(seq_probs, cfg)
    if flags.size == 0:
        return DetectionVerdict("benign")
    if cfg.rnn_aggregation == "any":
        malicious = bool(flags.any())
    else:
        malicious = 2 * int(flags.sum()) >= flags.size
    return DetectionVerdict("malicious" if malicious else "benign")
