"""File-level verdicts from unit probabilities: the consecutive-sample
threshold rule, time-to-detect, and a latching streaming detector.

A unit is what a model scores: a row (mlp, conv) or a chunk of
``sequence_length`` rows (the recurrent families). A unit whose
probability exceeds the cutoff adds its rows to the run; any other unit
resets the run to 0. A file is malicious once the run reaches
``consec_threshold`` rows (50 by default, 25 s at the 0.5 s sample
period), and the alert falls on the row closing the unit that brought it
there. Requiring a run keeps single-unit transients from flagging a whole
file. A perfect row-family detector's time-to-detect is therefore exactly
``consec_threshold * sample_period_s``.

``stream_step`` is the rule, one unit at a time; ``classify_file`` is the
same fold over a whole file, vectorised, and a property test pins the two
equal. A run-length rule is the simplest sequential change detector, a
degenerate CUSUM (Page 1954, "Continuous inspection schemes").

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

    def __post_init__(self):
        if not 0.0 < self.prob_cutoff < 1.0:
            raise ValueError(f"prob_cutoff must be in (0, 1), got {self.prob_cutoff}")
        if self.consec_threshold < 1:
            raise ValueError(f"consec_threshold must be >= 1, got {self.consec_threshold}")


@dataclass(frozen=True)
class DetectionVerdict:
    file_label: str  # "benign" | "malicious"
    alert_row: int | None = None

    @property
    def is_malicious(self) -> bool:
        return self.file_label == "malicious"


def row_flags(row_probs: np.ndarray, cfg: DetectorConfig) -> np.ndarray:
    """Unit labels: probability strictly above the cutoff is malicious."""
    return np.asarray(row_probs, dtype=np.float64) > cfg.prob_cutoff


def malicious_runs(unit_probs: np.ndarray, cfg: DetectorConfig, rows: int = 1) -> np.ndarray:
    """The run, in rows, after each unit of a stream that starts at run 0:
    stream_step's counter, from one cumulative sum. Each unit covers *rows*
    rows."""
    flags = row_flags(unit_probs, cfg)
    count = np.cumsum(flags)
    at_last_benign = np.maximum.accumulate(np.where(flags, 0, count))
    return (count - at_last_benign) * rows


def classify_file(unit_probs: np.ndarray, cfg: DetectorConfig, rows: int = 1) -> DetectionVerdict:
    """Apply the consecutive-sample rule to a whole file's unit
    probabilities, unit i closing row (i + 1) * rows - 1: the verdict and
    alert row of folding stream_step over them from a fresh state."""
    hits = np.flatnonzero(malicious_runs(unit_probs, cfg, rows) >= cfg.consec_threshold)
    if not hits.size:
        return DetectionVerdict("benign")
    return DetectionVerdict("malicious", alert_row=(int(hits[0]) + 1) * rows - 1)


def time_to_detect(verdict: DetectionVerdict, onset_row: int, cfg: DetectorConfig) -> float:
    """Seconds from onset to alert, counting the alert row inclusively.

    A perfect row-family detector therefore scores exactly
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
    """Incremental consecutive-counter state for one telemetry stream;
    rows_seen and run count rows."""

    cfg: DetectorConfig
    run: int = 0
    rows_seen: int = 0
    alerted: bool = False
    alert_row: int | None = None


def stream_step(state: StreamState, prob: float, rows: int = 1) -> str:
    """Advance the detector by one unit's probability, the unit covering
    the next *rows* rows; returns the event: ``alert`` exactly once, on the
    unit that first brings the run to the threshold or past it, with the
    unit's last row as the alert row; in latching mode ``still_malicious``
    on every later unit of the stream; non-latching mode re-arms once the
    malicious run breaks.
    """
    cfg = state.cfg
    state.rows_seen += rows

    if state.alerted and cfg.latching:
        return EVENT_STILL_MALICIOUS

    malicious = prob > cfg.prob_cutoff
    state.run = state.run + rows if malicious else 0

    if not malicious:
        if state.alerted and not cfg.latching:
            state.alerted = False  # run broke: re-arm
        return EVENT_NONE

    if state.run >= cfg.consec_threshold and not state.alerted:
        state.alerted = True
        state.alert_row = state.rows_seen - 1
        return EVENT_ALERT
    if state.alerted:
        return EVENT_STILL_MALICIOUS
    return EVENT_NONE
