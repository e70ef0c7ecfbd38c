import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sidewatch.detector import (
    EVENT_ALERT,
    EVENT_NONE,
    EVENT_STILL_MALICIOUS,
    DetectorConfig,
    StreamState,
    classify_file,
    stream_step,
    time_to_detect,
)
from sidewatch.errors import AlertBeforeOnsetError


def brute_first_run_end(flags, threshold):
    """Naive scanner: end index of the first run of >= threshold Trues."""
    for start in range(len(flags)):
        if all(flags[start : start + threshold]) and start + threshold <= len(flags):
            return start + threshold - 1
    return None


def probs_from_flags(flags):
    return np.where(np.asarray(flags, dtype=bool), 0.9, 0.1)


class TestClassifyFile:
    def test_49_consecutive_is_benign_at_threshold_50(self):
        flags = np.zeros(300, dtype=bool)
        flags[100:149] = True  # 49 rows
        verdict = classify_file(probs_from_flags(flags), DetectorConfig())
        assert not verdict.is_malicious

    def test_50_from_180_alerts_at_229(self):
        flags = np.zeros(300, dtype=bool)
        flags[180:230] = True
        verdict = classify_file(probs_from_flags(flags), DetectorConfig())
        assert verdict.is_malicious
        assert verdict.alert_row == 229

    def test_matches_bruteforce_runlength_scanner(self):
        rng = np.random.default_rng(0)
        for _ in range(400):
            n = int(rng.integers(1, 120))
            thr = int(rng.integers(1, 12))
            flags = rng.random(n) < rng.uniform(0.2, 0.9)
            cfg = DetectorConfig(consec_threshold=thr)
            verdict = classify_file(probs_from_flags(flags), cfg)
            expect = brute_first_run_end(list(flags), thr)
            assert verdict.alert_row == expect
            assert verdict.is_malicious == (expect is not None)

    @given(st.lists(st.booleans(), min_size=1, max_size=60),
           st.integers(1, 8))
    @settings(max_examples=120)
    def test_threshold_monotonicity(self, flags, thr):
        probs = probs_from_flags(flags)
        low = classify_file(probs, DetectorConfig(consec_threshold=thr))
        high = classify_file(probs, DetectorConfig(consec_threshold=thr + 1))
        # Raising the threshold never converts benign to malicious.
        if high.is_malicious:
            assert low.is_malicious

    def test_cutoff_is_strict(self):
        cfg = DetectorConfig(prob_cutoff=0.5, consec_threshold=1)
        assert not classify_file(np.array([0.5]), cfg).is_malicious
        assert classify_file(np.array([0.500001]), cfg).is_malicious


class TestTimeToDetect:
    def test_perfect_detector_is_25_seconds(self):
        flags = np.zeros(960, dtype=bool)
        flags[240:] = True  # onset row 240, malicious ever after
        cfg = DetectorConfig()
        verdict = classify_file(probs_from_flags(flags), cfg)
        assert verdict.alert_row == 289
        assert time_to_detect(verdict, 240, cfg) == 25.0

    def test_formula_example_55s(self):
        cfg = DetectorConfig()
        verdict = classify_file(
            probs_from_flags([False] * 240 + [True] * 200), cfg)
        onset = verdict.alert_row - 109
        assert time_to_detect(verdict, onset, cfg) == 55.0

    def test_alert_before_onset_rejected(self):
        cfg = DetectorConfig(consec_threshold=5)
        verdict = classify_file(probs_from_flags([True] * 10), cfg)
        with pytest.raises(AlertBeforeOnsetError):
            time_to_detect(verdict, onset_row=8, cfg=cfg)

    def test_minimum_ttd_is_threshold_times_period(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            thr = int(rng.integers(1, 20))
            period = float(rng.choice([0.25, 0.5, 1.0]))
            onset = int(rng.integers(0, 40))
            cfg = DetectorConfig(consec_threshold=thr, sample_period_s=period)
            flags = np.zeros(onset + thr + 30, dtype=bool)
            flags[onset:] = True
            verdict = classify_file(probs_from_flags(flags), cfg)
            assert time_to_detect(verdict, onset, cfg) == pytest.approx(thr * period)


class TestStream:
    def test_stream_batch_equivalence_fuzz(self):
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = int(rng.integers(1, 100))
            thr = int(rng.integers(1, 10))
            probs = rng.random(n)
            cfg = DetectorConfig(consec_threshold=thr)
            batch = classify_file(probs, cfg)
            state = StreamState(cfg=cfg)
            for p in probs:
                stream_step(state, float(p))
            assert state.alert_row == batch.alert_row
            assert (state.alert_row is not None) == batch.is_malicious

    def test_alert_emitted_exactly_once(self):
        cfg = DetectorConfig(consec_threshold=3)
        state = StreamState(cfg=cfg)
        events = [stream_step(state, p) for p in [0.9] * 10]
        assert events.count(EVENT_ALERT) == 1
        assert events[2] == EVENT_ALERT
        assert all(e == EVENT_STILL_MALICIOUS for e in events[3:])

    def test_alternating_rows_never_alert(self):
        cfg = DetectorConfig(consec_threshold=2)
        state = StreamState(cfg=cfg)
        for i in range(1000):
            event = stream_step(state, 0.9 if i % 2 == 0 else 0.1)
            assert event == EVENT_NONE

    def test_latching_reports_forever(self):
        cfg = DetectorConfig(consec_threshold=2, latching=True)
        state = StreamState(cfg=cfg)
        stream_step(state, 0.9)
        stream_step(state, 0.9)
        for _ in range(10_000):
            assert stream_step(state, 0.05) == EVENT_STILL_MALICIOUS

    def test_non_latching_rearms(self):
        cfg = DetectorConfig(consec_threshold=2, latching=False)
        state = StreamState(cfg=cfg)
        events = [stream_step(state, p)
                  for p in [0.9, 0.9, 0.1, 0.9, 0.9]]
        assert events == [EVENT_NONE, EVENT_ALERT, EVENT_NONE, EVENT_NONE, EVENT_ALERT]

    def test_single_transient_never_alerts(self):
        rng = np.random.default_rng(3)
        for thr in (2, 5, 50):
            cfg = DetectorConfig(consec_threshold=thr)
            state = StreamState(cfg=cfg)
            flags = np.zeros(200, dtype=bool)
            flags[100] = True  # one flipped row
            for p in probs_from_flags(flags):
                assert stream_step(state, float(p)) == EVENT_NONE


def fold(probs, cfg, rows=1):
    """stream_step folded over *probs* from a fresh state: (events, state)."""
    state = StreamState(cfg=cfg)
    return [stream_step(state, float(p), rows) for p in probs], state


class TestRowCountedRun:
    """A unit covering several rows (a recurrent chunk) adds them all to the
    run; classify_file is the stream_step fold."""

    @given(st.lists(st.floats(0.0, 1.0), max_size=60), st.integers(1, 12),
           st.integers(1, 40), st.sampled_from([0.3, 0.5, 0.7]), st.booleans())
    @settings(max_examples=300)
    def test_classify_file_is_the_stream_step_fold(self, probs, rows, thr, cutoff, latching):
        cfg = DetectorConfig(prob_cutoff=cutoff, consec_threshold=thr, latching=latching)
        events, state = fold(probs, cfg, rows)
        verdict = classify_file(np.array(probs), cfg, rows)
        first = events.index(EVENT_ALERT) if EVENT_ALERT in events else None
        assert verdict.alert_row == (None if first is None else (first + 1) * rows - 1)
        if latching:
            assert verdict.alert_row == state.alert_row
        assert state.rows_seen == len(probs) * rows

    def test_a_chunk_can_jump_past_the_threshold(self):
        cfg = DetectorConfig(consec_threshold=50)
        # Chunks of 20 rows: the third malicious chunk brings the run to 60.
        events, state = fold([0.9, 0.1, 0.9, 0.9, 0.9, 0.9], cfg, rows=20)
        assert events == [EVENT_NONE] * 4 + [EVENT_ALERT, EVENT_STILL_MALICIOUS]
        assert state.alert_row == 99
        assert classify_file(np.array([0.9, 0.1, 0.9, 0.9, 0.9]), cfg, 20).alert_row == 99

    def test_threshold_50_is_25_seconds_for_every_unit_size(self):
        for rows in (1, 2, 5, 10, 25, 50):
            cfg = DetectorConfig()
            flags = np.zeros(1000 // rows, dtype=bool)
            flags[250 // rows:] = True  # onset row 250
            verdict = classify_file(probs_from_flags(flags), cfg, rows)
            assert time_to_detect(verdict, 250, cfg) == 25.0

    def test_empty_is_benign(self):
        assert not classify_file(np.zeros(0), DetectorConfig(), 20).is_malicious


class TestConfigValidation:
    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            DetectorConfig(prob_cutoff=1.0)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            DetectorConfig(consec_threshold=0)
