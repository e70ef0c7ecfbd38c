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
    aggregate_sequence_verdict,
    classify_file,
    stream_step,
    stream_verdict,
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
            assert stream_verdict(state).alert_row == batch.alert_row
            assert stream_verdict(state).is_malicious == batch.is_malicious

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


class TestSequenceAggregation:
    def test_any_aggregation(self):
        cfg = DetectorConfig(rnn_aggregation="any")
        assert aggregate_sequence_verdict(np.array([0.1, 0.9, 0.1]), cfg).is_malicious
        assert not aggregate_sequence_verdict(np.array([0.1, 0.2]), cfg).is_malicious

    def test_majority_aggregation(self):
        cfg = DetectorConfig(rnn_aggregation="majority")
        assert not aggregate_sequence_verdict(np.array([0.9, 0.1, 0.1]), cfg).is_malicious
        assert aggregate_sequence_verdict(np.array([0.9, 0.9, 0.1]), cfg).is_malicious
        # tie counts malicious
        assert aggregate_sequence_verdict(np.array([0.9, 0.1]), cfg).is_malicious

    def test_empty_is_benign(self):
        cfg = DetectorConfig()
        assert not aggregate_sequence_verdict(np.zeros(0), cfg).is_malicious


class TestConfigValidation:
    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            DetectorConfig(prob_cutoff=1.0)

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            DetectorConfig(consec_threshold=0)
