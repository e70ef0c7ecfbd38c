import json

import numpy as np
import pytest

from sidewatch import evalharness, featurize, models, synthgen, telemetry
from sidewatch.detector import DetectorConfig
from sidewatch.errors import (
    EmptyPopulationError,
    InsufficientStratumError,
    NoSequencesError,
)
from sidewatch.evalharness import (
    ConfusionCounts,
    EvalReport,
    SeqLenResult,
    compute_metrics,
    emit_report,
    evaluate_model,
    stratified_split,
    summary_table,
    sweep_encoding_dims,
    sweep_sequence_length,
    sweep_threshold,
)
from sidewatch.models import TrainConfig, build_mlp, build_rnn, train_model

from conftest import micro_spec, random_trace


class TestMetrics:
    def test_table2_conv_file_row(self):
        counts = ConfusionCounts("file", tp=13, tn=10, fp=1, fn=0)
        m = compute_metrics(counts)
        assert m.accuracy == pytest.approx(23 / 24)
        assert f"{m.accuracy:.2%}" == "95.83%"

    def test_fpr_is_exact_fraction(self):
        counts = ConfusionCounts("file", tp=13, tn=10, fp=1, fn=0)
        m = compute_metrics(counts)
        assert m.fpr == pytest.approx(1 / 11)  # 9.09%, the exact arithmetic

    def test_all_correct(self):
        m = compute_metrics(ConfusionCounts("row", tp=5, tn=7))
        assert (m.accuracy, m.fpr, m.fnr) == (1.0, 0.0, 0.0)

    def test_empty_population(self):
        with pytest.raises(EmptyPopulationError):
            compute_metrics(ConfusionCounts("file"))

    def test_zero_denominators(self):
        m = compute_metrics(ConfusionCounts("row", tp=4, fn=1))
        assert m.fpr == 0.0
        assert m.fnr == pytest.approx(0.2)

    def test_rates_always_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            tp, fp, tn, fn = (int(x) for x in rng.integers(0, 30, size=4))
            if tp + fp + tn + fn == 0:
                continue
            m = compute_metrics(ConfusionCounts("row", tp=tp, fp=fp, tn=tn, fn=fn))
            assert 0.0 <= m.accuracy <= 1.0
            assert 0.0 <= m.fpr <= 1.0
            assert 0.0 <= m.fnr <= 1.0


def _paper_shaped_manifest(tmp_path):
    """57 files shaped like the production corpus (tiny rows for speed)."""
    spec = synthgen.CorpusSpec(num_features=3, duration_s=10.0,
                               onset_choices=(2.0, 3.0, 4.0), seed=1)
    return synthgen.generate_corpus(spec, tmp_path), spec


class TestStratifiedSplit:
    def test_paper_split_32_24(self, tmp_path):
        manifest, _ = _paper_shaped_manifest(tmp_path)
        split = stratified_split(manifest, (16, 16), seed=0, test_counts=(11, 13))
        train = split.select("train")
        test = split.select("test")
        unassigned = split.select("unassigned")
        assert len(train) == 32
        assert len(test) == 24
        assert len(unassigned) <= 1
        assert sum(1 for e in train if e.meta.is_malicious) == 16
        assert sum(1 for e in test if e.meta.is_malicious) == 13
        # representatives from every malware category present in training
        train_cats = {e.meta.category for e in train if e.meta.is_malicious}
        assert train_cats == set(synthgen._table1_malware_counts())

    def test_remainder_goes_to_test_by_default(self, tmp_path):
        manifest, _ = _paper_shaped_manifest(tmp_path)
        split = stratified_split(manifest, (16, 16), seed=0)
        assert len(split.select("test")) == 57 - 32
        assert len(split.select("unassigned")) == 0

    def test_insufficient_stratum(self, tmp_path):
        manifest, _ = _paper_shaped_manifest(tmp_path)
        with pytest.raises(InsufficientStratumError):
            stratified_split(manifest, (16, 30), seed=0)

    def test_same_seed_same_assignment(self, tmp_path):
        manifest, _ = _paper_shaped_manifest(tmp_path)
        a = stratified_split(manifest, (16, 16), seed=4, test_counts=(11, 13))
        b = stratified_split(manifest, (16, 16), seed=4, test_counts=(11, 13))
        assert [(e.path, e.split) for e in a.entries] == \
            [(e.path, e.split) for e in b.entries]

    def test_different_seeds_differ(self, tmp_path):
        manifest, _ = _paper_shaped_manifest(tmp_path)
        a = stratified_split(manifest, (16, 16), seed=4)
        b = stratified_split(manifest, (16, 16), seed=5)
        assert [(e.path, e.split) for e in a.entries] != \
            [(e.path, e.split) for e in b.entries]

    def test_onset_balance(self, tmp_path):
        # "similar numbers with equivalent starting times": every onset is
        # represented, none dominates.
        manifest, spec = _paper_shaped_manifest(tmp_path)
        split = stratified_split(manifest, (16, 16), seed=0, test_counts=(11, 13))
        train_onsets = [e.meta.onset_s for e in split.select("train")
                        if e.meta.is_malicious]
        counts = {t: train_onsets.count(t) for t in spec.onset_choices}
        assert min(counts.values()) >= 2
        assert max(counts.values()) - min(counts.values()) <= 6


def _trained_micro_models(micro_traces):
    train, test = micro_traces
    X = np.vstack([t.features for t in train])
    y = np.concatenate([t.labels for t in train])
    mlp = build_mlp(8, hidden=(16,), seed=0)
    mlp, _ = train_model(mlp, (X, y), TrainConfig(max_epochs=30, seed=0))
    return mlp


class TestEvaluateModel:
    def test_row_model_section(self, micro_traces):
        train, test = micro_traces
        mlp = _trained_micro_models(micro_traces)
        cfg = DetectorConfig(consec_threshold=20)
        section = evaluate_model(mlp, test, cfg)
        assert section.granularity == "row"
        assert section.row_confusion.total == sum(t.num_rows for t in test)
        assert section.file_confusion.total == len(test)
        assert section.file_metrics.accuracy == 1.0
        assert section.mean_ttd_s is not None
        assert section.mean_ttd_s >= 20 * 0.5

    def test_constant_zero_predictor(self, micro_traces):
        train, test = micro_traces
        mlp = build_mlp(8, hidden=(4,), seed=0)  # untrained: outputs near 0.5
        mlp.norm = featurize.zscore_fit(np.vstack([t.features for t in train]))
        # force the head to always output ~0
        mlp.network.layers[-1].W[...] = 0.0
        mlp.network.layers[-1].b[...] = -20.0
        section = evaluate_model(mlp, test, DetectorConfig(consec_threshold=20))
        m = section.file_metrics
        assert m.fnr == 1.0
        assert m.fpr == 0.0

    def test_rnn_section_skips_short_files(self, micro_traces):
        train, test = micro_traces
        batch = featurize.chunk_sequences(train, 20)
        rnn = build_rnn(8, cell="gru", seed=0)
        rnn, _ = train_model(rnn, batch, TrainConfig(max_epochs=10, seed=0))
        section = evaluate_model(rnn, test, DetectorConfig(consec_threshold=20))
        assert section.granularity == "file"
        assert section.files_evaluated == len(test)  # all long enough here
        assert section.seq_confusion.total == sum(t.num_rows // 20 for t in test)

    def test_rnn_all_files_too_short(self, micro_traces):
        train, test = micro_traces
        batch = featurize.chunk_sequences(train, 20)
        rnn = build_rnn(8, cell="gru", seed=0)
        rnn, _ = train_model(rnn, batch, TrainConfig(max_epochs=2, seed=0))
        rnn.sequence_length = 10_000
        with pytest.raises(NoSequencesError):
            evaluate_model(rnn, test, DetectorConfig())


class TestSweeps:
    def test_threshold_one_flags_any_malicious_row(self, micro_traces):
        train, test = micro_traces
        mlp = _trained_micro_models(micro_traces)
        curve = sweep_threshold(mlp, test, [1], DetectorConfig())
        assert len(curve) == 1

    def test_threshold_sweep_monotone_flagged_sets(self, micro_traces):
        train, test = micro_traces
        mlp = _trained_micro_models(micro_traces)
        thresholds = list(range(1, 61))
        from sidewatch.detector import classify_file
        from sidewatch.models import predict_rows
        probs = [predict_rows(mlp, t) for t in test]
        prev = None
        for thr in thresholds:
            per = DetectorConfig(consec_threshold=thr)
            flagged = {i for i, p in enumerate(probs)
                       if classify_file(p, per).is_malicious}
            if prev is not None:
                assert flagged <= prev
            prev = flagged

    def test_threshold_curve_matches_per_threshold_recompute(self, micro_traces):
        train, test = micro_traces
        mlp = _trained_micro_models(micro_traces)
        cfg = DetectorConfig()
        thresholds = [1, 5, 20, 40]
        curve = sweep_threshold(mlp, test, thresholds, cfg)
        from sidewatch.detector import classify_file
        from sidewatch.models import predict_rows
        for thr, acc in curve:
            per = DetectorConfig(consec_threshold=thr)
            verdicts = [classify_file(predict_rows(mlp, t), per).is_malicious
                        for t in test]
            truths = [t.meta.is_malicious for t in test]
            assert acc == pytest.approx(np.mean(np.array(verdicts) == truths))

    def test_sequence_length_counts(self, micro_traces):
        train, test = micro_traces
        results = sweep_sequence_length(
            [10, 40], ["rnn_vanilla"], train, test,
            TrainConfig(max_epochs=1, seed=0), DetectorConfig(), seed=0)
        for r in results:
            expect = sum(t.num_rows // r.length for t in train)
            assert r.training_sequences == expect

    def test_sequence_length_no_sequences(self, micro_traces):
        train, test = micro_traces
        with pytest.raises(NoSequencesError):
            sweep_sequence_length([100_000], ["rnn_vanilla"], train, test,
                                  TrainConfig(max_epochs=1, seed=0),
                                  DetectorConfig(), seed=0)

    def test_encoding_sweep_shape(self, micro_traces):
        train, test = micro_traces
        quick = TrainConfig(max_epochs=3, seed=0)
        curves = sweep_encoding_dims(
            [2, 4], ["mlp"], train, test, ae_config=quick, clf_config=quick,
            cfg=DetectorConfig(consec_threshold=20), seed=0)
        assert set(curves) == {"mlp"}
        assert [d for d, _ in curves["mlp"]] == [2, 4]
        for _, acc in curves["mlp"]:
            assert 0.0 <= acc <= 1.0

    def test_encoding_sweep_near_lossless_sanity_point(self, micro_traces):
        # d = F-1: the near-lossless bottleneck still runs end to end.
        train, test = micro_traces
        F = train[0].num_features
        quick = TrainConfig(max_epochs=2, seed=0)
        curves = sweep_encoding_dims(
            [F - 1], ["mlp"], train, test, ae_config=quick, clf_config=quick,
            cfg=DetectorConfig(consec_threshold=20), seed=0)
        assert curves["mlp"][0][0] == F - 1


class TestReportEmission:
    def test_emission_is_deterministic(self, micro_traces, tmp_path):
        train, test = micro_traces
        mlp = _trained_micro_models(micro_traces)
        cfg = DetectorConfig(consec_threshold=20)
        report = EvalReport(config={"seed": 0})
        report.sections.append(evaluate_model(mlp, test, cfg))
        report.threshold_curve = sweep_threshold(mlp, test, [1, 10, 20], cfg)
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        w1 = emit_report(report, d1)
        w2 = emit_report(report, d2)
        assert [p.name for p in w1] == [p.name for p in w2]
        for a, b in zip(w1, w2):
            assert a.read_bytes() == b.read_bytes()

    def test_curve_file_rows(self, micro_traces, tmp_path):
        train, test = micro_traces
        mlp = _trained_micro_models(micro_traces)
        cfg = DetectorConfig(consec_threshold=20)
        report = EvalReport()
        report.sections.append(evaluate_model(mlp, test, cfg))
        thresholds = list(range(1, 31))
        report.threshold_curve = sweep_threshold(mlp, test, thresholds, cfg)
        emit_report(report, tmp_path)
        lines = (tmp_path / "threshold_sweep.txt").read_text().splitlines()
        assert len(lines) == len(thresholds) + 1  # header + one per threshold

    def test_report_of_an_unreached_length_is_strict_json(self, tmp_path):
        # A length no test file reaches scores NaN: report.json gives null
        # for it, and its curve file keeps nan.
        report = EvalReport(seqlen_results=[
            SeqLenResult(5, 12, {"rnn_gru": 0.75}), SeqLenResult(10, 5, {"rnn_gru": float("nan")})])
        emit_report(report, tmp_path)

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        doc = json.loads((tmp_path / "report.json").read_text(), parse_constant=refuse)
        assert [r["accuracy"] for r in doc["sequence_length_results"]] == [
            {"rnn_gru": 0.75}, {"rnn_gru": None}]
        lines = (tmp_path / "seqlen_sweep_rnn_gru.txt").read_text().splitlines()
        assert lines[1:] == ["5\t0.75", "10\tnan"]

    def test_summary_has_one_row_per_model(self, micro_traces):
        train, test = micro_traces
        mlp = _trained_micro_models(micro_traces)
        cfg = DetectorConfig(consec_threshold=20)
        report = EvalReport()
        report.sections.append(evaluate_model(mlp, test, cfg, label="mlp-a"))
        report.sections.append(evaluate_model(mlp, test, cfg, label="mlp-b"))
        table = summary_table(report)
        body = [ln for ln in table.splitlines()[2:] if ln.strip()]
        assert len(body) == 2
        assert body[0].startswith("mlp-a")
