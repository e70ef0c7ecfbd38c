import json

import numpy as np
import pytest

from sidewatch import cli, models, telemetry
from sidewatch.cli import EXIT_ALERT, EXIT_DATA, EXIT_OK, EXIT_USAGE
from sidewatch.detector import DetectorConfig, classify_file
from sidewatch.models import TrainConfig, build_mlp, predict_rows, train_model


@pytest.fixture(scope="module")
def cli_corpus(tmp_path_factory):
    """Generated + split corpus and a trained mlp artifact, via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    spec = {
        "benign_counts": {"os-only": 2, "office": 2},
        "malware_counts": {"ransomware": 2, "worm": 2},
        "num_features": 8,
        "duration_s": 120.0,
        "onset_choices": [30.0, 45.0, 60.0],
        "difficulty": 3.0,
        "seed": 5,
    }
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert cli.main(["generate", "--spec", str(spec_path), "--out", str(corpus)]) == EXIT_OK
    assert cli.main(["split", "--corpus", str(corpus), "--train-benign", "2",
                     "--train-malicious", "2", "--seed", "3"]) == EXIT_OK

    run = root / "run-mlp"
    rc = cli.main(["train", "--corpus", str(corpus), "--family", "mlp",
                   "--hidden", "16", "--epochs", "25", "--out", str(run)])
    assert rc == EXIT_OK
    return root, corpus, run / "model.json"


class TestGenerate:
    def test_same_seed_identical_output(self, tmp_path):
        args = ["generate", "--seed", "7", "--features", "4", "--duration", "20"]
        spec = {"benign_counts": {"office": 1}, "malware_counts": {"worm": 1},
                "onset_choices": [5.0]}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert cli.main(args + ["--spec", str(spec_path), "--out", str(out)]) == EXIT_OK
        files = sorted(p.name for p in outs[0].glob("*.csv"))
        assert files == sorted(p.name for p in outs[1].glob("*.csv"))
        for name in files:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_malformed_spec_is_data_error(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({"bogus_key": 1}))
        rc = cli.main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        assert "bogus_key" in capsys.readouterr().err

    def test_default_spec_is_57_files(self, tmp_path):
        # Table-1 composition at tiny trace sizes for speed.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(
            {"num_features": 3, "duration_s": 8.0, "onset_choices": [2.0, 3.0, 4.0]}))
        out = tmp_path / "corpus"
        assert cli.main(["generate", "--spec", str(spec_path), "--out", str(out)]) == EXIT_OK
        manifest = telemetry.load_manifest(out / "manifest.json")
        assert len(manifest.entries) == 57


class TestSplit:
    def test_split_tags_manifest(self, cli_corpus):
        root, corpus, _ = cli_corpus
        manifest = telemetry.load_manifest(corpus / "manifest.json")
        assert len(manifest.select("train")) == 4
        assert len(manifest.select("test")) == 4

    def test_split_insufficient_is_data_error(self, cli_corpus, capsys):
        root, corpus, _ = cli_corpus
        rc = cli.main(["split", "--corpus", str(corpus),
                       "--train-benign", "50", "--train-malicious", "2"])
        assert rc == EXIT_DATA


class TestValidate:
    def test_clean_corpus(self, cli_corpus, capsys):
        root, corpus, _ = cli_corpus
        assert cli.main(["validate", "--corpus", str(corpus)]) == EXIT_OK
        assert "0 violations" in capsys.readouterr().out

    def test_corrupted_file_detected(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        corpus.mkdir()
        (corpus / "x_Win7SP1_hw1_office.csv").write_text(
            "time_s,a,label\n0.0,1,1\n0.5,2,1\n")  # benign file with label 1
        assert cli.main(["validate", "--corpus", str(corpus)]) == EXIT_DATA


class TestTrainEval:
    def test_artifact_reloads_and_predicts_identically(self, cli_corpus):
        root, corpus, model_path = cli_corpus
        artifact = models.load_model(model_path)
        manifest = telemetry.load_manifest(corpus / "manifest.json")
        test = telemetry.load_traces(manifest, corpus, "test")
        p1 = predict_rows(artifact, test[0])
        p2 = predict_rows(models.load_model(model_path), test[0])
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("flag", ["--epochs", "--batch-size", "--rows-per-trace"])
    def test_zero_count_is_usage_error(self, cli_corpus, flag, capsys):
        root, corpus, _ = cli_corpus
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--corpus", str(corpus), "--family", "mlp", flag, "0"])
        assert exc.value.code == EXIT_USAGE
        assert "positive integer" in capsys.readouterr().err

    def test_wrong_family_is_usage_error(self, cli_corpus):
        root, corpus, _ = cli_corpus
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--corpus", str(corpus), "--family", "nonsense"])
        assert exc.value.code == EXIT_USAGE

    def test_eval_report_contents_and_determinism(self, cli_corpus, tmp_path):
        root, corpus, model_path = cli_corpus
        outs = [tmp_path / "e1", tmp_path / "e2"]
        for out in outs:
            rc = cli.main(["eval", "--corpus", str(corpus), "--model", str(model_path),
                           "--threshold", "20", "--out", str(out)])
            assert rc == EXIT_OK
        assert (outs[0] / "report.json").read_bytes() == \
            (outs[1] / "report.json").read_bytes()
        doc = json.loads((outs[0] / "report.json").read_text())
        section = doc["sections"][0]
        assert section["row_confusion"] is not None
        assert section["file_confusion"] is not None

    def test_eval_without_test_tags_is_data_error(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        corpus.mkdir()
        (corpus / "a_Win7SP1_hw1_office.csv").write_text(
            "time_s,a,label\n0.0,1,0\n0.5,2,0\n")
        rc = cli.main(["eval", "--corpus", str(corpus),
                       "--model", "irrelevant.json", "--out", str(tmp_path / "o")])
        assert rc == EXIT_DATA

    def test_train_config_file_defaults(self, cli_corpus, tmp_path):
        root, corpus, _ = cli_corpus
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 3, "hidden": "8"}))
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", str(cfg), "--corpus", str(corpus),
                       "--family", "mlp", "--out", str(out)])
        assert rc == EXIT_OK
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["epochs"] == 3
        assert list(effective["hidden"]) == [8]

    def test_config_file_unknown_key_rejected(self, cli_corpus, tmp_path, capsys):
        root, corpus, _ = cli_corpus
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"no_such_flag": 1}))
        rc = cli.main(["train", "--config", str(cfg), "--corpus", str(corpus),
                       "--family", "mlp", "--out", str(tmp_path / "r")])
        assert rc == EXIT_DATA
        assert "no_such_flag" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", 0])
    def test_config_value_goes_through_flag_check(self, cli_corpus, tmp_path, capsys, value):
        root, corpus, _ = cli_corpus
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"batch_size": value}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--config", str(cfg), "--corpus", str(corpus),
                      "--family", "mlp", "--out", str(tmp_path / "r")])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert str(cfg) in err and "'batch_size'" in err and "positive integer" in err

    def test_config_value_outside_choices_is_usage_error(self, cli_corpus, tmp_path, capsys):
        root, corpus, _ = cli_corpus
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"optimizer": "sgd"}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--config", str(cfg), "--corpus", str(corpus),
                      "--family", "mlp", "--out", str(tmp_path / "r")])
        assert exc.value.code == EXIT_USAGE
        assert "'optimizer'" in capsys.readouterr().err

    def test_config_switch_takes_a_boolean(self, cli_corpus, tmp_path, capsys):
        root, corpus, model_path = cli_corpus
        cfg = tmp_path / "detect.json"
        cfg.write_text(json.dumps({"no_latch": "no"}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["detect", "--config", str(cfg), "--model", str(model_path),
                      "--source", str(tmp_path / "unread.csv")])
        assert exc.value.code == EXIT_USAGE
        assert "'no_latch'" in capsys.readouterr().err

    def test_config_list_reads_as_comma_text(self, cli_corpus, tmp_path):
        root, corpus, _ = cli_corpus
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"hidden": [8, 4], "epochs": 1, "lr": 0.002}))
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", str(cfg), "--corpus", str(corpus),
                       "--family", "mlp", "--out", str(out)])
        assert rc == EXIT_OK
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["hidden"] == [8, 4] and effective["lr"] == 0.002


class TestSweepCommand:
    def test_threshold_sweep_curve_rows(self, cli_corpus, tmp_path):
        root, corpus, model_path = cli_corpus
        out = tmp_path / "sw"
        rc = cli.main(["sweep", "threshold", "--corpus", str(corpus),
                       "--model", str(model_path), "--thresholds", "1:40",
                       "--out", str(out)])
        assert rc == EXIT_OK
        lines = (out / "threshold_sweep.txt").read_text().splitlines()
        assert len(lines) == 41  # header + 40


class TestDetect:
    def _malicious_trace_path(self, corpus):
        manifest = telemetry.load_manifest(corpus / "manifest.json")
        entry = next(e for e in manifest.entries if e.meta.is_malicious)
        return corpus / entry.path, entry.meta

    def test_alert_matches_batch_verdict(self, cli_corpus, tmp_path, capsys):
        root, corpus, model_path = cli_corpus
        trace_path, meta = self._malicious_trace_path(corpus)
        events = tmp_path / "events.jsonl"
        rc = cli.main(["detect", "--model", str(model_path), "--source",
                       str(trace_path), "--threshold", "20",
                       "--events", str(events)])
        assert rc == EXIT_ALERT
        lines = [json.loads(ln) for ln in events.read_text().splitlines()]
        alert = next(r for r in lines if r["event"] == "alert")
        artifact = models.load_model(model_path)
        trace = telemetry.parse_trace_csv(trace_path)
        batch = classify_file(predict_rows(artifact, trace),
                              DetectorConfig(consec_threshold=20))
        assert alert["row"] == batch.alert_row

    def test_benign_replay_ends_benign(self, cli_corpus):
        root, corpus, model_path = cli_corpus
        manifest = telemetry.load_manifest(corpus / "manifest.json")
        entry = next(e for e in manifest.entries if not e.meta.is_malicious)
        rc = cli.main(["detect", "--model", str(model_path),
                       "--source", str(corpus / entry.path), "--threshold", "20"])
        assert rc == EXIT_OK

    def test_checkpoint_resume(self, cli_corpus, tmp_path):
        root, corpus, model_path = cli_corpus
        trace_path, meta = self._malicious_trace_path(corpus)
        full = trace_path.read_text().splitlines(keepends=True)
        half_path = tmp_path / "half.csv"
        half_path.write_text("".join(full[:100]))
        ckpt = tmp_path / "state.json"
        events = tmp_path / "ev.jsonl"
        rc = cli.main(["detect", "--model", str(model_path), "--source",
                       str(half_path), "--threshold", "20",
                       "--checkpoint", str(ckpt), "--events", str(events)])
        state = json.loads(ckpt.read_text())
        assert state["source_rows_read"] == 99  # header consumed, 99 data rows
        # now replay the full file with the checkpoint: rows before the
        # checkpoint are skipped, detection picks up where it left off
        half_path.write_text("".join(full))
        rc = cli.main(["detect", "--model", str(model_path), "--source",
                       str(half_path), "--threshold", "20",
                       "--checkpoint", str(ckpt), "--events", str(events)])
        assert rc == EXIT_ALERT
        lines = [json.loads(ln) for ln in events.read_text().splitlines()]
        artifact = models.load_model(model_path)
        trace = telemetry.parse_trace_csv(trace_path)
        batch = classify_file(predict_rows(artifact, trace),
                              DetectorConfig(consec_threshold=20))
        alert = next(r for r in lines if r["event"] == "alert")
        assert alert["row"] == batch.alert_row


    def test_dirty_cells_alert_matches_batch_verdict(self, cli_corpus, tmp_path):
        # Blank, nan, inf and Yes cells and quoted numbers: the live path
        # reads them by the file parser's rules, so it alerts where the
        # batch path does.
        root, corpus, model_path = cli_corpus
        trace_path, meta = self._malicious_trace_path(corpus)
        lines = trace_path.read_bytes().decode("utf-8").split("\r\n")
        width = len(lines[0].split(","))
        tokens = ["", "nan", "inf", "Yes"]
        for k, i in enumerate(range(2, len(lines) - 1, 3)):
            cells = lines[i].split(",")
            cells[1 + k % (width - 2)] = tokens[k % len(tokens)]
            cells[1 + (k + 3) % (width - 2)] = f'"{cells[1 + (k + 3) % (width - 2)]}"'
            if k % 7 == 0:
                cells[-1] = tokens[k % len(tokens)]
            lines[i] = ",".join(cells)
        dirty = tmp_path / trace_path.name
        dirty.write_text("\r\n".join(lines), encoding="utf-8", newline="")
        events = tmp_path / "events.jsonl"
        rc = cli.main(["detect", "--model", str(model_path), "--source", str(dirty),
                       "--threshold", "20", "--events", str(events)])
        artifact = models.load_model(model_path)
        batch = classify_file(predict_rows(artifact, telemetry.parse_trace_csv(dirty)),
                              DetectorConfig(consec_threshold=20))
        assert batch.alert_row is not None
        assert rc == EXIT_ALERT
        lines = [json.loads(ln) for ln in events.read_text().splitlines()]
        alert = next(r for r in lines if r["event"] == "alert")
        assert alert["row"] == batch.alert_row

    @pytest.mark.parametrize("token", ["nan", "inf", "x"])
    def test_bad_time_cell_is_data_error(self, cli_corpus, tmp_path, capsys, token):
        root, corpus, model_path = cli_corpus
        trace_path, meta = self._malicious_trace_path(corpus)
        lines = trace_path.read_bytes().decode("utf-8").split("\r\n")
        lines[5] = token + lines[5][lines[5].index(","):]
        bad = tmp_path / "bad.csv"
        bad.write_text("\r\n".join(lines), encoding="utf-8", newline="")
        rc = cli.main(["detect", "--model", str(model_path), "--source", str(bad)])
        assert rc == EXIT_DATA
        assert "row 4 time" in capsys.readouterr().err

    @pytest.mark.parametrize("family,resume", [("mlp", False), ("mlp", True), ("rnn", False)])
    def test_time_stepping_back_is_data_error(self, cli_corpus, tmp_path, capsys,
                                              family, resume):
        root, corpus, model_path = cli_corpus
        trace_path, meta = self._malicious_trace_path(corpus)
        lines = trace_path.read_bytes().decode("utf-8").split("\r\n")
        # Data row 50 (line 51) takes row 48's time: the clock steps back.
        lines[51] = lines[49].split(",")[0] + lines[51][lines[51].index(","):]
        bad = tmp_path / "back.csv"
        bad.write_text("\r\n".join(lines), encoding="utf-8", newline="")
        if family == "rnn":
            F = len(lines[0].split(",")) - 2
            artifact = models.build_rnn(F, cell="vanilla", seed=0)
            artifact.sequence_length = 40  # row 50 is buffered, never scored
            model_path = tmp_path / "rnn.json"
            models.save_model(artifact, model_path)
        argv = ["detect", "--model", str(model_path), "--source", str(bad)]
        if resume:
            # Rows before the checkpoint replay through the predictor unscored.
            ckpt = tmp_path / "ckpt.json"
            ckpt.write_text(json.dumps({"rows_seen": 100, "run": 0, "alerted": False,
                                        "alert_row": None, "source_rows_read": 100}))
            argv += ["--checkpoint", str(ckpt)]
        assert cli.main(argv) == EXIT_DATA
        assert "t=24.0 after t=24.5" in capsys.readouterr().err

    def test_follow_waits_for_the_newline(self, tmp_path, monkeypatch):
        path = tmp_path / "live.csv"
        path.write_text("time_s,a,b\n0.0,1,2\n0.5")
        waits = []

        def writer_catches_up(seconds):
            waits.append(seconds)
            if len(waits) == 2:
                with open(path, "a") as fh:
                    fh.write(",4\n")

        monkeypatch.setattr(cli.time, "sleep", writer_catches_up)
        rows = cli._read_rows(str(path), follow=True, poll_s=0.01)
        index, row = next(rows)
        assert index == 0 and row.features.tolist() == [1.0, 2.0]
        with open(path, "a") as fh:
            fh.write(",3")  # still unfinished
        index, row = next(rows)
        assert index == 1 and row.t == 0.5 and row.features.tolist() == [3.0, 4.0]
        assert waits == [0.01, 0.01]

    def test_last_line_without_newline_is_parsed_without_follow(self, tmp_path):
        path = tmp_path / "done.csv"
        path.write_text("time_s,a,b\n0.0,1,2\n0.5,3,4")
        rows = [row.features.tolist() for _, row in cli._read_rows(str(path), follow=False)]
        assert rows == [[1.0, 2.0], [3.0, 4.0]]


class TestDetectConvResume:
    def test_stateful_predictor_resume_matches_full_replay(self, cli_corpus, tmp_path):
        # The conv predictor carries window history; resuming from a
        # checkpoint must rebuild it before stepping the counter.
        root, corpus, _ = cli_corpus
        run = tmp_path / "conv-run"
        rc = cli.main(["train", "--corpus", str(corpus), "--family",
                       "conv_multibranch", "--filters", "4", "--kernel", "4",
                       "--dense-units", "4", "--raw-window", "16",
                       "--down-window", "8", "--epochs", "30", "--lr", "2e-3",
                       "--rows-per-trace", "12", "--out", str(run)])
        assert rc == EXIT_OK
        model_path = run / "model.json"
        manifest = telemetry.load_manifest(corpus / "manifest.json")
        entry = next(e for e in manifest.entries if e.meta.is_malicious)
        trace_path = corpus / entry.path

        full_events = tmp_path / "full.jsonl"
        rc_full = cli.main(["detect", "--model", str(model_path), "--source",
                            str(trace_path), "--threshold", "15",
                            "--events", str(full_events)])

        lines = trace_path.read_text().splitlines(keepends=True)
        half = tmp_path / "half.csv"
        half.write_text("".join(lines[:120]))
        ckpt = tmp_path / "ckpt.json"
        resumed_events = tmp_path / "resumed.jsonl"
        cli.main(["detect", "--model", str(model_path), "--source", str(half),
                  "--threshold", "15", "--checkpoint", str(ckpt),
                  "--events", str(resumed_events)])
        half.write_text("".join(lines))
        rc_resumed = cli.main(["detect", "--model", str(model_path),
                               "--source", str(half), "--threshold", "15",
                               "--checkpoint", str(ckpt),
                               "--events", str(resumed_events)])
        assert rc_full == EXIT_ALERT  # the trained model must really alert
        assert rc_resumed == rc_full
        full_alert = next(json.loads(ln) for ln in
                          full_events.read_text().splitlines()
                          if json.loads(ln)["event"] == "alert")
        res_alert = next(json.loads(ln) for ln in
                         resumed_events.read_text().splitlines()
                         if json.loads(ln)["event"] == "alert")
        assert res_alert["row"] == full_alert["row"]


class TestInspect:
    def test_vanilla_rnn_reports_6833(self, tmp_path, capsys):
        artifact = models.build_rnn(132, cell="vanilla")
        path = tmp_path / "rnn.json"
        models.save_model(artifact, path)
        assert cli.main(["inspect", "--model", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "6833" in out

    def test_conv_reports_branch_windows(self, tmp_path, capsys):
        artifact = models.build_conv_multibranch(4, filters=2, kernel=2,
                                                 window=models.WindowConfig(8, 4))
        path = tmp_path / "conv.json"
        models.save_model(artifact, path)
        assert cli.main(["inspect", "--model", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "raw=8" in out and "down_mid=4" in out

    def test_corrupt_artifact_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["inspect", "--model", str(path)]) == EXIT_DATA

    def test_non_utf8_artifact_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        models.save_model(build_mlp(3, seed=0), path)
        data = bytearray(path.read_bytes())
        data[40] = 0xFF
        path.write_bytes(bytes(data))
        assert cli.main(["inspect", "--model", str(path)]) == EXIT_DATA
        assert "not a valid artifact file" in capsys.readouterr().err


class TestHelp:
    @pytest.mark.parametrize("command", [
        "generate", "validate", "split", "train", "eval", "sweep", "detect",
        "inspect"])
    def test_help_lists_defaults(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        assert "--config" in text
        if command in ("train", "eval", "sweep", "detect"):
            assert "default" in text
