import json
from pathlib import Path

import numpy as np
import pytest

from sidewatch import cli, models, telemetry
from sidewatch.cli import EXIT_ALERT, EXIT_DATA, EXIT_OK, EXIT_USAGE
from sidewatch.detector import DetectorConfig, classify_file
from sidewatch.evalharness import compute_metrics, evaluate_model
from sidewatch.featurize import chunk_sequences
from sidewatch.models import TrainConfig, build_mlp, build_rnn, predict_rows, train_model

DATA = Path(__file__).parent / "data"


def _reader(source) -> telemetry.TraceReader:
    """The reader `sidewatch detect` runs over the open binary *source*."""
    return telemetry.TraceReader(source, source.name)


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

    @pytest.mark.parametrize("doc, message", [
        ({"duration_s": float("nan")}, "duration"),
        ({"duration_s": float("inf")}, "duration"),
        ({"sample_period_s": float("nan")}, "sample period"),
        ({"difficulty": float("nan")}, "difficulty"),
        ({"difficulty": -1.0}, "difficulty"),
        ({"onset_choices": [float("nan")]}, "onset"),
    ])
    def test_non_finite_spec_value_is_data_error(self, tmp_path, capsys, doc, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))  # nan and inf as JSON's NaN and Infinity
        rc = cli.main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("doc, message", [
        ({"difficulty": "x"}, "difficulty must be a number"),
        ({"num_features": 2.5}, "num_features must be an integer"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"malware_counts": {"worm": 1.5}}, "malware_counts must map kinds to integer counts"),
        ({"onset_choices": ["90"]}, "onset_choices must be a list of numbers"),
        ({"seed": -1}, "seed must be >= 0"),
    ])
    def test_wrong_spec_value_type_is_data_error(self, tmp_path, capsys, doc, message):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        rc = cli.main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("doc", [
        {"duration_s": 0.2, "onset_choices": [0.0], "num_features": 4},
        {"duration_s": 1.0, "sample_period_s": 1.0, "onset_choices": [0.0], "num_features": 4},
    ])
    def test_spec_of_fewer_than_two_rows_is_data_error(self, tmp_path, capsys, doc):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(doc))
        rc = cli.main(["generate", "--spec", str(spec_path), "--out", str(tmp_path / "x")])
        assert rc == EXIT_DATA
        assert "a trace needs at least 2" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

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

    def test_non_utf8_file_is_skipped(self, tmp_path, capsys):
        corpus = tmp_path / "c"
        corpus.mkdir()
        (corpus / "x_Win7SP1_hw1_office.csv").write_text("time_s,a,label\n0.0,1,0\n0.5,2,0\n")
        (corpus / "y_Win7SP1_hw1_office.csv").write_bytes(
            b"time_s,a,label\n0.0,1,0\n0.5,\xff,0\n")
        assert cli.main(["validate", "--corpus", str(corpus)]) == EXIT_DATA
        out = capsys.readouterr().out
        assert "y_Win7SP1_hw1_office.csv: skipped (UndecodableRowError: " in out
        assert "row 1 is not UTF-8" in out
        assert "validated 1 traces, 0 violations, 1 skipped files" in out

    @pytest.mark.parametrize("with_manifest", [False, True])
    def test_every_file_is_checked(self, tmp_path, capsys, with_manifest):
        # One clean file, one that stops parsing at a non-UTF-8 byte, one
        # benign file labelled malicious. A manifest written before the bad
        # byte went in still lists that file; it must not hide the others.
        corpus = tmp_path / "c"
        corpus.mkdir()
        clean, undecodable, mislabelled = (corpus / f"{name}_Win7SP1_hw1_office.csv"
                                           for name in ("a", "b", "c"))
        clean.write_text("time_s,a,label\n0.0,1,0\n0.5,2,0\n")
        undecodable.write_text("time_s,a,label\n0.0,1,0\n0.5,2,0\n")
        mislabelled.write_text("time_s,a,label\n0.0,1,1\n0.5,2,1\n")
        if with_manifest:
            telemetry.save_manifest(telemetry.build_manifest(corpus),
                                    corpus / telemetry.MANIFEST_FILENAME)
        undecodable.write_bytes(b"time_s,a,label\n0.0,1,0\n0.5,\xff,0\n")
        assert cli.main(["validate", "--corpus", str(corpus)]) == EXIT_DATA
        out = capsys.readouterr().out
        assert "b_Win7SP1_hw1_office.csv: skipped (UndecodableRowError: " in out
        assert "row 1 is not UTF-8" in out
        assert "c: benign-trace-all-benign at row 0: " in out
        assert "validated 2 traces, 1 violations, 1 skipped files" in out


class TestTrainEval:
    def test_artifact_reloads_and_predicts_identically(self, cli_corpus):
        root, corpus, model_path = cli_corpus
        artifact = models.load_model(model_path)
        manifest = telemetry.load_manifest(corpus / "manifest.json")
        test = telemetry.load_traces(manifest, corpus, "test")
        p1 = predict_rows(artifact, test[0])
        p2 = predict_rows(models.load_model(model_path), test[0])
        np.testing.assert_array_equal(p1, p2)

    @pytest.mark.parametrize("flag", ["--epochs", "--batch-size", "--rows-per-trace",
                                      "--seq-len", "--filters", "--kernel", "--dense-units",
                                      "--raw-window", "--down-window"])
    def test_zero_count_is_usage_error(self, cli_corpus, flag, capsys):
        root, corpus, _ = cli_corpus
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--corpus", str(corpus), "--family", "mlp", flag, "0"])
        assert exc.value.code == EXIT_USAGE
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        ("eval", "--threshold", "0"),
        ("eval", "--cutoff", "1.5"),
        ("detect", "--cutoff", "0"),
        ("sweep", "--thresholds", "0"),
        ("train", "--dropout", "1.0"),
        ("train", "--lr", "-1"),
        ("train", "--val-fraction", "1.0"),
        ("train", "--patience", "-1"),
        ("split", "--train-benign", "-1"),
        ("generate", "--features", "0"),
        ("generate", "--difficulty", "NaN"),
        ("generate", "--difficulty", "-1"),
        ("generate", "--duration", "NaN"),
        ("generate", "--duration", "Infinity"),
        ("eval", "--period", "NaN"),
        ("detect", "--period", "0"),
        ("train", "--dim", "0"),
        ("train", "--hidden", "0"),
        ("sweep", "--dims", "0"),
    ])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, command, flag, value,
                                               route):
        # Neither corpus nor model exists: the value must be refused first.
        absent = str(tmp_path / "absent")
        argv = {"generate": ["generate", "--out", absent],
                "eval": ["eval", "--corpus", absent, "--model", absent],
                "detect": ["detect", "--model", absent],
                "sweep": ["sweep", "threshold", "--corpus", absent, "--model", absent],
                "train": ["train", "--corpus", absent, "--family", "mlp"],
                "split": ["split", "--corpus", absent]}[command]
        if route == "flag":
            argv += [flag, value]
        else:
            cfg = tmp_path / "config.json"
            cfg.write_text(json.dumps({flag[2:].replace("-", "_"): json.loads(value)}))
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "must be" in err and "Traceback" not in err

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

    @pytest.mark.parametrize("family,message", [
        ("autoencoder", "autoencoder cannot be evaluated against traces"),
        ("rnn_gru", "sequence model has no configured length"),
    ])
    def test_unevaluable_artifact_is_data_error(self, cli_corpus, tmp_path, capsys,
                                                family, message):
        root, corpus, _ = cli_corpus
        if family == "autoencoder":
            artifact = models.build_autoencoder(8, 3, seed=0)
        else:
            artifact = models.build_rnn(8, cell="gru", seed=0)  # no sequence length
        path = tmp_path / f"{family}.json"
        models.save_model(artifact, path)
        rc = cli.main(["eval", "--corpus", str(corpus), "--model", str(path),
                       "--out", str(tmp_path / "e")])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err

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

    def test_every_config_spelling_applies_the_file(self, cli_corpus, tmp_path):
        # argparse takes "--config FILE", "--config=FILE" and the prefix
        # "--conf FILE" alike; each must fold the file in.
        root, corpus, _ = cli_corpus
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"epochs": 1, "hidden": "4"}))
        runs = []
        for i, spelling in enumerate((["--config", str(cfg)], [f"--config={cfg}"],
                                      ["--conf", str(cfg)])):
            out = tmp_path / f"run{i}"
            rc = cli.main(["train", *spelling, "--corpus", str(corpus),
                           "--family", "mlp", "--out", str(out)])
            assert rc == EXIT_OK, spelling
            effective = json.loads((out / "effective_config.json").read_text())
            assert effective.pop("out") == str(out)
            assert effective["epochs"] == 1 and effective["hidden"] == [4], spelling
            runs.append((effective, (out / "model.json").read_bytes()))
        assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_config_equals_form_unknown_key_rejected(self, cli_corpus, tmp_path, capsys):
        root, corpus, _ = cli_corpus
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"no_such_flag": 1}))
        rc = cli.main(["train", f"--config={cfg}", "--corpus", str(corpus),
                       "--family", "mlp", "--out", str(tmp_path / "r")])
        assert rc == EXIT_DATA
        assert "no_such_flag" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

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

    @pytest.mark.parametrize("spelling", ["--config", "--config=", "--conf"])
    def test_config_file_gives_a_required_flag(self, cli_corpus, tmp_path, spelling):
        # README's annotated train example puts "family" in the file.
        root, corpus, _ = cli_corpus
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"family": "mlp", "epochs": 2}))
        out = tmp_path / "run"
        named = [f"--config={cfg}"] if spelling.endswith("=") else [spelling, str(cfg)]
        rc = cli.main(["train", *named, "--corpus", str(corpus), "--out", str(out)])
        assert rc == EXIT_OK
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["family"] == "mlp" and effective["epochs"] == 2

    def test_line_beats_a_required_flag_from_the_file(self, cli_corpus, tmp_path):
        root, corpus, _ = cli_corpus
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"family": "rnn_gru", "corpus": str(tmp_path / "none"),
                                   "epochs": 1, "hidden": "4"}))
        out = tmp_path / "run"
        rc = cli.main(["train", "--config", str(cfg), "--family", "mlp",
                       "--corpus", str(corpus), "--out", str(out)])
        assert rc == EXIT_OK
        effective = json.loads((out / "effective_config.json").read_text())
        assert effective["family"] == "mlp" and effective["corpus"] == str(corpus)

    def test_eval_models_from_the_file(self, cli_corpus, tmp_path):
        root, corpus, model_path = cli_corpus
        cfg = tmp_path / "eval.json"
        cfg.write_text(json.dumps({"model": [str(model_path)]}))
        outs = tmp_path / "file", tmp_path / "line"
        assert cli.main(["eval", "--config", str(cfg), "--corpus", str(corpus),
                         "--out", str(outs[0])]) == EXIT_OK
        assert cli.main(["eval", "--model", str(model_path), "--corpus", str(corpus),
                         "--out", str(outs[1])]) == EXIT_OK
        assert (outs[0] / "report.json").read_bytes() == (outs[1] / "report.json").read_bytes()

    def test_ambiguous_config_prefix_is_usage_error(self, cli_corpus, tmp_path, capsys):
        # "--co" could be --corpus or --config: argparse refuses it, before
        # any file is read.
        root, corpus, _ = cli_corpus
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"family": "mlp"}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--co", str(cfg), "--family", "mlp", "--out", str(tmp_path / "r")])
        assert exc.value.code == EXIT_USAGE
        assert "ambiguous option: --co" in capsys.readouterr().err

    def test_required_flag_the_file_lacks_is_still_required(self, cli_corpus, tmp_path, capsys):
        cfg = tmp_path / "train.json"
        cfg.write_text(json.dumps({"family": "mlp"}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["train", "--config", str(cfg)])
        assert exc.value.code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "the following arguments are required: --corpus" in err
        assert " --corpus CORPUS" in err and "[--corpus" not in err  # the full parse's usage

    def test_train_loads_the_encoder_once(self, cli_corpus, tmp_path, monkeypatch):
        root, corpus, _ = cli_corpus
        encoder_path = tmp_path / "encoder.json"
        models.save_model(models.build_autoencoder(8, 3, seed=0), encoder_path)
        loads = []
        load_model = models.load_model

        def counting(path):
            loads.append(path)
            return load_model(path)

        monkeypatch.setattr(models, "load_model", counting)
        out = tmp_path / "run"
        rc = cli.main(["train", "--corpus", str(corpus), "--family", "mlp", "--hidden", "4",
                       "--epochs", "1", "--encoder", str(encoder_path), "--out", str(out)])
        assert rc == EXIT_OK
        assert loads == [encoder_path]
        trained = load_model(out / "model.json")
        assert trained.input_dim == 3 and trained.encoder.hyper["bottleneck"] == 3


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

    def test_seqlen_sweep_rows_are_eval_sequence_accuracy(self, micro_corpus, micro_traces,
                                                          tmp_path):
        # Each row is the sequence accuracy `eval` gives the model the sweep
        # trains at that length: point index as seed, the CLI's defaults.
        root, _, _ = micro_corpus
        train, test = micro_traces
        out = tmp_path / "sw"
        rc = cli.main(["sweep", "seqlen", "--corpus", str(root), "--lengths", "10,40",
                       "--variants", "rnn_gru", "--epochs", "1", "--out", str(out)])
        assert rc == EXIT_OK
        expect = ["# sequence_length\tsequence_accuracy"]
        for point, L in enumerate((10, 40)):
            model = build_rnn(train[0].num_features, cell="gru", seed=point)
            train_model(model, chunk_sequences(train, L), TrainConfig(max_epochs=1, seed=point))
            section = evaluate_model(model, test, DetectorConfig())
            expect.append(f"{L}\t{compute_metrics(section.seq_confusion).accuracy!r}")
        assert (out / "seqlen_sweep_rnn_gru.txt").read_text().splitlines() == expect

    def test_threshold_sweep_without_model_is_usage_error(self, tmp_path, capsys):
        # The corpus does not exist: --model must be asked for before it loads.
        rc = cli.main(["sweep", "threshold", "--corpus", str(tmp_path / "absent")])
        assert rc == EXIT_USAGE
        assert "--model" in capsys.readouterr().err

    @pytest.mark.parametrize("kind,flag,value", [
        ("seqlen", "variants", "rnn_gru,rnn_foo"),
        ("encoding", "families", "mlp,rnn_gru"),
    ])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_unknown_sweep_name_is_usage_error(self, tmp_path, capsys, kind, flag,
                                               value, route):
        # The corpus does not exist: the name must be refused before it loads.
        argv = ["sweep", kind, "--corpus", str(tmp_path / "absent")]
        if route == "flag":
            argv += [f"--{flag}", value]
        else:
            cfg = tmp_path / "sweep.json"
            cfg.write_text(json.dumps({flag: value.split(",")}))
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == EXIT_USAGE
        bad = value.split(",")[1]
        assert repr(bad) in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["0", "-3", "5,0"])
    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_nonpositive_sequence_length_is_usage_error(self, tmp_path, capsys, value,
                                                        route):
        # The corpus does not exist: the length must be refused before it loads.
        argv = ["sweep", "seqlen", "--corpus", str(tmp_path / "absent")]
        if route == "flag":
            argv += ["--lengths", value]
        else:
            cfg = tmp_path / "sweep.json"
            cfg.write_text(json.dumps({"lengths": [int(v) for v in value.split(",")]}))
            argv += ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == EXIT_USAGE
        assert "positive integer" in capsys.readouterr().err


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

    def test_non_utf8_row_is_data_error(self, cli_corpus, tmp_path, capsys):
        root, corpus, model_path = cli_corpus
        trace_path, meta = self._malicious_trace_path(corpus)
        lines = trace_path.read_bytes().split(b"\r\n")
        lines[61] = lines[61].replace(b",", b",\xff", 1)  # data row 60
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\r\n".join(lines))
        ckpt = tmp_path / "ckpt.json"
        rc = cli.main(["detect", "--model", str(model_path), "--source", str(bad),
                       "--checkpoint", str(ckpt)])
        assert rc == EXIT_DATA
        assert "row 60 is not UTF-8" in capsys.readouterr().err
        # The rows before the bad one were scored.
        saved = json.loads(ckpt.read_text())
        assert saved["rows_seen"] == saved["source_rows_read"] == 60

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
        assert "row 50 time 24.0 is not later than row 49 time 24.5" in capsys.readouterr().err

    @pytest.mark.parametrize("content", [
        "{}", "", '{"rows_seen": 100, "run": 0, "alert', "[]",
        '{"rows_seen": "100", "run": 0, "alerted": false, "alert_row": null,'
        ' "source_rows_read": 100}'])
    def test_bad_checkpoint_is_data_error(self, cli_corpus, tmp_path, capsys, content):
        root, corpus, model_path = cli_corpus
        trace_path, meta = self._malicious_trace_path(corpus)
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text(content)
        rc = cli.main(["detect", "--model", str(model_path), "--source", str(trace_path),
                       "--checkpoint", str(ckpt)])
        assert rc == EXIT_DATA
        assert f"{ckpt}: not a detect checkpoint" in capsys.readouterr().err
        assert ckpt.read_text() == content

    def test_interrupted_checkpoint_write_keeps_the_previous_one(
            self, cli_corpus, tmp_path, monkeypatch):
        root, corpus, model_path = cli_corpus
        trace_path, meta = self._malicious_trace_path(corpus)
        ckpt = tmp_path / "ckpt.json"
        argv = ["detect", "--model", str(model_path), "--source", str(trace_path),
                "--checkpoint", str(ckpt), "--events", str(tmp_path / "ev.jsonl")]
        cli.main(argv)
        saved = ckpt.read_text()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json", "ev.jsonl"]

        def torn_dump(obj, fh, **kwargs):
            fh.write('{"rows_seen": ')
            raise OSError("no space left on device")

        monkeypatch.setattr(cli.json, "dump", torn_dump)
        assert cli.main(argv) == EXIT_DATA
        assert ckpt.read_text() == saved

    def test_autoencoder_cannot_stream_rows(self, tmp_path, capsys):
        path = tmp_path / "ae.json"
        models.save_model(models.build_autoencoder(8, 3, seed=0), path)
        rc = cli.main(["detect", "--model", str(path), "--source", str(tmp_path / "unread.csv")])
        assert rc == EXIT_DATA
        assert "autoencoder cannot stream rows" in capsys.readouterr().err

    def test_missing_source_writes_nothing(self, cli_corpus, tmp_path, capsys):
        root, corpus, model_path = cli_corpus
        events, ckpt = tmp_path / "ev.jsonl", tmp_path / "ck.json"
        argv = ["detect", "--model", str(model_path), "--source", str(tmp_path / "missing.csv"),
                "--events", str(events), "--checkpoint", str(ckpt)]
        assert cli.main(argv[:-2]) == EXIT_DATA
        assert "i/o error" in capsys.readouterr().err
        assert not events.exists()

        trace_path, _ = self._malicious_trace_path(corpus)
        assert cli.main(["detect", "--model", str(model_path), "--source", str(trace_path),
                         "--threshold", "20", "--checkpoint", str(ckpt)]) == EXIT_ALERT
        saved = ckpt.read_bytes()
        events.unlink(missing_ok=True)
        assert cli.main(argv) == EXIT_DATA
        assert not events.exists()
        assert ckpt.read_bytes() == saved
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]

    def test_follow_waits_for_the_newline(self, tmp_path, monkeypatch):
        path = tmp_path / "live.csv"
        path.write_text("time_s,a,b\n0.0,1,2\n0.5")
        waits = []

        def writer_catches_up(seconds):
            waits.append(seconds)
            if len(waits) == 2:
                with open(path, "a") as fh:
                    fh.write(",4\n")

        monkeypatch.setattr(telemetry.time, "sleep", writer_catches_up)
        with open(path, "rb") as source:
            blocks = _reader(source).blocks(wait=True, poll_s=0.01)
            index, times, features, _ = next(blocks)
            assert index == 0 and features.tolist() == [[1.0, 2.0]]
            with open(path, "a") as fh:
                fh.write(",3")  # still unfinished
            index, times, features, _ = next(blocks)
        assert index == 1 and times.tolist() == [0.5] and features.tolist() == [[3.0, 4.0]]
        assert waits == [0.01, 0.01]

    def test_last_line_without_newline_is_parsed_without_follow(self, tmp_path):
        path = tmp_path / "done.csv"
        path.write_text("time_s,a,b\n0.0,1,2\n0.5,3,4")
        with open(path, "rb") as source:
            rows = [row for _, _, features, _ in _reader(source).blocks()
                    for row in features.tolist()]
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
        data = bytearray((DATA / "v1_mlp.json").read_bytes())
        data[40] = 0xFF
        path.write_bytes(bytes(data))
        assert cli.main(["inspect", "--model", str(path)]) == EXIT_DATA
        assert "not a valid artifact file" in capsys.readouterr().err

    def test_non_utf8_v2_header_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "model.json"
        models.save_model(build_mlp(3, seed=0), path)
        data = bytearray(path.read_bytes())
        data[48 + 5] = 0xFF  # inside the header, after magic, length and digest
        path.write_bytes(bytes(data))
        assert cli.main(["inspect", "--model", str(path)]) == EXIT_DATA
        assert "not a valid artifact file" in capsys.readouterr().err


class TestMalformedJson:
    """Every JSON file the CLI reads: one that is not UTF-8 JSON, or not an
    object, is a data error naming the file."""

    @pytest.mark.parametrize("content", [b"{not json", b"\xff\xfe", b"[1, 2]"],
                             ids=["not-json", "not-utf8", "list"])
    @pytest.mark.parametrize("kind", ["manifest", "spec", "config", "checkpoint"])
    def test_is_data_error_naming_the_file(self, cli_corpus, tmp_path, capsys, kind, content):
        root, corpus, model_path = cli_corpus
        bad_corpus = tmp_path / "corpus"
        bad_corpus.mkdir()
        path = bad_corpus / "manifest.json" if kind == "manifest" else tmp_path / f"{kind}.json"
        path.write_bytes(content)
        argv = {
            "manifest": ["validate", "--corpus", str(bad_corpus)],
            "spec": ["generate", "--spec", str(path), "--out", str(tmp_path / "out")],
            "config": ["validate", "--config", str(path), "--corpus", str(bad_corpus)],
            "checkpoint": ["detect", "--model", str(model_path), "--checkpoint", str(path),
                           "--source", str(tmp_path / "unread.csv")],
        }[kind]
        assert cli.main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("defect", ["format", "version", "no os", "entry not an object"])
    @pytest.mark.parametrize("command", ["validate", "split", "train"])
    def test_bad_manifest_is_data_error(self, cli_corpus, tmp_path, capsys, defect, command):
        root, corpus, _ = cli_corpus
        doc = json.loads((corpus / "manifest.json").read_text())
        if defect == "format":
            doc = {"format": "nope"}
        elif defect == "version":
            doc["version"] = 2
        elif defect == "no os":
            del doc["entries"][0]["meta"]["os"]
        else:
            doc["entries"][0] = doc["entries"][0]["path"]
        bad_corpus = tmp_path / "corpus"
        bad_corpus.mkdir()
        (bad_corpus / "manifest.json").write_text(json.dumps(doc))
        argv = [command, "--corpus", str(bad_corpus)]
        if command == "train":
            argv += ["--family", "mlp", "--out", str(tmp_path / "run")]
        assert cli.main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert str(bad_corpus / "manifest.json") in err and err.count("\n") == 1


class TestHelp:
    @pytest.mark.parametrize("command", [
        None, "generate", "validate", "split", "train", "eval", "sweep", "detect", "inspect"])
    def test_help_text_is_pinned(self, command, monkeypatch, capsys):
        # The texts under tests/data/help were rendered at 80 columns.
        monkeypatch.setenv("COLUMNS", "80")
        want = (DATA / "help" / f"{command or 'sidewatch'}.txt").read_text(encoding="utf-8")
        parser = cli.build_parser()
        assert (cli._subparsers(parser)[command] if command else parser).format_help() == want
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"] if command else ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == want

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
