"""Single command-line entry point.

Sub-commands: generate, validate, split, train, eval, sweep, detect,
inspect. Exit codes: 0 success (or detection stream ended benign),
1 usage error, 2 data error, 3 detection stream ended in the alerted
state.

Config precedence: built-in defaults < --config JSON file < command-line
flags. The JSON file maps flag destinations (e.g. ``{"epochs": 20}``) to
values; unknown keys are rejected. Every command writes its effective
configuration next to its outputs so runs are reproducible.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, evalharness, models, synthgen, telemetry
from .detector import DetectorConfig, StreamState, advance_clock, stream_step
from .errors import SidewatchError
from .featurize import chunk_sequences
from .models import TrainConfig
from .nn import OptimizerSpec
from .telemetry import MANIFEST_FILENAME

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_ALERT = 3


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the documented usage-error code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    """Parse '1,2,3' or '1:100' (inclusive range) into a list of ints."""
    text = text.strip()
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok)


def _write_effective_config(args: argparse.Namespace, out_dir: Path, command: str) -> None:
    doc = {k: v for k, v in sorted(vars(args).items())
           if k not in ("func", "config") and not k.startswith("_")}
    doc = {k: (str(v) if isinstance(v, Path) else v) for k, v in doc.items()}
    doc["command"] = command
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "effective_config.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _default_out(command: str, seed: int) -> Path:
    stamp = time.strftime("%Y%m%d-%H%M%S")
    return Path("runs") / f"{stamp}-{command}-seed{seed}"


def _load_corpus(corpus: Path, split: str | None):
    manifest_path = corpus / MANIFEST_FILENAME
    if manifest_path.exists():
        manifest = telemetry.load_manifest(manifest_path)
    else:
        manifest = telemetry.build_manifest(corpus)
    return manifest, telemetry.load_traces(manifest, corpus, split)


def _detector_config(args) -> DetectorConfig:
    return DetectorConfig(
        prob_cutoff=args.cutoff,
        consec_threshold=args.threshold,
        sample_period_s=args.period,
        latching=not getattr(args, "no_latch", False),
        rnn_aggregation=getattr(args, "rnn_aggregation", "any"),
    )


def _train_config(args) -> TrainConfig:
    opt = OptimizerSpec(kind=args.optimizer, learning_rate=args.lr)
    return TrainConfig(
        optimizer=opt,
        max_epochs=args.epochs,
        batch_size=args.batch_size,
        early_stop_patience=args.patience,
        seed=args.seed,
        validation_fraction=args.val_fraction,
        rows_per_trace=args.rows_per_trace,
    )


def _add_detector_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cutoff", type=float, default=0.5,
                   help="row probability above which a row is malicious (default 0.5)")
    p.add_argument("--threshold", type=int, default=50,
                   help="consecutive malicious samples to flag a file (default 50)")
    p.add_argument("--period", type=float, default=0.5,
                   help="sample period in seconds for detection timing (default 0.5)")
    p.add_argument("--rnn-aggregation", choices=("any", "majority"), default="any",
                   help="how sequence verdicts roll up to a file verdict (default any)")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=_positive_int, default=100,
                   help="maximum training epochs/iterations (default 100)")
    p.add_argument("--batch-size", type=_positive_int, default=32,
                   help="minibatch size (default 32)")
    p.add_argument("--lr", type=float, default=1e-3, help="learning rate (default 1e-3)")
    p.add_argument("--optimizer", choices=("adam", "rmsprop"), default="adam",
                   help="optimizer kind (default adam)")
    p.add_argument("--patience", type=int, default=None,
                   help="early-stop patience in epochs (default: no early stop)")
    p.add_argument("--val-fraction", type=float, default=0.0,
                   help="fraction of training data held out for validation (default 0)")
    p.add_argument("--rows-per-trace", type=_positive_int, default=16,
                   help="conv training rows sampled per trace per epoch (default 16)")
    p.add_argument("--seed", type=int, default=0, help="training seed (default 0)")


# --- generate ------------------------------------------------------------------


def _cmd_generate(args) -> int:
    doc = {}
    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.difficulty is not None:
        doc["difficulty"] = args.difficulty
    if args.features is not None:
        doc["num_features"] = args.features
    if args.duration is not None:
        doc["duration_s"] = args.duration
    spec = synthgen.corpus_spec_from_dict(doc)
    out = args.out or _default_out("generate", spec.seed)
    manifest = synthgen.generate_corpus(spec, out)
    with open(Path(out) / "corpus_spec.json", "w", encoding="utf-8") as fh:
        json.dump(synthgen.corpus_spec_to_dict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_effective_config(args, Path(out), "generate")
    n_mal = sum(1 for e in manifest.entries if e.meta.is_malicious)
    print(f"wrote {len(manifest.entries)} traces ({n_mal} malicious, "
          f"{len(manifest.entries) - n_mal} benign) to {out}")
    return EXIT_OK


# --- validate ------------------------------------------------------------------


def _cmd_validate(args) -> int:
    manifest, traces = _load_corpus(args.corpus, None)
    bad = 0
    for trace in traces:
        for v in telemetry.validate_trace(trace):
            print(f"{trace.meta.subject_name}: {v}")
            bad += 1
    for path, reason in manifest.skipped:
        print(f"{path}: skipped ({reason})")
    print(f"validated {len(traces)} traces, {bad} violations, "
          f"{len(manifest.skipped)} skipped files")
    return EXIT_DATA if (bad or manifest.skipped) else EXIT_OK


# --- split ---------------------------------------------------------------------


def _cmd_split(args) -> int:
    manifest_path = args.corpus / MANIFEST_FILENAME
    if manifest_path.exists():
        manifest = telemetry.load_manifest(manifest_path)
    else:
        manifest = telemetry.build_manifest(args.corpus)
    test_counts = None
    if args.test_benign is not None or args.test_malicious is not None:
        if args.test_benign is None or args.test_malicious is None:
            print("give both --test-benign and --test-malicious or neither",
                  file=sys.stderr)
            return EXIT_USAGE
        test_counts = (args.test_benign, args.test_malicious)
    manifest = evalharness.stratified_split(
        manifest, (args.train_benign, args.train_malicious), args.seed,
        test_counts=test_counts)
    telemetry.save_manifest(manifest, manifest_path)
    n = {tag: len(manifest.select(tag)) for tag in ("train", "test", "unassigned")}
    print(f"tagged {n['train']} train / {n['test']} test / "
          f"{n['unassigned']} unassigned -> {manifest_path}")
    return EXIT_OK


# --- train ---------------------------------------------------------------------


def _build_for_train(args, F: int) -> models.ModelArtifact:
    fam = args.family
    if fam == "mlp":
        return models.build_mlp(F, hidden=args.hidden, seed=args.seed)
    if fam == "conv_multibranch":
        return models.build_conv_multibranch(
            F, window=models.WindowConfig(args.raw_window, args.down_window),
            filters=args.filters, kernel=args.kernel, dense_units=args.dense_units,
            dropout=args.dropout, seed=args.seed)
    if fam == "autoencoder":
        return models.build_autoencoder(F, args.dim, seed=args.seed)
    cell, bi = evalharness._variant_parts(fam)
    return models.build_rnn(F, cell=cell, bidirectional=bi, seed=args.seed)


def _cmd_train(args) -> int:
    manifest, traces = _load_corpus(args.corpus, "train")
    if not traces:
        # An untagged corpus: train on everything (single-corpus workflows).
        manifest, traces = _load_corpus(args.corpus, None)
    if not traces:
        print("no training traces found", file=sys.stderr)
        return EXIT_DATA
    F = traces[0].num_features
    artifact = _build_for_train(args, F if args.encoder is None
                                else models.load_model(args.encoder).hyper["bottleneck"])
    if args.encoder is not None:
        artifact.encoder = models.load_model(args.encoder)
    config = _train_config(args)

    if artifact.family == "mlp":
        X = np.vstack([t.features for t in traces])
        y = np.concatenate([t.labels for t in traces])
        data = (X, y)
    elif artifact.family == "autoencoder":
        data = np.vstack([t.features for t in traces])
    elif artifact.family == "conv_multibranch":
        data = traces
    else:
        data = chunk_sequences(traces, args.seq_len)
    artifact, log = models.train_model(artifact, data, config)

    out = args.out or _default_out("train", args.seed)
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    models.save_model(artifact, out / "model.json")
    models.write_training_log(log, out / "training_log.txt")
    _write_effective_config(args, out, "train")
    print(f"trained {artifact.family} ({artifact.param_count} parameters, "
          f"{artifact.epochs_trained} epochs) -> {out / 'model.json'}")
    return EXIT_OK


# --- eval ----------------------------------------------------------------------


def _cmd_eval(args) -> int:
    manifest, traces = _load_corpus(args.corpus, "test")
    if not traces:
        print("no test-tagged traces in the corpus", file=sys.stderr)
        return EXIT_DATA
    cfg = _detector_config(args)
    report = evalharness.EvalReport(config={
        "detector": {"prob_cutoff": cfg.prob_cutoff, "consec_threshold": cfg.consec_threshold,
                     "sample_period_s": cfg.sample_period_s,
                     "rnn_aggregation": cfg.rnn_aggregation},
        "models": [str(m) for m in args.model],
        "corpus": str(args.corpus),
    })
    for path in args.model:
        artifact = models.load_model(path)
        report.sections.append(
            evalharness.evaluate_model(artifact, traces, cfg, label=Path(path).stem))
    out = Path(args.out or _default_out("eval", 0))
    written = evalharness.emit_report(report, out)
    _write_effective_config(args, out, "eval")
    print(evalharness.summary_table(report), end="")
    print(f"report files: {', '.join(str(p) for p in written)}")
    return EXIT_OK


# --- sweep ---------------------------------------------------------------------


def _cmd_sweep(args) -> int:
    manifest, test_traces = _load_corpus(args.corpus, "test")
    cfg = _detector_config(args)
    out = Path(args.out or _default_out(f"sweep-{args.kind}", args.seed))
    report = evalharness.EvalReport(config={"sweep": args.kind, "seed": args.seed})

    if args.kind == "threshold":
        artifact = models.load_model(args.model)
        report.threshold_curve = evalharness.sweep_threshold(
            artifact, test_traces, args.thresholds, cfg)
    else:
        _, train_traces = _load_corpus(args.corpus, "train")
        if not train_traces or not test_traces:
            print("sweep needs train- and test-tagged traces", file=sys.stderr)
            return EXIT_DATA
        train_cfg = _train_config(args)
        if args.kind == "encoding":
            report.encoding_curves = evalharness.sweep_encoding_dims(
                args.dims, args.families, train_traces, test_traces,
                ae_config=train_cfg, clf_config=train_cfg, cfg=cfg, seed=args.seed)
        else:  # seqlen
            report.seqlen_results = evalharness.sweep_sequence_length(
                args.lengths, args.variants, train_traces, test_traces,
                train_config=train_cfg, cfg=cfg, seed=args.seed)

    written = evalharness.emit_report(report, out)
    _write_effective_config(args, out, "sweep")
    print(f"sweep wrote: {', '.join(str(p) for p in written)}")
    return EXIT_OK


# --- detect --------------------------------------------------------------------


def _read_rows(source, follow: bool, poll_s: float = 0.2):
    """Yield (index, SampleRow) from a trace CSV path or '-' (stdin).

    Cells are read by the trace file rules (telemetry.RowParser). When
    following a file, a line is parsed only once its newline has arrived;
    otherwise a last line without one is parsed as it stands.
    """
    if source == "-":
        fh = sys.stdin
        close = False
    else:
        fh = open(source, "r", encoding="utf-8", newline="")
        close = True
    wait = follow and source != "-"
    try:
        parser = None
        index = 0
        partial = ""
        while True:
            line = partial + fh.readline()
            if wait and not line.endswith("\n"):
                partial = line  # the writer has not finished this line yet
                time.sleep(poll_s)
                continue
            partial = ""
            if not line:
                return
            if not line.strip():
                continue
            cells = next(csv.reader([line]))
            if parser is None:
                parser = telemetry.RowParser(cells, where=str(source))
                continue
            row = parser.parse(cells)
            index += 1
            yield index - 1, row
    finally:
        if close:
            fh.close()


def _cmd_detect(args) -> int:
    artifact = models.load_model(args.model)
    if artifact.family in models.ROW_FAMILIES:
        predictor = models.RowStreamPredictor(artifact)
    else:
        predictor = models.SequenceStreamPredictor(artifact)

    state = StreamState(cfg=_detector_config(args))
    start_index = 0
    if args.checkpoint and Path(args.checkpoint).exists():
        with open(args.checkpoint, "r", encoding="utf-8") as fh:
            saved = json.load(fh)
        state.rows_seen = saved["rows_seen"]
        state.run = saved["run"]
        state.alerted = saved["alerted"]
        state.alert_row = saved["alert_row"]
        start_index = saved["source_rows_read"]

    events_fh = open(args.events, "a", encoding="utf-8") if args.events else sys.stdout
    rows_read = 0
    try:
        for index, row in _read_rows(args.source, args.follow):
            rows_read = index + 1
            # Rows before the checkpoint still replay through the predictor
            # so its feature history (windows, chunk buffers) is rebuilt;
            # only the detector counter skips them. Every row's time is
            # checked, scored or not.
            prob = predictor.push(row)
            if index < start_index or prob is None:
                advance_clock(state, row)
                continue
            event = stream_step(state, row, prob=prob)
            if event != "none":
                record = {"event": event, "row": index, "t": row.t,
                          "model": artifact.family, "probability": prob}
                events_fh.write(json.dumps(record, sort_keys=True) + "\n")
                events_fh.flush()
    except KeyboardInterrupt:
        pass
    finally:
        if args.checkpoint:
            with open(args.checkpoint, "w", encoding="utf-8") as fh:
                json.dump({
                    "rows_seen": state.rows_seen,
                    "run": state.run,
                    "alerted": state.alerted,
                    "alert_row": state.alert_row,
                    "source_rows_read": max(rows_read, start_index),
                }, fh, indent=2, sort_keys=True)
                fh.write("\n")
        if events_fh is not sys.stdout:
            events_fh.close()
    return EXIT_ALERT if state.alerted or state.alert_row is not None else EXIT_OK


# --- inspect -------------------------------------------------------------------


def _cmd_inspect(args) -> int:
    artifact = models.load_model(args.model)
    expected = models.expected_param_count(artifact.family, artifact.input_dim,
                                           artifact.hyper)
    print(f"family:            {artifact.family}")
    print(f"input dim:         {artifact.input_dim}")
    print(f"parameters:        {artifact.param_count}")
    print(f"closed-form count: {expected}")
    print(f"seed:              {artifact.seed}")
    print(f"epochs trained:    {artifact.epochs_trained}")
    if artifact.window is not None:
        w = artifact.window
        print(f"branch windows:    raw={w.raw_window} smooth_short={w.raw_window} "
              f"smooth_long={w.raw_window} down_mid={w.down_window} "
              f"down_long={w.down_window}")
    if artifact.sequence_length is not None:
        print(f"sequence length:   {artifact.sequence_length}")
    if artifact.encoder is not None:
        print(f"encoder:           autoencoder d={artifact.encoder.hyper['bottleneck']}")
    if artifact.norm is not None:
        print(f"normalization:     z-score over {artifact.norm.mean.shape[0]} features")
    print("layers:")
    for spec in artifact.layer_specs():
        print(f"  {json.dumps(spec, sort_keys=True)}")
    return EXIT_OK


# --- parser assembly --------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="sidewatch",
                     description="Malware detection from hardware side-channel telemetry.")
    parser.add_argument("--version", action="version", version=f"sidewatch {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[_config_parent()],
                       help="generate a synthetic labeled corpus")
    p.add_argument("--out", type=Path, default=None, help="corpus output directory")
    p.add_argument("--spec", type=Path, default=None,
                   help="JSON corpus spec file (keys: benign_counts, malware_counts, "
                        "num_features, duration_s, sample_period_s, onset_choices, "
                        "seed, difficulty)")
    p.add_argument("--seed", type=int, default=None, help="override spec seed (default 0)")
    p.add_argument("--difficulty", type=float, default=None,
                   help="override effect-magnitude scale (default 1.0)")
    p.add_argument("--features", type=int, default=None,
                   help="override feature count (default 132)")
    p.add_argument("--duration", type=float, default=None,
                   help="override trace duration in seconds (default 480)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("validate", parents=[_config_parent()],
                       help="validate every trace in a corpus")
    p.add_argument("--corpus", type=Path, required=True, help="corpus directory")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("split", parents=[_config_parent()],
                       help="tag the corpus manifest with a stratified train/test split")
    p.add_argument("--corpus", type=Path, required=True, help="corpus directory")
    p.add_argument("--train-benign", type=int, default=16,
                   help="benign files in the training set (default 16)")
    p.add_argument("--train-malicious", type=int, default=16,
                   help="malicious files in the training set (default 16)")
    p.add_argument("--test-benign", type=int, default=None,
                   help="benign test files (default: all remaining)")
    p.add_argument("--test-malicious", type=int, default=None,
                   help="malicious test files (default: all remaining)")
    p.add_argument("--seed", type=int, default=0, help="split seed (default 0)")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", parents=[_config_parent()], help="train a model family")
    p.add_argument("--corpus", type=Path, required=True,
                   help="corpus directory (uses train-tagged traces if tagged)")
    p.add_argument("--family", required=True, choices=models.FAMILIES,
                   help="model family to train")
    p.add_argument("--out", type=Path, default=None, help="run output directory")
    p.add_argument("--hidden", type=_int_tuple, default=(100,),
                   help="mlp hidden sizes, comma-separated (default 100)")
    p.add_argument("--dim", type=int, default=20,
                   help="autoencoder bottleneck dimension (default 20)")
    p.add_argument("--seq-len", type=int, default=40,
                   help="rnn training sequence length (default 40)")
    p.add_argument("--filters", type=int, default=64, help="conv filters (default 64)")
    p.add_argument("--kernel", type=int, default=32, help="conv kernel size (default 32)")
    p.add_argument("--dense-units", type=int, default=64,
                   help="conv head dense width (default 64)")
    p.add_argument("--dropout", type=float, default=0.3,
                   help="conv head dropout rate (default 0.3)")
    p.add_argument("--raw-window", type=int, default=128,
                   help="conv raw/smoothed branch window rows (default 128)")
    p.add_argument("--down-window", type=int, default=64,
                   help="conv downsampled branch window rows (default 64)")
    p.add_argument("--encoder", type=Path, default=None,
                   help="autoencoder artifact to use as a front-end")
    _add_train_flags(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", parents=[_config_parent()],
                       help="evaluate model artifacts on the test split")
    p.add_argument("--corpus", type=Path, required=True, help="corpus directory")
    p.add_argument("--model", type=Path, action="append", required=True,
                   help="model artifact (repeatable)")
    p.add_argument("--out", type=Path, default=None, help="report output directory")
    _add_detector_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", parents=[_config_parent()],
                       help="run the threshold / encoding / sequence-length sweeps")
    p.add_argument("kind", choices=("threshold", "encoding", "seqlen"))
    p.add_argument("--corpus", type=Path, required=True, help="corpus directory")
    p.add_argument("--out", type=Path, default=None, help="output directory")
    p.add_argument("--model", type=Path, default=None,
                   help="trained row model (threshold sweep)")
    p.add_argument("--thresholds", type=_int_list, default=list(range(1, 101)),
                   help="threshold list '1:100' or comma-separated (default 1:100)")
    p.add_argument("--dims", type=_int_list, default=[5, 10, 15, 20, 30, 40, 50],
                   help="encoding dimensions (default 5,10,15,20,30,40,50)")
    p.add_argument("--families", type=lambda s: s.split(","),
                   default=["mlp", "conv_multibranch"],
                   help="downstream families for the encoding sweep")
    p.add_argument("--lengths", type=_int_list,
                   default=[5, 20, 40, 80, 160, 320, 640, 960],
                   help="sequence lengths (default 5,20,40,80,160,320,640,960)")
    p.add_argument("--variants", type=lambda s: s.split(","),
                   default=list(models.RNN_FAMILIES),
                   help="rnn variants for the sequence-length sweep")
    _add_train_flags(p)
    _add_detector_flags(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("detect", parents=[_config_parent()],
                       help="stream rows through a trained model")
    p.add_argument("--model", type=Path, required=True, help="trained model artifact")
    p.add_argument("--source", default="-",
                   help="trace CSV path or '-' for stdin (default '-')")
    p.add_argument("--follow", action="store_true",
                   help="keep polling the source file for appended rows")
    p.add_argument("--events", type=Path, default=None,
                   help="append alert events (JSON lines) here instead of stdout")
    p.add_argument("--checkpoint", type=Path, default=None,
                   help="stream state file: written on exit, resumed if present")
    p.add_argument("--no-latch", action="store_true",
                   help="re-arm after a malicious run breaks instead of latching")
    _add_detector_flags(p)
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("inspect", parents=[_config_parent()],
                       help="print a model artifact summary")
    p.add_argument("--model", type=Path, required=True, help="model artifact path")
    p.set_defaults(func=_cmd_inspect)

    return parser


def _config_parent() -> argparse.ArgumentParser:
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--config", type=Path, default=None,
                        help="JSON file of flag defaults (flags still override)")
    return parent


def _apply_config_file(parser: _Parser, argv: list[str]) -> list[str]:
    """Fold --config file values in as sub-command defaults."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        return argv
    path = argv[idx + 1]
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SidewatchError(f"{path}: config must be a JSON object")
    # Find the sub-parser this invocation routes to.
    command = next((a for a in argv if not a.startswith("-")), None)
    sub_actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    subparser = sub_actions[0].choices.get(command) if sub_actions else None
    if subparser is None:
        return argv
    known = {a.dest for a in subparser._actions}
    unknown = set(doc) - known
    if unknown:
        raise SidewatchError(f"{path}: unknown config keys {sorted(unknown)}")
    converted = {}
    for key, value in doc.items():
        action = next(a for a in subparser._actions if a.dest == key)
        try:
            converted[key] = _config_value(action, value)
        except (argparse.ArgumentTypeError, ValueError) as exc:
            subparser.error(f"{path}: config key {key!r}: {exc}")
    subparser.set_defaults(**converted)
    return argv


def _config_value(action: argparse.Action, value):
    """A --config value after its flag's own checks, as if typed on the
    command line: its text (a list joined with commas, or item by item
    for a repeatable flag) goes through the flag's type, then its choices.
    A switch (a flag that takes no value) takes true or false.
    """
    if action.nargs == 0 and not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    repeatable = isinstance(action, argparse._AppendAction)
    if isinstance(value, list) and not repeatable:
        value = ",".join(map(str, value))
    items = value if repeatable and isinstance(value, list) else [value]
    checked = []
    for item in items:
        if action.type is not None:
            item = action.type(str(item))
        if action.choices is not None and item not in action.choices:
            raise ValueError(f"invalid choice {item!r}")
        checked.append(item)
    return checked if repeatable else checked[0]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except SidewatchError as exc:
        print(f"sidewatch: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"sidewatch: i/o error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
