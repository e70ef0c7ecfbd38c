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
import contextlib
import dataclasses
import io
import json
import math
import os
import sys
import time
from pathlib import Path

from . import __version__, evalharness, models, synthgen, telemetry
from .detector import DetectorConfig, StreamState, stream_step
from .errors import SidewatchError
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


def _int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok)


def _checked(convert, allowed, rule: str):
    """A flag type: convert(text), refused with a usage error unless
    allowed(value); *rule* names the allowed values."""
    def check(text: str):
        value = convert(text)
        if not allowed(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value
    check.__name__ = convert.__name__  # argparse names it in "invalid int value"
    return check


_positive_int = _checked(int, lambda v: v >= 1, "a positive integer")
_count = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")
_finite_nonnegative = _checked(float, lambda v: 0 <= v < math.inf, "a finite number >= 0")
_probability = _checked(float, lambda v: 0 < v < 1, "in (0, 1)")
_fraction = _checked(float, lambda v: 0 <= v < 1, "in [0, 1)")
_positive_int_list = _checked(_int_list, lambda vs: all(v >= 1 for v in vs),
                              "a list of positive integers")
_positive_int_tuple = _checked(_int_tuple, lambda vs: all(v >= 1 for v in vs),
                               "a list of positive integers")


def _names_from(known: tuple[str, ...]):
    """A flag type: comma-separated names, each one of *known*."""
    def names(text: str) -> list[str]:
        listed = text.split(",")
        unknown = [name for name in listed if name not in known]
        if unknown:
            raise argparse.ArgumentTypeError(
                f"unknown name {unknown[0]!r} (choose from {', '.join(known)})")
        return listed
    return names


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


def _manifest(corpus: Path) -> telemetry.Manifest:
    """The corpus manifest file, or one built from the file names."""
    manifest_path = corpus / MANIFEST_FILENAME
    if manifest_path.exists():
        return telemetry.load_manifest(manifest_path)
    return telemetry.build_manifest(corpus)


def _load_corpus(corpus: Path, split: str | None):
    manifest = _manifest(corpus)
    return manifest, telemetry.load_traces(manifest, corpus, split)


def _detector_config(args) -> DetectorConfig:
    return DetectorConfig(
        prob_cutoff=args.cutoff,
        consec_threshold=args.threshold,
        sample_period_s=args.period,
        latching=not getattr(args, "no_latch", False),
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
    p.add_argument("--cutoff", type=_probability, default=0.5,
                   help="row probability above which a row is malicious (default 0.5)")
    p.add_argument("--threshold", type=_positive_int, default=50,
                   help="consecutive malicious samples to flag a file (default 50)")
    p.add_argument("--period", type=_positive_float, default=0.5,
                   help="sample period in seconds for detection timing (default 0.5)")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epochs", type=_positive_int, default=100,
                   help="maximum training epochs/iterations (default 100)")
    p.add_argument("--batch-size", type=_positive_int, default=32,
                   help="minibatch size (default 32)")
    p.add_argument("--lr", type=_positive_float, default=1e-3, help="learning rate (default 1e-3)")
    p.add_argument("--optimizer", choices=("adam", "rmsprop"), default="adam",
                   help="optimizer kind (default adam)")
    p.add_argument("--patience", type=_count, default=None,
                   help="early-stop patience in epochs (default: no early stop)")
    p.add_argument("--val-fraction", type=_fraction, default=0.0,
                   help="fraction of training data held out for validation (default 0)")
    p.add_argument("--rows-per-trace", type=_positive_int, default=16,
                   help="conv training rows sampled per trace per epoch (default 16)")
    p.add_argument("--seed", type=int, default=0, help="training seed (default 0)")


# --- generate ------------------------------------------------------------------


def _cmd_generate(args) -> int:
    doc = {} if args.spec is None else telemetry.read_json_object(args.spec, "corpus spec")
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
        json.dump(dataclasses.asdict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")
    _write_effective_config(args, Path(out), "generate")
    n_mal = sum(1 for e in manifest.entries if e.meta.is_malicious)
    print(f"wrote {len(manifest.entries)} traces ({n_mal} malicious, "
          f"{len(manifest.entries) - n_mal} benign) to {out}")
    return EXIT_OK


# --- validate ------------------------------------------------------------------


def _cmd_validate(args) -> int:
    """Check every file of the corpus: a file listed in the manifest that
    does not parse is skipped with its reason, like one the manifest skips."""
    manifest = _manifest(args.corpus)
    skipped = list(manifest.skipped)
    traces = [trace for _, trace in telemetry.parse_trace_files(
        args.corpus, [(e.path, e.meta) for e in manifest.entries], skipped)]
    bad = 0
    for trace in traces:
        for v in telemetry.validate_trace(trace):
            print(f"{trace.meta.subject_name}: {v}")
            bad += 1
    for path, reason in sorted(skipped):
        print(f"{path}: skipped ({reason})")
    print(f"validated {len(traces)} traces, {bad} violations, "
          f"{len(skipped)} skipped files")
    return EXIT_DATA if (bad or skipped) else EXIT_OK


# --- split ---------------------------------------------------------------------


def _cmd_split(args) -> int:
    manifest = _manifest(args.corpus)
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
    manifest_path = args.corpus / MANIFEST_FILENAME
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
    cell, bi = models.RNN_VARIANTS[fam]
    return models.build_rnn(F, cell=cell, bidirectional=bi, seed=args.seed)


def _cmd_train(args) -> int:
    manifest, traces = _load_corpus(args.corpus, "train")
    if not traces:
        # An untagged corpus: train on everything (single-corpus workflows).
        manifest, traces = _load_corpus(args.corpus, None)
    if not traces:
        print("no training traces found", file=sys.stderr)
        return EXIT_DATA
    encoder = None if args.encoder is None else models.load_model(args.encoder)
    artifact = _build_for_train(args, traces[0].num_features if encoder is None
                                else encoder.hyper["bottleneck"])
    artifact.encoder = encoder
    data = models.training_data(artifact.family, traces, args.seq_len)
    artifact, log = models.train_model(artifact, data, _train_config(args))

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
                     "sample_period_s": cfg.sample_period_s},
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
    if args.kind == "threshold" and args.model is None:
        print("sweep threshold needs --model", file=sys.stderr)
        return EXIT_USAGE
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


# A checkpoint's fields and the JSON types each must have: the detector
# state, then the count of source rows read.
_STATE_FIELDS = {"rows_seen": int, "run": int, "alerted": bool, "alert_row": (int, type(None))}
_CHECKPOINT_FIELDS = {**_STATE_FIELDS, "source_rows_read": int}


def _read_checkpoint(path) -> dict:
    """The saved stream state; a file that does not hold one is a data error."""
    saved = telemetry.read_json_object(path, "detect checkpoint")
    bad = [key for key, kind in _CHECKPOINT_FIELDS.items()
           if key not in saved or not isinstance(saved[key], kind)]
    if bad:
        raise SidewatchError(f"{path}: not a detect checkpoint (missing or bad {', '.join(bad)})")
    return saved


def _write_checkpoint(path: Path, state: dict) -> None:
    """Write *state* to a temporary file, then move it over *path*, so an
    interrupted write leaves the previous checkpoint whole."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def _cmd_detect(args) -> int:
    # Model, predictor and source come first: a run that cannot read its
    # source opens no events file and leaves the checkpoint as it was.
    artifact = models.load_model(args.model)
    predictor = models.RowStreamPredictor(artifact)

    state = StreamState(cfg=_detector_config(args))
    start_index = 0
    if args.checkpoint and Path(args.checkpoint).exists():
        saved = _read_checkpoint(args.checkpoint)
        for key in _STATE_FIELDS:
            setattr(state, key, saved[key])
        start_index = saved["source_rows_read"]

    stdin = args.source == "-"
    rows_read = 0
    events = []  # the event lines of the block, written when it is done
    with contextlib.nullcontext(sys.stdin.buffer) if stdin else open(args.source, "rb") as fh:
        events_fh = open(args.events, "a", encoding="utf-8") if args.events else sys.stdout
        try:
            reader = telemetry.TraceReader(fh, args.source)
            for first, times, features, _ in reader.blocks(wait=args.follow and not stdin,
                                                           drain=not stdin):
                # Rows before the checkpoint still replay through the predictor
                # so its feature history (windows, chunk buffers) is rebuilt;
                # only the detector counter skips them.
                times = times.tolist()
                probs = predictor.push_block(features, times)
                for index, (t, prob) in enumerate(zip(times, probs), first):
                    if index >= start_index and prob is not None:
                        event = stream_step(state, prob, predictor.unit_rows)
                        if event != "none":
                            events.append(json.dumps(
                                {"event": event, "row": index, "t": t,
                                 "model": artifact.family, "probability": prob},
                                sort_keys=True) + "\n")
                    rows_read = index + 1
                _write_events(events_fh, events)
        except KeyboardInterrupt:
            pass
        finally:
            _write_events(events_fh, events)
            if args.checkpoint:
                _write_checkpoint(args.checkpoint, {
                    **{key: getattr(state, key) for key in _STATE_FIELDS},
                    "source_rows_read": max(rows_read, start_index)})
            if events_fh is not sys.stdout:
                events_fh.close()
    return EXIT_ALERT if state.alerted or state.alert_row is not None else EXIT_OK


def _write_events(fh, lines: list[str]) -> None:
    """Write the event lines with one write and one flush, and clear them."""
    if lines:
        fh.write("".join(lines))
        fh.flush()
        lines.clear()


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
    p.add_argument("--difficulty", type=_finite_nonnegative, default=None,
                   help="override effect-magnitude scale (default 1.0)")
    p.add_argument("--features", type=_positive_int, default=None,
                   help="override feature count (default 132)")
    p.add_argument("--duration", type=_positive_float, default=None,
                   help="override trace duration in seconds (default 480)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("validate", parents=[_config_parent()],
                       help="validate every trace in a corpus")
    p.add_argument("--corpus", type=Path, required=True, help="corpus directory")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("split", parents=[_config_parent()],
                       help="tag the corpus manifest with a stratified train/test split")
    p.add_argument("--corpus", type=Path, required=True, help="corpus directory")
    p.add_argument("--train-benign", type=_count, default=16,
                   help="benign files in the training set (default 16)")
    p.add_argument("--train-malicious", type=_count, default=16,
                   help="malicious files in the training set (default 16)")
    p.add_argument("--test-benign", type=_count, default=None,
                   help="benign test files (default: all remaining)")
    p.add_argument("--test-malicious", type=_count, default=None,
                   help="malicious test files (default: all remaining)")
    p.add_argument("--seed", type=int, default=0, help="split seed (default 0)")
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("train", parents=[_config_parent()], help="train a model family")
    p.add_argument("--corpus", type=Path, required=True,
                   help="corpus directory (uses train-tagged traces if tagged)")
    p.add_argument("--family", required=True, choices=models.FAMILIES,
                   help="model family to train")
    p.add_argument("--out", type=Path, default=None, help="run output directory")
    p.add_argument("--hidden", type=_positive_int_tuple, default=(100,),
                   help="mlp hidden sizes, comma-separated (default 100)")
    p.add_argument("--dim", type=_positive_int, default=20,
                   help="autoencoder bottleneck dimension (default 20)")
    p.add_argument("--seq-len", type=_positive_int, default=40,
                   help="rnn training sequence length (default 40)")
    p.add_argument("--filters", type=_positive_int, default=64, help="conv filters (default 64)")
    p.add_argument("--kernel", type=_positive_int, default=32,
                   help="conv kernel size (default 32)")
    p.add_argument("--dense-units", type=_positive_int, default=64,
                   help="conv head dense width (default 64)")
    p.add_argument("--dropout", type=_fraction, default=0.3,
                   help="conv head dropout rate (default 0.3)")
    p.add_argument("--raw-window", type=_positive_int, default=128,
                   help="conv raw/smoothed branch window rows (default 128)")
    p.add_argument("--down-window", type=_positive_int, default=64,
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
    p.add_argument("--thresholds", type=_positive_int_list, default=list(range(1, 101)),
                   help="threshold list '1:100' or comma-separated (default 1:100)")
    p.add_argument("--dims", type=_positive_int_list, default=[5, 10, 15, 20, 30, 40, 50],
                   help="encoding dimensions (default 5,10,15,20,30,40,50)")
    p.add_argument("--families", type=_names_from(models.ROW_FAMILIES),
                   default=["mlp", "conv_multibranch"],
                   help="downstream families for the encoding sweep")
    p.add_argument("--lengths", type=_positive_int_list,
                   default=[5, 20, 40, 80, 160, 320, 640, 960],
                   help="sequence lengths (default 5,20,40,80,160,320,640,960)")
    p.add_argument("--variants", type=_names_from(models.RNN_FAMILIES),
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


def _subparsers(parser: _Parser) -> dict[str, _Parser]:
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _apply_config_file(parser: _Parser, command: str, path: Path) -> None:
    """Fold the --config file's values in as *command*'s sub-parser
    defaults; a flag the file gives is no longer required on the line."""
    doc = telemetry.read_json_object(path, "config file")
    subparser = _subparsers(parser)[command]
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
        action.required = False
    subparser.set_defaults(**converted)


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


def _parse_without_required(parser: _Parser, argv: list[str]) -> argparse.Namespace | None:
    """*argv* parsed as though no flag were required, to find its --config
    file by argparse's own rules (--config=FILE, or a unique prefix such as
    --conf) before the file gives a required flag. The pass is silent: when
    it fails or asks for help it gives None, and the full parse reports."""
    required = [a for sub in _subparsers(parser).values() for a in sub._actions
                if a.required and a.option_strings]
    for action in required:
        action.required = False
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return parser.parse_args(argv)
    except SystemExit:
        return None
    finally:
        for action in required:
            action.required = True


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        found = _parse_without_required(parser, argv)
        if found is not None and found.config is not None:
            # The file's values become defaults, so flags on the line still win.
            _apply_config_file(parser, found.command, found.config)
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
