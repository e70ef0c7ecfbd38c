"""Dataset splitting, metrics, the three sweeps, and report emission.

Rates follow the granularity each model family reports at: row-level
FPR/FNR for the per-row models (MLP, conv), file-level for the recurrent
families; the report tags the granularity explicitly. Every family's file
verdict, alert row and time-to-detect come from the one rule `detect`
runs (detector.classify_file, counted in rows). Benign files have no
time-to-detect and are excluded from detection-time statistics.

Sweep points retrain with seeds derived as base seed + point index:
reproducible yet independent draws per point.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .detector import (
    DetectionVerdict,
    DetectorConfig,
    classify_file,
    malicious_runs,
    row_flags,
    time_to_detect,
)
from .errors import (
    BadShapeError,
    EmptyPopulationError,
    InsufficientStratumError,
    NoSequencesError,
)
from .featurize import chunk_sequences, unit_labels
from .models import (
    ModelArtifact,
    RNN_VARIANTS,
    ROW_FAMILIES,
    RowStreamPredictor,
    TrainConfig,
    build_autoencoder,
    build_conv_multibranch,
    build_mlp,
    build_rnn,
    predict_rows,
    stream_unit,
    train_model,
    training_data,
)
from .telemetry import Manifest, Trace

REPORT_VERSION = 1


# --- confusion counts and rates ----------------------------------------------


@dataclass(frozen=True)
class ConfusionCounts:
    granularity: str  # "row" | "sequence" | "file"
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def add(self, predicted, truth) -> "ConfusionCounts":
        """Accumulate boolean arrays (True = malicious)."""
        predicted = np.asarray(predicted, dtype=bool)
        truth = np.asarray(truth, dtype=bool)
        return ConfusionCounts(
            granularity=self.granularity,
            tp=self.tp + int(np.sum(predicted & truth)),
            fp=self.fp + int(np.sum(predicted & ~truth)),
            tn=self.tn + int(np.sum(~predicted & ~truth)),
            fn=self.fn + int(np.sum(~predicted & truth)),
        )


@dataclass(frozen=True)
class Metrics:
    accuracy: float
    fpr: float
    fnr: float


def compute_metrics(counts: ConfusionCounts) -> Metrics:
    """accuracy=(tp+tn)/total, fpr=fp/(fp+tn), fnr=fn/(fn+tp); empty
    denominators yield 0."""
    if counts.total < 1:
        raise EmptyPopulationError(f"no {counts.granularity}-level items evaluated")
    neg = counts.fp + counts.tn
    pos = counts.fn + counts.tp
    return Metrics(
        accuracy=(counts.tp + counts.tn) / counts.total,
        fpr=counts.fp / neg if neg else 0.0,
        fnr=counts.fn / pos if pos else 0.0,
    )


# --- stratified split -----------------------------------------------------------


def _take_balanced(groups: dict, n: int, rng: np.random.Generator, what: str) -> list:
    """Draw n entries round-robin across strata, seeded within and across."""
    available = sum(len(v) for v in groups.values())
    if n > available:
        raise InsufficientStratumError(f"requested {n} {what} files, only {available} available")
    keys = sorted(groups, key=repr)
    pools = {}
    for k in keys:
        pool = sorted(groups[k], key=lambda e: e.path)
        order = rng.permutation(len(pool))
        pools[k] = [pool[i] for i in order]
    key_order = [keys[i] for i in rng.permutation(len(keys))]
    picked: list = []
    while len(picked) < n:
        for k in key_order:
            if pools[k]:
                picked.append(pools[k].pop())
                if len(picked) == n:
                    break
    return picked


def stratified_split(
    manifest: Manifest,
    train_counts: tuple[int, int],
    seed: int,
    test_counts: tuple[int, int] | None = None,
) -> Manifest:
    """Assign split tags, balanced across (label, category, onset) strata.

    train_counts/test_counts are (benign, malicious). With test_counts
    omitted every remaining file goes to the test set; otherwise the
    leftovers stay unassigned. Deterministic per seed.
    """
    rng = np.random.default_rng(seed)
    assignment: dict[str, str] = {}
    for is_mal, want_train in ((False, train_counts[0]), (True, train_counts[1])):
        label = "malicious" if is_mal else "benign"
        entries = [e for e in manifest.entries if e.meta.is_malicious == is_mal]
        strata: dict = {}
        for e in entries:
            strata.setdefault((e.meta.category, e.meta.onset_s), []).append(e)
        train_picked = _take_balanced(strata, want_train, rng, f"train {label}")
        train_paths = {e.path for e in train_picked}
        for e in train_picked:
            assignment[e.path] = "train"
        rest = {k: [e for e in v if e.path not in train_paths] for k, v in strata.items()}
        rest = {k: v for k, v in rest.items() if v}
        if test_counts is None:
            for v in rest.values():
                for e in v:
                    assignment[e.path] = "test"
        else:
            want_test = test_counts[1] if is_mal else test_counts[0]
            test_picked = _take_balanced(rest, want_test, rng, f"test {label}")
            for e in test_picked:
                assignment[e.path] = "test"
            for v in rest.values():
                for e in v:
                    assignment.setdefault(e.path, "unassigned")
    return manifest.with_split(assignment)


# --- per-model evaluation ---------------------------------------------------------


@dataclass(frozen=True)
class FileResult:
    name: str
    truth: str                 # "benign" | "malicious"
    verdict: str               # "benign" | "malicious"
    alert_row: int | None
    time_to_detect_s: float | None
    alert_before_onset: bool = False


@dataclass
class EvalSection:
    model: str
    family: str
    granularity: str                       # granularity of the headline rates
    file_confusion: ConfusionCounts
    row_confusion: ConfusionCounts | None = None
    seq_confusion: ConfusionCounts | None = None
    files: list[FileResult] = field(default_factory=list)
    files_evaluated: int = 0
    mean_ttd_s: float | None = None

    @property
    def file_metrics(self) -> Metrics:
        return compute_metrics(self.file_confusion)

    @property
    def row_metrics(self) -> Metrics | None:
        return compute_metrics(self.row_confusion) if self.row_confusion else None

    @property
    def headline_metrics(self) -> Metrics:
        """The FPR/FNR at this family's reporting granularity."""
        if self.granularity == "row" and self.row_confusion is not None:
            return compute_metrics(self.row_confusion)
        return compute_metrics(self.file_confusion)


def _trace_cfg(cfg: DetectorConfig, trace: Trace) -> DetectorConfig:
    return replace(cfg, sample_period_s=trace.meta.sample_period_s)


def _file_result(trace: Trace, verdict: DetectionVerdict, cfg: DetectorConfig) -> FileResult:
    truth = "malicious" if trace.meta.is_malicious else "benign"
    ttd = None
    straddled = False
    if (verdict.is_malicious and verdict.alert_row is not None
            and trace.meta.is_malicious and trace.meta.onset_s is not None):
        onset_row = trace.meta.onset_row()
        if verdict.alert_row < onset_row:
            straddled = True  # reported, never silently folded into the TTD stats
        else:
            ttd = time_to_detect(verdict, onset_row, _trace_cfg(cfg, trace))
    return FileResult(
        name=trace.meta.subject_name,
        truth=truth,
        verdict=verdict.file_label,
        alert_row=verdict.alert_row,
        time_to_detect_s=ttd,
        alert_before_onset=straddled,
    )


def evaluate_model(artifact: ModelArtifact, traces: list[Trace],
                   cfg: DetectorConfig, label: str | None = None) -> EvalSection:
    """Unit and file confusion plus per-file verdicts and detection times.

    Each trace is scored by a fresh RowStreamPredictor stepped by the whole
    trace as one block, the scorer `detect` runs. A unit is a row that gets
    a probability: every row of a row family, the row closing each chunk
    of sequence_length rows of a sequence family. Its truth is the
    majority label of the rows it closes (featurize.unit_labels). Test order is
    fixed (name-sorted); a file with no unit (one shorter than the
    sequence length) is not evaluated. The file verdict is classify_file
    over the units, each covering its rows, as `detect` folds them.
    Sequence families report at sequence/file level only.
    """
    units = stream_unit(artifact.family)
    if units is None:
        raise BadShapeError(f"{artifact.family} cannot be evaluated against traces")
    traces = sorted(traces, key=lambda t: (t.meta.subject_name, t.meta.category))
    unit_conf = ConfusionCounts(units)
    file_conf = ConfusionCounts("file")
    files: list[FileResult] = []
    for trace in traces:
        predictor = RowStreamPredictor(artifact)
        scored = predictor.push_block(trace.features, trace.times)
        closes = np.flatnonzero([p is not None for p in scored])
        if not closes.size:
            continue
        probs = np.array([scored[i] for i in closes])
        unit_conf = unit_conf.add(row_flags(probs, cfg), unit_labels(trace.labels, closes))
        verdict = classify_file(probs, cfg, predictor.unit_rows)
        file_conf = file_conf.add([verdict.is_malicious], [trace.meta.is_malicious])
        files.append(_file_result(trace, verdict, cfg))
    rows = units == "row"
    if not rows and not files:
        raise NoSequencesError(f"every file is shorter than {artifact.sequence_length} rows")
    ttds = [f.time_to_detect_s for f in files if f.time_to_detect_s is not None]
    return EvalSection(
        model=label or artifact.family,
        family=artifact.family,
        granularity="row" if rows else "file",
        file_confusion=file_conf,
        row_confusion=unit_conf if rows else None,
        seq_confusion=None if rows else unit_conf,
        files=files,
        files_evaluated=len(files),
        mean_ttd_s=float(np.mean(ttds)) if ttds else None,
    )


# --- sweeps --------------------------------------------------------------------


def sweep_threshold(artifact: ModelArtifact, traces: list[Trace],
                    thresholds: list[int], cfg: DetectorConfig) -> list[tuple[int, float]]:
    """File accuracy per consecutive-sample threshold, one prediction pass:
    a file is flagged at a threshold its longest malicious run reaches."""
    if any(t < 1 for t in thresholds):
        raise ValueError("thresholds must be positive")
    longest = np.array([malicious_runs(predict_rows(artifact, t), cfg).max(initial=0)
                        for t in traces])
    truths = np.array([t.meta.is_malicious for t in traces])
    return [(int(thr), float(np.mean((longest >= thr) == truths))) for thr in thresholds]


def sweep_encoding_dims(
    dims: list[int],
    families: list[str],
    train_traces: list[Trace],
    test_traces: list[Trace],
    ae_config: TrainConfig,
    clf_config: TrainConfig,
    cfg: DetectorConfig,
    seed: int = 0,
    conv_kwargs: dict | None = None,
    mlp_hidden: tuple[int, ...] = (100,),
) -> dict[str, list[tuple[int, float]]]:
    """Train an autoencoder per bottleneck dim, re-train each downstream
    family on the encoded corpus, and report file accuracy per (family, d)."""
    unknown = [fam for fam in families if fam not in ROW_FAMILIES]
    if unknown:
        raise ValueError(f"encoding sweep supports row families, not {unknown}")
    curves: dict[str, list[tuple[int, float]]] = {fam: [] for fam in families}
    train_rows = training_data("autoencoder", train_traces)
    for point, d in enumerate(dims):
        point_seed = seed + point
        ae = build_autoencoder(train_traces[0].num_features, d, seed=point_seed)
        train_model(ae, train_rows, replace(ae_config, seed=point_seed))
        for fam in families:
            fam_seed = point_seed + 1000
            if fam == "mlp":
                model = build_mlp(d, hidden=mlp_hidden, seed=fam_seed)
            else:
                model = build_conv_multibranch(d, seed=fam_seed, **(conv_kwargs or {}))
            model.encoder = ae
            train_model(model, training_data(fam, train_traces),
                        replace(clf_config, seed=fam_seed))
            section = evaluate_model(model, test_traces, cfg, label=f"{fam}+ae{d}")
            curves[fam].append((int(d), section.file_metrics.accuracy))
    return curves


@dataclass(frozen=True)
class SeqLenResult:
    length: int
    training_sequences: int
    accuracy: dict[str, float]  # variant -> sequence-level test accuracy


def sweep_sequence_length(
    lengths: list[int],
    variants: list[str],
    train_traces: list[Trace],
    test_traces: list[Trace],
    train_config: TrainConfig,
    cfg: DetectorConfig,
    seed: int = 0,
) -> list[SeqLenResult]:
    """Chunk, train each recurrent variant, and score per sequence length.

    Each variant's accuracy is evaluate_model's sequence accuracy on the
    test traces. Files shorter than a length contribute nothing to it; a
    length no train file reaches raises NoSequences, and one no test file
    reaches scores NaN.
    """
    unknown = [v for v in variants if v not in RNN_VARIANTS]
    if unknown:
        raise ValueError(f"unknown rnn variants {unknown}")
    results = []
    F = train_traces[0].num_features
    for point, L in enumerate(lengths):
        train_batch = chunk_sequences(train_traces, L)
        if train_batch.num_sequences == 0:
            raise NoSequencesError(f"no training file has {L} rows")
        reached = any(t.num_rows >= L for t in test_traces)
        accs: dict[str, float] = {}
        for variant in variants:
            cell, bi = RNN_VARIANTS[variant]
            model = build_rnn(F, cell=cell, bidirectional=bi, seed=seed + point)
            train_model(model, train_batch, replace(train_config, seed=seed + point))
            if reached:
                section = evaluate_model(model, test_traces, cfg)
                accs[variant] = compute_metrics(section.seq_confusion).accuracy
            else:
                accs[variant] = float("nan")
        results.append(SeqLenResult(int(L), int(train_batch.num_sequences), accs))
    return results


# --- report --------------------------------------------------------------------


@dataclass
class EvalReport:
    sections: list[EvalSection] = field(default_factory=list)
    threshold_curve: list[tuple[int, float]] | None = None
    encoding_curves: dict[str, list[tuple[int, float]]] | None = None
    seqlen_results: list[SeqLenResult] | None = None
    config: dict = field(default_factory=dict)


def _counts_doc(c: ConfusionCounts | None):
    if c is None:
        return None
    doc = asdict(c)
    if c.total:
        m = compute_metrics(c)
        doc.update({"accuracy": m.accuracy, "fpr": m.fpr, "fnr": m.fnr})
    return doc


def _section_doc(s: EvalSection) -> dict:
    return {
        "model": s.model,
        "family": s.family,
        "granularity": s.granularity,
        "file_confusion": _counts_doc(s.file_confusion),
        "row_confusion": _counts_doc(s.row_confusion),
        "sequence_confusion": _counts_doc(s.seq_confusion),
        "files_evaluated": s.files_evaluated,
        "mean_time_to_detect_s": s.mean_ttd_s,
        "files": [asdict(f) for f in s.files],
    }


def report_to_doc(report: EvalReport) -> dict:
    return {
        "format": "sidewatch-report",
        "version": REPORT_VERSION,
        "config": report.config,
        "sections": [_section_doc(s) for s in report.sections],
        "threshold_curve": report.threshold_curve,
        "encoding_curves": report.encoding_curves,
        "sequence_length_results": None if report.seqlen_results is None else [
            {"length": r.length, "training_sequences": r.training_sequences,
             # NaN (no test file reaches the length) is not JSON: null.
             "accuracy": {v: None if math.isnan(a) else a for v, a in r.accuracy.items()}}
            for r in report.seqlen_results
        ],
    }


def _pct(x: float | None) -> str:
    return "-" if x is None else f"{100.0 * x:.2f}%"


def summary_table(report: EvalReport) -> str:
    """Aligned text table: model, row/file accuracy, FPR, FNR."""
    headers = ["Model", "Row Accuracy", "File Accuracy", "FPR", "FNR", "Rate Granularity"]
    rows = []
    for s in report.sections:
        rm = s.row_metrics
        hm = s.headline_metrics
        fm = s.file_metrics
        rows.append([
            s.model,
            _pct(rm.accuracy if rm else None),
            _pct(fm.accuracy),
            _pct(hm.fpr),
            _pct(hm.fnr),
            s.granularity,
        ])
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def emit_report(report: EvalReport, out_dir: str | Path) -> list[Path]:
    """Write report.json, summary.txt, and two-column curve files.

    Emission is deterministic: re-running writes byte-identical files.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []

    report_path = out_dir / "report.json"
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report_to_doc(report), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    written.append(report_path)

    summary_path = out_dir / "summary.txt"
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(summary_table(report))
    written.append(summary_path)

    if report.threshold_curve is not None:
        p = out_dir / "threshold_sweep.txt"
        _write_curve(p, report.threshold_curve, "threshold", "file_accuracy")
        written.append(p)
    if report.encoding_curves:
        for fam in sorted(report.encoding_curves):
            p = out_dir / f"encoding_sweep_{fam}.txt"
            _write_curve(p, report.encoding_curves[fam], "encoding_dim", "file_accuracy")
            written.append(p)
    if report.seqlen_results:
        variants = sorted({v for r in report.seqlen_results for v in r.accuracy})
        for v in variants:
            p = out_dir / f"seqlen_sweep_{v}.txt"
            curve = [(r.length, r.accuracy[v]) for r in report.seqlen_results
                     if v in r.accuracy]
            _write_curve(p, curve, "sequence_length", "sequence_accuracy")
            written.append(p)
        p = out_dir / "seqlen_training_sequences.txt"
        curve = [(r.length, r.training_sequences) for r in report.seqlen_results]
        _write_curve(p, curve, "sequence_length", "training_sequences")
        written.append(p)
    return written


def _write_curve(path: Path, curve, xname: str, yname: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {xname}\t{yname}\n")
        for x, y in curve:
            fh.write(f"{x}\t{y!r}\n")
