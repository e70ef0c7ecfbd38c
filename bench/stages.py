"""The benchmark's three stages: set-up, one unit of work, checks, metrics.

Each stage prepares its inputs from the seed in ``setup()`` and then runs
units of work through the public sidewatch API. A unit times itself with
``time.perf_counter`` and checks its outputs against a reference that the
benchmark computes on its own, counting every operation as attempted and,
when the check fails, as failed with a reason.

Sizes are fixed here, not by the caller, so a unit is the same work on
every workload and commit. Only the number of units a stage runs depends
on the time budget.

Every timing metric is the median of its samples, taken over the whole run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import shutil
import time
from pathlib import Path
from statistics import median

import numpy as np

from sidewatch import cli, detector, evalharness, featurize, models, synthgen, telemetry
from sidewatch.models import TrainConfig
from sidewatch.nn import OptimizerSpec

F = 132                      # features per row, as the paper's HWiNFO export
DIRTY_ROW_SHARE = 0.05       # share of rows given non-numeric feature cells
STREAM_PROB_TOL = 1e-9       # live vs batch probability, absolute
WARMUP_ROWS = 10             # pushed through a throwaway predictor before each replay

perf = time.perf_counter


def subseed(seed: int, *tags: int) -> int:
    return int(np.random.SeedSequence((seed, *tags)).generate_state(1)[0])


def sha256_file(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class Ops:
    """Attempted and failed operations of one stage, with failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: dict[str, int] = {}

    def record(self, ok: bool, reason: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons[reason] = self.reasons.get(reason, 0) + 1


class Determinism:
    """sha256 of outputs that must not change for a seed.

    Every digest after the first under a key is one operation, failed
    when it differs. ``known`` holds digests that earlier runs of the same
    code and seed recorded, so two runs are compared as well.
    """

    def __init__(self, known: dict[str, str]):
        self.ops = Ops()
        self.known = known
        self.seen: dict[str, list[str]] = {}

    def check(self, key: str, digest: str) -> None:
        seen = self.seen.setdefault(key, [])
        seen.append(digest)
        if len(seen) > 1 or key in self.known:
            reference = self.known.get(key, seen[0])
            self.ops.record(digest == reference, f"determinism: {key} sha256 differs")


def make_dirty_csv(src: Path, dst: Path, seed: int, tokens: tuple[str, ...]) -> np.ndarray:
    """Copy a trace CSV with a fixed share of rows given non-numeric cells.

    Returns the [rows, features] mask of the cells replaced. Time and
    label cells are left alone.
    """
    lines = Path(src).read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    feat_idx = [j for j, h in enumerate(header)
                if h not in (telemetry.TIME_COLUMN, telemetry.LABEL_COLUMN)]
    T = len(lines) - 1
    rng = np.random.default_rng(seed)
    mask = np.zeros((T, len(feat_idx)), dtype=bool)
    for r in sorted(rng.choice(T, size=max(1, round(T * DIRTY_ROW_SHARE)), replace=False)):
        cells = lines[r + 1].split(",")
        for c in rng.choice(len(feat_idx), size=int(rng.integers(1, 5)), replace=False):
            cells[feat_idx[c]] = tokens[int(rng.integers(len(tokens)))]
            mask[r, c] = True
        lines[r + 1] = ",".join(cells)
    Path(dst).write_text("\r\n".join(lines) + "\r\n", encoding="utf-8")
    return mask


def impute_reference(clean: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The documented rule in numpy: a masked cell takes the previous row's
    value in its column, 0 when no earlier row has one."""
    T, n = clean.shape
    last = np.where(mask, -1, np.arange(T)[:, None])
    np.maximum.accumulate(last, axis=0, out=last)
    out = clean[np.clip(last, 0, None), np.arange(n)]
    out[last < 0] = 0.0
    return out


def reference_parse(path: Path):
    """Header and float matrix of a trace CSV, parsed by numpy, not sidewatch."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.float64, ndmin=2)


def same_trace(trace, ref) -> bool:
    return (trace.header == ref.header
            and np.array_equal(trace.times, ref.times)
            and np.array_equal(trace.features, ref.features)
            and np.array_equal(trace.labels, ref.labels))


class Stage:
    name = ""

    def __init__(self, seed: int, work: Path, tracer, probe: Determinism):
        self.seed = seed
        self.work = work / self.name
        self.tracer = tracer
        self.probe = probe
        self.ops = Ops()
        self.units = 0
        self.busy_s = 0.0  # wall time of all units, checks included

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, main: bool) -> None:
        raise NotImplementedError

    def metrics(self) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def report(self) -> dict:
        return {"units": self.units, "busy_s": self.busy_s, "attempted": self.ops.attempted,
                "failed": self.ops.failed,
                "failure_share": self.ops.failed / max(1, self.ops.attempted),
                "failure_reasons": self.ops.reasons,
                "samples": {k: [float(f"{x:.5g}") for x in v] for k, v in self.samples().items()}}

    def samples(self) -> dict[str, list[float]]:
        """The timings each of the stage's metrics is taken over."""
        raise NotImplementedError


# --- ingest -----------------------------------------------------------------------


class Ingest(Stage):
    """generate_corpus, load_traces and a dirty-copy parse of one full-width trace.

    A unit writes a one-trace corpus (132 features x 960 rows) with its
    manifest, loads it back, and parses a copy in which 5 % of rows carry
    blank, ``nan`` or ``Yes`` cells. The same corpus is written every unit,
    so its manifest sha256 must repeat.
    """

    name = "ingest"

    def setup(self) -> None:
        kind = telemetry.MALWARE_CATEGORIES[self.seed % len(telemetry.MALWARE_CATEGORIES)]
        self.spec = synthgen.CorpusSpec(benign_counts={}, malware_counts={kind: 1},
                                        num_features=F, seed=subseed(self.seed, 1),
                                        onset_choices=(90.0,))
        # The corpus's one trace, seeded the way generate_corpus seeds file 0
        # (a malicious trace on the "office" background): the reference that
        # every write and parse must reproduce field for field.
        file_seed = subseed(self.spec.seed, 0)
        self.ref = synthgen.generate_malicious_trace(
            synthgen.workload_profile("office", F),
            synthgen.malware_profile(kind, F, self.spec.seed),
            self.spec, file_seed, onset_s=self.spec.onset_choices[0])
        self.gen, self.load, self.dirty = [], [], []
        self.imputed = self.cells = self.dirty_files = 0

    def unit(self, main: bool) -> None:
        d = self.work / f"u{self.units}"
        self.units += 1
        ref = self.ref
        t0 = perf()
        manifest = synthgen.generate_corpus(self.spec, d)
        self.gen.append(ref.num_rows * len(manifest.entries) / (perf() - t0))

        with self.tracer.scope(tag="check"):
            self.probe.check("ingest.manifest", sha256_file(d / telemetry.MANIFEST_FILENAME))
            for e in manifest.entries:
                header, values = reference_parse(d / e.path)
                ok = (header == [telemetry.TIME_COLUMN, *ref.header, telemetry.LABEL_COLUMN]
                      and np.array_equal(values[:, 0], ref.times)
                      and np.array_equal(values[:, 1:-1], ref.features)
                      and np.array_equal(values[:, -1], ref.labels))
                self.ops.record(ok, "write: file does not reproduce the generated trace")

        t0 = perf()
        traces = telemetry.load_traces(manifest, d)
        self.load.append(sum(t.num_rows for t in traces) / (perf() - t0))
        for t in traces:
            self.ops.record(same_trace(t, ref), "parse: clean file differs from the source trace")

        dirty_dir = d / "dirty"
        dirty_dir.mkdir()
        masks = []
        with self.tracer.scope(tag="check"):
            for e in manifest.entries:
                masks.append(make_dirty_csv(d / e.path, dirty_dir / e.path,
                                            subseed(self.seed, 2), ("", "nan", "Yes")))
        with self.tracer.scope(tag="dirty"):
            t0 = perf()
            dirty = [telemetry.parse_trace_csv(dirty_dir / e.path, meta=e.meta)
                     for e in manifest.entries]
            self.dirty.append(sum(t.num_rows for t in dirty) / (perf() - t0))
        for t, mask in zip(dirty, masks):
            ok = (np.array_equal(t.features, impute_reference(ref.features, mask))
                  and np.array_equal(t.times, ref.times)
                  and np.array_equal(t.labels, ref.labels))
            self.ops.record(ok, "parse: dirty file breaks the impute-from-previous-row rule")
            self.imputed += int(mask.sum())
            self.cells += mask.size
            self.dirty_files += 1
        shutil.rmtree(d)

    def samples(self):
        return {"generate": self.gen, "load": self.load, "dirty": self.dirty}

    def metrics(self):
        return {
            "ingest.generate_rows_per_s": (median(self.gen), "rows/s"),
            "ingest.load_rows_per_s": (median(self.load), "rows/s"),
            "ingest.load_dirty_rows_per_s": (median(self.dirty), "rows/s"),
        }


# --- train ------------------------------------------------------------------------

TRAIN_FAMILIES = ("mlp", "conv_multibranch", "rnn_gru", "rnn_lstm_bi")
# Short fits, so that every workload makes several of them (one fit is
# one sample).
TRAIN_EPOCHS = {"mlp": 4, "conv_multibranch": 1, "rnn_gru": 2, "rnn_lstm_bi": 1}
SEQ_LEN = 40
# A short fit leaves the conv loss far from converged, where it swings by 2x
# between seeds. So the conv fit is one reference problem, whatever the
# seed: same corpus, init and shuffles, and train.conv_loss is one number
# per commit that moves only when the engine computes something else.
CONV_SEED = 0


class Train(Stage):
    """Fit and evaluate each family on an in-memory corpus.

    Set-up synthesizes 4 training and 2 held-out traces, half of each
    malicious, all 132 x 960. A unit fits one family, in turn mlp,
    conv_multibranch at its default size, rnn_gru and rnn_lstm_bi, from
    the same seed for a fixed number of epochs, and evaluates it on the
    held-out traces. The first fit of each family is also round-tripped
    through save_model/load_model.
    """

    name = "train"

    @staticmethod
    def _corpus(seed: int) -> list:
        """6 traces, benign and malicious in turn; the first 4 train, the rest are held out."""
        spec = synthgen.CorpusSpec(num_features=F, seed=subseed(seed, 3))
        kinds = telemetry.MALWARE_CATEGORIES
        traces = []
        for i, background in enumerate(("office", "game", "benchmark")):
            profile = synthgen.workload_profile(background, F)
            traces.append(synthgen.generate_benign_trace(profile, spec, subseed(spec.seed, i, 0)))
            kind = kinds[(seed + i) % len(kinds)]
            traces.append(synthgen.generate_malicious_trace(
                profile, synthgen.malware_profile(kind, F, spec.seed), spec,
                subseed(spec.seed, i, 1),
                onset_s=spec.onset_choices[i % len(spec.onset_choices)]))
        return traces

    def setup(self) -> None:
        traces = self._corpus(self.seed)
        self.work.mkdir(parents=True, exist_ok=True)
        self.train, self.held = traces[:4], traces[4:]
        self.conv_train = self.train if self.seed == CONV_SEED else self._corpus(CONV_SEED)[:4]
        self.rows = (np.vstack([t.features for t in self.train]),
                     np.concatenate([t.labels for t in self.train]))
        self.seqs = featurize.chunk_sequences(self.train, SEQ_LEN)
        digest = hashlib.sha256()
        for t in traces:
            digest.update(t.features.tobytes())
            digest.update(t.labels.tobytes())
        self.probe.check("train.corpus", digest.hexdigest())
        self.held_rows = sum(t.num_rows for t in self.held)
        # The save/load check scores the first 240 rows of a held-out trace.
        first = self.held[1]
        self.probe_trace = dataclasses.replace(
            first, times=first.times[:240], features=first.features[:240],
            labels=first.labels[:240])
        self.epoch_s = {f: [] for f in TRAIN_FAMILIES}
        self.eval_rows_per_s: list[float] = []
        self.conv_loss = None
        self.conv_epochs = 0
        self.conv_fit_s = 0.0
        self.round_tripped: set[str] = set()

    def _build(self, family: str):
        s = self.seed
        if family == "mlp":
            return models.build_mlp(F, seed=s), self.rows, OptimizerSpec()
        if family == "conv_multibranch":
            art = models.build_conv_multibranch(F, seed=CONV_SEED)
            return art, self.conv_train, OptimizerSpec()
        cell = family.split("_")[1]
        art = models.build_rnn(F, cell=cell, bidirectional=family.endswith("_bi"), seed=s)
        return art, self.seqs, OptimizerSpec(kind="rmsprop")

    def _probs(self, artifact) -> np.ndarray:
        if artifact.family in models.ROW_FAMILIES:
            return models.predict_rows(artifact, self.probe_trace)
        return models.predict_sequences(artifact,
                                        featurize.chunk_sequences([self.probe_trace], SEQ_LEN))

    def unit(self, main: bool) -> None:
        family = TRAIN_FAMILIES[self.units % len(TRAIN_FAMILIES)]
        self.units += 1
        artifact, data, opt = self._build(family)
        seed = CONV_SEED if family == "conv_multibranch" else self.seed
        cfg = TrainConfig(optimizer=opt, max_epochs=TRAIN_EPOCHS[family], seed=seed)
        with self.tracer.scope(tag=f"fit:{family}"):
            t0 = perf()
            try:
                _, log = models.train_model(artifact, data, cfg)
            except ArithmeticError:  # raised by train_model on a non-finite loss
                self.ops.record(False, f"{family}: non-finite training loss")
                if family == "conv_multibranch":
                    self.conv_loss = float("nan")
                return
            fit_s = perf() - t0
        self.epoch_s[family].append(fit_s / len(log))
        with self.tracer.scope(tag="eval"):
            t0 = perf()
            evalharness.evaluate_model(artifact, self.held, detector.DetectorConfig())
            eval_s = perf() - t0
        if family == "conv_multibranch":
            self.eval_rows_per_s.append(self.held_rows / eval_s)
            self.conv_loss = log[-1].train_loss
            self.conv_epochs += len(log)
            self.conv_fit_s += fit_s

        # Every fit of a family trains the same problem, so its parameters
        # must repeat bit for bit; the save/load round trip (about a quarter
        # of a conv unit) is then needed only on the family's first fit.
        with self.tracer.scope(tag="check"):
            digest = hashlib.sha256()
            for name, value in sorted(artifact.network.params().items()):
                digest.update(name.encode())
                digest.update(np.ascontiguousarray(value).tobytes())
            self.probe.check(f"train.params.{family}", digest.hexdigest())
        finite = all(np.isfinite(e.train_loss) for e in log)
        if family in self.round_tripped:
            self.ops.record(finite, f"{family}: non-finite training loss")
            return
        self.round_tripped.add(family)
        path = self.work / f"{family}.json"
        models.save_model(artifact, path)
        self.probe.check(f"train.artifact.{family}", sha256_file(path))
        loaded = models.load_model(path)
        with self.tracer.scope(tag="check"):
            same = np.array_equal(self._probs(artifact), self._probs(loaded))
        self.ops.record(finite and same,
                        f"{family}: non-finite loss, or load_model changes the probabilities")

    def samples(self):
        return {**self.epoch_s, "conv_eval": self.eval_rows_per_s}

    def metrics(self):
        # A family whose every fit failed has no timing: its metric is left
        # out, and the failed fits make the run incorrect.
        out = {f"train.{f.replace('conv_multibranch', 'conv')}_epoch_s":
               (median(v), "s") for f, v in self.epoch_s.items() if v}
        if self.eval_rows_per_s:
            out["train.conv_eval_rows_per_s"] = (median(self.eval_rows_per_s), "rows/s")
        if self.conv_loss is not None and np.isfinite(self.conv_loss):
            out["train.conv_loss"] = (float(self.conv_loss), "nats")
        return out


# --- detect -----------------------------------------------------------------------

STREAM_ROWS = 120            # 60 s at 0.5 s, 120 s at 1.0 s
STREAM_ONSET_S = 10.0
STREAM_DIFFICULTY = 3.0
STREAMS = ("0.5s-malicious", "0.5s-benign", "1.0s-malicious", "1.0s-benign", "0.5s-dirty")
SIDE_STREAMS = ("0.5s-malicious", "0.5s-benign")
EXIT_ALERT = 3


def known_defect(stream: str, check: str) -> str | None:
    """The open ROADMAP item behind a check that fails at the commit that
    added this benchmark, or None for a check that must pass.

    Such checks still run on every replay, and the report line gives their
    operations, failures and failure share under ``known_defects``; they
    are left out of ``attempted`` and ``failed`` so that ``correct`` tells
    whether anything else broke.
    """
    if stream.startswith("1.0s"):
        return "ROADMAP item 2: RowStreamPredictor assumes the 0.5 s branch geometry"
    if stream == "0.5s-dirty" and check == "cli":
        return "ROADMAP item 4: cli._row_from_cells reads blank as 0 and passes nan on"
    return None


class _Stream:
    def __init__(self, path: Path):
        self.path = path
        self.trace = telemetry.parse_trace_csv(path)
        self.period = self.trace.meta.sample_period_s
        self.rows = list(self.trace.rows())
        self.ref_probs = None
        self.ref_verdict = None


class Detect(Stage):
    """Replay telemetry streams through the live path, one row after another.

    Set-up trains a default-size conv artifact briefly on the two 0.5 s
    streams (regularisers off, so that 10 optimizer steps make it alert on
    the malicious one and not on the benign one, for 11 of 12 seeds tried).
    It writes five 120-row streams: malicious and benign at the paper's
    0.5 s period and at 1.0 s, and the 0.5 s malicious stream with blank
    and ``nan`` cells. A unit replays one stream as a closed loop:
    row by row through RowStreamPredictor.push and detector.stream_step,
    then as a file through ``sidewatch detect``.
    """

    name = "detect"

    def _synth(self, spec_seed: int, period: float, malicious: bool, trace_seed: int):
        spec = synthgen.CorpusSpec(num_features=F, duration_s=STREAM_ROWS * period,
                                   sample_period_s=period, onset_choices=(STREAM_ONSET_S,),
                                   seed=spec_seed, difficulty=STREAM_DIFFICULTY)
        profile = synthgen.workload_profile("office", F)
        if not malicious:
            return synthgen.generate_benign_trace(profile, spec, trace_seed)
        kind = telemetry.MALWARE_CATEGORIES[self.seed % len(telemetry.MALWARE_CATEGORIES)]
        return synthgen.generate_malicious_trace(
            profile, synthgen.malware_profile(kind, F, spec_seed), spec, trace_seed,
            onset_s=STREAM_ONSET_S)

    def setup(self) -> None:
        s = subseed(self.seed, 4)
        seeds = [subseed(s, i) for i in range(2)]
        train = [self._synth(s, 0.5, True, seeds[0]), self._synth(s, 0.5, False, seeds[1])]
        artifact = models.build_conv_multibranch(F, l1=0.0, l2=0.0, activity_l2=0.0,
                                                 dropout=0.0, seed=self.seed)
        models.train_model(artifact, train, TrainConfig(
            optimizer=OptimizerSpec(learning_rate=3e-3), max_epochs=5,
            rows_per_trace=4, seed=self.seed))
        self.work.mkdir(parents=True, exist_ok=True)
        self.model_path = self.work / "conv.json"
        models.save_model(artifact, self.model_path)
        self.probe.check("detect.artifact", sha256_file(self.model_path))
        self.artifact = artifact

        sources = {
            "0.5s-malicious": train[0],
            "0.5s-benign": train[1],
            "1.0s-malicious": self._synth(s, 1.0, True, seeds[0]),
            "1.0s-benign": self._synth(s, 1.0, False, seeds[1]),
        }
        paths = {}
        for name, trace in sources.items():
            paths[name] = self.work / f"stream-{name}.csv"
            telemetry.write_trace_csv(trace, paths[name])
        paths["0.5s-dirty"] = self.work / "stream-0.5s-dirty.csv"
        make_dirty_csv(paths["0.5s-malicious"], paths["0.5s-dirty"], subseed(s, 9), ("", "nan"))
        self.streams = {name: _Stream(paths[name]) for name in STREAMS}
        self.row_ms: list[float] = []
        self.stream_p50_ms: list[float] = []
        self.cli_rows_per_s: list[float] = []
        self.skipped_rows = 0
        self.lib_s = 0.0
        self.cli_rows = 0
        self.known = Ops()

    def _record(self, name: str, check: str, ok: bool, reason: str) -> None:
        defect = known_defect(name, check)
        if defect is None:
            self.ops.record(ok, reason)
        else:
            self.known.record(ok, f"{reason} ({defect})")

    def _reference(self, stream: _Stream) -> None:
        """Batch probabilities and the file verdict that the live path must match."""
        if stream.ref_probs is None:
            with self.tracer.scope(tag="check"):
                stream.ref_probs = models.predict_rows(self.artifact, stream.trace)
                stream.ref_verdict = detector.classify_file(
                    stream.ref_probs, detector.DetectorConfig(sample_period_s=stream.period))

    def unit(self, main: bool) -> None:
        order = STREAMS if main else SIDE_STREAMS
        name = order[self.units % len(order)]
        self.units += 1
        stream = self.streams[name]
        self._reference(stream)
        T = len(stream.rows)

        # A live detector runs warm; after another stage's unit the first
        # rows would also pay for cold caches, so warm up off the clock.
        warm = models.RowStreamPredictor(self.artifact)
        for row in stream.rows[:WARMUP_ROWS]:
            warm.push(row)

        predictor = models.RowStreamPredictor(self.artifact)
        state = detector.StreamState(cfg=detector.DetectorConfig(sample_period_s=stream.period))
        probs = np.empty(T)
        times = np.empty(T)
        with self.tracer.scope(tag="lib"):
            for i, row in enumerate(stream.rows):
                t0 = perf()
                probs[i] = predictor.push(row)
                detector.stream_step(state, probs[i])
                times[i] = perf() - t0
        self.row_ms.extend(times * 1e3)
        self.stream_p50_ms.append(float(np.percentile(times, 50)) * 1e3)
        self.lib_s += float(times.sum())

        # The batch decimated branches drop the trailing partial block, so
        # the last T mod factor rows are documented to differ: skip them.
        factors = [featurize.window_samples(s, stream.period)
                   for s in (featurize.DOWN_MID_S, featurize.DOWN_LONG_S)]
        limit = T - max(T % f for f in factors)
        self.skipped_rows += T - limit
        for i in range(limit):
            self._record(name, "lib", abs(probs[i] - stream.ref_probs[i]) <= STREAM_PROB_TOL,
                         f"{name}: streamed probability differs from predict_rows")

        events = self.work / "events.jsonl"
        events.unlink(missing_ok=True)
        argv = ["detect", "--model", str(self.model_path), "--source", str(stream.path),
                "--events", str(events), "--period", repr(stream.period)]
        with self.tracer.scope(tag="cli"), self.tracer.record("cli.detect"):
            t0 = perf()
            code = cli.main(argv)
            cli_s = perf() - t0
        self.cli_rows_per_s.append(T / cli_s)
        self.cli_rows += T
        alerts = [json.loads(line)["row"]
                  for line in events.read_text(encoding="utf-8").splitlines()
                  if json.loads(line)["event"] == "alert"] if events.exists() else []
        verdict = stream.ref_verdict
        ok = (code == (EXIT_ALERT if verdict.is_malicious else 0)
              and (alerts[0] if alerts else None) == verdict.alert_row)
        self._record(name, "cli", ok,
                     f"{name}: sidewatch detect verdict differs from classify_file")

    def retained_mb(self) -> float:
        """Memory a predictor still holds after one 120-row stream (tracemalloc)."""
        import tracemalloc

        stream = self.streams["0.5s-malicious"]
        predictor = models.RowStreamPredictor(self.artifact)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for row in stream.rows:
                predictor.push(row)
            return (tracemalloc.get_traced_memory()[0] - base) / 1e6
        finally:
            tracemalloc.stop()

    def metrics(self):
        # Percentiles over every row the run timed; the report gives the count.
        return {
            "detect.row_ms_p50": (float(np.percentile(self.row_ms, 50)), "ms"),
            "detect.rows_per_s": (median(self.cli_rows_per_s), "rows/s"),
        }

    def row_ms_p99(self) -> float:
        """p99 of the per-row time over every row the run timed.

        Every row of a stream does the same work, so this tail is the
        machine's jitter, not the program's: it spread 0.26-0.62 (quartile
        distance over median) between runs of different seeds, beyond any
        bound. It is reported, but not as an end-to-end metric.
        """
        return float(np.percentile(self.row_ms, 99)) if self.row_ms else 0.0

    def samples(self):
        # Per-stream medians show how the row time drifted over the run.
        return {"stream_row_ms_p50": self.stream_p50_ms, "cli_rows_per_s": self.cli_rows_per_s}

    def report(self) -> dict:
        out = super().report()
        out["rows_timed"] = len(self.row_ms)
        out["row_ms_p99"] = self.row_ms_p99()
        out["rows_skipped_trailing"] = self.skipped_rows
        k = self.known
        out["known_defects"] = {
            "attempted": k.attempted, "failed": k.failed, "failure_reasons": k.reasons,
            "failure_share": k.failed / max(1, k.attempted),
            "failure_share_with_stage": (self.ops.failed + k.failed)
            / max(1, self.ops.attempted + k.attempted)}
        out["verdicts"] = {n: (s.ref_verdict.alert_row if s.ref_verdict else "not run")
                           for n, s in self.streams.items()}
        return out


STAGES = {"ingest": Ingest, "train": Train, "detect": Detect}
