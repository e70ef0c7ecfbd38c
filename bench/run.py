"""sidewatch benchmark: the train and detect workloads.

    python3 bench/run.py --workload {train,detect} --seed N --seconds S --trace {0,1}

Every run sets up three times (the median is ``setup_s``), then runs
units of the workload's own stage for ``--seconds``. The other two stages
run only a fixed floor of units, spread over the same time, so that every
end-to-end metric is measured on every workload, and the workload's own
stage takes the rest of the time. The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it holds the run facts, seeds, sha256 digests and failure
reasons.

With ``--trace 1`` the budget is split: an untraced pass, then a pass
with spans around sidewatch's public functions. The metrics are then the
per-layer figures of the workload's stage in the traced pass, and each
end-to-end metric's tracing overhead (traced minus untraced).

See README.md beside this file for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
STATE = BENCH / ".state" / "digests.json"

# The researcher's loop and the operator's loop. The ingest stage runs on
# both as a floor of units: a workload of its own would take a third of the
# benchmark's total time from the other two, and their metrics need long
# runs to be steady.
WORKLOADS = ("train", "detect")
SETUP_REPS = 3
# Units a stage that is not the workload's own makes in an untraced run,
# whatever the budget, so that each metric's median rests on several
# samples spread over the run -- 12 ingest corpora, 7 fits of each family,
# 8 replays of the two clean 0.5 s streams.
SIDE_UNITS = {"ingest": 12, "train": 28, "detect": 8}
# Units the workload's own stage makes at least: one fit of each family,
# each of the five streams.
MIN_MAIN_UNITS = {"train": 4, "detect": 5}
# Each half of a traced run makes at least one unit per metric.
MIN_TRACE_UNITS = {"ingest": 2, "train": 4, "detect": 2}


def set_blas_threads() -> int:
    """Give BLAS one thread per usable core; must run before numpy loads."""
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    return threads


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def code_fingerprint() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def load_known(key: str, seed: int) -> dict[str, str]:
    """Digests earlier runs of this code recorded for this seed."""
    try:
        store = json.loads(STATE.read_text())
    except (OSError, ValueError):
        return {}
    prefix = f"{seed}:"
    return {k[len(prefix):]: v for k, v in store.get(key, {}).items() if k.startswith(prefix)}


def save_known(key: str, seed: int, seen: dict[str, list[str]]) -> None:
    try:
        store = json.loads(STATE.read_text())
    except (OSError, ValueError):
        store = {}
    entries = store.get(key, {})  # digests of other code versions are dropped
    for name, digests in seen.items():
        entries.setdefault(f"{seed}:{name}", digests[0])
    STATE.parent.mkdir(parents=True, exist_ok=True)
    tmp = STATE.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps({key: entries}, indent=1, sort_keys=True))
    os.replace(tmp, STATE)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Runner:
    def __init__(self, args, import_s: float, tracer_cls, stage_classes, probe):
        self.args = args
        self.main = args.workload
        self.import_s = import_s
        self.tracer = tracer_cls()
        self.stage_classes = stage_classes
        self.probe = probe
        self.work = BENCH / ".work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"

    def build(self) -> tuple[dict, float]:
        """Set every stage up once; returns the stages and the set-up time."""
        t0 = time.perf_counter()
        stages = {}
        for name, cls in self.stage_classes.items():
            stage = cls(self.args.seed, self.work, self.tracer, self.probe)
            with self.tracer.scope(region=f"setup:{name}"):
                stage.setup()
            stages[name] = stage
        return stages, self.import_s + time.perf_counter() - t0

    def measure(self, stages: dict, budget_s: float) -> None:
        """Run the workload's own stage for the budget. Each other stage makes
        only its floor of units, due at evenly spaced points of the budget, so
        that its samples do not all fall into one stretch of the run."""
        if self.args.trace:
            side_floor = own_floor = MIN_TRACE_UNITS
        else:
            side_floor, own_floor = SIDE_UNITS, MIN_MAIN_UNITS
        sides = [n for n in stages if n != self.main]
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            due = [n for n in sides if stages[n].units < side_floor[n]
                   and elapsed >= budget_s * (stages[n].units + 0.5) / side_floor[n]]
            if due:
                name = due[0]
            elif elapsed < budget_s or stages[self.main].units < own_floor[self.main]:
                name = self.main
            else:
                return
            gc.collect()  # each unit starts from the same collector state
            t0 = time.perf_counter()
            with self.tracer.scope(region=name):
                stages[name].unit(main=name == self.main)
            stages[name].busy_s += time.perf_counter() - t0

    def end_to_end(self, stages: dict, setup_s: float, rss_mb: float) -> dict:
        out = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB")}
        for stage in stages.values():
            out.update(stage.metrics())
        return out


def layer_metrics(tracer, main: str, stages: dict, retained_mb: float) -> dict:
    """Per-layer figures of the traced pass: those of synthgen and telemetry
    from the ingest stage, every other one from the workload's own stage."""
    stage = stages[main]

    def spans(key, tag=None, region=main):
        return tracer.select(key, region, tag)

    def mean(key, scale, tag=None, region=main):
        s = spans(key, tag, region)
        return sum(x.dur for x in s) / len(s) * scale if s else 0.0

    def ingest_mean(key, scale, tag=None):
        return mean(key, scale, tag, "ingest")

    def total(key, tag=None):
        return sum(x.dur for x in spans(key, tag))

    # Conv1D work per conv training epoch on train, per replayed stream on detect.
    conv_tag = "fit:conv_multibranch" if main == "train" else None
    conv_f = spans("nn.Conv1D.forward", conv_tag)
    conv_b = spans("nn.Conv1D.backward", conv_tag)
    conv_epochs = getattr(stage, "conv_epochs", 0)
    conv_per = conv_epochs if main == "train" else stage.units
    conv_fit_s = getattr(stage, "conv_fit_s", 0.0)
    lib_s = getattr(stage, "lib_s", 0.0)
    cli_rows = getattr(stage, "cli_rows", 0)
    ingest = stages["ingest"]
    dirty_files, cells, imputed = ingest.dirty_files, ingest.cells, ingest.imputed
    cli_spans, cli_children = tracer.children(
        "cli.detect", main, ("models.RowStreamPredictor.push", "detector.stream_step"))
    in_conv_fit = (total("nn.Conv1D.forward", "fit:conv_multibranch")
                   + total("nn.Conv1D.backward", "fit:conv_multibranch"))
    ms = "ms"
    m = {
        "synthgen.trace_ms": (ingest_mean("synthgen.trace", 1e3), ms),
        "telemetry.write_trace_csv.ms": (ingest_mean("telemetry.write_trace_csv", 1e3), ms),
        "telemetry.build_manifest.s": (ingest_mean("telemetry.build_manifest", 1.0), "s"),
        "telemetry.parse_trace_csv.ms": (ingest_mean("telemetry.parse_trace_csv", 1e3), ms),
        "telemetry.parse_trace_csv.dirty_ms":
            (ingest_mean("telemetry.parse_trace_csv", 1e3, "dirty"), ms),
        "telemetry.imputed_cells": (imputed / dirty_files if dirty_files else 0.0, "count"),
        "telemetry.imputed_cells_ratio": (imputed / cells if cells else 0.0, "ratio"),
        "featurize.make_branch_set.ms": (mean("featurize.make_branch_set", 1e3), ms),
        "featurize.make_row_windows.calls":
            (len(spans("featurize.make_row_windows", "fit:conv_multibranch")) / conv_epochs
             if conv_epochs else 0.0, "count"),
        "nn.Conv1D.forward.ms": (mean("nn.Conv1D.forward", 1e3), ms),
        "nn.Conv1D.backward.ms": (mean("nn.Conv1D.backward", 1e3), ms),
        "nn.Conv1D.forward.calls": (len(conv_f) / conv_per if conv_per else 0.0, "count"),
        "nn.Conv1D.gflop": (sum(s.flop for s in conv_f + conv_b) / conv_per / 1e9
                            if conv_per else 0.0, "GFLOP"),
        "nn.Conv1D.im2col_mb": (max((s.nbytes for s in conv_f), default=0.0) / 1e6, "MB"),
        "nn.Conv1D.share_of_conv_fit": (in_conv_fit / conv_fit_s if conv_fit_s else 0.0,
                                        "ratio"),
        "nn.GlobalMaxPool1D.forward.ms": (mean("nn.GlobalMaxPool1D.forward", 1e3), ms),
        "nn.GlobalMaxPool1D.backward.ms": (mean("nn.GlobalMaxPool1D.backward", 1e3), ms),
        "nn.Dense.forward.ms": (mean("nn.Dense.forward", 1e3), ms),
        "nn.Dense.backward.ms": (mean("nn.Dense.backward", 1e3), ms),
        "nn.GRU.forward.ms": (mean("nn.GRU.forward", 1e3), ms),
        "nn.GRU.backward.ms": (mean("nn.GRU.backward", 1e3), ms),
        "nn.LSTM.forward.ms": (mean("nn.LSTM.forward", 1e3), ms),
        "nn.LSTM.backward.ms": (mean("nn.LSTM.backward", 1e3), ms),
        "nn.Adam.step.ms": (mean("nn.Adam.step", 1e3), ms),
        "nn.RMSprop.step.ms": (mean("nn.RMSprop.step", 1e3), ms),
        "nn.evaluate_loss.ms": (mean("nn.evaluate_loss", 1e3), ms),
        "models.predict_rows.ms": (mean("models.predict_rows", 1e3), ms),
        "models.RowStreamPredictor.push.ms": (mean("models.RowStreamPredictor.push", 1e3), ms),
        "models.RowStreamPredictor.push.share_of_row":
            (total("models.RowStreamPredictor.push", "lib") / lib_s if lib_s else 0.0,
             "ratio"),
        "models.stream_retained_mb": (retained_mb, "MB"),
        "models.save_model.ms": (mean("models.save_model", 1e3), ms),
        "models.load_model.ms": (mean("models.load_model", 1e3), ms),
        "detector.stream_step.us": (mean("detector.stream_step", 1e6), "us"),
        "detector.classify_file.us": (mean("detector.classify_file", 1e6), "us"),
        "evalharness.evaluate_model.s": (mean("evalharness.evaluate_model", 1.0), "s"),
        "cli.detect.self_ms_per_row":
            ((sum(s.dur for s in cli_spans) - cli_children) / cli_rows * 1e3
             if cli_rows else 0.0, ms),
    }
    return m


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    threads = set_blas_threads()
    sys.path.insert(0, str(SRC))
    try:
        import numpy as np
        import sidewatch
    except ImportError as exc:
        print(f"bench: cannot import sidewatch from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(sidewatch.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"bench: sidewatch resolved to {sidewatch.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import stages as stages_mod
    import tracing

    import_s = time.perf_counter() - t_start
    fingerprint = f"{code_fingerprint()}:blas{threads}:numpy{np.__version__}"
    probe = stages_mod.Determinism(load_known(fingerprint, args.seed))
    run = Runner(args, import_s, tracing.Tracer, stages_mod.STAGES, probe)
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    facts = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": git_commit(),
        "cpu_count": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": threads, "numpy": np.__version__,
        "python": platform.python_version(), "machine": platform.machine(),
    }

    try:
        setups = []
        # A traced run reports per-layer figures, not setup_s: one untraced
        # set-up is enough there as the base of the set-up overhead.
        for _ in range(SETUP_REPS if args.trace == 0 else 1):
            stages, setup_s = run.build()
            setups.append(setup_s)
        used = [stages]
        budget = args.seconds if args.trace == 0 else args.seconds / 2
        run.measure(stages, budget)
        e2e = run.end_to_end(stages, statistics.median(setups), peak_rss_mb())
        metrics = e2e
        if args.trace:
            run.tracer.install()
            try:
                traced, traced_setup_s = run.build()
                run.measure(traced, budget)
            finally:
                run.tracer.uninstall()
            used.append(traced)
            retained = traced["detect"].retained_mb() if args.workload == "detect" else 0.0
            traced_e2e = run.end_to_end(traced, traced_setup_s, peak_rss_mb())
            metrics = layer_metrics(run.tracer, args.workload, traced, retained)
            # Host jitter, not program work (see Detect.row_ms_p99): taken
            # from the untraced half and given without a bound.
            metrics["detect.row_ms_p99"] = (stages["detect"].row_ms_p99(), "ms")
            for name, (value, unit) in e2e.items():
                if name in traced_e2e:
                    metrics[f"tracing_overhead.{name}"] = (traced_e2e[name][0] - value, unit)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    save_known(fingerprint, args.seed, probe.seen)
    all_ops = [s.ops for group in used for s in group.values()] + [probe.ops]
    attempted = sum(o.attempted for o in all_ops)
    failed = sum(o.failed for o in all_ops)
    report = {
        "facts": facts,
        "setup_s_samples": setups,
        "end_to_end": {k: v[0] for k, v in e2e.items()},
        "stages": [{name: stage.report() for name, stage in group.items()} for group in used],
        "determinism": {"attempted": probe.ops.attempted, "failed": probe.ops.failed,
                        "failure_reasons": probe.ops.reasons,
                        "sha256": {k: v[0] for k, v in probe.seen.items()}},
    }
    if args.trace:
        report["computed_not_measured"] = {
            "nn.Conv1D.gflop": "GEMM FLOP computed from tensor shapes of the traced calls",
            "nn.Conv1D.im2col_mb": "im2col matrix size computed from tensor shapes",
        }
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
