"""Acceptance gate: every release criterion, one test each.

Each test prints a `[criterion N] PASS ...` line on success (run with
`pytest -s tests/test_acceptance.py` to watch them stream). Criterion 10
(real-dataset ingestion) only runs when SIDEWATCH_REAL_DATASET points at
a directory of convention-named trace files.
"""

import json
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sidewatch import cli, evalharness, featurize, models, synthgen, telemetry
from sidewatch.detector import DetectorConfig, StreamState, classify_file, stream_step
from sidewatch.featurize import chunk_sequences, downsample, make_branch_set, make_row_windows, rolling_mean
from sidewatch.models import (
    TrainConfig,
    WindowConfig,
    build_autoencoder,
    build_conv_multibranch,
    build_mlp,
    build_rnn,
    expected_param_count,
    load_model,
    predict_rows,
    predict_sequences,
    save_model,
    train_model,
)
from sidewatch.nn import (
    Adam,
    Bidirectional,
    Conv1D,
    Dense,
    Dropout,
    GRU,
    GlobalMaxPool1D,
    LSTM,
    OptimizerSpec,
    RMSprop,
    Regularizer,
    Sequential,
    VanillaRNN,
    grad_check,
)

from conftest import micro_spec, random_trace


def _report(n: int, message: str) -> None:
    print(f"\n[criterion {n}] PASS {message}")


# --- criterion 1: gradient correctness ------------------------------------------


def _layer_instance(kind: str, rng, trial: int):
    reg = Regularizer(l1=1e-3, l2=1e-3, activity_l2=1e-3)
    if kind == "dense":
        net = Sequential([Dense(3, 4, "tanh", reg, rng), Dense(4, 1, "sigmoid", rng=rng)])
        return net, rng.normal(size=3)
    if kind == "conv1d":
        net = Sequential([Conv1D(2, 3, 3, "tanh", reg, rng), GlobalMaxPool1D(),
                          Dense(3, 1, "sigmoid", rng=rng)])
        return net, rng.normal(size=(7, 2))
    if kind == "global_max_pool1d":
        net = Sequential([GlobalMaxPool1D(), Dense(2, 1, "sigmoid", rng=rng)])
        return net, rng.normal(size=(6, 2))
    if kind == "dropout":
        net = Sequential([Dense(3, 5, "tanh", rng=rng), Dropout(0.4),
                          Dense(5, 1, "sigmoid", rng=rng)])
        return net, rng.normal(size=3)
    if kind == "recurrent_vanilla":
        net = Sequential([VanillaRNN(2, 3, return_sequences=True, rng=rng),
                          VanillaRNN(3, 2, rng=rng), Dense(2, 1, "sigmoid", rng=rng)])
        return net, rng.normal(size=(6, 2))
    if kind == "recurrent_lstm":
        net = Sequential([LSTM(2, 3, return_sequences=True, rng=rng),
                          LSTM(3, 2, rng=rng), Dense(2, 1, "sigmoid", rng=rng)])
        return net, rng.normal(size=(6, 2))
    if kind == "recurrent_gru":
        net = Sequential([GRU(2, 3, return_sequences=True, rng=rng),
                          GRU(3, 2, rng=rng), Dense(2, 1, "sigmoid", rng=rng)])
        return net, rng.normal(size=(6, 2))
    if kind == "bidirectional_wrapper":
        net = Sequential([Bidirectional("gru", 2, 2, return_sequences=True, rng=rng),
                          Bidirectional("lstm", 4, 2, rng=rng),
                          Dense(4, 1, "sigmoid", rng=rng)])
        return net, rng.normal(size=(6, 2))
    raise AssertionError(kind)


def _family_instance(family: str, rng, seed: int):
    if family == "mlp":
        return build_mlp(3, hidden=(4,), seed=seed).network, rng.normal(size=3), \
            float(rng.integers(0, 2)), "bce"
    if family == "conv_multibranch":
        art = build_conv_multibranch(2, window=WindowConfig(8, 6), filters=2,
                                     kernel=3, dense_units=3, seed=seed)
        xs = [rng.normal(size=(8, 2)) for _ in range(3)] + \
            [rng.normal(size=(6, 2)) for _ in range(2)]
        return art.network, xs, float(rng.integers(0, 2)), "bce"
    if family == "autoencoder":
        x = rng.normal(size=(3, 4))
        return build_autoencoder(4, 2, seed=seed).network, x, x, "mse"
    cell = family.split("_")[1]
    bi = family.endswith("_bi")
    art = build_rnn(2, cell=cell, bidirectional=bi, hidden=(2, 2), seed=seed)
    return art.network, rng.normal(size=(6, 2)), float(rng.integers(0, 2)), "bce"


LAYER_KINDS = ("dense", "conv1d", "global_max_pool1d", "dropout",
               "recurrent_vanilla", "recurrent_lstm", "recurrent_gru",
               "bidirectional_wrapper")


def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    instances = 20
    worst = {}
    for kind in LAYER_KINDS:
        rng = np.random.default_rng(sum(map(ord, kind)))
        tol = 1e-4 if "recurrent" in kind or "bidirectional" in kind else 1e-5
        for trial in range(instances):
            net, x = _layer_instance(kind, rng, trial)
            err = grad_check(net, x, float(rng.integers(0, 2)), mask_seed=trial)
            worst[kind] = max(worst.get(kind, 0.0), err)
            assert err <= tol, f"{kind} trial {trial}: rel err {err}"
    for family in models.FAMILIES:
        rng = np.random.default_rng(sum(map(ord, family)) + 1)
        tol = 1e-4 if family.startswith("rnn") else 1e-5
        for trial in range(instances):
            net, x, target, loss = _family_instance(family, rng, trial)
            err = grad_check(net, x, target, loss_kind=loss, mask_seed=trial)
            worst[family] = max(worst.get(family, 0.0), err)
            assert err <= tol, f"{family} trial {trial}: rel err {err}"
    elapsed = time.monotonic() - start
    assert elapsed < 120, f"gradient battery took {elapsed:.0f}s (budget 120s)"
    peak = max(worst.values())
    _report(1, f"- {instances} instances x {len(worst)} kinds/families, "
               f"worst rel err {peak:.2e}, {elapsed:.0f}s")


# --- criterion 2: optimizer sanity ------------------------------------------------


def test_criterion_2_optimizer_sanity():
    rng = np.random.default_rng(2)
    steps_used = {}
    for kind, lr in (("adam", 0.1), ("rmsprop", 0.05)):
        opt = (Adam if kind == "adam" else RMSprop)(
            OptimizerSpec(kind=kind, learning_rate=lr))
        w = {"w": rng.normal(size=6)}
        for step in range(1, 1001):
            opt.step(w, {"w": 2.0 * w["w"]})
            if np.linalg.norm(w["w"]) < 1e-3:
                break
        assert np.linalg.norm(w["w"]) < 1e-3, f"{kind} failed to converge"
        steps_used[kind] = step

    # rmsprop vs a 3-step hand-unrolled recurrence, exact equality
    spec = OptimizerSpec(kind="rmsprop", learning_rate=0.01)
    opt = RMSprop(spec)
    w = {"w": np.array([0.5])}
    expect, v = 0.5, 0.0
    for g in (1.0, -2.0, 0.25):
        v = 0.9 * v + 0.1 * g * g
        expect -= 0.01 * g / (np.sqrt(v) + spec.resolved_eps)
        opt.step(w, {"w": np.array([g])})
    assert w["w"][0] == expect
    _report(2, f"- adam {steps_used['adam']} steps, rmsprop {steps_used['rmsprop']} "
               "steps to |w|<1e-3; 3-step recurrence exact")


# --- criterion 3: feature-pipeline oracles ------------------------------------------


def test_criterion_3_feature_pipeline_oracles():
    rng = np.random.default_rng(3)
    n = 1000

    for _ in range(n):
        T, F, w = int(rng.integers(1, 40)), int(rng.integers(1, 4)), int(rng.integers(1, 12))
        x = rng.normal(size=(T, F)) * 5
        got = rolling_mean(x, w)
        expect = np.stack([x[max(0, i - w + 1): i + 1].mean(axis=0) for i in range(T)])
        assert np.allclose(got, expect, atol=1e-9)

    for _ in range(n):
        T, f = int(rng.integers(1, 60)), int(rng.integers(1, 10))
        x = rng.normal(size=(T, 2))
        got = downsample(x, f)
        expect = x[[k * f for k in range(T // f)]] if T // f else np.zeros((0, 2))
        assert np.array_equal(got, expect)

    sizes = rng.integers(1, 120, size=n)
    L = 7
    count = 0
    for T in sizes:
        trace = random_trace(rng, T=int(T), F=1)
        count += chunk_sequences([trace], L).num_sequences
    assert count == sum(int(T) // L for T in sizes)

    checked = 0
    for _ in range(n):
        T = int(rng.integers(1, 90))
        rows = rng.normal(size=(T, 2))
        bs = make_branch_set(rows, 0.5)
        i = int(rng.integers(0, T))
        wins = make_row_windows(bs, i, raw_window=16, down_window=8)
        for win, branch, factor in (
            (wins[0], bs.raw, None), (wins[1], bs.smooth_short, None),
            (wins[2], bs.smooth_long, None),
            (wins[3], bs.down_mid, bs.mid_factor),
            (wins[4], bs.down_long, bs.long_factor),
        ):
            width = 16 if factor is None else 8
            if branch.shape[0] == 0:
                assert np.array_equal(win, np.zeros((width, 2)))
                continue
            last = i if factor is None else min(i // factor, branch.shape[0] - 1)
            expect = np.stack([branch[max(0, j)]
                               for j in range(last - width + 1, last + 1)])
            assert np.array_equal(win, expect)
            checked += 1
    _report(3, f"- rolling_mean/downsample/chunk/windows each fuzzed {n}x "
               f"({checked} window comparisons)")


# --- criterion 4: detector oracle ---------------------------------------------------


def test_criterion_4_detector_oracle():
    rng = np.random.default_rng(4)
    n = 10_000
    for trial in range(n):
        length = int(rng.integers(1, 80))
        thr = int(rng.integers(1, 9))
        flags = rng.random(length) < rng.uniform(0.2, 0.95)
        probs = np.where(flags, 0.9, 0.1)
        cfg = DetectorConfig(consec_threshold=thr)
        verdict = classify_file(probs, cfg)
        # independent naive scanner
        expect = None
        run = 0
        for i, f in enumerate(flags):
            run = run + 1 if f else 0
            if run >= thr:
                expect = i
                break
        assert verdict.alert_row == expect
        # stream/batch equivalence on the same sequence
        state = StreamState(cfg=cfg)
        for p in probs:
            stream_step(state, float(p))
        assert state.alert_row == expect

    cfg = DetectorConfig()  # defaults: threshold 50, period 0.5
    flags = np.zeros(400, dtype=bool)
    flags[100:] = True
    verdict = classify_file(np.where(flags, 0.9, 0.1), cfg)
    from sidewatch.detector import time_to_detect
    assert time_to_detect(verdict, 100, cfg) == 25.0
    _report(4, f"- {n} fuzzed sequences match the run-length scanner, "
               "stream==batch, min TTD 25.0s at defaults")


# --- criterion 5: overfit capability --------------------------------------------------


@pytest.fixture(scope="module")
def overfit_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("overfit")
    spec = micro_spec(
        benign_counts={"os-only": 1, "office": 1},
        malware_counts={"ransomware": 1, "worm": 1},
        seed=42,
        difficulty=3.0,
    )
    synthgen.generate_corpus(spec, root)
    manifest = telemetry.build_manifest(root)
    traces = telemetry.load_traces(manifest, root)
    return traces


def test_criterion_5_overfit_capability(overfit_corpus):
    start = time.monotonic()
    traces = overfit_corpus
    F = traces[0].num_features
    X = np.vstack([t.features for t in traces])
    y = np.concatenate([t.labels for t in traces])
    cutoff = DetectorConfig().prob_cutoff
    reached = {}

    mlp = build_mlp(F, seed=0)
    mlp, log = train_model(mlp, (X, y), TrainConfig(
        max_epochs=1000, seed=0, early_stop_patience=15))
    probs = np.concatenate([predict_rows(mlp, t) for t in traces])
    acc = float(np.mean((probs > cutoff) == (y == 1)))
    assert acc >= 0.99, f"mlp train accuracy {acc}"
    reached["mlp"] = (acc, mlp.epochs_trained)

    conv = build_conv_multibranch(F, seed=0)
    conv, _ = train_model(conv, traces, TrainConfig(
        max_epochs=60, seed=0, rows_per_trace=24,
        optimizer=OptimizerSpec(learning_rate=2e-3), early_stop_patience=12))
    probs = np.concatenate([predict_rows(conv, t) for t in traces])
    acc = float(np.mean((probs > cutoff) == (y == 1)))
    assert acc >= 0.99, f"conv train accuracy {acc}"
    reached["conv"] = (acc, conv.epochs_trained)

    batch = chunk_sequences(traces, 40)
    for family in models.RNN_FAMILIES:
        cell = family.split("_")[1]
        bi = family.endswith("_bi")
        rnn = build_rnn(F, cell=cell, bidirectional=bi, seed=0)
        rnn, _ = train_model(rnn, batch, TrainConfig(
            max_epochs=100, seed=0,
            optimizer=OptimizerSpec(kind="rmsprop", learning_rate=5e-3)))
        probs = predict_sequences(rnn, batch)
        acc = float(np.mean((probs > cutoff) == (batch.labels == 1)))
        assert acc >= 0.99, f"{family} train accuracy {acc}"
        reached[family] = (acc, rnn.epochs_trained)

    elapsed = time.monotonic() - start
    assert elapsed < 300, f"overfit battery took {elapsed:.0f}s (budget 300s)"
    summary = ", ".join(f"{k}={v[0]:.3f}@{v[1]}ep" for k, v in reached.items())
    _report(5, f"- all 7 models >= 99% train accuracy in {elapsed:.0f}s ({summary})")


# --- criterion 6: end-to-end synthetic reproduction -------------------------------------


def test_criterion_6_end_to_end(tmp_path):
    start = time.monotonic()
    spec = synthgen.CorpusSpec(seed=0, difficulty=2.0)  # full defaults: 57x960x132
    corpus = tmp_path / "corpus"
    manifest = synthgen.generate_corpus(spec, corpus)
    mal = sum(1 for e in manifest.entries if e.meta.is_malicious)
    assert (len(manifest.entries), mal) == (57, 29)

    manifest = evalharness.stratified_split(manifest, (16, 16), seed=1,
                                            test_counts=(11, 13))
    train = telemetry.load_traces(manifest, corpus, "train")
    test = telemetry.load_traces(manifest, corpus, "test")
    assert len(train) == 32 and len(test) == 24

    X = np.vstack([t.features for t in train])
    y = np.concatenate([t.labels for t in train])
    mlp = build_mlp(132, seed=0)
    mlp, _ = train_model(mlp, (X, y), TrainConfig(
        max_epochs=1000, seed=0, batch_size=256,
        early_stop_patience=8, validation_fraction=0.1))

    conv = build_conv_multibranch(132, seed=0)
    conv, _ = train_model(conv, train, TrainConfig(
        max_epochs=24, seed=0, rows_per_trace=16,
        optimizer=OptimizerSpec(learning_rate=5e-4)))

    cfg = DetectorConfig()  # threshold 50 at 0.5s: the 25s floor
    mlp_section = evalharness.evaluate_model(mlp, test, cfg, label="mlp")
    conv_section = evalharness.evaluate_model(conv, test, cfg, label="conv")

    fm = conv_section.file_metrics
    assert fm.accuracy >= 0.90, f"conv file accuracy {fm.accuracy}"
    assert fm.fnr <= 0.10, f"conv file FNR {fm.fnr}"
    assert conv_section.mean_ttd_s is not None
    assert 25.0 <= conv_section.mean_ttd_s <= 120.0, \
        f"conv mean TTD {conv_section.mean_ttd_s}"

    elapsed = time.monotonic() - start
    assert elapsed < 1200, f"end-to-end took {elapsed:.0f}s (budget 1200s)"
    _report(6, f"- 57-trace corpus, 32/24 split; conv file acc "
               f"{fm.accuracy:.3f}, FNR {fm.fnr:.3f}, mean TTD "
               f"{conv_section.mean_ttd_s:.1f}s (mlp file acc "
               f"{mlp_section.file_metrics.accuracy:.3f}); {elapsed:.0f}s")


# --- criterion 7: sweep machinery ---------------------------------------------------


@pytest.fixture(scope="module")
def sweep_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("sweep")
    spec = micro_spec(
        benign_counts={"os-only": 2, "office": 1, "benchmark": 1},
        malware_counts={"ransomware": 2, "worm": 2},
        num_features=64,
        duration_s=100.0,
        onset_choices=(25.0, 40.0),
        seed=11,
        difficulty=3.0,
    )
    manifest = synthgen.generate_corpus(spec, root)
    manifest = evalharness.stratified_split(manifest, (2, 2), seed=1)
    train = telemetry.load_traces(manifest, root, "train")
    test = telemetry.load_traces(manifest, root, "test")
    return train, test


def test_criterion_7_threshold_and_encoding_sweeps(sweep_corpus):
    train, test = sweep_corpus
    X = np.vstack([t.features for t in train])
    y = np.concatenate([t.labels for t in train])
    mlp = build_mlp(64, hidden=(16,), seed=0)
    mlp, _ = train_model(mlp, (X, y), TrainConfig(max_epochs=40, seed=0))

    cfg = DetectorConfig()
    thresholds = list(range(1, 101))
    curve = evalharness.sweep_threshold(mlp, test, thresholds, cfg)
    assert len(curve) == 100
    probs = [predict_rows(mlp, t) for t in test]
    prev = None
    for thr in thresholds:
        per = DetectorConfig(consec_threshold=thr)
        flagged = frozenset(i for i, p in enumerate(probs)
                            if classify_file(p, per).is_malicious)
        if prev is not None:
            assert flagged <= prev, f"flagged set grew at threshold {thr}"
        prev = flagged

    dims = [5, 10, 15, 20, 30, 40, 50]
    quick = TrainConfig(max_epochs=4, seed=0, rows_per_trace=8)
    curves = evalharness.sweep_encoding_dims(
        dims, ["mlp", "conv_multibranch"], train, test,
        ae_config=TrainConfig(max_epochs=6, seed=0),
        clf_config=quick,
        cfg=DetectorConfig(consec_threshold=20), seed=0,
        conv_kwargs=dict(filters=4, kernel=8, dense_units=8,
                         window=WindowConfig(32, 16)),
        mlp_hidden=(16,))
    for fam in ("mlp", "conv_multibranch"):
        assert [d for d, _ in curves[fam]] == dims
    _report(7, "- threshold sweep 1..100 monotone, encoding sweep ran all "
               f"7 dims for mlp+conv")


def test_criterion_7_sequence_length_sweep(tmp_path):
    spec = micro_spec(
        benign_counts={"os-only": 4, "office": 4},
        malware_counts={"ransomware": 4, "worm": 4},
        num_features=6,
        duration_s=480.0,
        onset_choices=(90.0, 120.0, 150.0),
        seed=13,
        difficulty=3.0,
    )
    manifest = synthgen.generate_corpus(spec, tmp_path)
    traces = telemetry.load_traces(manifest, tmp_path)
    assert len(traces) == 16
    assert all(t.num_rows == 960 for t in traces)

    lengths = [5, 20, 40, 80, 160, 320, 640, 960]
    results = evalharness.sweep_sequence_length(
        lengths, ["rnn_gru"], traces, traces,
        TrainConfig(max_epochs=1, seed=0), DetectorConfig(), seed=0)
    assert [r.length for r in results] == lengths
    for r in results:
        assert r.training_sequences == sum(t.num_rows // r.length for t in traces)
    assert results[-1].training_sequences == 16  # 960 -> 16, 16 files x 960 rows
    _report(7, "- sequence-length sweep ran all 8 lengths; counts equal "
               "sum(T_i // L); 960 -> 16 reproduced")


# --- criterion 8: determinism & persistence ---------------------------------------------


def test_criterion_8_determinism_and_persistence(tmp_path):
    spec = micro_spec(seed=77)
    d1, d2 = tmp_path / "c1", tmp_path / "c2"
    synthgen.generate_corpus(spec, d1)
    synthgen.generate_corpus(spec, d2)
    for p1 in sorted(d1.iterdir()):
        assert p1.read_bytes() == (d2 / p1.name).read_bytes(), p1.name

    manifest = telemetry.build_manifest(d1)
    manifest = evalharness.stratified_split(manifest, (2, 2), seed=5)
    train = telemetry.load_traces(manifest, d1, "train")
    test = telemetry.load_traces(manifest, d1, "test")
    X = np.vstack([t.features for t in train])
    y = np.concatenate([t.labels for t in train])

    paths = []
    for run in range(2):
        m = build_mlp(8, hidden=(12,), seed=3)
        m, _ = train_model(m, (X, y), TrainConfig(max_epochs=20, seed=9))
        path = tmp_path / f"model{run}.json"
        save_model(m, path)
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()

    artifact = load_model(paths[0])
    probe = predict_rows(artifact, test[0])
    reloaded = load_model(paths[0])
    assert np.array_equal(predict_rows(reloaded, test[0]), probe)

    cfg = DetectorConfig(consec_threshold=20)
    reports = []
    for run in range(2):
        report = evalharness.EvalReport(config={"seed": 9})
        report.sections.append(evalharness.evaluate_model(artifact, test, cfg))
        out = tmp_path / f"report{run}"
        evalharness.emit_report(report, out)
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]
    _report(8, "- corpora, artifacts, and reports byte-identical across runs; "
               "save/load preserves predictions bit-exactly")


# --- criterion 9: parameter accounting ------------------------------------------------


def test_criterion_9_parameter_accounting(tmp_path, capsys):
    cases = [
        build_mlp(132),
        build_mlp(7, hidden=(10, 5)),
        build_conv_multibranch(132),
        build_conv_multibranch(5, filters=4, kernel=3, dense_units=6,
                               window=WindowConfig(8, 4)),
        build_autoencoder(132, 20),
        build_rnn(132, cell="vanilla"),
        build_rnn(132, cell="lstm"),
        build_rnn(132, cell="lstm", bidirectional=True),
        build_rnn(132, cell="gru"),
        build_rnn(132, cell="gru", bidirectional=True),
    ]
    for artifact in cases:
        expect = expected_param_count(artifact.family, artifact.input_dim,
                                      artifact.hyper)
        assert artifact.param_count == expect, artifact.family

    vanilla = build_rnn(132, cell="vanilla")
    assert vanilla.param_count == 6833
    path = tmp_path / "rnn.json"
    save_model(vanilla, path)
    assert cli.main(["inspect", "--model", str(path)]) == 0
    out = capsys.readouterr().out
    assert "6833" in out
    _report(9, "- closed-form counts match for all families; vanilla RNN at "
               "F=132 reports exactly 6833")


# --- criterion 10: optional real-dataset ingestion ---------------------------------------


def test_criterion_10_real_dataset_ingestion(tmp_path):
    root = os.environ.get("SIDEWATCH_REAL_DATASET")
    if not root:
        pytest.skip("SIDEWATCH_REAL_DATASET not set; optional criterion")
    manifest = telemetry.build_manifest(root)
    assert manifest.entries, "no parseable traces in the dataset directory"
    manifest = evalharness.stratified_split(
        manifest,
        (min(16, sum(1 for e in manifest.entries if not e.meta.is_malicious)),
         min(16, sum(1 for e in manifest.entries if e.meta.is_malicious))),
        seed=0)
    train = telemetry.load_traces(manifest, root, "train")
    test = telemetry.load_traces(manifest, root, "test")
    F = train[0].num_features
    X = np.vstack([t.features for t in train])
    y = np.concatenate([t.labels for t in train])
    mlp = build_mlp(F, seed=0)
    mlp, _ = train_model(mlp, (X, y), TrainConfig(
        max_epochs=1000, seed=0, batch_size=256, early_stop_patience=8,
        validation_fraction=0.1))
    report = evalharness.EvalReport(config={"dataset": str(root)})
    report.sections.append(
        evalharness.evaluate_model(mlp, test, DetectorConfig(), label="mlp"))
    evalharness.emit_report(report, tmp_path)
    assert (tmp_path / "summary.txt").exists()
    _report(10, "- real dataset ingested and Table-2-shaped report emitted "
                "(no accuracy asserted)")
