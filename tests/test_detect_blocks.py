"""`sidewatch detect` scores the rows it has as blocks: the same results as
a per-row loop, bounded memory, a checkpoint that counts only the rows
whose step completed, and the verdict `eval` reports for the same file."""

import contextlib
import io
import json
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from sidewatch import cli, evalharness, models, synthgen, telemetry
from sidewatch.cli import EXIT_ALERT, EXIT_DATA, EXIT_OK
from sidewatch.detector import DetectorConfig, StreamState, stream_step
from sidewatch.errors import RaggedRowError, SidewatchError
from sidewatch.models import WindowConfig

from conftest import read_rows

F = 3
HEADER = "time_s,f0,f1,f2,label"


# --- the per-row reference -------------------------------------------------------


def _reference_rows(source):
    """(index, SampleRow) per data row, read one line at a time."""
    lines = Path(source).read_bytes().splitlines(keepends=True)
    yield from read_rows(lines, where=str(source))


def reference_detect(model, source, cfg: DetectorConfig, checkpoint=None):
    """`sidewatch detect` as a per-row loop: each row is parsed (which checks
    its time order), pushed and stepped alone, and counted once its step
    completes.
    Returns (exit code, stderr, checkpoint dict or None, event records)."""
    artifact = models.load_model(model)
    predictor = models.RowStreamPredictor(artifact)
    state = StreamState(cfg=cfg)
    start_index = 0
    if checkpoint is not None and Path(checkpoint).exists():
        saved = json.loads(Path(checkpoint).read_text())
        state.rows_seen, state.run = saved["rows_seen"], saved["run"]
        state.alerted, state.alert_row = saved["alerted"], saved["alert_row"]
        start_index = saved["source_rows_read"]
    events, stderr, rows_read = [], "", 0
    try:
        for index, row in _reference_rows(source):
            prob = predictor.push(row)
            if index >= start_index and prob is not None:
                event = stream_step(state, prob, predictor.unit_rows)
                if event != "none":
                    events.append({"event": event, "row": index, "t": row.t,
                                   "model": artifact.family, "probability": prob})
            rows_read = index + 1
    except SidewatchError as exc:
        stderr = f"sidewatch: error: {exc}\n"
    saved = None if checkpoint is None else {
        "rows_seen": state.rows_seen, "run": state.run, "alerted": state.alerted,
        "alert_row": state.alert_row, "source_rows_read": max(rows_read, start_index)}
    code = EXIT_DATA if stderr else (
        EXIT_ALERT if state.alerted or state.alert_row is not None else EXIT_OK)
    return code, stderr, saved, events


def run_detect(argv):
    """cli.main(argv) -> (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def read_events(path: Path) -> list[dict]:
    return [json.loads(ln) for ln in path.read_text().splitlines()] if path.exists() else []


def assert_same_events(got, want):
    assert [(e["event"], e["row"], e["t"], e["model"]) for e in got] == \
        [(e["event"], e["row"], e["t"], e["model"]) for e in want]
    for g, w in zip(got, want):
        assert g["probability"] == pytest.approx(w["probability"], abs=1e-9)


# --- block vs per-row ------------------------------------------------------------


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("block-models")
    rnn = models.build_rnn(F, cell="gru", seed=2)
    rnn.sequence_length = 4
    built = {
        "mlp": models.build_mlp(F, hidden=(4,), seed=1),
        "conv": models.build_conv_multibranch(F, filters=3, kernel=4, dense_units=4,
                                              window=WindowConfig(16, 8), seed=0),
        "rnn": rnn,
    }
    paths = {}
    for name, artifact in built.items():
        paths[name] = root / f"{name}.model"
        models.save_model(artifact, paths[name])
    return paths


@st.composite
def detect_cases(draw):
    n = draw(st.integers(1, 50))
    period = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    lines = []
    for i in range(n):
        cells = [repr(i * period), *map(repr, rng.normal(size=F).tolist()), str(int(i > n // 2))]
        for j in range(1, F + 2):
            dirt = draw(st.sampled_from(["", "", "", "", "", "", "blank", "nan", "quoted"]))
            if dirt == "blank":
                cells[j] = ""
            elif dirt == "nan":
                cells[j] = "nan"
            elif dirt == "quoted":
                cells[j] = f'"{cells[j]}"'
        lines.append(cells)
    defect = draw(st.sampled_from([None, "ragged", "time cell", "time back"]))
    if defect is not None:
        at = draw(st.one_of(st.integers(0, min(n - 1, 2)), st.integers(0, n - 1)))
        if defect == "ragged":
            lines[at] = lines[at][:-1] if draw(st.booleans()) else lines[at] + ["0"]
        elif defect == "time cell":
            lines[at][0] = draw(st.sampled_from(["x", "nan", "inf", ""]))
        else:
            lines[at][0] = repr(max(at - draw(st.integers(1, 2)), 0) * period)
    text = [HEADER] + [",".join(cells) for cells in lines]
    # Lines that are empty or only whitespace are no records, before the
    # header too.
    for _ in range(draw(st.integers(0, 2))):
        blank = draw(st.sampled_from(["", " ", "\t", " \t  "]))
        text.insert(draw(st.integers(0, len(text))), blank)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    body = end.join(text) + (end if draw(st.booleans()) else "")
    resume = None
    if draw(st.booleans()):
        resume = {"rows_seen": draw(st.integers(0, 5)), "run": draw(st.integers(0, 3)),
                  "alerted": draw(st.booleans()),
                  "alert_row": draw(st.one_of(st.none(), st.integers(0, 5))),
                  "source_rows_read": draw(st.integers(0, n + 2))}
    return dict(
        family=draw(st.sampled_from(["mlp", "conv", "rnn"])), body=body, resume=resume,
        cap=draw(st.integers(1, 8)), read_bytes=draw(st.sampled_from([7, 64, 150, 400, 1 << 16])),
        cutoff=draw(st.sampled_from([0.3, 0.5, 0.7])), threshold=draw(st.integers(1, 4)),
        latch=draw(st.booleans()))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(case=detect_cases())
# The conv period comes from rows 0 and 1: a stream whose row 1 steps back
# fails in the row parser, before the period is set, in a block or alone.
@example(case=dict(family="conv", body=f"{HEADER}\n0.0,1,2,3,0\n0.0,1,2,3,0\n0.5,1,2,3,0\n",
                   resume=None, cap=8, read_bytes=1 << 16, cutoff=0.5, threshold=1, latch=True))
def test_blocks_match_the_per_row_reference(artifacts, case):
    model = artifacts[case["family"]]
    cfg = DetectorConfig(prob_cutoff=case["cutoff"], consec_threshold=case["threshold"],
                         latching=case["latch"])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        source = tmp / "stream.csv"
        source.write_bytes(case["body"].encode("utf-8"))
        ckpt_ref, ckpt = tmp / "ref.json", tmp / "ckpt.json"
        if case["resume"] is not None:
            ckpt_ref.write_text(json.dumps(case["resume"]))
            ckpt.write_text(json.dumps(case["resume"]))
        want = reference_detect(model, source, cfg, ckpt_ref)

        argv = ["detect", "--model", str(model), "--source", str(source),
                "--events", str(tmp / "events.jsonl"), "--checkpoint", str(ckpt),
                "--cutoff", repr(case["cutoff"]), "--threshold", str(case["threshold"])]
        if not case["latch"]:
            argv.append("--no-latch")
        with mock.patch.object(telemetry, "BLOCK_ROWS", case["cap"]), \
                mock.patch.object(telemetry, "_READ_BYTES", case["read_bytes"]):
            code, stderr = run_detect(argv)
        assert (code, stderr) == want[:2]
        assert json.loads(ckpt.read_text()) == want[2]
        assert_same_events(read_events(tmp / "events.jsonl"), want[3])


def test_stdin_is_read_in_blocks(artifacts, tmp_path, monkeypatch):
    rows = [f"{0.5 * i!r},{i % 3},{i % 5},{i % 7},0" for i in range(40)]
    body = ("\n".join([HEADER, *rows]) + "\n").encode("utf-8")
    source = tmp_path / "stream.csv"
    source.write_bytes(body)
    want = reference_detect(artifacts["conv"], source, DetectorConfig(consec_threshold=2))
    monkeypatch.setattr(cli.sys, "stdin", io.TextIOWrapper(io.BytesIO(body)))
    monkeypatch.setattr(telemetry, "_READ_BYTES", 100)  # a pipe's read gives a few lines
    events = tmp_path / "events.jsonl"
    code, stderr = run_detect(["detect", "--model", str(artifacts["conv"]), "--source", "-",
                               "--threshold", "2", "--events", str(events)])
    assert (code, stderr) == want[:2]
    assert_same_events(read_events(events), want[3])


# --- one reader for batch and live ------------------------------------------------


_ROWS = [f"{0.5 * i!r},{i % 3},{i % 5}.5,{i % 7},{int(i > 3)}" for i in range(8)]


# Files the batch parser and `detect` once read differently: a line that is
# empty or only whitespace is no record anywhere, and a record is one line,
# so a quoted cell that spans two lines leaves its first line ragged.
@pytest.mark.parametrize("body, error", [
    ("\n".join(["", HEADER, *_ROWS, ""]), None),
    ("\n".join([HEADER, *_ROWS[:3], " \t ", *_ROWS[3:], ""]), None),
    ("\n".join([HEADER, *_ROWS[:2], '1.0,"4', '",5,6,0', *_ROWS[3:], ""]),
     RaggedRowError),
], ids=["blank line before the header", "whitespace line between rows",
        "quoted cell over two lines"])
@pytest.mark.parametrize("family", ["mlp", "conv"])
def test_batch_validate_and_detect_agree(artifacts, tmp_path, monkeypatch, capsys, family,
                                         body, error):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    source = corpus / "probe_Win7SP1_hw1_worm_2.csv"
    source.write_text(body, encoding="utf-8", newline="")
    try:
        trace, batch_error = telemetry.parse_trace_csv(source), None
    except SidewatchError as exc:
        trace, batch_error = None, exc
    assert type(batch_error) is (error or type(None))

    assert cli.main(["validate", "--corpus", str(corpus)]) == (EXIT_DATA if error else EXIT_OK)
    out = capsys.readouterr().out
    if error:
        assert f"{source.name}: skipped ({error.__name__}: {batch_error})" in out
    else:
        assert "validated 1 traces, 0 violations, 0 skipped files" in out

    pushed = []
    push_block = models.RowStreamPredictor.push_block

    def recorded(predictor, features, times=None):
        probs = push_block(predictor, features, times)
        pushed.append((features, times, probs))
        return probs

    with monkeypatch.context() as patch:
        patch.setattr(models.RowStreamPredictor, "push_block", recorded)
        code, stderr = run_detect(["detect", "--model", str(artifacts[family]),
                                   "--source", str(source)])
    if error:
        assert (code, stderr) == (EXIT_DATA, f"sidewatch: error: {batch_error}\n")
        # The rows before the bad one are scored, as the batch trace cut there is.
        source.write_text("\n".join([HEADER, *_ROWS[:2], ""]), encoding="utf-8")
        trace = telemetry.parse_trace_csv(source)
    else:
        assert code in (EXIT_OK, EXIT_ALERT) and stderr == ""
    features = np.concatenate([f for f, _, _ in pushed])
    times = [t for _, block, _ in pushed for t in block]
    probs = np.array([p for _, _, block in pushed for p in block])
    assert features.tobytes() == trace.features.tobytes()
    assert times == trace.times.tolist()
    np.testing.assert_allclose(probs, models.predict_rows(models.load_model(artifacts[family]),
                                                          trace), rtol=0, atol=1e-12)


# --- the checkpoint after an interrupt ---------------------------------------------


# Rows 16-31 make the second block: interrupted before the alert, and after
# it, with the block's first events written.
@pytest.mark.parametrize("k", [19, 30])
def test_interrupt_mid_block_resumes_where_it_stopped(artifacts, tmp_path, monkeypatch, k):
    # Every probability is above the cutoff, so the alert row is row 24.
    rows = [f"{0.5 * i!r},{i % 3},{i % 5},{i % 7},0" for i in range(60)]
    source = tmp_path / "stream.csv"
    source.write_text("\n".join([HEADER, *rows]) + "\n")
    base = ["detect", "--model", str(artifacts["mlp"]), "--source", str(source),
            "--threshold", "25", "--cutoff", "0.01"]
    full = tmp_path / "full.jsonl"
    assert run_detect(base + ["--events", str(full)]) == (EXIT_ALERT, "")
    assert read_events(full)[0]["event"] == "alert" and read_events(full)[0]["row"] == 24

    monkeypatch.setattr(telemetry, "BLOCK_ROWS", 16)
    events, ckpt = tmp_path / "resumed.jsonl", tmp_path / "ckpt.json"
    argv = base + ["--events", str(events), "--checkpoint", str(ckpt)]
    steps = []

    def interrupted_step(state, prob, rows):
        if len(steps) == k:
            raise KeyboardInterrupt
        steps.append(prob)
        return stream_step(state, prob, rows)

    with monkeypatch.context() as patch:
        patch.setattr(cli, "stream_step", interrupted_step)
        assert run_detect(argv) == (EXIT_ALERT if k > 24 else EXIT_OK, "")
    saved = json.loads(ckpt.read_text())
    assert saved["source_rows_read"] == saved["rows_seen"] == k
    assert [e["row"] for e in read_events(events)] == list(range(24, k))
    assert run_detect(argv) == (EXIT_ALERT, "")
    assert_same_events(read_events(events), read_events(full))


# --- bounded memory ----------------------------------------------------------------


def test_memory_is_flat_over_a_long_source(tmp_path, monkeypatch):
    model = tmp_path / "conv.model"
    models.save_model(models.build_conv_multibranch(F, filters=3, kernel=4, dense_units=4,
                                                    window=WindowConfig(16, 8), seed=0), model)
    # 64-byte lines: each read of the source holds one block's lines and
    # cells of the same sizes, so every block leaves the same memory behind.
    blocks = 98
    rows = blocks * telemetry.BLOCK_ROWS - 1  # the header is the first block's first line
    assert telemetry._READ_BYTES == 64 * telemetry.BLOCK_ROWS
    with open(tmp_path / "long.csv", "w") as fh:
        fh.write(f"{'time_s,f0,f1,f2':<63}\n")
        fh.writelines(f"{0.5 * i:049.1f},{i % 7}.5,{i % 5}.25,{i % 3}.75\n" for i in range(rows))

    sizes, retained = [], {}
    ours = [tracemalloc.Filter(True, str(Path(models.__file__).parent / "*"))]
    push_block = models.RowStreamPredictor.push_block

    def measured(predictor, features, times=None):
        probs = push_block(predictor, features, times)
        sizes.append(len(features))
        if len(sizes) in (20, blocks):
            snap = tracemalloc.take_snapshot().filter_traces(ours)
            retained[sum(sizes)] = sum(s.size for s in snap.statistics("filename"))
        return probs

    monkeypatch.setattr(models.RowStreamPredictor, "push_block", measured)
    tracemalloc.start()
    try:
        code, stderr = run_detect(["detect", "--model", str(model), "--source",
                                   str(tmp_path / "long.csv"), "--cutoff", "0.99",
                                   "--events", str(tmp_path / "events.jsonl")])
    finally:
        tracemalloc.stop()
    assert (code, stderr) == (EXIT_OK, "")
    assert sum(sizes) == rows and max(sizes) <= telemetry.BLOCK_ROWS
    assert sorted(retained) == [20 * telemetry.BLOCK_ROWS - 1, rows]
    assert abs(retained[rows] - retained[20 * telemetry.BLOCK_ROWS - 1]) <= 512


# --- eval and detect agree ----------------------------------------------------------


def _detect_verdict(model, source, threshold, cutoff=0.5, latch=True):
    """`sidewatch detect` over *source*: (exit code, first alert event row)."""
    events = Path(source).with_suffix(".jsonl")
    events.unlink(missing_ok=True)
    argv = ["detect", "--model", str(model), "--source", str(source), "--events", str(events),
            "--threshold", str(threshold), "--cutoff", repr(cutoff)]
    code, stderr = run_detect(argv + ([] if latch else ["--no-latch"]))
    assert stderr == ""
    alerts = [e["row"] for e in read_events(events) if e["event"] == "alert"]
    return code, alerts[0] if alerts else None


def _eval_verdict(section):
    """(exit code `detect` should give, alert row) of a one-file eval section."""
    f, = section.files
    return (EXIT_ALERT if f.verdict == "malicious" else EXIT_OK), f.alert_row


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
# At least one chunk of the rnn's 4 rows, so that eval scores the file.
@given(family=st.sampled_from(["mlp", "conv", "rnn"]), n=st.integers(4, 60),
       period=st.sampled_from([0.5, 1.0]), seed=st.integers(0, 2**16),
       onset=st.one_of(st.none(), st.integers(0, 30)), threshold=st.integers(1, 12),
       latch=st.booleans(), cap=st.integers(1, 8), read_bytes=st.sampled_from([64, 400, 1 << 16]),
       data=st.data())
def test_eval_and_detect_agree(artifacts, family, n, period, seed, onset, threshold, latch,
                               cap, read_bytes, data):
    rng = np.random.default_rng(seed)
    name = "probe_Win7SP1_hw1_" + ("office" if onset is None else f"worm_{onset * period!r}")
    lines = [HEADER] + [",".join([repr(i * period), *map(repr, rng.normal(size=F).tolist()),
                                  str(int(onset is not None and i >= onset))])
                        for i in range(n)]
    artifact = models.load_model(artifacts[family])
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / f"{name}.csv"
        source.write_text("\n".join(lines) + "\n")
        trace = telemetry.parse_trace_csv(source)
        scored = models.RowStreamPredictor(artifact).push_block(trace.features, trace.times)
        probs = sorted({p for p in scored if p is not None})
        # A cutoff between two probabilities splits the units both ways.
        cuts = [0.5] + [(a + b) / 2 for a, b in zip(probs, probs[1:]) if 0 < (a + b) / 2 < 1]
        cutoff = data.draw(st.sampled_from(cuts))
        # A chunk's probability can differ by a few ulps between a whole
        # trace's forward and a block's, so no unit may sit at the cutoff.
        assume(all(abs(p - cutoff) > 1e-12 for p in probs))
        cfg = DetectorConfig(prob_cutoff=cutoff, consec_threshold=threshold, latching=latch)
        want = _eval_verdict(evalharness.evaluate_model(artifact, [trace], cfg))
        with mock.patch.object(telemetry, "BLOCK_ROWS", cap), \
                mock.patch.object(telemetry, "_READ_BYTES", read_bytes):
            assert _detect_verdict(artifacts[family], source, threshold, cutoff, latch) == want


@pytest.fixture(scope="module")
def gru_corpus(tmp_path_factory):
    """A GRU with chunks of 20 rows, trained on a generated 240 s corpus."""
    root = tmp_path_factory.mktemp("gru")
    corpus = root / "corpus"
    spec = synthgen.CorpusSpec(benign_counts={"os-only": 2, "office": 2},
                               malware_counts={"ransomware": 2, "worm": 2}, num_features=8,
                               duration_s=240.0, onset_choices=(30.0, 45.0, 60.0),
                               seed=5, difficulty=3.0)
    synthgen.generate_corpus(spec, corpus)
    assert cli.main(["split", "--corpus", str(corpus), "--train-benign", "2",
                     "--train-malicious", "2", "--seed", "3"]) == EXIT_OK
    assert cli.main(["train", "--corpus", str(corpus), "--family", "rnn_gru", "--seq-len", "20",
                     "--epochs", "30", "--optimizer", "rmsprop",
                     "--out", str(root / "gru")]) == EXIT_OK
    return corpus, root / "gru" / "model.json"


@pytest.mark.parametrize("threshold", [50, 3])
def test_gru_eval_and_detect_agree_file_by_file(gru_corpus, tmp_path, threshold):
    # eval once called a file malicious if any chunk was, while detect
    # needed --threshold malicious chunks in a row: at 50 that is 1,000
    # rows, so detect passed both malware test files that eval flagged.
    corpus, model = gru_corpus
    assert cli.main(["eval", "--corpus", str(corpus), "--model", str(model),
                     "--threshold", str(threshold), "--out", str(tmp_path)]) == EXIT_OK
    files = json.loads((tmp_path / "report.json").read_text())["sections"][0]["files"]
    manifest = telemetry.load_manifest(corpus / telemetry.MANIFEST_FILENAME)
    paths = {e.meta.subject_name: e.path for e in manifest.select("test")}
    assert sorted(f["name"] for f in files) == sorted(paths)
    for f in files:
        want = (EXIT_ALERT if f["verdict"] == "malicious" else EXIT_OK), f["alert_row"]
        assert _detect_verdict(model, corpus / paths[f["name"]], threshold) == want
        assert (f["verdict"] == "malicious") == (f["truth"] == "malicious")
        assert (f["time_to_detect_s"] is not None) == (f["truth"] == "malicious")
