import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidewatch import telemetry
from sidewatch.errors import (
    BadOnsetError,
    SidewatchError,
    EmptyTraceError,
    MalformedNameError,
    MissingColumnError,
    NonMonotonicTimeError,
    RaggedRowError,
    UndecodableRowError,
    UnknownCategoryError,
)
from sidewatch.telemetry import (
    BENIGN_CATEGORIES,
    MALWARE_CATEGORIES,
    TraceMeta,
    TraceSchema,
    build_manifest,
    load_manifest,
    parse_trace_csv,
    parse_trace_filename,
    render_filename,
    save_manifest,
    validate_trace,
    write_trace_csv,
)

from conftest import ChunkSource, random_trace, read_rows


class TestFilenames:
    def test_malware_name(self):
        meta = parse_trace_filename("wannacry_Win7SP1_hw3_ransomware_120.csv")
        assert meta.subject_name == "wannacry"
        assert meta.os == "Win7SP1"
        assert meta.hardware_id == "hw3"
        assert meta.category == "ransomware"
        assert meta.onset_s == 120.0

    def test_benign_name_has_no_onset(self):
        meta = parse_trace_filename("pcmark7_WinXPPro_hw1_benchmark.csv")
        assert meta.category == "benchmark"
        assert meta.onset_s is None

    def test_wrong_segment_count(self):
        with pytest.raises(MalformedNameError):
            parse_trace_filename("x_y.csv")

    def test_unknown_category(self):
        with pytest.raises(UnknownCategoryError):
            parse_trace_filename("a_b_c_keylogger_90.csv")

    def test_bad_onset(self):
        with pytest.raises(BadOnsetError):
            parse_trace_filename("a_b_c_worm_soon.csv")
        with pytest.raises(BadOnsetError):
            parse_trace_filename("a_b_c_worm_-5.csv")

    def test_malware_needs_onset_segment(self):
        with pytest.raises(MalformedNameError):
            parse_trace_filename("a_b_c_worm.csv")

    def test_benign_rejects_onset_segment(self):
        with pytest.raises(MalformedNameError):
            parse_trace_filename("a_b_c_office_90.csv")

    @given(
        subject=st.from_regex(r"[a-z][a-z0-9\-]{0,11}", fullmatch=True),
        os_name=st.sampled_from(["Win7SP1", "WinXPPro"]),
        hw=st.from_regex(r"hw[0-9]{1,2}", fullmatch=True),
        category=st.sampled_from(BENIGN_CATEGORIES + MALWARE_CATEGORIES),
        onset=st.sampled_from([90.0, 120.0, 150.0]),
    )
    @settings(max_examples=60)
    def test_render_parse_roundtrip(self, subject, os_name, hw, category, onset):
        meta = TraceMeta(
            subject_name=subject,
            os=os_name,
            hardware_id=hw,
            category=category,
            onset_s=onset if category in MALWARE_CATEGORIES else None,
        )
        assert parse_trace_filename(render_filename(meta)) == meta

    def test_render_rejects_underscores(self):
        meta = TraceMeta("two_words", "Win7SP1", "hw1", "office")
        with pytest.raises(MalformedNameError):
            render_filename(meta)


class TestCsvParsing:
    def _write(self, tmp_path, text, name="t_Win7SP1_hw1_office.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_basic_parse(self, tmp_path):
        path = self._write(tmp_path, "time_s,a,b,label\n0.0,1,2,0\n0.5,3,4,1\n")
        trace = parse_trace_csv(path)
        assert trace.num_rows == 2
        assert trace.num_features == 2
        assert trace.header == ["a", "b"]
        assert trace.meta.sample_period_s == 0.5
        np.testing.assert_array_equal(trace.features, [[1, 2], [3, 4]])
        np.testing.assert_array_equal(trace.labels, [0, 1])

    def test_header_only_is_empty_trace(self, tmp_path):
        path = self._write(tmp_path, "time_s,a,label\n")
        with pytest.raises(EmptyTraceError):
            parse_trace_csv(path)

    def test_ragged_row(self, tmp_path):
        path = self._write(tmp_path, "time_s,a,b,label\n0.0,1,2,0\n0.5,3,0\n")
        with pytest.raises(RaggedRowError):
            parse_trace_csv(path)

    def test_non_monotonic_time(self, tmp_path):
        path = self._write(tmp_path, "time_s,a,label\n0.0,1,0\n0.0,2,0\n")
        with pytest.raises(NonMonotonicTimeError):
            parse_trace_csv(path)

    def test_first_bad_row_is_reported(self, tmp_path):
        # A step back at row 1 comes before the ragged row 2.
        path = self._write(tmp_path, "time_s,a,label\n1.0,1,0\n0.5,2,0\n1.5,3\n")
        with pytest.raises(NonMonotonicTimeError,
                           match="row 1 time 0.5 is not later than row 0 time 1.0"):
            parse_trace_csv(path)

    @pytest.mark.parametrize("line", [b"0.5,\xff,0", b"0.5,2,\xfe"])
    def test_non_utf8_row_is_undecodable(self, tmp_path, line):
        path = tmp_path / "t_Win7SP1_hw1_office.csv"
        path.write_bytes(b"time_s,a,label\n0.0,1,0\n" + line + b"\n1.0,3,0\n")
        with pytest.raises(UndecodableRowError, match="row 1 is not UTF-8"):
            parse_trace_csv(path)
        manifest = build_manifest(tmp_path)
        assert manifest.entries == []
        assert [name for name, _ in manifest.skipped] == [path.name]
        assert manifest.skipped[0][1].startswith("UndecodableRowError: ")

    def test_non_utf8_header_is_undecodable(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"time_s,\xffa,label\n0.0,1,0\n")
        with pytest.raises(UndecodableRowError, match="header is not UTF-8"):
            parse_trace_csv(path)

    def test_missing_schema_column(self, tmp_path):
        path = self._write(tmp_path, "time_s,a,label\n0.0,1,0\n")
        with pytest.raises(MissingColumnError):
            parse_trace_csv(path, schema=TraceSchema(feature_cols=("a", "ghost")))

    def test_missing_time_column_synthesizes_grid(self, tmp_path):
        path = self._write(tmp_path, "a,b,label\n1,2,0\n3,4,0\n")
        trace = parse_trace_csv(path)
        np.testing.assert_allclose(trace.times, [0.0, 0.5])

    def test_missing_label_column_defaults_benign(self, tmp_path):
        path = self._write(tmp_path, "time_s,a\n0.0,1\n0.5,2\n")
        trace = parse_trace_csv(path)
        assert trace.labels.sum() == 0

    def test_impute_previous_value(self, tmp_path):
        # HWiNFO-style Yes/blank cells: previous row's value, 0 for row 0.
        path = self._write(tmp_path, "time_s,a,b,label\n0.0,Yes,2,0\n0.5,,7,0\n1.0,5,,0\n")
        trace = parse_trace_csv(path)
        np.testing.assert_array_equal(trace.features, [[0, 2], [0, 7], [5, 7]])

    def test_filename_fallback_for_unconventional_names(self, tmp_path):
        path = self._write(tmp_path, "time_s,a,label\n0.0,1,0\n", name="whatever.csv")
        trace = parse_trace_csv(path)
        assert trace.meta.category == "benign"

    def test_paper_scale_shape(self, tmp_path):
        # 961 rows x 132 features sampled at 0.5s spans ~480 seconds.
        rng = np.random.default_rng(0)
        trace = random_trace(rng, T=961, F=132)
        path = tmp_path / render_filename(trace.meta)
        write_trace_csv(trace, path)
        back = parse_trace_csv(path)
        assert back.num_features == 132
        assert back.num_rows == 961
        assert abs(back.duration_s - 480.0) < 1.0

    def test_roundtrip_50_random_traces(self, tmp_path):
        rng = np.random.default_rng(42)
        for i in range(50):
            T = int(rng.integers(1, 40))
            F = int(rng.integers(1, 6))
            onset = int(rng.integers(0, T)) if rng.random() < 0.5 else None
            category = "worm" if onset is not None else "office"
            trace = random_trace(rng, T=T, F=F, category=category, onset_row=onset)
            path = tmp_path / f"case{i}.csv"
            write_trace_csv(trace, path)
            assert parse_trace_csv(path, meta=trace.meta) == trace


def _oracle_parse(path):
    """The per-cell parser that the bulk parse replaced: the reference the
    fast path must equal field for field (default schema, time column
    present, cells that are not finite numbers taken from the row above)."""

    def impute(cell, prev):
        try:
            v = float(cell)
        except ValueError:
            return prev
        return v if math.isfinite(v) else prev

    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        rows = [row for row in reader if row]
    feature_cols = [c for c in header if c not in ("time_s", "label")]
    col_index = [header.index(c) for c in feature_cols]
    time_idx = header.index("time_s")
    label_idx = header.index("label") if "label" in header else None
    T, F = len(rows), len(feature_cols)
    features = np.zeros((T, F), dtype=np.float64)
    times = np.zeros(T, dtype=np.float64)
    labels = np.zeros(T, dtype=np.int64)
    prev_feat = np.zeros(F, dtype=np.float64)
    prev_label = 0
    for i, row in enumerate(rows):
        for j, c in enumerate(col_index):
            features[i, j] = impute(row[c], prev_feat[j])
        prev_feat = features[i]
        times[i] = float(row[time_idx])
        if label_idx is not None:
            labels[i] = 1 if impute(row[label_idx], float(prev_label)) >= 0.5 else 0
        prev_label = int(labels[i])
    return feature_cols, times, features, labels


def _oracle_write(trace) -> bytes:
    """The per-row csv.writer the row-string writer replaced."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["time_s", *trace.header, "label"])
    for i in range(trace.num_rows):
        writer.writerow([repr(float(trace.times[i]))]
                        + [repr(float(v)) for v in trace.features[i]]
                        + [int(trace.labels[i])])
    return buf.getvalue().encode("utf-8")


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


DIRTY_TOKENS = ("", "nan", "inf", "-inf", "Yes", " 1.5 ", "1_0")

_extreme_floats = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e308, -1e308, 1.7976931348623157e308]),
)


ROW_HEADER = "time_s,a,b,label"


@st.composite
def row_parser_cases(draw):
    """A trace file's data lines, with at most one bad row, its line end,
    and the byte offsets at which to cut the file into reads: anywhere,
    at a line start, or between a line's \\r and \\n."""
    n = draw(st.integers(2, 30))
    period = draw(st.sampled_from([0.25, 0.5, 1.0, 0.1]))
    t0 = draw(st.sampled_from([0.0, 3.5, -2.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    lines = []
    for i in range(n):
        cells = [repr(t0 + i * period), *map(repr, rng.normal(size=2).tolist()),
                 str(int(rng.random() < 0.5))]
        for j in range(1, 4):
            if draw(st.integers(0, 5)) == 0:
                cells[j] = draw(st.sampled_from(DIRTY_TOKENS))
        lines.append(cells)
    defect = draw(st.sampled_from([None, "ragged", "time cell", "repeat", "step back",
                                   "not utf-8"]))
    at = draw(st.integers(1 if defect in ("repeat", "step back") else 0, n - 1))
    if defect == "ragged":
        lines[at] = lines[at][:-1] if draw(st.booleans()) else lines[at] + ["0"]
    elif defect == "time cell":
        lines[at][0] = draw(st.sampled_from(["x", "nan", "inf", "-inf", ""]))
    elif defect == "repeat":
        lines[at][0] = lines[at - 1][0]
    elif defect == "step back":
        lines[at][0] = repr(float(lines[at - 1][0]) - draw(st.sampled_from([period, 0.01, 1e3])))
    elif defect == "not utf-8":
        j = draw(st.integers(0, 3))
        lines[at][j] += "\udcff"  # written as the byte 0xff
    lines = [",".join(cells) for cells in lines]
    end = draw(st.sampled_from(["\n", "\r\n"]))
    # starts[i] is the offset of data row i; starts[n] is the end of the file.
    starts = np.cumsum([len(_trace_bytes([line], end)) for line in [ROW_HEADER, *lines]]).tolist()
    places = [st.integers(1, starts[-1] - 1), st.sampled_from(starts[:-1])]
    if end == "\r\n":
        places.append(st.sampled_from([s - 1 for s in starts]))
    cuts = set(draw(st.lists(st.one_of(places), max_size=8)))
    if defect is not None and draw(st.booleans()):
        cuts.add(starts[at])  # the bad row opens a read
    return dict(lines=lines, cuts=sorted(cuts), end=end,
                bad_row=None if defect is None else at)


def _trace_bytes(lines: list[str], end: str) -> bytes:
    """The bytes of a trace file: *lines*, each ended by *end*."""
    return "".join(line + end for line in lines).encode("utf-8", "surrogateescape")


class TestBulkParseEquivalence:
    @given(
        seed=st.integers(0, 2**32 - 1),
        T=st.integers(1, 30),
        F=st.integers(1, 5),
        dirty=st.lists(st.tuples(st.floats(0, 1, exclude_max=True),
                                 st.floats(0, 1, exclude_max=True),
                                 st.sampled_from(DIRTY_TOKENS)), max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_fast_parse_equals_per_cell_oracle(self, tmp_path_factory, seed, T, F, dirty):
        rng = np.random.default_rng(seed)
        onset = int(rng.integers(0, T)) if rng.random() < 0.5 else None
        trace = random_trace(rng, T=T, F=F, category="worm" if onset is not None else "office",
                             onset_row=onset)
        path = tmp_path_factory.mktemp("bulk") / "t.csv"
        write_trace_csv(trace, path)
        lines = path.read_bytes().decode("utf-8").split("\r\n")
        for r, c, token in dirty:
            # Feature and label columns only: a bad time cell is an error.
            row, col = 1 + int(r * T), 1 + int(c * (F + 1))
            cells = lines[row].split(",")
            cells[col] = token
            lines[row] = ",".join(cells)
        path.write_text("\r\n".join(lines), encoding="utf-8", newline="")

        got = parse_trace_csv(path, meta=trace.meta)
        header, times, features, labels = _oracle_parse(path)
        assert got.header == header
        assert got.meta == trace.meta
        assert _same_bits(got.times, times)
        assert _same_bits(got.features, features)
        assert _same_bits(got.labels, labels)
        assert got.features.flags["C_CONTIGUOUS"]

    @given(
        T=st.integers(1, 12),
        F=st.integers(0, 4),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_writer_bytes_equal_per_row_oracle(self, tmp_path_factory, T, F, data):
        values = np.array(data.draw(st.lists(_extreme_floats, min_size=T * (F + 1),
                                             max_size=T * (F + 1))), dtype=np.float64)
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=T, max_size=T)),
                          dtype=np.int64)
        trace = telemetry.Trace(
            meta=TraceMeta("s", "Win7SP1", "hw1", "office"),
            header=[f"sensor_{j}" for j in range(F)],
            times=values[:T],
            features=values[T:].reshape(T, F),
            labels=labels,
        )
        path = tmp_path_factory.mktemp("write") / "t.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == _oracle_write(trace)

    def test_quoted_header_name_round_trips(self, tmp_path):
        rng = np.random.default_rng(11)
        trace = random_trace(rng, T=4, F=2)
        trace.header = ["temp, core 0", 'fan "1"']
        path = tmp_path / "q.csv"
        write_trace_csv(trace, path)
        assert path.read_bytes() == _oracle_write(trace)
        assert parse_trace_csv(path, meta=trace.meta) == trace

    @pytest.mark.parametrize("row", [0, 1, -1])
    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_time_rejected(self, tmp_path, row, token):
        rng = np.random.default_rng(12)
        trace = random_trace(rng, T=5, F=2)
        path = tmp_path / "t.csv"
        write_trace_csv(trace, path)
        lines = path.read_bytes().decode("utf-8").split("\r\n")
        data_rows = lines[1:-1]
        cells = data_rows[row].split(",")
        cells[0] = token
        data_rows[row] = ",".join(cells)
        path.write_text("\r\n".join([lines[0], *data_rows, ""]), encoding="utf-8", newline="")
        with pytest.raises(NonMonotonicTimeError, match=f"row {row % 5} time"):
            parse_trace_csv(path)


class TestRowParser:
    """A TraceReader's row state: its rows decode the same read in one
    block, a line at a time, or cut into reads anywhere."""

    def test_rows_equal_file_parse(self, tmp_path):
        text = ("time_s,a,b,label\r\n0.0,Yes,2,0\r\n0.5,,nan,1\r\n"
                '1.0,"5",inf,\r\n1.5, 1.5 ,1_0,Yes\r\n')
        path = tmp_path / "t.csv"
        path.write_text(text, encoding="utf-8", newline="")
        trace = parse_trace_csv(path)
        rows = [row for _, row in read_rows(text.encode().splitlines(keepends=True))]
        assert [r.t for r in rows] == trace.times.tolist()
        assert _same_bits(np.stack([r.features for r in rows]), trace.features)
        assert [r.label for r in rows] == trace.labels.tolist()

    def test_without_time_column_uses_default_period(self):
        rows = read_rows([b"a,label\n", *[b"1,0\n"] * 3])
        assert [row.t for _, row in rows] == [0.0, 0.5, 1.0]

    # Each case is the rows of one stream, read a line at a time; the last is bad.
    @pytest.mark.parametrize("cells, error", [
        ([["nan", "1", "0"]], NonMonotonicTimeError),
        ([["x", "1", "0"]], NonMonotonicTimeError),
        ([["0.0", "1"]], RaggedRowError),
        ([["1.0", "1", "0"], ["1.0", "2", "0"]], NonMonotonicTimeError),
        ([["1.0", "1", "0"], ["0.5", "2", "0"]], NonMonotonicTimeError),
        ([["0.0", "1\udcff", "0"]], UndecodableRowError),
    ])
    def test_bad_rows_rejected(self, cells, error):
        lines = [_trace_bytes([",".join(row)], "\n") for row in [["time_s", "a", "label"], *cells]]
        read = []
        with pytest.raises(error, match=f"row {len(cells) - 1} "):
            for row in read_rows(lines):
                read.append(row)
        assert len(read) == len(cells) - 1

    @given(case=row_parser_cases())
    @settings(max_examples=150, deadline=None)
    @example(case=dict(lines=["0.0,1,2,0", "0.5,3,4,0", "0.5,5,6,1"], cuts=[37], end="\n",
                       bad_row=2))
    @example(case=dict(lines=["0.0,1,2,0", "0.5,3,4,0", "0.5,5,6,1"], cuts=[5, 17, 33],
                       end="\r\n", bad_row=2))
    def test_calls_equal_file_parse(self, tmp_path_factory, case):
        """However a file's bytes are cut into reads (one read1 each, with
        drain=False), a TraceReader reads the rows parse_trace_csv reads from
        the file, up to the same first bad row with the same error."""
        path = tmp_path_factory.mktemp("cuts") / "t.csv"
        end, cuts = case["end"], case["cuts"]
        data = _trace_bytes([ROW_HEADER, *case["lines"]], end)
        path.write_bytes(data)
        try:
            want, want_error = parse_trace_csv(path), None
        except SidewatchError as exc:
            want, want_error = None, exc

        chunks = [data[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, len(data)])]
        reader = telemetry.TraceReader(ChunkSource(chunks), where=str(path))
        parts, error = [], None
        try:
            for _, *part in reader.blocks(drain=False):
                parts.append(part)
        except SidewatchError as exc:
            error = exc

        if case["bad_row"] is None:
            assert want_error is None and error is None
        else:
            assert (type(error), str(error)) == (type(want_error), str(want_error))
            assert reader.rows == case["bad_row"]
            if not reader.rows:
                return
            # The rows before the bad one decode as the file cut there does.
            path.write_bytes(_trace_bytes([ROW_HEADER, *case["lines"][:reader.rows]], end))
            want = parse_trace_csv(path)
        times, features, labels = (np.concatenate(arrays) for arrays in zip(*parts))
        assert _same_bits(times, want.times)
        assert _same_bits(features, want.features)
        assert _same_bits(labels, want.labels)


class TestValidation:
    def test_benign_trace_with_malicious_row(self):
        rng = np.random.default_rng(1)
        trace = random_trace(rng, T=10, F=2)
        trace.labels[4] = 1
        violations = validate_trace(trace)
        assert any(v.invariant == "benign-trace-all-benign" and v.row == 4
                   for v in violations)

    def test_malware_trace_labeled_at_onset_is_clean(self):
        rng = np.random.default_rng(2)
        trace = random_trace(rng, T=20, F=2, category="virus", onset_row=8)
        assert validate_trace(trace) == []

    def test_malicious_label_before_onset(self):
        rng = np.random.default_rng(3)
        trace = random_trace(rng, T=20, F=2, category="virus", onset_row=8)
        trace.labels[5] = 1
        assert any(v.invariant == "benign-before-onset" for v in validate_trace(trace))

    def test_fuzzed_validator_matches_bruteforce(self):
        # Independent re-scan: compare flagged row sets on mutated traces.
        rng = np.random.default_rng(4)
        for _ in range(50):
            T = int(rng.integers(2, 30))
            onset = int(rng.integers(0, T))
            trace = random_trace(rng, T=T, F=2, category="worm", onset_row=onset)
            # random mutations
            flips = rng.integers(0, T, size=rng.integers(0, 4))
            for i in flips:
                trace.labels[i] = 1 - trace.labels[i]
            got = validate_trace(trace)
            # brute-force checks
            expect_pre = [i for i in range(onset) if trace.labels[i] == 1]
            expect_missing = int(trace.labels.sum()) == 0
            pre_rows = sorted(v.row for v in got if v.invariant == "benign-before-onset")
            assert pre_rows == ([expect_pre[0]] if expect_pre else [])
            assert (any(v.invariant == "malicious-rows-present" for v in got)
                    == expect_missing)

    def test_onset_presence_checks(self):
        rng = np.random.default_rng(5)
        base = random_trace(rng, T=5, F=2)
        bad = telemetry.TraceMeta("s", "o", "h", "worm", onset_s=None)
        trace = telemetry.Trace(bad, base.header, base.times, base.features,
                                np.ones(5, dtype=np.int64))
        assert any(v.invariant == "onset-presence" for v in validate_trace(trace))

    def test_time_not_increasing_flagged(self):
        rng = np.random.default_rng(9)
        trace = random_trace(rng, T=6, F=2)
        trace.times[3] = trace.times[2]
        assert any(v.invariant == "time-strictly-increasing" and v.row == 3
                   for v in validate_trace(trace))


class TestManifest:
    def test_build_counts_and_skips(self, tmp_path):
        rng = np.random.default_rng(6)
        for i in range(3):
            trace = random_trace(rng, T=6, F=2)
            write_trace_csv(trace, tmp_path / f"app{i}_Win7SP1_hw1_office.csv")
        (tmp_path / "bad name.csv").write_text("time_s,a,label\n0.0,1,0\n")
        manifest = build_manifest(tmp_path)
        assert len(manifest.entries) == 3
        assert len(manifest.skipped) == 1
        assert manifest.skipped[0][0] == "bad name.csv"

    def test_empty_directory(self, tmp_path):
        manifest = build_manifest(tmp_path)
        assert manifest.entries == [] and manifest.skipped == []

    def test_manifest_roundtrip(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(2):
            trace = random_trace(rng, T=5, F=2)
            write_trace_csv(trace, tmp_path / f"app{i}_Win7SP1_hw1_game.csv")
        manifest = build_manifest(tmp_path)
        manifest = manifest.with_split({manifest.entries[0].path: "train"})
        save_manifest(manifest, tmp_path / "manifest.json")
        back = load_manifest(tmp_path / "manifest.json")
        assert back.entries == manifest.entries
        assert back.skipped == manifest.skipped

    def test_path_sorted_order(self, tmp_path):
        rng = np.random.default_rng(8)
        names = ["zzz_Win7SP1_hw1_office.csv", "aaa_Win7SP1_hw1_office.csv"]
        for name in names:
            write_trace_csv(random_trace(rng, T=4, F=1), tmp_path / name)
        manifest = build_manifest(tmp_path)
        assert [e.path for e in manifest.entries] == sorted(names)
