"""Trace data model and HWiNFO-style labeled telemetry file handling.

A *trace* is one capture session: a header of feature names, per-row time
offsets, sensor readings, and a benign/malicious label per row, plus
metadata recovered from the filename convention::

    <subject>_<os>_<hardware>_<category>.csv            (benign)
    <subject>_<os>_<hardware>_<category>_<onset>.csv    (malware)

Segments may not contain underscores. The category segment comes from a
closed set; malware categories carry the onset segment (seconds from trace
start at which the malware began executing), benign ones must not.

Trace files are UTF-8 CSV with a header row: an optional ``time_s``
column, one column per sensor feature, and an optional trailing ``label``
column holding 0/1. One reader (TraceReader) reads files and live streams
alike, by one line rule: a record is one line, split into cells by ``csv``
within that line (a quoted cell cannot span lines); a line that is empty
or holds only whitespace is skipped wherever it stands, before the header
too; the first record is the header. The reader is one object per
source: it holds the header's columns, the count of rows read and the row
above the next one, and decodes each block of rows by one rule
(_decode_rows). Feature and label cells that do not parse as numbers are
imputed from the previous row (0 for the first row) so the row count —
which the consecutive-sample detector depends on — is never silently
changed. A ragged or non-UTF-8 row, or a time that is not a finite number
later than the row above, is an error.
"""

from __future__ import annotations

import csv
import json
import math
import re
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import (
    BadOnsetError,
    EmptyTraceError,
    MalformedNameError,
    MissingColumnError,
    NonMonotonicTimeError,
    RaggedRowError,
    SidewatchError,
    UndecodableRowError,
    UnknownCategoryError,
)

BENIGN_CATEGORIES = (
    "benign",
    "os-only",
    "benchmark",
    "game",
    "office",
    "system-tool",
    "complex-code",
)
MALWARE_CATEGORIES = (
    "ransomware",
    "worm",
    "spyware",
    "trojan-backdoor",
    "virus",
    "rootkit",
)
CATEGORIES = BENIGN_CATEGORIES + MALWARE_CATEGORIES

DEFAULT_SAMPLE_PERIOD_S = 0.5

TIME_COLUMN = "time_s"
LABEL_COLUMN = "label"

MANIFEST_VERSION = 1
MANIFEST_FILENAME = "manifest.json"


@dataclass(frozen=True)
class TraceMeta:
    """Capture-session metadata, recoverable from the filename."""

    subject_name: str
    os: str
    hardware_id: str
    category: str
    onset_s: float | None = None
    sample_period_s: float = DEFAULT_SAMPLE_PERIOD_S

    @property
    def is_malicious(self) -> bool:
        return self.category in MALWARE_CATEGORIES

    def onset_row(self) -> int | None:
        """Row index nearest the onset time (labeling boundary)."""
        if self.onset_s is None:
            return None
        return int(round(self.onset_s / self.sample_period_s))


@dataclass(frozen=True)
class SampleRow:
    """One telemetry sample: time offset, sensor vector, 0/1 label."""

    t: float
    features: np.ndarray
    label: int


@dataclass
class Trace:
    """One capture session held as arrays (rows are the first axis)."""

    meta: TraceMeta
    header: list[str]
    times: np.ndarray      # [T] seconds from trace start
    features: np.ndarray   # [T, F] float64
    labels: np.ndarray     # [T] int, 0 benign / 1 malicious

    @property
    def num_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def num_features(self) -> int:
        return int(self.features.shape[1])

    @property
    def duration_s(self) -> float:
        return float(self.times[-1] - self.times[0]) if self.num_rows else 0.0

    def rows(self):
        for i in range(self.num_rows):
            yield SampleRow(float(self.times[i]), self.features[i], int(self.labels[i]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (
            self.meta == other.meta
            and self.header == other.header
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.features, other.features)
            and np.array_equal(self.labels, other.labels)
        )


@dataclass(frozen=True)
class Violation:
    """One failed trace invariant; violations are data, not exceptions."""

    invariant: str
    row: int | None
    message: str

    def __str__(self) -> str:
        where = f" at row {self.row}" if self.row is not None else ""
        return f"{self.invariant}{where}: {self.message}"


@dataclass(frozen=True)
class TraceSchema:
    """The feature columns a trace CSV file is read from.

    The time and label columns are always TIME_COLUMN and LABEL_COLUMN.
    ``feature_cols=None`` selects every other column, in header order.
    """

    feature_cols: tuple[str, ...] | None = None


# --- filename convention --------------------------------------------------

def parse_trace_filename(name: str) -> TraceMeta:
    """Recover TraceMeta from an underscore-delimited trace filename."""
    stem = name[:-4] if name.endswith(".csv") else name
    parts = stem.split("_")
    if len(parts) not in (4, 5):
        raise MalformedNameError(
            f"{name!r}: expected 4 segments (benign) or 5 (malware), got {len(parts)}"
        )
    subject, os_name, hw_id, category = parts[:4]
    if not all(parts):
        raise MalformedNameError(f"{name!r}: empty segment")
    if category not in CATEGORIES:
        raise UnknownCategoryError(f"{name!r}: unknown category {category!r}")
    onset: float | None = None
    if category in MALWARE_CATEGORIES:
        if len(parts) != 5:
            raise MalformedNameError(
                f"{name!r}: malware category {category!r} requires an onset segment"
            )
        try:
            onset = float(parts[4])
        except ValueError:
            raise BadOnsetError(f"{name!r}: onset {parts[4]!r} is not a number") from None
        if not math.isfinite(onset) or onset < 0:
            raise BadOnsetError(f"{name!r}: onset must be a nonnegative number")
    elif len(parts) == 5:
        raise MalformedNameError(
            f"{name!r}: benign category {category!r} does not take an onset segment"
        )
    return TraceMeta(subject, os_name, hw_id, category, onset)


def render_filename(meta: TraceMeta) -> str:
    """Inverse of parse_trace_filename (parse(render(m)) == m)."""
    for seg in (meta.subject_name, meta.os, meta.hardware_id, meta.category):
        if not seg or "_" in seg:
            raise MalformedNameError(f"segment {seg!r} is empty or contains an underscore")
    if meta.category not in CATEGORIES:
        raise UnknownCategoryError(f"unknown category {meta.category!r}")
    parts = [meta.subject_name, meta.os, meta.hardware_id, meta.category]
    if meta.is_malicious:
        if meta.onset_s is None:
            raise BadOnsetError(f"malware category {meta.category!r} requires onset_s")
        onset = meta.onset_s
        parts.append(str(int(onset)) if float(onset).is_integer() else repr(float(onset)))
    return "_".join(parts) + ".csv"


# --- CSV parse / write -----------------------------------------------------

# A byte that is not UTF-8, as text decoded with errors="surrogateescape" holds it.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def _cell_value(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


@dataclass(frozen=True)
class _Columns:
    """Where a CSV header's feature, time and label columns sit."""

    width: int
    feature_names: list[str]
    feature_idx: list[int]
    time_idx: int | None
    label_idx: int | None


def _columns(header: list[str], schema: TraceSchema, where: str) -> _Columns:
    if _NOT_UTF8.search(",".join(header)):
        raise UndecodableRowError(f"{where}: header is not UTF-8")
    if schema.feature_cols is None:
        feature_cols = [c for c in header if c not in (TIME_COLUMN, LABEL_COLUMN)]
    else:
        missing = [c for c in schema.feature_cols if c not in header]
        if missing:
            raise MissingColumnError(f"{where}: schema columns {missing} not in header")
        feature_cols = list(schema.feature_cols)
    if not feature_cols:
        raise MissingColumnError(f"{where}: no feature columns")
    return _Columns(
        width=len(header),
        feature_names=feature_cols,
        feature_idx=[header.index(c) for c in feature_cols],
        time_idx=header.index(TIME_COLUMN) if TIME_COLUMN in header else None,
        label_idx=header.index(LABEL_COLUMN) if LABEL_COLUMN in header else None,
    )


def _row_values(row: list[str]) -> list[float] | None:
    """The row's cells as floats (NaN where not a number); None if not UTF-8."""
    try:
        return list(map(float, row))
    except ValueError:
        return None if _NOT_UTF8.search("".join(row)) else list(map(_cell_value, row))


def _fill_forward(values: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Replace each NaN of a [T, n] array by the value above it in its column;
    *first* [n] stands above row 0."""
    missing = np.isnan(values)
    if not missing.any():
        return values
    T, n = values.shape
    src = np.where(missing, 0, np.arange(1, T + 1)[:, None])
    np.maximum.accumulate(src, axis=0, out=src)
    return np.vstack([first[None, :], values])[src, np.arange(n)]


def _decode_rows(
    cols: _Columns,
    rows: list[list[str]],
    where: str,
    first_row: int,
    prev_t: float,
    prev_features: np.ndarray,
    prev_label: int,
):
    """The CSV rows before the first bad one as (times [n] or None without a
    time column, features [n, F], labels [n]), plus that row's error (None
    if every row is good). A row is bad when it is ragged, is not UTF-8, or
    its time is not a finite number later than the row above's. A feature or
    label cell that is not a finite number takes the value of the row above.
    *prev_t*, *prev_features* and *prev_label* stand above the first row.
    """
    error = None
    for i, row in enumerate(rows):
        if len(row) != cols.width:
            error = RaggedRowError(
                f"{where}: row {first_row + i} has {len(row)} fields, header has {cols.width}")
            rows = rows[:i]
            break
    # One cast for the whole block; only a block with a cell that is not a
    # number goes row by row, and only its failing rows cell by cell.
    try:
        values = np.array(rows, dtype=np.float64).reshape(len(rows), cols.width)
    except ValueError:
        parsed = [_row_values(row) for row in rows]
        if None in parsed:
            i = parsed.index(None)
            error = UndecodableRowError(f"{where}: row {first_row + i} is not UTF-8")
            parsed, rows = parsed[:i], rows[:i]
        values = np.array(parsed, dtype=np.float64).reshape(len(rows), cols.width)
    values[~np.isfinite(values)] = np.nan

    times = None
    if cols.time_idx is not None:
        times = values[:, cols.time_idx].copy()
        prev = np.concatenate(([prev_t], times[:-1]))
        bad = ~(times > prev)  # NaN is never later
        if bad.any():
            i = int(np.argmax(bad))
            if np.isnan(times[i]):
                what = f"{rows[i][cols.time_idx]!r} is not a finite number"
            else:
                what = f"{times[i]} is not later than row {first_row + i - 1} time {prev[i]}"
            error = NonMonotonicTimeError(f"{where}: row {first_row + i} time {what}")
            times, values = times[:i], values[:i]
    features = _fill_forward(np.ascontiguousarray(values[:, cols.feature_idx]), prev_features)
    if cols.label_idx is None:
        labels = np.zeros(len(values), dtype=np.int64)
    else:
        filled = _fill_forward(values[:, [cols.label_idx]], np.array([float(prev_label)]))
        labels = (filled[:, 0] >= 0.5).astype(np.int64)
    return times, features, labels, error


def parse_trace_csv(
    path: str | Path,
    schema: TraceSchema | None = None,
    meta: TraceMeta | None = None,
) -> Trace:
    """Parse a labeled telemetry CSV into a Trace: TraceReader run to its end.

    When *meta* is omitted it is recovered from the filename; filenames
    outside the convention fall back to a generic benign placeholder so
    ad-hoc files remain loadable. The time column is optional (synthesized
    as index × sample period when absent); so is the label column (rows
    default to benign, for unlabeled live captures). The first bad row
    (_decode_rows: ragged, not UTF-8, or a time that is not a finite number
    later than the row above) raises its error.
    """
    path = Path(path)
    if meta is None:
        try:
            meta = parse_trace_filename(path.name)
        except (MalformedNameError, UnknownCategoryError, BadOnsetError):
            meta = TraceMeta(path.stem or "trace", "unknown", "unknown", "benign")

    with open(path, "rb") as fh:
        reader = TraceReader(fh, str(path), schema or TraceSchema(), meta.sample_period_s)
        blocks = [block[1:] for block in reader.blocks()]
    if reader.cols is None:
        raise EmptyTraceError(f"{path}: file has no header")
    if not blocks:
        raise EmptyTraceError(f"{path}: header only, no data rows")

    times, features, labels = (np.concatenate(arrays) for arrays in zip(*blocks))
    if reader.cols.time_idx is not None and len(times) >= 2:
        meta = replace(meta, sample_period_s=float(times[1] - times[0]))
    return Trace(meta=meta, header=reader.cols.feature_names, times=times,
                 features=features, labels=labels)


# The most rows TraceReader gives as one block: it bounds the memory and
# the work of a block under sidewatch detect --follow.
BLOCK_ROWS = 1024
_READ_BYTES = 1 << 16


def _line_blocks(fh, wait: bool, drain: bool, poll_s: float):
    """Yield lists of at most BLOCK_ROWS complete lines (bytes): each what
    the source holds now. A file is read to its current end (*drain*), a
    pipe once per block. With *wait*, a line is given only once its line
    end has arrived; otherwise a last line without one is given as it stands.
    """
    lines, partial, ended = [], b"", False
    while lines or not ended:
        if len(lines) < BLOCK_ROWS and not ended:
            data = fh.read1(_READ_BYTES)
            if data:
                got = (partial + data).splitlines(keepends=True)
                partial = b"" if got[-1].endswith((b"\n", b"\r")) else got.pop()
                lines += got
                if drain:
                    continue
            elif not wait:
                lines += [partial] if partial else []
                ended = True
            elif not lines:
                time.sleep(poll_s)  # the writer has not finished a line yet
                continue
        if lines:
            yield lines[:BLOCK_ROWS]
            del lines[:BLOCK_ROWS]


class TraceReader:
    """The one reader of trace CSV files and streams, over a binary file
    object *fh*, by the line rule of the module docstring: parse_trace_csv
    runs it to the end of a file, ``sidewatch detect`` over a live file or
    stdin. It holds the header's columns (*cols*, by *schema*; None until
    the header is read), the count of data rows read (*rows*) and the last
    of them, which stands above the next block's first row, so rows decode
    the same however the source is cut into blocks. Without a time column
    row i is at ``i * period``.
    """

    def __init__(self, fh, where: str = "stream", schema: TraceSchema = TraceSchema(),
                 period: float = DEFAULT_SAMPLE_PERIOD_S):
        self.fh = fh
        self.where = where
        self.schema = schema
        self.period = period
        self.cols: _Columns | None = None
        self.rows = 0

    def blocks(self, wait: bool = False, drain: bool = True, poll_s: float = 0.2):
        """Yield (index, times, features, labels) blocks of at most
        BLOCK_ROWS rows: index is the block's first row, times [n],
        features [n, F] and labels [n] its rows' (_line_blocks for *wait*,
        *drain* and what a block holds). A bad row (_decode_rows) ends the
        source: the rows before it are yielded, then its error raised.
        """
        for lines in _line_blocks(self.fh, wait, drain, poll_s):
            rows = []
            for line in lines:
                text = line.decode("utf-8", "surrogateescape")
                if not text.strip():
                    continue
                cells = next(csv.reader([text]))
                if self.cols is None:
                    self.cols = _columns([h.strip() for h in cells], self.schema, self.where)
                    self._above = (-math.inf, np.zeros(len(self.cols.feature_idx)), 0)
                else:
                    rows.append(cells)
            if not rows:
                continue
            first = self.rows
            times, features, labels, error = _decode_rows(
                self.cols, rows, self.where, first, *self._above)
            if times is None:
                times = np.arange(first, first + len(features)) * self.period
            if len(times):
                self.rows += len(times)
                self._above = (float(times[-1]), features[-1], int(labels[-1]))
                yield first, times, features, labels
            if error is not None:
                raise error


def write_trace_csv(trace: Trace, path: str | Path) -> None:
    """Write a Trace so that parse_trace_csv reproduces it field-exactly.

    Every float is written as its shortest round-tripping decimal (``repr``).
    """
    path = Path(path)
    times = np.asarray(trace.times, dtype=np.float64).tolist()
    features = np.asarray(trace.features, dtype=np.float64)
    labels = trace.labels.tolist()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow([TIME_COLUMN, *trace.header, LABEL_COLUMN])
        # Number cells never need quoting, so rows are joined directly, with
        # csv's default line end; one row at a time keeps memory flat.
        fh.writelines(
            ",".join([repr(t), *map(repr, row.tolist()), str(int(label))]) + "\r\n"
            for t, row, label in zip(times, features, labels)
        )


# --- validation -------------------------------------------------------------

def validate_trace(trace: Trace) -> list[Violation]:
    """Check every Trace invariant; returns one Violation per failure."""
    out: list[Violation] = []
    meta = trace.meta

    if meta.category not in CATEGORIES:
        out.append(Violation("category-closed-set", None, f"{meta.category!r} unknown"))
    if meta.sample_period_s <= 0:
        out.append(Violation("sample-period-positive", None, f"{meta.sample_period_s}"))
    if meta.is_malicious and meta.onset_s is None:
        out.append(Violation("onset-presence", None, "malware trace missing onset_s"))
    if not meta.is_malicious and meta.onset_s is not None:
        out.append(Violation("onset-presence", None, "benign trace carries onset_s"))

    if len(trace.header) != trace.num_features:
        out.append(
            Violation(
                "feature-width",
                None,
                f"header has {len(trace.header)} names for {trace.num_features} columns",
            )
        )

    labels = np.asarray(trace.labels)
    for i in np.nonzero((labels != 0) & (labels != 1))[0]:
        out.append(Violation("label-domain", int(i), f"label {labels[i]} not in {{0,1}}"))

    diffs = np.diff(trace.times)
    for i in np.nonzero(diffs <= 0)[0]:
        out.append(
            Violation("time-strictly-increasing", int(i) + 1, f"t[{i + 1}] <= t[{i}]")
        )

    onset_row = meta.onset_row()
    if meta.is_malicious and meta.onset_s is not None:
        pre = np.nonzero(labels[:onset_row] == 1)[0]
        if pre.size:
            out.append(
                Violation(
                    "benign-before-onset",
                    int(pre[0]),
                    f"malicious label before onset row {onset_row}",
                )
            )
        if not np.any(labels == 1):
            out.append(Violation("malicious-rows-present", None, "no malicious rows"))
    elif not meta.is_malicious:
        mal = np.nonzero(labels == 1)[0]
        if mal.size:
            out.append(
                Violation(
                    "benign-trace-all-benign",
                    int(mal[0]),
                    "benign trace contains malicious label",
                )
            )
    return out


# --- manifest ----------------------------------------------------------------

SPLIT_TAGS = ("train", "test", "unassigned")


@dataclass(frozen=True)
class ManifestEntry:
    path: str
    meta: TraceMeta
    row_count: int
    split: str = "unassigned"


@dataclass
class Manifest:
    """Corpus index: one entry per parseable trace plus a skipped section."""

    entries: list[ManifestEntry] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)

    def with_split(self, assignment: dict[str, str]) -> "Manifest":
        """Copy with split tags replaced per the path→tag assignment."""
        new = []
        for e in self.entries:
            tag = assignment.get(e.path, e.split)
            if tag not in SPLIT_TAGS:
                raise ValueError(f"unknown split tag {tag!r}")
            new.append(replace(e, split=tag))
        return Manifest(new, list(self.skipped))

    def select(self, split: str) -> list[ManifestEntry]:
        return [e for e in self.entries if e.split == split]


def _meta_from_dict(d: dict) -> TraceMeta:
    """The TraceMeta a manifest entry stores; a missing field is a KeyError."""
    return TraceMeta(**{f.name: d[f.name] for f in fields(TraceMeta)})


# The faults that make a trace file unreadable as a trace.
TRACE_FILE_ERRORS = (MalformedNameError, UnknownCategoryError, BadOnsetError,
                     MissingColumnError, RaggedRowError, NonMonotonicTimeError,
                     UndecodableRowError, EmptyTraceError)


def parse_trace_files(root: str | Path, files, skipped: list[tuple[str, str]]):
    """Parse the trace files *files*, (name, meta) pairs under *root* (a
    meta of None is read from the name), in name order, yielding (name,
    trace) for each one that parses. A file that does not
    (TRACE_FILE_ERRORS) is appended to *skipped* as (name, reason) and the
    others are still read; load_traces is the form that raises."""
    root = Path(root)
    for name, meta in sorted(files, key=lambda f: f[0]):
        try:
            trace = parse_trace_csv(root / name, meta=parse_trace_filename(name)
                                    if meta is None else meta)
        except TRACE_FILE_ERRORS as exc:
            skipped.append((name, f"{type(exc).__name__}: {exc}"))
        else:
            yield name, trace


def manifest_entry(name: str, trace: Trace) -> ManifestEntry:
    """The manifest entry of *trace*, stored as the file *name*."""
    return ManifestEntry(path=name, meta=trace.meta, row_count=trace.num_rows)


def build_manifest(directory: str | Path) -> Manifest:
    """Index every parseable ``*.csv`` trace under *directory*.

    Files that fail the filename convention or the CSV contract land in
    the skipped section with the reason; output order is path-sorted so
    manifests are reproducible regardless of directory listing order.
    """
    manifest = Manifest()
    files = [(p.name, None) for p in Path(directory).glob("*.csv")]
    manifest.entries = [manifest_entry(name, trace) for name, trace
                        in parse_trace_files(directory, files, manifest.skipped)]
    return manifest


def save_manifest(manifest: Manifest, path: str | Path) -> None:
    doc = {
        "format": "sidewatch-manifest",
        "version": MANIFEST_VERSION,
        "entries": [asdict(e) for e in manifest.entries],
        "skipped": [{"path": p, "reason": r} for p, r in manifest.skipped],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in the file *path*. A file that is not UTF-8 JSON,
    or holds another kind of value, is a SidewatchError that names the
    path and *what* the file should be."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8 JSON, or nested too deep
        raise SidewatchError(f"{path}: not a {what} ({exc})") from None
    if not isinstance(doc, dict):
        raise SidewatchError(f"{path}: not a {what} (not a JSON object)")
    return doc


def load_manifest(path: str | Path) -> Manifest:
    doc = read_json_object(path, "sidewatch manifest")
    if doc.get("format") != "sidewatch-manifest" or doc.get("version") != MANIFEST_VERSION:
        raise SidewatchError(f"{path}: not a version-{MANIFEST_VERSION} sidewatch manifest")
    try:
        entries = [
            ManifestEntry(
                path=e["path"],
                meta=_meta_from_dict(e["meta"]),
                row_count=e["row_count"],
                split=e["split"],
            )
            for e in doc["entries"]
        ]
        skipped = [(s["path"], s["reason"]) for s in doc.get("skipped", [])]
    except (KeyError, TypeError) as exc:  # a missing field, or an entry that is not an object
        raise SidewatchError(f"{path}: bad manifest entry ({type(exc).__name__}: {exc})") from None
    return Manifest(entries, skipped)


def load_traces(manifest: Manifest, root: str | Path, split: str | None = None) -> list[Trace]:
    """Load (optionally split-filtered) traces, path-sorted for determinism."""
    root = Path(root)
    entries = manifest.entries if split is None else manifest.select(split)
    return [parse_trace_csv(root / e.path, meta=e.meta) for e in sorted(entries, key=lambda e: e.path)]
