"""Deterministic synthetic telemetry corpus generator.

Generates HWiNFO-shaped labeled traces so the whole pipeline is testable
without real captures: correlated sensor noise (a fixed seeded mixing of
AR(1) latent channels — real sensors co-vary, temperature follows load),
per-workload baseline dynamics, and malware effects injected from a
seeded onset drawn from the configured onset set.

Malware effects are expressed in units of each channel's baseline sigma,
scaled by a single ``difficulty`` dial. Every built-in malware profile
carries a sustained shift of at least 3 sigma on at least 5 channels, so
at difficulty >= 1 a thresholding oracle on the known effect channels
separates the corpus perfectly — the corpus is learnable by construction.

Pre-onset rows of a malicious trace are bit-identical to the benign
trace generated from the same workload profile and seed: effects are
added on top of the shared baseline, never woven into it.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import BadSpecError
from .telemetry import (
    MALWARE_CATEGORIES,
    Manifest,
    MANIFEST_FILENAME,
    TraceMeta,
    Trace,
    manifest_entry,
    parse_trace_files,
    render_filename,
    save_manifest,
    write_trace_csv,
)

FEATURE_GROUPS = (
    "core_temp", "fan_rpm", "cpu_load", "mem_load",
    "io_read", "io_write", "net_tx", "pkg_power",
)

# (baseline level, baseline sigma) per sensor group, in plausible raw units.
GROUP_BASE = {
    "core_temp": (45.0, 2.5),
    "fan_rpm": (1200.0, 60.0),
    "cpu_load": (25.0, 8.0),
    "mem_load": (40.0, 5.0),
    "io_read": (8.0, 3.0),
    "io_write": (6.0, 2.5),
    "net_tx": (4.0, 2.0),
    "pkg_power": (35.0, 4.0),
}

# Groups that carry slow drift (thermal) and periodic load swings.
DRIFT_GROUPS = ("core_temp", "fan_rpm")
PERIODIC_GROUPS = ("cpu_load", "pkg_power", "fan_rpm")

WORKLOAD_KINDS = ("os-only", "benchmark", "game", "office", "system-tool", "complex-code")

# level: activity multiplier on means; noise: sigma multiplier;
# drift: sigma/second on drift groups; periodic: amplitude in sigmas
# (kept <= 1.2 so benign swings stay well under malware shift magnitudes).
_WORKLOAD_PRESETS = {
    "os-only":      dict(level=0.8, noise=0.8, drift=0.0,   periodic=0.0, period_s=60.0),
    "benchmark":    dict(level=1.6, noise=1.2, drift=0.003, periodic=1.2, period_s=45.0),
    "game":         dict(level=1.4, noise=1.1, drift=0.001, periodic=0.9, period_s=20.0),
    "office":       dict(level=1.0, noise=1.0, drift=0.0,   periodic=0.5, period_s=90.0),
    "system-tool":  dict(level=1.1, noise=1.0, drift=0.001, periodic=0.7, period_s=30.0),
    "complex-code": dict(level=1.5, noise=1.3, drift=0.002, periodic=0.8, period_s=75.0),
}

AR_PHI = 0.9
MIX_WEIGHT = 0.8
WHITE_WEIGHT = 0.6

OS_NAMES = ("Win7SP1", "WinXPPro")
HW_IDS = ("hw1", "hw2", "hw3", "hw4", "hw5", "hw6")


def feature_names(F: int) -> list[str]:
    return [f"{FEATURE_GROUPS[j % len(FEATURE_GROUPS)]}_{j}" for j in range(F)]


def feature_groups(F: int) -> list[str]:
    return [FEATURE_GROUPS[j % len(FEATURE_GROUPS)] for j in range(F)]


@dataclass(frozen=True)
class WorkloadProfile:
    """Benign baseline dynamics: means, sigmas, drift, periodic load."""

    kind: str
    means: np.ndarray          # [F] raw units
    sigmas: np.ndarray         # [F] raw units (the "sigma" of effect scaling)
    drift_per_s: np.ndarray    # [F] raw units per second
    periodic_amp: np.ndarray   # [F] raw units
    periodic_period_s: float
    ar_phi: float = AR_PHI


def workload_profile(kind: str, F: int) -> WorkloadProfile:
    if kind not in _WORKLOAD_PRESETS:
        raise BadSpecError(f"unknown workload kind {kind!r}")
    preset = _WORKLOAD_PRESETS[kind]
    groups = feature_groups(F)
    means = np.array([GROUP_BASE[g][0] for g in groups])
    base_sigma = np.array([GROUP_BASE[g][1] for g in groups])
    sigmas = base_sigma * preset["noise"]
    means = means * preset["level"]
    drift = np.where(np.isin(groups, DRIFT_GROUPS), preset["drift"] * sigmas, 0.0)
    periodic = np.where(np.isin(groups, PERIODIC_GROUPS), preset["periodic"] * sigmas, 0.0)
    return WorkloadProfile(
        kind=kind,
        means=means,
        sigmas=sigmas,
        drift_per_s=drift,
        periodic_amp=periodic,
        periodic_period_s=preset["period_s"],
    )


EFFECT_SHAPES = ("sustained-shift", "ramp", "periodic-burst", "io-burst-train")


@dataclass(frozen=True)
class MalwareEffect:
    shape: str
    channels: tuple[int, ...]
    magnitude_sigma: float
    period_s: float | None = None
    ramp_s: float = 30.0
    burst_rows: int = 1

    def validate(self, sample_period_s: float) -> None:
        if self.shape not in EFFECT_SHAPES:
            raise BadSpecError(f"unknown effect shape {self.shape!r}")
        if self.shape in ("periodic-burst", "io-burst-train"):
            if self.period_s is None:
                raise BadSpecError(f"{self.shape} needs a period_s")
            if self.period_s < 2 * sample_period_s:
                raise BadSpecError(
                    f"beacon period {self.period_s}s < 2x sample period {sample_period_s}s"
                )


@dataclass(frozen=True)
class MalwareProfile:
    kind: str
    effects: tuple[MalwareEffect, ...]

    def sustained_channels(self) -> tuple[int, ...]:
        out: list[int] = []
        for eff in self.effects:
            if eff.shape in ("sustained-shift", "ramp"):
                out.extend(eff.channels)
        return tuple(sorted(set(out)))


def _pick_channels(rng: np.random.Generator, F: int, count: int,
                   prefer_groups: tuple[str, ...] | None = None) -> tuple[int, ...]:
    groups = feature_groups(F)
    if prefer_groups:
        pool = [j for j, g in enumerate(groups) if g in prefer_groups]
        if len(pool) >= count:
            return tuple(int(c) for c in rng.choice(pool, size=count, replace=False))
    return tuple(int(c) for c in rng.choice(F, size=min(count, F), replace=False))


def malware_profile(kind: str, F: int, seed: int) -> MalwareProfile:
    """Built-in per-category effect profiles, channel picks seeded.

    Every kind includes a sustained >= 3 sigma component on >= 5 channels
    (subject to F); beacon/burst flavors ride on top.
    """
    if kind not in MALWARE_CATEGORIES:
        raise BadSpecError(f"unknown malware kind {kind!r}")
    kind_tag = MALWARE_CATEGORIES.index(kind)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA1, kind_tag)))
    n_sustained = min(6, F)
    sustained = _pick_channels(rng, F, n_sustained)
    effects: list[MalwareEffect] = [
        MalwareEffect("sustained-shift", sustained, 3.0),
    ]
    if kind == "ransomware":
        io = _pick_channels(rng, F, min(4, F), prefer_groups=("io_read", "io_write"))
        effects.append(MalwareEffect("io-burst-train", io, 4.0, period_s=30.0, burst_rows=4))
    elif kind == "worm":
        net = _pick_channels(rng, F, min(3, F), prefer_groups=("net_tx",))
        effects.append(MalwareEffect("periodic-burst", net, 4.0, period_s=10.0))
    elif kind == "spyware":
        net = _pick_channels(rng, F, min(2, F), prefer_groups=("net_tx", "io_read"))
        effects.append(MalwareEffect("periodic-burst", net, 3.0, period_s=20.0))
    elif kind == "trojan-backdoor":
        net = _pick_channels(rng, F, min(3, F), prefer_groups=("net_tx",))
        effects.append(MalwareEffect("periodic-burst", net, 5.0, period_s=15.0))
    elif kind == "virus":
        load = _pick_channels(rng, F, min(4, F), prefer_groups=("cpu_load", "pkg_power"))
        effects.append(MalwareEffect("ramp", load, 4.0, ramp_s=30.0))
    # rootkit: sustained shift only (stealthy but persistent)
    return MalwareProfile(kind=kind, effects=tuple(effects))


def _table1_benign_counts() -> dict[str, int]:
    return {
        "os-only": 6,
        "benchmark": 12,
        "game": 2,
        "complex-code": 1,
        "office": 4,
        "system-tool": 3,
    }


def _table1_malware_counts() -> dict[str, int]:
    return {
        "ransomware": 11,
        "worm": 9,
        "spyware": 1,
        "trojan-backdoor": 6,
        "virus": 1,
        "rootkit": 1,
    }


@dataclass
class CorpusSpec:
    """Counts per kind plus corpus-wide shape and difficulty settings."""

    benign_counts: dict[str, int] = field(default_factory=_table1_benign_counts)
    malware_counts: dict[str, int] = field(default_factory=_table1_malware_counts)
    num_features: int = 132
    duration_s: float = 480.0
    sample_period_s: float = 0.5
    onset_choices: tuple[float, ...] = (90.0, 120.0, 150.0)
    seed: int = 0
    difficulty: float = 1.0

    def validate(self) -> None:
        if self.num_features < 1:
            raise BadSpecError("num_features must be >= 1")
        if self.seed < 0:
            raise BadSpecError(f"seed must be >= 0, got {self.seed}")
        if not (0 < self.duration_s < math.inf and 0 < self.sample_period_s < math.inf):
            raise BadSpecError("duration and sample period must be positive finite numbers")
        if not 0 <= self.difficulty < math.inf:
            raise BadSpecError(f"difficulty must be a finite number >= 0, got {self.difficulty}")
        for kind, n in self.benign_counts.items():
            if kind not in WORKLOAD_KINDS or n < 0:
                raise BadSpecError(f"bad benign count {kind!r}={n}")
        for kind, n in self.malware_counts.items():
            if kind not in MALWARE_CATEGORIES or n < 0:
                raise BadSpecError(f"bad malware count {kind!r}={n}")
        if not all(0 <= t < self.duration_s for t in self.onset_choices):
            raise BadSpecError("onset choices must lie inside the trace duration")
        if not self.onset_choices and sum(self.malware_counts.values()):
            raise BadSpecError("malware requested but no onset choices")
        if self.num_rows < 2:
            raise BadSpecError(
                f"duration {self.duration_s}s at sample period {self.sample_period_s}s "
                f"gives {self.num_rows} rows; a trace needs at least 2")

    @property
    def num_rows(self) -> int:
        return int(round(self.duration_s / self.sample_period_s))


_SPEC_KEYS = {f.name for f in fields(CorpusSpec)}


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def corpus_spec_from_dict(doc: dict) -> CorpusSpec:
    """The validated CorpusSpec of a decoded JSON spec; a key or value of
    the wrong name or type is a BadSpecError."""
    if not isinstance(doc, dict):
        raise BadSpecError(f"a corpus spec is an object, got {type(doc).__name__}")
    unknown = set(doc) - _SPEC_KEYS
    if unknown:
        raise BadSpecError(f"unknown corpus spec keys: {sorted(unknown)}")
    for key in ("num_features", "seed"):
        if key in doc and not _is_int(doc[key]):
            raise BadSpecError(f"{key} must be an integer, got {doc[key]!r}")
    for key in ("duration_s", "sample_period_s", "difficulty"):
        if key in doc and not _is_real(doc[key]):
            raise BadSpecError(f"{key} must be a number, got {doc[key]!r}")
    for key in ("benign_counts", "malware_counts"):
        counts = doc.get(key, {})
        if not (isinstance(counts, dict) and all(map(_is_int, counts.values()))):
            raise BadSpecError(f"{key} must map kinds to integer counts, got {counts!r}")
    onsets = doc.get("onset_choices", [])
    if not (isinstance(onsets, list) and all(map(_is_real, onsets))):
        raise BadSpecError(f"onset_choices must be a list of numbers, got {onsets!r}")
    kwargs = dict(doc)
    if "onset_choices" in kwargs:
        kwargs["onset_choices"] = tuple(float(t) for t in kwargs["onset_choices"])
    spec = CorpusSpec(**kwargs)
    spec.validate()
    return spec


# --- generation -----------------------------------------------------------


def _mixing_matrix(spec: CorpusSpec) -> np.ndarray:
    """Corpus-wide latent-to-sensor mixing with unit-norm columns."""
    F = spec.num_features
    K = min(16, F)
    rng = np.random.default_rng(np.random.SeedSequence((spec.seed, 0xC0F)))
    M = rng.normal(size=(K, F))
    M /= np.linalg.norm(M, axis=0, keepdims=True)
    return M


def _baseline_rows(profile: WorkloadProfile, spec: CorpusSpec,
                   rng: np.random.Generator) -> np.ndarray:
    T, F = spec.num_rows, spec.num_features
    ts = np.arange(T) * spec.sample_period_s
    phase = rng.uniform(0.0, 2.0 * np.pi)
    M = _mixing_matrix(spec)
    K = M.shape[0]
    eps = rng.normal(size=(T, K))
    z = np.empty((T, K))
    z[0] = eps[0]
    scale = np.sqrt(1.0 - profile.ar_phi ** 2)
    for t in range(1, T):
        z[t] = profile.ar_phi * z[t - 1] + scale * eps[t]
    white = rng.normal(size=(T, F))
    noise = MIX_WEIGHT * (z @ M) + WHITE_WEIGHT * white
    wave = np.sin(2.0 * np.pi * ts / profile.periodic_period_s + phase)
    rows = (
        profile.means
        + profile.sigmas * noise
        + profile.drift_per_s * ts[:, None]
        + profile.periodic_amp * wave[:, None]
    )
    return rows


def _meta(category: str, subject: str, pick: int, spec: CorpusSpec,
          onset_s: float | None) -> TraceMeta:
    """The meta of a generated trace: its subject name is the category
    without hyphens followed by *subject*; *pick* chooses the OS and the
    hardware id."""
    return TraceMeta(
        subject_name=category.replace("-", "") + subject,
        os=OS_NAMES[pick % len(OS_NAMES)],
        hardware_id=HW_IDS[pick % len(HW_IDS)],
        category=category,
        onset_s=onset_s,
        sample_period_s=spec.sample_period_s,
    )


def generate_benign_trace(profile: WorkloadProfile, spec: CorpusSpec, seed: int,
                          meta: TraceMeta | None = None) -> Trace:
    """Benign workload trace: all labels 0, valid filename metadata."""
    spec.validate()
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    rows = _baseline_rows(profile, spec, rng)
    T = rows.shape[0]
    meta = meta or _meta(profile.kind, f"{seed % 1000:03d}", seed, spec, None)
    return Trace(
        meta=meta,
        header=feature_names(spec.num_features),
        times=np.arange(T) * spec.sample_period_s,
        features=rows,
        labels=np.zeros(T, dtype=np.int64),
    )


def _apply_effects(rows: np.ndarray, onset_row: int, profile: MalwareProfile,
                   sigmas: np.ndarray, spec: CorpusSpec) -> None:
    T = rows.shape[0]
    idx = np.arange(onset_row, T)
    rel = idx - onset_row
    for eff in profile.effects:
        eff.validate(spec.sample_period_s)
        ch = list(eff.channels)
        delta = eff.magnitude_sigma * spec.difficulty * sigmas[ch]
        if eff.shape == "sustained-shift":
            rows[onset_row:, ch] += delta
        elif eff.shape == "ramp":
            ramp_rows = max(1, int(round(eff.ramp_s / spec.sample_period_s)))
            factor = np.minimum(1.0, (rel + 1) / ramp_rows)[:, None]
            rows[np.ix_(idx, ch)] += factor * delta
        else:  # periodic-burst / io-burst-train
            period_rows = max(1, int(round(eff.period_s / spec.sample_period_s)))
            mask = (rel % period_rows) < eff.burst_rows
            rows[np.ix_(idx[mask], ch)] += delta


def generate_malicious_trace(
    workload: WorkloadProfile,
    malware: MalwareProfile,
    spec: CorpusSpec,
    seed: int,
    onset_s: float | None = None,
    meta: TraceMeta | None = None,
) -> Trace:
    """Benign dynamics throughout plus malware effects from the onset row.

    The onset is drawn (seeded) from the spec's onset set unless given.
    Pre-onset rows equal the paired benign trace of the same seed exactly.
    """
    spec.validate()
    if onset_s is None:
        onset_rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        onset_s = float(onset_rng.choice(spec.onset_choices))
    if not 0 <= onset_s < spec.duration_s:
        raise BadSpecError(f"onset {onset_s}s outside the trace duration")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
    rows = _baseline_rows(workload, spec, rng)
    T = rows.shape[0]
    onset_row = int(round(onset_s / spec.sample_period_s))
    _apply_effects(rows, onset_row, malware, workload.sigmas, spec)
    labels = np.zeros(T, dtype=np.int64)
    labels[onset_row:] = 1
    meta = meta or _meta(malware.kind, f"{seed % 1000:03d}", seed, spec, onset_s)
    if meta.onset_s != onset_s:
        meta = replace(meta, onset_s=onset_s)
    return Trace(
        meta=meta,
        header=feature_names(spec.num_features),
        times=np.arange(T) * spec.sample_period_s,
        features=rows,
        labels=labels,
    )


def _file_seed(spec: CorpusSpec, index: int) -> int:
    return int(np.random.SeedSequence((spec.seed, index)).generate_state(1)[0])


def _corpus_traces(spec: CorpusSpec):
    """Yield the corpus's traces in file order, each with its file's meta.

    Onsets rotate through the configured set within each malware category
    so the split strata stay balanced; each malicious trace runs on a
    benign workload background cycled through the workload kinds.
    """
    index = 0
    for kind in sorted(spec.benign_counts):
        profile = workload_profile(kind, spec.num_features)
        for j in range(spec.benign_counts[kind]):
            seed = _file_seed(spec, index)
            yield generate_benign_trace(profile, spec, seed,
                                        meta=_meta(kind, f"{j:02d}", index, spec, None))
            index += 1

    workload_cycle = sorted(spec.benign_counts) or ["office"]
    for cat_index, kind in enumerate(sorted(spec.malware_counts)):
        malware = malware_profile(kind, spec.num_features, spec.seed)
        for j in range(spec.malware_counts[kind]):
            seed = _file_seed(spec, index)
            # Rotate onsets within each category, offset per category so
            # single-sample categories spread across the onset set too.
            # abs: an onset of -0.0 is named 0, so the meta must hold 0.0.
            onset = abs(float(spec.onset_choices[(j + cat_index) % len(spec.onset_choices)]))
            workload = workload_profile(workload_cycle[index % len(workload_cycle)],
                                        spec.num_features)
            yield generate_malicious_trace(workload, malware, spec, seed, onset_s=onset,
                                           meta=_meta(kind, f"{j:02d}", index, spec, onset))
            index += 1


def generate_corpus(spec: CorpusSpec, out_dir: str | Path) -> Manifest:
    """Write the whole corpus + manifest; byte-identical per (spec, seed).

    The manifest equals build_manifest(out_dir), but the files written here
    are indexed from the traces in memory, never read back: only a ``*.csv``
    that was already in *out_dir* and is not overwritten is parsed, to be
    indexed or skipped as build_manifest would.
    """
    spec.validate()
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = Manifest()
    for trace in _corpus_traces(spec):
        name = render_filename(trace.meta)
        write_trace_csv(trace, out_dir / name)
        manifest.entries.append(manifest_entry(name, trace))

    written = {e.path for e in manifest.entries}
    foreign = [(p.name, None) for p in out_dir.glob("*.csv") if p.name not in written]
    manifest.entries += [manifest_entry(name, trace) for name, trace
                         in parse_trace_files(out_dir, foreign, manifest.skipped)]
    manifest.entries.sort(key=lambda e: e.path)
    save_manifest(manifest, out_dir / MANIFEST_FILENAME)
    return manifest
