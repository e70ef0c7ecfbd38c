import numpy as np
import pytest

from sidewatch import synthgen, telemetry
from sidewatch.evalharness import stratified_split


def micro_spec(**overrides) -> synthgen.CorpusSpec:
    """Small, fast, learnable corpus used across the suite."""
    kwargs = dict(
        benign_counts={"os-only": 2, "office": 2},
        malware_counts={"ransomware": 2, "worm": 2},
        num_features=8,
        duration_s=120.0,
        sample_period_s=0.5,
        onset_choices=(30.0, 45.0, 60.0),
        seed=7,
        difficulty=3.0,
    )
    kwargs.update(overrides)
    return synthgen.CorpusSpec(**kwargs)


@pytest.fixture(scope="session")
def micro_corpus(tmp_path_factory):
    """8-trace difficulty-3 corpus on disk, split 4/4."""
    root = tmp_path_factory.mktemp("micro_corpus")
    spec = micro_spec()
    manifest = synthgen.generate_corpus(spec, root)
    manifest = stratified_split(manifest, (2, 2), seed=3)
    telemetry.save_manifest(manifest, root / telemetry.MANIFEST_FILENAME)
    return root, spec, manifest


@pytest.fixture(scope="session")
def micro_traces(micro_corpus):
    root, spec, manifest = micro_corpus
    train = telemetry.load_traces(manifest, root, "train")
    test = telemetry.load_traces(manifest, root, "test")
    return train, test


class ChunkSource:
    """A binary source held in memory: each read1 gives the next of
    *chunks* (each shorter than a read asks for), then b"" at the end."""

    def __init__(self, chunks):
        self.chunks = list(chunks)

    def read1(self, size: int = -1) -> bytes:
        return self.chunks.pop(0) if self.chunks else b""


def read_rows(chunks, **reader_args):
    """(index, SampleRow) per data row that a TraceReader (*reader_args*)
    reads from the binary *chunks*, one read1 each (drain=False). A bad
    row raises its error after the rows before it."""
    reader = telemetry.TraceReader(ChunkSource(chunks), **reader_args)
    for first, times, features, labels in reader.blocks(drain=False):
        for i, t in enumerate(times.tolist()):
            yield first + i, telemetry.SampleRow(t=t, features=features[i], label=int(labels[i]))


def random_trace(rng: np.random.Generator, T: int = 12, F: int = 3,
                 category: str = "benign", onset_row: int | None = None,
                 period: float = 0.5) -> telemetry.Trace:
    """A structurally valid random trace for round-trip/fuzz tests."""
    labels = np.zeros(T, dtype=np.int64)
    onset_s = None
    if onset_row is not None:
        labels[onset_row:] = 1
        onset_s = onset_row * period
    meta = telemetry.TraceMeta(
        subject_name=f"subject{rng.integers(1000)}",
        os="Win7SP1",
        hardware_id=f"hw{rng.integers(1, 7)}",
        category=category,
        onset_s=onset_s,
        sample_period_s=period,
    )
    return telemetry.Trace(
        meta=meta,
        header=[f"sensor_{j}" for j in range(F)],
        times=np.arange(T, dtype=np.float64) * period,
        features=rng.normal(size=(T, F)) * rng.uniform(0.5, 50.0),
        labels=labels,
    )
