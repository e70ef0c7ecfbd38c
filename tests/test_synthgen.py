from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sidewatch import synthgen, telemetry
from sidewatch.errors import BadSpecError
from sidewatch.synthgen import (
    CorpusSpec,
    MalwareEffect,
    MalwareProfile,
    corpus_spec_from_dict,
    generate_benign_trace,
    generate_corpus,
    generate_malicious_trace,
    malware_profile,
    workload_profile,
)
from sidewatch.telemetry import validate_trace

from conftest import micro_spec, random_trace


def small_spec(**overrides):
    kwargs = dict(num_features=6, duration_s=100.0, onset_choices=(20.0, 40.0),
                  seed=3, difficulty=1.0)
    kwargs.update(overrides)
    return CorpusSpec(**kwargs)


class TestBenignGeneration:
    def test_row_count_from_duration(self):
        spec = CorpusSpec(num_features=4)
        trace = generate_benign_trace(workload_profile("office", 4), spec, seed=1)
        assert trace.num_rows == 960  # 480 s at 0.5 s

    def test_determinism(self):
        spec = small_spec()
        p = workload_profile("game", 6)
        a = generate_benign_trace(p, spec, seed=9)
        b = generate_benign_trace(p, spec, seed=9)
        assert a == b

    def test_validates_clean(self):
        spec = small_spec()
        for kind in synthgen.WORKLOAD_KINDS:
            trace = generate_benign_trace(workload_profile(kind, 6), spec, seed=4)
            assert validate_trace(trace) == []
            assert trace.labels.sum() == 0


class TestMaliciousGeneration:
    def test_onset_row_labeling(self):
        spec = small_spec()
        trace = generate_malicious_trace(
            workload_profile("office", 6), malware_profile("worm", 6, spec.seed),
            spec, seed=5, onset_s=40.0)
        onset_row = int(round(40.0 / 0.5))
        assert trace.labels[onset_row - 1] == 0
        assert trace.labels[onset_row] == 1
        assert np.all(trace.labels[onset_row:] == 1)
        assert validate_trace(trace) == []

    def test_pre_onset_rows_equal_paired_benign(self):
        spec = small_spec()
        wl = workload_profile("system-tool", 6)
        mal = malware_profile("ransomware", 6, spec.seed)
        benign = generate_benign_trace(wl, spec, seed=11)
        malicious = generate_malicious_trace(wl, mal, spec, seed=11, onset_s=40.0)
        onset_row = int(round(40.0 / 0.5))
        np.testing.assert_array_equal(benign.features[:onset_row],
                                      malicious.features[:onset_row])

    def test_zero_difficulty_identical_to_benign_except_labels(self):
        spec = small_spec(difficulty=0.0)
        wl = workload_profile("office", 6)
        mal = malware_profile("rootkit", 6, spec.seed)
        benign = generate_benign_trace(wl, spec, seed=12)
        malicious = generate_malicious_trace(wl, mal, spec, seed=12, onset_s=20.0)
        np.testing.assert_array_equal(benign.features, malicious.features)
        assert malicious.labels.sum() > 0

    def test_onset_drawn_from_spec_set(self):
        spec = small_spec()
        wl = workload_profile("office", 6)
        mal = malware_profile("worm", 6, spec.seed)
        seen = set()
        for seed in range(20):
            trace = generate_malicious_trace(wl, mal, spec, seed=seed)
            assert trace.meta.onset_s in spec.onset_choices
            seen.add(trace.meta.onset_s)
        assert len(seen) > 1

    def test_beacon_autocorrelation_peak(self):
        # 10-second beacon at 0.5s sampling: autocorrelation of the beacon
        # channel peaks at lag 20 among mid-range lags.
        spec = small_spec(duration_s=200.0, onset_choices=(20.0,), difficulty=1.0)
        profile = MalwareProfile(
            kind="trojan-backdoor",
            effects=(MalwareEffect("periodic-burst", (2,), 8.0, period_s=10.0),),
        )
        wl = workload_profile("os-only", 6)
        trace = generate_malicious_trace(wl, profile, spec, seed=3, onset_s=20.0)
        post = trace.features[40:, 2] - trace.features[40:, 2].mean()
        acf = np.correlate(post, post, mode="full")[post.size - 1 :]
        lags = np.arange(5, 61)
        peak_lag = lags[np.argmax(acf[5:61])]
        assert peak_lag == 20

    def test_beacon_period_validation(self):
        eff = MalwareEffect("periodic-burst", (0,), 3.0, period_s=0.6)
        with pytest.raises(BadSpecError):
            eff.validate(0.5)


class TestCorpus:
    def test_default_spec_counts(self, tmp_path):
        spec = CorpusSpec(num_features=4, duration_s=10.0,
                          onset_choices=(2.0, 3.0, 4.0))
        manifest = generate_corpus(spec, tmp_path)
        mal = [e for e in manifest.entries if e.meta.is_malicious]
        ben = [e for e in manifest.entries if not e.meta.is_malicious]
        assert len(manifest.entries) == 57
        assert len(mal) == 29
        assert len(ben) == 28
        by_cat = {}
        for e in manifest.entries:
            by_cat[e.meta.category] = by_cat.get(e.meta.category, 0) + 1
        assert by_cat["ransomware"] == 11
        assert by_cat["benchmark"] == 12

    def test_empty_counts(self, tmp_path):
        spec = CorpusSpec(benign_counts={}, malware_counts={}, num_features=3,
                          duration_s=5.0, onset_choices=())
        manifest = generate_corpus(spec, tmp_path)
        assert manifest.entries == []

    def test_regeneration_byte_identical(self, tmp_path):
        spec = micro_spec(seed=21)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        generate_corpus(spec, d1)
        generate_corpus(spec, d2)
        files1 = sorted(p.name for p in d1.glob("*.csv"))
        files2 = sorted(p.name for p in d2.glob("*.csv"))
        assert files1 == files2
        for name in files1:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()

    def test_all_generated_traces_validate_clean(self, tmp_path):
        spec = micro_spec(seed=22)
        manifest = generate_corpus(spec, tmp_path)
        assert manifest.skipped == []
        for trace in telemetry.load_traces(manifest, tmp_path):
            assert validate_trace(trace) == []

    def test_bayes_oracle_separates_at_difficulty_one(self, tmp_path):
        # Thresholding the known sustained-effect channels must classify
        # every file correctly at difficulty >= 1.
        spec = micro_spec(seed=23, difficulty=1.0,
                          benign_counts={"os-only": 1, "benchmark": 2, "office": 1},
                          malware_counts={"ransomware": 1, "worm": 1, "rootkit": 1,
                                          "trojan-backdoor": 1})
        manifest = generate_corpus(spec, tmp_path)
        traces = telemetry.load_traces(manifest, tmp_path)
        correct = 0
        run_need = 40
        for trace in traces:
            flagged = False
            for kind in spec.malware_counts:
                profile = malware_profile(kind, spec.num_features, spec.seed)
                channels = list(profile.sustained_channels())
                if not channels:
                    continue
                # Workload means differ per kind, so standardize against
                # each trace's own early-rows baseline (always benign:
                # onsets are >= 20s into the trace).
                base = trace.features[:30, channels]
                mu, sd = base.mean(axis=0), base.std(axis=0) + 1e-9
                score = ((trace.features[:, channels] - mu) / sd).mean(axis=1)
                run = 0
                for s in score:
                    run = run + 1 if s > 1.5 else 0
                    if run >= run_need:
                        flagged = True
                        break
                if flagged:
                    break
            correct += int(flagged == trace.meta.is_malicious)
        assert correct == len(traces)

    def test_spec_from_dict_rejects_unknown_keys(self):
        with pytest.raises(BadSpecError):
            corpus_spec_from_dict({"bogus": 1})

    def test_spec_validation(self):
        with pytest.raises(BadSpecError):
            CorpusSpec(num_features=0).validate()
        with pytest.raises(BadSpecError):
            CorpusSpec(onset_choices=(999.0,)).validate()
        with pytest.raises(BadSpecError):
            CorpusSpec(benign_counts={"nonsense": 1}).validate()

    def test_filenames_follow_convention(self, tmp_path):
        spec = micro_spec(seed=24)
        generate_corpus(spec, tmp_path)
        for p in tmp_path.glob("*.csv"):
            meta = telemetry.parse_trace_filename(p.name)
            assert meta.category in telemetry.CATEGORIES


# --- the manifest generate_corpus writes ------------------------------------

FOREIGN_FILES = ("valid", "stale", "malformed")


def _add_foreign_files(out_dir, which, seed):
    """Put the named kinds of file that generate_corpus did not write into
    *out_dir*: a valid trace, the traces of an earlier corpus of another spec
    (some of their names are rewritten by the spec under test, the others
    stay), and a ``*.csv`` outside the filename convention. Returns the
    conventional names the foreign files may leave behind."""
    out_dir.mkdir(parents=True, exist_ok=True)
    names = set()
    if "valid" in which:
        trace = random_trace(np.random.default_rng(seed), T=5, category="virus", onset_row=2)
        name = telemetry.render_filename(trace.meta)
        telemetry.write_trace_csv(trace, out_dir / name)
        names.add(name)
    if "stale" in which:
        stale = CorpusSpec(benign_counts={"office": 2}, malware_counts={"worm": 2},
                           num_features=2, duration_s=7.0, sample_period_s=0.7,
                           onset_choices=(1.4, 3.5), seed=seed + 1)
        names |= {e.path for e in generate_corpus(stale, out_dir).entries}
    if "malformed" in which:
        (out_dir / "notes.csv").write_text("time_s,a,label\r\n0.0,1,0\r\n", encoding="utf-8")
    return names


@st.composite
def corpus_cases(draw):
    period = draw(st.sampled_from([0.3, 0.5, 1.0]))
    duration = draw(st.integers(2, 12)) * period
    onsets = draw(st.lists(
        st.one_of(st.integers(0, int(duration - 1e-9)).map(float),
                  st.floats(0.0, duration, exclude_max=True),
                  st.just(-0.0)),
        min_size=1, max_size=3))
    counts = st.integers(0, 2)
    return dict(
        spec=CorpusSpec(
            benign_counts=draw(st.dictionaries(
                st.sampled_from(synthgen.WORKLOAD_KINDS), counts, max_size=2)),
            malware_counts=draw(st.dictionaries(
                st.sampled_from(telemetry.MALWARE_CATEGORIES), counts, max_size=2)),
            num_features=draw(st.integers(1, 3)), duration_s=duration,
            sample_period_s=period, onset_choices=tuple(onsets),
            seed=draw(st.integers(0, 50)), difficulty=1.0),
        foreign=draw(st.sets(st.sampled_from(FOREIGN_FILES))),
    )


class TestCorpusManifest:
    @given(case=corpus_cases())
    @settings(max_examples=80, deadline=None)
    @example(case=dict(spec=small_spec(duration_s=3.0, sample_period_s=0.3,
                                       benign_counts={"office": 1},
                                       malware_counts={"worm": 2, "virus": 1},
                                       onset_choices=(-0.0, 1.5, 2.1)),
                       foreign=set(FOREIGN_FILES)))
    def test_manifest_equals_build_manifest(self, tmp_path_factory, case):
        """The manifest indexed from the written traces is byte for byte the
        one build_manifest reads back from the directory, whatever was in it."""
        root = tmp_path_factory.mktemp("manifest")
        out_dir = root / "corpus"
        _add_foreign_files(out_dir, case["foreign"], case["spec"].seed)
        manifest = generate_corpus(case["spec"], out_dir)
        want = telemetry.build_manifest(out_dir)
        telemetry.save_manifest(want, root / "want.json")
        assert ((out_dir / telemetry.MANIFEST_FILENAME).read_bytes()
                == (root / "want.json").read_bytes())
        assert manifest == want

    @pytest.mark.parametrize("foreign", [(), FOREIGN_FILES])
    def test_only_foreign_files_are_parsed(self, tmp_path, foreign):
        spec = micro_spec(seed=25, duration_s=10.0, onset_choices=(2.0, 3.5))
        written = {e.path for e in generate_corpus(spec, tmp_path / "fresh").entries}
        names = _add_foreign_files(tmp_path / "corpus", foreign, seed=4)
        with mock.patch.object(telemetry, "parse_trace_csv",
                               wraps=telemetry.parse_trace_csv) as spy:
            generate_corpus(spec, tmp_path / "corpus")
        parsed = [call.args[0].name for call in spy.call_args_list]
        assert sorted(parsed) == sorted(names - written)
        assert bool(parsed) == bool(foreign)
