"""Tests for config handling, the per-recording routes and corpus runs."""

import dataclasses
import hashlib
import re
import shutil
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import diarkit.pipeline as pipeline
from diarkit.annotations import (
    Annotation,
    ScoringRegions,
    Segment,
    parse_rttm,
    read_rttm_file,
    speech_timeline,
)
from diarkit.embeddings import EmbeddingSequence, SyntheticSpec, generate_synthetic, read_embeddings
from diarkit.metrics import der
from diarkit.pipeline import (
    ConfigError,
    ManifestEntry,
    ModelSet,
    PipelineConfig,
    RunManifest,
    run_corpus,
    run_narrowband,
    run_wideband,
    synthesize_corpus,
    windows_to_annotation,
)
from diarkit.reseg import (
    LDAProjection,
    PosteriorMatrix,
    VBxConfig,
    WhiteningStats,
    parse_overlap_regions,
    whiten_and_normalize,
)
from diarkit.scoring import PLDAModel, SimilarityMatrix, ground_truth_plda

from oracles import label_runs_by_loop


# ---------------------------------------------------------------------------
# config parsing and validation


def test_config_defaults():
    config = PipelineConfig.from_mapping({})
    assert config.sad_gating is True
    assert config.seed == 0
    assert config.scoring.kind == "plda"
    assert config.clustering.method == "pic"
    assert config.vbx.enabled is True
    assert config.decode.threshold == 0.5
    assert config.metrics.collar == 0.0


def test_config_rejects_unknown_top_level_key():
    with pytest.raises(ConfigError, match="unknown config keys"):
        PipelineConfig.from_mapping({"embeddigns_dir": "x"})


def test_config_rejects_unknown_section_key():
    with pytest.raises(ConfigError, match="unknown scoring config keys"):
        PipelineConfig.from_mapping({"scoring": {"kind": "plda", "bogus": 1}})


def test_config_section_must_be_mapping():
    with pytest.raises(ConfigError, match="must be a mapping"):
        PipelineConfig.from_mapping({"scoring": [1, 2]})


def test_config_rejects_bad_choices():
    with pytest.raises(ConfigError, match="scoring.kind"):
        PipelineConfig.from_mapping({"scoring": {"kind": "euclidean"}})
    with pytest.raises(ConfigError, match="clustering.method"):
        PipelineConfig.from_mapping({"clustering": {"method": "kmeans"}})
    with pytest.raises(ConfigError, match="route_override"):
        PipelineConfig.from_mapping({"route_override": "sideband"})


def test_config_load_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        PipelineConfig.load(tmp_path / "nope.yaml")


def test_config_load_invalid_yaml(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("scoring: [unclosed\n")
    with pytest.raises(ConfigError, match="invalid YAML"):
        PipelineConfig.load(path)


def test_config_load_non_mapping(tmp_path):
    path = tmp_path / "list.yaml"
    path.write_text("- 1\n- 2\n")
    with pytest.raises(ConfigError, match="must be a mapping"):
        PipelineConfig.load(path)


def test_config_load_rejects_missing_referenced_path(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({"embeddings_dir": "does_not_exist"}))
    with pytest.raises(ConfigError, match="does not exist"):
        PipelineConfig.load(path)


def test_config_resolves_paths_relative_to_config_file(synthetic_corpus):
    config = PipelineConfig.load(synthetic_corpus)
    root = synthetic_corpus.parent
    assert Path(config.embeddings_dir).is_absolute()
    assert Path(config.embeddings_dir) == (root / "embeddings").resolve()
    assert Path(config.scoring.plda_model).is_absolute()
    assert Path(config.scoring.plda_model).exists()
    assert Path(config.vbx.plda_model_primary).parent == (root / "models").resolve()


_PATH_KEYS = (
    "embeddings_dir",
    "posteriors_dir",
    "sad_rttm",
    "reference_rttm",
    "uem",
    "overlap_regions",
    "bandwidth_model",
    "bandwidth_embeddings_dir",
    "scoring.cosine_pca_model",
    "scoring.plda_model",
    "vbx.lda_model",
    "vbx.whitening_stats",
    "vbx.plda_model_primary",
    "vbx.plda_model_secondary",
)


@pytest.mark.parametrize("key", _PATH_KEYS)
def test_config_path_key_resolves_and_must_exist(key, tmp_path):
    *section, name = key.split(".")
    path = tmp_path / "config.yaml"

    def load(value):
        path.write_text(yaml.safe_dump({section[0]: {name: value}} if section else {name: value}))
        config = PipelineConfig.load(path)
        return getattr(getattr(config, section[0]) if section else config, name)

    (tmp_path / "models").mkdir()
    (tmp_path / "models" / "target").write_text("")
    assert load("models/target") == str((tmp_path / "models" / "target").resolve())
    absolute = str(tmp_path / "models" / "." / "target")
    assert load(absolute) == absolute
    with pytest.raises(ConfigError, match=rf"config path {re.escape(key)} does not exist"):
        load("models/missing")


_BAD_VBX_VALUES = [
    {"loop_probability": 1.0},
    {"loop_probability": 0.0},
    {"max_iterations": 0},
    {"convergence_tolerance": 0.0},
    {"acoustic_scale": 0.0},
    {"speaker_prior_scale": -1.0},
    {"max_iterations": "ten"},
]


@pytest.mark.parametrize(
    "section, values",
    [pytest.param("vbx", values, id=f"vbx{k}") for k, values in enumerate(_BAD_VBX_VALUES)]
    + [pytest.param("clustering", {"min_cluster_windows": "5"}, id="clustering0")],
)
def test_config_rejects_bad_vbx_values_at_load(section, values, tmp_path):
    with pytest.raises(ConfigError, match=rf"^{section}: "):
        PipelineConfig.from_mapping({section: values})
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump({section: values}))
    with pytest.raises(ConfigError, match=rf"^{section}: "):
        PipelineConfig.load(path)


def test_config_section_errors_are_wrapped_once():
    with pytest.raises(ConfigError) as err:
        PipelineConfig.from_mapping({"scoring": {"kind": "euclidean"}})
    assert str(err.value).startswith("scoring.kind must be cosine or plda")


def test_config_vbx_section_is_the_vbx_config():
    section = PipelineConfig.from_mapping({"vbx": {"max_iterations": 7}}).vbx
    assert isinstance(section, VBxConfig)
    settings = (
        section.loop_probability,
        section.max_iterations,
        section.convergence_tolerance,
        section.acoustic_scale,
        section.speaker_prior_scale,
    )
    assert settings == (0.8, 7, 1e-6, 1.0, 1.0)


def test_config_hash_is_stable_and_sensitive():
    a = PipelineConfig.from_mapping({})
    b = PipelineConfig.from_mapping({})
    c = PipelineConfig.from_mapping({"seed": 7})
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()
    assert len(a.config_hash()) == 64
    assert set(a.config_hash()) <= set("0123456789abcdef")


def test_config_canonical_dump_roundtrip():
    config = PipelineConfig.from_mapping(
        {"seed": 3, "scoring": {"kind": "cosine"}, "recordings": ["b", "a"]}
    )
    reloaded = PipelineConfig.from_mapping(yaml.safe_load(config.canonical_dump()))
    assert reloaded == config
    assert reloaded.config_hash() == config.config_hash()


# ---------------------------------------------------------------------------
# window labels to segments


def test_windows_to_annotation_boundaries_at_center_midpoints():
    windows = np.array([[0.0, 1.5], [0.25, 1.75], [0.5, 2.0]])
    labels = np.array([0, 0, 1])
    ann = windows_to_annotation("w", windows, labels)
    assert len(ann.segments) == 2
    first, second = ann.segments
    # centers are 0.75, 1.0, 1.25; the label change falls at (1.0 + 1.25) / 2
    assert first.speaker == "spk0"
    assert first.onset == pytest.approx(0.0)
    assert first.offset == pytest.approx(1.125)
    assert second.speaker == "spk1"
    assert second.onset == pytest.approx(1.125)
    assert second.offset == pytest.approx(2.0)


def test_windows_to_annotation_single_run_spans_window_edges():
    windows = np.array([[0.0, 1.5], [0.25, 1.75], [0.5, 2.0]])
    ann = windows_to_annotation("w", windows, np.zeros(3, dtype=int))
    assert len(ann.segments) == 1
    assert ann.segments[0].onset == pytest.approx(0.0)
    assert ann.segments[0].offset == pytest.approx(2.0)


@settings(max_examples=200, deadline=None)
@given(
    steps=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=30),
    size=st.sampled_from([0.5, 1.5]),
    data=st.data(),
)
def test_windows_to_annotation_matches_the_run_loop(steps, size, data):
    # a step of 0 repeats a window, so some rows span no time
    starts = np.cumsum(steps)
    windows = np.column_stack([starts, starts + size])
    labels = data.draw(st.lists(st.integers(0, 3), min_size=len(steps), max_size=len(steps)))
    centers = windows.mean(axis=1)
    bounds = np.concatenate([windows[:1, 0], 0.5 * (centers[:-1] + centers[1:]), windows[-1:, 1]])
    names = ("spk0", "spk1", "spk2", "spk3")
    expected = Annotation("w", tuple(label_runs_by_loop("w", bounds, labels, names)))
    assert windows_to_annotation("w", windows, np.array(labels)) == expected


def test_windows_to_annotation_empty():
    ann = windows_to_annotation("w", np.empty((0, 2)), np.empty(0, dtype=int))
    assert ann.segments == ()


def test_windows_to_annotation_custom_speaker_names():
    windows = np.array([[0.0, 1.0], [0.5, 1.5]])
    ann = windows_to_annotation("w", windows, np.array([1, 0]), speaker_names=("alice", "bob"))
    assert [seg.speaker for seg in ann.segments] == ["bob", "alice"]


def test_windows_to_annotation_crops_to_speech():
    windows = np.array([[0.0, 1.5], [0.25, 1.75], [0.5, 2.0]])
    speech = ScoringRegions("w", ((0.5, 1.0),))
    ann = windows_to_annotation("w", windows, np.zeros(3, dtype=int), speech=speech)
    assert len(ann.segments) == 1
    assert ann.segments[0].onset == pytest.approx(0.5)
    assert ann.segments[0].offset == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# run manifest


def test_manifest_text_lists_every_recording():
    manifest = RunManifest(
        "0.1.0",
        "deadbeef",
        (
            ManifestEntry("rec1", "wideband", "ok", "", 0.12),
            ManifestEntry("rec2", "narrowband", "failed", "boom", 0.5),
        ),
    )
    text = manifest.to_text()
    assert "config_hash: deadbeef" in text
    assert "recordings: 2" in text
    assert "rec1 route=wideband status=ok elapsed=0.120s" in text
    assert "rec2 route=narrowband status=failed elapsed=0.500s message='boom'" in text
    assert manifest.succeeded() == ["rec1"]


def test_manifest_rejects_duplicate_recordings():
    entry = ManifestEntry("rec1", "wideband", "ok")
    with pytest.raises(ValueError, match="exactly once"):
        RunManifest("0.1.0", "hash", (entry, entry))


# ---------------------------------------------------------------------------
# single-recording routes


def _synthetic_recording(num_speakers=3, seed=5, recording_id="unit0"):
    spec = SyntheticSpec.well_separated(
        num_speakers,
        16,
        separation=10.0,
        duration=60.0,
        seed=seed,
        recording_id=recording_id,
    )
    seq, reference, _ = generate_synthetic(spec)
    return seq, reference


def test_run_wideband_cosine_route_recovers_speakers():
    seq, reference = _synthetic_recording()
    config = PipelineConfig.from_mapping(
        {"scoring": {"kind": "cosine", "cosine_pca_dim": 8}, "vbx": {"enabled": False}}
    )
    hyp = run_wideband(seq, reference, config)
    report = der(reference, hyp)
    assert report.der is not None
    assert report.der < 0.10
    assert len(hyp.speakers()) == len(reference.speakers())


def test_run_wideband_full_route_from_corpus_config(synthetic_corpus):
    config = PipelineConfig.load(synthetic_corpus)
    root = synthetic_corpus.parent
    refs = {a.recording_id: a for a in parse_rttm((root / "ref.rttm").read_text())}
    sads = {a.recording_id: a for a in parse_rttm((root / "sad.rttm").read_text())}
    seq = read_embeddings(root / "embeddings" / "rec000.emb")
    hyp = run_wideband(seq, sads["rec000"], config)
    report = der(refs["rec000"], hyp)
    assert report.der is not None
    assert report.der < 0.10


def test_run_wideband_empty_when_sad_excludes_everything():
    seq, _ = _synthetic_recording()
    config = PipelineConfig.from_mapping({"scoring": {"kind": "cosine"}})
    speech = ScoringRegions(seq.recording_id, ((1000.0, 1001.0),))
    hyp = run_wideband(seq, speech, config)
    assert hyp.segments == ()


def test_run_wideband_skips_overlap_outside_the_sad(synthetic_corpus):
    config = PipelineConfig.load(synthetic_corpus)
    seq = read_embeddings(synthetic_corpus.parent / "embeddings" / "rec000.emb")
    speech = ScoringRegions(seq.recording_id, ((0.0, 40.0),))
    overlaps = ScoringRegions(seq.recording_id, ((50.0, 52.0),))
    with pytest.warns(UserWarning, match="no posterior frames inside overlap region"):
        hyp = run_wideband(seq, speech, config, overlaps=overlaps)
    assert hyp.segments
    assert hyp.extent() <= 40.0


def test_run_wideband_single_window_is_one_speaker():
    rng = np.random.default_rng(0)
    seq = EmbeddingSequence(
        "solo",
        rng.normal(size=(1, 8)),
        window_size=1.5,
        window_shift=0.25,
        recording_duration=1.5,
        windows=np.array([[0.0, 1.5]]),
    )
    hyp = run_wideband(seq, None, PipelineConfig())
    assert len(hyp.segments) == 1
    assert hyp.segments[0].onset == pytest.approx(0.0)
    assert hyp.segments[0].offset == pytest.approx(1.5)


def test_run_wideband_vbx_without_plda_is_config_error():
    seq, reference = _synthetic_recording()
    config = PipelineConfig.from_mapping({"scoring": {"kind": "cosine", "cosine_pca_dim": 8}})
    with pytest.raises(ConfigError, match="PLDA"):
        run_wideband(seq, reference, config)


def test_run_wideband_traced_peak_below_one_and_two_fifths_score_matrices():
    # allocation sizes are deterministic, so the traced peak is too.  The
    # scorer condenses its square inside the square's own buffer and shrinks
    # it to the upper triangle (0.5 n^2), so the square plus one band of
    # tiles is the scoring peak; the count estimate negates the triangle in
    # place, and every later step holds the triangle plus row bands.  At
    # this size (1195 windows) scoring and the k-NN graph's 256-row blocks
    # both trace about 1.26 n^2.  tracemalloc does not see the copy of the
    # triangle that scipy's linkage makes inside its nearest-neighbor chain,
    # about 0.5 n^2, so the count estimate's true peak is about 1 n^2.
    # VBx reads no scores and is off to keep the run short.
    spec = SyntheticSpec.well_separated(
        4, 16, separation=10.0, duration=300.0, seed=7, recording_id="mem"
    )
    seq, _, _ = generate_synthetic(spec)
    plda = ground_truth_plda(spec)
    models = ModelSet(plda_score=plda, plda_vbx=plda)
    config = PipelineConfig.from_mapping(
        {"vbx": {"enabled": False}, "clustering": {"min_cluster_windows": 5}}
    )
    assert config.scoring.kind == "plda" and config.clustering.method == "pic"
    n = len(seq)
    assert n > 1000
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        hyp = run_wideband(seq, None, config, models)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(hyp.speakers()) == 4
    assert peak < 1.4 * n * n * 8


@pytest.mark.parametrize(
    "scoring, method",
    [("plda", "pic"), ("cosine", "pic"), ("plda", "ahc")],
)
def test_run_wideband_never_rebuilds_the_square(monkeypatch, scoring, method):
    def refuse(self):
        raise AssertionError("the wideband route read SimilarityMatrix.scores")

    monkeypatch.setattr(SimilarityMatrix, "scores", property(refuse))
    seq, reference = _synthetic_recording()
    plda = ground_truth_plda(
        SyntheticSpec.well_separated(3, 16, separation=10.0, duration=60.0, seed=5)
    )
    config = PipelineConfig.from_mapping(
        {
            "scoring": {"kind": scoring, "cosine_pca_dim": 8},
            # small clusters are absorbed, so that step reads scores too
            "clustering": {"method": method, "min_cluster_windows": 5},
        }
    )
    hyp = run_wideband(seq, reference, config, ModelSet(plda_score=plda, plda_vbx=plda))
    assert len(hyp.speakers()) == len(reference.speakers())


def test_run_wideband_hands_whitened_lda_vectors_to_vbx(monkeypatch):
    # the route whitens, then projects, and VBx gets that float64 array as it is
    seq, _ = _synthetic_recording()
    rng = np.random.default_rng(8)
    stats = WhiteningStats.fit(seq.vectors, ridge=1e-6)
    lda = LDAProjection(mean=0.01 * rng.normal(size=seq.dim), matrix=rng.normal(size=(seq.dim, 6)))
    plda = ground_truth_plda(
        SyntheticSpec.well_separated(3, 16, separation=10.0, duration=60.0, seed=5)
    )
    models = ModelSet(
        plda_score=plda,
        plda_vbx=PLDAModel(np.zeros(6), 4.0 * np.eye(6), np.eye(6)),
        whitening=stats,
        lda=lda,
    )
    seen = []
    vbx = pipeline.vbx_resegment

    def spy(X, *args, **kwargs):
        seen.append(X)
        return vbx(X, *args, **kwargs)

    monkeypatch.setattr(pipeline, "vbx_resegment", spy)
    hyp = run_wideband(seq, None, PipelineConfig(), models)
    assert hyp.segments
    assert len(seen) == 1
    got = seen[0]
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    want = lda.apply(whiten_and_normalize(seq.vectors, stats))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _no_hook(frame, event, arg):
    return None


@pytest.mark.parametrize("hook", [sys.settrace, sys.setprofile], ids=["settrace", "setprofile"])
@pytest.mark.parametrize("scoring", ["plda", "cosine"])
def test_run_wideband_under_trace_and_profile_hooks(hook, scoring):
    # debuggers, profilers and coverage tools hold extra references to each
    # frame's locals; the scorers' in-place shrink must not depend on them
    seq, reference = _synthetic_recording()
    plda = ground_truth_plda(
        SyntheticSpec.well_separated(3, 16, separation=10.0, duration=60.0, seed=5)
    )
    config = PipelineConfig.from_mapping(
        {"scoring": {"kind": scoring, "cosine_pca_dim": 8}, "clustering": {"method": "pic"}}
    )
    models = ModelSet(plda_score=plda, plda_vbx=plda)
    want = run_wideband(seq, reference, config, models)
    before = sys.gettrace(), sys.getprofile()
    hook(_no_hook)
    try:
        got = run_wideband(seq, reference, config, models)
    finally:
        sys.settrace(before[0])
        sys.setprofile(before[1])
    assert got.segments and got == want


def test_run_narrowband_decodes_and_merges():
    block = np.array([[0.9, 0.1]])
    matrix = np.vstack([np.repeat(block, 10, axis=0),
                        np.repeat(block[:, ::-1], 10, axis=0),
                        np.repeat(block, 10, axis=0)])
    post = PosteriorMatrix("nb0", matrix, frame_shift=0.1, subsample_factor=1)
    sad = Annotation("nb0", (Segment("nb0", 0.0, 3.0, "speech"),))

    config = PipelineConfig.from_mapping({"decode": {"threshold": 0.5, "median_window": 1}})
    hyp = run_narrowband(post, sad, config)
    spans = {(s.speaker, round(s.onset, 6), round(s.offset, 6)) for s in hyp.segments}
    assert spans == {("spk0", 0.0, 1.0), ("spk1", 1.0, 2.0), ("spk0", 2.0, 3.0)}

    merged_config = PipelineConfig.from_mapping(
        {"merge_gap": 1.2, "decode": {"threshold": 0.5, "median_window": 1}}
    )
    hyp2 = run_narrowband(post, sad, merged_config)
    spans2 = {(s.speaker, round(s.onset, 6), round(s.offset, 6)) for s in hyp2.segments}
    assert spans2 == {("spk0", 0.0, 3.0), ("spk1", 1.0, 2.0)}


# ---------------------------------------------------------------------------
# corpus runs


def test_run_corpus_writes_outputs_and_scores(synthetic_corpus, tmp_path):
    config = PipelineConfig.load(synthetic_corpus)
    out = tmp_path / "run"
    manifest = run_corpus(config, out)

    assert [e.recording_id for e in manifest.entries] == ["rec000", "rec001", "rec002"]
    assert all(e.status == "ok" for e in manifest.entries)
    assert all(e.route == "wideband" for e in manifest.entries)
    for rec in manifest.succeeded():
        anns = read_rttm_file(out / "hyp" / f"{rec}.rttm")
        assert len(anns) == 1
        assert len(anns[0].segments) >= 1

    manifest_text = (out / "manifest.txt").read_text()
    assert f"config_hash: {config.config_hash()}" in manifest_text

    rows = [line.split("\t") for line in (out / "report.tsv").read_text().splitlines()]
    assert rows[0] == ["recording", "scored", "miss", "fa", "conf", "der", "jer"]
    assert [r[0] for r in rows[1:]] == ["rec000", "rec001", "rec002", "ALL"]
    all_der = float(rows[-1][5])
    assert all_der < 0.10
    assert "ALL" in (out / "report.txt").read_text()


def test_run_corpus_results_do_not_depend_on_workers(synthetic_corpus, tmp_path):
    config = PipelineConfig.load(synthetic_corpus)
    out1, out2 = tmp_path / "one", tmp_path / "three"
    run_corpus(config, out1, workers=1)
    run_corpus(config, out2, workers=3)
    for rec in ("rec000", "rec001", "rec002"):
        b1 = (out1 / "hyp" / f"{rec}.rttm").read_bytes()
        b2 = (out2 / "hyp" / f"{rec}.rttm").read_bytes()
        assert b1 == b2
    assert (out1 / "report.txt").read_bytes() == (out2 / "report.txt").read_bytes()
    assert (out1 / "report.tsv").read_bytes() == (out2 / "report.tsv").read_bytes()


def _run_with_one_corrupt_recording(synthetic_corpus, tmp_path, kind: str):
    """Corpus run with rec001's embedding file corrupt, checked for isolation."""
    root = tmp_path / "broken"
    shutil.copytree(synthetic_corpus.parent, root)
    (root / "embeddings" / "rec001.emb").write_bytes(b"garbage")

    config = PipelineConfig.load(root / "config.yaml")
    config = dataclasses.replace(config, scoring=dataclasses.replace(config.scoring, kind=kind))
    out = tmp_path / "run"
    manifest = run_corpus(config, out)

    status = {e.recording_id: e.status for e in manifest.entries}
    assert status == {"rec000": "ok", "rec001": "failed", "rec002": "ok"}
    failed = next(e for e in manifest.entries if e.recording_id == "rec001")
    assert failed.message
    assert not (out / "hyp" / "rec001.rttm").exists()
    assert (out / "hyp" / "rec000.rttm").exists()
    rows = [line.split("\t") for line in (out / "report.tsv").read_text().splitlines()]
    assert [r[0] for r in rows[1:]] == ["rec000", "rec002", "ALL"]
    assert "status=failed" in (out / "manifest.txt").read_text()


def test_run_corpus_isolates_recording_failures(synthetic_corpus, tmp_path):
    _run_with_one_corrupt_recording(synthetic_corpus, tmp_path, "plda")


def test_run_corpus_isolates_recording_failures_with_cosine_scoring(synthetic_corpus, tmp_path):
    # the pool PCA reads every wideband file before any recording runs
    _run_with_one_corrupt_recording(synthetic_corpus, tmp_path, "cosine")


def test_run_corpus_core_subset_and_domain_table(synthetic_corpus, tmp_path):
    config = PipelineConfig.load(synthetic_corpus)
    out = tmp_path / "run"
    run_corpus(
        config,
        out,
        core_list={"rec000"},
        domain_map={"rec000": "tel", "rec001": "tel", "rec002": "web"},
    )
    report = (out / "report.txt").read_text()
    assert "CORE" in report
    assert "domain\trecordings\tmean_der\tmean_jer" in report
    domain_lines = [line for line in report.splitlines() if line.startswith(("tel\t", "web\t"))]
    assert any(line.startswith("tel\t2\t") for line in domain_lines)
    assert any(line.startswith("web\t1\t") for line in domain_lines)
    tsv = (out / "report.tsv").read_text()
    assert any(line.startswith("CORE\t") for line in tsv.splitlines())


def test_run_corpus_without_recordings_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="no recordings"):
        run_corpus(PipelineConfig(), tmp_path / "out")


# ---------------------------------------------------------------------------
# synthetic corpus generator


def test_synthesize_corpus_layout_and_speaker_counts(tmp_path):
    config_path = synthesize_corpus(
        tmp_path, num_recordings=2, min_speakers=2, max_speakers=3, duration=30.0, seed=3
    )
    assert config_path == tmp_path / "config.yaml"
    config = PipelineConfig.load(config_path)
    assert sorted(p.name for p in (tmp_path / "embeddings").glob("*.emb")) == [
        "rec000.emb",
        "rec001.emb",
    ]
    refs = parse_rttm((tmp_path / "ref.rttm").read_text())
    assert [a.recording_id for a in refs] == ["rec000", "rec001"]
    assert [len(a.speakers()) for a in refs] == [2, 3]
    sads = parse_rttm((tmp_path / "sad.rttm").read_text())
    assert all(a.speakers() == ("speech",) for a in sads)
    assert (tmp_path / "models" / "plda_primary.emb").is_file()
    assert (tmp_path / "models" / "plda_secondary.emb").is_file()
    assert config.route_override == "wideband"
    # SAD covers the same speech as the reference (up to RTTM rounding)
    for ref, sad in zip(refs, sads):
        ref_timeline, sad_timeline = speech_timeline(ref), speech_timeline(sad)
        assert sad_timeline.total_duration() == pytest.approx(
            ref_timeline.total_duration(), abs=1e-6
        )
        assert sad_timeline.intervals[0][0] == pytest.approx(ref_timeline.intervals[0][0])
        assert sad_timeline.intervals[-1][1] == pytest.approx(ref_timeline.intervals[-1][1])


def test_synthesize_corpus_with_overlap_writes_regions(tmp_path):
    config_path = synthesize_corpus(
        tmp_path,
        num_recordings=1,
        min_speakers=3,
        max_speakers=3,
        duration=40.0,
        overlap_fraction=0.25,
        seed=4,
    )
    config = PipelineConfig.load(config_path)
    assert config.overlap_regions is not None
    regions = parse_overlap_regions(Path(config.overlap_regions).read_text())
    assert len(regions) == 1
    assert regions[0].recording_id == "rec000"
    assert len(regions[0].intervals) >= 1
    for on, off in regions[0].intervals:
        assert 0.0 <= on < off <= 41.0


def test_synthesize_corpus_validates_speaker_range(tmp_path):
    with pytest.raises(ValueError, match="min_speakers"):
        synthesize_corpus(tmp_path, min_speakers=0)
    with pytest.raises(ValueError, match="min_speakers"):
        synthesize_corpus(tmp_path, min_speakers=4, max_speakers=3)


def _tree_sha256(root: Path) -> str:
    """SHA-256 over the sorted relative paths of the files under root, each
    followed by the SHA-256 of its bytes."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


# every byte that synthesize_corpus writes at seed 101, for criterion 03's
# corpus, long_wideband's and routed_short's (before its routing files); a
# change to the turn sampling, the draw order or the model files moves them
@pytest.mark.parametrize(
    "corpus, expected",
    [
        (
            dict(num_recordings=10, min_speakers=3, max_speakers=5, duration=300.0),
            "a175c98a5c299d20dfd711a5f22ee0fe54a8d9986a197491d873b7f3e0f6264e",
        ),
        (
            dict(num_recordings=2, min_speakers=4, max_speakers=4, duration=1200.0),
            "75c2a45633a677ae9d5e7e3836a6cf1177eaf3013f2605283bc148438863e14c",
        ),
        (
            dict(
                num_recordings=120, min_speakers=2, max_speakers=4, duration=60.0,
                overlap_fraction=0.2,
            ),
            "f7f3fcf2cf8d482157944a86b1647d215e1dd3871183f30f99f0dc7c86ed4232",
        ),
    ],
    ids=["criterion_03", "long_wideband", "routed_short"],
)
def test_synthesize_corpus_bytes_are_pinned(corpus, expected, tmp_path):
    synthesize_corpus(tmp_path, embedding_dim=16, separation=10.0, seed=101, **corpus)
    assert _tree_sha256(tmp_path) == expected


@pytest.mark.parametrize("separation", [10.0, 4.0])
def test_synthesize_corpus_plda_models_load_for_every_speaker_count(separation, tmp_path):
    """The between covariance has rank max_speakers - 1; its float32 file copy
    must still pass PLDAModel's PSD check (it failed at 6, 7, 8, 10 and 11)."""
    for max_speakers in range(1, 12):
        root = tmp_path / str(max_speakers)
        config = PipelineConfig.load(
            synthesize_corpus(
                root, num_recordings=1, min_speakers=1, max_speakers=max_speakers,
                duration=10.0, separation=separation, seed=1,
            )
        )
        primary = ground_truth_plda(
            SyntheticSpec.well_separated(max_speakers, 16, separation=separation)
        )
        for path, between in (
            (config.vbx.plda_model_primary, primary.between),
            (config.vbx.plda_model_secondary, primary.between * 0.8),
        ):
            loaded = PLDAModel.load(path)
            assert np.abs(loaded.between - between).max() <= 1e-5 * np.abs(between).max()
