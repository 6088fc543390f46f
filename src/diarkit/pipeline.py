"""End-to-end batch diarization over a corpus of embedding files.

Wideband recordings run: similarity scoring -> k-NN graph -> speaker-count
estimate (average-linkage threshold) -> path-integral clustering -> HMM
resegmentation -> optional overlap assignment -> segment merging.
Narrowband recordings decode precomputed frame posteriors instead.  The
corpus driver routes each recording by the bandwidth classifier (or an
override), writes per-recording RTTM files, and scores against a reference
when one is configured.

All tunable constants live in the config file; nothing numeric is hidden in
code.  Relative paths in a config resolve against the config file location.
"""

from __future__ import annotations

import hashlib
import time
import warnings
from dataclasses import MISSING, dataclass, field, fields as dataclass_fields, replace
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .annotations import (
    Annotation,
    ScoringRegions,
    Segment,
    crop,
    merge_adjacent,
    parse_rttm,
    parse_uem,
    runs_to_annotation,
    speech_timeline,
    write_rttm,
)
from .bandwidth import MLPClassifier, classify_recording
from .blas import one_blas_thread
from .clustering import (
    PICParams,
    Partition,
    absorb_small_clusters,
    ahc_cluster,
    build_knn_graph,
    estimate_num_speakers,
    pic_cluster,
)
from .embeddings import EmbeddingSequence, read_embeddings
from .metrics import DERReport, aggregate, der, format_report, report_rows
from .reseg import (
    PosteriorMatrix,
    VBxConfig,
    LDAProjection,
    WhiteningStats,
    assign_overlap,
    decode_posteriors,
    interpolate_plda,
    parse_overlap_regions,
    vbx_resegment,
    whiten_and_normalize,
)
from .scoring import (
    PCAModel,
    PLDAModel,
    SimilarityMatrix,
    cosine_similarity,
    fit_pca,
    score_plda_matrix,
    standardize_scores,
)

__all__ = [
    "ConfigError",
    "PipelineConfig",
    "RunManifest",
    "run_wideband",
    "run_narrowband",
    "run_corpus",
    "discover_recordings",
    "route_recording",
    "score_corpus",
    "write_report",
]


class ConfigError(ValueError):
    pass


def _merge_section(cls, data: dict, context: str):
    known = {f.name for f in dataclass_fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown {context} config keys: {sorted(unknown)}")
    try:
        return cls(**data)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


@dataclass(frozen=True)
class ScoringSection:
    kind: str = "plda"
    cosine_pca_dim: int = 30
    cosine_pca_model: str | None = None
    plda_model: str | None = None
    plda_energy_fraction: float = 0.3
    sigmoid_scale: float = 1.0
    sigmoid_offset: float = 0.0
    standardize_plda_scores: bool = True

    def __post_init__(self):
        if self.kind not in ("cosine", "plda"):
            raise ConfigError(f"scoring.kind must be cosine or plda, got {self.kind!r}")


@dataclass(frozen=True)
class ClusteringSection:
    method: str = "pic"
    num_neighbors: int = 30
    damping: float = 0.01
    ahc_threshold: float = 0.0
    # clusters with fewer windows than this neither count toward the speaker
    # estimate nor survive as output speakers; they attach to the most
    # similar large cluster instead
    min_cluster_windows: int = 1
    # stop path-integral merging once the best affinity drops this low;
    # disconnected graph blocks score exactly zero, so anything at or below
    # the floor carries no merge evidence
    affinity_floor: float = 1e-12

    def __post_init__(self):
        if self.method not in ("pic", "ahc"):
            raise ConfigError(f"clustering.method must be pic or ahc, got {self.method!r}")
        if self.min_cluster_windows < 1:
            raise ConfigError("clustering.min_cluster_windows must be >= 1")


@dataclass(frozen=True)
class VBxSection(VBxConfig):
    """The HMM settings of :class:`VBxConfig` plus the models VBx reads."""

    enabled: bool = True
    lda_model: str | None = None
    whitening_stats: str | None = None
    plda_interpolation_alpha: float = 0.5
    plda_model_primary: str | None = None
    plda_model_secondary: str | None = None


@dataclass(frozen=True)
class DecodeSection:
    threshold: float = 0.5
    median_window: int = 11


@dataclass(frozen=True)
class MetricsSection:
    collar: float = 0.0
    score_overlap: bool = True


# every config key that names a file or directory, as (section, key); section
# None is the top level.  Relative values resolve against the config's directory.
_PATH_KEYS = (
    (None, "embeddings_dir"),
    (None, "posteriors_dir"),
    (None, "sad_rttm"),
    (None, "reference_rttm"),
    (None, "uem"),
    (None, "overlap_regions"),
    (None, "bandwidth_model"),
    (None, "bandwidth_embeddings_dir"),
    ("scoring", "cosine_pca_model"),
    ("scoring", "plda_model"),
    ("vbx", "lda_model"),
    ("vbx", "whitening_stats"),
    ("vbx", "plda_model_primary"),
    ("vbx", "plda_model_secondary"),
)


@dataclass(frozen=True)
class PipelineConfig:
    embeddings_dir: str | None = None
    posteriors_dir: str | None = None
    sad_rttm: str | None = None
    reference_rttm: str | None = None
    uem: str | None = None
    overlap_regions: str | None = None
    bandwidth_model: str | None = None
    bandwidth_embeddings_dir: str | None = None
    route_override: str | None = None  # "wideband" or "narrowband"
    recordings: tuple[str, ...] | None = None
    sad_gating: bool = True
    merge_gap: float = 0.0
    # nothing random reads it; it is kept because it enters config_hash, so
    # the manifest records a run made with --seed N as a different config
    seed: int = 0
    scoring: ScoringSection = field(default_factory=ScoringSection)
    clustering: ClusteringSection = field(default_factory=ClusteringSection)
    vbx: VBxSection = field(default_factory=VBxSection)
    decode: DecodeSection = field(default_factory=DecodeSection)
    metrics: MetricsSection = field(default_factory=MetricsSection)

    def __post_init__(self):
        if self.route_override not in (None, "wideband", "narrowband"):
            raise ConfigError(
                f"route_override must be wideband or narrowband, got {self.route_override!r}"
            )
        if self.recordings is not None:
            object.__setattr__(self, "recordings", tuple(self.recordings))

    @classmethod
    def from_mapping(cls, data: dict, base_dir: Path | None = None) -> "PipelineConfig":
        data = dict(data)
        kwargs = {}
        for f in dataclass_fields(cls):
            # the sections are the fields built by a default factory
            if f.default_factory is not MISSING and f.name in data:
                raw = data.pop(f.name) or {}
                if not isinstance(raw, dict):
                    raise ConfigError(f"config section {f.name!r} must be a mapping")
                kwargs[f.name] = _merge_section(f.default_factory, raw, f.name)
        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        config = cls(**data, **kwargs)
        if base_dir is not None:
            config = config._resolve_paths(base_dir)
        return config

    def _path_values(self):
        """``(section, key, value)`` of every path key, in :data:`_PATH_KEYS` order."""
        for section, key in _PATH_KEYS:
            yield section, key, getattr(self if section is None else getattr(self, section), key)

    def _resolve_paths(self, base_dir: Path) -> "PipelineConfig":
        updates: dict[str | None, dict[str, str]] = {}
        for section, key, value in self._path_values():
            if value is not None and not Path(value).is_absolute():
                updates.setdefault(section, {})[key] = str((base_dir / value).resolve())
        top = updates.pop(None, {})
        for section, resolved in updates.items():
            top[section] = replace(getattr(self, section), **resolved)
        return replace(self, **top)

    @classmethod
    def load(cls, path: str | Path) -> "PipelineConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = yaml.safe_load(path.read_text()) or {}
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: invalid YAML: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: config must be a mapping")
        config = cls.from_mapping(data, base_dir=path.parent)
        config.validate_paths()
        return config

    def validate_paths(self) -> None:
        for section, key, value in self._path_values():
            if value is not None and not Path(value).exists():
                name = key if section is None else f"{section}.{key}"
                raise ConfigError(f"config path {name} does not exist: {value}")

    def canonical_dump(self) -> str:
        def clean(obj):
            if hasattr(obj, "__dataclass_fields__"):
                return {f.name: clean(getattr(obj, f.name)) for f in dataclass_fields(obj)}
            if isinstance(obj, tuple):
                return list(obj)
            return obj

        return yaml.safe_dump(clean(self), sort_keys=True)

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_dump().encode()).hexdigest()


@dataclass(frozen=True)
class ManifestEntry:
    recording_id: str
    route: str
    status: str  # "ok" or "failed"
    message: str = ""
    elapsed: float = 0.0


@dataclass(frozen=True)
class RunManifest:
    version: str
    config_hash: str
    entries: tuple[ManifestEntry, ...]

    def __post_init__(self):
        ids = [e.recording_id for e in self.entries]
        if len(ids) != len(set(ids)):
            raise ValueError("every recording appears exactly once in a manifest")

    def succeeded(self) -> list[str]:
        return [e.recording_id for e in self.entries if e.status == "ok"]

    def to_text(self) -> str:
        lines = [
            "# diarization run manifest",
            f"version: {__version__}",
            f"numpy: {np.__version__}",
            f"config_hash: {self.config_hash}",
            f"recordings: {len(self.entries)}",
        ]
        for e in self.entries:
            msg = f" message={e.message!r}" if e.message else ""
            lines.append(
                f"{e.recording_id} route={e.route} status={e.status} "
                f"elapsed={e.elapsed:.3f}s{msg}"
            )
        return "\n".join(lines) + "\n"


@dataclass
class ModelSet:
    """Models referenced by a config, loaded once per corpus run."""

    plda_score: PLDAModel | None = None
    cosine_pca: PCAModel | None = None
    plda_vbx: PLDAModel | None = None
    whitening: WhiteningStats | None = None
    lda: LDAProjection | None = None
    bandwidth: MLPClassifier | None = None

    @classmethod
    def load(cls, config: PipelineConfig) -> "ModelSet":
        def load(model_cls, path):
            return model_cls.load(path) if path else None

        plda_score = load(PLDAModel, config.scoring.plda_model)
        cosine_pca = load(PCAModel, config.scoring.cosine_pca_model)
        primary = load(PLDAModel, config.vbx.plda_model_primary)
        secondary = load(PLDAModel, config.vbx.plda_model_secondary)
        if primary is not None and secondary is not None:
            plda_vbx = interpolate_plda(primary, secondary, config.vbx.plda_interpolation_alpha)
        else:
            plda_vbx = primary or secondary or plda_score
        return cls(
            plda_score=plda_score,
            cosine_pca=cosine_pca,
            plda_vbx=plda_vbx,
            whitening=load(WhiteningStats, config.vbx.whitening_stats),
            lda=load(LDAProjection, config.vbx.lda_model),
            bandwidth=load(MLPClassifier, config.bandwidth_model),
        )


def _kept_indices(seq: EmbeddingSequence, speech: ScoringRegions | None, gating: bool) -> np.ndarray:
    if speech is None or not gating:
        return np.arange(len(seq))
    return np.flatnonzero(speech.covers(seq.centers()))


def windows_to_annotation(
    recording_id: str,
    windows: np.ndarray,
    labels: np.ndarray,
    speech: ScoringRegions | None = None,
    speaker_names: tuple[str, ...] | None = None,
) -> Annotation:
    """Window labels to segments: boundaries at midpoints between window
    centers, the first/last stretching to the window edges."""
    n = len(windows)
    if n == 0:
        return Annotation(recording_id, ())
    centers = windows.mean(axis=1)
    bounds = np.empty(n + 1)
    bounds[0] = windows[0, 0]
    bounds[1:-1] = 0.5 * (centers[:-1] + centers[1:])
    bounds[-1] = windows[-1, 1]
    n_speakers = int(labels.max()) + 1
    names = speaker_names or tuple(f"spk{k}" for k in range(n_speakers))
    grid = labels[:, None] == np.arange(n_speakers)
    ann = runs_to_annotation(recording_id, grid, bounds, names)
    if speech is not None and speech.intervals:
        ann = crop(ann, speech)
    return ann


def _cluster_windows(
    sub: EmbeddingSequence, config: PipelineConfig, models: ModelSet
) -> Partition:
    # each step reads the scores in condensed form; rebinding ``sim`` lets
    # the raw scores go once they are standardized
    sim = _score_recording(sub, config, models)
    n = len(sub)
    min_size = config.clustering.min_cluster_windows
    target = estimate_num_speakers(sim, config.clustering.ahc_threshold, min_size)
    if config.clustering.method == "ahc":
        part = ahc_cluster(sim, num_clusters=min(target, n))
        return absorb_small_clusters(part, sim, min_size)
    if sim.kind == "plda" and config.scoring.standardize_plda_scores:
        sim = standardize_scores(sim)
    graph = build_knn_graph(
        sim,
        num_neighbors=min(config.clustering.num_neighbors, n - 1),
        scale=config.scoring.sigmoid_scale,
        offset=config.scoring.sigmoid_offset,
    )
    params = PICParams(
        damping=config.clustering.damping,
        target_clusters=max(1, min(target, n)),
        affinity_floor=config.clustering.affinity_floor,
    )
    part = pic_cluster(graph, params)
    return absorb_small_clusters(part, sim, min_size)


def _score_recording(
    sub: EmbeddingSequence, config: PipelineConfig, models: ModelSet
) -> SimilarityMatrix:
    if config.scoring.kind == "cosine":
        pca = models.cosine_pca
        if pca is None:
            # corpus runs fit the pool PCA up front; standalone falls back
            # to this recording's own embeddings
            pca = fit_pca(sub.vectors, config.scoring.cosine_pca_dim)
        return cosine_similarity(sub.vectors, pca, recording_id=sub.recording_id)
    if models.plda_score is None:
        raise ConfigError("scoring.kind is plda but scoring.plda_model is not set")
    return score_plda_matrix(
        sub.vectors,
        models.plda_score,
        energy_fraction=config.scoring.plda_energy_fraction,
        recording_id=sub.recording_id,
    )


def run_wideband(
    seq: EmbeddingSequence,
    sad: Annotation | ScoringRegions | None,
    config: PipelineConfig,
    models: ModelSet | None = None,
    overlaps: ScoringRegions | None = None,
) -> Annotation:
    """Cluster-and-resegment route for one wideband recording."""
    if models is None:
        models = ModelSet.load(config)
    speech = sad if isinstance(sad, ScoringRegions) or sad is None else speech_timeline(sad)
    kept = _kept_indices(seq, speech, config.sad_gating)
    if kept.size == 0:
        return Annotation(seq.recording_id, ())
    sub = seq.subset(kept)
    if len(sub) == 1:
        # one usable window: a single speaker covering the speech regions
        ann = windows_to_annotation(seq.recording_id, sub.windows, np.zeros(1, dtype=int), speech)
        return merge_adjacent(ann, config.merge_gap)

    partition = _cluster_windows(sub, config, models)

    gamma = None
    if config.vbx.enabled:
        if models.plda_vbx is None:
            raise ConfigError("vbx.enabled needs a PLDA model (vbx or scoring section)")
        X = sub.vectors.astype(float)
        if models.whitening is not None:
            X = whiten_and_normalize(X, models.whitening)
        if models.lda is not None:
            X = models.lda.apply(X)
        partition, gamma = vbx_resegment(X, models.plda_vbx, partition, config.vbx)

    ann = windows_to_annotation(seq.recording_id, sub.windows, partition.labels, speech)
    if overlaps is not None and overlaps.intervals and gamma is not None:
        # one row per window of the recording, row t centred where a
        # full-length window t is, at window_size / 2 + t * window_shift;
        # windows the SAD gate dropped keep zero posteriors
        full = np.zeros((len(seq), gamma.shape[1]))
        full[kept] = gamma
        grid = PosteriorMatrix(
            seq.recording_id,
            full,
            frame_shift=seq.window_shift,
            time_offset=(seq.window_size - seq.window_shift) / 2.0,
        )
        ann = assign_overlap(ann, grid, overlaps)
    return merge_adjacent(ann, config.merge_gap)


def run_narrowband(
    posteriors: PosteriorMatrix,
    sad: Annotation | ScoringRegions,
    config: PipelineConfig,
) -> Annotation:
    """Posterior-decoding route for one narrowband recording."""
    ann = decode_posteriors(
        posteriors,
        threshold=config.decode.threshold,
        sad=sad,
        median_window=config.decode.median_window,
    )
    return merge_adjacent(ann, config.merge_gap)


def discover_recordings(config: PipelineConfig) -> list[str]:
    if config.recordings:
        return sorted(config.recordings)
    found = set()
    if config.embeddings_dir:
        found.update(p.stem for p in Path(config.embeddings_dir).glob("*.emb"))
    if config.posteriors_dir:
        found.update(p.stem for p in Path(config.posteriors_dir).glob("*.post"))
    if not found:
        raise ConfigError("no recordings found; set recordings or embeddings_dir")
    return sorted(found)


def route_recording(rec: str, config: PipelineConfig, models: ModelSet) -> str:
    if config.route_override:
        return config.route_override
    if models.bandwidth is None:
        return "wideband"
    band_dir = config.bandwidth_embeddings_dir or config.embeddings_dir
    band_path = Path(band_dir) / f"{rec}.emb"
    if not band_path.is_file():
        raise ConfigError(f"no bandwidth embeddings for {rec}: {band_path}")
    seq = read_embeddings(band_path)
    decision = classify_recording(models.bandwidth, seq.vectors, rec)
    return "narrowband" if decision.file_label == "NB" else "wideband"


def _load_per_recording(path: str | None, parser, key=lambda item: item.recording_id):
    table = {}
    if path:
        for item in parser(Path(path).read_text()):
            table[key(item)] = item
    return table


def run_corpus(
    config: PipelineConfig,
    output_dir: str | Path,
    workers: int = 1,
    core_list: set[str] | None = None,
    domain_map: dict[str, str] | None = None,
) -> RunManifest:
    """Route, diarize and score every recording; write RTTMs and reports.

    Outputs under ``output_dir``: ``hyp/<recording>.rttm``, ``manifest.txt``
    and, when a reference is configured, ``report.txt``/``report.tsv``.
    Recording failures are isolated: the recording is marked failed in the
    manifest and the rest of the corpus proceeds.  Recordings run one after
    another whatever ``workers`` is, so results do not depend on it; the
    parameter is kept for callers that pass it.

    The whole call, model loading and scoring included, holds every loaded
    OpenBLAS at one thread (``blas.one_blas_thread``).  On a two-core machine
    the default two threads slowed every stage of a corpus run, also stages
    that make no BLAS call, while a limit held only around the PIC merge and
    VBx gave almost nothing (ROADMAP, Baseline: "BLAS threads").  The count is
    process-wide while held and is given back on return or raise; outputs do
    not depend on it.  Callers of ``run_wideband`` and the stage functions
    keep the library's default count.
    """
    with one_blas_thread():
        out = Path(output_dir)
        (out / "hyp").mkdir(parents=True, exist_ok=True)
        models = ModelSet.load(config)
        recordings = discover_recordings(config)

        sad_by_rec = _load_per_recording(config.sad_rttm, parse_rttm)
        ovl_by_rec = _load_per_recording(config.overlap_regions, parse_overlap_regions)

        routes: dict[str, str] = {}
        failures: dict[str, str] = {}
        for rec in recordings:
            try:
                routes[rec] = route_recording(rec, config, models)
            except Exception as exc:  # noqa: BLE001 - per-recording isolation
                failures[rec] = str(exc)
                routes[rec] = "wideband"

        if (
            config.scoring.kind == "cosine"
            and models.cosine_pca is None
            and config.embeddings_dir
        ):
            pool = []
            for rec in recordings:
                if routes[rec] != "wideband" or rec in failures:
                    continue
                path = Path(config.embeddings_dir) / f"{rec}.emb"
                if not path.is_file():
                    continue
                try:
                    seq = read_embeddings(path)
                except Exception as exc:  # noqa: BLE001 - per-recording isolation
                    failures[rec] = str(exc)
                    continue
                sad = sad_by_rec.get(rec)
                speech = speech_timeline(sad) if sad is not None else None
                kept = _kept_indices(seq, speech, config.sad_gating)
                if kept.size:
                    pool.append(seq.vectors[kept].astype(float))
            if sum(map(len, pool)) >= 2:
                models.cosine_pca = fit_pca(np.vstack(pool), config.scoring.cosine_pca_dim)

        def process(rec: str):
            start = time.perf_counter()
            if rec in failures:
                return rec, None, failures[rec], 0.0
            try:
                if routes[rec] == "narrowband":
                    if not config.posteriors_dir:
                        raise ConfigError("narrowband route needs posteriors_dir")
                    post = PosteriorMatrix.load(Path(config.posteriors_dir) / f"{rec}.post")
                    sad = sad_by_rec.get(rec)
                    if sad is None:
                        raise ConfigError(f"narrowband decoding needs SAD for {rec}")
                    ann = run_narrowband(post, sad, config)
                else:
                    if not config.embeddings_dir:
                        raise ConfigError("wideband route needs embeddings_dir")
                    seq = read_embeddings(Path(config.embeddings_dir) / f"{rec}.emb")
                    ann = run_wideband(
                        seq,
                        sad_by_rec.get(rec),
                        config,
                        models=models,
                        overlaps=ovl_by_rec.get(rec),
                    )
                return rec, ann, "", time.perf_counter() - start
            except Exception as exc:  # noqa: BLE001 - per-recording isolation
                return rec, None, str(exc), time.perf_counter() - start

        results = [process(rec) for rec in recordings]

        entries = []
        hypotheses: dict[str, Annotation] = {}
        for rec, ann, message, elapsed in sorted(results, key=lambda r: r[0]):
            status = "ok" if ann is not None else "failed"
            if ann is not None:
                hypotheses[rec] = ann
                (out / "hyp" / f"{rec}.rttm").write_text(write_rttm(ann))
            entries.append(ManifestEntry(rec, routes[rec], status, message, elapsed))

        manifest = RunManifest(__version__, config.config_hash(), tuple(entries))
        (out / "manifest.txt").write_text(manifest.to_text())

        if config.reference_rttm:
            write_report(out, *score_corpus(hypotheses, config, core_list, domain_map))
        return manifest


def score_corpus(
    hypotheses: dict[str, Annotation],
    config: PipelineConfig,
    core_list: set[str] | None = None,
    domain_map: dict[str, str] | None = None,
) -> tuple[list[DERReport], str]:
    """Score hypotheses against the configured reference and UEM.

    Returns the report rows (one per scored recording in id order, then
    ``ALL`` and, with a core list, ``CORE``) and the report text, which ends
    with a per-domain table when a domain map is given.  A recording without
    a reference is skipped with a warning; an empty hypothesis scores as all
    missed speech.
    """
    if not config.reference_rttm:
        raise ConfigError("scoring requires reference_rttm in the config")
    references = _load_per_recording(config.reference_rttm, parse_rttm)
    regions = _load_per_recording(config.uem, parse_uem)
    reports: list[DERReport] = []
    for rec in sorted(hypotheses):
        if rec not in references:
            warnings.warn(f"no reference for {rec}; skipping scoring", stacklevel=2)
            continue
        reports.append(
            der(
                references[rec],
                hypotheses[rec],
                collar=config.metrics.collar,
                regions=regions.get(rec),
                score_overlap=config.metrics.score_overlap,
            )
        )
    rows = reports + [aggregate(reports)]
    if core_list is not None:
        rows.append(aggregate(reports, name="CORE", include=core_list))
    text = format_report(rows)
    if domain_map:
        text += "\n" + _domain_table(reports, domain_map)
    return rows, text


def write_report(output_dir: str | Path, rows: list[DERReport], text: str) -> None:
    """Write ``report.txt`` (the report text) and ``report.tsv`` (the rows)."""
    out = Path(output_dir)
    (out / "report.txt").write_text(text)
    (out / "report.tsv").write_text("\n".join("\t".join(row) for row in report_rows(rows)) + "\n")


def synthesize_corpus(
    output_dir: str | Path,
    num_recordings: int = 4,
    min_speakers: int = 3,
    max_speakers: int = 5,
    duration: float = 120.0,
    overlap_fraction: float = 0.0,
    embedding_dim: int = 16,
    separation: float = 10.0,
    seed: int = 0,
) -> Path:
    """Write a ready-to-run synthetic corpus and return its config path.

    Produces ``embeddings/<rec>.emb``, ``ref.rttm``, ``sad.rttm``, overlap
    regions when requested, the generator-implied PLDA models, and a
    ``config.yaml`` wired to all of them.
    """
    from .embeddings import SyntheticSpec, generate_synthetic, write_embeddings
    from .reseg import write_overlap_regions
    from .scoring import ground_truth_plda

    if not 1 <= min_speakers <= max_speakers:
        raise ValueError("need 1 <= min_speakers <= max_speakers")
    out = Path(output_dir)
    (out / "embeddings").mkdir(parents=True, exist_ok=True)
    (out / "models").mkdir(exist_ok=True)

    rng = np.random.default_rng(seed)
    counts = [min_speakers + i % (max_speakers - min_speakers + 1) for i in range(num_recordings)]
    ref_parts, sad_parts, overlap_parts = [], [], []
    for i, k in enumerate(counts):
        spec = SyntheticSpec.well_separated(
            k,
            embedding_dim,
            separation=separation,
            duration=duration,
            overlap_fraction=overlap_fraction,
            seed=int(rng.integers(2**31)),
            recording_id=f"rec{i:03d}",
        )
        seq, reference, overlap = generate_synthetic(spec)
        write_embeddings(out / "embeddings" / f"{seq.recording_id}.emb", seq)
        ref_parts.append(write_rttm(reference))
        speech = speech_timeline(reference)
        sad_parts.append(
            write_rttm(
                Annotation(
                    seq.recording_id,
                    tuple(
                        Segment(seq.recording_id, on, off - on, "speech")
                        for on, off in speech.intervals
                    ),
                )
            )
        )
        if overlap is not None and overlap.segments:
            regions = tuple((seg.onset, seg.offset) for seg in overlap.segments)
            overlap_parts.append(write_overlap_regions(ScoringRegions(overlap.recording_id, regions)))
    (out / "ref.rttm").write_text("".join(ref_parts))
    (out / "sad.rttm").write_text("".join(sad_parts))
    if overlap_parts:
        (out / "overlap.ovl").write_text("".join(overlap_parts))

    layout = SyntheticSpec.well_separated(max_speakers, embedding_dim, separation=separation)
    plda = ground_truth_plda(layout)
    plda.save(out / "models" / "plda_primary.emb")
    PLDAModel(
        mean=plda.mean, between=plda.between * 0.8, within=plda.within * 1.5
    ).save(out / "models" / "plda_secondary.emb")

    # every value not written here is the config default
    config = {
        "embeddings_dir": "embeddings",
        "sad_rttm": "sad.rttm",
        "reference_rttm": "ref.rttm",
        "route_override": "wideband",
        "seed": seed,
        "scoring": {
            "plda_model": "models/plda_primary.emb",
            # keep nearly all of the eigenvalue mass: the synthetic corpora
            # put each extra speaker in a fresh direction, so an aggressive
            # cut here would fold distinct speakers onto each other
            "plda_energy_fraction": 0.95,
        },
        "clustering": {
            # 5 windows at a 0.25 s shift is about a second of speech; any
            # cluster shorter than that is an outlier, not a speaker
            "min_cluster_windows": 5,
        },
        "vbx": {
            "plda_model_primary": "models/plda_primary.emb",
            "plda_model_secondary": "models/plda_secondary.emb",
        },
    }
    if overlap_parts:
        config["overlap_regions"] = "overlap.ovl"
    config_path = out / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=True))
    return config_path


def _domain_table(reports: list[DERReport], domain_map: dict[str, str]) -> str:
    groups: dict[str, list[DERReport]] = {}
    for rep in reports:
        domain = domain_map.get(rep.recording_id, "unknown")
        groups.setdefault(domain, []).append(rep)
    lines = ["domain\trecordings\tmean_der\tmean_jer"]
    for domain in sorted(groups):
        ders = [r.der for r in groups[domain] if r.der is not None]
        jers = [r.jer for r in groups[domain] if r.jer is not None]
        der_cell = f"{np.mean(ders):.4f}" if ders else "NA"
        jer_cell = f"{np.mean(jers):.4f}" if jers else "NA"
        lines.append(f"{domain}\t{len(groups[domain])}\t{der_cell}\t{jer_cell}")
    return "\n".join(lines) + "\n"
