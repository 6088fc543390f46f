"""Benchmark workloads: input generators, corpus configs and output checks.

Every input a workload needs is written to disk by ``Workload.setup`` from
the seed alone, through diarkit's public ``synthesize_corpus`` plus, for
``routed_short``, benchmark-written bandwidth embeddings, a hand-built
bandwidth classifier and narrowband posterior files.  The program under test
only ever sees those files.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from diarkit import parse_rttm, read_embeddings
from diarkit.bandwidth import MLPClassifier
from diarkit.embeddings import EmbeddingSequence, write_embeddings
from diarkit.pipeline import PipelineConfig, synthesize_corpus
from diarkit.reseg import PosteriorMatrix

# bandwidth embeddings: one row per second of audio, coordinate 0 carries
# the band (negative = narrowband), the rest is noise the classifier ignores
BAND_DIM = 8
BAND_ROWS_PER_SECOND = 1.0
# narrowband posteriors: 0.1 s rows, 0.9/0.1 for active/inactive speakers
# with Gaussian jitter and a few hard flips, the kind of noise an end-to-end
# model emits and the median filter is there to remove
POSTERIOR_SHIFT = 0.1
POSTERIOR_FLIP_RATE = 0.03


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    corpus: dict  # keyword arguments of synthesize_corpus, seed excluded
    configs: tuple[str, ...]  # config names, see make_config
    der_ceiling: dict  # config name -> largest acceptable corpus DER
    routed: bool = False  # bandwidth-routed, with narrowband posteriors

    def setup(self, root: Path, seed: int) -> Path:
        """Write every input of the workload under ``root``; return the config path."""
        config_path = synthesize_corpus(root, seed=seed, **self.corpus)
        if self.routed:
            _add_routing(root, config_path, seed)
        return config_path


def make_config(base: PipelineConfig, name: str) -> PipelineConfig:
    """The corpus configs of criterion 03, derived from the synthesized one."""
    if name == "plda+pic":
        return base
    if name == "cosine+pic":
        return dataclasses.replace(
            base,
            scoring=dataclasses.replace(base.scoring, kind="cosine"),
            clustering=dataclasses.replace(base.clustering, ahc_threshold=0.5),
        )
    if name == "plda+ahc":
        return dataclasses.replace(
            base, clustering=dataclasses.replace(base.clustering, method="ahc")
        )
    raise ValueError(f"unknown config {name!r}")


# Why each workload exists: it loads the layer a planned optimisation
# targets, while another workload leaves that layer nearly idle.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="acceptance",
            why=(
                "criterion 03's job: 10 x 300 s, 3-5 speakers, three configs; "
                "the PIC merge does most of the work, plda+ahc skips it"
            ),
            corpus=dict(
                num_recordings=10,
                min_speakers=3,
                max_speakers=5,
                duration=300.0,
                overlap_fraction=0.0,
                embedding_dim=16,
                separation=10.0,
            ),
            configs=("plda+pic", "cosine+pic", "plda+ahc"),
            der_ceiling={"plda+pic": 0.05, "cosine+pic": 0.05, "plda+ahc": 0.10},
        ),
        Workload(
            name="long_wideband",
            why=(
                "2 x 1200 s, 4 speakers, plda+pic: about 4.8k windows each, so the "
                "dense O(n^2) scoring, estimate and k-NN stages dominate"
            ),
            corpus=dict(
                num_recordings=2,
                min_speakers=4,
                max_speakers=4,
                duration=1200.0,
                overlap_fraction=0.0,
                embedding_dim=16,
                separation=10.0,
            ),
            configs=("plda+pic",),
            der_ceiling={"plda+pic": 0.05},
        ),
        Workload(
            name="routed_short",
            why=(
                "120 x 60 s, 20% overlap, MLP-routed half narrowband: exercises "
                "bandwidth, posterior decoding, overlap, VBx and per-file costs"
            ),
            corpus=dict(
                num_recordings=120,
                min_speakers=2,
                max_speakers=4,
                duration=60.0,
                overlap_fraction=0.2,
                embedding_dim=16,
                separation=10.0,
            ),
            configs=("plda+pic",),
            der_ceiling={"plda+pic": 0.15},
            routed=True,
        ),
    )
}


def band_classifier() -> MLPClassifier:
    """NB when bandwidth coordinate 0 is negative, WB otherwise."""
    w1 = np.zeros((BAND_DIM, 2))
    w1[0, 0] = 1.0
    w1[0, 1] = -1.0
    w2 = np.array([[0.0, 4.0], [4.0, 0.0]])
    return MLPClassifier(w1=w1, b1=np.zeros(2), w2=w2, b2=np.zeros(2))


def _synthetic_posteriors(rng, reference, duration: float) -> PosteriorMatrix:
    rows = int(round(duration / POSTERIOR_SHIFT))
    speakers = reference.speakers()
    centers = (np.arange(rows) + 0.5) * POSTERIOR_SHIFT
    active = np.zeros((rows, len(speakers)), dtype=bool)
    for seg in reference.segments:
        k = speakers.index(seg.speaker)
        active[:, k] |= (centers >= seg.onset) & (centers < seg.offset)
    probs = np.where(active, 0.9, 0.1) + rng.normal(0.0, 0.05, size=active.shape)
    flips = rng.random(active.shape) < POSTERIOR_FLIP_RATE
    probs[flips] = 1.0 - probs[flips]
    return PosteriorMatrix(
        reference.recording_id,
        np.clip(probs, 0.01, 0.99),
        POSTERIOR_SHIFT,
        speakers=speakers,
    )


def _add_routing(root: Path, config_path: Path, seed: int) -> None:
    """Route half the corpus narrowband: bandwidth embeddings, the classifier,
    and posterior files for the narrowband half."""
    rng = np.random.default_rng([seed, 1])
    refs = {a.recording_id: a for a in parse_rttm((root / "ref.rttm").read_text())}
    recordings = sorted(p.stem for p in (root / "embeddings").glob("*.emb"))
    narrow = set(rng.choice(recordings, size=len(recordings) // 2, replace=False).tolist())
    (root / "bandwidth").mkdir()
    (root / "posteriors").mkdir()
    for rec in recordings:
        duration = read_embeddings(root / "embeddings" / f"{rec}.emb").recording_duration
        rows = max(1, int(duration * BAND_ROWS_PER_SECOND))
        band = rng.normal(0.0, 0.3, size=(rows, BAND_DIM))
        band[:, 0] += -1.0 if rec in narrow else 1.0
        _write_band_embeddings(root / "bandwidth" / f"{rec}.emb", rec, band)
        if rec in narrow:
            post = _synthetic_posteriors(rng, refs[rec], duration)
            post.save(root / "posteriors" / f"{rec}.post")
    band_classifier().save(root / "models" / "band_mlp.emb")

    config = yaml.safe_load(config_path.read_text())
    del config["route_override"]
    config["bandwidth_model"] = "models/band_mlp.emb"
    config["bandwidth_embeddings_dir"] = "bandwidth"
    config["posteriors_dir"] = "posteriors"
    config_path.write_text(yaml.safe_dump(config, sort_keys=True))


def _write_band_embeddings(path: Path, rec: str, band: np.ndarray) -> None:
    # one row per 1 s window at a 1 s shift tiles the recording exactly
    write_embeddings(
        path,
        EmbeddingSequence(
            recording_id=rec,
            vectors=band.astype(np.float32),
            window_size=1.0,
            window_shift=1.0,
            recording_duration=float(len(band)),
        ),
    )


def tree_digest(root: Path, patterns: tuple[str, ...] = ("**/*",)) -> str:
    """SHA-256 over the relative paths and bytes of the matching files."""
    h = hashlib.sha256()
    files = sorted({p for pat in patterns for p in root.glob(pat) if p.is_file()})
    for path in files:
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def output_digest(out: Path) -> str:
    """Digest of what a refactor must keep byte-identical."""
    return tree_digest(out, ("hyp/*.rttm", "report.tsv"))


def input_properties(root: Path, seed: int) -> dict:
    """Measured properties of the generated inputs."""
    windows, durations = [], []
    for path in sorted((root / "embeddings").glob("*.emb")):
        seq = read_embeddings(path)
        windows.append(len(seq))
        durations.append(seq.recording_duration)
    narrow = len(list(root.glob("posteriors/*.post")))
    speech = overlapped = 0.0
    for ref in parse_rttm((root / "ref.rttm").read_text()):
        speech_s, overlap_s = _speech_and_overlap(ref)
        speech += speech_s
        overlapped += overlap_s
    return {
        "seed": seed,
        "recordings": len(windows),
        "audio_s": float(sum(durations)),
        "windows_per_recording": {
            "min": int(min(windows)),
            "median": float(np.median(windows)),
            "max": int(max(windows)),
        },
        "narrowband_share": narrow / len(windows),
        "overlap_fraction": overlapped / speech if speech else 0.0,
    }


def _speech_and_overlap(ref) -> tuple[float, float]:
    """Seconds with at least one, and with at least two, reference speakers."""
    edges = sorted(
        [(s.onset, 1) for s in ref.segments] + [(s.offset, -1) for s in ref.segments]
    )
    speech = overlap = 0.0
    active = 0
    prev = None
    for t, step in edges:
        if prev is not None and active >= 1:
            speech += t - prev
            if active >= 2:
                overlap += t - prev
        active += step
        prev = t
    return speech, overlap
