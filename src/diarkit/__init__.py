"""Batch speaker diarization on precomputed embeddings.

The package covers the full offline pipeline: annotation file I/O, embedding
containers and synthetic corpora, cosine and PLDA similarity scoring,
path-integral and agglomerative clustering, HMM resegmentation with overlap
assignment, bandwidth routing, and DER/JER scoring.
"""

__version__ = "0.1.0"

from .annotations import (
    Annotation,
    RTTMParseError,
    ScoringRegions,
    Segment,
    crop,
    merge_adjacent,
    parse_rttm,
    parse_uem,
    speech_timeline,
    write_rttm,
    write_uem,
)
from .bandwidth import BandDecision, MLPClassifier, classify_recording, majority_vote
from .clustering import (
    AffinityGraph,
    Partition,
    PICParams,
    ahc_cluster,
    build_knn_graph,
    estimate_num_speakers,
    pic_cluster,
)
from .container import FormatError
from .embeddings import (
    EmbeddingSequence,
    SyntheticSpec,
    generate_synthetic,
    read_embeddings,
    window_times,
    write_embeddings,
)
from .metrics import DERReport, aggregate, der, jer, optimal_mapping
from .pipeline import ConfigError, PipelineConfig, RunManifest, run_corpus, run_narrowband, run_wideband
from .reseg import (
    PosteriorMatrix,
    VBxConfig,
    assign_overlap,
    decode_posteriors,
    vbx_resegment,
)
from .scoring import (
    NumericalError,
    PCAModel,
    PLDAModel,
    SimilarityMatrix,
    cosine_similarity,
    fit_pca,
    plda_llr,
    score_plda_matrix,
)

__all__ = [
    "__version__",
    "Annotation",
    "RTTMParseError",
    "ScoringRegions",
    "Segment",
    "crop",
    "merge_adjacent",
    "parse_rttm",
    "parse_uem",
    "speech_timeline",
    "write_rttm",
    "write_uem",
    "BandDecision",
    "MLPClassifier",
    "classify_recording",
    "majority_vote",
    "AffinityGraph",
    "Partition",
    "PICParams",
    "ahc_cluster",
    "build_knn_graph",
    "estimate_num_speakers",
    "pic_cluster",
    "FormatError",
    "EmbeddingSequence",
    "SyntheticSpec",
    "generate_synthetic",
    "read_embeddings",
    "window_times",
    "write_embeddings",
    "DERReport",
    "aggregate",
    "der",
    "jer",
    "optimal_mapping",
    "ConfigError",
    "PipelineConfig",
    "RunManifest",
    "run_corpus",
    "run_narrowband",
    "run_wideband",
    "PosteriorMatrix",
    "VBxConfig",
    "assign_overlap",
    "decode_posteriors",
    "vbx_resegment",
    "NumericalError",
    "PCAModel",
    "PLDAModel",
    "SimilarityMatrix",
    "cosine_similarity",
    "fit_pca",
    "plda_llr",
    "score_plda_matrix",
]
