"""Narrowband/wideband routing from segment embeddings.

A two-layer feed-forward classifier scores each segment embedding and the
recording takes the majority label; ties resolve to wideband, the safer
default for the downstream models.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import softmax

from . import container

__all__ = ["MLPClassifier", "BandDecision", "classify_recording", "majority_vote"]

NARROWBAND = "NB"
WIDEBAND = "WB"
_CLASSES = (NARROWBAND, WIDEBAND)


@dataclass(frozen=True)
class MLPClassifier:
    """Two-layer perceptron with a rectifier hidden layer and 2-way softmax.

    Output column 0 is narrowband, column 1 wideband.
    """

    w1: np.ndarray  # (input_dim, hidden)
    b1: np.ndarray  # (hidden,)
    w2: np.ndarray  # (hidden, 2)
    b2: np.ndarray  # (2,)

    def __post_init__(self):
        w1 = np.asarray(self.w1, dtype=float)
        b1 = np.asarray(self.b1, dtype=float).reshape(-1)
        w2 = np.asarray(self.w2, dtype=float)
        b2 = np.asarray(self.b2, dtype=float).reshape(-1)
        if w1.ndim != 2 or w2.shape != (w1.shape[1], 2) or b1.shape != (w1.shape[1],) or b2.shape != (2,):
            raise ValueError(
                f"inconsistent layer shapes: w1 {w1.shape}, b1 {b1.shape}, "
                f"w2 {w2.shape}, b2 {b2.shape}"
            )
        for arr in (w1, b1, w2, b2):
            if not np.isfinite(arr).all():
                raise ValueError("classifier weights must be finite")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "w2", w2)
        object.__setattr__(self, "b2", b2)

    @property
    def input_dim(self) -> int:
        return self.w1.shape[0]

    def probabilities(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if not np.isfinite(X).all():
            raise ValueError("classifier input must be finite")
        single = X.ndim == 1
        if single:
            X = X[None, :]
        if X.shape[1] != self.input_dim:
            raise ValueError(f"expected {self.input_dim}-dim input, got {X.shape[1]}")
        hidden = np.maximum(X @ self.w1 + self.b1, 0.0)
        probs = softmax(hidden @ self.w2 + self.b2, axis=1)
        return probs[0] if single else probs

    def save(self, path: str | Path) -> None:
        container.write_typed(
            path, "mlp", [self.w1, self.b1, self.w2, self.b2],
            arrays="w1,b1,w2,b2", classes=",".join(_CLASSES), dim=self.input_dim,
        )

    @classmethod
    def load(cls, path: str | Path) -> "MLPClassifier":
        return container.read_typed(
            path, "mlp", 4, lambda _, *layers: cls(*layers), input_dim=lambda mlp: mlp.input_dim
        )


@dataclass(frozen=True)
class BandDecision:
    """Per-segment labels plus the majority file-level label."""

    recording_id: str
    segment_labels: tuple[str, ...]
    file_label: str

    def __post_init__(self):
        if self.file_label not in _CLASSES:
            raise ValueError(f"file_label must be NB or WB, got {self.file_label!r}")
        for lab in self.segment_labels:
            if lab not in _CLASSES:
                raise ValueError(f"segment label must be NB or WB, got {lab!r}")
        if self.segment_labels and self.file_label != majority_vote(self.segment_labels):
            raise ValueError("file_label must be the majority of the segment labels")


def majority_vote(labels) -> str:
    """Majority label; an exact tie (or no labels) resolves to wideband."""
    labels = list(labels)
    nb = sum(1 for lab in labels if lab == NARROWBAND)
    return NARROWBAND if nb * 2 > len(labels) else WIDEBAND


def classify_recording(model: MLPClassifier, embeddings: np.ndarray, recording_id: str) -> BandDecision:
    """One classifier pass labels each row (NB iff p_NB > p_WB); the majority labels the file."""
    X = np.asarray(embeddings, dtype=float)
    if X.ndim == 1:
        X = X[None, :]
    labels = tuple(NARROWBAND if nb > wb else WIDEBAND for nb, wb in model.probabilities(X))
    return BandDecision(recording_id, labels, majority_vote(labels))
