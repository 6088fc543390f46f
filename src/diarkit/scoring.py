"""Pairwise similarity scoring for embedding sequences.

Two scoring routes: cosine similarity after a global PCA projection, and the
two-covariance PLDA log-likelihood ratio.  PLDA scoring applies a
recording-level PCA keeping 30% of the total energy, with the model
congruence-transformed into the projected space.  Either score matrix can be
squashed into graph edge weights with :func:`sigmoid_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.special

from . import container
from .container import FormatError
from .embeddings import EmbeddingSequence, SyntheticSpec

__all__ = [
    "PCAModel",
    "PLDAModel",
    "SimilarityMatrix",
    "NumericalError",
    "fit_pca",
    "cosine_similarity",
    "plda_llr",
    "score_plda_matrix",
    "sigmoid_weights",
    "standardize_scores",
    "ground_truth_plda",
]


class NumericalError(RuntimeError):
    """A linear-algebra step failed (singular or indefinite matrix)."""


@dataclass(frozen=True)
class PCAModel:
    """Orthonormal projection basis with the training mean and eigenvalues."""

    mean: np.ndarray        # (D,)
    basis: np.ndarray       # (D, d), orthonormal columns
    eigenvalues: np.ndarray  # (d,), descending

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        basis = np.asarray(self.basis, dtype=float)
        ev = np.asarray(self.eigenvalues, dtype=float)
        if basis.ndim != 2 or basis.shape[0] != mean.shape[0]:
            raise ValueError("basis must be (input_dim, output_dim)")
        gram = basis.T @ basis
        # tolerance accommodates float32 storage of a float64 fit
        if not np.allclose(gram, np.eye(basis.shape[1]), atol=1e-5):
            raise ValueError("basis columns must be orthonormal")
        if np.any(np.diff(ev) > 1e-10):
            raise ValueError("eigenvalues must be in descending order")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def output_dim(self) -> int:
        return self.basis.shape[1]

    def project(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) @ self.basis

    def reconstruct(self, projected: np.ndarray) -> np.ndarray:
        return projected @ self.basis.T + self.mean

    def save(self, path: str | Path) -> None:
        container.write_blocks(
            path, [self.mean.reshape(1, -1), self.basis, self.eigenvalues.reshape(1, -1)]
        )
        container.write_sidecar(
            path, {"type": "pca", "arrays": "mean,basis,eigenvalues", "dim": len(self.mean)}
        )

    @classmethod
    def load(cls, path: str | Path) -> "PCAModel":
        meta = container.read_sidecar(path)
        if meta.get("type") != "pca":
            raise FormatError(f"{path}: expected type pca, got {meta.get('type')!r}")
        mean, basis, ev = container.read_blocks(path, expect=3)
        return cls(mean[0].astype(float), basis.astype(float), ev[0].astype(float))


def fit_pca(X: np.ndarray, target: int | float) -> PCAModel:
    """Fit PCA by eigendecomposition of the sample covariance.

    ``target`` is either an output dimension count (int) or an energy
    fraction in (0, 1]: the smallest dimension whose cumulative eigenvalue
    share reaches the fraction.  Eigenvalues follow the (N - 1) sample
    covariance convention.  Degenerate zero-variance data keeps a single
    direction by convention.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError(f"need at least 2 rows to fit PCA, got shape {X.shape}")
    n = X.shape[0]
    mean = X.mean(axis=0)
    centered = X - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=False)
    eigenvalues = svals**2 / (n - 1)
    total = eigenvalues.sum()
    rank = int(np.sum(eigenvalues > max(total, 1.0) * 1e-12))

    if isinstance(target, (int, np.integer)) and not isinstance(target, bool):
        if target < 1:
            raise ValueError(f"dimension count must be >= 1, got {target}")
        d = max(1, min(int(target), rank))
    else:
        fraction = float(target)
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"energy fraction must lie in (0, 1], got {fraction}")
        if total <= 0.0 or rank == 0:
            d = 1
        else:
            share = np.cumsum(eigenvalues[:rank]) / total
            d = int(np.searchsorted(share, fraction - 1e-12) + 1)
            d = min(d, rank)
    return PCAModel(mean=mean, basis=vt[:d].T, eigenvalues=eigenvalues[:d])


@dataclass(frozen=True)
class PLDAModel:
    """Two-covariance PLDA: global mean, between- and within-speaker covariances.

    The within covariance must be positive definite (checked by Cholesky);
    the between covariance must be positive semidefinite.
    """

    mean: np.ndarray
    between: np.ndarray
    within: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        between = np.asarray(self.between, dtype=float)
        within = np.asarray(self.within, dtype=float)
        d = mean.shape[0]
        if between.shape != (d, d) or within.shape != (d, d):
            raise ValueError("covariance shapes must match the mean dimension")
        if not np.allclose(between, between.T, atol=1e-8):
            raise ValueError("between covariance must be symmetric")
        if not np.allclose(within, within.T, atol=1e-8):
            raise ValueError("within covariance must be symmetric")
        try:
            np.linalg.cholesky(within)
        except np.linalg.LinAlgError:
            raise ValueError("within covariance must be positive definite") from None
        if np.linalg.eigvalsh(between).min() < -1e-8 * max(1.0, np.abs(between).max()):
            raise ValueError("between covariance must be positive semidefinite")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "between", 0.5 * (between + between.T))
        object.__setattr__(self, "within", 0.5 * (within + within.T))

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def save(self, path: str | Path) -> None:
        container.write_blocks(
            path, [self.mean.reshape(1, -1), self.between, self.within]
        )
        container.write_sidecar(
            path, {"type": "plda", "arrays": "mean,between,within", "dim": self.dim}
        )

    @classmethod
    def load(cls, path: str | Path) -> "PLDAModel":
        meta = container.read_sidecar(path)
        if meta.get("type") != "plda":
            raise FormatError(f"{path}: expected type plda, got {meta.get('type')!r}")
        mean, between, within = container.read_blocks(path, expect=3)
        return cls(mean[0].astype(float), between.astype(float), within.astype(float))


_TILE = 128


def _symmetrize(S: np.ndarray, out: np.ndarray) -> float:
    """Write ``0.5 * (S + S.T)`` into ``out`` tile by tile; return max |S - S.T|.

    ``out`` may be ``S`` itself: each tile pair is read in full before either
    of its tiles is written.  An entry below the diagonal gets the bits of its
    mirror above it, which are the bits of the full-matrix expression because
    floating-point addition is commutative.
    """
    n = S.shape[0]
    worst = 0.0
    for r0 in range(0, n, _TILE):
        rows = slice(r0, r0 + _TILE)
        for c0 in range(r0, n, _TILE):
            cols = slice(c0, c0 + _TILE)
            upper = S[rows, cols]
            lower_t = S[cols, rows].T
            worst = max(worst, float(np.abs(upper - lower_t).max()))
            tile = upper + lower_t
            tile *= 0.5
            out[rows, cols] = tile
            out[cols, rows] = tile.T
    return worst


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric pairwise score matrix for one recording.

    The input must be square, finite and symmetric within 1e-6; the check
    takes the largest |S - S.T| over the same tile-by-tile pass that stores
    ``0.5 * (S + S.T)``.  ``scores`` is always a new array owned by this
    object, so later changes to the input do not reach it.
    """

    recording_id: str
    scores: np.ndarray
    kind: str  # "cosine" or "plda"

    def __post_init__(self):
        S = np.asarray(self.scores, dtype=float)
        if S.ndim != 2 or S.shape[0] != S.shape[1]:
            raise ValueError(f"score matrix must be square, got {S.shape}")
        if not np.isfinite(S).all():
            raise ValueError("score matrix must be finite")
        sym = np.empty_like(S)
        if _symmetrize(S, sym) > 1e-6:
            raise ValueError("score matrix must be symmetric within 1e-6")
        if self.kind not in ("cosine", "plda"):
            raise ValueError(f"unknown score kind {self.kind!r}")
        if self.kind == "cosine" and S.size:
            if S.min() < -1.0 - 1e-9 or S.max() > 1.0 + 1e-9:
                raise ValueError("cosine scores must lie in [-1, 1]")
            if np.abs(np.diag(S) - 1.0).max() > 1e-6:
                raise ValueError("cosine diagonal must be 1")
        object.__setattr__(self, "scores", sym)

    def __len__(self) -> int:
        return self.scores.shape[0]


def _vectors_and_id(embeddings, recording_id: str):
    if isinstance(embeddings, EmbeddingSequence):
        return embeddings.vectors.astype(float), embeddings.recording_id
    return np.asarray(embeddings, dtype=float), recording_id


def cosine_similarity(embeddings, pca: PCAModel, recording_id: str = "recording") -> SimilarityMatrix:
    """Cosine scores between PCA-projected embeddings; diagonal pinned to 1.

    Rows whose projection has zero norm are a documented degenerate case:
    their off-diagonal scores are 0.
    """
    X, rec = _vectors_and_id(embeddings, recording_id)
    proj = pca.project(X)
    norms = np.linalg.norm(proj, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = proj / safe[:, None]
    S = unit @ unit.T
    _symmetrize(S, S)
    np.clip(S, -1.0, 1.0, out=S)
    degenerate = norms == 0
    S[degenerate, :] = 0.0
    S[:, degenerate] = 0.0
    np.fill_diagonal(S, 1.0)
    return SimilarityMatrix(rec, S, kind="cosine")


class _PairwiseScorer:
    """Precomputed quadratic forms for the two-covariance LLR.

    With total covariance T = between + within, the same/different joint
    covariances share the block structure [[T, B], [B, T]] / [[T, 0], [0, T]],
    giving llr(i, j) = const - (q_i + q_j)/2 - x_i' N x_j on centered inputs,
    where Q = M - inv(T), N = -inv(T) B M and inv(M) = T - B inv(T) B.
    """

    def __init__(self, model: PLDAModel):
        B, W = model.between, model.within
        T = B + W
        try:
            cho_T = scipy.linalg.cho_factor(T)
            TinvB = scipy.linalg.cho_solve(cho_T, B)
            Minv = T - B @ TinvB
            cho_M = scipy.linalg.cho_factor(0.5 * (Minv + Minv.T))
            M = scipy.linalg.cho_solve(cho_M, np.eye(model.dim))
            Tinv = scipy.linalg.cho_solve(cho_T, np.eye(model.dim))
            _, logdet_T = np.linalg.slogdet(T)
            _, logdet_W = np.linalg.slogdet(W)
            sign, logdet_W2B = np.linalg.slogdet(W + 2.0 * B)
            if sign <= 0:
                raise np.linalg.LinAlgError("W + 2B not positive definite")
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
            raise NumericalError(f"PLDA covariance is numerically singular: {exc}") from exc
        self.mean = model.mean
        self.Q = M - Tinv
        self.N = -TinvB @ M
        self.const = -0.5 * (logdet_W2B + logdet_W - 2.0 * logdet_T)

    def matrix(self, X: np.ndarray) -> np.ndarray:
        Xc = X - self.mean
        q = np.einsum("ij,jk,ik->i", Xc, self.Q, Xc)
        # S = const - 0.5 * (q_i + q_j) - cross, built row block by row block
        # in the buffer of cross with the same operations in the same order
        S = Xc @ self.N @ Xc.T
        for r0 in range(0, S.shape[0], _TILE):
            rows = slice(r0, r0 + _TILE)
            part = q[rows, None] + q[None, :]
            part *= 0.5
            np.subtract(self.const, part, out=part)
            np.subtract(part, S[rows], out=S[rows])
        _symmetrize(S, S)
        return S


def plda_llr(model: PLDAModel, x_i: np.ndarray, x_j: np.ndarray) -> float:
    """Log-likelihood ratio of same-speaker vs different-speaker hypotheses."""
    scorer = _PairwiseScorer(model)
    X = np.vstack([np.asarray(x_i, dtype=float), np.asarray(x_j, dtype=float)])
    return float(scorer.matrix(X)[0, 1])


def score_plda_matrix(
    embeddings,
    model: PLDAModel,
    energy_fraction: float = 0.3,
    recording_id: str = "recording",
) -> SimilarityMatrix:
    """All-pairs PLDA scores after a recording-level PCA.

    The PCA is fit on this recording's embeddings keeping ``energy_fraction``
    of the total energy; the model is congruence-transformed by the basis
    (covariances C -> B' C B, mean shifted and projected) so the ratio is
    computed consistently in the reduced space.
    """
    X, rec = _vectors_and_id(embeddings, recording_id)
    pca = fit_pca(X, energy_fraction)
    projected_model = PLDAModel(
        mean=pca.basis.T @ (model.mean - pca.mean),
        between=pca.basis.T @ model.between @ pca.basis,
        within=pca.basis.T @ model.within @ pca.basis,
    )
    scorer = _PairwiseScorer(projected_model)
    return SimilarityMatrix(rec, scorer.matrix(pca.project(X)), kind="plda")


def sigmoid_weights(scores: np.ndarray, scale: float = 1.0, offset: float = 0.0) -> np.ndarray:
    """Elementwise logistic squashing ``1 / (1 + exp(-scale * (s - offset)))``."""
    if scale <= 0:
        raise ValueError(f"sigmoid scale must be > 0, got {scale}")
    s = np.asarray(scores, dtype=float)
    return scipy.special.expit(scale * (s - offset))


def standardize_scores(scores: np.ndarray) -> np.ndarray:
    """Affine map of a square score matrix to zero mean, unit variance.

    Statistics come from the off-diagonal entries (self-scores are outliers
    for ratio-based scores).  A constant matrix is only centered.
    """
    S = np.asarray(scores, dtype=float)
    if S.shape[0] < 2:
        return np.zeros_like(S)
    off = S[~np.eye(S.shape[0], dtype=bool)]
    mu = off.mean()
    # np.std's own steps, squared in place on this copy
    off -= mu
    off *= off
    sd = np.sqrt(off.sum() / off.size)
    del off
    out = S - mu
    if sd < 1e-12:
        return out
    out /= sd
    return out


def ground_truth_plda(spec: SyntheticSpec) -> PLDAModel:
    """PLDA parameters implied by a synthetic generator spec.

    Not an estimator: the between covariance is the population covariance of
    the configured speaker means and the within covariance is the generator's
    isotropic noise.
    """
    means = spec.speaker_means
    mu = means.mean(axis=0)
    centered = means - mu
    between = centered.T @ centered / means.shape[0]
    within = (spec.within_std**2) * np.eye(spec.embedding_dim)
    return PLDAModel(mean=mu, between=between, within=within)
