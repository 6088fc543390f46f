"""Pairwise similarity scoring for embedding sequences.

Two scoring routes: cosine similarity after a global PCA projection, and the
two-covariance PLDA log-likelihood ratio.  PLDA scoring applies a
recording-level PCA keeping 30% of the total energy, with the model
congruence-transformed into the projected space.  Either score matrix can be
squashed into graph edge weights with :func:`sigmoid_weights`.

Both routes build the square score matrix with one matrix product and
condense it inside its own buffer: the product is checked as it is, and
``0.5 * (S + S.T)``, the only symmetrization, is written over the square
as the condensed upper triangle in scipy ``squareform`` order.  The n
self-scores go to a separate array, and the buffer is shrunk to the
triangle and kept by a :class:`SimilarityMatrix`.
So each recording's scores live in one buffer from the matrix product to
the average-linkage tree.  Every later step reads that storage, through
:meth:`SimilarityMatrix.rows` or the cached average-linkage tree, so after
scoring no n x n array is made; ``SimilarityMatrix.scores`` rebuilds the
square for callers outside that route.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.special
from scipy.cluster.hierarchy import linkage
from scipy.spatial.distance import squareform

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
_GATHER = 1 << 15  # entries per gathered chunk of mirrored scores


def _row_starts(n: int) -> np.ndarray:
    """Offset of each row's strictly-upper part in the condensed vector, plus its length."""
    i = np.arange(n + 1)
    return i * n - i * (i + 1) // 2


def _all_finite(*arrays: np.ndarray) -> bool:
    # min and max propagate NaN, so both are finite only when every entry is
    return all(
        np.isfinite(a.min(initial=0.0)) and np.isfinite(a.max(initial=0.0)) for a in arrays
    )


def _condense_into(S: np.ndarray, out: np.ndarray, kind: str) -> np.ndarray:
    """Check the square score matrix S and write ``0.5 * (S + S.T)`` into
    ``out`` as its condensed upper triangle; return the diagonal as a new
    array.

    This is the only place where scores are symmetrized: the scorers hand
    over their matrix product as it is, so the checks see the raw product.
    S must be square, finite and symmetric within 1e-6; the symmetry check
    takes the largest |S - S.T| over the same tile-by-tile pass that writes
    the triangle.  Cosine scores must also lie in [-1, 1] with a diagonal of
    1, checked on S before anything is written.

    The pass runs over the tiles on or above the diagonal, a band of
    ``_TILE`` rows at a time.  An entry below the diagonal gets the bits of
    its mirror above it, which are the bits of the full-matrix expression
    because floating-point addition is commutative.  ``out`` may be S's own
    buffer, ``S.reshape(-1)``: both mirror tiles are read before the band is
    written, and band ``r0:r1`` of the triangle ends at ``starts[r1] <= r1 *
    n``, before every row that is still to be read.
    """
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"score matrix must be square, got {S.shape}")
    if not _all_finite(S):
        raise ValueError("score matrix must be finite")
    n = S.shape[0]
    if kind == "cosine" and n:
        if S.min() < -1.0 - 1e-9 or S.max() > 1.0 + 1e-9:
            raise ValueError("cosine scores must lie in [-1, 1]")
        if np.abs(np.diag(S) - 1.0).max() > 1e-6:
            raise ValueError("cosine diagonal must be 1")
    starts = _row_starts(n)
    diagonal = np.empty(n)
    band = np.empty((_TILE, n))  # the tiles of one band of rows
    for r0 in range(0, n, _TILE):
        r1 = min(r0 + _TILE, n)
        for c0 in range(r0, n, _TILE):
            upper = S[r0:r1, c0 : c0 + _TILE]
            lower_t = S[c0 : c0 + _TILE, r0:r1].T
            if np.abs(upper - lower_t).max() > 1e-6:
                raise ValueError("score matrix must be symmetric within 1e-6")
            tile = band[: r1 - r0, c0 : c0 + _TILE]
            np.add(upper, lower_t, out=tile)
            tile *= 0.5
        for i in range(r0, r1):
            diagonal[i] = band[i - r0, i]
            out[starts[i] : starts[i + 1]] = band[i - r0, i + 1 :]
    return diagonal


@dataclass(frozen=True, init=False)
class SimilarityMatrix:
    """Symmetric pairwise score matrix for one recording, stored once.

    ``condensed`` holds the strictly upper triangle in scipy ``squareform``
    order (row by row, n (n - 1) / 2 entries) and ``diagonal`` the n
    self-scores; both are read-only and owned by this object.  ``rows``
    rebuilds bands of the square from them, and the ``scores`` property
    rebuilds the whole square as a new array for callers that want it.

    The input to the constructor must be square, finite and symmetric within
    1e-6; the check takes the largest |S - S.T| over the same tile-by-tile
    pass that stores ``0.5 * (S + S.T)``.  The public constructor writes
    into new storage, so it never modifies its input and makes no second
    n x n array from it; only the scorers of this module condense a square
    inside its own buffer, which they own.
    """

    recording_id: str
    kind: str  # "cosine" or "plda"
    condensed: np.ndarray
    diagonal: np.ndarray

    def __init__(self, recording_id: str, scores: np.ndarray, kind: str):
        if kind not in ("cosine", "plda"):
            raise ValueError(f"unknown score kind {kind!r}")
        S = np.asarray(scores, dtype=float)
        n = S.shape[0] if S.ndim == 2 else 0
        condensed = np.empty(n * (n - 1) // 2)
        diagonal = _condense_into(S, condensed, kind)
        self._store(recording_id, kind, condensed, diagonal)

    @classmethod
    def _wrap(
        cls, recording_id: str, kind: str, condensed: np.ndarray, diagonal: np.ndarray
    ) -> "SimilarityMatrix":
        """Take over condensed storage that is already checked."""
        sim = cls.__new__(cls)
        sim._store(recording_id, kind, condensed, diagonal)
        return sim

    @classmethod
    def _from_condensed(
        cls, recording_id: str, kind: str, condensed: np.ndarray, diagonal: np.ndarray
    ) -> "SimilarityMatrix":
        """Wrap condensed storage computed from another matrix's by an
        elementwise map, so symmetric by construction."""
        if not _all_finite(condensed, diagonal):
            raise ValueError("score matrix must be finite")
        return cls._wrap(recording_id, kind, condensed, diagonal)

    def _store(self, recording_id, kind, condensed, diagonal) -> None:
        condensed.flags.writeable = False
        diagonal.flags.writeable = False
        object.__setattr__(self, "recording_id", recording_id)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "condensed", condensed)
        object.__setattr__(self, "diagonal", diagonal)

    def __len__(self) -> int:
        return len(self.diagonal)

    @functools.cached_property
    def _starts(self) -> np.ndarray:
        return _row_starts(len(self))

    @functools.cached_property
    def _mirror_base(self) -> np.ndarray:
        # entry (j, i), j < i, sits at condensed[_mirror_base[j] + i]
        n = len(self)
        return self._starts[:n] - np.arange(n) - 1

    def rows(self, start: int, stop: int) -> np.ndarray:
        """Rows ``start:stop`` of the square score matrix, as a new
        ``(stop - start, n)`` array with the bits of the stored entries.

        Each row's part right of the diagonal is a slice of the condensed
        vector; its part left of the band is read from the band's columns in
        the earlier rows, and the part inside the band mirrors the band's
        upper triangle.  All rows at once is one ``squareform`` call.
        """
        n = len(self)
        if not 0 <= start <= stop <= n:
            raise ValueError(f"row range {start}:{stop} outside 0:{n}")
        if start == 0 and stop == n and n:
            S = squareform(self.condensed, force="tomatrix", checks=False)
            np.fill_diagonal(S, self.diagonal)
            return S
        band = stop - start
        out = np.empty((band, n))
        # gathered as (earlier row, band column), in cache-sized chunks, so
        # each read is a run of contiguous entries
        cols = np.arange(start, stop)
        chunk = max(_TILE, _GATHER // max(band, 1))
        for j0 in range(0, start, chunk):
            j1 = min(j0 + chunk, start)
            out[:, j0:j1] = self.condensed[self._mirror_base[j0:j1, None] + cols].T
        starts = self._starts
        for i in range(start, stop):
            out[i - start, i] = self.diagonal[i]
            out[i - start, i + 1 :] = self.condensed[starts[i] : starts[i + 1]]
        square = out[:, start:stop]
        np.copyto(square, square.T, where=np.arange(band) < np.arange(band)[:, None])
        return out

    @property
    def scores(self) -> np.ndarray:
        """The whole square score matrix, rebuilt as a new array on each access."""
        return self.rows(0, len(self))

    @functools.cached_property
    def average_linkage(self) -> np.ndarray:
        """scipy linkage matrix of average-linkage clustering on the negated
        scores, built on first use and kept.

        The triangle is negated in place while scipy builds the tree, and
        negated back and made read-only again afterwards, also when scipy
        raises.  Negation is exact, so each merge height is the negated
        similarity-space linkage and the stored bits are unchanged.  scipy
        takes the C-ordered float64 vector as it is; only its
        nearest-neighbor chain, which builds the tree in O(n^2), works on a
        copy.  While the first tree is built the matrix must not be read
        from another thread; the pipeline starts no threads and keeps one
        matrix per recording, so it never is.
        """
        distances = self.condensed
        distances.flags.writeable = True
        np.negative(distances, out=distances)
        try:
            return linkage(distances, method="average")
        finally:
            np.negative(distances, out=distances)
            distances.flags.writeable = False


def _vectors_and_id(embeddings, recording_id: str):
    if isinstance(embeddings, EmbeddingSequence):
        return embeddings.vectors.astype(float), embeddings.recording_id
    return np.asarray(embeddings, dtype=float), recording_id


def _condense_own_square(S: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Condense a scorer's square S inside its own buffer; return
    ``(condensed, diagonal)``.

    The scorers pass S without keeping a name for it, so this frame holds
    the only reference and ``resize`` gives the square's tail back in place.
    Under a trace or profile hook (``sys.settrace`` or ``sys.setprofile``,
    as installed by debuggers, cProfile and coverage tools) the frame's
    locals hold one more reference and ``resize`` refuses; the triangle is
    then copied out, which raises the scoring peak from n^2 to 1.5 n^2.
    """
    diagonal = _condense_into(S, S.reshape(-1), kind)
    m = len(diagonal) * (len(diagonal) - 1) // 2
    try:
        S.resize(m)
    except ValueError:
        return S.reshape(-1)[:m].copy(), diagonal
    return S, diagonal


def _cosine_square(proj: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(proj, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    unit = proj / safe[:, None]
    S = unit @ unit.T
    np.clip(S, -1.0, 1.0, out=S)
    degenerate = norms == 0
    S[degenerate, :] = 0.0
    S[:, degenerate] = 0.0
    np.fill_diagonal(S, 1.0)
    return S


def cosine_similarity(embeddings, pca: PCAModel, recording_id: str = "recording") -> SimilarityMatrix:
    """Cosine scores between PCA-projected embeddings; diagonal pinned to 1.

    Rows whose projection has zero norm are a documented degenerate case:
    their off-diagonal scores are 0.
    """
    X, rec = _vectors_and_id(embeddings, recording_id)
    condensed, diagonal = _condense_own_square(_cosine_square(pca.project(X)), "cosine")
    return SimilarityMatrix._wrap(rec, "cosine", condensed, diagonal)


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
        return S


def plda_llr(model: PLDAModel, x_i: np.ndarray, x_j: np.ndarray) -> float:
    """Log-likelihood ratio of same-speaker vs different-speaker hypotheses.

    The off-diagonal entry of the pair's 2 x 2 score matrix, checked and
    symmetrized like every score matrix.
    """
    scorer = _PairwiseScorer(model)
    X = np.vstack([np.asarray(x_i, dtype=float), np.asarray(x_j, dtype=float)])
    return float(SimilarityMatrix("pair", scorer.matrix(X), "plda").condensed[0])


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
    condensed, diagonal = _condense_own_square(
        _PairwiseScorer(projected_model).matrix(pca.project(X)), "plda"
    )
    return SimilarityMatrix._wrap(rec, "plda", condensed, diagonal)


def sigmoid_weights(scores: np.ndarray, scale: float = 1.0, offset: float = 0.0) -> np.ndarray:
    """Elementwise logistic squashing ``1 / (1 + exp(-scale * (s - offset)))``."""
    if scale <= 0:
        raise ValueError(f"sigmoid scale must be > 0, got {scale}")
    s = np.asarray(scores, dtype=float)
    return scipy.special.expit(scale * (s - offset))


def standardize_scores(sim: SimilarityMatrix) -> SimilarityMatrix:
    """Affine map of PLDA scores to zero mean, unit variance.

    Statistics come from the off-diagonal entries (self-scores are outliers
    for ratio-based scores): ``mean()`` and ``std()`` of the stored condensed
    triangle.  Each off-diagonal score is a triangle entry that appears
    twice, so these equal the moments of ``S[~eye]`` in exact arithmetic and
    differ only in summation order; ``np.std`` makes one temporary of
    0.5 n^2 entries.  A constant matrix is only centered.  The map
    ``(s - mean) / std`` runs entry by entry over the condensed storage into
    a new matrix, so the input is never modified.
    """
    if sim.kind != "plda":
        raise ValueError(f"only plda scores are standardized, got {sim.kind!r}")
    n = len(sim)
    if n < 2:
        return SimilarityMatrix._from_condensed(
            sim.recording_id, "plda", np.zeros(0), np.zeros(n)
        )
    mu = sim.condensed.mean()
    sd = sim.condensed.std()
    condensed = sim.condensed - mu
    diagonal = sim.diagonal - mu
    if sd >= 1e-12:
        condensed /= sd
        diagonal /= sd
    return SimilarityMatrix._from_condensed(sim.recording_id, "plda", condensed, diagonal)


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
