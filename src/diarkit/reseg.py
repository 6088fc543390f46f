"""Resegmentation and posterior decoding.

``vbx_resegment`` refines a hard clustering with a Bayesian HMM: one
Gaussian state per initial cluster, state means drawn from the PLDA
between-speaker prior, within-speaker covariance as the emission covariance,
and a sticky transition matrix (self-loop probability on the diagonal, the
remaining mass spread uniformly over the other states).  The PLDA model is
simultaneously diagonalized (within -> identity, between -> diag(psi)) so
the variational updates are closed-form per dimension.  Each iteration does
one coordinate-ascent sweep (speaker posteriors, then state posteriors via
forward-backward, then entry priors), so the evidence lower bound never
decreases; this is checked every iteration.

Forward-backward runs in the linear domain: each frame's emissions are
scaled so the largest is 1, and the forward and backward messages become
two chains of vector-matrix products.  Both chains run at once as blocked
prefix products (``_chains``): the steps are cut into about sqrt(T) blocks
whose partial products are built in one batched pass, then the block heads
are walked in order, so a call takes about 2 sqrt(T) Python steps rather
than 2T.  Every product is rescaled to max 1 (matrices) or sum 1 (vectors)
with its log scale kept; none is ever zero because the sticky transition
matrix is dense and strictly positive.

``decode_posteriors`` turns frame-level speaker posteriors into segments:
threshold, fall back to the argmax speaker inside speech, median-filter,
silence everything outside the speech regions, upsample to the fine frame
grid.  ``assign_overlap`` adds the second most probable speaker inside
externally detected overlap regions and never removes existing speech.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.ndimage

from . import container
from .annotations import (
    Annotation,
    RTTMParseError,
    ScoringRegions,
    Segment,
    crop,
    disjoint_intervals,
    read_fields,
    speech_timeline,
)
from .container import FormatError
from .embeddings import EmbeddingSequence
from .scoring import NumericalError, PLDAModel

__all__ = [
    "VBxConfig",
    "PosteriorMatrix",
    "OverlapRegions",
    "WhiteningStats",
    "LDAProjection",
    "interpolate_plda",
    "whiten_and_normalize",
    "lda_project",
    "vbx_resegment",
    "assign_overlap",
    "decode_posteriors",
    "parse_overlap_regions",
    "write_overlap_regions",
]


@dataclass(frozen=True)
class VBxConfig:
    """HMM resegmentation knobs.

    ``acoustic_scale`` and ``speaker_prior_scale`` rescale the emission
    statistics and the speaker-prior regularization; 1.0 keeps the exact
    variational objective.
    """

    loop_probability: float = 0.8
    max_iterations: int = 40
    convergence_tolerance: float = 1e-6
    acoustic_scale: float = 1.0
    speaker_prior_scale: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.loop_probability < 1.0:
            raise ValueError("loop_probability must lie in (0, 1)")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.convergence_tolerance <= 0:
            raise ValueError("convergence_tolerance must be > 0")
        if self.acoustic_scale <= 0 or self.speaker_prior_scale <= 0:
            raise ValueError("scales must be > 0")


@dataclass(frozen=True)
class PosteriorMatrix:
    """Per-frame speaker posteriors.

    Row t covers the time span ``time_offset + [t, t+1) * frame_shift *
    subsample_factor``: ``frame_shift`` is the fine decision grid and rows
    arrive subsampled by ``subsample_factor``.  ``speakers`` names the
    columns; it defaults to spk0, spk1, ...
    """

    recording_id: str
    matrix: np.ndarray
    frame_shift: float
    subsample_factor: int = 1
    speakers: tuple[str, ...] = None  # type: ignore[assignment]
    time_offset: float = 0.0

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        if M.ndim != 2:
            raise ValueError(f"posterior matrix must be 2-D, got shape {M.shape}")
        if not np.isfinite(M).all():
            raise ValueError("posteriors must be finite")
        if M.size and (M.min() < -1e-9 or M.max() > 1.0 + 1e-9):
            raise ValueError("posteriors must lie in [0, 1]")
        if self.frame_shift <= 0:
            raise ValueError("frame_shift must be > 0")
        if int(self.subsample_factor) != self.subsample_factor or self.subsample_factor < 1:
            raise ValueError("subsample_factor must be an integer >= 1")
        object.__setattr__(self, "matrix", np.clip(M, 0.0, 1.0))
        object.__setattr__(self, "subsample_factor", int(self.subsample_factor))
        if self.speakers is None:
            object.__setattr__(
                self, "speakers", tuple(f"spk{k}" for k in range(M.shape[1]))
            )
        elif len(self.speakers) != M.shape[1]:
            raise ValueError("speakers must name every posterior column")
        else:
            object.__setattr__(self, "speakers", tuple(self.speakers))

    @property
    def row_duration(self) -> float:
        return self.frame_shift * self.subsample_factor

    def row_centers(self) -> np.ndarray:
        step = self.row_duration
        return self.time_offset + (np.arange(self.matrix.shape[0]) + 0.5) * step

    def save(self, path: str | Path) -> None:
        container.write_blocks(path, [self.matrix])
        container.write_sidecar(
            path,
            {
                "type": "posteriors",
                "recording_id": self.recording_id,
                "frame_shift": repr(float(self.frame_shift)),
                "subsample_factor": self.subsample_factor,
                "time_offset": repr(float(self.time_offset)),
                "speakers": ",".join(self.speakers),
            },
        )

    @classmethod
    def load(cls, path: str | Path) -> "PosteriorMatrix":
        meta = container.read_sidecar(path)
        if meta.get("type") != "posteriors":
            raise FormatError(f"{path}: expected type posteriors, got {meta.get('type')!r}")
        (matrix,) = container.read_blocks(path, expect=1)
        return cls(
            recording_id=meta["recording_id"],
            matrix=matrix.astype(float),
            frame_shift=float(meta["frame_shift"]),
            subsample_factor=int(meta["subsample_factor"]),
            speakers=tuple(meta["speakers"].split(",")) if meta.get("speakers") else None,
            time_offset=float(meta.get("time_offset", 0.0)),
        )


@dataclass(frozen=True)
class OverlapRegions:
    """Externally detected overlapped-speech intervals for one recording."""

    recording_id: str
    intervals: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted((float(a), float(b)) for a, b in self.intervals))
        prev_end = None
        for onset, offset in ordered:
            if not (0.0 <= onset < offset):
                raise ValueError(f"bad overlap interval ({onset}, {offset})")
            if prev_end is not None and onset < prev_end:
                raise ValueError("overlap intervals must not overlap each other")
            prev_end = offset
        object.__setattr__(self, "intervals", ordered)

    @classmethod
    def from_annotation(cls, annotation: Annotation) -> "OverlapRegions":
        return cls(
            annotation.recording_id,
            tuple((seg.onset, seg.offset) for seg in annotation.segments),
        )


def parse_overlap_regions(text: str) -> list[OverlapRegions]:
    """Parse ``OVL <recording> 1 <onset> <duration>`` lines."""
    by_rec: dict[str, list[tuple[float, float, int]]] = {}
    for lineno, fields, (onset, duration) in read_fields(text, "OVL", 5, (3, 4)):
        # a duration too small to move the onset is zero as far as intervals go
        if not onset + duration > onset:
            raise RTTMParseError(f"overlap duration must be > 0, got {duration}", lineno)
        if onset < 0:
            raise RTTMParseError(f"overlap onset must be >= 0, got {onset}", lineno)
        by_rec.setdefault(fields[1], []).append((onset, onset + duration, lineno))
    return [
        OverlapRegions(rec, disjoint_intervals(spans, "OVL"))
        for rec, spans in sorted(by_rec.items())
    ]


def write_overlap_regions(regions: list[OverlapRegions] | OverlapRegions) -> str:
    if isinstance(regions, OverlapRegions):
        regions = [regions]
    lines = []
    for reg in regions:
        for onset, offset in reg.intervals:
            lines.append(f"OVL {reg.recording_id} 1 {onset:.3f} {offset - onset:.3f}")
    return "\n".join(lines) + ("\n" if lines else "")


def interpolate_plda(model_a: PLDAModel, model_b: PLDAModel, alpha: float) -> PLDAModel:
    """Parameter-wise convex combination ``alpha * a + (1 - alpha) * b``.

    The endpoints return the corresponding input unchanged.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    if model_a.dim != model_b.dim:
        raise ValueError("models must share the embedding dimension")
    if alpha == 1.0:
        return model_a
    if alpha == 0.0:
        return model_b
    beta = 1.0 - alpha
    return PLDAModel(
        mean=alpha * model_a.mean + beta * model_b.mean,
        between=alpha * model_a.between + beta * model_b.between,
        within=alpha * model_a.within + beta * model_b.within,
    )


@dataclass(frozen=True)
class WhiteningStats:
    """Mean and covariance Cholesky factor of a reference embedding pool."""

    mean: np.ndarray
    cholesky: np.ndarray  # lower triangular, covariance = L L'

    @classmethod
    def fit(cls, X: np.ndarray, ridge: float = 0.0) -> "WhiteningStats":
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[0] < 2:
            raise ValueError("need at least 2 rows to fit whitening stats")
        mean = X.mean(axis=0)
        cov = np.cov(X, rowvar=False) + ridge * np.eye(X.shape[1])
        try:
            L = np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise NumericalError(
                "pool covariance is singular; refit with ridge > 0"
            ) from None
        return cls(mean=mean, cholesky=L)

    def save(self, path: str | Path) -> None:
        container.write_blocks(path, [self.mean.reshape(1, -1), self.cholesky])
        container.write_sidecar(
            path, {"type": "whitening", "arrays": "mean,cholesky", "dim": len(self.mean)}
        )

    @classmethod
    def load(cls, path: str | Path) -> "WhiteningStats":
        meta = container.read_sidecar(path)
        if meta.get("type") != "whitening":
            raise FormatError(f"{path}: expected type whitening, got {meta.get('type')!r}")
        mean, chol = container.read_blocks(path, expect=2)
        return cls(mean[0].astype(float), np.tril(chol.astype(float)))


def whiten_and_normalize(embeddings, stats: WhiteningStats) -> np.ndarray:
    """Whiten by the pool statistics, then length-normalize each row.

    A row equal to the pool mean whitens to zero and is left as the zero
    vector (documented degenerate case).
    """
    X = embeddings.vectors if isinstance(embeddings, EmbeddingSequence) else embeddings
    X = np.asarray(X, dtype=float)
    white = scipy.linalg.solve_triangular(
        stats.cholesky, (X - stats.mean).T, lower=True
    ).T
    norms = np.linalg.norm(white, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    return white / safe[:, None]


def lda_project(
    embeddings, labels, out_dim: int, ridge: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Linear discriminant projection fit on labeled embeddings.

    Solves the within/between generalized eigenproblem.  When ``out_dim``
    exceeds the number of discriminant directions (classes - 1), the matrix
    is padded with the leading principal directions of the within-class
    whitened data in the discriminants' orthogonal complement, so the
    projection keeps full rank.  Returns ``(W, projected)`` where projected
    = (X - class-pool mean) @ W.
    """
    X = embeddings.vectors if isinstance(embeddings, EmbeddingSequence) else embeddings
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    if X.shape[0] != labels.shape[0]:
        raise ValueError("one label per embedding row required")
    classes = np.unique(labels)
    if len(classes) < 2:
        raise ValueError("LDA needs at least 2 classes")
    n, d = X.shape
    if not 1 <= out_dim <= d:
        raise ValueError(f"out_dim must lie in [1, {d}]")

    mean = X.mean(axis=0)
    Sw = np.zeros((d, d))
    Sb = np.zeros((d, d))
    for c in classes:
        block = X[labels == c]
        mc = block.mean(axis=0)
        centered = block - mc
        Sw += centered.T @ centered
        Sb += len(block) * np.outer(mc - mean, mc - mean)
    Sw /= max(n - len(classes), 1)
    Sb /= n
    Sw += ridge * np.eye(d)
    try:
        L = np.linalg.cholesky(Sw)
    except np.linalg.LinAlgError:
        raise NumericalError(
            "within-class scatter is singular; pass ridge > 0"
        ) from None

    def _whiten_sym(M):
        tmp = scipy.linalg.solve_triangular(L, M, lower=True)
        out = scipy.linalg.solve_triangular(L, tmp.T, lower=True).T
        return 0.5 * (out + out.T)

    Bt = _whiten_sym(Sb)
    vals, vecs = np.linalg.eigh(Bt)
    order = np.argsort(vals)[::-1]
    vecs = vecs[:, order]
    n_disc = min(out_dim, len(classes) - 1)
    U = vecs[:, :n_disc]
    if out_dim > n_disc:
        centered = X - mean
        Y = scipy.linalg.solve_triangular(L, centered.T, lower=True).T
        St = Y.T @ Y / max(n - 1, 1)
        proj_out = np.eye(d) - U @ U.T
        comp = proj_out @ St @ proj_out
        cvals, cvecs = np.linalg.eigh(0.5 * (comp + comp.T))
        corder = np.argsort(cvals)[::-1]
        U = np.column_stack([U, cvecs[:, corder[: out_dim - n_disc]]])
    W = scipy.linalg.solve_triangular(L.T, U, lower=False)
    return W, (X - mean) @ W


@dataclass(frozen=True)
class LDAProjection:
    """Stored LDA transform: centering mean plus projection matrix."""

    mean: np.ndarray
    matrix: np.ndarray

    @classmethod
    def fit(cls, X: np.ndarray, labels, out_dim: int, ridge: float = 0.0) -> "LDAProjection":
        X = np.asarray(X, dtype=float)
        W, _ = lda_project(X, labels, out_dim, ridge=ridge)
        return cls(mean=X.mean(axis=0), matrix=W)

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.mean) @ self.matrix

    def save(self, path: str | Path) -> None:
        container.write_blocks(path, [self.mean.reshape(1, -1), self.matrix])
        container.write_sidecar(
            path, {"type": "lda", "arrays": "mean,matrix", "dim": len(self.mean)}
        )

    @classmethod
    def load(cls, path: str | Path) -> "LDAProjection":
        meta = container.read_sidecar(path)
        if meta.get("type") != "lda":
            raise FormatError(f"{path}: expected type lda, got {meta.get('type')!r}")
        mean, matrix = container.read_blocks(path, expect=2)
        return cls(mean[0].astype(float), matrix.astype(float))


def _diagonalize_plda(plda: PLDAModel):
    """Transform T with T W T' = I and T B T' = diag(psi), psi descending."""
    L = np.linalg.cholesky(plda.within)
    tmp = scipy.linalg.solve_triangular(L, plda.between, lower=True)
    Bt = scipy.linalg.solve_triangular(L, tmp.T, lower=True).T
    psi, U = np.linalg.eigh(0.5 * (Bt + Bt.T))
    order = np.argsort(psi)[::-1]
    psi = np.clip(psi[order], 0.0, None)
    U = U[:, order]
    # x_tilde = U' L^-1 (x - mean)
    Linv = scipy.linalg.solve_triangular(L, np.eye(L.shape[0]), lower=True)
    return psi, U.T @ Linv


def _chains(starts, mats, w):
    """Run C chains ``x_k = (x_{k-1} mats[c]) * w[c, k-1]``, k = 1..K, in blocks.

    ``starts`` is (C, S) with rows summing to 1, ``mats`` (C, S, S) and ``w``
    (C, K, S) with K >= 1.  Returns ``(x, log_z)``: ``x[c, k-1]`` is x_k up to
    a positive factor, and ``log_z[c]`` is the log of ``sum(x_K)`` exactly.

    The K steps are cut into G blocks of L = ceil(sqrt(K)) steps.  The
    partial products of every block are built together in L batched steps,
    each scaled to max entry 1 with the log scales kept; then the G block
    heads are walked in order, each scaled to sum 1; then every position is
    its block head times a partial product.  That is about 2 sqrt(K) Python
    steps in place of K.  The last block is padded with weights of one, and
    ``log_z`` is read at step K, before the padding.

    No scaled product or vector is ever zero, so no scale is 0 or inf: the
    matrices are dense and strictly positive, and every weight row has an
    entry of 1, so each partial product has a column that is positive in
    every row, and a nonnegative head that sums to 1 keeps a positive entry
    through it.
    """
    C, K, S = w.shape
    L = int(np.ceil(np.sqrt(K)))
    G = -(-K // L)
    weights = np.ones((C, G * L, S))
    weights[:, :K] = w
    weights = weights.reshape(C, G, L, S)
    prods = np.empty((C, G, L, S, S))
    log_scale = np.empty((C, G, L))
    cur = mats[:, None]
    for j in range(L):
        if j:
            cur = cur @ mats[:, None]
        cur = cur * weights[:, :, j, None, :]
        scale = cur.max(axis=(2, 3))
        cur /= scale[..., None, None]
        prods[:, :, j] = cur
        log_scale[:, :, j] = np.log(scale)
    np.cumsum(log_scale, axis=2, out=log_scale)
    heads = np.empty((C, G, S))
    heads[:, 0] = starts
    log_z = np.zeros(C)
    for g in range(1, G):
        v = (heads[:, g - 1, None] @ prods[:, g - 1, L - 1])[:, 0]
        total = v.sum(axis=1)
        heads[:, g] = v / total[:, None]
        log_z += log_scale[:, g - 1, L - 1] + np.log(total)
    x = (heads[:, :, None, None] @ prods).reshape(C, G * L, S)[:, :K]
    log_z += log_scale[:, G - 1, K - 1 - (G - 1) * L] + np.log(x[:, K - 1].sum(axis=1))
    return x, log_z


def _forward_backward(logpi, logA, logB):
    """State posteriors (T, S) and log-evidence of an HMM with dense,
    strictly positive transitions ``exp(logA)``.

    Linear domain: with ``A = exp(logA)`` and ``b_t = exp(logB_t - max_s
    logB_t)``, so that every frame's largest emission is 1, the forward
    message is ``alpha_t = (alpha_{t-1} A) * b_t``.  The backward message
    runs as a forward chain too: ``u_t = (u_{t+1} A') * b_t`` from ``u_{T-1}
    = b_{T-1}``, then ``beta_t = u_{t+1} A'`` and ``beta_{T-1} = 1``.  Both
    chains run together in ``_chains``; gamma is ``alpha * beta`` normalized
    by row.  An emission that underflows in ``b_t`` is more than about 745
    nats below the frame's best, so its state's posterior is 0 anyway.
    """
    T, S = logB.shape
    A = np.exp(logA)
    peak = logB.max(axis=1)
    b = np.exp(logB - peak[:, None])
    start = np.exp(logpi) * b[0]
    total = start.sum()
    start /= total
    log_evidence = peak.sum() + np.log(total)
    if T == 1:
        return start[None], float(log_evidence)
    starts = np.stack([start, b[-1] / b[-1].sum()])
    x, log_z = _chains(starts, np.stack([A, A.T]), np.stack([b[1:], b[-2::-1]]))
    alpha = np.concatenate([starts[:1], x[0]])
    beta = np.ones((T, S))
    beta[:-1] = np.concatenate([starts[1:], x[1, : T - 2]])[::-1] @ A.T
    gamma = alpha * beta
    gamma /= gamma.sum(axis=1, keepdims=True)
    return gamma, float(log_evidence + log_z[0])


def vbx_resegment(
    embeddings,
    plda: PLDAModel,
    initial: "Partition",
    config: VBxConfig = VBxConfig(),
    elbo_trace: list | None = None,
):
    """Refine a clustering with the variational HMM described above.

    Returns ``(partition, posteriors)``.  The output never has more states
    than the input: states that end up claiming no frame are dropped.  A
    single-cluster input is returned unchanged.  ``elbo_trace``, when given,
    collects the per-iteration lower bound values.
    """
    from .clustering import Partition  # local import to avoid a cycle

    if isinstance(embeddings, EmbeddingSequence):
        X = embeddings.vectors.astype(float)
        frame_shift = embeddings.window_shift
        time_offset = float(embeddings.windows[0, 0]) if len(embeddings) else 0.0
        rec = embeddings.recording_id
    else:
        X = np.asarray(embeddings, dtype=float)
        frame_shift = 1.0
        time_offset = 0.0
        rec = "recording"
    n, dim = X.shape
    if len(initial.labels) != n:
        raise ValueError("initial partition must label every embedding row")
    if plda.dim != dim:
        raise ValueError("PLDA dimension must match the embeddings")

    n_states = len(initial.clusters)
    if n_states == 1:
        post = PosteriorMatrix(
            rec, np.ones((n, 1)), frame_shift, 1, time_offset=time_offset
        )
        return initial, post

    psi, T = _diagonalize_plda(plda)
    Xt = (X - plda.mean) @ T.T
    v = np.sqrt(psi)
    sum_x2 = (Xt**2).sum(axis=1)
    log_norm = -0.5 * dim * np.log(2.0 * np.pi)
    fa, fb = config.acoustic_scale, config.speaker_prior_scale
    loop = config.loop_probability

    gamma = np.zeros((n, n_states))
    gamma[np.arange(n), initial.labels] = 1.0
    logpi = np.full(n_states, -np.log(n_states))
    logA = np.full((n_states, n_states), np.log((1.0 - loop) / (n_states - 1)))
    np.fill_diagonal(logA, np.log(loop))

    prev_elbo = -np.inf
    for iteration in range(config.max_iterations):
        occupancy = gamma.sum(axis=0)
        stats = gamma.T @ Xt
        precision = 1.0 + (fa / fb) * occupancy[:, None] * psi[None, :]
        post_mean = (fa / fb) * v[None, :] * stats / precision
        expected_sq = (psi[None, :] * (post_mean**2 + 1.0 / precision)).sum(axis=1)
        emission = (
            log_norm
            - 0.5 * sum_x2[:, None]
            + Xt @ (v[None, :] * post_mean).T
            - 0.5 * expected_sq[None, :]
        )
        gamma, log_evidence = _forward_backward(logpi, logA, fa * emission)
        kl = 0.5 * float(
            (1.0 / precision + post_mean**2 - 1.0 + np.log(precision)).sum()
        )
        elbo = log_evidence - fb * kl
        if not np.isfinite(elbo):
            raise NumericalError(f"ELBO became non-finite at iteration {iteration}")
        if elbo < prev_elbo - (1e-8 + 1e-12 * abs(prev_elbo)):
            raise NumericalError(
                f"ELBO decreased at iteration {iteration}: {prev_elbo} -> {elbo}"
            )
        if elbo_trace is not None:
            elbo_trace.append(elbo)
        entry = np.clip(gamma[0], 1e-10, None)
        logpi = np.log(entry / entry.sum())
        if iteration > 0 and elbo - prev_elbo < config.convergence_tolerance:
            prev_elbo = elbo
            break
        prev_elbo = elbo

    hard = gamma.argmax(axis=1)
    used = np.unique(hard)
    gamma = gamma[:, used]
    gamma = gamma / gamma.sum(axis=1, keepdims=True)
    relabel = {int(s): k for k, s in enumerate(used)}
    labels = np.array([relabel[int(s)] for s in hard])
    partition = Partition.from_labels(labels)
    # reorder posterior columns to the partition's canonical cluster order
    col_for_cluster = [int(labels[members[0]]) for members in partition.clusters]
    gamma = gamma[:, col_for_cluster]
    post = PosteriorMatrix(rec, gamma, frame_shift, 1, time_offset=time_offset)
    return partition, post


def assign_overlap(
    annotation: Annotation,
    posteriors: PosteriorMatrix,
    overlaps: OverlapRegions,
) -> Annotation:
    """Add the second most probable speaker inside each overlap region.

    The highest average-posterior speaker is assumed to be the one already
    annotated; the runner-up gets a simultaneous segment spanning the
    region.  Existing speech is never removed.  With fewer than two
    available speakers the annotation is returned unchanged with a warning.
    """
    if posteriors.matrix.shape[1] < 2:
        warnings.warn(
            f"{annotation.recording_id}: only one speaker available, "
            "overlap assignment skipped",
            stacklevel=2,
        )
        return annotation
    centers = posteriors.row_centers()
    added: list[Segment] = []
    for onset, offset in overlaps.intervals:
        rows = np.flatnonzero((centers >= onset) & (centers < offset))
        if rows.size == 0:
            warnings.warn(
                f"{annotation.recording_id}: no posterior frames inside overlap "
                f"region ({onset:.3f}, {offset:.3f})",
                stacklevel=2,
            )
            continue
        avg = posteriors.matrix[rows].mean(axis=0)
        order = np.argsort(-avg, kind="stable")
        second = posteriors.speakers[int(order[1])]
        added.append(Segment(annotation.recording_id, onset, offset - onset, second))
    if not added:
        return annotation
    return annotation.with_segments(tuple(annotation.segments) + tuple(added))


def decode_posteriors(
    posteriors: PosteriorMatrix,
    threshold: float,
    sad,
    median_window: int = 11,
) -> Annotation:
    """Frame decisions from speaker posteriors, rendered as segments.

    Per row: the active set is every speaker with posterior >= threshold;
    speech rows with an empty set get the argmax speaker (ties toward the
    lower column).  Decisions are median-filtered per speaker, silenced
    outside the speech regions, upsampled to the fine grid, and emitted as
    segments clipped to the speech regions.
    """
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"threshold must lie in [0, 1], got {threshold}")
    if median_window < 1 or median_window % 2 == 0:
        raise ValueError(f"median_window must be odd and >= 1, got {median_window}")
    regions = sad if isinstance(sad, ScoringRegions) else speech_timeline(sad)
    M = posteriors.matrix
    n_rows, n_spk = M.shape
    centers = posteriors.row_centers()
    speech = np.zeros(n_rows, dtype=bool)
    for on, off in regions.intervals:
        speech |= (centers >= on) & (centers < off)

    active = M >= threshold
    fallback = speech & ~active.any(axis=1)
    if fallback.any():
        active[fallback, M[fallback].argmax(axis=1)] = True
    active &= speech[:, None]

    if median_window > 1 and n_rows:
        filtered = np.stack(
            [
                scipy.ndimage.median_filter(
                    active[:, k].astype(np.uint8), size=median_window, mode="nearest"
                )
                for k in range(n_spk)
            ],
            axis=1,
        ).astype(bool)
        active = filtered & speech[:, None]

    step = posteriors.row_duration
    segments: list[Segment] = []
    for k in range(n_spk):
        track = active[:, k]
        if not track.any():
            continue
        padded = np.concatenate([[False], track, [False]])
        flips = np.flatnonzero(padded[1:] != padded[:-1])
        for a, b in zip(flips[::2], flips[1::2]):
            onset = posteriors.time_offset + a * step
            offset = posteriors.time_offset + b * step
            segments.append(
                Segment(posteriors.recording_id, onset, offset - onset, posteriors.speakers[k])
            )
    ann = Annotation(posteriors.recording_id, tuple(segments))
    return crop(ann, regions) if regions.intervals else ann
