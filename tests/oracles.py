"""Independent reference implementations used to cross-check the library.

Everything here is deliberately slow and direct: explicit walk enumeration,
permutation search, dense per-frame bookkeeping. Tests compare the fast
library code against these.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.optimize
import scipy.sparse
import scipy.special
import scipy.stats

from diarkit.annotations import Annotation, ScoringRegions, Segment
from diarkit.clustering import Partition, _pair_gain, init_partition, path_integral
from diarkit.embeddings import (
    EmbeddingSequence,
    SyntheticSpec,
    _apply_overlap,
    _sample_turns,
    window_times,
)
from diarkit.metrics import DERReport
from diarkit.scoring import SimilarityMatrix


def _dense(P) -> np.ndarray:
    """P as a dense array: the walk sums below index and multiply it entry
    by entry, which a sparse matrix does through slow per-call dispatch."""
    return P.toarray() if scipy.sparse.issparse(P) else np.asarray(P)


def truncated_path_sum(P: np.ndarray, members, z: float, max_len: int) -> float:
    """Path-integral value by summing walk contributions up to max_len.

    Computes (1/|C|^2) * sum_{l=0..max_len} z^l * 1^T P_C^l 1 with repeated
    matrix-vector products on the restricted transition matrix.
    """
    P = _dense(P)
    members = list(members)
    sub = P[np.ix_(members, members)]
    ones = np.ones(len(members))
    vec = ones.copy()
    total = vec.sum()
    for _ in range(max_len):
        vec = z * (sub @ vec)
        total += vec.sum()
    return float(total) / len(members) ** 2


def truncation_tail_bound(P: np.ndarray, members, z: float, max_len: int) -> float:
    """Upper bound on what truncated_path_sum leaves out.

    Each extra step multiplies the remaining mass by at most z * max row sum
    of the restricted matrix, so the tail is bounded by a geometric series.
    """
    P = _dense(P)
    members = list(members)
    sub = P[np.ix_(members, members)]
    rho = z * float(sub.sum(axis=1).max())
    if rho >= 1.0:
        return math.inf
    n = len(members)
    # after max_len steps the per-row mass is at most rho**(max_len+1)
    return n * rho ** (max_len + 1) / (1.0 - rho) / n**2


def enumerated_walk_sum(P: np.ndarray, members, z: float, max_len: int) -> float:
    """Same quantity as truncated_path_sum via explicit walk enumeration.

    Exponential in max_len; keep the graphs tiny. A walk of length l from i
    contributes z^l times the product of its transition probabilities.
    """
    P = _dense(P)
    members = list(members)
    sub = P[np.ix_(members, members)]
    n = len(members)

    def extend(node: int, weight: float, length: int) -> float:
        total = weight
        if length == max_len:
            return total
        for nxt in range(n):
            p = sub[node, nxt]
            if p > 0:
                total += extend(nxt, weight * z * p, length + 1)
        return total

    return sum(extend(i, 1.0, 0) for i in range(n)) / n**2


def conditional_truncated_path_sum(
    P: np.ndarray, members, union_members, z: float, max_len: int
) -> float:
    """Conditional path integral: walks move through the union's transition
    structure but start and end inside ``members``."""
    P = _dense(P)
    union = list(union_members)
    pos = {v: k for k, v in enumerate(union)}
    sub = P[np.ix_(union, union)]
    indicator = np.zeros(len(union))
    for v in members:
        indicator[pos[v]] = 1.0
    vec = indicator.copy()
    total = float(indicator @ vec)
    acc = vec.copy()
    for _ in range(max_len):
        acc = z * (sub @ acc)
        total += float(indicator @ acc)
    return total / len(list(members)) ** 2


def brute_force_pic_trace(graph, target, z):
    """Quadratic reference: recompute every pairwise affinity each step.

    A cluster pair with no connecting edge in either direction has affinity
    exactly zero (no walk can cross between them), so the reference scores
    such pairs as 0.0 rather than letting roundoff from a needless solve
    decide their order; ties then fall to the smallest index pair, matching
    the documented merge rule.  Each cluster's own path integral is solved
    once, when the cluster is made, and every pair is scored by the
    expression ``affinity`` evaluates, so the values keep its bits.
    """
    P = graph.transition.toarray()
    clusters = [sorted(c) for c in init_partition(graph).clusters]
    own = [path_integral(graph, c, z) for c in clusters]
    trace = []
    while len(clusters) > target:
        best_val = -np.inf
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                a, b = clusters[i], clusters[j]
                if P[np.ix_(a, b)].any() or P[np.ix_(b, a)].any():
                    val = _pair_gain(
                        graph.transition, np.asarray(a), np.asarray(b), z, own[i], own[j]
                    )
                else:
                    val = 0.0
                if val > best_val:
                    best_val = val
                    best = (i, j)
        i, j = best
        trace.append((tuple(clusters[i]), tuple(clusters[j])))
        clusters[i] = sorted(clusters[i] + clusters[j])
        own[i] = path_integral(graph, clusters[i], z)
        del clusters[j], own[j]
    return Partition.from_clusters(clusters), trace


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def groups(self) -> list[list[int]]:
        by_root: dict[int, list[int]] = {}
        for i in range(len(self.parent)):
            by_root.setdefault(self.find(i), []).append(i)
        return sorted(by_root.values(), key=lambda g: g[0])


def knn_graph_by_stable_sort(
    S: np.ndarray, num_neighbors: int, scale: float = 1.0, offset: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Weights and transition of the K-NN graph from a stable full-row sort.

    The selection ``build_knn_graph`` made before it used partial selection,
    kept verbatim: a stable ascending sort of every negated row, diagonal
    masked, whose first K columns are the neighbors.
    """
    n = S.shape[0]
    masked = np.array(S, dtype=float)
    np.fill_diagonal(masked, -np.inf)
    # stable sort on negated scores: equal scores keep index order
    order = np.argsort(-masked, axis=1, kind="stable")
    chosen = np.sort(order[:, :num_neighbors], axis=1)
    rows = np.repeat(np.arange(n), num_neighbors)
    cols = chosen.ravel()
    w = scipy.special.expit(scale * (S[rows, cols] - offset)).reshape(n, num_neighbors)
    W = np.zeros((n, n))
    W[rows, cols] = w.ravel()
    totals = w.sum(axis=1)
    trans = np.empty_like(w)
    positive = totals > 0.0
    trans[positive] = w[positive] / totals[positive, None]
    trans[~positive] = 1.0 / num_neighbors
    P = np.zeros((n, n))
    P[rows, cols] = trans.ravel()
    return W, P


def one_nn_components_by_loop(W: np.ndarray) -> list[list[int]]:
    """Weak components of the 1-NN graph, one vertex at a time.

    Each vertex links to the first maximum of its weight row when that
    weight is positive.
    """
    n = W.shape[0]
    uf = UnionFind(n)
    for i in range(n):
        j = int(np.argmax(W[i]))
        if W[i, j] > 0.0:
            uf.union(i, j)
    return uf.groups()


def best_pair_by_scan(table: np.ndarray) -> tuple[int, int]:
    """First maximal entry of a symmetric affinity table in row-major order
    over the strict upper triangle."""
    n = table.shape[0]
    best = -math.inf
    arg = (0, 1)
    for i in range(n):
        for j in range(i + 1, n):
            if table[i, j] > best:
                best = table[i, j]
                arg = (i, j)
    return arg


def ahc_by_greedy_loop(sim, threshold=None, num_clusters=None) -> Partition:
    """Average linkage by a greedy best-pair scan over an n x n linkage table.

    The ``ahc_cluster`` implementation before the nearest-neighbor chain,
    kept verbatim: each step merges the pair of highest linkage, ties going
    to the lexicographically smallest index pair, and Lance-Williams updates
    the merged row and column in place.
    """
    if (threshold is None) == (num_clusters is None):
        raise ValueError("give exactly one of threshold or num_clusters")
    n = sim.scores.shape[0]
    if num_clusters is not None and not 1 <= num_clusters <= n:
        raise ValueError(f"num_clusters must lie in [1, {n}]")
    if n == 1:
        return Partition.from_labels([0])

    link = sim.scores.astype(float)  # always a copy: the loop overwrites it
    np.fill_diagonal(link, -np.inf)
    active = np.ones(n, dtype=bool)
    sizes = np.ones(n)
    parents = {i: [i] for i in range(n)}
    row_best = link.max(axis=1)
    row_arg = link.argmax(axis=1)
    remaining = n

    stop_count = num_clusters if num_clusters is not None else 1
    while remaining > stop_count:
        i = int(np.argmax(np.where(active, row_best, -np.inf)))
        best = row_best[i]
        if threshold is not None and best < threshold:
            break
        j = int(row_arg[i])
        if j < i:
            i, j = j, i
        # average linkage: merged-to-k linkage is the size-weighted mean
        merged = (sizes[i] * link[i] + sizes[j] * link[j]) / (sizes[i] + sizes[j])
        link[i, :] = merged
        link[:, i] = merged
        link[i, i] = -np.inf
        link[j, :] = -np.inf
        link[:, j] = -np.inf
        sizes[i] += sizes[j]
        parents[i].extend(parents.pop(j))
        active[j] = False
        remaining -= 1
        # refresh cached row maxima wherever the merge could have moved them;
        # row i itself was fully rewritten, so it is always stale
        dirty = active & ((row_arg == i) | (row_arg == j) | (link[:, i] >= row_best))
        dirty[i] = True
        idx = np.flatnonzero(dirty)
        block = link[idx]
        row_best[idx] = block.max(axis=1)
        row_arg[idx] = block.argmax(axis=1)

    return Partition.from_clusters(parents.values())


def ahc_by_nn_chain(scores: np.ndarray, num_clusters: int) -> tuple[tuple[int, ...], ...]:
    """Average linkage by a nearest-neighbor chain, one scalar at a time.

    Distances are the negated scores.  The chain starts at the lowest-index
    live cluster and steps to the nearest neighbor, the lowest index among
    equals, unless the previous chain member is among the nearest; two
    mutual neighbors merge into the higher index's slot.  Merges are then
    sorted by height (stably) and the first n - num_clusters applied.
    """
    n = scores.shape[0]
    dist = [[-float(scores[a, b]) for b in range(n)] for a in range(n)]
    size = [1] * n
    merges = []
    chain: list[int] = []
    for _ in range(n - 1):
        if not chain:
            chain = [next(v for v in range(n) if size[v])]
        while True:
            x = chain[-1]
            y = chain[-2] if len(chain) > 1 else None
            best = dist[x][y] if y is not None else math.inf
            for v in range(n):
                if size[v] and v != x and dist[x][v] < best:
                    best, y = dist[x][v], v
            if len(chain) > 1 and y == chain[-2]:
                break
            chain.append(y)
        del chain[-2:]
        x, y = min(x, y), max(x, y)
        merges.append((best, x, y))
        nx, ny = size[x], size[y]
        size[x], size[y] = 0, nx + ny
        for v in range(n):
            if size[v] and v != y:
                d = (nx * dist[v][x] + ny * dist[v][y]) / (nx + ny)
                dist[v][y] = dist[y][v] = d
    merges.sort(key=lambda m: m[0])
    uf = UnionFind(n)
    for _, x, y in merges[: n - num_clusters]:
        uf.union(x, y)
    return tuple(tuple(c) for c in sorted(sorted(g) for g in uf.groups()))


def joint_gaussian_llr(mean, between, within, xi, xj) -> float:
    """Same/different log-likelihood ratio straight from the generative
    model, via stacked joint Gaussians."""
    d = len(mean)
    joint_mean = np.concatenate([mean, mean])
    total = between + within
    same = np.block([[total, between], [between, total]])
    diff = np.block([[total, np.zeros((d, d))], [np.zeros((d, d)), total]])
    x = np.concatenate([xi, xj])
    log_same = scipy.stats.multivariate_normal.logpdf(x, joint_mean, same)
    log_diff = scipy.stats.multivariate_normal.logpdf(x, joint_mean, diff)
    return float(log_same - log_diff)


def estimate_plda_from_labels(X: np.ndarray, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moment estimates of the two-covariance model from labeled vectors:
    global mean, population covariance of class means, pooled within-class
    covariance. Test fixture, not a library feature."""
    X = np.asarray(X, dtype=float)
    labels = np.asarray(labels)
    mean = X.mean(axis=0)
    class_means = []
    within = np.zeros((X.shape[1], X.shape[1]))
    for lab in np.unique(labels):
        block = X[labels == lab]
        m = block.mean(axis=0)
        class_means.append(m)
        centered = block - m
        within += centered.T @ centered
    within /= X.shape[0]
    cm = np.asarray(class_means) - mean
    between = cm.T @ cm / len(class_means)
    return mean, between, within


def brute_force_best_mapping(shared: np.ndarray) -> float:
    """Maximum total shared mass over injective column assignments, by
    permutation search. shared[i, j] = frames ref i and hyp j have in common."""
    n_ref, n_hyp = shared.shape
    k = min(n_ref, n_hyp)
    best = 0.0
    for rows in itertools.permutations(range(n_ref), k):
        for cols in itertools.permutations(range(n_hyp), k):
            best = max(best, sum(shared[r, c] for r, c in zip(rows, cols)))
    return best


def frame_error_oracle(
    ref_frames: dict[str, set[int]],
    hyp_frames: dict[str, set[int]],
    scored: set[int],
    mapping: dict[str, str],
) -> tuple[float, float, float, float]:
    """Per-frame miss/fa/confusion/total with plain python sets.

    ref_frames/hyp_frames map speaker name to the set of active frame
    indices; mapping sends ref speakers to hyp speakers.
    """
    miss = fa = conf = total = 0
    frames = set()
    for s in ref_frames.values():
        frames |= s
    for s in hyp_frames.values():
        frames |= s
    for t in frames & scored:
        ref_active = {spk for spk, s in ref_frames.items() if t in s}
        hyp_active = {spk for spk, s in hyp_frames.items() if t in s}
        n_ref, n_hyp = len(ref_active), len(hyp_active)
        total += n_ref
        miss += max(0, n_ref - n_hyp)
        fa += max(0, n_hyp - n_ref)
        correct = sum(1 for spk in ref_active if mapping.get(spk) in hyp_active)
        conf += min(n_ref, n_hyp) - correct
    return miss, fa, conf, total


def hmm_posterior_by_enumeration(pi, A, B) -> tuple[np.ndarray, float]:
    """State posteriors and evidence by summing over every state sequence.

    B is the (T, S) emission likelihood table (linear domain). Exponential
    in T, for tiny chains only.
    """
    pi = np.asarray(pi, dtype=float)
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    T, S = B.shape
    gamma = np.zeros((T, S))
    evidence = 0.0
    for seq in itertools.product(range(S), repeat=T):
        p = pi[seq[0]] * B[0, seq[0]]
        for t in range(1, T):
            p *= A[seq[t - 1], seq[t]] * B[t, seq[t]]
        evidence += p
        for t, s in enumerate(seq):
            gamma[t, s] += p
    return gamma / evidence, float(np.log(evidence))


def forward_backward_by_loop(logpi, logA, logB) -> tuple[np.ndarray, float]:
    """State posteriors and log-evidence by the per-frame log-domain
    recursion, one Python step per frame and pass.

    Each step is a max-shifted matrix product, which is exact for a dense,
    strictly positive transition matrix.  Same signature and return value
    as ``reseg._forward_backward``.
    """
    T, S = logB.shape
    A = np.exp(logA)
    alpha = np.empty((T, S))
    alpha[0] = logpi + logB[0]
    for t in range(1, T):
        prev = alpha[t - 1]
        m = prev.max()
        alpha[t] = logB[t] + m + np.log(np.exp(prev - m) @ A)
    m = alpha[-1].max()
    log_evidence = float(m + np.log(np.exp(alpha[-1] - m).sum()))
    beta = np.zeros((T, S))
    for t in range(T - 2, -1, -1):
        nxt = logB[t + 1] + beta[t + 1]
        m = nxt.max()
        beta[t] = m + np.log(A @ np.exp(nxt - m))
    g = alpha + beta
    g -= scipy.special.logsumexp(g, axis=1, keepdims=True)
    return np.exp(g), log_evidence


# ---------------------------------------------------------------------------
# DER, JER and speaker mapping as three separate passes: each function builds
# its own frame grids, region mask and Hungarian assignment, and the DER
# calls the JER, which builds them all again.  The library computes all three
# from one set of grids; these are the reference it must match exactly.

FRAME = 0.01  # scoring grid in seconds


def _frame(t: float) -> int:
    """Snap a time to the frame grid, rounding half-up."""
    return int(math.floor(t * 100.0 + 0.5))


def _speaker_frames(annotation: Annotation, speakers: list[str], n_frames: int) -> np.ndarray:
    grid = np.zeros((len(speakers), n_frames), dtype=bool)
    index = {s: k for k, s in enumerate(speakers)}
    for seg in annotation.segments:
        a, b = _frame(seg.onset), _frame(seg.offset)
        if b > a:
            grid[index[seg.speaker], a:b] = True
    return grid


def _scored_mask(
    reference: Annotation,
    n_frames: int,
    collar: float,
    regions: ScoringRegions | None,
    score_overlap: bool,
    ref_grid: np.ndarray,
    apply_collar: bool = True,
) -> np.ndarray:
    mask = np.zeros(n_frames, dtype=bool)
    if regions is not None:
        for on, off in regions.intervals:
            mask[_frame(on) : _frame(off)] = True
    else:
        mask[:] = True
    if apply_collar and collar > 0.0:
        for seg in reference.segments:
            for boundary in (seg.onset, seg.offset):
                a = max(_frame(boundary - collar), 0)
                b = _frame(boundary + collar)
                mask[a:b] = False
    if not score_overlap:
        mask &= ref_grid.sum(axis=0) < 2
    return mask


def optimal_mapping_by_separate_grids(reference: Annotation, hypothesis: Annotation, regions: ScoringRegions | None = None) -> tuple[tuple[str, str], ...]:
    """One-to-one speaker mapping maximizing total frame agreement.

    Pairs with zero shared time are dropped, so speakers may stay unmapped.
    Speakers are considered in sorted label order, which makes the choice
    among equal-agreement optima deterministic.
    """
    ref_spk = list(reference.speakers())
    hyp_spk = list(hypothesis.speakers())
    if not ref_spk or not hyp_spk:
        return ()
    n_frames = max(_frame(reference.extent()), _frame(hypothesis.extent()), 1)
    R = _speaker_frames(reference, ref_spk, n_frames)
    H = _speaker_frames(hypothesis, hyp_spk, n_frames)
    if regions is not None:
        mask = np.zeros(n_frames, dtype=bool)
        for on, off in regions.intervals:
            mask[_frame(on) : _frame(off)] = True
        R = R & mask
        H = H & mask
    shared = R.astype(np.int64) @ H.astype(np.int64).T
    rows, cols = scipy.optimize.linear_sum_assignment(-shared)
    return tuple(
        (ref_spk[i], hyp_spk[j])
        for i, j in zip(rows, cols)
        if shared[i, j] > 0
    )


def der_by_separate_grids(
    reference: Annotation,
    hypothesis: Annotation,
    collar: float = 0.0,
    regions: ScoringRegions | None = None,
    score_overlap: bool = True,
) -> DERReport:
    """Frame-grid diarization error rate with the optimal speaker mapping.

    ``der = (missed + false_alarm + confusion) / scored_speech`` where
    scored_speech is total reference speaker time in the scored regions.
    An empty scored reference gives der = None (undefined, not zero).
    """
    if collar < 0:
        raise ValueError(f"collar must be >= 0, got {collar}")
    ref_spk = list(reference.speakers())
    hyp_spk = list(hypothesis.speakers())
    n_frames = max(_frame(reference.extent()), _frame(hypothesis.extent()), 1)
    R = _speaker_frames(reference, ref_spk, n_frames)
    H = _speaker_frames(hypothesis, hyp_spk, n_frames)
    scored = _scored_mask(reference, n_frames, collar, regions, score_overlap, R)

    Rs = R[:, scored]
    Hs = H[:, scored]
    shared = Rs.astype(np.int64) @ Hs.astype(np.int64).T
    if shared.size:
        rows, cols = scipy.optimize.linear_sum_assignment(-shared)
        pairs = [(i, j) for i, j in zip(rows, cols) if shared[i, j] > 0]
    else:
        pairs = []
    mapping = tuple((ref_spk[i], hyp_spk[j]) for i, j in pairs)

    n_ref = Rs.sum(axis=0).astype(np.int64)
    n_hyp = Hs.sum(axis=0).astype(np.int64)
    n_correct = np.zeros(Rs.shape[1], dtype=np.int64)
    for i, j in pairs:
        n_correct += Rs[i] & Hs[j]

    missed = float(np.maximum(n_ref - n_hyp, 0).sum()) * FRAME
    false_alarm = float(np.maximum(n_hyp - n_ref, 0).sum()) * FRAME
    confusion = float((np.minimum(n_ref, n_hyp) - n_correct).sum()) * FRAME
    scored_speech = float(n_ref.sum()) * FRAME
    rate = (missed + false_alarm + confusion) / scored_speech if scored_speech > 0 else None
    jaccard = jer_by_separate_grids(reference, hypothesis, regions=regions)
    return DERReport(
        recording_id=reference.recording_id,
        scored_speech=scored_speech,
        missed=missed,
        false_alarm=false_alarm,
        confusion=confusion,
        der=rate,
        jer=jaccard,
        speaker_map=mapping,
    )


def jer_by_separate_grids(
    reference: Annotation,
    hypothesis: Annotation,
    regions: ScoringRegions | None = None,
) -> float | None:
    """Mean per-reference-speaker Jaccard error under the optimal mapping."""
    ref_spk = list(reference.speakers())
    if not ref_spk:
        return None
    hyp_spk = list(hypothesis.speakers())
    n_frames = max(_frame(reference.extent()), _frame(hypothesis.extent()), 1)
    R = _speaker_frames(reference, ref_spk, n_frames)
    H = _speaker_frames(hypothesis, hyp_spk, n_frames)
    if regions is not None:
        mask = np.zeros(n_frames, dtype=bool)
        for on, off in regions.intervals:
            mask[_frame(on) : _frame(off)] = True
        R &= mask
        H &= mask
    if hyp_spk:
        shared = R.astype(np.int64) @ H.astype(np.int64).T
        rows, cols = scipy.optimize.linear_sum_assignment(-shared)
        match = {int(i): int(j) for i, j in zip(rows, cols) if shared[i, j] > 0}
    else:
        match = {}
    errors = []
    for i in range(len(ref_spk)):
        if i not in match:
            errors.append(1.0)
            continue
        h = H[match[i]]
        union = float((R[i] | h).sum())
        inter = float((R[i] & h).sum())
        errors.append(1.0 - inter / union if union > 0 else 1.0)
    return float(np.mean(errors))


def dense_absorb_small_clusters(
    partition: Partition, sim: SimilarityMatrix, min_size: int
) -> Partition:
    """Dense reference for ``absorb_small_clusters``: the same rule, read
    from the whole square score matrix.

    Attach clusters smaller than ``min_size`` to the nearest large one.
    Outlier windows tend to survive agglomeration as one- or two-member
    clusters that say nothing about the speaker count.  Each such cluster
    joins the large cluster with the highest mean similarity to its members,
    measured against the large clusters' original memberships so the result
    does not depend on absorption order; ties pick the earlier cluster.  If
    no cluster reaches ``min_size``, the largest one stands in as the only
    anchor.  With ``min_size`` <= 1 the partition is returned unchanged.
    """
    if min_size <= 1 or len(partition) <= 1:
        return partition
    S = sim.scores
    clusters = [list(c) for c in partition.clusters]
    anchors = [idx for idx, c in enumerate(clusters) if len(c) >= min_size]
    if not anchors:
        biggest = max(len(c) for c in clusters)
        anchors = [next(idx for idx, c in enumerate(clusters) if len(c) == biggest)]
    merged = {idx: list(clusters[idx]) for idx in anchors}
    for idx, members in enumerate(clusters):
        if idx in merged:
            continue
        means = [S[np.ix_(members, clusters[a])].mean() for a in anchors]
        merged[anchors[int(np.argmax(means))]].extend(members)
    return Partition.from_clusters(merged.values())


def label_runs_by_loop(recording_id: str, bounds, labels, names) -> list[Segment]:
    """Segments of the runs of equal labels, by a walk over the rows.

    Row t carries ``labels[t]`` and spans ``bounds[t]`` to ``bounds[t + 1]``.
    A run of label ``None`` makes no segment, nor does a run whose end bound
    is not above its start bound; any other run is one segment named
    ``names[label]``.
    """
    segments = []
    n = len(labels)
    run_start = 0
    for i in range(1, n + 1):
        if i == n or labels[i] != labels[run_start]:
            lab = labels[run_start]
            onset, offset = bounds[run_start], bounds[i]
            if lab is not None and offset > onset:
                segments.append(Segment(recording_id, onset, offset - onset, names[lab]))
            run_start = i
    return segments


def generate_synthetic_by_loop(spec: SyntheticSpec) -> tuple[EmbeddingSequence, Annotation, Annotation | None]:
    """``embeddings.generate_synthetic`` window by window: scan every turn
    for each window centre and draw from the generator one call at a time."""
    rng = np.random.default_rng(spec.seed)
    turns, overlap_regions = _apply_overlap(spec, _sample_turns(spec, rng))
    reference = Annotation(
        spec.recording_id,
        tuple(Segment(spec.recording_id, on, off - on, f"speaker{spk}") for on, off, spk in turns),
    )
    centers = window_times(spec.duration, spec.window_size, spec.window_shift).mean(axis=1)
    vectors = np.empty((len(centers), spec.embedding_dim), dtype=np.float32)
    for i, c in enumerate(centers):
        active = [spk for on, off, spk in turns if on <= c < off]
        if not active:
            draw = rng.normal(0.0, spec.within_std, spec.embedding_dim)
        elif len(active) == 1:
            draw = rng.normal(spec.speaker_means[active[0]], spec.within_std)
        else:
            draws = [rng.normal(spec.speaker_means[k], spec.within_std) for k in active]
            draw = np.mean(draws, axis=0)
        vectors[i] = draw.astype(np.float32)
    seq = EmbeddingSequence(
        recording_id=spec.recording_id,
        vectors=vectors,
        window_size=spec.window_size,
        window_shift=spec.window_shift,
        recording_duration=spec.duration,
    )
    overlap = None
    if overlap_regions:
        overlap = Annotation(
            spec.recording_id,
            tuple(
                Segment(spec.recording_id, on, off - on, "overlap")
                for on, off in overlap_regions
                if off > on
            ),
        )
    return seq, reference, overlap
