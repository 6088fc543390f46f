"""Independent reference implementations used to cross-check the library.

Everything here is deliberately slow and direct: explicit walk enumeration,
permutation search, dense per-frame bookkeeping. Tests compare the fast
library code against these.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.special
import scipy.stats


def truncated_path_sum(P: np.ndarray, members, z: float, max_len: int) -> float:
    """Path-integral value by summing walk contributions up to max_len.

    Computes (1/|C|^2) * sum_{l=0..max_len} z^l * 1^T P_C^l 1 with repeated
    matrix-vector products on the restricted transition matrix.
    """
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
