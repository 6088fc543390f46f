"""Graph-based agglomerative clustering of embedding windows.

The main route builds a k-nearest-neighbor graph, held only as scipy CSR
matrices, whose edge weights are sigmoid-squashed similarity scores, turns
it into a row-stochastic transition matrix P, and greedily merges clusters
by the incremental path integral

    S_C = (1 / |C|^2) * 1' (I - z P_C)^-1 1

where P_C restricts P to the cluster's vertices and z in (0, 1) damps long
paths.  The merge affinity of two clusters is the gain in path integral each
contributes when the other's vertices become reachable:

    A(Ca, Cb) = [S_{Ca|Ca+Cb} - S_Ca] + [S_{Cb|Ca+Cb} - S_Cb]

with the conditional term using the union's transition structure but only
Ca's vertices as path endpoints.  The geometric series converges for z < 1
because P_C has row sums <= 1, so each value is one dense linear solve,
made by one routine: it gathers P_U as a dense block, solves
(I - z P_U) X = E on the vertex set U, one 0/1 column of E per endpoint
set, and sums each column of X over its endpoints.

Greedy merging needs only the best pair at each step, so the merge loop
seldom solves a pair.  It bounds each pair's affinity on both sides.  Its
exactly summed length-2 and length-3 walks through the sparse P are a lower
bound, since every longer walk adds a nonnegative term; a tail bound on the
longer walks, which holds whether or not the length-2 walks are present,
makes the upper bound.  Both allow for the solver's roundoff.  The walks
come from cluster-by-vertex tables that a merge updates by adding rows.  A
pair whose lower bound is above every other pair's entry and the affinity
floor is merged without a solve.
Otherwise a pair is solved exactly only while its bound reaches the best
exact value found so far.  Either way the pair merged is the one a table of
exact values for every pair would give, ties included.  (Path integral and
greedy merge after Zhang, Zhao & Wang, "Agglomerative clustering via
maximum incremental path integral", Pattern Recognition 46(11), 2013.)

A plain average-linkage agglomerative baseline over raw scores provides the
stopping-point estimate (cluster count at a threshold) and a comparison
route.  Average linkage is reducible, so the nearest-neighbor-chain
algorithm builds its dendrogram in O(n^2) time on the condensed upper
triangle (scipy's implementation of D. Muellner, "Modern hierarchical,
agglomerative clustering algorithms", arXiv 1109.2378, 2011).  The tree is
built once per similarity matrix and cut by both the estimate and
``ahc_cluster``.  On ties it can merge in another order than a greedy
best-pair scan; ``ahc_cluster`` states the rule.

Every step reads the scores from the matrix's condensed storage: the k-NN
graph a band of rows at a time, small-cluster absorption one member's row
at a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.csgraph

from .scoring import NumericalError, SimilarityMatrix, sigmoid_weights

__all__ = [
    "AffinityGraph",
    "Partition",
    "PICParams",
    "build_knn_graph",
    "path_integral",
    "conditional_path_integral",
    "affinity",
    "init_partition",
    "pic_cluster",
    "pic_merge_trace",
    "ahc_cluster",
    "estimate_num_speakers",
]


@dataclass(frozen=True)
class AffinityGraph:
    """k-NN graph: nonnegative weights with zero diagonal and the derived
    row-stochastic transition matrix, copied into CSR without explicit zeros."""

    weights: scipy.sparse.csr_matrix
    transition: scipy.sparse.csr_matrix

    def __post_init__(self):
        W = scipy.sparse.csr_matrix(self.weights, dtype=float, copy=True)
        P = scipy.sparse.csr_matrix(self.transition, dtype=float, copy=True)
        for M in (W, P):
            M.sum_duplicates()
            M.eliminate_zeros()
        n = W.shape[0]
        if W.shape != (n, n) or P.shape != (n, n):
            raise ValueError("weights and transition must be square and same size")
        if W.diagonal().any():
            raise ValueError("self-weights must be zero")
        if W.data.min(initial=0.0) < 0.0:
            raise ValueError("edge weights must be nonnegative")
        rowsum = np.asarray(P.sum(axis=1)).ravel()
        if np.abs(rowsum - 1.0).max(initial=0.0) > 1e-9:
            raise ValueError("transition rows must sum to 1")
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "transition", P)

    def __len__(self) -> int:
        return self.weights.shape[0]


@dataclass
class Partition:
    """Disjoint clusters covering vertices 0..n-1.

    Clusters are kept in canonical order (ascending smallest member) and
    ``labels[v]`` is the position of v's cluster in that order.
    """

    labels: np.ndarray
    clusters: tuple[tuple[int, ...], ...]

    @classmethod
    def from_labels(cls, labels) -> "Partition":
        groups: dict[int, list[int]] = {}
        for v, lab in enumerate(np.asarray(labels, dtype=int)):
            groups.setdefault(int(lab), []).append(v)
        return cls.from_clusters(groups.values())

    @classmethod
    def from_clusters(cls, clusters) -> "Partition":
        members = sorted((tuple(sorted(c)) for c in clusters), key=lambda m: m[0])
        size = sum(len(c) for c in members)
        seen = set()
        for cluster in members:
            for v in cluster:
                if v in seen:
                    raise ValueError(f"vertex {v} appears in two clusters")
                seen.add(v)
        if seen != set(range(size)):
            raise ValueError("clusters must cover vertices 0..n-1 exactly")
        labels = np.empty(size, dtype=int)
        for idx, cluster in enumerate(members):
            for v in cluster:
                labels[v] = idx
        return cls(labels=labels, clusters=tuple(members))

    def __len__(self) -> int:
        return len(self.clusters)


@dataclass(frozen=True)
class PICParams:
    """Knobs for path-integral clustering.

    ``damping`` is the z in the path integral.  The method does not dictate
    it, so it lives here as plain configuration (default 0.01).

    ``affinity_floor`` stops merging early when the best pair's affinity is
    at or below it, even with more than ``target_clusters`` clusters left.
    Between graph components with no connecting walks the affinity is zero
    up to roundoff, so forcing merges past that point picks pairs at random;
    a small positive floor (well above cancellation noise, well below any
    genuine walk contribution) turns that into an early stop.  The default
    of -inf never stops early.
    """

    damping: float = 0.01
    target_clusters: int = 1
    affinity_floor: float = float("-inf")

    def __post_init__(self):
        if not 0.0 < self.damping < 1.0:
            raise ValueError(f"damping must lie in (0, 1), got {self.damping}")
        if self.target_clusters < 1:
            raise ValueError("target_clusters must be >= 1")


_ROW_BLOCK = 256


def build_knn_graph(
    sim: SimilarityMatrix,
    num_neighbors: int,
    scale: float = 1.0,
    offset: float = 0.0,
) -> AffinityGraph:
    """Keep each row's K highest-similarity neighbors, sigmoid-squash them.

    The neighbors are the K highest off-diagonal scores of the row; among
    scores equal to the K-th highest, the lowest indices are kept, so the
    set is the first K of a stable descending sort.  Each row is selected
    with ``np.argpartition``, 256 rows at a time as the matrix's ``rows``
    rebuilds them; only rows where a score equal to the K-th highest is left
    out are sorted (stably) to settle the tie.  Rows whose kept weights all
    underflow to zero fall back to a uniform transition over their K chosen
    neighbors, keeping the transition matrix row-stochastic.
    """
    n = len(sim)
    if n < 2:
        raise ValueError("graph construction needs at least 2 vertices")
    if not 1 <= num_neighbors <= n - 1:
        raise ValueError(f"num_neighbors must lie in [1, {n - 1}], got {num_neighbors}")
    k = num_neighbors
    chosen = np.empty((n, k), dtype=np.intp)
    picked = np.empty((n, k))
    for r0 in range(0, n, _ROW_BLOCK):
        r1 = min(r0 + _ROW_BLOCK, n)
        # ascending order of negated scores is descending order of scores;
        # the diagonal goes last
        neg = sim.rows(r0, r1)
        np.negative(neg, out=neg)
        neg[np.arange(r1 - r0), np.arange(r0, r1)] = np.inf
        part = np.argpartition(neg, k - 1, axis=1)[:, :k]
        part_neg = np.take_along_axis(neg, part, axis=1)
        kth = part_neg.max(axis=1, keepdims=True)
        kept_ties = np.count_nonzero(part_neg == kth, axis=1)
        tied = np.flatnonzero(np.count_nonzero(neg == kth, axis=1) > kept_ties)
        if tied.size:
            part[tied] = np.argsort(neg[tied], axis=1, kind="stable")[:, :k]
        part.sort(axis=1)
        chosen[r0:r1] = part
        # negation is exact: these are the chosen scores' own bits
        np.negative(np.take_along_axis(neg, part, axis=1), out=picked[r0:r1])
    w = sigmoid_weights(picked, scale=scale, offset=offset)
    totals = w.sum(axis=1)
    trans = np.empty_like(w)
    positive = totals > 0.0
    trans[positive] = w[positive] / totals[positive, None]
    trans[~positive] = 1.0 / k
    edges = (chosen.ravel(), np.arange(0, n * k + 1, k))
    return AffinityGraph(
        weights=scipy.sparse.csr_matrix((w.ravel(), *edges), shape=(n, n)),
        transition=scipy.sparse.csr_matrix((trans.ravel(), *edges), shape=(n, n)),
    )


def _path_sums(P, union: np.ndarray, z: float, ends: np.ndarray) -> list[float]:
    """Solve (I - z P_U) X = ends on P restricted to ``union`` with one dense
    solve; for each column of the boolean (|union|, k) matrix ``ends``,
    return the sum of X over that column's endpoints divided by their count
    squared."""
    sub = P[union][:, union].toarray()
    try:
        x = np.linalg.solve(np.eye(len(union)) - z * sub, ends.astype(float))
    except np.linalg.LinAlgError as exc:  # unreachable for z < 1, row sums <= 1
        raise NumericalError(f"path-integral solve failed: {exc}") from exc
    return [col[picked].sum() / np.count_nonzero(picked) ** 2 for col, picked in zip(x.T, ends.T)]


def path_integral(graph: AffinityGraph, members, z: float) -> float:
    """Damped sum over all intra-cluster paths, normalized by |C|^2.

    The zero-length paths contribute |C|, so every cluster scores at least
    1 / |C| and an isolated singleton scores exactly 1.
    """
    members = np.asarray(sorted(members), dtype=int)
    if members.size == 0:
        raise ValueError("cluster must be non-empty")
    ends = np.ones((len(members), 1), dtype=bool)
    return float(_path_sums(graph.transition, members, z, ends)[0])


def conditional_path_integral(graph: AffinityGraph, members, union_members, z: float) -> float:
    """Path integral of a cluster when paths may traverse the whole union.

    Endpoints stay inside ``members``; the transition structure is the
    union's.  Normalization stays 1 / |members|^2.
    """
    members = set(int(v) for v in members)
    union = np.asarray(sorted(int(v) for v in union_members), dtype=int)
    if not members.issubset(union):
        raise ValueError("cluster must be a subset of the union")
    ends = np.isin(union, list(members))[:, None]
    return float(_path_sums(graph.transition, union, z, ends)[0])


def _pair_gain(P, a: np.ndarray, b: np.ndarray, z: float, pi_a: float, pi_b: float) -> float:
    """Exact merge affinity of disjoint sorted clusters given their own path
    integrals: one solve on the union with both endpoint sets."""
    union = np.union1d(a, b)
    in_a = np.zeros(len(union), dtype=bool)
    in_a[np.searchsorted(union, a)] = True
    cond_a, cond_b = _path_sums(P, union, z, np.column_stack([in_a, ~in_a]))
    return float((cond_a - pi_a) + (cond_b - pi_b))


def affinity(graph: AffinityGraph, members_a, members_b, z: float) -> float:
    """Merge affinity: the total path-integral gain of joining two clusters.

    Symmetric by construction.  When no edges connect the clusters the
    conditional terms collapse to the unconditional ones and the affinity
    is exactly zero.
    """
    a = np.asarray(sorted(members_a), dtype=int)
    b = np.asarray(sorted(members_b), dtype=int)
    if np.intersect1d(a, b).size:
        raise ValueError("clusters must be disjoint")
    return _pair_gain(
        graph.transition, a, b, z, path_integral(graph, a, z), path_integral(graph, b, z)
    )


def init_partition(graph: AffinityGraph) -> Partition:
    """Weakly connected components of the directed 1-nearest-neighbor graph.

    Every vertex points at its highest-weight neighbor (ties toward the
    lower index); a vertex with no positive weights keeps no outgoing edge.
    """
    W = graph.weights
    # stored weights are positive and columns ascend: a row's first stored max is its best
    counts = np.diff(W.indptr)
    rows = np.flatnonzero(counts)
    top = np.maximum.reduceat(W.data, W.indptr[rows])
    hits = np.flatnonzero(W.data == np.repeat(top, counts[rows]))
    best = W.indices[hits[np.searchsorted(hits, W.indptr[rows])]]
    adj = scipy.sparse.coo_matrix((np.ones(len(rows)), (rows, best)), shape=W.shape).tocsr()
    _, labels = scipy.sparse.csgraph.connected_components(adj, directed=True, connection="weak")
    return Partition.from_labels(labels)


class _MergeEngine:
    """Greedy merge loop that merges a certified winner without a solve and
    otherwise solves exactly only the pairs that can win.

    Clusters stay ordered by smallest member; ties on affinity pick the
    lexicographically smallest position pair.  A cluster keeps the id of its
    initial position, and merging j into i < j keeps i's smallest member, so
    the order of the live ids is the order of the current positions and the
    first maximum of the id-indexed table in row-major order is that pair.

    The table holds, for each pair, either its exact affinity (the
    :func:`_pair_gain` solve that :func:`affinity` makes, so the same bits)
    or an upper bound on it; a second table holds a lower bound beside each
    upper one.  Each entry is at least the computed affinity of its pair.
    Each step takes the table's first maximal entry.  When that entry is a
    bound whose pair's lower bound is strictly above every other entry and
    above the affinity floor, the pair's computed affinity is the unique
    maximum of a table of exact values, so it is merged unsolved.  When the
    lower bound does not decide, the pair is solved, the exact value
    replaces the bound and the step looks again.  The step also ends on an
    exact value that every remaining bound stays below, or that an equal
    bound could only tie from later in row-major order, so the chosen pair
    is the one a table of exact values for every pair gives.  Exact values
    stay cached until a merge rewrites their row.

    The bounds come from walks.  The affinity of (a, b) sums, over every walk
    of length l >= 2 inside a + b that starts and ends in the same cluster
    and visits the other, z^l times the walk's transition probabilities,
    divided by the endpoint cluster's size squared.  Lengths 2 and 3 are
    summed exactly; every term is nonnegative, so that sum is the lower
    bound.  A longer walk crosses a -> b and later b -> a; for fixed
    crossing steps its mass is at most |a| f_ab f_ba z^l, where f_ab is the
    most any vertex of a sends into b, and there are C(l, 2) crossing-step
    pairs, so lengths l >= 4 add at most
    |a| f_ab f_ba z^4 (6 - 8z + 3z^2) / (1 - z)^3, and never more than
    |a| z^4 / (1 - z).  No term assumes the length-2 walks dominate: they are
    absent when the clusters' edges all run one way.  Last, both bounds
    allow for roundoff in the computed value: for z < 1/2, I - z P_C is row
    diagonally dominant with margin 1 - z, so LU makes no row exchanges and
    each solution entry is off by at most a small multiple of
    (|a| + |b|) eps / (1 - z)^2.  That slack,
    (1/|a| + 1/|b|) 64 eps (|a| + |b|) / (1 - z)^2, is
    taken off the walk sum times 1 - 1e-9 for the lower bound and added to
    the walk and tail sum times 1 + 1e-9 for the upper one.  For z >= 1/2 no
    bound is claimed (the lower bound is -inf), nothing is certified and
    every connected pair is solved.  Pairs with no edge between them in
    either direction are exactly zero and never solved.

    The walk sums live in tables over the current partition.  With L the
    n x m cluster indicator, ``out = L^T P`` (what each cluster sends to
    each vertex) and ``into = L^T P^T`` (what each vertex sends into each
    cluster) are dense m x n; ``gain[a, b]`` is the length-2/3 walk mass from
    a back into a through b, ``peak[a, b]`` is f_ab and ``conn[a, b]`` says
    whether an edge joins a and b.  :meth:`_start` builds them from sparse
    products.  Merging j into i adds rows j of ``out`` and ``into`` to rows
    i.  Walks from the merged cluster C are quadratic in C, so row i of
    ``gain`` is recomputed; walks from another cluster k through C are
    linear in C, so column i gains column j and the length-3 walks
    k -> u -> w -> k along the edges u -> w between the two.  ``peak`` and
    ``conn`` take the larger of rows i and j, and column i of ``peak`` is
    read off ``into``.  The state is 2 m n floats and three m x m tables;
    m <= n / 2 when every vertex has a positive weight, since each initial
    component then holds a vertex and its nearest neighbor.
    """

    def __init__(self, graph: AffinityGraph, z: float):
        self.graph = graph
        self.z = z
        self._P = P = graph.transition
        n = P.shape[0]
        self._PT = P.T.tocsr()
        self._src = np.repeat(np.arange(n), np.diff(P.indptr))
        # positions in P of the entries touching each vertex: its out-entries,
        # then its in-entries
        ends = np.concatenate([self._src, P.indices])
        self._touching = np.argsort(ends, kind="stable") % len(P.data)
        self._touch_ptr = np.concatenate([[0], np.cumsum(np.bincount(ends, minlength=n))])
        self._z2, self._z3 = z**2, z**3
        self._cross_tail = z**4 * (6.0 - 8.0 * z + 3.0 * z * z) / (1.0 - z) ** 3
        self._plain_tail = z**4 / (1.0 - z)
        self._roundoff = 64.0 * np.finfo(float).eps / (1.0 - z) ** 2

    def _start(self, partition: Partition):
        """The tables for ``partition``, from sparse products."""
        P, PT, labels = self._P, self._PT, partition.labels.copy()
        n, m = len(labels), len(partition)
        self.labels = labels
        self.clusters: list[np.ndarray | None] = [np.asarray(c) for c in partition.clusters]
        self.sizes = np.array([len(c) for c in self.clusters], dtype=float)
        # P's within-cluster entries, turned on as merges make cross entries inner
        same = labels[self._src] == labels[P.indices]
        self.intra = scipy.sparse.csr_matrix(
            (np.where(same, P.data, 0.0), P.indices, P.indptr), shape=P.shape
        )

        def indicator(weights):  # L with row v scaled by weights[v]
            return scipy.sparse.csr_matrix((weights, labels, np.arange(n + 1)), shape=(n, m))

        L = indicator(np.ones(n))
        # vertex-by-cluster transposes of out and into, then the middle steps of
        # the length-3 walks: C -> C -> v, and v -> k -> C or v -> C -> C
        out_t, into_t = PT @ L, P @ L
        out2_t = PT @ indicator(np.bincount(P.indices, self.intra.data, n))
        into2_t = self.intra @ into_t + P @ indicator(np.bincount(self._src, self.intra.data, n))
        walk = out_t.multiply(into_t) * self._z2 + (
            out_t.multiply(into2_t) + out2_t.multiply(into_t)
        ) * self._z3
        self.gain = (L.T @ walk).T.toarray()
        rows = into_t.tocoo()
        self.peak = np.zeros((m, m))
        np.maximum.at(self.peak, (labels[rows.row], rows.col), rows.data)
        self.conn = (L.T @ out_t).toarray() > 0.0
        self.conn |= self.conn.T
        # column-major, so that a merge gathers whole columns
        self.out = out_t.toarray().T
        self.into = into_t.toarray().T

    def _merge(self, i: int, j: int):
        """Merge cluster j into cluster i < j and update the tables."""
        P, labels, out, into, gain = self._P, self.labels, self.out, self.into, self.gain
        a, b = self.clusters[i], self.clusters[j]
        small, other = (a, j) if len(a) <= len(b) else (b, i)
        # the entries of P between the pair: those touching the smaller one
        # whose far end lies in the other
        pos = self._touching[_csr_rows(self._touch_ptr, small)]
        pos = pos[(labels[self._src[pos]] == other) | (labels[P.indices[pos]] == other)]
        src, dst, p = self._src[pos], P.indices[pos], P.data[pos]
        # k -> u -> w -> k along the cross entries u -> w, n/4 entries at a
        # time so that the gathered columns stay within m n / 4 floats
        cross = np.zeros(len(gain))
        block = max(1, len(labels) // 4)
        for e in range(0, len(p), block):
            cross += (out[:, src[e : e + block]] * into[:, dst[e : e + block]]) @ p[e : e + block]
        gain[:, i] += gain[:, j] + self._z3 * cross
        self.intra.data[pos] = p
        out[i] += out[j]
        into[i] += into[j]
        labels[b] = i
        members = np.sort(np.concatenate([a, b]))
        self.clusters[i], self.clusters[j] = members, None
        self.sizes[i] = len(members)
        # walks from C back into C, through the cluster of the middle vertex
        inside = labels == i
        sends, gets = out[i], into[i]
        sends2 = self._PT @ np.where(inside, sends, 0.0)  # C -> C -> v
        gets2 = self.intra @ gets + P @ np.where(inside, gets, 0.0)  # v -> k -> C, v -> C -> C
        walk = sends * gets * self._z2 + (sends * gets2 + sends2 * gets) * self._z3
        gain[i] = np.bincount(labels, walk, len(gain))
        np.maximum(self.peak[i], self.peak[j], out=self.peak[i])
        self.peak[:, i] = 0.0
        np.maximum.at(self.peak[:, i], labels, gets)
        self.conn[i] |= self.conn[j]
        self.conn[:, i] |= self.conn[:, j]

    def _bounds(self, gain_ab, gain_ba, f_ab, f_ba, size_a, size_b):
        """Lower and upper bounds on the computed affinities of pairs (a, b).

        The walk sums add nonnegative terms, so the 1e-9 relative margin
        covers their own rounding.
        """
        if self.z >= 0.5:
            shape = np.shape(gain_ab)
            return np.full(shape, -np.inf), np.full(shape, np.inf)
        inv = 1.0 / size_a + 1.0 / size_b
        tail = np.minimum(f_ab * f_ba * self._cross_tail, self._plain_tail) * inv
        walks = gain_ab / size_a**2 + gain_ba / size_b**2
        slack = inv * self._roundoff * (size_a + size_b)
        return walks * (1.0 - 1e-9) - slack, (walks + tail) * (1.0 + 1e-9) + slack

    def run(self, initial: Partition, target: int, affinity_floor: float = float("-inf")):
        trace: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        m = len(initial)
        if m <= target:
            if m < target:
                warnings.warn(
                    f"target of {target} clusters exceeds the {m} initial "
                    "components; returning the initial partition",
                    stacklevel=3,
                )
            return Partition.from_clusters(initial.clusters), trace
        self._start(initial)
        clusters, sizes, conn = self.clusters, self.sizes, self.conn
        dead = np.zeros(m, dtype=bool)
        pi: list[float | None] = [None] * m

        def pi_of(k: int) -> float:
            if pi[k] is None:
                pi[k] = path_integral(self.graph, clusters[k], self.z)
            return pi[k]

        low, upper = self._bounds(
            self.gain, self.gain.T, self.peak, self.peak.T, sizes[:, None], sizes[None, :]
        )
        table = np.where(conn, upper, 0.0)
        table[np.tril_indices(m)] = -np.inf
        lower = np.where(conn, low, 0.0)
        exact = ~conn

        for _ in range(m - target):
            while True:
                i, j = divmod(int(np.argmax(table)), m)
                if exact[i, j]:
                    break
                bound, table[i, j] = table[i, j], -np.inf
                rest = table.max()
                table[i, j] = bound
                if lower[i, j] > max(rest, affinity_floor):
                    break  # certified: the unique exact maximum, above the floor
                table[i, j] = _pair_gain(
                    self._P, clusters[i], clusters[j], self.z, pi_of(i), pi_of(j)
                )
                exact[i, j] = True
            if exact[i, j] and table[i, j] <= affinity_floor:
                break
            trace.append((tuple(clusters[i].tolist()), tuple(clusters[j].tolist())))
            self._merge(i, j)
            pi[i] = None
            dead[j] = True
            table[j, :] = table[:, j] = -np.inf

            touches = conn[i]
            low, upper = self._bounds(
                self.gain[i], self.gain[:, i], self.peak[i], self.peak[:, i], sizes[i], sizes
            )
            row = np.where(dead, -np.inf, np.where(touches, upper, 0.0))
            table[:i, i] = row[:i]
            table[i, i + 1 :] = row[i + 1 :]
            row = np.where(touches, low, 0.0)
            lower[:i, i] = row[:i]
            lower[i, i + 1 :] = row[i + 1 :]
            exact[:i, i] = ~touches[:i]
            exact[i, i + 1 :] = ~touches[i + 1 :]
        return Partition.from_clusters([c.tolist() for c in clusters if c is not None]), trace


def _csr_rows(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Entry positions of the given CSR rows, in row order."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    return np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)


def pic_cluster(graph: AffinityGraph, params: PICParams) -> Partition:
    """Greedy path-integral merging from the nearest-neighbor components.

    Merges the maximum-affinity pair until ``params.target_clusters``
    remain, or until the best affinity drops to ``params.affinity_floor``.
    If the initial partition already has at most that many components it is
    returned unchanged (with a warning when strictly fewer).
    Deterministic: identical inputs give identical labels.
    """
    return pic_merge_trace(graph, params)[0]


def pic_merge_trace(graph: AffinityGraph, params: PICParams):
    """Like :func:`pic_cluster` but also returns the ordered merge pairs."""
    return _MergeEngine(graph, params.damping).run(
        init_partition(graph), params.target_clusters, params.affinity_floor
    )


def ahc_cluster(
    sim: SimilarityMatrix,
    threshold: float | None = None,
    num_clusters: int | None = None,
) -> Partition:
    """Average-linkage agglomerative clustering on raw similarity scores.

    Exactly one stopping rule must be given: merge while the best pair's
    linkage is >= threshold, or merge until ``num_clusters`` remain.

    The dendrogram is the matrix's ``average_linkage``: scipy's
    nearest-neighbor-chain linkage on the condensed negated scores, built
    once per matrix.  Negation is exact, so each merge height is the
    negated similarity-space linkage.  The tree is cut by merge order:
    the merges sorted by height (stably), then the first ones whose linkage
    reaches the threshold, or the first n - ``num_clusters``.  Ties follow
    the chain.  A cluster's index is its largest member; the chain starts at
    the live cluster of lowest index and steps to the best-linked neighbor
    of lowest index, staying with the previous chain member when that one is
    among the best; equal-linkage merges keep the order the chain made them
    in.  So on tied linkages the partition can differ from a greedy scan
    that merges the lexicographically smallest best pair first.
    """
    if (threshold is None) == (num_clusters is None):
        raise ValueError("give exactly one of threshold or num_clusters")
    n = len(sim)
    if num_clusters is not None and not 1 <= num_clusters <= n:
        raise ValueError(f"num_clusters must lie in [1, {n}]")
    if n == 1:
        return Partition.from_labels([0])

    tree = sim.average_linkage
    if threshold is not None:
        merges = int(np.searchsorted(tree[:, 2], -threshold, side="right"))
    else:
        merges = n - num_clusters
    # merge r joins its two children into node n + r
    children = tree[:merges, :2].astype(np.intp).ravel()
    parents = np.repeat(np.arange(n, n + merges), 2)
    joins = scipy.sparse.coo_matrix(
        (np.ones(2 * merges), (children, parents)), shape=(n + merges, n + merges)
    )
    _, labels = scipy.sparse.csgraph.connected_components(joins, directed=False)
    return Partition.from_labels(labels[:n])


def estimate_num_speakers(
    sim: SimilarityMatrix, threshold: float, min_cluster_size: int = 1
) -> int:
    """Cluster count where average-linkage merging stops at the threshold.

    Clusters smaller than ``min_cluster_size`` are not counted (outlier
    windows otherwise inflate the estimate), but the result is always at
    least 1.  The tree is the one ``ahc_cluster`` cuts for the same matrix.
    """
    part = ahc_cluster(sim, threshold=threshold)
    count = sum(1 for c in part.clusters if len(c) >= min_cluster_size)
    return max(1, count)


def absorb_small_clusters(
    partition: Partition, sim: SimilarityMatrix, min_size: int
) -> Partition:
    """Attach clusters smaller than ``min_size`` to the nearest large one.

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
    clusters = [list(c) for c in partition.clusters]
    anchors = [idx for idx, c in enumerate(clusters) if len(c) >= min_size]
    if not anchors:
        biggest = max(len(c) for c in clusters)
        anchors = [next(idx for idx, c in enumerate(clusters) if len(c) == biggest)]
    merged = {idx: list(clusters[idx]) for idx in anchors}
    for idx, members in enumerate(clusters):
        if idx in merged:
            continue
        rows = np.concatenate([sim.rows(v, v + 1) for v in members])
        means = [rows[:, clusters[a]].mean() for a in anchors]
        merged[anchors[int(np.argmax(means))]].extend(members)
    return Partition.from_clusters(merged.values())
