"""Tests for k-NN graph construction and both clustering routes."""

import itertools
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit.clustering import (
    AffinityGraph,
    Partition,
    PICParams,
    absorb_small_clusters,
    affinity,
    ahc_cluster,
    build_knn_graph,
    conditional_path_integral,
    estimate_num_speakers,
    init_partition,
    path_integral,
    pic_cluster,
    pic_merge_trace,
)
from diarkit.clustering import _MergeEngine, _pair_gain
from diarkit.scoring import SimilarityMatrix

from oracles import (
    UnionFind,
    ahc_by_greedy_loop,
    ahc_by_nn_chain,
    brute_force_pic_trace,
    conditional_truncated_path_sum,
    dense_absorb_small_clusters,
    enumerated_walk_sum,
    knn_graph_by_stable_sort,
    one_nn_components_by_loop,
    truncated_path_sum,
    truncation_tail_bound,
)


def plda_matrix(rng, n, spread=3.0):
    raw = rng.normal(scale=spread, size=(n, n))
    return SimilarityMatrix("rec", 0.5 * (raw + raw.T), kind="plda")


def graph_from_edges(n, edges):
    """Unit-weight undirected graph with uniform transitions per row."""
    W = np.zeros((n, n))
    for a, b in edges:
        W[a, b] = W[b, a] = 1.0
    P = W / W.sum(axis=1, keepdims=True)
    return AffinityGraph(weights=W, transition=P)


def random_graph(rng, n, num_neighbors=None):
    sim = plda_matrix(rng, n)
    k = num_neighbors if num_neighbors is not None else int(rng.integers(1, n))
    return build_knn_graph(sim, num_neighbors=k)


# ---------------------------------------------------------------------------
# graph construction


def test_affinity_graph_validation():
    eye = np.eye(2)
    with pytest.raises(ValueError, match="square"):
        AffinityGraph(weights=np.zeros((2, 3)), transition=eye)
    with pytest.raises(ValueError, match="self-weights"):
        AffinityGraph(weights=np.eye(2), transition=eye)
    with pytest.raises(ValueError, match="nonnegative"):
        AffinityGraph(weights=np.array([[0.0, -1.0], [1.0, 0.0]]), transition=eye)
    with pytest.raises(ValueError, match="sum to 1"):
        AffinityGraph(
            weights=np.array([[0.0, 1.0], [1.0, 0.0]]),
            transition=np.full((2, 2), 0.3),
        )


def test_build_knn_graph_bounds():
    sim = plda_matrix(np.random.default_rng(0), 5)
    with pytest.raises(ValueError, match="num_neighbors"):
        build_knn_graph(sim, num_neighbors=0)
    with pytest.raises(ValueError, match="num_neighbors"):
        build_knn_graph(sim, num_neighbors=5)
    single = SimilarityMatrix("rec", np.zeros((1, 1)), kind="plda")
    with pytest.raises(ValueError, match="at least 2"):
        build_knn_graph(single, num_neighbors=1)


def test_knn_k1_keeps_argmax_neighbor_only():
    scores = np.array(
        [
            [0.0, 3.0, 1.0, 2.0],
            [3.0, 0.0, 0.5, 2.5],
            [1.0, 0.5, 0.0, 4.0],
            [2.0, 2.5, 4.0, 0.0],
        ]
    )
    g = build_knn_graph(SimilarityMatrix("rec", scores, kind="plda"), num_neighbors=1)
    W, P = g.weights.toarray(), g.transition.toarray()
    for i in range(4):
        nonzero = np.flatnonzero(W[i])
        row = scores[i].copy()
        row[i] = -np.inf
        assert nonzero.tolist() == [int(np.argmax(row))]
        assert P[i, nonzero[0]] == 1.0


def test_knn_full_density_and_row_sums():
    rng = np.random.default_rng(1)
    sim = plda_matrix(rng, 6)
    g = build_knn_graph(sim, num_neighbors=5)
    W, P = g.weights.toarray(), g.transition.toarray()
    off_diag = ~np.eye(6, dtype=bool)
    assert np.all(W[off_diag] > 0.0)
    assert np.all(np.diag(W) == 0.0)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)


def test_knn_tie_breaks_toward_lower_index():
    scores = np.array(
        [
            [0.0, 2.0, 2.0, 1.0],
            [2.0, 0.0, 1.0, 1.0],
            [2.0, 1.0, 0.0, 1.0],
            [1.0, 1.0, 1.0, 0.0],
        ]
    )
    g = build_knn_graph(SimilarityMatrix("rec", scores, kind="plda"), num_neighbors=1)
    W = g.weights.toarray()
    assert np.flatnonzero(W[0]).tolist() == [1]
    assert np.flatnonzero(W[3]).tolist() == [0]


def test_knn_uniform_fallback_on_underflow():
    # scores so low every sigmoid weight underflows to exactly zero
    scores = np.full((4, 4), -1e6)
    np.fill_diagonal(scores, 0.0)
    g = build_knn_graph(SimilarityMatrix("rec", scores, kind="plda"), num_neighbors=2)
    assert np.all(g.weights.toarray() == 0.0)
    for i in range(4):
        row = g.transition.toarray()[i]
        assert np.count_nonzero(row) == 2
        np.testing.assert_allclose(row[row > 0], 0.5)


def test_knn_stores_no_underflowed_weights():
    # a weight that underflows to zero is not an edge: no stored entry, no
    # 1-NN link, no walk through it
    scores = np.full((4, 4), -1e6)
    np.fill_diagonal(scores, 0.0)
    g = build_knn_graph(SimilarityMatrix("rec", scores, kind="plda"), num_neighbors=2)
    assert g.weights.nnz == 0 and g.transition.nnz == 8
    assert init_partition(g).clusters == ((0,), (1,), (2,), (3,))
    scores[0, 1] = scores[1, 0] = scores[2, 3] = scores[3, 2] = 1.0
    g = build_knn_graph(SimilarityMatrix("rec", scores, kind="plda"), num_neighbors=3)
    assert g.weights.nnz == g.transition.nnz == 4


def test_affinity_graph_canonicalizes_sparse_input():
    # row 0 has unsorted columns with a duplicate that ties column 1 with
    # column 2; row 1 stores an explicit zero; row 2 stores nothing
    W = scipy.sparse.csr_matrix(
        (np.array([1.0, 0.5, 0.5, 1.0, 0.0]), np.array([2, 1, 1, 0, 2]), np.array([0, 3, 5, 5])),
        shape=(3, 3),
    )
    P = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    g = AffinityGraph(weights=W, transition=P)
    assert g.weights.nnz == 3
    assert np.array_equal(g.weights.toarray(), [[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert W.nnz == 5 and W.indices.tolist() == [2, 1, 1, 0, 2]  # the input is not changed
    assert init_partition(g).clusters == ((0, 1), (2,))


def test_knn_selection_matches_stable_sort_reference():
    rng = np.random.default_rng(41)
    cases = []
    for n in (2, 3, 40, 257, 700):
        raw = rng.normal(scale=3.0, size=(n, n))
        random = 0.5 * (raw + raw.T)
        cases += [("random", random), ("ties", np.round(2.0 * random) / 2.0)]
    cases.append(("equal", np.full((300, 300), 0.25)))
    # a few distinct values: every row ties across block boundaries
    raw = rng.integers(0, 3, size=(600, 600)).astype(float)
    cases.append(("three-valued", np.maximum(raw, raw.T)))
    for name, scores in cases:
        n = scores.shape[0]
        sim = SimilarityMatrix("rec", scores, kind="plda")
        for k in sorted({1, min(30, n - 1), n - 1}):
            for scale, offset in ((1.0, 0.0), (0.7, 1.5)):
                g = build_knn_graph(sim, num_neighbors=k, scale=scale, offset=offset)
                W, P = knn_graph_by_stable_sort(sim.scores, k, scale, offset)
                assert np.array_equal(g.weights.toarray(), W), (name, n, k)
                assert np.array_equal(g.transition.toarray(), P), (name, n, k)


def test_build_knn_graph_allocates_a_few_row_bands():
    # the graph is built in CSR from the (n, K) selection: no n x n W or P,
    # and the scores are read 256 rows at a time from the condensed storage.
    # Alive at the peak: the band's rows, argpartition's index array, the
    # outputs and cache-sized gathers, about 3.5 bands in all.
    n = 2000
    sim = plda_matrix(np.random.default_rng(44), n)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        g = build_knn_graph(sim, num_neighbors=30)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert g.weights.nnz == g.transition.nnz == n * 30
    assert peak < 4.5 * 256 * n * 8


# ---------------------------------------------------------------------------
# path integrals against enumeration oracles


def test_oracle_self_consistency_dp_vs_dfs():
    # the mat-vec truncation and the explicit DFS enumeration are the same sum
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        g = random_graph(rng, n)
        members = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        z = float(rng.uniform(0.1, 0.9))
        dp = truncated_path_sum(g.transition, members, z, max_len=7)
        dfs = enumerated_walk_sum(g.transition, members, z, max_len=7)
        assert dp == pytest.approx(dfs, abs=1e-12)


def test_path_integral_two_node_closed_form():
    g = AffinityGraph(
        weights=np.array([[0.0, 1.0], [1.0, 0.0]]),
        transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
    )
    # geometric series: value = 1 / (2 (1 - z))
    assert path_integral(g, [0, 1], 0.5) == pytest.approx(1.0, abs=1e-12)
    assert path_integral(g, [0, 1], 0.9) == pytest.approx(1.0 / (2 * 0.1), abs=1e-9)


def test_path_integral_singleton_is_one():
    rng = np.random.default_rng(3)
    g = random_graph(rng, 5)
    for v in range(5):
        assert path_integral(g, [v], 0.5) == 1.0


def test_path_integral_lower_bound():
    rng = np.random.default_rng(4)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n)
        members = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        assert path_integral(g, members, 0.5) >= 1.0 / len(members) - 1e-12


def test_path_integral_matches_truncated_enumeration():
    rng = np.random.default_rng(5)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n)
        size = int(rng.integers(1, min(n, 6) + 1))
        members = sorted(rng.choice(n, size=size, replace=False))
        for z in (0.1, 0.5, 0.9):
            bound = truncation_tail_bound(g.transition, members, z, max_len=40)
            if bound > 1e-7:
                continue  # oracle itself has not converged for this instance
            oracle = truncated_path_sum(g.transition, members, z, max_len=40)
            assert path_integral(g, members, z) == pytest.approx(oracle, abs=1e-6)
            checked += 1
    assert checked > 40


def test_path_integral_rejects_empty():
    g = random_graph(np.random.default_rng(6), 4)
    with pytest.raises(ValueError, match="non-empty"):
        path_integral(g, [], 0.5)


def test_conditional_reduces_to_unconditional():
    rng = np.random.default_rng(8)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        g = random_graph(rng, n)
        members = sorted(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
        z = float(rng.uniform(0.1, 0.9))
        same = conditional_path_integral(g, members, members, z)
        assert same == path_integral(g, members, z)


def test_conditional_on_disconnected_union_is_unconditional():
    # two components; letting paths "use" the other component adds nothing
    g = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
    for z in (0.1, 0.5, 0.9):
        cond = conditional_path_integral(g, [0, 1, 2], [0, 1, 2, 3, 4], z)
        assert cond == pytest.approx(path_integral(g, [0, 1, 2], z), abs=1e-12)


def test_conditional_three_node_line_matches_enumeration():
    # line a - b - c, endpoints in {a, b}, paths through all three vertices
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    z = 0.25
    bound = truncation_tail_bound(g.transition, [0, 1, 2], z, max_len=12)
    assert bound * 9 / 4 < 1e-7  # enumeration itself converged for |C|=2 scaling
    oracle = conditional_truncated_path_sum(g.transition, [0, 1], [0, 1, 2], z, max_len=12)
    assert conditional_path_integral(g, [0, 1], [0, 1, 2], z) == pytest.approx(oracle, abs=1e-6)


def test_conditional_matches_truncated_enumeration_randomized():
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(40):
        n = int(rng.integers(3, 9))
        g = random_graph(rng, n)
        union_size = int(rng.integers(2, n + 1))
        union = sorted(rng.choice(n, size=union_size, replace=False))
        part_size = int(rng.integers(1, union_size))
        members = sorted(rng.choice(union, size=part_size, replace=False))
        for z in (0.1, 0.5, 0.9):
            bound = truncation_tail_bound(g.transition, union, z, max_len=40)
            bound *= (union_size / part_size) ** 2
            if bound > 1e-7:
                continue
            oracle = conditional_truncated_path_sum(g.transition, members, union, z, max_len=40)
            assert conditional_path_integral(g, members, union, z) == pytest.approx(
                oracle, abs=1e-6
            )
            checked += 1
    assert checked > 40


def test_conditional_requires_subset():
    g = random_graph(np.random.default_rng(10), 4)
    with pytest.raises(ValueError, match="subset"):
        conditional_path_integral(g, [0, 3], [0, 1, 2], 0.5)


# ---------------------------------------------------------------------------
# affinity


def test_affinity_symmetric_bitwise():
    rng = np.random.default_rng(11)
    for _ in range(25):
        n = int(rng.integers(3, 9))
        g = random_graph(rng, n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        a = np.flatnonzero(labels == 0).tolist()
        b = np.flatnonzero(labels == 1).tolist()
        z = float(rng.uniform(0.05, 0.95))
        assert affinity(g, a, b, z) == affinity(g, b, a, z)


def test_affinity_disconnected_is_zero():
    rng = np.random.default_rng(12)
    for _ in range(25):
        na, nb = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        n = na + nb
        scores = rng.normal(scale=2.0, size=(n, n))
        scores = 0.5 * (scores + scores.T)
        # cross-block scores so low the sigmoid underflows to exactly zero
        scores[:na, na:] = -1e9
        scores[na:, :na] = -1e9
        k = int(rng.integers(1, min(na, nb)))
        g = build_knn_graph(SimilarityMatrix("rec", scores, kind="plda"), num_neighbors=k)
        assert np.all(g.weights.toarray()[:na, na:] == 0.0)
        z = float(rng.uniform(0.05, 0.95))
        assert abs(affinity(g, range(na), range(na, n), z)) <= 1e-12


def test_affinity_nonnegative():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(3, 9))
        g = random_graph(rng, n)
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        a = np.flatnonzero(labels == 0).tolist()
        b = np.flatnonzero(labels == 1).tolist()
        assert affinity(g, a, b, float(rng.uniform(0.05, 0.95))) >= -1e-12


def test_affinity_rejects_overlapping_clusters():
    g = random_graph(np.random.default_rng(14), 5)
    with pytest.raises(ValueError, match="disjoint"):
        affinity(g, [0, 1], [1, 2], 0.5)


def test_two_triangle_bridge_graph_affinity_table():
    # two unit triangles joined by one bridge edge (2-3). Reuniting a split
    # triangle always gains more than merging the triangles across the
    # bridge: the within-triangle increment rides three strong edges while
    # the bridge increment is throttled by the single crossing.
    g = graph_from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (2, 3)])
    triangles = ([0, 1, 2], [3, 4, 5])
    for z in (0.1, 0.5, 0.9):
        bridge = affinity(g, triangles[0], triangles[1], z)
        assert bridge > 0.0
        for tri in triangles:
            for v in tri:
                rest = [u for u in tri if u != v]
                reunite = affinity(g, [v], rest, z)
                assert reunite > bridge
        # the full table stays symmetric
        assert affinity(g, triangles[1], triangles[0], z) == bridge


# ---------------------------------------------------------------------------
# partitions


def test_partition_from_labels_canonical_order():
    p = Partition.from_labels([2, 0, 2, 1, 0])
    assert p.clusters == ((0, 2), (1, 4), (3,))
    assert p.labels.tolist() == [0, 1, 0, 2, 1]


def test_partition_from_clusters_roundtrip():
    p = Partition.from_clusters([(3,), (1, 4), (0, 2)])
    assert p.clusters == ((0, 2), (1, 4), (3,))
    assert len(p) == 3


def test_partition_rejects_overlap_and_gaps():
    with pytest.raises(ValueError, match="two clusters"):
        Partition.from_clusters([(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="cover"):
        Partition.from_clusters([(0,), (2,)])


def test_pic_params_validation():
    with pytest.raises(ValueError, match="damping"):
        PICParams(damping=0.0)
    with pytest.raises(ValueError, match="damping"):
        PICParams(damping=1.0)
    with pytest.raises(ValueError, match="target_clusters"):
        PICParams(target_clusters=0)


# ---------------------------------------------------------------------------
# initial partition


def test_init_partition_matches_per_vertex_loop():
    rng = np.random.default_rng(43)
    for n in (2, 5, 60, 400):
        for k in sorted({1, min(3, n - 1), n - 1}):
            W = np.zeros((n, n))
            for i in range(n):
                cols = rng.choice(np.delete(np.arange(n), i), size=k, replace=False)
                # coarse values give ties; some rows keep no positive weight
                W[i, cols] = np.round(rng.uniform(0.0, 2.0, size=k)) / 2.0
            P = np.where(W.sum(axis=1, keepdims=True) > 0.0, W, 1.0 - np.eye(n))
            P = P / P.sum(axis=1, keepdims=True)
            g = AffinityGraph(weights=W, transition=P)
            expected = [tuple(c) for c in one_nn_components_by_loop(W)]
            assert list(init_partition(g).clusters) == expected, (n, k)


def test_init_partition_mutual_pairs():
    scores = np.array(
        [
            [0.0, 5.0, -8.0, -8.0],
            [5.0, 0.0, -8.0, -8.0],
            [-8.0, -8.0, 0.0, 5.0],
            [-8.0, -8.0, 5.0, 0.0],
        ]
    )
    g = build_knn_graph(SimilarityMatrix("rec", scores, kind="plda"), num_neighbors=1)
    assert init_partition(g).clusters == ((0, 1), (2, 3))


def test_init_partition_chain_is_single_cluster():
    n = 6
    W = np.zeros((n, n))
    for i in range(n - 1):
        W[i, i + 1] = 1.0
    W[n - 1, n - 2] = 1.0
    P = W / W.sum(axis=1, keepdims=True)
    g = AffinityGraph(weights=W, transition=P)
    assert len(init_partition(g)) == 1


def test_init_partition_isolated_vertex_stays_alone():
    W = np.zeros((3, 3))
    W[0, 1] = W[1, 0] = 1.0
    P = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.5, 0.5]])
    g = AffinityGraph(weights=W, transition=P)
    assert init_partition(g).clusters == ((0, 1), (2,))


def test_init_partition_matches_union_find_oracle():
    rng = np.random.default_rng(15)
    for _ in range(30):
        n = 10
        g = random_graph(rng, n)
        uf = UnionFind(n)
        for i in range(n):
            j = int(np.argmax(g.weights[i]))
            if g.weights[i, j] > 0.0:
                uf.union(i, j)
        expected = tuple(tuple(grp) for grp in uf.groups())
        assert init_partition(g).clusters == expected


# ---------------------------------------------------------------------------
# greedy path-integral clustering


def test_pic_two_cliques_recovered_exactly():
    # strong mutual pairs inside each clique split the initial partition
    # into four pieces; affinity merging must reassemble the cliques and
    # never cross between them (cross affinity is exactly zero)
    scores = np.full((8, 8), -1e9)
    for base in (0, 4):
        blk = slice(base, base + 4)
        scores[blk, blk] = 1.0
        scores[base, base + 1] = scores[base + 1, base] = 6.0
        scores[base + 2, base + 3] = scores[base + 3, base + 2] = 6.0
    np.fill_diagonal(scores, 0.0)
    g = build_knn_graph(SimilarityMatrix("rec", scores, kind="plda"), num_neighbors=2)
    assert len(init_partition(g)) == 4
    part = pic_cluster(g, PICParams(damping=0.5, target_clusters=2))
    assert part.clusters == ((0, 1, 2, 3), (4, 5, 6, 7))


def test_pic_target_one_merges_everything():
    g = random_graph(np.random.default_rng(16), 6, num_neighbors=3)
    part = pic_cluster(g, PICParams(damping=0.3, target_clusters=1))
    assert part.clusters == (tuple(range(6)),)


def test_pic_returns_init_when_target_reached():
    scores = np.array(
        [
            [0.0, 5.0, -8.0, -8.0],
            [5.0, 0.0, -8.0, -8.0],
            [-8.0, -8.0, 0.0, 5.0],
            [-8.0, -8.0, 5.0, 0.0],
        ]
    )
    g = build_knn_graph(SimilarityMatrix("rec", scores, kind="plda"), num_neighbors=1)
    part = pic_cluster(g, PICParams(damping=0.5, target_clusters=2))
    assert part.clusters == ((0, 1), (2, 3))
    with pytest.warns(UserWarning, match="exceeds"):
        part = pic_cluster(g, PICParams(damping=0.5, target_clusters=3))
    assert part.clusters == ((0, 1), (2, 3))


def test_pic_merge_trace_matches_quadratic_reference_seven_nodes():
    # blocks {0,1}, {2,3}, {4,5,6} guarantee several initial components, so
    # every run exercises a multi-step merge sequence
    rng = np.random.default_rng(17)
    blocks = np.array([0, 0, 1, 1, 2, 2, 2])
    compared = 0
    for _ in range(15):
        scores = np.where(blocks[:, None] == blocks[None, :], 4.0, 0.0)
        scores = scores + rng.normal(scale=1.0, size=(7, 7))
        scores = 0.5 * (scores + scores.T)
        np.fill_diagonal(scores, 0.0)
        g = build_knn_graph(SimilarityMatrix("rec", scores, kind="plda"), num_neighbors=3)
        z = float(rng.uniform(0.1, 0.9))
        if len(init_partition(g)) < 3:
            continue
        part, trace = pic_merge_trace(g, PICParams(damping=z, target_clusters=1))
        ref_part, ref_trace = brute_force_pic_trace(g, 1, z)
        assert trace == ref_trace
        assert part.clusters == ref_part.clusters
        assert len(trace) >= 2
        compared += 1
    assert compared >= 8


def test_pic_merge_order_by_hand():
    # three mutual pairs; only pairs {0,1} and {2,3} share positive cross
    # edges, so the first merge joins them and {4,5} is absorbed last at
    # affinity exactly zero
    scores = np.full((6, 6), -1e6)
    for a, b in ((0, 1), (2, 3), (4, 5)):
        scores[a, b] = scores[b, a] = 8.0
    scores[np.ix_([0, 1], [2, 3])] = 2.0
    scores[np.ix_([2, 3], [0, 1])] = 2.0
    np.fill_diagonal(scores, 0.0)
    g = build_knn_graph(SimilarityMatrix("rec", scores, kind="plda"), num_neighbors=2)
    assert init_partition(g).clusters == ((0, 1), (2, 3), (4, 5))
    assert affinity(g, [0, 1], [2, 3], 0.5) > 0.0
    assert affinity(g, [0, 1], [4, 5], 0.5) == 0.0
    part, trace = pic_merge_trace(g, PICParams(damping=0.5, target_clusters=1))
    assert trace == [((0, 1), (2, 3)), ((0, 1, 2, 3), (4, 5))]
    assert part.clusters == ((0, 1, 2, 3, 4, 5),)


@pytest.mark.filterwarnings("ignore:target of")
def test_pic_deterministic_and_permutation_equivariant():
    rng = np.random.default_rng(18)
    for _ in range(8):
        n = 8
        raw = rng.normal(scale=2.0, size=(n, n))
        scores = 0.5 * (raw + raw.T)
        np.fill_diagonal(scores, 0.0)
        sim = SimilarityMatrix("rec", scores, kind="plda")
        g = build_knn_graph(sim, num_neighbors=3)
        params = PICParams(damping=0.4, target_clusters=2)
        first = pic_cluster(g, params)
        again = pic_cluster(g, params)
        assert first.labels.tolist() == again.labels.tolist()

        perm = rng.permutation(n)
        permuted = SimilarityMatrix("rec", scores[np.ix_(perm, perm)], kind="plda")
        g_perm = build_knn_graph(permuted, num_neighbors=3)
        part_perm = pic_cluster(g_perm, params)
        mapped = {tuple(sorted(int(perm[v]) for v in c)) for c in part_perm.clusters}
        assert mapped == {tuple(c) for c in first.clusters}


@pytest.mark.filterwarnings("ignore:target of")
def test_pic_partition_is_valid():
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(4, 10))
        g = random_graph(rng, n)
        target = int(rng.integers(1, 4))
        part = pic_cluster(g, PICParams(damping=0.2, target_clusters=target))
        flat = sorted(v for c in part.clusters for v in c)
        assert flat == list(range(n))
        assert all(part.labels[v] == k for k, c in enumerate(part.clusters) for v in c)


# ---------------------------------------------------------------------------
# average-linkage baseline


def brute_force_ahc(scores, threshold=None, num_clusters=None):
    """Plain average-linkage: mean raw score over all cross pairs."""
    n = scores.shape[0]
    clusters = [[i] for i in range(n)]
    stop = num_clusters if num_clusters is not None else 1
    while len(clusters) > stop:
        best_val = -np.inf
        best = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                val = float(
                    np.mean([scores[a, b] for a in clusters[i] for b in clusters[j]])
                )
                if val > best_val:
                    best_val = val
                    best = (i, j)
        if threshold is not None and best_val < threshold:
            break
        i, j = best
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]
    return tuple(tuple(c) for c in sorted(clusters, key=lambda c: c[0]))


def test_ahc_requires_exactly_one_stop_rule():
    sim = plda_matrix(np.random.default_rng(20), 4)
    with pytest.raises(ValueError, match="exactly one"):
        ahc_cluster(sim)
    with pytest.raises(ValueError, match="exactly one"):
        ahc_cluster(sim, threshold=0.0, num_clusters=2)
    with pytest.raises(ValueError, match="num_clusters"):
        ahc_cluster(sim, num_clusters=9)


def test_ahc_threshold_above_max_keeps_singletons():
    rng = np.random.default_rng(21)
    sim = plda_matrix(rng, 5)
    top = sim.scores[~np.eye(5, dtype=bool)].max()
    part = ahc_cluster(sim, threshold=top + 1.0)
    assert part.clusters == tuple((i,) for i in range(5))


def test_ahc_count_one_merges_everything():
    sim = plda_matrix(np.random.default_rng(22), 5)
    assert ahc_cluster(sim, num_clusters=1).clusters == (tuple(range(5)),)


def test_ahc_single_point():
    sim = SimilarityMatrix("rec", np.zeros((1, 1)), kind="plda")
    assert ahc_cluster(sim, threshold=0.0).clusters == ((0,),)


def test_ahc_three_point_hand_trace():
    scores = np.array(
        [
            [0.0, 0.9, 0.1],
            [0.9, 0.0, 0.2],
            [0.1, 0.2, 0.0],
        ]
    )
    sim = SimilarityMatrix("rec", scores, kind="plda")
    # first merge (0, 1) at 0.9; linkage of {0,1} to {2} is (0.1 + 0.2)/2
    part = ahc_cluster(sim, threshold=0.5)
    assert part.clusters == ((0, 1), (2,))
    part = ahc_cluster(sim, threshold=0.15)
    assert part.clusters == ((0, 1, 2),)
    part = ahc_cluster(sim, threshold=0.95)
    assert part.clusters == ((0,), (1,), (2,))


def test_ahc_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 9))
        sim = plda_matrix(rng, n)
        if rng.random() < 0.5:
            count = int(rng.integers(1, n + 1))
            got = ahc_cluster(sim, num_clusters=count)
            want = brute_force_ahc(sim.scores, num_clusters=count)
        else:
            thr = float(rng.normal())
            got = ahc_cluster(sim, threshold=thr)
            want = brute_force_ahc(sim.scores, threshold=thr)
        assert got.clusters == want


def test_ahc_tie_prefers_smallest_pair():
    # pairs (0,1) and (2,3) tie at 1.0: the smaller index pair merges first,
    # and with num_clusters=3 only that merge happens
    scores = np.array(
        [
            [0.0, 1.0, -1.0, -1.0],
            [1.0, 0.0, -1.0, -1.0],
            [-1.0, -1.0, 0.0, 1.0],
            [-1.0, -1.0, 1.0, 0.0],
        ]
    )
    sim = SimilarityMatrix("rec", scores, kind="plda")
    part = ahc_cluster(sim, num_clusters=3)
    assert part.clusters == ((0, 1), (2,), (3,))


def test_ahc_partition_is_valid():
    rng = np.random.default_rng(24)
    for _ in range(10):
        n = int(rng.integers(2, 10))
        sim = plda_matrix(rng, n)
        part = ahc_cluster(sim, threshold=float(rng.normal()))
        flat = sorted(v for c in part.clusters for v in c)
        assert flat == list(range(n))


def cosine_matrix(rng, n, dim=8):
    unit = rng.normal(size=(n, dim))
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    scores = np.clip(unit @ unit.T, -1.0, 1.0)
    np.fill_diagonal(scores, 1.0)
    return SimilarityMatrix("rec", scores, kind="cosine")


def test_ahc_matches_greedy_loop_on_tie_free_matrices():
    rng = np.random.default_rng(28)
    for n in (2, 3, 7, 40, 150, 400, 700):
        for sim in (plda_matrix(rng, n), cosine_matrix(rng, n)):
            off = sim.scores[~np.eye(n, dtype=bool)]
            for thr in rng.uniform(off.min(), off.max(), size=3):
                got = ahc_cluster(sim, threshold=float(thr))
                assert got.clusters == ahc_by_greedy_loop(sim, threshold=float(thr)).clusters
            for count in sorted({1, 2, max(1, n // 2), n}):
                got = ahc_cluster(sim, num_clusters=count)
                assert got.clusters == ahc_by_greedy_loop(sim, num_clusters=count).clusters


def test_ahc_linkage_equal_to_threshold_merges():
    # dyadic scores: the linkage of {0, 1} to {2} is exactly (0.25 + 0.5) / 2
    scores = np.array(
        [
            [0.0, 0.75, 0.25],
            [0.75, 0.0, 0.5],
            [0.25, 0.5, 0.0],
        ]
    )
    sim = SimilarityMatrix("rec", scores, kind="plda")
    assert ahc_cluster(sim, threshold=0.75).clusters == ((0, 1), (2,))
    assert ahc_cluster(sim, threshold=0.375).clusters == ((0, 1, 2),)
    assert ahc_cluster(sim, threshold=np.nextafter(0.375, 1.0)).clusters == ((0, 1), (2,))
    assert ahc_cluster(sim, threshold=np.nextafter(0.75, 1.0)).clusters == ((0,), (1,), (2,))


def test_ahc_ties_follow_the_nearest_neighbor_chain():
    # (1, 2) and (3, 4) tie at 5.  A greedy scan merges the smaller pair
    # (1, 2) first; the chain starts at 0, steps to its best neighbor 3, then
    # to 4, whose best is 3 again, so (3, 4) merges first.
    scores = np.zeros((5, 5))
    scores[1, 2] = scores[2, 1] = scores[3, 4] = scores[4, 3] = 5.0
    scores[0, 3] = scores[3, 0] = 4.0
    sim = SimilarityMatrix("rec", scores, kind="plda")
    assert ahc_cluster(sim, num_clusters=4).clusters == ((0,), (1,), (2,), (3, 4))
    assert ahc_by_greedy_loop(sim, num_clusters=4).clusters == ((0,), (1, 2), (3,), (4,))
    # integer scores tie all over: every cut equals a scalar chain's, and at
    # k = 4 the partition differs from the greedy scan's
    raw = np.round(np.random.default_rng(29).normal(scale=3.0, size=(40, 40)))
    sim = SimilarityMatrix("rec", raw + raw.T, kind="plda")
    for count in range(1, 41):
        assert ahc_cluster(sim, num_clusters=count).clusters == ahc_by_nn_chain(sim.scores, count)
    assert ahc_cluster(sim, num_clusters=4).clusters != ahc_by_greedy_loop(sim, num_clusters=4).clusters


# ---------------------------------------------------------------------------
# speaker-count estimate


def test_estimate_single_embedding():
    sim = SimilarityMatrix("rec", np.zeros((1, 1)), kind="plda")
    assert estimate_num_speakers(sim, threshold=0.0) == 1


def test_estimate_two_far_groups():
    rng = np.random.default_rng(25)
    n = 12
    labels = np.array([0] * 6 + [1] * 6)
    scores = np.where(labels[:, None] == labels[None, :], 5.0, -5.0)
    scores = scores + rng.normal(scale=0.1, size=(n, n))
    scores = 0.5 * (scores + scores.T)
    sim = SimilarityMatrix("rec", scores, kind="plda")
    assert estimate_num_speakers(sim, threshold=0.0) == 2


def test_estimate_threshold_neg_infinity_merges_all():
    sim = plda_matrix(np.random.default_rng(26), 6)
    assert estimate_num_speakers(sim, threshold=-np.inf) == 1


def test_estimate_ignores_tiny_clusters():
    # two 5-member groups plus one outlier hostile to everyone
    labels = np.array([0] * 5 + [1] * 5 + [2])
    scores = np.where(labels[:, None] == labels[None, :], 5.0, -5.0).astype(float)
    scores[10, :] = -30.0
    scores[:, 10] = -30.0
    scores = 0.5 * (scores + scores.T)
    np.fill_diagonal(scores, 0.0)
    sim = SimilarityMatrix("rec", scores, kind="plda")
    assert estimate_num_speakers(sim, threshold=0.0) == 3
    assert estimate_num_speakers(sim, threshold=0.0, min_cluster_size=2) == 2


def test_estimate_min_size_never_returns_zero():
    sim = plda_matrix(np.random.default_rng(27), 4)
    assert estimate_num_speakers(sim, threshold=np.inf, min_cluster_size=100) == 1


# ---------------------------------------------------------------------------
# small-cluster absorption


def test_absorb_attaches_outlier_to_most_similar_cluster():
    labels = np.array([0] * 4 + [1] * 4 + [2])
    scores = np.where(labels[:, None] == labels[None, :], 4.0, -4.0).astype(float)
    # the outlier likes cluster 1 more than cluster 0
    scores[8, 4:8] = scores[4:8, 8] = -1.0
    np.fill_diagonal(scores, 0.0)
    sim = SimilarityMatrix("rec", scores, kind="plda")
    part = Partition.from_clusters([[0, 1, 2, 3], [4, 5, 6, 7], [8]])
    fixed = absorb_small_clusters(part, sim, min_size=2)
    assert fixed.clusters == ((0, 1, 2, 3), (4, 5, 6, 7, 8))


def test_absorb_tie_prefers_earlier_cluster():
    scores = np.zeros((5, 5))
    sim = SimilarityMatrix("rec", scores, kind="plda")
    part = Partition.from_clusters([[0, 1], [2, 3], [4]])
    fixed = absorb_small_clusters(part, sim, min_size=2)
    assert fixed.clusters == ((0, 1, 4), (2, 3))


def test_absorb_min_size_one_is_identity():
    part = Partition.from_clusters([[0], [1, 2]])
    sim = SimilarityMatrix("rec", np.zeros((3, 3)), kind="plda")
    assert absorb_small_clusters(part, sim, min_size=1) is part


def test_absorb_all_small_keeps_largest_as_anchor():
    scores = np.zeros((4, 4))
    sim = SimilarityMatrix("rec", scores, kind="plda")
    part = Partition.from_clusters([[0], [1, 2], [3]])
    fixed = absorb_small_clusters(part, sim, min_size=10)
    assert fixed.clusters == ((0, 1, 2, 3),)


def test_absorb_matches_dense_reference():
    rng = np.random.default_rng(33)
    for trial in range(40):
        n = int(rng.integers(3, 400))
        raw = rng.normal(scale=2.0, size=(n, n))
        scores = 0.5 * (raw + raw.T)
        if trial % 2:
            scores = np.round(scores)  # ties between cluster means
        sim = SimilarityMatrix("rec", scores, kind="plda")
        labels = rng.integers(0, int(rng.integers(1, 12)), size=n)
        labels[rng.choice(n, size=min(n, 5), replace=False)] = np.arange(100, 100 + min(n, 5))
        part = Partition.from_labels(labels)
        for min_size in (1, 2, 5, n + 1):
            got = absorb_small_clusters(part, sim, min_size)
            assert got.clusters == dense_absorb_small_clusters(part, sim, min_size).clusters


def test_absorb_preserves_vertex_cover():
    rng = np.random.default_rng(28)
    for _ in range(20):
        n = int(rng.integers(3, 12))
        sim = plda_matrix(rng, n)
        part = ahc_cluster(sim, threshold=float(rng.normal()))
        fixed = absorb_small_clusters(part, sim, min_size=int(rng.integers(1, 4)))
        flat = sorted(v for c in fixed.clusters for v in c)
        assert flat == list(range(n))


# ---------------------------------------------------------------------------
# merge stopping floor


def test_affinity_floor_stops_at_disconnected_blocks():
    # two components with no connecting edge: no walk crosses, so with a
    # positive floor the merge loop must stop instead of pairing them
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    forced = pic_cluster(g, PICParams(damping=0.5, target_clusters=1))
    assert len(forced) == 1
    floored = pic_cluster(
        g,
        PICParams(damping=0.5, target_clusters=1, affinity_floor=1e-12),
    )
    assert floored.clusters == ((0, 1), (2, 3))


@pytest.mark.filterwarnings("ignore:target of")
def test_affinity_floor_keeps_genuine_merges():
    rng = np.random.default_rng(29)
    for _ in range(10):
        sim = plda_matrix(rng, 8)
        g = build_knn_graph(sim, num_neighbors=7)
        plain = pic_cluster(g, PICParams(damping=0.1, target_clusters=2))
        floored = pic_cluster(
            g,
            PICParams(
                damping=0.1, target_clusters=2, affinity_floor=1e-12
            ),
        )
        # dense graphs keep positive walk evidence, so the floor changes nothing
        assert plain.clusters == floored.clusters


# ---------------------------------------------------------------------------
# large-system solver agreement


def test_path_integral_series_matches_dense_solve():
    # unions on both sides of 256 vertices, at weak and strong damping
    rng = np.random.default_rng(30)
    n = 320
    sim = plda_matrix(rng, n, spread=1.0)
    g = build_knn_graph(sim, num_neighbors=12)
    for size, z in itertools.product((255, 256, 257, 300), (0.05, 0.49, 0.9)):
        members = sorted(rng.choice(n, size=size, replace=False).tolist())
        got = path_integral(g, members, z)
        sub = np.eye(len(members)) - z * g.transition[np.ix_(members, members)]
        x = np.linalg.solve(sub, np.ones(len(members)))
        want = float(x.sum()) / len(members) ** 2
        assert got == pytest.approx(want, abs=1e-12), (size, z)


# ---------------------------------------------------------------------------
# merge-loop bounds against float and 50-digit affinities


def _exact_path_sums(P: np.ndarray, z: float):
    """Path integrals solved in 50-digit arithmetic: ``total(union, ends)`` is
    S of ``ends`` with paths through ``union``; each union is factored once."""
    factored = {}

    def total(union, ends):
        union = tuple(sorted(union))
        if union not in factored:
            idx = np.asarray(union)
            factored[union] = mpmath.eye(len(idx)) - mpmath.mpf(z) * mpmath.matrix(
                P[np.ix_(idx, idx)].tolist()
            )
        x = mpmath.lu_solve(factored[union], mpmath.matrix([int(v in ends) for v in union]))
        return mpmath.fsum(x[t] for t, v in enumerate(union) if v in ends) / len(ends) ** 2

    return total


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_merge_bounds_hold_for_float_and_exact_affinities(data):
    n = data.draw(st.integers(6, 40), label="vertices")
    k = data.draw(st.integers(2, min(6, n - 1)), label="num_neighbors")
    z = data.draw(st.sampled_from([0.01, 0.1, 0.3, 0.49]), label="z")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    graph = build_knn_graph(plda_matrix(rng, n), num_neighbors=k)
    P = graph.transition
    dense = P.toarray()
    labels = rng.integers(data.draw(st.integers(1, 6), label="clusters"), size=n)
    # singletons {u} and {v} with an edge u -> v and none back: a one-way pair
    one_way = np.argwhere((dense > 0) & (dense.T == 0))
    if len(one_way) and data.draw(st.booleans(), label="one-way pair"):
        u, v = one_way[rng.integers(len(one_way))]
        labels = labels + 2
        labels[u], labels[v] = 0, 1
    engine = _MergeEngine(graph, z)
    engine._start(Partition.from_labels(labels))
    total = _exact_path_sums(dense, z)

    def bounds_hold(pairs):
        """Each (a, b, low, high): a connected pair's float and 50-digit
        affinities lie within its bounds, at most the slack apart."""
        clusters = engine.clusters
        for a, b, low, high in pairs:
            pi_a, pi_b = (path_integral(graph, clusters[c], z) for c in (a, b))
            got = _pair_gain(P, clusters[a], clusters[b], z, pi_a, pi_b)
            union = np.union1d(clusters[a], clusters[b])
            ends_a, ends_b = set(clusters[a].tolist()), set(clusters[b].tolist())
            exact = (total(union, ends_a) - total(ends_a, ends_a)) + (
                total(union, ends_b) - total(ends_b, ends_b)
            )
            size_a, size_b = len(ends_a), len(ends_b)
            slack = (1.0 / size_a + 1.0 / size_b) * engine._roundoff * (size_a + size_b)
            assert low <= got <= high, (a, b, low, got, high)
            assert mpmath.mpf(low) <= exact <= mpmath.mpf(high), (a, b, low, exact, high)
            assert abs(mpmath.mpf(got) - exact) <= slack, (a, b, got, exact, slack)

    # the first table, for every connected pair
    sizes = engine.sizes
    lower, upper = engine._bounds(
        engine.gain, engine.gain.T, engine.peak, engine.peak.T, sizes[:, None], sizes[None, :]
    )
    connected = np.argwhere(np.triu(engine.conn, 1))
    bounds_hold([(a, b, lower[a, b], upper[a, b]) for a, b in connected])
    if not len(connected):
        return
    # one connected pair merged through the engine's update: the merged
    # cluster's row (walks from it) and column (walks through it, with the
    # walks that cross between the pair) against every cluster it touches
    i, j = connected[data.draw(st.integers(0, len(connected) - 1), label="merged pair")]
    engine._merge(i, j)
    low, high = engine._bounds(
        engine.gain[i], engine.gain[:, i], engine.peak[i], engine.peak[:, i], sizes[i], sizes
    )
    touched = [
        c for c, members in enumerate(engine.clusters)
        if members is not None and c != i and engine.conn[i, c]
    ]
    bounds_hold([(i, c, low[c], high[c]) for c in touched])


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(4, 80),
    clusters=st.integers(2, 40),
    z=st.sampled_from([0.01, 0.3]),
)
def test_merge_tables_match_a_fresh_build_after_every_merge(seed, n, clusters, z):
    """Merging updates the tables by addition; after each merge of a random
    live pair they match the tables built afresh for the current partition:
    ``conn`` and the per-entry ``intra`` exactly, the rest up to summation
    order.  ``peak`` is exactly the per-cluster maximum of ``into``."""
    rng = np.random.default_rng(seed)
    graph = build_knn_graph(plda_matrix(rng, n), num_neighbors=int(rng.integers(1, min(8, n))))
    labels = rng.integers(min(clusters, n), size=n)
    engine = _MergeEngine(graph, z)
    engine._start(Partition.from_labels(labels))
    while True:
        live = [c for c, members in enumerate(engine.clusters) if members is not None]
        fresh = _MergeEngine(graph, z)
        fresh._start(Partition.from_clusters([engine.clusters[c] for c in live]))
        assert [c.tolist() for c in fresh.clusters] == [engine.clusters[c].tolist() for c in live]
        assert np.array_equal(np.searchsorted(live, engine.labels), fresh.labels)
        grid = np.ix_(live, live)
        off = ~np.eye(len(live), dtype=bool)
        assert np.array_equal(engine.conn[grid][off], fresh.conn[off])
        np.testing.assert_allclose(engine.gain[grid][off], fresh.gain[off], rtol=1e-12, atol=0)
        np.testing.assert_allclose(engine.peak[grid][off], fresh.peak[off], rtol=1e-12, atol=0)
        for mine, theirs in ((engine.out, fresh.out), (engine.into, fresh.into)):
            np.testing.assert_allclose(mine[live], theirs, rtol=1e-12, atol=0)
        assert np.array_equal(engine.intra.data, fresh.intra.data)
        most = np.zeros((len(live), len(live)))
        for a, c in enumerate(live):
            np.maximum.at(most[:, a], fresh.labels, engine.into[c])
        assert np.array_equal(engine.peak[grid][off], most[off])
        if len(live) == 1:
            break
        i, j = sorted(rng.choice(live, size=2, replace=False))
        engine._merge(int(i), int(j))


# peak of pic_merge_trace over (2 m n + 4 m^2) float64s: 1.72 measured on the
# graph below (m = 220, n = 1200), solve workspace included
MERGE_PEAK_FACTOR = 2.0


def test_merge_state_memory_is_linear_in_components_times_vertices():
    """The merge holds 2 m n floats of vertex tables and m x m pair tables;
    on a cosine-like graph with m >= 150 components its peak stays within a
    small multiple of that."""
    rng = np.random.default_rng(35)
    n, dim = 1200, 32
    speakers = rng.normal(size=(4, dim))
    X = speakers[rng.integers(4, size=n)] + rng.normal(scale=1.5, size=(n, dim))
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    graph = build_knn_graph(SimilarityMatrix("rec", X @ X.T, kind="cosine"), num_neighbors=30)
    m = len(init_partition(graph))
    assert m >= 150
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        pic_merge_trace(graph, PICParams(target_clusters=4))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < MERGE_PEAK_FACTOR * (2 * m * n + 4 * m * m) * 8, (m, peak)
