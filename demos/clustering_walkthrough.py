"""Path-integral clustering, one merge at a time.

Plants a few groups of embeddings, scores every pair, and walks the graph
agglomeration by hand: a sparse k-NN graph with sigmoid edge weights turns
into a row-stochastic transition matrix, each cluster gets a path integral
that measures how much random-walk probability stays inside it, and the
pair whose union raises that measure the most merges first.  The same
similarity matrix then goes through plain average-linkage clustering for
comparison.
"""

import argparse

import numpy as np

from diarkit.clustering import (
    PICParams,
    affinity,
    ahc_cluster,
    build_knn_graph,
    init_partition,
    path_integral,
    pic_merge_trace,
)
from diarkit.scoring import SimilarityMatrix


def planted_embeddings(rng, num_groups, per_group, dim=8, separation=4.0):
    means = rng.normal(size=(num_groups, dim)) * separation
    X = np.concatenate([means[g] + rng.normal(size=(per_group, dim))
                        for g in range(num_groups)])
    truth = np.repeat(np.arange(num_groups), per_group)
    return X, truth


def purity(partition, truth):
    total = sum(np.bincount(truth[list(c)]).max() for c in partition.clusters)
    return total / len(truth)


def groups_of(cluster, truth):
    return sorted(int(g) for g in set(truth[list(cluster)]))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--groups", type=int, default=3)
    ap.add_argument("--per-group", type=int, default=8)
    ap.add_argument("--neighbors", type=int, default=4)
    ap.add_argument("--damping", type=float, default=0.1,
                    help="walk continuation probability z in (0, 1)")
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    X, truth = planted_embeddings(rng, args.groups, args.per_group)
    n = len(X)
    print(f"{n} points in {args.groups} planted groups")

    # negative squared distance is a perfectly good similarity for a demo
    sq = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=2)
    sim = SimilarityMatrix("demo", -sq, "plda")

    graph = build_knn_graph(sim, num_neighbors=args.neighbors)
    print(f"k-NN graph: {graph.weights.nnz} directed edges, "
          f"row sums of the transition matrix all "
          f"{graph.transition.sum(axis=1).min():.0f}")

    start = init_partition(graph)
    print(f"\nnearest-neighbor initialization: {len(start.clusters)} components")
    for c in start.clusters:
        print(f"  {sorted(c)}  (true groups {groups_of(c, truth)})")

    z = args.damping
    print("\npath integrals of the initial components (higher = more cohesive):")
    for c in start.clusters:
        print(f"  {str(sorted(c)):<28} S = {path_integral(graph, c, z):.4f}")

    same = [c for c in start.clusters if len(groups_of(c, truth)) == 1]
    pair = None
    for i in range(len(same)):
        for j in range(i + 1, len(same)):
            if groups_of(same[i], truth) == groups_of(same[j], truth):
                pair = (same[i], same[j])
    if pair is not None:
        a, b = pair
        cross = next(c for c in same if groups_of(c, truth) != groups_of(a, truth))
        print("\naffinity = gain in path integral when two clusters pool their walks:")
        print(f"  same speaker  {sorted(a)} + {sorted(b)}: "
              f"{affinity(graph, a, b, z):.3e}")
        print(f"  cross speaker {sorted(a)} + {sorted(cross)}: "
              f"{affinity(graph, a, cross, z):.3e}")
        print("  (no walk crosses between unconnected clusters, so the gain is "
              "zero up to roundoff)")

    params = PICParams(damping=z, target_clusters=args.groups)
    result, trace = pic_merge_trace(graph, params)
    print(f"\nmerge order down to {args.groups} clusters:")
    for step, (ca, cb) in enumerate(trace):
        print(f"  step {step}: {sorted(ca)} + {sorted(cb)}")
    print(f"path-integral result: {len(result.clusters)} clusters, "
          f"purity {purity(result, truth):.3f}")

    baseline = ahc_cluster(sim, num_clusters=args.groups)
    print(f"average-linkage baseline: {len(baseline.clusters)} clusters, "
          f"purity {purity(baseline, truth):.3f}")


if __name__ == "__main__":
    main()
