"""Fixing a broken clustering with the variational HMM.

Samples a two-speaker conversation as a Markov chain over window embeddings,
corrupts a chunk of the labels to mimic clustering mistakes, and hands the
mess to the HMM resegmenter.  The model couples a PLDA-derived emission per
speaker with a sticky transition prior, so isolated wrong labels are
expensive and get smoothed away.  The variational lower bound printed per
iteration never decreases; if it did, that would be a bug.
"""

import argparse

import numpy as np

from diarkit.clustering import Partition
from diarkit.reseg import VBxConfig, vbx_resegment
from diarkit.scoring import PLDAModel


def sample_conversation(rng, num_frames, dim, loop=0.85, separation=2.0):
    means = np.zeros((2, dim))
    means[0, 0] = separation
    means[1, 0] = -separation
    states = np.empty(num_frames, dtype=int)
    states[0] = rng.integers(2)
    for t in range(1, num_frames):
        states[t] = states[t - 1] if rng.random() < loop else 1 - states[t - 1]
    X = means[states] + rng.normal(size=(num_frames, dim))
    centered = means - means.mean(axis=0)
    plda = PLDAModel(mean=means.mean(axis=0),
                     between=centered.T @ centered / 2.0,
                     within=np.eye(dim))
    return X, states, plda


def permuted_accuracy(labels, states):
    labels = np.asarray(labels)
    direct = float(np.mean(labels == states))
    flipped = float(np.mean((1 - labels) == states))
    return max(direct, flipped)


def run_length_histogram(labels):
    runs = []
    length = 1
    for a, b in zip(labels[:-1], labels[1:]):
        if a == b:
            length += 1
        else:
            runs.append(length)
            length = 1
    runs.append(length)
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--frames", type=int, default=200)
    ap.add_argument("--dim", type=int, default=8)
    ap.add_argument("--flip", type=float, default=0.2,
                    help="fraction of labels to corrupt before resegmentation")
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()

    rng = np.random.default_rng(args.seed)
    X, states, plda = sample_conversation(rng, args.frames, args.dim)
    print(f"{args.frames} windows, true turn lengths "
          f"{sorted(run_length_histogram(states))[::-1][:6]} ... (longest first)")

    labels = states.copy()
    flips = rng.random(args.frames) < args.flip
    labels[flips] = 1 - labels[flips]
    print(f"corrupted {int(flips.sum())} labels "
          f"({permuted_accuracy(labels, states):.1%} accuracy going in, "
          f"{len(run_length_histogram(labels))} runs instead of "
          f"{len(run_length_histogram(states))})")

    config = VBxConfig(loop_probability=0.8, max_iterations=40,
                       convergence_tolerance=1e-8)
    trace = []
    part, gamma = vbx_resegment(X, plda, Partition.from_labels(labels),
                                config, elbo_trace=trace)

    print("\nvariational lower bound per iteration:")
    for i, value in enumerate(trace):
        delta = "" if i == 0 else f"  (+{value - trace[i - 1]:.6f})"
        print(f"  iter {i:2d}: {value:.4f}{delta}")
    assert all(b >= a - 1e-8 for a, b in zip(trace[:-1], trace[1:]))

    acc = permuted_accuracy(part.labels, states)
    print(f"\nresegmented accuracy: {acc:.1%} "
          f"({len(run_length_histogram(part.labels))} runs)")
    print(f"posterior matrix shape {gamma.shape}, rows sum to "
          f"{gamma.sum(axis=1).min():.6f}..{gamma.sum(axis=1).max():.6f}")


if __name__ == "__main__":
    main()
