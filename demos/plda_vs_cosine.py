"""Two ways to score whether two windows share a speaker.

The clustering stage only ever sees a pairwise similarity matrix, and there
are two backends for producing one.  PLDA scores are log-likelihood ratios
under a two-covariance model (same-speaker vs different-speaker), computed
after a per-recording PCA re-estimates the within/between covariances in
the recording's own subspace.  Cosine scores are plain angles after a
global PCA.  This demo scores one synthetic recording both ways and prints
how far apart the same-speaker and cross-speaker score populations land,
which is the only property clustering actually cares about.
"""

import argparse

import numpy as np

from diarkit.embeddings import SyntheticSpec, generate_synthetic
from diarkit.scoring import (
    cosine_similarity,
    fit_pca,
    ground_truth_plda,
    plda_llr,
    score_plda_matrix,
    standardize_scores,
)


def window_speakers(seq, reference):
    """Majority reference speaker per window, for bookkeeping only."""
    labels = []
    for on, off in seq.windows:
        best, best_t = None, 0.0
        for seg in reference.segments:
            t = min(off, seg.onset + seg.duration) - max(on, seg.onset)
            if t > best_t:
                best, best_t = seg.speaker, t
        labels.append(best)
    return np.array(labels)


def separation_report(name, scores, same_mask):
    off_diag = ~np.eye(scores.shape[0], dtype=bool)
    same = scores[same_mask & off_diag]
    diff = scores[~same_mask & off_diag]
    gap = (same.mean() - diff.mean()) / np.sqrt(0.5 * (same.var() + diff.var()))
    print(f"{name}: same-speaker mean {same.mean():8.3f} (sd {same.std():.3f}), "
          f"cross mean {diff.mean():8.3f} (sd {diff.std():.3f}), "
          f"separation {gap:.2f} sd")
    return gap


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--speakers", type=int, default=4)
    ap.add_argument("--dim", type=int, default=16)
    ap.add_argument("--separation", type=float, default=6.0)
    ap.add_argument("--seed", type=int, default=17)
    args = ap.parse_args()

    spec = SyntheticSpec.well_separated(
        args.speakers, args.dim, separation=args.separation,
        duration=120.0, seed=args.seed,
    )
    seq, reference, _ = generate_synthetic(spec)
    truth = window_speakers(seq, reference)
    same_mask = truth[:, None] == truth[None, :]
    print(f"{len(seq)} windows from {args.speakers} speakers, dim {args.dim}")

    plda = ground_truth_plda(spec)
    x_same = seq.vectors[np.flatnonzero(truth == truth[0])[:2]]
    x_diff = seq.vectors[[0, int(np.flatnonzero(truth != truth[0])[0])]]
    print("\nsingle-pair log-likelihood ratios under the generator's PLDA:")
    print(f"  same speaker pair:  {plda_llr(plda, x_same[0], x_same[1]):8.2f}")
    print(f"  cross speaker pair: {plda_llr(plda, x_diff[0], x_diff[1]):8.2f}")
    print("  (positive favors the shared-speaker hypothesis)")

    print()
    plda_sim = score_plda_matrix(seq.vectors, plda, energy_fraction=0.95)
    separation_report("plda llr   ", plda_sim.scores, same_mask)

    pca = fit_pca(seq.vectors.astype(float), min(8, args.dim))
    cos_sim = cosine_similarity(seq.vectors, pca)
    separation_report("cosine     ", cos_sim.scores, same_mask)

    z = standardize_scores(plda_sim)
    separation_report("plda, z-std", z.scores, same_mask)
    print("\nstandardizing recenters the scores without moving the separation, "
          "which keeps one sigmoid edge-weight setting usable across recordings")


if __name__ == "__main__":
    main()
