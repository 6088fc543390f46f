import tracemalloc

import numpy as np
import pytest
from scipy.cluster.hierarchy import linkage

from oracles import estimate_plda_from_labels, joint_gaussian_llr

from diarkit import scoring
from diarkit.embeddings import SyntheticSpec, generate_synthetic
from diarkit.scoring import (
    PCAModel,
    PLDAModel,
    SimilarityMatrix,
    cosine_similarity,
    fit_pca,
    ground_truth_plda,
    plda_llr,
    score_plda_matrix,
    sigmoid_weights,
    standardize_scores,
)


def random_psd(rng, d, scale=1.0):
    A = rng.standard_normal((d, d))
    return scale * (A @ A.T) / d


def random_pd(rng, d, scale=1.0):
    return random_psd(rng, d, scale) + 0.5 * scale * np.eye(d)


# ---------------------------------------------------------------------------
# PCA


def test_fit_pca_hand_case():
    X = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    pca = fit_pca(X, 0.3)
    assert pca.output_dim == 1
    # sample variance of [0, 1, 2, 3] with the N-1 convention
    assert np.isclose(pca.eigenvalues[0], 5.0 / 3.0)
    assert np.allclose(np.abs(pca.basis[:, 0]), [1.0, 0.0])


def test_fit_pca_fraction_picks_smallest_dimension():
    rng = np.random.default_rng(10)
    eigvals = np.array([4.0, 1.0, 0.25])
    n = 40
    G = rng.standard_normal((n, 3))
    G -= G.mean(axis=0)  # zero-mean columns keep the planted spectrum exact
    U, _ = np.linalg.qr(G)
    X = U * np.sqrt((n - 1) * eigvals)
    pca_full = fit_pca(X, 1.0)
    assert np.allclose(pca_full.eigenvalues, eigvals, atol=1e-9)
    # cumulative shares are 0.762, 0.952, 1.0
    assert fit_pca(X, 0.3).output_dim == 1
    assert fit_pca(X, 0.80).output_dim == 2
    assert fit_pca(X, 0.96).output_dim == 3
    assert fit_pca(X, 1.0).output_dim == 3


def test_fit_pca_count_target_clipped_to_rank():
    rng = np.random.default_rng(11)
    X = np.outer(rng.standard_normal(20), np.ones(5))  # rank 1 after centering
    assert fit_pca(X, 4).output_dim == 1
    full = rng.standard_normal((20, 5))
    assert fit_pca(full, 3).output_dim == 3
    assert fit_pca(full, 99).output_dim == 5


def test_fit_pca_zero_variance_keeps_one_direction():
    X = np.ones((6, 4))
    pca = fit_pca(X, 0.5)
    assert pca.output_dim == 1
    assert np.allclose(pca.project(X), 0.0)


def test_fit_pca_validation():
    with pytest.raises(ValueError):
        fit_pca(np.ones((1, 3)), 1)
    with pytest.raises(ValueError):
        fit_pca(np.ones((4, 3)), 0)
    with pytest.raises(ValueError):
        fit_pca(np.ones((4, 3)), 1.5)


def test_pca_reconstruction_error_equals_dropped_eigenvalues():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((60, 6)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.2, 0.1])
    for d in (2, 4, 6):
        pca = fit_pca(X, d)
        recon = pca.project(X) @ pca.basis.T + pca.mean
        err = np.sum((X - recon) ** 2) / (len(X) - 1)
        dropped = fit_pca(X, 6).eigenvalues[d:].sum()
        assert np.isclose(err, dropped, rtol=1e-9, atol=1e-12)


def test_pca_projection_is_orthogonal_map():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((30, 5))
    pca = fit_pca(X, 3)
    assert np.allclose(pca.basis.T @ pca.basis, np.eye(3), atol=1e-10)
    assert list(pca.eigenvalues) == sorted(pca.eigenvalues, reverse=True)


def test_pca_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(14)
    X = rng.standard_normal((25, 6))
    pca = fit_pca(X, 4)
    path = tmp_path / "p.mdl"
    pca.save(path)
    loaded = PCAModel.load(path)
    # storage is float32, so round-tripping is close, not exact
    assert np.allclose(loaded.project(X), pca.project(X), atol=1e-4)
    assert loaded.output_dim == 4


# ---------------------------------------------------------------------------
# PLDA log-likelihood ratio


def test_plda_model_validation():
    d = 3
    eye = np.eye(d)
    with pytest.raises(ValueError):
        PLDAModel(np.zeros(d), eye[:2, :2], eye)  # shape mismatch
    with pytest.raises(ValueError):
        PLDAModel(np.zeros(d), eye, -eye)  # within not PD
    asym = eye.copy()
    asym[0, 1] = 0.5
    with pytest.raises(ValueError):
        PLDAModel(np.zeros(d), asym, eye)
    neg = -0.5 * eye
    with pytest.raises(ValueError):
        PLDAModel(np.zeros(d), neg, eye)  # between not PSD
    PLDAModel(np.zeros(d), np.zeros((d, d)), eye)  # zero between is legal


def test_plda_llr_matches_joint_gaussian_oracle():
    rng = np.random.default_rng(15)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        mean = rng.standard_normal(d)
        between = random_psd(rng, d, scale=2.0)
        within = random_pd(rng, d)
        model = PLDAModel(mean, between, within)
        xi = rng.standard_normal(d) * 2 + mean
        xj = rng.standard_normal(d) * 2 + mean
        fast = plda_llr(model, xi, xj)
        slow = joint_gaussian_llr(model.mean, model.between, model.within, xi, xj)
        assert np.isclose(fast, slow, rtol=1e-9, atol=1e-9), (fast, slow)


def test_plda_llr_zero_between_is_identically_zero():
    rng = np.random.default_rng(16)
    d = 4
    model = PLDAModel(rng.standard_normal(d), np.zeros((d, d)), random_pd(rng, d))
    for _ in range(20):
        xi, xj = rng.standard_normal(d), rng.standard_normal(d)
        assert abs(plda_llr(model, xi, xj)) < 1e-10


def test_plda_llr_symmetric():
    rng = np.random.default_rng(17)
    d = 5
    model = PLDAModel(np.zeros(d), random_psd(rng, d), random_pd(rng, d))
    for _ in range(10):
        xi, xj = rng.standard_normal(d), rng.standard_normal(d)
        assert np.isclose(plda_llr(model, xi, xj), plda_llr(model, xj, xi), rtol=1e-12)


def test_plda_llr_prefers_same_speaker_pairs():
    rng = np.random.default_rng(18)
    d = 8
    between = random_psd(rng, d, scale=25.0)
    within = np.eye(d)
    model = PLDAModel(np.zeros(d), between, within)
    same_llrs, diff_llrs = [], []
    for _ in range(200):
        y1 = rng.multivariate_normal(np.zeros(d), between)
        y2 = rng.multivariate_normal(np.zeros(d), between)
        a, b = y1 + rng.standard_normal(d), y1 + rng.standard_normal(d)
        c = y2 + rng.standard_normal(d)
        same_llrs.append(plda_llr(model, a, b))
        diff_llrs.append(plda_llr(model, a, c))
    assert np.median(same_llrs) > 0 > np.median(diff_llrs)
    assert np.mean(same_llrs) > np.mean(diff_llrs) + 5.0


def test_plda_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    d = 4
    model = PLDAModel(rng.standard_normal(d), random_psd(rng, d), random_pd(rng, d))
    path = tmp_path / "m.mdl"
    model.save(path)
    loaded = PLDAModel.load(path)
    x = rng.standard_normal((2, d))
    assert np.isclose(
        plda_llr(loaded, x[0], x[1]), plda_llr(model, x[0], x[1]), atol=1e-3
    )


def test_score_plda_matrix_full_energy_matches_pairwise():
    rng = np.random.default_rng(20)
    d, n = 4, 12
    model = PLDAModel(rng.standard_normal(d), random_psd(rng, d, 4.0), random_pd(rng, d))
    X = rng.standard_normal((n, d)) * 2.0
    sim = score_plda_matrix(X, model, energy_fraction=1.0, recording_id="r")
    assert sim.kind == "plda"
    assert len(sim) == n
    for i in range(0, n, 3):
        for j in range(i + 1, n, 3):
            direct = plda_llr(model, X[i], X[j])
            assert np.isclose(sim.scores[i, j], direct, rtol=1e-8, atol=1e-8)


def test_score_plda_matrix_reduced_energy_separates_speakers():
    spec = SyntheticSpec.well_separated(3, 16, duration=60.0, seed=30)
    seq, ref, _ = generate_synthetic(spec)
    model = ground_truth_plda(spec)
    sim = score_plda_matrix(seq.vectors, model, energy_fraction=0.3, recording_id=seq.recording_id)
    assert sim.recording_id == spec.recording_id
    centers = seq.centers()
    labels = []
    for c in centers:
        active = [s.speaker for s in ref.segments if s.onset <= c < s.offset]
        labels.append(active[0] if len(active) == 1 else None)
    same, diff = [], []
    n = len(seq)
    for i in range(n):
        for j in range(i + 1, n):
            if labels[i] is None or labels[j] is None:
                continue
            (same if labels[i] == labels[j] else diff).append(sim.scores[i, j])
    same, diff = np.asarray(same), np.asarray(diff)
    # the 0.3-energy recording PCA keeps one dimension here, so the tails can
    # touch; the bulk of the two distributions must still be well apart
    assert np.median(same) > np.median(diff) + 5.0
    assert (same < np.median(diff)).mean() < 0.01
    assert (diff > np.median(same)).mean() < 0.01


def test_ground_truth_plda_matches_moment_oracle():
    rng = np.random.default_rng(21)
    spec = SyntheticSpec.well_separated(4, 8, separation=6.0, within_std=1.5)
    model = ground_truth_plda(spec)
    # sample many labeled vectors from the generative model and compare
    # moment estimates against the analytic parameters
    n_per = 4000
    X, labs = [], []
    for k in range(4):
        X.append(rng.normal(spec.speaker_means[k], 1.5, size=(n_per, 8)))
        labs += [k] * n_per
    mean_hat, between_hat, within_hat = estimate_plda_from_labels(np.vstack(X), labs)
    assert np.allclose(mean_hat, model.mean, atol=0.15)
    assert np.allclose(within_hat, model.within, atol=0.2)
    assert np.allclose(between_hat, model.between, atol=0.2)


# ---------------------------------------------------------------------------
# cosine similarity and score utilities


def identity_pca(d):
    return PCAModel(mean=np.zeros(d), basis=np.eye(d), eigenvalues=np.ones(d))


def test_cosine_similarity_hand_case():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 0.0]])
    sim = cosine_similarity(X, identity_pca(2), recording_id="r")
    S = sim.scores
    assert np.isclose(S[0, 2], 1.0)
    assert np.isclose(S[0, 1], 0.0)
    # zero-norm row: off-diagonal 0, diagonal 1
    assert np.allclose(S[3, :3], 0.0)
    assert S[3, 3] == 1.0
    assert np.allclose(np.diag(S), 1.0)


def test_cosine_similarity_range_seeded():
    rng = np.random.default_rng(22)
    for _ in range(10):
        X = rng.standard_normal((int(rng.integers(2, 30)), 6))
        sim = cosine_similarity(X, identity_pca(6))
        assert sim.scores.min() >= -1.0 and sim.scores.max() <= 1.0
        assert np.allclose(sim.scores, sim.scores.T)


def test_similarity_matrix_validation():
    with pytest.raises(ValueError):
        SimilarityMatrix("r", np.ones((2, 3)), kind="plda")
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        SimilarityMatrix("r", bad, kind="plda")
    nonfinite = np.array([[0.0, np.nan], [np.nan, 0.0]])
    with pytest.raises(ValueError):
        SimilarityMatrix("r", nonfinite, kind="plda")
    with pytest.raises(ValueError):
        SimilarityMatrix("r", np.zeros((2, 2)), kind="euclidean")
    # asymmetry below the tolerance is symmetrized
    tiny = np.array([[0.0, 1.0], [1.0 + 5e-7, 0.0]])
    sim = SimilarityMatrix("r", tiny, kind="plda")
    assert sim.scores[0, 1] == sim.scores[1, 0]
    with pytest.raises(ValueError):
        SimilarityMatrix("r", np.array([[1.0, 2.0], [2.0, 1.0]]), kind="cosine")
    # larger than one tile: every entry is asymmetric below the tolerance,
    # and one pair inside an off-diagonal tile goes past it
    rng = np.random.default_rng(29)
    raw = rng.normal(size=(600, 600))
    big = raw + raw.T + rng.uniform(-2.5e-7, 2.5e-7, size=(600, 600))
    sim = SimilarityMatrix("r", big, kind="plda")
    expected = 0.5 * (big + big.T)
    assert np.array_equal(sim.scores, expected)
    big[:] = 0.0
    assert np.array_equal(sim.scores, expected)
    skewed = raw + raw.T
    skewed[517, 3] += 2e-6
    with pytest.raises(ValueError, match="symmetric"):
        SimilarityMatrix("r", skewed, kind="plda")
    X = rng.normal(size=(600, 5))
    model = PLDAModel(np.zeros(5), random_psd(rng, 5), random_pd(rng, 5))
    plda = score_plda_matrix(X, model, energy_fraction=0.9).scores
    assert np.array_equal(plda, plda.T)
    cos = cosine_similarity(X, fit_pca(X, 4)).scores
    assert np.array_equal(cos, cos.T)


def test_similarity_matrix_stores_the_condensed_triangle():
    rng = np.random.default_rng(31)
    n = 600
    raw = rng.normal(size=(n, n))
    S = raw + raw.T
    before = S.copy()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sim = SimilarityMatrix("r", S, kind="plda")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # half the square plus one band of tiles: no second n x n array or mask
    assert peak < (0.5 * n * n + 4 * 128 * n) * 8
    assert np.array_equal(S, before)
    iu = np.triu_indices(n, 1)
    assert np.array_equal(sim.condensed, S[iu]) and np.array_equal(sim.diagonal, np.diag(S))
    assert not sim.condensed.flags.writeable and not sim.diagonal.flags.writeable
    assert len(sim) == n
    # each access rebuilds a new square
    first = sim.scores
    first[0, 1] += 1.0
    assert np.array_equal(sim.scores, S)


def test_similarity_matrix_rows_match_scores():
    rng = np.random.default_rng(32)
    for n in (2, 3, 255, 256, 257, 600):
        raw = rng.normal(size=(n, n))
        sim = SimilarityMatrix("r", raw + raw.T, kind="plda")
        S = sim.scores
        assert np.array_equal(S, raw + raw.T), n
        # the k-NN graph's 256-row bands, single rows at the ends, and
        # ranges that straddle the band and tile edges
        ranges = [(r0, min(r0 + 256, n)) for r0 in range(0, n, 256)]
        ranges += [(0, 1), (n - 1, n), (1, n), (0, n - 1), (n // 2, n // 2)]
        ranges += [(a, b) for a, b in ((127, 129), (255, 257), (256, 257), (100, 600)) if b <= n]
        for start, stop in ranges:
            block = sim.rows(start, stop)
            assert block.shape == (stop - start, n)
            assert np.array_equal(block, S[start:stop]), (n, start, stop)
        # [members x cluster] blocks, as small-cluster absorption reads them
        for _ in range(5):
            members = np.sort(rng.choice(n, size=min(n, 3), replace=False))
            cols = np.sort(rng.choice(n, size=(n + 1) // 2, replace=False))
            rows = np.concatenate([sim.rows(v, v + 1) for v in members])
            assert np.array_equal(rows[:, cols], S[np.ix_(members, cols)]), n
    with pytest.raises(ValueError, match="row range"):
        sim.rows(5, 4)
    with pytest.raises(ValueError, match="row range"):
        sim.rows(0, 601)


def _scorer_inputs(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 12))
    model = PLDAModel(np.zeros(12), random_psd(rng, 12), random_pd(rng, 12))
    return X, model, identity_pca(12)


@pytest.mark.parametrize("kind", ["plda", "cosine"])
def test_scorers_condense_in_their_own_buffer(monkeypatch, kind):
    # the scorers check and condense the square in its own buffer: the
    # result has the bits of the public constructor on the same square
    squares = []
    condense = scoring._condense_into

    def keep_square(S, out, kind):
        squares.append(S.copy())
        return condense(S, out, kind)

    monkeypatch.setattr(scoring, "_condense_into", keep_square)
    for n in (1, 2, 3, 128, 129, 600) if kind == "cosine" else (2, 3, 128, 129, 600):
        X, model, pca = _scorer_inputs(n, n)
        if kind == "plda":
            sim = score_plda_matrix(X, model, energy_fraction=0.5, recording_id="r")
        else:
            sim = cosine_similarity(X, pca, recording_id="r")
        want = SimilarityMatrix("r", squares.pop(), kind=kind)
        assert (sim.recording_id, sim.kind, len(sim)) == ("r", kind, n)
        assert np.array_equal(sim.condensed, want.condensed), n
        assert np.array_equal(sim.diagonal, want.diagonal), n
        # the buffer was shrunk to the triangle and is owned by the matrix
        assert sim.condensed.shape == (n * (n - 1) // 2,) and sim.condensed.base is None
        assert not sim.condensed.flags.writeable and not sim.diagonal.flags.writeable


def test_plda_symmetry_check_sees_the_raw_product(monkeypatch):
    # the scorer's square reaches the 1e-6 symmetry check as the matrix
    # product left it, so a skew is reported rather than averaged away
    X, model, _ = _scorer_inputs(50, 37)
    matrix = scoring._PairwiseScorer.matrix

    def skewed_square(self, X):
        S = matrix(self, X)
        S[0, 1] += 1e-3
        return S

    monkeypatch.setattr(scoring._PairwiseScorer, "matrix", skewed_square)
    with pytest.raises(ValueError, match="symmetric"):
        score_plda_matrix(X, model, energy_fraction=0.5)
    monkeypatch.undo()

    # a skewed cross-term form makes the product itself asymmetric
    init = scoring._PairwiseScorer.__init__

    def skewed_form(self, model):
        init(self, model)
        self.N = self.N.copy()
        self.N[0, 1] += 1e-3

    monkeypatch.setattr(scoring._PairwiseScorer, "__init__", skewed_form)
    with pytest.raises(ValueError, match="symmetric"):
        score_plda_matrix(X, model, energy_fraction=0.5)
    with pytest.raises(ValueError, match="symmetric"):
        plda_llr(model, X[0], X[1])


@pytest.mark.parametrize("kind", ["plda", "cosine"])
def test_scorers_peak_below_one_square(kind):
    # the GEMM's square is the only n x n array; it is shrunk to the
    # condensed triangle (0.5 n^2) before the scorer returns
    n = 2000
    X, model, pca = _scorer_inputs(n, 33)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        if kind == "plda":
            sim = score_plda_matrix(X, model, energy_fraction=0.5)
        else:
            sim = cosine_similarity(X, pca)
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(sim) == n
    assert peak < (n * n + 4 * 128 * n) * 8
    assert kept < (0.5 * n * n + 4 * n) * 8


def test_average_linkage_negates_the_stored_triangle_in_place():
    rng = np.random.default_rng(34)
    n = 2000
    raw = rng.normal(size=(n, n))
    sim = SimilarityMatrix("r", raw + raw.T, kind="plda")
    stored = sim.condensed.copy()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tree = sim.average_linkage
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # no negated copy of the triangle; scipy's own copy inside the
    # nearest-neighbor chain is not traced
    assert peak < 0.1 * n * n * 8
    assert np.array_equal(tree, linkage(-stored, method="average"))
    assert np.array_equal(sim.condensed, stored) and not sim.condensed.flags.writeable
    assert sim.average_linkage is tree


def test_average_linkage_restores_the_triangle_when_scipy_raises(monkeypatch):
    rng = np.random.default_rng(35)
    raw = rng.normal(size=(40, 40))
    sim = SimilarityMatrix("r", raw + raw.T, kind="plda")
    stored = sim.condensed.copy()

    def fail(distances, method):
        assert np.array_equal(distances, -stored)
        raise RuntimeError("linkage failed")

    monkeypatch.setattr(scoring, "linkage", fail)
    with pytest.raises(RuntimeError, match="linkage failed"):
        sim.average_linkage
    assert np.array_equal(sim.condensed, stored) and not sim.condensed.flags.writeable
    monkeypatch.undo()
    assert np.array_equal(sim.average_linkage, linkage(-stored, method="average"))
    assert np.array_equal(sim.condensed, stored) and not sim.condensed.flags.writeable


def test_sigmoid_weights_values():
    s = np.array([[0.0, 0.5], [0.5, 1.0]])
    w = sigmoid_weights(s, scale=2.0, offset=0.5)
    assert np.isclose(w[0, 1], 0.5)
    assert np.isclose(w[0, 0], 1.0 / (1.0 + np.exp(1.0)))
    assert np.isclose(w[1, 1], 1.0 / (1.0 + np.exp(-1.0)))
    with pytest.raises(ValueError):
        sigmoid_weights(s, scale=0.0)


def test_sigmoid_weights_monotone_and_bounded():
    rng = np.random.default_rng(23)
    s = np.sort(rng.standard_normal(100) * 50)
    w = sigmoid_weights(s, scale=1.3, offset=-0.2)
    assert (np.diff(w) >= 0).all()
    assert w.min() >= 0.0 and w.max() <= 1.0


def test_standardize_scores_moments():
    rng = np.random.default_rng(24)
    S = rng.standard_normal((20, 20)) * 7 + 3
    S = 0.5 * (S + S.T)
    out = standardize_scores(SimilarityMatrix("r", S, kind="plda"))
    assert out.kind == "plda" and len(out) == 20
    z = out.scores
    off = ~np.eye(20, dtype=bool)
    assert abs(z[off].mean()) < 1e-12
    assert np.isclose(z[off].std(), 1.0)
    # the moments are those of the stored triangle: the map has the bits
    # of the plain expression over t = S[triu]
    for n in (3, 300, 1001, 2395):
        S = rng.standard_normal((n, n)) * 7 + 3
        S = 0.5 * (S + S.T)
        t = S[np.triu_indices(n, 1)]
        want = (S - t.mean()) / t.std()
        assert np.array_equal(standardize_scores(SimilarityMatrix("r", S, kind="plda")).scores, want), n
    # here both of the triangle's moments differ in bits from those of
    # S[~eye], which they equal only in exact arithmetic, so the oracle
    # above is the definition rather than a match by chance
    S = np.random.default_rng(0).standard_normal((129, 129)) * 7 + 3
    S = 0.5 * (S + S.T)
    off = ~np.eye(129, dtype=bool)
    t = S[np.triu_indices(129, 1)]
    assert t.mean() != S[off].mean() and t.std() != S[off].std()
    got = standardize_scores(SimilarityMatrix("r", S, kind="plda")).scores
    assert np.array_equal(got, (S - t.mean()) / t.std())
    assert not np.array_equal(got, (S - S[off].mean()) / S[off].std())


def test_standardize_scores_leaves_its_input_untouched():
    rng = np.random.default_rng(36)
    raw = rng.normal(size=(300, 300)) * 5 + 2
    sim = SimilarityMatrix("r", raw + raw.T, kind="plda")
    tree = sim.average_linkage
    kept = (sim.condensed.copy(), sim.diagonal.copy(), tree.copy())
    out = standardize_scores(sim)
    assert not np.shares_memory(out.condensed, sim.condensed)
    assert not np.shares_memory(out.diagonal, sim.diagonal)
    assert np.array_equal(sim.condensed, kept[0]) and np.array_equal(sim.diagonal, kept[1])
    assert not sim.condensed.flags.writeable and not sim.diagonal.flags.writeable
    assert sim.average_linkage is tree and np.array_equal(tree, kept[2])


def test_standardize_scores_degenerate():
    constant = SimilarityMatrix("r", np.full((4, 4), 2.5), kind="plda")
    out = standardize_scores(constant).scores
    off = ~np.eye(4, dtype=bool)
    assert np.allclose(out[off], 0.0)
    # a symmetric 2 x 2 has one distinct off-diagonal score: centered only
    pair = np.array([[1.0, 3.0], [3.0, 2.0]])
    assert np.array_equal(standardize_scores(SimilarityMatrix("r", pair, kind="plda")).scores, pair - 3.0)
    single = SimilarityMatrix("r", np.array([[3.0]]), kind="plda")
    assert np.array_equal(standardize_scores(single).scores, np.zeros((1, 1)))
    with pytest.raises(ValueError, match="plda"):
        standardize_scores(SimilarityMatrix("r", np.eye(3), kind="cosine"))
