"""Tests for HMM resegmentation, overlap assignment, and posterior decoding."""

import numpy as np
import pytest

from diarkit import reseg
from diarkit.annotations import Annotation, ScoringRegions, Segment
from diarkit.clustering import Partition
from diarkit.container import FormatError
from diarkit.embeddings import EmbeddingSequence
from diarkit.reseg import (
    LDAProjection,
    OverlapRegions,
    PosteriorMatrix,
    VBxConfig,
    WhiteningStats,
    assign_overlap,
    decode_posteriors,
    interpolate_plda,
    lda_project,
    parse_overlap_regions,
    vbx_resegment,
    whiten_and_normalize,
    write_overlap_regions,
)
from diarkit.reseg import _forward_backward
from diarkit.scoring import NumericalError, PLDAModel

from oracles import forward_backward_by_loop, hmm_posterior_by_enumeration


# ---------------------------------------------------------------------------
# posterior container


def test_posterior_matrix_validation():
    with pytest.raises(ValueError, match="2-D"):
        PosteriorMatrix("rec", np.zeros(4), frame_shift=0.1)
    with pytest.raises(ValueError, match="finite"):
        PosteriorMatrix("rec", np.array([[np.nan, 0.5]]), frame_shift=0.1)
    with pytest.raises(ValueError, match="lie in"):
        PosteriorMatrix("rec", np.array([[1.5, 0.0]]), frame_shift=0.1)
    with pytest.raises(ValueError, match="frame_shift"):
        PosteriorMatrix("rec", np.zeros((2, 2)), frame_shift=0.0)
    with pytest.raises(ValueError, match="subsample_factor"):
        PosteriorMatrix("rec", np.zeros((2, 2)), frame_shift=0.1, subsample_factor=0)
    with pytest.raises(ValueError, match="speakers"):
        PosteriorMatrix("rec", np.zeros((2, 2)), frame_shift=0.1, speakers=("a",))


def test_posterior_matrix_row_centers():
    post = PosteriorMatrix(
        "rec", np.zeros((3, 2)), frame_shift=0.01, subsample_factor=10, time_offset=0.5
    )
    assert post.row_duration == pytest.approx(0.1)
    np.testing.assert_allclose(post.row_centers(), [0.55, 0.65, 0.75])


def test_posterior_matrix_default_speaker_names():
    post = PosteriorMatrix("rec", np.zeros((2, 3)), frame_shift=0.1)
    assert post.speakers == ("spk0", "spk1", "spk2")


def test_posterior_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    # float32-representable values survive the storage precision bit-exactly
    M = rng.uniform(size=(17, 3)).astype(np.float32).astype(float)
    post = PosteriorMatrix(
        "meeting_7",
        M,
        frame_shift=0.01,
        subsample_factor=25,
        speakers=("alice", "bob", "carol"),
        time_offset=0.625,
    )
    path = tmp_path / "meeting_7.post"
    post.save(path)
    back = PosteriorMatrix.load(path)
    assert back.recording_id == "meeting_7"
    np.testing.assert_array_equal(back.matrix, M)
    assert back.frame_shift == 0.01
    assert back.subsample_factor == 25
    assert back.speakers == ("alice", "bob", "carol")
    assert back.time_offset == 0.625


def test_posterior_matrix_load_rejects_wrong_type(tmp_path):
    stats = WhiteningStats.fit(np.random.default_rng(1).normal(size=(20, 3)))
    path = tmp_path / "stats.emb"
    stats.save(path)
    with pytest.raises(FormatError, match="expected type posteriors"):
        PosteriorMatrix.load(path)


# ---------------------------------------------------------------------------
# overlap region I/O


def test_overlap_regions_validation():
    with pytest.raises(ValueError, match="bad overlap interval"):
        OverlapRegions("rec", ((2.0, 1.0),))
    with pytest.raises(ValueError, match="must not overlap"):
        OverlapRegions("rec", ((0.0, 2.0), (1.5, 3.0)))
    reg = OverlapRegions("rec", ((4.0, 5.0), (1.0, 2.0)))
    assert reg.intervals == ((1.0, 2.0), (4.0, 5.0))


def test_parse_overlap_regions():
    text = "\n".join(
        [
            "# detector output",
            "OVL recB 1 4.000 1.500",
            "OVL recA 1 0.250 0.750",
            ";; comment",
            "SPEAKER recA 1 0 1 <NA> <NA> x <NA> <NA>",
            "OVL recA 1 3.000 0.500",
        ]
    )
    regions = parse_overlap_regions(text)
    assert [r.recording_id for r in regions] == ["recA", "recB"]
    assert regions[0].intervals == ((0.25, 1.0), (3.0, 3.5))
    assert regions[1].intervals == ((4.0, 5.5),)


def test_parse_overlap_regions_errors():
    with pytest.raises(ValueError, match="line 1: expected 5 fields"):
        parse_overlap_regions("OVL rec 1 0.0")
    with pytest.raises(ValueError, match="line 1: non-numeric"):
        parse_overlap_regions("OVL rec 1 zero 1.0")
    with pytest.raises(ValueError, match="line 2: overlap duration"):
        parse_overlap_regions("OVL rec 1 0.0 1.0\nOVL rec 1 5.0 0.0")


def test_overlap_regions_roundtrip():
    regions = [
        OverlapRegions("recA", ((0.25, 1.0), (3.0, 3.5))),
        OverlapRegions("recB", ((4.0, 5.5),)),
    ]
    assert parse_overlap_regions(write_overlap_regions(regions)) == regions
    assert write_overlap_regions([]) == ""


# ---------------------------------------------------------------------------
# PLDA interpolation


def test_interpolate_plda_endpoints_exact():
    rng = np.random.default_rng(2)
    a = PLDAModel(rng.normal(size=3), np.eye(3) * 2.0, np.eye(3))
    b = PLDAModel(rng.normal(size=3), np.eye(3) * 0.5, np.eye(3) * 3.0)
    assert interpolate_plda(a, b, 1.0) is a
    assert interpolate_plda(a, b, 0.0) is b


def test_interpolate_plda_midpoint():
    a = PLDAModel(np.zeros(2), np.eye(2) * 4.0, np.eye(2) * 2.0)
    b = PLDAModel(np.ones(2) * 2.0, np.eye(2) * 2.0, np.eye(2) * 4.0)
    mid = interpolate_plda(a, b, 0.5)
    np.testing.assert_allclose(mid.mean, [1.0, 1.0])
    np.testing.assert_allclose(mid.between, np.eye(2) * 3.0)
    np.testing.assert_allclose(mid.within, np.eye(2) * 3.0)


def test_interpolate_plda_validation():
    a = PLDAModel(np.zeros(2), np.eye(2), np.eye(2))
    b = PLDAModel(np.zeros(3), np.eye(3), np.eye(3))
    with pytest.raises(ValueError, match="alpha"):
        interpolate_plda(a, a, 1.5)
    with pytest.raises(ValueError, match="dimension"):
        interpolate_plda(a, b, 0.5)


# ---------------------------------------------------------------------------
# whitening and LDA


def test_whitening_makes_pool_covariance_identity():
    rng = np.random.default_rng(3)
    d = 5
    A = rng.normal(size=(d, d))
    cov = A @ A.T + 0.5 * np.eye(d)
    X = rng.multivariate_normal(rng.normal(size=d) * 3.0, cov, size=10_000)
    stats = WhiteningStats.fit(X)
    white = np.linalg.solve(stats.cholesky, (X - stats.mean).T).T
    np.testing.assert_allclose(np.cov(white, rowvar=False), np.eye(d), atol=1e-2)
    np.testing.assert_allclose(white.mean(axis=0), 0.0, atol=1e-2)


def test_whiten_and_normalize_unit_rows():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(200, 4)) * 3.0 + 1.0
    stats = WhiteningStats.fit(X)
    out = whiten_and_normalize(X, stats)
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    # the pool mean whitens to the zero vector and stays there
    out_mean = whiten_and_normalize(stats.mean.reshape(1, -1), stats)
    np.testing.assert_array_equal(out_mean, np.zeros((1, 4)))


def test_whitening_fit_validation():
    with pytest.raises(ValueError, match="at least 2 rows"):
        WhiteningStats.fit(np.zeros((1, 3)))
    degenerate = np.zeros((10, 2))
    degenerate[:, 0] = np.arange(10.0)
    with pytest.raises(NumericalError, match="singular"):
        WhiteningStats.fit(degenerate)
    stats = WhiteningStats.fit(degenerate, ridge=1e-3)
    assert np.isfinite(stats.cholesky).all()


def test_whitening_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    stats = WhiteningStats.fit(rng.normal(size=(50, 4)))
    path = tmp_path / "white.emb"
    stats.save(path)
    back = WhiteningStats.load(path)
    np.testing.assert_array_equal(back.mean, stats.mean.astype(np.float32))
    np.testing.assert_array_equal(back.cholesky, stats.cholesky.astype(np.float32))


def test_lda_first_direction_recovers_separating_axis():
    rng = np.random.default_rng(6)
    n = 400
    labels = np.repeat([0, 1], n // 2)
    X = rng.normal(size=(n, 3))
    X[labels == 0, 1] -= 3.0
    X[labels == 1, 1] += 3.0
    W, projected = lda_project(X, labels, out_dim=1)
    direction = W[:, 0] / np.linalg.norm(W[:, 0])
    assert abs(direction[1]) > 0.99
    np.testing.assert_allclose(projected, (X - X.mean(axis=0)) @ W)
    # projected classes separate cleanly along the single output coordinate
    lo, hi = projected[labels == 0, 0], projected[labels == 1, 0]
    if lo.mean() > hi.mean():
        lo, hi = hi, lo
    assert lo.max() < hi.min()


def test_lda_pads_beyond_class_count():
    rng = np.random.default_rng(7)
    n = 300
    labels = np.repeat([0, 1], n // 2)
    X = rng.normal(size=(n, 6))
    X[labels == 1, 0] += 4.0
    W, projected = lda_project(X, labels, out_dim=4)
    assert W.shape == (6, 4)
    assert projected.shape == (n, 4)
    assert np.linalg.matrix_rank(W) == 4


def test_lda_validation():
    X = np.random.default_rng(8).normal(size=(20, 3))
    with pytest.raises(ValueError, match="one label per"):
        lda_project(X, np.zeros(5), out_dim=1)
    with pytest.raises(ValueError, match="at least 2 classes"):
        lda_project(X, np.zeros(20), out_dim=1)
    labels = np.repeat([0, 1], 10)
    with pytest.raises(ValueError, match="out_dim"):
        lda_project(X, labels, out_dim=4)
    flat = np.zeros((20, 3))
    flat[labels == 1, 0] = 1.0
    with pytest.raises(NumericalError, match="singular"):
        lda_project(flat, labels, out_dim=1)
    W, _ = lda_project(flat, labels, out_dim=1, ridge=1e-3)
    assert np.isfinite(W).all()


def test_lda_projection_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    labels = np.repeat([0, 1, 2], 40)
    X = rng.normal(size=(120, 5)) + labels[:, None] * 2.0
    proj = LDAProjection.fit(X, labels, out_dim=2)
    path = tmp_path / "lda.emb"
    proj.save(path)
    back = LDAProjection.load(path)
    np.testing.assert_array_equal(back.mean, proj.mean.astype(np.float32))
    np.testing.assert_array_equal(back.matrix, proj.matrix.astype(np.float32))
    np.testing.assert_allclose(back.apply(X), proj.apply(X), atol=1e-4)


# ---------------------------------------------------------------------------
# forward-backward against enumeration


def test_forward_backward_matches_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(20):
        S = int(rng.integers(2, 4))
        T = int(rng.integers(2, 7))
        pi = rng.dirichlet(np.ones(S))
        A = rng.dirichlet(np.ones(S), size=S)
        B = rng.uniform(0.05, 1.0, size=(T, S))
        gamma, log_ev = _forward_backward(np.log(pi), np.log(A), np.log(B))
        ref_gamma, ref_log_ev = hmm_posterior_by_enumeration(pi, A, B)
        np.testing.assert_allclose(gamma, ref_gamma, atol=1e-10)
        assert log_ev == pytest.approx(ref_log_ev, abs=1e-10)


def sticky_transitions(S, loop=0.8):
    A = np.full((S, S), (1.0 - loop) / (S - 1))
    np.fill_diagonal(A, loop)
    return A


def forward_backward_twice(logpi, logA, logB):
    """Two calls with NaN-filled arrays of the working sizes allocated and
    freed in between, so a buffer read before it is written shows up."""
    first = _forward_backward(logpi, logA, logB)
    T, S = logB.shape
    junk = [np.full(size, np.nan) for size in (2 * (T + 2 * S) * S * S, 2 * (T + S) * S, T * S)]
    del junk
    second = _forward_backward(logpi, logA, logB)
    np.testing.assert_array_equal(first[0], second[0])
    assert first[1] == second[1]
    return first


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind", ["sticky", "dirichlet"])
def test_forward_backward_matches_the_loop_and_repeats(kind):
    # T = 1..80 covers every residue of the block length for small T; the
    # larger sizes are the window counts of the benchmark's recordings
    rng = np.random.default_rng(17)
    for T in [*range(1, 81), 235, 1195, 4795]:
        for S in range(2, 10):
            pi = rng.dirichlet(np.ones(S))
            if kind == "sticky":
                A = sticky_transitions(S)
            else:
                A = rng.dirichlet(np.ones(S), size=S)
            logB = 20.0 * rng.normal(size=(T, S))
            args = (np.log(pi), np.log(A), logB)
            gamma, log_ev = forward_backward_twice(*args)
            ref_gamma, ref_log_ev = forward_backward_by_loop(*args)
            np.testing.assert_allclose(gamma, ref_gamma, rtol=0, atol=1e-9)
            assert log_ev == pytest.approx(ref_log_ev, rel=1e-12)
            np.testing.assert_array_equal(gamma.argmax(axis=1), ref_gamma.argmax(axis=1))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e3, 1e5])
def test_forward_backward_survives_extreme_emissions(scale):
    # spreads far past the ~745 nats where exp(logB - max) underflows to 0
    rng = np.random.default_rng(18)
    for T in (1, 2, 3, 17, 80, 235):
        for S in range(2, 10):
            pi = rng.dirichlet(np.ones(S))
            args = (np.log(pi), np.log(sticky_transitions(S)), scale * rng.normal(size=(T, S)))
            gamma, log_ev = _forward_backward(*args)
            ref_gamma, ref_log_ev = forward_backward_by_loop(*args)
            assert np.isfinite(gamma).all()
            np.testing.assert_allclose(gamma.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            np.testing.assert_array_equal(gamma.argmax(axis=1), ref_gamma.argmax(axis=1))
            assert log_ev == pytest.approx(ref_log_ev, rel=1e-12)


# ---------------------------------------------------------------------------
# variational resegmentation


def sample_two_state_chain(rng, T, d, loop=0.8, separation=2.0):
    means = np.zeros((2, d))
    means[0, 0] = separation
    means[1, 0] = -separation
    states = np.empty(T, dtype=int)
    states[0] = rng.integers(2)
    for t in range(1, T):
        stay = rng.random() < loop
        states[t] = states[t - 1] if stay else 1 - states[t - 1]
    X = means[states] + rng.normal(size=(T, d))
    centered = means - means.mean(axis=0)
    between = centered.T @ centered / 2.0
    plda = PLDAModel(mean=means.mean(axis=0), between=between, within=np.eye(d))
    return X, states, plda


def corrupt_labels(rng, states, flip_fraction):
    labels = states.copy()
    flips = rng.random(len(states)) < flip_fraction
    labels[flips] = 1 - labels[flips]
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    return labels


def permuted_accuracy(labels, states):
    labels = np.asarray(labels)
    direct = float(np.mean(labels == states))
    flipped = float(np.mean((1 - labels) == states))
    return max(direct, flipped)


def test_vbx_two_state_chain_decoding():
    rng = np.random.default_rng(11)
    config = VBxConfig(loop_probability=0.8, max_iterations=40, convergence_tolerance=1e-8)
    accuracies = []
    for _ in range(8):
        X, states, plda = sample_two_state_chain(rng, T=150, d=8)
        initial = Partition.from_labels(corrupt_labels(rng, states, 0.15))
        trace: list[float] = []
        part, post = vbx_resegment(X, plda, initial, config, elbo_trace=trace)
        assert len(trace) >= 1
        assert np.all(np.diff(trace) >= -1e-8)
        assert post.matrix.shape == (150, len(part.clusters))
        np.testing.assert_allclose(post.matrix.sum(axis=1), 1.0, atol=1e-9)
        if len(part.clusters) == 2:
            accuracies.append(permuted_accuracy(part.labels, states))
        else:
            accuracies.append(0.0)
    assert np.mean(accuracies) >= 0.95
    assert min(accuracies) >= 0.85


def test_vbx_extreme_acoustic_scale_matches_the_loop(monkeypatch):
    rng = np.random.default_rng(19)
    d, T = 6, 300
    means = np.zeros((3, d))
    means[np.arange(3), np.arange(3)] = 3.0
    states = np.repeat(rng.integers(3, size=T // 20), 20)
    X = means[states] + rng.normal(size=(T, d))
    centered = means - means.mean(axis=0)
    plda = PLDAModel(means.mean(axis=0), centered.T @ centered / 3.0, np.eye(d))
    noisy = rng.random(T) < 0.1
    initial = Partition.from_labels(np.where(noisy, rng.integers(3, size=T), states))
    config = VBxConfig(acoustic_scale=50.0)

    spreads = []

    def blocked(logpi, logA, logB):
        spreads.append(float((logB.max(axis=1) - logB.min(axis=1)).max()))
        return _forward_backward(logpi, logA, logB)

    monkeypatch.setattr(reseg, "_forward_backward", blocked)
    part, post = vbx_resegment(X, plda, initial, config)
    assert max(spreads) > 745.0, max(spreads)
    assert len(part.clusters) == 3
    monkeypatch.setattr(reseg, "_forward_backward", forward_backward_by_loop)
    ref_part, _ = vbx_resegment(X, plda, initial, config)
    assert part.clusters == ref_part.clusters
    assert np.isfinite(post.matrix).all()


def test_vbx_single_cluster_passthrough():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(20, 4))
    plda = PLDAModel(np.zeros(4), np.eye(4), np.eye(4))
    initial = Partition.from_labels(np.zeros(20, dtype=int))
    part, post = vbx_resegment(X, plda, initial)
    assert part.clusters == initial.clusters
    np.testing.assert_array_equal(post.matrix, np.ones((20, 1)))


def test_vbx_drops_empty_states():
    rng = np.random.default_rng(13)
    X, states, plda = sample_two_state_chain(rng, T=200, d=6, separation=3.0)
    # hand three frames to a spurious third cluster
    labels = states.copy()
    labels[[5, 6, 7]] = 2
    part, post = vbx_resegment(X, plda, Partition.from_labels(labels))
    assert len(part.clusters) <= 3
    assert post.matrix.shape[1] == len(part.clusters)
    assert permuted_accuracy(np.minimum(part.labels, 1), states) >= 0.95


def test_vbx_posterior_columns_follow_cluster_order():
    rng = np.random.default_rng(14)
    X, states, plda = sample_two_state_chain(rng, T=100, d=5)
    initial = Partition.from_labels(corrupt_labels(rng, states, 0.1))
    part, post = vbx_resegment(X, plda, initial)
    hard = post.matrix.argmax(axis=1)
    np.testing.assert_array_equal(hard, part.labels)


def test_vbx_embedding_sequence_carries_time_grid():
    rng = np.random.default_rng(15)
    X, states, plda = sample_two_state_chain(rng, T=60, d=5)
    seq = EmbeddingSequence(
        recording_id="recX",
        vectors=X,
        window_size=1.5,
        window_shift=0.25,
        recording_duration=60 * 0.25 + 1.25,
        windows=np.column_stack([np.arange(60) * 0.25, np.arange(60) * 0.25 + 1.5]),
    )
    initial = Partition.from_labels(corrupt_labels(rng, states, 0.1))
    part, post = vbx_resegment(seq, plda, initial)
    assert post.recording_id == "recX"
    assert post.frame_shift == 0.25
    assert post.time_offset == 0.0
    assert post.matrix.shape[0] == 60


def test_vbx_validation():
    rng = np.random.default_rng(16)
    X = rng.normal(size=(10, 3))
    plda = PLDAModel(np.zeros(3), np.eye(3), np.eye(3))
    short = Partition.from_labels([0, 1, 0])
    with pytest.raises(ValueError, match="label every embedding"):
        vbx_resegment(X, plda, short)
    wrong_dim = PLDAModel(np.zeros(4), np.eye(4), np.eye(4))
    labels = Partition.from_labels(np.arange(10) % 2)
    with pytest.raises(ValueError, match="dimension"):
        vbx_resegment(X, wrong_dim, labels)


def test_vbx_config_validation():
    with pytest.raises(ValueError, match="loop_probability"):
        VBxConfig(loop_probability=1.0)
    with pytest.raises(ValueError, match="max_iterations"):
        VBxConfig(max_iterations=0)
    with pytest.raises(ValueError, match="convergence_tolerance"):
        VBxConfig(convergence_tolerance=0.0)
    with pytest.raises(ValueError, match="scales"):
        VBxConfig(acoustic_scale=0.0)


# ---------------------------------------------------------------------------
# overlap assignment


def overlap_fixture(total=10.0, frame_shift=0.1):
    n = int(round(total / frame_shift))
    M = np.tile([0.8, 0.2], (n, 1))
    post = PosteriorMatrix("rec", M, frame_shift=frame_shift)
    ann = Annotation("rec", (Segment("rec", 0.0, total, "spk0"),))
    return ann, post


def test_assign_overlap_adds_exact_durations():
    ann, post = overlap_fixture()
    overlaps = OverlapRegions("rec", ((2.0, 3.0), (5.0, 5.5)))
    out = assign_overlap(ann, post, overlaps)
    before = sum(s.duration for s in ann.segments)
    after = sum(s.duration for s in out.segments)
    assert after - before == pytest.approx(1.5, abs=1e-12)
    added = [s for s in out.segments if s.speaker == "spk1"]
    assert [(s.onset, s.offset) for s in added] == [(2.0, 3.0), (5.0, 5.5)]
    # the original speech is untouched
    assert set(ann.segments) <= set(out.segments)


def test_assign_overlap_picks_runner_up():
    n = 100
    M = np.tile([0.1, 0.3, 0.6], (n, 1))
    post = PosteriorMatrix("rec", M, frame_shift=0.1, speakers=("a", "b", "c"))
    ann = Annotation("rec", (Segment("rec", 0.0, 10.0, "c"),))
    out = assign_overlap(ann, post, OverlapRegions("rec", ((1.0, 2.0),)))
    added = [s for s in out.segments if (s.onset, s.offset) == (1.0, 2.0)]
    assert [s.speaker for s in added] == ["b"]


def test_assign_overlap_single_speaker_warns():
    M = np.ones((50, 1))
    post = PosteriorMatrix("rec", M, frame_shift=0.1)
    ann = Annotation("rec", (Segment("rec", 0.0, 5.0, "spk0"),))
    with pytest.warns(UserWarning, match="only one speaker"):
        out = assign_overlap(ann, post, OverlapRegions("rec", ((1.0, 2.0),)))
    assert out == ann


def test_assign_overlap_empty_region_warns():
    ann, post = overlap_fixture(total=3.0)
    with pytest.warns(UserWarning, match="no posterior frames"):
        out = assign_overlap(ann, post, OverlapRegions("rec", ((8.0, 9.0),)))
    assert out == ann


# ---------------------------------------------------------------------------
# posterior decoding


def test_decode_threshold_rule_exact_boundaries():
    M = np.zeros((40, 2))
    M[0:10, 0] = 0.9
    M[10:20, 1] = 0.9
    M[20:30, 0] = 0.9
    M[30:40, 1] = 0.9
    post = PosteriorMatrix("rec", M, frame_shift=0.1)
    sad = ScoringRegions("rec", ((0.0, 4.0),))
    ann = decode_posteriors(post, threshold=0.5, sad=sad, median_window=1)
    by_spk = {
        spk: [(s.onset, s.offset) for s in ann.segments if s.speaker == spk]
        for spk in ("spk0", "spk1")
    }
    assert by_spk["spk0"] == [(0.0, 1.0), (2.0, 3.0)]
    assert by_spk["spk1"] == [(1.0, 2.0), (3.0, 4.0)]


def test_decode_fallback_argmax_with_tie_to_lower_column():
    M = np.array([[0.3, 0.3], [0.2, 0.4], [0.3, 0.3]])
    post = PosteriorMatrix("rec", M, frame_shift=1.0)
    sad = ScoringRegions("rec", ((0.0, 3.0),))
    ann = decode_posteriors(post, threshold=0.5, sad=sad, median_window=1)
    by_spk = {s.speaker: (s.onset, s.offset) for s in ann.segments}
    assert by_spk["spk0"] == (0.0, 1.0) or by_spk["spk0"] == (2.0, 3.0)
    spk0 = sorted((s.onset, s.offset) for s in ann.segments if s.speaker == "spk0")
    assert spk0 == [(0.0, 1.0), (2.0, 3.0)]
    assert [(s.onset, s.offset) for s in ann.segments if s.speaker == "spk1"] == [(1.0, 2.0)]


def test_decode_masks_non_speech():
    M = np.full((30, 1), 0.9)
    post = PosteriorMatrix("rec", M, frame_shift=0.1)
    sad = ScoringRegions("rec", ((0.0, 1.0), (2.0, 3.0)))
    ann = decode_posteriors(post, threshold=0.5, sad=sad, median_window=1)
    assert [(s.onset, s.offset) for s in ann.segments] == [(0.0, 1.0), (2.0, 3.0)]


def test_decode_crops_to_speech_edges():
    M = np.full((10, 1), 0.9)
    post = PosteriorMatrix("rec", M, frame_shift=0.1)
    sad = ScoringRegions("rec", ((0.02, 0.48),))
    ann = decode_posteriors(post, threshold=0.5, sad=sad, median_window=1)
    assert [(s.onset, s.offset) for s in ann.segments] == [(0.02, 0.48)]


def test_decode_median_filter_fills_gaps_and_drops_blips():
    M = np.zeros((7, 2))
    M[:, 0] = 0.9
    M[3, 0] = 0.1
    M[3, 1] = 0.9
    post = PosteriorMatrix("rec", M, frame_shift=0.1)
    sad = ScoringRegions("rec", ((0.0, 0.7),))
    ann = decode_posteriors(post, threshold=0.5, sad=sad, median_window=3)
    assert [(s.speaker, s.onset, s.offset) for s in ann.segments] == [("spk0", 0.0, 0.7)]


def test_decode_subsample_factors_agree_on_constant_posteriors():
    sad = ScoringRegions("rec", ((0.0, 6.0),))
    row = [0.9, 0.2]
    coarse = PosteriorMatrix(
        "rec", np.tile(row, (6, 1)), frame_shift=0.1, subsample_factor=10
    )
    fine = PosteriorMatrix(
        "rec", np.tile(row, (12, 1)), frame_shift=0.1, subsample_factor=5
    )
    out_coarse = decode_posteriors(coarse, threshold=0.5, sad=sad, median_window=1)
    out_fine = decode_posteriors(fine, threshold=0.5, sad=sad, median_window=1)
    assert out_coarse == out_fine
    assert [(s.onset, s.offset) for s in out_coarse.segments] == [(0.0, 6.0)]


def test_decode_validation():
    post = PosteriorMatrix("rec", np.zeros((2, 1)), frame_shift=0.1)
    sad = ScoringRegions("rec", ((0.0, 0.2),))
    with pytest.raises(ValueError, match="threshold"):
        decode_posteriors(post, threshold=1.5, sad=sad)
    with pytest.raises(ValueError, match="median_window"):
        decode_posteriors(post, threshold=0.5, sad=sad, median_window=4)


def test_decode_accepts_annotation_as_sad():
    M = np.full((20, 1), 0.9)
    post = PosteriorMatrix("rec", M, frame_shift=0.1)
    sad_ann = Annotation("rec", (Segment("rec", 0.0, 1.0, "speech"),))
    ann = decode_posteriors(post, threshold=0.5, sad=sad_ann, median_window=1)
    assert [(s.onset, s.offset) for s in ann.segments] == [(0.0, 1.0)]
