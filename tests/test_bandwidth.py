"""Tests for the narrowband/wideband recording classifier."""

import numpy as np
import pytest

from diarkit.bandwidth import (
    BandDecision,
    MLPClassifier,
    classify_recording,
    majority_vote,
)
from diarkit.container import FormatError


def passthrough_mlp(dim=2):
    """Identity-ish network: logits = x @ w2 slice, so outputs are explicit."""
    w1 = np.eye(dim)
    b1 = np.zeros(dim)
    w2 = np.zeros((dim, 2))
    w2[0, 0] = 1.0  # input coordinate 0 drives the NB logit
    w2[1, 1] = 1.0  # input coordinate 1 drives the WB logit
    b2 = np.zeros(2)
    return MLPClassifier(w1, b1, w2, b2)


def test_mlp_shape_validation():
    with pytest.raises(ValueError, match="layer shapes"):
        MLPClassifier(np.zeros((3, 4)), np.zeros(4), np.zeros((5, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="layer shapes"):
        MLPClassifier(np.zeros((3, 4)), np.zeros(3), np.zeros((4, 2)), np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        MLPClassifier(np.full((2, 2), np.nan), np.zeros(2), np.zeros((2, 2)), np.zeros(2))


def test_mlp_logit_margin_three_gives_expected_probability():
    # nonnegative inputs pass the rectifier unchanged, so a logit margin of
    # +3 toward narrowband must score 1 / (1 + e^-3)
    model = passthrough_mlp()
    probs = model.probabilities(np.array([3.0, 0.0]))
    expected = 1.0 / (1.0 + np.exp(-3.0))
    assert probs[0] == pytest.approx(expected, abs=1e-12)
    assert probs[0] == pytest.approx(0.9526, abs=5e-5)
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    rows = np.array([[3.0, 0.0], [0.0, 3.0]])
    assert classify_recording(model, rows, "r").segment_labels == ("NB", "WB")


def test_mlp_probabilities_batch_and_validation():
    model = passthrough_mlp()
    X = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 2.0]])
    probs = model.probabilities(X)
    assert probs.shape == (3, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(probs[0], probs[1][::-1], atol=1e-12)
    np.testing.assert_allclose(probs[2], [0.5, 0.5], atol=1e-12)
    with pytest.raises(ValueError, match="expected 2-dim"):
        model.probabilities(np.zeros(3))
    with pytest.raises(ValueError, match="finite"):
        model.probabilities(np.array([np.inf, 0.0]))


def test_mlp_rectifier_blocks_negative_activations():
    # a negative hidden preactivation contributes nothing after the rectifier
    model = passthrough_mlp()
    probs = model.probabilities(np.array([-5.0, 0.0]))
    np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)


def test_classify_segment_tie_is_wideband():
    # a row whose two probabilities tie is labelled wideband, alone or in a batch
    model = passthrough_mlp()
    for row in ([0.0, 0.0], [1.0, 1.0]):
        assert classify_recording(model, np.array(row), "r").segment_labels == ("WB",)
    rows = np.array([[0.0, 0.0], [3.0, 0.0], [1.0, 1.0]])
    assert classify_recording(model, rows, "r").segment_labels == ("WB", "NB", "WB")


def test_majority_vote_matches_counting_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = 101
        labels = ["NB" if rng.random() < rng.uniform(0.2, 0.8) else "WB" for _ in range(n)]
        nb_count = sum(1 for lab in labels if lab == "NB")
        expected = "NB" if nb_count > n - nb_count else "WB"
        assert majority_vote(labels) == expected


def test_majority_vote_tie_and_empty_default_to_wideband():
    assert majority_vote(["NB", "WB"]) == "WB"
    assert majority_vote(["NB", "NB", "WB", "WB"]) == "WB"
    assert majority_vote([]) == "WB"
    assert majority_vote(["NB"]) == "NB"


def test_band_decision_consistency_checks():
    with pytest.raises(ValueError, match="file_label"):
        BandDecision("rec", ("NB",), "XX")
    with pytest.raises(ValueError, match="segment label"):
        BandDecision("rec", ("NB", "bad"), "NB")
    with pytest.raises(ValueError, match="majority"):
        BandDecision("rec", ("WB", "WB", "NB"), "NB")
    ok = BandDecision("rec", ("WB", "NB", "NB"), "NB")
    assert ok.file_label == "NB"


def test_classify_recording_majority():
    model = passthrough_mlp()
    X = np.array([[3.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
    decision = classify_recording(model, X, "call_1")
    assert decision.recording_id == "call_1"
    assert decision.segment_labels == ("NB", "NB", "WB")
    assert decision.file_label == "NB"
    single = classify_recording(model, np.array([0.0, 2.0]), "call_2")
    assert single.segment_labels == ("WB",)
    assert single.file_label == "WB"


def test_classify_recording_batch_matches_rows():
    rng = np.random.default_rng(4)
    model = MLPClassifier(
        rng.normal(size=(6, 8)), rng.normal(size=8), rng.normal(size=(8, 2)), rng.normal(size=2)
    )
    X = rng.normal(size=(200, 6))
    labels = classify_recording(model, X, "call_3").segment_labels
    assert labels == tuple(
        classify_recording(model, row, "call_3").segment_labels[0] for row in X
    )
    assert 0 < labels.count("NB") < len(labels)


def test_mlp_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    model = MLPClassifier(
        rng.normal(size=(6, 8)).astype(np.float32),
        rng.normal(size=8).astype(np.float32),
        rng.normal(size=(8, 2)).astype(np.float32),
        rng.normal(size=2).astype(np.float32),
    )
    path = tmp_path / "band.emb"
    model.save(path)
    back = MLPClassifier.load(path)
    np.testing.assert_array_equal(back.w1, model.w1)
    np.testing.assert_array_equal(back.b1, model.b1)
    np.testing.assert_array_equal(back.w2, model.w2)
    np.testing.assert_array_equal(back.b2, model.b2)
    X = rng.normal(size=(5, 6))
    np.testing.assert_array_equal(back.probabilities(X), model.probabilities(X))


def test_mlp_load_rejects_wrong_type(tmp_path):
    from diarkit.reseg import WhiteningStats

    stats = WhiteningStats.fit(np.random.default_rng(2).normal(size=(10, 3)))
    path = tmp_path / "white.emb"
    stats.save(path)
    with pytest.raises(FormatError, match="expected type mlp"):
        MLPClassifier.load(path)
