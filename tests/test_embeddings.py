import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit.annotations import speech_timeline
from diarkit.container import FormatError
from diarkit.embeddings import (
    EmbeddingSequence,
    SyntheticSpec,
    generate_synthetic,
    read_embeddings,
    window_times,
    write_embeddings,
)

import diarkit.embeddings
from oracles import generate_synthetic_by_loop


# ---------------------------------------------------------------------------
# window enumeration


def test_window_times_frozen_cases():
    # expected counts computed by hand from the enumeration rule:
    # last index = floor((duration + shift/2 - size) / shift), offsets clipped
    cases = [
        # duration, size, shift, count, last window
        (10.0, 2.0, 1.0, 9, (8.0, 10.0)),
        (10.6, 2.0, 1.0, 10, (9.0, 10.6)),
        (300.0, 1.5, 0.25, 1195, (298.5, 300.0)),
        (2.0, 2.0, 1.0, 1, (0.0, 2.0)),
        (2.5, 2.0, 1.0, 2, (1.0, 2.5)),
        (9.49, 2.0, 1.0, 8, (7.0, 9.0)),
        (9.5, 2.0, 1.0, 9, (8.0, 9.5)),
    ]
    for duration, size, shift, count, last in cases:
        wins = window_times(duration, size, shift)
        assert len(wins) == count, (duration, size, shift)
        assert wins[0, 0] == 0.0
        assert np.allclose(wins[-1], last)


def test_window_times_validation():
    with pytest.raises(ValueError):
        window_times(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        window_times(10.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        window_times(10.0, 2.0, 0.0)


def test_window_times_structure_seeded():
    rng = np.random.default_rng(5)
    for _ in range(50):
        size = float(rng.uniform(0.2, 3.0))
        shift = float(rng.uniform(0.05, size))
        duration = size + float(rng.uniform(0.0, 50.0))
        wins = window_times(duration, size, shift)
        onsets, offsets = wins[:, 0], wins[:, 1]
        assert np.allclose(np.diff(onsets), shift)
        assert (offsets <= duration + 1e-12).all()
        assert (offsets - onsets > 0).all()
        # all but the final window have the full length
        assert np.allclose(offsets[:-1] - onsets[:-1], size)
        # the next window would overshoot the half-shift grace
        next_onset = onsets[-1] + shift
        assert next_onset + size > duration + shift / 2.0 - 1e-9


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 40),
    st.integers(1, 20),
    st.integers(0, 400),
)
def test_window_count_matches_rule(size_ticks, shift_ticks, extra_ticks):
    # exact-grid inputs (multiples of 0.05s) keep the arithmetic exact
    size = size_ticks * 0.05
    shift = shift_ticks * 0.05
    duration = size + extra_ticks * 0.05
    wins = window_times(duration, size, shift)
    expected_last = int(np.floor((duration + shift / 2.0 - size) / shift + 1e-9))
    assert len(wins) == expected_last + 1


# ---------------------------------------------------------------------------
# EmbeddingSequence


def make_seq(n=None, duration=10.0, size=2.0, shift=1.0, dim=4, seed=0, rec="rec"):
    wins = window_times(duration, size, shift)
    rng = np.random.default_rng(seed)
    vectors = rng.standard_normal((len(wins), dim)).astype(np.float32)
    return EmbeddingSequence(rec, vectors, size, shift, duration)


def test_sequence_count_invariant_enforced():
    with pytest.raises(ValueError):
        EmbeddingSequence("r", np.ones((5, 3), dtype=np.float32), 2.0, 1.0, 10.0)
    seq = make_seq()
    assert len(seq) == 9
    assert seq.dim == 4


def test_sequence_rejects_bad_vectors():
    with pytest.raises(ValueError):
        EmbeddingSequence("r", np.ones((0, 3)), 2.0, 1.0, 10.0)
    bad = np.ones((9, 3), dtype=np.float32)
    bad[2, 1] = np.inf
    with pytest.raises(ValueError):
        EmbeddingSequence("r", bad, 2.0, 1.0, 10.0)


def test_sequence_centers():
    seq = make_seq()
    assert np.allclose(seq.centers()[:3], [1.0, 2.0, 3.0])


def test_subset_keeps_window_times():
    seq = make_seq()
    sub = seq.subset([0, 3, 7])
    assert len(sub) == 3
    assert np.allclose(sub.windows[:, 0], [0.0, 3.0, 7.0])
    assert np.array_equal(sub.vectors, seq.vectors[[0, 3, 7]])
    # a subset of a subset still works (explicit windows path)
    sub2 = sub.subset([1, 2])
    assert np.allclose(sub2.windows[:, 0], [3.0, 7.0])


def test_embeddings_file_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    for trial in range(10):
        duration = float(rng.uniform(5.0, 40.0))
        seq = EmbeddingSequence(
            f"rec{trial}",
            rng.standard_normal((len(window_times(duration, 1.5, 0.25)), 8)).astype(np.float32),
            1.5,
            0.25,
            duration,
        )
        path = tmp_path / f"rec{trial}.emb"
        write_embeddings(path, seq)
        out = read_embeddings(path)
        assert out.recording_id == seq.recording_id
        assert out.window_size == seq.window_size
        assert out.window_shift == seq.window_shift
        assert out.recording_duration == seq.recording_duration
        assert np.array_equal(out.vectors, seq.vectors)
        assert np.allclose(out.windows, seq.windows)


def test_read_embeddings_missing_metadata(tmp_path):
    seq = make_seq()
    path = tmp_path / "x.emb"
    write_embeddings(path, seq)
    meta = path.with_suffix(".meta")
    lines = [l for l in meta.read_text().splitlines() if not l.startswith("window_size")]
    meta.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError):
        read_embeddings(path)


# ---------------------------------------------------------------------------
# synthetic generation


def test_synthetic_deterministic():
    spec = SyntheticSpec.well_separated(3, 8, duration=60.0, seed=42)
    seq_a, ref_a, _ = generate_synthetic(spec)
    seq_b, ref_b, _ = generate_synthetic(spec)
    assert np.array_equal(seq_a.vectors, seq_b.vectors)
    assert ref_a.segments == ref_b.segments


def test_synthetic_seed_changes_output():
    base = SyntheticSpec.well_separated(3, 8, duration=60.0, seed=1)
    other = SyntheticSpec.well_separated(3, 8, duration=60.0, seed=2)
    assert not np.array_equal(generate_synthetic(base)[0].vectors, generate_synthetic(other)[0].vectors)


def test_synthetic_covers_duration_without_gaps():
    rng = np.random.default_rng(7)
    for _ in range(10):
        spec = SyntheticSpec.well_separated(
            int(rng.integers(2, 5)), 8, duration=float(rng.uniform(30, 90)), seed=int(rng.integers(1 << 30))
        )
        seq, ref, overlap = generate_synthetic(spec)
        assert overlap is None
        timeline = speech_timeline(ref)
        assert timeline.intervals == ((0.0, spec.duration),)
        assert len(seq) == len(window_times(spec.duration, spec.window_size, spec.window_shift))


def test_synthetic_turn_lengths_and_no_repeat():
    spec = SyntheticSpec.well_separated(4, 8, duration=200.0, seed=9, turn_min=2.0, turn_max=6.0)
    _, ref, _ = generate_synthetic(spec)
    segs = ref.segments
    for prev, cur in zip(segs, segs[1:]):
        assert prev.speaker != cur.speaker
    # all but the final (possibly truncated) turn respect the length bounds
    for seg in segs[:-1]:
        assert 2.0 - 1e-9 <= seg.duration <= 6.0 + 1e-9


def test_synthetic_gaps_respected():
    spec = SyntheticSpec.well_separated(3, 8, duration=120.0, seed=3, gap_min=0.5, gap_max=1.5)
    _, ref, _ = generate_synthetic(spec)
    segs = ref.segments
    gaps = [b.onset - a.offset for a, b in zip(segs, segs[1:])]
    assert all(0.5 - 1e-9 <= g <= 1.5 + 1e-9 for g in gaps)


def test_synthetic_single_speaker_windows_near_their_mean():
    spec = SyntheticSpec.well_separated(3, 8, separation=10.0, duration=80.0, seed=12)
    seq, ref, _ = generate_synthetic(spec)
    centers = seq.centers()
    checked = 0
    for i, c in enumerate(centers):
        active = [s.speaker for s in ref.segments if s.onset <= c < s.offset]
        if len(active) != 1:
            continue
        k = int(active[0].removeprefix("speaker"))
        dists = np.linalg.norm(spec.speaker_means - seq.vectors[i], axis=1)
        assert np.argmin(dists) == k
        checked += 1
    assert checked > 100


def test_synthetic_overlap_regions():
    spec = SyntheticSpec.well_separated(3, 8, duration=120.0, seed=21, overlap_fraction=0.2)
    seq, ref, overlap = generate_synthetic(spec)
    assert overlap is not None and len(overlap.segments) > 0
    total_speech = sum(s.duration for s in ref.segments)
    target = 0.2 * total_speech / 1.2
    measured = sum(s.duration for s in overlap.segments)
    # per-pair pulls are capped by turn length, so measured <= target;
    # with 2-6s turns most pulls are uncapped
    assert measured <= target + 1e-6
    assert measured > 0.5 * target
    # every overlap region lies inside exactly two reference turns
    for region in overlap.segments:
        mid = region.onset + region.duration / 2.0
        active = [s for s in ref.segments if s.onset <= mid < s.offset]
        assert len(active) == 2


def test_synthetic_overlap_windows_sit_between_means():
    spec = SyntheticSpec.well_separated(2, 8, separation=12.0, duration=100.0, seed=5, overlap_fraction=0.3)
    seq, ref, overlap = generate_synthetic(spec)
    midpoint = spec.speaker_means.mean(axis=0)
    centers = seq.centers()
    hits = 0
    for region in overlap.segments:
        inside = (centers >= region.onset) & (centers < region.offset)
        for vec in seq.vectors[inside]:
            # a midpoint draw averages two unit-variance draws: distance to the
            # midpoint is a few sigma, far less than half the mean separation
            assert np.linalg.norm(vec - midpoint) < 6.0
            hits += 1
    assert hits > 5


@settings(max_examples=150, deadline=None)
@given(
    num_speakers=st.integers(1, 6),
    extra_dim=st.integers(0, 3),
    separation=st.floats(1.0, 12.0),
    within_std=st.sampled_from([0.3, 1.0, 2.5]),
    pause=st.sampled_from(["none", "overlap", "gaps"]),
    overlap_fraction=st.floats(0.0, 0.5),
    fixed_turns=st.booleans(),
    duration_ticks=st.integers(200, 20000),
    seed=st.integers(0, 2**31 - 1),
)
def test_synthetic_matches_the_window_loop(
    num_speakers, extra_dim, separation, within_std, pause, overlap_fraction, fixed_turns,
    duration_ticks, seed,
):
    """Vectors, reference and overlap regions equal the per-window loop's to
    the byte: the draw order is part of the corpus format.  Durations are in
    0.01 s ticks, mostly not a multiple of the 0.25 s shift; with 2 s turns
    and no gaps or overlap, window centres (0.75 + 0.25 k) fall on turn
    boundaries."""
    kwargs = dict(duration=duration_ticks / 100.0, seed=seed)
    if pause == "overlap":
        kwargs["overlap_fraction"] = overlap_fraction
    elif pause == "gaps":
        kwargs.update(gap_min=0.1, gap_max=2.5)
    if fixed_turns:
        kwargs.update(turn_min=2.0, turn_max=2.0)
    spec = SyntheticSpec.well_separated(
        num_speakers, num_speakers + extra_dim, separation=separation, within_std=within_std,
        **kwargs,
    )
    seq, ref, overlap = generate_synthetic(spec)
    loop_seq, loop_ref, loop_overlap = generate_synthetic_by_loop(spec)
    assert seq.vectors.dtype == np.float32
    assert seq.vectors.tobytes() == loop_seq.vectors.tobytes()
    assert ref == loop_ref
    assert overlap == loop_overlap


def test_synthetic_window_centred_on_a_turn_boundary_takes_the_later_turn():
    spec = SyntheticSpec.well_separated(
        2, 4, separation=40.0, duration=20.0, seed=2, turn_min=2.0, turn_max=2.0
    )
    seq, ref, _ = generate_synthetic(spec)
    centers = seq.centers()
    for seg in ref.segments[1:]:
        (i,) = np.flatnonzero(centers == seg.onset)
        k = int(seg.speaker.removeprefix("speaker"))
        assert np.argmin(np.linalg.norm(spec.speaker_means - seq.vectors[i], axis=1)) == k


def test_synthetic_rejects_turns_out_of_order(monkeypatch):
    def swapped(spec, turns):
        return [turns[1], turns[0], *turns[2:]], []

    monkeypatch.setattr(diarkit.embeddings, "_apply_overlap", swapped)
    spec = SyntheticSpec.well_separated(2, 4, duration=30.0, seed=1)
    with pytest.raises(ValueError, match="strictly increasing"):
        generate_synthetic(spec)


def test_synthetic_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec.well_separated(3, 2)  # dim < speakers
    with pytest.raises(ValueError):
        SyntheticSpec.well_separated(2, 4, overlap_fraction=1.0)
    with pytest.raises(ValueError):
        SyntheticSpec.well_separated(2, 4, overlap_fraction=0.2, gap_min=0.5, gap_max=0.5)
    with pytest.raises(ValueError):
        SyntheticSpec.well_separated(2, 4, turn_min=0.0)
    with pytest.raises(ValueError):
        SyntheticSpec(num_speakers=2, embedding_dim=3, speaker_means=np.zeros((2, 2)))
