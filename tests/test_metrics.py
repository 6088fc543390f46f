"""Tests for diarization and Jaccard error rates against hand-worked cases."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit.annotations import Annotation, ScoringRegions, Segment
from diarkit.metrics import (
    DERReport,
    aggregate,
    der,
    format_report,
    jer,
    optimal_mapping,
    report_rows,
)

from oracles import (
    brute_force_best_mapping,
    der_by_separate_grids,
    frame_error_oracle,
    jer_by_separate_grids,
    optimal_mapping_by_separate_grids,
)


def ann(rec, *triples):
    return Annotation(
        rec, tuple(Segment(rec, onset, duration, speaker) for onset, duration, speaker in triples)
    )


def grid_frames(onset, duration):
    a = int(math.floor(onset * 100.0 + 0.5))
    b = int(math.floor((onset + duration) * 100.0 + 0.5))
    return set(range(a, b))


def random_annotation(rng, rec, n_speakers, max_extent=30.0):
    segments = []
    for k in range(n_speakers):
        for _ in range(int(rng.integers(1, 4))):
            onset = int(rng.integers(0, int(max_extent * 100) - 100)) / 100.0
            duration = int(rng.integers(20, 400)) / 100.0
            segments.append((onset, duration, f"s{k}"))
    return ann(rec, *segments)


# ---------------------------------------------------------------------------
# hand-computed DER cases


def test_der_perfect_match_is_zero():
    ref = ann("rec", (0.0, 5.0, "A"), (5.0, 5.0, "B"))
    report = der(ref, ref)
    assert report.der == 0.0
    assert report.jer == 0.0
    assert report.missed == 0.0 and report.false_alarm == 0.0 and report.confusion == 0.0
    assert report.scored_speech == pytest.approx(10.0, abs=1e-9)


def test_der_empty_hypothesis_is_all_miss():
    ref = ann("rec", (0.0, 10.0, "A"))
    hyp = Annotation("rec", ())
    report = der(ref, hyp)
    assert report.missed == pytest.approx(10.0, abs=1e-9)
    assert report.false_alarm == 0.0
    assert report.confusion == 0.0
    assert report.der == pytest.approx(1.0, abs=1e-9)
    assert report.jer == pytest.approx(1.0, abs=1e-9)


def test_der_one_second_confusion_is_point_one():
    # final second credited to a different speaker: confusion 1 s, der 0.1
    ref = ann("rec", (0.0, 10.0, "A"))
    hyp = ann("rec", (0.0, 9.0, "A"), (9.0, 1.0, "B"))
    report = der(ref, hyp)
    assert report.missed == 0.0
    assert report.false_alarm == 0.0
    assert report.confusion == pytest.approx(1.0, abs=1e-9)
    assert report.der == pytest.approx(0.1, abs=1e-9)
    assert report.speaker_map == (("A", "A"),)


def test_der_false_alarm_beyond_reference():
    ref = ann("rec", (0.0, 10.0, "A"))
    hyp = ann("rec", (0.0, 10.0, "A"), (10.0, 2.0, "B"))
    report = der(ref, hyp)
    assert report.false_alarm == pytest.approx(2.0, abs=1e-9)
    assert report.der == pytest.approx(0.2, abs=1e-9)


def test_der_overlap_counts_once_per_speaker():
    # B overlaps A for 2 s; the hypothesis only ever has one speaker, so the
    # second simultaneous speaker is missed and the denominator is 12 s
    ref = ann("rec", (0.0, 10.0, "A"), (4.0, 2.0, "B"))
    hyp = ann("rec", (0.0, 10.0, "A"))
    report = der(ref, hyp)
    assert report.scored_speech == pytest.approx(12.0, abs=1e-9)
    assert report.missed == pytest.approx(2.0, abs=1e-9)
    assert report.der == pytest.approx(2.0 / 12.0, abs=1e-9)


def test_der_overlap_excluded_when_not_scored():
    ref = ann("rec", (0.0, 10.0, "A"), (4.0, 2.0, "B"))
    hyp = ann("rec", (0.0, 10.0, "A"))
    report = der(ref, hyp, score_overlap=False)
    assert report.scored_speech == pytest.approx(8.0, abs=1e-9)
    assert report.der == 0.0


def test_der_collar_forgives_boundary_error():
    ref = ann("rec", (0.0, 10.0, "A"))
    hyp = ann("rec", (0.2, 9.8, "A"))
    strict = der(ref, hyp, collar=0.0)
    assert strict.missed == pytest.approx(0.2, abs=1e-9)
    assert strict.der == pytest.approx(0.02, abs=1e-9)
    relaxed = der(ref, hyp, collar=0.25)
    assert relaxed.der == 0.0
    assert relaxed.scored_speech == pytest.approx(9.5, abs=1e-9)


def test_der_mapping_resolves_label_swap():
    ref = ann("rec", (0.0, 5.0, "A"), (5.0, 5.0, "B"))
    hyp = ann("rec", (0.0, 5.0, "spk2"), (5.0, 5.0, "spk1"))
    report = der(ref, hyp)
    assert report.der == 0.0
    assert report.speaker_map == (("A", "spk2"), ("B", "spk1"))


def test_der_scoring_regions_limit_the_comparison():
    ref = ann("rec", (0.0, 10.0, "A"))
    hyp = ann("rec", (0.0, 8.0, "A"))
    unrestricted = der(ref, hyp)
    assert unrestricted.missed == pytest.approx(2.0, abs=1e-9)
    regions = ScoringRegions("rec", ((0.0, 8.0),))
    restricted = der(ref, hyp, regions=regions)
    assert restricted.scored_speech == pytest.approx(8.0, abs=1e-9)
    assert restricted.der == 0.0


def test_far_off_hypothesis_outside_the_uem_changes_nothing():
    # the grids end with the last scoring region, so a segment a billion
    # seconds out (or near the float range) costs no memory and no error
    ref = ann("rec", (0.0, 10.0, "A"), (10.0, 5.0, "B"))
    hyp = ann("rec", (0.0, 9.0, "x"), (9.0, 6.0, "y"))
    regions = ScoringRegions("rec", ((0.0, 12.0), (13.0, 15.0)))
    expected = der(ref, hyp, regions=regions)
    for onset, duration in ((1e9, 2.0), (1e307, 1e307)):
        far = hyp.with_segments(hyp.segments + (Segment("rec", onset, duration, "x"),))
        assert der(ref, far, regions=regions) == expected
        assert jer(ref, far, regions=regions) == expected.jer


def test_der_empty_reference_is_undefined():
    ref = Annotation("rec", ())
    hyp = ann("rec", (0.0, 1.0, "A"))
    report = der(ref, hyp)
    assert report.der is None
    assert report.jer is None
    assert report.false_alarm == pytest.approx(1.0, abs=1e-9)


def test_der_rejects_negative_collar():
    ref = ann("rec", (0.0, 1.0, "A"))
    with pytest.raises(ValueError, match="collar"):
        der(ref, ref, collar=-0.1)


# ---------------------------------------------------------------------------
# hand-computed JER cases


def test_jer_half_coverage_is_half():
    ref = ann("rec", (0.0, 10.0, "A"))
    hyp = ann("rec", (0.0, 5.0, "A"))
    assert jer(ref, hyp) == pytest.approx(0.5, abs=1e-9)


def test_jer_unmapped_reference_speaker_scores_one():
    ref = ann("rec", (0.0, 10.0, "A"), (10.0, 10.0, "B"))
    hyp = ann("rec", (0.0, 10.0, "X"))
    assert jer(ref, hyp) == pytest.approx(0.5, abs=1e-9)


def test_jer_identity_is_zero():
    ref = ann("rec", (0.0, 4.0, "A"), (2.0, 5.0, "B"))
    assert jer(ref, ref) == 0.0


def test_jer_ignores_collar():
    ref = ann("rec", (0.0, 10.0, "A"))
    hyp = ann("rec", (0.2, 9.8, "A"))
    with_collar = der(ref, hyp, collar=0.25)
    without = der(ref, hyp, collar=0.0)
    assert with_collar.jer == without.jer
    assert with_collar.jer == pytest.approx(0.02, abs=1e-9)


def test_jer_empty_reference_is_none():
    assert jer(Annotation("rec", ()), ann("rec", (0.0, 1.0, "A"))) is None


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_pools_error_seconds():
    # 1 s and 3 s of error over two 10 s recordings pool to 4/20
    ref1 = ann("rec1", (0.0, 10.0, "A"))
    hyp1 = ann("rec1", (0.0, 9.0, "A"))
    ref2 = ann("rec2", (0.0, 10.0, "A"))
    hyp2 = ann("rec2", (0.0, 7.0, "A"))
    reports = [der(ref1, hyp1), der(ref2, hyp2)]
    pooled = aggregate(reports)
    assert pooled.recording_id == "ALL"
    assert pooled.scored_speech == pytest.approx(20.0, abs=1e-9)
    assert pooled.der == pytest.approx(0.2, abs=1e-9)
    assert pooled.jer == pytest.approx(np.mean([r.jer for r in reports]), abs=1e-12)


def test_aggregate_include_filter():
    ref1 = ann("rec1", (0.0, 10.0, "A"))
    ref2 = ann("rec2", (0.0, 10.0, "A"))
    hyp2 = ann("rec2", (0.0, 5.0, "A"))
    reports = [der(ref1, ref1), der(ref2, hyp2)]
    core = aggregate(reports, name="CORE", include={"rec2"})
    assert core.recording_id == "CORE"
    assert core.scored_speech == pytest.approx(10.0, abs=1e-9)
    assert core.der == pytest.approx(0.5, abs=1e-9)


def test_aggregate_empty_is_undefined():
    pooled = aggregate([])
    assert pooled.der is None
    assert pooled.jer is None
    assert pooled.scored_speech == 0.0


# ---------------------------------------------------------------------------
# properties


def test_der_and_jer_vanish_on_identical_annotations():
    rng = np.random.default_rng(0)
    for trial in range(30):
        ref = random_annotation(rng, f"rec{trial}", int(rng.integers(1, 5)))
        report = der(ref, ref)
        assert report.der == 0.0
        assert report.jer == 0.0


def test_increasing_collar_never_increases_error_seconds():
    # the scored mask shrinks monotonically with the collar, so every error
    # component (in seconds) is non-increasing; the ratio itself is only
    # monotone when errors concentrate at reference boundaries (next test)
    rng = np.random.default_rng(1)
    for trial in range(15):
        ref = random_annotation(rng, "rec", int(rng.integers(1, 4)))
        hyp = random_annotation(rng, "rec", int(rng.integers(1, 4)))
        previous = None
        for collar in (0.0, 0.1, 0.25, 0.5, 1.0):
            report = der(ref, hyp, collar=collar)
            current = (report.missed, report.false_alarm, report.confusion)
            if previous is not None:
                for earlier, later in zip(previous, current):
                    assert later <= earlier + 1e-12
            previous = current


def jittered_hypothesis(rng, n_turns):
    """Well-separated turns whose hypothesis only errs near the boundaries."""
    segs, hyps, t = [], [], 0.0
    for k in range(n_turns):
        t += float(rng.integers(100, 300)) / 100.0
        dur = float(rng.integers(200, 500)) / 100.0
        spk = f"s{k % 3}"
        segs.append((t, dur, spk))
        j1 = float(rng.integers(-25, 26)) / 100.0
        j2 = float(rng.integers(-25, 26)) / 100.0
        on = max(t + j1, 0.0)
        off = max(t + dur + j2, on + 0.1)
        hyps.append((on, off - on, spk))
        t += dur
    return ann("rec", *segs), ann("rec", *hyps)


def test_increasing_collar_never_increases_der_for_boundary_errors():
    rng = np.random.default_rng(1)
    for trial in range(25):
        ref, hyp = jittered_hypothesis(rng, int(rng.integers(2, 6)))
        rates = []
        for collar in (0.0, 0.1, 0.25, 0.5):
            report = der(ref, hyp, collar=collar)
            if report.der is None:
                break
            rates.append(report.der)
        assert len(rates) >= 3
        for earlier, later in zip(rates, rates[1:]):
            assert later <= earlier + 1e-12


def test_optimal_mapping_three_by_three_vs_enumeration():
    ref = ann("rec", (0.0, 10.0, "A"), (10.0, 10.0, "B"), (20.0, 10.0, "C"))
    hyp = ann(
        "rec",
        (0.0, 9.0, "X"),
        (25.0, 1.0, "X"),
        (10.0, 9.0, "Y"),
        (20.0, 5.0, "Z"),
    )
    mapping = optimal_mapping(ref, hyp)
    assert mapping == (("A", "X"), ("B", "Y"), ("C", "Z"))
    # total agreement equals the best over all 3! pairings
    ref_frames = {s: set() for s in "ABC"}
    for seg in ref.segments:
        ref_frames[seg.speaker] |= grid_frames(seg.onset, seg.duration)
    hyp_frames = {s: set() for s in "XYZ"}
    for seg in hyp.segments:
        hyp_frames[seg.speaker] |= grid_frames(seg.onset, seg.duration)
    shared = np.array(
        [[len(ref_frames[r] & hyp_frames[h]) for h in "XYZ"] for r in "ABC"], dtype=float
    )
    best = brute_force_best_mapping(shared)
    got = sum(
        len(ref_frames[r] & hyp_frames[h]) for r, h in mapping
    )
    assert got == best


def test_optimal_mapping_matches_brute_force_on_random_annotations():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n_ref = int(rng.integers(1, 7))
        n_hyp = int(rng.integers(1, 7))
        ref = random_annotation(rng, "rec", n_ref)
        hyp = random_annotation(rng, "rec", n_hyp)
        mapping = optimal_mapping(ref, hyp)
        ref_frames = {f"s{k}": set() for k in range(n_ref)}
        for seg in ref.segments:
            ref_frames[seg.speaker] |= grid_frames(seg.onset, seg.duration)
        hyp_frames = {f"s{k}": set() for k in range(n_hyp)}
        for seg in hyp.segments:
            hyp_frames[seg.speaker] |= grid_frames(seg.onset, seg.duration)
        shared = np.array(
            [
                [len(ref_frames[f"s{i}"] & hyp_frames[f"s{j}"]) for j in range(n_hyp)]
                for i in range(n_ref)
            ],
            dtype=float,
        )
        best = brute_force_best_mapping(shared)
        got = sum(len(ref_frames[r] & hyp_frames[h]) for r, h in mapping)
        assert got == best


def test_der_components_match_frame_oracle():
    rng = np.random.default_rng(3)
    for _ in range(15):
        ref = random_annotation(rng, "rec", int(rng.integers(1, 4)))
        hyp = random_annotation(rng, "rec", int(rng.integers(1, 4)))
        report = der(ref, hyp)
        ref_frames: dict[str, set[int]] = {}
        for seg in ref.segments:
            ref_frames.setdefault(seg.speaker, set()).update(
                grid_frames(seg.onset, seg.duration)
            )
        hyp_frames: dict[str, set[int]] = {}
        for seg in hyp.segments:
            hyp_frames.setdefault(seg.speaker, set()).update(
                grid_frames(seg.onset, seg.duration)
            )
        all_frames = set()
        for s in list(ref_frames.values()) + list(hyp_frames.values()):
            all_frames |= s
        miss, fa, conf, total = frame_error_oracle(
            ref_frames, hyp_frames, all_frames, dict(report.speaker_map)
        )
        assert report.missed == pytest.approx(miss * 0.01, abs=1e-9)
        assert report.false_alarm == pytest.approx(fa * 0.01, abs=1e-9)
        assert report.confusion == pytest.approx(conf * 0.01, abs=1e-9)
        assert report.scored_speech == pytest.approx(total * 0.01, abs=1e-9)


def test_optimal_mapping_empty_inputs():
    ref = ann("rec", (0.0, 1.0, "A"))
    assert optimal_mapping(ref, Annotation("rec", ())) == ()
    assert optimal_mapping(Annotation("rec", ()), ref) == ()


def test_optimal_mapping_drops_zero_share_pairs():
    ref = ann("rec", (0.0, 5.0, "A"), (5.0, 5.0, "B"))
    hyp = ann("rec", (0.0, 5.0, "X"), (20.0, 1.0, "Y"))
    assert optimal_mapping(ref, hyp) == (("A", "X"),)


def random_regions(rng, rec, max_extent=35.0):
    # sorted distinct cut points paired up: disjoint intervals of positive length
    n_cuts = 2 * int(rng.integers(1, 4))
    cuts = np.sort(rng.choice(int(max_extent * 100), size=n_cuts, replace=False)) / 100.0
    return ScoringRegions(rec, tuple(zip(cuts[0::2].tolist(), cuts[1::2].tolist())))


def coarse_annotation(rng, rec, n_speakers):
    # whole-second turns: many equal shared-frame counts, so mapping ties occur
    segments = [
        (float(rng.integers(0, 20)), float(rng.integers(1, 6)), f"s{k}")
        for k in range(n_speakers)
        for _ in range(int(rng.integers(1, 3)))
    ]
    return ann(rec, *segments)


def test_der_jer_mapping_match_separate_grid_reference():
    rng = np.random.default_rng(23)
    empty = Annotation("rec", ())
    one = ann("rec", (1.0, 4.0, "A"), (3.0, 2.0, "B"))
    pairs = [(empty, empty), (empty, one), (one, empty)]
    for k in range(120):
        make = coarse_annotation if k % 3 == 0 else random_annotation
        pairs.append((make(rng, "rec", int(rng.integers(0, 5))), make(rng, "rec", int(rng.integers(0, 6)))))
    checked = 0
    for ref, hyp in pairs:
        for collar, with_regions, score_overlap in itertools.product(
            (0.0, 0.25), (False, True), (True, False)
        ):
            regions = random_regions(rng, "rec") if with_regions else None
            got = der(ref, hyp, collar=collar, regions=regions, score_overlap=score_overlap)
            want = der_by_separate_grids(
                ref, hyp, collar=collar, regions=regions, score_overlap=score_overlap
            )
            for name in DERReport.__dataclass_fields__:
                assert getattr(got, name) == getattr(want, name), (name, ref, hyp, regions)
            assert jer(ref, hyp, regions=regions) == jer_by_separate_grids(ref, hyp, regions=regions)
            assert optimal_mapping(ref, hyp, regions) == optimal_mapping_by_separate_grids(
                ref, hyp, regions
            )
            checked += 1
    assert checked == len(pairs) * 8


def _turns(rec, speakers, max_onset):
    """Annotations of up to five turns on a 10 ms grid with onsets below
    ``max_onset`` seconds."""
    turn = st.tuples(
        st.integers(0, max_onset * 100), st.integers(1, 800), st.sampled_from(speakers)
    )
    return st.lists(turn, max_size=5).map(
        lambda ts: ann(rec, *((a / 100.0, d / 100.0, s) for a, d, s in ts))
    )


def _regions(rec, max_end):
    """None, or up to three disjoint regions on a 10 ms grid below ``max_end`` seconds."""
    cuts = st.lists(st.integers(0, max_end * 100), max_size=6, unique=True).map(sorted)
    return st.none() | cuts.map(
        lambda cs: ScoringRegions(rec, tuple((a / 100.0, b / 100.0) for a, b in zip(cs[0::2], cs[1::2])))
    )


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    ref=_turns("rec", ["A", "B", "C"], 10),
    hyp=_turns("rec", ["x", "y", "z"], 40),
    collar=st.sampled_from([0.0, 0.25, 1.0, 3.0]),
    score_overlap=st.booleans(),
    regions=_regions("rec", 50),
)
def test_hypothesis_past_the_reference_matches_separate_grids(ref, hyp, collar, score_overlap, regions):
    # hypothesis turns and scoring regions reach up to four times past the
    # reference's end, where the library counts frames instead of gridding them
    got = der(ref, hyp, collar=collar, regions=regions, score_overlap=score_overlap)
    want = der_by_separate_grids(ref, hyp, collar=collar, regions=regions, score_overlap=score_overlap)
    for name in DERReport.__dataclass_fields__:
        assert getattr(got, name) == getattr(want, name), name
    assert jer(ref, hyp, regions) == jer_by_separate_grids(ref, hyp, regions)
    assert optimal_mapping(ref, hyp, regions) == optimal_mapping_by_separate_grids(ref, hyp, regions)


def test_hypothesis_far_past_the_reference_needs_no_grid_to_it():
    # a segment 2e5 s out on a 10 s reference: gridding up to it would take
    # 20 MB per hypothesis speaker; it is 3 s of false alarm and JER union,
    # also when a scoring region reaches out there
    ref = ann("rec", (0.0, 6.0, "A"), (6.0, 4.0, "B"))
    hyp = ann("rec", (0.0, 6.0, "x"), (6.0, 4.0, "y"), (2e5, 2.0, "x"), (2e5 + 1.0, 1.0, "y"))
    for regions in (None, ScoringRegions("rec", ((0.0, 2.1e5),))):
        tracemalloc.start()
        try:
            report = der(ref, hyp, collar=0.25, regions=regions, score_overlap=False)
            error = jer(ref, hyp, regions)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20, (regions, peak)
        assert report.speaker_map == (("A", "x"), ("B", "y"))
        assert (report.missed, report.confusion) == (0.0, 0.0)
        assert report.false_alarm == pytest.approx(3.0, abs=1e-9)
        assert report.der == pytest.approx(3.0 / 9.0, abs=1e-9)  # collars leave 9 s scored
        assert error == pytest.approx(0.5 * (2.0 / 8.0 + 1.0 / 5.0), abs=1e-12)
        assert report.jer == error


# ---------------------------------------------------------------------------
# report rendering


def test_report_rows_layout():
    ref = ann("rec1", (0.0, 10.0, "A"))
    hyp = ann("rec1", (0.0, 9.0, "A"))
    rows = report_rows([der(ref, hyp)])
    assert rows[0] == ["recording", "scored", "miss", "fa", "conf", "der", "jer"]
    assert rows[1] == ["rec1", "10.00", "1.00", "0.00", "0.00", "0.1000", "0.1000"]


def test_report_rows_render_undefined_as_na():
    rows = report_rows([aggregate([])])
    assert rows[1][-2:] == ["NA", "NA"]


def test_format_report_is_aligned_text():
    ref = ann("recording_with_long_name", (0.0, 10.0, "A"))
    text = format_report([der(ref, ref)])
    lines = text.splitlines()
    assert text.endswith("\n")
    assert lines[0].startswith("recording")
    assert "recording_with_long_name" in lines[1]
    assert lines[0].index("scored") == lines[1].index("10.00")
