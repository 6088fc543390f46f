import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diarkit.annotations import (
    Annotation,
    RTTMParseError,
    ScoringRegions,
    Segment,
    crop,
    merge_adjacent,
    parse_rttm,
    parse_uem,
    speech_timeline,
    write_rttm,
    write_uem,
)
from diarkit.reseg import parse_overlap_regions


def random_annotation(rng, rec="rec", n_max=12):
    segments = []
    for _ in range(int(rng.integers(1, n_max))):
        onset = round(float(rng.uniform(0, 100)), 3)
        duration = round(float(rng.uniform(0.01, 20)), 3)
        speaker = f"spk{int(rng.integers(0, 4))}"
        segments.append(Segment(rec, onset, duration, speaker))
    return Annotation(rec, tuple(segments))


def test_segment_validation():
    with pytest.raises(ValueError):
        Segment("r", -0.1, 1.0, "a")
    with pytest.raises(ValueError):
        Segment("r", 0.0, 0.0, "a")
    with pytest.raises(ValueError):
        Segment("r", 0.0, -1.0, "a")
    seg = Segment("r", 1.25, 0.5, "a")
    assert seg.offset == 1.75


def test_annotation_sorts_segments():
    segs = (
        Segment("r", 5.0, 1.0, "b"),
        Segment("r", 1.0, 2.0, "a"),
        Segment("r", 5.0, 1.0, "a"),
    )
    ann = Annotation("r", segs)
    assert [s.onset for s in ann.segments] == [1.0, 5.0, 5.0]
    assert [s.speaker for s in ann.segments] == ["a", "a", "b"]
    assert ann.speakers() == ("a", "b")
    assert ann.extent() == 6.0


def test_annotation_rejects_foreign_segments():
    with pytest.raises(ValueError):
        Annotation("r1", (Segment("r2", 0, 1, "a"),))


def test_scoring_regions_validation():
    ScoringRegions("r", ((0.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError, match="must not overlap"):
        ScoringRegions("r", ((0.0, 1.0), (0.5, 2.0)))
    with pytest.raises(ValueError, match="must not overlap"):
        ScoringRegions("r", ((1.5, 3.0), (0.0, 2.0)))
    with pytest.raises(ValueError, match="bad interval"):
        ScoringRegions("r", ((1.0, 1.0),))
    with pytest.raises(ValueError, match="bad interval"):
        ScoringRegions("r", ((2.0, 1.0),))
    assert ScoringRegions("r", ((0.0, 1.5), (2.0, 3.0))).total_duration() == 2.5
    reg = ScoringRegions("r", ((4, 5), (1.0, 2.0)))
    assert reg.intervals == ((1.0, 2.0), (4.0, 5.0))
    assert all(type(bound) is float for interval in reg.intervals for bound in interval)


def test_scoring_regions_cover_half_open_intervals():
    regions = ScoringRegions("r", ((1.0, 2.0), (3.0, 4.0)))
    times = np.array([0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.999, 4.0])
    assert regions.covers(times).tolist() == [False, True, True, False, False, True, True, False]
    assert ScoringRegions("r").covers(times).tolist() == [False] * 8


def test_rttm_round_trip_seeded():
    rng = np.random.default_rng(3)
    for trial in range(25):
        ann = random_annotation(rng, rec=f"rec{trial}")
        parsed = parse_rttm(write_rttm(ann))
        assert len(parsed) == 1
        out = parsed[0]
        assert out.recording_id == ann.recording_id
        assert len(out.segments) == len(ann.segments)
        for a, b in zip(ann.segments, out.segments):
            # writer rounds to 3 decimals and inputs are 3-decimal already
            assert a.speaker == b.speaker
            assert abs(a.onset - b.onset) < 5e-4
            assert abs(a.duration - b.duration) < 5e-4


def test_parse_rttm_multiple_recordings_sorted():
    text = (
        "SPEAKER b 1 0.000 1.000 <NA> <NA> x <NA> <NA>\n"
        "SPEAKER a 1 0.000 1.000 <NA> <NA> y <NA> <NA>\n"
    )
    anns = parse_rttm(text)
    assert [a.recording_id for a in anns] == ["a", "b"]


def test_parse_rttm_skips_comments_and_other_types():
    text = (
        "# comment\n"
        ";; another\n"
        "\n"
        "SPKR-INFO meeting 1 <NA> <NA> <NA> unknown spk1 <NA> <NA>\n"
        "SPEAKER meeting 1 2.5 1.0 <NA> <NA> spk1 <NA> <NA>\n"
    )
    anns = parse_rttm(text)
    assert len(anns) == 1
    assert anns[0].segments[0].onset == 2.5


def test_parse_rttm_error_carries_line_number():
    text = "SPEAKER r 1 0.0 1.0 <NA> <NA> a <NA> <NA>\nSPEAKER r 1 0.0 1.0 <NA> <NA> a\n"
    with pytest.raises(RTTMParseError) as err:
        parse_rttm(text)
    assert err.value.line_number == 2
    assert "line 2" in str(err.value)


@pytest.mark.parametrize(
    "bad",
    [
        "SPEAKER r 1 zero 1.0 <NA> <NA> a <NA> <NA>",
        "SPEAKER r 1 0.0 oops <NA> <NA> a <NA> <NA>",
        "SPEAKER r 1 0.0 0.0 <NA> <NA> a <NA> <NA>",
        "SPEAKER r 1 -1.0 1.0 <NA> <NA> a <NA> <NA>",
    ],
)
def test_parse_rttm_rejects_bad_lines(bad):
    with pytest.raises(RTTMParseError):
        parse_rttm(bad + "\n")


def test_offset_that_overflows_is_rejected():
    text = (
        "SPEAKER r 1 0.0 1.0 <NA> <NA> a <NA> <NA>\n"
        "SPEAKER r 1 1e308 1e308 <NA> <NA> a <NA> <NA>\n"
    )
    with pytest.raises(RTTMParseError) as err:
        parse_rttm(text)
    assert err.value.line_number == 2
    with pytest.raises(ValueError, match="finite"):
        Segment("r", 1e308, 1e308, "a")


def test_write_rttm_format_exact():
    ann = Annotation("rec7", (Segment("rec7", 1.0, 2.3456, "alice"),))
    assert write_rttm(ann) == "SPEAKER rec7 1 1.000 2.346 <NA> <NA> alice <NA> <NA>\n"


def test_uem_round_trip():
    regions = ScoringRegions("r1", ((0.0, 10.5), (20.0, 30.25)))
    parsed = parse_uem(write_uem(regions))
    assert len(parsed) == 1
    assert parsed[0].recording_id == "r1"
    assert parsed[0].intervals == ((0.0, 10.5), (20.0, 30.25))


def test_uem_bad_line_number():
    with pytest.raises(RTTMParseError) as err:
        parse_uem("r1 1 0.0 5.0\nr1 1 5.0\n")
    assert err.value.line_number == 2


def test_merge_adjacent_gap_zero_fuses_touching():
    ann = Annotation(
        "r",
        (
            Segment("r", 0.0, 1.0, "a"),
            Segment("r", 1.0, 1.0, "a"),
            Segment("r", 3.0, 1.0, "a"),
            Segment("r", 1.0, 0.5, "b"),
        ),
    )
    out = merge_adjacent(ann, 0.0)
    a_segs = [s for s in out.segments if s.speaker == "a"]
    assert [(s.onset, s.offset) for s in a_segs] == [(0.0, 2.0), (3.0, 4.0)]
    assert len([s for s in out.segments if s.speaker == "b"]) == 1


def test_merge_adjacent_gap_threshold():
    ann = Annotation("r", (Segment("r", 0.0, 1.0, "a"), Segment("r", 1.4, 1.0, "a")))
    assert len(merge_adjacent(ann, 0.3).segments) == 2
    assert len(merge_adjacent(ann, 0.4).segments) == 1
    assert len(merge_adjacent(ann, 0.5).segments) == 1


def test_merge_adjacent_fuses_overlapping_same_speaker():
    ann = Annotation("r", (Segment("r", 0.0, 2.0, "a"), Segment("r", 1.0, 2.0, "a")))
    out = merge_adjacent(ann)
    assert len(out.segments) == 1
    assert out.segments[0].offset == 3.0


def test_merge_adjacent_rejects_negative_gap():
    with pytest.raises(ValueError):
        merge_adjacent(Annotation("r"), -0.1)


def test_crop_clips_and_drops():
    ann = Annotation(
        "r",
        (
            Segment("r", 0.0, 4.0, "a"),
            Segment("r", 5.0, 1.0, "b"),
            Segment("r", 10.0, 2.0, "c"),
        ),
    )
    regions = ScoringRegions("r", ((1.0, 5.5), (11.5, 20.0)))
    out = crop(ann, regions)
    by_spk = {s.speaker: (s.onset, s.offset) for s in out.segments}
    assert by_spk["a"] == (1.0, 4.0)
    assert by_spk["b"] == (5.0, 5.5)
    assert by_spk["c"] == (11.5, 12.0)


def test_crop_segment_spanning_two_regions_splits():
    ann = Annotation("r", (Segment("r", 0.0, 10.0, "a"),))
    out = crop(ann, ScoringRegions("r", ((1.0, 2.0), (3.0, 4.0))))
    assert [(s.onset, s.offset) for s in out.segments] == [(1.0, 2.0), (3.0, 4.0)]


def test_crop_recording_mismatch():
    with pytest.raises(ValueError):
        crop(Annotation("r1"), ScoringRegions("r2", ((0.0, 1.0),)))


def test_crop_idempotent_seeded():
    rng = np.random.default_rng(4)
    for _ in range(20):
        ann = random_annotation(rng)
        bounds = sorted(set(np.round(rng.uniform(0, 120, size=4), 3)))
        if len(bounds) < 4:
            continue
        regions = ScoringRegions("rec", ((bounds[0], bounds[1]), (bounds[2], bounds[3])))
        once = crop(ann, regions)
        twice = crop(once, regions)
        assert once.segments == twice.segments


def test_speech_timeline_unions_overlaps():
    ann = Annotation(
        "r",
        (
            Segment("r", 0.0, 2.0, "a"),
            Segment("r", 1.0, 2.0, "b"),
            Segment("r", 5.0, 1.0, "a"),
        ),
    )
    timeline = speech_timeline(ann)
    assert timeline.intervals == ((0.0, 3.0), (5.0, 6.0))
    assert timeline.total_duration() == 4.0


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 4000),
            st.integers(1, 2000),
            st.sampled_from(["a", "b", "c"]),
        ),
        min_size=1,
        max_size=10,
    )
)
def test_rttm_round_trip_property(raw_segments):
    # millisecond-grid onsets/durations survive the 3-decimal writer exactly
    segments = tuple(
        Segment("rec", onset / 1000.0, dur / 1000.0, spk) for onset, dur, spk in raw_segments
    )
    ann = Annotation("rec", segments)
    (out,) = parse_rttm(write_rttm(ann))
    assert len(out.segments) == len(ann.segments)
    for a, b in zip(ann.segments, out.segments):
        assert abs(a.onset - b.onset) < 5e-4
        assert abs(a.duration - b.duration) < 5e-4
        assert a.speaker == b.speaker


# well-formed input for each line parser: several lines per recording, so a
# damaged number can also make two intervals overlap
_WELL_FORMED = {
    "rttm": (
        parse_rttm,
        "SPEAKER rec 1 0.500 2.250 <NA> <NA> alice <NA> <NA>\n"
        ";; note\n"
        "SPEAKER rec 1 3.000 1.000 <NA> <NA> bob <NA> <NA>\n"
        "SPEAKER other 1 0.000 4.125 <NA> <NA> alice <NA> <NA>\n",
    ),
    "uem": (
        parse_uem,
        "rec 1 0.000 5.000\nrec 1 6.000 9.500\n# comment\nother 1 1.250 2.000\n",
    ),
    "ovl": (
        parse_overlap_regions,
        "OVL rec 1 0.500 1.000\nOVL rec 1 4.000 0.750\nOVL other 1 2.000 0.250\n",
    ),
}


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(_WELL_FORMED)),
    cut=st.integers(0, 200),
    damage=st.lists(
        st.tuples(
            st.integers(0, 199),
            st.one_of(st.integers(0, 255), st.sampled_from(list(b"-.e9n0 \n#;"))),
        ),
        max_size=4,
    ),
)
def test_line_parsers_raise_only_parse_errors_on_damaged_text(kind, cut, damage):
    parse, text = _WELL_FORMED[kind]
    data = bytearray(text.encode()[:cut])
    for position, byte in damage:
        if data:
            data[position % len(data)] = byte
    try:
        parse(data.decode("utf-8", errors="replace"))
    except RTTMParseError:
        pass

