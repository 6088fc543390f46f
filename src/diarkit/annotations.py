"""Speaker annotations: RTTM and UEM parsing, segment algebra.

Onsets and durations are seconds.  RTTM lines are written with exactly three
decimal places, the usual exchange precision for diarization hypotheses.

``ScoringRegions`` is the one interval type, for UEM scoring regions, SAD
speech and OVL overlap regions alike.  ``ScoringRegions.covers`` maps it onto
a grid of row times, and ``runs_to_annotation`` maps a grid of speaker
decisions back to segments.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Segment",
    "Annotation",
    "ScoringRegions",
    "RTTMParseError",
    "read_fields",
    "disjoint_intervals",
    "parse_rttm",
    "write_rttm",
    "parse_uem",
    "write_uem",
    "merge_adjacent",
    "crop",
    "speech_timeline",
    "runs_to_annotation",
]


class RTTMParseError(ValueError):
    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


@dataclass(frozen=True, order=True)
class Segment:
    """One speaker turn: half-open interval [onset, onset + duration)."""

    recording_id: str
    onset: float
    duration: float
    speaker: str

    def __post_init__(self):
        if not (self.onset >= 0.0 and self.onset == self.onset):
            raise ValueError(f"segment onset must be >= 0, got {self.onset}")
        if not self.duration > 0.0:
            raise ValueError(f"segment duration must be > 0, got {self.duration}")
        if not math.isfinite(self.onset + self.duration):
            raise ValueError(f"segment offset must be finite, got {self.onset} + {self.duration}")

    @property
    def offset(self) -> float:
        return self.onset + self.duration


@dataclass(frozen=True)
class Annotation:
    """All labeled segments of one recording, kept sorted by (onset, speaker)."""

    recording_id: str
    segments: tuple[Segment, ...] = ()

    def __post_init__(self):
        for seg in self.segments:
            if seg.recording_id != self.recording_id:
                raise ValueError(
                    f"segment recording {seg.recording_id!r} does not match "
                    f"annotation {self.recording_id!r}"
                )
        ordered = tuple(sorted(self.segments, key=lambda s: (s.onset, s.speaker, s.offset)))
        object.__setattr__(self, "segments", ordered)

    def speakers(self) -> tuple[str, ...]:
        return tuple(sorted({seg.speaker for seg in self.segments}))

    def extent(self) -> float:
        return max((seg.offset for seg in self.segments), default=0.0)

    def with_segments(self, segments) -> "Annotation":
        return Annotation(self.recording_id, tuple(segments))


@dataclass(frozen=True)
class ScoringRegions:
    """Disjoint half-open [onset, offset) intervals of one recording, stored
    sorted by onset as floats."""

    recording_id: str
    intervals: tuple[tuple[float, float], ...] = ()

    def __post_init__(self):
        ordered = tuple(sorted((float(a), float(b)) for a, b in self.intervals))
        prev_end = None
        for onset, offset in ordered:
            if not (0.0 <= onset < offset):
                raise ValueError(f"bad interval ({onset}, {offset})")
            if prev_end is not None and onset < prev_end:
                raise ValueError("intervals must not overlap each other")
            prev_end = offset
        object.__setattr__(self, "intervals", ordered)

    def total_duration(self) -> float:
        return sum(off - on for on, off in self.intervals)

    def covers(self, times: np.ndarray) -> np.ndarray:
        """Boolean mask of the ``times`` that fall inside some interval."""
        inside = np.zeros(len(times), dtype=bool)
        for on, off in self.intervals:
            inside |= (times >= on) & (times < off)
        return inside


def read_fields(
    text: str, kind: str, n_fields: int, numeric: tuple[int, ...], tagged: bool = True
) -> Iterator[tuple[int, list[str], list[float]]]:
    """Yield ``(line_number, fields, values)`` for each data line of ``text``.

    The one reader behind the whitespace-separated line formats (RTTM, UEM,
    OVL).  Blank lines and lines starting with ``#`` or ``;;`` are skipped;
    when ``tagged``, so is every line whose first field is not ``kind``.  A
    data line must have exactly ``n_fields`` fields, and the fields at the
    ``numeric`` positions must be finite numbers, returned in ``values``.
    Any violation raises RTTMParseError carrying the 1-based line number.
    """
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";;")):
            continue
        fields = line.split()
        if tagged and fields[0] != kind:
            continue
        if len(fields) != n_fields:
            raise RTTMParseError(
                f"expected {n_fields} fields on {kind} line, got {len(fields)}", lineno
            )
        try:
            values = [float(fields[k]) for k in numeric]
            if not all(map(math.isfinite, values)):
                raise ValueError
        except ValueError:
            shown = " ".join(repr(fields[k]) for k in numeric)
            raise RTTMParseError(f"non-numeric or non-finite {kind} fields {shown}", lineno) from None
        yield lineno, fields, values


def parse_rttm(text: str) -> list[Annotation]:
    """Parse RTTM text into one Annotation per recording (sorted by id).

    Only SPEAKER lines are read; other line types are ignored.  A malformed
    SPEAKER line (wrong field count, non-numeric fields, or values that
    ``Segment`` rejects) raises RTTMParseError carrying the line number.
    """
    by_recording: dict[str, list[Segment]] = {}
    for lineno, fields, (onset, duration) in read_fields(text, "SPEAKER", 10, (3, 4)):
        try:
            segment = Segment(fields[1], onset, duration, fields[7])
        except ValueError as exc:
            raise RTTMParseError(str(exc), lineno) from None
        by_recording.setdefault(segment.recording_id, []).append(segment)
    return [Annotation(rec, tuple(segs)) for rec, segs in sorted(by_recording.items())]


def disjoint_intervals(
    spans: list[tuple[float, float, int]], kind: str
) -> tuple[tuple[float, float], ...]:
    """Sort ``(onset, offset, line_number)`` spans into disjoint intervals.

    An interval that starts before the previous one ends raises
    RTTMParseError at its line number.
    """
    spans = sorted(spans)
    for (_, prev_end, _), (onset, _, lineno) in zip(spans, spans[1:]):
        if onset < prev_end:
            raise RTTMParseError(f"{kind} intervals overlap", lineno)
    return tuple((onset, offset) for onset, offset, _ in spans)


def write_rttm(annotations: list[Annotation] | Annotation) -> str:
    """Render annotations as RTTM with 3-decimal onsets and durations."""
    if isinstance(annotations, Annotation):
        annotations = [annotations]
    lines = []
    for ann in annotations:
        for seg in ann.segments:
            lines.append(
                f"SPEAKER {seg.recording_id} 1 {seg.onset:.3f} {seg.duration:.3f} "
                f"<NA> <NA> {seg.speaker} <NA> <NA>"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def parse_uem(text: str) -> list[ScoringRegions]:
    """Parse UEM lines ``<recording> 1 <onset> <offset>`` into ScoringRegions."""
    by_recording: dict[str, list[tuple[float, float, int]]] = {}
    for lineno, fields, (onset, offset) in read_fields(text, "UEM", 4, (2, 3), tagged=False):
        if not 0.0 <= onset < offset:
            raise RTTMParseError("UEM interval must satisfy 0 <= onset < offset", lineno)
        by_recording.setdefault(fields[0], []).append((onset, offset, lineno))
    return [
        ScoringRegions(rec, disjoint_intervals(spans, "UEM"))
        for rec, spans in sorted(by_recording.items())
    ]


def write_uem(regions: list[ScoringRegions] | ScoringRegions) -> str:
    if isinstance(regions, ScoringRegions):
        regions = [regions]
    lines = []
    for reg in regions:
        for onset, offset in reg.intervals:
            lines.append(f"{reg.recording_id} 1 {onset:.3f} {offset:.3f}")
    return "\n".join(lines) + ("\n" if lines else "")


def read_rttm_file(path: str | Path) -> list[Annotation]:
    return parse_rttm(Path(path).read_text())


def merge_adjacent(annotation: Annotation, gap: float = 0.0) -> Annotation:
    """Fuse same-speaker segments whose inter-segment gap is <= gap seconds.

    Overlapping same-speaker segments always fuse, so the result has pairwise
    non-overlapping segments per speaker.
    """
    if gap < 0:
        raise ValueError(f"gap must be >= 0, got {gap}")
    merged: list[Segment] = []
    for speaker in annotation.speakers():
        spans: list[list[float]] = []
        for seg in annotation.segments:
            if seg.speaker != speaker:
                continue
            if spans and seg.onset - spans[-1][1] <= gap:
                spans[-1][1] = max(spans[-1][1], seg.offset)
            else:
                spans.append([seg.onset, seg.offset])
        merged.extend(
            Segment(annotation.recording_id, on, off - on, speaker) for on, off in spans
        )
    return annotation.with_segments(merged)


def crop(annotation: Annotation, regions: ScoringRegions) -> Annotation:
    """Intersect every segment with the scoring regions; drop empty results."""
    if regions.recording_id != annotation.recording_id:
        raise ValueError(
            f"regions are for {regions.recording_id!r}, annotation is "
            f"{annotation.recording_id!r}"
        )
    kept: list[Segment] = []
    for seg in annotation.segments:
        for on, off in regions.intervals:
            lo = max(seg.onset, on)
            hi = min(seg.offset, off)
            if hi > lo:
                kept.append(Segment(annotation.recording_id, lo, hi - lo, seg.speaker))
    return annotation.with_segments(kept)


def runs_to_annotation(
    recording_id: str, active: np.ndarray, bounds: np.ndarray, speakers: tuple[str, ...]
) -> Annotation:
    """One segment per run of active rows in each column of the (rows,
    speakers) boolean grid ``active``: column k is ``speakers[k]`` and row t
    spans ``bounds[t]`` to ``bounds[t + 1]``.  A run whose end bound is not
    above its start bound makes no segment."""
    segments: list[Segment] = []
    for k in range(active.shape[1]):
        padded = np.concatenate([[False], active[:, k], [False]])
        flips = np.flatnonzero(padded[1:] != padded[:-1])
        for a, b in zip(flips[::2], flips[1::2]):
            onset, offset = bounds[a], bounds[b]
            if offset > onset:
                segments.append(Segment(recording_id, onset, offset - onset, speakers[k]))
    return Annotation(recording_id, tuple(segments))


def speech_timeline(annotation: Annotation) -> ScoringRegions:
    """Union of all segments regardless of speaker, as scoring regions."""
    spans: list[list[float]] = []
    for seg in annotation.segments:
        if spans and seg.onset <= spans[-1][1]:
            spans[-1][1] = max(spans[-1][1], seg.offset)
        else:
            spans.append([seg.onset, seg.offset])
    return ScoringRegions(annotation.recording_id, tuple((a, b) for a, b in spans))
