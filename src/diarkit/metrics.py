"""Diarization error rate and Jaccard error rate.

Scoring discretizes time onto a 10 ms frame grid (boundaries round half-up)
and compares per-frame speaker sets, the same convention the reference
diarization scoring tools use.  Error seconds split into missed speech,
false alarm and speaker confusion; the denominator is the total reference
speaker time inside the scored regions, so overlapped reference speech
counts once per active speaker.  The collar excludes frames within the
given distance of any reference segment boundary.  JER averages per
reference speaker 1 - intersection/union against the optimally mapped
hypothesis speaker (1.0 when unmapped); it uses the scoring regions but no
collar and always scores overlap.

Every entry point builds its speaker grids and region mask once, in
``_frame_grids``, and maps speakers with one Hungarian routine,
``_matched_pairs``: DER on the collar- and overlap-filtered frames, JER and
:func:`optimal_mapping` on the region frames.  ``der`` reports the JER of
the grids it already built.  The grids end at the reference's end plus the
collar, with or without scoring regions; a hypothesis speaker's scored
frames past that are counted, not gridded, and add to false alarm and to
its JER union.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .annotations import Annotation, ScoringRegions

__all__ = ["DERReport", "optimal_mapping", "der", "jer", "aggregate", "format_report", "report_rows"]

FRAME = 0.01  # scoring grid in seconds


def _frame(t: float) -> int:
    """Snap a time to the frame grid, rounding half-up and saturating at 2^62."""
    return int(math.floor(min(t * 100.0 + 0.5, 2.0**62)))


def _speaker_frames(annotation: Annotation, speakers: list[str], n_frames: int) -> np.ndarray:
    grid = np.zeros((len(speakers), n_frames), dtype=bool)
    index = {s: k for k, s in enumerate(speakers)}
    for seg in annotation.segments:
        a, b = _frame(seg.onset), _frame(seg.offset)
        if b > a:
            grid[index[seg.speaker], a:b] = True
    return grid


def _frames_past(
    annotation: Annotation, speakers: list[str], start: int, regions: ScoringRegions | None
) -> np.ndarray:
    """Per speaker, the frames at or after ``start`` in the union of that
    speaker's frame ranges that fall inside the region frame ranges (all of
    them without regions), counted without a grid."""
    ranges: dict[str, list[tuple[int, int]]] = {s: [] for s in speakers}
    for seg in annotation.segments:
        a, b = max(_frame(seg.onset), start), _frame(seg.offset)
        if b > a:
            ranges[seg.speaker].append((a, b))
    if regions is None:
        allowed = [(start, _frame(math.inf))]
    else:
        allowed = [(_frame(on), _frame(off)) for on, off in regions.intervals if _frame(off) > start]
    counts = []
    for s in speakers:
        total, reach = 0, start
        for a, b in sorted(ranges[s]):
            # [max(a, reach), b) is the part of this range no earlier one covered
            a = max(a, reach)
            total += sum(max(min(b, hi) - max(a, lo), 0) for lo, hi in allowed)
            reach = max(reach, b)
        counts.append(total)
    return np.array(counts, dtype=np.int64)


def _frame_grids(
    reference: Annotation,
    hypothesis: Annotation,
    regions: ScoringRegions | None,
    collar: float = 0.0,
):
    """Sorted speaker labels, (speakers, frames) grids and region mask of one
    call, and each hypothesis speaker's frames past the grids' end.

    The grids stop at the hypothesis end or at the reference end plus the
    collar, whichever is sooner.  Every frame past that has no reference
    speaker and lies outside the collar, so where it is scored, inside the
    scoring regions or everywhere without them, it counts only as false
    alarm, and only its number per speaker is kept.
    """
    ref_spk = list(reference.speakers())
    hyp_spk = list(hypothesis.speakers())
    ref_end = reference.extent()
    end = max(ref_end, min(hypothesis.extent(), ref_end + collar))
    n_frames = max(_frame(end), 1)
    region = np.full(n_frames, regions is None)
    if regions is not None:
        for on, off in regions.intervals:
            region[_frame(on) : _frame(off)] = True
    past = _frames_past(hypothesis, hyp_spk, n_frames, regions)
    R = _speaker_frames(reference, ref_spk, n_frames)
    H = _speaker_frames(hypothesis, hyp_spk, n_frames)
    return ref_spk, hyp_spk, R, H, region, past


def _matched_pairs(R: np.ndarray, H: np.ndarray) -> list[tuple[int, int]]:
    """Hungarian (reference, hypothesis) index pairs maximizing shared frames.

    Pairs with zero shared frames are dropped, so speakers may stay
    unmapped; ties among optima resolve by the speakers' sorted label order.
    """
    shared = R.astype(np.int64) @ H.astype(np.int64).T
    if not shared.size:
        return []
    rows, cols = scipy.optimize.linear_sum_assignment(-shared)
    return [(int(i), int(j)) for i, j in zip(rows, cols) if shared[i, j] > 0]


def _jaccard_error(R: np.ndarray, H: np.ndarray, past: np.ndarray) -> float | None:
    """Mean Jaccard error over reference speakers of region-masked grids;
    ``past`` holds each hypothesis speaker's frames beyond the grids."""
    if not len(R):
        return None
    match = dict(_matched_pairs(R, H))
    errors = []
    for i in range(len(R)):
        if i not in match:
            errors.append(1.0)
            continue
        h = H[match[i]]
        union = float((R[i] | h).sum() + past[match[i]])
        inter = float((R[i] & h).sum())
        errors.append(1.0 - inter / union if union > 0 else 1.0)
    return float(np.mean(errors))


def optimal_mapping(reference: Annotation, hypothesis: Annotation, regions: ScoringRegions | None = None) -> tuple[tuple[str, str], ...]:
    """One-to-one speaker mapping maximizing total frame agreement.

    Pairs with zero shared time are dropped, so speakers may stay unmapped.
    Speakers are considered in sorted label order, which makes the choice
    among equal-agreement optima deterministic.
    """
    ref_spk, hyp_spk, R, H, region, _ = _frame_grids(reference, hypothesis, regions)
    return tuple((ref_spk[i], hyp_spk[j]) for i, j in _matched_pairs(R & region, H & region))


@dataclass(frozen=True)
class DERReport:
    """Error decomposition for one recording (seconds and ratios)."""

    recording_id: str
    scored_speech: float
    missed: float
    false_alarm: float
    confusion: float
    der: float | None
    jer: float | None
    speaker_map: tuple[tuple[str, str], ...] = ()


def der(
    reference: Annotation,
    hypothesis: Annotation,
    collar: float = 0.0,
    regions: ScoringRegions | None = None,
    score_overlap: bool = True,
) -> DERReport:
    """Frame-grid diarization error rate with the optimal speaker mapping.

    ``der = (missed + false_alarm + confusion) / scored_speech`` where
    scored_speech is total reference speaker time in the scored regions.
    An empty scored reference gives der = None (undefined, not zero).  The
    report's ``jer`` is :func:`jer` of the same call.
    """
    if collar < 0:
        raise ValueError(f"collar must be >= 0, got {collar}")
    ref_spk, hyp_spk, R, H, region, past = _frame_grids(reference, hypothesis, regions, collar)
    scored = region.copy()
    if collar > 0.0:
        for seg in reference.segments:
            for boundary in (seg.onset, seg.offset):
                scored[max(_frame(boundary - collar), 0) : _frame(boundary + collar)] = False
    if not score_overlap:
        scored &= R.sum(axis=0) < 2

    # unscored frames are zeroed, not cut out: every count below is the same
    Rs = R & scored
    Hs = H & scored
    pairs = _matched_pairs(Rs, Hs)
    mapping = tuple((ref_spk[i], hyp_spk[j]) for i, j in pairs)

    n_ref = Rs.sum(axis=0).astype(np.int64)
    n_hyp = Hs.sum(axis=0).astype(np.int64)
    n_correct = np.zeros(Rs.shape[1], dtype=np.int64)
    for i, j in pairs:
        n_correct += Rs[i] & Hs[j]

    missed = float(np.maximum(n_ref - n_hyp, 0).sum()) * FRAME
    false_alarm = float(np.maximum(n_hyp - n_ref, 0).sum() + past.sum()) * FRAME
    confusion = float((np.minimum(n_ref, n_hyp) - n_correct).sum()) * FRAME
    scored_speech = float(n_ref.sum()) * FRAME
    rate = (missed + false_alarm + confusion) / scored_speech if scored_speech > 0 else None
    return DERReport(
        recording_id=reference.recording_id,
        scored_speech=scored_speech,
        missed=missed,
        false_alarm=false_alarm,
        confusion=confusion,
        der=rate,
        jer=_jaccard_error(R & region, H & region, past),
        speaker_map=mapping,
    )


def jer(
    reference: Annotation,
    hypothesis: Annotation,
    regions: ScoringRegions | None = None,
) -> float | None:
    """Mean per-reference-speaker Jaccard error under the optimal mapping."""
    _, _, R, H, region, past = _frame_grids(reference, hypothesis, regions)
    return _jaccard_error(R & region, H & region, past)


def aggregate(
    reports: list[DERReport],
    name: str = "ALL",
    include: set[str] | None = None,
) -> DERReport:
    """Pool error seconds across recordings; JER is the mean of file JERs.

    ``include`` filters by recording id (e.g. a core-subset list).
    """
    chosen = [r for r in reports if include is None or r.recording_id in include]
    scored = sum(r.scored_speech for r in chosen)
    missed = sum(r.missed for r in chosen)
    fa = sum(r.false_alarm for r in chosen)
    conf = sum(r.confusion for r in chosen)
    jers = [r.jer for r in chosen if r.jer is not None]
    return DERReport(
        recording_id=name,
        scored_speech=scored,
        missed=missed,
        false_alarm=fa,
        confusion=conf,
        der=(missed + fa + conf) / scored if scored > 0 else None,
        jer=float(np.mean(jers)) if jers else None,
        speaker_map=(),
    )


def _fmt(value: float | None, digits: int = 4) -> str:
    return "NA" if value is None else f"{value:.{digits}f}"


def report_rows(reports: list[DERReport]) -> list[list[str]]:
    """Fixed-order rows: recording, scored, miss, fa, conf, der, jer."""
    rows = [["recording", "scored", "miss", "fa", "conf", "der", "jer"]]
    for r in reports:
        rows.append(
            [
                r.recording_id,
                f"{r.scored_speech:.2f}",
                f"{r.missed:.2f}",
                f"{r.false_alarm:.2f}",
                f"{r.confusion:.2f}",
                _fmt(r.der),
                _fmt(r.jer),
            ]
        )
    return rows


def format_report(reports: list[DERReport]) -> str:
    """Aligned text table over :func:`report_rows`."""
    rows = report_rows(reports)
    widths = [max(len(row[c]) for row in rows) for c in range(len(rows[0]))]
    lines = []
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"
