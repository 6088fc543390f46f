"""Embedding sequences: sliding-window timing, binary file I/O, synthesis.

One recording yields one matrix of fixed-dimension embedding vectors, one
vector per sliding window.  Files use the ``EMB1`` container (see
:mod:`diarkit.container`) with a plain-text sidecar holding the window
geometry, so a file round-trips bit-exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import container
from .annotations import Annotation, Segment
from .container import FormatError

__all__ = [
    "EmbeddingSequence",
    "SyntheticSpec",
    "FormatError",
    "window_times",
    "read_embeddings",
    "write_embeddings",
    "generate_synthetic",
]


def window_times(duration: float, size: float, shift: float) -> np.ndarray:
    """Sliding-window (onset, offset) pairs covering ``[0, duration]``.

    Windows start at 0, shift, 2*shift, ...  The last window is the largest
    index i with ``i*shift + size <= duration + shift/2``; its offset is
    clipped to the recording duration, so a final partial window is kept
    rather than dropped.

    Parameters
    ----------
    duration : float
        Recording length in seconds; must be >= size.
    size : float
        Window length in seconds, > 0.
    shift : float
        Hop between window onsets in seconds, > 0.

    Returns
    -------
    np.ndarray, shape (n, 2)
        Onset/offset pairs; always at least one row.
    """
    if size <= 0 or shift <= 0:
        raise ValueError(f"window size and shift must be > 0, got {size}, {shift}")
    if duration < size:
        raise ValueError(
            f"recording duration {duration} is shorter than window size {size}"
        )
    # the 1e-9 slack guards against representation error dropping a window
    last = int(math.floor((duration + shift / 2.0 - size) / shift + 1e-9))
    onsets = np.arange(last + 1, dtype=float) * shift
    offsets = np.minimum(onsets + size, duration)
    return np.column_stack([onsets, offsets])


@dataclass(frozen=True)
class EmbeddingSequence:
    """Per-recording embedding matrix plus window timing metadata.

    Vectors are stored float32 (the on-disk precision).  ``windows`` holds one
    (onset, offset) row per vector; for sequences built over a whole recording
    they equal ``window_times(recording_duration, window_size, window_shift)``
    and the row count matches that enumeration.  Derived views (see
    :meth:`subset`) keep explicit windows instead.
    """

    recording_id: str
    vectors: np.ndarray
    window_size: float
    window_shift: float
    recording_duration: float
    windows: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        vec = np.asarray(self.vectors, dtype=np.float32)
        if vec.ndim != 2 or vec.shape[0] < 1 or vec.shape[1] < 1:
            raise ValueError(f"vectors must be a non-empty 2-D matrix, got {vec.shape}")
        if not np.isfinite(vec).all():
            raise ValueError("embedding vectors must be finite")
        object.__setattr__(self, "vectors", vec)
        if self.windows is None:
            wins = window_times(self.recording_duration, self.window_size, self.window_shift)
            if len(wins) != len(vec):
                raise ValueError(
                    f"{len(vec)} vectors but window enumeration yields {len(wins)} "
                    f"windows for duration {self.recording_duration}"
                )
            object.__setattr__(self, "windows", wins)
        else:
            wins = np.asarray(self.windows, dtype=float)
            if wins.shape != (len(vec), 2):
                raise ValueError(f"windows shape {wins.shape} does not match {len(vec)} vectors")
            object.__setattr__(self, "windows", wins)

    def __len__(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def centers(self) -> np.ndarray:
        return self.windows.mean(axis=1)

    def subset(self, indices) -> "EmbeddingSequence":
        """Derived view keeping the selected rows and their window times."""
        idx = np.asarray(indices)
        return replace(self, vectors=self.vectors[idx], windows=self.windows[idx])


def write_embeddings(path: str | Path, seq: EmbeddingSequence) -> None:
    """Write one EMB1 block plus the metadata sidecar."""
    container.write_blocks(path, [seq.vectors])
    container.write_sidecar(
        path,
        {
            "recording_id": seq.recording_id,
            "window_size": repr(float(seq.window_size)),
            "window_shift": repr(float(seq.window_shift)),
            "recording_duration": repr(float(seq.recording_duration)),
            "dim": seq.dim,
        },
    )


def read_embeddings(path: str | Path) -> EmbeddingSequence:
    blocks = container.read_blocks(path, expect=1)
    meta = container.read_sidecar(path)
    with container.naming_file(path):
        seq = EmbeddingSequence(
            recording_id=meta["recording_id"],
            vectors=blocks[0],
            window_size=float(meta["window_size"]),
            window_shift=float(meta["window_shift"]),
            recording_duration=float(meta["recording_duration"]),
        )
        if int(meta.get("dim", seq.dim)) != seq.dim:
            raise FormatError(
                f"{path}: sidecar dim {meta['dim']} does not match payload dim {seq.dim}"
            )
    return seq


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for a synthetic diarization recording.

    Speaker turns are sampled back to back with uniform lengths in
    [turn_min, turn_max], never repeating the previous speaker when more than
    one is available.  A window is under every turn with ``on <= c < off``,
    where c is the window's centre.  Its embedding is the mean of one
    Gaussian draw (standard deviation ``within_std``) around each of those
    turns' speaker means; a window under no turn takes one draw around the
    origin.  Draws come from one generator seeded with ``seed``, after the
    turn sampling: window by window in time order, and within a window in
    turn order.  Every seed's bytes depend on that order, so it is part of
    the corpus format.
    """

    num_speakers: int
    embedding_dim: int
    speaker_means: np.ndarray
    within_std: float = 1.0
    turn_min: float = 2.0
    turn_max: float = 6.0
    overlap_fraction: float = 0.0
    gap_min: float = 0.0
    gap_max: float = 0.0
    duration: float = 300.0
    window_size: float = 1.5
    window_shift: float = 0.25
    seed: int = 0
    recording_id: str = "synthetic"

    def __post_init__(self):
        means = np.asarray(self.speaker_means, dtype=float)
        if means.shape != (self.num_speakers, self.embedding_dim):
            raise ValueError(
                f"speaker_means shape {means.shape} != "
                f"({self.num_speakers}, {self.embedding_dim})"
            )
        object.__setattr__(self, "speaker_means", means)
        if self.num_speakers < 1:
            raise ValueError("num_speakers must be >= 1")
        if not 0.0 <= self.overlap_fraction < 1.0:
            raise ValueError("overlap_fraction must lie in [0, 1)")
        if self.overlap_fraction > 0.0 and self.gap_max > 0.0:
            raise ValueError("overlapped turns require gap_min = gap_max = 0")
        if not 0.0 < self.turn_min <= self.turn_max:
            raise ValueError("need 0 < turn_min <= turn_max")
        if not 0.0 <= self.gap_min <= self.gap_max or self.gap_min < 0:
            raise ValueError("need 0 <= gap_min <= gap_max")
        if self.within_std <= 0:
            raise ValueError("within_std must be > 0")
        if self.duration < self.window_size:
            raise ValueError("duration must be >= window_size")

    @classmethod
    def well_separated(
        cls,
        num_speakers: int,
        embedding_dim: int,
        separation: float = 10.0,
        within_std: float = 1.0,
        **kwargs,
    ) -> "SyntheticSpec":
        """Speaker means on scaled coordinate axes, pairwise distance
        ``separation * within_std``."""
        if embedding_dim < num_speakers:
            raise ValueError("embedding_dim must be >= num_speakers for axis placement")
        means = np.zeros((num_speakers, embedding_dim))
        scale = separation * within_std / math.sqrt(2.0)
        for k in range(num_speakers):
            means[k, k] = scale
        return cls(
            num_speakers=num_speakers,
            embedding_dim=embedding_dim,
            speaker_means=means,
            within_std=within_std,
            **kwargs,
        )


def _sample_turns(spec: SyntheticSpec, rng: np.random.Generator):
    turns: list[list[float]] = []  # [onset, offset, speaker]
    t = 0.0
    prev = -1
    while t < spec.duration - 0.1:
        if spec.num_speakers == 1:
            spk = 0
        else:
            choices = [k for k in range(spec.num_speakers) if k != prev]
            spk = int(choices[rng.integers(len(choices))])
        length = float(rng.uniform(spec.turn_min, spec.turn_max))
        offset = min(t + length, spec.duration)
        turns.append([t, offset, spk])
        t = offset + (float(rng.uniform(spec.gap_min, spec.gap_max)) if spec.gap_max > 0 else 0.0)
        prev = spk
    if spec.gap_max == 0 and turns and turns[-1][1] < spec.duration:
        # gapless recordings tile [0, duration] exactly; stretch the final
        # turn over the sub-0.1s remainder instead of leaving a sliver
        turns[-1][1] = spec.duration
    return turns


def _apply_overlap(spec: SyntheticSpec, turns):
    """Pull each turn's onset back into its predecessor so that roughly
    ``overlap_fraction`` of the final speech time is doubly labeled."""
    if spec.overlap_fraction <= 0.0 or len(turns) < 2:
        return turns, []
    total = sum(off - on for on, off, _ in turns)
    target = spec.overlap_fraction * total / (1.0 + spec.overlap_fraction)
    per_pair = target / (len(turns) - 1)
    regions = []
    for i in range(1, len(turns)):
        prev_on, prev_off, _ = turns[i - 1]
        on, off, spk = turns[i]
        delta = min(per_pair, 0.4 * (prev_off - prev_on), 0.4 * (off - on))
        if delta <= 0.01:
            continue
        turns[i][0] = on - delta
        regions.append((on - delta, prev_off))
    return turns, regions


def generate_synthetic(
    spec: SyntheticSpec,
) -> tuple[EmbeddingSequence, Annotation, Annotation | None]:
    """Sample a synthetic recording.

    Returns the embedding sequence over the full window grid, the reference
    annotation matching the sampled turns exactly, and an annotation of the
    pairwise-overlap regions (None when overlap_fraction is 0).  Fixed seed
    gives identical output.

    Turn onsets and offsets are strictly increasing (raises ValueError if
    not), so the turns under a window centred at c are the index run from
    the first offset past c to the last onset at or before c.  All draws are
    taken in one ``standard_normal`` call, in the order that
    :class:`SyntheticSpec` states, and each vector is cast to float32 once.
    """
    rng = np.random.default_rng(spec.seed)
    turns = _sample_turns(spec, rng)
    turns, overlap_regions = _apply_overlap(spec, turns)

    segments = [
        Segment(spec.recording_id, on, off - on, f"speaker{spk}")
        for on, off, spk in turns
    ]
    reference = Annotation(spec.recording_id, tuple(segments))

    onsets = np.array([on for on, _, _ in turns])
    offsets = np.array([off for _, off, _ in turns])
    if (np.diff(onsets) <= 0).any() or (np.diff(offsets) <= 0).any():
        raise ValueError("turn onsets and offsets must be strictly increasing")
    centers = window_times(spec.duration, spec.window_size, spec.window_shift).mean(axis=1)
    # with both bounds increasing, the turns with on <= c < off are one index run
    first = np.searchsorted(offsets, centers, "right")
    active = np.maximum(np.searchsorted(onsets, centers, "right") - first, 0)
    # a silence window takes one draw from the row past the speakers: the origin
    first[active == 0] = len(turns)
    draws = np.maximum(active, 1)
    starts = np.cumsum(draws) - draws
    window = np.repeat(np.arange(len(centers)), draws)
    turn = first[window] + np.arange(len(window)) - starts[window]
    speaker = np.array([spk for _, _, spk in turns] + [spec.num_speakers], dtype=int)
    locs = np.vstack([spec.speaker_means, np.zeros(spec.embedding_dim)])[speaker[turn]]
    # Generator.normal(loc, scale) is loc + scale * standard_normal, draw by
    # draw; a window's draws are summed in turn order, then divided, as np.mean
    values = locs + spec.within_std * rng.standard_normal((len(window), spec.embedding_dim))
    vectors = (np.add.reduceat(values, starts, axis=0) / draws[:, None]).astype(np.float32)

    seq = EmbeddingSequence(
        recording_id=spec.recording_id,
        vectors=vectors,
        window_size=spec.window_size,
        window_shift=spec.window_shift,
        recording_duration=spec.duration,
    )
    overlap_ann = None
    if overlap_regions:
        overlap_ann = Annotation(
            spec.recording_id,
            tuple(
                Segment(spec.recording_id, on, off - on, "overlap")
                for on, off in overlap_regions
                if off > on
            ),
        )
    return seq, reference, overlap_ann
