"""Peak resident memory of each wideband stage on one synthetic recording.

Usage (from the repository root)::

    PYTHONPATH=src python3 tools/stage_rss.py --duration 1200 --seed 101

Synthesizes one 4-speaker recording like perfbench's ``long_wideband``
(16-dim embeddings, separation 10, ground-truth PLDA, the default plda+pic
config with VBx), then runs ``run_wideband`` on it once.  A thread reads
this process's resident set from ``/proc/self/statm`` every ``--interval``
milliseconds, and each sample counts toward the stage that is running: the
``diarkit.pipeline`` names of the stages are wrapped for the run, so a
stage is every call of that name made by the pipeline.  The table gives
each stage's peak RSS in MiB and, above the RSS just before the run, in
units of one n x n float64 array (n = the recording's windows).  Linux only.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
import time

import diarkit.pipeline as pipeline
from diarkit.embeddings import SyntheticSpec, generate_synthetic
from diarkit.pipeline import ModelSet, PipelineConfig
from diarkit.scoring import ground_truth_plda

# pipeline name -> stage label, in the order the wideband route runs them
STAGES = {
    "_score_recording": "score",
    "estimate_num_speakers": "estimate",
    "ahc_cluster": "ahc",
    "standardize_scores": "standardize",
    "build_knn_graph": "knn",
    "pic_cluster": "pic",
    "absorb_small_clusters": "absorb",
    "vbx_resegment": "vbx",
}
PAGE = os.sysconf("SC_PAGE_SIZE")


class Sampler(threading.Thread):
    """Keeps the largest resident set seen under each stage label."""

    def __init__(self, interval: float):
        super().__init__(daemon=True)
        self.interval = interval
        self.stage = "other"
        self.peaks: dict[str, int] = {}
        self._fd = os.open("/proc/self/statm", os.O_RDONLY)
        self._done = threading.Event()
        self._lock = threading.Lock()  # the stages sample too, from the main thread

    def sample(self) -> int:
        rss = int(os.pread(self._fd, 128, 0).split()[1]) * PAGE
        with self._lock:
            stage = self.stage
            self.peaks[stage] = max(self.peaks.get(stage, 0), rss)
        return rss

    def run(self) -> None:
        while not self._done.is_set():
            self.sample()
            time.sleep(self.interval)

    def stop(self) -> None:
        self._done.set()
        self.join()
        os.close(self._fd)


def _labelled(func, stage: str, sampler: Sampler):
    def wrapper(*args, **kwargs):
        outer = sampler.stage
        sampler.stage = stage
        sampler.sample()
        try:
            return func(*args, **kwargs)
        finally:
            sampler.sample()
            sampler.stage = outer

    return wrapper


def measure(duration: float, seed: int, interval: float) -> tuple[int, int, dict[str, int]]:
    """Run one recording; return (windows, RSS before the run, peak RSS by stage)."""
    spec = SyntheticSpec.well_separated(
        4, 16, separation=10.0, duration=duration, seed=seed, recording_id="stage_rss"
    )
    seq, _, _ = generate_synthetic(spec)
    plda = ground_truth_plda(spec)
    models = ModelSet(plda_score=plda, plda_vbx=plda)
    config = PipelineConfig()
    sampler = Sampler(interval)
    originals = {name: getattr(pipeline, name) for name in STAGES}
    switch = sys.getswitchinterval()
    # hand the GIL over often enough that the sampler also runs while the
    # stages are in Python code
    sys.setswitchinterval(min(switch, interval))
    base = sampler.sample()
    sampler.peaks.clear()
    sampler.start()
    try:
        for name, stage in STAGES.items():
            setattr(pipeline, name, _labelled(originals[name], stage, sampler))
        pipeline.run_wideband(seq, None, config, models)
    finally:
        sampler.stop()
        sys.setswitchinterval(switch)
        for name, func in originals.items():
            setattr(pipeline, name, func)
    return len(seq), base, sampler.peaks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--duration", type=float, default=1200.0, help="recording length in seconds")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--interval", type=float, default=0.3, help="sampling period in ms")
    args = parser.parse_args(argv)
    n, base, peaks = measure(args.duration, args.seed, args.interval / 1000.0)
    square = n * n * 8
    mb = 1024.0 * 1024.0
    print(f"windows {n}, n^2 = {square / mb:.1f} MiB, base {base / mb:.1f} MiB")
    print(f"{'stage':<12} {'peak MiB':>9} {'above base':>11}")
    order = ["other", *STAGES.values()]
    for stage in sorted(peaks, key=order.index):
        print(f"{stage:<12} {peaks[stage] / mb:9.1f} {(peaks[stage] - base) / square:9.2f} n^2")
    return 0


if __name__ == "__main__":
    sys.exit(main())
