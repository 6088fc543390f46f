"""Per-layer tracing by wrapping diarkit's public functions at their call sites.

The wrappers go on the names where the pipeline looks them up
(``diarkit.pipeline.<fn>``, ``diarkit.clustering.init_partition``,
``diarkit.clustering.path_integral``, ``ModelSet.load``) and are removed
again when the ``Tracer`` context exits.  Spans are kept in memory; nothing
is written while the corpus runs.  The wrappers only observe: apart from
handing ``vbx_resegment`` a list to collect its ELBO trace in, they pass
arguments through unchanged and return the wrapped function's result.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

import diarkit.clustering
import diarkit.pipeline


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span, None at top level


def _pairs(result, args, kwargs):
    return result.scores.size


def _components(result, args, kwargs):
    return len(result.clusters)


def _classified_rows(result, args, kwargs):
    return len(result.segment_labels)


def _file_bytes(result, args, kwargs):
    path = args[0] if args else kwargs["path"]
    return os.path.getsize(path)


# diarkit.pipeline name -> (span name, optional (counter, measure of the call));
# pic_cluster, vbx_resegment and assign_overlap get wrappers of their own below
PIPELINE_WRAPS = {
    "score_plda_matrix": ("scoring.plda", ("scoring.pairs", _pairs)),
    "cosine_similarity": ("scoring.cosine", ("scoring.pairs", _pairs)),
    "standardize_scores": ("scoring.standardize", None),
    "fit_pca": ("scoring.pca_fit", None),
    "estimate_num_speakers": ("clustering.estimate", None),
    "build_knn_graph": ("clustering.knn", None),
    "ahc_cluster": ("clustering.ahc", None),
    "absorb_small_clusters": ("clustering.absorb", None),
    "decode_posteriors": ("reseg.decode", None),
    "classify_recording": ("bandwidth.classify", ("bandwidth.classify.rows", _classified_rows)),
    "read_embeddings": ("embeddings.read", ("embeddings.read.bytes", _file_bytes)),
    "write_rttm": ("annotations.write_rttm", None),
    "merge_adjacent": ("annotations.merge_adjacent", None),
    "der": ("metrics.der", None),
    "run_wideband": ("pipeline.run_wideband", None),
    "run_narrowband": ("pipeline.run_narrowband", None),
}

# span name -> per-layer busy-time metric (pic_cluster is split separately)
BUSY_METRICS = {
    "scoring.plda": "scoring.plda.busy_s",
    "scoring.cosine": "scoring.cosine.busy_s",
    "scoring.standardize": "scoring.standardize.busy_s",
    "scoring.pca_fit": "scoring.pca_fit.busy_s",
    "clustering.estimate": "clustering.estimate.busy_s",
    "clustering.knn": "clustering.knn.busy_s",
    "clustering.init": "clustering.init.busy_s",
    "clustering.ahc": "clustering.ahc.busy_s",
    "clustering.absorb": "clustering.absorb.busy_s",
    "reseg.vbx": "reseg.vbx.busy_s",
    "reseg.overlap": "reseg.overlap.busy_s",
    "reseg.decode": "reseg.decode.busy_s",
    "bandwidth.classify": "bandwidth.classify.busy_s",
    "embeddings.read": "embeddings.read.busy_s",
    "annotations.write_rttm": "annotations.write_rttm.busy_s",
    "annotations.merge_adjacent": "annotations.merge_adjacent.busy_s",
    "metrics.der": "metrics.der.busy_s",
    "pipeline.run_wideband": "pipeline.run_wideband.busy_s",
    "pipeline.run_narrowband": "pipeline.run_narrowband.busy_s",
    "pipeline.model_load": "pipeline.model_load.busy_s",
}

# counter name -> unit
COUNT_METRICS = {
    "scoring.pairs": "count",
    "clustering.init.components": "count",
    "clustering.pic_merge.merges": "count",
    "clustering.pic_merge.solves": "count",
    "clustering.pic_merge.path_integrals": "count",
    "reseg.vbx.iterations": "count",
    "reseg.overlap.skipped": "count",
    "bandwidth.classify.rows": "count",
    "embeddings.read.bytes": "bytes",
}

TIME_METRICS = tuple(BUSY_METRICS.values()) + (
    "clustering.pic_merge.busy_s",
    "pipeline.run_corpus.self_s",
)

# every per-layer metric -> unit
PER_LAYER_UNITS = {**{name: "s" for name in TIME_METRICS}, **COUNT_METRICS}


class Tracer:
    """Context manager that installs the wrappers and collects spans and counts.

    ``warning_log`` is the list a surrounding ``warnings.catch_warnings(record=True)``
    appends to; warnings raised inside ``assign_overlap`` are counted from it.
    """

    def __init__(self, warning_log: list):
        self.warning_log = warning_log
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._pic_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def run_span(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _timed(self, fn, name: str, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.run_span(name, fn, *args, **kwargs)
            if counter is not None:
                key, measure = counter
                self.counts[key] += measure(result, args, kwargs)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        pipeline = diarkit.pipeline
        clustering = diarkit.clustering
        for attr, (name, counter) in PIPELINE_WRAPS.items():
            self._patch(pipeline, attr, self._timed(getattr(pipeline, attr), name, counter))
        self._patch(pipeline, "pic_cluster", self._pic(pipeline.pic_cluster))
        self._patch(pipeline, "vbx_resegment", self._vbx(pipeline.vbx_resegment))
        self._patch(pipeline, "assign_overlap", self._overlap(pipeline.assign_overlap))
        self._patch(
            clustering,
            "init_partition",
            self._timed(
                clustering.init_partition,
                "clustering.init",
                ("clustering.init.components", _components),
            ),
        )
        self._patch(
            clustering,
            "path_integral",
            self._counted(clustering.path_integral, "clustering.pic_merge.path_integrals"),
        )
        self._patch(
            np.linalg,
            "solve",
            self._counted(np.linalg.solve, "clustering.pic_merge.solves", pic_only=True),
        )
        load = pipeline.ModelSet.__dict__["load"].__func__
        self._patch(pipeline.ModelSet, "load", classmethod(self._timed(load, "pipeline.model_load")))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _counted(self, fn, key: str, pic_only: bool = False):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not pic_only or self._pic_depth:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _pic(self, fn):
        """pic_cluster: time it, count merges and scope the solve counter."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self.counts["clustering.init.components"]
            self._pic_depth += 1
            try:
                result = self.run_span("clustering.pic", fn, *args, **kwargs)
            finally:
                self._pic_depth -= 1
            components = self.counts["clustering.init.components"] - before
            self.counts["clustering.pic_merge.merges"] += components - len(result.clusters)
            return result

        return wrapper

    def _vbx(self, fn):
        """vbx_resegment: time it and count ELBO iterations.

        The pipeline passes no ``elbo_trace``; handing one in only collects
        the per-iteration bounds, it changes no result.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            trace = kwargs.setdefault("elbo_trace", [])
            result = self.run_span("reseg.vbx", fn, *args, **kwargs)
            self.counts["reseg.vbx.iterations"] += len(trace)
            return result

        return wrapper

    def _overlap(self, fn):
        """assign_overlap: time it and count the regions it skipped with a warning."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = len(self.warning_log)
            result = self.run_span("reseg.overlap", fn, *args, **kwargs)
            self.counts["reseg.overlap.skipped"] += len(self.warning_log) - before
            return result

        return wrapper

    # -- summaries ----------------------------------------------------------

    def layer_metrics(self, first_span: int = 0) -> dict[str, float]:
        """Per-layer metrics over the spans recorded from index ``first_span`` on.

        Busy time sums the spans of a layer; the PIC merge is the
        ``pic_cluster`` span minus its ``init_partition`` children; the corpus
        runner's self time is each ``pipeline.run_corpus`` span minus the part
        its direct children cover.
        """
        spans = self.spans[first_span:]
        metrics = {name: 0.0 for name in TIME_METRICS}
        child_time: Counter = Counter()
        for span in spans:
            duration = span.end - span.start
            if span.parent is not None:
                child_time[span.parent] += duration
            if span.name in BUSY_METRICS:
                metrics[BUSY_METRICS[span.name]] += duration
        for offset, span in enumerate(spans):
            idx = first_span + offset
            duration = span.end - span.start
            if span.name == "clustering.pic":
                metrics["clustering.pic_merge.busy_s"] += duration - child_time[idx]
            elif span.name == "pipeline.run_corpus":
                metrics["pipeline.run_corpus.self_s"] += duration - child_time[idx]
        return metrics
