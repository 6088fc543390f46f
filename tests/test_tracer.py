"""Guard for the per-layer tracer of the benchmark in ``perfbench/``.

The tracer wraps diarkit names by ``owner.__dict__[attr]``, so renaming or
removing one of them breaks every traced benchmark run.  This test loads the
tracer from its file and runs one small corpus under it, checking that each
wrapped layer still records time and that the score-pair count is n^2 per
recording.
"""

import dataclasses
import importlib.util
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import diarkit.clustering
import diarkit.pipeline
from diarkit.pipeline import PipelineConfig, run_corpus, synthesize_corpus

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_tracer_sees_every_traced_layer(tracer_module, tmp_path, monkeypatch):
    # two 60 s recordings, plda+pic with VBx: the synthesized config's defaults
    config_path = synthesize_corpus(
        tmp_path / "corpus", num_recordings=2, min_speakers=2, max_speakers=3, duration=60.0, seed=5
    )
    config = PipelineConfig.load(config_path)
    assert config.scoring.kind == "plda" and config.clustering.method == "pic"
    assert config.vbx.enabled
    # at the default damping the merge loop's bounds settle every merge of this
    # corpus without a solve; at 0.5 it claims no bound and solves each pair
    config = dataclasses.replace(
        config, clustering=dataclasses.replace(config.clustering, damping=0.5)
    )
    originals = (diarkit.clustering.path_integral, np.linalg.solve)
    # count each recording's kept windows under the tracer's own wrapper
    kept = []
    score = diarkit.pipeline.score_plda_matrix

    def counting_score(sub, *args, **kwargs):
        kept.append(len(sub))
        return score(sub, *args, **kwargs)

    monkeypatch.setattr(diarkit.pipeline, "score_plda_matrix", counting_score)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with tracer_module.Tracer(caught) as tracer:
            installed = (diarkit.clustering.path_integral, np.linalg.solve)
            manifest = run_corpus(config, tmp_path / "out", workers=1)
    assert all(now is not before for now, before in zip(installed, originals))
    assert (diarkit.clustering.path_integral, np.linalg.solve) == originals
    assert all(entry.status == "ok" for entry in manifest.entries)
    busy = {}
    for span in tracer.spans:
        busy[span.name] = busy.get(span.name, 0.0) + span.end - span.start
    layers = (
        "scoring.plda",
        "scoring.standardize",
        "clustering.estimate",
        "clustering.knn",
        "clustering.pic",
        "clustering.absorb",
        "reseg.vbx",
    )
    for name in layers:
        assert busy.get(name, 0.0) > 0.0, name
    assert tracer.counts["clustering.pic_merge.solves"] > 0
    assert tracer.counts["clustering.pic_merge.path_integrals"] > 0
    assert len(kept) == 2 and min(kept) > 1
    assert tracer.counts["scoring.pairs"] == sum(n * n for n in kept)
