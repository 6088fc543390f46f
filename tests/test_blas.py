"""Tests for the one-BLAS-thread hold and for the work a corpus run does.

``run_corpus`` holds every loaded OpenBLAS at one thread for its whole call.
Its outputs and the work it does (PIC merges, solves, path integrals, VBx
iterations) must not depend on the thread count, and the count must be given
back however the call ends.
"""

import dataclasses
import shutil
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import diarkit.blas
import diarkit.clustering
import diarkit.pipeline
from diarkit.blas import blas_threads, loaded_openblas, one_blas_thread
from diarkit.pipeline import ConfigError, PipelineConfig, run_corpus


def _thread_counts() -> list[int]:
    counts = [lib.get_num_threads() for lib in loaded_openblas()]
    if not counts:
        pytest.skip("no OpenBLAS with a thread-count pair is loaded")
    return counts


def _output_bytes(out: Path) -> dict[str, bytes]:
    files = sorted((out / "hyp").glob("*.rttm")) + [out / "report.tsv", out / "report.txt"]
    return {str(path.relative_to(out)): path.read_bytes() for path in files}


def _force_two_threads(monkeypatch) -> None:
    monkeypatch.setattr(diarkit.pipeline, "one_blas_thread", lambda: blas_threads(2))


def test_blas_threads_holds_and_restores_in_order():
    before = _thread_counts()
    with one_blas_thread() as libraries:
        assert [lib.get_num_threads() for lib in libraries] == [1] * len(before)
        with blas_threads(2):
            assert [lib.get_num_threads() for lib in libraries] == [2] * len(before)
        assert [lib.get_num_threads() for lib in libraries] == [1] * len(before)
    assert _thread_counts() == before


def test_blas_threads_restores_when_the_body_raises():
    before = _thread_counts()
    with pytest.raises(RuntimeError, match="boom"):
        with one_blas_thread():
            raise RuntimeError("boom")
    assert _thread_counts() == before


def test_numpy_openblas_is_found():
    if np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name") != "scipy-openblas":
        pytest.skip("numpy is not built against the wheel's scipy-openblas")
    assert any(Path(lib.path).parent.name == "numpy.libs" for lib in loaded_openblas())


def test_run_corpus_outputs_do_not_depend_on_blas_threads(synthetic_corpus, tmp_path, monkeypatch):
    config = PipelineConfig.load(synthetic_corpus)
    run_corpus(config, tmp_path / "one")
    with monkeypatch.context() as patch:
        _force_two_threads(patch)
        run_corpus(config, tmp_path / "two")
    with monkeypatch.context() as patch:
        patch.setattr(diarkit.blas, "loaded_openblas", lambda: [])
        run_corpus(config, tmp_path / "none")
    one = _output_bytes(tmp_path / "one")
    assert len(one) == 5
    assert _output_bytes(tmp_path / "two") == one
    assert _output_bytes(tmp_path / "none") == one


def _broken_corpus(synthetic_corpus, root: Path) -> Path:
    shutil.copytree(synthetic_corpus.parent, root)
    (root / "embeddings" / "rec001.emb").write_bytes(b"garbage")
    return root / "config.yaml"


@pytest.mark.parametrize("case", ["ok", "recording_fails", "config_error"])
def test_run_corpus_gives_the_thread_count_back(case, synthetic_corpus, tmp_path):
    with blas_threads(2):  # a count run_corpus does not hold, set afresh for each case
        before = _thread_counts()
        if case == "config_error":
            with pytest.raises(ConfigError, match="no recordings"):
                run_corpus(PipelineConfig(), tmp_path / "run")
        else:
            path = synthetic_corpus
            if case == "recording_fails":
                path = _broken_corpus(synthetic_corpus, tmp_path / "broken")
            manifest = run_corpus(PipelineConfig.load(path), tmp_path / "run")
            failed = [e.recording_id for e in manifest.entries if e.status != "ok"]
            assert failed == (["rec001"] if case == "recording_fails" else [])
        assert _thread_counts() == before == [2] * len(before)


# ---------------------------------------------------------------------------
# work counts: the merge, solve, path-integral and VBx counts of a corpus run

# counts of the synthetic_corpus fixture (3 x 60 s, 2-4 speakers, seed 11) as
# measured when they were pinned; a change that lowers one lowers its pin
WORK_AT_MOST = {
    "plda+pic": {
        "components": 72,
        "merges": 63,
        "solves": 0,
        "path_integrals": 0,
        "vbx_iterations": 9,
    },
    "cosine+pic": {
        "components": 137,
        "merges": 128,
        "solves": 11,
        "path_integrals": 7,
        "vbx_iterations": 9,
    },
}


def _work_counts(config, out: Path, monkeypatch) -> Counter:
    """Run the corpus and count its work through thin wrappers at the call sites."""
    counts = Counter()
    pic_depth = [0]
    init_partition = diarkit.clustering.init_partition
    path_integral = diarkit.clustering.path_integral
    solve = np.linalg.solve
    pic_cluster = diarkit.pipeline.pic_cluster
    vbx_resegment = diarkit.pipeline.vbx_resegment

    def counted_init(*args, **kwargs):
        partition = init_partition(*args, **kwargs)
        counts["components"] += len(partition.clusters)
        return partition

    def counted_path_integral(*args, **kwargs):
        counts["path_integrals"] += 1
        return path_integral(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        counts["solves"] += pic_depth[0] > 0
        return solve(*args, **kwargs)

    def counted_pic(*args, **kwargs):
        before = counts["components"]
        pic_depth[0] += 1
        try:
            partition = pic_cluster(*args, **kwargs)
        finally:
            pic_depth[0] -= 1
        counts["merges"] += counts["components"] - before - len(partition.clusters)
        return partition

    def counted_vbx(*args, **kwargs):
        trace = kwargs.setdefault("elbo_trace", [])
        result = vbx_resegment(*args, **kwargs)
        counts["vbx_iterations"] += len(trace)
        return result

    with monkeypatch.context() as patch:
        patch.setattr(diarkit.clustering, "init_partition", counted_init)
        patch.setattr(diarkit.clustering, "path_integral", counted_path_integral)
        patch.setattr(np.linalg, "solve", counted_solve)
        patch.setattr(diarkit.pipeline, "pic_cluster", counted_pic)
        patch.setattr(diarkit.pipeline, "vbx_resegment", counted_vbx)
        manifest = run_corpus(config, out)
    assert len(manifest.succeeded()) == len(manifest.entries)
    return counts


def test_corpus_work_counts_are_bounded_and_thread_independent(
    synthetic_corpus, tmp_path, monkeypatch
):
    base = PipelineConfig.load(synthetic_corpus)
    cosine = dataclasses.replace(
        base,
        scoring=dataclasses.replace(base.scoring, kind="cosine"),
        clustering=dataclasses.replace(base.clustering, ahc_threshold=0.5),
    )
    for name, config in (("plda+pic", base), ("cosine+pic", cosine)):
        tag = name.replace("+", "_")
        one = _work_counts(config, tmp_path / f"{tag}_one", monkeypatch)
        with monkeypatch.context() as patch:
            _force_two_threads(patch)
            two = _work_counts(config, tmp_path / f"{tag}_two", monkeypatch)
        assert two == one, name
        # a count that stays 0 never enters the Counter, and reads 0 here
        assert set(one) <= set(WORK_AT_MOST[name]), name
        for key, bound in WORK_AT_MOST[name].items():
            assert one[key] <= bound, (name, key, one[key])
