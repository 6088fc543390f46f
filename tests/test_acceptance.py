"""Acceptance suite: one test per release criterion, one verdict line each.

Every test funnels its checks into a single pass/fail line through the
``acceptance_log`` fixture; the lines are echoed in the pytest terminal
summary.  Tolerances and instance counts are stated inline next to each
check.
"""

import dataclasses
import hashlib
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    brute_force_best_mapping,
    brute_force_pic_trace,
    conditional_truncated_path_sum,
    truncated_path_sum,
    truncation_tail_bound,
)

import diarkit.clustering
import diarkit.pipeline
from diarkit.annotations import Annotation, ScoringRegions, Segment, parse_rttm, write_rttm
from diarkit.clustering import (
    PICParams,
    Partition,
    affinity,
    build_knn_graph,
    conditional_path_integral,
    estimate_num_speakers,
    init_partition,
    path_integral,
    pic_merge_trace,
)
from diarkit.embeddings import EmbeddingSequence, read_embeddings, write_embeddings
from diarkit.metrics import der, optimal_mapping
from diarkit.pipeline import PipelineConfig, run_corpus, synthesize_corpus
from diarkit.reseg import PosteriorMatrix, VBxConfig, decode_posteriors, vbx_resegment
from diarkit.scoring import PLDAModel, SimilarityMatrix, score_plda_matrix


def verdict(log, num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {status} {name}: {detail}"
    log.append(line)
    print(line)
    assert ok, line


def random_plda_graph(rng, n, num_neighbors=None):
    raw = rng.normal(scale=3.0, size=(n, n))
    sim = SimilarityMatrix("rec", 0.5 * (raw + raw.T), kind="plda")
    k = num_neighbors if num_neighbors is not None else int(rng.integers(1, n))
    return build_knn_graph(sim, num_neighbors=k)


def blocked_graph(rng, n, num_blocks, boost=4.0, num_neighbors=3):
    """Symmetric scores with boosted within-block entries; every block has
    at least two vertices so the nearest-neighbor partition starts split."""
    sizes = np.full(num_blocks, 2)
    for _ in range(n - 2 * num_blocks):
        sizes[int(rng.integers(num_blocks))] += 1
    labels = np.repeat(np.arange(num_blocks), sizes)
    raw = rng.normal(size=(n, n))
    scores = 0.5 * (raw + raw.T)
    for b in range(num_blocks):
        idx = np.flatnonzero(labels == b)
        scores[np.ix_(idx, idx)] += boost
    np.fill_diagonal(scores, 0.0)
    sim = SimilarityMatrix("rec", scores, kind="plda")
    return build_knn_graph(sim, num_neighbors=num_neighbors)


def operating_point_graph(rng, num_neighbors=30):
    """About 100 to 140 vertices in three large blocks and one small one,
    for a K = 30 graph as the pipeline builds it.

    Each large block has more than K members, so its vertices keep all
    their neighbors at home; the small block's vertices rank the first large
    block next after each other, so every edge between those two blocks
    points out of the small one.
    """
    sizes = [int(rng.integers(32, 45)) for _ in range(3)] + [int(rng.integers(4, 8))]
    labels = np.repeat(np.arange(4), sizes)
    n = len(labels)
    raw = rng.normal(size=(n, n))
    scores = 0.5 * (raw + raw.T)
    boost = np.array(
        [
            [5.0, 0.0, 0.0, 3.0],
            [0.0, 5.0, 0.0, 0.0],
            [0.0, 0.0, 5.0, 0.0],
            [3.0, 0.0, 0.0, 7.0],
        ]
    )
    scores += boost[labels[:, None], labels[None, :]]
    np.fill_diagonal(scores, 0.0)
    sim = SimilarityMatrix("rec", scores, kind="plda")
    return build_knn_graph(sim, num_neighbors=num_neighbors)


def has_one_way_pair(graph) -> bool:
    """Whether two initial clusters are joined by edges in one direction only."""
    P = graph.transition.toarray()
    clusters = init_partition(graph).clusters
    return any(
        P[np.ix_(a, b)].any() and not P[np.ix_(b, a)].any()
        for a in clusters
        for b in clusters
        if a != b
    )


def corpus_der(out_dir: Path) -> float:
    rows = [line.split("\t") for line in (out_dir / "report.tsv").read_text().splitlines()]
    for row in rows[1:]:
        if row[0] == "ALL":
            return float(row[5])
    raise AssertionError(f"no ALL row in {out_dir / 'report.tsv'}")


def cosine_config(base: PipelineConfig) -> PipelineConfig:
    """Criterion 03's cosine+pic variant of a plda+pic config."""
    return dataclasses.replace(
        base,
        scoring=dataclasses.replace(base.scoring, kind="cosine"),
        clustering=dataclasses.replace(base.clustering, ahc_threshold=0.5),
    )


@pytest.fixture(scope="module")
def acceptance_corpus(tmp_path_factory):
    """Ten 5-minute recordings, 3 to 5 speakers, speaker means at ten times
    the within-speaker deviation, no overlap, oracle SAD."""
    root = tmp_path_factory.mktemp("acceptance_corpus")
    start = time.perf_counter()
    config_path = synthesize_corpus(
        root,
        num_recordings=10,
        min_speakers=3,
        max_speakers=5,
        duration=300.0,
        overlap_fraction=0.0,
        embedding_dim=16,
        separation=10.0,
        seed=101,
    )
    return config_path, time.perf_counter() - start


def test_criterion_01_path_integrals_match_enumeration(acceptance_log):
    """Path integrals agree with truncated walk sums on random graphs and
    full merge sequences agree with a quadratic recompute-everything
    reference, on small graphs and at the pipeline's damping and K, all
    inside a 60 second budget."""
    start = time.perf_counter()
    rng = np.random.default_rng(9001)

    graphs_checked = 0
    plain_checks = {0.1: 0, 0.5: 0, 0.9: 0}
    cond_checks = 0
    max_plain_err = 0.0
    max_cond_err = 0.0
    while graphs_checked < 200:
        n = int(rng.integers(2, 9))
        g = random_plda_graph(rng, n)
        used = False
        for z in (0.1, 0.5, 0.9):
            for _ in range(3):
                size = int(rng.integers(1, n + 1))
                members = sorted(rng.choice(n, size=size, replace=False).tolist())
                # the length-40 walk sum is only a valid oracle when its own
                # truncation error is far below the comparison tolerance
                if truncation_tail_bound(g.transition, members, z, 40) >= 1e-7:
                    continue
                expected = truncated_path_sum(g.transition, members, z, 40)
                got = path_integral(g, members, z)
                max_plain_err = max(max_plain_err, abs(got - expected))
                plain_checks[z] += 1
                used = True
                if size >= 2:
                    k = int(rng.integers(1, size))
                    part = sorted(rng.choice(members, size=k, replace=False).tolist())
                    bound = truncation_tail_bound(g.transition, members, z, 40)
                    if bound * (size / k) ** 2 < 1e-7:
                        exp_c = conditional_truncated_path_sum(
                            g.transition, part, members, z, 40
                        )
                        got_c = conditional_path_integral(g, part, members, z)
                        max_cond_err = max(max_cond_err, abs(got_c - exp_c))
                        cond_checks += 1
        if used:
            graphs_checked += 1

    trace_mismatches = 0
    merges_compared = 0
    for _ in range(30):
        n = int(rng.integers(6, 13))
        g = blocked_graph(rng, n, num_blocks=int(rng.integers(2, 4)))
        z = float(rng.choice([0.1, 0.5, 0.9]))
        params = PICParams(damping=z, target_clusters=1)
        part, trace = pic_merge_trace(g, params)
        ref_part, ref_trace = brute_force_pic_trace(g, 1, z)
        if trace != ref_trace or part.clusters != ref_part.clusters:
            trace_mismatches += 1
        merges_compared += len(ref_trace)

    # the pipeline's operating point, z = 0.01 and K = 30, where the merge
    # loop's walk-sum bounds rather than exact solves rule out most pairs
    operating_merges = 0
    one_way = 0
    params = PICParams(damping=0.01, target_clusters=1)
    for _ in range(3):
        g = operating_point_graph(rng)
        one_way += has_one_way_pair(g)
        part, trace = pic_merge_trace(g, params)
        ref_part, ref_trace = brute_force_pic_trace(g, 1, 0.01)
        if trace != ref_trace or part.clusters != ref_part.clusters:
            trace_mismatches += 1
        operating_merges += len(ref_trace)

    elapsed = time.perf_counter() - start
    ok = (
        graphs_checked >= 200
        and all(count >= 50 for count in plain_checks.values())
        and cond_checks >= 100
        and max_plain_err <= 1e-6
        and max_cond_err <= 1e-6
        and merges_compared >= 30
        and operating_merges >= 60
        and one_way == 3
        and trace_mismatches == 0
        and elapsed < 60.0
    )
    verdict(
        acceptance_log,
        1,
        "path integral vs enumeration",
        ok,
        f"{graphs_checked} graphs, plain err {max_plain_err:.2e}, "
        f"conditional err {max_cond_err:.2e} ({cond_checks} checks), "
        f"{merges_compared} merges + {operating_merges} at z=0.01 K=30 "
        f"({one_way} graphs with one-way cluster pairs), "
        f"{trace_mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_02_affinity_symmetry_and_disconnection(acceptance_log):
    """Affinity is exactly symmetric and vanishes across disconnected
    clusters (within 1e-12) on 100 random disconnected instances."""
    rng = np.random.default_rng(9002)

    asymmetries = 0
    sym_checks = 0
    for _ in range(50):
        n = int(rng.integers(4, 9))
        g = random_plda_graph(rng, n)
        for z in (0.1, 0.5, 0.9):
            perm = rng.permutation(n)
            split = int(rng.integers(1, n))
            a = sorted(perm[:split].tolist())
            b = sorted(perm[split:].tolist())
            if affinity(g, a, b, z) != affinity(g, b, a, z):
                asymmetries += 1
            sym_checks += 1

    max_disconnected = 0.0
    for _ in range(100):
        n1 = int(rng.integers(2, 6))
        n2 = int(rng.integers(2, 6))
        n = n1 + n2
        scores = np.full((n, n), -1e9)
        scores[:n1, :n1] = rng.normal(loc=2.0, size=(n1, n1))
        scores[n1:, n1:] = rng.normal(loc=2.0, size=(n2, n2))
        scores = 0.5 * (scores + scores.T)
        np.fill_diagonal(scores, 0.0)
        sim = SimilarityMatrix("rec", scores, kind="plda")
        g = build_knn_graph(sim, num_neighbors=int(rng.integers(1, min(n1, n2))))
        a = sorted(rng.choice(n1, size=int(rng.integers(1, n1 + 1)), replace=False).tolist())
        b = sorted(
            (n1 + rng.choice(n2, size=int(rng.integers(1, n2 + 1)), replace=False)).tolist()
        )
        z = float(rng.choice([0.1, 0.5, 0.9]))
        max_disconnected = max(max_disconnected, abs(affinity(g, a, b, z)))

    ok = asymmetries == 0 and sym_checks >= 150 and max_disconnected <= 1e-12
    verdict(
        acceptance_log,
        2,
        "affinity symmetry and disconnection",
        ok,
        f"{sym_checks} symmetry checks {asymmetries} violations, "
        f"disconnected max {max_disconnected:.2e}",
    )


# VBx iterations over criterion 03's three runs, as measured when pinned; a
# change that lowers the count lowers the pin
VBX_ITERATIONS_AT_MOST = 90


def test_criterion_03_synthetic_corpus_error_rates(
    acceptance_log, acceptance_corpus, tmp_path, monkeypatch
):
    """Corpus DER under 5% with cosine+PIC and PLDA+PIC, under 10% with the
    agglomerative baseline, all within a 30 second budget.  The same runs
    count VBx iterations."""
    config_path, synth_elapsed = acceptance_corpus
    base = PipelineConfig.load(config_path)
    cosine = cosine_config(base)
    ahc = dataclasses.replace(
        base, clustering=dataclasses.replace(base.clustering, method="ahc")
    )
    iterations = []  # one entry per vbx_resegment call; list.append is thread-safe
    vbx_resegment = diarkit.pipeline.vbx_resegment

    def counted_vbx(*args, **kwargs):
        trace = kwargs.setdefault("elbo_trace", [])
        result = vbx_resegment(*args, **kwargs)
        iterations.append(len(trace))
        return result

    monkeypatch.setattr(diarkit.pipeline, "vbx_resegment", counted_vbx)

    start = time.perf_counter()
    ders = {}
    seconds = {}
    for name, config in (("plda+pic", base), ("cosine+pic", cosine), ("plda+ahc", ahc)):
        out = tmp_path / name.replace("+", "_")
        config_start = time.perf_counter()
        manifest = run_corpus(config, out)
        assert len(manifest.succeeded()) == 10
        ders[name] = corpus_der(out)
        seconds[name] = time.perf_counter() - config_start
    elapsed = synth_elapsed + (time.perf_counter() - start)

    ok = (
        ders["plda+pic"] < 0.05
        and ders["cosine+pic"] < 0.05
        and ders["plda+ahc"] < 0.10
        and elapsed < 30.0
    )
    verdict(
        acceptance_log,
        3,
        "synthetic corpus error rates",
        ok,
        f"DER plda+pic {ders['plda+pic']:.4f}, cosine+pic {ders['cosine+pic']:.4f}, "
        f"plda+ahc {ders['plda+ahc']:.4f}, {elapsed:.1f}s "
        f"(synthesis {synth_elapsed:.1f}s, "
        + ", ".join(f"{name} {sec:.1f}s" for name, sec in seconds.items())
        + f"), {sum(iterations)} VBx iterations",
    )
    assert sum(iterations) <= VBX_ITERATIONS_AT_MOST, sum(iterations)


# sha256 of repr(trace) of every pic_merge_trace call, in run order, over
# plda+pic then cosine+pic on criterion 03's corpus
MERGE_TRACE_SHA256 = "2d061f9e95310c18f789b8d608b69332306469d85999ca31dc3cbe2a5a6e05be"
MERGE_TRACE_MERGES = 2520
# initial components of those merges, 620 plda+pic and 1979 cosine+pic: the
# merge state grows with them
MERGE_COMPONENTS = 2599
# work of those merges as measured when pinned: np.linalg.solve calls made
# inside pic_merge_trace and path_integral calls; a change that lowers one
# lowers its pin
MERGE_SOLVES_AT_MOST = 767
MERGE_PATH_INTEGRALS_AT_MOST = 504


def test_merge_trace_hash_on_the_acceptance_corpus(acceptance_corpus, tmp_path, monkeypatch):
    """The PIC merges of criterion 03's two PIC configs, pair by pair, match
    the pinned hash: a merge loop that picks another pair at any step of any
    recording changes it, even where the output files come out the same.
    The same runs count the initial components and the merges' solves and
    path integrals."""
    config_path, _ = acceptance_corpus
    base = PipelineConfig.load(config_path)
    digest = hashlib.sha256()
    merges = components = solves = path_integrals = 0
    merging = False
    solve = np.linalg.solve
    path_integral = diarkit.clustering.path_integral

    def counted_solve(*args, **kwargs):
        nonlocal solves
        solves += merging
        return solve(*args, **kwargs)

    def counted_path_integral(*args, **kwargs):
        nonlocal path_integrals
        path_integrals += 1
        return path_integral(*args, **kwargs)

    def hashed_pic_cluster(graph, params):
        nonlocal merges, components, merging
        components += len(init_partition(graph))
        merging = True
        try:
            partition, trace = pic_merge_trace(graph, params)
        finally:
            merging = False
        digest.update(repr(trace).encode())
        merges += len(trace)
        return partition

    monkeypatch.setattr(diarkit.pipeline, "pic_cluster", hashed_pic_cluster)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(diarkit.clustering, "path_integral", counted_path_integral)
    for name, config in (("plda_pic", base), ("cosine_pic", cosine_config(base))):
        manifest = run_corpus(config, tmp_path / name, workers=1)
        assert len(manifest.succeeded()) == 10, name
    assert merges == MERGE_TRACE_MERGES
    assert components == MERGE_COMPONENTS
    assert digest.hexdigest() == MERGE_TRACE_SHA256
    assert solves <= MERGE_SOLVES_AT_MOST, solves
    assert path_integrals <= MERGE_PATH_INTEGRALS_AT_MOST, path_integrals


def test_criterion_04_speaker_count_estimation(acceptance_log, acceptance_corpus):
    """The stop-threshold estimator recovers the true speaker count on at
    least 9 of the 10 corpus recordings, with the threshold placed between
    the labeled within/across score distributions."""
    config_path, _ = acceptance_corpus
    config = PipelineConfig.load(config_path)
    root = config_path.parent
    plda = PLDAModel.load(config.scoring.plda_model)
    refs = {a.recording_id: a for a in parse_rttm((root / "ref.rttm").read_text())}
    sads = {a.recording_id: a for a in parse_rttm((root / "sad.rttm").read_text())}

    hits = 0
    for rec in sorted(refs):
        seq = read_embeddings(root / "embeddings" / f"{rec}.emb")
        centers = seq.centers()
        keep = np.zeros(len(seq), dtype=bool)
        for seg in sads[rec].segments:
            keep |= (centers >= seg.onset) & (centers < seg.offset)
        sub = seq.subset(np.flatnonzero(keep))

        labels = []
        for t in sub.centers():
            speaker = None
            for seg in refs[rec].segments:
                if seg.onset <= t < seg.offset:
                    speaker = seg.speaker
                    break
            labels.append(speaker)
        labels = np.array(labels, dtype=object)

        sim = score_plda_matrix(sub.vectors, plda, energy_fraction=config.scoring.plda_energy_fraction)
        iu, ju = np.triu_indices(len(sub), k=1)
        known = (labels[iu] != None) & (labels[ju] != None)  # noqa: E711
        same = labels[iu[known]] == labels[ju[known]]
        pair_scores = sim.scores[iu[known], ju[known]]
        threshold = 0.5 * (pair_scores[same].mean() + pair_scores[~same].mean())

        if estimate_num_speakers(sim, threshold) == len(refs[rec].speakers()):
            hits += 1

    ok = hits >= 9
    verdict(
        acceptance_log,
        4,
        "speaker count estimation",
        ok,
        f"{hits}/10 recordings at the labeled-midpoint threshold",
    )


def test_criterion_05_vbx_two_state_chains(acceptance_log):
    """Fifty random two-state chains with loop probability 0.8: at least 95%
    of frames decoded correctly up to permutation, and the variational lower
    bound never decreases within any trial."""
    rng = np.random.default_rng(9005)
    config = VBxConfig(loop_probability=0.8, max_iterations=40, convergence_tolerance=1e-8)

    accuracies = []
    min_elbo_step = np.inf
    for _ in range(50):
        T, d = 120, 8
        means = np.zeros((2, d))
        means[0, 0] = 2.0
        means[1, 0] = -2.0
        states = np.empty(T, dtype=int)
        states[0] = rng.integers(2)
        for t in range(1, T):
            states[t] = states[t - 1] if rng.random() < 0.8 else 1 - states[t - 1]
        X = means[states] + rng.normal(size=(T, d))
        centered = means - means.mean(axis=0)
        plda = PLDAModel(
            mean=means.mean(axis=0), between=centered.T @ centered / 2.0, within=np.eye(d)
        )

        noisy = states.copy()
        flips = rng.random(T) < 0.15
        noisy[flips] = 1 - noisy[flips]
        if noisy.min() == noisy.max():
            noisy[0] = 1 - noisy[0]

        trace: list[float] = []
        part, _ = vbx_resegment(X, plda, Partition.from_labels(noisy), config, elbo_trace=trace)
        if len(trace) > 1:
            min_elbo_step = min(min_elbo_step, float(np.min(np.diff(trace))))
        if len(part.clusters) == 2:
            direct = float(np.mean(part.labels == states))
            accuracies.append(max(direct, 1.0 - direct))
        else:
            accuracies.append(0.0)

    mean_acc = float(np.mean(accuracies))
    ok = mean_acc >= 0.95 and min_elbo_step >= -1e-8
    verdict(
        acceptance_log,
        5,
        "two-state chain resegmentation",
        ok,
        f"mean accuracy {mean_acc:.4f} over 50 trials, "
        f"smallest lower-bound step {min_elbo_step:.2e}",
    )


def test_criterion_06_overlap_assignment_reduces_der(acceptance_log, tmp_path):
    """With 20% overlapped speech and oracle overlap regions, second-speaker
    assignment strictly lowers the corpus DER."""
    root = tmp_path / "overlap_corpus"
    config_path = synthesize_corpus(
        root,
        num_recordings=4,
        min_speakers=3,
        max_speakers=5,
        duration=120.0,
        overlap_fraction=0.2,
        embedding_dim=16,
        separation=10.0,
        seed=202,
    )
    config = PipelineConfig.load(config_path)
    assert config.overlap_regions is not None

    with_assign = tmp_path / "with_assign"
    without_assign = tmp_path / "without_assign"
    run_corpus(config, with_assign)
    run_corpus(dataclasses.replace(config, overlap_regions=None), without_assign)
    der_with = corpus_der(with_assign)
    der_without = corpus_der(without_assign)

    ok = der_with < der_without
    verdict(
        acceptance_log,
        6,
        "overlap assignment",
        ok,
        f"DER {der_without:.4f} without assignment, {der_with:.4f} with",
    )


def _hand_case(ref_segs, hyp_segs, expected_der, **kwargs):
    ref = Annotation("rec", tuple(Segment("rec", on, dur, spk) for on, dur, spk in ref_segs))
    hyp = Annotation("rec", tuple(Segment("rec", on, dur, spk) for on, dur, spk in hyp_segs))
    return ref, hyp, expected_der, kwargs


def test_criterion_07_metric_parity(acceptance_log):
    """DER/JER reproduce hand-computed values on constructed cases, are zero
    on self-comparison for 100 random annotations, and the speaker mapping
    matches permutation search up to 6 speakers."""
    cases = [
        # identical annotations
        _hand_case([(0, 5, "A"), (5, 5, "B")], [(0, 5, "A"), (5, 5, "B")], 0.0),
        # everything missed
        _hand_case([(0, 10, "A")], [], 1.0),
        # one second of confusion in ten: DER 0.1
        _hand_case([(0, 10, "A")], [(0, 9, "A"), (9, 1, "B")], 0.1),
        # two seconds of false alarm beyond the reference
        _hand_case([(0, 10, "A")], [(0, 12, "A")], 0.2),
        # overlapping reference counts each speaker: denominator 12, miss 2
        _hand_case([(0, 10, "A"), (4, 2, "B")], [(0, 10, "A")], 2.0 / 12.0),
        # same instance with overlap regions excluded from scoring
        _hand_case([(0, 10, "A"), (4, 2, "B")], [(0, 10, "A")], 0.0, score_overlap=False),
        # 0.2 s boundary errors forgiven by a 0.25 s collar
        _hand_case([(0, 10, "A")], [(0.2, 9.6, "A")], 0.0, collar=0.25),
        # same boundary errors scored without a collar
        _hand_case([(0, 10, "A")], [(0.2, 9.6, "A")], 0.4 / 10.0),
        # swapped labels cost nothing under the optimal mapping
        _hand_case(
            [(0, 5, "A"), (5, 5, "B")], [(0, 5, "spk2"), (5, 5, "spk1")], 0.0
        ),
        # scoring regions hide the missing tail
        _hand_case(
            [(0, 10, "A")],
            [(0, 8, "A")],
            0.0,
            regions=ScoringRegions("rec", ((0.0, 8.0),)),
        ),
        # a split hypothesis confuses a quarter of the speech
        _hand_case([(0, 8, "A")], [(0, 6, "A"), (6, 2, "B")], 2.0 / 8.0),
    ]
    max_case_err = 0.0
    for ref, hyp, expected, kwargs in cases:
        report = der(ref, hyp, **kwargs)
        max_case_err = max(max_case_err, abs(report.der - expected))

    rng = np.random.default_rng(9007)
    max_self = 0.0
    for _ in range(100):
        segs = []
        cursor = 0.0
        for _ in range(int(rng.integers(1, 8))):
            cursor += round(float(rng.uniform(0.0, 2.0)), 2)
            dur = round(float(rng.uniform(0.5, 4.0)), 2)
            segs.append(Segment("rec", cursor, dur, f"spk{int(rng.integers(4))}"))
            cursor += dur
        ann = Annotation("rec", tuple(segs))
        report = der(ann, ann)
        max_self = max(max_self, abs(report.der), abs(report.jer))

    mapping_mismatches = 0
    for _ in range(20):
        n_ref, n_hyp = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        frame = 0.01

        def random_turns(count, tag):
            segs, cursor = [], 0.0
            for _ in range(int(rng.integers(3, 9))):
                cursor += round(float(rng.uniform(0, 1)), 2)
                dur = round(float(rng.uniform(0.2, 2.0)), 2)
                segs.append(Segment("rec", cursor, dur, f"{tag}{int(rng.integers(count))}"))
                cursor += dur
            return Annotation("rec", tuple(segs))

        ref = random_turns(n_ref, "r")
        hyp = random_turns(n_hyp, "h")
        mapping = optimal_mapping(ref, hyp)

        def frames(ann):
            table = {}
            for seg in ann.segments:
                lo = int(np.floor(seg.onset / frame + 0.5))
                hi = int(np.floor(seg.offset / frame + 0.5))
                table.setdefault(seg.speaker, set()).update(range(lo, hi))
            return table

        ref_frames, hyp_frames = frames(ref), frames(hyp)
        ref_names = sorted(ref_frames)
        hyp_names = sorted(hyp_frames)
        shared = np.zeros((len(ref_names), len(hyp_names)))
        for i, r in enumerate(ref_names):
            for j, h in enumerate(hyp_names):
                shared[i, j] = len(ref_frames[r] & hyp_frames[h])
        got = sum(
            len(ref_frames[r] & hyp_frames[h]) for r, h in mapping if h in hyp_frames
        )
        if abs(got - brute_force_best_mapping(shared)) > 1e-9:
            mapping_mismatches += 1

    ok = max_case_err <= 1e-9 and max_self <= 1e-12 and mapping_mismatches == 0
    verdict(
        acceptance_log,
        7,
        "metric parity",
        ok,
        f"{len(cases)} hand cases max err {max_case_err:.2e}, "
        f"self-score max {max_self:.2e}, mapping mismatches {mapping_mismatches}",
    )


def test_criterion_08_posterior_decoding_rules(acceptance_log):
    """Thresholding, the max-posterior fallback, SAD masking and subsample
    invariance behave exactly as specified on constructed fixtures."""
    failures = []

    def spans(ann):
        return {(s.speaker, round(s.onset, 6), round(s.offset, 6)) for s in ann.segments}

    # thresholded decoding with exact block boundaries
    block = np.array([[0.9, 0.1]])
    matrix = np.vstack(
        [
            np.repeat(block, 10, axis=0),
            np.repeat(block[:, ::-1], 10, axis=0),
            np.repeat(block, 10, axis=0),
            np.repeat(block[:, ::-1], 10, axis=0),
        ]
    )
    post = PosteriorMatrix("rec", matrix, frame_shift=0.01, subsample_factor=10)
    sad = Annotation("rec", (Segment("rec", 0.0, 4.0, "speech"),))
    got = spans(decode_posteriors(post, threshold=0.5, sad=sad, median_window=1))
    want = {
        ("spk0", 0.0, 1.0),
        ("spk1", 1.0, 2.0),
        ("spk0", 2.0, 3.0),
        ("spk1", 3.0, 4.0),
    }
    if got != want:
        failures.append(f"threshold: {got}")

    # rows below threshold fall back to the maximum posterior
    weak = PosteriorMatrix(
        "rec", np.tile([[0.4, 0.3]], (10, 1)), frame_shift=0.01, subsample_factor=10
    )
    sad1 = Annotation("rec", (Segment("rec", 0.0, 1.0, "speech"),))
    got = spans(decode_posteriors(weak, threshold=0.5, sad=sad1, median_window=1))
    if got != {("spk0", 0.0, 1.0)}:
        failures.append(f"fallback: {got}")

    # SAD masks confident frames outside speech
    loud = PosteriorMatrix(
        "rec", np.tile([[0.9, 0.1]], (40, 1)), frame_shift=0.01, subsample_factor=10
    )
    gated = Annotation("rec", (Segment("rec", 1.0, 1.0, "speech"),))
    got = spans(decode_posteriors(loud, threshold=0.5, sad=gated, median_window=1))
    if got != {("spk0", 1.0, 2.0)}:
        failures.append(f"sad mask: {got}")

    # identical output from subsample factors 10 and 5 on constant posteriors
    sad6 = Annotation("rec", (Segment("rec", 0.0, 6.0, "speech"),))
    const10 = PosteriorMatrix(
        "rec", np.tile([[0.8, 0.2]], (6, 1)), frame_shift=0.1, subsample_factor=10
    )
    const5 = PosteriorMatrix(
        "rec", np.tile([[0.8, 0.2]], (12, 1)), frame_shift=0.1, subsample_factor=5
    )
    got10 = spans(decode_posteriors(const10, threshold=0.5, sad=sad6, median_window=1))
    got5 = spans(decode_posteriors(const5, threshold=0.5, sad=sad6, median_window=1))
    if got10 != got5 or got10 != {("spk0", 0.0, 6.0)}:
        failures.append(f"subsample: factor 10 {got10}, factor 5 {got5}")

    ok = not failures
    verdict(
        acceptance_log,
        8,
        "posterior decoding rules",
        ok,
        "threshold, fallback, SAD mask and subsample fixtures exact"
        if ok
        else "; ".join(failures),
    )


def test_criterion_09_determinism_across_workers(acceptance_log, acceptance_corpus, tmp_path):
    """Reruns with the same config and seed but different worker counts give
    byte-identical hypothesis RTTMs and reports (manifest carries timings
    and is excluded)."""
    config_path, _ = acceptance_corpus
    config = PipelineConfig.load(config_path)

    outputs = []
    for name, workers in (("w1", 1), ("w1_again", 1), ("w2", 2), ("w4", 4)):
        out = tmp_path / name
        manifest = run_corpus(config, out, workers=workers)
        assert len(manifest.succeeded()) == 10
        outputs.append(out)

    baseline = outputs[0]
    recordings = sorted(p.name for p in (baseline / "hyp").glob("*.rttm"))
    mismatches = []
    for other in outputs[1:]:
        for name in recordings:
            if (baseline / "hyp" / name).read_bytes() != (other / "hyp" / name).read_bytes():
                mismatches.append(f"{other.name}/{name}")
        for report_name in ("report.txt", "report.tsv"):
            if (baseline / report_name).read_bytes() != (other / report_name).read_bytes():
                mismatches.append(f"{other.name}/{report_name}")

    ok = len(recordings) == 10 and not mismatches
    verdict(
        acceptance_log,
        9,
        "worker-count determinism",
        ok,
        f"10 recordings x {len(outputs)} runs byte-identical"
        if ok
        else f"mismatches: {mismatches}",
    )


def test_criterion_10_format_round_trips(acceptance_log, tmp_path):
    """RTTM and embedding-container round-trips are bit-exact on 1000 random
    instances each (values picked on the formats' native grids)."""
    rng = np.random.default_rng(9010)

    rttm_failures = 0
    for _ in range(1000):
        segs = []
        for _ in range(int(rng.integers(1, 7))):
            onset = int(rng.integers(0, 3_000_000)) / 1000.0
            dur = int(rng.integers(1, 600_000)) / 1000.0
            spk = f"speaker_{int(rng.integers(50))}"
            segs.append(Segment("rec_a.b-c", onset, dur, spk))
        ann = Annotation("rec_a.b-c", tuple(segs))
        parsed = parse_rttm(write_rttm(ann))
        if len(parsed) != 1 or parsed[0] != ann:
            rttm_failures += 1

    emb_failures = 0
    path = tmp_path / "roundtrip.emb"
    for _ in range(1000):
        count = int(rng.integers(1, 12))
        dim = int(rng.integers(1, 24))
        vectors = rng.normal(size=(count, dim)).astype(np.float32)
        size = float(int(rng.integers(1, 8))) * 0.25
        shift = size / float(int(rng.integers(1, 4)))
        duration = size + (count - 1) * shift
        seq = EmbeddingSequence("rec", vectors, size, shift, duration)
        write_embeddings(path, seq)
        back = read_embeddings(path)
        same = (
            back.recording_id == seq.recording_id
            and back.window_size == seq.window_size
            and back.window_shift == seq.window_shift
            and back.recording_duration == seq.recording_duration
            and back.vectors.dtype == np.float32
            and np.array_equal(back.vectors, seq.vectors)
            and np.array_equal(back.windows, seq.windows)
        )
        if not same:
            emb_failures += 1

    ok = rttm_failures == 0 and emb_failures == 0
    verdict(
        acceptance_log,
        10,
        "format round-trips",
        ok,
        f"1000 RTTM ({rttm_failures} failures) and 1000 embedding container "
        f"({emb_failures} failures) instances",
    )
