"""Corpus diarization benchmark for diarkit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload acceptance --seed 101 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

One run builds the workload's inputs from the seed (several times, to time
set-up and to check that generation is deterministic), then diarizes the
corpus with ``run_corpus(workers=1)`` in repeated passes until the timed
passes add up to ``--seconds``, at least once.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` installs the per-layer wrappers of
``tracer.py`` and reports the per-layer metrics instead.  Every pass is
checked: all recordings must succeed, each config's corpus DER must stay
under the workload's ceiling, and every pass must produce the same output
bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a JSON record of the details (input properties, per-config DER/JER and
output digests, warnings by category, BLAS environment, per-pass samples).
``--workload all`` runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from collections import Counter
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("acceptance", "long_wideband", "routed_short")

# name -> unit; the order is the order of BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "audio_x": "x",
    "peak_rss_mb": "MB",
    "der": "ratio",
    "jer": "ratio",
}


def _import_program():
    """Import diarkit from this checkout's ``src/``; None when it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import diarkit
    except ImportError:
        return None
    if not Path(diarkit.__file__).resolve().is_relative_to(src):
        return None
    return diarkit


def _blas_environment() -> dict:
    import numpy as np

    env = {
        var: os.environ.get(var, "unset")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env.update(
        cpu_count=os.cpu_count(),
        numpy=np.__version__,
        blas=f"{blas.get('name')} {blas.get('version')}",
    )
    return env


def _corpus_scores(out: Path) -> tuple[float, float]:
    """DER and JER of the ``ALL`` row of ``report.tsv``.

    DER is recomputed from the row's error seconds, which the report keeps
    exact to the 10 ms frame, so it carries all its digits.
    """
    header, *rows = (line.split("\t") for line in (out / "report.tsv").read_text().splitlines())
    row = dict(zip(header, next(r for r in rows if r[0] == "ALL")))
    errors = float(row["miss"]) + float(row["fa"]) + float(row["conf"])
    return errors / float(row["scored"]), float(row["jer"])


def _discard(path: Path) -> None:
    """Delete a directory tree and flush the file system before going on.

    Deleting thousands of files leaves journal and discard work that would
    otherwise land inside the next timed section, or the next run.
    """
    shutil.rmtree(path, ignore_errors=True)
    os.sync()


def _run_pass(configs, out_root: Path, tracer, warning_log: list) -> dict:
    from diarkit.pipeline import run_corpus
    from tracer import COUNT_METRICS
    from workloads import output_digest

    result = {"configs": {}, "warnings": Counter()}
    first_warning = len(warning_log)
    for name, config in configs.items():
        out = out_root / name.replace("+", "_")
        gc.collect()
        counts_before = Counter(tracer.counts) if tracer else None
        first_span = len(tracer.spans) if tracer else 0
        start = time.perf_counter()
        if tracer:
            manifest = tracer.run_span("pipeline.run_corpus", run_corpus, config, out, workers=1)
        else:
            manifest = run_corpus(config, out, workers=1)
        elapsed = time.perf_counter() - start
        der, jer = _corpus_scores(out)
        entry = {
            "wall_s": elapsed,
            "recordings": len(manifest.entries),
            "failed": sum(1 for e in manifest.entries if e.status != "ok"),
            "der": der,
            "jer": jer,
            "digest": output_digest(out),
        }
        if tracer:
            layers = tracer.layer_metrics(first_span)
            counts = Counter(tracer.counts)
            counts.subtract(counts_before)
            layers.update({key: counts[key] for key in COUNT_METRICS})
            entry["layers"] = layers
        result["configs"][name] = entry
        _discard(out)
    for w in warning_log[first_warning:]:
        result["warnings"][w.category.__name__] += 1
    result["wall_s"] = sum(c["wall_s"] for c in result["configs"].values())
    return result


def run_workload(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one ``workloads.Workload``; return (result line, detail record)."""
    from diarkit.pipeline import PipelineConfig
    from tracer import COUNT_METRICS, PER_LAYER_UNITS, Tracer
    from workloads import input_properties, make_config, tree_digest

    work = ROOT / ".perfbench" / f"{workload.name}-{seed}-{os.getpid()}"
    os.sync()
    try:
        setup_times, input_digests = [], []
        for k in range(SETUP_REPEATS):
            inputs = work / f"inputs{k}"
            start = time.perf_counter()
            config_path = workload.setup(inputs, seed)
            setup_times.append(time.perf_counter() - start)
            input_digests.append(tree_digest(inputs))
            if k < SETUP_REPEATS - 1:
                _discard(inputs)
        os.sync()
        base = PipelineConfig.load(config_path)
        configs = {c: make_config(base, c) for c in workload.configs}
        properties = input_properties(inputs, seed)

        passes = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            tracer = Tracer(caught) if trace else None
            with tracer or nullcontext():
                while not passes or sum(p["wall_s"] for p in passes) < seconds:
                    passes.append(_run_pass(configs, work / f"pass{len(passes)}", tracer, caught))
    finally:
        _discard(work)
        try:
            (ROOT / ".perfbench").rmdir()
        except OSError:
            pass

    first = passes[0]["configs"]
    checks = {
        "inputs_deterministic": len(set(input_digests)) == 1,
        "all_recordings_ok": all(c["failed"] == 0 for p in passes for c in p["configs"].values()),
        "der_under_ceiling": all(
            first[c]["der"] <= workload.der_ceiling[c] for c in workload.configs
        ),
        "outputs_repeat": all(
            p["configs"][c]["digest"] == first[c]["digest"] for p in passes for c in workload.configs
        ),
        "warnings_repeat": all(p["warnings"] == passes[0]["warnings"] for p in passes),
    }
    wall_samples = [p["wall_s"] for p in passes]
    wall_s = statistics.median(wall_samples)
    if trace:
        layer_totals = [
            {
                key: sum(c["layers"][key] for c in p["configs"].values())
                for key in PER_LAYER_UNITS
            }
            for p in passes
        ]
        checks["counts_repeat"] = all(
            t[key] == layer_totals[0][key] for t in layer_totals for key in COUNT_METRICS
        )
        metrics = {
            key: {
                "value": layer_totals[0][key]
                if key in COUNT_METRICS
                else statistics.median(t[key] for t in layer_totals),
                "unit": unit,
            }
            for key, unit in PER_LAYER_UNITS.items()
        }
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall_s,
            "audio_x": properties["audio_s"] * len(configs) / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "der": max(first[c]["der"] for c in workload.configs),
            "jer": max(first[c]["jer"] for c in workload.configs),
        }
        metrics = {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END.items()}

    attempted = sum(c["recordings"] for p in passes for c in p["configs"].values())
    failed = sum(c["failed"] for p in passes for c in p["configs"].values())
    result = {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": workload.name,
        "why": workload.why,
        "trace": int(trace),
        "inputs": properties,
        "input_digest": input_digests[0],
        "checks": checks,
        "der_ceiling": workload.der_ceiling,
        "passes": len(passes),
        "setup_s_samples": setup_times,
        "wall_s_samples": wall_samples,
        "configs": {
            c: {
                "wall_s_samples": [p["configs"][c]["wall_s"] for p in passes],
                "der": first[c]["der"],
                "jer": first[c]["jer"],
                "output_digest": first[c]["digest"],
            }
            for c in workload.configs
        },
        "warnings": dict(passes[0]["warnings"]),
        "blas": _blas_environment(),
    }
    if trace:
        detail["traced_wall_s"] = wall_s
        detail["layers_by_config"] = {c: first[c]["layers"] for c in workload.configs}
    return result, detail


def run_all(args) -> int:
    """Every workload in a fresh process; print each metric with its unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: run failed with exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        verdict = "ok" if result["correct"] else "OUTPUT CHECK FAILED"
        print(f"{name}: {verdict}, {result['failed']} of {result['attempted']} recording runs failed")
        for metric, entry in result["metrics"].items():
            value = entry["value"]
            shown = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"  {metric:40s} {shown:>14} {entry['unit']}")
        if not result["correct"]:
            print(f"  checks: {json.loads(lines[-2])['checks']}")
            status = 1
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if _import_program() is None:
        print(f"diarkit sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    result, detail = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
