"""Wall time, peak memory and output of one recording at several lengths.

Usage (from the repository root)::

    python3 tools/length_sweep.py --lengths 150,300,600,1200,2400,3600
    python3 tools/length_sweep.py --lengths 3600 --against ../other

For each length, writes one 4-speaker ``synthesize_corpus`` recording
(16-dim embeddings, separation 10, the default plda+pic config with VBx)
and diarizes it with ``run_corpus(workers=1)``, each point in its own
process so that the peak resident set (``ru_maxrss``) is that point's.
With ``--against``, the same point then runs on the other checkout's
``src/``.  Prints one line per length with, for each checkout, the
windows, the ``synthesize_corpus`` time and the 12-character digest of
every file it wrote (perfbench's ``tree_digest``), then ``run_corpus`` wall
time, peak RSS, DER and the 12-character output digest (perfbench's, of
``hyp/*.rttm`` and ``report.tsv``); with ``--against``, the line ends with
the wall and peak ratios (this checkout over the other) and whether both
digests, input and output, are equal.  Exits 1 if any run
fails or any digest differs.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LENGTHS = "150,300,600,1200,2400,3600"


def measure_point(checkout: Path, length: float, seed: int) -> dict:
    """Synthesize and diarize one recording with the checkout's ``diarkit``."""
    src = checkout / "src"
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import diarkit.pipeline as pipeline
    from diarkit.embeddings import read_embeddings
    from workloads import output_digest, tree_digest

    if not Path(pipeline.__file__).resolve().is_relative_to(src):
        raise ImportError(f"diarkit was not imported from {src}")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        start = time.perf_counter()
        config_path = pipeline.synthesize_corpus(
            root / "corpus", num_recordings=1, min_speakers=4, max_speakers=4,
            duration=length, seed=seed,
        )
        synth = time.perf_counter() - start
        inputs = tree_digest(root / "corpus")[:12]
        windows = sum(len(read_embeddings(p)) for p in (root / "corpus" / "embeddings").glob("*.emb"))
        config = pipeline.PipelineConfig.load(config_path)
        out = root / "out"
        start = time.perf_counter()
        manifest = pipeline.run_corpus(config, out, workers=1)
        wall = time.perf_counter() - start
        header, *rows = (line.split("\t") for line in (out / "report.tsv").read_text().splitlines())
        row = dict(zip(header, next(r for r in rows if r[0] == "ALL")))
        return {
            "ok": all(e.status == "ok" for e in manifest.entries),
            "windows": windows,
            "synth_s": synth,
            "input": inputs,
            "wall_s": wall,
            "peak_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "der": float(row["der"]),
            "digest": output_digest(out)[:12],
        }


def run_point(checkout: Path, length: float, seed: int) -> dict:
    """One point in a fresh process; ``{"ok": False}`` when it fails."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--point", str(length), "--seed", str(seed), "--checkout", str(checkout),
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=3600)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return {"ok": False}


def describe(run: dict) -> str:
    if not run["ok"]:
        return "FAILED"
    return (
        f"windows {run['windows']}, synthesis {run['synth_s']:.3f} s, input {run['input']}, "
        f"wall {run['wall_s']:.2f} s, peak {run['peak_mb']:.0f} MB, "
        f"DER {run['der']:.4f}, digest {run['digest']}"
    )


def compare(runs: list[dict]) -> tuple[bool, str]:
    """Whether every run passed and all give one input and one output digest,
    and the line's tail."""
    ok = all(run["ok"] for run in runs)
    if len(runs) == 1 or not ok:
        return ok, ""
    mine, other = runs
    same = (mine["input"], mine["digest"]) == (other["input"], other["digest"])
    return same, (
        f" | wall x{mine['wall_s'] / other['wall_s']:.3f}, peak x{mine['peak_mb'] / other['peak_mb']:.3f},"
        f" digests {'equal' if same else 'DIFFER'}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--lengths", default=LENGTHS, help="comma-separated seconds")
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--against", type=Path, help="another checkout to run and compare with")
    ap.add_argument("--point", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--checkout", type=Path, default=ROOT, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.point is not None:
        print(json.dumps(measure_point(args.checkout, args.point, args.seed)))
        return 0
    checkouts = [ROOT] + ([args.against.resolve()] if args.against else [])
    status = 0
    for length in (float(x) for x in args.lengths.split(",")):
        runs = [run_point(checkout, length, args.seed) for checkout in checkouts]
        ok, tail = compare(runs)
        status |= not ok
        print(f"length {length:g}: " + " | ".join(describe(run) for run in runs) + tail, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
