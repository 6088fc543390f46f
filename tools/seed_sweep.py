"""Run one perfbench workload over a range of seeds and compare output digests.

Usage (from the repository root)::

    python3 tools/seed_sweep.py --workload long_wideband --seeds 1-25
    python3 tools/seed_sweep.py --workload acceptance --seeds 1-8 --against ../other

For each seed, runs ``perfbench/run.py --workload W --seed s --seconds 0``
(one untraced pass) in this checkout and, with ``--against``, in the other
checkout, one process at a time.  Prints one line per seed: for each
checkout the exit code, the names of the output checks that failed, the
12-character digest of the synthesized inputs, and each config's
12-character output digest and DER; with ``--against``, the line ends with
whether all of those digests, inputs and outputs, are equal.  Exits 1 if any
run fails or any digest differs, else 0.  It reads only what perfbench
prints.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> range:
    """``A-B`` (inclusive) or a single seed ``A``."""
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def run_seed(checkout: Path, workload: str, seed: int) -> dict:
    """One perfbench run: exit code, failed check names, input digest, config -> (digest, DER)."""
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=1800)
    try:
        detail = json.loads(proc.stdout.strip().splitlines()[-2])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stderr)
        return {"exit": proc.returncode, "failed": ["no result"], "input": "none", "configs": {}}
    return {
        "exit": proc.returncode,
        "failed": [name for name, ok in detail["checks"].items() if not ok],
        "input": detail["input_digest"][:12],
        "configs": {
            name: (entry["output_digest"][:12], entry["der"])
            for name, entry in detail["configs"].items()
        },
    }


def describe(run: dict) -> str:
    configs = " ".join(f"{name} {digest} {der:.5f}" for name, (digest, der) in run["configs"].items())
    failed = ",".join(run["failed"]) or "none"
    return f"exit {run['exit']}, failed: {failed}, input {run['input']}, {configs}"


def compare(runs: list[dict]) -> tuple[bool, str]:
    """Whether every run passed and all give the same input and output
    digests, and the line's tail."""
    ok = all(run["exit"] == 0 and not run["failed"] for run in runs)
    if len(runs) == 1:
        return ok, ""
    digests = [
        (run["input"], {name: digest for name, (digest, _) in run["configs"].items()})
        for run in runs
    ]
    same = all(d == digests[0] for d in digests[1:])
    return ok and same, " | digests " + ("equal" if same else "DIFFER")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, type=parse_seeds, help="A-B, inclusive")
    ap.add_argument("--against", type=Path, help="another checkout to run and compare with")
    args = ap.parse_args(argv)

    checkouts = [ROOT] + ([args.against.resolve()] if args.against else [])
    status = 0
    for seed in args.seeds:
        runs = [run_seed(checkout, args.workload, seed) for checkout in checkouts]
        ok, tail = compare(runs)
        status |= not ok
        print(f"seed {seed}: " + " | ".join(describe(run) for run in runs) + tail, flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
