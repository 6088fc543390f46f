"""The scripts under tools/ run to completion on small inputs."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(not Path("/proc/self/statm").is_file(), reason="reads /proc/self/statm")
def test_stage_rss_reports_every_wideband_stage():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "stage_rss.py"), "--duration", "120"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("windows ")
    stages = [line.split()[0] for line in lines[2:]]
    for stage in ("score", "estimate", "standardize", "knn", "pic", "absorb", "vbx"):
        assert stage in stages, done.stdout
    for line in lines[2:]:
        assert float(line.split()[1]) > 0 and line.endswith(" n^2")


def test_seed_sweep_runs_one_seed_of_a_workload():
    done = subprocess.run(
        [
            sys.executable, str(ROOT / "tools" / "seed_sweep.py"),
            "--workload", "routed_short", "--seeds", "7-7",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    (line,) = done.stdout.splitlines()
    assert re.fullmatch(
        r"seed 7: exit 0, failed: none, input [0-9a-f]{12}, plda\+pic [0-9a-f]{12} 0\.\d{5}", line
    ), line


def _seed_sweep_module():
    spec = importlib.util.spec_from_file_location("seed_sweep", ROOT / "tools" / "seed_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_sweep_fails_on_a_failed_run_or_a_digest_difference():
    sweep = _seed_sweep_module()
    assert list(sweep.parse_seeds("3-5")) == [3, 4, 5] and list(sweep.parse_seeds("9")) == [9]
    run = {
        "exit": 0, "failed": [], "input": "9b1059eae2d5",
        "configs": {"plda+pic": ("0c4600159943", 0.09127)},
    }
    other = {**run, "configs": {"plda+pic": ("122915bd7e0f", 0.09127)}}
    other_inputs = {**run, "input": "75c2a45633a6"}
    failed = {**run, "exit": 1, "failed": ["der_under_ceiling"]}
    assert sweep.compare([run]) == (True, "")
    assert sweep.compare([run, dict(run)]) == (True, " | digests equal")
    assert sweep.compare([run, other]) == (False, " | digests DIFFER")
    assert sweep.compare([run, other_inputs]) == (False, " | digests DIFFER")
    assert sweep.compare([failed]) == (False, "")
    assert sweep.describe(failed) == (
        "exit 1, failed: der_under_ceiling, input 9b1059eae2d5, plda+pic 0c4600159943 0.09127"
    )


def test_length_sweep_runs_one_point():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "length_sweep.py"), "--lengths", "150"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    (line,) = done.stdout.splitlines()
    assert re.fullmatch(
        r"length 150: windows \d+, synthesis \d+\.\d{3} s, input [0-9a-f]{12}, "
        r"wall \d+\.\d\d s, peak \d+ MB, DER 0\.\d{4}, digest [0-9a-f]{12}",
        line,
    ), line


def test_length_sweep_fails_on_a_failed_run_or_a_digest_difference():
    spec = importlib.util.spec_from_file_location("length_sweep", ROOT / "tools" / "length_sweep.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    run = {
        "ok": True, "windows": 595, "synth_s": 0.004, "input": "5d1e0c27a0b9", "wall_s": 0.5,
        "peak_mb": 100.0, "der": 0.016, "digest": "2e6a246472ec",
    }
    slower = {**run, "wall_s": 0.55, "peak_mb": 90.0}
    other = {**run, "digest": "e2a078c93edf"}
    other_inputs = {**run, "input": "75c2a45633a6"}
    failed = {"ok": False}
    assert sweep.compare([run]) == (True, "")
    assert sweep.compare([slower, run]) == (True, " | wall x1.100, peak x0.900, digests equal")
    assert sweep.compare([run, other]) == (False, " | wall x1.000, peak x1.000, digests DIFFER")
    assert sweep.compare([run, other_inputs]) == (
        False, " | wall x1.000, peak x1.000, digests DIFFER"
    )
    assert sweep.compare([run, failed]) == (False, "")
    assert sweep.compare([failed]) == (False, "")
    assert sweep.describe(failed) == "FAILED"
    assert sweep.describe(run) == (
        "windows 595, synthesis 0.004 s, input 5d1e0c27a0b9, "
        "wall 0.50 s, peak 100 MB, DER 0.0160, digest 2e6a246472ec"
    )
