"""The scripts under tools/ run to completion on small inputs."""

import os
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
