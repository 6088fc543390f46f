"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 perfbench/selftest.py

They check that the generators give byte-identical inputs for one seed,
that the traced run produces the same output bytes as the untraced run (the
wrappers change nothing), that the traced counts repeat exactly, and that
every metric name is well formed and matches ``BENCHMARK.json``.  The traced
checks use reduced corpora of the same workloads so the suite stays quick.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

if run._import_program() is None:
    sys.exit(f"diarkit sources not found under {run.ROOT / 'src'}")

from tracer import COUNT_METRICS, PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, tree_digest  # noqa: E402

SEED = 7
SMALL = {
    "acceptance": dict(num_recordings=3, duration=120.0),
    "long_wideband": dict(num_recordings=1, duration=300.0),
    "routed_short": dict(num_recordings=8),
}
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SCRATCH = run.ROOT / ".perfbench" / "selftest"


def small(name: str):
    workload = WORKLOADS[name]
    return dataclasses.replace(workload, corpus={**workload.corpus, **SMALL[name]})


class GeneratorTests(unittest.TestCase):
    def tearDown(self):
        shutil.rmtree(SCRATCH.parent, ignore_errors=True)

    def test_same_seed_gives_identical_inputs(self):
        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                digests = []
                for copy in ("a", "b"):
                    root = SCRATCH / name / copy
                    workload.setup(root, SEED)
                    digests.append(tree_digest(root))
                self.assertEqual(digests[0], digests[1])
                other = SCRATCH / name / "other_seed"
                workload.setup(other, SEED + 1)
                self.assertNotEqual(digests[0], tree_digest(other))


class TracedRunTests(unittest.TestCase):
    def test_tracing_changes_no_output_and_counts_repeat(self):
        for name in WORKLOADS:
            with self.subTest(workload=name):
                workload = small(name)
                plain, plain_detail = run.run_workload(workload, SEED, 0, trace=False)
                traced = [run.run_workload(workload, SEED, 0, trace=True) for _ in range(2)]
                self.assertTrue(plain["correct"], plain_detail["checks"])
                for result, detail in traced:
                    self.assertTrue(result["correct"], detail["checks"])
                    self.assertEqual(
                        {c: v["output_digest"] for c, v in detail["configs"].items()},
                        {c: v["output_digest"] for c, v in plain_detail["configs"].items()},
                    )
                (first, _), (second, _) = traced
                for key in COUNT_METRICS:
                    self.assertEqual(first["metrics"][key], second["metrics"][key], key)
                self.assertGreater(first["metrics"]["clustering.pic_merge.solves"]["value"], 0)
                self.assertGreater(first["metrics"]["reseg.vbx.iterations"]["value"], 0)

    def test_ahc_config_does_no_pic_work(self):
        _, detail = run.run_workload(small("acceptance"), SEED, 0, trace=True)
        ahc = detail["layers_by_config"]["plda+ahc"]
        for key in ("clustering.pic_merge.busy_s", "clustering.pic_merge.solves",
                    "clustering.pic_merge.merges", "clustering.pic_merge.path_integrals"):
            self.assertEqual(ahc[key], 0, key)


class MetricNameTests(unittest.TestCase):
    def test_names_are_well_formed_and_match_the_manifest(self):
        manifest = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in manifest["per_layer"]}
        self.assertEqual(end_to_end, run.END_TO_END)
        self.assertEqual(per_layer, PER_LAYER_UNITS)
        self.assertEqual([w["name"] for w in manifest["workloads"]], list(run.WORKLOAD_NAMES))
        self.assertEqual(set(run.WORKLOAD_NAMES), set(WORKLOADS))
        for name in list(end_to_end) + list(per_layer):
            self.assertIsNotNone(NAME.fullmatch(name), name)


if __name__ == "__main__":
    unittest.main(verbosity=2)
