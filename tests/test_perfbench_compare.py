#!/usr/bin/env python3
"""Exit codes of perfbench/compare.py, the judge of CI's perf-smoke job.

    python3 tests/test_perfbench_compare.py

perf-smoke fails the build on compare.py's exit status alone: 0 when no
end-to-end metric regressed, 1 on a regression beyond its bound in
BENCHMARK.json, 2 when the results cannot be compared. Each case writes
synthetic result files shaped like perfbench/run.py's into two temporary
directories (a parent and a change) and runs the repository's
compare.py on them.
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARE = ROOT / "perfbench" / "compare.py"
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
WORKLOADS = ("sim-hits", "sim-coherence", "study-sweep", "serve-mix")
SEEDS = range(1, 6)
HOST = {"nproc": 4, "cpu": "Test CPU @ 2.10GHz", "machine": "x86_64",
        "compiler": "c++ (GCC) 12.2.0", "build_type": "Release",
        "CCNUMA_TRACING": "ON", "CCNUMA_CHECK_MUTATE": "ON"}


def result(workload, seed, started, scale=None, host=None):
    """One trace-0 result as run.py writes it. Every metric reads about
    10 (seed-dependent by up to 4%, the same on both sides of a pair);
    `scale` multiplies chosen metrics."""
    scale = scale or {}
    metrics = {}
    for spec in END_TO_END:
        v = 10.0 * (1.0 + 0.01 * (seed % 5)) * scale.get(spec["name"], 1.0)
        metrics[spec["name"]] = {"value": v, "unit": spec["unit"]}
    return {"workload": workload, "seed": seed, "trace": 0, "seconds": 5,
            "started_unix": started, "ended_unix": started + 6,
            "fingerprint": dict(host or HOST, loadavg_at_start=0.5,
                                git_describe="abc1234",
                                source_sha256="0123456789abcdef"),
            "raw": {},
            "result": {"correct": True, "attempted": 48, "failed": 0,
                       "metrics": metrics}}


class CompareExitCodes(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.parent = Path(self.tmp.name) / "parent"
        self.change = Path(self.tmp.name) / "change"
        self.parent.mkdir()
        self.change.mkdir()

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, side, doc):
        stem = f"{doc['workload']}-seed{doc['seed']}-trace0"
        (side / f"{stem}.json").write_text(json.dumps(doc))

    def write_pairs(self, gap_s=7.0, scale=None, change_host=None):
        """Both sides of every workload x seed, the change's run started
        `gap_s` after the parent's."""
        t = 1.8e9
        for workload in WORKLOADS:
            for seed in SEEDS:
                self.write(self.parent, result(workload, seed, t))
                self.write(self.change, result(workload, seed, t + gap_s,
                                               scale, change_host))
                t += 2 * gap_s

    def compare(self):
        proc = subprocess.run(
            [sys.executable, str(COMPARE), str(self.parent), str(self.change)],
            capture_output=True, text=True)
        return proc.returncode, proc.stdout + proc.stderr

    def test_level_pairs_pass(self):
        self.write_pairs()
        code, out = self.compare()
        self.assertEqual(code, 0, out)
        self.assertNotIn("regression", out)
        self.assertIn("sim-hits: 5 pairs", out)

    def test_sim_throughput_40_percent_lower_fails(self):
        self.write_pairs(scale={"sim_mops_per_s": 0.6})
        code, out = self.compare()
        self.assertEqual(code, 1, out)
        line = next(l for l in out.splitlines()
                    if l.strip().startswith("sim_mops_per_s"))
        self.assertIn("regression", line)

    def test_differing_host_fingerprints_cannot_be_compared(self):
        self.write_pairs(change_host=dict(HOST, nproc=8))
        code, out = self.compare()
        self.assertEqual(code, 2, out)
        self.assertIn("host fingerprints differ", out)

    def test_pairs_started_over_300_s_apart_are_refused(self):
        self.write_pairs(gap_s=301.0, scale={"sim_mops_per_s": 0.6})
        code, out = self.compare()
        self.assertEqual(code, 2, out)
        self.assertIn("sim-hits seed 1: refused", out)
        self.assertIn("no pair of runs to compare", out)

    def test_refused_pairs_are_left_out_of_the_verdict(self):
        # Three of five sim-hits seeds read 40% slower but ran far from
        # their parents; judged on the two back-to-back pairs, the
        # change is level.
        self.write_pairs()
        for seed in (1, 2, 3):
            path = self.change / f"sim-hits-seed{seed}-trace0.json"
            doc = json.loads(path.read_text())
            doc["started_unix"] += 400
            doc["result"]["metrics"]["sim_mops_per_s"]["value"] *= 0.6
            self.write(self.change, doc)
        code, out = self.compare()
        self.assertEqual(code, 0, out)
        self.assertIn("sim-hits seed 3: refused", out)
        self.assertIn("sim-hits: 2 pairs", out)


if __name__ == "__main__":
    unittest.main(verbosity=2)
