"""Self-tests of the SoC benchmark.

    python3 -m unittest discover -s socbench/tests -v

Builds the benchmark through run.py, then drives the binary with one-second
runs. A run always completes one pass over its tests, so the soc_rtl runs
take 10 to 40 seconds each.
"""
import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def bench(workload, trace=0, seed=1, expect=None):
    """One short run of the binary; returns (record, result) as dicts."""
    cmd = [str(run.BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace),
           "--expect", str(expect or BENCH_DIR / "expect.json")]
    out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-2])["socbench"], json.loads(lines[-1])


class SocBenchTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("socbench build failed")

    def test_every_benchmark_json_name_is_emitted(self):
        for workload in run.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    _, result = bench(workload, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    want = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    if trace == 0:
                        self.assertEqual(result["metrics"]["test_pass_frac"]["value"], 1)

    def test_wrong_expectation_fails_the_run(self):
        expect = json.loads((BENCH_DIR / "expect.json").read_text())
        expect["fast"]["vecmul"]["cycles"] += 1
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "expect.json"
            path.write_text(json.dumps(expect))
            record, result = bench("soc_fast", expect=path)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLess(result["metrics"]["test_pass_frac"]["value"], 1)
        self.assertTrue(any("vecmul" in f for f in record["failures"]))

    def test_seed_changes_order_not_simulated_stats(self):
        for workload in ("soc_fast", "soc_rtl"):
            with self.subTest(workload=workload):
                a, _ = bench(workload, seed=1)
                b, _ = bench(workload, seed=2)
                self.assertNotEqual(a["order"], b["order"])
                self.assertEqual(a["tests"], b["tests"])

    def test_unknown_workload_is_a_usage_error(self):
        for cmd in ([sys.executable, str(BENCH_DIR / "run.py")],
                    [str(run.BINARY)]):
            with self.subTest(cmd=cmd[-1]):
                p = subprocess.run(cmd + ["--workload", "nope", "--seed", "1",
                                          "--seconds", "1", "--trace", "0"],
                                   capture_output=True, text=True)
                self.assertEqual(p.returncode, 2)
                self.assertEqual(p.stdout, "")
                self.assertIn("usage", p.stderr.lower())


if __name__ == "__main__":
    unittest.main()
