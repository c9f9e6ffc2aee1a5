#!/usr/bin/env python3
"""Self-tests of the benchmark's own code. Run from the repository root:

    python3 perfbench/test_perfbench.py

The C++ self-test (exporter round trip, self time on a synthetic span tree)
and the perturbation check need the benchmark built in .bench_build (any
`perfbench/run.py` invocation builds it); they are skipped otherwise.
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

BUILD = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


class MetricTable(unittest.TestCase):
    def setUp(self):
        self.spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_names_and_units_match_the_runner(self):
        e2e = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layers, run.PER_LAYER)
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_names_units_and_bounds_are_well_formed(self):
        names = [m["name"] for m in self.spec["end_to_end"] +
                 self.spec["per_layer"]] + [
                     w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for m in self.spec["end_to_end"] + self.spec["per_layer"]:
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("higher", "lower"))
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))

    def test_layer_metrics_cover_the_table(self):
        layers = {k: 1.0 for k in (
            "core.dropper.ms", "core.dropper.self_ms", "core.dropper.calls",
            "core.dropper.window_convs", "core.dropper.window_ms",
            "core.dropper.effective",
            "core.chain.convs", "core.chain.ms", "sched.mapper.ms",
            "sched.mapper.self_ms", "sched.mapper.calls",
            "sched.mapper.effective", "prob.shift_calls",
            "prob.direct_calls", "prob.fft_calls", "prob.bin_products",
            "prob.ms", "online.callbacks", "online.callback_self_ms",
            "root.self_ms", "workload.gen_ms")}
        got = run.layer_metrics(layers, overhead=1.5, unit_ms_sum=2.0,
                                efficiency=0.5, serve_io_ms=3.0)
        self.assertEqual(set(got), set(run.PER_LAYER))
        self.assertAlmostEqual(got["trace.overhead_pct"], 50.0)


class OutputChecks(unittest.TestCase):
    def bench(self, seed, perturb=False):
        return run.Bench(ROOT, BUILD, Path(tempfile.gettempdir()),
                         "fig8-grid", seed, 1.0, 4, perturb)

    def grid_ref(self, trials):
        return (run.REFS / f"fig8-grid.seed{run.REF_SEED}.trials{trials}"
                ".json").read_text()

    def test_reference_grids_pass_and_a_perturbed_one_fails(self):
        for trials in (run.FIG8_TRIALS, run.REF_FIG8_TRIALS):
            text = self.grid_ref(trials)
            ok = self.bench(run.REF_SEED)
            run.check_fig8(ok, text, None, trials=trials)
            self.assertEqual((ok.tally.attempted, ok.tally.failed), (1, 0))
            bad = self.bench(run.REF_SEED, perturb=True)
            run.check_fig8(bad, text, None, trials=trials)
            self.assertEqual(bad.tally.failed, 1)

    def test_perturbed_grid_stays_in_range_but_changes_its_cells(self):
        text = self.grid_ref(run.FIG8_TRIALS)
        other = self.bench(7, perturb=True)
        report = run.check_fig8(other, text, None)
        # Only the in-process cross-check of run_fig8 can catch it.
        self.assertEqual(other.tally.failed, 0)
        self.assertNotEqual(run.fig8_cells(report),
                            run.fig8_cells(json.loads(text)))

    def test_grid_must_repeat_itself(self):
        text = self.grid_ref(run.FIG8_TRIALS)
        other = self.bench(7)
        run.check_fig8(other, text, text.replace("0.3", "0.4", 1))
        self.assertEqual(other.tally.failed, 1)

    def test_perturbed_log_differs(self):
        log = "t=0 kind=assign task=0 machine=2\nt=0 kind=start task=0\n"
        self.assertNotEqual(run.perturbed(log), log)


@unittest.skipUnless((BUILD / "perfbench_plain").exists(),
                     "benchmark not built")
class Built(unittest.TestCase):
    def test_cpp_selftest(self):
        for binary in ("perfbench_plain", "perfbench_traced"):
            out = subprocess.run([str(BUILD / binary), "selftest"],
                                 capture_output=True, text=True)
            self.assertEqual(out.returncode, 0, out.stderr)
            self.assertTrue(json.loads(out.stdout)["selftest"])

    def test_measure_reads_the_child_peak_not_the_parent_rss(self):
        ballast = bytearray(64 << 20)
        for i in range(0, len(ballast), 4096):
            ballast[i] = 1
        with tempfile.TemporaryDirectory() as tmp:
            usage = Path(tmp) / "usage.json"
            out = subprocess.run(
                [str(BUILD / "perfbench_plain"), "measure",
                 f"--usage={usage}", "--", "/bin/true"],
                capture_output=True, text=True)
            self.assertEqual(out.returncode, 0, out.stderr)
            self.assertLess(json.loads(usage.read_text())["maxrss_kb"],
                            16 << 10)

    def test_perturbed_outputs_are_reported_failed_at_any_seed(self):
        # Seed 3 is not the reference seed: the cross-checks must catch it.
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                out = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload",
                     workload, "--seed", "3", "--seconds", "1",
                     "--perturb"],
                    cwd=ROOT, capture_output=True, text=True, timeout=170)
                self.assertEqual(out.returncode, 0, out.stderr)
                result = json.loads(out.stdout.splitlines()[-1])
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLess(result["metrics"]["ok_pct"]["value"], 100.0)


if __name__ == "__main__":
    unittest.main()
