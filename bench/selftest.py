"""Self-tests of the benchmark at tiny sizes.

    python3 bench/selftest.py

Each oracle must accept the program's real output and reject the same
output with one count off by one.  The traced run's per-layer self times
must add up to the traced op time, and a traced function that no longer
exists must be reported missing without breaking the run.
"""

import copy
import json
import os
import shutil
import sys
import tempfile
import time
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[name] = "1"
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from weylcount import cli, lb_spectrum, semiclassical_count  # noqa: E402

TINY = {
    "axis-blocks": {"z_grid": [4.0, 6.0, 2], "c_grid": [3.0, 5.0, 3]},
    "dense-gram": {"grid": [3.0, 4.0, 2]},
    "fem-warm": {"grid": [1.0, 1.2, 2], "level": 2, "modes": 40,
                 "solver_seed": 7},
    "symbols": {"sample_seed": 3, "samples": 20},
}


def bump(observed, key, row=0, by=1):
    """A copy of a scan observation with one count off by ``by``."""
    changed = copy.deepcopy(observed)
    r, n_scalar, n_system, borderline = changed[key][row]
    changed[key][row] = (r, n_scalar + by, 2 * (n_scalar + by), borderline)
    return changed


class TinyRun:
    """Set-up, one op and the oracle of a workload in a scratch directory."""

    def __init__(self, name, tracer=None):
        self.workload = workloads.WORKLOADS[name]
        self.params = copy.deepcopy(TINY[name])
        os.makedirs(run.OUT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
        try:
            self.workload.setup(self.params, self.work)
            if tracer:
                tracer.install(0)
            began = time.perf_counter()
            try:
                outputs = [workloads.call_main(argv) for argv in
                           self.workload.ops(self.params, self.work)]
            finally:
                self.elapsed = time.perf_counter() - began
                if tracer:
                    tracer.uninstall()
            self.observed = self.workload.observe(self.params, self.work,
                                                  outputs)
            self.expected = self.workload.oracle(self.params, self.work)
        finally:
            shutil.rmtree(self.work, ignore_errors=True)

    def problems(self, observed=None):
        return self.workload.check(self.params, observed or self.observed,
                                   self.expected)


class OracleTest(unittest.TestCase):

    def test_cluster_enumeration_matches_criterion_1(self):
        counts = [workloads.cluster_count(2.0, r) for r in (5.0, 10.0, 20.0)]
        self.assertEqual(counts, [81, 289, 1225])

    def test_axis_blocks(self):
        tiny = TinyRun("axis-blocks")
        self.assertEqual(tiny.problems(), [])
        for key in ("z", "c"):
            for by in (1, -1):
                self.assertTrue(tiny.problems(bump(tiny.observed, key, 1, by)))
        # a count wrong for both fields alike fails the closed-form blocks
        shared = copy.deepcopy(tiny.expected)
        shared["z_inverted"][1] += 1
        self.assertTrue(tiny.workload.check(
            tiny.params, bump(tiny.observed, "z", 1), shared))

    def test_dense_gram(self):
        tiny = TinyRun("dense-gram")
        self.assertEqual(tiny.problems(), [])
        self.assertTrue(tiny.problems(bump(tiny.observed, "x", 0)))
        self.assertTrue(tiny.problems(bump(tiny.observed, "x", 1, -1)))
        shared = copy.deepcopy(tiny.expected)
        shared["z_blocks"][0] += 1
        self.assertTrue(tiny.workload.check(
            tiny.params, bump(tiny.observed, "x", 0), shared))

    def test_fem_warm(self):
        tiny = TinyRun("fem-warm")
        self.assertEqual(tiny.problems(), [])
        self.assertTrue(tiny.observed["hit"])
        self.assertIn(0, tiny.expected["allowance"])
        row = tiny.expected["allowance"].index(0)
        self.assertTrue(tiny.problems(bump(tiny.observed, "fem", row)))
        for row, slack in enumerate(tiny.expected["allowance"]):
            self.assertTrue(tiny.problems(
                bump(tiny.observed, "fem", row, slack + 1)))
        missed = dict(tiny.observed, hit=False)
        self.assertTrue(tiny.problems(missed))

    def test_symbols(self):
        tiny = TinyRun("symbols")
        self.assertEqual(tiny.problems(), [])
        off = copy.deepcopy(tiny.observed)
        off["documents"][0]["samples"] += 1
        self.assertTrue(tiny.problems(off))
        breach = copy.deepcopy(tiny.observed)
        breach["documents"][1]["residuals"]["rho-square"] = 1e-8
        self.assertTrue(tiny.problems(breach))
        dropped = copy.deepcopy(tiny.observed)
        del dropped["documents"][0]["residuals"]["chart-invariance"]
        self.assertTrue(tiny.problems(dropped))
        failed = dict(tiny.observed, codes=[0, 3])
        self.assertTrue(tiny.problems(failed))
        swapped = dict(tiny.observed,
                       documents=tiny.observed["documents"][::-1])
        self.assertTrue(tiny.problems(swapped))

    def test_missing_report_is_a_failure(self):
        tiny = TinyRun("dense-gram")
        self.assertTrue(tiny.problems(dict(tiny.observed, x=None)))
        self.assertTrue(tiny.problems(dict(tiny.observed,
                                           x=tiny.observed["x"][:1])))


class TracingTest(unittest.TestCase):

    def assert_additive(self, name):
        tracer = tracing.Tracer()
        tiny = TinyRun(name, tracer)
        self.assertEqual(tiny.problems(), [])
        values = tracing.layer_values(tracer.spans)[0]
        total = sum(values[metric] for metric in tracing.TIME_METRICS)
        self.assertAlmostEqual(total, values["_root_s"], delta=1e-9)
        self.assertLessEqual(values["_root_s"], tiny.elapsed)
        self.assertGreater(values["cli.self_s"], 0.0)
        return values

    def test_self_times_add_up_on_every_workload(self):
        scans = {"axis-blocks": 2 * (2 + 3), "dense-gram": 2 * 2,
                 "fem-warm": 2 * 2}
        for name in TINY:
            with self.subTest(workload=name):
                values = self.assert_additive(name)
                if name in scans:
                    self.assertEqual(values["semiclassical_count.calls"],
                                     scans[name])
                    self.assertGreater(values["semiclassical_count.recount_s"],
                                       0.0)
                else:
                    self.assertEqual(values["symbol_algebra.samples"], 40)

    def test_names_are_patched_where_they_are_looked_up(self):
        tracer = tracing.Tracer()
        sites = [(semiclassical_count, "axis_moment_blocks"),
                 (semiclassical_count, "_tabulate_sphere_modes"),
                 (cli, "build_operator"), (cli, "scan"),
                 (cli, "count_negative"), (lb_spectrum, "cache_load")]
        originals = [getattr(owner, name) for owner, name in sites]
        tracer.install(0)
        try:
            for (owner, name), original in zip(sites, originals):
                self.assertIsNot(getattr(owner, name), original)
                self.assertIs(getattr(owner, name).__wrapped__, original)
        finally:
            tracer.uninstall()
        for (owner, name), original in zip(sites, originals):
            self.assertIs(getattr(owner, name), original)
        self.assertEqual(tracer.missing_metrics(), [])

    def test_missing_function_is_reported_not_fatal(self):
        owners = [module for module in (lb_spectrum, semiclassical_count)
                  if "axis_moment_blocks" in module.__dict__]
        saved = [module.__dict__.pop("axis_moment_blocks")
                 for module in owners]
        try:
            tracer = tracing.Tracer()
            self.assertIn("lb_spectrum.moments_s", tracer.missing_metrics())
            self.assertEqual(TinyRun("symbols", tracer).problems(), [])
            summary = tracing.summarize(tracer.spans, [0])
            self.assertEqual(summary["lb_spectrum.moments_s"], 0.0)
        finally:
            for module, function in zip(owners, saved):
                module.axis_moment_blocks = function


class ManifestTest(unittest.TestCase):
    """The result line must carry every metric of BENCHMARK.json, by the
    same name and in the same unit, and no other."""

    def manifest(self, key):
        with open(os.path.join(ROOT, "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            entries = json.load(handle)[key]
        return {entry["name"]: entry["unit"] for entry in entries}

    @staticmethod
    def units(metrics):
        return {name: entry["unit"] for name, entry in metrics.items()}

    def test_end_to_end_metrics_match_the_manifest(self):
        metrics = run.end_to_end_metrics(1.0, 2.0, 3.0, 4.0)
        self.assertEqual(self.units(metrics), self.manifest("end_to_end"))

    def test_traced_metrics_match_the_manifest(self):
        tracer = tracing.Tracer()
        TinyRun("symbols", tracer)
        layers = tracing.summarize(tracer.spans, [0])
        metrics = run.traced_metrics(layers, 2.0, 1.0)
        self.assertEqual(self.units(metrics), self.manifest("per_layer"))
        for name, entry in metrics.items():
            self.assertGreaterEqual(entry["value"], 0.0, name)


class CalibrationTest(unittest.TestCase):

    def test_a_slower_host_gives_the_same_scaled_times(self):
        durations = [1.0, 2.0, 1.5, 1.0, 3.0, 2.5]
        calibration = [0.007, 0.008, 0.006, 0.007, 0.009, 0.007]
        slow = [2.0 * value for value in calibration]
        scaled = run.at_nominal_speed(durations, calibration)
        for fast, slowed in zip(scaled, run.at_nominal_speed(
                [2.0 * d for d in durations], slow)):
            self.assertAlmostEqual(fast, slowed)

    def test_each_op_is_scaled_by_its_own_neighbourhood(self):
        # the host halves its speed from op 5 on
        calibration = [0.007] * 5 + [0.014] * 10
        durations = [1.0] * 5 + [2.0] * 10
        scaled = run.at_nominal_speed(durations, calibration)
        self.assertEqual(scaled[:3] + scaled[-8:], [1.0] * 11)


class TailTest(unittest.TestCase):

    def test_tail_has_ten_samples_beyond(self):
        self.assertEqual(run.tail(list(range(10))), (9, "max"))
        self.assertEqual(run.tail(list(range(20))), (9, "p50"))
        self.assertEqual(run.tail(list(range(100, 0, -1))), (90, "p90"))


if __name__ == "__main__":
    unittest.main()
