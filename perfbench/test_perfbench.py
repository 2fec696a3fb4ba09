"""Self-tests of the benchmark: python3 -m unittest discover -s perfbench"""

import random
import shutil
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))

import estimator  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CATALOG = {
    "kernels": ["compute", "matmul"],
    "attacks": ["spectre-v1-cache", "smt-mshr"],
    "profiles": ["OoO", "Strict", "In-Order"],
}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def two_regime_run(rng, costs, seconds):
    """One simulated run on a host that is 1.6x slower 63% of the time,
    in stretches of 2-40 s. Returns (sum of best, sum of means)."""
    clock = FakeClock()
    slow_until = fast_until = 0.0
    slow = rng.random() < 0.63
    times = {u: [] for u in costs}

    def factor():
        nonlocal slow, slow_until, fast_until
        while clock.now >= (slow_until if slow else fast_until):
            slow = not slow
            stretch = rng.uniform(2, 40) * (0.63 if slow else 0.37) * 2
            if slow:
                slow_until = clock.now + stretch
            else:
                fast_until = clock.now + stretch
        return 1.6 if slow else 1.0

    def one_round(over):
        for unit, cost in costs.items():
            if over():
                return
            t = cost * factor() * rng.uniform(1.0, 1.02)
            clock.now += t + 0.003
            times[unit].append(t)

    estimator.run_rounds(one_round, seconds, clock=clock)
    return (estimator.sum_of_best(times),
            sum(statistics.mean(t) for t in times.values()))


class EstimatorTest(unittest.TestCase):
    def test_best_of_beats_mean_on_two_regime_host(self):
        rng = random.Random(7)
        costs = {f"u{i}": rng.uniform(0.03, 0.7) for i in range(16)}
        true = sum(costs.values())
        best, mean = zip(*(two_regime_run(rng, costs, 30)
                           for _ in range(40)))

        def iqr_share(v):
            q = statistics.quantiles(v, n=4)
            return (q[2] - q[0]) / statistics.median(v)

        self.assertLess(iqr_share(best), iqr_share(mean))
        # Best-of sits near the fast-regime cost; the mean does not.
        self.assertLess(abs(statistics.median(best) / true - 1), 0.15)
        self.assertGreater(statistics.median(mean) / true, 1.2)
        self.assertTrue(all(b >= true for b in best))

    def test_run_rounds_fills_the_run_and_runs_every_unit_once(self):
        clock = FakeClock()
        ran = []

        def one_round(over):
            for unit in range(4):
                if over():
                    return
                clock.now += 1.0
                ran.append(unit)

        self.assertEqual(estimator.run_rounds(one_round, 10, clock), 3)
        self.assertEqual(clock.now, 10.0)
        clock.now = 0.0
        ran.clear()
        # The first round always completes, however long it takes.
        self.assertEqual(estimator.run_rounds(one_round, 1, clock), 1)
        self.assertEqual(ran, [0, 1, 2, 3])

    def test_gate_waits_for_a_fast_reading(self):
        clock = FakeClock()
        readings = iter([100, 150, 140, 105] + [200] * 1000)

        def probe():
            clock.now += 0.01
            return next(readings)

        gate = estimator.FastStretchGate(probe, clock=clock)
        gate.wait()
        gate.wait()        # the fast reading is still fresh: no probe
        self.assertEqual(gate.waited, 0.01)
        clock.now += 10.0  # a unit runs
        gate.wait()        # 150 and 140 are slow; 105 is within 8%
        self.assertEqual(gate.best_ns, 100)
        self.assertAlmostEqual(gate.waited, 0.04)
        clock.now += 10.0
        gate.wait()        # the host stays slow: give up after max_wait
        self.assertGreaterEqual(gate.waited, 2.04 - 1e-9)
        self.assertLess(gate.waited, 2.06)


class FailedUnitTest(unittest.TestCase):
    def setUp(self):
        self.saved_spawn = run.spawn

    def tearDown(self):
        run.spawn = self.saved_spawn

    def test_failing_units_are_counted_not_dropped(self):
        wl = workloads.Security(CATALOG, 1, run.ROOT)

        def fake_spawn(args):
            if args[0] == "fuzz-seed":
                return None, "worker exited -6: fatal"
            # Every attack cell reports a timing leak the oracle denies.
            return {"unit_ns": 1000, "ready_ns": 0, "setup_ns": 10,
                    "heap_peak_bytes": 1, "cells": ["c"], "counts": {},
                    "out": {"timing_leak": "1", "dift_leak": "0",
                            "expect_blocked": "0"}}, None

        run.spawn = fake_spawn
        m = run.run_workload(wl, 0, False, None)
        tally = m["tally"]
        self.assertEqual(tally.attempted, len(wl.units))
        self.assertEqual(tally.failed, len(wl.units))
        attacks = sum(u.key.startswith("attack:") for u in wl.units)
        self.assertEqual(wl.events["attack_disagreements"], attacks)
        self.assertFalse(m["times"])

    def test_check_rejects_changed_cells(self):
        wl = workloads.SmokeGrid(CATALOG, 2, run.ROOT)
        unit = wl.units[0]
        ok = {"cells": ["a"], "out": {"csv_row": "x"}}
        self.assertIsNone(wl.check(unit, ok))
        self.assertIsNotNone(wl.check(unit, {"cells": ["b"], "out": {}}))


class TracedEqualsUntracedTest(unittest.TestCase):
    """Needs the worker; builds it on first use (about a minute)."""

    @classmethod
    def setUpClass(cls):
        run.build()
        cls.tmp = tempfile.mkdtemp(prefix="selftest-", dir=run.BUILD_DIR)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp, ignore_errors=True)

    def both(self, *args):
        results = []
        for trace in ("0", "1"):
            res, err = run.spawn([*map(str, args), trace])
            self.assertIsNone(err)
            results.append(res)
        self.assertTrue(results[0]["cells"])
        self.assertEqual(results[0]["cells"], results[1]["cells"])
        self.assertFalse(results[0]["spans"])
        self.assertEqual(results[1]["spans"][0][0], "unit")
        return results

    def test_grid_row(self):
        untraced, traced = self.both("grid-row", "compute", 1)
        self.assertEqual(untraced["out"], traced["out"])
        self.assertGreater(traced["counts"]["sim_insts"], 0)

    def test_fuzz_seed(self):
        self.both("fuzz-seed", 1)

    def test_attack_cell(self):
        untraced, traced = self.both("attack-cell", "spectre-v1-cache", 0,
                                     42)
        self.assertEqual(untraced["out"], traced["out"])

    def test_stride_request(self):
        built, err = run.spawn(["stride-build", "compute", "1", self.tmp,
                                "0"])
        self.assertIsNone(err)
        self.assertGreater(built["counts"]["ckpt_bytes"], 0)
        self.both("stride-request", "compute", 1, self.tmp)


if __name__ == "__main__":
    unittest.main()
