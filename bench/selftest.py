"""Self-tests of the benchmark's checks: each one passes real output and
rejects a tampered copy.

    python3 bench/selftest.py

Kept out of the repository's pytest suite on purpose (the file name does not
match ``test_*.py``); it runs in a few seconds on a small scenario.
"""

import copy
import csv
import io
import math
import sys
import unittest
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import ris_maxmin as rm  # noqa: E402

import checks  # noqa: E402

MAX_SWEEPS = 30


def _solve(config, chan, method, bits=None, seed=3):
    options = rm.QuantOptions(bits=bits) if method == "quant" else None
    return rm.alternating_optimize(config, chan, method, np.random.default_rng(seed),
                                   max_sweeps=MAX_SWEEPS, phase_options=options)


class SolutionChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.config = rm.SystemConfig(m=6, n=8, k=3)
        cls.chan = rm.sample_channel(cls.config, np.random.default_rng(11))
        cls.solutions = {method: _solve(cls.config, cls.chan, method, bits)
                         for method, bits in (("lse", None), ("quant", 2), ("random-baseline", None))}

    def problems(self, method, sol, bits=None):
        bits = 2 if method == "quant" and bits is None else bits
        return checks.solution_problems(self.config, self.chan, method, bits, MAX_SWEEPS, sol)

    def test_real_solutions_pass(self):
        for method, sol in self.solutions.items():
            self.assertEqual(self.problems(method, sol), [], method)

    def test_power_above_cap_is_rejected(self):
        sol = self.solutions["random-baseline"]
        cap = checks.power_cap(self.config)
        tampered = replace(sol, power=rm.PowerAllocation(cap * 1.5))
        self.assertTrue(any("outside [0, cap" in p for p in self.problems("random-baseline", tampered)))

    def test_off_grid_quant_phase_is_rejected(self):
        sol = self.solutions["quant"]
        tampered = replace(sol, phase=rm.PhaseVector(sol.phase.theta + 0.1, sol.phase.alpha))
        self.assertTrue(any("off the 4-level grid" in p for p in self.problems("quant", tampered)))
        # the 2-bit grid lies on the 3-bit one, but not the other way round
        self.assertEqual(self.problems("quant", sol, bits=3), [])

    def test_changed_minimum_is_rejected(self):
        sol = self.solutions["lse"]
        report = copy.copy(sol.report)
        object.__setattr__(report, "minimum", report.minimum * 1.01)
        tampered = replace(sol, report=report)
        self.assertTrue(any("reported minimum" in p for p in self.problems("lse", tampered)))

    def test_changed_sinr_is_rejected(self):
        sol = self.solutions["quant"]
        report = rm.SinrReport.from_per_user(sol.report.per_user * 1.001, sol.report.stage_trace)
        problems = self.problems("quant", replace(sol, report=report))
        self.assertTrue(any("reported SINRs" in p for p in problems))

    def test_falling_trace_is_rejected(self):
        sol = self.solutions["quant"]
        trace = list(sol.report.stage_trace)
        trace[1] = (trace[1][0], trace[0][1] * 0.5)
        report = rm.SinrReport.from_per_user(sol.report.per_user, trace)
        problems = self.problems("quant", replace(sol, report=report))
        self.assertIn("stage trace decreases", problems)

    def test_sweeps_beyond_the_limit_are_rejected(self):
        sol = self.solutions["random-baseline"]
        problems = checks.trace_problems(sol.report.stage_trace, "random-baseline",
                                         sol.iterations, sol.iterations - 1, sol.report.minimum)
        self.assertTrue(any(p.startswith("sweeps") for p in problems))

    def test_baseline_off_its_fixed_combiner_optimum_is_rejected(self):
        sol = self.solutions["random-baseline"]
        low = rm.PowerAllocation(sol.power.p * np.array([1.0, 0.5, 1.0]))
        per_user = rm.sinr_per_user(self.chan, sol.phase, low, sol.bf, self.config.sigma2).per_user
        trace = sol.report.stage_trace[:-1] + (("power", float(per_user.min())),)
        report = rm.SinrReport.from_per_user(per_user, trace)
        problems = self.problems("random-baseline", replace(sol, power=low, report=report))
        self.assertTrue(any("fixed-combiner optimum" in p for p in problems))


class PerronFormula(unittest.TestCase):
    def test_matches_the_bisection_on_random_gain_tables(self):
        rng = np.random.default_rng(5)
        worst = 0.0
        for _ in range(200):
            k = int(rng.integers(2, 7))
            f = rng.exponential(size=(k, k)) * np.where(np.eye(k, dtype=bool), 10.0, 1.0)
            noise = rng.uniform(0.01, 1.0, size=k)
            cap = rng.uniform(0.1, 1.0, size=k)
            tau = rm.max_min_power(rm.GainTable(f=f, n=noise), cap).tau
            worst = max(worst, abs(tau / checks.fixed_combiner_max_min(f, noise, cap) - 1.0))
        self.assertLess(worst, 1e-7)


class CsvChecks(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.config = rm.SystemConfig(m=6, n=8, k=2)
        plan = rm.ExperimentPlan(trials=2, seed=9, methods=("quant", "random-baseline"),
                                 k_grid=(2,), m_grid=(6,), n_grid=(8,), b_grid=(1,))
        records = rm.run_experiment(cls.config, plan)
        text = rm.harness.records_to_csv_text(records)
        cls.rows = list(csv.DictReader(io.StringIO(text)))
        cls.cap = checks.power_cap(cls.config)
        cls.planned = [(2, 6, 8, "quant", 1), (2, 6, 8, "random-baseline", None)] * 2

    def row_problems(self, rows):
        return [checks.csv_row_problems(row, planned, None, self.cap)
                for row, planned in zip(rows, self.planned)]

    def test_real_rows_pass(self):
        self.assertEqual(self.row_problems(self.rows), [[]] * 4)
        self.assertEqual(checks.trial_hash_problems(self.rows, [0, 0, 1, 1]), {})
        self.assertEqual(checks.reproducibility_problems(self.rows, self.rows), {})

    def test_changed_minimum_is_rejected(self):
        rows = copy.deepcopy(self.rows)
        rows[0]["min_sinr_linear"] = repr(float(rows[0]["min_sinr_linear"]) * 1.01)
        problems = self.row_problems(rows)[0]
        self.assertIn("min_sinr_linear is not the minimum of per_user_sinrs", problems)

    def test_wrong_cap_or_order_is_rejected(self):
        rows = copy.deepcopy(self.rows)
        rows[1]["p_cap_used"] = "0.5;0.5"
        self.assertTrue(any("p_cap_used" in p for p in self.row_problems(rows)[1]))
        self.assertTrue(any("out of order" in p for p in self.row_problems(rows[1:])[0]))

    def test_unpaired_or_shared_hash_is_rejected(self):
        rows = copy.deepcopy(self.rows)
        rows[1]["channel_hash"] = "0" * 16
        self.assertIn(1, checks.trial_hash_problems(rows, [0, 0, 1, 1]))
        rows = copy.deepcopy(self.rows)
        for row in rows[2:]:
            row["channel_hash"] = rows[0]["channel_hash"]
        self.assertEqual(sorted(checks.trial_hash_problems(rows, [0, 0, 1, 1])), [0, 1, 2, 3])

    def test_rerun_may_differ_only_in_wall_time(self):
        rows = copy.deepcopy(self.rows)
        rows[2]["wall_time_seconds"] = "1"
        self.assertEqual(checks.reproducibility_problems(self.rows, rows), {})
        rows[3]["sweeps"] = str(int(rows[3]["sweeps"]) + 1)
        self.assertEqual(list(checks.reproducibility_problems(self.rows, rows)), [3])

    def test_db_column_is_checked(self):
        rows = copy.deepcopy(self.rows)
        rows[0]["min_sinr_db"] = repr(10 * math.log10(float(rows[0]["min_sinr_linear"])) + 0.01)
        self.assertIn("min_sinr_db is not 10*log10(min_sinr_linear)", self.row_problems(rows)[0])


if __name__ == "__main__":
    unittest.main()
