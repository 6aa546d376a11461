"""The benchmark's three workloads: their inputs, their operations and their checks.

An operation is one ``alternating_optimize`` call, which is one CSV row of
``ris-maxmin run``. It fails if it raises or if any check in ``checks`` fails
on its output. Every workload uses the scenario defaults of ``SystemConfig``
at m=12 antennas and n=24 RIS elements, and tol=1e-4.

A run first works through a fixed *set* of draws (rounds of trials for
``kgrid-batch``), whose size follows from ``--seconds`` and the nominal cost
of a draw on the reference machine in README.md: at that cost the set takes
60 % of the run. It then takes fresh draws of the same make-up until
``--seconds`` have passed. The quality figures and the traced counts come
from the set alone, so they repeat exactly for a seed and run length; the
times come from every draw. Every time is in seconds at the reference speed
of ``Speedometer``: the wall time of the work, scaled by how fast a fixed
probe ran just before and just after it.
"""

import csv
import math
import os
import statistics
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
from scipy.linalg import lapack

import ris_maxmin.alternating as alternating
import ris_maxmin.channel as channel
import ris_maxmin.harness as harness
from ris_maxmin.core import SystemConfig
from ris_maxmin.phase import QuantOptions

import checks

M, N, K = 12, 24, 6
TOL, MAX_SWEEPS = 1e-4, 30
SET_SHARE = 0.6     # of --seconds, at the nominal cost, that the set takes
REF_PROBE_S = 0.004  # the speed gauge's probe time at the reference speed


@dataclass
class Operation:
    """One alternating_optimize call as the benchmark saw it from outside."""

    method: str
    bits: int | None
    k: int
    seconds: float
    min_sinr: float
    problems: list
    first: bool        # in the set, and not a rerun: the quality figures use it


@dataclass
class RunResult:
    operations: list
    draws: int           # channel draws (trials) whose every planned method ran
    work_s: float        # time of the operations at the reference speed, without set-up and checks
    set_draws: int       # the draws of the set
    set_s: float         # the same for the set's first runs
    details: dict = field(default_factory=dict)


class Speedometer:
    """Pins the process to the fastest allowed CPU and gauges how fast it runs.

    On a shared host each virtual CPU can run up to 1.8 times slower for
    seconds at a time while the host shares its core, and the CPUs slow down
    independently of one another. The gauge is a fixed probe of about 4 ms
    that does not touch the library: a chain of 12x12 numpy products and
    tanh, and LAPACK Cholesky factorizations and solves of a 12x12 Hermitian
    system, called through ``scipy.linalg.lapack`` so that the tracer's count
    of ``cho_factor`` calls leaves it out. Probes run outside the clock.

    ``pick`` probes each allowed CPU (at most four) and pins the process to
    the fastest; ``probe`` gauges the CPU the process is on. ``scale`` turns
    a wall time into seconds at the reference speed, the speed at which the
    probe takes ``REF_PROBE_S``, using the mean of the probes taken just
    before and just after the timed work.
    """

    max_cpus = 4
    products, factorizations = 1000, 100

    def __init__(self):
        allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else set()
        self.allowed = set(allowed)
        self.cpus = sorted(allowed)[:self.max_cpus]
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((12, 12)) / 12.0
        z = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        self.hermitian = z @ z.conj().T + 12.0 * np.eye(12)
        self.rhs = np.ones((12, 1), dtype=complex)

    def probe(self) -> float:
        started = time.perf_counter()
        x = self.matrix
        for _ in range(self.products):
            x = np.tanh(x @ self.matrix)
        for _ in range(self.factorizations):
            factor, _ = lapack.zpotrf(self.hermitian, lower=1)
            lapack.zpotrs(factor, self.rhs, lower=1)
        return time.perf_counter() - started

    def pick(self) -> float:
        """Pin to the fastest CPU; return its probe time."""
        if len(self.cpus) < 2:
            return self.probe()
        timed = []
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            timed.append((self.probe(), cpu))
        fastest = min(timed)
        os.sched_setaffinity(0, {fastest[1]})
        return fastest[0]

    @staticmethod
    def scale(seconds: float, before: float, after: float) -> float:
        return seconds * REF_PROBE_S / (0.5 * (before + after))

    def release(self):
        if len(self.cpus) >= 2:
            os.sched_setaffinity(0, self.allowed)


def _options(method: str, bits):
    return QuantOptions(bits=bits) if method == "quant" else None


def _set_size(seconds: float, nominal_s: float) -> int:
    return max(1, int(SET_SHARE * seconds / nominal_s))


def _schedule(size: int, seconds: float, extend: bool, rerun_first: bool = False):
    """(rerun, index): the set, then fresh indices until ``seconds`` have passed.

    With ``rerun_first`` the first index runs twice before the others.
    """
    started = time.perf_counter()
    yield False, 0
    if rerun_first:
        yield True, 0
    index = 1
    while index < size or (extend and time.perf_counter() - started < seconds):
        yield False, index
        index += 1


class DrawWorkload:
    """k=6 draws, each running several methods on one shared channel.

    Set-up samples the set's channels. Each call to
    ``alternating_optimize`` is timed from outside and checked after the
    clock stops.
    """

    def __init__(self, name: str, methods: tuple, optimizer: str, nominal_draw_s: float,
                 max_sweeps: int = MAX_SWEEPS):
        self.name = name
        self.methods = methods          # (method, bits) in run order
        self.optimizer = optimizer
        self.nominal_draw_s = nominal_draw_s
        self.max_sweeps = max_sweeps

    def _draw(self, config, seed: int, index: int):
        chan_seq, *method_seqs = np.random.SeedSequence([seed, index]).spawn(1 + len(self.methods))
        return channel.sample_channel(config, np.random.default_rng(chan_seq)), method_seqs

    def setup(self, seed: int, seconds: float):
        config = SystemConfig(m=M, n=N, k=K)
        size = _set_size(seconds, self.nominal_draw_s)
        return config, seed, [self._draw(config, seed, index) for index in range(size)]

    def run(self, state, seconds: float, out_dir: Path, extend: bool = True) -> RunResult:
        config, seed, draws = state
        operations = []
        work = set_work = wall = 0.0
        probes = []
        gauge = Speedometer()
        for _, index in _schedule(len(draws), seconds, extend):
            in_set = index < len(draws)
            chan, method_seqs = draws[index] if in_set else self._draw(config, seed, index)
            before = gauge.pick()
            probes.append(before)
            draw_seconds = 0.0
            for (method, bits), seq in zip(self.methods, method_seqs):
                rng = np.random.default_rng(seq)
                started = time.perf_counter()
                try:
                    sol = alternating.alternating_optimize(
                        config, chan, method, rng, tol=TOL, max_sweeps=self.max_sweeps,
                        phase_options=_options(method, bits))
                except Exception as exc:  # a raising operation is a failed one
                    sol, problems = None, [f"raised {exc!r}"]
                elapsed = time.perf_counter() - started
                after = gauge.probe()
                probes.append(after)
                scaled = gauge.scale(elapsed, before, after)
                before = after
                wall += elapsed
                draw_seconds += scaled
                if sol is not None:
                    problems = checks.solution_problems(config, chan, method, bits,
                                                        self.max_sweeps, sol)
                operations.append(Operation(method, bits, K, scaled,
                                            math.nan if sol is None else sol.report.minimum,
                                            problems, in_set))
            work += draw_seconds
            set_work += draw_seconds if in_set else 0.0
        gauge.release()
        return RunResult(operations, index + 1, work, len(draws), set_work,
                         _speed_details(wall, work, probes))


class GridWorkload:
    """``run_experiment`` over k in {2, 4, 6} with quant B in {1, 2, 3} and
    random-baseline, writing its CSV: the batch path of ``ris-maxmin run``.

    Each round runs one plan of ``trials`` trials per k. Round 0's plan seed
    is the benchmark seed and later rounds derive theirs from it. Round 0
    runs twice, and the rerun must reproduce its CSV in every column but the
    wall time. The benchmark reads every solution the harness produces
    through a wrapper at ``ris_maxmin.harness.alternating_optimize``, which
    also times each call.
    """

    name = "kgrid-batch"
    optimizer = "quant"
    k_grid = (2, 4, 6)
    b_grid = (1, 2, 3)
    trials = 4
    nominal_round_s = 0.9

    def config_text(self, seed: int) -> str:
        return (f"m: {M}\nn: {N}\nk: {K}\ntrials: {self.trials}\nseed: {seed}\n"
                f"methods: quant, random-baseline\n"
                f"k_grid: {', '.join(map(str, self.k_grid))}\n"
                f"b_grid: {', '.join(map(str, self.b_grid))}\n"
                f"tol: {TOL}\nmax_sweeps: {MAX_SWEEPS}\n")

    def setup(self, seed: int, seconds: float):
        config, plan = harness.parse_config_text(self.config_text(seed))
        return config, plan, _set_size(seconds, self.nominal_round_s)

    @staticmethod
    def _round_plan(plan, index: int):
        if index == 0:
            return plan
        derived = np.random.SeedSequence([plan.seed, index]).generate_state(1, np.uint64)[0]
        return replace(plan, seed=int(derived >> 1))

    def planned_rows(self):
        """(k, trial, method, bits) of every CSV row of one round, in order."""
        return [(k, trial, method, bits)
                for k in self.k_grid for trial in range(self.trials)
                for method, bits in [("quant", b) for b in self.b_grid] + [("random-baseline", None)]]

    def run(self, state, seconds: float, out_dir: Path, extend: bool = True) -> RunResult:
        config, plan, size = state
        planned = self.planned_rows()
        csv_path = out_dir / f"{self.name}.csv"
        operations = []
        first_rows = {}
        fresh_ops = []      # first runs of rounds whose CSV came out
        work = set_work = wall = 0.0
        probes = []
        gauge = Speedometer()
        for rerun, index in _schedule(size, seconds, extend, rerun_first=True):
            before = gauge.pick()
            captured = []
            original = harness.alternating_optimize
            harness.alternating_optimize = _capturing(original, captured)
            started = time.perf_counter()
            try:
                harness.run_experiment(config, self._round_plan(plan, index), out_path=csv_path)
                error = None
            except Exception as exc:  # the round's operations all fail
                error = f"run_experiment raised {exc!r}"
            finally:
                elapsed = time.perf_counter() - started
                harness.alternating_optimize = original
            after = gauge.probe()
            probes += [before, after]
            # a round lasts about a second, so its calls share one speed reading
            factor = gauge.scale(1.0, before, after)
            wall += elapsed
            work += elapsed * factor
            set_work += elapsed * factor if index < size and not rerun else 0.0

            rows = _read_csv(csv_path) if error is None else []
            round_ops = []
            for position, (k, _, method, bits) in enumerate(planned):
                sol, seconds_taken = None, math.nan
                if error is not None:
                    problems = [error]
                elif len(rows) != len(planned) or len(captured) != len(planned):
                    problems = [f"CSV has {len(rows)} rows and the harness ran {len(captured)}; "
                                f"planned {len(planned)}"]
                elif rerun:
                    sol, seconds_taken = captured[position][2:]
                    seconds_taken *= factor
                    problems = []
                else:
                    sol_config, chan, sol, seconds_taken = captured[position]
                    seconds_taken *= factor
                    problems = checks.solution_problems(sol_config, chan, method, bits, MAX_SWEEPS, sol)
                    problems += checks.csv_row_problems(rows[position], (k, M, N, method, bits), sol,
                                                        checks.power_cap(sol_config))
                round_ops.append(Operation(method, bits, k, seconds_taken,
                                           math.nan if sol is None else sol.report.minimum,
                                           problems, index < size and not rerun))
            if rows and list(rows[0].keys()) != list(checks.CSV_COLUMNS):
                for op in round_ops:
                    op.problems.append("CSV header differs from the documented one")
            if not rerun:
                first_rows[index] = rows
                fresh_ops += round_ops if len(rows) == len(planned) else []
            else:
                for position, problem in checks.reproducibility_problems(
                        first_rows[index], rows).items():
                    round_ops[position].problems.append(problem)
            operations += round_ops

        gauge.release()
        # every draw has its own channel, shared by its methods
        complete = [index for index in sorted(first_rows) if len(first_rows[index]) == len(planned)]
        all_rows = [row for index in complete for row in first_rows[index]]
        trials = [(index, k, trial) for index in complete for k, trial, _, _ in planned]
        for position, problem in checks.trial_hash_problems(all_rows, trials).items():
            fresh_ops[position].problems.append(problem)
        per_round = len(self.k_grid) * self.trials
        return RunResult(operations, (len(first_rows) + 1) * per_round, work, size * per_round,
                         set_work, {"per_k": _per_k_means(operations),
                                    **_speed_details(wall, work, probes)})


def _speed_details(wall: float, work: float, probes: list) -> dict:
    """For the run's JSON: the unscaled time of the operations and the probes."""
    return {"work_wall_s": wall, "speed_factor": work / wall,
            "probe_s": {"median": statistics.median(probes), "min": min(probes),
                        "max": max(probes), "count": len(probes)}}


def _capturing(inner, captured: list):
    """Wrap alternating_optimize to keep each (config, channel, solution, seconds)."""
    def capture(config, chan, method, rng, **kwargs):
        started = time.perf_counter()
        sol = inner(config, chan, method, rng, **kwargs)
        captured.append((config, chan, sol, time.perf_counter() - started))
        return sol
    return capture


def _read_csv(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _per_k_means(operations) -> dict:
    """Arithmetic mean minimum SINR of the draw set per (k, method, bits)."""
    groups = {}
    for op in operations:
        if op.first and not op.problems:
            label = f"k{op.k}.{op.method}" + ("" if op.bits is None else f"-B{op.bits}")
            groups.setdefault(label, []).append(op.min_sinr)
    return {label: statistics.fmean(values) for label, values in sorted(groups.items())}


WORKLOADS = {
    "headline": DrawWorkload("headline", (("lse", None), ("quant", 3), ("random-baseline", None)),
                             "lse", nominal_draw_s=0.75),
    "headline-sdr": DrawWorkload("headline-sdr", (("sdr", None), ("random-baseline", None)),
                                 "sdr", nominal_draw_s=0.65, max_sweeps=2),
    "kgrid-batch": GridWorkload(),
}
