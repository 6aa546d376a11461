"""Batch experiment driver: config files, seeding, Monte Carlo trials over
method and dimension grids, and CSV emission.

Config files are flat UTF-8 ``key: value`` text; list values are
comma-separated and ``#`` starts a comment. Unknown keys are rejected, and
every parse or range error names the offending key and line. Within one
trial every method consumes the same channel realization (paired
comparison); per-trial seeds are derived from the base seed and the
grid/trial indices, so reruns of the same config produce byte-identical
CSVs apart from the wall-time column. A run builds one scenario
(SystemConfig) per grid point, once, before its first trial, and every
trial at that point runs on it.
"""

import csv
import hashlib
import io
import itertools
from contextlib import ExitStack
from dataclasses import MISSING, dataclass, fields, replace

import numpy as np

from .alternating import MAX_SWEEPS, METHODS, SWEEP_TOL, _check_sweep_settings, alternating_optimize
from .channel import dump_channel_text, sample_channel
from .core import SystemConfig, _check_count, db10
from .errors import ConfigurationError
from .phase import QUANT_MAX_BITS, QuantOptions


@dataclass(frozen=True)
class ExperimentPlan:
    """What to run: trial count, seeding, methods, and sweep grids."""

    trials: int
    seed: int
    methods: tuple = ("lse", "random-baseline")
    k_grid: tuple = ()
    m_grid: tuple = ()
    n_grid: tuple = ()
    b_grid: tuple = (3,)
    tol: float = SWEEP_TOL
    max_sweeps: int = MAX_SWEEPS

    def __post_init__(self):
        object.__setattr__(self, "trials", _check_count("trials", self.trials))
        # any sign: the seed only enters derive_trial_seed's mix
        object.__setattr__(self, "seed", _check_count("seed", self.seed, low=-np.inf))
        _check_sweep_settings(self.tol, self.max_sweeps)
        bad = [m for m in self.methods if m not in METHODS]
        if bad:
            raise ConfigurationError(f"unknown methods {bad}; expected a subset of {METHODS}")
        for key in ("methods", "k_grid", "m_grid", "n_grid", "b_grid"):
            values = getattr(self, key)
            if not values:
                raise ConfigurationError(f"{key} must not be empty")
            # a repeated method or depth would rerun one draw on one rng stream
            if key in ("methods", "b_grid") and len(set(values)) < len(values):
                raise ConfigurationError(f"{key} must not repeat an entry, got {values}")
            if key != "methods":
                high = QUANT_MAX_BITS if key == "b_grid" else None
                object.__setattr__(self, key, tuple(_check_count(f"{key} entries", v, high=high)
                                                    for v in values))


def _list_of(item):
    return lambda text: tuple(item(v.strip()) for v in text.split(","))


def _parse_point(text):
    point = _list_of(float)(text)
    if len(point) != 2:
        raise ValueError(f"expected exactly two entries, got {len(point)}")
    return point


# key -> (owner dataclass, field, parser), in dump_config's line order. A
# key's default is its field's default; a field without one makes it required.
CONFIG_KEYS = {
    "m": (SystemConfig, "m", int),
    "n": (SystemConfig, "n", int),
    "k": (SystemConfig, "k", int),
    "alpha": (SystemConfig, "alpha", float),
    "sigma2_w": (SystemConfig, "sigma2", float),
    "kappa": (SystemConfig, "kappa", float),
    "p_max_w": (SystemConfig, "p_max", float),
    "sar_ref": (SystemConfig, "sar_ref", _list_of(float)),
    "emf_max": (SystemConfig, "emf_max", _list_of(float)),
    "gain_bs_dbi": (SystemConfig, "gain_bs_dbi", float),
    "gain_ris_dbi": (SystemConfig, "gain_ris_dbi", float),
    "gain_user_dbi": (SystemConfig, "gain_user_dbi", float),
    "ris_position_m": (SystemConfig, "ris_position", _parse_point),
    "r_min_m": (SystemConfig, "r_min", float),
    "r_max_m": (SystemConfig, "r_max", float),
    "bandwidth_hz": (SystemConfig, "bandwidth_hz", float),
    "d_bs": (SystemConfig, "d_bs", float),
    "d_ris": (SystemConfig, "d_ris", float),
    "ris_corr_rho": (SystemConfig, "ris_corr_rho", float),
    "trials": (ExperimentPlan, "trials", int),
    "seed": (ExperimentPlan, "seed", int),
    "methods": (ExperimentPlan, "methods", _list_of(str)),
    "k_grid": (ExperimentPlan, "k_grid", _list_of(int)),
    "m_grid": (ExperimentPlan, "m_grid", _list_of(int)),
    "n_grid": (ExperimentPlan, "n_grid", _list_of(int)),
    "b_grid": (ExperimentPlan, "b_grid", _list_of(int)),
    "tol": (ExperimentPlan, "tol", float),
    "max_sweeps": (ExperimentPlan, "max_sweeps", int),
}


def _is_required(owner, name) -> bool:
    field = next(f for f in fields(owner) if f.name == name)
    return field.default is MISSING and field.default_factory is MISSING


def parse_config_text(text: str):
    """Parse config text into (SystemConfig, ExperimentPlan); strict keys."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key: value', got {line!r}")
        key, _, val = line.partition(":")
        key = key.strip()
        val = val.strip()
        if key not in CONFIG_KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigurationError(f"line {lineno}: duplicate key {key!r}")
        _, _, parser = CONFIG_KEYS[key]
        try:
            values[key] = parser(val)
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: bad value for {key!r}: {exc}") from exc

    missing = [key for key, (owner, name, _) in CONFIG_KEYS.items()
               if key not in values and _is_required(owner, name)]
    if missing:
        raise ConfigurationError(f"missing required keys: {', '.join(missing)}")

    def kwargs(cls):
        return {name: values[key] for key, (owner, name, _) in CONFIG_KEYS.items()
                if owner is cls and key in values}

    try:
        config = SystemConfig(**kwargs(SystemConfig))
    except ConfigurationError as exc:
        raise ConfigurationError(f"invalid scenario value: {exc}") from exc

    plan_kwargs = kwargs(ExperimentPlan)
    plan_kwargs.setdefault("k_grid", (config.k,))
    plan_kwargs.setdefault("m_grid", (config.m,))
    plan_kwargs.setdefault("n_grid", (config.n,))
    plan = ExperimentPlan(**plan_kwargs)
    _grid_scenarios(config, plan)
    return config, plan


def load_config(path):
    """Read and parse a config file; errors carry the key name and line."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_config_text(handle.read())


def _text(value, sep: str) -> str:
    """dump_config's and the CSV's text rule: floats to 17 significant digits,
    sequences joined by ``sep``, None empty, a flag 1 or 0, else str."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (tuple, list, np.ndarray)):
        return sep.join(_text(v, sep) for v in value)
    return str(value)


def dump_config(config: SystemConfig, plan: ExperimentPlan) -> str:
    """Serialize a (config, plan) pair; parsing the output reproduces it."""
    sources = {SystemConfig: config, ExperimentPlan: plan}
    return "".join(f"{key}: {_text(getattr(sources[owner], name), ', ')}\n"
                   for key, (owner, name, _) in CONFIG_KEYS.items())


@dataclass
class TrialRecord:
    """One CSV row: one method run on one channel realization."""

    seed: int
    k: int
    m: int
    n: int
    method: str
    bits: int | None
    min_sinr_linear: float
    min_sinr_db: float
    per_user_sinrs: tuple
    sweeps: int
    wall_time_seconds: float
    p_cap_used: tuple
    degenerate: bool
    channel_hash: str
    diagnostics: str

    def to_row(self) -> list:
        return [_text(getattr(self, column), ";") for column in CSV_COLUMNS]


CSV_COLUMNS = tuple(f.name for f in fields(TrialRecord))


def derive_trial_seed(base_seed: int, grid_index: int, trial_index: int) -> int:
    """Mix the base seed with the grid and trial indices into one 63-bit seed."""
    mixed = base_seed ^ (0x9E3779B97F4A7C15 * (grid_index + 1)
                         + 0xBF58476D1CE4E5B9 * (trial_index + 1))
    return mixed & (2 ** 63 - 1)


def _grid_scenarios(base: SystemConfig, plan: ExperimentPlan) -> list:
    """The scenario of every grid point, in plan order (k, then m, then n):
    ``base`` at that point's dimensions, with a per-user array that holds one
    value repeated rebroadcast to its k. ConfigurationError names the first
    point whose scenario cannot be built."""
    def rebroadcast(arr, k):
        if arr.shape == (k,):
            return arr
        if np.all(arr == arr.flat[0]):
            return float(arr.flat[0])
        raise ConfigurationError(
            f"per-user arrays of length {arr.size} cannot be rescaled to k={k}")

    scenarios = []
    for k, m, n in itertools.product(plan.k_grid, plan.m_grid, plan.n_grid):
        try:
            scenarios.append(replace(base, k=k, m=m, n=n, sar_ref=rebroadcast(base.sar_ref, k),
                                     emf_max=rebroadcast(base.emf_max, k)))
        except ConfigurationError as exc:
            raise ConfigurationError(f"grid point k={k}, m={m}, n={n}: {exc}") from exc
    return scenarios


def _channel_hash(chan) -> str:
    """The first 16 hex digits of the sha256 of dump_channel_text(chan)."""
    return hashlib.sha256(dump_channel_text(chan).encode("utf-8")).hexdigest()[:16]


def trial_channel(scenario: SystemConfig, plan: ExperimentPlan, grid_index: int,
                  trial_index: int):
    """The draw of trial ``trial_index`` at grid point ``grid_index``, whose
    scenario is ``scenario`` (for a one-point plan, the base config).

    Returns the scenario, the trial seed, the channel that every method of
    the trial shares, and one seed sequence per planned method.
    """
    trial_seed = derive_trial_seed(plan.seed, grid_index, trial_index)
    children = np.random.SeedSequence(trial_seed).spawn(1 + len(plan.methods))
    chan = sample_channel(scenario, np.random.default_rng(children[0]))
    return scenario, trial_seed, chan, dict(zip(plan.methods, children[1:]))


def run_trial(scenario: SystemConfig, plan: ExperimentPlan, grid_index: int,
              trial_index: int) -> list:
    """Run every planned method on one shared channel draw, the quantized
    method once per bit depth; returns one record per run."""
    _, trial_seed, chan, method_stream = trial_channel(scenario, plan, grid_index, trial_index)
    chash = _channel_hash(chan)
    records = []
    for method in plan.methods:
        for bits in plan.b_grid if method == "quant" else (None,):
            rng = np.random.default_rng(method_stream[method])
            solution = alternating_optimize(
                scenario, chan, method, rng, tol=plan.tol, max_sweeps=plan.max_sweeps,
                phase_options=None if bits is None else QuantOptions(bits=bits))
            minimum = solution.report.minimum
            records.append(TrialRecord(
                seed=trial_seed, k=scenario.k, m=scenario.m, n=scenario.n, method=method,
                bits=bits, min_sinr_linear=minimum, min_sinr_db=float(db10(minimum)),
                per_user_sinrs=tuple(solution.report.per_user), sweeps=solution.iterations,
                wall_time_seconds=solution.wall_time, p_cap_used=tuple(solution.p_cap),
                degenerate=solution.degenerate, channel_hash=chash,
                diagnostics="; ".join(solution.diagnostics)))
    return records


def run_experiment(config: SystemConfig, plan: ExperimentPlan, out_path=None,
                   workers: int = 1, progress=None) -> list:
    """Execute the full plan and optionally write the CSV.

    Rows come out sorted by grid point, trial, then planned method order, so
    the output does not depend on worker scheduling. A grid point whose
    scenario cannot be built fails the run before the CSV is opened. Each
    trial's rows are written and flushed as the trial finishes, so a run
    that raises partway leaves the rows of every trial before the failing
    one. ``workers`` is a whole number >= 1 (ConfigurationError before
    the CSV is opened otherwise); above 1 the trials run in that many
    processes. Returns the records.
    """
    _check_count("workers", workers)
    tasks = [(scenario, plan, gi, ti) for gi, scenario in enumerate(_grid_scenarios(config, plan))
             for ti in range(plan.trials)]

    records = []
    with ExitStack() as stack:
        handle = None
        if out_path is not None:
            handle = stack.enter_context(open(out_path, "w", encoding="utf-8", newline=""))
            handle.write(records_to_csv_text([]))
        if workers > 1:
            # deferred: the pool's modules (multiprocessing among them) cost
            # import time and memory that a serial run does not need
            from concurrent.futures import ProcessPoolExecutor

            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            batches = pool.map(run_trial, *zip(*tasks), chunksize=1)
        else:
            batches = map(run_trial, *zip(*tasks))
        # map and pool.map both yield in task order
        for done, batch in enumerate(batches, start=1):
            records.extend(batch)
            if handle is not None:
                handle.write(records_to_csv_text(batch, header=False))
                handle.flush()
            if progress:
                progress(done, len(tasks))
    return records


def records_to_csv_text(records, header: bool = True) -> str:
    """CSV text of the records, after the header row unless ``header`` is false."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    if header:
        writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(record.to_row())
    return buf.getvalue()
