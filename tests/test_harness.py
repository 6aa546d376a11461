import csv
import hashlib
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import ris_maxmin
from ris_maxmin import (ConfigurationError, ExperimentPlan, alternating, harness,
                        run_experiment)
from ris_maxmin.channel import dump_channel_text
from ris_maxmin.harness import (CONFIG_KEYS, CSV_COLUMNS, derive_trial_seed,
                                dump_config, load_config, parse_config_text,
                                records_to_csv_text)

from conftest import run_fresh
from oracles import serial_quantized_heuristic_phase

MINIMAL = """
m: 4
n: 6
k: 2
trials: 2
seed: 7
"""

SMALL_PLAN = """
m: 3
n: 4
k: 2
alpha: 1.0
trials: 2
seed: 11
methods: quant, random-baseline
k_grid: 2
b_grid: 1, 2
max_sweeps: 4
"""

ALL_KEYS = """m: 5
n: 8
k: 3
alpha: 0.75
sigma2_w: 9.0949470177292824e-13
kappa: 2.5
p_max_w: 0.25
sar_ref: 0.0078125, 0.00390625, 0.015625
emf_max: 0.001953125, 0.001953125, 0.001953125
gain_bs_dbi: 3.5
gain_ris_dbi: 1.5
gain_user_dbi: -2.5
ris_position_m: 1.5, -0.5
r_min_m: 5
r_max_m: 40
bandwidth_hz: 20000000
d_bs: 0.25
d_ris: 0.375
ris_corr_rho: 0.5
trials: 3
seed: 99
methods: sdr, quant
k_grid: 3
m_grid: 5, 6
n_grid: 8, 16
b_grid: 1, 2
tol: 0.0001220703125
max_sweeps: 12
"""


def test_minimal_config_defaults():
    config, plan = parse_config_text(MINIMAL)
    assert config.p_max == 0.5
    assert config.kappa == 10.0
    assert config.bandwidth_hz == 1e8
    assert plan.b_grid == (3,)
    assert plan.k_grid == (2,)
    assert plan.methods == ("lse", "random-baseline")


def test_unknown_key_reports_line():
    with pytest.raises(ConfigurationError, match="line 3.*mystery"):
        parse_config_text("m: 1\nn: 1\nmystery: 5\nk: 1\ntrials: 1\nseed: 0")


def test_missing_required_key():
    with pytest.raises(ConfigurationError, match="missing required.*trials"):
        parse_config_text("m: 1\nn: 1\nk: 1\nseed: 0")


def test_out_of_range_value_names_constraint():
    with pytest.raises(ConfigurationError, match="alpha"):
        parse_config_text(MINIMAL + "alpha: 1.5\n")


@pytest.mark.parametrize("lines, message", [
    ("bandwidth_hz: -5\n", "invalid scenario value: bandwidth must be positive, got -5.0"),
    ("sigma2_w: 1e-12\nbandwidth_hz: nan\n", "invalid scenario value: bandwidth must be finite, got nan"),
    ("emf_max: 1e-320\nsar_ref: 1e10\n",
     r"invalid scenario value: power caps .* must be positive, got \[0.0, 0.0\]"),
])
def test_a_value_outside_a_formulas_domain_is_an_invalid_scenario_value(lines, message):
    """A bandwidth or power cap that noise_power or effective_power_cap rejects
    as a DomainError reaches the parse as a ConfigurationError of SystemConfig,
    which the parse prefixes as it does every other bad scenario value."""
    with pytest.raises(ConfigurationError, match=message):
        parse_config_text(MINIMAL + lines)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigurationError, match="duplicate"):
        parse_config_text(MINIMAL + "m: 5\n")


def test_bad_method_rejected():
    with pytest.raises(ConfigurationError, match="unknown methods"):
        parse_config_text(MINIMAL + "methods: lse, genie\n")


@pytest.mark.parametrize("kwargs, key", [
    (dict(), "k_grid"),
    (dict(methods=(), k_grid=(2,), m_grid=(3,), n_grid=(4,)), "methods"),
    (dict(k_grid=(2,), m_grid=(3,), n_grid=(4,), b_grid=()), "b_grid"),
    (dict(trials=1.5, k_grid=(2,), m_grid=(3,), n_grid=(4,)), "trials"),
    (dict(k_grid=(2.5,), m_grid=(3,), n_grid=(4,)), "k_grid entries"),
    *((dict(seed=seed, k_grid=(2,), m_grid=(3,), n_grid=(4,)), "seed") for seed in (1.5, "5", True)),
])
def test_an_empty_plan_is_rejected(kwargs, key):
    """A plan built in code with an empty method list or grid would run
    nothing and return no rows, a fractional trial count or grid entry
    would fail mid-run or run another scenario than its CSV names, and a
    seed that is not a whole number would fail mid-run or not round-trip
    through dump_config; each is rejected, naming the key."""
    rule = ("must be a whole number" if key in ("trials", "k_grid entries", "seed")
            else "must not be empty")
    with pytest.raises(ConfigurationError, match=f"{key} {rule}"):
        ExperimentPlan(**{"trials": 2, "seed": 1, **kwargs})


def test_b_grid_bound_follows_the_quant_budget():
    # one swap tries all 2^B levels, so 2^B must fit QUANT_MAX_EVALS = 200,000
    _, plan = parse_config_text(MINIMAL + "b_grid: 1, 17\n")
    assert plan.b_grid == (1, 17)
    grid = dict(k_grid=(2,), m_grid=(3,), n_grid=(4,))
    with pytest.raises(ConfigurationError, match="b_grid entries must lie in 1..17, got 18"):
        ExperimentPlan(trials=1, seed=1, b_grid=(18,), **grid)
    with pytest.raises(ConfigurationError, match="b_grid entries must be a whole number, got 2.5"):
        ExperimentPlan(trials=1, seed=1, b_grid=(2.5,), **grid)


def test_a_plan_built_in_code_gets_the_sweep_checks():
    grid = dict(k_grid=(2,), m_grid=(3,), n_grid=(4,))
    with pytest.raises(ConfigurationError, match="max_sweeps must be a whole number, got 2.5"):
        ExperimentPlan(trials=1, seed=1, max_sweeps=2.5, **grid)
    with pytest.raises(ConfigurationError, match="tol must be >= 0, got nan"):
        ExperimentPlan(trials=1, seed=1, tol=float("nan"), **grid)


def test_a_seed_of_any_sign_runs_and_round_trips():
    config, plan = parse_config_text(MINIMAL)
    for seed in (-3, np.int64(4)):
        plan = replace(plan, seed=seed, methods=("random-baseline",), trials=1)
        assert type(plan.seed) is int
        assert parse_config_text(dump_config(config, plan))[1] == plan
        assert run_experiment(config, plan)[0].seed == derive_trial_seed(int(seed), 0, 0)


def test_round_trip(tmp_path):
    for source in (SMALL_PLAN, ALL_KEYS):
        config, plan = parse_config_text(source)
        text = dump_config(config, plan)
        config2, plan2 = parse_config_text(text)
        assert dump_config(config2, plan2) == text
        path = tmp_path / "cfg.txt"
        path.write_text(text, encoding="utf-8")
        config3, plan3 = load_config(path)
        assert dump_config(config3, plan3) == text
    # ALL_KEYS sets every key, each away from its default, in canonical form
    assert [line.partition(":")[0] for line in ALL_KEYS.splitlines()] == list(CONFIG_KEYS)
    assert dump_config(*parse_config_text(ALL_KEYS)) == ALL_KEYS
    defaults = dump_config(*parse_config_text(MINIMAL)).splitlines()
    assert not set(ALL_KEYS.splitlines()) & set(defaults)


def test_readme_config_example_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Config format"):]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    config, plan = parse_config_text(block)
    assert plan.b_grid == (1, 2, 3)


def test_readme_lists_the_public_api():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Public API"):]
    documented = set(re.findall(r"`([A-Za-z_]+)`", section))
    assert documented == set(ris_maxmin.__all__) - {"__version__"}


def test_readme_config_table_lists_the_config_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("### Config format"):readme.index("### Output CSV")]
    assert re.findall(r"^\| `([a-z_0-9]+)` \|", section, re.M) == list(CONFIG_KEYS)


def test_trial_seed_mixing_is_stable_and_distinct():
    seeds = {derive_trial_seed(7, g, t) for g in range(4) for t in range(50)}
    assert len(seeds) == 200
    assert derive_trial_seed(7, 1, 2) == derive_trial_seed(7, 1, 2)


def experiment_records(tmp_path, name="out.csv"):
    config, plan = parse_config_text(SMALL_PLAN)
    out = tmp_path / name
    records = run_experiment(config, plan, out_path=out, workers=1)
    return config, plan, records, out


def test_row_count_and_schema(tmp_path):
    config, plan, records, out = experiment_records(tmp_path)
    # methods expand to quant(B=1), quant(B=2), random-baseline per trial
    assert len(records) == 2 * 3
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + len(records)


def test_record_fields(tmp_path):
    _, plan, records, _ = experiment_records(tmp_path)
    for rec in records:
        assert rec.min_sinr_db == pytest.approx(10 * np.log10(rec.min_sinr_linear))
        assert rec.wall_time_seconds >= 0.0
        assert len(rec.per_user_sinrs) == rec.k
        if rec.method == "quant":
            assert rec.bits in (1, 2)
        else:
            assert rec.bits is None


def test_paired_trials_share_channels(tmp_path):
    _, plan, records, _ = experiment_records(tmp_path)
    by_seed = {}
    for rec in records:
        by_seed.setdefault(rec.seed, set()).add(rec.channel_hash)
    assert all(len(hashes) == 1 for hashes in by_seed.values())
    assert len(by_seed) == plan.trials


def strip_times(records):
    """The CSV rows of ``records`` without their wall_time_seconds column."""
    text = records_to_csv_text(records).splitlines()
    idx = CSV_COLUMNS.index("wall_time_seconds")
    return ["|".join(v for i, v in enumerate(line.split(",")) if i != idx)
            for line in text]


def test_determinism_apart_from_wall_time(tmp_path):
    config, plan = parse_config_text(SMALL_PLAN)
    a = run_experiment(config, plan, out_path=None, workers=1)
    b = run_experiment(config, plan, out_path=None, workers=1)
    assert strip_times(a) == strip_times(b)


def test_a_serial_run_leaves_the_process_pool_unimported():
    # the pool's modules cost about 4 ms of import time and 0.5 MB of RSS
    script = f"""
import sys
import ris_maxmin
from ris_maxmin.harness import parse_config_text, run_experiment
run_experiment(*parse_config_text({SMALL_PLAN!r}))
print("multiprocessing" in sys.modules, "concurrent.futures.process" in sys.modules)
"""
    assert run_fresh(script).split() == ["False", "False"]


def test_worker_pool_preserves_output(tmp_path):
    config, plan = parse_config_text(SMALL_PLAN)
    serial = run_experiment(config, plan, out_path=None, workers=1)
    parallel = run_experiment(config, plan, out_path=None, workers=2)
    assert strip_times(serial) == strip_times(parallel)


def test_scaled_config_rejects_mismatched_arrays(tmp_path):
    """Per-user lists that cannot follow a k_grid point fail the parse, and a
    plan built in code fails the run before the CSV is opened."""
    text = SMALL_PLAN + "sar_ref: 1e-3, 2e-3\n"
    with pytest.raises(ConfigurationError, match="grid point k=3, m=3, n=4: per-user"):
        parse_config_text(text.replace("k_grid: 2\n", "k_grid: 2, 3\n"))
    config, plan = parse_config_text(text)
    out = tmp_path / "results.csv"
    with pytest.raises(ConfigurationError, match="grid point k=3, m=3, n=4: per-user"):
        run_experiment(config, replace(plan, k_grid=(2, 3)), out_path=out, workers=1)
    assert not out.exists()


@pytest.mark.parametrize("workers", [0, -3, True, 2.5], ids=str)
def test_a_worker_count_that_is_not_a_count_fails_before_the_csv(tmp_path, workers):
    # refused up front: otherwise 0, -3 and True run serially and 2.5 fails
    # inside the process pool
    config, plan = parse_config_text(SMALL_PLAN)
    out = tmp_path / "results.csv"
    with pytest.raises(ConfigurationError, match="workers must be"):
        run_experiment(config, plan, out_path=out, workers=workers)
    assert not out.exists()


def test_a_row_follows_the_text_rule():
    record = harness.TrialRecord(
        seed=7, k=2, m=3, n=4, method="lse", bits=None, min_sinr_linear=0.1,
        min_sinr_db=-10.0, per_user_sinrs=(0.1, 1.0 / 3.0), sweeps=2,
        wall_time_seconds=0.5, p_cap_used=(0.2, 0.25), degenerate=True,
        channel_hash="00ff", diagnostics="sweep 1: x")
    assert record.to_row() == [
        "7", "2", "3", "4", "lse", "", "0.10000000000000001", "-10",
        "0.10000000000000001;0.33333333333333331", "2", "0.5", "0.20000000000000001;0.25",
        "1", "00ff", "sweep 1: x"]
    assert replace(record, bits=3, degenerate=False).to_row()[5::7] == ["3", "0"]


def test_streamed_csv_is_the_records_text(tmp_path):
    config, plan = parse_config_text(SMALL_PLAN)
    for workers in (1, 2):
        out = tmp_path / f"streamed-{workers}.csv"
        records = run_experiment(config, plan, out_path=out, workers=workers)
        assert out.read_bytes().decode("utf-8") == records_to_csv_text(records)


def test_batched_quant_swaps_leave_the_csv_unchanged(monkeypatch):
    config, plan = parse_config_text("m: 12\nn: 24\nk: 2\ntrials: 3\nseed: 20240817\n"
                                     "methods: quant, random-baseline\nk_grid: 2, 4\n"
                                     "b_grid: 1, 2, 3\n")
    batched = run_experiment(config, plan, out_path=None, workers=1)
    monkeypatch.setattr(alternating, "quantized_heuristic_phase", serial_quantized_heuristic_phase)
    serial = run_experiment(config, plan, out_path=None, workers=1)
    assert len(batched) == 2 * 3 * 4
    assert strip_times(batched) == strip_times(serial)


@pytest.mark.parametrize("n, rho", [(6, 0.0), (9, 0.45)])
def test_channel_hash_is_the_hash_of_the_dump(n, rho):
    """Every trial's CSV hash is the README's: the first 16 hex digits of the
    sha256 of the dump that dump-channel writes, correlated scenario included."""
    config, plan = parse_config_text(f"m: 4\nn: {n}\nk: 3\nris_corr_rho: {rho}\ntrials: 4\nseed: 3\n")
    for trial in range(plan.trials):
        chan = harness.trial_channel(config, plan, 0, trial)[1]
        text = dump_channel_text(chan)
        assert harness._channel_hash(chan) == hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
