import csv
import hashlib

import numpy as np
import pytest

from ris_maxmin import harness
from ris_maxmin.channel import load_channel_text
from ris_maxmin.core import GainTable
from ris_maxmin.harness import CSV_COLUMNS
from ris_maxmin.cli import main

CONFIG = """
m: 3
n: 4
k: 2
trials: 2
seed: 5
methods: random-baseline
max_sweeps: 3
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "experiment.cfg"
    path.write_text(CONFIG, encoding="utf-8")
    return path


def test_validate_ok(config_path, capsys):
    assert main(["validate", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "m=3" in out


def test_validate_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("m: 3\nwhat: 1\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


# each bad line replaces the key's line of CONFIG, if it has one, and is
# rejected with this error; the swap window and threshold and the sdr draw
# count are module constants (phase.QUANT_WINDOW, phase.QUANT_EPSILON,
# sdr.N_RAND), not config keys
REJECTIONS = {
    "max_sweeps: 0": "max_sweeps must be >= 1, got 0",
    "tol: -1": "tol must be >= 0", "tol: nan": "tol must be >= 0",
    "k_grid: 0": "k_grid entries must be >= 1", "m_grid: 0": "m_grid entries must be >= 1",
    "n_grid: 0": "n_grid entries must be >= 1",
    "b_grid: 0": "b_grid entries must lie in 1..17, got 0",
    "b_grid: 18": "b_grid entries must lie in 1..17, got 18",
    "b_grid: 40": "b_grid entries must lie in 1..17, got 40",
    "quant_window: 0": "unknown key 'quant_window'",
    "quant_epsilon: 0": "unknown key 'quant_epsilon'", "n_rand: -1": "unknown key 'n_rand'",
    "kappa: -1": "kappa must be finite and >= 0, got -1",
    "emf_max: 0": "emf_max entries must be positive", "emf_max: -1": "emf_max entries must be positive",
    "sar_ref: 0": "sar_ref entries must be positive", "d_bs: 0": "d_bs must be positive, got 0",
    "ris_position_m: 0, 0": "ris_position must be finite and differ from the BS position",
    "ris_position_m: nan, 1": "ris_position must be finite", "sigma2_w: inf": "sigma2 must be finite",
    "r_min_m: -5": "r_min must lie in [0, r_max = 70.0), got -5",
    "methods: lse, lse": "methods must not repeat an entry, got ('lse', 'lse')",
    "b_grid: 3, 3": "b_grid must not repeat an entry, got (3, 3)",
    "gain_bs_dbi: nan": "gain_bs_dbi must be finite", "gain_bs_dbi: 1e308": "gain_bs_dbi must be finite",
    "sar_ref: inf": "sar_ref entries must be finite", "r_max_m: inf": "r_max must be finite",
    "p_max_w: inf\nemf_max: inf": "p_max and emf_max must not both be infinite",
    # a per-user list that cannot follow the k_grid point k=3
    "sar_ref: 63e-4, 50e-4\nk_grid: 2, 3":
        "grid point k=3, m=3, n=4: per-user arrays of length 2 cannot be rescaled to k=3",
    "sar_ref: 1e-3, 2e-3, 3e-3": "sar_ref must be a scalar or length-2 sequence",
    "ris_position_m: 1, 2, 3": "bad value for 'ris_position_m': expected exactly two entries, got 3",
    "no colon here": "expected 'key: value', got 'no colon here'",
    "trials: many": "bad value for 'trials'",
    "m: 12.7": "bad value for 'm'", "k_grid: 2.5": "bad value for 'k_grid'",
    "bandwidth_hz: 0": "bandwidth must be positive, got 0.0",
    "bandwidth_hz: nan": "bandwidth must be finite, got nan",
    "bandwidth_hz: inf": "bandwidth must be finite, got inf",
}


@pytest.mark.parametrize("line, key", [(line, line.split(":")[0]) for line in REJECTIONS])
def test_validate_rejects_what_run_rejects(tmp_path, capsys, line, key):
    bad = tmp_path / "bad.cfg"
    kept = [row for row in CONFIG.splitlines() if not row.startswith(f"{key}:")]
    bad.write_text("\n".join(kept + [line]) + "\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and REJECTIONS[line] in err
    out = tmp_path / "results.csv"
    assert main(["run", str(bad), "--out", str(out), "--quiet"]) == 1
    assert not out.exists()


@pytest.mark.parametrize("threads", ["0", "-4"])
def test_run_rejects_a_worker_count_below_one(config_path, tmp_path, capsys, threads):
    # refused as a configuration error, not rounded up to one worker
    out = tmp_path / "results.csv"
    assert main(["run", str(config_path), "--out", str(out), "--threads", threads, "--quiet"]) == 1
    assert f"workers must be >= 1, got {threads}" in capsys.readouterr().err
    assert not out.exists()


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.cfg")]) == 1


def test_run_writes_csv(config_path, tmp_path, capsys):
    out = tmp_path / "results.csv"
    assert main(["run", str(config_path), "--out", str(out), "--quiet"]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 2  # header + one method x two trials
    assert rows[1][4] == "random-baseline"


def test_run_trials_override(config_path, tmp_path):
    out = tmp_path / "results.csv"
    assert main(["run", str(config_path), "--out", str(out), "--trials", "1", "--quiet"]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 2


def test_run_seed_override_changes_rows(config_path, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    main(["run", str(config_path), "--out", str(out1), "--quiet"])
    main(["run", str(config_path), "--out", str(out2), "--seed", "99", "--quiet"])
    assert out1.read_text().splitlines()[1].split(",")[0] != out2.read_text().splitlines()[1].split(",")[0]


def test_dump_channel_stdout_parses(config_path, capsys):
    assert main(["dump-channel", str(config_path)]) == 0
    text = capsys.readouterr().out
    chan = load_channel_text(text)
    assert chan.h1.shape == (3, 4)


def test_dump_channel_is_the_first_trials_channel(tmp_path):
    config = tmp_path / "one.cfg"
    config.write_text("m: 4\nn: 6\nk: 2\ntrials: 1\nseed: 5\nmethods: random-baseline\n"
                      "max_sweeps: 2\n", encoding="utf-8")
    dump, out = tmp_path / "chan.txt", tmp_path / "results.csv"
    assert main(["dump-channel", str(config), "--out", str(dump)]) == 0
    assert main(["run", str(config), "--out", str(out), "--quiet"]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        first = next(csv.DictReader(fh))
    assert hashlib.sha256(dump.read_bytes()).hexdigest()[:16] == first["channel_hash"]


def test_dump_channel_file_and_seed(config_path, tmp_path):
    out = tmp_path / "chan.txt"
    assert main(["dump-channel", str(config_path), "--out", str(out), "--seed", "13"]) == 0
    chan = load_channel_text(out.read_text(encoding="utf-8"))
    assert chan.h2.shape == (2, 4)


def test_run_solver_fault_exits_2(config_path, tmp_path, monkeypatch, capsys):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr("ris_maxmin.cli.run_experiment", singular)
    out = tmp_path / "results.csv"
    assert main(["run", str(config_path), "--out", str(out), "--quiet"]) == 2
    assert "runtime error: Singular matrix" in capsys.readouterr().err


def test_run_keeps_the_rows_of_finished_trials(tmp_path, monkeypatch, capsys):
    config = tmp_path / "five.cfg"
    config.write_text(CONFIG.replace("trials: 2", "trials: 5"), encoding="utf-8")
    original = harness.alternating_optimize
    calls = []

    def fifth_call_raises(*args, **kwargs):
        calls.append(1)
        if len(calls) == 5:
            raise np.linalg.LinAlgError("Singular matrix")
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "alternating_optimize", fifth_call_raises)
    out = tmp_path / "results.csv"
    assert main(["run", str(config), "--out", str(out), "--quiet"]) == 2
    assert "runtime error: Singular matrix" in capsys.readouterr().err
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert [row[4] for row in rows[1:]] == ["random-baseline"] * 4


def test_run_nan_minimum_exits_2(config_path, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(GainTable, "sinr", lambda self, p: np.full(self.k, np.nan))
    out = tmp_path / "results.csv"
    assert main(["run", str(config_path), "--out", str(out), "--quiet"]) == 2
    assert "nan minimum SINR" in capsys.readouterr().err
