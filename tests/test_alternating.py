import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ris_maxmin
from ris_maxmin import (ConfigurationError, QuantOptions, SystemConfig,
                        alternating_optimize, effective_channel, sample_channel,
                        sinr_per_user)
from ris_maxmin import PhaseVector, alternating, max_min_power, phase, power
from ris_maxmin.alternating import METHODS
from ris_maxmin.core import ChannelRealization, GainTable, gain_table
from ris_maxmin.errors import NumericError
from ris_maxmin.beamforming import mmse_combiners, optimal_beamformers
from ris_maxmin.phase import lse_max_min_phase
from ris_maxmin.power import effective_power_cap, mmse_max_min_power

from oracles import sweeping_random_baseline

SMALL = SystemConfig(m=4, n=6, k=3)


def small_channel(seed):
    return sample_channel(SMALL, np.random.default_rng(seed))


def test_rejects_unknown_method():
    with pytest.raises(ConfigurationError):
        alternating_optimize(SMALL, small_channel(0), "genie", np.random.default_rng(0))


@pytest.mark.parametrize("method, settings, message", [
    ("lse", dict(max_sweeps=0), "max_sweeps must be >= 1, got 0"),
    ("lse", dict(max_sweeps=2.5), "max_sweeps must be a whole number, got 2.5"),
    ("lse", dict(tol=np.nan), "tol must be >= 0, got nan"),
    ("lse", dict(tol=-1.0), "tol must be >= 0, got -1.0"),
    ("quant", dict(phase_options=3), "phase_options must be None or a QuantOptions"),
], ids=["no-sweeps", "fractional-sweeps", "nan-tol", "negative-tol", "bare-bits"])
def test_rejects_bad_sweep_settings(method, settings, message):
    """The library entry holds its settings to the rules a config file gets."""
    with pytest.raises(ConfigurationError, match=message):
        alternating_optimize(SMALL, small_channel(0), method, np.random.default_rng(0), **settings)


def test_single_user_collapses_to_matched_filter():
    cfg = SystemConfig(m=3, n=4, k=1)
    chan = sample_channel(cfg, np.random.default_rng(5))
    sol = alternating_optimize(cfg, chan, "lse", np.random.default_rng(7))
    assert sol.converged
    cap = min(cfg.p_max, cfg.emf_max[0] / cfg.sar_ref[0])
    g = effective_channel(chan, sol.phase)[:, 0]
    expected = cap * np.linalg.norm(g) ** 2 / cfg.sigma2
    assert sol.report.minimum == pytest.approx(expected, rel=1e-9)
    assert abs(np.vdot(sol.bf.rows[0], g / np.linalg.norm(g))) == pytest.approx(1.0, abs=1e-10)
    assert sol.power.p[0] == pytest.approx(cap, rel=1e-9)


@pytest.mark.parametrize("method", METHODS)
def test_stage_trace_monotone_and_consistent(method):
    # SMALL has fewer users than antennas; the second config has more (k > m)
    for cfg in (SMALL, SystemConfig(m=2, n=6, k=5)):
        for seed in range(3):
            chan = sample_channel(cfg, np.random.default_rng(100 + seed))
            sol = alternating_optimize(cfg, chan, method, np.random.default_rng(200 + seed))
            minima = [v for _, v in sol.report.stage_trace]
            assert all(b >= a for a, b in zip(minima, minima[1:]))
            rep = sinr_per_user(chan, sol.phase, sol.power, sol.bf, cfg.sigma2)
            assert sol.report.minimum == pytest.approx(rep.minimum, rel=1e-9)


@pytest.mark.parametrize("method", METHODS)
def test_each_operating_point_is_scored_once(method, monkeypatch):
    # the loop scores every stage on one gain table, and sinr_per_user only
    # gives the final report
    calls = {"sinr_per_user": 0, "gain_table": 0}

    def counted(name):
        original = getattr(alternating, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(alternating, name, counted(name))
    sol = alternating_optimize(SMALL, small_channel(40), method, np.random.default_rng(41))
    assert calls["sinr_per_user"] == 1
    assert calls["gain_table"] <= 2 * sol.iterations


def test_random_baseline_has_no_phase_stages():
    sol = alternating_optimize(SMALL, small_channel(3), "random-baseline",
                               np.random.default_rng(4))
    labels = {label for label, _ in sol.report.stage_trace}
    assert labels == {"bf", "power"}


@pytest.mark.parametrize("m, n, k", [(12, 24, 2), (12, 24, 6), (2, 6, 5)])
def test_random_baseline_is_one_tau_solve_at_its_phases(m, n, k):
    # the last shape has more users than antennas
    cfg = SystemConfig(m=m, n=n, k=k)
    for seed in range(3):
        chan = sample_channel(cfg, np.random.default_rng((1, seed)))
        sol = alternating_optimize(cfg, chan, "random-baseline", np.random.default_rng((2, seed)))
        drawn = PhaseVector.random(n, cfg.alpha, np.random.default_rng((2, seed)))
        assert np.array_equal(sol.phase.theta, drawn.theta)
        tau = mmse_max_min_power(effective_channel(chan, sol.phase), sol.p_cap, cfg.sigma2).tau
        assert sol.report.minimum == pytest.approx(tau, rel=1e-12, abs=0.0)
        # at MMSE combiners for tau's powers, the fixed-combiner optimum is tau itself
        perron = max_min_power(gain_table(chan, sol.phase, sol.bf, cfg.sigma2), sol.p_cap).tau
        assert perron == pytest.approx(sol.report.minimum, rel=1e-9, abs=0.0)
        assert sol.iterations == 1 and sol.converged and not sol.diagnostics
        trace = sol.report.stage_trace
        assert [label for label, _ in trace] == ["bf", "power"]
        assert trace[0][1] <= trace[1][1] == sol.report.minimum


@pytest.mark.parametrize("m, n, k", [(12, 24, 2), (12, 24, 6), (2, 6, 5)])
def test_lse_opens_with_the_random_baseline_stage(m, n, k):
    # lse sweeps on the joint tau stage that random-baseline runs once; the
    # last shape has more users than antennas
    cfg = SystemConfig(m=m, n=n, k=k)
    for seed in range(2):
        chan = sample_channel(cfg, np.random.default_rng((1, seed)))
        baseline = alternating_optimize(cfg, chan, "random-baseline", np.random.default_rng((2, seed)))
        lse = alternating_optimize(cfg, chan, "lse", np.random.default_rng((2, seed)), max_sweeps=1)
        assert list(lse.report.stage_trace[:2]) == list(baseline.report.stage_trace), seed


@pytest.mark.parametrize("method", METHODS)
def test_each_sweep_makes_one_power_solve_of_its_kind(method, monkeypatch):
    # sdr and quant keep the Perron step on their fixed combiners; lse and
    # random-baseline solve tau once per sweep (lse's phase step solves its
    # own through the phase module, which is not counted here)
    calls = {"max_min_power": 0, "mmse_max_min_power": 0}

    def counted(name):
        original = getattr(alternating, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(alternating, name, counted(name))
    sol = alternating_optimize(SMALL, small_channel(50), method, np.random.default_rng(51),
                               max_sweeps=3)
    joint = method in ("lse", "random-baseline")
    assert calls == {"max_min_power": 0 if joint else sol.iterations,
                     "mmse_max_min_power": sol.iterations if joint else 0}


@pytest.mark.parametrize("m, n, k", [(12, 24, 2), (12, 24, 6), (2, 6, 5)])
def test_tau_points_take_their_combiners_from_their_own_factorization(m, n, k, monkeypatch):
    # lse and random-baseline read every combiner from a tau point's
    # factorization, so the per-user combiner builder is never called; the
    # last shape has more users than antennas
    cfg = SystemConfig(m=m, n=n, k=k)

    def refused(*args, **kwargs):
        raise AssertionError("optimal_beamformers called")

    for seed in range(2):
        chan = sample_channel(cfg, np.random.default_rng((1, seed)))
        init = PhaseVector.random(n, cfg.alpha, np.random.default_rng((2, seed)))
        cap = effective_power_cap(cfg.p_max, cfg.sar_ref, cfg.emf_max)
        out = lse_max_min_phase(chan, init, cap, cfg.sigma2)
        point = out.power_control
        assert point.tau == out.min_sinr
        ours = mmse_combiners(point.mmse_state).rows
        theirs = optimal_beamformers(chan, out.phase, point.power, cfg.sigma2).rows
        assert np.array_equal(ours, theirs), seed
        with monkeypatch.context() as patched:
            patched.setattr(alternating, "optimal_beamformers", refused)
            for method in ("lse", "random-baseline"):
                alternating_optimize(cfg, chan, method, np.random.default_rng((2, seed)),
                                     max_sweeps=2)


@pytest.mark.parametrize("method", ["sdr", "quant"])
def test_fixed_combiner_methods_build_their_combiners_per_user(method, monkeypatch):
    calls = []
    original = alternating.optimal_beamformers

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(alternating, "optimal_beamformers", counted)
    sol = alternating_optimize(SMALL, small_channel(52), method, np.random.default_rng(53),
                               max_sweeps=2)
    assert len(calls) == sol.iterations


@pytest.mark.parametrize("k", [2, 4, 6])
def test_random_baseline_never_falls_below_the_sweeping_loop(k):
    # the loop of combiner and Perron stages that stops on tol can stop short of tau
    cfg = SystemConfig(m=12, n=24, k=k)
    rises = []
    for s in range(16):
        chan = sample_channel(cfg, np.random.default_rng((1, s)))
        sol = alternating_optimize(cfg, chan, "random-baseline", np.random.default_rng((2, s)))
        drawn, swept = sweeping_random_baseline(cfg, chan, np.random.default_rng((2, s)))
        assert np.array_equal(sol.phase.theta, drawn.theta)
        assert sol.report.minimum >= swept * (1.0 - 1e-12), s
        rises.append(sol.report.minimum > swept * (1.0 + 1e-9))
    if k == 2:
        assert any(rises)


def test_random_baseline_on_a_degenerate_channel_keeps_the_caps():
    chan = ChannelRealization(h1=np.zeros((4, 6)), ris_corr_sqrt=np.eye(6),
                              h2=np.ones((3, 6)), user_positions=np.zeros((3, 2)))
    sol = alternating_optimize(SMALL, chan, "random-baseline", np.random.default_rng(1))
    assert np.array_equal(sol.power.p, sol.p_cap)
    assert sol.report.minimum == 0.0 and sol.degenerate and sol.converged
    assert sol.diagnostics == ["sweep 1: degenerate gain table in the power step"]
    assert [label for label, _ in sol.report.stage_trace] == ["bf", "power"]


def test_random_baseline_unbalanced_at_the_step_cap_is_not_converged(monkeypatch):
    # one factorization, at the caps, leaves the SINRs unbalanced
    monkeypatch.setattr(power, "FIXED_POINT_MAX_ITER", 1)
    cfg = SystemConfig(m=12, n=24, k=6)
    sol = alternating_optimize(cfg, sample_channel(cfg, np.random.default_rng(0)),
                               "random-baseline", np.random.default_rng(1))
    assert not sol.converged and sol.iterations == 1
    minima = [v for _, v in sol.report.stage_trace]
    assert minima[0] <= minima[1] == sol.report.minimum


def test_powers_respect_effective_cap():
    cfg = SystemConfig(m=3, n=5, k=2, sar_ref=63e-4, emf_max=(0.0029, 0.0012))
    chan = sample_channel(cfg, np.random.default_rng(11))
    cap = np.array([0.0029, 0.0012]) / 0.0063
    for method in METHODS:
        sol = alternating_optimize(cfg, chan, method, np.random.default_rng(12))
        assert np.all(sol.power.p <= cap * (1 + 1e-12)), method
        assert np.allclose(sol.p_cap, cap)


def test_quant_respects_grid():
    sol = alternating_optimize(SMALL, small_channel(21), "quant", np.random.default_rng(22),
                               phase_options=QuantOptions(bits=2))
    grid = 2 * np.pi * np.arange(4) / 4
    assert np.all(np.isin(sol.phase.theta.round(12), grid.round(12)))


def test_quant_budget_stop_is_a_sweep_diagnostic(monkeypatch):
    monkeypatch.setattr(phase, "QUANT_MAX_EVALS", 40)
    sol = alternating_optimize(SMALL, small_channel(3), "quant", np.random.default_rng(4),
                               max_sweeps=1, phase_options=QuantOptions(bits=3))
    assert sol.diagnostics == [
        "sweep 1: evaluation budget exhausted before the improvement window settled"]


def test_degenerate_channel_flagged():
    chan = ChannelRealization(h1=np.zeros((4, 6)), ris_corr_sqrt=np.eye(6),
                              h2=np.ones((3, 6)), user_positions=np.zeros((3, 2)))
    for method in METHODS:
        sol = alternating_optimize(SMALL, chan, method, np.random.default_rng(1))
        assert sol.degenerate, method
        assert sol.report.minimum == 0.0


def test_wall_time_and_iterations_recorded():
    sol = alternating_optimize(SMALL, small_channel(30), "lse", np.random.default_rng(31))
    assert sol.wall_time > 0
    assert 1 <= sol.iterations <= 30
    assert sol.method == "lse"


def test_only_lse_imports_scipy_optimize():
    # scipy.optimize adds about 20 MB of RSS, so batch runs without lse skip it
    script = """
import sys
import numpy as np
from ris_maxmin import SystemConfig, alternating_optimize, sample_channel
cfg = SystemConfig(m=3, n=4, k=2)
chan = sample_channel(cfg, np.random.default_rng(0))
for method in ("quant", "sdr", "random-baseline"):
    alternating_optimize(cfg, chan, method, np.random.default_rng(1), max_sweeps=2)
before = "scipy.optimize" in sys.modules
alternating_optimize(cfg, chan, "lse", np.random.default_rng(1), max_sweeps=2)
print(before, "scipy.optimize" in sys.modules)
"""
    src = str(Path(ris_maxmin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("method", METHODS)
def test_nan_minimum_raises_numeric_error(monkeypatch, method):
    """A nan score fails every guard; it must not leave the loop without combiners."""
    monkeypatch.setattr(GainTable, "sinr", lambda self, p: np.full(self.k, np.nan))
    with pytest.raises(NumericError, match="nan minimum SINR"):
        alternating_optimize(SMALL, small_channel(3), method, np.random.default_rng(3), max_sweeps=2)
