import importlib.machinery
import importlib.util
import json
import sys
import types
import warnings

import numpy as np
import pytest
import scipy.optimize

from ris_maxmin import (ChannelRealization, PhaseVector, SystemConfig, effective_channel,
                        lse_gradient_phase, sample_channel, sinr_phase_tangent)
from ris_maxmin import phase as phase_module
from ris_maxmin.errors import NumericError
from ris_maxmin.phase import (LSE_MAX_ITERS, lse_max_min_phase,
                              max_min_sinr_tangent)
from ris_maxmin.power import mmse_max_min_power

import oracles
from conftest import random_phase, run_fresh, synth_channel
from oracles import finite_difference_tangent, post_bf_sinr


def relative_gradient_error(tangent, fd):
    scale = np.abs(fd).max(axis=1, keepdims=True)
    denom = np.maximum(np.abs(fd), 1e-4 * np.maximum(scale, 1.0))
    return np.abs(tangent - fd) / denom


def test_tangent_matches_finite_differences(rng):
    for _ in range(15):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        k = int(rng.integers(1, 4))
        chan = synth_channel(rng, m, n, k, identity_corr=False)
        phase = random_phase(rng, n, alpha=float(rng.uniform(0.5, 1.0)))
        p = rng.uniform(0.2, 1.0, k)
        tangent, _ = sinr_phase_tangent(chan, p, phase, 1.0)
        fd = finite_difference_tangent(chan, p, phase, 1.0)
        assert relative_gradient_error(tangent, fd).max() < 1e-5


def test_max_min_tangent_matches_finite_differences(rng):
    binding_users = set()
    for case in range(16):
        k = 1 + case % 4
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        chan = synth_channel(rng, m, n, k, identity_corr=False)
        phase = random_phase(rng, n, alpha=float(rng.uniform(0.5, 1.0)))
        caps = rng.uniform(0.2, 1.0, k)
        grad, result, slope = max_min_sinr_tangent(chan, phase, caps, 1.0)
        binding_users.add((k, int(np.argmax(result.power.p / caps))))

        def power_step(theta):
            g = effective_channel(chan, PhaseVector(theta=theta, alpha=phase.alpha))
            return mmse_max_min_power(g, caps, 1.0)

        fd, fd_slope = np.zeros(n), np.zeros((k, n))
        for i in range(n):
            hi, lo = phase.theta.copy(), phase.theta.copy()
            hi[i] += 1e-6
            lo[i] -= 1e-6
            up, down = power_step(hi), power_step(lo)
            fd[i] = (up.tau - down.tau) / 2e-6
            fd_slope[:, i] = (up.power.p - down.power.p) / 2e-6
        assert relative_gradient_error(grad[None, :], fd[None, :]).max() < 1e-5
        # the same solve gives the slope of the max-min powers
        assert relative_gradient_error(slope, fd_slope).max() < 1e-5
    # the caps differ, so the binding user is not always the first one
    assert any(user > 0 for _, user in binding_users)


def test_zero_power_user_has_zero_derivative(rng):
    chan = synth_channel(rng, 3, 4, 3)
    phase = random_phase(rng, 4)
    p = np.array([0.5, 0.0, 0.7])
    tangent, sinr = sinr_phase_tangent(chan, p, phase, 1.0)
    assert sinr[1] == 0.0
    assert np.all(tangent[1] == 0.0)


def test_single_element_tangent_vanishes(rng):
    # one element means only a global phase, which the SINR cannot see
    chan = synth_channel(rng, 3, 1, 2)
    phase = random_phase(rng, 1)
    tangent, sinr = sinr_phase_tangent(chan, np.array([0.5, 0.6]), phase, 1.0)
    assert np.abs(tangent).max() < 1e-12 * max(sinr.max(), 1.0)


def test_derivative_reports_post_bf_sinr(rng):
    chan = synth_channel(rng, 4, 3, 2)
    phase = random_phase(rng, 3)
    p = rng.uniform(0.2, 1.0, 2)
    _, sinr = sinr_phase_tangent(chan, p, phase, 0.9)
    rep = post_bf_sinr(chan, phase, p, 0.9)
    assert np.allclose(sinr, rep.per_user, rtol=1e-12)


def test_lse_gradient_never_worse_than_init(rng):
    for _ in range(20):
        chan = synth_channel(rng, 3, 5, 3)
        phase = random_phase(rng, 5)
        p = rng.uniform(0.2, 1.0, 3)
        init_min = post_bf_sinr(chan, phase, p, 1.0).minimum
        out = lse_gradient_phase(chan, p, phase, 1.0)
        assert out.min_sinr >= init_min - 1e-12
        realized = post_bf_sinr(chan, out.phase, p, 1.0).minimum
        assert realized == pytest.approx(out.min_sinr, rel=1e-10)


def test_lse_gradient_stopping_contract(rng):
    chan = synth_channel(rng, 3, 4, 2)
    phase = random_phase(rng, 4)
    p = rng.uniform(0.2, 1.0, 2)
    out = lse_gradient_phase(chan, p, phase, 1.0)
    assert out.converged or out.iterations <= LSE_MAX_ITERS


def test_lse_gradient_returns_a_degenerate_start_unchanged(rng):
    chan = synth_channel(rng, 3, 4, 2)
    chan = ChannelRealization(h1=chan.h1, ris_corr_sqrt=chan.ris_corr_sqrt,
                              h2=np.vstack([chan.h2[:1], np.zeros((1, 4))]),
                              user_positions=chan.user_positions)
    phase = random_phase(rng, 4)
    out = lse_gradient_phase(chan, np.array([0.5, 0.5]), phase, 1.0)
    assert out.phase is phase
    assert out.iterations == 0 and not out.converged and out.evaluations == 0
    assert out.min_sinr == 0.0
    assert out.warning == "degenerate SINR at the initial phase"


def test_lse_max_min_phase_climbs_the_power_controlled_minimum(rng):
    for _ in range(10):
        chan = synth_channel(rng, 3, 5, 3)
        phase = random_phase(rng, 5)
        caps = rng.uniform(0.2, 1.0, 3)
        init_tau = mmse_max_min_power(effective_channel(chan, phase), caps, 1.0).tau
        out = lse_max_min_phase(chan, phase, caps, 1.0)
        assert out.min_sinr >= init_tau
        assert np.all(out.power_control.power.p <= caps)
        realized = post_bf_sinr(chan, out.phase, out.power_control.power, 1.0).minimum
        assert realized == pytest.approx(out.min_sinr, rel=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("step", ["max-min", "frozen-power"])
def test_a_non_finite_solver_iterate_is_a_numeric_error(monkeypatch, rng, step, bad):
    """An L-BFGS-B iterate with a non-finite angle reaches the MMSE kernel's
    finite check and fails as a NumericError (the CLI's exit 2), not as a
    ConfigurationError of the phase it is built into. A nan angle gets there
    silently; an infinite one after np.mod's invalid-value warning. Both
    paths are held to it: setulb's, whose first requested point is
    corrupted, and minimize's, whose first point is."""
    chan = synth_channel(rng, 3, 4, 2)
    phase = random_phase(rng, 4)
    setulb = phase_module._bind_setulb()

    def corrupting_setulb(*args):
        setulb(*args)
        x, task = args[1], args[11]
        if task[0] == 3:
            x[2] = bad

    def minimize(fun, x0, **_):
        x = x0.copy()
        x[2] = bad
        return fun(x)

    paths = {"minimize": lambda patch: (patch.setattr(phase_module, "_bind_setulb", lambda: None),
                                          patch.setattr(scipy.optimize, "minimize", minimize))}
    if setulb is not None:
        paths["setulb"] = lambda patch: patch.setattr(phase_module, "_bind_setulb",
                                                        lambda: corrupting_setulb)
    for path, install in paths.items():
        with monkeypatch.context() as patch, warnings.catch_warnings(record=True) as caught:
            install(patch)
            warnings.simplefilter("always")
            with pytest.raises(NumericError, match="effective channel contains non-finite entries"):
                if step == "max-min":
                    lse_max_min_phase(chan, phase, np.array([0.5, 0.5]), 1.0)
                else:
                    lse_gradient_phase(chan, np.array([0.5, 0.5]), phase, 1.0)
        expected = [] if np.isnan(bad) else ["invalid value encountered in remainder"]
        assert sorted({str(w.message) for w in caught}) == expected, path


needs_setulb = pytest.mark.skipif(
    phase_module._bind_setulb() is None,
    reason="scipy.optimize._lbfgsb.setulb is missing or lacks scipy 1.17.1's signature, "
           "so every climb runs scipy.optimize.minimize")
DIRECT = pytest.param("setulb", marks=needs_setulb)


def _run_climbs(monkeypatch, path, run):
    """``run()`` with every L-BFGS-B climb on ``path`` ("setulb", the direct
    loop, or "minimize", the fallback): its result, the points each climb's
    objective was evaluated at, and what each climb returned."""
    points, returned = [], []
    climb = phase_module._lbfgsb_climb

    def recording(objective, theta0):
        def recorded(theta):
            points.append(np.array(theta, dtype=float))
            return objective(theta)
        returned.append(climb(recorded, theta0))
        return returned[-1]

    with monkeypatch.context() as patch:
        patch.setattr(phase_module, "_lbfgsb_climb", recording)
        if path == "minimize":
            patch.setattr(phase_module, "_bind_setulb", lambda: None)
        return run(), points, returned


def _same_climbs(monkeypatch, run):
    """Run ``run`` on both paths and hold them to the same evaluated points,
    bit for bit, and the same iterations, convergence and evaluation counts;
    returns both results."""
    direct, direct_points, direct_returned = _run_climbs(monkeypatch, "setulb", run)
    fallback, fallback_points, fallback_returned = _run_climbs(monkeypatch, "minimize", run)
    assert direct_returned == fallback_returned
    assert sum(count for _, _, count in direct_returned) == len(direct_points)
    assert len(direct_points) == len(fallback_points) > 0
    assert all(np.array_equal(a, b) for a, b in zip(direct_points, fallback_points))
    return direct, fallback


def _same_lse_bits(actual, expected):
    assert np.array_equal(actual.phase.theta, expected.phase.theta)
    assert (actual.min_sinr, actual.iterations, actual.converged, actual.evaluations,
            actual.warning) == (expected.min_sinr, expected.iterations, expected.converged,
                                expected.evaluations, expected.warning)
    if expected.power_control is not None:
        assert np.array_equal(actual.power_control.power.p, expected.power_control.power.p)


@needs_setulb
@pytest.mark.parametrize("k", [2, 6])
@pytest.mark.parametrize("step", ["max-min", "frozen-power"])
def test_the_direct_climb_matches_minimize_on_the_lse_steps(monkeypatch, k, step):
    """On a headline draw, both lse steps climb through the same points on
    setulb directly as on scipy.optimize.minimize, and return the same bits."""
    cfg = SystemConfig(m=12, n=24, k=k)
    chan = sample_channel(cfg, np.random.default_rng((15, k)))
    init = PhaseVector.random(cfg.n, cfg.alpha, np.random.default_rng((16, k)))
    if step == "max-min":
        def run():
            return lse_max_min_phase(chan, init, cfg.p_cap, cfg.sigma2)
    else:
        def run():
            return lse_gradient_phase(chan, np.linspace(0.1, cfg.p_max, k), init, cfg.sigma2)
    _same_lse_bits(*_same_climbs(monkeypatch, run))


@needs_setulb
def test_the_direct_climb_stops_at_minimizes_iteration_budget(monkeypatch):
    cfg = SystemConfig(m=12, n=24, k=6)
    chan = sample_channel(cfg, np.random.default_rng((15, 0)))
    init = PhaseVector.random(cfg.n, cfg.alpha, np.random.default_rng((16, 0)))
    monkeypatch.setattr(phase_module, "LSE_MAX_ITERS", 2)
    direct, fallback = _same_climbs(
        monkeypatch, lambda: lse_max_min_phase(chan, init, cfg.p_cap, cfg.sigma2))
    _same_lse_bits(direct, fallback)
    assert direct.iterations == 2 and not direct.converged


@needs_setulb
def test_the_direct_climb_takes_an_infinite_objective_as_minimize_does(monkeypatch):
    """A quadratic bowl whose floor lies where the objective is infinite: both
    paths step into the infinite region, back off it the same way and stop
    at its edge."""
    values = []

    def bowl(theta):
        if theta.max() > 2.0:
            values.append(np.inf)
            return np.inf, np.zeros_like(theta)
        values.append(float(np.sum((theta - 3.0) ** 2)))
        return values[-1], 2.0 * (theta - 3.0)

    _same_climbs(monkeypatch, lambda: phase_module._lbfgsb_climb(bowl, np.zeros(4)))
    assert np.inf in values


@needs_setulb
def test_the_direct_climb_fails_a_line_search_as_minimize_does(monkeypatch):
    """A gradient of the wrong sign points every line search uphill: both
    paths give up after the start and _LBFGSB_MAXLS trial steps, before
    the first iteration, unconverged."""
    def uphill(theta):
        return float(np.sum((theta - 1.0) ** 2)), -2.0 * (theta - 1.0)

    _same_climbs(monkeypatch, lambda: phase_module._lbfgsb_climb(uphill, np.zeros(4)))
    assert phase_module._lbfgsb_climb(uphill, np.zeros(4)) == (0, False, 1 + phase_module._LBFGSB_MAXLS)


@needs_setulb
def test_the_direct_climb_stops_at_minimizes_evaluation_budget(monkeypatch):
    """With the evaluation budget cut to 5, both paths stop after the
    iteration in which the count first exceeds it, unconverged."""
    scale = np.geomspace(1.0, 1e3, 6)

    def valley(theta):
        return float(scale @ (theta - 1.0) ** 2), 2.0 * scale * (theta - 1.0)

    monkeypatch.setattr(phase_module, "_LBFGSB_MAXFUN", 5)
    _same_climbs(monkeypatch, lambda: phase_module._lbfgsb_climb(valley, np.zeros(6)))
    iterations, converged, evaluations = phase_module._lbfgsb_climb(valley, np.zeros(6))
    assert not converged and evaluations > 5 and iterations < LSE_MAX_ITERS


def test_setulb_binds_from_its_extension_file_and_scipy_optimize_imports_after():
    """In a fresh interpreter the binding loads setulb from its extension file
    alone. scipy.optimize imports afterwards, its L-BFGS-B minimize runs, and a
    second lse step returns the first one's bits."""
    script = """
import json, sys
import numpy as np
from ris_maxmin import PhaseVector, SystemConfig, sample_channel
from ris_maxmin.phase import _bind_setulb, lse_max_min_phase
cfg = SystemConfig(m=12, n=24, k=2)
chan = sample_channel(cfg, np.random.default_rng((15, 2)))
init = PhaseVector.random(cfg.n, cfg.alpha, np.random.default_rng((16, 2)))
def step():
    out = lse_max_min_phase(chan, init, cfg.p_cap, cfg.sigma2)
    return [out.phase.theta.tobytes().hex(), out.min_sinr.hex(), out.iterations, out.evaluations]
first = step()
report = {"bound": _bind_setulb() is not None, "imported": "scipy.optimize" in sys.modules,
          "entry": "scipy.optimize._lbfgsb" in sys.modules, "first": first}
import scipy.optimize
out = scipy.optimize.minimize(lambda x: (float(((x - 1) ** 2).sum()), 2 * (x - 1)), np.zeros(3),
                              jac=True, method="L-BFGS-B")
report.update(minimized=bool(out.success) and np.allclose(out.x, 1), second=step())
print(json.dumps(report))
"""
    report = json.loads(run_fresh(script))
    if not report["bound"]:
        pytest.skip("setulb does not bind, so every climb runs scipy.optimize.minimize")
    assert not report["imported"] and not report["entry"]
    assert report["minimized"]
    assert report["second"] == report["first"] and report["first"][2] > 0


@needs_setulb
def test_setulb_binds_from_an_imported_scipy_optimize(monkeypatch):
    """Where scipy.optimize is imported, the binding takes its setulb and
    loads no file."""
    import scipy.optimize._lbfgsb

    monkeypatch.setattr(phase_module, "_load_lbfgsb", lambda: pytest.fail("loaded from the file"))
    assert phase_module._bind_setulb.__wrapped__() is scipy.optimize._lbfgsb.setulb


@pytest.mark.parametrize("case", ["no file", "broken file", "another signature"])
def test_setulb_misses_bind_nothing(monkeypatch, tmp_path, case):
    """A scipy directory without the extension file, a file that does not
    load, and a setulb with another docstring (scipy 1.14's) all leave the
    climb on scipy.optimize.minimize, and no sys.modules entry."""
    monkeypatch.delitem(sys.modules, "scipy.optimize._lbfgsb", raising=False)
    if case == "another signature":
        def setulb():
            """setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,iprint,csave,lsave,isave,dsave,maxls)"""
        monkeypatch.setitem(sys.modules, "scipy.optimize._lbfgsb", types.SimpleNamespace(setulb=setulb))
    else:
        (tmp_path / "optimize").mkdir()
        if case == "broken file":
            suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
            (tmp_path / "optimize" / f"_lbfgsb{suffix}").write_bytes(b"not a shared object")
        scipy_spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        scipy_spec.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name, package=None: scipy_spec)
    assert phase_module._bind_setulb.__wrapped__() is None
    assert ("scipy.optimize._lbfgsb" in sys.modules) == (case == "another signature")


def test_lse_counts_the_reference_chains_evaluations():
    """The evaluation count of lse_max_min_phase is scipy's nfev on the
    reference chain, which climbs through scipy.optimize.minimize."""
    cfg = SystemConfig(m=12, n=24, k=6)
    chan = sample_channel(cfg, np.random.default_rng((15, 0)))
    init = PhaseVector.random(cfg.n, cfg.alpha, np.random.default_rng((16, 0)))
    ours = lse_max_min_phase(chan, init, cfg.p_cap, cfg.sigma2)
    reference = oracles.reference_lse_max_min_phase(chan, init, cfg.p_cap, cfg.sigma2)
    assert ours.evaluations == reference.evaluations > 0


@pytest.mark.parametrize("path", [DIRECT, "minimize"])
@pytest.mark.parametrize("step", ["max-min", "frozen-power"])
def test_lse_counts_one_evaluation_per_tangent_call_of_its_climb(monkeypatch, rng, path, step):
    """Each evaluation calls the step's tangent once; the max-min step calls it
    once more, at the initial phase, before it climbs."""
    chan = synth_channel(rng, 3, 5, 3)
    phase = random_phase(rng, 5)
    caps = rng.uniform(0.2, 1.0, 3)
    name = "max_min_sinr_tangent" if step == "max-min" else "sinr_phase_tangent"
    tangent, calls = getattr(phase_module, name), []

    def counted(*args, **kwargs):
        calls.append(args)
        return tangent(*args, **kwargs)

    monkeypatch.setattr(phase_module, name, counted)
    if path == "minimize":
        monkeypatch.setattr(phase_module, "_bind_setulb", lambda: None)
    if step == "max-min":
        out = lse_max_min_phase(chan, phase, caps, 1.0)
        assert out.evaluations == len(calls) - 1 > 0
    else:
        out = lse_gradient_phase(chan, caps, phase, 1.0)
        assert out.evaluations == len(calls) > 0
