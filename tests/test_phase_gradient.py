import warnings

import numpy as np
import pytest
import scipy.optimize

from ris_maxmin import (ChannelRealization, PhaseVector, effective_channel,
                        lse_gradient_phase, sinr_phase_tangent)
from ris_maxmin.errors import NumericError
from ris_maxmin.phase import (LSE_MAX_ITERS, lse_max_min_phase,
                              max_min_sinr_tangent)
from ris_maxmin.power import mmse_max_min_power

from conftest import random_phase, synth_channel
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
    assert out.iterations == 0 and not out.converged
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
        assert np.all(out.power.p <= caps)
        realized = post_bf_sinr(chan, out.phase, out.power, 1.0).minimum
        assert realized == pytest.approx(out.min_sinr, rel=1e-10)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("step", ["max-min", "frozen-power"])
def test_a_non_finite_solver_iterate_is_a_numeric_error(monkeypatch, rng, step, bad):
    """An L-BFGS-B iterate with a non-finite angle reaches the MMSE kernel's
    finite check and fails as a NumericError (the CLI's exit 2), not as a
    ConfigurationError of the phase it is built into. A nan angle gets there
    silently; an infinite one after np.mod's invalid-value warning."""
    chan = synth_channel(rng, 3, 4, 2)
    phase = random_phase(rng, 4)

    def minimize(fun, x0, **_):
        x = x0.copy()
        x[2] = bad
        return fun(x)

    monkeypatch.setattr(scipy.optimize, "minimize", minimize)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericError, match="effective channel contains non-finite entries"):
            if step == "max-min":
                lse_max_min_phase(chan, phase, np.array([0.5, 0.5]), 1.0)
            else:
                lse_gradient_phase(chan, np.array([0.5, 0.5]), phase, 1.0)
    expected = [] if np.isnan(bad) else ["invalid value encountered in remainder"]
    assert sorted({str(w.message) for w in caught}) == expected
