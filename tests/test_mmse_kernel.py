"""The shared MMSE kernel against the per-user route it replaces.

The oracle solves S_j + sigma2*I for every user j on its own with
numpy.linalg.solve, independently of the kernel's one shared factorization.

The strong user's channel lies along the first antenna axis. With a
generic direction, the matrices of the other users carry that user's huge
term in every entry, and at a condition number of 1e8 any double-precision
route, the oracle included, is only good to about 1e-8; the axis keeps both
routes at full precision, so the comparison can be held to 1e-9 and
isolates the one cancellation the kernel adds, 1 - p_k q_k at high SINR.
"""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ris_maxmin.beamforming as beamforming
import ris_maxmin.power as power
from ris_maxmin import (ChannelRealization, LseOptions, PhaseVector,
                        SystemConfig, alternating_optimize, effective_channel,
                        effective_power_cap, mmse_max_min_power,
                        optimal_beamformers, sample_channel)
from ris_maxmin.beamforming import post_bf_sinr_values
from ris_maxmin.phase import _derivative_terms

from conftest import complex_normal

RTOL = 1e-9


def per_user_oracle(g, p, sigma2):
    """(directions, sinr, couplings) from one dense solve per user."""
    m, k = g.shape
    solved = []
    for j in range(k):
        others = np.delete(np.arange(k), j)
        s_j = (g[:, others] * p[others]) @ g[:, others].conj().T + sigma2 * np.eye(m)
        solved.append(np.linalg.solve(s_j, g))                  # T_j g_i for all i
    couplings = np.array([g[:, j].conj() @ t for j, t in enumerate(solved)])
    directions = np.column_stack([t[:, j] for j, t in enumerate(solved)])
    return directions, p * np.real(np.diagonal(couplings)), couplings


def derivative_oracle(chan, g, p, phase, sigma2):
    """The per-user loop of sinr_phase_derivative on the oracle's quantities."""
    directions, _, couplings = per_user_oracle(g, p, sigma2)
    cascade = chan.cascade_matrix()
    deriv = np.zeros((p.size, chan.n), dtype=complex)
    for j in range(p.size):
        weights = -p * couplings[j]
        weights[j] = 1.0
        deriv[j] = p[j] * phase.alpha * (weights @ chan.h2.conj()) * (cascade.conj().T @ directions[:, j])
    return deriv


def strong_user_case(seed, m, k, log_sinr, zero_user):
    """Channel, phase and exposure-capped powers with user 0 near SINR 10**log_sinr.

    User 0's effective channel is along the first antenna axis; the others
    are generic at SNRs near 1. With ``zero_user`` the last user (k >= 2)
    has a zero effective channel.
    """
    rng = np.random.default_rng(seed)
    n = m + 2
    h1 = complex_normal(rng, (m, n))
    phase = PhaseVector.random(n, float(rng.uniform(0.5, 1.0)), rng)
    h2 = complex_normal(rng, (k, n)) * 10 ** rng.uniform(-0.5, 0.5, (k, 1)) / np.sqrt(m * n)
    # a direction that rows 1..m-1 of h1 annihilate, seen through the phases
    v = np.linalg.svd(h1[1:], full_matrices=True)[2][-1].conj() if m > 1 else h1[0].conj()
    h2[0] = v / phase.phi_vec
    if zero_user and k >= 2:
        h2[-1] = 0.0
    sar = rng.uniform(1e-3, 1e-2, k)
    p = effective_power_cap(1.0, sar, sar * rng.uniform(0.2, 2.0, k))
    h2[0] *= np.sqrt(10 ** log_sinr / p[0]) / abs(h1[0] @ v)
    chan = ChannelRealization(h1=h1, ris_corr_sqrt=np.eye(n), h2=h2,
                              user_positions=np.zeros((k, 2)))
    return chan, phase, p


def assert_rows_close(actual, expected, rtol):
    """Each row within rtol of its own largest oracle entry; zero rows exactly."""
    scale = np.max(np.abs(expected), axis=1)
    err = np.max(np.abs(actual - expected), axis=1)
    assert np.all(err <= rtol * scale), (err / np.where(scale > 0, scale, 1.0)).max()


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), m=st.integers(1, 6), k=st.integers(1, 5),
       log_sinr=st.floats(-3.0, 8.0), zero_user=st.booleans())
@example(seed=1, m=2, k=4, log_sinr=0.0, zero_user=False)
@example(seed=2, m=2, k=4, log_sinr=8.0, zero_user=True)
@example(seed=3, m=5, k=3, log_sinr=8.0, zero_user=False)
@example(seed=4, m=1, k=3, log_sinr=-3.0, zero_user=True)
def test_kernel_matches_per_user_oracle(seed, m, k, log_sinr, zero_user):
    chan, phase, p = strong_user_case(seed, m, k, log_sinr, zero_user)
    sigma2 = 1.0
    g = effective_channel(chan, phase)
    directions, sinr, couplings = per_user_oracle(g, p, sigma2)

    with mock.patch.object(beamforming, "interference_cholesky",
                           wraps=beamforming.interference_cholesky) as fallback:
        state = beamforming._mmse_state(g, p, sigma2)
    # the slack 1/(1+SINR) is below SLACK_FALLBACK exactly above SINR 1/SLACK_FALLBACK - 1
    if sinr.max() > 2.0 / beamforming.SLACK_FALLBACK:
        assert fallback.call_count == 1
    if sinr.max() < 0.5 / beamforming.SLACK_FALLBACK:
        assert fallback.call_count == 0

    assert np.all(np.abs(state.sinr - sinr) <= RTOL * sinr)
    assert_rows_close(state.couplings, couplings, RTOL)
    assert_rows_close(state.directions.T, directions.T, RTOL)
    assert np.array_equal(post_bf_sinr_values(g, p, sigma2), state.sinr)

    deriv, deriv_sinr, deriv_couplings = _derivative_terms(chan, g, p, phase, sigma2)
    assert_rows_close(deriv, derivative_oracle(chan, g, p, phase, sigma2), RTOL)
    assert np.array_equal(deriv_sinr, state.sinr)
    assert np.array_equal(deriv_couplings, state.couplings)

    rows = optimal_beamformers(chan, phase, p, sigma2).rows
    live = np.linalg.norm(g, axis=0) > 0
    oracle_rows = directions.T[live] / np.linalg.norm(directions.T[live], axis=1, keepdims=True)
    alignment = np.abs(np.sum(rows[live].conj() * oracle_rows, axis=1))
    assert np.all(np.abs(alignment - 1.0) <= RTOL)
    if zero_user and k >= 2:
        assert np.array_equal(rows[-1], np.eye(m)[0])
        assert state.sinr[-1] == 0.0
        assert not np.any(state.couplings[-1])


def test_fallback_rescues_the_cancelled_slack():
    """At SINR 1e8 the Sherman-Morrison slack keeps about 8 fewer digits."""
    chan, phase, p = strong_user_case(5, 4, 3, 8.0, False)
    g = effective_channel(chan, phase)
    _, sinr, _ = per_user_oracle(g, p, 1.0)
    assert sinr[0] > 1e7
    with mock.patch.object(beamforming, "interference_cholesky",
                           wraps=beamforming.interference_cholesky) as fallback:
        state = beamforming._mmse_state(g, p, 1.0)
    assert fallback.call_count == 1
    assert abs(state.sinr[0] / sinr[0] - 1.0) <= RTOL


def test_mmse_fixed_point_stops_well_before_the_budget(monkeypatch):
    """The 1e-14 stop rule fires in tens of steps, not at FIXED_POINT_MAX_ITER."""
    cfg = SystemConfig(m=12, n=24, k=6)
    rng = np.random.default_rng(20240817)
    cap = effective_power_cap(cfg.p_max, cfg.sar_ref, cfg.emf_max)
    calls = []
    original = power.post_bf_sinr_values

    def counted(g, p, sigma2):
        calls.append(1)
        return original(g, p, sigma2)

    monkeypatch.setattr(power, "post_bf_sinr_values", counted)
    steps = []
    for _ in range(8):
        chan = sample_channel(cfg, rng)
        phase = PhaseVector.random(cfg.n, cfg.alpha, rng)
        calls.clear()
        cold = mmse_max_min_power(effective_channel(chan, phase), cap, cfg.sigma2)
        steps.append(len(calls))
        nearby = PhaseVector(theta=phase.theta + 1e-3 * rng.standard_normal(cfg.n), alpha=cfg.alpha)
        calls.clear()
        warm = mmse_max_min_power(effective_channel(chan, nearby), cap, cfg.sigma2,
                                  start=cold.power.p)
        steps.append(len(calls))
        assert not (cold.degenerate or warm.degenerate)
    assert max(steps) <= 50, steps


def test_unconverged_lse_step_is_reported():
    cfg = SystemConfig(m=4, n=6, k=3)
    chan = sample_channel(cfg, np.random.default_rng(40))
    sol = alternating_optimize(cfg, chan, "lse", np.random.default_rng(41),
                               phase_options=LseOptions(max_iters=1))
    unconverged = [d for d in sol.diagnostics if "lse phase step stopped unconverged" in d]
    assert unconverged
    assert unconverged[0].startswith("sweep 1: ")
    assert "after 1 iterations" in unconverged[0]
