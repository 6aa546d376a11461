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
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ris_maxmin.alternating as alternating
import ris_maxmin.beamforming as beamforming
import ris_maxmin.phase as phase_module
import ris_maxmin.power as power
from ris_maxmin import (ChannelRealization, NumericError, PhaseVector,
                        SystemConfig, alternating_optimize, effective_channel,
                        effective_power_cap, optimal_beamformers,
                        sample_channel)
from ris_maxmin.core import _trusted
from ris_maxmin.phase import (_derivative_terms, _predicted_start,
                              lse_max_min_phase, max_min_sinr_tangent)
from ris_maxmin.power import mmse_max_min_power

import oracles
from conftest import complex_normal, synth_channel

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
    """The per-user loop of the Wirtinger derivative of sinr_phase_tangent on
    the oracle's quantities."""
    directions, _, couplings = per_user_oracle(g, p, sigma2)
    cascade = chan.cascade
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
        state = beamforming.post_bf_sinr_values(g, p, sigma2)
    # the slack 1/(1+SINR) is below SLACK_FALLBACK exactly above SINR 1/SLACK_FALLBACK - 1
    if sinr.max() > 2.0 / beamforming.SLACK_FALLBACK:
        assert fallback.call_count == 1
    if sinr.max() < 0.5 / beamforming.SLACK_FALLBACK:
        assert fallback.call_count == 0

    assert np.all(np.abs(state.sinr - sinr) <= RTOL * sinr)
    assert_rows_close(state.couplings, couplings, RTOL)
    assert_rows_close(state.directions.T, directions.T, RTOL)

    deriv = _derivative_terms(chan, p, phase, state)
    assert_rows_close(deriv, derivative_oracle(chan, g, p, phase, sigma2), RTOL)

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
        state = beamforming.post_bf_sinr_values(g, p, 1.0)
    assert fallback.call_count == 1
    assert abs(state.sinr[0] / sinr[0] - 1.0) <= RTOL


@pytest.mark.parametrize("m, k", [(4, 3), (4, 5), (2, 4)])
def test_fallback_factors_only_the_users_that_need_it(monkeypatch, m, k):
    """With one user above SINR 1/SLACK_FALLBACK, a kernel call factors the
    shared matrix and that user's interference matrix: 2 factorizations in
    all, whichever LAPACK route they take, not 1 + k."""
    chan, phase, p = strong_user_case(11, m, k, 8.0, False)
    g = effective_channel(chan, phase)
    _, sinr, _ = per_user_oracle(g, p, 1.0)
    assert sinr[0] > 2.0 / beamforming.SLACK_FALLBACK
    assert np.all(sinr[1:] < 0.5 / beamforming.SLACK_FALLBACK)

    factorizations = []

    def counted(original):
        def call(*args, **kwargs):
            factorizations.append(1)
            return original(*args, **kwargs)
        return call

    monkeypatch.setattr(beamforming.lapack, "zpotrf", counted(beamforming.lapack.zpotrf))
    monkeypatch.setattr(scipy.linalg, "cho_factor", counted(scipy.linalg.cho_factor))
    with mock.patch.object(beamforming, "interference_cholesky",
                           wraps=beamforming.interference_cholesky) as fallback:
        state = beamforming.post_bf_sinr_values(g, p, 1.0)
    assert fallback.call_count == 1
    assert len(factorizations) == 2
    assert np.all(np.abs(state.sinr - sinr) <= RTOL * sinr)


def _cold_and_warm_steps(monkeypatch):
    """Fixed-point steps of mmse_max_min_power on 8 headline draws: per draw,
    a cold call from the caps, then a call warm-started from its powers at
    a phase 1e-3 away. Returns (cold steps, warm steps)."""
    cfg = SystemConfig(m=12, n=24, k=6)
    rng = np.random.default_rng(20240817)
    cap = effective_power_cap(cfg.p_max, cfg.sar_ref, cfg.emf_max)
    calls = []
    original = power.post_bf_sinr_values

    def counted(g, p, sigma2):
        calls.append(1)
        return original(g, p, sigma2)

    monkeypatch.setattr(power, "post_bf_sinr_values", counted)
    cold_steps, warm_steps = [], []
    for _ in range(8):
        chan = sample_channel(cfg, rng)
        phase = PhaseVector.random(cfg.n, cfg.alpha, rng)
        calls.clear()
        cold = mmse_max_min_power(effective_channel(chan, phase), cap, cfg.sigma2)
        cold_steps.append(len(calls))
        nearby = PhaseVector(theta=phase.theta + 1e-3 * rng.standard_normal(cfg.n), alpha=cfg.alpha)
        calls.clear()
        warm = mmse_max_min_power(effective_channel(chan, nearby), cap, cfg.sigma2,
                                  start=cold.power.p)
        warm_steps.append(len(calls))
        assert not (cold.degenerate or warm.degenerate)
    return cold_steps, warm_steps


def test_mmse_fixed_point_stops_well_before_the_budget(monkeypatch):
    """The balance stop rule fires in tens of steps, not at FIXED_POINT_MAX_ITER."""
    steps = sum(_cold_and_warm_steps(monkeypatch), [])
    assert max(steps) <= 50, steps


def test_mmse_newton_steps_need_few_factorizations(monkeypatch):
    """Newton steps on the balance equations converge quadratically: a cold
    call factors at most 8 operating points and a warm one at most 4 (the
    normalized fixed-point step alone takes 14-20 and 11-15 on these draws)."""
    cold, warm = _cold_and_warm_steps(monkeypatch)
    assert max(cold) <= 8, cold
    assert max(warm) <= 4, warm


def test_max_min_tangent_reuses_the_fixed_point_factorization(monkeypatch):
    """The tangent factors nothing beyond the fixed point's own steps."""
    cfg = SystemConfig(m=12, n=24, k=6)
    rng = np.random.default_rng(20240818)
    cap = effective_power_cap(cfg.p_max, cfg.sar_ref, cfg.emf_max)
    steps, factorizations = [], []
    original_values, original_factor = power.post_bf_sinr_values, beamforming.lapack.zpotrf

    def counted_values(g, p, sigma2):
        steps.append(1)
        return original_values(g, p, sigma2)

    def counted_factor(*args, **kwargs):
        factorizations.append(1)
        return original_factor(*args, **kwargs)

    monkeypatch.setattr(power, "post_bf_sinr_values", counted_values)
    monkeypatch.setattr(beamforming.lapack, "zpotrf", counted_factor)
    for _ in range(4):
        chan = sample_channel(cfg, rng)
        phase = PhaseVector.random(cfg.n, cfg.alpha, rng)
        steps.clear()
        factorizations.clear()
        _, result, _ = max_min_sinr_tangent(chan, phase, cap, cfg.sigma2)
        assert result.mmse_state is not None
        assert len(factorizations) == len(steps) > 0


def test_lse_tau_evaluations_start_from_the_predicted_powers(monkeypatch):
    """Inside lse_max_min_phase each tau evaluation starts from the best
    phase's powers moved along their slope, and on 8 headline draws factors
    at most 3.2 operating points on average (3.72 when each starts from the
    best phase's powers alone)."""
    cfg = SystemConfig(m=12, n=24, k=6)
    rng = np.random.default_rng(20240819)
    cap = effective_power_cap(cfg.p_max, cfg.sar_ref, cfg.emf_max)
    steps, evaluations = [], []
    original_values, original_power = power.post_bf_sinr_values, phase_module.mmse_max_min_power

    def counted_values(g, p, sigma2):
        steps.append(1)
        return original_values(g, p, sigma2)

    def counted_power(*args, **kwargs):
        evaluations.append(1)
        return original_power(*args, **kwargs)

    monkeypatch.setattr(power, "post_bf_sinr_values", counted_values)
    monkeypatch.setattr(phase_module, "mmse_max_min_power", counted_power)
    for _ in range(8):
        chan = sample_channel(cfg, rng)
        out = lse_max_min_phase(chan, PhaseVector.random(cfg.n, cfg.alpha, rng), cap, cfg.sigma2)
        assert out.warning is None
    assert len(steps) / len(evaluations) <= 3.2, (len(steps), len(evaluations))


def test_kernel_rejects_a_non_finite_channel():
    g = complex_normal(np.random.default_rng(7), (4, 3))
    g[2, 1] = np.nan
    with pytest.raises(NumericError, match="non-finite"):
        beamforming.post_bf_sinr_values(g, np.ones(3), 1.0)


def test_kernel_rejects_an_indefinite_matrix():
    """A negative power makes A = sum_i p_i g_i g_i^H + sigma2*I indefinite,
    which the factorization reports through its info code."""
    g = complex_normal(np.random.default_rng(8), (4, 3))
    with pytest.raises(NumericError, match="not positive definite"):
        beamforming.post_bf_sinr_values(g, np.array([1.0, -50.0, 1.0]), 1.0)


def test_singular_balance_system_takes_the_fixed_point_step(monkeypatch):
    """With a singular balance system there is no Newton step: the one
    solver, power._balance_system, returns None, so _newton_powers returns
    None, every step is the normalized fixed point, and the call still
    reaches the Newton optimum, with more factorizations. The tangent
    cannot solve the same system and raises."""
    rng = np.random.default_rng(9)
    g = complex_normal(rng, (3, 4))
    cap = rng.uniform(0.2, 1.0, 4)
    newton = mmse_max_min_power(g, cap, 0.5)

    calls = []
    original = power.post_bf_sinr_values

    def counted(g, p, sigma2):
        calls.append(1)
        return original(g, p, sigma2)

    def singular(a, b):
        # what LAPACK's dgesv reports for an exactly singular system: info > 0
        return a, np.zeros(len(a), dtype=np.int32), b, 1

    monkeypatch.setattr(power, "post_bf_sinr_values", counted)
    monkeypatch.setattr(power.lapack, "dgesv", singular)
    state = newton.mmse_state
    assert power._balance_system(state.couplings, newton.power.p, cap, -state.sinr) is None
    assert power._newton_powers(state, newton.power.p, cap) is None
    calls.clear()
    fixed_point = mmse_max_min_power(g, cap, 0.5)
    assert fixed_point.tau == pytest.approx(newton.tau, rel=1e-9)
    assert len(calls) > 8

    chan = synth_channel(rng, 3, 5, 4)
    with pytest.raises(np.linalg.LinAlgError):
        max_min_sinr_tangent(chan, PhaseVector.random(5, 1.0, rng), cap, 0.5)


def test_predicted_start_changes_the_steps_not_tau():
    """tau warm-started from the first-order powers equals tau from a cold
    start at the caps, for k = 1, k > m, per-user exposure caps, steps that
    switch the binding user and a prediction that falls back to the powers."""
    rng = np.random.default_rng(20240820)
    seen = set()
    for case in range(60):
        m, k, n = int(rng.integers(1, 5)), 1 + case % 6, int(rng.integers(2, 8))
        chan = synth_channel(rng, m, n, k, identity_corr=False)
        phase = PhaseVector.random(n, float(rng.uniform(0.5, 1.0)), rng)
        sar = rng.uniform(1e-3, 1e-2, k)
        cap = effective_power_cap(1.0, sar, sar * rng.uniform(0.2, 2.0, k))
        _, here, slope = max_min_sinr_tangent(chan, phase, cap, 1.0)
        moved = PhaseVector(theta=phase.theta + 10 ** rng.uniform(-4, 0) * rng.standard_normal(n),
                            alpha=phase.alpha)
        start = _predicted_start(here.power.p, slope, moved.theta - phase.theta)
        g = effective_channel(chan, moved)
        warm = mmse_max_min_power(g, cap, 1.0, start=start)
        cold = mmse_max_min_power(g, cap, 1.0)
        assert abs(warm.tau / cold.tau - 1.0) <= 1e-9, (case, warm.tau, cold.tau)
        cases = {"k=1": k == 1, "k>m": k > m, "fallback": start is here.power.p,
                 "switch": np.argmax(here.power.p / cap) != np.argmax(cold.power.p / cap)}
        seen.update(name for name, hit in cases.items() if hit)
    assert seen == {"k=1", "k>m", "switch", "fallback"}


def test_unconverged_lse_step_is_reported(monkeypatch):
    cfg = SystemConfig(m=4, n=6, k=3)
    chan = sample_channel(cfg, np.random.default_rng(40))
    monkeypatch.setattr("ris_maxmin.phase.LSE_MAX_ITERS", 1)
    sol = alternating_optimize(cfg, chan, "lse", np.random.default_rng(41))
    unconverged = [d for d in sol.diagnostics if "lse phase step stopped unconverged" in d]
    assert unconverged
    assert unconverged[0].startswith("sweep 1: ")
    assert "after 1 iterations" in unconverged[0]


def _tau_chain_cases():
    """(name, chan, phase, cap, start) for the reference comparisons: k=1,
    k > m, per-user exposure caps with a warm start, a user above SINR 1e5
    (the kernel's own-factorization fallback) and a zero effective channel."""
    rng = np.random.default_rng(20240821)
    cases = []
    chan = synth_channel(rng, 3, 5, 1)
    cases.append(("k=1", chan, PhaseVector.random(5, 0.9, rng), np.array([0.7]), None))
    chan = synth_channel(rng, 2, 6, 5, identity_corr=False)
    cases.append(("k>m", chan, PhaseVector.random(6, 1.0, rng), rng.uniform(0.2, 1.0, 5), None))
    chan = synth_channel(rng, 4, 6, 3)
    sar = rng.uniform(1e-3, 1e-2, 3)
    cap = effective_power_cap(1.0, sar, sar * rng.uniform(0.2, 2.0, 3))
    cases.append(("exposure-caps-warm-start", chan, PhaseVector.random(6, 0.8, rng), cap,
                  cap * rng.uniform(0.3, 1.0, 3)))
    chan, phase, cap = strong_user_case(5, 4, 3, 8.0, False)
    cases.append(("fallback-user", chan, phase, cap, None))
    chan, phase, cap = strong_user_case(6, 3, 3, 0.0, True)
    cases.append(("zero-column", chan, phase, cap, None))
    return cases


@pytest.mark.parametrize("case", range(5), ids=[c[0] for c in _tau_chain_cases()])
def test_tau_chain_matches_the_reference_bit_for_bit(case):
    """mmse_max_min_power and max_min_sinr_tangent give the reference chain's
    bits: powers, tau, flag, factorization, gradient and power slope."""
    name, chan, phase, cap, start = _tau_chain_cases()[case]
    sigma2 = 1.0
    g = effective_channel(chan, phase)
    with mock.patch.object(beamforming, "interference_cholesky",
                           wraps=beamforming.interference_cholesky) as fallback:
        result = mmse_max_min_power(g, cap, sigma2, start=start)
    expected = oracles.reference_mmse_max_min_power(g, cap, sigma2, start=start)
    assert (name == "fallback-user") == (fallback.call_count > 0)
    assert (name == "zero-column") == result.degenerate == expected.degenerate
    assert result.tau == expected.tau
    assert np.array_equal(result.power.p, expected.power.p)
    if not result.degenerate:
        for field in ("directions", "sinr", "couplings"):
            assert np.array_equal(getattr(result.mmse_state, field),
                                  getattr(expected.mmse_state, field)), field

    gradient, result, slope = max_min_sinr_tangent(chan, phase, cap, sigma2, start=start)
    ref_gradient, expected, ref_slope = oracles.reference_max_min_sinr_tangent(
        chan, phase, cap, sigma2, start=start)
    assert np.array_equal(gradient, ref_gradient)
    assert np.array_equal(slope, ref_slope)
    assert result.tau == expected.tau
    assert np.array_equal(result.power.p, expected.power.p)


def _same_lse_result(actual, expected):
    assert np.array_equal(actual.phase.theta, expected.phase.theta)
    assert actual.phase.alpha == expected.phase.alpha
    assert actual.min_sinr == expected.min_sinr
    assert (actual.iterations, actual.converged, actual.warning) == \
        (expected.iterations, expected.converged, expected.warning)
    assert np.array_equal(actual.power.p, expected.power.p)


@pytest.mark.parametrize("draw", [0, 1])
def test_lse_matches_the_reference_chain_bit_for_bit(monkeypatch, draw):
    """On two headline draws, lse_max_min_phase gives every LseResult field of
    the reference chain, and an lse run of the loop every Solution field
    (wall time aside) of the same run on the reference chain."""
    cfg = SystemConfig(m=12, n=24, k=6)
    chan = sample_channel(cfg, np.random.default_rng((15, draw)))
    cap = effective_power_cap(cfg.p_max, cfg.sar_ref, cfg.emf_max)
    init = PhaseVector.random(cfg.n, cfg.alpha, np.random.default_rng((16, draw)))
    _same_lse_result(lse_max_min_phase(chan, init, cap, cfg.sigma2),
                     oracles.reference_lse_max_min_phase(chan, init, cap, cfg.sigma2))

    solution = alternating_optimize(cfg, chan, "lse", np.random.default_rng((17, draw)))
    monkeypatch.setattr(alternating, "lse_max_min_phase", oracles.reference_lse_max_min_phase)
    expected = alternating_optimize(cfg, chan, "lse", np.random.default_rng((17, draw)))
    for name in ("bf", "power", "phase", "report"):
        ours, theirs = getattr(solution, name), getattr(expected, name)
        for field, value in vars(ours).items():
            same = (np.array_equal(value, getattr(theirs, field)) if isinstance(value, np.ndarray)
                    else value == getattr(theirs, field))
            assert same, (name, field)
    for name in ("iterations", "method", "converged", "degenerate", "diagnostics"):
        assert getattr(solution, name) == getattr(expected, name), name
    assert np.array_equal(solution.p_cap, expected.p_cap)


@pytest.mark.parametrize("entry", ["mmse_max_min_power", "max_min_sinr_tangent",
                                   "optimal_beamformers", "lse_max_min_phase"])
def test_a_non_finite_effective_channel_raises_at_every_entry(entry):
    """A nan phase angle makes a nan effective channel; every entry into the
    MMSE kernel reports it as a NumericError. PhaseVector refuses a nan
    angle, so the phase is built unchecked, as an lse solver iterate is."""
    rng = np.random.default_rng(12)
    chan = synth_channel(rng, 4, 5, 3)
    theta = rng.uniform(0.0, 2.0 * np.pi, 5)
    theta[2] = np.nan
    phase = _trusted(PhaseVector, theta=theta, alpha=1.0)
    cap = np.array([1.0, 0.5, 0.8])
    calls = {
        "mmse_max_min_power": lambda: mmse_max_min_power(effective_channel(chan, phase), cap, 0.5),
        "max_min_sinr_tangent": lambda: max_min_sinr_tangent(chan, phase, cap, 0.5),
        "optimal_beamformers": lambda: optimal_beamformers(chan, phase, cap, 0.5),
        "lse_max_min_phase": lambda: lse_max_min_phase(chan, phase, cap, 0.5),
    }
    with pytest.raises(NumericError, match="non-finite"):
        calls[entry]()
