import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_maxmin import (ConfigurationError, DomainError, GainTable, NumericError,
                        PhaseVector, SystemConfig, effective_channel,
                        effective_power_cap, max_min_power, sample_channel)
from ris_maxmin import power
from ris_maxmin.beamforming import mmse_combiners, post_bf_sinr_values
from ris_maxmin.power import gain_table, mmse_max_min_power

from conftest import complex_normal, random_beamformer, random_phase, synth_channel
from oracles import post_bf_sinr

ORACLE_MAX_ITER = 20000
ORACLE_STEP_RTOL = 1e-14
ORACLE_ATOL = 1e-10


def _fixed_point(f, n, cap, tau):
    """Feasibility oracle: run the capped interference iteration from p = 0.

    p_k <- min(cap_k, tau * (sum_{i != k} p_i f[k, i] + n_k) / f[k, k]) is
    monotone nondecreasing, and tau is feasible exactly when its fixed point
    meets every SINR target within the caps. Returns (p, feasible);
    non-convergence within ORACLE_MAX_ITER steps counts as infeasible.
    """
    diag = np.diagonal(f)
    # the interference summed without the direct term, whose digits would
    # otherwise cancel at high SINR and keep the iterates jittering
    cross = f - np.diag(diag)
    p = np.zeros_like(cap)
    for _ in range(ORACLE_MAX_ITER):
        p_new = np.minimum(cap, tau * (cross @ p + n) / diag)
        if np.max(np.abs(p_new - p)) <= ORACLE_ATOL:
            required = tau * (cross @ p_new + n) / diag
            return p_new, bool(np.all(required <= cap * (1.0 + 1e-9)))
        p = p_new
    return p, False


def grid_search_two_users(f, n, caps, points=2000):
    """Dense grid oracle for the K=2 max-min problem."""
    p1 = np.linspace(0.0, caps[0], points)
    p2 = np.linspace(0.0, caps[1], points)
    s1 = f[0, 0] * p1[:, None] / (f[0, 1] * p2[None, :] + n[0])
    s2 = f[1, 1] * p2[None, :] / (f[1, 0] * p1[:, None] + n[1])
    return np.minimum(s1, s2).max()


def random_gain_table(rng, k):
    f = rng.uniform(0.0, 1.0, (k, k))
    f[np.arange(k), np.arange(k)] = rng.uniform(0.5, 2.0, k)
    return GainTable(f=f, n=rng.uniform(0.1, 1.0, k))


def test_gain_table_entries(rng):
    chan = synth_channel(rng, 3, 4, 2)
    phase = random_phase(rng, 4)
    bf = random_beamformer(rng, 2, 3)
    table = gain_table(chan, phase, bf, sigma2=0.8)
    from ris_maxmin import effective_channel
    g = effective_channel(chan, phase)
    for k in range(2):
        for i in range(2):
            assert table.f[k, i] == pytest.approx(abs(np.vdot(bf.rows[k], g[:, i])) ** 2, rel=1e-12)
        assert table.n[k] == pytest.approx(0.8 * np.linalg.norm(bf.rows[k]) ** 2, rel=1e-12)


def test_single_user_takes_cap():
    table = GainTable(f=np.array([[2.0]]), n=np.array([0.5]))
    result = max_min_power(table, np.array([0.4]))
    assert result.power.p[0] == pytest.approx(0.4, rel=1e-9)
    assert result.tau == pytest.approx(0.4 * 2.0 / 0.5, rel=1e-8)
    assert not result.degenerate


def test_decoupled_users_reach_the_bottleneck_optimum():
    f = np.diag([1.0, 2.0, 4.0])
    n = np.array([0.5, 0.5, 1.0])
    caps = np.array([0.3, 0.4, 0.2])
    result = max_min_power(GainTable(f=f, n=n), caps)
    # tau is pinned by the bottleneck user; that user transmits at its cap.
    # Among the tied optima the minimal-power vector is returned, so the
    # other users sit below cap at exactly tau.
    assert result.tau == pytest.approx(min(caps * np.diag(f) / n), rel=1e-8)
    bottleneck = int(np.argmin(caps * np.diag(f) / n))
    assert result.power.p[bottleneck] == pytest.approx(caps[bottleneck], rel=1e-8)
    sinr = np.diag(f) * result.power.p / n
    assert np.allclose(sinr, result.tau, rtol=1e-8)


def test_a_degenerate_tau_point_carries_the_factorization_of_its_caps(rng):
    # user 1's effective channel is zero: tau is 0 at the caps, and the caps'
    # factorization gives that user the first standard basis vector
    g = complex_normal(rng, (4, 3))
    g[:, 1] = 0.0
    caps = np.array([0.5, 0.8, 0.3])
    result = mmse_max_min_power(g, caps, 1.0)
    assert result.degenerate and result.tau == 0.0
    assert np.array_equal(result.power.p, caps)
    expected = post_bf_sinr_values(g, caps, 1.0)
    for field in ("directions", "sinr", "couplings"):
        assert np.array_equal(getattr(result.mmse_state, field), getattr(expected, field)), field
    rows = mmse_combiners(result.mmse_state).rows
    assert np.array_equal(rows[1], np.eye(4)[0])
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0)


def test_degenerate_direct_gain():
    f = np.array([[0.0, 0.1], [0.2, 1.0]])
    result = max_min_power(GainTable(f=f, n=np.array([1.0, 1.0])), np.array([0.5, 0.5]))
    assert result.degenerate
    assert result.tau == 0.0
    assert np.allclose(result.power.p, [0.5, 0.5])


def test_two_user_grid_oracle(rng):
    for _ in range(25):
        table = random_gain_table(rng, 2)
        caps = rng.uniform(0.2, 1.0, 2)
        result = max_min_power(table, caps)
        oracle = grid_search_two_users(table.f, table.n, caps)
        assert result.tau == pytest.approx(oracle, rel=1e-3)


def mmse_grid_search_two_users(g, sigma2, caps, points=2000):
    """Dense grid oracle for the K=2 max-min problem with MMSE combiners."""
    p1 = np.linspace(0.0, caps[0], points)[:, None]
    p2 = np.linspace(0.0, caps[1], points)[None, :]
    n1, n2 = np.linalg.norm(g, axis=0) ** 2
    x12 = abs(np.vdot(g[:, 0], g[:, 1])) ** 2
    # rank-one inverse identity for the two-user interference matrix
    s1 = p1 * (n1 - p2 * x12 / (sigma2 + p2 * n2)) / sigma2
    s2 = p2 * (n2 - p1 * x12 / (sigma2 + p1 * n1)) / sigma2
    return np.minimum(s1, s2).max()


def test_mmse_two_user_grid_oracle(rng):
    for _ in range(25):
        m = int(rng.integers(1, 4))
        g = complex_normal(rng, (m, 2))
        sigma2 = float(rng.uniform(0.3, 2.0))
        caps = rng.uniform(0.2, 1.0, 2)
        result = mmse_max_min_power(g, caps, sigma2)
        oracle = mmse_grid_search_two_users(g, sigma2, caps)
        assert result.tau == pytest.approx(oracle, rel=1e-3)
        # the grid points are feasible, so the optimum cannot lie below them
        assert result.tau >= oracle * (1.0 - 1e-9)
        p = result.power.p
        assert np.all(p >= 0.0) and np.all(p <= caps)
        assert np.max(p / caps) == pytest.approx(1.0, rel=1e-12)


def test_tau_equals_min_sinr_at_solution(rng):
    for k in (2, 3, 5):
        table = random_gain_table(rng, k)
        caps = rng.uniform(0.2, 1.0, k)
        result = max_min_power(table, caps)
        # tau is the table's own SINR formula at the returned powers, to the bit
        assert result.tau == table.sinr(result.power.p).min()


def test_local_perturbation_cannot_improve(rng):
    for _ in range(10):
        table = random_gain_table(rng, 3)
        caps = rng.uniform(0.2, 1.0, 3)
        result = max_min_power(table, caps)
        p = result.power.p

        def min_sinr(q):
            return (np.diag(table.f) * q / (table.f @ q - np.diag(table.f) * q + table.n)).min()

        base = min_sinr(p)
        for k in range(3):
            for sign in (1.0, -1.0):
                q = p.copy()
                q[k] = np.clip(q[k] + sign * 1e-4 * caps[k], 0.0, caps[k])
                assert min_sinr(q) <= base * (1.0 + 1e-6)


def test_monotone_in_caps(rng):
    for _ in range(10):
        table = random_gain_table(rng, 3)
        caps = rng.uniform(0.2, 1.0, 3)
        tau0 = max_min_power(table, caps).tau
        bigger = caps.copy()
        bigger[rng.integers(3)] *= 1.5
        tau1 = max_min_power(table, bigger).tau
        assert tau1 >= tau0 * (1.0 - 1e-7)


def test_fixed_point_iterates_monotone(rng):
    table = random_gain_table(rng, 3)
    caps = rng.uniform(0.5, 1.0, 3)
    tau = 0.2
    diag = np.diag(table.f)
    p = np.zeros(3)
    for _ in range(60):
        p_new = np.minimum(caps, tau * (table.f @ p - diag * p + table.n) / diag)
        assert np.all(p_new >= p - 1e-15)
        p = p_new


def test_effective_cap_reference_constants():
    cap = effective_power_cap(0.5, 63e-4, 0.0029)
    assert cap[0] == pytest.approx(0.0029 / 0.0063, rel=1e-12)
    assert cap[0] == pytest.approx(0.4603, abs=5e-5)


@settings(max_examples=100, deadline=None)
@given(p_max=st.floats(1e-3, 10.0), sar=st.floats(1e-6, 1.0), emf=st.floats(1e-6, 10.0))
def test_effective_cap_properties(p_max, sar, emf):
    cap = effective_power_cap(p_max, sar, emf)[0]
    assert cap <= p_max
    assert cap * sar <= emf * (1 + 1e-12) or cap == p_max
    assert effective_power_cap(p_max, sar, np.inf)[0] == p_max
    if sar * p_max <= emf:
        assert cap == p_max


def test_effective_cap_rejects_bad_sar():
    with pytest.raises(DomainError):
        effective_power_cap(0.5, 0.0, 1.0)


@pytest.mark.parametrize("p_max, sar, emf", [
    (0.5, 63e-4, -1.0), (-1.0, 63e-4, 0.0029), (0.5, np.nan, 0.0029),
    (0.5, 63e-4, np.nan), (np.nan, 63e-4, 0.0029),
])
def test_effective_cap_rejects_caps_that_are_not_positive(p_max, sar, emf):
    with pytest.raises(DomainError, match="power caps"):
        effective_power_cap(p_max, sar, emf)


def test_fixed_point_infeasible_tau():
    f = np.array([[1.0, 5.0], [5.0, 1.0]])
    n = np.array([1.0, 1.0])
    caps = np.array([1.0, 1.0])
    p, ok = _fixed_point(f, n, caps, tau=10.0)
    assert not ok


@st.composite
def gain_problems(draw):
    """Gain tables with k = 1..6, noise from 1e-8 to 1 and unequal caps.

    Off-diagonal gains are zero (decoupled users) or scale with the noise,
    so a small noise level means a very high SINR, and the interference stays
    within a few noise powers so the oracle's iteration converges in budget.
    """
    k = draw(st.integers(1, 6))
    level = 10.0 ** draw(st.floats(-8.0, 0.0))
    direct = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k)))
    noise = level * np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=k, max_size=k)))
    coupling = 0.0 if draw(st.booleans()) else level * draw(st.floats(0.0, 4.0))
    cross = draw(st.lists(st.floats(0.0, 1.0), min_size=k * k, max_size=k * k))
    f = coupling * np.array(cross).reshape(k, k)
    f[np.diag_indices(k)] = direct
    cap = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    return f, noise, cap


@settings(max_examples=200, deadline=None)
@given(gain_problems())
def test_closed_form_is_the_feasibility_boundary(problem):
    f, noise, cap = problem
    result = max_min_power(GainTable(f=f, n=noise), cap)
    tau, p = result.tau, result.power.p
    assert not result.degenerate
    # the oracle brackets tau within 1e-6 on either side
    assert _fixed_point(f, noise, cap, tau * (1.0 - 1e-6))[1]
    assert not _fixed_point(f, noise, cap, tau * (1.0 + 1e-6))[1]
    assert np.all(p <= cap)
    assert np.max(p / cap) == pytest.approx(1.0, rel=1e-9)
    diag = np.diagonal(f)
    sinr = diag * p / ((f - np.diag(diag)) @ p + noise)
    assert np.all(sinr >= tau * (1.0 - 1e-12))
    # the least powers that reach tau meet it with equality at every user
    assert np.allclose(sinr, tau, rtol=1e-9)


def test_mmse_tau_is_what_the_powers_reach_when_the_budget_runs_out(monkeypatch):
    cfg = SystemConfig(m=12, n=24, k=6)
    cap = effective_power_cap(cfg.p_max, cfg.sar_ref, cfg.emf_max)
    monkeypatch.setattr(power, "FIXED_POINT_MAX_ITER", 2)
    for seed in range(4):
        rng = np.random.default_rng((1, seed))
        chan = sample_channel(cfg, rng)
        phase = PhaseVector.random(cfg.n, cfg.alpha, rng)
        result = mmse_max_min_power(effective_channel(chan, phase), cap, cfg.sigma2)
        reached = post_bf_sinr(chan, phase, result.power, cfg.sigma2).minimum
        assert result.tau == pytest.approx(reached, rel=1e-12)


def _mmse_fixed_point(g, cap, sigma2):
    """Oracle for mmse_max_min_power: the tau of the normalized fixed point
    p <- I(p) / max_k(I_k(p) / cap_k), run from the caps with the library's
    budget until no power moves by more than ORACLE_STEP_RTOL of its cap;
    tau is the minimum SINR at the last powers factored."""
    p = cap.copy()
    for _ in range(power.FIXED_POINT_MAX_ITER):
        sinr = post_bf_sinr_values(g, p, sigma2).sinr
        interference = p / sinr
        p_new = np.minimum(cap, interference / np.max(interference / cap))
        if np.max(np.abs(p_new - p) / cap) <= ORACLE_STEP_RTOL:
            break
        p = p_new
    return float(sinr.min())


@st.composite
def mmse_problems(draw):
    """Unit-scale complex-normal channels with m = 1..12 and k = 1..8 (k > m
    included), noise from 0.1 to 2 and unequal caps."""
    m = draw(st.integers(1, 12))
    k = draw(st.integers(1, 8))
    g = complex_normal(np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))), (m, k))
    sigma2 = draw(st.floats(0.1, 2.0))
    cap = np.array(draw(st.lists(st.floats(0.2, 1.0), min_size=k, max_size=k)))
    return g, cap, sigma2


@settings(max_examples=200, deadline=None)
@given(mmse_problems())
def test_mmse_newton_steps_reach_the_fixed_point_optimum(problem):
    g, cap, sigma2 = problem
    result = mmse_max_min_power(g, cap, sigma2)
    oracle_tau = _mmse_fixed_point(g, cap, sigma2)
    assert not result.degenerate
    assert result.tau >= oracle_tau * (1.0 - 1e-10)
    p = result.power.p
    sinr = post_bf_sinr_values(g, p, sigma2).sinr
    assert sinr.max() / sinr.min() - 1.0 <= 1e-10
    assert np.all(p <= cap)
    assert np.any(p == cap)


def _scaled_mmse_problem(seed):
    """A harder MMSE power problem: m = 1..12, k = 1..8, complex-normal
    columns scaled by sqrt(10^U(-3, 2)), noise 10^U(-6, 0) and caps U(0.2, 1)."""
    rng = np.random.default_rng(seed)
    m, k = int(rng.integers(1, 13)), int(rng.integers(1, 9))
    g = complex_normal(rng, (m, k)) * np.sqrt(10 ** rng.uniform(-3, 2, k))
    sigma2 = 10 ** rng.uniform(-6, 0)
    return g, rng.uniform(0.2, 1.0, k), sigma2


def test_mmse_power_step_stops_once_balanced_at_high_sinr(monkeypatch):
    """At SINRs of 1e4 to 1e7 the eps * SINR rounding keeps every power step
    above a fixed fraction of the cap long after the SINRs balance, so a stop
    on the step size runs to FIXED_POINT_MAX_ITER; a stop on the balance
    itself ends within a few factorizations."""
    calls = []
    original = power.post_bf_sinr_values

    def counted(g, p, sigma2):
        calls.append(1)
        return original(g, p, sigma2)

    monkeypatch.setattr(power, "post_bf_sinr_values", counted)
    for seed in (20, 75, 132):
        g, cap, sigma2 = _scaled_mmse_problem(seed)
        calls.clear()
        result = mmse_max_min_power(g, cap, sigma2)
        sinr = result.mmse_state.sinr
        assert sinr.min() > 1e4
        assert len(calls) <= 20, (seed, len(calls))
        assert sinr.max() / sinr.min() - 1.0 <= 1e-9
        assert result.tau == sinr.min()
        assert np.array_equal(original(g, result.power.p, sigma2).sinr, sinr)


def _probe_problem():
    """A 4 x 3 channel with unequal caps: every bad input below rides on it."""
    g = complex_normal(np.random.default_rng(31), (4, 3))
    return g, np.array([1.0, 0.5, 0.8]), 0.5


@pytest.mark.parametrize("start, cap, noise", [
    ((0.0, 1.0, 1.0), None, None),             # a zero start power: 0/0 steps, tau 0
    ((-1.0, 1.0, 1.0), None, None),            # a negative one: an indefinite factorization
    ((1.0, 1.0), None, None),                  # the wrong length
    ((np.nan, 1.0, 1.0), None, None),
    ((np.inf, 1.0, 1.0), None, None),
    (None, (np.nan, 0.5, 0.8), None),          # a nan cap: the whole step budget, then a reject
    (None, (np.inf, 0.5, 0.8), None),
    (None, (0.0, 0.5, 0.8), None),
    (None, (1.0, 0.5), None),
    (None, None, 0.0),
    (None, None, -1.0),
    (None, None, np.nan),
    (None, None, np.inf),
], ids=["zero-start", "negative-start", "short-start", "nan-start", "inf-start",
        "nan-cap", "inf-cap", "zero-cap", "short-cap", "zero-sigma2", "negative-sigma2",
        "nan-sigma2", "inf-sigma2"])
def test_mmse_power_rejects_bad_start_or_caps_before_factoring(monkeypatch, start, cap, noise):
    g, good_cap, sigma2 = _probe_problem()
    calls = []
    original = power.post_bf_sinr_values

    def counted(g, p, sigma2):
        calls.append(1)
        return original(g, p, sigma2)

    monkeypatch.setattr(power, "post_bf_sinr_values", counted)
    assert not mmse_max_min_power(g, good_cap, sigma2).degenerate
    calls.clear()
    with pytest.raises(ConfigurationError):
        mmse_max_min_power(g, good_cap if cap is None else np.array(cap),
                           sigma2 if noise is None else noise,
                           start=None if start is None else np.array(start))
    assert calls == []


@pytest.mark.parametrize("cap", [(np.nan, 0.5, 0.8), (np.inf, 0.5, 0.8), (0.0, 0.5, 0.8),
                                 (1.0, 0.5)], ids=["nan", "inf", "zero", "short"])
def test_max_min_power_rejects_bad_caps_before_solving(monkeypatch, cap, rng):
    gains = random_gain_table(rng, 3)
    solves = []
    original = np.linalg.eigvals

    def counted(a):
        solves.append(1)
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    assert not max_min_power(gains, np.array([1.0, 0.5, 0.8])).degenerate
    solves.clear()
    with pytest.raises(ConfigurationError):
        max_min_power(gains, np.array(cap))
    assert solves == []


@pytest.mark.parametrize("entry", ["gain", "noise"])
def test_max_min_power_rejects_a_non_finite_gain_table(entry):
    f, n = np.array([[1.0, 0.2], [0.1, 1.0]]), np.array([0.1, 0.1])
    if entry == "gain":
        f[0, 1] = np.inf
    else:
        n[1] = np.inf
    with pytest.raises(NumericError, match="gain table contains non-finite entries"):
        max_min_power(GainTable(f=f, n=n), np.array([1.0, 1.0]))
