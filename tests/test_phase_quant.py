import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_maxmin import (ConfigurationError, PhaseVector, QuantOptions,
                        build_quadratic_forms, grid_phase_from_uniform,
                        phase_grid, quantized_heuristic_phase)
from ris_maxmin import phase
from ris_maxmin.phase import QUANT_MAX_COLUMNS

from conftest import random_beamformer, synth_channel
from oracles import nearest_grid_levels, serial_quantized_heuristic_phase


def make_objective(rng, m, n, k, alpha=1.0):
    chan = synth_channel(rng, m, n, k)
    bf = random_beamformer(rng, k, m)
    forms = build_quadratic_forms(chan, bf, rng.uniform(0.3, 1.0, k), 1.0)
    return forms, (lambda phi: forms.min_sinr(alpha * phi))


def test_phase_grid_values():
    assert np.allclose(phase_grid(1), [0.0, np.pi])
    assert np.allclose(phase_grid(2), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


# one swap tries all 2^B levels, so B <= 17 keeps them within QUANT_MAX_EVALS
DEPTH_ERRORS = {0: "bits must lie in 1..17, got 0", -1: "bits must lie in 1..17, got -1",
                2.5: "bits must be a whole number, got 2.5", 18: "bits must lie in 1..17, got 18",
                40: "bits must lie in 1..17, got 40"}


@pytest.mark.parametrize("bits", [0, 2.5, 18, 40])
def test_bit_depth_is_a_whole_number_within_the_budget(bits):
    with pytest.raises(ConfigurationError, match=DEPTH_ERRORS[bits]):
        QuantOptions(bits=bits)


@pytest.mark.parametrize("bits", [0, -1, 2.5, 18, 40])
def test_phase_grid_rejects_a_bad_depth(bits):
    # a depth of 40 would ask for a 2^40-entry grid
    with pytest.raises(ConfigurationError, match=DEPTH_ERRORS[bits]):
        phase_grid(bits)
    with pytest.raises(ConfigurationError, match=DEPTH_ERRORS[bits]):
        grid_phase_from_uniform(np.full(3, 0.5), bits, 1.0)


def test_grid_init_is_coupled_across_depths(rng):
    u = rng.random(6)
    coarse = grid_phase_from_uniform(u, 1, 1.0)
    fine = grid_phase_from_uniform(u, 3, 1.0)
    # the coarse grid is a coarsening of the fine assignment
    assert np.all(np.floor(u * 2) * np.pi == coarse.theta)
    assert np.all(fine.theta >= coarse.theta - 1e-12)


@pytest.mark.parametrize("bad", [-0.5, 2.0, 1.5, np.nan, -np.inf], ids=str)
def test_grid_phase_rejects_draws_outside_the_unit_interval(bad):
    # unchecked, -0.5 wraps around to level 4 of 8, 2.0 lands on the last
    # level and nan indexes out of range
    with pytest.raises(ConfigurationError, match=r"uniform draws must lie in \[0, 1\]"):
        grid_phase_from_uniform(np.array([0.25, bad]), 3, 1.0)


def test_a_draw_of_one_takes_the_last_level():
    phase = grid_phase_from_uniform(np.array([0.0, 1.0]), 3, 1.0)
    assert np.array_equal(phase.theta, phase_grid(3)[[0, 7]])


def test_requires_grid_valued_init(rng):
    _, objective = make_objective(rng, 3, 4, 2)
    off_grid = PhaseVector(theta=np.full(4, 0.3), alpha=1.0)
    with pytest.raises(ConfigurationError):
        quantized_heuristic_phase(objective, off_grid, rng, QuantOptions(bits=2))


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_a_non_finite_init_angle_never_reaches_the_swaps(bad, rng):
    """A nan angle once passed the on-grid check and took level 0, after a
    RuntimeWarning from the level cast; now its PhaseVector is refused."""
    _, objective = make_objective(rng, 3, 4, 2)
    theta = phase_grid(2).copy()
    theta[1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="non-finite angles"):
            quantized_heuristic_phase(objective, PhaseVector(theta=theta), rng, QuantOptions(bits=2))


def test_single_element_single_user_keeps_init(rng):
    # every grid phase of one element gives the same SINR, so nothing changes
    _, objective = make_objective(rng, 3, 1, 1)
    init = grid_phase_from_uniform(rng.random(1), 3, 1.0)
    out = quantized_heuristic_phase(objective, init, rng, QuantOptions(bits=3))
    assert np.array_equal(out.phase.theta, init.theta)


def test_output_on_grid_and_never_worse(rng):
    for _ in range(10):
        _, objective = make_objective(rng, 3, 5, 3)
        init = grid_phase_from_uniform(rng.random(5), 3, 1.0)
        out = quantized_heuristic_phase(objective, init, rng, QuantOptions(bits=3))
        grid = phase_grid(3)
        assert np.all(np.isin(out.phase.theta.round(12), grid.round(12)))
        assert out.min_sinr >= objective(init.phi) - 1e-15


def test_budget_stop_warns(monkeypatch, rng):
    # a budget below QUANT_WINDOW stops the swaps before the window rule can
    monkeypatch.setattr(phase, "QUANT_MAX_EVALS", 40)
    _, objective = make_objective(rng, 4, 6, 3)
    init = grid_phase_from_uniform(rng.random(6), 3, 1.0)
    out = quantized_heuristic_phase(objective, init, rng, QuantOptions(bits=3))
    assert out.warning == "evaluation budget exhausted before the improvement window settled"
    assert 40 <= len(out.tau_trace) < 40 + 8
    assert out.tau_trace[-1] == out.min_sinr


def test_trace_nondecreasing(rng):
    _, objective = make_objective(rng, 4, 6, 3)
    init = grid_phase_from_uniform(rng.random(6), 2, 1.0)
    out = quantized_heuristic_phase(objective, init, rng, QuantOptions(bits=2))
    assert np.all(np.diff(out.tau_trace) >= 0.0)
    assert out.tau_trace[-1] == pytest.approx(out.min_sinr, rel=1e-12)


def test_two_element_one_bit_exhaustive(rng):
    reached = 0
    trials = 100
    for t in range(trials):
        local = np.random.default_rng(9000 + t)
        forms, objective = make_objective(local, 3, 2, 2)
        grid = phase_grid(1)
        best = max(objective(np.exp(1j * np.array([grid[i], grid[j]])))
                   for i in range(2) for j in range(2))
        init = grid_phase_from_uniform(local.random(2), 1, 1.0)
        out = quantized_heuristic_phase(objective, init, local, QuantOptions(bits=1))
        assert out.min_sinr <= best * (1 + 1e-12)
        reached += out.min_sinr >= best * (1 - 1e-12)
    assert reached >= 90


def assert_matches_serial_loop(objective, init, seed, bits):
    """Run the heuristic and the serial loop on the same draws, hold them
    equal, and return the heuristic's result and its calls' column counts."""
    calls = []

    def batched(phi):
        calls.append(phi.shape[1])
        return objective(phi)

    out = quantized_heuristic_phase(batched, init, np.random.default_rng(seed), QuantOptions(bits=bits))
    ref = serial_quantized_heuristic_phase(objective, init, np.random.default_rng(seed),
                                           QuantOptions(bits=bits))
    assert np.array_equal(out.phase.theta, ref.phase.theta)
    assert out.evaluations == ref.evaluations
    assert out.warning == ref.warning
    np.testing.assert_allclose(out.tau_trace, ref.tau_trace, rtol=1e-12)
    assert out.min_sinr == pytest.approx(ref.min_sinr, rel=1e-12)
    return out, calls


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(1, 6), n=st.integers(1, 29),
       bits=st.integers(1, 3))
def test_batched_swaps_match_the_serial_loop(seed, k, n, bits):
    local = np.random.default_rng(seed)
    _, objective = make_objective(local, 4, n, k, alpha=0.8)
    init = grid_phase_from_uniform(local.random(n), bits, 0.8)
    assert_matches_serial_loop(objective, init, seed, bits)


def test_levels_beyond_the_column_cap_are_scored_in_chunks(rng):
    bits = 13
    assert 2 ** bits - 1 > QUANT_MAX_COLUMNS
    _, objective = make_objective(rng, 3, 3, 2)
    init = grid_phase_from_uniform(rng.random(3), bits, 1.0)
    out, calls = assert_matches_serial_loop(objective, init, 5, bits)
    assert max(calls) == QUANT_MAX_COLUMNS
    assert sum(calls[1:]) <= out.evaluations


def test_evaluations_match_the_serial_loop_in_one_call_per_pick(rng):
    _, objective = make_objective(rng, 3, 5, 3)
    for bits in (1, 2, 3):
        init = grid_phase_from_uniform(rng.random(5), bits, 1.0)
        out, calls = assert_matches_serial_loop(objective, init, 100 + bits, bits)
        q = 2 ** bits
        picks = (out.tau_trace.size - 1) // q
        assert out.evaluations == picks * (q - 1) > 0
        assert 1 < len(calls) <= 1 + picks


def test_an_element_is_scored_again_only_after_a_swap(rng):
    # a pick calls the objective unless its element was scored after the last accepted swap
    remembered = accepted = 0
    for trial in range(10):
        _, objective = make_objective(rng, 3, 3, 2)
        init = grid_phase_from_uniform(rng.random(3), 2, 1.0)
        out, calls = assert_matches_serial_loop(objective, init, trial, 2)
        blocks = out.tau_trace[1:].reshape(-1, 4)
        starts = np.concatenate(([out.tau_trace[0]], blocks[:-1, -1]))
        draws = np.random.default_rng(trial)
        scored, expected = set(), 1
        for start, block in zip(starts, blocks):
            element = int(draws.integers(3))
            if element in scored:
                remembered += 1
            else:
                scored.add(element)
                expected += 1
            if block[-1] > start:
                scored.clear()
                accepted += 1
        assert len(calls) == expected
    assert remembered > 0 and accepted > 0


def _level_sum(bits, base, step):
    """An objective that scores a candidate base + step * (the sum of its grid
    level indices): the same bits for the serial loop's (n,) vectors and the
    batched (n, c) matrices."""
    q = 2 ** bits

    def objective(phi):
        levels = np.rint(np.angle(phi) * (q / phase.TWO_PI)).astype(int) % q
        return base + step * levels.sum(axis=0)

    return objective


def _window_terms(trace, q):
    """(first term, full sum) of the stop rule's window after every pick that
    leaves more than QUANT_WINDOW trace entries, summed as the rule sums."""
    terms = []
    for end in range(1 + q, trace.size + 1, q):
        if end > phase.QUANT_WINDOW:
            window = trace[end - phase.QUANT_WINDOW - 1:end - 1].tolist()
            last = float(trace[end - 1])
            terms.append((last - window[0], sum([last - t for t in window])))
    return terms


def _run_both(objective, bits, seed, n=12):
    """The heuristic and the serial loop on the same draws, held equal bit for bit."""
    init = grid_phase_from_uniform(np.random.default_rng(seed).random(n), bits, 1.0)
    options = QuantOptions(bits=bits)
    out = quantized_heuristic_phase(objective, init, np.random.default_rng(seed), options)
    ref = serial_quantized_heuristic_phase(objective, init, np.random.default_rng(seed), options)
    assert np.array_equal(out.phase.theta, ref.phase.theta)
    assert np.array_equal(out.tau_trace, ref.tau_trace)
    assert out.evaluations == ref.evaluations
    assert out.warning is None and ref.warning is None
    return _window_terms(out.tau_trace, 2 ** bits)


@pytest.mark.parametrize("bits, seed", [(1, 2), (3, 0)])
def test_the_window_is_summed_when_its_first_term_is_small(bits, seed):
    # steps of 1e-10 keep the newest-to-oldest rise below QUANT_EPSILON while the
    # window's 50 terms still add up past it, so the sum decides to go on; steps
    # of 1e-8 put the first term above it, and the sum is skipped
    terms = _run_both(_level_sum(bits, 1.0, 1e-10), bits, seed)
    eps = phase.QUANT_EPSILON
    assert any(first < eps <= total for first, total in terms)
    assert terms[-1][1] < eps
    terms = _run_both(_level_sum(bits, 1.0, 1e-8), bits, seed)
    assert any(first >= eps for first, _ in terms)


@pytest.mark.parametrize("bits, seed", [(1, 0), (3, 2)])
def test_a_negative_trace_never_falls_and_stops_by_the_window(bits, seed):
    # at base -1e5 a swap must beat the current value by 1e-12 * |current| = 1e-7,
    # upward as at positive values: one level step (2e-8) never passes, a run of
    # steps may, and no candidate below the current value is taken
    objective = _level_sum(bits, -1e5, 2e-8)
    terms = _run_both(objective, bits, seed)
    init = grid_phase_from_uniform(np.random.default_rng(seed).random(12), bits, 1.0)
    out = quantized_heuristic_phase(objective, init, np.random.default_rng(seed),
                                    QuantOptions(bits=bits))
    assert np.all(np.diff(out.tau_trace) >= 0.0)
    assert out.tau_trace[0] < 0.0
    assert terms[-1][1] < phase.QUANT_EPSILON


@pytest.mark.parametrize("bits", [1, 3, phase.QUANT_MAX_BITS])
def test_grid_levels_are_the_nearest_levels(bits, rng):
    # a flat objective accepts no swap, so the returned phases are the grid
    # levels the heuristic derived from its input
    grid = phase_grid(bits)
    n = 24
    flat = lambda phi: np.zeros(phi.shape[1])  # noqa: E731
    levels = rng.integers(grid.size, size=n)
    for jitter in (0.0, 1e-10, -1e-10):
        init = PhaseVector(theta=grid[levels] + jitter * rng.choice([-1.0, 1.0], size=n))
        expected = nearest_grid_levels(init.theta, grid)
        assert np.array_equal(expected, levels)
        out = quantized_heuristic_phase(flat, init, np.random.default_rng(0), QuantOptions(bits=bits))
        assert np.array_equal(out.phase.theta, grid[expected])
    off = PhaseVector(theta=grid[levels] + np.where(np.arange(n) == 5, 1e-6, 0.0))
    with pytest.raises(ConfigurationError, match=f"initial phases must lie on the {grid.size}-point grid"):
        quantized_heuristic_phase(flat, off, np.random.default_rng(0), QuantOptions(bits=bits))
