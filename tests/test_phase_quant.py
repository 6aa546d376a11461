import numpy as np
import pytest

from ris_maxmin import (ConfigurationError, PhaseVector, QuantOptions,
                        build_quadratic_forms, grid_phase_from_uniform,
                        phase_grid, quantized_heuristic_phase)

from conftest import random_beamformer, synth_channel


def make_objective(rng, m, n, k, alpha=1.0):
    chan = synth_channel(rng, m, n, k)
    bf = random_beamformer(rng, k, m)
    forms = build_quadratic_forms(chan, bf, rng.uniform(0.3, 1.0, k), 1.0)
    return forms, (lambda phi: forms.min_sinr(alpha * phi))


def test_phase_grid_values():
    assert np.allclose(phase_grid(1), [0.0, np.pi])
    assert np.allclose(phase_grid(2), [0.0, np.pi / 2, np.pi, 3 * np.pi / 2])


def test_grid_init_is_coupled_across_depths(rng):
    u = rng.random(6)
    coarse = grid_phase_from_uniform(u, 1, 1.0)
    fine = grid_phase_from_uniform(u, 3, 1.0)
    # the coarse grid is a coarsening of the fine assignment
    assert np.all(np.floor(u * 2) * np.pi == coarse.theta)
    assert np.all(fine.theta >= coarse.theta - 1e-12)


def test_requires_grid_valued_init(rng):
    _, objective = make_objective(rng, 3, 4, 2)
    off_grid = PhaseVector(theta=np.full(4, 0.3), alpha=1.0)
    with pytest.raises(ConfigurationError):
        quantized_heuristic_phase(objective, off_grid, rng, QuantOptions(bits=2))


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


def test_evaluations_count_objective_calls(rng):
    _, objective = make_objective(rng, 3, 5, 3)
    calls = []

    def counted(phi):
        calls.append(1)
        return objective(phi)

    for bits in (1, 2, 3):
        calls.clear()
        init = grid_phase_from_uniform(rng.random(5), bits, 1.0)
        out = quantized_heuristic_phase(counted, init, rng, QuantOptions(bits=bits))
        assert out.evaluations == len(calls) - 1 > 0
