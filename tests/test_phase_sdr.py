import numpy as np
import pytest

from ris_maxmin import (ConfigurationError, build_quadratic_forms,
                        sdr_dinkelbach_phase)
from ris_maxmin.sdr import INNER_ITERS, LiftedMatrix, _LevelModel

from conftest import random_beamformer, random_phase, synth_channel


def build_forms(rng, m, n, k, sigma2=1.0):
    chan = synth_channel(rng, m, n, k)
    bf = random_beamformer(rng, k, m)
    return build_quadratic_forms(chan, bf, rng.uniform(0.3, 1.0, k), sigma2)


def grid_optimum(forms, alpha, points=720):
    g = np.linspace(0, 2 * np.pi, points, endpoint=False)
    th1, th2 = np.meshgrid(g, g, indexing="ij")
    u = alpha * np.exp(1j * np.stack([th1.ravel(), th2.ravel()]))
    return forms.sinr_batch(u).min(axis=0).max()


def test_lifted_matrix_validation():
    good = np.eye(3, dtype=complex)
    LiftedMatrix(v=good, alpha=1.0)
    with pytest.raises(ConfigurationError):
        LiftedMatrix(v=np.diag([1.0, 2.0, 1.0]).astype(complex), alpha=1.0)
    bad = np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex)
    with pytest.raises(ConfigurationError):
        LiftedMatrix(v=bad, alpha=1.0)  # indefinite


def test_single_element_returns_input(rng):
    forms = build_forms(rng, 3, 1, 2)
    init = random_phase(rng, 1, alpha=0.9)
    out = sdr_dinkelbach_phase(forms, 0.9, init, rng)
    assert np.array_equal(out.phase.theta, init.theta)


def test_never_worse_than_init_and_bounded_by_relaxation(rng):
    for _ in range(10):
        forms = build_forms(rng, 3, 4, 3)
        init = random_phase(rng, 4)
        before = forms.min_sinr(init.phi_vec)
        out = sdr_dinkelbach_phase(forms, 1.0, init, rng)
        assert out.min_sinr >= before - 1e-12
        assert out.min_sinr <= out.feasible_value + 1e-6
        assert forms.min_sinr(out.phase.phi_vec) == pytest.approx(out.min_sinr, rel=1e-9)


def test_lifted_output_satisfies_invariants(rng):
    forms = build_forms(rng, 3, 5, 3)
    out = sdr_dinkelbach_phase(forms, 0.8, random_phase(rng, 5, alpha=0.8), rng)
    v = out.lifted.v
    assert np.abs(np.diagonal(v).real - 0.64).max() < 1e-8
    assert np.linalg.eigvalsh(v).min() > -1e-8


def test_feasible_value_dominates_random_probes(rng):
    for _ in range(5):
        forms = build_forms(rng, 3, 4, 2)
        out = sdr_dinkelbach_phase(forms, 1.0, random_phase(rng, 4), rng)
        probes = np.exp(1j * rng.uniform(0, 2 * np.pi, (50, 4)))
        probe_best = forms.sinr_batch(probes.T).min(axis=0).max()
        assert out.feasible_value >= probe_best - 1e-9


def test_two_element_grid_oracle(rng):
    worst = 1.0
    for trial in range(10):
        local = np.random.default_rng(4100 + trial)
        forms = build_forms(local, 3, 2, 2)
        opt = grid_optimum(forms, 1.0)
        out = sdr_dinkelbach_phase(forms, 1.0, random_phase(local, 2), local)
        worst = min(worst, out.min_sinr / opt)
    assert worst >= 0.95


def coef_matrix_levels(forms, lam, factor, weights):
    """Levels, ratios and the softmin gradient from the per-lam coefficient matrix
    C[k, i] = p_k if i == k else -lam * p_i."""
    k, n = forms.k, forms.n
    pair_flat = forms.pair_vectors.reshape(k * k, n)
    t = pair_flat.conj() @ factor
    coef = np.tile(-lam * forms.powers, (k, 1))
    np.fill_diagonal(coef, forms.powers)
    gains = (np.abs(t) ** 2).sum(axis=1).reshape(k, k)
    levels = (coef * gains).sum(axis=1) - lam * forms.noise
    signal = forms.powers * np.diagonal(gains)
    ratios = signal / (gains @ forms.powers - signal + forms.noise)
    gradient = pair_flat.T @ ((weights[:, None] * coef).reshape(-1)[:, None] * t)
    return levels, ratios, gradient, signal + lam * (gains @ forms.powers - signal + forms.noise)


def test_one_level_model_matches_the_coef_matrix_at_every_lam(rng):
    for m, n, k in ((3, 4, 3), (12, 24, 6), (4, 6, 2)):
        forms = build_forms(rng, m, n, k, sigma2=rng.uniform(0.1, 2.0))
        model = _LevelModel(forms)
        for _ in range(3):
            factor = rng.standard_normal((n, 5)) + 1j * rng.standard_normal((n, 5))
            weights = rng.dirichlet(np.ones(k))
            t, signal, denom = model.stats(factor)
            for lam in (0.0, 0.3, 1.0, 10.0):
                levels, ratios, gradient, scale = coef_matrix_levels(forms, lam, factor, weights)
                assert np.all(np.abs(signal - lam * denom - levels) <= 1e-12 * scale)
                assert np.all(np.abs(signal / denom - ratios) <= 1e-12 * ratios)
                ours = model.gradient(t, weights, model.coef(lam))
                assert np.abs(ours - gradient).max() <= 1e-12 * np.abs(gradient).max()


def test_inner_ascents_stop_on_evidence():
    """At k=6, n=24 most ascents end on the stop rule, well before INNER_ITERS."""
    local = np.random.default_rng(20240817)
    forms = build_forms(local, 12, 24, 6)
    init = random_phase(local, 24, alpha=0.9)
    before = forms.min_sinr(init.phi_vec)
    out = sdr_dinkelbach_phase(forms, 0.9, init, local)
    ascents = out.iterations + out.cold_restarts
    assert out.early_stops > 0
    assert out.inner_steps < INNER_ITERS * ascents
    assert out.min_sinr >= before - 1e-12
    assert out.min_sinr <= out.feasible_value + 1e-6
    v = out.lifted.v
    assert np.abs(np.diagonal(v).real - 0.81).max() < 1e-8
    assert np.linalg.eigvalsh(v).min() > -1e-8
