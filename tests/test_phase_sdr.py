import sys
import types

import numpy as np
import pytest

import oracles
from ris_maxmin import (SystemConfig, alternating_optimize, build_quadratic_forms,
                        sample_channel, sdr_dinkelbach_phase)
from ris_maxmin import sdr
from ris_maxmin.phase import QuadraticFormSet
from ris_maxmin.sdr import INNER_ITERS, STEP_TRIES, _LevelModel

from conftest import complex_normal, random_beamformer, random_phase, synth_channel
from oracles import serial_inner_ascent


def build_forms(rng, m, n, k, sigma2=1.0):
    chan = synth_channel(rng, m, n, k)
    bf = random_beamformer(rng, k, m)
    return build_quadratic_forms(chan, bf, rng.uniform(0.3, 1.0, k), sigma2)


def grid_optimum(forms, alpha, points=720):
    g = np.linspace(0, 2 * np.pi, points, endpoint=False)
    th1, th2 = np.meshgrid(g, g, indexing="ij")
    u = alpha * np.exp(1j * np.stack([th1.ravel(), th2.ravel()]))
    return forms.sinr_batch(u).min(axis=0).max()


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
    v = out.lifted
    assert v.shape == (5, 5) and v.dtype == complex
    assert np.array_equal(v, v.conj().T)
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
        factors = rng.standard_normal((3, n, 5)) + 1j * rng.standard_normal((3, n, 5))
        stacked = model.stats(factors)
        for c, factor in enumerate(factors):
            weights = rng.dirichlet(np.ones(k))
            t, signal, denom = (part[c] for part in stacked)
            for lam in (0.0, 0.3, 1.0, 10.0):
                levels, ratios, gradient, scale = coef_matrix_levels(forms, lam, factor, weights)
                assert np.all(np.abs(signal - lam * denom - levels) <= 1e-12 * scale)
                assert np.all(np.abs(signal / denom - ratios) <= 1e-12 * ratios)
                ours = oracles.level_gradient(model, t, weights, model.coef(lam))
                assert np.abs(ours - gradient).max() <= 1e-12 * np.abs(gradient).max()


def assert_same_ascent(ours, ref):
    assert np.array_equal(ours.factor, ref.factor)
    assert ours.ratio == ref.ratio
    assert (ours.improved, ours.steps, ours.backtracks, ours.early_stop) == (
        ref.improved, ref.steps, ref.backtracks, ref.early_stop)


def ascent_instance(rng, m, n, k, rank, scale=1.0):
    """Forms scaled by ``scale`` (gains by its square), a unit-row start
    factor, alpha and lam, as sdr_dinkelbach_phase would pass them."""
    forms = build_forms(rng, m, n, k, sigma2=rng.uniform(0.1, 2.0))
    forms = QuadraticFormSet(pair_vectors=forms.pair_vectors * scale, noise=forms.noise * scale ** 2,
                             powers=forms.powers)
    alpha = rng.uniform(0.3, 1.0)
    factor = sdr._normalize_rows(complex_normal(rng, (n, rank)), alpha)
    return forms, factor, alpha


def test_stacked_line_search_matches_the_serial_one_bit_for_bit():
    """Scoring STEP_BATCH step lengths per pass accepts the step that trying
    them one at a time accepts, with the same iterates, ratio and counters."""
    local = np.random.default_rng(1414)
    for trial in range(240):
        k, n = int(local.integers(1, 7)), int(local.integers(1, 30))
        forms, factor, alpha = ascent_instance(local, int(local.integers(1, 5)), n, k,
                                               min(n, max(4, k + 2)))
        model = _LevelModel(forms)
        start = forms.min_sinr(alpha * factor[:, 0] / np.abs(factor[:, 0]))
        lam = (0.0, 0.5 * start, start, 3.0 * start)[trial % 4]
        assert_same_ascent(sdr._inner_ascent(model, factor, alpha, lam),
                           serial_inner_ascent(model, factor, alpha, lam))


def test_stacked_line_search_takes_the_dead_row_fallback_like_the_serial_one():
    """An element no pair vector reaches has a zero gradient row, so a zero
    start row stays zero in every candidate until the fallback fills it."""
    local = np.random.default_rng(1415)
    forms, factor, alpha = ascent_instance(local, 3, 6, 3, 5)
    pair = forms.pair_vectors.copy()
    pair[:, :, 2] = 0.0
    forms = QuadraticFormSet(pair_vectors=pair, noise=forms.noise, powers=forms.powers)
    factor[2] = 0.0
    model = _LevelModel(forms)
    ref = serial_inner_ascent(model, factor, alpha, 0.0)
    assert ref.steps > 0 and np.array_equal(ref.factor[2], alpha * np.eye(5)[0])
    assert_same_ascent(sdr._inner_ascent(model, factor, alpha, 0.0), ref)


def test_stacked_line_search_exhausts_its_tries_like_the_serial_one(monkeypatch):
    """Gains near 1e-12 leave every level gain under the 1e-14 acceptance
    margin, so the serial search ends on STEP_TRIES rejected lengths."""
    local = np.random.default_rng(1)
    forms, factor, alpha = ascent_instance(local, 3, 5, 2, 4, scale=1e-6)
    model = _LevelModel(forms)
    events = []
    serial_stats, gradient = oracles._stats_2d, oracles.level_gradient
    monkeypatch.setattr(oracles, "_stats_2d", lambda *a: events.append("try") or serial_stats(*a))
    monkeypatch.setattr(oracles, "level_gradient", lambda *a: events.append("search") or gradient(*a))
    ref = serial_inner_ascent(model, factor, alpha, 0.5)
    monkeypatch.undo()
    last_search = events[len(events) - events[::-1].index("search"):]
    assert len(last_search) == STEP_TRIES and 0 < ref.steps < INNER_ITERS and not ref.early_stop
    assert_same_ascent(sdr._inner_ascent(model, factor, alpha, 0.5), ref)


def test_sdr_phase_matches_the_serial_line_search_field_by_field(monkeypatch):
    cfg = SystemConfig(m=12, n=24, k=6)
    for seed in range(2):
        local = np.random.default_rng((1416, seed))
        chan = sample_channel(cfg, local)
        forms = build_quadratic_forms(chan, random_beamformer(local, 6, 12),
                                      np.full(6, 0.05), cfg.sigma2)
        init = random_phase(local, 24)
        runs = []
        for ascent in (sdr._inner_ascent, serial_inner_ascent):
            monkeypatch.setattr(sdr, "_inner_ascent", ascent)
            rng = np.random.default_rng((1417, seed))
            runs.append((sdr_dinkelbach_phase(forms, 1.0, init, rng), rng.random()))
        (ours, ours_next), (ref, ref_next) = runs
        assert np.array_equal(ours.phase.theta, ref.phase.theta)
        assert np.array_equal(ours.lifted, ref.lifted)
        for name in ("min_sinr", "feasible_value", "iterations", "inner_steps", "backtracks",
                     "cold_restarts", "early_stops", "warning"):
            assert getattr(ours, name) == getattr(ref, name), name
        assert ours_next == ref_next


def assert_same_solution(ours, ref):
    """Every field of two alternating_optimize results but the wall time."""
    assert np.array_equal(ours.bf.rows, ref.bf.rows)
    assert np.array_equal(ours.power.p, ref.power.p)
    assert np.array_equal(ours.phase.theta, ref.phase.theta)
    assert np.array_equal(ours.report.per_user, ref.report.per_user)
    assert ours.report.stage_trace == ref.report.stage_trace
    assert np.array_equal(ours.p_cap, ref.p_cap)
    for name in ("iterations", "method", "converged", "degenerate", "diagnostics"):
        assert getattr(ours, name) == getattr(ref, name), name


@pytest.mark.parametrize("m, n, k", [(12, 24, 2), (4, 3, 2), (3, 2, 1)],
                         ids=["k2", "rank-n3", "rank-n2"])
def test_alternating_sdr_matches_the_serial_line_search(monkeypatch, m, n, k):
    """Two sweeps of the loop with the flat stacked ascent and with the serial
    one give the same Solution and leave the rng at the same draw. At k=2 most
    ascent steps are in cold restarts; below n=4 the factor rank is n."""
    cfg = SystemConfig(m=m, n=n, k=k)
    for seed in range(2):
        chan = sample_channel(cfg, np.random.default_rng((1418, seed)))
        runs, calls = [], []
        for ascent in (sdr._inner_ascent, serial_inner_ascent):
            monkeypatch.setattr(sdr, "_inner_ascent",
                                lambda model, factor, *a, ascent=ascent: (
                                    calls.append(factor.shape) or ascent(model, factor, *a)))
            rng = np.random.default_rng((1419, seed))
            runs.append((alternating_optimize(cfg, chan, "sdr", rng, max_sweeps=2), rng.random()))
        (ours, ours_next), (ref, ref_next) = runs
        assert_same_solution(ours, ref)
        assert ours_next == ref_next
        assert calls and set(calls) == {(n, min(n, max(4, k + 2)))}


ROW_SQ_NORMS, RADIAL = "...ij,...ij->...i", "ij,ij->i"


def test_the_bound_einsum_gives_np_einsums_bits_on_the_ascents_operands():
    """Row norms of a factor, of a (c, n, r) stack of candidates and of their
    (c, K*K, r) projections, and the radial dots of a gradient and a factor,
    at every k in 1..6 and n in 1..29 with the ascent's rank."""
    if np.lib.NumpyVersion(np.__version__) >= "2.0.0":
        assert sdr._einsum is not np.einsum
    local = np.random.default_rng(1420)
    for k in range(1, 7):
        for n in range(1, 30):
            rank = min(n, max(4, k + 2))
            scale = 10.0 ** local.uniform(-6, 6)
            factor, grad = (scale * complex_normal(local, (n, rank)) for _ in range(2))
            operands = [(ROW_SQ_NORMS, factor), (ROW_SQ_NORMS, grad),
                        (RADIAL, grad, factor)]
            for c in (1, sdr.STEP_BATCH):
                operands.append((ROW_SQ_NORMS, complex_normal(local, (c, n, rank))))
                operands.append((ROW_SQ_NORMS, scale * complex_normal(local, (c, k * k, rank))))
            for subscripts, *arrays in operands:
                if len(arrays) == 1:
                    arrays *= 2
                real = [a.view(float) for a in arrays]
                assert np.array_equal(sdr._einsum(subscripts, *real), np.einsum(subscripts, *real))


def test_the_einsum_binding_falls_back_to_the_public_function(monkeypatch):
    """numpy.core.multiarray stands in when numpy._core.multiarray is missing,
    and np.einsum when both are."""
    monkeypatch.setitem(sys.modules, "numpy._core.multiarray", None)
    stand_in = types.ModuleType("numpy.core.multiarray")
    stand_in.c_einsum = object()
    monkeypatch.setitem(sys.modules, "numpy.core.multiarray", stand_in)
    assert sdr._bind_einsum() is stand_in.c_einsum
    monkeypatch.setitem(sys.modules, "numpy.core.multiarray", None)
    assert sdr._bind_einsum() is np.einsum


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
    v = out.lifted
    assert np.array_equal(v, v.conj().T)
    assert np.abs(np.diagonal(v).real - 0.81).max() < 1e-8
    assert np.linalg.eigvalsh(v).min() > -1e-8
