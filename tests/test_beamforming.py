import numpy as np
import pytest
import scipy.linalg as sla

from ris_maxmin import effective_channel, optimal_beamformers, sinr_per_user

from conftest import complex_normal, random_phase, synth_channel
from oracles import post_bf_sinr


def rayleigh_oracle_sinr(g, p, sigma2, k):
    """Generalized eigenvalue route: best SINR of user k over all combiners."""
    m = g.shape[0]
    sigma_k = sigma2 * np.eye(m, dtype=complex)
    for i in range(g.shape[1]):
        if i != k:
            sigma_k += p[i] * np.outer(g[:, i], g[:, i].conj())
    num = p[k] * np.outer(g[:, k], g[:, k].conj())
    vals = sla.eigh(num, sigma_k, eigvals_only=True)
    return vals[-1]


def test_single_user_matched_filter(rng):
    chan = synth_channel(rng, 4, 3, 1)
    phase = random_phase(rng, 3)
    bf = optimal_beamformers(chan, phase, np.array([0.7]), sigma2=0.9)
    g = effective_channel(chan, phase)[:, 0]
    aligned = np.vdot(bf.rows[0], g / np.linalg.norm(g))
    assert abs(aligned) == pytest.approx(1.0, abs=1e-12)


def test_rows_unit_norm(rng):
    chan = synth_channel(rng, 5, 4, 3)
    bf = optimal_beamformers(chan, random_phase(rng, 4), rng.uniform(0.1, 1, 3), 1.0)
    assert np.allclose(np.linalg.norm(bf.rows, axis=1), 1.0, atol=1e-12)


def test_matches_generalized_rayleigh_oracle(rng):
    for _ in range(25):
        chan = synth_channel(rng, 4, 3, 3)
        phase = random_phase(rng, 3)
        p = rng.uniform(0.1, 1.0, 3)
        sigma2 = rng.uniform(0.3, 2.0)
        bf = optimal_beamformers(chan, phase, p, sigma2)
        achieved = sinr_per_user(chan, phase, p, bf, sigma2).per_user
        g = effective_channel(chan, phase)
        for k in range(3):
            assert achieved[k] == pytest.approx(rayleigh_oracle_sinr(g, p, sigma2, k), rel=1e-9)


def test_post_bf_sinr_single_user(rng):
    chan = synth_channel(rng, 4, 3, 1)
    phase = random_phase(rng, 3)
    g = effective_channel(chan, phase)[:, 0]
    rep = post_bf_sinr(chan, phase, np.array([0.6]), sigma2=0.5)
    assert rep.per_user[0] == pytest.approx(0.6 * np.linalg.norm(g) ** 2 / 0.5, rel=1e-12)


def test_post_bf_consistent_with_explicit_combiners(rng):
    for _ in range(10):
        chan = synth_channel(rng, 5, 4, 3)
        phase = random_phase(rng, 4)
        p = rng.uniform(0.1, 1.0, 3)
        direct = post_bf_sinr(chan, phase, p, 1.3).per_user
        via_bf = sinr_per_user(chan, phase, p, optimal_beamformers(chan, phase, p, 1.3), 1.3).per_user
        assert np.abs(direct / via_bf - 1.0).max() < 1e-9


def test_post_bf_linear_in_own_power(rng):
    chan = synth_channel(rng, 4, 3, 3)
    phase = random_phase(rng, 3)
    p = rng.uniform(0.2, 1.0, 3)
    base = post_bf_sinr(chan, phase, p, 1.0).per_user
    p2 = p.copy()
    p2[1] *= 2.0
    doubled = post_bf_sinr(chan, phase, p2, 1.0).per_user
    # own-power linearity holds because user 1's interference matrix excludes itself
    assert doubled[1] == pytest.approx(2.0 * base[1], rel=1e-12)


def test_beats_random_probes(rng):
    chan = synth_channel(rng, 4, 3, 3)
    phase = random_phase(rng, 3)
    p = rng.uniform(0.1, 1.0, 3)
    best = post_bf_sinr(chan, phase, p, 1.0).per_user
    g = effective_channel(chan, phase)
    probes = complex_normal(rng, (500, 4))
    gains = np.abs(probes.conj() @ g) ** 2
    for k in range(3):
        probe_sinr = p[k] * gains[:, k] / (gains @ p - p[k] * gains[:, k]
                                           + np.linalg.norm(probes, axis=1) ** 2)
        assert np.all(probe_sinr <= best[k] + 1e-9)


def test_other_users_combiner_does_not_matter(rng):
    chan = synth_channel(rng, 4, 3, 3)
    phase = random_phase(rng, 3)
    p = rng.uniform(0.1, 1.0, 3)
    bf = optimal_beamformers(chan, phase, p, 1.0)
    base = sinr_per_user(chan, phase, p, bf, 1.0).per_user
    rows = bf.rows.copy()
    other = complex_normal(rng, 4)
    rows[2] = other / np.linalg.norm(other)
    changed = sinr_per_user(chan, phase, p, rows, 1.0).per_user
    assert changed[0] == pytest.approx(base[0], rel=1e-12)
    assert changed[1] == pytest.approx(base[1], rel=1e-12)


def test_rotation_invariance(rng):
    from ris_maxmin.beamforming import post_bf_sinr_values

    chan = synth_channel(rng, 4, 3, 3)
    phase = random_phase(rng, 3)
    p = rng.uniform(0.1, 1.0, 3)
    base = post_bf_sinr(chan, phase, p, 1.0).per_user
    q, _ = np.linalg.qr(complex_normal(rng, (4, 4)))
    vals = post_bf_sinr_values(q @ effective_channel(chan, phase), p, 1.0).sinr
    assert np.abs(vals / base - 1.0).max() < 1e-10
