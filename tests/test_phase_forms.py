import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_maxmin import (ConfigurationError, DomainError, build_quadratic_forms,
                        effective_channel, sinr_per_user)
from ris_maxmin.phase import QuadraticFormSet, lse_objective

from conftest import complex_normal, random_beamformer, random_phase, synth_channel
from oracles import lifted_sinr, rank_one


def test_scalar_collapse_single_element(rng):
    chan = synth_channel(rng, 3, 1, 2, identity_corr=False)
    bf = random_beamformer(rng, 2, 3)
    forms = build_quadratic_forms(chan, bf, np.ones(2), 1.0)
    for k in range(2):
        # with one element, b_k^H (phi=1) collapses to b_k^H H1 R^(1/2) h2_k
        expected = np.vdot(bf.rows[k], chan.h1 @ chan.ris_corr_sqrt @ chan.h2[k])
        assert np.vdot(forms.vectors[k], np.ones(1)) == pytest.approx(expected, rel=1e-12)


def test_inner_product_identity(rng):
    for _ in range(50):
        chan = synth_channel(rng, 3, 5, 3, identity_corr=False)
        phase = random_phase(rng, 5, alpha=0.8)
        bf = random_beamformer(rng, 3, 3)
        forms = build_quadratic_forms(chan, bf, rng.uniform(0.1, 1, 3), 1.0)
        g = effective_channel(chan, phase)
        for k in range(3):
            lhs = np.vdot(forms.vectors[k], phase.phi_vec)
            rhs = np.vdot(bf.rows[k], g[:, k])
            assert abs(lhs - rhs) < 1e-10


def test_sinr_matches_direct_evaluation(rng):
    for _ in range(25):
        chan = synth_channel(rng, 4, 5, 3, identity_corr=False)
        phase = random_phase(rng, 5, alpha=0.9)
        bf = random_beamformer(rng, 3, 4)
        p = rng.uniform(0.1, 1.0, 3)
        forms = build_quadratic_forms(chan, bf, p, 1.2)
        direct = sinr_per_user(chan, phase, p, bf, 1.2).per_user
        assert np.abs(forms.sinr_batch(phase.phi_vec) - direct).max() < 1e-10 * max(1.0, direct.max())


def test_batch_matches_single(rng):
    chan = synth_channel(rng, 3, 4, 2)
    bf = random_beamformer(rng, 2, 3)
    forms = build_quadratic_forms(chan, bf, np.array([0.5, 0.8]), 1.0)
    phis = np.stack([random_phase(rng, 4).phi for _ in range(7)], axis=1)
    batch = forms.sinr_batch(phis)
    for c in range(7):
        assert np.allclose(batch[:, c], forms.sinr_batch(phis[:, c]), rtol=1e-12)


def test_sinr_batch_keeps_a_high_sinr_users_interference(rng):
    """At SINR about 1e9 each user's interference is summed over the other
    users, not left over from subtracting its signal, so every SINR of a
    batch holds 1e-12 of a 40-digit reference on the same pair vectors."""
    k, n = 3, 5
    pair = complex_normal(rng, (k, k, n))
    pair[np.arange(k), np.arange(k)] *= 5e4
    forms = QuadraticFormSet(pair_vectors=pair, noise=rng.uniform(0.05, 0.1, k),
                             powers=rng.uniform(0.5, 1.0, k))
    phis = 0.9 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, (n, 4)))
    batch = forms.sinr_batch(phis)
    with mpmath.workdps(40):
        for c in range(phis.shape[1]):
            single = forms.sinr_batch(phis[:, c])
            for i in range(k):
                gains = [abs(mpmath.fsum(mpmath.conj(mpmath.mpc(v)) * mpmath.mpc(u)
                                         for v, u in zip(pair[i, j], phis[:, c]))) ** 2
                         for j in range(k)]
                interference = mpmath.fsum(forms.powers[j] * gains[j] for j in range(k) if j != i)
                expected = forms.powers[i] * gains[i] / (interference + forms.noise[i])
                assert 1e8 < expected < 1e11
                assert abs(batch[i, c] - expected) <= 1e-12 * expected
                assert abs(single[i] - expected) <= 1e-12 * expected


def test_built_forms_equal_the_checked_constructor(rng):
    for k in (1, 2, 5):
        chan = synth_channel(rng, 4, 6, k)
        bf = random_beamformer(rng, k, 4)
        forms = build_quadratic_forms(chan, bf, rng.uniform(0.1, 1.0, k), 0.7)
        checked = QuadraticFormSet(pair_vectors=forms.pair_vectors, noise=forms.noise,
                                   powers=forms.powers)
        for name in ("pair_vectors", "noise", "powers", "pair_conj", "split"):
            assert np.array_equal(getattr(forms, name), getattr(checked, name)), name


@pytest.mark.parametrize("powers", [np.ones(3), np.ones((2, 1)), 1.0], ids=["long", "2-d", "scalar"])
def test_build_quadratic_forms_rejects_powers_of_another_shape(rng, powers):
    chan = synth_channel(rng, 3, 4, 2)
    with pytest.raises(ConfigurationError, match=r"powers \(.*\) must be \(2, 3\) and \(2,\)"):
        build_quadratic_forms(chan, random_beamformer(rng, 2, 3), powers, 1.0)


@pytest.mark.parametrize("pair_shape, noise_shape, powers_shape, message", [
    ((2, 4), (2,), (2,), r"pair_vectors must be \(k, k, n\)"),
    ((2, 3, 4), (2,), (2,), r"pair_vectors must be \(k, k, n\)"),
    ((2, 2, 4), (3,), (2,), r"noise \(3,\) and powers \(2,\) must be \(2,\)"),
    ((2, 2, 4), (2,), (2, 1), r"noise \(2,\) and powers \(2, 1\) must be \(2,\)"),
], ids=["2-d pairs", "non-square pairs", "long noise", "2-d powers"])
def test_quadratic_form_set_rejects_inconsistent_shapes(pair_shape, noise_shape, powers_shape,
                                                        message):
    with pytest.raises(ConfigurationError, match=message):
        QuadraticFormSet(pair_vectors=np.ones(pair_shape, dtype=complex),
                         noise=np.ones(noise_shape), powers=np.ones(powers_shape))


def test_lifted_matches_rank_one(rng):
    chan = synth_channel(rng, 3, 4, 2)
    bf = random_beamformer(rng, 2, 3)
    forms = build_quadratic_forms(chan, bf, np.array([0.5, 0.8]), 1.0)
    phase = random_phase(rng, 4, alpha=0.7)
    u = phase.phi_vec
    assert np.allclose(lifted_sinr(forms, np.outer(u, u.conj())), forms.sinr_batch(u), rtol=1e-10)


def test_rank_one_matrices_psd(rng):
    chan = synth_channel(rng, 3, 4, 2)
    bf = random_beamformer(rng, 2, 3)
    forms = build_quadratic_forms(chan, bf, np.ones(2), 1.0)
    for k in range(2):
        r = rank_one(forms, k)
        assert np.abs(r - r.conj().T).max() < 1e-12
        eigs = np.linalg.eigvalsh(r)
        assert eigs.min() > -1e-12
        assert np.linalg.matrix_rank(r, tol=1e-10) <= 1


def test_lse_objective_values():
    assert lse_objective([1.0]) == pytest.approx(1.0, rel=1e-12)
    assert lse_objective([1.0, 1.0]) == pytest.approx(1.0 + np.log(2.0), rel=1e-12)


def test_lse_objective_rejects_nonpositive():
    with pytest.raises(DomainError):
        lse_objective([1.0, 0.0])
    with pytest.raises(DomainError):
        lse_objective([-0.5])


def test_lse_objective_overflow_safe():
    # 1/rho up to 1e6 would overflow a naive exponential sum
    assert np.isfinite(lse_objective([1e-6, 1.0]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=8))
def test_lse_reciprocal_lower_bounds_minimum(values):
    rho = np.asarray(values)
    assert 1.0 / lse_objective(rho) <= rho.min() + 1e-12
