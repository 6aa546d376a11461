import warnings
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from ris_maxmin import (Beamformer, ChannelRealization, ConfigurationError,
                        ExperimentPlan, PhaseVector, PowerAllocation, QuantOptions,
                        SinrReport, SystemConfig, build_quadratic_forms,
                        effective_channel, lse_gradient_phase, optimal_beamformers,
                        sinr_per_user, sinr_phase_tangent)
from ris_maxmin import beamforming
from ris_maxmin.core import GainTable, gain_table, noise_power

from conftest import complex_normal, random_beamformer, random_phase, synth_channel


def test_config_defaults_and_noise():
    cfg = SystemConfig(m=12, n=24, k=6)
    assert cfg.p_max == 0.5
    assert cfg.kappa == 10.0
    assert cfg.bandwidth_hz == 1e8
    # -94 dBm for 100 MHz
    assert cfg.sigma2 == pytest.approx(10 ** (-9.4) * 1e-3, rel=1e-12)
    assert cfg.sar_ref.shape == (6,)
    assert cfg.emf_max.shape == (6,)


@pytest.mark.parametrize("kwargs", [
    dict(m=0, n=1, k=1),
    dict(m=1, n=1, k=1, alpha=0.0),
    dict(m=1, n=1, k=1, alpha=1.5),
    dict(m=1, n=1, k=1, sigma2=-1.0),
    dict(m=1, n=1, k=1, p_max=0.0),
    dict(m=1, n=1, k=1, r_min=70.0, r_max=10.0),
    dict(m=1, n=1, k=1, kappa=-1.0),
    dict(m=1, n=1, k=2, sar_ref=0.0),
    dict(m=1, n=1, k=2, sar_ref=(63e-4, -1.0)),
    dict(m=1, n=1, k=1, emf_max=0.0),
    dict(m=1, n=1, k=2, emf_max=(0.0029, -1.0)),
    dict(m=1, n=1, k=1, d_bs=0.0),
    dict(m=1, n=1, k=1, d_ris=-0.5),
    dict(m=1, n=1, k=1, ris_position=(0.0, 0.0)),
    dict(m=1, n=1, k=1, r_min=-5.0),
    dict(m=12.7, n=1, k=1),
    dict(m="12", n=1, k=1),
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ConfigurationError):
        SystemConfig(**kwargs)


@pytest.mark.parametrize("kwargs", [
    dict(m=1, n=1, k=1, p_max=np.inf, emf_max=np.inf),
    dict(m=1, n=1, k=2, p_max=np.inf, emf_max=(0.0029, np.inf)),
])
def test_config_rejects_an_infinite_power_cap(kwargs):
    # min(p_max, emf_max / sar_ref) is the cap every power solver takes
    with pytest.raises(ConfigurationError, match="p_max and emf_max must not both be infinite"):
        SystemConfig(**kwargs)


def test_config_takes_one_infinite_cap_term():
    assert SystemConfig(m=1, n=1, k=1, p_max=np.inf).p_max == np.inf
    assert np.all(SystemConfig(m=1, n=1, k=2, emf_max=np.inf).emf_max == np.inf)


@pytest.mark.parametrize("theta, alpha, message", [
    (np.zeros((2, 2)), 1.0, "theta must be a 1-d array"),
    (np.zeros(3), 1.5, r"alpha must lie in \(0, 1\], got 1.5"),
])
def test_phase_vector_rejects_bad_values(theta, alpha, message):
    with pytest.raises(ConfigurationError, match=message):
        PhaseVector(theta=theta, alpha=alpha)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_phase_vector_rejects_non_finite_angles(bad):
    """np.mod keeps a nan angle and turns an infinite one into nan with a
    RuntimeWarning, so the check runs first and nothing warns."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError, match="theta contains non-finite angles"):
            PhaseVector(theta=np.array([0.0, bad, np.pi]))
        # np.angle of a nan coefficient is a nan angle; an infinite one fails the modulus check
        with pytest.raises(ConfigurationError, match="non-finite angles|unit modulus"):
            PhaseVector.from_phi(np.array([1.0, complex(bad, 0.0)]))


@pytest.mark.parametrize("p", [[0.5, -1e-3], [[0.5, 0.5]]], ids=["negative", "2-d"])
def test_power_allocation_rejects_bad_powers(p):
    with pytest.raises(ConfigurationError, match="finite nonnegative watts"):
        PowerAllocation(p=np.array(p))


def test_phase_vector_round_trip(rng):
    phase = random_phase(rng, 8, alpha=0.7)
    assert np.allclose(np.abs(phase.phi), 1.0, atol=1e-12)
    assert np.allclose(phase.phi_vec, 0.7 * phase.phi)
    again = PhaseVector.from_phi(phase.phi, alpha=0.7)
    assert np.allclose(again.theta, phase.theta)
    with pytest.raises(ConfigurationError):
        PhaseVector.from_phi(np.array([1.0, 0.5 + 0.0j]))


def test_beamformer_requires_unit_rows(rng):
    with pytest.raises(ConfigurationError):
        Beamformer(rows=np.array([[1.0, 1.0]], dtype=complex))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)], ids=["nan", "inf", "nan-imag"])
def test_beamformer_rejects_non_finite_rows(bad):
    # |nan - 1| > 1e-10 is false, so the unit-norm rule alone lets a nan row through
    with pytest.raises(ConfigurationError, match="combiner rows must be finite"):
        Beamformer(rows=[[bad, 0.0]])


@pytest.mark.parametrize("build", [
    lambda: SystemConfig(m=True, n=4, k=2),
    lambda: ExperimentPlan(trials=True, seed=1, k_grid=(2,), m_grid=(3,), n_grid=(4,)),
    lambda: QuantOptions(bits=True),
], ids=["SystemConfig m", "ExperimentPlan trials", "QuantOptions bits"])
def test_a_bool_is_not_a_count(build):
    # True is an Integral equal to 1, so without its own rule it built an m=1 scenario
    with pytest.raises(ConfigurationError, match="must be a whole number, got True"):
        build()


def test_numpy_integers_are_counts():
    assert SystemConfig(m=np.int64(3), n=np.int32(4), k=np.uint8(2)).m == 3
    assert QuantOptions(bits=np.int64(2)).bits == 2


def _trusted_case(rng, k=3, m=4, n=6):
    """A channel whose second user's RIS channel is zero, so its optimal
    combiner is the basis vector e0 rather than a normalized MMSE row."""
    chan = synth_channel(rng, m, n, k)
    h2 = chan.h2.copy()
    h2[1] = 0.0
    chan = ChannelRealization(h1=chan.h1, ris_corr_sqrt=chan.ris_corr_sqrt, h2=h2,
                              user_positions=chan.user_positions)
    return chan, random_phase(rng, n), rng.uniform(0.1, 1.0, k), 0.3


def test_optimal_beamformers_pass_the_checked_constructor(rng):
    for _ in range(5):
        chan, phase, p, sigma2 = _trusted_case(rng)
        bf = optimal_beamformers(chan, phase, p, sigma2)
        assert np.array_equal(bf.rows[1], np.eye(4)[0])
        assert np.array_equal(Beamformer(rows=bf.rows).rows, bf.rows)


def test_gain_table_of_a_beamformer_equals_the_checked_table(rng):
    for _ in range(5):
        chan, phase, p, sigma2 = _trusted_case(rng)
        bf = optimal_beamformers(chan, phase, p, sigma2)
        trusted = gain_table(chan, phase, bf, sigma2)
        checked = gain_table(chan, phase, bf.rows.copy(), sigma2)
        public = GainTable(f=trusted.f, n=trusted.n)
        for name in ("f", "n", "cross"):
            assert np.array_equal(getattr(trusted, name), getattr(checked, name)), name
            assert np.array_equal(getattr(trusted, name), getattr(public, name)), name


def test_the_public_constructors_still_check(rng):
    rows = random_beamformer(rng, 2, 3).rows.copy()
    rows[1] = 0.0
    with pytest.raises(ConfigurationError, match="unit norm"):
        Beamformer(rows=rows)
    with pytest.raises(ConfigurationError, match="gains must be nonnegative"):
        GainTable(f=np.array([[1.0, -1e-30], [0.5, 1.0]]), n=np.ones(2))
    with pytest.raises(ConfigurationError, match="noise terms positive"):
        GainTable(f=np.ones((2, 2)), n=np.array([1.0, 0.0]))


@pytest.mark.parametrize("shape", [(3, 3), (2, 4), (3,)], ids=["another k", "another m", "1-d"])
def test_combiners_of_another_shape_are_rejected(rng, shape):
    chan = synth_channel(rng, 3, 4, 2)
    phase, p = random_phase(rng, 4), np.ones(2)
    rows = np.ones(shape, dtype=complex)
    with pytest.raises(ConfigurationError, match=r"combiners must be \(2, 3\)"):
        gain_table(chan, phase, rows, 1.0)
    with pytest.raises(ConfigurationError, match=r"combiners \(.*\) and powers \(2,\) must be"):
        build_quadratic_forms(chan, rows, p, 1.0)


def test_report_minimum_is_derived():
    rep = SinrReport.from_per_user(np.array([3.0, 1.5, 2.0]), stage_trace=[("bf", 1.5)])
    assert rep.minimum == 1.5 and rep.stage_trace == (("bf", 1.5),)
    # the minimum is no argument, so it cannot disagree with the SINRs
    with pytest.raises(TypeError):
        SinrReport(per_user=np.array([1.0, 2.0]), minimum=2.0)
    moved = replace(rep, per_user=np.array([0.5, 4.0]))
    assert moved.minimum == 0.5 and moved.stage_trace == rep.stage_trace
    with pytest.raises(ConfigurationError, match="SINRs cannot be negative"):
        SinrReport.from_per_user(np.array([1.0, -1e-9]))


def test_effective_channel_identity_case():
    chan = ChannelRealization(h1=np.ones((1, 1)), ris_corr_sqrt=np.ones((1, 1)),
                              h2=np.ones((1, 1)), user_positions=np.zeros((1, 2)))
    phase = PhaseVector(theta=np.zeros(1), alpha=1.0)
    assert effective_channel(chan, phase) == pytest.approx(np.array([[1.0]]))
    half = PhaseVector(theta=np.zeros(1), alpha=0.5)
    assert effective_channel(chan, half) == pytest.approx(np.array([[0.5]]))


def test_effective_channel_matches_direct_product(rng):
    chan = synth_channel(rng, 3, 2, 2, identity_corr=False)
    phase = random_phase(rng, 2, alpha=0.9)
    g = effective_channel(chan, phase)
    for k in range(2):
        direct = chan.h1 @ chan.ris_corr_sqrt @ np.diag(phase.phi_vec) @ chan.h2[k]
        assert np.abs(g[:, k] - direct).max() < 1e-12


def test_effective_channel_linear_in_user_channel_and_alpha(rng):
    chan = synth_channel(rng, 4, 3, 2)
    phase = random_phase(rng, 3, alpha=1.0)
    scaledc = ChannelRealization(h1=chan.h1, ris_corr_sqrt=chan.ris_corr_sqrt,
                                 h2=3.0 * chan.h2, user_positions=chan.user_positions)
    assert np.allclose(effective_channel(scaledc, phase), 3.0 * effective_channel(chan, phase))
    half = PhaseVector(theta=phase.theta, alpha=0.5)
    assert np.allclose(effective_channel(chan, half), 0.5 * effective_channel(chan, phase))


def test_effective_channel_dimension_mismatch(rng):
    chan = synth_channel(rng, 3, 4, 2)
    with pytest.raises(ConfigurationError):
        effective_channel(chan, random_phase(rng, 5))


@pytest.mark.parametrize("field, shape, message", [
    ("ris_corr_sqrt", (2, 2), "ris_corr_sqrt shape"), ("h2", (2, 4), "h2 shape"),
    ("user_positions", (3, 2), "user_positions shape"),
])
def test_channel_realization_rejects_shape_mismatches(field, shape, message):
    arrays = dict(h1=np.ones((2, 3), dtype=complex), ris_corr_sqrt=np.eye(3, dtype=complex),
                  h2=np.ones((2, 3), dtype=complex), user_positions=np.ones((2, 2)))
    arrays[field] = np.ones(shape)
    with pytest.raises(ConfigurationError, match=message):
        ChannelRealization(**arrays)


@pytest.mark.parametrize("f, n", [(np.ones((2, 3)), np.ones(2)), (np.ones((2, 2)), np.ones(3))],
                         ids=["f not square", "n too long"])
def test_gain_table_rejects_inconsistent_shapes(f, n):
    with pytest.raises(ConfigurationError, match="gain table shapes inconsistent"):
        GainTable(f=f, n=n)


@pytest.mark.parametrize("field, value", [
    ("h1", np.nan), ("ris_corr_sqrt", np.inf), ("h2", complex(0.0, -np.inf)),
    ("user_positions", np.nan), ("user_positions", -np.inf),
])
def test_channel_realization_rejects_non_finite_entries(field, value):
    arrays = dict(h1=np.ones((2, 3), dtype=complex), ris_corr_sqrt=np.eye(3, dtype=complex),
                  h2=np.ones((2, 3), dtype=complex), user_positions=np.ones((2, 2)))
    arrays[field][1, 0] = value
    with pytest.raises(ConfigurationError, match=f"{field} contains non-finite entries"):
        ChannelRealization(**arrays)


def test_single_user_no_interference():
    chan = ChannelRealization(h1=np.ones((1, 1)), ris_corr_sqrt=np.ones((1, 1)),
                              h2=np.ones((1, 1)), user_positions=np.zeros((1, 2)))
    phase = PhaseVector(theta=np.zeros(1), alpha=1.0)
    bf = Beamformer(rows=np.ones((1, 1), dtype=complex))
    rep = sinr_per_user(chan, phase, PowerAllocation(np.array([1.0])), bf, sigma2=0.5)
    assert rep.per_user[0] == pytest.approx(2.0, rel=1e-14)


def test_zero_power_means_zero_sinr(rng):
    chan = synth_channel(rng, 3, 4, 3)
    phase = random_phase(rng, 4)
    bf = random_beamformer(rng, 3, 3)
    rep = sinr_per_user(chan, phase, np.zeros(3), bf, sigma2=1.0)
    assert np.all(rep.per_user == 0.0)
    assert rep.minimum == 0.0


def test_two_user_scalar_oracle(rng):
    # hand-enumerable 2x2 gain arithmetic, checked against the vector path
    chan = synth_channel(rng, 2, 2, 2)
    phase = random_phase(rng, 2)
    bf = random_beamformer(rng, 2, 2)
    p = np.array([0.8, 0.4])
    sigma2 = 0.7
    g = effective_channel(chan, phase)
    expected = []
    for k in range(2):
        sig = p[k] * abs(np.vdot(bf.rows[k], g[:, k])) ** 2
        other = 1 - k
        intf = p[other] * abs(np.vdot(bf.rows[k], g[:, other])) ** 2
        expected.append(sig / (intf + sigma2 * np.linalg.norm(bf.rows[k]) ** 2))
    rep = sinr_per_user(chan, phase, p, bf, sigma2)
    assert np.abs(rep.per_user - np.array(expected)).max() < 1e-12


def test_sinr_per_user_keeps_a_high_sinr_users_interference(rng):
    """At SINR about 1e9 each user's interference is summed, not left over
    from subtracting its signal, so the SINR holds 1e-12 of a 40-digit
    reference. The combiners are scaled standard basis vectors, so every
    b_i^H g_j is one product and the reference sees the same gains."""
    k = 3
    h2 = np.eye(k) + 1e-5 * complex_normal(rng, (k, k))
    chan = ChannelRealization(h1=np.eye(k), ris_corr_sqrt=np.eye(k), h2=h2,
                              user_positions=np.zeros((k, 2)))
    phase = random_phase(rng, k)
    bf = Beamformer(rows=np.diag(np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, k))))
    p = rng.uniform(0.5, 1.0, k)
    sigma2 = 1e-9
    rep = sinr_per_user(chan, phase, p, bf, sigma2)

    g = effective_channel(chan, phase)
    with mpmath.workdps(40):
        gains = [[abs(mpmath.fsum(mpmath.conj(mpmath.mpc(b)) * mpmath.mpc(x)
                                  for b, x in zip(bf.rows[i], g[:, j]))) ** 2
                  for j in range(k)] for i in range(k)]
        for i in range(k):
            noise = sigma2 * mpmath.fsum(abs(mpmath.mpc(b)) ** 2 for b in bf.rows[i])
            interference = mpmath.fsum(p[j] * gains[i][j] for j in range(k) if j != i)
            expected = p[i] * gains[i][i] / (interference + noise)
            assert expected > 1e8
            assert abs(rep.per_user[i] - expected) <= 1e-12 * expected


def test_sinr_invariant_to_combiner_phase(rng):
    chan = synth_channel(rng, 3, 4, 3)
    phase = random_phase(rng, 4)
    bf = random_beamformer(rng, 3, 3)
    p = rng.uniform(0.1, 1.0, 3)
    base = sinr_per_user(chan, phase, p, bf, 1.0).per_user
    for _ in range(5):
        spins = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
        spun = Beamformer(rows=bf.rows * spins[:, None])
        assert np.allclose(sinr_per_user(chan, phase, p, spun, 1.0).per_user, base, rtol=1e-12)


def test_single_user_sinr_linear_in_power(rng):
    chan = synth_channel(rng, 3, 4, 1)
    phase = random_phase(rng, 4)
    bf = random_beamformer(rng, 1, 3)
    one = sinr_per_user(chan, phase, np.array([1.0]), bf, 1.0).minimum
    for c in (0.25, 2.0, 7.5):
        scaled = sinr_per_user(chan, phase, np.array([c]), bf, 1.0).minimum
        assert scaled == pytest.approx(c * one, rel=1e-12)


def test_report_minimum_matches_per_user(rng):
    for _ in range(20):
        chan = synth_channel(rng, 3, 4, 4)
        rep = sinr_per_user(chan, random_phase(rng, 4), rng.uniform(0, 1, 4),
                            random_beamformer(rng, 4, 3), 1.0)
        assert rep.minimum == rep.per_user.min()


def test_sinr_per_user_is_the_gain_tables_formula(rng):
    for k in (1, 3, 6):
        chan = synth_channel(rng, 4, 5, k)
        phase = random_phase(rng, 5)
        bf = random_beamformer(rng, k, 4)
        p = rng.uniform(0.0, 1.0, k)
        rep = sinr_per_user(chan, phase, p, bf, 0.3)
        assert np.array_equal(rep.per_user, gain_table(chan, phase, bf, 0.3).sinr(p))


def test_zero_combiner_row_rejected(rng):
    # a zero row has no noise term, so its SINR would be 0/0
    chan = synth_channel(rng, 3, 4, 2)
    rows = random_beamformer(rng, 2, 3).rows.copy()
    rows[1] = 0.0
    with pytest.raises(ConfigurationError, match="noise"):
        sinr_per_user(chan, random_phase(rng, 4), np.ones(2), rows, 1.0)


def test_sigma_must_be_positive(rng):
    chan = synth_channel(rng, 2, 2, 2)
    with pytest.raises(ConfigurationError):
        sinr_per_user(chan, random_phase(rng, 2), np.ones(2), random_beamformer(rng, 2, 2), 0.0)


def test_noise_power_values():
    assert noise_power(1.0) == pytest.approx(10 ** (-17.4) * 1e-3, rel=1e-12)
    assert noise_power(1e8) == pytest.approx(10 ** (-9.4) * 1e-3, rel=1e-12)


SIGMA2_ENTRIES = {
    "optimal_beamformers": lambda chan, phase, p, bf, s2: optimal_beamformers(chan, phase, p, s2),
    "sinr_per_user": lambda chan, phase, p, bf, s2: sinr_per_user(chan, phase, p, bf, s2),
    "gain_table": lambda chan, phase, p, bf, s2: gain_table(chan, phase, bf, s2),
    "build_quadratic_forms": lambda chan, phase, p, bf, s2: build_quadratic_forms(chan, bf, p, s2),
    "sinr_phase_tangent": lambda chan, phase, p, bf, s2: sinr_phase_tangent(chan, p, phase, s2),
    "lse_gradient_phase": lambda chan, phase, p, bf, s2: lse_gradient_phase(chan, p, phase, s2),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sigma2", [0.0, -1.0, np.nan, np.inf], ids=["zero", "negative", "nan", "inf"])
@pytest.mark.parametrize("entry", sorted(SIGMA2_ENTRIES))
def test_every_entry_rejects_bad_sigma2_before_factoring(monkeypatch, rng, entry, sigma2):
    chan = synth_channel(rng, 3, 4, 2)
    phase, bf, p = random_phase(rng, 4), random_beamformer(rng, 2, 3), np.array([0.7, 0.4])
    factored = []
    original = beamforming._cholesky_solve

    def counted(a, b, what):
        factored.append(what)
        return original(a, b, what)

    monkeypatch.setattr(beamforming, "_cholesky_solve", counted)
    SIGMA2_ENTRIES[entry](chan, phase, p, bf, 0.5)
    factored.clear()
    with pytest.raises(ConfigurationError, match="sigma2 must be finite and positive"):
        SIGMA2_ENTRIES[entry](chan, phase, p, bf, sigma2)
    assert factored == []
