import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ris_maxmin import (ChannelRealization, ConfigurationError, DomainError, SystemConfig,
                        sample_channel)
from ris_maxmin.channel import (LOS, NLOS, dump_channel_text, load_channel_text,
                                los_steering_matrix, path_loss,
                                ris_correlation_sqrt)

from oracles import dump_channel_text_per_element


def test_path_loss_unit_distance_cancellation():
    assert path_loss(1.0, LOS, gain_db=35.95) == pytest.approx(1.0, rel=1e-12)


def test_path_loss_los_closed_form():
    assert path_loss(10.0, LOS, gain_db=5.0) == pytest.approx(10 ** (-3.095) / 10 ** 2.2, rel=1e-12)
    assert path_loss(10.0, LOS, gain_db=5.0) == pytest.approx(5.07e-6, rel=1e-3)


def test_path_loss_nlos_closed_form():
    assert path_loss(50.0, NLOS) == pytest.approx(10 ** (-3.305) / 50 ** 3.67, rel=1e-12)


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(DomainError):
        path_loss(0.0, LOS)
    with pytest.raises(DomainError):
        path_loss(-3.0, NLOS)


@settings(max_examples=200, deadline=None)
@given(d1=st.floats(0.01, 1e4), d2=st.floats(0.01, 1e4))
def test_path_loss_strictly_decreasing(d1, d2):
    lo, hi = sorted((d1, d2))
    if lo == hi:
        return
    for law, gain_db in ((LOS, 3.0 + 2.0), (NLOS, 0.0)):
        assert path_loss(lo, law, gain_db) > path_loss(hi, law, gain_db)


def test_steering_matrix_first_entry_and_modulus(rng):
    theta1, phi1 = rng.uniform(0.0, np.pi, size=6), rng.uniform(0.0, 2 * np.pi, size=6)
    theta2, phi2 = rng.uniform(0.0, np.pi, size=4), rng.uniform(0.0, 2 * np.pi, size=4)
    h = los_steering_matrix(theta1, phi1, theta2, phi2, d_bs=0.5, d_ris=0.5)
    assert h.shape == (4, 6)
    assert h[0, 0] == pytest.approx(1.0)
    assert np.allclose(np.abs(h), 1.0, atol=1e-12)


def test_steering_matrix_hand_value():
    half_pi = np.array([np.pi / 2])
    h = los_steering_matrix(half_pi, half_pi, np.repeat(half_pi, 2), np.repeat(half_pi, 2),
                            d_bs=0.5, d_ris=0.5)
    assert h[1, 0] == pytest.approx(np.exp(1j * np.pi), abs=1e-12)
    assert h[1, 0].real == pytest.approx(-1.0, abs=1e-12)


@pytest.mark.parametrize("d_bs, d_ris", [(0.0, 0.5), (0.5, -0.5)])
def test_steering_matrix_rejects_nonpositive_spacing(d_bs, d_ris):
    angles = np.full(2, np.pi / 2)
    with pytest.raises(ConfigurationError, match="element spacings must be positive"):
        los_steering_matrix(angles, angles, angles, angles, d_bs=d_bs, d_ris=d_ris)


def test_user_positions_region_and_mean(rng):
    pts = sample_channel(SystemConfig(m=1, n=1, k=100_000), rng).user_positions
    radii = np.linalg.norm(pts, axis=1)
    assert np.all(pts >= 0.0)
    assert radii.min() >= 10.0 and radii.max() <= 70.0
    # area-uniform annulus sector: E[r] = (2/3)(R2^3 - R1^3)/(R2^2 - R1^2)
    expected = (2.0 / 3.0) * (70.0 ** 3 - 10.0 ** 3) / (70.0 ** 2 - 10.0 ** 2)
    assert np.mean(radii) == pytest.approx(expected, rel=0.01)


def test_correlation_sqrt_identity_and_exponential():
    assert np.allclose(ris_correlation_sqrt(5, 0.0), np.eye(5))
    root = ris_correlation_sqrt(6, 0.6)
    rebuilt = root @ root.conj().T
    expected = 0.6 ** np.abs(np.subtract.outer(np.arange(6), np.arange(6)))
    assert np.abs(rebuilt - expected).max() < 1e-10


def test_sample_channel_shapes(rng):
    cfg = SystemConfig(m=5, n=7, k=3)
    chan = sample_channel(cfg, rng)
    assert chan.h1.shape == (5, 7)
    assert chan.ris_corr_sqrt.shape == (7, 7)
    assert chan.h2.shape == (3, 7)
    assert chan.user_positions.shape == (3, 2)


def test_sample_channel_reproducible():
    cfg = SystemConfig(m=3, n=4, k=2, ris_corr_rho=0.4)
    a = sample_channel(cfg, np.random.default_rng(1234))
    b = sample_channel(cfg, np.random.default_rng(1234))
    assert np.array_equal(a.h1, b.h1)
    assert np.array_equal(a.h2, b.h2)
    assert np.array_equal(a.user_positions, b.user_positions)


# sha256 over the dumps of the draws below, as sample_channel wrote them before
# it was folded onto plain arrays; a change to its draw order or to any of its
# floating-point operations moves it
PINNED_DRAWS_SHA256 = "6c0cd73126d870217bad93a1e24e61a22fa81b266656eea3b2668e9bb4b37a08"


def test_sample_channel_draws_are_pinned():
    digest = hashlib.sha256()
    for k, rho, kappa in itertools.product((1, 2, 6), (0.0, 0.4), (0.0, 10.0)):
        cfg = SystemConfig(m=4, n=6, k=k, ris_corr_rho=rho, kappa=kappa, gain_user_dbi=3.0)
        rng = np.random.default_rng((k, int(10 * rho), int(kappa)))
        for _ in range(2):
            digest.update(dump_channel_text(sample_channel(cfg, rng)).encode())
    assert digest.hexdigest() == PINNED_DRAWS_SHA256


def test_sample_channel_large_rician_factor_limit(rng):
    cfg = SystemConfig(m=3, n=4, k=1, kappa=1e9)
    chan = sample_channel(cfg, rng)
    d = np.linalg.norm(cfg.ris_position)
    pl = path_loss(d, LOS, cfg.gain_ris_dbi + cfg.gain_bs_dbi)
    assert np.all(np.abs(np.abs(chan.h1) - np.sqrt(pl / 4)) < 1e-3 * np.sqrt(pl / 4))


def test_sample_channel_moments():
    cfg = SystemConfig(m=2, n=3, k=2)
    rng = np.random.default_rng(77)
    draws = 10_000
    h1_sq = np.zeros(draws)
    h2_sq = np.zeros((draws, 2))
    dists = np.zeros((draws, 2))
    for i in range(draws):
        chan = sample_channel(cfg, rng)
        h1_sq[i] = np.linalg.norm(chan.h1) ** 2
        h2_sq[i] = (np.abs(chan.h2) ** 2).mean(axis=1)
        dists[i] = np.linalg.norm(chan.user_positions - np.array(cfg.ris_position), axis=1)
    d_rb = np.linalg.norm(cfg.ris_position)
    pl_los = path_loss(d_rb, LOS, cfg.gain_ris_dbi + cfg.gain_bs_dbi)
    assert h1_sq.mean() == pytest.approx(cfg.m * pl_los, rel=0.05)
    # per-entry variance of each user channel is its NLOS path loss
    pl_nlos = path_loss(dists.ravel(), NLOS)
    assert h2_sq.ravel().mean() == pytest.approx(pl_nlos.mean(), rel=0.05)


def test_channel_dump_round_trip(rng):
    cfg = SystemConfig(m=3, n=4, k=2, ris_corr_rho=0.3)
    chan = sample_channel(cfg, rng)
    text = dump_channel_text(chan)
    back = load_channel_text(text)
    assert np.array_equal(back.h1, chan.h1)
    assert np.array_equal(back.ris_corr_sqrt, chan.ris_corr_sqrt)
    assert np.array_equal(back.h2, chan.h2)
    assert np.array_equal(back.user_positions, chan.user_positions)


def _without_line(text, i):
    lines = text.splitlines(keepends=True)
    return "".join(lines[:i] + lines[i + 1:])


def _with_line(text, i, line):
    lines = text.splitlines(keepends=True)
    lines[i] = line + "\n"
    return "".join(lines)


# each edit of an m=3, n=4, k=2 dump, whose lines are: 0 header, 1-3 M/N/K,
# 4 H1, 5-16 its entries, 17 RIS_CORR_SQRT, 18-33, 34 H2, 35-42, 43
# POSITIONS, 44-45, 46 END
MALFORMED_DUMPS = {
    "truncated section": lambda t: "".join(t.splitlines(keepends=True)[:30]),
    "negative dimension": lambda t: _with_line(t, 1, "M -3"),
    "non-numeric entry": lambda t: _with_line(t, 7, "0.5 abc"),
    "one-field entry": lambda t: _with_line(t, 7, "0.5"),
    "three-field position": lambda t: _with_line(t, 44, "1 2 3"),
    "missing END": lambda t: _without_line(t, 46),
    "trailing line": lambda t: t + "0 0\n",
    "non-finite channel entry": lambda t: _with_line(t, 7, "nan 0"),
    "non-finite position": lambda t: _with_line(t, 44, "nan inf"),
    "wrong section tag": lambda t: _with_line(t, 17, "RIS_CORR"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_DUMPS))
def test_load_channel_text_rejects_malformed_dump_naming_the_line(case):
    chan = sample_channel(SystemConfig(m=3, n=4, k=2), np.random.default_rng(5))
    text = dump_channel_text(chan)
    assert len(text.splitlines()) == 47
    with pytest.raises(ConfigurationError, match=r"line \d+"):
        load_channel_text(MALFORMED_DUMPS[case](text))


@pytest.mark.parametrize("edit", [lambda t: "", lambda t: _without_line(t, 0),
                                  lambda t: _with_line(t, 0, "ris-uplink-channel 2")],
                         ids=["empty", "no header", "other header"])
def test_load_channel_text_rejects_a_missing_header(edit):
    text = dump_channel_text(sample_channel(SystemConfig(m=3, n=4, k=2), np.random.default_rng(5)))
    with pytest.raises(ConfigurationError, match="bad or missing header line"):
        load_channel_text(edit(text))


@pytest.mark.parametrize("k, rho", [pytest.param(k, rho, id=f"{k}" if rho == 0 else f"{k}-{rho}")
                                    for rho in (0.0, 0.4) for k in (2, 4, 6)])
def test_channel_dump_bytes_match_the_per_element_formatter(k, rho):
    # at rho = 0.4 the correlation root's entries take all 17 digits
    cfg = SystemConfig(m=12, n=24, k=k, ris_corr_rho=rho)
    chan = sample_channel(cfg, np.random.default_rng((11, k)))
    assert dump_channel_text(chan).encode() == dump_channel_text_per_element(chan).encode()


def _extreme_realization():
    """Signed zeros, the smallest subnormal, a near-overflow magnitude and a
    negative position."""
    return ChannelRealization(
        h1=np.array([[complex(-0.0, 0.0), complex(5e-324, -5e-324)],
                     [complex(1e308, -1e308), complex(-0.0, -0.0)]]),
        ris_corr_sqrt=np.array([[1.0, 0.1 + 0.2j], [0.1 - 0.2j, -2.5e-310]]),
        h2=np.array([[complex(1 / 3, -2 / 3), complex(-1e-300, 7.0)]]),
        user_positions=np.array([[-12.5, -0.0]]),
    )


def test_channel_dump_bytes_of_extreme_entries_match_the_per_element_formatter():
    text = dump_channel_text(_extreme_realization())
    assert text.encode() == dump_channel_text_per_element(_extreme_realization()).encode()
    assert "-0 -0\n" in text and "4.9406564584124654e-324" in text


def test_channel_dump_round_trip_keeps_every_bit_of_extreme_entries():
    chan = _extreme_realization()
    back = load_channel_text(dump_channel_text(chan))
    for name in ("h1", "ris_corr_sqrt", "h2", "user_positions"):
        assert getattr(back, name).tobytes() == getattr(chan, name).tobytes(), name
