"""Random channel generation: UMi path loss, Rician BS-RIS link, Rayleigh
RIS-user links, and uniform user placement in a quarter annulus.

Sampling takes an explicit ``numpy.random.Generator``; there is no global
state, so concurrent trials simply use disjoint generators. Given the same
generator state the draw order is fixed and the output is bit-reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .core import TWO_PI, ChannelRealization, SystemConfig
from .errors import ConfigurationError, DomainError

LOS_EXPONENT = 2.2
LOS_INTERCEPT_DB = 35.95
NLOS_EXPONENT = 3.67
NLOS_INTERCEPT_DB = 33.05


@dataclass(frozen=True)
class PathLossModel:
    """Distance power law 10^((g_t + g_r - intercept)/10) / d^exponent."""

    exponent: float
    intercept_db: float
    gain_tx_dbi: float = 0.0
    gain_rx_dbi: float = 0.0

    @classmethod
    def los(cls, gain_tx_dbi: float = 0.0, gain_rx_dbi: float = 0.0) -> "PathLossModel":
        return cls(LOS_EXPONENT, LOS_INTERCEPT_DB, gain_tx_dbi, gain_rx_dbi)

    @classmethod
    def nlos(cls, gain_tx_dbi: float = 0.0, gain_rx_dbi: float = 0.0) -> "PathLossModel":
        return cls(NLOS_EXPONENT, NLOS_INTERCEPT_DB, gain_tx_dbi, gain_rx_dbi)


def path_loss(d, model: PathLossModel):
    """Linear power gain of a link of length ``d`` metres (strictly decreasing in d)."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise DomainError("distance must be positive")
    intercept = 10.0 ** ((model.gain_tx_dbi + model.gain_rx_dbi - model.intercept_db) / 10.0)
    out = intercept / d ** model.exponent
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class LosAngleSet:
    """Elevation/azimuth angle draws for the deterministic BS-RIS component.

    ``theta1``/``phi1`` have one entry per RIS element, ``theta2``/``phi2``
    one per BS antenna. Elevations are uniform on [0, pi], azimuths on
    [0, 2*pi].
    """

    theta1: np.ndarray
    phi1: np.ndarray
    theta2: np.ndarray
    phi2: np.ndarray

    def __post_init__(self):
        for name in ("theta1", "theta2"):
            a = np.asarray(getattr(self, name), dtype=float)
            if np.any(a < 0) or np.any(a > np.pi):
                raise ConfigurationError(f"{name} must lie in [0, pi]")
            object.__setattr__(self, name, a)
        for name in ("phi1", "phi2"):
            a = np.asarray(getattr(self, name), dtype=float)
            if np.any(a < 0) or np.any(a > TWO_PI):
                raise ConfigurationError(f"{name} must lie in [0, 2*pi]")
            object.__setattr__(self, name, a)


def sample_los_angles(m: int, n: int, rng: np.random.Generator) -> LosAngleSet:
    return LosAngleSet(
        theta1=rng.uniform(0.0, np.pi, size=n),
        phi1=rng.uniform(0.0, TWO_PI, size=n),
        theta2=rng.uniform(0.0, np.pi, size=m),
        phi2=rng.uniform(0.0, TWO_PI, size=m),
    )


def los_steering_matrix(m: int, n: int, angles: LosAngleSet,
                        d_bs: float = SystemConfig.d_bs,
                        d_ris: float = SystemConfig.d_ris) -> np.ndarray:
    """Unit-modulus (m, n) steering matrix of the deterministic BS-RIS path.

    Entry (a, b), zero-based, is
    exp(j*2*pi*(a*d_bs*sin(theta1[b])*sin(phi1[b]) + b*d_ris*sin(theta2[a])*sin(phi2[a])))
    with the spacings expressed as fractions of the wavelength, so only the
    ratios enter.
    """
    if d_bs <= 0 or d_ris <= 0:
        raise ConfigurationError("element spacings must be positive")
    bs_term = np.arange(m)[:, None] * d_bs * (np.sin(angles.theta1) * np.sin(angles.phi1))[None, :]
    ris_term = np.arange(n)[None, :] * d_ris * (np.sin(angles.theta2) * np.sin(angles.phi2))[:, None]
    return np.exp(1j * TWO_PI * (bs_term + ris_term))


def sample_user_positions(config: SystemConfig, rng: np.random.Generator,
                          k: int | None = None) -> np.ndarray:
    """Uniform draws over {first quadrant} intersected with the annulus
    r_min <= ||x|| <= r_max centred on the BS at the origin.

    Area-uniform: radius via inverse CDF sqrt(r_min^2 + u*(r_max^2 - r_min^2)),
    angle uniform on [0, pi/2]. Returns a (k, 2) array.
    """
    if k is None:
        k = config.k
    radius = np.sqrt(config.r_min ** 2 + rng.random(k) * (config.r_max ** 2 - config.r_min ** 2))
    angle = rng.uniform(0.0, np.pi / 2.0, size=k)
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


def ris_correlation_sqrt(n: int, rho: float) -> np.ndarray:
    """PSD square root of the RIS element correlation matrix.

    rho == 0 gives the identity (uncorrelated elements, the default model);
    otherwise the exponential profile rho^|a-b| is rooted through a Hermitian
    eigendecomposition with eigenvalues below 1e-12 clamped to zero.
    """
    if rho == 0.0:
        return np.eye(n, dtype=complex)
    corr = rho ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    lam, vec = np.linalg.eigh(corr.astype(complex))
    lam = np.where(lam < 1e-12, 0.0, lam)
    return (vec * np.sqrt(lam)) @ vec.conj().T


def _standard_complex(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def sample_channel(config: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one ChannelRealization for the configured scenario.

    BS-RIS: Rician mixture sqrt(PL_LOS(d)/n) * (sqrt(kappa/(kappa+1)) * Hbar
    + sqrt(1/(kappa+1)) * Htilde) where d is the BS-RIS distance, the RIS
    transmits with 0 dBi and the BS receives with its element gain.
    RIS-user links: sqrt(PL_NLOS(d_k)) times i.i.d. standard complex normal
    entries, both node classes at 0 dBi unless configured otherwise.
    """
    m, n, k = config.m, config.n, config.k
    ris = np.asarray(config.ris_position, dtype=float)
    d_bs_ris = float(np.linalg.norm(ris))
    pl_los = path_loss(d_bs_ris, PathLossModel.los(config.gain_ris_dbi, config.gain_bs_dbi))

    angles = sample_los_angles(m, n, rng)
    h1_bar = los_steering_matrix(m, n, angles, config.d_bs, config.d_ris)
    h1_tilde = _standard_complex(rng, (m, n))
    kap = config.kappa
    h1 = np.sqrt(pl_los / n) * (np.sqrt(kap / (kap + 1.0)) * h1_bar
                                + np.sqrt(1.0 / (kap + 1.0)) * h1_tilde)

    positions = sample_user_positions(config, rng)
    d_user_ris = np.linalg.norm(positions - ris[None, :], axis=1)
    pl_nlos = path_loss(d_user_ris, PathLossModel.nlos(config.gain_user_dbi, config.gain_ris_dbi))
    h2 = np.sqrt(pl_nlos)[:, None] * _standard_complex(rng, (k, n))

    return ChannelRealization(
        h1=h1,
        ris_corr_sqrt=ris_correlation_sqrt(n, config.ris_corr_rho),
        h2=h2,
        user_positions=positions,
    )


CHANNEL_DUMP_HEADER = "ris-uplink-channel 1"


def _complex_block(tag: str, arr) -> str:
    """One array's block of the dump: the tag line, then one "re im" line per entry."""
    # Python complex scalars from tolist() format faster than numpy ones, to the same bytes
    return "".join([tag + "\n"] + [f"{z.real:.17g} {z.imag:.17g}\n" for z in np.ravel(arr).tolist()])


def _dump_around_correlation(chan: ChannelRealization) -> tuple[str, str]:
    """The dump text before and after its RIS_CORR_SQRT block."""
    positions = "".join(f"{x:.17g} {y:.17g}\n" for x, y in chan.user_positions.tolist())
    head = f"{CHANNEL_DUMP_HEADER}\nM {chan.m}\nN {chan.n}\nK {chan.k}\n" + _complex_block("H1", chan.h1)
    return head, _complex_block("H2", chan.h2) + "POSITIONS\n" + positions + "END\n"


def dump_channel_text(chan: ChannelRealization) -> str:
    """Serialize one realization as a self-describing text record.

    Layout: a format line, dimension lines, then each array as one
    "re im" pair per line in row-major order, 17 significant digits.
    """
    head, tail = _dump_around_correlation(chan)
    return head + _complex_block("RIS_CORR_SQRT", chan.ris_corr_sqrt) + tail


def load_channel_text(text: str) -> ChannelRealization:
    """Parse the dump format written by :func:`dump_channel_text`."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or lines[0] != CHANNEL_DUMP_HEADER:
        raise ConfigurationError("not a channel dump: bad or missing header line")
    try:
        dims = {key: int(val) for key, val in (lines[i].split() for i in (1, 2, 3))}
        m, n, k = dims["M"], dims["N"], dims["K"]
    except (ValueError, KeyError, IndexError) as exc:
        raise ConfigurationError(f"malformed dimension header: {exc}") from exc

    pos = 4
    arrays = {}
    for tag, count in (("H1", m * n), ("RIS_CORR_SQRT", n * n), ("H2", k * n)):
        if lines[pos] != tag:
            raise ConfigurationError(f"expected section {tag!r} at line {pos + 1}")
        pos += 1
        vals = np.array([[float(v) for v in lines[pos + i].split()] for i in range(count)])
        arrays[tag] = vals[:, 0] + 1j * vals[:, 1]
        pos += count
    if lines[pos] != "POSITIONS":
        raise ConfigurationError(f"expected section 'POSITIONS' at line {pos + 1}")
    pos += 1
    positions = np.array([[float(v) for v in lines[pos + i].split()] for i in range(k)])
    return ChannelRealization(
        h1=arrays["H1"].reshape(m, n),
        ris_corr_sqrt=arrays["RIS_CORR_SQRT"].reshape(n, n),
        h2=arrays["H2"].reshape(k, n),
        user_positions=positions,
    )
