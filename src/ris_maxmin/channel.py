"""Random channel generation: UMi path loss, Rician BS-RIS link, Rayleigh
RIS-user links, and uniform user placement in a quarter annulus.

Sampling takes an explicit ``numpy.random.Generator``; there is no global
state, so concurrent trials simply use disjoint generators. Given the same
generator state the draw order is fixed and the output is bit-reproducible.
"""

import functools
import math

import numpy as np

from .core import TWO_PI, ChannelRealization, SystemConfig, _standard_complex
from .errors import ConfigurationError, DomainError

# UMi distance laws: (exponent, intercept in dB)
LOS = (2.2, 35.95)
NLOS = (3.67, 33.05)


def path_loss(d, law: tuple[float, float], gain_db: float = 0.0):
    """Linear power gain 10^((gain_db - intercept)/10) / d^exponent of a link
    of length ``d`` metres under ``law`` (LOS or NLOS); ``gain_db`` is the sum
    of its two antenna gains in dBi. Strictly decreasing in d."""
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise DomainError("distance must be positive")
    exponent, intercept_db = law
    out = 10.0 ** ((gain_db - intercept_db) / 10.0) / d ** exponent
    return float(out) if out.ndim == 0 else out


def los_steering_matrix(theta1, phi1, theta2, phi2, d_bs: float, d_ris: float) -> np.ndarray:
    """Unit-modulus (m, n) steering matrix of the deterministic BS-RIS path.

    ``theta1``/``phi1`` hold one elevation/azimuth per RIS element (n),
    ``theta2``/``phi2`` one per BS antenna (m). Entry (a, b), zero-based, is
    exp(j*2*pi*(a*d_bs*sin(theta1[b])*sin(phi1[b]) + b*d_ris*sin(theta2[a])*sin(phi2[a])))
    with the spacings expressed as fractions of the wavelength, so only the
    ratios enter.
    """
    if d_bs <= 0 or d_ris <= 0:
        raise ConfigurationError("element spacings must be positive")
    m, n = len(theta2), len(theta1)
    bs_term = np.arange(m)[:, None] * d_bs * (np.sin(theta1) * np.sin(phi1))[None, :]
    ris_term = np.arange(n)[None, :] * d_ris * (np.sin(theta2) * np.sin(phi2))[:, None]
    return np.exp(1j * TWO_PI * (bs_term + ris_term))


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


def sample_channel(config: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one ChannelRealization for the configured scenario.

    BS-RIS: Rician mixture sqrt(PL_LOS(d)/n) * (sqrt(kappa/(kappa+1)) * Hbar
    + sqrt(1/(kappa+1)) * Htilde) where d is the BS-RIS distance, the RIS
    transmits with its gain and the BS receives with its element gain. Hbar
    is the steering matrix of elevations uniform on [0, pi] and azimuths
    uniform on [0, 2*pi], drawn per RIS element, then per BS antenna.
    Users: area-uniform over the first-quadrant annulus r_min <= ||x|| <= r_max
    around the BS at the origin, with radius sqrt(r_min^2 + u*(r_max^2 - r_min^2))
    for uniform u and angle uniform on [0, pi/2].
    RIS-user links: sqrt(PL_NLOS(d_k)) times i.i.d. standard complex normal
    entries, with the user and RIS gains.
    """
    m, n, k = config.m, config.n, config.k
    ris = np.asarray(config.ris_position, dtype=float)
    d_bs_ris = float(np.linalg.norm(ris))
    pl_los = path_loss(d_bs_ris, LOS, config.gain_ris_dbi + config.gain_bs_dbi)

    theta1, phi1 = rng.uniform(0.0, np.pi, size=n), rng.uniform(0.0, TWO_PI, size=n)
    theta2, phi2 = rng.uniform(0.0, np.pi, size=m), rng.uniform(0.0, TWO_PI, size=m)
    h1_bar = los_steering_matrix(theta1, phi1, theta2, phi2, config.d_bs, config.d_ris)
    h1_tilde = _standard_complex(rng, (m, n))
    kap = config.kappa
    h1 = np.sqrt(pl_los / n) * (np.sqrt(kap / (kap + 1.0)) * h1_bar
                                + np.sqrt(1.0 / (kap + 1.0)) * h1_tilde)

    radius = np.sqrt(config.r_min ** 2 + rng.random(k) * (config.r_max ** 2 - config.r_min ** 2))
    angle = rng.uniform(0.0, np.pi / 2.0, size=k)
    positions = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    d_user_ris = np.linalg.norm(positions - ris[None, :], axis=1)
    pl_nlos = path_loss(d_user_ris, NLOS, config.gain_user_dbi + config.gain_ris_dbi)
    h2 = np.sqrt(pl_nlos)[:, None] * _standard_complex(rng, (k, n))

    return ChannelRealization(
        h1=h1,
        ris_corr_sqrt=ris_correlation_sqrt(n, config.ris_corr_rho),
        h2=h2,
        user_positions=positions,
    )


CHANNEL_DUMP_HEADER = "ris-uplink-channel 1"
# the dump's sections in order: h1, ris_corr_sqrt and h2 as one "re im" line
# per entry, then the users' positions as one "x y" line each
_SECTIONS = ("H1", "RIS_CORR_SQRT", "H2", "POSITIONS")


def _block(tag: str, arr) -> str:
    """One section of the dump: the tag line, then the array's row-major float
    view two values per line, each to 17 significant digits."""
    values = np.ravel(arr).view(float).tolist()
    return tag + "\n" + "%.17g %.17g\n" * (len(values) // 2) % tuple(values)


@functools.lru_cache(maxsize=8)
def _correlation_block(root: bytes) -> str:
    """The RIS_CORR_SQRT section of the correlation root with these bytes. The
    root depends on (n, ris_corr_rho) alone, so a run formats it once per
    scenario rather than once per trial."""
    return _block("RIS_CORR_SQRT", np.frombuffer(root, dtype=complex))


def dump_channel_text(chan: ChannelRealization) -> str:
    """Serialize one realization as a self-describing text record.

    Layout: a format line, the M, N and K lines, then each of _SECTIONS as
    its tag line and one pair of numbers per line in row-major order ("re
    im" per complex entry, "x y" per position) to 17 significant digits,
    then an END line.
    """
    arrays = (chan.h1, chan.ris_corr_sqrt, chan.h2, chan.user_positions)
    blocks = [_correlation_block(arr.tobytes()) if tag == "RIS_CORR_SQRT" else _block(tag, arr)
              for tag, arr in zip(_SECTIONS, arrays)]
    return "".join([f"{CHANNEL_DUMP_HEADER}\nM {chan.m}\nN {chan.n}\nK {chan.k}\n", *blocks, "END\n"])


def load_channel_text(text: str) -> ChannelRealization:
    """Parse the dump format written by :func:`dump_channel_text`.

    Blank lines are skipped. Any other departure from the layout raises
    ConfigurationError naming the line: a bad format, dimension or section
    line, an entry that is not two finite numbers, a dump cut short, or text
    after its END line.
    """
    rows = [(number, line.strip()) for number, line in enumerate(text.splitlines(), 1)
            if line.strip()]
    if not rows or rows[0][1] != CHANNEL_DUMP_HEADER:
        raise ConfigurationError("not a channel dump: bad or missing header line")

    def row(i: int, what: str) -> tuple[int, str]:
        if i >= len(rows):
            raise ConfigurationError(f"channel dump ends at line {rows[-1][0]}, before {what}")
        return rows[i]

    def section(i: int, tag: str) -> None:
        number, line = row(i, f"section {tag!r}")
        if line != tag:
            raise ConfigurationError(f"line {number}: expected section {tag!r}, got {line!r}")

    def pair(i: int, tag: str) -> tuple[float, float]:
        number, line = row(i, f"the end of section {tag!r}")
        try:
            first, second = (float(v) for v in line.split())
        except ValueError:
            raise ConfigurationError(f"line {number}: expected two numbers in section {tag!r}, "
                                     f"got {line!r}") from None
        if not math.isfinite(first) or not math.isfinite(second):
            raise ConfigurationError(f"line {number}: non-finite number in section {tag!r}, "
                                     f"got {line!r}")
        return first, second

    dims = []
    for i, key in enumerate("MNK", 1):
        number, line = row(i, f"the {key} line")
        fields = line.split()
        if len(fields) != 2 or fields[0] != key or not fields[1].isdecimal() or int(fields[1]) < 1:
            raise ConfigurationError(f"line {number}: expected '{key} <positive integer>', got {line!r}")
        dims.append(int(fields[1]))
    m, n, k = dims

    pos = 4
    pairs = []
    for tag, count in zip(_SECTIONS, (m * n, n * n, k * n, k)):
        section(pos, tag)
        pairs.append(np.array([pair(pos + 1 + i, tag) for i in range(count)]))
        pos += 1 + count
    section(pos, "END")
    if pos + 1 < len(rows):
        raise ConfigurationError(f"line {rows[pos + 1][0]}: text after the END line")
    h1, corr, h2, positions = pairs
    # the complex view reads each (re, im) pair back bit for bit, signed zeros included
    return ChannelRealization(
        h1=h1.view(complex).reshape(m, n),
        ris_corr_sqrt=corr.view(complex).reshape(n, n),
        h2=h2.view(complex).reshape(k, n),
        user_positions=positions,
    )
