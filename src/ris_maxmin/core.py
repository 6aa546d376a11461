"""Shared value types and the exact uplink SINR arithmetic.

The fixed-combiner SINR is one model with two evaluations. GainTable.sinr
scores an operating point: for sinr_per_user, power.max_min_power and the
alternating loop. phase.QuadraticFormSet.sinr_batch scores candidate
phases for quant and sdr; the phase module says why both stay.

All powers are stored in watts and all SINRs in linear scale; dBm/dB
conversions happen only at the CLI/CSV boundary. Every type here is an
immutable value object and every operation is a pure function, so they are
safe to share across threads.

Who checks what: the public constructors (PowerAllocation, Beamformer,
GainTable, phase.QuadraticFormSet, ...) check every value a caller hands
them. A value the library has just computed in the checked form is built
by _trusted instead, which skips those checks; a class with derived fields
(PhaseVector.phi, GainTable.cross, QuadraticFormSet.pair_conj and split)
forms them in one _derive that both paths run. The trusted values: the
L-BFGS-B iterates of the lse steps (a non-finite angle there is a
NumericError of the MMSE kernel, not a ConfigurationError), the unit-norm
rows of beamforming.mmse_combiners, which builds every MMSE combiner
(optimal_beamformers' and each tau point's), the max-min powers of
power.mmse_max_min_power, a gain table of a Beamformer (gain_table skips
the gain scan, since unit rows make every noise term sigma2 > 0 and
|b^H g|^2 is never negative), the forms of phase.build_quadratic_forms
and sdr's rescaled copy of them. gain_table and build_quadratic_forms
still check sigma2 and the shapes of the combiners and powers they are
given; raw combiner rows still go through GainTable's scan, so a zero row
is rejected. sigma2 has one rule, _check_sigma2, run by SystemConfig and at
entry to every public function that takes it, before any factorization.
The cap has one rule, effective_power_cap, run once per scenario
(SystemConfig.p_cap); each power solver checks the caps it is handed. Each
module's docstring names its own entry checks.
"""

import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DomainError

TWO_PI = 2.0 * np.pi


def noise_power(bandwidth_hz: float) -> float:
    """Thermal noise power in watts: -174 dBm/Hz plus 10*log10(bandwidth)."""
    if bandwidth_hz <= 0:
        raise DomainError(f"bandwidth must be positive, got {bandwidth_hz}")
    if not bandwidth_hz < np.inf:
        raise DomainError(f"bandwidth must be finite, got {bandwidth_hz}")
    dbm = -174.0 + 10.0 * np.log10(bandwidth_hz)
    return float(10.0 ** (dbm / 10.0) * 1e-3)


def db10(x):
    """Linear power ratio to dB; zero maps to -inf."""
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(x)


# a link multiplies two antenna gains: within +-_MAX_GAIN_DB dBi each, its
# linear gain stays finite and nonzero; above _MAX_RADIUS a square overflows
_MAX_GAIN_DB = 5.0 * math.log10(sys.float_info.max)
_MAX_RADIUS = math.sqrt(sys.float_info.max)


def _standard_complex(rng: np.random.Generator, shape) -> np.ndarray:
    """Unit-variance circular complex normals: all real parts, then all imaginary parts."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def effective_power_cap(p_max: float, sar_ref, emf_max) -> np.ndarray:
    """Fold the exposure limit into the transmit power cap.

    Each user's cap is min(p_max, emf_max_k / sar_ref_k): exposure is
    sar_ref_k watts-per-kilogram per transmitted watt, so the quotient is the
    largest power that keeps exposure within emf_max_k. A sar_ref entry
    that is not positive, or a cap that is not positive (nan included),
    raises DomainError.
    """
    sar = np.atleast_1d(np.asarray(sar_ref, dtype=float))
    emf = np.atleast_1d(np.asarray(emf_max, dtype=float))
    if np.any(sar <= 0):
        raise DomainError("sar_ref must be positive")
    cap = np.minimum(p_max, emf / sar)
    if not np.all(cap > 0.0):
        raise DomainError(
            f"power caps min(p_max, emf_max / sar_ref) must be positive, got {cap.tolist()}")
    return cap


def _check_sigma2(sigma2) -> None:
    """ConfigurationError unless the noise power ``sigma2`` is positive and
    finite, the rule SystemConfig holds its own sigma2 to."""
    if not 0.0 < sigma2 < np.inf:
        raise ConfigurationError(f"sigma2 must be finite and positive, got {sigma2}")


def _check_count(name: str, value, low: float = 1, high: int | None = None) -> int:
    """``value`` as an int; ConfigurationError naming ``name`` unless it is a
    whole number of at least ``low`` and, when ``high`` is set, at most
    ``high``. Every count, bit depth and seed the library takes is held to
    it (a seed with ``low=-inf``); a bool is a truth value, not a count, and
    is rejected too."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise ConfigurationError(f"{name} must be a whole number, got {value!r}")
    if high is None and value < low:
        raise ConfigurationError(f"{name} must be >= {low}, got {value}")
    if high is not None and not low <= value <= high:
        raise ConfigurationError(f"{name} must lie in {low}..{high}, got {value}")
    return int(value)


@dataclass(frozen=True, eq=False)
class SystemConfig:
    """Scenario constants: dimensions, powers, noise, geometry, exposure caps.

    ``m`` BS antennas, ``n`` RIS elements, ``k`` single-antenna users.
    ``sigma2`` defaults to the thermal noise power for ``bandwidth_hz``.
    ``sar_ref`` (W/kg per watt transmitted) and ``emf_max`` (W/kg) may be
    scalars or per-user sequences; they are stored as length-``k`` arrays.
    Element spacings ``d_bs`` and ``d_ris`` are fractions of the carrier
    wavelength, which is why no carrier frequency appears anywhere.
    ``p_cap`` is derived and read-only: effective_power_cap(p_max, sar_ref,
    emf_max), formed once per scenario. A bad bandwidth (sigma2 given or not)
    or a zero cap raises DomainError, any other bad value ConfigurationError.
    """

    m: int
    n: int
    k: int
    alpha: float = 1.0
    sigma2: float | None = None
    kappa: float = 10.0
    p_max: float = 0.5
    sar_ref: np.ndarray | float = 63e-4
    emf_max: np.ndarray | float = 0.0029
    gain_bs_dbi: float = 5.0
    gain_ris_dbi: float = 0.0
    gain_user_dbi: float = 0.0
    ris_position: tuple[float, float] = (0.5, 0.5)
    r_min: float = 10.0
    r_max: float = 70.0
    bandwidth_hz: float = 1e8
    d_bs: float = 0.5
    d_ris: float = 0.5
    ris_corr_rho: float = 0.0
    p_cap: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("m", "n", "k"):
            object.__setattr__(self, name, _check_count(name, getattr(self, name)))
        noise = noise_power(self.bandwidth_hz)
        if self.sigma2 is None:
            object.__setattr__(self, "sigma2", noise)
        _check_sigma2(self.sigma2)
        object.__setattr__(self, "ris_position", (float(self.ris_position[0]), float(self.ris_position[1])))
        # field -> (whether it holds, the rule); each test fails on nan
        ranges = {
            **{name: (abs(getattr(self, name)) < _MAX_GAIN_DB,
                      f"be finite, within +-{_MAX_GAIN_DB:.0f} dBi (a link's linear gain must be finite)")
               for name in ("gain_bs_dbi", "gain_ris_dbi", "gain_user_dbi")},
            "alpha": (0.0 < self.alpha <= 1.0, "lie in (0, 1]"),
            "p_max": (self.p_max > 0.0, "be positive"),
            "kappa": (0.0 <= self.kappa < np.inf, "be finite and >= 0"),
            "r_max": (self.r_max < _MAX_RADIUS, "be finite, with a finite square"),
            "r_min": (0.0 <= self.r_min < self.r_max, f"lie in [0, r_max = {self.r_max})"),
            "d_bs": (self.d_bs > 0.0, "be positive"),
            "d_ris": (self.d_ris > 0.0, "be positive"),
            "ris_corr_rho": (0.0 <= self.ris_corr_rho < 1.0, "lie in [0, 1)"),
            "ris_position": (np.all(np.isfinite(self.ris_position)) and self.ris_position != (0.0, 0.0),
                             "be finite and differ from the BS position, the origin"),
        }
        for name, (holds, rule) in ranges.items():
            if not holds:
                raise ConfigurationError(f"{name} must {rule}, got {getattr(self, name)}")
        for name in ("sar_ref", "emf_max"):
            arr = np.atleast_1d(np.asarray(getattr(self, name), dtype=float))
            if arr.size == 1:
                arr = np.full(self.k, arr.item())
            if arr.shape != (self.k,):
                raise ConfigurationError(
                    f"{name} must be a scalar or length-{self.k} sequence, got shape {arr.shape}")
            if not np.all(arr > 0.0):
                raise ConfigurationError(f"{name} entries must be positive, got {arr.tolist()}")
            object.__setattr__(self, name, arr)
        # an infinite SAR reference makes a zero power cap; an infinite emf_max
        # leaves p_max, which must then be finite
        if not np.all(np.isfinite(self.sar_ref)):
            raise ConfigurationError(f"sar_ref entries must be finite, got {self.sar_ref.tolist()}")
        cap = effective_power_cap(self.p_max, self.sar_ref, self.emf_max)
        if not np.all(np.isfinite(cap)):
            raise ConfigurationError(
                f"p_max and emf_max must not both be infinite: the power cap "
                f"min(p_max, emf_max / sar_ref) is {cap.tolist()}")
        cap.flags.writeable = False
        object.__setattr__(self, "p_cap", cap)

    def __setstate__(self, state):  # an unpickled copy (a worker's) keeps p_cap read-only
        self.__dict__.update(state)
        self.p_cap.flags.writeable = False


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One random draw of the propagation state.

    ``h1``: (m, n) BS-RIS matrix. ``ris_corr_sqrt``: (n, n) square root of
    the RIS spatial correlation matrix. ``h2``: (k, n), row ``i`` is the
    RIS-to-user-``i`` channel with its amplitude path loss absorbed.
    ``user_positions``: (k, 2) planar coordinates in metres. Formed once
    here: ``cascade``, the (m, n) product C = h1 @ ris_corr_sqrt;
    ``cascade_h``, its (n, m) conjugate transpose C^H; and ``h2_conj``, the
    (k, n) conjugate of h2. The phase derivative and the quadratic forms
    read the last two, so no call conjugates them again.
    """

    h1: np.ndarray
    ris_corr_sqrt: np.ndarray
    h2: np.ndarray
    user_positions: np.ndarray
    cascade: np.ndarray = field(init=False, repr=False)
    cascade_h: np.ndarray = field(init=False, repr=False)
    h2_conj: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "h1", np.asarray(self.h1, dtype=complex))
        object.__setattr__(self, "ris_corr_sqrt", np.asarray(self.ris_corr_sqrt, dtype=complex))
        object.__setattr__(self, "h2", np.atleast_2d(np.asarray(self.h2, dtype=complex)))
        object.__setattr__(self, "user_positions", np.atleast_2d(np.asarray(self.user_positions, dtype=float)))
        m, n = self.h1.shape
        if self.ris_corr_sqrt.shape != (n, n):
            raise ConfigurationError(
                f"ris_corr_sqrt shape {self.ris_corr_sqrt.shape} does not match n={n}")
        if self.h2.shape[1] != n:
            raise ConfigurationError(f"h2 shape {self.h2.shape} does not match n={n}")
        if self.user_positions.shape != (self.h2.shape[0], 2):
            raise ConfigurationError(
                f"user_positions shape {self.user_positions.shape} does not match k={self.h2.shape[0]}")
        for name in ("h1", "ris_corr_sqrt", "h2", "user_positions"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ConfigurationError(f"{name} contains non-finite entries")
        object.__setattr__(self, "cascade", self.h1 @ self.ris_corr_sqrt)
        object.__setattr__(self, "cascade_h", self.cascade.conj().T)
        object.__setattr__(self, "h2_conj", self.h2.conj())

    @property
    def m(self) -> int:
        return self.h1.shape[0]

    @property
    def n(self) -> int:
        return self.h1.shape[1]

    @property
    def k(self) -> int:
        return self.h2.shape[0]


@dataclass(frozen=True, eq=False)
class PhaseVector:
    """Unit-modulus RIS coefficients with their common reflection amplitude.

    ``theta`` holds the n phase angles in [0, 2*pi); ``phi`` is exp(j*theta)
    and ``phi_vec`` the amplitude-scaled vector the quadratic forms consume.
    """

    theta: np.ndarray
    alpha: float = 1.0
    phi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 1:
            raise ConfigurationError("theta must be a 1-d array of angles")
        if not np.isfinite(theta).all():
            raise ConfigurationError("theta contains non-finite angles")
        if not 0.0 < self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must lie in (0, 1], got {self.alpha}")
        object.__setattr__(self, "theta", np.mod(theta, TWO_PI))
        self._derive()

    def _derive(self):
        object.__setattr__(self, "phi", np.exp(1j * self.theta))

    @classmethod
    def from_phi(cls, phi, alpha: float = 1.0) -> "PhaseVector":
        phi = np.asarray(phi, dtype=complex)
        dev = np.abs(np.abs(phi) - 1.0)
        if dev.size and dev.max() > 1e-9:
            raise ConfigurationError(f"phase coefficients must be unit modulus, worst deviation {dev.max():.3e}")
        return cls(theta=np.angle(phi), alpha=alpha)

    @classmethod
    def random(cls, n: int, alpha: float, rng: np.random.Generator) -> "PhaseVector":
        return cls(theta=rng.uniform(0.0, TWO_PI, size=n), alpha=alpha)

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @property
    def phi_vec(self) -> np.ndarray:
        return self.alpha * self.phi


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Per-user transmit powers in watts."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1 or not np.isfinite(p).all() or (p < 0).any():
            raise ConfigurationError("powers must be a 1-d array of finite nonnegative watts")
        object.__setattr__(self, "p", p)

    @property
    def k(self) -> int:
        return self.p.shape[0]


def _trusted(cls, **values):
    """A ``cls`` value object holding ``values`` as given, built without the
    checks of its constructor: for values the library has just computed in
    the form those checks would leave them. A class with derived fields
    forms them in its ``_derive``, which its checked constructor calls too."""
    obj = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(obj, name, value)
    if hasattr(cls, "_derive"):
        obj._derive()
    return obj


@dataclass(frozen=True, eq=False)
class Beamformer:
    """Unit-norm receive combiners, one length-m row per user; a row with a
    non-finite entry is rejected before its norm is taken."""

    rows: np.ndarray

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=complex))
        if not np.isfinite(rows).all():
            raise ConfigurationError("combiner rows must be finite")
        norms = np.linalg.norm(rows, axis=1)
        if np.any(np.abs(norms - 1.0) > 1e-10):
            raise ConfigurationError(
                f"combiner rows must be unit norm, worst deviation {np.abs(norms - 1.0).max():.3e}")
        object.__setattr__(self, "rows", rows)

    @property
    def k(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True, eq=False)
class SinrReport:
    """Per-user linear SINRs, their minimum (formed here), and an optional per-stage trace."""

    per_user: np.ndarray
    stage_trace: tuple = ()
    minimum: float = field(init=False)

    def __post_init__(self):
        per_user = np.asarray(self.per_user, dtype=float)
        if np.any(per_user < 0):
            raise ConfigurationError("SINRs cannot be negative")
        object.__setattr__(self, "per_user", per_user)
        object.__setattr__(self, "stage_trace", tuple(self.stage_trace))
        object.__setattr__(self, "minimum", float(per_user.min()))

    @classmethod
    def from_per_user(cls, per_user, stage_trace=()) -> "SinrReport":
        return cls(per_user=per_user, stage_trace=stage_trace)


def _power_array(powers) -> np.ndarray:
    if isinstance(powers, PowerAllocation):
        return powers.p
    return np.asarray(powers, dtype=float)


def _bf_matrix(bf) -> np.ndarray:
    if isinstance(bf, Beamformer):
        return bf.rows
    return np.atleast_2d(np.asarray(bf, dtype=complex))


def effective_channel(chan: ChannelRealization, phase: PhaseVector) -> np.ndarray:
    """Per-user effective BS channels through the RIS.

    Returns the (m, k) matrix whose column i is
    h1 @ ris_corr_sqrt @ diag(alpha * phi) @ h2[i]; linear in alpha and in
    each user channel.
    """
    if phase.n != chan.n:
        raise ConfigurationError(f"phase has {phase.n} elements but channel has {chan.n}")
    return chan.cascade @ (phase.phi_vec[:, None] * chan.h2.T)


@dataclass(frozen=True, eq=False)
class GainTable:
    """Link gains f[k, i] = |b_k^H g_i|^2 and noise terms n_k = sigma2*||b_k||^2.

    ``cross`` is f with its diagonal zeroed, formed once at construction.
    """

    f: np.ndarray
    n: np.ndarray
    cross: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        f = np.atleast_2d(np.asarray(self.f, dtype=float))
        n = np.atleast_1d(np.asarray(self.n, dtype=float))
        if f.shape[0] != f.shape[1] or f.shape[0] != n.shape[0]:
            raise ConfigurationError(f"gain table shapes inconsistent: f {f.shape}, n {n.shape}")
        if np.any(f < 0) or np.any(n <= 0):
            raise ConfigurationError("gains must be nonnegative and noise terms positive")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "n", n)
        self._derive()

    def _derive(self):
        """Form ``cross``; the checked constructor and _trusted both call it."""
        cross = self.f.copy()
        cross.flat[::self.f.shape[1] + 1] = 0.0
        object.__setattr__(self, "cross", cross)

    @property
    def k(self) -> int:
        return self.n.shape[0]

    def sinr(self, p: np.ndarray) -> np.ndarray:
        """Every user's SINR p_k f[k, k] / (sum_{i != k} p_i f[k, i] + n_k).

        The interference sums ``cross`` alone: f @ p - signal would cancel
        the digits of a high-SINR user's interference.
        """
        return p * self.f.diagonal() / (self.cross @ p + self.n)


def gain_table(chan: ChannelRealization, phase: PhaseVector, bf, sigma2: float) -> GainTable:
    """The gain table of fixed combiners ``bf`` at the phases ``phase``.

    Raw (k, m) combiner rows go through GainTable's checks, so a zero row,
    which has no noise term, is rejected. A Beamformer skips that scan:
    its unit rows make every noise term sigma2 > 0, and a gain |b^H g|^2 is
    never negative.
    """
    _check_sigma2(sigma2)
    rows = _bf_matrix(bf)
    if rows.shape != (chan.k, chan.m):
        raise ConfigurationError(f"combiners must be ({chan.k}, {chan.m}) for this channel, got {rows.shape}")
    g = effective_channel(chan, phase)
    f = np.abs(rows.conj() @ g) ** 2
    n = sigma2 * np.sum(np.abs(rows) ** 2, axis=1)
    if isinstance(bf, Beamformer):
        return _trusted(GainTable, f=f, n=n)
    return GainTable(f=f, n=n)


def sinr_per_user(chan: ChannelRealization, phase: PhaseVector, powers, bf,
                  sigma2: float) -> SinrReport:
    """Uplink SINR of every user for the given powers and receive combiners.

    user i's SINR is p_i |b_i^H g_i|^2 over the sum of p_j |b_i^H g_j|^2 for
    j != i plus sigma2 * ||b_i||^2 (GainTable.sinr). The noise term uses the
    actual combiner norm, so un-normalized probe combiners are handled
    correctly; a zero combiner row has no noise term and is rejected.
    gain_table checks sigma2 and the combiners.
    """
    return SinrReport.from_per_user(gain_table(chan, phase, bf, sigma2).sinr(_power_array(powers)))
