"""Max-min SINR power control under per-user caps.

For fixed combiners, described by a core.GainTable (F, n), user k's SINR
target tau reads p >= tau * (M p + b) with M = (F - diag f) / diag f (row k divided by its direct gain f[k, k])
and b = n / diag f. The max-min problem (maximize the smallest SINR subject
to 0 <= p_k <= cap_k) has the Perron-Frobenius answer

    tau* = 1 / max_j rho(M + b e_j^T / cap_j),

where rho is the spectral radius and j runs over the candidate binding
users, and the least powers that meet tau* are p = (I - tau* M)^{-1} tau* b.
This solves the same optimization a geometric-programming solver would,
without the dependency and without iterating. The reported tau is
GainTable.sinr at those powers, the SINR formula every fixed-combiner
caller uses, so a caller that scores the same table gets the same bits.

``mmse_max_min_power`` solves the same problem when every user keeps its
MMSE combiner for whatever powers are chosen. Then user k's interference
I_k(p) = p_k / sinr_k(p) = 1 / (g_k^H (S_k + sigma2*I)^{-1} g_k) is a
standard interference function, and the optimum is the unique power vector
that equalizes every SINR at the largest common value tau with the binding
user b at its cap. It solves the balance equations sinr(p) = tau * 1 in the
unknowns (p without p_b, tau) by Newton steps, whose Jacobian comes
from the couplings of the factorization that already gave the SINRs.
``_balance_system`` is the one solver of that system: it picks the binding
user, builds the bordered Jacobian and solves it, for the Newton step here
and for phase.max_min_sinr_tangent's slopes of tau and of the powers over
the phases. A step that cannot be trusted is replaced by one step of the
normalized fixed point

    p <- I(p) / max_k(I_k(p) / cap_k),

which converges from any positive start, so the worst case is that
iteration. The steps stop once the SINRs are balanced, judged by their
spread, not by how far a step moves the powers.

Where each check runs: both solvers check their caps at entry (one (k,)
array of positive, finite watts) and raise ConfigurationError before any
eigenvalue or factorization; max_min_power also rejects a non-finite gain
table (NumericError). mmse_max_min_power checks sigma2 and its start powers
(shape, finite, positive) at entry as well, so the Newton loop runs on
inputs checked once per call.
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg import lapack

from .beamforming import post_bf_sinr_values
from .core import GainTable, PowerAllocation, _check_sigma2, _trusted
from .core import effective_power_cap, gain_table  # noqa: F401 (re-exported)
from .errors import ConfigurationError, NumericError

FIXED_POINT_MAX_ITER = 500  # factored operating points per mmse_max_min_power call, at most
BALANCED_SPREAD = 1e-13     # SINR spread max/min - 1 at which the powers are balanced
STALL_SPREAD = 1e-9         # once the best spread is this small, STALL_STEPS steps
STALL_STEPS = 2             # without a new best spread also end the call


class PowerControlResult(NamedTuple):
    """Max-min powers, the minimum SINR they achieve and a degeneracy flag.

    ``mmse_state`` is the MMSE factorization at the returned powers
    (beamforming._MmseState) on every mmse_max_min_power result, else None.
    """

    power: PowerAllocation
    tau: float
    degenerate: bool
    mmse_state: object = None


def _checked_powers(values, k: int, name: str) -> np.ndarray:
    """``values`` as a (k,) float array of watts; ConfigurationError unless
    each is positive and finite."""
    p = np.atleast_1d(np.asarray(values, dtype=float))
    if p.shape != (k,):
        raise ConfigurationError(f"{name} shape {p.shape} does not match k={k}")
    if not (0.0 < p.min() and p.max() < np.inf):
        raise ConfigurationError(f"{name} must be positive and finite, got {p.tolist()}")
    return p


def _onto_caps(p: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """Positive powers ``p`` scaled so their largest p / cap is one (the min trims rounding)."""
    return np.minimum(cap, p / (p / cap).max())


def max_min_power(gains: GainTable, p_cap) -> PowerControlResult:
    """Globally optimal max-min SINR power allocation under per-user caps.

    Returns the optimizing powers, the minimum SINR they achieve
    (``gains.sinr``), and a degeneracy flag. When several power vectors achieve the optimum (users
    decoupled enough that some have headroom), the minimal-power one is
    returned: every user meets tau* with equality, so it emits the least
    exposure. A user with zero direct gain makes the problem degenerate:
    the caps are returned with tau = 0 so an enclosing alternating loop can
    continue.
    """
    cap = _checked_powers(p_cap, gains.k, "power caps")
    if not (np.isfinite(gains.f).all() and np.isfinite(gains.n).all()):
        raise NumericError("gain table contains non-finite entries")

    diag = np.diagonal(gains.f)
    if (diag <= 0.0).any():
        return PowerControlResult(PowerAllocation(cap.copy()), 0.0, True)

    eye = np.eye(gains.k)
    coupling = (gains.f - np.diag(diag)) / diag[:, None]
    noise = gains.n / diag
    # candidates[j] = M + b e_j^T / cap_j; all are nonnegative, so the largest
    # eigenvalue modulus is the Perron root
    candidates = coupling + noise[:, None] * (eye / cap[:, None])[:, None, :]
    tau = 1.0 / np.abs(np.linalg.eigvals(candidates)).max()
    # tau * rho(M) < 1, so I - tau*M is a nonsingular M-matrix; the min only
    # trims the binding user's rounding above its cap
    p = np.minimum(cap, np.linalg.solve(eye - tau * coupling, tau * noise))
    return PowerControlResult(PowerAllocation(p), float(gains.sinr(p).min()), False)


def _balance_system(couplings: np.ndarray, p: np.ndarray, cap: np.ndarray, rhs: np.ndarray):
    """(b, X) solving J X = rhs, J the Jacobian of the balance equations
    sinr(p) - tau * 1 in (p without p_b, tau); None when J is singular.

    d sinr_j / d p_i = -p_j |c_ji|^2 for i != j and c_jj on the diagonal,
    where c_ji = g_j^H (S_j + sigma2*I)^{-1} g_i (_MmseState.couplings).
    The binding user b = argmax p / cap is held at its cap, so column b
    carries tau's -1 column, and row b of X is tau's entry."""
    binding = int((p / cap).argmax())
    system = -p[:, None] * np.abs(couplings) ** 2
    system.reshape(-1)[::p.size + 1] = couplings.diagonal().real
    system[:, binding] = -1.0
    *_, solution, info = lapack.dgesv(system, rhs)
    return None if info != 0 else (binding, solution)


def _newton_powers(state, p: np.ndarray, cap: np.ndarray):
    """One Newton step on the balance equations from powers p (binding user at
    its cap), renormalized onto the caps; None when the solve is singular or a
    power would not stay positive."""
    # the tau entry absorbs any common target, so aim at the smallest SINR
    solved = _balance_system(state.couplings, p, cap, state.sinr.min() - state.sinr)
    if solved is None:
        return None
    binding, step = solved
    step[binding] = 0.0
    p_new = p + step
    if not p_new.min() > 0.0:
        return None
    return _onto_caps(p_new, cap)


def mmse_max_min_power(g: np.ndarray, p_cap, sigma2: float, start=None) -> PowerControlResult:
    """Max-min SINR powers under per-user caps when every user keeps its MMSE combiner.

    ``g`` is the (m, k) matrix of effective channels. From the positive
    powers ``start`` (default: the caps; a start changes the step count, not
    the optimum), each step factors the current powers once and takes a
    Newton step, or the fixed-point step when the Newton solve is singular,
    a power would come out nonpositive, or the previous step did not shrink
    the SINR spread max/min - 1. The call stops once the spread is at most
    BALANCED_SPREAD, once the best spread so far is at most STALL_SPREAD and
    STALL_STEPS steps have not beaten it (the eps * SINR rounding of a
    high-SINR user floors the spread), or after FIXED_POINT_MAX_ITER steps.
    It returns the best-balanced powers it factored, binding user at its
    cap, their minimum SINR as tau and their factorization as
    ``mmse_state``. A user with a zero effective channel makes the problem
    degenerate: the caps, tau = 0 and their factorization. A non-finite
    channel raises NumericError from the kernel.
    """
    k = g.shape[1]
    _check_sigma2(sigma2)
    cap = _checked_powers(p_cap, k, "power caps")
    p = cap if start is None else _checked_powers(start, k, "start powers")
    if ((np.abs(g) ** 2).sum(axis=0) == 0.0).any():
        return PowerControlResult(PowerAllocation(cap.copy()), 0.0, True,
                                  post_bf_sinr_values(g, cap, sigma2))

    p = _onto_caps(p, cap)
    previous = best_spread = np.inf
    best_state, stalled = None, 0
    for _ in range(FIXED_POINT_MAX_ITER):
        current = post_bf_sinr_values(g, p, sigma2)
        sinr = current.sinr
        spread = sinr.max() / sinr.min() - 1.0
        if best_state is None or spread < best_spread:
            best_spread, best_p, best_state, stalled = spread, p, current, 0
        else:
            stalled += 1
        if best_spread <= BALANCED_SPREAD or (best_spread <= STALL_SPREAD
                                              and stalled >= STALL_STEPS):
            break
        p_new = _newton_powers(current, p, cap) if spread < previous else None
        if p_new is None:
            p_new = _onto_caps(p / sinr, cap)
        previous, p = spread, p_new
    # tau is what the returned powers achieve, so it never overstates the
    # optimum; best_p lies in (0, cap], so its PowerAllocation check is skipped
    return PowerControlResult(_trusted(PowerAllocation, p=best_p), float(best_state.sinr.min()),
                              False, best_state)

