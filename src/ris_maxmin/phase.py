"""RIS phase optimization: quadratic-form machinery, the smooth-min phase
steps, and the quantized random-swap heuristic.

Phases are scored under one of two combiner models.

Fixed combiners (the ``quant`` objective and ``sdr``): the SINR of user k
is a ratio of quadratic forms in the scaled phase vector u = alpha * phi,

    sinr_k(u) = p_k |v[k,k]^H u|^2 / (sum_{i != k} p_i |v[k,i]^H u|^2 + noise_k)

where v[k,i] = conj(h2[i]) * ((h1 @ ris_corr_sqrt)^H b_k). Note the pair
indexing: interference from user i flows through user k's combiner, so one
vector per (combiner, transmitter) pair is needed to reproduce the true
SINR. The diagonal v[k,k] satisfies v[k,k]^H u = b_k^H g_k exactly.
QuadraticFormSet.sinr_batch scores candidate phases on the pair matrix
and power split the set builds once (sdr's level model reads the same
two); core.GainTable.sinr scores one operating point. The two sum the
same terms in another order (2.7e-15 relative apart, at most, on 270
random cases). Both stay: 7 candidates at k=6 cost 11 us here against
32 us through gain tables (one BLAS thread), and the split form would
move the last bits of the loop's guard, which break ties at k=2.
sinr_batch and min_sinr take one (n,) vector or an (n, c) matrix of
candidates, one per column. The ``quant`` objective is min_sinr on such
a matrix: quantized_heuristic_phase scores all of a picked element's
other grid levels in one call and replays its accept rule over them when
one of them passes it.

MMSE combiners (the ``lse`` steps): each candidate's effective channels go
through beamforming.post_bf_sinr_values, whose one factorization also
gives the couplings the phase derivative needs. Both smooth-min steps run
one L-BFGS-B climb over the angles (_lbfgsb_climb: budget LSE_MAX_ITERS,
tolerance LSE_GRAD_TOL): lse_max_min_phase, the loop's step, on the
max-min SINR after power control, and lse_gradient_phase on the
log-sum-exp surrogate of the SINRs at frozen powers. The climb calls
scipy's compiled L-BFGS-B routine, setulb, in its own loop, which gives the
points, counts and bits of scipy.optimize.minimize without its wrappers.
It loads setulb from its extension file alone, so a process that does not
import scipy.optimize itself never does (about 20 MB of RSS). Where the
file is missing or setulb lacks the signature this loop was written for,
the climb calls minimize. For the former,
max_min_sinr_tangent's one solve of the power step's balance system gives
both the gradient of tau and the slope of the max-min powers, and that
slope at the best phase so far predicts where each candidate's power step
starts.
"""

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .beamforming import post_bf_sinr_values
from .core import (TWO_PI, ChannelRealization, PhaseVector, _bf_matrix, _check_count,
                   _check_sigma2, _power_array, _trusted, effective_channel)
from .errors import ConfigurationError, DomainError
from .power import PowerControlResult, _balance_system, mmse_max_min_power


@dataclass(frozen=True, eq=False)
class QuadraticFormSet:
    """Pairwise rank-one forms for the fixed-combiner SINR.

    ``pair_vectors``: (k, k, n) complex; entry [k, i] is the vector whose
    inner product with the scaled phase vector equals b_k^H g_i.
    ``noise``: sigma2 * ||b_k||^2 per user. ``powers``: watts per user.

    Built once at construction, with K users: ``pair_conj``, the (K*K, n)
    conjugated pair vectors, row K*k + i holding pair [k, i]; and ``split``,
    the (K*K, 2K) power split that sends each squared pair gain, weighted
    by p_i, to user k's signal (column k, when i = k) or interference
    (column K + k, when i != k). The direct term never enters the
    interference sum, so a high-SINR user keeps all of its digits.
    """

    pair_vectors: np.ndarray
    noise: np.ndarray
    powers: np.ndarray
    pair_conj: np.ndarray = field(init=False, repr=False)
    split: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pv = np.asarray(self.pair_vectors, dtype=complex)
        if pv.ndim != 3 or pv.shape[0] != pv.shape[1]:
            raise ConfigurationError(f"pair_vectors must be (k, k, n), got {pv.shape}")
        k = pv.shape[0]
        noise = np.asarray(self.noise, dtype=float)
        powers = np.asarray(self.powers, dtype=float)
        if noise.shape != (k,) or powers.shape != (k,):
            raise ConfigurationError(f"noise {noise.shape} and powers {powers.shape} must be ({k},)")
        object.__setattr__(self, "pair_vectors", pv)
        object.__setattr__(self, "noise", noise)
        object.__setattr__(self, "powers", powers)
        self._derive()

    def _derive(self):
        """Form ``pair_conj`` and ``split``; the checked constructor and
        core._trusted both call it."""
        pv = self.pair_vectors
        k = pv.shape[0]
        user, source = np.divmod(np.arange(k * k), k)
        split = np.zeros((k * k, 2 * k))
        split[np.arange(k * k), np.where(user == source, user, k + user)] = self.powers[source]
        object.__setattr__(self, "pair_conj", pv.conj().reshape(k * k, pv.shape[2]))
        object.__setattr__(self, "split", split)

    @property
    def k(self) -> int:
        return self.pair_vectors.shape[0]

    @property
    def n(self) -> int:
        return self.pair_vectors.shape[2]

    @property
    def vectors(self) -> np.ndarray:
        """Diagonal (k, n) vectors: vectors[k]^H u equals b_k^H g_k."""
        idx = np.arange(self.k)
        return self.pair_vectors[idx, idx]

    def sinr_batch(self, phi_vecs: np.ndarray) -> np.ndarray:
        """Per-user SINRs at scaled phase vectors: (n,) -> (k,), or (n, c) -> (k, c)."""
        gains = np.abs(self.pair_conj @ phi_vecs) ** 2
        parts = self.split.T @ gains
        k = self.noise.size
        noise = self.noise if gains.ndim == 1 else self.noise[:, None]
        return parts[:k] / (parts[k:] + noise)

    def min_sinr(self, phi_vecs: np.ndarray):
        """Minimum SINR at scaled phase vectors: (n,) -> float, or (n, c) -> (c,)."""
        sinr = self.sinr_batch(phi_vecs)
        return float(sinr.min()) if sinr.ndim == 1 else sinr.min(axis=0)


def build_quadratic_forms(chan: ChannelRealization, bf, powers, sigma2: float) -> QuadraticFormSet:
    """Assemble the quadratic forms for the current combiners and powers.

    Checks sigma2 and the shapes of the combiners and powers it is given;
    the set it forms from them skips QuadraticFormSet's shape checks.
    """
    _check_sigma2(sigma2)
    rows = _bf_matrix(bf)
    p = _power_array(powers)
    k, m = chan.k, chan.m
    if rows.shape != (k, m) or p.shape != (k,):
        raise ConfigurationError(f"combiners {rows.shape} and powers {p.shape} must be ({k}, {m}) and ({k},)")
    projected = chan.cascade_h @ rows.T                 # column k: (h1 R^(1/2))^H b_k
    pair = chan.h2_conj[None, :, :] * projected.T[:, None, :]
    return _trusted(QuadraticFormSet, pair_vectors=pair,
                    noise=sigma2 * np.sum(np.abs(rows) ** 2, axis=1), powers=p)


def lse_objective(sinr_values) -> float:
    """Smooth surrogate for the minimum: log(sum_k exp(1/sinr_k)).

    Its reciprocal lower-bounds min_k sinr_k, so driving it down pushes the
    worst SINR up. Computed with a shifted log-sum-exp to avoid overflow.
    """
    rho = np.asarray(sinr_values, dtype=float)
    if np.any(rho <= 0):
        raise DomainError("all SINR values must be positive")
    x = 1.0 / rho
    shift = x.max()
    return float(shift + np.log(np.sum(np.exp(x - shift))))


def _derivative_terms(chan: ChannelRealization, p: np.ndarray, phase: PhaseVector,
                      state) -> np.ndarray:
    """deriv[k, n] of sinr_phase_tangent, the Wirtinger derivative of sinr_k
    with respect to conj(phi_n), from the _MmseState ``state`` factored at
    the powers ``p`` and the effective channels of ``phase``."""
    weights = -p * state.couplings
    weights.reshape(-1)[::p.size + 1] = 1.0
    combo = weights @ chan.h2_conj                        # (k, n)
    projected = (chan.cascade_h @ state.directions).T     # C^H T_j g_j
    return (phase.alpha * p)[:, None] * combo * projected


def _tangent(phase: PhaseVector, deriv: np.ndarray) -> np.ndarray:
    return 2.0 * (1j * phase.phi[None, :] * deriv.conj()).real


def sinr_phase_tangent(chan: ChannelRealization, powers, phase: PhaseVector,
                       sigma2: float):
    """Real derivative of every post-combining SINR along each phase angle.

    Returns (tangent, sinr): ``tangent[k, n]`` is d sinr_k / d theta_n, and
    sinr_k = p_k g_k^H T_k g_k with T_k = (S_k + sigma2*I)^{-1}. Writing
    C = h1 @ ris_corr_sqrt and c_ki = g_k^H T_k g_i, the Wirtinger
    derivative of sinr_k with respect to conj(phi_n) (the amplitude factor
    included) is, elementwise over n,

        deriv[k] = p_k * alpha * (conj(h2[k]) - sum_{i != k} p_i c_ki conj(h2[i])) * (C^H T_k g_k),

    the trace form of the matrix-inverse derivative identity collapsed onto
    rank-one factors, and the tangent along the unit circle is
    2*Re(j * phi_n * conj(deriv[k, n])). No T_k is formed: every T_k g_k
    and c_ki comes from the one MMSE kernel, beamforming.post_bf_sinr_values.
    """
    _check_sigma2(sigma2)
    p = _power_array(powers)
    state = post_bf_sinr_values(effective_channel(chan, phase), p, sigma2)
    return _tangent(phase, _derivative_terms(chan, p, phase, state)), state.sinr


def max_min_sinr_tangent(chan: ChannelRealization, phase: PhaseVector, p_cap,
                         sigma2: float, start=None):
    """Gradient over the angles of the max-min SINR that power control leaves,
    and the slope of the max-min powers.

    tau(theta) is the common SINR of mmse_max_min_power at phase theta. There
    every SINR equals tau and the binding user b sits at its cap, so
    sinr_j(theta, p) = tau for all j defines tau and the other powers
    implicitly. Differentiating gives

        S @ X = -d sinr / d theta,

    where S is the Jacobian of the balance equations in (p without p_b,
    tau), built and solved by power._balance_system, the solver of the
    power step's Newton iteration. One solve with the n angles as right-hand
    sides gives both answers: row b of X is grad tau, and the other rows are
    d p_i / d theta. Returns (gradient, the power-control result, the (k, n)
    power slope with row b zero, since p_b stays at its cap); ``start``
    warm-starts the power step. Gradient and slope are zero when the power
    step is degenerate. mmse_max_min_power checks sigma2, the caps and
    ``start``.
    """
    cap = np.atleast_1d(np.asarray(p_cap, dtype=float))
    g = effective_channel(chan, phase)
    result = mmse_max_min_power(g, cap, sigma2, start)
    if result.degenerate:
        return np.zeros(phase.n), result, np.zeros((cap.size, phase.n))
    p = result.power.p
    # the power step returns the factorization it took at this very (g, p*)
    state = result.mmse_state
    deriv = _derivative_terms(chan, p, phase, state)
    solved = _balance_system(state.couplings, p, cap, -_tangent(phase, deriv))
    if solved is None:
        raise np.linalg.LinAlgError("balance system of the max-min powers is singular")
    binding, sensitivity = solved
    gradient = sensitivity[binding].copy()
    sensitivity[binding] = 0.0
    return gradient, result, sensitivity


def _predicted_start(p: np.ndarray, slope: np.ndarray, step: np.ndarray) -> np.ndarray:
    """First-order max-min powers a phase ``step`` away from the powers ``p``
    whose slope over the angles is ``slope`` (max_min_sinr_tangent); the step
    is wrapped into [-pi, pi). Falls back to ``p`` when a predicted power is
    not positive and finite, which mmse_max_min_power requires of a start."""
    predicted = p + slope @ (np.mod(step + np.pi, TWO_PI) - np.pi)
    return predicted if 0.0 < predicted.min() and predicted.max() < np.inf else p


def _iterate_phase(theta: np.ndarray, alpha: float) -> PhaseVector:
    """L-BFGS-B's angles as a phase, built without PhaseVector's checks.

    The angles are the solver's, not a caller's, so a non-finite one is a
    numeric fault, not a ConfigurationError: it becomes a nan coefficient
    (an infinite one after np.mod's invalid-value RuntimeWarning) that the
    MMSE kernel's finite check raises as a NumericError.
    """
    return _trusted(PhaseVector, theta=np.mod(theta, TWO_PI), alpha=alpha)


LSE_GRAD_TOL = 1e-6         # largest projected-gradient entry at which a step has converged
LSE_MAX_ITERS = 200         # L-BFGS-B iterations per smooth-min phase step

# the rest of the climb's L-BFGS-B settings, scipy.optimize.minimize's defaults
_LBFGSB_MEMORY = 10                 # maxcor: correction pairs kept
_LBFGSB_FTOL = 2.2204460492503131e-09   # relative reduction of f at which it stops
_LBFGSB_MAXLS = 20                  # line-search steps per iteration
_LBFGSB_MAXFUN = 15000              # objective evaluations
_LBFGSB_MODULE = "scipy.optimize._lbfgsb"
_SETULB_SIGNATURE = "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"


@functools.cache
def _bind_setulb():
    """scipy's compiled L-BFGS-B routine, scipy.optimize._lbfgsb.setulb, when it
    has the signature scipy 1.17.1 ships; None otherwise, and _lbfgsb_climb then
    calls scipy.optimize.minimize. Bound at the first climb, from the module
    where scipy.optimize is already imported and from its extension file alone
    (_load_lbfgsb) where it is not, so no run needs scipy.optimize's import
    (about 20 MB of RSS and 0.2 s)."""
    module = sys.modules.get(_LBFGSB_MODULE) or _load_lbfgsb()
    setulb = getattr(module, "setulb", None)
    return setulb if getattr(setulb, "__doc__", None) == _SETULB_SIGNATURE else None


def _load_lbfgsb():
    """scipy.optimize._lbfgsb loaded from its extension file in scipy's package
    directory, without running scipy/optimize/__init__ and without a
    sys.modules entry; None where the file is missing or does not load."""
    for directory in importlib.util.find_spec("scipy").submodule_search_locations:
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(directory, "optimize", "_lbfgsb" + suffix)
            if not os.path.isfile(path):
                continue
            loader = importlib.machinery.ExtensionFileLoader(_LBFGSB_MODULE, path)
            try:
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(_LBFGSB_MODULE, loader))
                loader.exec_module(module)
                return module
            except ImportError:
                return None
            finally:
                # a single-phase extension enters itself in sys.modules as it is created
                sys.modules.pop(_LBFGSB_MODULE, None)
    return None


def _lbfgsb_climb(objective, theta0: np.ndarray) -> tuple[int, bool, int]:
    """L-BFGS-B on ``objective`` (value and gradient over the angles) from ``theta0``, for
    at most LSE_MAX_ITERS iterations down to a projected gradient of LSE_GRAD_TOL: its
    iteration count, convergence flag and objective-evaluation count (the objective
    keeps the best iterate).

    The loop drives setulb (_bind_setulb) as scipy.optimize.minimize's L-BFGS-B
    does: the same settings (ftol passed as setulb's factr = ftol / eps), its
    iteration and evaluation stops (task codes 504 and 502), and
    ScalarFunction's rule that evaluates a point only when it differs from the
    last one evaluated. L-BFGS-B sees the same f and g, so every iterate and
    count is minimize's, without the per-evaluation bookkeeping of minimize's
    ScalarFunction and MemoizeJac wrappers. Where setulb is not bound,
    minimize itself runs.
    """
    setulb = _bind_setulb()
    if setulb is None:
        import scipy.optimize
        out = scipy.optimize.minimize(
            objective, theta0, jac=True, method="L-BFGS-B",
            options={"maxiter": LSE_MAX_ITERS, "gtol": LSE_GRAD_TOL, "maxcor": _LBFGSB_MEMORY,
                     "ftol": _LBFGSB_FTOL, "maxls": _LBFGSB_MAXLS, "maxfun": _LBFGSB_MAXFUN})
        return int(out.nit), bool(out.success), int(out.nfev)

    n, m, factr = theta0.size, _LBFGSB_MEMORY, _LBFGSB_FTOL / np.finfo(float).eps
    x = np.array(theta0, dtype=float)
    unbounded = np.zeros(n)
    nbd = np.zeros(n, np.int32)
    f, g = 0.0, np.zeros(n)
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, np.int32)
    task, ln_task, lsave = np.zeros(2, np.int32), np.zeros(2, np.int32), np.zeros(4, np.int32)
    isave, dsave = np.zeros(44, np.int32), np.zeros(29)
    evaluated = None
    iterations = evaluations = 0
    while True:
        setulb(m, x, unbounded, unbounded, nbd, f, g, factr, LSE_GRAD_TOL,
               wa, iwa, task, lsave, isave, dsave, _LBFGSB_MAXLS, ln_task)
        if task[0] == 3:        # FG: f and g wanted at x
            if evaluated is None or not np.array_equal(x, evaluated):
                evaluated = x.copy()
                f, g = objective(evaluated)
                evaluations += 1
        elif task[0] == 1:      # NEW_X: an iteration is done
            iterations += 1
            if iterations >= LSE_MAX_ITERS:
                task[:] = 5, 504
            elif evaluations > _LBFGSB_MAXFUN:
                task[:] = 5, 502
        else:                   # 4, CONVERGENCE; any other code ends unconverged
            return iterations, bool(task[0] == 4), evaluations


@dataclass
class LseResult:
    """Outcome of a smooth-min phase step: the best phase seen, its minimum
    SINR, and L-BFGS-B's iteration count, convergence flag and objective
    evaluations (0 when a degenerate start returns before the climb).

    ``power_control`` is the mmse_max_min_power result at ``phase`` (its
    powers, tau and factorization) when the step re-optimizes the powers
    (lse_max_min_phase), and is None for the frozen-power step.
    """

    phase: PhaseVector
    min_sinr: float
    iterations: int
    converged: bool
    evaluations: int = 0
    warning: str | None = None
    power_control: PowerControlResult | None = None


def lse_gradient_phase(chan: ChannelRealization, powers, init: PhaseVector,
                       sigma2: float) -> LseResult:
    """Smooth-min phase step with the powers frozen at ``powers``.

    Climbs (_lbfgsb_climb) lse_objective of the post-combining SINRs those
    powers give, whose gradient is -(softmax(1/rho) / rho^2) @
    sinr_phase_tangent. Returns the iterate with the best minimum SINR
    seen, never worse than ``init``.
    """
    _check_sigma2(sigma2)
    p = _power_array(powers)
    alpha = init.alpha
    rho = post_bf_sinr_values(effective_channel(chan, init), p, sigma2).sinr
    if np.any(rho <= 0):
        return LseResult(init, float(rho.min()), 0, False, 0,
                         warning="degenerate SINR at the initial phase")
    best = {"min": float(rho.min()), "theta": init.theta}

    def surrogate(theta):
        tangent, rho = sinr_phase_tangent(chan, p, _iterate_phase(theta, alpha), sigma2)
        if np.any(rho <= 0):
            return np.inf, np.zeros_like(theta)
        if rho.min() > best["min"]:
            best.update(min=float(rho.min()), theta=theta.copy())
        inv = 1.0 / rho
        weights = np.exp(inv - inv.max())
        weights /= weights.sum()
        return lse_objective(rho), -(weights / rho ** 2) @ tangent

    climb = _lbfgsb_climb(surrogate, init.theta)
    return LseResult(PhaseVector(theta=best["theta"], alpha=alpha), best["min"], *climb)


def lse_max_min_phase(chan: ChannelRealization, init: PhaseVector, p_cap,
                      sigma2: float) -> LseResult:
    """Smooth-min phase step that re-optimizes the powers at every candidate.

    Maximizes tau(theta), the max-min SINR that mmse_max_min_power reaches
    under the caps ``p_cap`` with MMSE combiners. Power control equalizes
    the SINRs, so their lse_objective is log(k) + 1/tau and minimizing the
    smooth-min surrogate is maximizing tau; with the powers folded in, the
    surrogate no longer stalls where the frozen-power SINRs tie. Climbs
    (_lbfgsb_climb) -log(tau) with the gradient of max_min_sinr_tangent.
    Each candidate's power step starts from the first-order prediction
    p_best + (dp/dtheta) (theta - theta_best) at the best phase so far, from
    the slope that the same tangent solve gives (_predicted_start); the
    start changes the step count, not tau. Returns the best phase seen with
    its tau point, never worse than ``init``.
    """
    alpha = init.alpha
    _, start, slope = max_min_sinr_tangent(chan, init, p_cap, sigma2)
    if start.degenerate:
        return LseResult(init, start.tau, 0, False, 0,
                         warning="degenerate SINR at the initial phase", power_control=start)

    best = {"result": start, "theta": init.theta, "slope": slope}

    def neg_log_tau(theta):
        guess = _predicted_start(best["result"].power.p, best["slope"], theta - best["theta"])
        grad, result, slope = max_min_sinr_tangent(chan, _iterate_phase(theta, alpha),
                                                   p_cap, sigma2, start=guess)
        if result.tau <= 0.0:
            return np.inf, np.zeros_like(theta)
        if result.tau > best["result"].tau:
            best.update(result=result, theta=theta.copy(), slope=slope)
        return -np.log(result.tau), -grad / result.tau

    climb = _lbfgsb_climb(neg_log_tau, init.theta)
    return LseResult(PhaseVector(theta=best["theta"], alpha=alpha), best["result"].tau,
                     *climb, power_control=best["result"])


def phase_grid(bits: int) -> np.ndarray:
    """The 2^bits equispaced angles 2*pi*i/2^bits, i = 0..2^bits-1, for a
    whole ``bits`` in 1..QUANT_MAX_BITS."""
    q = 2 ** _check_count("bits", bits, high=QUANT_MAX_BITS)
    return TWO_PI * np.arange(q) / q


def grid_phase_from_uniform(u: np.ndarray, bits: int, alpha: float) -> PhaseVector:
    """Map uniform draws in [0, 1] onto the quantized grid (a draw of 1 takes
    the last level); coarser grids of the same draws are coarsenings of finer
    ones, which pairs runs across bit depths. A draw outside [0, 1], nan
    included, raises ConfigurationError."""
    grid = phase_grid(bits)
    u = np.asarray(u, dtype=float)
    outside = ~((0.0 <= u) & (u <= 1.0))
    if outside.any():
        raise ConfigurationError(f"uniform draws must lie in [0, 1], got {u[outside].tolist()}")
    idx = np.minimum((u * grid.size).astype(int), grid.size - 1)
    return PhaseVector(theta=grid[idx], alpha=alpha)


QUANT_MAX_EVALS = 200_000   # swap heuristic's trace-entry budget; the window rule stops it first
QUANT_WINDOW = 50           # the swaps stop once the summed improvement over the
QUANT_EPSILON = 1e-8        # trailing QUANT_WINDOW trace entries falls below this
QUANT_MAX_COLUMNS = 4096    # most candidate columns one objective call scores
# one swap tries every one of the 2^B levels, so 2^B must fit the trace budget
QUANT_MAX_BITS = QUANT_MAX_EVALS.bit_length() - 1


@dataclass(frozen=True)
class QuantOptions:
    """The bit depth B of "quant": a whole number in 1..QUANT_MAX_BITS."""

    bits: int = 3

    def __post_init__(self):
        _check_count("bits", self.bits, high=QUANT_MAX_BITS)


@dataclass
class QuantResult:
    phase: PhaseVector
    min_sinr: float
    evaluations: int
    tau_trace: np.ndarray
    warning: str | None = None


def _swap_values(objective, phi: np.ndarray, element: int, row: np.ndarray) -> list:
    """Objective values of ``phi`` with entry ``element`` set to each entry of
    ``row`` in turn, scored at most QUANT_MAX_COLUMNS columns per call."""
    values = []
    for start in range(0, row.size, QUANT_MAX_COLUMNS):
        part = row[start:start + QUANT_MAX_COLUMNS]
        candidates = np.empty((phi.size, part.size), dtype=complex)
        candidates[:] = phi[:, None]
        candidates[element] = part
        values.extend(np.asarray(objective(candidates), dtype=float).tolist())
    return values


def quantized_heuristic_phase(objective, init: PhaseVector, rng: np.random.Generator,
                              options: QuantOptions | None = None) -> QuantResult:
    """Random single-element swaps over the quantized phase grid.

    ``objective`` maps an (n, c) matrix of unit-modulus complex candidate
    vectors, one per column, to their (c,) minimum SINRs.
    Repeatedly pick a random element and try every other grid level there,
    in level order, keeping a swap only when the value strictly increases.
    Every candidate of a pick differs from the current phases at the picked
    element alone, so accepting one changes none of the others: one call
    (in chunks of at most QUANT_MAX_COLUMNS columns) scores the pick's q - 1
    candidates, and the accept rule is replayed over the returned values
    when one of them passes it (otherwise the pick adds q copies of the
    current value to the trace). A pick's values stay valid until a swap is
    accepted, so picking the same element again before then calls nothing.
    ``tau_trace`` holds the initial value, then the best value so far after
    each grid level of each picked element, its level at the pick (not
    judged again) included; ``evaluations`` counts the candidates the accept
    rule judged, q - 1 per pick, whether scored anew or remembered. The
    search stops once the summed improvement across the trailing
    QUANT_WINDOW trace entries drops below QUANT_EPSILON, which is
    guaranteed to happen because strict improvements on a finite grid are
    finite in number, or once the trace reaches QUANT_MAX_EVALS entries.
    """
    grid = phase_grid((options or QuantOptions()).bits)
    q = grid.size
    idx = np.rint(init.theta * (q / TWO_PI)).astype(int) % q
    if np.max(np.abs(np.mod(init.theta - grid[idx] + np.pi, TWO_PI) - np.pi)) > 1e-9:
        raise ConfigurationError(f"initial phases must lie on the {q}-point grid")

    phi = np.exp(1j * grid[idx])
    levels = np.exp(1j * grid)
    current = float(np.asarray(objective(phi[:, None]), dtype=float)[0])
    trace = [current]
    evaluations = 0
    warning = None
    scored = {}     # picked element -> its other levels' values, while no swap is accepted
    # held level -> the other levels in level order, formed on first use; a
    # pick adds q trace entries, so at most QUANT_MAX_EVALS / q + 1 are formed
    others = {}
    draw, size = rng.integers, init.n
    while True:
        n = int(draw(size))
        held = int(idx[n])   # phi's level here; re-scoring it after a swap cannot beat that swap
        values = scored.get(n)
        if values is None:
            row = others.get(held)
            if row is None:
                row = others[held] = np.concatenate((levels[:held], levels[held + 1:]))
            values = _swap_values(objective, phi, n, row)
        evaluations += q - 1
        # strict increase beyond roundoff of the phase arithmetic, at either sign
        threshold = current * (1.0 + math.copysign(1e-12, current))
        if any(value > threshold for value in values):
            for level, value in enumerate(values[:held] + [None] + values[held:]):
                if level != held and value > current * (1.0 + math.copysign(1e-12, current)):
                    accepted, current = level, value
                trace.append(current)
            idx[n] = accepted
            phi[n] = levels[accepted]
            scored.clear()
        else:
            trace.extend([current] * q)
            scored[n] = values
        if len(trace) > QUANT_WINDOW:
            last = trace[-1]
            # the trace never decreases, so every term is >= 0 and their float
            # sum is at least the first, newest-minus-oldest term: the sum can
            # fall below QUANT_EPSILON only if that term does
            if (last - trace[-QUANT_WINDOW - 1] < QUANT_EPSILON
                    and sum([last - t for t in trace[-QUANT_WINDOW - 1:-1]]) < QUANT_EPSILON):
                break
        if len(trace) >= QUANT_MAX_EVALS:
            warning = "evaluation budget exhausted before the improvement window settled"
            break

    return QuantResult(
        phase=PhaseVector(theta=grid[idx], alpha=init.alpha),
        min_sinr=current,
        evaluations=evaluations,
        tau_trace=np.asarray(trace),
        warning=warning,
    )
