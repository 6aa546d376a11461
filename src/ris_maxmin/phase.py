"""RIS phase optimization: quadratic-form machinery, the smooth-min gradient
methods, and the quantized random-swap heuristic.

The fixed-combiner SINR of user k is a ratio of quadratic forms in the
scaled phase vector u = alpha * phi:

    sinr_k(u) = p_k |v[k,k]^H u|^2 / (sum_{i != k} p_i |v[k,i]^H u|^2 + noise_k)

where v[k,i] = conj(h2[i]) * ((h1 @ ris_corr_sqrt)^H b_k). Note the pair
indexing: interference from user i flows through user k's combiner, so one
vector per (combiner, transmitter) pair is needed to reproduce the true
SINR. The diagonal v[k,k] satisfies v[k,k]^H u = b_k^H g_k exactly.
"""

from dataclasses import dataclass

import numpy as np
import scipy.optimize

from .beamforming import _mmse_state, post_bf_sinr_values
from .core import (TWO_PI, ChannelRealization, PhaseVector, PowerAllocation,
                   _bf_matrix, _power_array, effective_channel)
from .errors import ConfigurationError, DomainError, NumericError
from .power import mmse_max_min_power


@dataclass(frozen=True, eq=False)
class QuadraticFormSet:
    """Pairwise rank-one forms for the fixed-combiner SINR.

    ``pair_vectors``: (k, k, n) complex; entry [k, i] is the vector whose
    inner product with the scaled phase vector equals b_k^H g_i.
    ``noise``: sigma2 * ||b_k||^2 per user. ``powers``: watts per user.
    """

    pair_vectors: np.ndarray
    noise: np.ndarray
    powers: np.ndarray

    def __post_init__(self):
        pv = np.asarray(self.pair_vectors, dtype=complex)
        if pv.ndim != 3 or pv.shape[0] != pv.shape[1]:
            raise ConfigurationError(f"pair_vectors must be (k, k, n), got {pv.shape}")
        object.__setattr__(self, "pair_vectors", pv)
        object.__setattr__(self, "noise", np.asarray(self.noise, dtype=float))
        object.__setattr__(self, "powers", np.asarray(self.powers, dtype=float))

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

    def rank_one(self, k: int, i: int | None = None) -> np.ndarray:
        """The Hermitian PSD rank-one matrix of pair (k, i); i defaults to k."""
        v = self.pair_vectors[k, k if i is None else i]
        return np.outer(v, v.conj())

    def sinr(self, phi_vec: np.ndarray) -> np.ndarray:
        """Per-user SINR at one scaled phase vector."""
        inner = np.einsum("kin,n->ki", self.pair_vectors.conj(), phi_vec)
        gains = np.abs(inner) ** 2
        signal = self.powers * np.diagonal(gains)
        interference = gains @ self.powers - signal
        return signal / (interference + self.noise)

    def min_sinr(self, phi_vec: np.ndarray) -> float:
        return float(self.sinr(phi_vec).min())

    def sinr_batch(self, phi_vecs: np.ndarray) -> np.ndarray:
        """Per-user SINRs for a batch of scaled phase vectors, shape (n, c) -> (k, c)."""
        k = self.k
        flat = self.pair_vectors.conj().reshape(k * k, self.n)
        gains = np.abs(flat @ phi_vecs).reshape(k, k, -1) ** 2
        signal = self.powers[:, None] * gains[np.arange(k), np.arange(k)]
        interference = np.einsum("kic,i->kc", gains, self.powers) - signal
        return signal / (interference + self.noise[:, None])

    def lifted_sinr(self, v: np.ndarray) -> np.ndarray:
        """Per-user SINR ratio evaluated on a lifted matrix V in place of u u^H."""
        quads = np.real(np.einsum("kin,nm,kim->ki", self.pair_vectors.conj(), v, self.pair_vectors))
        quads = np.maximum(quads, 0.0)
        signal = self.powers * np.diagonal(quads)
        interference = quads @ self.powers - signal
        return signal / (interference + self.noise)


def build_quadratic_forms(chan: ChannelRealization, bf, powers, sigma2: float) -> QuadraticFormSet:
    """Assemble the quadratic forms for the current combiners and powers."""
    if sigma2 <= 0:
        raise ConfigurationError(f"sigma2 must be positive, got {sigma2}")
    rows = _bf_matrix(bf)
    p = _power_array(powers)
    cascade = chan.cascade_matrix()
    projected = cascade.conj().T @ rows.T          # column k: (h1 R^(1/2))^H b_k
    pair = chan.h2.conj()[None, :, :] * projected.T[:, None, :]
    return QuadraticFormSet(
        pair_vectors=pair,
        noise=sigma2 * np.sum(np.abs(rows) ** 2, axis=1),
        powers=p,
    )


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


def sinr_phase_derivative(chan: ChannelRealization, powers, phase: PhaseVector,
                          sigma2: float):
    """Complex derivative of every post-combining SINR w.r.t. every phase.

    Returns (deriv, sinr): ``deriv[k, n]`` is the Wirtinger derivative of
    sinr_k with respect to conj(phi_n) (the amplitude factor included), and
    sinr_k = p_k g_k^H T_k g_k with T_k = (S_k + sigma2*I)^{-1}. Writing
    C = h1 @ ris_corr_sqrt and c_ki = g_k^H T_k g_i,

        deriv[k] = p_k * alpha * (conj(h2[k]) - sum_{i != k} p_i c_ki conj(h2[i])) * (C^H T_k g_k)

    elementwise over n, which is the trace form of the matrix-inverse
    derivative identity collapsed onto rank-one factors. The real tangent
    along the unit circle is 2*Re(j * phi_n * conj(deriv[k, n])).

    No T_k is formed: every T_k g_k and c_ki comes from one factorization
    of A = sum_i p_i g_i g_i^H + sigma2*I by Sherman-Morrison (see
    ``beamforming``), T_k g_k = x_k / s_k and c_ki = g_k^H x_i / s_k with
    X = A^{-1} G and slack s_k = 1 - p_k g_k^H x_k = 1 / (1 + sinr_k); a
    user whose slack cancels takes its own factorization of S_k + sigma2*I.
    """
    if sigma2 <= 0:
        raise ConfigurationError(f"sigma2 must be positive, got {sigma2}")
    g = effective_channel(chan, phase)
    deriv, sinr, _ = _derivative_terms(chan, g, _power_array(powers), phase, sigma2)
    return deriv, sinr


def _derivative_terms(chan: ChannelRealization, g: np.ndarray, p: np.ndarray,
                      phase: PhaseVector, sigma2: float):
    """sinr_phase_derivative at the effective channels ``g``, plus the
    couplings: couplings[j, i] = g_j^H T_j g_i."""
    state = _mmse_state(g, p, sigma2)
    weights = -p * state.couplings
    np.fill_diagonal(weights, 1.0)
    combo = weights @ chan.h2.conj()                                   # (k, n)
    projected = (chan.cascade_matrix().conj().T @ state.directions).T  # C^H T_j g_j
    deriv = (phase.alpha * p)[:, None] * combo * projected
    return deriv, state.sinr, state.couplings


def _tangent(phase: PhaseVector, deriv: np.ndarray) -> np.ndarray:
    return 2.0 * np.real(1j * phase.phi[None, :] * deriv.conj())


def sinr_phase_tangent(chan: ChannelRealization, powers, phase: PhaseVector,
                       sigma2: float):
    """Real derivative of every post-combining SINR along each phase angle."""
    deriv, sinr = sinr_phase_derivative(chan, powers, phase, sigma2)
    return _tangent(phase, deriv), sinr


def max_min_sinr_tangent(chan: ChannelRealization, phase: PhaseVector, p_cap,
                         sigma2: float, start=None):
    """Gradient over the angles of the max-min SINR that power control leaves.

    tau(theta) is the common SINR of mmse_max_min_power at phase theta. There
    every SINR equals tau and the binding user b sits at its cap, so
    sinr_j(theta, p) = tau for all j defines tau and the other powers
    implicitly. Differentiating gives

        grad tau = sum_j w_j grad sinr_j / sum_j w_j

    with w the left null vector of d sinr / d p once column b is removed;
    d sinr_j / d p_i = -p_j |c_ji|^2 for i != j and c_jj on the diagonal,
    where c_ji = g_j^H (S_j + sigma2*I)^{-1} g_i. Returns (gradient, the
    power-control result); ``start`` warm-starts the power fixed point. The
    gradient is zero when the power step is degenerate.
    """
    if sigma2 <= 0:
        raise ConfigurationError(f"sigma2 must be positive, got {sigma2}")
    cap = np.atleast_1d(np.asarray(p_cap, dtype=float))
    g = effective_channel(chan, phase)
    result = mmse_max_min_power(g, cap, sigma2, start)
    if result.degenerate:
        return np.zeros(phase.n), result
    p = result.power.p
    deriv, _, couplings = _derivative_terms(chan, g, p, phase, sigma2)
    k = p.size
    jac = -p[:, None] * np.abs(couplings) ** 2
    jac[np.diag_indices(k)] = np.real(np.diagonal(couplings))
    binding = int(np.argmax(p / cap))
    # [J without column b, -1] maps (dp_-b, dtau) onto the SINR changes; the
    # last row of its inverse is -w / sum(w)
    system = np.column_stack([np.delete(jac, binding, axis=1), -np.ones(k)])
    weights = np.linalg.solve(system.T, np.eye(k)[-1])
    return -(weights @ _tangent(phase, deriv)), result


@dataclass(frozen=True)
class LseOptions:
    max_iters: int = 200
    grad_tol: float = 1e-6
    armijo_c: float = 1e-4
    step_shrink: float = 0.5
    step_init: float = 1.0
    max_backtracks: int = 50
    check_gradient: bool = False


@dataclass
class LseResult:
    """Outcome of a smooth-min phase step.

    ``power`` holds the max-min powers that go with ``phase`` when the step
    re-optimizes them (lse_max_min_phase), and is None for the frozen-power
    step.
    """

    phase: PhaseVector
    min_sinr: float
    iterations: int
    converged: bool
    grad_norm: float
    warning: str | None = None
    power: PowerAllocation | None = None


def _postbf_values(cascade, h2, p, sigma2, alpha, theta):
    phi_vec = alpha * np.exp(1j * theta)
    return post_bf_sinr_values(cascade @ (phi_vec[:, None] * h2.T), p, sigma2)


def lse_gradient_phase(chan: ChannelRealization, powers, init: PhaseVector,
                       sigma2: float, options: LseOptions | None = None) -> LseResult:
    """Projected gradient descent on the smooth-min surrogate over the angles.

    The powers stay frozen at ``powers``: this step minimizes lse_objective
    of the post-combining SINRs those powers give, with Armijo
    backtracking; the unit-modulus constraint is kept by working in the
    angle parametrization and wrapping mod 2*pi. Returns the iterate with
    the best minimum SINR seen, never worse than ``init``.
    """
    opts = options or LseOptions()
    p = _power_array(powers)
    cascade = chan.cascade_matrix()
    alpha = init.alpha
    theta = init.theta.copy()

    rho = _postbf_values(cascade, chan.h2, p, sigma2, alpha, theta)
    if np.any(rho <= 0):
        return LseResult(init, float(rho.min()), 0, False, np.inf,
                         warning="degenerate SINR at the initial phase")
    best_min, best_theta = float(rho.min()), theta.copy()
    objective = lse_objective(rho)

    converged = False
    grad_norm = np.inf
    iterations = 0
    for iterations in range(1, opts.max_iters + 1):
        phase = PhaseVector(theta=theta, alpha=alpha)
        tangent, rho = sinr_phase_tangent(chan, p, phase, sigma2)
        if opts.check_gradient and iterations == 1:
            _assert_matches_fd(tangent, finite_difference_tangent(chan, p, phase, sigma2))
        inv = 1.0 / rho
        weights = np.exp(inv - inv.max())
        weights /= weights.sum()
        grad = -(weights / rho ** 2) @ tangent
        grad_norm = float(np.max(np.abs(grad)))
        if grad_norm < opts.grad_tol:
            converged = True
            break

        step = opts.step_init
        gsq = float(grad @ grad)
        accepted = False
        for _ in range(opts.max_backtracks):
            theta_new = np.mod(theta - step * grad, TWO_PI)
            rho_new = _postbf_values(cascade, chan.h2, p, sigma2, alpha, theta_new)
            if np.all(rho_new > 0):
                obj_new = lse_objective(rho_new)
                if obj_new <= objective - opts.armijo_c * step * gsq:
                    accepted = True
                    break
            step *= opts.step_shrink
        if not accepted:
            break
        theta, objective = theta_new, obj_new
        if rho_new.min() > best_min:
            best_min, best_theta = float(rho_new.min()), theta_new.copy()

    return LseResult(
        phase=PhaseVector(theta=best_theta, alpha=alpha),
        min_sinr=best_min,
        iterations=iterations,
        converged=converged,
        grad_norm=grad_norm,
    )


def lse_max_min_phase(chan: ChannelRealization, init: PhaseVector, p_cap,
                      sigma2: float, options: LseOptions | None = None) -> LseResult:
    """Smooth-min phase step that re-optimizes the powers at every candidate.

    Maximizes tau(theta), the max-min SINR that mmse_max_min_power reaches
    under the caps ``p_cap`` with MMSE combiners. Power control equalizes
    the SINRs, so their lse_objective is log(k) + 1/tau and minimizing the
    smooth-min surrogate is maximizing tau; with the powers folded in, the
    surrogate no longer stalls where the frozen-power SINRs tie. Runs
    L-BFGS-B on -log(tau) over the angles with the gradient of
    max_min_sinr_tangent, for at most ``max_iters`` iterations, down to a
    projected gradient of ``grad_tol``. Returns the best phase seen with its
    max-min powers, never worse than ``init``.
    """
    opts = options or LseOptions()
    cap = np.atleast_1d(np.asarray(p_cap, dtype=float))
    alpha = init.alpha
    start = mmse_max_min_power(effective_channel(chan, init), cap, sigma2)
    if start.degenerate:
        return LseResult(init, start.tau, 0, False, np.inf,
                         warning="degenerate SINR at the initial phase", power=start.power)
    if opts.check_gradient:
        grad, _ = max_min_sinr_tangent(chan, init, cap, sigma2, start=start.power.p)
        _assert_matches_fd(grad, _max_min_fd(chan, init, cap, sigma2, start.power.p))

    best = {"tau": start.tau, "theta": init.theta, "power": start.power}

    def neg_log_tau(theta):
        grad, result = max_min_sinr_tangent(chan, PhaseVector(theta=theta, alpha=alpha),
                                            cap, sigma2, start=best["power"].p)
        if result.tau <= 0.0:
            return np.inf, np.zeros_like(theta)
        if result.tau > best["tau"]:
            best.update(tau=result.tau, theta=theta.copy(), power=result.power)
        return -np.log(result.tau), -grad / result.tau

    out = scipy.optimize.minimize(neg_log_tau, init.theta, jac=True, method="L-BFGS-B",
                                  options={"maxiter": opts.max_iters, "gtol": opts.grad_tol})
    return LseResult(
        phase=PhaseVector(theta=best["theta"], alpha=alpha),
        min_sinr=best["tau"],
        iterations=int(out.nit),
        converged=bool(out.success),
        grad_norm=float(np.max(np.abs(out.jac))),
        power=best["power"],
    )


def _central_differences(values, theta: np.ndarray, step: float) -> np.ndarray:
    """Central differences of values(theta) over each angle; the last axis runs over angles."""
    columns = []
    for n in range(theta.size):
        hi = theta.copy()
        hi[n] += step
        lo = theta.copy()
        lo[n] -= step
        columns.append((values(hi) - values(lo)) / (2.0 * step))
    return np.stack(columns, axis=-1)


def finite_difference_tangent(chan: ChannelRealization, powers, phase: PhaseVector,
                              sigma2: float, step: float = 1e-6) -> np.ndarray:
    """Central finite differences of the post-combining SINRs over each angle."""
    p = _power_array(powers)
    cascade = chan.cascade_matrix()
    return _central_differences(
        lambda theta: _postbf_values(cascade, chan.h2, p, sigma2, phase.alpha, theta),
        phase.theta, step)


def _max_min_fd(chan, phase, cap, sigma2, start, step=1e-6):
    def tau(theta):
        g = effective_channel(chan, PhaseVector(theta=theta, alpha=phase.alpha))
        return mmse_max_min_power(g, cap, sigma2, start).tau
    return _central_differences(tau, phase.theta, step)


def _assert_matches_fd(analytic, fd, rtol=1e-5):
    scale = max(np.abs(fd).max(), 1e-12)
    err = np.abs(analytic - fd)
    if np.any(err > rtol * np.maximum(np.abs(fd), 1e-4 * scale)):
        raise NumericError("analytic phase gradient disagrees with finite differences")


def phase_grid(bits: int) -> np.ndarray:
    """The 2^bits equispaced angles 2*pi*i/2^bits, i = 0..2^bits-1."""
    if bits < 1:
        raise ConfigurationError(f"bits must be >= 1, got {bits}")
    q = 2 ** bits
    return TWO_PI * np.arange(q) / q


def grid_phase_from_uniform(u: np.ndarray, bits: int, alpha: float) -> PhaseVector:
    """Map uniform(0,1) draws onto the quantized grid; coarser grids of the
    same draws are coarsenings of finer ones, which pairs runs across bit
    depths."""
    grid = phase_grid(bits)
    idx = np.minimum((np.asarray(u) * grid.size).astype(int), grid.size - 1)
    return PhaseVector(theta=grid[idx], alpha=alpha)


@dataclass(frozen=True)
class QuantOptions:
    bits: int = 3
    window: int = 50
    epsilon: float = 1e-8
    max_evals: int = 200_000


@dataclass
class QuantResult:
    phase: PhaseVector
    min_sinr: float
    evaluations: int
    tau_trace: np.ndarray
    warning: str | None = None


def quantized_heuristic_phase(objective, init: PhaseVector, rng: np.random.Generator,
                              options: QuantOptions | None = None) -> QuantResult:
    """Random single-element swaps over the quantized phase grid.

    ``objective`` maps a unit-modulus complex vector to the minimum SINR.
    Repeatedly pick a random element and try every grid level there, keeping
    a swap only when the objective strictly increases. One history entry is
    recorded per candidate evaluated; the search stops once the summed
    improvement across the trailing window drops below ``epsilon``, which is
    guaranteed to happen because strict improvements on a finite grid are
    finite in number.
    """
    opts = options or QuantOptions()
    if opts.window < 1:
        raise ConfigurationError(f"window must be >= 1, got {opts.window}")
    grid = phase_grid(opts.bits)
    q = grid.size
    idx = np.argmin(np.abs(np.mod(init.theta[:, None] - grid[None, :] + np.pi, TWO_PI) - np.pi), axis=1)
    if np.max(np.abs(np.mod(init.theta - grid[idx] + np.pi, TWO_PI) - np.pi)) > 1e-9:
        raise ConfigurationError(f"initial phases must lie on the {q}-point grid")

    phi = np.exp(1j * grid[idx])
    current = float(objective(phi))
    trace = [current]
    warning = None
    while True:
        n = int(rng.integers(init.n))
        for level in range(q):
            if level != idx[n]:
                cand = phi.copy()
                cand[n] = np.exp(1j * grid[level])
                value = float(objective(cand))
                # strict increase beyond roundoff of the phase arithmetic
                if value > current * (1.0 + 1e-12):
                    idx[n] = level
                    phi = cand
                    current = value
            trace.append(current)
        if len(trace) > opts.window:
            recent = trace[-opts.window - 1:-1]
            if sum(trace[-1] - t for t in recent) < opts.epsilon:
                break
        if len(trace) >= opts.max_evals:
            warning = "evaluation budget exhausted before the improvement window settled"
            break

    return QuantResult(
        phase=PhaseVector(theta=grid[idx], alpha=init.alpha),
        min_sinr=current,
        evaluations=len(trace) - 1,
        tau_trace=np.asarray(trace),
        warning=warning,
    )
