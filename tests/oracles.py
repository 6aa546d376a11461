"""Test-side references: finite differences, lifted forms, the post-combining
report, the serial quant swap loop and its grid levels, the serial SDR line
search and its level gradient, the per-element channel dump, the reference
tau chain of the lse step and the sweeping random baseline.

None of these is part of the library. Each is built from the library's
primitives in the most direct way, so a test can hold the optimized
routes against them.
"""

import math
from typing import NamedTuple

import numpy as np
import scipy.optimize
from scipy.linalg import lapack

from ris_maxmin.beamforming import (SLACK_FALLBACK, _cholesky_solve, interference_cholesky,
                                    optimal_beamformers, post_bf_sinr_values)
from ris_maxmin.channel import CHANNEL_DUMP_HEADER
from ris_maxmin.core import (TWO_PI, PhaseVector, PowerAllocation, SinrReport, _power_array,
                             effective_channel, gain_table)
from ris_maxmin.errors import ConfigurationError, NumericError
from ris_maxmin.phase import (LSE_GRAD_TOL, LSE_MAX_ITERS, QUANT_EPSILON, QUANT_MAX_EVALS,
                              QUANT_WINDOW, LseResult, QuantOptions, QuantResult, phase_grid)
from ris_maxmin.power import (BALANCED_SPREAD, FIXED_POINT_MAX_ITER, STALL_SPREAD, STALL_STEPS,
                              PowerControlResult, effective_power_cap, max_min_power)
from ris_maxmin.sdr import (INNER_ITERS, STEP_GROW, STEP_INIT, STEP_MAX, STEP_TRIES,
                            STOP_REL, STOP_WINDOW, _Ascent)


def post_bf_sinr(chan, phase, powers, sigma2) -> SinrReport:
    """SINR of every user assuming each applies its optimal receive combiner."""
    g = effective_channel(chan, phase)
    return SinrReport.from_per_user(post_bf_sinr_values(g, _power_array(powers), sigma2).sinr)


def finite_difference_tangent(chan, powers, phase, sigma2, step=1e-6) -> np.ndarray:
    """Central finite differences of the post-combining SINRs over each angle."""
    p = _power_array(powers)
    cascade = chan.cascade

    def values(theta):
        g = cascade @ ((phase.alpha * np.exp(1j * theta))[:, None] * chan.h2.T)
        return post_bf_sinr_values(g, p, sigma2).sinr

    columns = []
    for n in range(phase.n):
        hi = phase.theta.copy()
        hi[n] += step
        lo = phase.theta.copy()
        lo[n] -= step
        columns.append((values(hi) - values(lo)) / (2.0 * step))
    return np.stack(columns, axis=-1)


def rank_one(forms, k, i=None) -> np.ndarray:
    """The Hermitian PSD rank-one matrix of pair (k, i) of the forms; i defaults to k."""
    v = forms.pair_vectors[k, k if i is None else i]
    return np.outer(v, v.conj())


def lifted_sinr(forms, v) -> np.ndarray:
    """Per-user SINR ratio of the forms on a lifted matrix V in place of u u^H."""
    quads = np.real(np.einsum("kin,nm,kim->ki", forms.pair_vectors.conj(), v, forms.pair_vectors))
    parts = forms.split.T @ np.maximum(quads, 0.0).ravel()
    return parts[:forms.k] / (parts[forms.k:] + forms.noise)


def nearest_grid_levels(theta, grid) -> np.ndarray:
    """Each angle's nearest grid level by wrapped distance: an argmin over
    every (angle, level) pair."""
    return np.argmin(np.abs(np.mod(theta[:, None] - grid[None, :] + np.pi, TWO_PI) - np.pi), axis=1)


def serial_quantized_heuristic_phase(objective, init, rng, options=None) -> QuantResult:
    """The quant swap loop one candidate at a time: ``objective`` maps one
    unit-modulus (n,) vector to its minimum SINR, and each level of each
    picked element is scored by its own call. Same rng draws, accept rule,
    trace and stop rule as phase.quantized_heuristic_phase."""
    grid = phase_grid((options or QuantOptions()).bits)
    q = grid.size
    idx = nearest_grid_levels(init.theta, grid)
    if np.max(np.abs(np.mod(init.theta - grid[idx] + np.pi, TWO_PI) - np.pi)) > 1e-9:
        raise ConfigurationError(f"initial phases must lie on the {q}-point grid")

    phi = np.exp(1j * grid[idx])
    current = float(objective(phi))
    trace = [current]
    evaluations = 0
    warning = None
    while True:
        n = int(rng.integers(init.n))
        held = idx[n]
        for level in range(q):
            if level != held:
                cand = phi.copy()
                cand[n] = np.exp(1j * grid[level])
                value = float(objective(cand))
                evaluations += 1
                if value > current * (1.0 + math.copysign(1e-12, current)):
                    idx[n] = level
                    phi = cand
                    current = value
            trace.append(current)
        if len(trace) > QUANT_WINDOW:
            recent = trace[-QUANT_WINDOW - 1:-1]
            if sum(trace[-1] - t for t in recent) < QUANT_EPSILON:
                break
        if len(trace) >= QUANT_MAX_EVALS:
            warning = "evaluation budget exhausted before the improvement window settled"
            break

    return QuantResult(phase=PhaseVector(theta=grid[idx], alpha=init.alpha), min_sinr=current,
                       evaluations=evaluations, tau_trace=np.asarray(trace), warning=warning)


def _row_sq_norms_2d(a):
    real = a.view(float)
    return np.einsum("ij,ij->i", real, real)


def _normalize_rows_2d(factor, alpha):
    sq = _row_sq_norms_2d(factor)
    if sq.min() <= 0.0:
        dead = sq <= 0.0
        factor = factor.copy()
        factor[dead, 0] = 1.0
        sq[dead] = 1.0
    return factor * (alpha / np.sqrt(sq))[:, None]


def _softmin(levels, mu):
    low = levels.min()
    return float(low - mu * math.log(np.exp((low - levels) / mu).sum()))


def _stats_2d(model, factor):
    t = model.pair_conj @ factor
    parts = _row_sq_norms_2d(t) @ model.split
    return t, parts[:model.k], parts[model.k:] + model.noise


def level_gradient(model, t, weights, coef):
    """Wirtinger gradient w.r.t. conj(L) of the weights-averaged levels, from
    the projections T = b_ki^H L and the (k, k) level coefficients at lam."""
    folded = (weights[:, None] * coef).reshape(-1, 1)
    return model.pair_t @ (folded * t)


def serial_inner_ascent(model, factor, alpha, lam) -> _Ascent:
    """sdr._inner_ascent scoring one step length at a time, each on its own
    (n, r) factor: the line search tries step, step/2, ... and accepts the
    first whose smoothed minimum rises, STEP_TRIES tries at most."""
    alpha2 = alpha ** 2
    coef = model.coef(lam)
    t, signal, denom = _stats_2d(model, factor)
    levels = signal - lam * denom
    level_start = float(levels.min())
    best_ratio, best_factor = float((signal / denom).min()), factor
    anchor, flat = best_ratio, 0
    step = STEP_INIT
    improved = False
    steps = backtracks = 0
    early_stop = False
    for _ in range(INNER_ITERS):
        low = levels.min()
        mu = max(0.1 * (levels.max() - low), 1e-9)
        weights = np.exp((low - levels) / mu)
        total = weights.sum()
        current = float(low - mu * math.log(total))
        grad = level_gradient(model, t, weights / total, coef)
        radial = np.einsum("ij,ij->i", grad.view(float), factor.view(float)) / alpha2
        grad -= radial[:, None] * factor
        norm = math.sqrt(_row_sq_norms_2d(grad).sum())
        if norm < 1e-14:
            break
        accepted = False
        for _ in range(STEP_TRIES):
            candidate = _normalize_rows_2d(factor + (step / norm) * grad, alpha)
            t_new, signal_new, denom_new = _stats_2d(model, candidate)
            levels_new = signal_new - lam * denom_new
            if _softmin(levels_new, mu) > current + 1e-14:
                accepted = True
                break
            step *= 0.5
            backtracks += 1
        if not accepted:
            break
        factor, t, levels = candidate, t_new, levels_new
        steps += 1
        step = min(step * STEP_GROW, STEP_MAX)
        ratio = float((signal_new / denom_new).min())
        if ratio > best_ratio:
            best_ratio, best_factor = ratio, factor
            improved = True
        if best_ratio > anchor * (1.0 + STOP_REL):
            anchor, flat = best_ratio, 0
        else:
            flat += 1
            if flat >= STOP_WINDOW:
                early_stop = True
                break
    improved = improved or levels.min() > level_start + 1e-12 * max(abs(level_start), 1.0)
    return _Ascent(best_factor, best_ratio, improved, steps, backtracks, early_stop)


def dump_channel_text_per_element(chan) -> str:
    """channel.dump_channel_text formatting each numpy scalar on its own."""
    lines = [CHANNEL_DUMP_HEADER, f"M {chan.m}", f"N {chan.n}", f"K {chan.k}"]
    for tag, arr in (("H1", chan.h1), ("RIS_CORR_SQRT", chan.ris_corr_sqrt), ("H2", chan.h2)):
        lines.append(tag)
        for z in np.asarray(arr).ravel():
            lines.append(f"{z.real:.17g} {z.imag:.17g}")
    lines.append("POSITIONS")
    for x, y in chan.user_positions:
        lines.append(f"{x:.17g} {y:.17g}")
    lines.append("END")
    return "\n".join(lines) + "\n"


# The tau chain of lse_max_min_phase, written out step by step the way the
# library first computed it: the MMSE kernel, the Newton power step with its
# fixed-point fallback, the tangent solve, the predicted start and the
# L-BFGS-B loop. Every optimization of the library's chain must give these
# bits.


class ReferenceMmseState(NamedTuple):
    directions: np.ndarray
    sinr: np.ndarray
    couplings: np.ndarray


def reference_mmse_state(g, p, sigma2) -> ReferenceMmseState:
    """Every user's MMSE direction, SINR and couplings from one factorization."""
    m, k = g.shape
    if not np.all(np.isfinite(g)):
        raise NumericError("effective channel contains non-finite entries")
    a = (g * p) @ g.conj().T
    a.flat[::m + 1] += sigma2
    x = _cholesky_solve(a, g, "interference-plus-noise matrix")
    gram = g.conj().T @ x
    q = gram.diagonal().real
    slack = 1.0 - p * q
    low = slack < SLACK_FALLBACK
    slack[low] = 1.0
    directions = x / slack
    couplings = gram / slack[:, None]
    sinr = p * q / slack
    if low.any():
        users = np.flatnonzero(low)
        for j, solved in zip(users, interference_cholesky(g, p, sigma2, users)):
            directions[:, j] = solved[:, j]
            couplings[j] = g[:, j].conj() @ solved
            sinr[j] = p[j] * couplings[j, j].real
    return ReferenceMmseState(directions, sinr, couplings)


def _reference_balance(couplings, p, cap, rhs):
    binding = int(np.argmax(p / cap))
    system = -p[:, None] * np.abs(couplings) ** 2
    system.flat[::p.size + 1] = couplings.diagonal().real
    system[:, binding] = -1.0
    *_, solution, info = lapack.dgesv(system, rhs)
    return None if info != 0 else (binding, solution)


def _reference_newton(state, p, cap):
    solved = _reference_balance(state.couplings, p, cap, state.sinr.min() - state.sinr)
    if solved is None:
        return None
    binding, step = solved
    step[binding] = 0.0
    p_new = p + step
    if not np.all(p_new > 0.0):
        return None
    return np.minimum(cap, p_new / np.max(p_new / cap))


def reference_mmse_max_min_power(g, p_cap, sigma2, start=None) -> PowerControlResult:
    """power.mmse_max_min_power on reference_mmse_state, for valid inputs."""
    cap = np.atleast_1d(np.asarray(p_cap, dtype=float))
    if np.any(np.sum(np.abs(g) ** 2, axis=0) == 0.0):
        return PowerControlResult(PowerAllocation(cap.copy()), 0.0, True,
                                  reference_mmse_state(g, cap, sigma2))
    p = cap.copy() if start is None else np.asarray(start, dtype=float)
    p = np.minimum(cap, p / np.max(p / cap))
    previous = best_spread = np.inf
    best_state, stalled = None, 0
    for _ in range(FIXED_POINT_MAX_ITER):
        current = reference_mmse_state(g, p, sigma2)
        spread = current.sinr.max() / current.sinr.min() - 1.0
        if best_state is None or spread < best_spread:
            best_spread, best_p, best_state, stalled = spread, p, current, 0
        else:
            stalled += 1
        if best_spread <= BALANCED_SPREAD or (best_spread <= STALL_SPREAD
                                              and stalled >= STALL_STEPS):
            break
        p_new = _reference_newton(current, p, cap) if spread < previous else None
        if p_new is None:
            interference = p / current.sinr
            p_new = np.minimum(cap, interference / np.max(interference / cap))
        previous, p = spread, p_new
    return PowerControlResult(PowerAllocation(best_p), float(best_state.sinr.min()), False,
                              best_state)


def reference_max_min_sinr_tangent(chan, phase, p_cap, sigma2, start=None):
    """phase.max_min_sinr_tangent on the reference chain: (gradient, the
    power-control result, the power slope)."""
    cap = np.atleast_1d(np.asarray(p_cap, dtype=float))
    result = reference_mmse_max_min_power(effective_channel(chan, phase), cap, sigma2, start)
    if result.degenerate:
        return np.zeros(phase.n), result, np.zeros((cap.size, phase.n))
    p, state = result.power.p, result.mmse_state
    weights = -p * state.couplings
    np.fill_diagonal(weights, 1.0)
    combo = weights @ chan.h2.conj()
    projected = (chan.cascade.conj().T @ state.directions).T
    deriv = (phase.alpha * p)[:, None] * combo * projected
    tangent = 2.0 * np.real(1j * phase.phi[None, :] * deriv.conj())
    solved = _reference_balance(state.couplings, p, cap, -tangent)
    if solved is None:
        raise np.linalg.LinAlgError("balance system of the max-min powers is singular")
    binding, sensitivity = solved
    gradient = sensitivity[binding].copy()
    sensitivity[binding] = 0.0
    return gradient, result, sensitivity


def reference_lse_max_min_phase(chan, init, p_cap, sigma2) -> LseResult:
    """phase.lse_max_min_phase on the reference chain."""
    cap = np.atleast_1d(np.asarray(p_cap, dtype=float))
    alpha = init.alpha
    _, start, slope = reference_max_min_sinr_tangent(chan, init, cap, sigma2)
    if start.degenerate:
        return LseResult(init, start.tau, 0, False,
                         warning="degenerate SINR at the initial phase", power_control=start)
    best = {"result": start, "theta": init.theta, "slope": slope}

    def neg_log_tau(theta):
        p = best["result"].power.p
        predicted = p + best["slope"] @ (np.mod(theta - best["theta"] + np.pi, TWO_PI) - np.pi)
        guess = predicted if np.all(predicted > 0.0) else p
        grad, result, slope = reference_max_min_sinr_tangent(
            chan, PhaseVector(theta=theta, alpha=alpha), cap, sigma2, start=guess)
        if result.tau <= 0.0:
            return np.inf, np.zeros_like(theta)
        if result.tau > best["result"].tau:
            best.update(result=result, theta=theta.copy(), slope=slope)
        return -np.log(result.tau), -grad / result.tau

    out = scipy.optimize.minimize(neg_log_tau, init.theta, jac=True, method="L-BFGS-B",
                                  options={"maxiter": LSE_MAX_ITERS, "gtol": LSE_GRAD_TOL})
    return LseResult(PhaseVector(theta=best["theta"], alpha=alpha), best["result"].tau,
                     int(out.nit), bool(out.success), int(out.nfev), power_control=best["result"])


def sweeping_random_baseline(config, chan, rng, tol=1e-4, max_sweeps=30):
    """random-baseline as the alternating loop once ran it: random phases,
    then sweeps of a combiner stage and a fixed-combiner (Perron) power
    stage, each kept only if the minimum SINR does not fall, until a sweep
    raises it by at most ``tol`` relative. Returns (phases, final minimum)."""
    phase = PhaseVector.random(config.n, config.alpha, rng)
    p_cap = effective_power_cap(config.p_max, config.sar_ref, config.emf_max)
    power = PowerAllocation(p_cap.copy())
    table, current, previous = None, -np.inf, None
    for _ in range(max_sweeps):
        table_new = gain_table(chan, phase, optimal_beamformers(chan, phase, power, config.sigma2),
                               config.sigma2)
        candidate = float(table_new.sinr(power.p).min())
        if candidate >= current:
            table, current = table_new, candidate
        result = max_min_power(table, p_cap)
        if result.tau >= current:
            power, current = result.power, result.tau
        if previous is not None and current - previous <= tol * max(previous, 1e-300):
            break
        previous = current
    return phase, current
