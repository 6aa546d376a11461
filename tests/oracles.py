"""Test-side references: finite differences, lifted forms, the post-combining
report, the serial quant swap loop, the serial SDR line search and the
per-element channel dump.

None of these is part of the library. Each is built from the library's
primitives in the most direct way, so a test can hold the optimized
routes against them.
"""

import math

import numpy as np

from ris_maxmin.beamforming import post_bf_sinr_values
from ris_maxmin.channel import CHANNEL_DUMP_HEADER
from ris_maxmin.core import TWO_PI, PhaseVector, SinrReport, _power_array, effective_channel
from ris_maxmin.errors import ConfigurationError
from ris_maxmin.phase import (QUANT_EPSILON, QUANT_MAX_EVALS, QUANT_WINDOW,
                              QuantOptions, QuantResult, phase_grid)
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


def serial_quantized_heuristic_phase(objective, init, rng, options=None) -> QuantResult:
    """The quant swap loop one candidate at a time: ``objective`` maps one
    unit-modulus (n,) vector to its minimum SINR, and each level of each
    picked element is scored by its own call. Same rng draws, accept rule,
    trace and stop rule as phase.quantized_heuristic_phase."""
    grid = phase_grid((options or QuantOptions()).bits)
    q = grid.size
    idx = np.argmin(np.abs(np.mod(init.theta[:, None] - grid[None, :] + np.pi, TWO_PI) - np.pi), axis=1)
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
                if value > current * (1.0 + 1e-12):
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
        grad = model.gradient(t, weights / total, coef)
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
