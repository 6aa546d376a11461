"""Phase design by semidefinite relaxation with a Dinkelbach outer loop.

The max-min fractional program over the lifted matrix V = u u^H (u the
scaled phase vector) is relaxed by dropping the rank constraint, keeping
diag(V) = alpha^2 and V >= 0. For the current level lam the inner problem

    maximize  min_k ( <C_k(lam), V> - lam*noise_k ),
    C_k(lam) = p_k R_kk - lam * sum_{i != k} p_i R_ki,

is climbed in the factorization V = L L^H with alpha-norm rows, which makes
both constraints hold exactly by construction: a smoothed-min gradient
ascent over the product of row spheres with backtracking line search.

The line search tries the step lengths step, step/2, step/4, ... in turn
and accepts the first whose smoothed minimum rises; every rejection counts
one backtrack, and a search that rejects STEP_TRIES lengths ends the
ascent. At k=6, n=24 nearly every search ends by its second try (most
reject the grown step and accept its half), so each pass scores the next
STEP_BATCH lengths as one (STEP_BATCH, n, r) stack of factors and then
replays the accept rule over them in order. The stacked products give
every factor the bits it gets alone, so the accepted step, the counters
and the iterates are those of scoring one length at a time; only the
lengths after the accepted one are scored in vain.

A step makes about fifty numpy calls on arrays of at most 36 x 16 entries,
so what it costs is call overhead more than arithmetic. The step is written
flat: its gradient and smoothed minima are inline, it calls the ufunc
reductions without ndarray's wrappers, and its row norms and radial
projection call c_einsum, the C function behind np.einsum, directly
(np.einsum itself on a numpy that lacks it). None of this moves a bit.

C_k(lam) is affine in lam, so one level model serves the whole call: a
single pass over the pair gains |b_ki^H L|^2 gives every user's signal
s_k = p_k <R_kk, V> and denominator d_k = sum_{i != k} p_i <R_ki, V> +
noise_k, and from them the levels s_k - lam*d_k and the SINR ratios
s_k / d_k. The pass uses the forms' own pair matrix and power split, the
ones QuadraticFormSet.sinr_batch evaluates, so the ratios of a rank-one
factor L = u are the forms' SINRs at u.

An inner ascent stops at INNER_ITERS steps, or earlier once its best ratio
has not risen by more than a relative STOP_REL over STOP_WINDOW consecutive
accepted steps: the level update below acts only on ratio gains of at least
OUTER_TOL, a hundred times STOP_REL.

The level is then updated to the smallest SINR ratio at the best iterate
and the loop repeats until it stops improving. A rank-one solution is read
off the top eigenvector when V is essentially rank one and by Gaussian
randomization otherwise. The forms score the incoming phase and every
rounded candidate; the returned phase never scores below the incoming one.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import PhaseVector, _trusted
from .errors import ConfigurationError
from .phase import QuadraticFormSet

_TINY = 1e-300


OUTER_ITERS = 30        # Dinkelbach level updates
OUTER_TOL = 1e-4        # relative level gain below which the loop stops
STOP_REL = 1e-6         # an inner ascent stops once its best ratio has risen by no
STOP_WINDOW = 30        # more than STOP_REL (relative) over STOP_WINDOW accepted steps
RESTARTS = 3            # cold inner ascents tried when a level update stalls
INNER_ITERS = 300       # inner ascent steps per level, at most
STEP_INIT = 0.5         # inner step: starts here, halves on rejection,
STEP_GROW = 1.6         # grows by STEP_GROW on acceptance,
STEP_MAX = 10.0         # up to STEP_MAX
STEP_TRIES = 30         # step lengths a line search tries before the ascent stops,
STEP_BATCH = 2          # scored STEP_BATCH at a time in one stacked pass
INIT_SPREAD = 0.05      # nudge of the warm start off the rank-one corner
N_RAND = 200            # Gaussian randomization draws when the best lifted matrix is not rank one

_HALVINGS = (0.5 ** np.arange(STEP_BATCH))[:, None, None]  # a pass's lengths, over its first one


@dataclass
class SdrResult:
    """Outcome of sdr_dinkelbach_phase.

    ``feasible_value`` is the largest minimum SINR ratio the run reached on
    a feasible point of the relaxation (a lifted iterate, a rounded
    candidate or the incoming phase). It is a value the relaxation attains,
    not an upper bound on its optimum; ``min_sinr`` never exceeds it.
    ``lifted`` is the (n, n) matrix V = L L^H of the best factor L, which the
    rounding decomposes: symmetrized, PSD, alpha^2 on its diagonal (rows of L have norm alpha).

    Counters, summed over the call: ``inner_steps`` accepted ascent steps,
    ``backtracks`` step halvings in the line search, ``cold_restarts`` cold
    ascents run after a stalled level update, and ``early_stops`` ascents
    ended by the STOP_REL/STOP_WINDOW rule rather than at INNER_ITERS or a
    failed line search.
    """

    phase: PhaseVector
    min_sinr: float
    feasible_value: float
    lifted: np.ndarray
    iterations: int
    inner_steps: int
    backtracks: int
    cold_restarts: int
    early_stops: int
    warning: str | None = None


def _bind_einsum():
    """The C function that np.einsum calls, for the ascent's row reductions.

    np.einsum's Python wrapper costs about 1 us of each 2.5 us call on the
    ascent's small operands, and calling its C core directly gives the same
    bits. The core is c_einsum of numpy._core.multiarray (numpy.core.multiarray
    before numpy 2); where neither module has it, np.einsum itself.
    """
    try:
        from numpy._core.multiarray import c_einsum
    except ImportError:
        try:
            from numpy.core.multiarray import c_einsum
        except ImportError:
            c_einsum = np.einsum
    return c_einsum


_einsum = _bind_einsum()
# the reductions ndarray.min, max and sum run, without their Python wrappers
_min, _max, _sum = np.minimum.reduce, np.maximum.reduce, np.add.reduce


def _row_sq_norms(a: np.ndarray) -> np.ndarray:
    """Squared norm of every row of a C-contiguous complex matrix, or of each matrix of a stack."""
    real = a.view(float)
    return _einsum("...ij,...ij->...i", real, real)


class _LevelModel:
    """Signals and denominators of the SINR ratios of a factorized lifted matrix.

    The level of user k at lam is signal_k - lam * denominator_k and its
    SINR ratio is signal_k / denominator_k, so one model serves every lam.
    The pair matrix and the power split are the forms' own; the model adds
    the lam-affine coefficients of the levels and the transposed pair
    matrix the gradient needs.
    """

    def __init__(self, forms: QuadraticFormSet):
        k = forms.k
        self.k = k
        self.pair_conj = forms.pair_conj
        self.split = forms.split
        self.pair_t = np.ascontiguousarray(forms.pair_vectors.reshape(k * k, forms.n).T)
        self.noise = forms.noise
        rows = np.arange(k * k)
        self.signal_coef = forms.split[rows, rows // k].reshape(k, k)
        self.interference_coef = forms.split[rows, k + rows // k].reshape(k, k)

    def coef(self, lam: float) -> np.ndarray:
        """(k, k) weight of pair gain (k, i) in user k's level at lam."""
        return self.signal_coef - lam * self.interference_coef

    def stats(self, factors: np.ndarray):
        """Projections T = b_ki^H L, signals and denominators of a (c, n, r) stack of factors.

        Each factor gets the bits it would get alone: the stacked product runs
        one gemm per factor, and the split is applied to a (c, 1, K*K) stack of
        rows (a (c, K*K) matrix product would sum in another order).
        """
        t = np.matmul(self.pair_conj, factors)
        parts = (_row_sq_norms(t)[:, None, :] @ self.split)[:, 0]
        return t, parts[:, :self.k], parts[:, self.k:] + self.noise


def _normalize_rows(factor: np.ndarray, alpha: float) -> np.ndarray:
    """Rows of a factor, or of each factor of a stack, scaled to norm alpha; a zero row
    becomes alpha times the first unit vector."""
    sq = _row_sq_norms(factor)
    if _min(sq, None) <= 0.0:
        dead = sq <= 0.0
        factor = factor.copy()
        factor[dead, 0] = 1.0
        sq[dead] = 1.0
    return factor * (alpha / np.sqrt(sq))[..., None]


class _Ascent(NamedTuple):
    factor: np.ndarray
    ratio: float
    improved: bool
    steps: int
    backtracks: int
    early_stop: bool


def _inner_ascent(model: _LevelModel, factor: np.ndarray, alpha: float, lam: float) -> _Ascent:
    """Smoothed-min gradient ascent over the product of row spheres.

    Returns the iterate with the best certified SINR ratio (the Dinkelbach
    update quantity), the ratio itself, whether the run improved the
    starting level, and the run's counters.
    """
    alpha2 = alpha ** 2
    coef = model.coef(lam)
    pair_t = model.pair_t
    t, signal, denom = model.stats(factor[None])
    t, levels = t[0], signal[0] - lam * denom[0]
    low = level_start = float(_min(levels))
    best_ratio, best_factor = float(_min(signal[0] / denom[0])), factor
    anchor, flat = best_ratio, 0
    step = STEP_INIT
    improved = False
    steps = backtracks = 0
    early_stop = False
    for _ in range(INNER_ITERS):
        mu = max(0.1 * (float(_max(levels)) - low), 1e-9)
        weights = np.exp((low - levels) / mu)
        total = float(_sum(weights))
        current = low - mu * math.log(total)
        # Wirtinger gradient w.r.t. conj(L) of the weights-averaged levels,
        # then its projection on the tangent spaces of the row spheres
        grad = pair_t @ (((weights / total)[:, None] * coef).reshape(-1, 1) * t)
        radial = _einsum("ij,ij->i", grad.view(float), factor.view(float)) / alpha2
        grad -= radial[:, None] * factor
        norm = math.sqrt(_sum(_row_sq_norms(grad)))
        if norm < 1e-14:
            break
        accepted = None
        for tried in range(0, STEP_TRIES, STEP_BATCH):
            # step, step/2, ...: halving by 0.5 is exact, so these are the lengths
            # the replay below reaches by halving step one rejection at a time
            scales = step * _HALVINGS[:STEP_TRIES - tried] / norm
            candidates = _normalize_rows(factor + scales * grad, alpha)
            t_new, signal_new, denom_new = model.stats(candidates)
            levels_new = signal_new - lam * denom_new
            # each candidate's minimum and smoothed minimum at temperature mu
            lows = _min(levels_new, 1)
            sums = _sum(np.exp((lows[:, None] - levels_new) / mu), 1).tolist()
            lows = lows.tolist()
            for j, mass in enumerate(sums):
                if lows[j] - mu * math.log(mass) > current + 1e-14:
                    accepted = j
                    break
                step *= 0.5
                backtracks += 1
            if accepted is not None:
                break
        if accepted is None:
            break
        factor, t, levels, low = (candidates[accepted], t_new[accepted], levels_new[accepted],
                                  lows[accepted])
        steps += 1
        step = min(step * STEP_GROW, STEP_MAX)
        ratio = float(_min(signal_new[accepted] / denom_new[accepted]))
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
    improved = improved or low > level_start + 1e-12 * max(abs(level_start), 1.0)
    return _Ascent(best_factor, best_ratio, improved, steps, backtracks, early_stop)


def _unit_phases(z: np.ndarray) -> np.ndarray:
    mags = np.abs(z)
    return np.where(mags > 0, z / np.where(mags > 0, mags, 1.0), 1.0)


def sdr_dinkelbach_phase(forms: QuadraticFormSet, alpha: float, init: PhaseVector,
                         rng: np.random.Generator) -> SdrResult:
    """Run the relax-and-round phase optimizer from the given starting phase.

    The forms' SINRs (QuadraticFormSet.sinr_batch) give the incoming value
    and score the rounded candidates; the returned phase scores no lower
    than the incoming one, and no higher than ``feasible_value``. The
    settings are the module constants; the factor rank is
    min(n, max(4, k + 2)). ``alpha`` must be ``init.alpha``, the amplitude
    both values are scored at (ConfigurationError otherwise).
    """
    if alpha != init.alpha:
        raise ConfigurationError(f"alpha {alpha} differs from the initial phase's {init.alpha}")
    n = init.n

    # Condition the quadratic forms to O(1) so step sizes are scale-free.
    unit = max(float(forms.noise.max()),
               float((forms.powers * np.abs(forms.vectors).sum(axis=1) ** 2).max()), _TINY)
    scaled = _trusted(QuadraticFormSet, pair_vectors=forms.pair_vectors / np.sqrt(unit),
                      noise=forms.noise / unit, powers=forms.powers)
    model = _LevelModel(scaled)

    rank = min(n, max(4, forms.k + 2))
    factor = np.zeros((n, rank), dtype=complex)
    factor[:, 0] = init.phi_vec
    if rank > 1:
        # nudge off the rank-one corner of the cone; guarded by best tracking
        factor += INIT_SPREAD * alpha * (
            rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))) / np.sqrt(2.0)
    factor = _normalize_rows(factor, alpha)

    u0 = init.phi_vec
    init_value = scaled.min_sinr(u0)
    lam = init_value
    factor_best = u0[:, None].copy()
    warning = None
    iterations = 0
    any_progress = False
    inner_steps = backtracks = cold_restarts = early_stops = 0
    for iterations in range(1, OUTER_ITERS + 1):
        best = _inner_ascent(model, factor, alpha, lam)
        runs = [best]
        if (best.ratio - lam) / max(lam, _TINY) < OUTER_TOL:
            # a warm start can sit in a corner of the feasible set; retry cold
            for _ in range(RESTARTS):
                fresh = _normalize_rows(
                    (rng.standard_normal((n, rank))
                     + 1j * rng.standard_normal((n, rank))) / np.sqrt(2.0), alpha)
                cold = _inner_ascent(model, fresh, alpha, lam)
                runs.append(cold)
                if cold.ratio > best.ratio:
                    best = cold
                if (best.ratio - lam) / max(lam, _TINY) >= OUTER_TOL:
                    break
        cold_restarts += len(runs) - 1
        for run in runs:
            inner_steps += run.steps
            backtracks += run.backtracks
            early_stops += run.early_stop
        factor, ratio = best.factor, best.ratio
        any_progress = any_progress or best.improved
        if ratio > lam:
            factor_best = factor
        gain = (ratio - lam) / max(lam, _TINY)
        lam = max(lam, ratio)
        if gain < OUTER_TOL:
            break
    if not any_progress:
        warning = "inner ascent found no level improvement; keeping best feasible iterate"

    v_best = factor_best @ factor_best.conj().T
    v_best = 0.5 * (v_best + v_best.conj().T)
    eigvals, eigvecs = np.linalg.eigh(v_best)
    top_share = eigvals[-1] / max(np.clip(eigvals, 0.0, None).sum(), _TINY)
    candidates = [_unit_phases(eigvecs[:, -1] * np.sqrt(max(eigvals[-1], 0.0)))]
    if top_share < 1.0 - 1e-3:
        root = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
        draws = root @ ((rng.standard_normal((n, N_RAND))
                         + 1j * rng.standard_normal((n, N_RAND))) / np.sqrt(2.0))
        candidates.append(_unit_phases(draws.T))
    cand = np.vstack([np.atleast_2d(c) for c in candidates])
    scores = scaled.sinr_batch(alpha * cand.T).min(axis=0)
    best_idx = int(np.argmax(scores))

    # strict improvement beyond roundoff, else keep the incoming phase
    if scores[best_idx] > init_value * (1.0 + 1e-12):
        phase_out = PhaseVector.from_phi(cand[best_idx], alpha=alpha)
        value_out = float(scores[best_idx])
    else:
        phase_out, value_out = init, init_value

    return SdrResult(
        phase=phase_out,
        min_sinr=value_out,
        feasible_value=max(lam, float(scores[best_idx])),
        lifted=v_best,
        iterations=iterations,
        inner_steps=inner_steps,
        backtracks=backtracks,
        cold_restarts=cold_restarts,
        early_stops=early_stops,
        warning=warning,
    )
