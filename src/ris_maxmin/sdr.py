"""Phase design by semidefinite relaxation with a Dinkelbach outer loop.

The max-min fractional program over the lifted matrix V = u u^H (u the
scaled phase vector) is relaxed by dropping the rank constraint, keeping
diag(V) = alpha^2 and V >= 0. For the current level lam the inner problem

    maximize  min_k ( <C_k(lam), V> - lam*noise_k ),
    C_k(lam) = p_k R_kk - lam * sum_{i != k} p_i R_ki,

is climbed in the factorization V = L L^H with alpha-norm rows, which makes
both constraints hold exactly by construction: a smoothed-min gradient
ascent over the product of row spheres with backtracking line search. The
level is then updated to the smallest SINR ratio at the best iterate and
the loop repeats until it stops improving. A rank-one solution is read off
the top eigenvector when V is essentially rank one and by Gaussian
randomization otherwise; the returned phase never scores below the
incoming one.
"""

from dataclasses import dataclass

import numpy as np

from .core import PhaseVector
from .errors import ConfigurationError
from .phase import QuadraticFormSet

_TINY = 1e-300


@dataclass(frozen=True, eq=False)
class LiftedMatrix:
    """Hermitian PSD matrix with constant diagonal, the relaxation variable."""

    v: np.ndarray
    alpha: float

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex)
        scale = max(self.alpha ** 2, np.abs(v).max() if v.size else 0.0)
        if np.abs(v - v.conj().T).max() > 1e-10 * max(scale, 1.0):
            raise ConfigurationError("lifted matrix is not Hermitian")
        eigs = np.linalg.eigvalsh(v)
        if eigs.min() < -1e-8 * max(scale, 1.0):
            raise ConfigurationError(f"lifted matrix has eigenvalue {eigs.min():.3e}")
        if np.abs(np.diagonal(v).real - self.alpha ** 2).max() > 1e-8 * max(scale, 1.0):
            raise ConfigurationError("lifted matrix diagonal deviates from alpha^2")
        object.__setattr__(self, "v", v)


OUTER_ITERS = 30        # Dinkelbach level updates
OUTER_TOL = 1e-4        # relative level gain below which the loop stops
RESTARTS = 3            # cold inner ascents tried when a level update stalls
INNER_ITERS = 300       # inner ascent steps per level
STEP_INIT = 0.5         # inner step: starts here, halves on rejection,
STEP_GROW = 1.6         # grows by STEP_GROW on acceptance,
STEP_MAX = 10.0         # up to STEP_MAX
INIT_SPREAD = 0.05      # nudge of the warm start off the rank-one corner


@dataclass(frozen=True)
class SdrOptions:
    """Settings of sdr_dinkelbach_phase that callers choose.

    ``n_rand`` is the number of Gaussian randomization draws when the best
    lifted matrix is not rank one. The fixed settings are the module
    constants OUTER_ITERS, OUTER_TOL, RESTARTS, INNER_ITERS, STEP_INIT,
    STEP_GROW, STEP_MAX and INIT_SPREAD; the factor rank is
    min(n, max(4, k + 2)).
    """

    n_rand: int = 200


@dataclass
class SdrResult:
    phase: PhaseVector
    min_sinr: float
    relaxed_value: float
    lifted: LiftedMatrix
    iterations: int
    warning: str | None = None


class _LevelModel:
    """Levels and SINR ratios of the factorized lifted matrix at one lam."""

    def __init__(self, forms: QuadraticFormSet, lam: float):
        k, n = forms.k, forms.n
        self.k = k
        self.pair_flat = forms.pair_vectors.reshape(k * k, n)
        self.pair_conj = self.pair_flat.conj()
        self.powers = forms.powers
        self.noise = forms.noise
        coef = np.tile(-lam * forms.powers, (k, 1))
        np.fill_diagonal(coef, forms.powers)
        self.coef = coef
        self.offsets = lam * forms.noise

    def stats(self, factor: np.ndarray):
        """Projections T = b_ki^H L, pair gains, levels, and SINR ratios."""
        k = self.k
        t = self.pair_conj @ factor
        gains = (np.abs(t) ** 2).sum(axis=1).reshape(k, k)
        levels = (self.coef * gains).sum(axis=1) - self.offsets
        signal = self.powers * np.diagonal(gains)
        ratios = signal / (gains @ self.powers - signal + self.noise)
        return t, levels, ratios

    def smoothed_gradient(self, factor, t, levels, mu):
        """Wirtinger gradient of the softmin of the levels w.r.t. conj(L)."""
        weights = np.exp(-(levels - levels.min()) / mu)
        weights /= weights.sum()
        folded = (weights[:, None] * self.coef).reshape(-1)
        return self.pair_flat.T @ (folded[:, None] * t)


def _normalize_rows(factor: np.ndarray, alpha: float) -> np.ndarray:
    norms = np.linalg.norm(factor, axis=1, keepdims=True)
    dead = norms[:, 0] <= 0.0
    if np.any(dead):
        factor = factor.copy()
        factor[dead, 0] = 1.0
        norms = np.linalg.norm(factor, axis=1, keepdims=True)
    return factor * (alpha / norms)


def _softmin(levels: np.ndarray, mu: float) -> float:
    low = levels.min()
    return float(low - mu * np.log(np.sum(np.exp(-(levels - low) / mu))))


def _inner_ascent(model: _LevelModel, factor: np.ndarray, alpha: float):
    """Smoothed-min gradient ascent over the product of row spheres.

    Returns the iterate with the best certified SINR ratio (the Dinkelbach
    update quantity), the ratio itself, and whether the run improved the
    starting level.
    """
    alpha2 = alpha ** 2
    t, levels, ratios = model.stats(factor)
    level_start = float(levels.min())
    best_ratio, best_factor = float(ratios.min()), factor
    step = STEP_INIT
    improved = False
    for _ in range(INNER_ITERS):
        spread = max(levels.max() - levels.min(), 1e-12)
        mu = max(0.1 * spread, 1e-9)
        grad = model.smoothed_gradient(factor, t, levels, mu)
        radial = np.real(np.sum(grad * factor.conj(), axis=1)) / alpha2
        grad = grad - radial[:, None] * factor
        norm = np.linalg.norm(grad)
        if norm < 1e-14:
            break
        grad /= norm
        current = _softmin(levels, mu)
        accepted = False
        for _ in range(30):
            candidate = _normalize_rows(factor + step * grad, alpha)
            t_new, levels_new, ratios_new = model.stats(candidate)
            if _softmin(levels_new, mu) > current + 1e-14:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            break
        factor, t, levels, ratios = candidate, t_new, levels_new, ratios_new
        step = min(step * STEP_GROW, STEP_MAX)
        if float(ratios.min()) > best_ratio:
            best_ratio, best_factor = float(ratios.min()), factor
            improved = True
    improved = improved or levels.min() > level_start + 1e-12 * max(abs(level_start), 1.0)
    return best_factor, best_ratio, improved


def _unit_phases(z: np.ndarray) -> np.ndarray:
    mags = np.abs(z)
    return np.where(mags > 0, z / np.where(mags > 0, mags, 1.0), 1.0)


def sdr_dinkelbach_phase(forms: QuadraticFormSet, alpha: float, init: PhaseVector,
                         rng: np.random.Generator, options: SdrOptions | None = None) -> SdrResult:
    """Run the relax-and-round phase optimizer from the given starting phase.

    ``relaxed_value`` is the best certified value of the relaxation seen
    during the run (every lifted iterate and every rounded candidate is a
    feasible point of the relaxed problem), so the returned phase's minimum
    SINR never exceeds it.
    """
    opts = options or SdrOptions()
    n = init.n

    # Condition the quadratic forms to O(1) so step sizes are scale-free.
    unit = max(float(forms.noise.max()),
               float((forms.powers * np.abs(forms.vectors).sum(axis=1) ** 2).max()), _TINY)
    scaled = QuadraticFormSet(pair_vectors=forms.pair_vectors / np.sqrt(unit),
                              noise=forms.noise / unit, powers=forms.powers)

    rank = min(n, max(4, forms.k + 2))
    factor = np.zeros((n, rank), dtype=complex)
    factor[:, 0] = init.phi_vec
    if rank > 1:
        # nudge off the rank-one corner of the cone; guarded by best tracking
        factor += INIT_SPREAD * alpha * (
            rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))) / np.sqrt(2.0)
    factor = _normalize_rows(factor, alpha)

    u0 = init.phi_vec
    init_value = float(scaled.sinr(u0).min())
    lam = init_value
    lam_best = lam
    factor_best = u0[:, None].copy()
    warning = None
    iterations = 0
    any_progress = False
    for iterations in range(1, OUTER_ITERS + 1):
        model = _LevelModel(scaled, lam)
        factor, ratio, improved = _inner_ascent(model, factor, alpha)
        if (ratio - lam) / max(lam, _TINY) < OUTER_TOL:
            # a warm start can sit in a corner of the feasible set; retry cold
            for _ in range(RESTARTS):
                fresh = _normalize_rows(
                    (rng.standard_normal((n, rank))
                     + 1j * rng.standard_normal((n, rank))) / np.sqrt(2.0), alpha)
                cold_factor, cold_ratio, cold_improved = _inner_ascent(model, fresh, alpha)
                if cold_ratio > ratio:
                    factor, ratio, improved = cold_factor, cold_ratio, cold_improved
                if (ratio - lam) / max(lam, _TINY) >= OUTER_TOL:
                    break
        any_progress = any_progress or improved
        if ratio > lam_best:
            lam_best, factor_best = ratio, factor
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
        draws = root @ ((rng.standard_normal((n, opts.n_rand))
                         + 1j * rng.standard_normal((n, opts.n_rand))) / np.sqrt(2.0))
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
        relaxed_value=max(lam_best, float(scores[best_idx]), init_value),
        lifted=LiftedMatrix(v=v_best, alpha=alpha),
        iterations=iterations,
        warning=warning,
    )
