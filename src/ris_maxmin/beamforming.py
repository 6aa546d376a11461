"""Closed-form optimal receive combiners and the SINR they induce.

For user k with effective channel g_k, interference covariance
S_k = sum_{i != k} p_i g_i g_i^H and noise sigma2*I, the SINR-optimal
combiner is T_k g_k (normalized) with T_k = (S_k + sigma2*I)^{-1}, and the
resulting SINR is p_k g_k^H T_k g_k.

Every user's matrix is a rank-one downdate of one shared matrix,
S_k + sigma2*I = A - p_k g_k g_k^H with A = sum_i p_i g_i g_i^H + sigma2*I,
so one Cholesky factorization of A and the solve X = A^{-1} G give every
per-user quantity by Sherman-Morrison. With q_k = g_k^H x_k and the slack
s_k = 1 - p_k q_k = 1 / (1 + SINR_k):

    T_k g_k = x_k / s_k,    SINR_k = p_k q_k / s_k,
    g_j^H T_j g_i = (G^H X)[j, i] / s_j.

At high SINR the slack cancels, so a user whose slack falls below
SLACK_FALLBACK takes these quantities from its own factorization of
S_k + sigma2*I, summed over the other users (``interference_cholesky``).
Both matrices are Hermitian positive definite by construction.
"""

from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from .core import (Beamformer, ChannelRealization, PhaseVector, SinrReport,
                   _power_array, effective_channel)
from .errors import ConfigurationError, NumericError

# slack 1/(1+SINR) below which Sherman-Morrison has lost too many digits:
# the subtraction costs a relative error of a few eps * SINR, so above SINR
# 1e5 a user's row comes from its own factorization
SLACK_FALLBACK = 1e-5


def interference_cholesky(g: np.ndarray, p: np.ndarray, sigma2: float) -> list:
    """Cholesky factors of S_k + sigma2*I for every user.

    Each S_k is summed over the other users alone: downdating the shared
    matrix A instead would cancel the digits of a high-SINR user's own
    term, the very case this route serves.
    """
    m, k = g.shape
    if not np.all(np.isfinite(g)):
        raise NumericError("effective channel contains non-finite entries")
    weighted = g * p
    eye = sigma2 * np.eye(m)
    factors = []
    for i in range(k):
        others = np.arange(k) != i
        s_i = weighted[:, others] @ g[:, others].conj().T + eye
        s_i = 0.5 * (s_i + s_i.conj().T)
        try:
            factors.append(sla.cho_factor(s_i, lower=True, check_finite=False))
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"interference matrix for user {i} is not positive definite") from exc
    return factors


class _MmseState(NamedTuple):
    """Per-user MMSE quantities at one operating point (g, p, sigma2).

    ``directions``: (m, k), column k is T_k g_k. ``sinr``: (k,) SINRs under
    those combiners. ``couplings``: (k, k), entry [j, i] is g_j^H T_j g_i.
    """

    directions: np.ndarray
    sinr: np.ndarray
    couplings: np.ndarray


def _mmse_state(g: np.ndarray, p: np.ndarray, sigma2: float) -> _MmseState:
    """Every user's MMSE direction, SINR and couplings from one factorization."""
    m, k = g.shape
    if not np.all(np.isfinite(g)):
        raise NumericError("effective channel contains non-finite entries")
    a = (g * p) @ g.conj().T
    a.flat[::m + 1] += sigma2
    try:
        factor = sla.cho_factor(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError("interference-plus-noise matrix is not positive definite") from exc
    x = sla.cho_solve(factor, g, check_finite=False)
    gram = g.conj().T @ x
    q = gram.diagonal().real
    slack = 1.0 - p * q
    low = slack < SLACK_FALLBACK
    slack[low] = 1.0                     # their rows are replaced below
    directions = x / slack
    couplings = gram / slack[:, None]
    sinr = p * q / slack
    if low.any():
        factors = interference_cholesky(g, p, sigma2)
        for j in np.flatnonzero(low):
            solved = sla.cho_solve(factors[j], g, check_finite=False)
            directions[:, j] = solved[:, j]
            couplings[j] = g[:, j].conj() @ solved
            sinr[j] = p[j] * couplings[j, j].real
    return _MmseState(directions, sinr, couplings)


def optimal_beamformers(chan: ChannelRealization, phase: PhaseVector, powers,
                        sigma2: float) -> Beamformer:
    """Per-user SINR-maximizing unit-norm receive combiners.

    A user with a zero effective channel gets the first standard basis
    vector; every other row is (S_k + sigma2*I)^{-1} g_k normalized.
    """
    if sigma2 <= 0:
        raise ConfigurationError(f"sigma2 must be positive, got {sigma2}")
    p = _power_array(powers)
    g = effective_channel(chan, phase)
    rows = _mmse_state(g, p, sigma2).directions.T
    norms = np.linalg.norm(rows, axis=1)
    zero = np.linalg.norm(g, axis=0) == 0.0
    rows[zero, 0] = 1.0
    norms[zero] = 1.0
    return Beamformer(rows=rows / norms[:, None])


def post_bf_sinr_values(g: np.ndarray, p: np.ndarray, sigma2: float) -> np.ndarray:
    """SINRs under the optimal combiner, straight from the effective channels."""
    return _mmse_state(g, p, sigma2).sinr


def post_bf_sinr(chan: ChannelRealization, phase: PhaseVector, powers,
                 sigma2: float) -> SinrReport:
    """SINR of every user assuming each applies its optimal receive combiner."""
    if sigma2 <= 0:
        raise ConfigurationError(f"sigma2 must be positive, got {sigma2}")
    p = _power_array(powers)
    g = effective_channel(chan, phase)
    return SinrReport.from_per_user(post_bf_sinr_values(g, p, sigma2))
