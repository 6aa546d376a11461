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

At high SINR the slack cancels, so each user whose slack falls below
SLACK_FALLBACK, and only such a user, takes these quantities from its own
factorization of S_k + sigma2*I (``interference_cholesky``). Both matrices
are Hermitian positive definite and go through _cholesky_solve: LAPACK's
zpotrf and zpotrs, called with the arguments scipy.linalg's Cholesky
wrappers would pass (at these sizes their argument handling costs more
than the algebra).

Where each check runs: post_bf_sinr_values checks on every call that the
effective channels are finite (NumericError), and the factorization's info
code reports a matrix that is not positive definite (NumericError), such
as one made by a negative power. It trusts the powers and sigma2 otherwise.
optimal_beamformers checks sigma2 (core._check_sigma2) at entry.
"""

import numpy as np
from scipy.linalg import lapack

from .core import (Beamformer, ChannelRealization, PhaseVector, _check_sigma2,
                   _power_array, _trusted, effective_channel)
from .errors import NumericError

# slack 1/(1+SINR) below which Sherman-Morrison has lost too many digits:
# the subtraction costs a relative error of a few eps * SINR, so above SINR
# 1e5 a user's row comes from its own factorization
SLACK_FALLBACK = 1e-5


def _cholesky_solve(a: np.ndarray, b: np.ndarray, what: str) -> np.ndarray:
    """A^{-1} B for Hermitian positive definite A, from its lower Cholesky factor."""
    factor, info = lapack.zpotrf(a, lower=1, clean=0)
    if info != 0:
        raise NumericError(f"{what} is not positive definite")
    return lapack.zpotrs(factor, b, lower=1)[0]


def interference_cholesky(g: np.ndarray, p: np.ndarray, sigma2: float, users) -> list:
    """(S_j + sigma2*I)^{-1} G for each user j in ``users``, from its own
    factorization. S_j is summed over the other users alone: downdating A
    would cancel the digits of a high-SINR user's own term."""
    m, k = g.shape
    weighted = g * p
    eye = sigma2 * np.eye(m)
    solved = []
    for j in users:
        others = np.arange(k) != j
        s_j = weighted[:, others] @ g[:, others].conj().T + eye
        s_j = 0.5 * (s_j + s_j.conj().T)
        solved.append(_cholesky_solve(s_j, g, f"interference matrix for user {j}"))
    return solved


class _MmseState:
    """Per-user MMSE quantities at one operating point (g, p, sigma2).

    ``sinr``: (k,) SINRs under the MMSE combiners. ``couplings``: (k, k),
    entry [j, i] is g_j^H T_j g_i. ``directions``: (m, k), column k is
    T_k g_k; the power step reads only the SINRs and couplings of the points
    it factors, so the directions are divided out of the solve X = A^{-1} G
    on first read.
    """

    __slots__ = ("sinr", "couplings", "_solve", "_slack", "_directions")

    def __init__(self, sinr, couplings, solve, slack):
        self.sinr, self.couplings = sinr, couplings
        self._solve, self._slack, self._directions = solve, slack, None

    @property
    def directions(self) -> np.ndarray:
        if self._directions is None:
            self._directions = self._solve / self._slack
        return self._directions


def post_bf_sinr_values(g: np.ndarray, p: np.ndarray, sigma2: float) -> _MmseState:
    """Every user's MMSE direction, SINR and couplings from one factorization.

    ``g`` is the (m, k) matrix of effective channels. This is the one MMSE
    kernel: the combiners, the power step and the phase gradient all read
    the returned _MmseState, so a caller that needs the couplings at the
    SINRs' own operating point, as max_min_sinr_tangent does after
    mmse_max_min_power, does not factor it again. It forms G^H once and
    leaves the directions to the state's first read.
    """
    m = g.shape[0]
    if not np.isfinite(g).all():
        raise NumericError("effective channel contains non-finite entries")
    g_h = g.conj().T
    a = (g * p) @ g_h
    a.reshape(-1)[::m + 1] += sigma2
    x = _cholesky_solve(a, g, "interference-plus-noise matrix")
    gram = g_h @ x
    q = gram.diagonal().real
    signal = p * q
    slack = 1.0 - signal
    low = slack < SLACK_FALLBACK
    fallback = low.any()
    if fallback:
        slack[low] = 1.0                 # their rows are replaced below
    couplings = gram / slack[:, None]
    sinr = signal / slack
    state = _MmseState(sinr, couplings, x, slack)
    if fallback:
        directions = state.directions
        users = np.flatnonzero(low)
        for j, solved in zip(users, interference_cholesky(g, p, sigma2, users)):
            directions[:, j] = solved[:, j]
            couplings[j] = g[:, j].conj() @ solved
            sinr[j] = p[j] * couplings[j, j].real
    return state


def mmse_combiners(state: _MmseState) -> Beamformer:
    """The unit-norm MMSE combiners of the operating point that ``state``
    factors: row k is (S_k + sigma2*I)^{-1} g_k normalized. It builds every
    MMSE combiner, the ones at a tau point (power.mmse_max_min_power's
    ``mmse_state``) among them. A user with a zero effective channel has an
    exactly zero direction and gets the first standard basis vector; the
    Beamformer is built without re-scanning the norms of its rows.
    """
    rows = state.directions.T
    norms = np.linalg.norm(rows, axis=1)
    zero = norms == 0.0
    norms[zero] = 1.0
    rows = rows / norms[:, None]
    rows[zero, 0] = 1.0
    return _trusted(Beamformer, rows=rows)


def optimal_beamformers(chan: ChannelRealization, phase: PhaseVector, powers,
                        sigma2: float) -> Beamformer:
    """Per-user SINR-maximizing unit-norm receive combiners (mmse_combiners)."""
    _check_sigma2(sigma2)
    return mmse_combiners(post_bf_sinr_values(effective_channel(chan, phase),
                                              _power_array(powers), sigma2))
