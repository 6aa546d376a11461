"""Test-side references: finite differences, lifted forms and the post-combining report.

None of these is part of the library. Each is built from the library's
primitives in the most direct way, so a test can hold the optimized
routes against them.
"""

import numpy as np

from ris_maxmin.beamforming import post_bf_sinr_values
from ris_maxmin.core import SinrReport, _power_array, effective_channel


def post_bf_sinr(chan, phase, powers, sigma2) -> SinrReport:
    """SINR of every user assuming each applies its optimal receive combiner."""
    g = effective_channel(chan, phase)
    return SinrReport.from_per_user(post_bf_sinr_values(g, _power_array(powers), sigma2).sinr)


def finite_difference_tangent(chan, powers, phase, sigma2, step=1e-6) -> np.ndarray:
    """Central finite differences of the post-combining SINRs over each angle."""
    p = _power_array(powers)
    cascade = chan.cascade_matrix()

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
