import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ris_maxmin
from ris_maxmin import Beamformer, ChannelRealization, PhaseVector


def run_fresh(script, *args):
    """The standard output of ``script``, run with ``args`` in a fresh
    interpreter that imports this checkout's ris_maxmin."""
    src = str(Path(ris_maxmin.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True,
                          env=env, check=True).stdout


def complex_normal(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def synth_channel(rng, m, n, k, identity_corr=True):
    """O(1)-scale random channel for oracle tests (no physical path loss)."""
    if identity_corr:
        corr_sqrt = np.eye(n, dtype=complex)
    else:
        b = complex_normal(rng, (n, n))
        corr = b @ b.conj().T + n * np.eye(n)
        lam, vec = np.linalg.eigh(corr)
        corr_sqrt = (vec * np.sqrt(lam / lam.max())) @ vec.conj().T
    return ChannelRealization(
        h1=complex_normal(rng, (m, n)),
        ris_corr_sqrt=corr_sqrt,
        h2=complex_normal(rng, (k, n)),
        user_positions=rng.uniform(10.0, 70.0, (k, 2)),
    )


def random_phase(rng, n, alpha=1.0):
    return PhaseVector.random(n, alpha, rng)


def random_beamformer(rng, k, m):
    rows = complex_normal(rng, (k, m))
    return Beamformer(rows=rows / np.linalg.norm(rows, axis=1, keepdims=True))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
