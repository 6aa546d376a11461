"""Quality ratchet: every method's final minimum SINR on a fixed draw set stays
at or above the committed floors in quality_floors.json, within the path
noise that a one-ulp move of the starting phase shows (recorded there).

A change that moves bits passes when it keeps quality; a change that raises
quality may raise the floors. The file says how the draws are made.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ris_maxmin import QuantOptions, SystemConfig, alternating_optimize, sample_channel

FLOORS = json.loads((Path(__file__).parent / "quality_floors.json").read_text(encoding="utf-8"))
DRAWS = 8
RUNS = {
    "lse": ("lse", None, {}),
    "sdr": ("sdr", None, {"max_sweeps": 2}),     # as the headline-sdr bench workload runs it
    "quant B=1": ("quant", QuantOptions(bits=1), {}),
    "quant B=2": ("quant", QuantOptions(bits=2), {}),
    "quant B=3": ("quant", QuantOptions(bits=3), {}),
    "random-baseline": ("random-baseline", None, {}),
}


def final_minima(k: int, run: str) -> np.ndarray:
    """The final minimum SINR of ``run`` on each of the draw set's draws at ``k``."""
    method, options, settings = RUNS[run]
    config = SystemConfig(m=12, n=24, k=k)
    return np.array([
        alternating_optimize(config, sample_channel(config, np.random.default_rng((1, s))), method,
                             np.random.default_rng((2, s)), phase_options=options,
                             **settings).report.minimum
        for s in range(DRAWS)])


@pytest.mark.parametrize("run", sorted(RUNS))
@pytest.mark.parametrize("k", [2, 6])
def test_quality_at_or_above_the_committed_floor(k, run):
    entry = FLOORS["floors"][str(k)][run]
    values = final_minima(k, run)
    committed = np.array(entry["draws"])
    assert values.mean() >= entry["floor"] * (1.0 - FLOORS["delta_mean"]), values.tolist()
    low = values < committed * (1.0 - FLOORS["delta_draw"])
    assert not low.any(), f"draws {np.flatnonzero(low).tolist()} fell below their floor: {values.tolist()}"
