"""Max-min SINR resource allocation for a RIS-aided uplink.

Library plus batch CLI covering the full alternating optimization of
receive combiners, per-user transmit powers and RIS phase shifts, with
three interchangeable phase optimizers and an exposure-capped power mode.
The names below are the public API that the README documents; everything
else is reached through its module.
"""

from .alternating import Solution, alternating_optimize
from .beamforming import optimal_beamformers
from .channel import sample_channel
from .core import (Beamformer, ChannelRealization, GainTable, PhaseVector,
                   PowerAllocation, SinrReport, SystemConfig,
                   effective_channel, sinr_per_user)
from .errors import ConfigurationError, DomainError, NumericError
from .harness import ExperimentPlan, run_experiment
from .phase import (QuantOptions, build_quadratic_forms,
                    grid_phase_from_uniform, lse_gradient_phase, phase_grid,
                    quantized_heuristic_phase, sinr_phase_tangent)
from .power import effective_power_cap, max_min_power
from .sdr import sdr_dinkelbach_phase

__version__ = "0.1.0"

__all__ = [
    "Solution", "alternating_optimize",
    "optimal_beamformers",
    "sample_channel",
    "Beamformer", "ChannelRealization", "PhaseVector", "PowerAllocation",
    "SinrReport", "SystemConfig", "effective_channel", "sinr_per_user",
    "ConfigurationError", "DomainError", "NumericError",
    "ExperimentPlan", "run_experiment",
    "QuantOptions", "build_quadratic_forms", "grid_phase_from_uniform",
    "lse_gradient_phase", "phase_grid", "quantized_heuristic_phase",
    "sinr_phase_tangent",
    "GainTable", "effective_power_cap", "max_min_power",
    "sdr_dinkelbach_phase",
    "__version__",
]
