"""Outer alternating loop: combiners, then powers, then RIS phases.

Each sweep runs the three block updates in that order. Every stage is
guarded: an update is kept only if the minimum SINR of the current operating
point does not decrease, so the recorded stage trace is nondecreasing by
construction.

The smooth-min phase step ("lse") does not hold the powers fixed. With the
powers frozen, power control leaves every SINR equal, and at such a tie no
phase move raises the minimum; the loop would stall at a point that is not
stationary for the joint problem. So the step maximizes tau(theta), the
max-min SINR that power control reaches under the caps with MMSE
combiners, and commits the new phases together with those powers and
combiners. The other phase methods optimize the fixed-combiner,
fixed-power objective directly.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .beamforming import optimal_beamformers
from .core import (Beamformer, ChannelRealization, PhaseVector,
                   PowerAllocation, SinrReport, SystemConfig, sinr_per_user)
from .errors import ConfigurationError
from .phase import (LseOptions, QuantOptions, build_quadratic_forms,
                    grid_phase_from_uniform, lse_max_min_phase,
                    quantized_heuristic_phase)
from .power import effective_power_cap, gain_table, max_min_power
from .sdr import SdrOptions, sdr_dinkelbach_phase

METHODS = ("sdr", "lse", "quant", "random-baseline")


@dataclass
class Solution:
    """Result of one alternating-optimization run."""

    bf: Beamformer
    power: PowerAllocation
    phase: PhaseVector
    report: SinrReport
    iterations: int
    wall_time: float
    method: str
    converged: bool
    degenerate: bool
    p_cap: np.ndarray
    diagnostics: list = field(default_factory=list)


def _min_sinr(chan, phase, power, bf, sigma2) -> float:
    return float(sinr_per_user(chan, phase, power, bf, sigma2).minimum)


def alternating_optimize(config: SystemConfig, chan: ChannelRealization, method: str,
                         rng: np.random.Generator, tol: float = 1e-4, max_sweeps: int = 30,
                         phase_options=None) -> Solution:
    """Maximize the minimum uplink SINR by block-coordinate sweeps.

    ``method`` selects the phase optimizer ("sdr", "lse", "quant") or
    "random-baseline", which keeps the initial random phases and only runs
    the combiner and power steps. The loop stops when the relative
    improvement of the minimum SINR over one sweep drops below ``tol`` or
    after ``max_sweeps`` sweeps. Powers start at the exposure-folded cap so
    the first combiner update sees realistic interference.
    """
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}, expected one of {METHODS}")
    started = time.perf_counter()
    sigma2 = config.sigma2
    p_cap = effective_power_cap(config.p_max, config.sar_ref, config.emf_max)
    diagnostics: list[str] = []

    if method == "quant":
        opts = phase_options or QuantOptions()
        phase = grid_phase_from_uniform(rng.random(config.n), opts.bits, config.alpha)
    else:
        phase = PhaseVector.random(config.n, config.alpha, rng)
        if method == "sdr":
            opts = phase_options or SdrOptions()
        elif method == "lse":
            opts = phase_options or LseOptions()
        else:
            opts = None

    power = PowerAllocation(p_cap.copy())
    bf = optimal_beamformers(chan, phase, power, sigma2)
    current = _min_sinr(chan, phase, power, bf, sigma2)

    trace: list[tuple[str, float]] = []
    converged = False
    sweeps = 0
    previous = None
    for sweeps in range(1, max_sweeps + 1):
        # combiner step: per-user optimal, so the minimum cannot drop
        bf_new = optimal_beamformers(chan, phase, power, sigma2)
        candidate = _min_sinr(chan, phase, power, bf_new, sigma2)
        if candidate >= current:
            bf, current = bf_new, candidate
        trace.append(("bf", current))

        # power step: the previous powers stay feasible, so the optimum is no worse
        result = max_min_power(gain_table(chan, phase, bf, sigma2), p_cap)
        if result.degenerate:
            diagnostics.append(f"sweep {sweeps}: degenerate gain table in the power step")
        candidate = _min_sinr(chan, phase, result.power, bf, sigma2)
        if candidate >= current:
            power, current = result.power, candidate
        trace.append(("power", current))

        # phase step, guarded against any decrease of the minimum
        if method == "sdr":
            forms = build_quadratic_forms(chan, bf, power, sigma2)
            out = sdr_dinkelbach_phase(forms, config.alpha, phase, rng, opts)
            if out.warning:
                diagnostics.append(f"sweep {sweeps}: {out.warning}")
            candidate = _min_sinr(chan, out.phase, power, bf, sigma2)
            if candidate >= current:
                phase, current = out.phase, candidate
        elif method == "quant":
            forms = build_quadratic_forms(chan, bf, power, sigma2)
            objective = lambda phi: forms.min_sinr(config.alpha * phi)  # noqa: E731
            out = quantized_heuristic_phase(objective, phase, rng, opts)
            if out.warning:
                diagnostics.append(f"sweep {sweeps}: {out.warning}")
            candidate = _min_sinr(chan, out.phase, power, bf, sigma2)
            if candidate >= current:
                phase, current = out.phase, candidate
        elif method == "lse":
            out = lse_max_min_phase(chan, phase, p_cap, sigma2, opts)
            if out.warning:
                diagnostics.append(f"sweep {sweeps}: {out.warning}")
            elif not out.converged:
                diagnostics.append(f"sweep {sweeps}: lse phase step stopped unconverged "
                                   f"after {out.iterations} iterations")
            # the step is judged on the SINR after power control, so commit the
            # new phase together with the powers and combiners that realize it
            bf_new = optimal_beamformers(chan, out.phase, out.power, sigma2)
            candidate = _min_sinr(chan, out.phase, out.power, bf_new, sigma2)
            if candidate >= current:
                phase, power, bf, current = out.phase, out.power, bf_new, candidate
        if method != "random-baseline":
            trace.append(("phase", current))

        if previous is not None and current - previous <= tol * max(previous, 1e-300):
            converged = True
            break
        previous = current

    per_user = sinr_per_user(chan, phase, power, bf, sigma2)
    report = SinrReport(per_user=per_user.per_user, minimum=per_user.minimum,
                        stage_trace=tuple(trace))
    return Solution(
        bf=bf,
        power=power,
        phase=phase,
        report=report,
        iterations=sweeps,
        wall_time=time.perf_counter() - started,
        method=method,
        converged=converged,
        degenerate=bool(report.minimum == 0.0),
        p_cap=p_cap,
        diagnostics=diagnostics,
    )
