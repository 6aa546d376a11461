"""Outer alternating loop: combiners, then powers, then RIS phases.

Each sweep runs the three block updates in that order. Every stage is
guarded: an update is kept only if the minimum SINR of the current operating
point does not decrease, so the recorded stage trace is nondecreasing by
construction. Every operating point is scored once, by GainTable.sinr on
its own gain table: the loop keeps the table of the current phases and
combiners, and the power stage is scored there. The phase step of every
method returns one proposal (phases, powers, combiners) that one guard
judges.

At fixed phases the MMSE combiners and max-min power control have one joint
optimum, tau(theta): a tau point, one mmse_max_min_power result carrying
its powers, tau and factorization, from which mmse_combiners reads its
combiners. "lse" and "random-baseline" sweep on that joint stage; the
latter keeps its random phases and stops there. The "lse" phase step does
not hold the powers fixed either: with frozen powers every SINR ties after
power control and no phase move raises the minimum, so it maximizes
tau(theta) and proposes the tau point it returns. "sdr" and "quant"
optimize the fixed-combiner, fixed-power objective: their sweeps take the
per-user optimal combiners at the current powers (optimal_beamformers),
the Perron power step (max_min_power) on that gain table, and a phase step
that proposes new phases alone.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .beamforming import mmse_combiners, optimal_beamformers
from .core import (Beamformer, ChannelRealization, PhaseVector, PowerAllocation,
                   SinrReport, SystemConfig, _check_count, effective_channel, gain_table,
                   sinr_per_user)
from .errors import ConfigurationError, NumericError
from .phase import (QuantOptions, build_quadratic_forms,
                    grid_phase_from_uniform, lse_max_min_phase,
                    quantized_heuristic_phase)
from .power import STALL_SPREAD, effective_power_cap, max_min_power, mmse_max_min_power
from .sdr import sdr_dinkelbach_phase

METHODS = ("sdr", "lse", "quant", "random-baseline")
SWEEP_TOL = 1e-4        # default relative improvement per sweep that stops the loop
MAX_SWEEPS = 30         # default sweep cap


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


def _phase_proposal(method, config, chan, phase, power, bf, p_cap, rng, phase_options):
    """One phase step from the operating point (phase, power, bf): the
    proposed (phase, power, combiners) and a warning or None."""
    sigma2 = config.sigma2
    if method == "lse":
        out = lse_max_min_phase(chan, phase, p_cap, sigma2)
        warning = out.warning
        if warning is None and not out.converged:
            warning = f"lse phase step stopped unconverged after {out.iterations} iterations"
        # the step is judged on the SINR after power control, so it proposes
        # the new phase with its tau point's powers and combiners
        tau_point = out.power_control
        return out.phase, tau_point.power, mmse_combiners(tau_point.mmse_state), warning
    forms = build_quadratic_forms(chan, bf, power, sigma2)
    if method == "sdr":
        out = sdr_dinkelbach_phase(forms, config.alpha, phase, rng)
    else:
        objective = lambda phi: forms.min_sinr(config.alpha * phi)  # noqa: E731
        out = quantized_heuristic_phase(objective, phase, rng, phase_options)
    return out.phase, power, bf, out.warning


def _check_sweep_settings(tol, max_sweeps, phase_options=None) -> None:
    """ConfigurationError unless ``max_sweeps`` is a whole number >= 1,
    ``tol`` >= 0 (nan fails) and ``phase_options`` is None or a QuantOptions."""
    _check_count("max_sweeps", max_sweeps)
    if not tol >= 0.0:
        raise ConfigurationError(f"tol must be >= 0, got {tol}")
    if not (phase_options is None or isinstance(phase_options, QuantOptions)):
        raise ConfigurationError(f"phase_options must be None or a QuantOptions, got {phase_options!r}")


def _scored(table, power: PowerAllocation, stage: str) -> float:
    """The minimum SINR of an operating point; a nan minimum is a solver fault."""
    value = float(table.sinr(power.p).min())
    if math.isnan(value):
        raise NumericError(f"the {stage} stage scored a nan minimum SINR")
    return value


def alternating_optimize(config: SystemConfig, chan: ChannelRealization, method: str,
                         rng: np.random.Generator, tol: float = SWEEP_TOL,
                         max_sweeps: int = MAX_SWEEPS,
                         phase_options=None) -> Solution:
    """Maximize the minimum uplink SINR by block-coordinate sweeps.

    ``method`` selects the phase optimizer ("sdr", "lse", "quant") or
    "random-baseline", which keeps the initial random phases and runs the
    joint combiner-and-power stage once, from the caps: it reports tau
    there, converged when its SINRs are balanced to STALL_SPREAD (it
    validates ``tol`` and ``max_sweeps`` but needs neither). The loop stops
    when the relative improvement of the minimum SINR over one sweep drops
    below ``tol`` or after ``max_sweeps`` sweeps. Powers start at the
    exposure-folded cap so the first combiner update sees realistic
    interference; each joint stage starts tau's solve from the current
    powers. ``phase_options`` (QuantOptions) sets the bit depth of "quant";
    the other methods have no settings.
    """
    if method not in METHODS:
        raise ConfigurationError(f"unknown method {method!r}, expected one of {METHODS}")
    _check_sweep_settings(tol, max_sweeps, phase_options)
    started = time.perf_counter()
    sigma2 = config.sigma2
    p_cap = effective_power_cap(config.p_max, config.sar_ref, config.emf_max)

    if method == "quant":
        bits = (phase_options or QuantOptions()).bits
        phase = grid_phase_from_uniform(rng.random(config.n), bits, config.alpha)
    else:
        phase = PhaseVector.random(config.n, config.alpha, rng)
    joint = method in ("lse", "random-baseline")

    diagnostics: list[str] = []
    # the first combiner stage is always kept, so no operating point is scored
    # before it; table is the gain table of the current (phase, bf)
    power = PowerAllocation(p_cap.copy())
    bf = table = None
    current = -np.inf
    trace: list[tuple[str, float]] = []
    converged = False
    previous = None
    for sweeps in range(1, max_sweeps + 1):
        # combiner step: the MMSE combiners at tau's powers (joint stage) or
        # at the current powers, per-user optimal either way
        if joint:
            result = mmse_max_min_power(effective_channel(chan, phase), p_cap, sigma2,
                                        start=power.p)
            bf_new = mmse_combiners(result.mmse_state)
        else:
            bf_new = optimal_beamformers(chan, phase, power, sigma2)
        table_new = gain_table(chan, phase, bf_new, sigma2)
        candidate = _scored(table_new, power, "bf")
        if candidate >= current:
            bf, table, current = bf_new, table_new, candidate
        trace.append(("bf", current))

        # power step, scored on the kept table: tau's powers or the Perron optimum there
        if not joint:
            result = max_min_power(table, p_cap)
        if result.degenerate:
            diagnostics.append(f"sweep {sweeps}: degenerate gain table in the power step")
        candidate = _scored(table, result.power, "power")
        if candidate >= current:
            power, current = result.power, candidate
        trace.append(("power", current))
        if method == "random-baseline":
            # current is the minimum of the kept powers' SINRs on this table
            converged = current == 0.0 or table.sinr(power.p).max() / current - 1.0 <= STALL_SPREAD
            break

        # phase step, guarded against any decrease of the minimum
        phase_new, power_new, bf_new, warning = _phase_proposal(
            method, config, chan, phase, power, bf, p_cap, rng, phase_options)
        if warning:
            diagnostics.append(f"sweep {sweeps}: {warning}")
        table_new = gain_table(chan, phase_new, bf_new, sigma2)
        candidate = _scored(table_new, power_new, "phase")
        if candidate >= current:
            phase, power, bf, table = phase_new, power_new, bf_new, table_new
            current = candidate
        trace.append(("phase", current))

        if previous is not None and current - previous <= tol * max(previous, 1e-300):
            converged = True
            break
        previous = current

    report = SinrReport(per_user=sinr_per_user(chan, phase, power, bf, sigma2).per_user,
                        stage_trace=trace)
    return Solution(bf=bf, power=power, phase=phase, report=report, iterations=sweeps,
                    wall_time=time.perf_counter() - started, method=method, converged=converged,
                    degenerate=bool(report.minimum == 0.0), p_cap=p_cap, diagnostics=diagnostics)
