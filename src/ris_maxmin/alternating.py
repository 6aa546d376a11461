"""Outer alternating loop: combiners, then powers, then RIS phases.

Each sweep runs the three block updates in that order. Every stage is
guarded: an update is kept only if the minimum SINR of the current operating
point does not decrease, so the recorded stage trace is nondecreasing by
construction. Every operating point is scored once, by GainTable.sinr on
its own gain table: the loop keeps the table of the current phases and
combiners, and the power step solves on it and reports the minimum its
powers reach there. The phase step of every method returns one proposal
(phases, powers, combiners) that one guard judges.

The smooth-min phase step ("lse") does not hold the powers fixed. With the
powers frozen, power control leaves every SINR equal, and at such a tie no
phase move raises the minimum; the loop would stall at a point that is not
stationary for the joint problem. So the step maximizes tau(theta), the
max-min SINR that power control reaches under the caps with MMSE
combiners, and proposes the new phases together with those powers and
combiners. The other phase methods optimize the fixed-combiner,
fixed-power objective directly and propose new phases alone.

"random-baseline" runs no sweeps. At its random phases tau(theta) is the
joint optimum over combiners and powers, so one mmse_max_min_power call
gives it; the MMSE combiners at those powers are scored through the same
gain table and guard as one combiner stage and one power stage.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .beamforming import mmse_combiners, optimal_beamformers, post_bf_sinr_values
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
        # the new phase together with the powers and combiners that realize it
        bf = optimal_beamformers(chan, out.phase, out.power, sigma2)
        return out.phase, out.power, bf, warning
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


def _solution(chan, sigma2, method, phase, power, bf, trace, sweeps, converged, p_cap,
              diagnostics, started) -> Solution:
    """The run's Solution, reporting every user's SINR at its final point."""
    per_user = sinr_per_user(chan, phase, power, bf, sigma2).per_user
    report = SinrReport(per_user=per_user, stage_trace=trace)
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


def _tau_baseline(config, chan, phase, p_cap, started) -> Solution:
    """random-baseline at its phases: tau's powers from the caps and the MMSE
    combiners at those powers (read from tau's own factorization), traced as
    one combiner and one power stage.

    The combiner stage scores the new combiners at the caps; the guarded
    power stage keeps tau's powers, scored on the same gain table. The run
    has converged when the reported SINRs are balanced to STALL_SPREAD (or
    the point is degenerate)."""
    sigma2 = config.sigma2
    g = effective_channel(chan, phase)
    result = mmse_max_min_power(g, p_cap, sigma2)
    state = result.mmse_state
    if state is None:   # degenerate: the caps are returned unfactored
        state = post_bf_sinr_values(g, result.power.p, sigma2)
    bf = mmse_combiners(g, state)
    table = gain_table(chan, phase, bf, sigma2)
    power = PowerAllocation(p_cap.copy())
    current = _scored(table, power, "bf")
    trace = [("bf", current)]
    diagnostics = []
    if result.degenerate:
        diagnostics.append("sweep 1: degenerate gain table in the power step")
    candidate = _scored(table, result.power, "power")
    if candidate >= current:
        power, current = result.power, candidate
    trace.append(("power", current))
    # current is the minimum of the kept powers' SINRs on this table
    balanced = current == 0.0 or table.sinr(power.p).max() / current - 1.0 <= STALL_SPREAD
    return _solution(chan, sigma2, "random-baseline", phase, power, bf, trace, 1, balanced,
                     p_cap, diagnostics, started)


def alternating_optimize(config: SystemConfig, chan: ChannelRealization, method: str,
                         rng: np.random.Generator, tol: float = SWEEP_TOL,
                         max_sweeps: int = MAX_SWEEPS,
                         phase_options=None) -> Solution:
    """Maximize the minimum uplink SINR by block-coordinate sweeps.

    ``method`` selects the phase optimizer ("sdr", "lse", "quant") or
    "random-baseline", which keeps the initial random phases and reports the
    exact combiner-and-power optimum there: one mmse_max_min_power solve from
    the caps and the MMSE combiners at its powers, as one sweep (it validates
    ``tol`` and ``max_sweeps`` but needs neither). The loop stops when the
    relative improvement of the minimum SINR over one sweep drops below
    ``tol`` or after ``max_sweeps`` sweeps. Powers start at the
    exposure-folded cap so the first combiner update sees realistic
    interference.
    ``phase_options`` (QuantOptions) sets the bit depth of "quant"; the
    other methods have no settings.
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
    if method == "random-baseline":
        return _tau_baseline(config, chan, phase, p_cap, started)

    diagnostics: list[str] = []
    # the first combiner stage is always kept, so no operating point is scored
    # before it; table is the gain table of the current (phase, bf)
    power = PowerAllocation(p_cap.copy())
    bf = table = None
    current = -np.inf
    trace: list[tuple[str, float]] = []
    converged = False
    sweeps = 0
    previous = None
    for sweeps in range(1, max_sweeps + 1):
        # combiner step: per-user optimal, so the minimum cannot drop
        bf_new = optimal_beamformers(chan, phase, power, sigma2)
        table_new = gain_table(chan, phase, bf_new, sigma2)
        candidate = _scored(table_new, power, "bf")
        if candidate >= current:
            bf, table, current = bf_new, table_new, candidate
        trace.append(("bf", current))

        # power step: the previous powers stay feasible, so the optimum is no worse
        result = max_min_power(table, p_cap)
        if result.degenerate:
            diagnostics.append(f"sweep {sweeps}: degenerate gain table in the power step")
        if result.tau >= current:
            power, current = result.power, result.tau
        trace.append(("power", current))

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

    return _solution(chan, sigma2, method, phase, power, bf, trace, sweeps, converged, p_cap,
                     diagnostics, started)
