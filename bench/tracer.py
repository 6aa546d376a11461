"""Outside-in tracing of the library's layers.

The tracer replaces public functions at the names their callers look them
up by (``ris_maxmin.phase.mmse_max_min_power``, not only
``ris_maxmin.power.mmse_max_min_power``), so nothing under ``src/`` is
edited. Every wrapped call records one span: name, start, end and the span
that was open when it began. ``scipy.linalg.cho_factor`` is only counted.
Spans stay in memory until the run ends. A span's self time is its duration
less the time its child spans cover.
"""

import gzip
import json
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

import ris_maxmin.alternating as alternating
import ris_maxmin.beamforming as beamforming
import ris_maxmin.channel as channel
import ris_maxmin.harness as harness
import ris_maxmin.phase as phase
import ris_maxmin.power as power

# (module, attribute, span name): every lookup name of every traced function
SPANS = (
    (alternating, "alternating_optimize", "alternating.alternating_optimize"),
    (harness, "alternating_optimize", "alternating.alternating_optimize"),
    (harness, "run_experiment", "harness.run_experiment"),
    (harness, "sample_channel", "channel.sample_channel"),
    (channel, "sample_channel", "channel.sample_channel"),
    (alternating, "optimal_beamformers", "beamforming.optimal_beamformers"),
    (alternating, "sinr_per_user", "core.sinr_per_user"),
    (alternating, "max_min_power", "power.max_min_power"),
    (alternating, "build_quadratic_forms", "phase.build_quadratic_forms"),
    (alternating, "lse_max_min_phase", "phase.lse_max_min_phase"),
    (alternating, "quantized_heuristic_phase", "phase.quantized_heuristic_phase"),
    (alternating, "sdr_dinkelbach_phase", "sdr.sdr_dinkelbach_phase"),
    (phase, "max_min_sinr_tangent", "phase.max_min_sinr_tangent"),
    (phase, "mmse_max_min_power", "power.mmse_max_min_power"),
    (phase, "post_bf_sinr_values", "beamforming.post_bf_sinr_values"),
    (power, "post_bf_sinr_values", "beamforming.post_bf_sinr_values"),
    (beamforming, "interference_cholesky", "beamforming.interference_cholesky"),
)

# per-layer metric -> unit, in the order BENCHMARK.json lists them
LAYER_UNITS = {
    "beamforming.post_bf_sinr_values.calls": "calls/draw",
    "beamforming.post_bf_sinr_values.self_s": "s/draw",
    "beamforming.interference_cholesky.self_s": "s/draw",
    "beamforming.cho_factor.calls": "calls/draw",
    "power.mmse_max_min_power.calls": "calls/draw",
    "power.mmse_max_min_power.self_s": "s/draw",
    "power.mmse_fixed_point_iters": "iters/call",
    "phase.lse_max_min_phase.calls": "calls/draw",
    "phase.lse_max_min_phase.self_s": "s/draw",
    "phase.max_min_sinr_tangent.calls": "calls/draw",
    "phase.max_min_sinr_tangent.self_s": "s/draw",
    "phase.lse.iterations": "iters/call",
    "phase.lse.converged_share": "share",
    "sdr.sdr_dinkelbach_phase.calls": "calls/draw",
    "sdr.sdr_dinkelbach_phase.self_s": "s/draw",
    "sdr.dinkelbach_iters": "iters/call",
    "phase.build_quadratic_forms.self_s": "s/draw",
    "power.max_min_power.calls": "calls/draw",
    "power.max_min_power.self_s": "s/draw",
    "phase.quantized_heuristic_phase.calls": "calls/draw",
    "phase.quantized_heuristic_phase.self_s": "s/draw",
    "phase.quant.evaluations": "evals/call",
    "beamforming.optimal_beamformers.calls": "calls/draw",
    "beamforming.optimal_beamformers.self_s": "s/draw",
    "core.sinr_per_user.calls": "calls/draw",
    "core.sinr_per_user.self_s": "s/draw",
    "alternating.alternating_optimize.self_s": "s/draw",
    "alternating.sweeps": "sweeps/op",
    "alternating.stage_raised.bf": "share",
    "alternating.stage_raised.power": "share",
    "alternating.stage_raised.phase": "share",
    "channel.sample_channel.self_s": "s/draw",
    "harness.run_experiment.self_s": "s/draw",
}


class Tracer:
    """Installs the wrappers, keeps the spans and solver counters of one run."""

    def __init__(self):
        self.spans = []                  # (name, start, end, parent index or -1)
        self.stack = [-1]
        self.cholesky = 0
        self.counters = defaultdict(list)  # span name -> counters read from each result
        self._originals = []

    def install(self):
        for module, attr, name in SPANS:
            self._patch(module, attr, self._span(getattr(module, attr), name, COUNTERS.get(name)))
        self._patch(scipy.linalg, "cho_factor", self._counted(scipy.linalg.cho_factor))

    def uninstall(self):
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr, wrapper):
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _span(self, func, name, read_counters):
        spans, stack, counters = self.spans, self.stack, self.counters[name]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                out = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if read_counters is not None:
                counters.append(read_counters(out))
            return out
        return traced

    def _counted(self, func):
        def counted(*args, **kwargs):
            self.cholesky += 1
            return func(*args, **kwargs)
        return counted

    def write_spans(self, path):
        """One JSON line per span: name, start and end in microseconds, parent index."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, start, end, parent in self.spans:
                handle.write(json.dumps([name, round((start - origin) * 1e6),
                                         round((end - origin) * 1e6), parent]) + "\n")

    def layer_metrics(self, draws: int) -> dict:
        """Every per-layer metric, normalized per channel draw or per call.

        A layer the workload never calls reads 0.
        """
        names = [span[0] for span in self.spans]
        duration = np.array([span[2] - span[1] for span in self.spans])
        parents = np.array([span[3] for span in self.spans], dtype=int)
        covered = np.zeros(len(self.spans))
        nested = parents >= 0
        np.add.at(covered, parents[nested], duration[nested])
        self_time = duration - covered
        calls = defaultdict(int)
        own = defaultdict(float)
        for name, seconds in zip(names, self_time):
            calls[name] += 1
            own[name] += seconds

        metrics = {}
        for metric in LAYER_UNITS:
            layer, _, kind = metric.rpartition(".")
            if kind == "calls":
                metrics[metric] = calls[layer] / draws
            elif kind == "self_s":
                metrics[metric] = own[layer] / draws
        metrics["beamforming.cho_factor.calls"] = self.cholesky / draws

        under_mmse = sum(1 for name, parent in zip(names, parents)
                         if name == "beamforming.post_bf_sinr_values" and parent >= 0
                         and names[parent] == "power.mmse_max_min_power")
        metrics["power.mmse_fixed_point_iters"] = _ratio(under_mmse, calls["power.mmse_max_min_power"])

        lse = self.counters["phase.lse_max_min_phase"]
        metrics["phase.lse.iterations"] = _mean([iterations for iterations, _ in lse])
        metrics["phase.lse.converged_share"] = _mean([converged for _, converged in lse])
        metrics["sdr.dinkelbach_iters"] = _mean(self.counters["sdr.sdr_dinkelbach_phase"])
        metrics["phase.quant.evaluations"] = _mean(self.counters["phase.quantized_heuristic_phase"])

        runs = self.counters["alternating.alternating_optimize"]
        metrics["alternating.sweeps"] = _mean([sweeps for sweeps, _ in runs])
        for kind in ("bf", "power", "phase"):
            raised = [r for _, stages in runs for stage, r in stages if stage == kind]
            metrics[f"alternating.stage_raised.{kind}"] = _mean(raised)
        return {name: metrics[name] for name in LAYER_UNITS}


def _stages_raised(solution):
    """(sweeps, [(stage, 1.0 if it raised the minimum over the stage before)]).

    The first stage of a run has no predecessor in the trace and is skipped.
    """
    trace = solution.report.stage_trace
    return solution.iterations, [(stage, float(after > before))
                                 for (_, before), (stage, after) in zip(trace, trace[1:])]


# span name -> what to keep from each returned result
COUNTERS = {
    "phase.lse_max_min_phase": lambda r: (r.iterations, float(r.converged)),
    "sdr.sdr_dinkelbach_phase": lambda r: r.iterations,
    "phase.quantized_heuristic_phase": lambda r: r.evaluations,
    "alternating.alternating_optimize": _stages_raised,
}


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if values else 0.0
