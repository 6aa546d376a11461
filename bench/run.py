"""Benchmark of ris-maxmin: one workload per process, on one BLAS thread.

    python3 bench/run.py --workload headline --seed 1 --seconds 38 --trace 0

Runs from the root of a checkout and imports the library from its ``src/``.
With ``--trace 0`` it times the workload and prints every end-to-end metric;
with ``--trace 1`` it runs the same operations under the outside-in tracer of
``tracer.py`` and prints every per-layer metric. Every operation is checked
(``checks.py``). The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the same
metrics, with the machine and library versions, go to ``bench/out/``.
"""

import time

STARTED = time.perf_counter()

import os  # noqa: E402

# one BLAS thread, before numpy is imported here or in a set-up probe
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_SAMPLES = 5       # this process plus four probe processes

# end-to-end metric -> unit, in the order BENCHMARK.json lists them
END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "draws/s",
    "run_s.optimizer": "s",
    "run_s.random-baseline": "s",
    "min_sinr.optimizer": "linear",
    "min_sinr.random-baseline": "linear",
    "gain.optimizer": "ratio",
    "peak_rss_mb": "MiB",
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set the workload up and print the seconds it took")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    return args


def _import_library():
    """Import the checkout's own library, never an installed copy."""
    if not (SRC / "ris_maxmin" / "__init__.py").is_file():
        sys.exit(f"bench: no library at {SRC / 'ris_maxmin'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ris_maxmin
    if Path(ris_maxmin.__file__).resolve().parent != (SRC / "ris_maxmin").resolve():
        sys.exit(f"bench: imported ris_maxmin from {ris_maxmin.__file__}, not from {SRC}")


def _setup_seconds(args, own: float) -> list:
    """Set the workload up in fresh processes too; each sample covers imports,
    scenario, plan and channel draws, at the reference speed."""
    samples = [own]
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return samples


def _at_reference_speed(seconds: float) -> float:
    """Scale a set-up time by the median of three speed probes taken right after it."""
    import workloads
    gauge = workloads.Speedometer()
    probe = statistics.median(gauge.probe() for _ in range(3))
    return gauge.scale(seconds, probe, probe)


def _steal_seconds() -> float:
    """CPU time the hypervisor took from this machine since boot (0 where unknown)."""
    try:
        with open("/proc/stat", encoding="utf-8") as handle:
            fields = handle.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def _machine() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            model = next((line.split(":", 1)[1].strip() for line in handle
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "platform": platform.platform(), "cpu": model, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _end_to_end(workload, result, setup_samples) -> tuple:
    """The end-to-end metrics and a per-method breakdown for the record."""
    def label(op):
        return op.method + ("" if op.bits is None else f"-B{op.bits}")

    kept = [op for op in result.operations if not op.problems]
    breakdown = {}
    for name in sorted({label(op) for op in kept}):
        seconds = sorted(op.seconds for op in kept if label(op) == name)
        quality = [op.min_sinr for op in kept if label(op) == name and op.first]
        entry = {"calls": len(seconds), "run_s.each": [op.seconds for op in kept if label(op) == name],
                 "run_s.median": statistics.median(seconds),
                 "run_s.mean": statistics.fmean(seconds)}
        if len(seconds) >= 100:
            entry["run_s.p90"] = statistics.quantiles(seconds, n=10)[-1]
        entry["min_sinr.mean"] = statistics.fmean(quality)
        entry["min_sinr.geometric_mean"] = statistics.geometric_mean(quality)
        breakdown[name] = entry

    def seconds(method):
        return [op.seconds for op in kept if op.method == method]

    def quality_of(method):
        return [op.min_sinr for op in kept if op.method == method and op.first]

    # geometric means: at k=2 the minimum SINR spans decades between draws, and
    # an arithmetic mean over the draws of one seed swings with a few of them
    optimizer_min = statistics.geometric_mean(quality_of(workload.optimizer))
    baseline_min = statistics.geometric_mean(quality_of("random-baseline"))
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "trials_per_s": result.draws / result.work_s,
        # means, not medians: a call takes two sweeps or three and more, and
        # the median of some fifty calls jumps between those two modes
        "run_s.optimizer": statistics.fmean(seconds(workload.optimizer)),
        "run_s.random-baseline": statistics.fmean(seconds("random-baseline")),
        "min_sinr.optimizer": optimizer_min,
        "min_sinr.random-baseline": baseline_min,
        "gain.optimizer": optimizer_min / baseline_min,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return metrics, breakdown


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_library()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    state = workload.setup(args.seed, args.seconds)
    own_setup = _at_reference_speed(time.perf_counter() - STARTED)
    if args.setup_probe:
        print(f"{own_setup:.9f}")
        return 0

    setup_samples = [own_setup] if tracer else _setup_seconds(args, own_setup)
    OUT_DIR.mkdir(exist_ok=True)
    cpu, steal = time.process_time(), _steal_seconds()
    result = workload.run(state, args.seconds, OUT_DIR, extend=tracer is None)
    cpu, steal = time.process_time() - cpu, _steal_seconds() - steal
    failed = sum(1 for op in result.operations if op.problems)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": _machine(), "draws": result.draws,
              "work_s": result.work_s, "set_draws": result.set_draws, "set_s": result.set_s,
              "cpu_s": cpu, "steal_s": steal,
              "setup_samples_s": setup_samples,
              "attempted": len(result.operations), "failed": failed,
              "problems": [op.problems for op in result.operations if op.problems][:20],
              **result.details}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer:
        tracer.uninstall()
        values = tracer.layer_metrics(result.draws)
        units = tracing.LAYER_UNITS
        tracer.write_spans(OUT_DIR / f"{stem}-spans.jsonl.gz")
    else:
        values, record["methods"] = _end_to_end(workload, result, setup_samples)
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    record["metrics"] = metrics
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for problems in record["problems"]:
        print("FAILED:", "; ".join(problems))
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(result.operations),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
