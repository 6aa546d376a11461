"""Steadiness of the benchmark: repeat each workload over several seeds.

    python3 bench/steady.py [--seeds 1-10] [--seconds 35] [--workloads headline,kgrid-batch] [--trace]

Runs ``bench/run.py`` once per (workload, seed), one process at a time, and
prints for every end-to-end metric its median, quartiles and spread (the
distance between the quartiles over the median, as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's bound
in BENCHMARK.json. With ``--trace`` it also makes one traced run per
workload on the first seed, prints the per-layer metrics and the tracing
overhead: the traced time for the draw set less the untraced one, medians of
three traced and three untraced runs made in turn. The
output is the Markdown that README.md quotes; the raw figures go to
``bench/out/steady.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
TRACE_PAIRS = 3


def _seeds(text: str) -> list:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(v) for v in text.split(",")]


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    record = json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    record["wall_s"] = time.perf_counter() - started
    return result, record


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = _seeds(args.seeds)
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result, record = _run(workload, seed, args.seconds, 0)
            runs.append((result, record))
            print(f"# {workload} seed {seed}: {record['wall_s']:.1f} s, {record['draws']} draws, "
                  f"{result['failed']}/{result['attempted']} failed", file=sys.stderr, flush=True)
        entry = {"seeds": seeds, "failed_share": [r["failed"] / r["attempted"] for r, _ in runs],
                 "metrics": {}}
        print(f"\n### {workload} ({len(seeds)} seeds, --seconds {args.seconds:g})\n")
        print("| metric | unit | median | q1 | q3 | spread | bound |")
        print("|---|---|---|---|---|---|---|")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r, _ in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            entry["metrics"][name] = {"values": values, "median": median, "q1": q1, "q3": q3,
                                      "spread": spread}
            print(f"| `{name}` | {runs[0][0]['metrics'][name]['unit']} | {median:.4g} | {q1:.4g} "
                  f"| {q3:.4g} | {spread:.3f} | {bound} |")
        entry["wall_s"] = [r["wall_s"] for _, r in runs]
        factors = [r["speed_factor"] for _, r in runs]
        print(f"\nfailed/attempted: {sorted(set(entry['failed_share']))}; "
              f"wall time per run {min(entry['wall_s']):.1f} to {max(entry['wall_s']):.1f} s; "
              f"speed factor {min(factors):.3f} to {max(factors):.3f}")
        if "per_k" in runs[0][1]:
            labels = runs[0][1]["per_k"]
            print("\n| k, method | mean min SINR, median over seeds |\n|---|---|")
            for label in labels:
                print(f"| {label} | {statistics.median(r['per_k'][label] for _, r in runs):.4g} |")
        if args.trace:
            # traced and untraced runs alternate, so a drift of the machine's
            # speed falls on both sides
            untraced, traced_s = [runs[0][1]["set_s"]], []
            for pair in range(TRACE_PAIRS):
                traced, traced_record = _run(workload, seeds[0], args.seconds, 1)
                traced_s.append(traced_record["set_s"])
                if pair + 1 < TRACE_PAIRS:
                    untraced.append(_run(workload, seeds[0], args.seconds, 0)[1]["set_s"])
            overhead = statistics.median(traced_s) - statistics.median(untraced)
            entry["trace"] = {"seed": seeds[0], "overhead_s": overhead, "untraced_s": untraced,
                              "traced_s": traced_s,
                              "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
            print(f"\nTraced runs, seed {seeds[0]}: the set's {traced_record['set_draws']} draws took "
                  f"{statistics.median(traced_s):.2f} s traced against "
                  f"{statistics.median(untraced):.2f} s untraced (medians of {TRACE_PAIRS} "
                  f"alternating runs each), an overhead of {overhead:.2f} s "
                  f"({overhead / statistics.median(untraced):.1%}).\n")
            print("| per-layer metric | unit | value |\n|---|---|---|")
            for name, metric in traced["metrics"].items():
                print(f"| `{name}` | {metric['unit']} | {metric['value']:.4g} |")
        report[workload] = entry
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "steady.json").write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
