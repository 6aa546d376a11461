"""Command line interface: run experiments, lint configs, dump channels.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from .channel import dump_channel_text
from .errors import ConfigurationError, DomainError, NumericError
from .harness import _grid_scenarios, load_config, run_experiment, trial_channel


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ris-maxmin",
        description="Max-min SINR optimization for a RIS-aided uplink: batch Monte Carlo driver.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the configured experiment and write a CSV")
    run.add_argument("config", help="path to the experiment config file")
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--trials", type=int, default=None, help="override the trial count")
    run.add_argument("--threads", type=int, default=1,
                     help="worker processes for parallel trials (N >= 1)")
    run.add_argument("--quiet", action="store_true", help="suppress progress output")

    validate = sub.add_parser("validate", help="parse and validate a config file")
    validate.add_argument("config", help="path to the experiment config file")

    dump = sub.add_parser("dump-channel",
                          help="write the channel of the first trial at the first grid point")
    dump.add_argument("config", help="path to the experiment config file")
    dump.add_argument("--out", default=None, help="output path (default: stdout)")
    dump.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def _cmd_run(args) -> int:
    config, plan = load_config(args.config)
    if args.seed is not None:
        plan = replace(plan, seed=args.seed)
    if args.trials is not None:
        plan = replace(plan, trials=args.trials)

    def progress(done, total):
        if not args.quiet:
            print(f"\rtrials {done}/{total}", end="", file=sys.stderr, flush=True)

    records = run_experiment(config, plan, out_path=args.out, workers=args.threads,
                             progress=progress)
    if not args.quiet:
        print(file=sys.stderr)
    print(f"wrote {len(records)} rows to {args.out}")
    return 0


def _cmd_validate(args) -> int:
    config, plan = load_config(args.config)
    grid = len(_grid_scenarios(config, plan))
    print(f"OK: m={config.m} n={config.n} k={config.k}, sigma2={config.sigma2:.6g} W, "
          f"{len(plan.methods)} methods, {grid} grid points, {plan.trials} trials")
    return 0


def _cmd_dump_channel(args) -> int:
    config, plan = load_config(args.config)
    if args.seed is not None:
        plan = replace(plan, seed=args.seed)
    _, _, chan, _ = trial_channel(_grid_scenarios(config, plan)[0], plan, 0, 0)
    text = dump_channel_text(chan)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote channel dump to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "validate": _cmd_validate, "dump-channel": _cmd_dump_channel}
    try:
        return handlers[args.command](args)
    except (ConfigurationError, DomainError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericError, np.linalg.LinAlgError, OSError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
