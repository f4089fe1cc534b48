"""Command-line entry points.

Subcommands:
    run  execute an experiment config (repeated seeded runs + summary)
    hpo  two-phase first-round hyperparameter search

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import ConfigError, parse_config
from .runner import hyperparameter_search, run_experiment


def _add_common(p: argparse.ArgumentParser, outputs: str) -> None:
    p.add_argument("--config", required=True, help="path to a JSON config")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's master_seed")
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--force", action="store_true",
                   help=f"remove an earlier {outputs} once the data loads")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes")


def _load(args):
    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {args.seed}")
    cfg = parse_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    return cfg


def _cmd_run(args) -> int:
    cfg = _load(args)
    summary = run_experiment(cfg, out_dir=args.out, force=args.force,
                             jobs=args.jobs)
    err = summary["final_error_mean"]
    err_s = "n/a" if err is None else f"{err:.4f} +/- {summary['final_error_std']:.4f}"
    print(f"runs: {summary['n_runs']}  error: {err_s}  coverage: "
          f"{summary['final_coverage_mean']:.4f} +/- "
          f"{summary['final_coverage_std']:.4f}")
    return 0


def _cmd_hpo(args) -> int:
    cfg = _load(args)
    result = hyperparameter_search(cfg, out_dir=args.out, force=args.force,
                                   jobs=args.jobs)
    for phase in ("train", "posthoc"):
        print(f"{phase} winner {result[f'{phase}_winner_id']}: "
              f"{result[f'{phase}_winner']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autolabel",
        description="Threshold-based auto-labeling with learned confidence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    _add_common(p_run, "summary.json and every run_NN entry")
    p_run.set_defaults(func=_cmd_run)

    p_hpo = sub.add_parser("hpo", help="two-phase hyperparameter search")
    _add_common(p_hpo, "hpo_result.json")
    p_hpo.set_defaults(func=_cmd_hpo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports and exits
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
