"""Command-line entry points.

Subcommands:
    run        execute an experiment config (repeated seeded runs + summary)
    hpo        two-phase first-round hyperparameter search
    toy-check  sweep the 1-D analytic world and emit a tightness CSV
    gen-synth  write a synthetic Gaussian-mixture dataset in rawf32 format

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import math
import os
import sys

import numpy as np

from .config import ConfigError, default_circle_means, parse_config
from .data import synth_gaussian_mixture, write_rawf32
from .runner import hyperparameter_search, run_experiment
from .verify import (
    TOY_ALPHAS,
    TOY_T_SWEEP,
    TOY_W_SWEEP,
    Toy1DWorld,
    sweep_grid,
    toy_1d_metrics,
)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="path to a JSON config")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config's master_seed")
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing outputs")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel worker processes")


def _load(args):
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
    print(f"train winner {result.train_winner_id}: {result.train_winner}")
    print(f"posthoc winner {result.posthoc_winner_id}: {result.posthoc_winner}")
    return 0


def _cmd_toy_check(args) -> int:
    alphas = []
    for tok in args.alphas.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            alpha = float(tok)
        except ValueError:
            raise ConfigError(f"--alphas: {tok!r} is not a number") from None
        if not 0 < alpha < math.inf:
            raise ConfigError(f"--alphas: {tok} is not a finite number above 0")
        alphas.append(alpha)
    if not alphas:
        raise ConfigError("--alphas must list at least one value")
    try:
        w_grid = sweep_grid(args.w_start, args.w_stop, args.w_step)
        t_grid = sweep_grid(args.t_start, args.t_stop, args.t_step)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if os.path.exists(args.out) and not args.force:
        raise ConfigError(f"{args.out} exists; pass --force to overwrite")
    with open(args.out, "w", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["w", "t", "alpha", "actual_err", "surrogate_err",
                         "actual_cov", "surrogate_cov"])
        for w in w_grid:
            world = Toy1DWorld(w=float(w))
            for t in t_grid:
                for alpha in alphas:
                    m = toy_1d_metrics(world, float(t), alpha)
                    writer.writerow([
                        repr(float(w)), repr(float(t)), repr(alpha),
                        "" if m.actual_error is None else repr(m.actual_error),
                        "" if m.surrogate_error is None else repr(m.surrogate_error),
                        repr(m.actual_coverage), repr(m.surrogate_coverage),
                    ])
    print(f"wrote {len(w_grid) * len(t_grid) * len(alphas)} rows to {args.out}")
    return 0


def _cmd_gen_synth(args) -> int:
    if os.path.exists(args.out) and not args.force:
        raise ConfigError(f"{args.out} exists; pass --force to overwrite")
    if args.means is not None:
        import json
        try:
            means = np.asarray(json.loads(args.means), dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"--means: invalid JSON array ({exc})") from None
        if means.shape != (args.classes, args.dim):
            raise ConfigError(
                f"--means must be {args.classes}x{args.dim}, got {means.shape}"
            )
    else:
        means = default_circle_means(args.classes, args.dim, args.radius)
    ds = synth_gaussian_mixture(args.classes, args.dim, means, args.sigma,
                                args.count, args.seed)
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    write_rawf32(ds, args.out)
    print(f"wrote {ds.n} points ({ds.num_classes} classes, dim {ds.dim}) to "
          f"{args.out} (+ .meta, .labels)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="autolabel",
        description="Threshold-based auto-labeling with learned confidence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    _add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_hpo = sub.add_parser("hpo", help="two-phase hyperparameter search")
    _add_common(p_hpo)
    p_hpo.set_defaults(func=_cmd_hpo)

    p_toy = sub.add_parser("toy-check",
                           help="surrogate-tightness sweep on the 1-D world")
    p_toy.add_argument("--out", default="toy_check.csv")
    p_toy.add_argument("--force", action="store_true")
    for axis, sweep in (("w", TOY_W_SWEEP), ("t", TOY_T_SWEEP)):
        for part, default in zip(("start", "stop", "step"), sweep):
            p_toy.add_argument(f"--{axis}-{part}", type=float, default=default)
    p_toy.add_argument("--alphas", default=",".join(map(repr, TOY_ALPHAS)),
                       help="comma-separated sigmoid scales")
    p_toy.set_defaults(func=_cmd_toy_check)

    p_gen = sub.add_parser("gen-synth",
                           help="write a Gaussian-mixture dataset (rawf32)")
    p_gen.add_argument("--out", required=True,
                       help="output feature file; .meta/.labels written beside")
    p_gen.add_argument("--classes", type=int, default=4)
    p_gen.add_argument("--dim", type=int, default=2)
    p_gen.add_argument("--sigma", type=float, default=1.0)
    p_gen.add_argument("--count", type=int, default=1000)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--means", default=None,
                       help="JSON array of per-class means (default: circle)")
    p_gen.add_argument("--radius", type=float, default=3.0,
                       help="circle radius for default means")
    p_gen.add_argument("--force", action="store_true")
    p_gen.set_defaults(func=_cmd_gen_synth)
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
