"""Experiment execution: seeded repeat runs, file emission, and the two-phase
first-round hyperparameter search.

Every emitted file is byte-identical across reruns of the same config: floats
are serialized with repr semantics, dict keys are sorted, and nothing
time-dependent is written.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .config import (
    ConfigError,
    ExperimentConfig,
    FileSpec,
    HpoSpec,
    SyntheticSpec,
)
from .confidence import SoftmaxConfig, write_score_dump
from .data import (
    LabeledSet,
    Pool,
    carve,
    load_dataset,
    synth_gaussian_mixture,
)
from .loop import (
    TbalConfig,
    dump_report,
    dump_round_log,
    fit_round,
    run_tbal,
    seed_query,
)
from .rng import child_seed
from .thresholds import empirical_metrics, predicted_scores


class OutputExistsError(RuntimeError):
    """Refusing to clobber an existing summary without --force."""


def materialize_dataset(cfg: ExperimentConfig):
    """(initial Pool, validation LabeledSet, hyp LabeledSet or None).

    All three are row sets of the one loaded or generated Dataset, which
    nothing copies. The carve into pool/validation/held-out rows depends only
    on the master seed, so repeat runs share identical data and differ purely
    in algorithmic randomness.
    """
    spec = cfg.dataset
    if isinstance(spec, SyntheticSpec):
        total = spec.pool_size + spec.val_size + spec.hyp_size
        base = synth_gaussian_mixture(
            spec.classes, spec.dim, spec.means, spec.sigma, total,
            child_seed(cfg.master_seed, "data"))
    elif isinstance(spec, FileSpec):
        base = load_dataset(spec.path, spec.format, spec.num_classes,
                            spec.labels_path)
    else:
        raise TypeError(f"unknown dataset spec {type(spec).__name__}")
    need = spec.pool_size + spec.val_size + spec.hyp_size
    if need > base.n:
        raise ValueError(
            f"dataset has {base.n} points, config asks for {need}"
        )
    val_rows, hyp_rows, pool_rows = carve(
        base.n, [spec.val_size, spec.hyp_size, spec.pool_size],
        child_seed(cfg.master_seed, "carve"))
    val = LabeledSet.from_oracle(base, val_rows)
    hyp = None
    if spec.hyp_size:
        hyp = LabeledSet.from_oracle(base, hyp_rows)
    return Pool(base, pool_rows), val, hyp


_SHARED: tuple = ()  # a worker process's ``shared`` arguments of _map


def _share(shared: tuple) -> None:
    global _SHARED
    _SHARED = shared


def _call_shared(fn, task: tuple):
    return fn(*_SHARED, *task)


def _map(fn, shared: tuple, tasks, jobs: int) -> list:
    """[fn(*shared, *task) for task in tasks], over at most ``jobs`` worker
    processes and never more than tasks; results keep the order of
    ``tasks``. ``shared`` (the data) goes to each worker once, as it starts.
    """
    # the pool starts all max_workers processes on its first submit
    workers = min(jobs, len(tasks))
    if workers > 1:
        # imported here: a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers, initializer=_share,
                                 initargs=(shared,)) as pool:
            return list(pool.map(_call_shared, [fn] * len(tasks), tasks))
    return [fn(*shared, *task) for task in tasks]


def _one_run(pool: Pool, val: LabeledSet, tbal_cfg: TbalConfig, seed: int,
             run_dir: str) -> dict:
    os.makedirs(run_dir, exist_ok=True)

    def hook(round_index, model, round_val, top, preds):
        write_score_dump(
            os.path.join(run_dir, f"scores_round_{round_index:03d}.csv"),
            round_val, top, preds)

    report = run_tbal(tbal_cfg, pool, val, seed, round_hook=hook)
    dump_round_log(report, os.path.join(run_dir, "rounds.jsonl"))
    dump_report(report, os.path.join(run_dir, "report.json"))
    return {
        "final_error": report.final_error,
        "final_coverage": report.final_coverage,
        "n_rounds": len(report.rounds),
        "warnings": list(report.warnings),
    }


def _mean_std(values):
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   force: bool = False, jobs: int = 1) -> dict:
    """Execute `repeats` seeded runs and write logs plus a summary.

    Layout under the output directory:
        run_00/rounds.jsonl, run_00/report.json, run_00/scores_round_*.csv
        ...
        summary.json
    """
    out = out_dir if out_dir is not None else cfg.output_dir
    summary_path = os.path.join(out, "summary.json")
    if os.path.exists(summary_path) and not force:
        raise OutputExistsError(
            f"{summary_path} exists; pass force to overwrite"
        )
    os.makedirs(out, exist_ok=True)
    pool, val, _ = materialize_dataset(cfg)
    tasks = [(cfg.tbal, child_seed(cfg.master_seed, "run", r),
              os.path.join(out, f"run_{r:02d}")) for r in range(cfg.repeats)]
    results = _map(_one_run, (pool, val), tasks, jobs)
    coverages = [r["final_coverage"] for r in results]
    errors = [r["final_error"] for r in results if r["final_error"] is not None]
    cov_mean, cov_std = _mean_std(coverages)
    summary = {
        "n_runs": cfg.repeats,
        "runs": results,
        "final_coverage_mean": cov_mean,
        "final_coverage_std": cov_std,
        "runs_without_auto_labels": cfg.repeats - len(errors),
    }
    if errors:
        err_mean, err_std = _mean_std(errors)
        summary["final_error_mean"] = err_mean
        summary["final_error_std"] = err_std
    else:
        summary["final_error_mean"] = None
        summary["final_error_std"] = None
    with open(summary_path, "w") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")
    return summary


# ---------------------------------------------------------------------------
# hyperparameter search (first-round protocol, two additive phases)


@dataclass
class HpoResult:
    records: "list[dict]"
    train_winner: dict
    posthoc_winner: dict
    train_winner_id: str
    posthoc_winner_id: str

    def to_jsonable(self) -> dict:
        return {
            "records": self.records,
            "train_winner": self.train_winner,
            "train_winner_id": self.train_winner_id,
            "posthoc_winner": self.posthoc_winner,
            "posthoc_winner_id": self.posthoc_winner_id,
        }


def _combo_list(grid: dict):
    """Cartesian product of a {name: [values]} grid, stable order."""
    names = sorted(grid)
    combos = []
    for values in itertools.product(*(grid[name] for name in names)):
        combos.append(dict(zip(names, values)))
    return combos


def _first_round_eval(pool: Pool, val: LabeledSet, hyp: LabeledSet,
                      tbal_cfg: TbalConfig, run_seed: int):
    """Seed-query + one fit round, scored on the held-out hyp split."""
    seed_set, _ = seed_query(tbal_cfg, pool, run_seed)
    model, g, t_hat, *_ = fit_round(tbal_cfg, seed_set, val, 1, run_seed)
    top, preds = predicted_scores(g, *model.representations(hyp.features))
    cov, err = empirical_metrics(t_hat, top, preds, hyp.labels)
    # an empty selection shows zero mistakes; it still loses on coverage
    return cov, 0.0 if err is None else err


def _apply_train_combo(tbal_cfg: TbalConfig, combo: dict) -> TbalConfig:
    return dataclasses.replace(
        tbal_cfg, train=dataclasses.replace(tbal_cfg.train, **combo))


def _apply_posthoc_combo(tbal_cfg: TbalConfig, combo: dict) -> TbalConfig:
    return dataclasses.replace(
        tbal_cfg, posthoc=dataclasses.replace(tbal_cfg.posthoc, **combo))


def _select(records: "list[dict]", eps_a: float, tie_seed: int,
            phase: str) -> str:
    """Max coverage among error-qualifying combos, else min error; seeded
    uniform tie-break."""
    pool = [r for r in records if r["mean_error"] <= eps_a]
    if pool:
        best = max(r["mean_coverage"] for r in pool)
        tied = [r for r in pool if r["mean_coverage"] == best]
        rule = "error_within_tolerance_max_coverage"
    else:
        best = min(r["mean_error"] for r in records)
        tied = [r for r in records if r["mean_error"] == best]
        rule = "min_error_fallback"
    rng = np.random.default_rng(child_seed(tie_seed, "tie", phase))
    winner = tied[int(rng.integers(len(tied)))]
    winner["selected"] = True
    winner["selection_rule"] = rule
    return winner["combo_id"]


def _eval_phase(phase: str, combos, apply_fn, tbal_cfg, pool, val, hyp,
                repeats, master_seed, jobs) -> "list[dict]":
    tasks = []
    for idx, combo in enumerate(combos):
        cfg_c = apply_fn(tbal_cfg, combo)
        for r in range(repeats):
            tasks.append((cfg_c, child_seed(master_seed, "hpo-run", r)))
    flat = _map(_first_round_eval, (pool, val, hyp), tasks, jobs)
    records = []
    for idx, combo in enumerate(combos):
        chunk = flat[idx * repeats:(idx + 1) * repeats]
        covs = [c for c, _ in chunk]
        errs = [e for _, e in chunk]
        cov_mean, cov_std = _mean_std(covs)
        err_mean, err_std = _mean_std(errs)
        records.append({
            "combo_id": f"{phase}-{idx:03d}",
            "phase": phase,
            "params": combo,
            "mean_coverage": cov_mean,
            "std_coverage": cov_std,
            "mean_error": err_mean,
            "std_error": err_std,
            "selected": False,
        })
    return records


def hyperparameter_search(cfg: ExperimentConfig, out_dir: str | None = None,
                          force: bool = False, jobs: int = 1) -> HpoResult:
    """Two-phase additive grid search on the first-round protocol.

    Phase "train" sweeps the training grid (confidence fixed to raw softmax so
    the winner is method-independent); phase "posthoc" fixes that winner and
    sweeps the post-hoc grid, which is empty, and skipped, for a method with
    no hyperparameters. Each combo is scored by `repeats` seeded first-round runs
    evaluated on the held-out hyp split.
    """
    if cfg.hpo is None:
        raise ConfigError("config has no hpo section")
    out = out_dir if out_dir is not None else cfg.output_dir
    result_path = os.path.join(out, "hpo_result.json")
    if os.path.exists(result_path) and not force:
        raise OutputExistsError(f"{result_path} exists; pass force to overwrite")
    os.makedirs(out, exist_ok=True)
    pool, val, hyp = materialize_dataset(cfg)
    if hyp is None:
        raise ValueError("hpo requires dataset.hyp_size >= 1")
    spec: HpoSpec = cfg.hpo

    train_combos = _combo_list(spec.train_grid)
    softmax_cfg = dataclasses.replace(cfg.tbal, posthoc=SoftmaxConfig())
    train_records = _eval_phase(
        "train", train_combos, _apply_train_combo, softmax_cfg, pool, val,
        hyp, cfg.repeats, cfg.master_seed, jobs)
    train_winner_id = _select(train_records, cfg.tbal.thresholds.eps_a,
                              spec.tie_break_seed, "train")
    train_winner = next(r["params"] for r in train_records
                        if r["combo_id"] == train_winner_id)

    fixed = _apply_train_combo(cfg.tbal, train_winner)
    if spec.posthoc_grid:
        posthoc_records = _eval_phase(
            "posthoc", _combo_list(spec.posthoc_grid), _apply_posthoc_combo,
            fixed, pool, val, hyp, cfg.repeats, cfg.master_seed, jobs)
        posthoc_winner_id = _select(posthoc_records, cfg.tbal.thresholds.eps_a,
                                    spec.tie_break_seed, "posthoc")
        posthoc_winner = next(r["params"] for r in posthoc_records
                              if r["combo_id"] == posthoc_winner_id)
    else:
        posthoc_records = []
        posthoc_winner_id = "none"
        posthoc_winner = {}

    result = HpoResult(
        records=train_records + posthoc_records,
        train_winner=train_winner,
        posthoc_winner=posthoc_winner,
        train_winner_id=train_winner_id,
        posthoc_winner_id=posthoc_winner_id,
    )
    with open(result_path, "w") as f:
        json.dump(result.to_jsonable(), f, sort_keys=True, indent=2)
        f.write("\n")
    return result
