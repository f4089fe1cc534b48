"""Experiment execution: seeded repeat runs, file emission, and the two-phase
first-round hyperparameter search.

Every emitted file is byte-identical across reruns of the same config: floats
are serialized with repr semantics, dict keys are sorted, and nothing
time-dependent is written.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import os
import re
import shutil

import numpy as np

from .config import ConfigError, ExperimentConfig, HpoSpec
from .confidence import SoftmaxConfig, write_score_dump
from .data import LabeledSet, Pool, carve
from .loop import (
    TbalConfig,
    dump_report,
    dump_round_log,
    fit_round,
    run_tbal,
    seed_query,
    train_round,
)
from .rng import child_seed, stream
from .thresholds import empirical_metrics, predicted_scores


class OutputExistsError(RuntimeError):
    """Refusing to clobber an existing output without --force."""


def materialize_dataset(cfg: ExperimentConfig):
    """(initial Pool, validation LabeledSet, hyp LabeledSet or None).

    All three are row sets of the one loaded or generated Dataset, which
    nothing copies. The carve into pool/validation/held-out rows depends only
    on the master seed, so repeat runs share identical data and differ purely
    in algorithmic randomness.
    """
    spec = cfg.dataset
    need = spec.pool_size + spec.val_size + spec.hyp_size
    base = spec.load(need, child_seed(cfg.master_seed, "data"))
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


_SHARED: tuple = ()  # a worker process's ``shared`` arguments of _mapper


def _share(shared: tuple) -> None:
    global _SHARED
    _SHARED = shared


def _call_shared(fn, task: tuple):
    return fn(*_SHARED, *task)


@contextlib.contextmanager
def _mapper(shared: tuple, workers: int):
    """Yields ``run(fn, tasks)``, which returns [fn(*shared, *task) for task
    in tasks] in the order of ``tasks``: over one pool of ``workers``
    processes, kept for the ``with`` block, when that is more than one.
    ``shared`` (the data) goes to each worker once, as it starts.
    """
    if workers <= 1:
        yield lambda fn, tasks: [fn(*shared, *task) for task in tasks]
        return
    # imported here: a serial run never loads multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers, initializer=_share,
                             initargs=(shared,)) as pool:
        yield lambda fn, tasks: list(
            pool.map(_call_shared, [fn] * len(tasks), tasks))


def _one_run(pool: Pool, val: LabeledSet, tbal_cfg: TbalConfig, seed: int,
             run_dir: str) -> dict:
    os.makedirs(run_dir, exist_ok=True)
    report = run_tbal(tbal_cfg, pool, val, seed)
    for rec in report.rounds:
        write_score_dump(os.path.join(
            run_dir, f"scores_round_{rec.round_index:03d}.csv"),
            rec.fit.val, rec.fit.top, rec.fit.preds)
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


def _outputs(cfg: ExperimentConfig, out_dir: str | None, owned: str,
             force: bool):
    """(``out_dir`` else the config's output directory; a function removing
    its entries named by the regex ``owned``, each refused without force).
    A path that exists and is not a directory is refused even with force."""
    out = (out_dir if out_dir is not None else cfg.output_dir) or os.curdir
    if os.path.lexists(out) and not os.path.isdir(out):
        raise OutputExistsError(f"{out} exists and is not a directory")
    names = sorted(os.listdir(out)) if os.path.isdir(out) else []
    paths = [os.path.join(out, n) for n in names if re.fullmatch(owned, n)]
    if paths and not force:
        raise OutputExistsError(f"{paths[0]} exists; pass force to overwrite")

    def clear():  # rmtree refuses a symlink, which goes as one entry
        for path in paths:
            if os.path.isdir(path) and not os.path.islink(path):
                shutil.rmtree(path)
            else:
                os.remove(path)
    return out, clear


def _write_json(path: str, doc) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, sort_keys=True, indent=2)
        f.write("\n")


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   force: bool = False, jobs: int = 1) -> dict:
    """Execute `repeats` seeded runs and write logs plus a summary.

    Layout under the output directory:
        run_00/rounds.jsonl, run_00/report.json, run_00/scores_round_*.csv
        ...
        summary.json
    """
    out, clear = _outputs(cfg, out_dir, r"summary\.json|run_\d\d+", force)
    pool, val, _ = materialize_dataset(cfg)
    clear()
    tasks = [(cfg.tbal, child_seed(cfg.master_seed, "run", r),
              os.path.join(out, f"run_{r:02d}")) for r in range(cfg.repeats)]
    # the pool starts all max_workers processes on its first submit
    with _mapper((pool, val), min(jobs, len(tasks))) as run:
        results = run(_one_run, tasks)
    coverages = [r["final_coverage"] for r in results]
    errors = [r["final_error"] for r in results if r["final_error"] is not None]
    cov_mean, cov_std = _mean_std(coverages)
    err_mean, err_std = _mean_std(errors) if errors else (None, None)
    summary = {
        "n_runs": cfg.repeats,
        "runs": results,
        "final_coverage_mean": cov_mean,
        "final_coverage_std": cov_std,
        "final_error_mean": err_mean,
        "final_error_std": err_std,
        "runs_without_auto_labels": cfg.repeats - len(errors),
    }
    _write_json(os.path.join(out, "summary.json"), summary)
    return summary


# ---------------------------------------------------------------------------
# hyperparameter search (first-round protocol, two additive phases)


def _combo_list(grid: dict):
    """Cartesian product of a {name: [values]} grid, stable order."""
    names = sorted(grid)
    return [dict(zip(names, values))
            for values in itertools.product(*(grid[name] for name in names))]


def _first_round_eval(pool: Pool, val: LabeledSet, hyp: LabeledSet,
                      tbal_cfg: TbalConfig, run_seed: int, model,
                      keep: bool = True):
    """Seed-query + one fit round, scored on the held-out hyp split.

    ``model``, when not None, is the round's classifier already trained:
    the round trains on the seed set alone, so it depends only on
    ``run_seed`` and the training config. Returns (coverage, error, the
    classifier this call trained, or None when it was given one or
    ``keep`` is false), so no classifier is sent back to a process that
    already holds it or will not read it.
    """
    trained = None
    if model is None:
        seed_set, _ = seed_query(tbal_cfg, pool, run_seed)
        model = train_round(tbal_cfg, seed_set, 1, run_seed)
        trained = model if keep else None
    fit = fit_round(tbal_cfg, model, val, 1, run_seed)
    top, preds = predicted_scores(
        fit.g, *model.representations(hyp.dataset.features, hyp.indices))
    cov, err = empirical_metrics(fit.thresholds, top, preds, hyp.labels)
    # an empty selection shows zero mistakes; it still loses on coverage
    return cov, 0.0 if err is None else err, trained


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
    winner = tied[int(stream(tie_seed, "tie", phase).integers(len(tied)))]
    winner["selected"] = True
    winner["selection_rule"] = rule
    return winner["combo_id"]


def hyperparameter_search(cfg: ExperimentConfig, out_dir: str | None = None,
                          force: bool = False, jobs: int = 1) -> dict:
    """Two-phase additive grid search on the first-round protocol; returns
    the document it writes to hpo_result.json.

    Phase "train" sweeps the training grid (confidence fixed to raw softmax so
    the winner is method-independent); phase "posthoc" fixes that winner and
    sweeps the post-hoc grid, which is empty, and skipped, for a method with
    no hyperparameters. Each combo is scored by `repeats` seeded first-round runs
    evaluated on the held-out hyp split, which every config with an hpo
    section has: ``ExperimentConfig`` checks that, and the grids, when it
    is built. Phase "posthoc" scores its combos on the classifiers the
    train winner's runs trained, one per repeat.
    With ``jobs`` > 1 both phases run on one pool of workers, as many as
    the larger phase has evaluations, at most ``jobs``.
    """
    if cfg.hpo is None:
        raise ConfigError("config has no hpo section")
    out, clear = _outputs(cfg, out_dir, r"hpo_result\.json", force)
    pool, val, hyp = materialize_dataset(cfg)
    clear()
    spec: HpoSpec = cfg.hpo
    repeats = cfg.repeats
    seeds = [child_seed(cfg.master_seed, "hpo-run", r) for r in range(repeats)]
    base = dataclasses.replace(cfg.tbal, posthoc=SoftmaxConfig())
    models = [None] * repeats
    records, winners = [], {}
    combos_of = {phase: _combo_list(grid) for phase in ("train", "posthoc")
                 if (grid := getattr(spec, f"{phase}_grid"))}
    most = repeats * max(map(len, combos_of.values()), default=0)
    with _mapper((pool, val, hyp), min(jobs, most)) as run:
        for phase in ("train", "posthoc"):
            if phase not in combos_of:
                winners.update({f"{phase}_winner": {},
                                f"{phase}_winner_id": "none"})
                continue
            combos = combos_of[phase]
            cfgs = [dataclasses.replace(base, **{phase: dataclasses.replace(
                getattr(base, phase), **combo)}) for combo in combos]
            # phase one's classifiers come back only for a phase two
            keep = phase == "train" and "posthoc" in combos_of
            flat = run(_first_round_eval, [(c, s, m, keep) for c in cfgs
                                           for s, m in zip(seeds, models)])
            runs = [flat[i * repeats:(i + 1) * repeats]
                    for i in range(len(combos))]
            phase_records = []
            for idx, (combo, chunk) in enumerate(zip(combos, runs)):
                covs, errs, _ = zip(*chunk)
                cov_mean, cov_std = _mean_std(covs)
                err_mean, err_std = _mean_std(errs)
                phase_records.append({
                    "combo_id": f"{phase}-{idx:03d}",
                    "phase": phase,
                    "params": combo,
                    "mean_coverage": cov_mean,
                    "std_coverage": cov_std,
                    "mean_error": err_mean,
                    "std_error": err_std,
                    "selected": False,
                })
            winner_id = _select(phase_records, cfg.tbal.thresholds.eps_a,
                                spec.tie_break_seed, phase)
            w = [r["combo_id"] for r in phase_records].index(winner_id)
            winners.update({f"{phase}_winner": combos[w],
                            f"{phase}_winner_id": winner_id})
            records += phase_records
            # the next phase runs the configured method on the winner's models
            base = dataclasses.replace(cfgs[w], posthoc=cfg.tbal.posthoc)
            models = [m for _, _, m in runs[w]]

    result = {"records": records, **winners}
    _write_json(os.path.join(out, "hpo_result.json"), result)
    return result
