"""Per-run output checks and the outcome numbers read from a run directory.

A run passes when every check holds. The checks read only the files the
program wrote (`report.json`, `rounds.jsonl`, the round-1 score dump) and
the benchmark's own copy of the world's ground truth; none calls the
program.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np


@dataclass
class RunOutcome:
    run_dir: str
    failures: "list[str]" = field(default_factory=list)
    coverage: float | None = None
    final_error: float | None = None
    human_labels: int | None = None
    round_errors: "list[float]" = field(default_factory=list)
    eps_a: float = 0.05

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-12, abs_tol=0.0)


def _validation_ids(run_dir: str) -> np.ndarray:
    """Point ids of the full validation set, from the round-1 score dump."""
    with open(os.path.join(run_dir, "scores_round_001.csv"), newline="") as f:
        rows = csv.reader(f)
        header = next(rows)
        col = header.index("point_id")
        return np.array([int(r[col]) for r in rows], dtype=np.int64)


def check_run(run_dir: str, truth: np.ndarray, pool_size: int, val_size: int,
              seed_size: int, eps_a: float) -> RunOutcome:
    """Check one `run_XX` directory against the world's ground truth.

    `truth[i]` is the label of point id i; the world holds exactly the pool
    plus the validation set, so the pool is every id not in validation.
    """
    out = RunOutcome(run_dir=run_dir, eps_a=eps_a)
    try:
        _check(out, truth, pool_size, val_size, seed_size)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        out.failures.append(f"malformed output: {exc!r}")
    return out


def _check(out: RunOutcome, truth, pool_size, val_size, seed_size) -> None:
    run_dir = out.run_dir
    fail = out.failures.append
    try:
        with open(os.path.join(run_dir, "report.json")) as f:
            report = json.load(f)
        with open(os.path.join(run_dir, "rounds.jsonl")) as f:
            lines = f.read().split("\n")
        val_ids = _validation_ids(run_dir)
    except (OSError, ValueError, StopIteration) as exc:
        fail(f"unreadable output: {exc!r}")
        return

    # rounds.jsonl: one parseable line per round, in order
    if lines and lines[-1] == "":
        lines.pop()
    rounds = []
    for i, line in enumerate(lines):
        try:
            rounds.append(json.loads(line))
        except ValueError:
            fail(f"rounds.jsonl line {i + 1} does not parse")
    if len(rounds) != report.get("n_rounds") or len(rounds) != len(
            report.get("rounds", [])):
        fail(f"rounds.jsonl has {len(rounds)} lines, report says "
             f"{report.get('n_rounds')}")
    if [r.get("round_index") for r in rounds] != list(range(1, len(rounds) + 1)):
        fail("round_index is not 1, 2, ... in rounds.jsonl")
    for r in rounds:
        for t in r.get("thresholds", []):
            if t is not None and not (0.0 <= t <= 1.0):
                fail(f"round {r.get('round_index')}: threshold {t} outside [0, 1]")
        if r.get("auto_error") is not None:
            out.round_errors.append(float(r["auto_error"]))

    # the output label set
    output = report["output"]
    ids = np.asarray(output["ids"], dtype=np.int64)
    labels = np.asarray(output["labels"], dtype=np.int64)
    sources = np.asarray(output["sources"])
    if not (ids.shape == labels.shape == sources.shape):
        fail("output ids, labels and sources differ in length")
        return
    if np.unique(ids).size != ids.size:
        fail("output ids are not unique")
    if val_ids.size != val_size:
        fail(f"round-1 score dump has {val_ids.size} rows, expected {val_size}")
    in_range = (ids >= 0) & (ids < truth.size)
    if not in_range.all():
        fail("output ids outside the world")
        return
    auto = sources == "auto"
    if np.isin(ids[auto], val_ids).any():
        fail("auto-labeled ids include validation points, not pool points")

    if report.get("n_initial_pool") != pool_size:
        fail(f"n_initial_pool {report.get('n_initial_pool')} != {pool_size}")
    n_auto = int(auto.sum())
    coverage = n_auto / pool_size
    out.coverage = coverage
    if not _close(float(report["final_coverage"]), coverage):
        fail(f"final_coverage {report['final_coverage']} != n_auto/pool "
             f"{coverage}")

    if n_auto:
        err = float(np.mean(labels[auto] != truth[ids[auto]]))
        out.final_error = err
        if report["final_error"] is None or not _close(
                float(report["final_error"]), err):
            fail(f"final_error {report['final_error']} != recomputed {err}")
    elif report["final_error"] is not None:
        fail("final_error reported with no auto-labels")

    human = int((sources == "human").sum())
    out.human_labels = human
    queried = sum(int(r.get("n_queried", 0)) for r in rounds)
    if human != seed_size + queried:
        fail(f"{human} human labels != seed {seed_size} + queried {queried}")
    human_truth = truth[ids[sources == "human"]]
    if not np.array_equal(labels[sources == "human"], human_truth):
        fail("a human label differs from the ground truth")


def rounds_digest(run_dirs: "list[str]", root: str) -> str:
    """sha256 over every run's rounds.jsonl, each prefixed by its path."""
    h = hashlib.sha256()
    for d in run_dirs:
        h.update(os.path.relpath(d, root).encode("utf-8") + b"\n")
        try:
            with open(os.path.join(d, "rounds.jsonl"), "rb") as f:
                h.update(f.read())
        except OSError:
            h.update(b"<missing>")
    return h.hexdigest()


def outcome_metrics(outcomes: "list[RunOutcome]") -> dict:
    """Outcome numbers over one iteration's runs (None where undefined)."""
    ok = [o for o in outcomes if o.coverage is not None]
    errs = [o.final_error for o in ok if o.final_error is not None]
    round_errs = [e for o in ok for e in o.round_errors]
    return {
        "coverage": float(np.mean([o.coverage for o in ok])) if ok else None,
        "auto_error": float(np.mean(errs)) if errs else None,
        "err_exceed_frac": (float(np.mean([
            o.final_error is not None and o.final_error > o.eps_a
            for o in ok])) if ok else None),
        "worst_round_error": max(round_errs) if round_errs else None,
        "human_labels": (float(np.mean([o.human_labels for o in ok]))
                         if ok else None),
        "failed_frac": (sum(o.failed for o in outcomes) / len(outcomes)
                        if outcomes else None),
    }
