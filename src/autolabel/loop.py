"""The auto-labeling workflow.

Each round: train a classifier on the human labels gathered so far, split the
surviving validation data into a calibration half (fits the confidence
function) and a threshold half (estimates per-class thresholds with a safety
margin), auto-label every pool point whose predicted-class confidence clears
its class threshold, drop validation points in that same region, then spend
the next slice of the human budget on uncertain pool points. A round buys a
batch only if the next round can train on all of it within the budget, and
rounds repeat until the pool empties or a round buys nothing.

A round runs the classifier once per set: one pass over validation feeds
the post-hoc fit, the thresholds and the filter, and one over the pool
feeds the selection and the query. Each round's record keeps its fit.

All randomness flows from the seed ``run_tbal`` takes through per-(round,
purpose) child streams, so runs are bit-reproducible and changing, say, the
post-hoc method never perturbs the query draws.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field

import numpy as np

from .confidence import (ConfidenceModel, PosthocConfig, SoftmaxConfig,
                         fit_posthoc)
from .data import (LabeledSet, Pool, _Config, _is_integer, random_query,
                   random_split)
from .mlp import TrainConfig, margin_scores, softmax, train_model
from .rng import child_seed
from .thresholds import (
    ThresholdConfig,
    ThresholdVector,
    estimate_thresholds,
    predicted_scores,
)


@dataclass(frozen=True)
class TbalConfig(_Config):
    """Everything one workflow run needs besides the data itself.

    ``thresholds`` holds the error tolerance eps_a, the coverage floor, the
    C1 safety margin and the threshold grid, as ``estimate_thresholds``
    reads them; ``train`` holds the classifier's fitting settings, and
    ``posthoc``, one of the ``PosthocConfig`` classes, names the
    confidence function and holds its settings.
    """

    RANGES = {"train_budget": ">= 1", "query_batch": ">= 1",
              "cal_fraction": "in (0, 1)", "active_multiplier": ">= 1"}

    train_budget: int
    seed_size: int
    query_batch: int
    cal_fraction: float = 0.5
    thresholds: ThresholdConfig = field(default_factory=ThresholdConfig)
    hidden: tuple = (32,)
    train: TrainConfig = field(default_factory=TrainConfig)
    posthoc: PosthocConfig = field(default_factory=SoftmaxConfig)
    active_multiplier: float = 2.0

    def __post_init__(self):
        super().__post_init__()
        if not (1 <= self.seed_size <= self.train_budget):
            raise ValueError("seed_size must be in [1, train_budget]")
        if not self.hidden or not all(_is_integer(w) and w >= 1
                                      for w in self.hidden):
            raise ValueError("hidden must be a non-empty tuple of integer "
                             "widths >= 1")
        if not isinstance(self.posthoc, PosthocConfig):
            raise ValueError(f"posthoc must be one of the PosthocConfig "
                             f"classes, not {type(self.posthoc).__name__}")


@dataclass(frozen=True)
class RoundFit:
    """One round's fit on ``val``: confidence function ``g``, thresholds,
    ``predicted_scores`` of ``val``'s one pass (``top, preds``), the row
    positions of the calibration and threshold halves, and the post-hoc
    fit's warning or None."""

    val: LabeledSet
    g: ConfidenceModel
    thresholds: ThresholdVector
    top: np.ndarray
    preds: np.ndarray
    cal: np.ndarray
    th: np.ndarray
    warning: str | None


@dataclass
class RoundRecord:
    """What one round did; serialized as one line of the round log."""

    round_index: int
    n_train: int
    n_val: int
    fit: RoundFit
    n_auto: int
    n_queried: int
    n_pool_remaining: int
    auto_error: float | None
    auto_coverage: float

    def to_jsonable(self) -> dict:
        # not dataclasses.asdict, which deep-copies the fit's arrays
        doc = {f.name: getattr(self, f.name)
               for f in dataclasses.fields(self) if f.name != "fit"}
        fit = self.fit
        doc.update(thresholds=fit.thresholds.to_jsonable(),
                   n_cal=len(fit.cal), n_th=len(fit.th))
        return doc


@dataclass
class TbalReport:
    """A run's rounds and its output: every labeled point, in labeling
    order, with its source ("human" or "auto") and the round that labeled
    it (0 for the seed set). ``final_error`` is the rounds' mistakes over
    their auto-labels, ``final_coverage`` their auto-labels over the
    initial pool."""

    rounds: "list[RoundRecord]"
    output: LabeledSet
    output_sources: np.ndarray
    output_rounds: np.ndarray
    n_initial_pool: int
    final_error: float | None
    final_coverage: float
    warnings: "list[str]"

    def to_jsonable(self) -> dict:
        out = self.output
        return {
            "n_initial_pool": self.n_initial_pool,
            "final_error": self.final_error,
            "final_coverage": self.final_coverage,
            "n_rounds": len(self.rounds),
            "warnings": list(self.warnings),
            "rounds": [r.to_jsonable() for r in self.rounds],
            "output": {
                "ids": out.indices.tolist(),
                "labels": out.labels.tolist(),
                "sources": self.output_sources.tolist(),
                "rounds": self.output_rounds.tolist(),
            },
        }


# ---------------------------------------------------------------------------
# per-round pieces


def auto_label_select(t: ThresholdVector, pool: Pool, top: np.ndarray,
                      preds: np.ndarray):
    """Label-and-remove every pool point whose confidence clears its threshold.

    ``top, preds`` are ``predicted_scores`` of ``pool``'s rows. Selected
    points receive the classifier's prediction as their label. Returns
    (auto-labeled set, pool left, mask of ``pool``'s rows left).
    """
    sel = t.selects(top, preds)
    left = ~sel
    labeled = LabeledSet(pool.dataset, pool.active[sel], preds[sel])
    return labeled, Pool(pool.dataset, pool.active[left]), left


def filter_validation(t: ThresholdVector, val: LabeledSet, top: np.ndarray,
                      preds: np.ndarray) -> LabeledSet:
    """Keep only validation points BELOW threshold; labels stay untouched.

    ``top, preds`` are ``predicted_scores`` of ``val``'s rows.
    """
    return val.take(np.flatnonzero(~t.selects(top, preds)))


def active_query(logits: np.ndarray, pool: Pool, n_b: int, C: float,
                 seed: int) -> tuple[LabeledSet, Pool]:
    """Margin-random querying: sample n_b points among the C*n_b least-margin.

    ``logits`` are the classifier's logits of ``pool``'s rows, in its order.
    Margins always come from the classifier's raw softmax, whatever post-hoc
    confidence the round used. Ties in margin break by pool index so the
    candidate set is deterministic.
    """
    if pool.size == 0:
        raise ValueError("cannot query an empty pool")
    margins = margin_scores(softmax(logits))
    n_cand = min(int(C * n_b + 1e-9), pool.size)
    order = np.lexsort((pool.active, margins))
    candidates = pool.active[order[:n_cand]]
    take = min(n_b, n_cand)
    rng = np.random.default_rng(seed)
    pick = rng.choice(n_cand, size=take, replace=False)
    chosen = np.sort(candidates[pick])
    return LabeledSet.from_oracle(pool.dataset, chosen), pool.without(chosen)


def seed_query(cfg: TbalConfig, pool: Pool, seed: int):
    """(seed set, pool left): round 0's random query of ``cfg.seed_size``
    human labels from the initial ``pool``, as every run with ``seed``
    starts."""
    return random_query(pool, cfg.seed_size, child_seed(seed, 0, "seed_query"))


def train_round(cfg: TbalConfig, d_train: LabeledSet, round_index: int,
                seed: int):
    """The classifier of round ``round_index``, trained on ``d_train`` from
    the run ``seed``'s child for (round, "train")."""
    return train_model(cfg.train, d_train, cfg.hidden,
                       child_seed(seed, round_index, "train"))


def fit_round(cfg: TbalConfig, model, val: LabeledSet, round_index: int,
              seed: int) -> RoundFit:
    """Split + fit confidence + estimate thresholds for one round's ``model``
    on ``val``, from one pass of the classifier over it.

    Each step draws from its own child of the run's ``seed`` for this round.
    Shared by the main loop and by first-round-only hyperparameter search.
    """
    logits, penultimate = model.representations(
        val.dataset.features, val.indices)
    cal, th = random_split(len(val), cfg.cal_fraction,
                           child_seed(seed, round_index, "split"))
    g, warning = fit_posthoc(cfg.posthoc, logits[cal], penultimate[cal],
                             val.labels[cal],
                             child_seed(seed, round_index, "posthoc"))
    top, preds = predicted_scores(g, logits, penultimate)
    t_hat = estimate_thresholds(top[th], preds[th], val.labels[th],
                                val.dataset.num_classes, cfg.thresholds)
    return RoundFit(val, g, t_hat, top, preds, cal, th, warning)


# ---------------------------------------------------------------------------
# the loop


def run_tbal(cfg: TbalConfig, initial_pool: Pool, d_val: LabeledSet,
             seed: int) -> TbalReport:
    """Run the full workflow on an unlabeled pool plus human validation data.

    The pool and the validation set may be row sets of one Dataset; every
    label the run assigns indexes ``initial_pool.dataset``. Every random
    draw of the run derives from ``seed``.

    A round queries a batch of ``cfg.query_batch`` human labels only when
    the next round can train on all of it within ``cfg.train_budget``; the
    run ends after a round that queries nothing, so it never spends more
    than the budget.
    """
    if len(d_val) < 2:
        raise ValueError("need at least 2 validation points")
    data = initial_pool.dataset
    d_train, pool = seed_query(cfg, initial_pool, seed)
    # (set, source, round) of every labeled set, in labeling order
    parts = [(d_train, "human", 0)]
    val = d_val
    records: list[RoundRecord] = []
    warnings: list[str] = []
    if pool.size == 0:
        warnings.append("round 1: the seed query took the whole pool; "
                        "no round ran")
    # auto-labels and mistakes over all rounds
    total_auto = total_wrong = 0
    i = 1
    while pool.size > 0:
        if len(val) < 2:
            warnings.append(
                f"round {i}: validation exhausted ({len(val)} point(s) left); "
                "stopping with pool unlabeled")
            break
        model = train_round(cfg, d_train, i, seed)
        fit = fit_round(cfg, model, val, i, seed)
        if fit.warning:
            warnings.append(f"round {i}: {fit.warning}")
        logits, penultimate = model.representations(data.features,
                                                    pool.active)
        top, preds = predicted_scores(fit.g, logits, penultimate)
        auto_set, pool, left = auto_label_select(fit.thresholds, pool, top,
                                                 preds)
        n_auto = len(auto_set)
        # truth is read here to score the round, never to choose its labels
        wrong = int(np.count_nonzero(
            auto_set.labels != data.hidden_labels[auto_set.indices]))
        total_auto += n_auto
        total_wrong += wrong
        val = filter_validation(fit.thresholds, val, fit.top, fit.preds)
        n_train = len(d_train)
        if pool.size > 0 and n_train + cfg.query_batch <= cfg.train_budget:
            query, pool = active_query(
                logits[left], pool, cfg.query_batch, cfg.active_multiplier,
                child_seed(seed, i, "active"))
        else:
            query = LabeledSet.empty(data)
        parts += [(auto_set, "auto", i), (query, "human", i)]
        d_train = d_train.merged_with(query)
        records.append(RoundRecord(
            round_index=i,
            n_train=n_train,
            n_val=len(val),
            fit=fit,
            n_auto=n_auto,
            n_queried=len(query),
            n_pool_remaining=pool.size,
            auto_error=wrong / n_auto if n_auto else None,
            auto_coverage=n_auto / len(top),  # of the pool it started with
        ))
        if not len(query):
            break
        i += 1
    sets, sources, stamps = zip(*parts)
    sizes = [len(s) for s in sets]
    out = LabeledSet(data, np.concatenate([s.indices for s in sets]),
                     np.concatenate([s.labels for s in sets]))
    return TbalReport(
        rounds=records,
        output=out,
        output_sources=np.repeat(sources, sizes),
        output_rounds=np.repeat(stamps, sizes),
        n_initial_pool=initial_pool.size,
        final_error=total_wrong / total_auto if total_auto else None,
        final_coverage=total_auto / initial_pool.size,
        warnings=warnings,
    )


# ---------------------------------------------------------------------------
# serialization


def dump_round_log(report: TbalReport, path: str) -> None:
    """One JSON object per round, byte-stable across reruns."""
    with open(path, "w") as f:
        for rec in report.rounds:
            f.write(json.dumps(rec.to_jsonable(), sort_keys=True))
            f.write("\n")


def dump_report(report: TbalReport, path: str) -> None:
    """The whole report as one sorted-key JSON line, byte-stable across
    reruns; each ``rounds`` entry is that round's ``dump_round_log`` line."""
    with open(path, "w") as f:
        f.write(json.dumps(report.to_jsonable(), sort_keys=True))
        f.write("\n")
