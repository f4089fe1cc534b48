"""Span tracer and the per-layer instrumentation of the program.

`instrument(tracer)` replaces the public functions of each layer with
wrappers that open a span around the call and bump that layer's counters,
and returns a function that puts the originals back. Every module attribute
bound to a wrapped function is replaced, so names imported with
`from .x import f` are traced too. Nothing in the program changes on disk.

A span records its name, start, end and parent span; self time is a span's
duration minus the durations of its direct children. Spans stay in memory
and are written once, when the traced run ends.

Layers are named after the program's modules. Left out: `rng` (under 1% of
any run) and `verify`, `numcheck`, `cli` (not on the run path).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# per-layer metric name -> unit, in report order
PER_LAYER_UNITS = {
    "thresholds.estimate_s": "s",
    "thresholds.calls": "count",
    "thresholds.points": "count",
    "confidence.fit_s": "s",
    "confidence.grad_steps": "count",
    "confidence.grad_rows": "count",
    "confidence.scores_s": "s",
    "confidence.scores_rows": "count",
    "mlp.train_s": "s",
    "mlp.train_calls": "count",
    "mlp.train_rows": "count",
    "mlp.forward_s": "s",
    "mlp.forward_calls": "count",
    "mlp.forward_rows": "count",
    "data.split_s": "s",
    "data.pool_without_s": "s",
    "data.merge_s": "s",
    "data.gather_rows": "count",
    "data.gather_mb": "MB",
    "loop.rounds": "count",
    "loop.self_s": "s",
    "loop.select_s": "s",
    "loop.filter_s": "s",
    "loop.query_s": "s",
    "runner.materialize_s": "s",
    "runner.score_dump_s": "s",
    "runner.log_s": "s",
    "runner.bytes_written": "bytes",
    "config.parse_s": "s",
    "trace.overhead_s": "s",
}

# per-layer metrics the worker and run.py measure, not the tracer
MEASURED_OUTSIDE = ("runner.bytes_written", "trace.overhead_s")

# span name -> the self-time metric it feeds
SPAN_METRICS = {
    "thresholds.estimate": "thresholds.estimate_s",
    "confidence.fit": "confidence.fit_s",
    "confidence.scores": "confidence.scores_s",
    "mlp.train": "mlp.train_s",
    "mlp.forward": "mlp.forward_s",
    "data.split": "data.split_s",
    "data.pool_without": "data.pool_without_s",
    "data.merge": "data.merge_s",
    "loop": "loop.self_s",
    "loop.select": "loop.select_s",
    "loop.filter": "loop.filter_s",
    "loop.query": "loop.query_s",
    "runner.materialize": "runner.materialize_s",
    "runner.score_dump": "runner.score_dump_s",
    "runner.log": "runner.log_s",
    "config.parse": "config.parse_s",
}


class Tracer:
    """In-memory spans ([name, start, end, parent index]) and counters."""

    def __init__(self):
        self.spans: list = []
        self.counters: dict = defaultdict(float)
        self.missing: list = []
        self._stack: list = []

    def call(self, name: str, fn, args, kwargs):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict:
        """Summed self time per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return out

    def layer_metrics(self) -> dict:
        """Every per-layer metric the spans and counters give."""
        times = self.self_times()
        out = {metric: times.get(span, 0.0)
               for span, metric in SPAN_METRICS.items()}
        for name in PER_LAYER_UNITS:
            if name not in out and name not in MEASURED_OUTSIDE:
                out[name] = float(self.counters.get(name, 0.0))
        return out

    def write(self, f, label: str) -> None:
        """Append this tracer's spans to an open file, one JSON line each."""
        for i, (name, start, end, parent) in enumerate(self.spans):
            f.write(json.dumps({"trace": label, "id": i, "name": name,
                                "start": start, "end": end,
                                "parent": parent}) + "\n")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _gather(a, kw, result):
    return {"data.gather_rows": result.shape[0],
            "data.gather_mb": result.nbytes / 1e6}


def _targets(al):
    """(owner, attribute, span name or None, counters) for every traced call.

    `counters(args, kwargs, result)` returns {counter: amount}.
    """
    conf, data, loop, mlp = al.confidence, al.data, al.loop, al.mlp
    targets = [
        (al.thresholds, "estimate_thresholds", "thresholds.estimate",
         lambda a, kw, r: {"thresholds.calls": 1,
                           "thresholds.points": len(_arg(a, kw, 2, "d_th"))}),
        (conf, "objective_grad", None,
         lambda a, kw, r: {"confidence.grad_steps": 1,
                           "confidence.grad_rows": _arg(a, kw, 1, "Z").shape[0]}),
        (loop, "fit_posthoc", "confidence.fit", None),
        (mlp, "train_model", "mlp.train",
         lambda a, kw, r: {
             "mlp.train_calls": 1,
             "mlp.train_rows": _arg(a, kw, 0, "config").max_epochs
             * len(_arg(a, kw, 1, "train_set"))}),
        (mlp.MlpClassifier, "representations", "mlp.forward",
         lambda a, kw, r: {"mlp.forward_calls": 1,
                           "mlp.forward_rows": _arg(a, kw, 1, "X").shape[0]}),
        (data, "random_split", "data.split", None),
        (data.Pool, "without", "data.pool_without", None),
        (data.LabeledSet, "merged_with", "data.merge", None),
        (loop, "run_tbal", "loop",
         lambda a, kw, r: {"loop.rounds": len(r.rounds)}),
        (loop, "auto_label_select", "loop.select", None),
        (loop, "filter_validation", "loop.filter", None),
        (loop, "active_query", "loop.query", None),
        (al.runner, "materialize_dataset", "runner.materialize", None),
        (conf, "write_score_dump", "runner.score_dump", None),
        (loop, "dump_round_log", "runner.log", None),
        (loop, "dump_report", "runner.log", None),
        (al.config, "parse_config", "config.parse", None),
    ]
    todo = [conf.ConfidenceModel]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not conf.ConfidenceModel and "scores" in vars(cls):
            targets.append((cls, "scores", "confidence.scores",
                            lambda a, kw, r: {"confidence.scores_rows":
                                              _arg(a, kw, 1, "X").shape[0]}))
    return targets


def _wrap(tracer: Tracer, fn, span, counters):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if span is None:
            result = fn(*args, **kwargs)
        else:
            result = tracer.call(span, fn, args, kwargs)
        if counters is not None:
            for key, amount in counters(args, kwargs, result).items():
                tracer.counters[key] += amount
        return result
    return wrapper


def instrument(tracer: Tracer, al):
    """Wrap every traced call of the imported package `al`; return undo()."""
    undo = []
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == al.__name__
                                     or name.startswith(al.__name__ + "."))]
    for owner, attr, span, counters in _targets(al):
        original = getattr(owner, attr, None)
        if original is None:
            # a renamed or removed function: report it, trace the rest
            tracer.missing.append(f"{owner.__name__}.{attr}")
            continue
        wrapper = _wrap(tracer, original, span, counters)
        if isinstance(owner, type):
            undo.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, wrapper)
            continue
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, name, value))
                    setattr(mod, name, wrapper)
    for cls in (al.data.Pool, al.data.LabeledSet):
        prop = vars(cls).get("features")
        if not isinstance(prop, property):
            tracer.missing.append(f"{cls.__name__}.features")
            continue
        undo.append((cls, "features", prop))
        setattr(cls, "features", property(_wrap(tracer, prop.fget, None,
                                                _gather)))

    def restore():
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)
    return restore
