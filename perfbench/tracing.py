"""Spans recorded from outside the program, and the per-layer metrics built from them.

The tracer replaces public callables of the lorahop modules with timing
wrappers.  Each call becomes a span (name, start, end, parent, label); spans
stay in memory until the pass ends and are then reduced to per-layer metrics.
Functions are replaced as module attributes, so calls that look them up
through the module (`predictor.forward`, `core.schedule_from_x`) are seen;
methods are replaced on their class, so instances created anywhere are seen.
A call bound by `from module import name` before the wrap escapes it; the
expected-span guard turns that into a loud failure instead of a silent 0 s.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

RUNGS = ("3x3", "4x3", "5x3", "4x4", "5x4")


def _keep_result(args, kwargs, result):
    return result


def _keep_first_arg(args, kwargs, result):
    return args[0]


# (module, class or None, attribute, what the span keeps for counting after the pass)
TARGETS = (
    ("cli", None, "main", None),
    ("trace", None, "load_trace", None),
    ("trace", "ChannelSampler", "sample", None),
    ("sim", None, "run", _keep_result),
    ("telemetry", None, "generate_labeled_dataset", _keep_result),
    ("telemetry", "TelemetryWindow", "snapshot", None),
    ("predictor", None, "train", _keep_result),
    ("predictor", None, "loss_and_grads", None),
    ("predictor", None, "predict_channel", None),
    ("predictor", None, "forward", None),
    ("optimizer", None, "solve_exact", _keep_result),
    ("core", None, "schedule_from_x", None),
    ("recommender", None, "similarity_matrix", None),
    ("recommender", None, "impute", _keep_first_arg),
    ("recommender", None, "sparsify", None),
    ("recommender", None, "evaluate", None),
)


def span_name(module, cls, attr):
    return ".".join(p for p in (module, cls, attr) if p)


@dataclass
class Span:
    name: str
    parent: int         # index of the enclosing span, -1 at the top
    label: str          # operation label current when the span opened
    start: float = 0.0
    end: float = 0.0
    kept: object = None

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Wraps the TARGETS of one import of lorahop; records only while `active`."""

    def __init__(self, modules):
        self.spans = []
        self.active = False
        self.label = ""
        self._stack = []
        self._patched = []
        for module, cls, attr, keep in TARGETS:
            owner = getattr(modules[module], cls) if cls else modules[module]
            self._wrap(owner, attr, span_name(module, cls, attr), keep)

    def _wrap(self, owner, attr, name, keep):
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            span = Span(name, self._stack[-1] if self._stack else -1, self.label)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep is not None:
                span.kept = keep(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take(self, expected):
        """Return and clear this pass's spans; fail if an expected span never ran."""
        spans, self.spans = self.spans, []
        seen = {s.name for s in spans}
        missing = [name for name in expected if name not in seen]
        if missing:
            raise RuntimeError(
                "traced pass recorded no calls for expected spans: " + ", ".join(missing)
                + " (a call no longer goes through the wrapped module attribute)")
        return spans


def _captures(report):
    """Transmissions that survived a shared (slot, frequency) by the capture effect."""
    groups = defaultdict(list)
    for e in report.events:
        groups[(e.slot, e.freq_mhz)].append(e)
    return sum(1 for g in groups.values() if len(g) >= 2 for e in g if not e.collided)


def layer_metrics(spans):
    """Per-layer metrics of one traced pass; layers a workload does not use read 0."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.seconds
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s.name].append(i)

    def total(name):
        return sum(spans[i].seconds for i in by_name[name])

    def self_time(name):
        return sum(spans[i].seconds - child[i] for i in by_name[name])

    def calls(name):
        return len(by_name[name])

    def kept(name):   # what calls that returned normally kept
        return [spans[i].kept for i in by_name[name] if spans[i].kept is not None]

    def per(seconds, count):
        return seconds * 1e6 / count if count else 0.0

    m = {"cli.self_s": self_time("cli.main"), "trace.load_s": total("trace.load_trace")}
    m["trace.sample_calls"] = calls("trace.ChannelSampler.sample")
    m["trace.sample_us"] = per(total("trace.ChannelSampler.sample"), m["trace.sample_calls"])

    reports = kept("sim.run")
    m["sim.run_s"] = total("sim.run")
    m["sim.self_s"] = self_time("sim.run")
    m["sim.slots"] = sum(len({e.slot for e in r.events}) for r in reports)
    m["sim.us_per_slot"] = per(m["sim.run_s"], m["sim.slots"])
    m["sim.collisions"] = sum(row.collisions for r in reports for row in r.rows)
    m["sim.captures"] = sum(_captures(r) for r in reports)
    m["sim.hops"] = sum(row.hops for r in reports for row in r.rows)

    m["telemetry.dataset_s"] = total("telemetry.generate_labeled_dataset")
    m["telemetry.rows"] = sum(len(rows) for rows in kept("telemetry.generate_labeled_dataset"))
    m["telemetry.us_per_row"] = per(m["telemetry.dataset_s"], m["telemetry.rows"])
    m["telemetry.snapshot_calls"] = calls("telemetry.TelemetryWindow.snapshot")
    m["telemetry.snapshot_us"] = per(total("telemetry.TelemetryWindow.snapshot"),
                                     m["telemetry.snapshot_calls"])

    # train calls loss_and_grads once per Adam step plus once per epoch for validation
    train_spans = set(by_name["predictor.train"])
    train_reports = kept("predictor.train")
    grads_in_train = sum(1 for i in by_name["predictor.loss_and_grads"]
                         if spans[i].parent in train_spans)
    validation_calls = sum(len(r.val_loss) for r in train_reports if r.split_sizes[1])
    m["predictor.train_s"] = total("predictor.train")
    m["predictor.adam_steps"] = grads_in_train - validation_calls
    m["predictor.us_per_step"] = per(m["predictor.train_s"], m["predictor.adam_steps"])
    m["predictor.forward_calls"] = calls("predictor.forward")
    m["predictor.forward_us"] = per(total("predictor.forward"), m["predictor.forward_calls"])
    m["predictor.test_accuracy"] = (float(np.mean([r.test_accuracy for r in train_reports]))
                                    if train_reports else 0.0)

    solves = by_name["optimizer.solve_exact"]
    for rung in RUNGS:
        mine = [spans[i] for i in solves if spans[i].label == rung]
        m[f"optimizer.solve_s.{rung}"] = sum(s.seconds for s in mine)
        m[f"optimizer.nodes_expanded.{rung}"] = sum(s.kept.nodes_explored for s in mine if s.kept)
    m["optimizer.us_per_node"] = per(total("optimizer.solve_exact"),
                                     sum(r.nodes_explored for r in kept("optimizer.solve_exact")))
    for rung in RUNGS:
        m[f"core.schedules_built.{rung}"] = sum(
            1 for i in by_name["core.schedule_from_x"] if spans[i].label == rung)
    m["core.schedule_build_us"] = per(total("core.schedule_from_x"),
                                      calls("core.schedule_from_x"))

    imputes = [(spans[i].seconds, int(np.isnan(spans[i].kept).sum()), spans[i].kept.size)
               for i in by_name["recommender.impute"] if spans[i].kept is not None]
    m["recommender.similarity_s"] = total("recommender.similarity_matrix")
    m["recommender.impute_s"] = sum(sec for sec, _, _ in imputes)
    for pct in (10, 90):
        m[f"recommender.impute_s.s{pct}"] = sum(
            sec for sec, missing, size in imputes if round(100 * missing / size) == pct)
    m["recommender.cells_imputed"] = sum(missing for _, missing, _ in imputes)
    m["recommender.us_per_cell"] = per(m["recommender.impute_s"], m["recommender.cells_imputed"])
    m["recommender.sparsify_s"] = total("recommender.sparsify")
    m["recommender.evaluate_s"] = total("recommender.evaluate")
    return m
