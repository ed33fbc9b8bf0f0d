"""Span recorder for the traced benchmark run.

``instrument`` wraps the public functions and methods of every ``fewview``
module from outside the package: each call becomes a span (name, start, end,
parent) kept in memory, and a few calls also bump counters taken from their
arguments or results (rows through a dense layer, peaks found, bytes
written). ``restore`` puts the original functions back, so untraced passes
run the unmodified program. ``layer_metrics`` turns the spans of one pass
into the per-layer numbers listed in ``BENCHMARK.json``.

Self time is a span's duration minus the durations of its direct children,
so private helpers that are not wrapped (for example the rollout and
gradient-scatter code inside ``training``) count towards the public function
that called them.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import math
import os
import pkgutil
from collections import Counter
from time import perf_counter


class SpanRecorder:
    """In-memory spans plus named counters."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.instances: set = set()
        self._undo: list = []

    def write(self, fh, origin: float, label) -> None:
        """One JSON array per span: label, name, start and end in seconds
        after ``origin``, and the index of the parent span (-1 for none)."""
        for name, start, end, parent in self.spans:
            fh.write(json.dumps([label, name, start - origin, end - origin, parent]) + "\n")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_rows(rec, args, kwargs, result):
    net, x = args[0], _arg(args, kwargs, 1, "x")
    rec.counts["forward_rows"] += getattr(x, "size", 0) // net.in_dim


def _count_views(rec, args, kwargs, result):
    shape = getattr(_arg(args, kwargs, 1, "obs"), "shape", ())
    if type(args[0]).__name__ == "MVDetector":       # (V, C, H, W): one frame
        views, frames = shape[0], 1
    else:                                            # (..., N, D)
        views = math.prod(shape[:-1])
        frames = math.prod(shape[:-2]) if len(shape) >= 3 else 1
    rec.counts["views"] += views
    rec.counts["frames"] += frames


def _count_q_rows(rec, args, kwargs, result):
    rec.counts["q_rows"] += len(_arg(args, kwargs, 1, "states"))


def _count_step(rec, args, kwargs, result):
    rec.counts["selection_steps"] += 1


def _count_greedy_steps(rec, args, kwargs, result):
    # one action per initial view per step after the first
    rec.counts["selection_steps"] += result.shape[0] * (result.shape[1] - 1)


def _count_peaks(rec, args, kwargs, result):
    rec.counts["peaks"] += len(result)


def _count_instance(rec, args, kwargs, result):
    rec.instances.add((_arg(args, kwargs, 1, "split"), _arg(args, kwargs, 2, "index")))


def _count_ckpt_bytes(rec, args, kwargs, result):
    rec.counts["checkpoint_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_write_bytes(rec, args, kwargs, result):
    rec.counts["artifact_bytes"] += len(_arg(args, kwargs, 1, "payload"))


def _count_subsets(rec, args, kwargs, result):
    rec.counts["subsets"] += int(result)


HOOKS = {
    "numcore.DenseNet.forward": _count_rows,
    "numcore.DenseNet.forward_cache": _count_rows,
    "tasknet.MVClassifier.features": _count_views,
    "tasknet.MVClassifier.features_cache": _count_views,
    "tasknet.MVDetector.features": _count_views,
    "tasknet.MVDetector.features_cache": _count_views,
    "mvselect.QNetwork.q_values_batch": _count_q_rows,
    "mvselect.QNetwork.forward_cache": _count_q_rows,
    "mvselect.select_action": _count_step,
    "training.greedy_sequences": _count_greedy_steps,
    "evaluation.extract_peaks": _count_peaks,
    "envs.ClassificationWorld.instance": _count_instance,
    "envs.DetectionWorld.instance": _count_instance,
    "checkpoint.save_checkpoint": _count_ckpt_bytes,
    "checkpoint.load_checkpoint": _count_ckpt_bytes,
    "artifacts.atomic_write_bytes": _count_write_bytes,
    "training.check_enumeration_budget": _count_subsets,
}


def _traced(rec: SpanRecorder, name: str, fn):
    hook = HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        stack = rec.stack
        span = [name, 0.0, 0.0, stack[-1] if stack else -1]
        stack.append(len(rec.spans))
        rec.spans.append(span)
        span[1] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    return traced


def package_modules(package: str = "fewview") -> list:
    pkg = importlib.import_module(package)
    return [importlib.import_module(f"{package}.{info.name}")
            for info in pkgutil.iter_modules(pkg.__path__)]


def _class_members(cls):
    """(attribute, descriptor, function) for each public method, plus
    ``__init__`` of non-dataclass classes (world construction, net builds)."""
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_") and not (attr == "__init__" and not dataclasses.is_dataclass(cls)):
            continue
        if isinstance(member, (staticmethod, classmethod)):
            yield attr, member, member.__func__
        elif inspect.isfunction(member):
            yield attr, member, member


def instrument(rec: SpanRecorder, package: str = "fewview") -> None:
    """Wrap every public function and method of the package's modules."""
    modules = package_modules(package)
    wrappers = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                wrappers[id(obj)] = _traced(rec, f"{short}.{obj.__qualname__}", obj)
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for name, member, fn in _class_members(obj):
                    wrapped = _traced(rec, f"{short}.{fn.__qualname__}", fn)
                    if isinstance(member, (staticmethod, classmethod)):
                        wrapped = type(member)(wrapped)
                    setattr(obj, name, wrapped)
                    rec._undo.append((obj, name, member))
    # a function imported by name into another module is bound there too
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and id(obj) in wrappers:
                setattr(mod, attr, wrappers[id(obj)])
                rec._undo.append((mod, attr, obj))


def restore(rec: SpanRecorder) -> None:
    while rec._undo:
        owner, attr, original = rec._undo.pop()
        setattr(owner, attr, original)


def clear_caches(package: str = "fewview") -> None:
    """Empty the package's memoisation caches so a traced pass builds its
    world from scratch, as a fresh process would."""
    for mod in package_modules(package):
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


# ---------------------------------------------------------------------------
# per-layer metrics


def _ratio(num, den):
    return num / den if den else 0.0


def span_totals(spans) -> tuple[Counter, Counter, Counter]:
    """Calls, total seconds and self seconds per span name."""
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, total, own = Counter(), Counter(), Counter()
    for (name, start, end, _parent), inner in zip(spans, child):
        calls[name] += 1
        total[name] += end - start
        own[name] += end - start - inner
    return calls, total, own


def layer_metrics(rec: SpanRecorder) -> dict:
    """The per-layer metrics of one traced pass."""
    calls, total, own = span_totals(rec.spans)
    counts = rec.counts

    def s(*names):
        return sum(total[n] for n in names)

    def c(*names):
        return sum(calls[n] for n in names)

    def self_of(prefix):
        return sum(v for n, v in own.items() if n.startswith(prefix))

    instance = ("envs.ClassificationWorld.instance", "envs.DetectionWorld.instance")
    forward = ("numcore.DenseNet.forward", "numcore.DenseNet.forward_cache")
    features = tuple(f"tasknet.{k}.{m}" for k in ("MVClassifier", "MVDetector")
                     for m in ("features", "features_cache"))
    heads = tuple(f"tasknet.{k}.{m}" for k in ("MVClassifier", "MVDetector")
                  for m in ("head", "head_cache"))
    task_backward = tuple(f"tasknet.{k}.{m}" for k in ("MVClassifier", "MVDetector")
                          for m in ("features_backward", "head_backward"))
    pool = ("tasknet.aggregate_max", "tasknet.pool_with_argmax", "tasknet.route_pooled_grad")
    q_forward = ("mvselect.QNetwork.q_values_batch", "mvselect.QNetwork.forward_cache")
    oracles = ("training.dataset_oracle_table", "training.instance_oracle_table")
    hashes = ("artifacts.sha256_file", "artifacts.sha256_bytes")
    return {
        "envs.instance_calls": c(*instance),
        "envs.instance_unique": len(rec.instances),
        "envs.instance_s": s(*instance),
        "envs.world_build_s": s("envs.ClassificationWorld.__init__", "envs.DetectionWorld.__init__"),
        "numcore.forward_calls": c(*forward),
        "numcore.forward_rows": counts["forward_rows"],
        "numcore.forward_s": s(*forward),
        "numcore.backward_calls": c("numcore.DenseNet.backward"),
        "numcore.backward_s": s("numcore.DenseNet.backward"),
        "numcore.adam_steps": c("numcore.Adam.step"),
        "numcore.adam_s": s("numcore.Adam.step"),
        "tasknet.features_calls": c(*features),
        "tasknet.views_featurized": counts["views"],
        "tasknet.views_per_frame": _ratio(counts["views"], counts["frames"]),
        "tasknet.features_s": s(*features),
        "tasknet.head_calls": c(*heads),
        "tasknet.head_s": s(*heads),
        "tasknet.backward_s": s(*task_backward),
        "tasknet.pool_s": s(*pool),
        "mvselect.q_calls": c(*q_forward),
        "mvselect.q_rows": counts["q_rows"],
        "mvselect.q_rows_per_step": _ratio(counts["q_rows"], counts["selection_steps"]),
        "mvselect.q_s": s(*q_forward),
        "mvselect.q_backward_s": s("mvselect.QNetwork.backward"),
        "mvselect.td_targets_s": s("mvselect.td_targets"),
        "training.self_s.task": own["training.train_task_network"],
        "training.self_s.select-fixed": own["training.train_selector_fixed"],
        "training.self_s.joint": own["training.train_joint"],
        "training.greedy_s": s("training.greedy_sequences"),
        "training.oracle_table_s": s(*oracles),
        "training.subsets_scored": counts["subsets"],
        "evaluation.extract_peaks_calls": c("evaluation.extract_peaks"),
        "evaluation.extract_peaks_s": s("evaluation.extract_peaks"),
        "evaluation.peaks_per_frame": _ratio(counts["peaks"], c("evaluation.extract_peaks")),
        "evaluation.match_calls": c("evaluation.match_detections"),
        "evaluation.match_s": s("evaluation.match_detections"),
        "studies.self_s": self_of("studies."),
        "cli.self_s": self_of("cli."),
        "config.load_s": s("config.load_config"),
        "checkpoint.save_s": s("checkpoint.save_checkpoint"),
        "checkpoint.load_s": s("checkpoint.load_checkpoint"),
        "checkpoint.bytes": counts["checkpoint_bytes"],
        "artifacts.writes": c("artifacts.atomic_write_bytes"),
        "artifacts.write_s": s("artifacts.atomic_write_bytes"),
        "artifacts.bytes": counts["artifact_bytes"],
        "artifacts.hash_s": s(*hashes),
    }
