"""The span names the benchmark harness reads must name code it wraps.

``perfbench/spans.py`` wraps the public functions and methods of every
``fewview`` module and names each span ``module.qualname``; its ``HOOKS``
and ``layer_metrics`` then look spans up by those names. A name that no
wrapped function carries reads as zero calls and zero seconds, so a refactor
that moves or renames a function would silently zero a per-layer metric.
This test collects every name the harness reads and checks it against the
names ``spans.instrument`` gives. It reads ``perfbench/spans.py`` and
changes nothing there.
"""

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# names the harness reads that no wrapped function carries today, each with
# why (the benchmark's per-layer metric for each reads 0 until the harness
# counts at the call sites that own the work)
UNRESOLVED = {
    "checkpoint.save_checkpoint": "deleted: runs hand checkpoint bytes to artifacts.write_run",
    "evaluation.match_detections": "moved to tests/testkit.py: one matcher scores a stack",
    "mvselect.QNetwork.q_values_batch": "deleted: the rollout values states by forward_cache",
    "mvselect.select_action": "deleted: the array rollout picks its actions inline",
    "numcore.DenseNet.forward": "deleted: DenseNet takes batches through forward_cache",
    "tasknet.MVClassifier.head": "deleted: heads run through head_cache",
    "tasknet.MVDetector.head": "deleted: heads run through head_cache",
    "tasknet.aggregate_max": "deleted: pooling is a max over the view axis",
    "tasknet.pool_with_argmax": "deleted: route_pooled_grad routes the pooled gradient",
}


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Recording(Counter):
    """A counter that records every key it is asked for and does not hold."""

    def __init__(self, asked: set):
        super().__init__()
        self.asked = asked

    def __missing__(self, key):
        self.asked.add(key)
        return 0


def read_names(spans, monkeypatch) -> set:
    """Every span name ``HOOKS`` and ``layer_metrics`` look up."""
    asked = set(spans.HOOKS)
    monkeypatch.setattr(spans, "span_totals",
                        lambda _spans: tuple(_Recording(asked) for _ in range(3)))
    spans.layer_metrics(spans.SpanRecorder())
    return asked


def wrapped_names(spans, monkeypatch) -> set:
    """The name ``spans.instrument`` gives each function it would wrap."""
    names = set()
    # a pass-through wrapper: instrument puts each function back unchanged
    monkeypatch.setattr(spans, "_traced", lambda rec, name, fn: names.add(name) or fn)
    rec = spans.SpanRecorder()
    try:
        spans.instrument(rec)
    finally:
        spans.restore(rec)
    return names


def test_every_span_name_the_harness_reads_is_wrapped(spans, monkeypatch):
    read = read_names(spans, monkeypatch)
    wrapped = wrapped_names(spans, monkeypatch)
    assert len(read) > len(spans.HOOKS)    # layer_metrics' lookups were recorded
    missing = sorted(read - wrapped - set(UNRESOLVED))
    assert not missing, f"span names the harness reads but nothing carries: {missing}"
    back = sorted(set(UNRESOLVED) & wrapped)
    assert not back, f"listed as unresolved but wrapped again, drop them from UNRESOLVED: {back}"
    assert set(UNRESOLVED) <= read, sorted(set(UNRESOLVED) - read)
