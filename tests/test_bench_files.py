"""Checks on the committed benchmark results: every ``BENCH_*.json`` at the
repository root reports only workloads and end-to-end metrics that
``BENCHMARK.json`` declares, each with the parent's and the change's runs,
names its parent commit by a hex prefix, and claims a metric it reports."""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDE_KEYS = {"median", "q1", "q3", "runs"}


def declared() -> tuple[set[str], set[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({w["name"] for w in spec["workloads"]},
            {m["name"] for m in spec["end_to_end"]})


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_reports_declared_metrics_on_both_sides(path):
    workloads, metrics = declared()
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert bench["workloads"], f"{path.name} reports no workload"
    for name, result in bench["workloads"].items():
        assert name in workloads, f"{path.name}: unknown workload {name!r}"
        seeds = result["seeds"]
        assert result["pairs"] == len(seeds) > 0
        assert set(result["metrics"]) <= metrics, \
            f"{path.name}: {name} reports metrics outside BENCHMARK.json"
        for metric, sides in result["metrics"].items():
            for side in ("parent", "change"):
                assert SIDE_KEYS <= set(sides[side]), f"{path.name}: {name} {metric} {side}"
                assert len(sides[side]["runs"]) == len(seeds)
                assert sides[side]["q1"] <= sides[side]["median"] <= sides[side]["q3"]


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_claims_a_reported_metric_against_a_commit(path):
    bench = json.loads(path.read_text(encoding="utf-8"))
    assert re.fullmatch(r"[0-9a-f]{7,40}", bench["parent"]), f"{path.name}: parent {bench['parent']!r}"
    workload, metric = bench["claimed"]["workload"], bench["claimed"]["metric"]
    assert workload in bench["workloads"], f"{path.name}: claims unreported workload {workload!r}"
    assert metric in bench["workloads"][workload]["metrics"], \
        f"{path.name}: claims {metric!r}, which it does not report for {workload}"
