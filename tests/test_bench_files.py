"""Checks on the committed benchmark results: every ``BENCH_*.json`` at the
repository root reports only workloads and end-to-end metrics that
``BENCHMARK.json`` declares, each with the parent's and the change's runs,
names its parent commit by a hex prefix, claims a metric it reports, and
states statistics that recompute from its runs."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SIDE_KEYS = {"median", "q1", "q3", "runs"}


def declared() -> tuple[set[str], set[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({w["name"] for w in spec["workloads"]},
            {m["name"] for m in spec["end_to_end"]})


def decimals(value: float) -> int:
    """Digits after the point in the shortest repr of a float."""
    text = repr(float(value))
    return 0 if "e" in text else len(text.split(".")[1].rstrip("0"))


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


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_file_statistics_recompute_from_its_runs(path):
    # medians and quartiles are NumPy linear percentiles of the runs, and
    # change_better_pairs counts the seeds where the change reads strictly
    # better; runs and statistics are each rounded to the file's digits, so
    # a statistic may sit up to one unit of the last digit off
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bench = json.loads(path.read_text(encoding="utf-8"))
    results = bench["workloads"].values()
    digits = max(decimals(run) for result in results for sides in result["metrics"].values()
                 for side in ("parent", "change") for run in sides[side]["runs"])
    tolerance = 10.0 ** -digits * (1 + 1e-9)
    for name, result in bench["workloads"].items():
        for metric, sides in result["metrics"].items():
            runs = {side: np.array(sides[side]["runs"], dtype=float) for side in ("parent", "change")}
            for side, values in runs.items():
                for key, q in (("q1", 25), ("median", 50), ("q3", 75)):
                    stated, got = sides[side][key], float(np.percentile(values, q))
                    assert abs(stated - got) <= tolerance, \
                        f"{path.name}: {name} {metric} {side} {key} {stated} != {got}"
            wins = (runs["change"] < runs["parent"] if better[metric] == "lower"
                    else runs["change"] > runs["parent"])
            assert sides["change_better_pairs"] == int(wins.sum()), \
                f"{path.name}: {name} {metric} change_better_pairs"
