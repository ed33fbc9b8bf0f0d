"""fewview benchmark.

    python3 perfbench/run.py --workload cls-cli --seed 0 --seconds 20 --trace 0

Runs one workload (see ``workloads.py``) from the root of a checkout: times
set-up in fresh interpreters, then repeats the workload's timed pass until
``--seconds`` have elapsed, checks every operation's outputs, and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the ``end_to_end`` list of
``BENCHMARK.json``; with ``--trace 1`` passes alternate untraced and traced
and the metrics are the ``per_layer`` list, including the tracing overhead.
Every time is reported at a reference host speed: each op's seconds are
scaled by the ratio of a reference time to the time of ``HostProbe``, a
fixed piece of work timed around the op (see ``workloads.py``). A full
report (environment, every operation with its raw seconds, diagnostics) and
the recorded spans go to ``.perfbench_out/`` in the checkout.

The process re-executes itself once with a fixed environment: BLAS and
OpenMP pools pinned to one thread (one OpenBLAS thread ran detector training
about 15% faster than two on a 2-vCPU machine), and glibc's mmap and trim
thresholds fixed. With glibc's adaptive thresholds the multi-megabyte
temporaries of detector training were sometimes mapped and unmapped on every
step and sometimes reused, so the same four epochs took 3.5 s in one pass and
7.8 s in the next; fixed thresholds keep them on the heap in every pass.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
WORKLOAD_NAMES = ("cls-cli", "det-train", "det-eval")
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "MALLOC_MMAP_THRESHOLD_": str(32 << 20),
    "MALLOC_TRIM_THRESHOLD_": str(64 << 20),
}
SETUP_REPEATS = 3


def bootstrap() -> None:
    """Re-execute the running script under ``PINNED_ENV`` unless it already
    runs there (the allocator reads its settings at process start), then
    make ``src/`` importable. Call before NumPy is imported."""
    if not (SRC / "fewview" / "__init__.py").is_file():
        raise SystemExit(f"error: no fewview sources under {SRC}")
    if any(os.environ.get(k) != v for k, v in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable] + sys.argv)
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy
    import scipy

    blas = getattr(numpy.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "cpu_features": sorted(k for k, on in features.items() if on),
        "threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "malloc": {k: v for k, v in sorted(os.environ.items()) if k.startswith("MALLOC_")},
    }


def fingerprint(env: dict) -> dict:
    """What must match for recorded reference outputs to be comparable:
    float results depend on the library builds and the SIMD paths taken."""
    return {k: env[k] for k in ("machine", "python", "numpy", "scipy", "blas", "cpu_features")}


def load_reference(env: dict, workload: str, seed: int) -> tuple[dict | None, str]:
    """Recorded outputs per op for this seed, or None with the reason."""
    if not REFERENCE.is_file():
        return None, "no reference file"
    body = json.loads(REFERENCE.read_text())
    if body["fingerprint"] != fingerprint(env):
        return None, "skipped: recorded under a different environment"
    ref = body["seeds"].get(workload, {}).get(str(seed))
    if ref is None:
        return None, "seed not recorded"
    return ref, "checked"


def check_ops(ops, first_outputs: dict, reference: dict | None, bound_violations) -> list[str]:
    """Mark failed ops in place; returns one message per failure."""
    problems = []
    for op in ops:
        reasons = [op.error] if op.error else []
        if not op.error:
            if op.name in first_outputs and op.outputs != first_outputs[op.name]:
                reasons.append(f"outputs differ from the first pass: {op.outputs} "
                               f"vs {first_outputs[op.name]}")
            first_outputs.setdefault(op.name, op.outputs)
            if reference is not None and reference.get(op.name) != op.outputs:
                reasons.append(f"outputs {op.outputs} differ from reference {reference.get(op.name)}")
        op.failed = bool(reasons)
        problems += [f"{op.name}: {r}" for r in reasons]
    for oracle, message in bound_violations(ops):
        oracle.failed = True
        problems.append(message)
    return problems


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(wl_module, name, fixture, passes, setup_ops) -> dict:
    samples = ([fixture] if fixture else []) + [p["ops"] for p in passes]
    out = {"setup_s": median([op.host_seconds for op in setup_ops]),
           "wall_s": median([sum(op.host_seconds for op in p["ops"]) for p in passes]),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    for metric, phase in wl_module.RATE_PHASES.items():
        rates = []
        for ops in samples:
            picked = [op for op in ops if op.phase == phase]
            if picked:
                rates.append(sum(op.work for op in picked) / sum(op.host_seconds for op in picked))
        out[metric] = median(rates)
    first = {op.name: op for op in passes[0]["ops"]}
    for metric, op_name in wl_module.PRIMARY_OPS[name].items():
        out[metric] = first[op_name].outputs["primary"] if op_name in first else 0.0
    return out


def per_layer(spans_module, passes, diagnostics) -> dict:
    traced = [p for p in passes if p["recorder"] is not None]
    plain = [p for p in passes if p["recorder"] is None]
    per_pass = [spans_module.layer_metrics(p["recorder"]) for p in traced]
    out = {k: median([m[k] for m in per_pass]) for k in per_pass[0]} if per_pass else {}
    wall = lambda group: median([sum(op.host_seconds for op in p["ops"]) for p in group])  # noqa: E731
    out["trace.overhead_s"] = wall(traced) - wall(plain)
    out["trace.spans"] = median([len(p["recorder"].spans) for p in traced])
    out["diag.cost_ratio"] = diagnostics["cost_ratio"]
    out["diag.time_ratio"] = diagnostics["time_ratio"]
    return out


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="fewview benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="keep starting timed passes until this much time has passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny worlds for the benchmark's own test; not comparable")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap()
    import spans
    import workloads

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    env = environment()
    tag = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-smoke" if args.smoke else "")
    out_dir = OUT / tag
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    reference, reference_status = (None, "not used at smoke size") if args.smoke else \
        load_reference(env, args.workload, args.seed)

    probe = workloads.HostProbe()
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke, probe)
    setup_env = dict(os.environ)
    setup_env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), setup_env.get("PYTHONPATH")) if p)
    setup_ops = [workloads.time_setup(probe, wl.setup_code(), setup_env, ROOT)
                 for _ in range(SETUP_REPEATS)]
    # warm-up: one untimed pass at the smallest size grows the heap and fills
    # lazy caches, which otherwise slowed whichever op ran first
    warm = workloads.WORKLOADS[args.workload](args.seed, True, probe)
    warm.prepare()
    warm.run_pass(out_dir / "warm-up")
    origin = perf_counter()
    first_outputs: dict = {}
    fixture = wl.prepare()
    problems = check_ops(fixture, first_outputs, reference, workloads.oracle_bound_violations)
    passes = []
    start = perf_counter()
    while not problems:
        recorder = None
        if args.trace and len(passes) % 2 == 1:
            spans.clear_caches()
            recorder = spans.SpanRecorder()
            spans.instrument(recorder)
        try:
            ops = wl.run_pass(out_dir / f"pass{len(passes)}")
        finally:
            if recorder is not None:
                spans.restore(recorder)
        passes.append({"ops": ops, "recorder": recorder})
        problems += check_ops(ops, first_outputs, reference, workloads.oracle_bound_violations)
        enough = perf_counter() - start >= args.seconds
        if enough and (not args.trace or len(passes) >= 2):
            break

    all_ops = fixture + [op for p in passes for op in p["ops"]]
    failed = sum(op.failed for op in all_ops)
    values: dict = {}
    diagnostics: dict = {}
    if not problems:
        per_pass = [wl.diagnostics(p["ops"]) for p in passes if p["recorder"] is None]
        diagnostics = {k: median([d[k] for d in per_pass]) for k in per_pass[0]}
        if args.trace:
            values = per_layer(spans, passes, diagnostics)
        else:
            values = end_to_end(workloads, args.workload, fixture, passes, setup_ops)
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
               for m in listed}

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "environment": env,
        "reference": reference_status, "setup": [vars(op) for op in setup_ops],
        "problems": problems,
        "diagnostics": diagnostics,
        "fixture": [vars(op) for op in fixture],
        "passes": [{"traced": p["recorder"] is not None, "ops": [vars(op) for op in p["ops"]]}
                   for p in passes],
        "metrics": metrics,
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    if args.trace:
        with open(out_dir / "spans.jsonl", "w") as fh:
            for i, p in enumerate(passes):
                if p["recorder"] is not None:
                    p["recorder"].write(fh, origin, i)

    for message in problems:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"environment: {json.dumps(env)}")
    print(f"reference: {reference_status}; passes: {len(passes)}; report: {out_dir / 'report.json'}")
    if diagnostics:
        print(f"mvselect vs full-views: analytic cost ratio {diagnostics['cost_ratio']:.4f}, "
              f"measured time ratio {diagnostics['time_ratio']:.4f}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": len(all_ops),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
