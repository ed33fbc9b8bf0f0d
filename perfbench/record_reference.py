"""Record the reference outputs the benchmark checks runs against.

    python3 perfbench/record_reference.py --workload det-train --seeds 0 1 2

Runs each seed's fixture and one pass at full size and stores every op's
outputs (primary metrics, final losses, oracle-table digests) in
``perfbench/reference.json``, together with the environment fingerprint they
were recorded under. Runs compare against them only when the fingerprint
matches; recording under a new fingerprint starts the file afresh.
"""

from __future__ import annotations

import argparse
import json
import shutil

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=run.WORKLOAD_NAMES)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    run.bootstrap()
    import workloads

    fingerprint = run.fingerprint(run.environment())
    body = json.loads(run.REFERENCE.read_text()) if run.REFERENCE.is_file() else {}
    if body.get("fingerprint") != fingerprint:
        body = {"fingerprint": fingerprint, "seeds": {}}
    for seed in args.seeds:
        wl = workloads.WORKLOADS[args.workload](seed, False, workloads.HostProbe())
        work_dir = run.OUT / f"record-{args.workload}-s{seed}"
        ops = wl.prepare() + wl.run_pass(work_dir)
        shutil.rmtree(work_dir, ignore_errors=True)
        bad = [f"{op.name}: {op.error}" for op in ops if op.error]
        bad += [message for _, message in workloads.oracle_bound_violations(ops)]
        if bad:
            raise SystemExit(f"seed {seed}: " + "; ".join(bad))
        body["seeds"].setdefault(args.workload, {})[str(seed)] = {op.name: op.outputs for op in ops}
        print(f"{args.workload} seed {seed}: {len(ops)} ops recorded", flush=True)
    run.REFERENCE.write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
