"""The benchmark's three workloads.

Each workload turns a seed into world configurations, runs its timed
operations through ``fewview``'s public API (or, for ``cls-cli``, through
``fewview.cli.main`` in-process), and returns one ``Op`` per operation: its
duration, the work it did (frames or subsets), and the outputs the benchmark
checks for correctness (primary metrics, final losses, oracle-table digests).

Why these three:

- ``cls-cli``: the classification acceptance configuration through the CLI.
  Its matrices are tiny, so per-call overhead in the selector and training
  loops and the cli/config/checkpoint/artifacts plumbing are a visible
  share of the time. It runs no detection code.
- ``det-train``: the detection acceptance world, trained task -> select-fixed
  -> joint. Per-cell batches of 6x1024 rows make dense forward/backward, the
  max-pool gradient scatter and instance regeneration dominate. Four of
  det-eval's policies then run on the 120-frame eval split, because every
  workload reports every end-to-end metric.
- ``det-eval``: the same world, forward only. A detector and selectors are
  trained with the det-train schedule before timing starts (a shorter
  fixture leaves a detector that emits no peaks and hides the scoring
  layer); that fixture gives det-eval's training rates. The timed passes
  evaluate five policies on a 120-frame eval split.

Every timed op sits between two runs of ``HostProbe``, so the benchmark can
report times at a reference host speed.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import yaml

from fewview import cli, evaluation
from fewview import training as tr
from fewview.envs import DetectionConfig, DetectionWorld

# phases whose work/time gives the end-to-end rates
RATE_PHASES = {
    "task_frames_per_s": "task",
    "select_frames_per_s": "select",
    "joint_frames_per_s": "joint",
    "full_frames_per_s": "full",
    "mvselect_frames_per_s": "mvselect",
    "oracle_subsets_per_s": "oracle",
}
# op name whose "primary" output gives each quality metric, per workload
PRIMARY_OPS = {
    "cls-cli": {"mvselect_primary": "eval-mvselect",
                "joint_primary": "eval-joint-mvselect",
                "oracle_primary": "study-sweep-T"},
    "det-train": {"mvselect_primary": "eval-mvselect",
                  "joint_primary": "eval-joint-mvselect",
                  "oracle_primary": "eval-instance-oracle"},
    "det-eval": {"mvselect_primary": "eval-mvselect",
                 "joint_primary": "eval-joint-mvselect",
                 "oracle_primary": "eval-instance-oracle"},
}


@dataclass
class Op:
    """One timed operation of a pass."""

    name: str
    phase: str | None          # key of RATE_PHASES' values, or None
    work: float                # frames (or subsets) the phase counts
    seconds: float = 0.0
    probe_s: float = 0.0       # host-speed probe time around the op
    outputs: dict = field(default_factory=dict)
    error: str = ""
    failed: bool = False

    @property
    def host_seconds(self) -> float:
        """The op's time at the probe's reference host speed."""
        return self.seconds * HostProbe.REFERENCE_S / self.probe_s


class OpFailed(Exception):
    """An operation finished but produced an output that fails a check."""


class HostProbe:
    """A fixed piece of NumPy work, independent of fewview, timed right
    before and after every op.

    On a shared 2-vCPU host the speed drifted by about 20% over tens of
    seconds. A dense-only version of this probe slowed down with it (over 90
    s its time correlated at 0.83 with that of one detector-training epoch),
    so op times divided by the probe's time cancel most of the drift. The
    probe mixes a per-cell dense forward/backward at detector shapes, many
    tiny matrix ops and a pure-Python pair loop like detection matching's,
    the three kinds of work in the workloads.
    """

    REFERENCE_S = 0.007  # its typical time on the 2-vCPU machine that defined the benchmark

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((6144, 16))
        self.w1 = rng.standard_normal((32, 16))
        self.w2 = rng.standard_normal((16, 32))
        self.small = rng.standard_normal((8, 32))
        self.ws = rng.standard_normal((32, 32))

    def _once(self) -> float:
        start = perf_counter()
        for _ in range(4):
            h = self.x @ self.w1.T
            np.maximum(h, 0.0, out=h)
            y = h @ self.w2.T
            dh = (y @ self.w2) * (h > 0)
            dh.T @ self.x
        for _ in range(300):
            h = self.small @ self.ws
            np.maximum(h, 0.0, out=h)
        pairs = []
        for i in range(1500):
            d = ((i % 7) - 3.5) ** 2 + ((i % 5) - 2.0) ** 2
            if d <= 9.0:
                pairs.append((d, i % 7, i % 5))
        pairs.sort()
        return perf_counter() - start

    def __call__(self) -> float:
        # the fastest of a few: one interruption must not count as a slow host
        return min(self._once() for _ in range(3))

    def run(self, op: Op, fn) -> Op:
        """Time ``fn`` as ``op`` between two probes; ``fn`` fills the op's
        outputs or error."""
        before = self()
        start = perf_counter()
        fn()
        op.seconds = perf_counter() - start
        op.probe_s = (before + self()) / 2
        return op


def _timed(probe: HostProbe, op: Op, fn) -> Op:
    """Run ``fn`` as ``op``; its return value becomes the op's outputs."""
    def call():
        try:
            op.outputs = fn()
        except Exception as exc:  # noqa: BLE001 - any failure is counted, not raised
            op.error = f"{type(exc).__name__}: {exc}"

    return probe.run(op, call)


def time_setup(probe: HostProbe, code: str, env: dict, cwd: Path) -> Op:
    """An op timing a fresh interpreter that runs ``code``: importing
    fewview and building the world and the networks."""
    def call():
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")

    return probe.run(Op("setup", None, 1), call)


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


# ---------------------------------------------------------------------------
# cls-cli


class ClsCli:
    name = "cls-cli"
    T = 2

    def __init__(self, seed: int, smoke: bool, probe: HostProbe):
        self.seed, self.probe = seed, probe
        if smoke:
            self.world = {"kind": "classification", "n_train": 16, "n_val": 8, "n_eval": 8, "noise": 0.3}
            self.epochs = {"task": 2, "select": 2, "joint": 2}
            self.sweep_T = [2, 3]
        else:
            self.world = {"kind": "classification", "n_train": 120, "n_val": 60, "n_eval": 80, "noise": 0.3}
            self.epochs = {"task": 40, "select": 30, "joint": 30}
            self.sweep_T = [2, 3, 4]

    def setup_code(self) -> str:
        world = {k: v for k, v in self.world.items() if k != "kind"}
        return (
            "import fewview.cli\n"
            "from fewview import training as tr\n"
            "from fewview.envs import ClassificationConfig, ClassificationWorld\n"
            f"w = ClassificationWorld(ClassificationConfig(seed={self.seed}, **{world!r}))\n"
            f"t = tr.build_classifier(w, seed={self.seed})\n"
            f"tr.build_selector(w, t, seed={self.seed})\n"
        )

    def prepare(self) -> list[Op]:
        return []

    def diagnostics(self, ops: list[Op]) -> dict:
        by = {op.name: op for op in ops}
        return {"cost_ratio": by["eval-mvselect"].outputs["cost_ratio"], "time_ratio": _time_ratio(by)}

    def run_pass(self, work_dir: Path) -> list[Op]:
        work_dir.mkdir(parents=True, exist_ok=True)
        try:
            return self._pipeline(work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)

    def _config(self, work_dir, stem, train=None, ev=None) -> str:
        body = {"world": self.world, "seed": self.seed, "output_dir": str(work_dir)}
        if train:
            body["train"] = train
        if ev:
            body["eval"] = ev
        path = work_dir / f"{stem}.yaml"
        path.write_text(yaml.safe_dump(body))
        return str(path)

    def _cli(self, op: Op, work_dir: Path, argv: list[str], read) -> Op:
        """Run one CLI command as ``op`` with an output root of its own;
        ``read(files)`` extracts its outputs once the exit code and the
        manifest hashes are checked."""
        out_root = work_dir / op.name
        sink = io.StringIO()
        exit_code = []

        def call():
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    exit_code.append(cli.main(argv + ["--out", str(out_root)]))
                except SystemExit as exc:  # argparse rejects a command line this way
                    exit_code.append(exc.code)

        self.probe.run(op, call)
        rc = exit_code[0]
        try:
            if rc != 0:
                raise OpFailed(f"exit {rc}: {sink.getvalue().strip()[-300:]}")
            run_dirs = [p.parent for p in out_root.glob("*/manifest.json")]
            if len(run_dirs) != 1:
                raise OpFailed(f"expected one run directory, found {len(run_dirs)}")
            op.outputs = read(_checked_manifest(run_dirs[0]))
        except Exception as exc:  # noqa: BLE001 - any failure is counted, not raised
            op.error = f"{type(exc).__name__}: {exc}"
        return op

    def _pipeline(self, work_dir: Path) -> list[Op]:
        n_train, n_eval = self.world["n_train"], self.world["n_eval"]
        n_cams = 12  # ClassificationConfig's default ring
        T = self.T
        ops: list[Op] = []

        def last_log(files):
            return json.loads(files["metrics.jsonl"].read_text().splitlines()[-1])

        def primary(files):
            report = next(p for name, p in files.items() if name.startswith("report-"))
            body = json.loads(report.read_text())
            return {"primary": body["metrics"]["primary"], "cost_ratio": body["cost"]["ratio"]}

        def ckpt(files, stem):
            return str(next(p for name, p in files.items() if name.startswith(stem + "-")))

        # task network, 40 epochs on the view mix
        cfg = self._config(work_dir, "task", train={
            "regime": "task", "epochs": self.epochs["task"], "T": n_cams, "task_lr": 2e-3,
            "train_view_counts": [1, 2, 3, 4, 6, 12]})
        op = self._cli(Op("train-task", "task", self.epochs["task"] * n_train), work_dir,
                       ["train", "--config", cfg, "--regime", "task"],
                       lambda f: {"loss": last_log(f)["loss"], "_task": ckpt(f, "task")})
        ops.append(op)
        if op.error:
            return ops
        task = op.outputs.pop("_task")

        cfg = self._config(work_dir, "select", train={
            "regime": "select-fixed", "epochs": self.epochs["select"], "T": T,
            "selector_lr": 1e-3, "task_checkpoint": task})
        op = self._cli(Op("train-select-fixed", "select", self.epochs["select"] * n_train), work_dir,
                       ["train", "--config", cfg, "--regime", "select-fixed"],
                       lambda f: {"loss": last_log(f)["loss"], "_sel": ckpt(f, "selector")})
        ops.append(op)
        if op.error:
            return ops
        selector = op.outputs.pop("_sel")

        cfg = self._config(work_dir, "eval", ev={
            "T": T, "task_checkpoint": task, "selector_checkpoint": selector})
        for policy, phase in (("full-views", "full"), ("random", None), ("mvselect", "mvselect")):
            ops.append(self._cli(Op(f"eval-{policy}", phase, n_eval), work_dir,
                                 ["eval", "--config", cfg, "--policy", policy], primary))
        subsets = n_eval * math.comb(n_cams, T)
        ops.append(self._cli(Op("oracle-instance-oracle", "oracle", subsets), work_dir,
                             ["oracle", "--config", cfg, "--policy", "instance-oracle"],
                             lambda f: {"table": _file_sha(next(
                                 p for n, p in f.items() if n.startswith("table-")))}))

        cfg = self._config(work_dir, "joint", train={
            "regime": "joint", "epochs": self.epochs["joint"], "T": T, "task_lr": 2e-3,
            "selector_lr": 1e-3, "task_checkpoint": task})
        op = self._cli(Op("train-joint", "joint", self.epochs["joint"] * n_train), work_dir,
                       ["train", "--config", cfg, "--regime", "joint"],
                       lambda f: {"loss": last_log(f)["loss"],
                                     "task_loss": last_log(f)["task_loss"],
                                     "_task": ckpt(f, "task-joint"), "_sel": ckpt(f, "selector")})
        ops.append(op)
        if op.error:
            return ops
        joint_task, joint_sel = op.outputs.pop("_task"), op.outputs.pop("_sel")

        cfg = self._config(work_dir, "eval-joint", ev={
            "T": T, "task_checkpoint": joint_task, "selector_checkpoint": joint_sel})
        ops.append(self._cli(Op("eval-joint-mvselect", "mvselect", n_eval), work_dir,
                             ["eval", "--config", cfg, "--policy", "mvselect"], primary))

        # sweep-T: full-views and random are a small share next to the two
        # oracles, so the whole command counts as oracle work
        policies = ["full-views", "random", "dataset-oracle", "instance-oracle"]
        cfg = self._config(work_dir, "sweep", ev={
            "T_values": self.sweep_T, "task_checkpoint": task, "policies": policies})
        sweep_subsets = 2 * n_eval * sum(math.comb(n_cams, t) for t in self.sweep_T)

        def sweep(files):
            rows_file = next(p for n, p in files.items() if n.endswith(".jsonl"))
            rows = [json.loads(line) for line in rows_file.read_text().splitlines()]
            oracle = next(r for r in rows if r["T"] == T and r["policy"] == "instance-oracle")
            return {"rows": _file_sha(rows_file), "primary": oracle["primary"]}

        ops.append(self._cli(Op("study-sweep-T", "oracle", sweep_subsets), work_dir,
                             ["study", "sweep-T", "--config", cfg], sweep))
        return ops


def _final_losses(result) -> dict:
    last = result.epoch_logs[-1]
    return {k: last[k] for k in ("loss", "task_loss") if k in last}


def _file_sha(path: Path) -> str:
    return _sha256(Path(path).read_bytes())


def _checked_manifest(run_dir: Path) -> dict[str, Path]:
    """Every file the manifest lists, after checking its sha256."""
    body = json.loads((run_dir / "manifest.json").read_text())
    files = {}
    for entry in body["outputs"]:
        path = run_dir / entry["path"]
        if _file_sha(path) != entry["sha256"]:
            raise OpFailed(f"manifest hash mismatch for {entry['path']}")
        files[entry["path"]] = path
    return files


# ---------------------------------------------------------------------------
# detection workloads


class _Detection:
    T = 3

    def __init__(self, seed: int, smoke: bool, probe: HostProbe):
        self.seed, self.probe = seed, probe
        if smoke:
            self.world_cfg = dict(noise=0.2, half_angle_deg=60.0, view_range=50.0,
                                  n_train=4, n_val=2, n_eval=2)
            self.epochs = {"task": 1, "select": 1, "joint": 1}
        else:  # the detector emits no peaks with fewer task epochs
            self.world_cfg = dict(noise=0.2, half_angle_deg=60.0, view_range=50.0,
                                  n_train=160, n_eval=120)
            self.epochs = {"task": 4, "select": 4, "joint": 3}

    def world(self) -> DetectionWorld:
        return DetectionWorld(DetectionConfig(seed=self.seed, **self.world_cfg))

    def setup_code(self) -> str:
        return (
            "from fewview import training as tr\n"
            "from fewview.envs import DetectionConfig, DetectionWorld\n"
            f"w = DetectionWorld(DetectionConfig(seed={self.seed}, **{self.world_cfg!r}))\n"
            f"t = tr.build_detector(w, seed={self.seed})\n"
            f"tr.build_selector(w, t, seed={self.seed})\n"
        )

    def train(self, world) -> tuple[list[Op], dict]:
        """task -> select-fixed -> joint; returns the ops and trained nets.

        Each epoch is its own call and op, so every op lasts about a second
        and is timed between its own host probes."""
        seed, T, n = self.seed, self.T, world.n_train
        task = tr.build_detector(world, seed=seed)
        q_fixed = tr.build_selector(world, task, seed=seed)
        ops: list[Op] = []

        def epochs(name, phase, train_one_epoch) -> bool:
            for i in range(self.epochs[phase]):
                ops.append(_timed(self.probe, Op(f"{name}.{i}", phase, n),
                                  lambda: _final_losses(train_one_epoch())))
                if ops[-1].error:
                    return False
            return True

        cfg = tr.TrainConfig(regime="task", epochs=1, T=world.n_cameras, task_lr=1e-3, seed=seed)
        if not epochs("train-task", "task", lambda: tr.train_task_network(world, task, cfg)):
            return ops, {}
        cfg_sel = tr.TrainConfig(regime="select-fixed", epochs=1, T=T, selector_lr=1e-3, seed=seed)
        if not epochs("train-select-fixed", "select",
                      lambda: tr.train_selector_fixed(world, task, q_fixed, cfg_sel)):
            return ops, {}
        joint_task = copy.deepcopy(task)
        q_joint = tr.build_selector(world, joint_task, seed=seed)
        cfg_joint = tr.TrainConfig(regime="joint", epochs=1, T=T, task_lr=1e-3, selector_lr=1e-3,
                                   joint_task_lr_factor=0.5, seed=seed)
        if not epochs("train-joint", "joint",
                      lambda: tr.train_joint(world, joint_task, q_joint, cfg_joint)):
            return ops, {}
        return ops, {"task": task, "q_fixed": q_fixed, "joint_task": joint_task, "q_joint": q_joint}

    def evaluate(self, world, nets, split: str, policies) -> list[Op]:
        """One op per policy on ``split``; oracle ops build their table and
        evaluate with it."""
        T, n = self.T, world.split_size(tr.SPLITS[split])
        ops = []
        for policy in policies:
            task, q_net = nets["task"], nets["q_fixed"]
            name, phase, work = f"eval-{policy}", None, n
            if policy == "joint-mvselect":
                task, q_net, policy = nets["joint_task"], nets["q_joint"], "mvselect"
            if policy in ("full-views", "mvselect"):
                phase = "full" if policy == "full-views" else "mvselect"
            if policy.endswith("oracle"):
                phase, work = "oracle", n * math.comb(world.n_cameras, T)

            def run(task=task, q_net=q_net, policy=policy):
                out = {}
                table = None
                if policy.endswith("oracle"):
                    build = (tr.dataset_oracle_table if policy == "dataset-oracle"
                             else tr.instance_oracle_table)
                    table = build(world, task, T, split)
                    out["table"] = _sha256(table.to_json().encode())
                t = world.n_cameras if policy == "full-views" else T
                result = tr.evaluate_policy(world, task, t, policy, split=split,
                                            q_net=q_net, table=table, seed=self.seed)
                out["primary"] = result.metrics()["primary"]
                return out

            ops.append(_timed(self.probe, Op(name, phase, work), run))
        return ops


class DetTrain(_Detection):
    name = "det-train"
    EVAL_POLICIES = ("full-views", "mvselect", "joint-mvselect", "instance-oracle")

    def prepare(self) -> list[Op]:
        return []

    def run_pass(self, work_dir: Path) -> list[Op]:
        # built per pass (outside the ops) so a traced pass records it
        self._world = self.world()
        ops, self._nets = self.train(self._world)
        if not self._nets:
            return ops
        return ops + self.evaluate(self._world, self._nets, "eval", self.EVAL_POLICIES)

    def diagnostics(self, ops: list[Op]) -> dict:
        return _detection_diagnostics(self._world, self._nets, self.T, ops)


class DetEval(_Detection):
    name = "det-eval"
    EVAL_POLICIES = ("full-views", "random", "mvselect", "joint-mvselect",
                     "dataset-oracle", "instance-oracle")

    def prepare(self) -> list[Op]:
        """The trained fixture; its ops count towards the training rates
        and the correctness checks, never towards ``wall_s``."""
        self._world = self.world()
        ops, self._nets = self.train(self._world)
        return ops

    def run_pass(self, work_dir: Path) -> list[Op]:
        # built per pass (outside the ops) so a traced pass records it
        self._world = self.world()
        return self.evaluate(self._world, self._nets, "eval", self.EVAL_POLICIES)

    def diagnostics(self, ops: list[Op]) -> dict:
        return _detection_diagnostics(self._world, self._nets, self.T, ops)


def _detection_diagnostics(world, nets, T, ops) -> dict:
    by = {op.name: op for op in ops}
    cost = evaluation.cost_account(world, nets["task"], nets["q_fixed"], T)
    return {"cost_ratio": cost.ratio, "time_ratio": _time_ratio(by)}


def _time_ratio(by: dict) -> float:
    """Measured mvselect-to-full-views time per evaluated frame (both ops
    cover the same split), each at reference host speed."""
    mv, full = by["eval-mvselect"], by["eval-full-views"]
    return (mv.seconds / mv.probe_s) / (full.seconds / full.probe_s)


WORKLOADS = {cls.name: cls for cls in (ClsCli, DetTrain, DetEval)}


def oracle_bound_violations(ops: list[Op]) -> list[tuple[Op, str]]:
    """The instance oracle picks the best set per (instance, initial view),
    so its primary metric bounds every other T-view policy evaluated with
    the same task network, T and split. Returns (oracle op, message) pairs."""
    by = {op.name: op for op in ops if not op.error}
    oracle = by.get("eval-instance-oracle") or by.get("study-sweep-T")
    if oracle is None:
        return []
    return [(oracle, f"{name} primary {by[name].outputs['primary']} exceeds the instance "
                     f"oracle's {oracle.outputs['primary']}")
            for name in ("eval-mvselect", "eval-random", "eval-dataset-oracle")
            if name in by and by[name].outputs["primary"] > oracle.outputs["primary"]]
