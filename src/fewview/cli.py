"""Command-line experiment driver.

Subcommands: ``train`` (task / select-fixed / joint regimes), ``eval`` (one
policy on one split), ``study`` (sweep-T, shutoff, random-pose, ablation),
and ``oracle`` (export a policy table). Every command computes first and then
hands its files to ``artifacts.write_run``, which writes them into a
deterministic directory under the output root and, last, a manifest that
lists each file with its hash.

Exit codes: 0 success, 2 configuration error, 3 compatibility error
(world/model mismatch), 4 enumeration-budget error, 1 anything else.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import artifacts, evaluation, studies, training
from .config import ExperimentConfig, load_config
from .errors import BudgetError, CompatibilityError, ConfigError
from .mvselect import QNetwork
from .studies import STUDIES
from .training import POLICIES, REGIMES

ORACLE_POLICIES = ("dataset-oracle", "instance-oracle")


# ---------------------------------------------------------------------------
# shared plumbing


def _network_args(cfg: ExperimentConfig, names: dict) -> dict:
    """Builder arguments from the network keys that are set (null leaves a
    key unset); the ``training.build_*`` builders hold the defaults."""
    net = cfg.raw["network"]
    return {arg: net[key] for key, arg in names.items() if net.get(key) is not None}


def _build_task_net(cfg: ExperimentConfig, world, seed: int):
    return cfg.family.build(world, seed=seed, **_network_args(
        cfg, {"task_hidden": "hidden", "task_feat_dim": "feat_dim"}))


def _selector_args(cfg: ExperimentConfig, seed: int) -> dict:
    """``training.build_selector`` arguments for every selector a run builds;
    ``network.selector_seed`` beats the run seed."""
    args = _network_args(cfg, {"selector_seed": "seed", "selector_hidden": "hidden",
                               "use_camera_branch": "use_camera_branch",
                               "use_feature_branch": "use_feature_branch"})
    args.setdefault("seed", seed)
    return args


def _load_net(net_cls, world, path):
    """A task network or selector checkpoint of ``net_cls`` for ``world``."""
    if not Path(path).is_file():
        raise ConfigError(f"{net_cls.kind} checkpoint not found: {path}")
    net, meta = net_cls.load(path)
    got, want = meta.get("world_hash"), world.world_hash()
    if got != want:
        raise CompatibilityError(
            f"world hash mismatch for {path}: checkpoint has {got}, config has {want}")
    return net


def _load(args):
    """The preamble of every command: the validated config, the run seed
    (``--seed`` beats the config), the run's start time and the world."""
    cfg = load_config(args.config)
    seed = cfg.raw["seed"] if args.seed is None else args.seed
    if seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {seed}")
    return cfg, seed, time.perf_counter(), cfg.family.world(cfg.world_config())


def _start_run(args, cfg: ExperimentConfig, command: str, seed: int):
    """The run directory's path, checked for a finished run before any
    computation, and the manifest head; the directory appears when
    ``_finish_run`` writes, so a run that fails before then leaves none."""
    root = artifacts.output_root(args.out, cfg.raw["output_dir"])
    run_dir = artifacts.run_directory(root, command, cfg.config_hash, seed, args.force)
    return run_dir, {"command": command, "config": cfg.raw,
                     "config_hash": cfg.config_hash, "seed": seed}


def _finish_run(run_dir: Path, head: dict, started: float, addressed, named=None) -> None:
    """Hand the finished files to ``artifacts.write_run``: ``addressed``
    (stem, suffix, payload) entries under content-addressed names, then the
    ``named`` name -> payload ones."""
    files = {artifacts.content_name(stem, suffix, payload): payload
             for stem, suffix, payload in addressed} | (named or {})
    outputs = artifacts.write_run(run_dir, files,
                                  {**head, "timing_seconds": time.perf_counter() - started})
    print(f"run directory: {run_dir}")
    for entry in outputs:
        print(f"  {entry['path']}  sha256:{entry['sha256'][:12]}")


# ---------------------------------------------------------------------------
# train


def cmd_train(args) -> int:
    cfg, seed, started, world = _load(args)
    regime = args.regime or cfg.require("train.regime")
    train_cfg = cfg.train_config(regime=regime, seed=seed)
    if regime == "task":
        task_net = _build_task_net(cfg, world, seed)
    else:
        task_net = _load_net(cfg.family.net, world, cfg.require("train.task_checkpoint"))
    run_dir, head = _start_run(args, cfg, f"train-{regime}", seed)
    extra = {"regime": regime, "train_config": asdict(train_cfg),
             "config_hash": cfg.config_hash}

    if regime == "task":
        result = training.train_task_network(world, task_net, train_cfg)
        nets = {"task": task_net}
    else:
        q_net = training.build_selector(world, task_net, **_selector_args(cfg, seed))
        if regime == "select-fixed":
            result = training.train_selector_fixed(world, task_net, q_net, train_cfg)
            nets = {"selector": q_net}
        else:
            result = training.train_joint(world, task_net, q_net, train_cfg)
            nets = {"task-joint": task_net, "selector": q_net}

    counters = [{"counters": result.counters, "total_steps": result.total_steps}]
    _finish_run(run_dir, head, started,
                [(stem, ".ckpt", net.encode(world.world_hash(), extra))
                 for stem, net in nets.items()],
                {"metrics.jsonl": artifacts.jsonl(result.epoch_logs).encode("utf-8"),
                 "counters.json": artifacts.jsonl(counters).encode("utf-8")})
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    cfg, seed, started, world = _load(args)
    ev_sec = cfg.raw["eval"]
    policy = args.policy or cfg.require("eval.policy")
    # full-views takes every camera whatever T says
    T = (world.n_cameras if policy == "full-views"
         else args.T if args.T is not None else cfg.require("eval.T"))
    task_net = _load_net(cfg.family.net, world, cfg.require("eval.task_checkpoint"))
    q_net = None
    if policy == "mvselect":
        q_net = _load_net(QNetwork, world, cfg.require("eval.selector_checkpoint"))
    run_dir, head = _start_run(args, cfg, f"eval-{policy}", seed)

    run = training.evaluate_policy(world, task_net, T, policy,
                                   split=ev_sec["split"], q_net=q_net, seed=seed,
                                   budget=ev_sec["budget"])
    cost = evaluation.cost_account(world, task_net, q_net, run.T)
    report = evaluation.build_report(run, cost, cfg.config_hash, [seed])
    files = [(f"report-{policy}", ".json", artifacts.json_bytes(report))]
    if report["frequency"] is not None:
        rows = evaluation.frequency_rows(report["frequency"])
        files.append((f"frequency-{policy}", ".csv", evaluation.table_csv(
            rows, ("step", "initial_view", "selected_view")).encode("utf-8")))
    _finish_run(run_dir, head, started, files)
    print(f"{policy} T={run.T} {run.split}: " + ", ".join(
        f"{k}={v:.4f}" for k, v in sorted(report["metrics"].items())))
    return 0


# ---------------------------------------------------------------------------
# study


def cmd_study(args) -> int:
    cfg, seed, started, world = _load(args)
    study = args.study
    ev_sec = cfg.raw["eval"]
    if study == "sweep-T":
        t_values = cfg.require("eval.T_values")
        policies = tuple(ev_sec.get("policies") or studies.SWEEP_POLICIES)
        selector_paths = {int(key): path
                          for key, path in (ev_sec.get("selector_checkpoints") or {}).items()}
        retrain = (cfg.raw["train"] or {}).get("epochs") is not None
    else:
        T = cfg.require("eval.T")
        retrain = study != "shutoff"
        if retrain and T < 2:  # before the checkpoint load, whose world may not match
            raise ConfigError(f"eval.T={T}: the {study} study trains a selector, "
                              "which needs T >= 2")
    task_net = _load_net(cfg.family.net, world, cfg.require("eval.task_checkpoint"))
    if study == "sweep-T":
        q_nets = {t: _load_net(QNetwork, world, path) for t, path in selector_paths.items()}
    elif study == "shutoff":
        q_net = _load_net(QNetwork, world, cfg.require("eval.selector_checkpoint"))
    # the train section, for the selectors a study retrains; each trains at a
    # budget of the study, so train.T is not read (2 stands in for it)
    selector_cfg = cfg.train_config(regime="select-fixed", seed=seed, T=2) if retrain else None
    selector_args = _selector_args(cfg, seed)
    run_dir, head = _start_run(args, cfg, f"study-{study}", seed)

    if study == "sweep-T":
        rows = studies.sweep_view_budget(
            world, task_net, t_values, policies=policies, q_nets=q_nets, selector_cfg=selector_cfg,
            selector_args=selector_args, split=ev_sec["split"], seed=seed, budget=ev_sec["budget"])
        files = [("study-sweep", ".jsonl", artifacts.jsonl(rows).encode("utf-8")),
                 ("study-sweep", ".csv",
                  evaluation.table_csv(rows, ("T", "policy")).encode("utf-8"))]
    elif study == "shutoff":
        out = studies.camera_shutoff_study(
            world, task_net, q_net, T=T, k=ev_sec["k"], rank_split=ev_sec["rank_split"],
            eval_split=ev_sec["split"], n_random=ev_sec["n_random"], seed=seed)
        files = [("study-shutoff", ".json", artifacts.json_bytes(out))]
    elif study == "random-pose":
        out = studies.random_pose_study(
            world, task_net, T=T, selector_cfg=selector_cfg, selector_args=selector_args,
            split=ev_sec["split"], seed=seed, budget=ev_sec["budget"])
        files = [("study-random-pose", ".json", artifacts.json_bytes(out)),
                 ("study-random-pose", ".csv",
                  evaluation.table_csv(out["rows"], ("policy",)).encode("utf-8"))]
    else:  # ablation
        rows = studies.selector_ablation_study(
            world, task_net, T=T, selector_cfg=selector_cfg, selector_args=selector_args,
            split=ev_sec["split"])
        files = [("study-ablation", ".json", artifacts.json_bytes(rows)),
                 ("study-ablation", ".csv",
                  evaluation.table_csv(rows, ("variant",)).encode("utf-8"))]

    _finish_run(run_dir, head, started, files)
    return 0


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    cfg, seed, started, world = _load(args)
    policy = args.policy or cfg.require("eval.policy")
    if policy not in ORACLE_POLICIES:
        raise ConfigError(f"oracle policy must be one of {ORACLE_POLICIES}, got {policy!r}")
    ev_sec = cfg.raw["eval"]
    T = args.T if args.T is not None else cfg.require("eval.T")
    task_net = _load_net(cfg.family.net, world, cfg.require("eval.task_checkpoint"))
    run_dir, head = _start_run(args, cfg, f"oracle-{policy}", seed)
    build = (training.dataset_oracle_table if policy == "dataset-oracle"
             else training.instance_oracle_table)
    table = build(world, task_net, T, ev_sec["split"], ev_sec["budget"])
    _finish_run(run_dir, head, started,
                [(f"table-{table.kind}-T{T}", ".json", table.to_json().encode("utf-8"))])
    return 0


# ---------------------------------------------------------------------------
# entry point


@functools.cache  # once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fewview",
        description="Train, evaluate, and study camera-view selection policies.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment YAML path")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's run seed")
        p.add_argument("--out", default=None,
                       help=f"output root (beats ${artifacts.OUTPUT_ROOT_ENV} and config)")
        p.add_argument("--force", action="store_true",
                       help="overwrite a finished run directory")

    p_train = sub.add_parser("train", help="train a network per the config")
    common(p_train)
    p_train.add_argument("--regime", choices=REGIMES, default=None)
    p_train.set_defaults(fn=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate one policy on one split")
    common(p_eval)
    p_eval.add_argument("--policy", choices=POLICIES, default=None)
    p_eval.add_argument("--T", type=int, default=None, help="view budget")
    p_eval.set_defaults(fn=cmd_eval)

    p_study = sub.add_parser("study", help="run a named study")
    p_study.add_argument("study", choices=STUDIES)
    common(p_study)
    p_study.set_defaults(fn=cmd_study)

    p_oracle = sub.add_parser("oracle", help="export an oracle policy table")
    common(p_oracle)
    p_oracle.add_argument("--policy", choices=ORACLE_POLICIES, default=None)
    p_oracle.add_argument("--T", type=int, default=None, help="view budget")
    p_oracle.set_defaults(fn=cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CompatibilityError as exc:
        print(f"compatibility error: {exc}", file=sys.stderr)
        return 3
    except BudgetError as exc:
        print(f"budget error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - the CLI boundary reports, not raises
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
