"""Experiment studies layered on training and evaluation.

Four studies ship; the three that train selectors build them, then check,
train and evaluate in that order (``_study_rows``):

- ``sweep_view_budget``: metrics for each policy across a range of view
  budgets T, as plot-ready rows, from one evaluation pass over the split
  that featurizes each instance once and shares the oracles' subset
  scores, the random orders and the full-views run between rows.
- ``camera_shutoff_study``: rank cameras by how often the selector uses them
  on validation, disable the bottom k, and compare against disabling random
  k-subsets, all in one evaluation pass over the eval split.
- ``random_pose_study``: retrain the selector on a pose-randomized world and
  compare random / dataset-oracle / selector policies, where fixed view sets
  lose their edge.
- ``selector_ablation_study``: retrain the selector with each input branch
  removed in turn.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import evaluation, training
from .envs import checked_ints
from .errors import ConfigError

SWEEP_POLICIES = ("random", "dataset-oracle", "instance-oracle", "mvselect")
ABLATION_VARIANTS = {  # each variant's two branch flags, in row order
    "full": {"use_camera_branch": True, "use_feature_branch": True},
    "no-camera-branch": {"use_camera_branch": False, "use_feature_branch": True},
    "no-feature-branch": {"use_camera_branch": True, "use_feature_branch": False},
}
STUDIES = ("sweep-T", "shutoff", "random-pose", "ablation")


def _selector(world, task_net, selector_cfg: training.TrainConfig | None,
              selector_args: dict | None, **flags):
    """A fresh selector from ``selector_args`` (``training.build_selector``'s
    keywords) and ``flags``, seeded by ``selector_cfg`` (0 without one)
    unless they name a seed."""
    return training.build_selector(world, task_net, **{
        "seed": getattr(selector_cfg, "seed", 0), **(selector_args or {}), **flags})


def _study_rows(world, task_net, runs, heads, trained, selector_cfg, split: str,
                seed: int = 0, budget: int = training.DEFAULT_ENUM_BUDGET) -> list[dict]:
    """Check every run (``training.check_run``), train the selector of each
    ``trained`` run select-fixed at its T, then evaluate every run in one
    pass; each run's row is its ``heads`` entry, then its metrics in key
    order."""
    for run in runs:
        training.check_run(world, run, split, budget)
    for run in trained:
        training.train_selector_fixed(
            world, task_net, run.q_net, replace(selector_cfg, regime="select-fixed", T=run.T))
    results = training.evaluate_policies(world, task_net, runs, split, seed, budget)
    return [{**head, **{k: float(v) for k, v in sorted(result.metrics().items())}}
            for head, result in zip(heads, results)]


# ---------------------------------------------------------------------------
# view-budget sweep


def sweep_view_budget(world, task_net, T_values, *, policies=SWEEP_POLICIES,
                      q_nets: dict | None = None,
                      selector_cfg: training.TrainConfig | None = None,
                      selector_args: dict | None = None,
                      split: str = "eval", seed: int = 0,
                      budget: int = training.DEFAULT_ENUM_BUDGET) -> list[dict]:
    """Metric rows for every (T, policy) pair, in T order, then policy
    order, from one evaluation pass.

    The selector policy needs a trained network per T: pass them in
    ``q_nets`` keyed by T, or pass ``selector_cfg`` to have each one built
    from ``selector_args`` and trained here, which needs T >= 2. At T = 1
    no selection step happens and at T = N masking forces the complete
    view set whatever the Q values, so an untrained selector stands in at
    T = N, and at T = 1 when neither is given. Every run is checked before the
    first selector trains, and the selectors train in T order; then one
    ``training.evaluate_policies`` call evaluates every row, so each
    instance is featurized once, each T's subsets are scored once for both
    oracles, each random order is drawn once, and full-views runs once.
    Every row still costs its policy at its own T, full-views included.
    """
    q_nets, trained = dict(q_nets or {}), []
    for t in [t for t in dict.fromkeys(T_values) if "mvselect" in policies and t not in q_nets]:
        if selector_cfg is not None and t < 2:
            raise ConfigError(f"eval.T_values entry {t}: a trained selector needs T >= 2")
        if selector_cfg is None and t not in (1, world.n_cameras):
            raise ConfigError(f"sweep needs a selector for T={t}: pass q_nets or selector_cfg")
        q_nets[t] = _selector(world, task_net, selector_cfg, selector_args)
        if selector_cfg is not None and t != world.n_cameras:
            trained.append(training.PolicyRun("mvselect", t, q_nets[t]))
    runs = [training.PolicyRun(policy, t, q_nets[t] if policy == "mvselect" else None)
            for t in T_values for policy in policies]
    rows = _study_rows(world, task_net, runs, [{"T": int(r.T), "policy": r.policy} for r in runs],
                       trained, selector_cfg, split, seed, budget)
    for run, row in zip(runs, rows):
        row["cost_ratio"] = evaluation.cost_account(world, task_net, run.q_net, run.T).ratio
    return rows


# ---------------------------------------------------------------------------
# camera shut-off


def camera_shutoff_study(world, task_net, q_net, T: int, k: int, *,
                         rank_split: str = "val", eval_split: str = "eval",
                         n_random: int = 5, seed: int = 0) -> dict:
    """Disable the k least-used cameras (ranked on ``rank_split``) and
    re-evaluate the selector on ``eval_split``; compare against ``n_random``
    random k-subsets of the cameras. k = 0 is a no-op. One pass over
    ``eval_split`` serves the baseline, the ranked set and every random set,
    each an mvselect ``PolicyRun`` with its own ``disabled`` cameras."""
    n_cams, (k,) = world.n_cameras, checked_ints("k", [k])
    if not 0 <= k <= n_cams:
        raise ConfigError(f"cannot disable k={k} of {n_cams} cameras")
    if n_cams - k < T:
        raise ConfigError(f"disabling {k} cameras leaves fewer usable cameras than T={T}")

    # the selector's least-used cameras on rank_split, ties to the lower id
    ranked = training.evaluate_policy(world, task_net, T, "mvselect", split=rank_split, q_net=q_net)
    usage = evaluation.camera_usage(ranked.chosen, n_cams)
    ranked_off = np.argsort(usage, kind="stable")[:k].tolist()
    random_off = [sorted(np.random.default_rng([seed, 29, r]).choice(n_cams, size=k, replace=False)
                         .tolist()) for r in range(n_random)]
    runs = [training.PolicyRun("mvselect", T, q_net, disabled=frozenset(cams))
            for cams in [[], ranked_off, *random_off]]
    baseline, ranked_run, *random_runs = training.evaluate_policies(
        world, task_net, runs, split=eval_split)
    random_rows = [{"disabled": cams, "metrics": run.metrics()}
                   for cams, run in zip(random_off, random_runs)]
    random_primaries = [row["metrics"]["primary"] for row in random_rows]
    return {
        "T": T,
        "k": k,
        "usage": [float(u) for u in usage],
        "baseline": baseline.metrics(),
        "ranked": {"disabled": ranked_off, "metrics": ranked_run.metrics()},
        "random": random_rows,
        "random_mean_primary": float(np.mean(random_primaries)) if random_rows else None,
    }


# ---------------------------------------------------------------------------
# pose randomization


def random_pose_study(world, task_net, T: int, *,
                      selector_cfg: training.TrainConfig,
                      selector_args: dict | None = None,
                      split: str = "eval", seed: int = 0,
                      budget: int = training.DEFAULT_ENUM_BUDGET) -> dict:
    """Retrain the selector on a pose-randomized world and compare the three
    deployable policies. Randomized object pose breaks any fixed mapping from
    initial view to informative views, which is exactly the regime where
    per-instance selection must outperform fixed sets. Every run is
    checked before the selector trains; one evaluation pass then serves all
    three policies."""
    if not getattr(world.config, "random_pose", False):
        raise ConfigError("random-pose study needs a world built with world.random_pose: true")
    q_net = _selector(world, task_net, selector_cfg, selector_args)
    runs = [training.PolicyRun("random", T), training.PolicyRun("dataset-oracle", T),
            training.PolicyRun("mvselect", T, q_net)]
    return {"T": T, "rows": _study_rows(world, task_net, runs, [{"policy": r.policy} for r in runs],
                                        runs[2:], selector_cfg, split, seed, budget)}


# ---------------------------------------------------------------------------
# selector input ablation


def selector_ablation_study(world, task_net, T: int, *,
                            selector_cfg: training.TrainConfig,
                            selector_args: dict | None = None,
                            split: str = "eval") -> list[dict]:
    """Train matched selectors from ``selector_args`` with each state branch
    removed in turn, then evaluate all of them in one pass. Emits one row
    per variant of ``ABLATION_VARIANTS``, which sets both branch flags."""
    runs = [training.PolicyRun("mvselect", T, _selector(
                world, task_net, selector_cfg, selector_args, **flags))
            for flags in ABLATION_VARIANTS.values()]
    return _study_rows(world, task_net, runs, [{"variant": v} for v in ABLATION_VARIANTS], runs,
                       selector_cfg, split)
