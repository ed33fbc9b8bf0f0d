"""Training regimes and reference policies.

Three regimes, each a step that one minibatch loop runs (``_minibatch_loop``,
which owns the generator, epoch order, batches, backward work arrays,
counters and epoch log): task-network training on all views, selector
training against a frozen task network, and joint training where every
iteration rolls out epsilon-greedy selections, regresses the taken action
values onto inline TD targets, adds the terminal task loss, and updates both
networks (the task network at a fifth of its usual learning rate). Selection
steps read features through a ``tasknet.ViewFeatures`` table, which decides
how each view is featurized, so a detection step runs f on only the T of N
views its rollout visits. Policy evaluation featurizes every view: greedy
evaluation from every initial view visits every camera anyway.

Every decode (a policy's view sets, the oracles' subsets) is the task
network's ``decode``; nothing here branches on a task family.

Reference policies: uniform-random completion, a dataset-level oracle that
fixes the best view set per initial view on a designated split, and an
instance-level oracle that picks the best set per instance. Both oracles
enumerate view sets rather than sequences; pooling is order-invariant, so the
sequence space collapses to the binomial one.

Policy evaluation is one pass over a split (``evaluate_policies``) that
serves every (T, policy) run of a call, such as a view-budget sweep's: it
takes the split in stacked blocks of ``eval_block`` instances (all of a
classification split, one detection frame), each featurized once, both
oracles at one T share one scoring of its size-T subsets, each (instance,
initial view) random order is drawn once per disabled set and cut to each
T, and equal runs (full-views at any T) run once. ``evaluate_policy`` and
the oracle tables are its one-run calls. Camera shut-off is decided here
only: a run's ``PolicyRun.disabled`` cameras are out of its selection.

A split of several blocks (a detection split: a block is one frame) is
pipelined on one worker thread, opened and joined inside the pass: while
the calling thread rolls out, decodes, draws random orders and scores block
b, the worker generates and featurizes block b + 1, and the caller merges
results in block order, so each record keeps its bytes. The caller owns the
buffers: two ``work`` dicts of ``MVDetector.features``, block b's features in
dict b % 2, that it allocates when it featurizes block 0 itself; they share
f's input and hidden rows, since one block at a time is featurized. The
worker refills a dict only after the caller is done with the block that
last used it, and itself allocates only the instance and small
temporaries, because each thread's heap arena keeps its own high-water
mark. So there is one worker and no more: a probe with two read +18.5% peak
RSS. A classification split is one block and starts no thread. No other
module starts threads.

``TASK_FAMILIES`` is the one place a world kind is decided: it names the
config class, world class, task network and builder of each kind.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .envs import (EVAL, TRAIN, VAL, ClassificationConfig, ClassificationWorld,
                   DetectionConfig, DetectionWorld, checked_ints)
from .errors import BudgetError, ConfigError, NonFiniteError, StateError
from .mvselect import QNetwork, epsilon_schedule, rl_loss, rollout, td_targets
from .numcore import Adam, work_array
from .tasknet import MVClassifier, MVDetector, TaskNet, ViewFeatures, route_pooled_grad

Array = np.ndarray

REGIMES = ("task", "select-fixed", "joint")
POLICIES = ("mvselect", "random", "dataset-oracle", "instance-oracle", "full-views")
SPLITS = {"train": TRAIN, "val": VAL, "eval": EVAL}  # the split names a config may use
JOINT_TASK_LR_FACTOR = 0.2  # the task network learns at a fifth of its rate
DEFAULT_ENUM_BUDGET = 5_000_000


@dataclass(frozen=True)
class TrainConfig:
    regime: str
    epochs: int
    T: int
    batch_size: int = 8
    task_lr: float = 1e-3
    selector_lr: float = 1e-3
    gamma: float = 0.99
    epsilon_start: float = 0.95
    epsilon_end: float = 0.05
    joint_task_lr_factor: float = JOINT_TASK_LR_FACTOR
    seed: int = 0
    # view-count mix for task-only training; None trains on all N views
    train_view_counts: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.train_view_counts is not None:  # a list from a config file
            object.__setattr__(self, "train_view_counts",
                               checked_ints("train_view_counts entry", self.train_view_counts))
        check_train_ranges(vars(self))
        if self.regime != "task" and self.T < 2:
            raise ConfigError("selection regimes need T >= 2")


def check_train_ranges(values: dict) -> None:
    """Raise ConfigError naming the first out-of-range train setting in
    ``values``; settings it does not hold are not checked."""
    if "regime" in values and values["regime"] not in REGIMES:
        raise ConfigError(f"regime must be one of {REGIMES}, got {values['regime']!r}")
    for name in ("epochs", "batch_size", "T", "task_lr", "selector_lr", "joint_task_lr_factor"):
        if name in values and not values[name] > 0:
            raise ConfigError(f"{name} must be positive, got {values[name]!r}")
    for name in ("gamma", "epsilon_start", "epsilon_end"):
        if name in values and not 0.0 <= values[name] <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1], got {values[name]!r}")
    if "seed" in values and values["seed"] < 0:
        raise ConfigError(f"seed must be at least 0, got {values['seed']!r}")
    if values.get("train_view_counts") is not None and len(values["train_view_counts"]) == 0:
        raise ConfigError("train_view_counts must name at least one view count, got []")


@dataclass
class TrainResult:
    epoch_logs: list[dict]
    counters: dict[str, int]
    total_steps: int


def params_hash(net) -> str:
    digest = hashlib.sha256()
    for name, param in sorted(net.named_params()):
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(param, dtype="<f8").tobytes())
    return digest.hexdigest()


def build_classifier(world, hidden: int = 64, feat_dim: int = 32, seed: int = 0) -> MVClassifier:
    return MVClassifier(obs_dim=world.config.feat_dim, feat_dim=feat_dim,
                        n_classes=world.config.n_classes, hidden=hidden, seed=seed)


def build_detector(world, hidden: int = 32, feat_dim: int = 16, seed: int = 0) -> MVDetector:
    return MVDetector(channels=world.config.channels, feat_dim=feat_dim, hidden=hidden, seed=seed)


@dataclass(frozen=True)
class TaskFamily:
    """What one world kind is made of: its config and world classes, the
    task network that solves it and that network's builder."""

    config: type
    world: type
    net: type
    build: Callable


# every world kind, in the order config errors list them
TASK_FAMILIES = {
    "classification": TaskFamily(ClassificationConfig, ClassificationWorld,
                                 MVClassifier, build_classifier),
    "detection": TaskFamily(DetectionConfig, DetectionWorld, MVDetector, build_detector),
}


def build_selector(world, task_net, hidden: int = 64, seed: int = 0, **flags) -> QNetwork:
    return QNetwork(n_cameras=world.n_cameras, feat_dim=task_net.feat_dim, hidden=hidden,
                    seed=seed, **flags)


def check_t(world, T: int) -> None:
    """Raise ConfigError unless the view budget T is an integer in [1, N]."""
    checked_ints("T", [T])
    if not 1 <= T <= world.n_cameras:
        raise ConfigError(f"T={T} is outside the {world.n_cameras}-camera layout")


def _require_finite_loss(value: float, where: str) -> None:
    if not np.isfinite(value):
        raise NonFiniteError(f"non-finite loss at {where}")


def _distinct_sets(view_sets: Array) -> tuple[Array, Array]:
    """The first row of each distinct view set among the rows of view_sets
    (S, k), and the index of each row's set among those rows. Pooling is an
    order-invariant max, so rows holding the same set share one output."""
    slots: dict = {}
    firsts, inverse = [], []
    for r, row in enumerate(view_sets.tolist()):
        slot = slots.setdefault(frozenset(row), len(firsts))
        if slot == len(firsts):     # a new set: this row is its first
            firsts.append(r)
        inverse.append(slot)
    return view_sets[firsts], np.array(inverse)


# ---------------------------------------------------------------------------
# the minibatch loop of every regime, and task-network training


def _minibatch_loop(world, cfg: TrainConfig, batch: int, stream: int, step) -> TrainResult:
    """Run ``step(idx, rng, work, epoch, i)`` on each minibatch ``idx`` of
    ``batch`` training instances, ``cfg.epochs`` times over permutations from
    the regime's generator ``rng`` (``[cfg.seed, stream]``), with the call's
    backward ``work`` arrays and the step's index ``i``. A step returns the
    counter terms it adds and the values it logs (an epoch's log: each loss's
    mean, the last step's ``epsilon``); its arrays go when it returns."""
    rng = np.random.default_rng([cfg.seed, stream])
    work: dict = {}
    logs: list[dict] = []
    counters = {"task_terms": 0, "rl_terms": 0}
    steps = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(world.n_train)
        logged: dict[str, list] = {}
        for start in range(0, world.n_train, batch):
            terms, values = step(order[start : start + batch], rng, work, epoch, steps)
            for key, term in terms.items():
                counters[key] += term
            for key, value in values.items():
                logged.setdefault(key, []).append(value)
            steps += 1
        entry = {key: float(v[-1] if key == "epsilon" else np.mean(v)) for key, v in logged.items()}
        logs.append({"epoch": epoch, **entry})
    return TrainResult(logs, counters, steps)


def train_task_network(world, net, cfg: TrainConfig) -> TrainResult:
    """Train the task network alone; every batch uses all views unless the
    config asks for a mix of view counts."""
    if cfg.regime != "task":
        raise ConfigError("train_task_network expects the task regime")
    n_cams = world.n_cameras
    counts = cfg.train_view_counts
    if counts is not None and any(not 1 <= c <= n_cams for c in counts):
        raise ConfigError(f"train.train_view_counts entries must lie in "
                          f"[1, {n_cams}], got {list(counts)}")
    opt = Adam(net.named_params(), lr=cfg.task_lr)

    def step(idx, rng, work, epoch, _):
        views = slice(None)
        if counts is not None:
            size = int(counts[rng.integers(len(counts))])
            views = np.sort(rng.permutation(n_cams)[:size])
        obs, truths = _batch(net, world, idx)
        loss, grads = _batch_loss(net, _stacked(obs)[:, views], truths, work)
        _require_finite_loss(loss, f"epoch {epoch}")
        opt.step(grads)
        return {"task_terms": 1}, {"loss": loss}

    return _minibatch_loop(world, cfg, net.train_batch or cfg.batch_size, 11, step)


def _batch_loss(net, obs, truths, work: dict | None = None) -> tuple[float, dict]:
    """Task loss and gradients of a batch whose observations (G, V, ...)
    hold the views to pool."""
    feats, fcache = net.features_cache(obs)                       # (G, V[, H, W], D)
    outputs, hcache = net.head_cache(feats.max(axis=1))
    views = np.broadcast_to(np.arange(obs.shape[1]), obs.shape[:2])
    return _task_grads(net, feats, fcache, views, truths, outputs, hcache, work=work)


# ---------------------------------------------------------------------------
# per-batch pieces of training


def _batch(task_net, world, indices):
    """The observations (N, ...) of each training instance and their ground
    truths."""
    insts = [world.instance(TRAIN, int(i)) for i in indices]
    return [inst.observations for inst in insts], [task_net.truth(inst) for inst in insts]


def _stacked(obs) -> Array:
    """Instances' observations as one (G, N, ...) array. A lone frame stays
    a view: stacking would copy a detection frame's channel broadcast."""
    return obs[0][None] if len(obs) == 1 else np.stack(obs)


def _task_grads(task_net, feats, fcache, views, truths, outputs, hcache, d_obs=None,
                work: dict | None = None):
    """Task loss of the outputs pooled over each instance's views (G, k),
    plus the gradients of both task-network parts.

    feats are (G, V[, H, W], D), read only at the listed views. d_obs, when
    given, holds the selector's gradient w.r.t. each state's observation
    vector (D,), rows in (instance, step) order. Spread evenly over any
    spatial cells, each routes step by step to the views chosen up to that
    state; the terminal pooled gradient follows, so the feature extractor
    takes a single combined step. The feature gradients and every backward
    temporary go into ``work`` (``numcore.work_array``; a fresh dict by
    default)."""
    work = {} if work is None else work
    d_feats = work_array(work, "d_feats", feats.shape)
    d_feats.fill(0.0)
    if d_obs is not None:
        n_inst, T = views.shape
        cells = feats.shape[2:-1]
        d_obs = d_obs.reshape((n_inst, T - 1) + (1,) * len(cells) + (-1,)) / math.prod(cells)
        for t in range(T - 1):
            route_pooled_grad(d_feats, feats, views[:, : t + 1], d_obs[:, t], work)
    loss, d_out = task_net.loss(outputs, truths)
    grads, d_pooled = task_net.head_backward(hcache, d_out, work)
    route_pooled_grad(d_feats, feats, views, d_pooled, work)
    grads.update(task_net.features_backward(fcache, d_feats, work))
    return loss, grads


# ---------------------------------------------------------------------------
# selector training (fixed task network) and joint training


def train_selector_fixed(world, task_net, q_net, cfg: TrainConfig) -> TrainResult:
    """Train the selector while the task network stays byte-frozen."""
    if cfg.regime != "select-fixed":
        raise ConfigError("train_selector_fixed expects the select-fixed regime")
    frozen = params_hash(task_net)
    result = _selection_training(world, task_net, q_net, cfg, update_task=False)
    if params_hash(task_net) != frozen:
        raise StateError("task network changed during select-fixed training")
    return result


def train_joint(world, task_net, q_net, cfg: TrainConfig) -> TrainResult:
    """Per batch: roll out T-1 epsilon-greedy selections, regress the taken
    action values on inline TD targets, add the terminal task loss, and step
    both networks (task network at a fifth of its learning rate)."""
    if cfg.regime != "joint":
        raise ConfigError("train_joint expects the joint regime")
    return _selection_training(world, task_net, q_net, cfg, update_task=True)


def _selection_training(world, task_net, q_net, cfg, update_task: bool) -> TrainResult:
    check_t(world, cfg.T)
    batch = task_net.train_batch or cfg.batch_size
    total_steps = cfg.epochs * ((world.n_train + batch - 1) // batch)
    opt_q = Adam(q_net.named_params(), lr=cfg.selector_lr)
    opt_task = (
        Adam(task_net.named_params(), lr=cfg.task_lr * cfg.joint_task_lr_factor)
        if update_task
        else None
    )

    def step(idx, rng, work, epoch, i):
        eps = epsilon_schedule(i, total_steps, cfg.epsilon_start, cfg.epsilon_end)
        initial = rng.integers(world.n_cameras, size=len(idx))
        batch_obs, truths = _batch(task_net, world, idx)
        table = ViewFeatures(task_net, batch_obs, work, update_task)
        chosen, cams, obs, masks, values, pooled = rollout(
            q_net, table, initial[:, None], cfg.T, epsilon=eps, rng=rng)
        outputs, hcache = task_net.head_cache(pooled[:, 0])
        rewards = task_net.reward(outputs, truths)
        # TD targets from the values recorded in the rollout, then one
        # regression step over every state, rows in (instance, step) order
        actions = chosen[..., 1:].reshape(-1)
        q_taken = np.take_along_axis(values, chosen[..., 1:, None], axis=-1).reshape(-1)
        targets = td_targets(values, masks, np.reshape(rewards, (-1, 1)), cfg.gamma).reshape(-1)
        loss_rl, d_terms = rl_loss(q_taken, targets)
        loss_rl /= len(idx)
        d_terms = d_terms / len(idx)
        _require_finite_loss(loss_rl, f"epoch {epoch} selection loss")
        q_all, q_cache = q_net.forward_cache(cams.reshape(len(actions), -1),
                                             obs.reshape(len(actions), -1))
        d_q = np.zeros_like(q_all)
        d_q[np.arange(len(actions)), actions] = d_terms
        q_grads, d_obs = q_net.backward(q_cache, d_q)
        terms, logged = {"rl_terms": len(actions)}, {"loss": loss_rl, "epsilon": eps}
        if update_task:
            loss_task, task_grads = _task_grads(task_net, table.feats, table.cache, chosen[:, 0],
                                                truths, outputs, hcache, d_obs, work)
            _require_finite_loss(loss_task, f"epoch {epoch} task loss")
            opt_task.step(task_grads)
            terms["task_terms"], logged["task_loss"] = 1, loss_task
        opt_q.step(q_grads)
        return terms, logged

    return _minibatch_loop(world, cfg, batch, 13, step)


# ---------------------------------------------------------------------------
# policy tables (oracles and their export format)


@dataclass(frozen=True)
class PolicyTable:
    """Fixed selections: the (m, N, T) view sets an oracle chose, column 0
    the initial view; a dataset table has one row (m = 1) for every
    instance, an instance table one per instance of its split. Its JSON
    form keys each initial view's T - 1 other cameras "v0" or "i:v0"."""

    kind: str  # "dataset" | "instance"
    sets: Array

    @property
    def T(self) -> int:
        return self.sets.shape[-1]

    def to_json(self) -> str:
        body = {(str(v0) if self.kind == "dataset" else f"{i}:{v0}"): row[1:]
                for i, rows in enumerate(self.sets.tolist()) for v0, row in enumerate(rows)}
        return json.dumps({"kind": self.kind, "T": self.T, "entries": body},
                          sort_keys=True, separators=(",", ":"))


def check_enumeration_budget(world, T: int, split: str, budget: int = DEFAULT_ENUM_BUDGET) -> int:
    """Subset-evaluation count for an oracle run; raises when over budget."""
    count = world.split_size(split) * math.comb(world.n_cameras, T)
    if count > budget:
        raise BudgetError(
            f"oracle enumeration needs {count} subset evaluations "
            f"(> budget {budget}); reduce N, T, or the split size"
        )
    return count


def _oracle_choice(n_cams: int, run: PolicyRun, subsets: Array, score: Array, tie: Array,
                   records: Array) -> tuple[PolicyTable, Array, Array]:
    """Best view set per initial view from the (n, S) scores, ties and
    (n, S, k) records of every size-T subset: highest score among the
    subsets that hold the view and no other camera the run shuts off, then
    the lowest tie value, then the first subset in sorted order. A dataset
    table judges the mean score over the split with no tie value; an
    instance table judges each instance on its own. Returns the table, the
    (n, N, T) chosen sets (initial view first) and their (n, N, k) records."""
    n, kind = len(records), run.policy.removesuffix("-oracle")
    if kind == "dataset":
        score, tie = score.mean(axis=0, keepdims=True), np.zeros((1, len(subsets)))
    enabled = ~np.isin(subsets, list(run.disabled))   # (S, T)
    best = np.zeros((len(score), n_cams), dtype=int)
    for v0 in range(n_cams):
        at_v0 = subsets == v0
        allowed = at_v0.any(axis=1) & (enabled | at_v0).all(axis=1)
        primary = np.where(allowed, score, -np.inf)
        top = primary == primary.max(axis=1, keepdims=True)
        best[:, v0] = np.where(top, tie, np.inf).argmin(axis=1)
    best = np.broadcast_to(best, (n, n_cams))
    sets = subsets[best]                        # (n, N, T), each holding its initial view
    v0_first = np.argsort(sets != np.arange(n_cams)[:, None], axis=-1, kind="stable")
    chosen = np.take_along_axis(sets, v0_first, axis=-1)
    return PolicyTable(kind, chosen[: len(score)]), chosen, records[np.arange(n)[:, None], best]


def dataset_oracle_table(world, task_net, T: int, split: str,
                         budget: int = DEFAULT_ENUM_BUDGET) -> PolicyTable:
    """Best fixed view set per initial view, judged by the mean score over
    the designated split."""
    return evaluate_policy(world, task_net, T, "dataset-oracle", split, budget=budget).table


def instance_oracle_table(world, task_net, T: int, split: str,
                          budget: int = DEFAULT_ENUM_BUDGET) -> PolicyTable:
    """Best view set per (instance, initial view): the highest network
    score (correctness, or frame MODA), the lower task loss breaking ties."""
    return evaluate_policy(world, task_net, T, "instance-oracle", split, budget=budget).table


def random_sequence(n_cams: int, initial_view: int, T: int, seed: int,
                    instance_index: int, disabled=frozenset()) -> tuple[int, ...]:
    """Uniform distinct completion of an initial view, avoiding disabled
    cameras; deterministic per (seed, instance, initial view). The T - 1
    cameras are the first of one permutation that does not depend on T, so
    a completion at T is the first T - 1 entries of any longer one."""
    rng = np.random.default_rng([seed, 17, instance_index, initial_view])
    open_cams = [c for c in range(n_cams) if c != initial_view and c not in disabled]
    picks = rng.permutation(len(open_cams))[: T - 1]
    return tuple(int(open_cams[p]) for p in picks)


# ---------------------------------------------------------------------------
# greedy rollout (evaluation side) and policy evaluation


def greedy_sequences(q_net, feats: Array, n_cams: int, T: int,
                     disabled=frozenset()) -> Array:
    """Greedy selections (G, N, T) from every initial view of G instances'
    features (G, N, ...), column 0 the initial view; one Q forward per step."""
    return rollout(q_net, feats, np.tile(np.arange(n_cams), (len(feats), 1)), T, disabled)[0]


@dataclass
class EvalRun:
    """Raw per-(instance, initial view) evaluation records for one policy,
    with the task network that wrote and scores them, and the table an
    oracle run built or followed."""

    task_net: TaskNet
    policy: str
    split: str
    T: int
    chosen: Array    # (n, N, T) selected view ids, column 0 = initial
    records: Array   # (n, N, k) the task network's record of each rollout
    table: PolicyTable | None = None

    def metrics(self) -> dict:
        return self.task_net.metrics(self.records)


@dataclass(frozen=True)
class PolicyRun:
    """One run of an evaluation pass: a policy at view budget T, with the
    selector an mvselect run needs, the table an oracle run may follow
    (without one, the oracle builds its own) and the cameras shut off from
    its selection (they still serve as initial views)."""

    policy: str
    T: int
    q_net: QNetwork | None = None
    table: PolicyTable | None = None
    disabled: frozenset = frozenset()


def _checked_table(table: PolicyTable, n: int, n_cams: int, T: int, disabled: frozenset) -> None:
    """Raise ConfigError unless the table's rows (one, or one per instance
    of an n-instance split) complete every initial view of the n_cams
    cameras with T - 1 distinct other cameras, none of them ``disabled``."""
    sets, shape = np.asarray(table.sets), ({"dataset": 1, "instance": n}.get(table.kind), n_cams, T)
    if sets.shape != shape or sets.dtype.kind != "i":
        raise ConfigError(f"policy table of kind {table.kind!r} holds {sets.dtype} {sets.shape}, "
                          f"not int (rows, cameras, T) = {shape} for {n} instances")
    ordered = np.sort(sets, axis=-1)
    bad = ((sets[..., 0] != np.arange(n_cams)) | (ordered[..., 0] < 0)
           | (ordered[..., -1] >= n_cams) | (np.diff(ordered, axis=-1) == 0).any(axis=-1)
           | np.isin(sets[..., 1:], list(disabled)).any(axis=-1))
    if bad.any():
        i, v0 = np.argwhere(bad)[0].tolist()
        raise ConfigError(f"policy table entry {(i, v0)} {sets[i, v0].tolist()} is not view {v0} "
                          f"and {T - 1} distinct other cameras of {n_cams}, none of them "
                          f"shut off {sorted(disabled)}")


def check_run(world, run: PolicyRun, split: str, budget: int = DEFAULT_ENUM_BUDGET) -> PolicyRun:
    """The one check of an evaluation run. Returns the run as it evaluates:
    T an int and disabled a frozenset of ints, or for full-views all N
    cameras whatever its T (still an integer in [1, N]) and disabled say.
    Raises unless it can select T cameras, an mvselect run has a selector and
    an oracle stays within the enumeration budget or follows a fitting table."""
    if run.policy not in POLICIES:
        raise ConfigError(f"policy must be one of {POLICIES}, got {run.policy!r}")
    disabled = frozenset(checked_ints("disabled id", run.disabled))
    bad = sorted(v for v in disabled if not 0 <= v < world.n_cameras)
    if bad:
        raise ConfigError(f"disabled ids {bad} outside camera range")
    check_t(world, run.T)
    if run.policy == "full-views":
        return replace(run, T=world.n_cameras, disabled=frozenset())
    T, usable = int(run.T), world.n_cameras - len(disabled)
    if usable < T:
        raise ConfigError(f"shut-off leaves {usable} usable cameras, fewer than T={T}")
    if run.policy == "mvselect" and run.q_net is None:
        raise ConfigError("mvselect evaluation needs a selector network")
    if run.policy.endswith("-oracle") and run.table is None:
        check_enumeration_budget(world, T, split, budget)
    elif run.table is not None:
        _checked_table(run.table, world.split_size(split), world.n_cameras, T, disabled)
    return replace(run, T=T, disabled=disabled)


def _prepared_blocks(world, task_net, split: str, block: int, worker):
    """Each block of ``block`` instances of the split, in order, as (index
    range, instances, features). With a ``worker`` (an executor of one
    thread), the worker prepares block b + 1 while the caller holds block b,
    into the buffers ``works[(b + 1) % 2]`` that the caller allocated."""
    n = world.split_size(split)
    # a lone block keeps none of f's arrays past its features call
    works = ({}, {}) if worker is not None else (None,)

    def prepare(start: int, work: dict | None):
        index = range(start, min(start + block, n))
        insts = [world.instance(split, i) for i in index]
        obs = _stacked([inst.observations for inst in insts])
        return index, insts, task_net.features(obs, work)

    ahead = prepare(0, works[0])
    if worker is not None:
        works[1].update((key, np.empty_like(arr) if np.shares_memory(arr, ahead[2]) else arr)
                        for key, arr in works[0].items())
    for b, start in enumerate(range(block, n, block), 1):
        future = worker.submit(prepare, start, works[b % 2])
        yield ahead
        ahead = future.result()
    yield ahead


def evaluate_policies(world, task_net, runs, split: str = "eval", seed: int = 0,
                      budget: int = DEFAULT_ENUM_BUDGET) -> list[EvalRun]:
    """Evaluate several ``PolicyRun``s over a split in one pass; returns
    their ``EvalRun``s in order, each equal to what ``evaluate_policy``
    gives for that run alone.

    Every run is checked before any work. The split goes in blocks of
    ``task_net.eval_block`` instances (None: all of them), each generated
    and featurized once for all runs; a block's greedy rollouts and its
    full-views decode are one stacked call each, bit-equal per instance to
    calls on one instance. The oracle runs without a table at one T share
    one decode and scoring of every size-T subset, and their tables and
    records are chosen from it, each avoiding its own run's shut-off
    cameras; an oracle run that follows a table takes its view sets from
    the table, checked whole before the first block. Each (instance,
    initial view) draws one whole random order per distinct disabled set,
    which each random run with that set cuts to its T - 1 cameras. Equal
    runs, such as full-views at several T, are evaluated once. A split of
    several blocks is pipelined on one worker thread (module docstring).
    """
    runs = [check_run(world, run, split, budget) for run in runs]
    if not runs:
        return []
    keys = [(run.policy, run.T, id(run.q_net), id(run.table), run.disabled) for run in runs]
    distinct = dict(zip(keys, runs))
    builds = [k for k, run in distinct.items()
              if run.policy.endswith("-oracle") and run.table is None]
    n, n_cams = world.split_size(split), world.n_cameras
    subsets = {t: np.array(list(itertools.combinations(range(n_cams), t)), dtype=int)
               for t in sorted({distinct[k].T for k in builds})}
    # per T: each instance's subset records, and the (n, S) scores and ties
    scored = {t: ([], np.zeros((n, len(s))), np.zeros((n, len(s)))) for t, s in subsets.items()}
    # per other run: the (n, N, T) view sets (an oracle's from its checked
    # table), and each instance's records
    picked = {k: (np.zeros((n, n_cams, run.T), dtype=int)
                  + (run.table.sets if run.policy.endswith("-oracle") else 0), [])
              for k, run in distinct.items() if k not in builds}
    random_off = {distinct[k].disabled for k in picked if distinct[k].policy == "random"}
    block = task_net.eval_block or n
    # a split of several blocks prepares each next block on one worker thread;
    # imported here, so a process that evaluates no such split never loads it
    if n > block:
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=1) if n > block else nullcontext() as worker:
        for index, insts, feats in _prepared_blocks(world, task_net, split, block, worker):
            for i, inst in zip(index, insts):
                for t, (records, scores, ties) in scored.items():
                    outputs = task_net.decode(feats[i - index.start], subsets[t])
                    records.append(task_net.records(outputs, inst, world))
                    scores[i] = task_net.score(records[-1])
                    ties[i] = -task_net.reward(outputs, task_net.truth(inst))
            orders = {off: {i: [random_sequence(n_cams, v0, n_cams, seed, i, off)
                                for v0 in range(n_cams)] for i in index} for off in random_off}
            for k, (chosen, records) in picked.items():
                run = distinct[k]
                if run.policy == "full-views":
                    # one set per instance: one (G, 1, D) head call, bit-equal per row
                    chosen[index] = np.arange(n_cams)
                    outputs = task_net.head_cache(feats.max(axis=1)[:, None])[0]
                    records += [task_net.records(out, inst, world)[[0] * n_cams]
                                for out, inst in zip(outputs, insts)]
                    continue
                if run.policy == "mvselect":
                    chosen[index] = greedy_sequences(run.q_net, feats, n_cams, run.T, run.disabled)
                for i, inst in zip(index, insts):
                    if run.policy == "random":
                        chosen[i] = [(v0,) + order[: run.T - 1]
                                     for v0, order in enumerate(orders[run.disabled][i])]
                    distinct_sets, inverse = _distinct_sets(chosen[i])
                    outputs = task_net.decode(feats[i - index.start], distinct_sets)
                    records.append(task_net.records(outputs, inst, world)[inverse])
    done = {}
    for k, run in distinct.items():
        if k in picked:
            chosen, records, table = picked[k][0], np.stack(picked[k][1]), run.table
        else:
            records, scores, ties = scored[run.T]
            table, chosen, records = _oracle_choice(n_cams, run, subsets[run.T], scores, ties,
                                                    np.stack(records))
        done[k] = EvalRun(task_net, run.policy, split, run.T, chosen, records, table)
    return [done[k] for k in keys]


def evaluate_policy(world, task_net, T: int, policy: str, split: str = "eval",
                    q_net=None, table: PolicyTable | None = None, seed: int = 0,
                    budget: int = DEFAULT_ENUM_BUDGET) -> EvalRun:
    """Evaluate one policy over a split, averaging over every initial view:
    the one-run call of ``evaluate_policies``.

    Every camera serves as the initial view once per instance, and the
    selection may use every camera (a run with cameras shut off is a
    ``PolicyRun`` with ``disabled`` set). The full-views policy uses all
    cameras regardless of T. Each distinct view set of an instance is
    decoded and scored once. An oracle policy without a table builds one
    and keeps the records it scored its chosen sets by, so no instance is
    featurized or decoded twice.
    """
    return evaluate_policies(world, task_net, [PolicyRun(policy, T, q_net, table)],
                             split, seed, budget)[0]
