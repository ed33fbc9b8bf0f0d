"""Reference oracles the tests check the package against: finite-difference
gradients, the per-array form of the Adam update, a loop-form max-pool and task-network forward, the gather-and-reduce
form of subset decoding, the argmax form of the max-pool gradient router, the channel-first form of the detector and of
the selection rollout, a Q-network valuing one instance per forward, the loop form of task-network training, the
eager select-fixed and joint loops that featurize every view of a batch, the per-camera ray-cast form of detection
visibility, the discriminative views of a classification class pair, an exhaustive action-value solver for tiny worlds,
a policy evaluator that takes one run and one instance at a time, loop forms of
detection peak extraction, matching and per-map frame counts, the runtime's
greedy matcher on one frame as a match record, a paired significance test,
and a builder and reader of policy tables in their exported JSON form.
Nothing in ``fewview`` calls them."""

import itertools
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import ndimage, stats

from fewview.errors import ShapeError, StateError
from fewview.evaluation import PEAK_SCORE_THRESHOLD, _greedy_matches
from fewview.mvselect import epsilon_schedule, rl_loss, rollout, td_targets
from fewview.numcore import Adam
from fewview.training import (PolicyTable, TrainResult, _batch, _batch_loss, _stacked,
                              _task_grads, check_t, random_sequence)

Array = np.ndarray


def policy_table(kind: str, entries: dict) -> PolicyTable:
    """The table whose JSON-shaped ``entries`` give each initial view's
    T - 1 other cameras, keyed "v0" (dataset) or "i:v0" (instance): one row,
    or one per instance up to the largest i, over the cameras up to the
    largest v0, T one more than the first entry's length. A view set no
    entry gives holds -1; nothing is validated."""
    keys = [tuple(int(part) for part in key.split(":")) for key in entries]
    keys = [(0,) + key if kind == "dataset" else key for key in keys]
    T = 1 + len(next(iter(entries.values())))
    sets = np.full((1 + max(i for i, _ in keys), 1 + max(v for _, v in keys), T), -1)
    for (i, v0), seq in zip(keys, entries.values()):
        sets[i, v0] = (v0, *seq)
    return PolicyTable(kind, sets)


def table_entries(table: PolicyTable) -> dict:
    """The JSON-shaped entries of ``table``, read from its view sets: each
    initial view's other cameras, keyed as ``policy_table`` takes them."""
    return {(str(v0) if table.kind == "dataset" else f"{i}:{v0}"): row[1:]
            for i, rows in enumerate(table.sets.tolist()) for v0, row in enumerate(rows)}


def read_policy_table(text: str) -> PolicyTable:
    """The table whose ``PolicyTable.to_json`` form is ``text``; it reads
    that form back and validates nothing."""
    raw = json.loads(text)
    return policy_table(raw["kind"], raw["entries"])


def numeric_gradient(loss_fn: Callable[[], float], param: Array, step: float = 1e-5) -> Array:
    """Central finite differences of ``loss_fn`` w.r.t. ``param``, entry by entry.

    ``loss_fn`` must read ``param`` in place; it is restored after probing.
    This is the independent oracle for backward passes and never calls them.
    """
    grad = np.zeros_like(param)
    flat = param.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = loss_fn()
        flat[i] = orig - step
        lo = loss_fn()
        flat[i] = orig
        gflat[i] = (hi - lo) / (2.0 * step)
    return grad


def max_relative_error(analytic: Array, numeric: Array, floor: float = 1e-6) -> float:
    """Worst-case elementwise relative error between two gradient arrays."""
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    if analytic.shape != numeric.shape:
        raise ShapeError("gradient arrays must share a shape")
    scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / scale))


class LoopAdam:
    """Adam stepping each parameter array on its own, with a moment array
    per parameter: the update ``numcore.Adam`` must match bit for bit. It
    checks no gradient."""

    def __init__(self, named_params, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.step_count = 0
        self._params = list(named_params)
        self._m = {name: np.zeros_like(p) for name, p in self._params}
        self._v = {name: np.zeros_like(p) for name, p in self._params}

    def step(self, grads) -> None:
        self.step_count += 1
        t = self.step_count
        for name, param in self._params:
            g = grads[name]
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1**t)
            v_hat = v / (1.0 - self.beta2**t)
            param -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def aggregate_max(features) -> Array:
    """Elementwise maximum of a nonempty list of same-shape feature arrays."""
    features = list(features)
    if not features:
        raise ShapeError("cannot aggregate zero views")
    out = np.asarray(features[0], dtype=np.float64)
    for feat in features[1:]:
        feat = np.asarray(feat, dtype=np.float64)
        if feat.shape != out.shape:
            raise ShapeError(f"feature shapes differ: {feat.shape} vs {out.shape}")
        out = np.maximum(out, feat)
    return out


def predict(net, obs: Array, views) -> Array:
    """A task network's output from the given view subset of one instance's
    observations: a forward independent of the training paths."""
    feats, _ = net.features_cache(np.asarray(obs)[list(views)])
    return net.head_cache(aggregate_max(feats)[None])[0][0]


def predict_sets_gathered(task_net, feats: Array, view_sets: Array) -> Array:
    """Predictions for the view subsets (S, k) of one instance from one
    gather of the (S, k[, H, W], D) features and one max over its k axis,
    the detector head then run per set."""
    pooled = feats[view_sets].max(axis=1)
    if pooled.ndim == 2:
        return task_net.head_cache(pooled)[0]
    return np.stack([task_net.head_cache(p)[0] for p in pooled])


def route_pooled_grad_argmax(d_feats: Array, feats: Array, views: Array, d_pooled: Array) -> None:
    """The max-pool gradient router as an argmax scatter: each (instance,
    feature[, cell]) adds d_pooled at the view of ``views`` that ``argmax``
    picks, the first listed one on ties."""
    inst = np.arange(len(views))[:, None]
    amax = feats[inst, views].argmax(axis=1)            # (G, D[, H, W]) slot in views
    idx = np.indices(amax.shape, sparse=True)
    d_feats[(idx[0], views[idx[0], amax]) + tuple(idx[1:])] += d_pooled


class ChannelFirstDetector:
    """An ``MVDetector``'s networks on channel-first features (..., V, D, H,
    W): each step moves the feature axis last for the per-cell networks and
    back again. ``training._batch_loss`` runs on it as on the detector."""

    def __init__(self, net):
        self.net = net

    def features_cache(self, obs: Array):
        obs = np.asarray(obs, dtype=np.float64)
        *lead, c, h, w = obs.shape
        feats, cache = self.net.feature_net.forward_cache(np.moveaxis(obs, -3, -1).reshape(-1, c))
        return np.moveaxis(feats.reshape(*lead, h, w, self.net.feat_dim), -1, -3), cache

    def features_backward(self, cache, d_feats: Array, work=None) -> dict[str, Array]:
        flat = np.moveaxis(np.asarray(d_feats), -3, -1).reshape(-1, self.net.feat_dim)
        grads, _ = self.net.feature_net.backward(cache, flat, work=work)
        return {f"feature.{k}": g for k, g in grads.items()}

    def head_cache(self, pooled: Array):
        *lead, d, h, w = pooled.shape
        out, cache = self.net.head_net.forward_cache(np.moveaxis(pooled, -3, -1).reshape(-1, d))
        return out.reshape(*lead, h, w), (cache, pooled.shape)

    def head_backward(self, hcache, d_heatmap: Array, work=None):
        cache, (*lead, d, h, w) = hcache
        grads, d_flat = self.net.head_net.backward(cache, np.asarray(d_heatmap).reshape(-1, 1),
                                                   work=work)
        d_pooled = np.moveaxis(d_flat.reshape(*lead, h, w, d), -1, -3)
        return {f"head.{k}": v for k, v in grads.items()}, d_pooled

    def loss(self, outputs: Array, truths):
        return self.net.loss(outputs, truths)


class PerInstanceQ:
    """``q_net`` valuing a (G, R) stack of states with one forward per
    instance: the reference for the rollout's one forward on the stack."""

    def __init__(self, q_net):
        self.q_net = q_net

    def forward_cache(self, cams: Array, obs: Array):
        return np.stack([self.q_net.forward_cache(cams[g], obs[g])[0] for g in range(len(cams))]), None


def rollout_channel_first(q_net, feats: Array, initial, T: int, disabled=frozenset(),
                          epsilon: float = 0.0, rng=None):
    """The selection rollout on channel-first features (G, N, D, H, W): a C
    order running max, whose cell mean over its trailing axes is each
    state's observation vector. Returns (chosen, obs, values, pooled) as
    ``mvselect.rollout`` does, pooled (G, R, D, H, W)."""
    initial = np.asarray(initial, dtype=int)
    (n_inst, n_rows), n_cams = initial.shape, feats.shape[1]
    inst, row = np.arange(n_inst)[:, None], np.arange(n_rows)
    chosen = np.zeros((n_inst, n_rows, T), dtype=int)
    chosen[..., 0] = initial
    taken = np.zeros((n_inst, n_rows, n_cams))
    taken[inst, row, initial] = 1.0
    pooled = np.ascontiguousarray(feats[inst, initial])
    obs, values = [], []
    for _ in range(T - 1):
        obs_t = pooled.mean(axis=(3, 4))
        mask = (taken > 0) | np.isin(np.arange(n_cams), list(disabled))
        q = PerInstanceQ(q_net).forward_cache(taken, obs_t)[0]
        action = np.where(mask, -np.inf, q).argmax(axis=-1)
        if epsilon > 0:
            for g in range(n_inst):
                for r in range(n_rows):
                    if rng.random() < epsilon:
                        open_cams = np.flatnonzero(~mask[g, r])
                        action[g, r] = open_cams[rng.integers(len(open_cams))]
        obs.append(obs_t)
        values.append(q)
        chosen[..., len(obs)] = action
        taken[inst, row, action] += 1.0
        pooled = np.maximum(pooled, feats[inst, action], order="C")
    return chosen, np.stack(obs, axis=2), np.stack(values, axis=2), pooled


def train_task_network_loop(world, net, cfg) -> TrainResult:
    """Task-network training written out as its own minibatch loop: the
    regime's generator, epoch order, optional view-count mix, steps,
    counters and epoch log inline; ``training.train_task_network`` must
    match bit for bit."""
    rng = np.random.default_rng([cfg.seed, 11])
    n, n_cams, counts = world.n_train, world.n_cameras, cfg.train_view_counts
    batch = net.train_batch or cfg.batch_size
    opt = Adam(net.named_params(), lr=cfg.task_lr)
    logs, counters, steps = [], {"task_terms": 0, "rl_terms": 0}, 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            views = slice(None)
            if counts is not None:
                size = int(counts[rng.integers(len(counts))])
                views = np.sort(rng.permutation(n_cams)[:size])
            obs, truths = _batch(net, world, idx)
            loss, grads = _batch_loss(net, _stacked(obs)[:, views], truths)
            opt.step(grads)
            counters["task_terms"] += 1
            losses.append(loss)
            steps += 1
        logs.append({"epoch": epoch, "loss": float(np.mean(losses))})
    return TrainResult(logs, counters, steps)


def train_selector_fixed_eager(world, task_net, q_net, cfg) -> TrainResult:
    """Select-fixed training that featurizes all N views of every batch in
    one call before the rollout reads T of them: the loop
    ``training.train_selector_fixed`` must match bit for bit."""
    return _train_selection_eager(world, task_net, q_net, cfg, update_task=False)


def train_joint_eager(world, task_net, q_net, cfg) -> TrainResult:
    """Joint training that stacks each batch and featurizes all N views in
    one ``features_cache`` call before the rollout reads T of them, and
    backpropagates through that call's cache: the loop
    ``training.train_joint`` must match bit for bit."""
    return _train_selection_eager(world, task_net, q_net, cfg, update_task=True)


def _train_selection_eager(world, task_net, q_net, cfg, update_task: bool) -> TrainResult:
    check_t(world, cfg.T)
    batch = task_net.train_batch or cfg.batch_size
    rng = np.random.default_rng([cfg.seed, 13])
    n = world.n_train
    total_steps = cfg.epochs * ((n + batch - 1) // batch)
    opt_q = Adam(q_net.named_params(), lr=cfg.selector_lr)
    opt_task = Adam(task_net.named_params(), lr=cfg.task_lr * cfg.joint_task_lr_factor)
    logs, counters, step = [], {"task_terms": 0, "rl_terms": 0}, 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        rl_losses, task_losses = [], []
        for start in range(0, n, batch):
            idx = order[start : start + batch]
            eps = epsilon_schedule(step, total_steps, cfg.epsilon_start, cfg.epsilon_end)
            initial = rng.integers(world.n_cameras, size=len(idx))
            batch_obs, truths = _batch(task_net, world, idx)
            feats, fcache = task_net.features_cache(np.stack(batch_obs))
            chosen, cams, obs, masks, values, pooled = rollout(
                q_net, feats, initial[:, None], cfg.T, epsilon=eps, rng=rng)
            outputs, hcache = task_net.head_cache(pooled[:, 0])
            rewards = task_net.reward(outputs, truths)
            actions = chosen[..., 1:].reshape(-1)
            q_taken = np.take_along_axis(values, chosen[..., 1:, None], axis=-1).reshape(-1)
            targets = td_targets(values, masks, np.reshape(rewards, (-1, 1)), cfg.gamma).reshape(-1)
            loss_rl, d_terms = rl_loss(q_taken, targets)
            counters["rl_terms"] += len(actions)
            q_all, q_cache = q_net.forward_cache(cams.reshape(len(actions), -1),
                                                 obs.reshape(len(actions), -1))
            d_q = np.zeros_like(q_all)
            d_q[np.arange(len(actions)), actions] = d_terms / len(idx)
            q_grads, d_obs = q_net.backward(q_cache, d_q)
            if update_task:
                loss_task, task_grads = _task_grads(task_net, feats, fcache, chosen[:, 0], truths,
                                                    outputs, hcache, d_obs)
                counters["task_terms"] += 1
                opt_task.step(task_grads)
                task_losses.append(loss_task)
            opt_q.step(q_grads)
            rl_losses.append(loss_rl / len(idx))
            step += 1
        logs.append({"epoch": epoch, "loss": float(np.mean(rl_losses)), "epsilon": float(eps)})
        if update_task:
            logs[-1]["task_loss"] = float(np.mean(task_losses))
    return TrainResult(logs, counters, step)


def _ray_path(start: tuple[int, int], end: tuple[int, int]) -> list[tuple[int, int]]:
    """Integer cells strictly between start and end on the sampled line.

    Samples the segment at K equal steps (K = Chebyshev distance) and rounds
    each coordinate with floor(x + 0.5), midpoints rounding up. All quantities
    stay exactly representable, so the rule has one well-defined answer.
    """
    (r0, c0), (r1, c1) = start, end
    k = max(abs(r1 - r0), abs(c1 - c0))
    path = []
    for m in range(1, k):
        rr = int(np.floor((r0 * (k - m) + r1 * m) / k + 0.5))
        cc = int(np.floor((c0 * (k - m) + c1 * m) / k + 0.5))
        path.append((rr, cc))
    return path


def ray_paths(world) -> list[list[list[int]]]:
    """Per camera and flat target cell, the flat in-grid cells of its ray."""
    h, w = world.config.grid_h, world.config.grid_w
    return [[[rr * w + cc for rr, cc in _ray_path(tuple(world.positions[v]), (r, c))
              if 0 <= rr < h and 0 <= cc < w]
             for r in range(h) for c in range(w)]
            for v in range(world.n_cameras)]


def ray_cast_visibility(world, paths, occupancy: Array) -> Array:
    """FoV masks minus the cells whose ray (from ``ray_paths``) meets an
    occupant, camera by camera: a padded ray table per camera, indexed by
    the occupancy."""
    cfg = world.config
    vis = world.fov_masks.copy()
    if not cfg.occlusion:
        return vis
    sentinel = cfg.grid_h * cfg.grid_w
    occ_flat = np.concatenate([np.asarray(occupancy).astype(bool).ravel(), [False]])
    for v in range(world.n_cameras):
        table = np.full((sentinel, max(1, max(map(len, paths[v])))), sentinel, dtype=np.int64)
        for idx, cells in enumerate(paths[v]):
            table[idx, : len(cells)] = cells
        vis[v] &= ~occ_flat[table].any(axis=1).reshape(cfg.grid_h, cfg.grid_w)
    return vis


def discriminative_views(world, class_id: int) -> tuple[int, ...]:
    """Views where a classification instance's class pair separates: its
    pair's configured set, sorted, or by default views 2p and 2p + 1 of
    pair p."""
    pair = class_id // 2
    if world.config.discriminative_views is not None:
        return tuple(sorted(world.config.discriminative_views[pair]))
    return (2 * pair, 2 * pair + 1)


def evaluate_reference(world, task_net, run, split: str, seed: int) -> tuple[Array, Array]:
    """The (n, N, T) view sets, initial view first, and (n, N, k) records of
    one ``PolicyRun`` over a split, one instance at a time, each featurized
    alone by ``features_cache``.

    Full-views takes every camera, random the ``random_sequence``
    completion, mvselect a greedy rollout from every initial view of the
    instance alone, and an oracle with a table the table's row. An oracle
    without one scores every ``itertools.combinations`` subset and takes,
    per initial view, the best subset that holds the view and no other
    shut-off camera: the highest split-mean score (dataset), or the highest
    score and then the lower task loss (instance), then the first subset.
    Decoding keeps the pass's call shapes, on which the last bits of a
    batched head depend: an instance's distinct view sets go in one
    ``decode`` call, in first-occurrence order, and an oracle's subsets in
    another."""
    N, n, off = world.n_cameras, world.split_size(split), frozenset(run.disabled)
    T = N if run.policy == "full-views" else run.T
    subsets = list(itertools.combinations(range(N), T))
    chosen, records, scores, losses = np.zeros((n, N, T), dtype=int), [], [], []
    for i in range(n):
        inst = world.instance(split, i)
        feats = task_net.features_cache(inst.observations)[0]
        if run.policy.endswith("-oracle") and run.table is None:
            outputs = task_net.decode(feats, np.array(subsets))
            records.append(task_net.records(outputs, inst, world))
            scores.append(task_net.score(records[-1]))
            losses.append(-task_net.reward(outputs, task_net.truth(inst)))
            continue
        if run.policy == "full-views":
            chosen[i] = range(N)
        elif run.policy == "random":
            chosen[i] = [(v0,) + random_sequence(N, v0, T, seed, i, off) for v0 in range(N)]
        elif run.policy == "mvselect":   # every initial view in one rollout, as evaluated
            chosen[i] = rollout(run.q_net, feats[None], np.arange(N)[None], T, off)[0][0]
        else:
            chosen[i] = run.table.sets[i if run.table.kind == "instance" else 0]
        firsts = {}
        for v0, row in enumerate(chosen[i].tolist()):
            firsts.setdefault(frozenset(row), v0)
        rows = task_net.records(task_net.decode(feats, chosen[i, list(firsts.values())]),
                                inst, world)
        slot = list(firsts)
        records.append(rows[[slot.index(frozenset(row)) for row in chosen[i].tolist()]])
    if not scores:
        return chosen, np.stack(records)
    scores, records = np.stack(scores), np.stack(records)
    if run.policy == "dataset-oracle":
        scores, losses = scores.mean(axis=0, keepdims=True).repeat(n, axis=0), np.zeros_like(scores)
    out = np.zeros((n, N) + records.shape[2:], records.dtype)
    for i, v0 in itertools.product(range(n), range(N)):
        allowed = [s for s, sub in enumerate(subsets) if v0 in sub and not (set(sub) - {v0}) & off]
        best = min(allowed, key=lambda s: (-scores[i][s], losses[i][s], s))
        chosen[i, v0] = (v0,) + tuple(c for c in subsets[best] if c != v0)
        out[i, v0] = records[i][best]
    return chosen, out


def exact_q_table(world, task_net, T: int, split: str = "train",
                  gamma: float = 0.99) -> dict:
    """Exhaustive optimal action values for tiny worlds.

    Keys are (instance index, frozenset of chosen views, action). A value is
    the terminal task reward of the best completion, discounted by gamma per
    remaining step. Only meant for layouts small enough to enumerate."""
    n = world.split_size(split)
    n_cams = world.n_cameras
    table: dict = {}
    for i in range(n):
        inst = world.instance(split, i)
        feats = task_net.features_cache(inst.observations)[0]
        truth = task_net.truth(inst)

        def reward_of(view_set: frozenset) -> float:
            pred = task_net.decode(feats, np.array([sorted(view_set)]))[0]
            return float(task_net.reward(pred, truth))

        def q_star(chosen: frozenset, action: int) -> float:
            key = (i, chosen, action)
            if key in table:
                return table[key]
            nxt = chosen | {action}
            if len(nxt) == T:
                value = reward_of(nxt)
            else:
                options = [a for a in range(n_cams) if a not in nxt]
                value = gamma * max(q_star(nxt, a) for a in options)
            table[key] = value
            return value

        for size in range(1, T):
            for combo in itertools.combinations(range(n_cams), size):
                chosen_set = frozenset(combo)
                for a in range(n_cams):
                    if a not in chosen_set:
                        q_star(chosen_set, a)
    return table


def optimal_actions(table: dict, instance_index: int, chosen) -> set[int]:
    """Actions attaining the optimal value from a chosen-set (tie set)."""
    chosen_set = frozenset(chosen)
    vals = {a: v for (i, s, a), v in table.items()
            if i == instance_index and s == chosen_set}
    if not vals:
        raise StateError("chosen-set missing from the exact table")
    best = max(vals.values())
    return {a for a, v in vals.items() if v == best}


def _peak_candidates(heat: Array, threshold: float) -> Array:
    local_max = ndimage.maximum_filter(heat, size=3, mode="constant", cval=-np.inf)
    return (heat == local_max) & (heat >= threshold)


def extract_peaks_loop(heatmap: Array, threshold: float = PEAK_SCORE_THRESHOLD) -> Array:
    """Peak extraction by a first-come scan: a 3x3 local maximum is kept
    unless an already kept cell next to it has the same value. On a plateau
    wider than two cells this keeps every other cell; it agrees with
    ``extract_peaks`` wherever no plateau has more than two cells."""
    heat = np.asarray(heatmap, dtype=float)
    accepted: list[tuple[int, int]] = []
    for r, c in np.argwhere(_peak_candidates(heat, threshold)):
        if any(abs(r - ar) <= 1 and abs(c - ac) <= 1 and heat[ar, ac] == heat[r, c]
               for ar, ac in accepted):
            continue
        accepted.append((int(r), int(c)))
    accepted.sort(key=lambda rc: (-heat[rc], rc[0], rc[1]))
    return np.array(accepted, dtype=int).reshape(-1, 2)


def extract_peaks_bfs(heatmap: Array, threshold: float = PEAK_SCORE_THRESHOLD) -> Array:
    """Peak extraction by flood fill: scan the 3x3 local maxima in row-major
    order, keep each one not yet reached, and flood from it over adjacent
    local maxima of the same value, so each plateau gives one peak."""
    heat = np.asarray(heatmap, dtype=float)
    cand = _peak_candidates(heat, threshold)
    h, w = heat.shape
    seen = np.zeros_like(cand)
    peaks = []
    for r, c in np.argwhere(cand):
        if seen[r, c]:
            continue
        peaks.append((int(r), int(c)))
        seen[r, c] = True
        queue = [(r, c)]
        while queue:
            qr, qc = queue.pop()
            for nr in range(max(qr - 1, 0), min(qr + 2, h)):
                for nc in range(max(qc - 1, 0), min(qc + 2, w)):
                    if cand[nr, nc] and not seen[nr, nc] and heat[nr, nc] == heat[qr, qc]:
                        seen[nr, nc] = True
                        queue.append((nr, nc))
    peaks.sort(key=lambda rc: (-heat[rc], rc[0], rc[1]))
    return np.array(peaks, dtype=int).reshape(-1, 2)


@dataclass(frozen=True)
class DetectionMatchResult:
    tp: int
    fp: int
    fn: int
    gt: int
    distances: tuple  # matched-pair distances, in matching order, in cells
    threshold: float  # matching radius, in cells


def match_detections(peaks: Array, gt_positions: Array, threshold: float) -> DetectionMatchResult:
    """One frame's greedy nearest-pair-first one-to-one matching within the
    threshold by the runtime's matcher, the one ``evaluation.frame_counts``
    runs over a stack of maps. Ties on distance break to the lower peak
    index, then the lower ground-truth index."""
    peaks = np.asarray(peaks, dtype=float).reshape(-1, 2)
    gts = np.asarray(gt_positions, dtype=float).reshape(-1, 2)
    d, _ = _greedy_matches(peaks, np.zeros(len(peaks), dtype=int), gts, threshold)
    tp = len(d)
    return DetectionMatchResult(tp, len(peaks) - tp, len(gts) - tp, len(gts),
                                tuple(d.tolist()), threshold)


def match_detections_loop(peaks: Array, gt_positions: Array,
                          threshold: float) -> DetectionMatchResult:
    """Greedy nearest-pair-first matching over every (peak, ground truth)
    pair, one scalar distance at a time, sorted as (distance, peak, gt)
    tuples."""
    peaks = np.asarray(peaks, dtype=float).reshape(-1, 2)
    gts = np.asarray(gt_positions, dtype=float).reshape(-1, 2)
    n_peaks, n_gt = len(peaks), len(gts)
    pairs = []
    for p in range(n_peaks):
        for g in range(n_gt):
            d = float(np.hypot(*(peaks[p] - gts[g])))
            if d <= threshold:
                pairs.append((d, p, g))
    pairs.sort()
    used_p, used_g, dists = set(), set(), []
    for d, p, g in pairs:
        if p in used_p or g in used_g:
            continue
        used_p.add(p)
        used_g.add(g)
        dists.append(d)
    tp = len(dists)
    return DetectionMatchResult(tp, n_peaks - tp, n_gt - tp, n_gt, tuple(dists), threshold)


def frame_counts_loop(heatmap: Array, gt_positions: Array, threshold: float) -> Array:
    """[tp, fp, fn, gt, distance credit] of one map from its flood-fill
    peaks and the pairwise-loop matching, the credit summed over the
    matched pairs in matching order: the row ``frame_counts`` must give for
    each map of a stack."""
    m = match_detections_loop(extract_peaks_bfs(heatmap), gt_positions, threshold)
    credit = float(sum(1.0 - d / threshold for d in m.distances))
    return np.array([m.tp, m.fp, m.fn, m.gt, credit])


def paired_t_pvalue(a, b) -> float:
    """One-sided paired t-test p-value for mean(a - b) > 0. Degenerate
    zero-variance differences collapse to 0 or 1 by sign."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ShapeError("paired test needs two aligned 1-D samples, n >= 2")
    diffs = a - b
    if np.ptp(diffs) == 0.0:
        return 0.0 if diffs[0] > 0 else 1.0
    return float(stats.ttest_rel(a, b, alternative="greater").pvalue)
