"""View-selection agent.

A selection state pairs a camera-count vector (sum of one-hots of the views
taken so far) with a running elementwise max of their features, averaged over
any spatial axes so state dimensionality never depends on how many views were
taken. A two-branch value network embeds the camera vector, runs it and the
feature vector through separate branches, sums the branch outputs, and maps
them to one action value per camera. Selection is epsilon-greedy over
unmasked cameras; repeats are forbidden by masking. Temporal-difference
targets are computed inline with the current network: no replay buffer, no
target copy. One array rollout serves training (epsilon-greedy) and greedy
evaluation (epsilon 0), and values each step's states, every row of every
instance, with a single Q forward on the stack of instances. Each instance's
block of that stack keeps the bits of a forward on the instance alone (see
``numcore.DenseNet``); flattening the instances into one batch would not.
"""

from __future__ import annotations

import numpy as np

from .checkpoint import Persistable
from .errors import ConfigError, ShapeError, StateError
from .numcore import LayerSpec

Array = np.ndarray


class QNetwork(Persistable):
    """Two-branch action-value network over selection states.

    Camera counts are expanded through learnable per-camera embeddings (their
    weighted sum is the branch input), the observation vector feeds the other
    branch, and the elementwise sum of branch outputs drives a combiner that
    emits one value per camera. Either branch can be switched off, in which
    case it contributes an exact zero vector.
    """

    kind = "selector"
    DIMS = ("n_cameras", "feat_dim", "hidden", "seed", "use_camera_branch", "use_feature_branch")
    DEFAULTS = {"use_camera_branch": True, "use_feature_branch": True}
    PARTS = (("camera_branch", "camera.", 1), ("feature_branch", "feature.", 2),
             ("combiner", "combiner.", 3))

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if not (self.use_camera_branch or self.use_feature_branch):
            raise ShapeError("at least one branch must stay enabled")
        rng = np.random.default_rng([self.seed, 0])
        limit = np.sqrt(1.0 / self.n_cameras)
        self.embeddings = rng.uniform(-limit, limit, size=(self.n_cameras, self.feat_dim))

    @staticmethod
    def layer_specs(n_cameras: int, feat_dim: int, hidden: int, **_):
        """The layers of the camera branch, the feature branch and the
        combiner."""
        return ([LayerSpec(feat_dim, hidden, "relu")],
                [LayerSpec(feat_dim, hidden, "relu")],
                [LayerSpec(hidden, hidden, "relu"), LayerSpec(hidden, n_cameras, "linear")])

    @classmethod
    def param_shapes(cls, **dims) -> dict[str, tuple[int, ...]]:
        return {"embeddings": (dims["n_cameras"], dims["feat_dim"]), **super().param_shapes(**dims)}

    def named_params(self):
        return [("embeddings", self.embeddings)] + super().named_params()

    def mac_count(self) -> int:
        """Cost of valuing one state: embedding sum plus both branches plus
        the combiner."""
        return (
            self.n_cameras * self.feat_dim
            + self.camera_branch.mac_count()
            + self.feature_branch.mac_count()
            + self.combiner.mac_count()
        )

    def _check(self, cams: Array, obs: Array) -> None:
        if (cams.shape[-1:] != (self.n_cameras,) or obs.shape[-1:] != (self.feat_dim,)
                or cams.shape[:-1] != obs.shape[:-1]):
            raise ShapeError("states do not match this network or each other in shape")

    def forward_cache(self, cams: Array, obs: Array):
        """Action values (..., B, N) of states given as camera counts (...,
        B, N) and observation vectors (..., B, D), with the cache
        ``backward`` needs (which takes a batch, no leading axes)."""
        self._check(cams, obs)
        hidden = np.zeros(cams.shape[:-1] + (self.hidden,))
        cam_cache = feat_cache = None
        if self.use_camera_branch:
            hc, cam_cache = self.camera_branch.forward_cache(cams @ self.embeddings)
            hidden = hidden + hc
        if self.use_feature_branch:
            hf, feat_cache = self.feature_branch.forward_cache(obs)
            hidden = hidden + hf
        q, comb_cache = self.combiner.forward_cache(hidden)
        return q, (cams, cam_cache, feat_cache, comb_cache)

    def backward(self, cache, d_q: Array) -> tuple[dict[str, Array], Array]:
        """Gradients for all parameters plus the gradient w.r.t. the states'
        observation vectors (zero when the feature branch is off)."""
        cams, cam_cache, feat_cache, comb_cache = cache
        comb_grads, d_hidden = self.combiner.backward(comb_cache, d_q)
        grads = {f"combiner.{k}": g for k, g in comb_grads.items()}
        if self.use_camera_branch:
            cam_grads, d_cam_in = self.camera_branch.backward(cam_cache, d_hidden)
            grads.update((f"camera.{k}", g) for k, g in cam_grads.items())
            grads["embeddings"] = cams.T @ d_cam_in
        if self.use_feature_branch:
            feat_grads, d_obs = self.feature_branch.backward(feat_cache, d_hidden)
            grads.update((f"feature.{k}", g) for k, g in feat_grads.items())
        else:
            d_obs = np.zeros((len(cams), self.feat_dim))
        # zeros only for a switched-off branch, keys in named_params order
        return {name: grads[name] if name in grads else np.zeros_like(p)
                for name, p in self.named_params()}, d_obs


def rollout(q_net, feats: Array, initial: Array, T: int, disabled=frozenset(),
            epsilon: float = 0.0, rng=None):
    """Run R selection rollouts of T views for each of G instances at once.

    feats is (G, N, D) or (G, N, H, W, D), the per-view features of each
    instance, read only through ``feats.shape`` and ``feats[inst, views]``
    (so a ``tasknet.ViewFeatures`` table, which featurizes a view when it is
    first read, serves as well); initial is (G, R) start views in [0, N),
    checked before the first step. Every step values its (G, R) states with
    one Q forward on the stack of instances (each instance's values have the
    bits of a forward on its R rows alone), then picks the masked argmax
    (ties go to the lowest index). With epsilon > 0, which needs an rng,
    each row instead takes a uniform unmasked camera with probability
    epsilon: per step and per (instance, row), the rng draws the coin first
    and the index only on the random arm, so a replay from the same
    generator state reproduces the choices. A camera is masked once taken
    or when disabled.

    Returns (chosen, cams, obs, masks, values, pooled): chosen (G, R, T)
    view ids with column 0 the initial view; for the T-1 states visited,
    camera counts (G, R, T-1, N), observation vectors (G, R, T-1, D), action
    masks (G, R, T-1, N) and action values (G, R, T-1, N); and the features
    max-pooled over all T chosen views, (G, R[, H, W], D). A state's
    observation vector is the mean of the running max over the cells.
    """
    initial = np.asarray(initial, dtype=int)
    n_cams, steps = feats.shape[1], T - 1
    if initial.ndim != 2 or len(initial) != feats.shape[0] or not (
            (initial >= 0) & (initial < n_cams)).all():
        raise ShapeError(f"initial views must be (G, R) ids in [0, {n_cams}) for "
                         f"{feats.shape[0]} instances")
    if epsilon > 0 and rng is None:
        raise ConfigError("an epsilon-greedy rollout needs an rng")
    n_inst, n_rows = initial.shape
    inst = np.arange(n_inst)[:, None]
    row = np.arange(n_rows)
    blocked = np.zeros(n_cams, dtype=bool)
    blocked[list(disabled)] = True
    chosen = np.zeros((n_inst, n_rows, T), dtype=int)
    chosen[..., 0] = initial
    taken = np.zeros((n_inst, n_rows, n_cams))
    taken[inst, row, initial] = 1.0
    pooled = feats[inst, initial]                       # (G, R[, H, W], D)
    spatial = tuple(range(3, pooled.ndim))
    cams = np.zeros((n_inst, n_rows, steps, n_cams))
    obs = np.zeros((n_inst, n_rows, steps, feats.shape[-1]))
    masks = np.zeros((n_inst, n_rows, steps, n_cams), dtype=bool)
    values = np.zeros((n_inst, n_rows, steps, n_cams))
    for t in range(steps):
        # each feature's cell mean sums a C-order (D, H, W) block, which fixes
        # the summation order whatever the layout of feats
        obs_t = (np.ascontiguousarray(np.moveaxis(pooled, -1, 2)).mean(axis=spatial)
                 if spatial else pooled)
        mask = (taken > 0) | blocked
        if mask.all(axis=-1).any():
            raise StateError("every camera is masked")
        q = q_net.forward_cache(taken, obs_t)[0]
        action = np.where(mask, -np.inf, q).argmax(axis=-1)
        if epsilon > 0:
            for g in range(n_inst):
                for r in range(n_rows):
                    if rng.random() < epsilon:
                        open_cams = np.flatnonzero(~mask[g, r])
                        action[g, r] = open_cams[rng.integers(len(open_cams))]
        cams[:, :, t], obs[:, :, t], masks[:, :, t], values[:, :, t] = taken, obs_t, mask, q
        chosen[..., t + 1] = action
        taken[inst, row, action] += 1.0
        pooled = np.maximum(pooled, feats[inst, action])
    return chosen, cams, obs, masks, values, pooled


def td_targets(values: Array, masks: Array, reward, gamma: float) -> Array:
    """Regression targets for the taken action of each state in a rollout.

    values and masks are (..., S, N) per state (as ``rollout`` returns them)
    and reward (...) is the terminal reward. The terminal step takes the
    reward verbatim; earlier steps take the discounted best value of the next
    state over its unmasked cameras."""
    best = np.where(masks[..., 1:, :], -np.inf, values[..., 1:, :]).max(axis=-1)
    if np.isinf(best).any():
        raise StateError("every camera is masked")
    reward = np.asarray(reward, dtype=np.float64)[..., None]
    return np.concatenate([gamma * best, reward], axis=-1)


def rl_loss(q_taken, targets) -> tuple[float, Array]:
    """Summed squared error between taken-action values and their targets,
    with targets held constant; returns the per-term gradient d/dq."""
    q_taken = np.asarray(q_taken, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if q_taken.shape != targets.shape:
        raise ShapeError("one target per recorded action value required")
    diff = q_taken - targets
    return float(np.sum(diff * diff)), 2.0 * diff


def epsilon_schedule(step: int, total_steps: int, start: float, end: float) -> float:
    """Linear decay from start to end across the planned training steps."""
    if total_steps <= 1:
        return end
    frac = min(max(step / (total_steps - 1), 0.0), 1.0)
    return start + (end - start) * frac
