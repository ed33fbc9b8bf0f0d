"""Task networks: extract per-view features, pool them elementwise, decode.

Both networks tolerate any nonempty view subset and produce outputs whose
shape never depends on how many views were supplied. Pooling is an exact
elementwise max; its gradient routes to the first listed view attaining the
max (the lowest index when all views are pooled in order, the earliest chosen
in a selection), so backward passes are deterministic.

Both families lay features out one way: views on axis 1, cells in between,
features last. Classification features are (G, V, D) and detection features
(G, V, H, W, D), the rows of the per-cell extractor as it emits them, so no
step between extraction and decoding copies them into another layout.
"""

from __future__ import annotations

import math

import numpy as np

from . import evaluation
from .checkpoint import Persistable
from .errors import ShapeError
from .numcore import LayerSpec, bev_mse, cross_entropy, work_array

Array = np.ndarray


# Largest view block (D times the cells) routed by an argmax scatter. The
# walk below makes a few NumPy calls per listed view, the scatter a fixed
# few calls with a slower fancy-index add per entry. With one BLAS thread the
# scatter won at every measured k up to 32 entries per block (8 instances of
# 12 views, all listed: 0.05 against 0.21 ms), broke even near 64 with 2 of
# 12 views listed, and lost at every k from 512 entries on (a detection
# frame's 16,384: 0.92 against 0.22 ms with 3 of 6 views listed).
SCATTER_MAX_BLOCK = 64

# Fewest rows of f in one view (one per cell) for ``ViewFeatures`` to
# featurize it alone, not all views at once. A row keeps its bits in a
# smaller call only while both calls run the same BLAS kernel. With OpenBLAS
# 0.3.31 and f layers 2 to 64 wide, some views of up to 75 rows took other
# bits alone than in a call of 2 to 12 views, and no view of 76 rows or more
# did; 256 (a 16 x 16 grid) leaves a margin. A classification view is one
# row, a detection view 1,024 on the acceptance world.
VIEW_ALONE_MIN_ROWS = 256


def max_pool_into(out: Array, feats: Array, views: list[int]) -> Array:
    """The max of ``feats[v]`` over the listed views, in their order, into
    ``out``: basic-index reads copy no (k, ...) gather, and max is exact,
    so the bits equal ``feats[views].max(axis=0)``."""
    np.copyto(out, feats[views[0]])
    for v in views[1:]:
        np.maximum(out, feats[v], out=out)
    return out


def route_pooled_grad(d_feats: Array, feats: Array, views: Array, d_pooled: Array,
                      work: dict | None = None) -> None:
    """Add the gradient of max-pooling each instance's listed views onto the
    per-view feature gradients, at the first listed view attaining the max.

    d_feats and feats are (G, V[, H, W], D); views is (G, k) view ids on
    axis 1; d_pooled is (G[, H, W], D) or broadcasts to it. The per-view
    temporaries of a large view block go into ``work`` (``numcore.work_array``;
    a fresh dict by default).
    """
    if feats[0, 0].size <= SCATTER_MAX_BLOCK:
        inst = np.arange(len(views))
        first = feats[inst[:, None], views].argmax(axis=1)  # first listed slot at the max
        idx = np.indices(first.shape, sparse=True)
        d_feats[(idx[0], views[idx[0], first]) + tuple(idx[1:])] += d_pooled
        return
    # each listed view is read by basic index, so no (G, k, ...) gather is made
    work = {} if work is None else work
    block = feats.shape[2:]
    top, part = (work_array(work, ("pool", name), block) for name in ("top", "part"))
    free, hit = (work_array(work, ("pool", name), block, bool) for name in ("free", "hit"))
    d_pooled = np.broadcast_to(d_pooled, feats.shape[:1] + block)
    for g, row in enumerate(views.tolist()):
        max_pool_into(top, feats[g], row)
        free.fill(True)                                 # cells not yet routed
        for v in row:
            np.equal(feats[g, v], top, out=hit)
            hit &= free
            free ^= hit
            # a miss adds d_pooled * 0.0 = +-0.0, which changes no value except
            # a -0.0 entry; d_feats only ever sums from +0.0, so it holds none
            d_feats[g, v] += np.multiply(d_pooled[g], hit, out=part)


class ViewFeatures:
    """Per-view features (G, N[, H, W], D) of a training step's G instances
    (observations each (N, C[, H, W])), read like the array
    ``features_cache`` returns, through ``shape`` and ``table[inst, views]``,
    with its bits; ``feats`` is the feature array, ``cache`` what
    ``features_backward`` takes. Views of fewer than ``VIEW_ALONE_MIN_ROWS``
    cells are all featurized at construction, in one ``features_cache``
    call; larger ones each alone, when first read. For a ``backward``, a
    table of larger views is also the cache: f's input and each layer's
    output are one full-frame buffer each, kept in ``work`` and zeroed when
    allocated, and a view's forward writes its own rows of every buffer.
    Unread views' rows hold zeros or an earlier step's values; with a zero
    gradient there, the backward has the bits of the all-views call: those
    rows stay +0 through every layer and add only +-0 terms to sums of the
    same row count. Without one, ``cache`` is None and only the features
    are full-frame: f's input and hidden rows take one view-sized block
    that each view reuses, which stays in cache (full-frame, a detection
    frame's 3 MB do not)."""

    def __init__(self, net: TaskNet, observations, work: dict, backward: bool):
        n_views, channels, *cells = observations[0].shape
        self.net = net
        self.observations = observations
        self.at_once = math.prod(cells) < VIEW_ALONE_MIN_ROWS
        if self.at_once:
            self.feats, self.cache = net.features_cache(np.stack(observations))
        else:
            frame = (len(observations), n_views, *cells)
            widths = [channels] + [spec.out_dim for spec in net.feature_net.specs]
            split = 0 if backward else len(widths) - 1       # the first full-frame buffer
            buffers = [work_array(work, ("features", i), (frame if i >= split else tuple(cells))
                                  + (width,), zeroed=True) for i, width in enumerate(widths)]
            self.view_blocks, self.frames = buffers[:split], buffers[split:]
            self.feats = buffers[-1]
            rows = [buf.reshape(-1, buf.shape[-1]) for buf in buffers]
            self.cache = list(zip(rows, rows[1:])) if backward else None
            self.done = np.zeros(frame[:2], dtype=bool)
        self.shape = self.feats.shape

    def __getitem__(self, key):
        if not self.at_once:
            inst, views = np.broadcast_arrays(*key)
            todo = ~self.done[inst, views]
            for g, v in dict.fromkeys(zip(inst[todo].tolist(), views[todo].tolist())):
                obs = np.moveaxis(self.observations[g][v], 0, -1)
                x, *out = [buf.reshape(-1, buf.shape[-1]) for buf in self.view_blocks] + [
                    buf[g, v].reshape(-1, buf.shape[-1]) for buf in self.frames]
                np.copyto(x.reshape(obs.shape), obs)
                self.net.feature_net.forward_cache(x, out)
            self.done[inst, views] = True
        return self.feats[key]


class TaskNet(Persistable):
    """What both task networks share: a per-view extractor ``feature_net``
    (f) and a decoder ``head_net`` (g) over the max-pooled features, the two
    ``PARTS`` that ``Persistable`` builds from the network's ``DIMS``.
    Subclasses supply their task family: ``layer_specs``, ``features_cache``
    and ``head_cache`` for their shapes (any leading batch axes), the
    ``features`` of an evaluation block, ``decode`` of many view subsets of
    one instance, the ground truth of an instance, the batch loss, the
    per-instance terminal reward of the view selection, and the evaluation
    side: per-output ``records``, the oracle ``score`` of each record, the
    report ``metrics`` and the ``mac_counts`` of f per view and of g for
    one observation of a world. ``mode`` names the task family in reports;
    ``train_batch`` fixes the instances per training step (None: the
    config's ``batch_size``), and ``eval_block`` the instances that
    evaluation featurizes and decodes as one stack (None: the whole split)."""

    mode = ""
    train_batch: int | None = None
    eval_block: int | None = None
    PARTS = (("feature_net", "feature.", 0), ("head_net", "head.", 1))

    def _forward_into(self, x: Array, work: dict) -> Array:
        """f on the rows x, each layer writing its output into an array of
        ``work``; the last is the features."""
        return self.feature_net.forward_cache(x, [
            work_array(work, ("f", i), x.shape[:-1] + (spec.out_dim,))
            for i, spec in enumerate(self.feature_net.specs)])[0]


class MVClassifier(TaskNet):
    """Per-view feature extractor plus a linear class head over the pooled
    feature vector."""

    kind = "classifier"
    mode = "classification"
    DIMS = ("obs_dim", "feat_dim", "n_classes", "hidden", "seed")

    @staticmethod
    def layer_specs(obs_dim: int, feat_dim: int, n_classes: int, hidden: int, **_):
        """The layers of f and of g."""
        return ([LayerSpec(obs_dim, hidden, "relu"),
                 LayerSpec(hidden, hidden, "relu"),
                 LayerSpec(hidden, feat_dim, "relu")],
                [LayerSpec(feat_dim, n_classes, "linear")])

    def features_cache(self, obs: Array):
        """f applied to every view, (..., N, obs_dim) -> (..., N, feat_dim),
        with the cache ``features_backward`` needs."""
        obs = np.asarray(obs, dtype=np.float64)
        flat = obs.reshape(-1, obs.shape[-1])
        feats, cache = self.feature_net.forward_cache(flat)
        return feats.reshape(obs.shape[:-1] + (self.feat_dim,)), cache

    def features(self, obs: Array, work: dict | None = None) -> Array:
        """f on a stack of instances' views, (G, N, obs_dim) -> (G, N,
        feat_dim), in one stacked forward: each instance gets the bits of
        ``features_cache`` on it alone, which a flattened batch would not.
        Each layer writes into ``work`` as in ``MVDetector.features``; f's
        input rows are the observations themselves."""
        return self._forward_into(np.asarray(obs, dtype=np.float64), {} if work is None else work)

    def features_backward(self, cache, d_feats: Array, work: dict | None = None) -> dict[str, Array]:
        flat = np.asarray(d_feats).reshape(-1, self.feat_dim)
        grads, _ = self.feature_net.backward(cache, flat, input_grad=False, work=work)
        return {f"feature.{k}": v for k, v in grads.items()}

    def head_cache(self, pooled: Array):
        return self.head_net.forward_cache(pooled)

    def head_backward(self, cache, d_logits: Array, work: dict | None = None):
        grads, d_pooled = self.head_net.backward(cache, d_logits, work=work)
        return {f"head.{k}": v for k, v in grads.items()}, d_pooled

    def decode(self, feats: Array, view_sets: Array) -> Array:
        """Logits (S, C) of the view subsets (S, k) of one instance's
        features (N, D), from one gather and one head call."""
        return self.head_cache(feats[view_sets].max(axis=1))[0]

    def truth(self, instance) -> int:
        return instance.class_id

    def loss(self, outputs: Array, truths) -> tuple[float, Array]:
        """Mean cross-entropy of logits (G, C) against class ids (G,), with
        the gradient w.r.t. the logits."""
        if np.ndim(outputs) != 2:
            raise ShapeError("classification loss expects (G, C) logits")
        return cross_entropy(outputs, np.asarray(truths))

    def reward(self, outputs: Array, truths) -> Array:
        """Per-instance selection reward of logits (..., C) against class
        ids (...): 1 for a correct argmax, 0 otherwise."""
        return (np.argmax(outputs, axis=-1) == np.asarray(truths)).astype(float)

    def records(self, outputs: Array, instance, world) -> Array:
        """Correctness of each row of logits (S, C) as (S, 1)."""
        return self.reward(outputs, instance.class_id)[:, None]

    def score(self, records: Array) -> Array:
        return records[..., 0]

    def metrics(self, records: Array) -> dict:
        acc = float(np.mean(records))
        return {"accuracy": acc, "primary": acc}

    def mac_counts(self, world) -> dict[str, int]:
        return {"f_per_view": self.feature_net.mac_count(), "g": self.head_net.mac_count()}


class MVDetector(TaskNet):
    """Per-cell feature extractor plus a per-cell sigmoid occupancy head."""

    kind = "detector"
    mode = "detection"
    train_batch = 1
    eval_block = 1  # an instance's per-cell features are 0.8 MB on the acceptance world
    DIMS = ("channels", "feat_dim", "hidden", "seed")

    @staticmethod
    def layer_specs(channels: int, feat_dim: int, hidden: int, **_):
        """The layers of f and of g."""
        return ([LayerSpec(channels, hidden, "relu"), LayerSpec(hidden, feat_dim, "relu")],
                [LayerSpec(feat_dim, hidden, "relu"), LayerSpec(hidden, 1, "sigmoid")])

    def features_cache(self, obs: Array):
        """f per cell, (..., V, C, H, W) -> (..., V, H, W, D), feature axis
        last as the per-cell rows come out of f, with the cache
        ``features_backward`` needs."""
        obs = np.asarray(obs, dtype=np.float64)
        *lead, c, h, w = obs.shape
        # one copy into per-cell rows: reshaped uncopied, a channel broadcast
        # is a stride-0 view, and matmul on it can give other bits
        rows = np.ascontiguousarray(np.moveaxis(obs, -3, -1)).reshape(-1, c)
        feats, cache = self.feature_net.forward_cache(rows)
        return feats.reshape(*lead, h, w, self.feat_dim), cache

    def features(self, obs: Array, work: dict | None = None) -> Array:
        """f per cell of every view of a block of instances, (G, V, C, H, W)
        -> (G, V, H, W, D), with the bits of ``features_cache`` and no
        cache. f's input rows, each layer's output and so the features are
        arrays of ``work`` (``numcore.work_array``; a fresh dict by default),
        so a caller that passes one owns every full-frame array of the call."""
        work = {} if work is None else work
        *lead, c, h, w = obs.shape
        rows = work_array(work, "rows", (*lead, h, w, c))
        np.copyto(rows, np.moveaxis(obs, -3, -1))
        return self._forward_into(rows.reshape(-1, c), work).reshape(*lead, h, w, self.feat_dim)

    def features_backward(self, cache, d_feats: Array, work: dict | None = None) -> dict[str, Array]:
        flat = np.asarray(d_feats).reshape(-1, self.feat_dim)
        grads, _ = self.feature_net.backward(cache, flat, input_grad=False, work=work)
        return {f"feature.{k}": g for k, g in grads.items()}

    def head_cache(self, pooled: Array):
        """g per cell, (..., H, W, D) -> (..., H, W) occupancy probabilities,
        with the cache ``head_backward`` needs."""
        out, cache = self.head_net.forward_cache(pooled.reshape(-1, pooled.shape[-1]))
        return out.reshape(pooled.shape[:-1]), (cache, pooled.shape)

    def head_backward(self, hcache, d_heatmap: Array, work: dict | None = None):
        cache, shape = hcache
        grads, d_flat = self.head_net.backward(cache, np.asarray(d_heatmap).reshape(-1, 1),
                                               work=work)
        return {f"head.{k}": v for k, v in grads.items()}, d_flat.reshape(shape)

    def decode(self, feats: Array, view_sets: Array) -> Array:
        """Heatmaps (S, H, W) of the view subsets (S, k) of one instance's
        features (N, H, W, D). Each row pools its views by a running
        ``np.maximum``, in the listed order, over basic-index views
        ``feats[v]`` into one reused (H, W, D) buffer, so no (S, k, H, W, D)
        gather is copied just to be reduced; max is exact, so the bits are
        the gathered reduce's."""
        out = np.empty((len(view_sets),) + feats.shape[1:-1])
        pooled = np.empty(feats.shape[1:])
        for s, row in enumerate(view_sets.tolist()):
            out[s] = self.head_cache(max_pool_into(pooled, feats, row))[0]
        return out

    def truth(self, instance) -> Array:
        return instance.target

    def loss(self, outputs: Array, truths) -> tuple[float, Array]:
        """Mean squared error of heatmaps (G, H, W) against their targets,
        with the gradient w.r.t. the heatmaps."""
        if np.ndim(outputs) != 3:
            raise ShapeError("detection loss expects (G, H, W) heatmaps")
        return bev_mse(outputs, np.asarray(truths))

    def reward(self, outputs: Array, truths) -> Array:
        """Per-instance selection reward of heatmaps (..., H, W) against
        their targets: the negative ``bev_mse`` of each."""
        diff = np.asarray(outputs, dtype=np.float64) - np.asarray(truths, dtype=np.float64)
        return -np.mean(diff * diff, axis=(-2, -1))

    def records(self, outputs: Array, instance, world) -> Array:
        """Frame counts [tp, fp, fn, gt, distance credit] of each heatmap of
        (S, H, W) against the instance's occupants, as (S, 5), scored as
        one stack."""
        return evaluation.frame_counts(outputs, instance.positions, world.match_threshold_cells)

    def score(self, records: Array) -> Array:
        """Frame MODA of each record; frames without ground truth score 0."""
        fp, fn, gt = records[..., 1], records[..., 2], records[..., 3]
        return np.where(gt > 0, 1.0 - (fp + fn) / np.where(gt > 0, gt, 1.0), 0.0)

    def metrics(self, records: Array) -> dict:
        return evaluation.detection_metrics_arrays(records[..., :4], records[..., 4])

    def mac_counts(self, world) -> dict[str, int]:
        # per-cell nets applied to every grid cell of the world's map
        cells = world.config.grid_h * world.config.grid_w
        return {"f_per_view": self.feature_net.mac_count() * cells,
                "g": self.head_net.mac_count() * cells}
