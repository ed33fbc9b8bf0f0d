"""Task-network checks: pooling laws, hand-traced predictions, end-to-end
gradients against finite differences, and checkpoint round trips."""

from types import SimpleNamespace

import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewview import evaluation as ev
from fewview import training as tr
from fewview.artifacts import atomic_write_bytes
from fewview.envs import DetectionConfig, DetectionWorld
from fewview.errors import CompatibilityError, ShapeError
from fewview.numcore import cross_entropy
from fewview.mvselect import QNetwork, rollout
from fewview.tasknet import (SCATTER_MAX_BLOCK, VIEW_ALONE_MIN_ROWS, MVClassifier, MVDetector,
                             ViewFeatures, forward_features, route_pooled_grad)
from testkit import (ChannelFirstDetector, aggregate_max, max_relative_error, numeric_gradient,
                     predict, rollout_channel_first, route_pooled_grad_argmax)

GRAD_TOL = 1e-4
THR = 2.0  # matching radius in cells


def tiny_classifier(seed=0):
    return MVClassifier(obs_dim=5, feat_dim=4, n_classes=3, hidden=6, seed=seed)


def tiny_detector(seed=0):
    return MVDetector(channels=3, feat_dim=4, hidden=5, seed=seed)


# ---------------------------------------------------------------------------
# aggregation


def test_aggregate_examples():
    np.testing.assert_array_equal(
        aggregate_max([np.array([1.0, 2.0]), np.array([3.0, 0.0])]), [3.0, 2.0]
    )
    single = np.array([4.0, -1.0])
    np.testing.assert_array_equal(aggregate_max([single]), single)


def test_aggregate_guards():
    with pytest.raises(ShapeError):
        aggregate_max([])
    with pytest.raises(ShapeError):
        aggregate_max([np.zeros(2), np.zeros(3)])


@settings(max_examples=60)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 5))
def test_aggregate_laws(seed, n_views, dim):
    rng = np.random.default_rng(seed)
    feats = [rng.normal(size=dim) for _ in range(n_views)]
    pooled = aggregate_max(feats)
    perm = rng.permutation(n_views)
    np.testing.assert_array_equal(aggregate_max([feats[i] for i in perm]), pooled)
    np.testing.assert_array_equal(aggregate_max(feats + [feats[0]]), pooled)


def routed_grad(feats, views, d_pooled):
    """One router call onto a zero gradient buffer shaped like feats."""
    d_feats = np.zeros_like(feats)
    route_pooled_grad(d_feats, feats, np.asarray(views), d_pooled)
    return d_feats


def test_pool_argmax_prefers_lowest_view():
    # one instance, all three views pooled in order: ties go to the lowest id
    feats = np.array([[[1.0, 2.0], [1.0, 5.0], [1.0, 5.0]]])
    np.testing.assert_array_equal(feats.max(axis=1), [[1.0, 5.0]])
    routed = routed_grad(feats, [[0, 1, 2]], np.array([[3.0, 4.0]]))
    np.testing.assert_array_equal(routed, [[[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]]])


def test_route_ties_go_to_first_listed_view():
    feats = np.ones((1, 3, 2))
    routed = routed_grad(feats, [[2, 0, 1]], np.array([[3.0, 4.0]]))
    np.testing.assert_array_equal(routed, [[[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]]])


def test_route_pooled_grad_scatters_to_argmax_only():
    # two instances, each pooling its own unsorted subset of four views
    rng = np.random.default_rng(4)
    feats = rng.normal(size=(2, 4, 3, 2))
    views = np.array([[3, 0, 2], [1, 2, 0]])
    grad = rng.normal(size=(2, 3, 2))
    routed = routed_grad(feats, views, grad)
    assert routed.shape == feats.shape
    for g in range(2):
        for a in range(3):
            for b in range(2):
                best = views[g][int(np.argmax(feats[g, views[g], a, b]))]
                for v in range(4):
                    assert routed[g, v, a, b] == (grad[g, a, b] if v == best else 0.0)


def test_route_adds_onto_existing_gradient():
    # a broadcast (G, 1, 1, D) gradient lands on every cell, added in place
    rng = np.random.default_rng(5)
    feats = rng.normal(size=(2, 3, 4, 5, 2))
    views = np.array([[1, 2], [0, 2]])
    step = rng.normal(size=(2, 1, 1, 2))
    d_feats = rng.normal(size=feats.shape)
    expect = d_feats + routed_grad(feats, views, np.broadcast_to(step, (2, 4, 5, 2)))
    route_pooled_grad(d_feats, feats, views, step)
    np.testing.assert_array_equal(d_feats, expect)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans(), st.booleans(), st.booleans())
def test_route_equals_argmax_scatter_bit_for_bit(seed, detection, broadcast, warm, large):
    # classification (G, V, D) or detection (G, V, H, W, D) shapes, with view
    # blocks on both sides of the router's scatter/walk threshold; rounded
    # ReLU features tie often, at zero and above it
    rng = np.random.default_rng(seed)
    g, v = (int(x) for x in rng.integers(1, [4, 7]))
    if detection:
        cells = tuple(int(x) for x in (rng.integers(5, 9, size=2) if large
                                       else rng.integers(1, 5, size=2)))
        d = int(rng.integers(3, 6) if large else rng.integers(1, 5))
    else:
        cells, d = (), int(rng.integers(65, 100) if large else rng.integers(1, 65))
    assert (d * int(np.prod(cells)) > SCATTER_MAX_BLOCK) == large
    feats = np.maximum(np.round(rng.normal(size=(g, v) + cells + (d,)), 1), 0.0)
    k = int(rng.integers(1, v + 1))
    views = np.array([rng.permutation(v)[:k] for _ in range(g)])
    d_pooled = rng.normal(size=(g,) + ((1, 1) if detection and broadcast else cells) + (d,))
    start = rng.normal(size=feats.shape) if warm else np.zeros(feats.shape)
    got, want = start.copy(), start.copy()
    route_pooled_grad(got, feats, views, d_pooled)
    route_pooled_grad_argmax(want, feats, views, d_pooled)
    assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# classifier


def test_classifier_prediction_shape_constant_across_subsets():
    net = tiny_classifier()
    obs = np.random.default_rng(1).normal(size=(7, 5))
    for views in ([0], [3, 5], [0, 1, 2, 3, 4, 5, 6]):
        assert predict(net, obs, views).shape == (3,)


def test_classifier_duplicate_and_permutation_invariance():
    net = tiny_classifier()
    obs = np.random.default_rng(2).normal(size=(6, 5))
    base = predict(net, obs, [1, 4, 5])
    np.testing.assert_array_equal(predict(net, obs, [5, 1, 4]), base)
    np.testing.assert_array_equal(predict(net, obs, [1, 4, 5, 4]), base)


def test_full_view_equivalence_any_order():
    net = tiny_classifier()
    obs = np.random.default_rng(3).normal(size=(5, 5))
    full = predict(net, obs, range(5))
    np.testing.assert_array_equal(predict(net, obs, [4, 2, 0, 3, 1]), full)


def test_zeroed_feature_net_gives_zero_features():
    net = tiny_classifier()
    for w in net.feature_net.weights:
        w[...] = 0.0
    for b in net.feature_net.biases:
        b[...] = 0.0
    obs = np.random.default_rng(4).normal(size=(3, 5))
    np.testing.assert_array_equal(net.features_cache(obs)[0], np.zeros((3, 4)))


def test_hand_traced_identity_network():
    # identity feature net and head: pooled vector is the logits, so the
    # class whose prototype dominates the pooled max wins
    net = MVClassifier(obs_dim=2, feat_dim=2, n_classes=2, hidden=2, seed=0)
    for w in net.feature_net.weights + net.head_net.weights:
        w[...] = np.eye(2)
    for b in net.feature_net.biases + net.head_net.biases:
        b[...] = 0.0
    obs = np.array([[2.0, 0.0], [0.0, 1.0]])
    logits = predict(net, obs, [0, 1])
    np.testing.assert_array_equal(logits, [2.0, 1.0])
    assert int(np.argmax(logits)) == 0
    np.testing.assert_array_equal(predict(net, obs, [1]), [0.0, 1.0])


def classifier_loss_and_grads(net, obs, views, label):
    """Composed forward/backward through extract -> pool -> head -> CE."""
    feats, fcache = net.features_cache(obs[None])
    logits, hcache = net.head_cache(feats[:, views].max(axis=1))
    loss, d_logits = cross_entropy(logits, np.array([label]))
    grads, d_pooled = net.head_backward(hcache, d_logits)
    d_feats = routed_grad(feats, [views], d_pooled)
    grads.update(net.features_backward(fcache, d_feats))
    return loss, grads


def test_classifier_end_to_end_gradient():
    net = tiny_classifier(seed=5)
    rng = np.random.default_rng(6)
    obs = rng.normal(size=(6, 5))
    views = [0, 2, 5]
    label = 1

    def loss_fn():
        return cross_entropy(predict(net, obs, views)[None], np.array([label]))[0]

    _, grads = classifier_loss_and_grads(net, obs, views, label)
    for name, param in net.named_params():
        num = numeric_gradient(loss_fn, param)
        assert max_relative_error(grads[name], num) < GRAD_TOL, name


def test_gradient_skips_views_never_attaining_max():
    # a view whose features are dominated everywhere contributes no gradient,
    # even when it is listed first
    net = tiny_classifier(seed=7)
    feats, _ = net.features_cache(np.random.default_rng(7).normal(size=(1, 3, 5)))
    feats = np.concatenate([feats, feats.min(axis=1, keepdims=True) - 1.0], axis=1)
    routed = routed_grad(feats, [[3, 0, 1, 2]], np.ones((1, 4)))
    np.testing.assert_array_equal(routed[0, 3], np.zeros(4))
    np.testing.assert_array_equal(routed.sum(axis=1), np.ones((1, 4)))


# ---------------------------------------------------------------------------
# detector


def test_detector_heatmap_shape_and_range():
    net = tiny_detector()
    obs = np.random.default_rng(8).normal(size=(4, 3, 6, 7))
    for views in ([2], [0, 3], [0, 1, 2, 3]):
        heat = predict(net, obs, views)
        assert heat.shape == (6, 7)
        assert heat.min() >= 0.0 and heat.max() <= 1.0


def test_detector_unseen_cell_feature_is_f_of_zero():
    net = tiny_detector()
    obs = np.random.default_rng(9).normal(size=(1, 3, 4, 4))
    obs[0, :, 2, 3] = 0.0  # a cell outside this camera's visibility
    feats = net.features_cache(obs)[0]                      # (V, H, W, D)
    f_zero = net.feature_net.forward_cache(np.zeros((1, 3)))[0][0]
    np.testing.assert_allclose(feats[0, 2, 3], f_zero, rtol=1e-12)


def test_detector_permutation_and_duplicate_invariance():
    net = tiny_detector()
    obs = np.random.default_rng(10).normal(size=(3, 3, 5, 5))
    base = predict(net, obs, [0, 1, 2])
    np.testing.assert_array_equal(predict(net, obs, [2, 0, 1]), base)
    np.testing.assert_array_equal(predict(net, obs, [0, 1, 2, 1]), base)


def test_detector_end_to_end_gradient():
    # a one-instance batch, as detection training runs it
    net = tiny_detector(seed=11)
    rng = np.random.default_rng(12)
    obs = rng.normal(size=(3, 3, 4, 5))
    target = rng.uniform(size=(4, 5))
    views = [0, 2]

    def loss_fn():
        return net.loss(predict(net, obs, views)[None], [target])[0]

    _, grads = tr._batch_loss(net, obs[views][None], [target])
    for name, param in net.named_params():
        num = numeric_gradient(loss_fn, param)
        assert max_relative_error(grads[name], num) < GRAD_TOL, name


@pytest.mark.parametrize("kind", ["classifier", "detector"])
def test_batch_loss_gradient_matches_finite_differences(kind):
    # two instances seen through three views: the loss is the batch mean of
    # the per-instance losses of independent forwards
    rng = np.random.default_rng(14)
    if kind == "classifier":
        net, obs, truths = tiny_classifier(seed=15), rng.normal(size=(2, 3, 5)), [2, 0]
    else:
        net = tiny_detector(seed=15)
        obs, truths = rng.normal(size=(2, 3, 3, 4, 5)), list(rng.uniform(size=(2, 4, 5)))

    def loss_fn():
        outputs = np.stack([predict(net, o, range(3)) for o in obs])
        return net.loss(outputs, truths)[0]

    loss, grads = tr._batch_loss(net, obs, truths)
    assert loss == pytest.approx(loss_fn(), rel=1e-12)
    for name, param in net.named_params():
        num = numeric_gradient(loss_fn, param)
        assert max_relative_error(grads[name], num) < GRAD_TOL, name


@pytest.mark.parametrize("kind", ["classifier", "detector"])
def test_joint_gradient_with_selector_term_matches_finite_differences(kind):
    # L = sum over (g, t) of <c[g, t], cell mean of the max over views[g, :t+1]>
    # plus the task loss of the terminal pool: d_obs = c routes each step's
    # term to the views chosen up to it, in selection order
    rng = np.random.default_rng(18)
    views = np.array([[2, 0, 3], [1, 3, 0]])                # (G, T), unsorted
    if kind == "classifier":
        net, obs, truths = tiny_classifier(seed=19), rng.normal(size=(2, 4, 5)), [1, 2]
    else:
        net = tiny_detector(seed=19)
        obs, truths = rng.normal(size=(2, 4, 3, 4, 5)), list(rng.uniform(size=(2, 4, 5)))
    c = rng.normal(size=(2, 2, 4))                          # (G, T-1, D)

    def loss_fn():
        total = net.loss(np.stack([predict(net, o, v) for o, v in zip(obs, views)]), truths)[0]
        for g in range(2):
            feats = net.features_cache(obs[g])[0]
            for t in range(2):
                pooled = aggregate_max([feats[v] for v in views[g, : t + 1]])
                total += np.dot(c[g, t], pooled.reshape(-1, 4).mean(axis=0))
        return total

    feats, fcache = net.features_cache(obs)
    outputs, hcache = net.head_cache(feats[[[0], [1]], views].max(axis=1))
    _, grads = tr._task_grads(net, feats, fcache, views, truths, outputs, hcache,
                              c.reshape(4, 4))
    for name, param in net.named_params():
        num = numeric_gradient(loss_fn, param)
        assert max_relative_error(grads[name], num) < GRAD_TOL, name


def test_route_reuses_its_work_arrays_across_calls():
    # one kept work dict serves every call of a shape, each call routing as
    # the argmax scatter does, bit for bit, and reading feats and d_pooled only
    rng = np.random.default_rng(6)
    work = {}
    for step in range(3):
        feats = np.maximum(np.round(rng.normal(size=(2, 6, 8, 8, 4)), 1), 0.0)
        views = np.array([rng.permutation(6)[:3] for _ in range(2)])
        d_pooled = rng.normal(size=(2, 8, 8, 4))
        before = feats.tobytes(), d_pooled.tobytes()
        got, want = np.zeros(feats.shape), np.zeros(feats.shape)
        route_pooled_grad(got, feats, views, d_pooled, work)
        route_pooled_grad_argmax(want, feats, views, d_pooled)
        assert got.tobytes() == want.tobytes()
        assert (feats.tobytes(), d_pooled.tobytes()) == before
        if step == 0:
            first = dict(work)
    assert len(work) == 4 and all(work[key] is arr for key, arr in first.items())


@pytest.mark.parametrize("kind", ["classifier", "detector"])
def test_task_grads_with_kept_work_equal_fresh_ones_bit_for_bit(kind):
    # two training steps, one with the selector's term, through one work
    # dict: the same gradient bytes as steps with fresh arrays, the caller's
    # arrays untouched, and the second step writing into the first's arrays
    rng = np.random.default_rng(20)
    net = tiny_classifier(seed=21) if kind == "classifier" else tiny_detector(seed=21)
    views = np.array([[2, 0, 3], [1, 3, 0]])
    work = {}
    for step in range(2):
        if kind == "classifier":
            obs, truths = rng.normal(size=(2, 4, 5)), [1, 2]
        else:
            obs, truths = rng.normal(size=(2, 4, 3, 16, 16)), list(rng.uniform(size=(2, 16, 16)))
        loss, grads = tr._batch_loss(net, obs, truths, work)
        ref_loss, ref_grads = tr._batch_loss(net, obs, truths)
        assert loss == ref_loss and list(grads) == list(ref_grads)
        for name, grad in grads.items():
            assert grad.tobytes() == ref_grads[name].tobytes(), name

        feats, fcache = net.features_cache(obs)
        outputs, hcache = net.head_cache(feats[[[0], [1]], views].max(axis=1))
        d_obs = rng.normal(size=(4, net.feat_dim))
        kept = feats.tobytes(), d_obs.tobytes(), [(a.tobytes(), b.tobytes()) for a, b in fcache]
        _, grads = tr._task_grads(net, feats, fcache, views, truths, outputs, hcache, d_obs,
                                  work)
        _, ref_grads = tr._task_grads(net, feats, fcache, views, truths, outputs, hcache, d_obs)
        for name, grad in grads.items():
            assert grad.tobytes() == ref_grads[name].tobytes(), name
        assert (feats.tobytes(), d_obs.tobytes(),
                [(a.tobytes(), b.tobytes()) for a, b in fcache]) == kept
        if step == 0:
            first = dict(work)
    assert first and all(work[key] is arr for key, arr in first.items())
    # the gradients handed back are fresh, never a work array
    assert not {id(g) for g in grads.values()} & {id(a) for a in work.values()}


def test_detector_batch_axis_matches_stacked_instances():
    # outputs and pooled gradients equal the per-instance calls stacked;
    # parameter gradients equal one unbatched call over the same rows (the
    # views of both instances, or their grid rows, laid end to end)
    net = tiny_detector(seed=16)
    rng = np.random.default_rng(17)
    obs = rng.normal(size=(2, 3, 3, 4, 5))                  # (G, V, C, H, W)
    feats, fcache = net.features_cache(obs)                 # (G, V, H, W, D)
    np.testing.assert_array_equal(feats, np.stack([net.features_cache(o)[0] for o in obs]))
    d_feats = rng.normal(size=feats.shape)
    _, flat_cache = net.features_cache(obs.reshape(6, 3, 4, 5))
    flat = net.features_backward(flat_cache, d_feats.reshape(6, 4, 5, 4))
    for name, g in net.features_backward(fcache, d_feats).items():
        np.testing.assert_array_equal(g, flat[name], err_msg=name)

    pooled = feats.max(axis=1)                              # (G, H, W, D)
    heat, hcache = net.head_cache(pooled)
    singles = [net.head_cache(p) for p in pooled]
    np.testing.assert_array_equal(heat, np.stack([h for h, _ in singles]))
    d_heat = rng.normal(size=heat.shape)
    grads, d_pooled = net.head_backward(hcache, d_heat)
    np.testing.assert_array_equal(d_pooled, np.stack(
        [net.head_backward(c, d)[1] for (_, c), d in zip(singles, d_heat)]))
    rows = pooled.reshape(8, 5, 4)                          # (G*H, W, D)
    _, row_cache = net.head_cache(rows)
    row_grads, _ = net.head_backward(row_cache, d_heat.reshape(8, 5))
    for name, g in grads.items():
        np.testing.assert_array_equal(g, row_grads[name], err_msg=name)


def test_detector_view_alone_equals_its_slice_on_the_acceptance_geometry():
    # select-fixed training featurizes each detection view on its own; on
    # the acceptance world that must give the bits of the all-views call
    world = DetectionWorld(DetectionConfig(
        noise=0.2, half_angle_deg=60.0, view_range=50.0, seed=1))
    net = tr.build_detector(world, seed=1)
    assert world.config.grid_h * world.config.grid_w >= VIEW_ALONE_MIN_ROWS
    for i in range(4):
        obs = world.instance("train", i).observations
        every = net.features_cache(obs[None])[0][0]
        table = ViewFeatures(net, [obs], {}, False)
        for v in range(world.n_cameras):
            assert net.features_cache(obs[v])[0].tobytes() == every[v].tobytes()
            assert table[[0], [v]][0].tobytes() == every[v].tobytes()


def test_broadcast_observations_featurize_like_materialized_ones(monkeypatch):
    # a detection instance's observations broadcast one map per camera over
    # the channels; featurized, they give the bits of the materialized
    # np.repeat copy, and the extractor receives contiguous rows (a stride-0
    # view would send matmul past BLAS, to other bits)
    world = DetectionWorld(DetectionConfig(
        noise=0.2, half_angle_deg=60.0, view_range=50.0, seed=0))
    net = tr.build_detector(world, seed=0)
    seen = []
    forward = net.feature_net.forward_cache
    monkeypatch.setattr(net.feature_net, "forward_cache",
                        lambda x: seen.append(x.flags.c_contiguous) or forward(x))
    for i in range(3):
        obs = world.instance("train", i).observations
        assert obs.strides[1] == 0
        copy = np.repeat(obs[:, :1], world.config.channels, axis=1)
        for a, b in ((obs, copy), (obs[None], copy[None]), (obs[2], copy[2])):
            feats, cache = net.features_cache(a)
            ref_feats, ref_cache = net.features_cache(b)
            assert feats.tobytes() == ref_feats.tobytes()
            assert cache[0][0].tobytes() == ref_cache[0][0].tobytes()
    assert seen and all(seen)


@pytest.mark.parametrize("net, cells", [(tiny_classifier(3), ()), (tiny_detector(3), (4, 5)),
                                        (tiny_detector(3), (16, 16))],
                         ids=["classifier", "detector-20-cells", "detector-256-cells"])
def test_forward_features_read_equal_the_batched_features(net, cells):
    # one-row and 20-cell views come featurized in one call, 256-cell views
    # as a table that featurizes each view alone when first read; once every
    # view is read, the feature array and, for a backward, each layer's
    # cached rows are the batched call's
    channels = net.obs_dim if isinstance(net, MVClassifier) else net.channels
    obs = np.random.default_rng(4).normal(size=(3, 5, channels, *cells))   # (G, N, C[, H, W])
    every, every_cache = net.features_cache(obs)
    inst = np.arange(3)[:, None]
    for backward in (True, False):
        table, feats, cache = forward_features(net, list(obs), {}, backward)
        assert isinstance(table, ViewFeatures) == (math.prod(cells) >= VIEW_ALONE_MIN_ROWS)
        assert table.shape == feats.shape == every.shape
        for views in ([[0], [4], [2]], [[0, 3], [1, 1], [2, 4]], np.tile(np.arange(5), (3, 1))):
            assert table[inst, np.array(views)].tobytes() == every[inst, np.array(views)].tobytes()
        assert feats.tobytes() == every.tobytes()
        if isinstance(table, ViewFeatures) and not backward:
            assert cache is None
            continue
        assert len(cache) == len(every_cache)
        for pair, every_pair in zip(cache, every_cache):
            for a, b in zip(pair, every_pair):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_backward_through_a_partly_read_table_equals_the_batched_backward(seed):
    # the feature gradient is zero on the views a rollout never read, whose
    # rows in the table's buffers hold zeros or an earlier step's values;
    # the backward over those buffers gives the batched call's gradients
    rng = np.random.default_rng(seed)
    g, v = (int(x) for x in rng.integers(1, [3, 7]))
    net = MVDetector(channels=3, feat_dim=int(rng.integers(2, 9)),
                     hidden=int(rng.integers(2, 17)), seed=seed)
    obs, stale = rng.normal(size=(2, g, v + 1, 3, 16, 16))
    work: dict = {}
    if rng.random() < 0.5:                          # buffers an earlier step wrote
        earlier = ViewFeatures(net, list(stale), work, True)
        earlier[np.arange(g)[:, None], np.arange(v + 1)]
    table = ViewFeatures(net, list(obs), work, True)
    read = rng.random((g, v + 1)) < 0.5
    read[:, 0] = True
    inst, views = np.nonzero(read)
    table[inst, views]
    every, every_cache = net.features_cache(obs)
    assert table.feats[inst, views].tobytes() == every[inst, views].tobytes()
    d_feats = np.where(read[:, :, None, None, None], rng.normal(size=every.shape), 0.0)
    grads = net.features_backward(table.cache, d_feats, work)
    ref = net.features_backward(every_cache, d_feats)
    assert list(grads) == list(ref)
    for name, grad in grads.items():
        assert grad.tobytes() == ref[name].tobytes(), name


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.6]))
def test_feature_last_path_equals_channel_first_reference(seed, epsilon):
    # features, heatmaps, batch-loss gradients and the selection rollout on
    # the feature-last layout equal the channel-first reference bit for bit
    rng = np.random.default_rng(seed)
    g, v, c, h, w, d = (int(x) for x in rng.integers(1, [3, 5, 4, 6, 6, 5]))
    v += 1
    net = MVDetector(channels=c, feat_dim=d, hidden=int(rng.integers(1, 6)), seed=seed)
    ref = ChannelFirstDetector(net)
    obs = rng.normal(size=(g, v, c, h, w))
    truths = list(rng.uniform(size=(g, h, w)))

    feats, _ = net.features_cache(obs)                      # (G, V, H, W, D)
    ref_feats, _ = ref.features_cache(obs)                  # (G, V, D, H, W)
    assert feats.tobytes() == np.moveaxis(ref_feats, 2, -1).tobytes()
    heat = net.head_cache(feats.max(axis=1))[0]
    assert heat.tobytes() == ref.head_cache(ref_feats.max(axis=1))[0].tobytes()

    loss, grads = tr._batch_loss(net, obs, truths)
    ref_loss, ref_grads = tr._batch_loss(ref, obs, truths)
    assert loss == ref_loss and list(grads) == list(ref_grads)
    for name, grad in grads.items():
        assert grad.tobytes() == ref_grads[name].tobytes(), name

    q_net = QNetwork(n_cameras=v, feat_dim=d, hidden=int(rng.integers(1, 6)), seed=seed)
    initial = rng.integers(v, size=(g, 2))
    T = int(rng.integers(2, v + 1))
    chosen, _, q_obs, _, values, pooled = rollout(
        q_net, feats, initial, T, frozenset(), epsilon, np.random.default_rng(seed))
    ref_chosen, ref_obs, ref_values, ref_pooled = rollout_channel_first(
        q_net, ref_feats, initial, T, frozenset(), epsilon, np.random.default_rng(seed))
    np.testing.assert_array_equal(chosen, ref_chosen)
    assert q_obs.tobytes() == ref_obs.tobytes()
    assert values.tobytes() == ref_values.tobytes()
    assert pooled.tobytes() == np.moveaxis(ref_pooled, 2, -1).tobytes()


def test_perfect_heatmap_zero_loss():
    target = np.random.default_rng(13).uniform(size=(3, 3))
    loss, _ = tiny_detector().loss(target[None].copy(), [target])
    assert loss == 0.0


def test_task_loss_mode_guards():
    with pytest.raises(ValueError):
        tiny_detector().loss(np.zeros((1, 3)), [0])                    # logits, not heatmaps
    with pytest.raises(ValueError):
        tiny_classifier().loss(np.zeros((1, 2, 2)), [np.zeros((2, 2))])  # heatmaps, not logits


# ---------------------------------------------------------------------------
# evaluation records


def test_classifier_records_score_and_metrics():
    net = tiny_classifier()
    logits = np.array([[0.1, 2.0, -1.0], [3.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    records = net.records(logits, SimpleNamespace(class_id=1), world=None)
    np.testing.assert_array_equal(records, [[1.0], [0.0], [0.0]])
    np.testing.assert_array_equal(net.score(records), [1.0, 0.0, 0.0])
    # records of two instances, pooled over instances and initial views
    both = np.stack([records, np.ones_like(records)])
    assert net.metrics(both) == {"accuracy": 4 / 6, "primary": 4 / 6}


def test_detector_records_score_and_metrics():
    net = tiny_detector()
    heat = np.zeros((3, 8, 8))
    heat[0, 2, 2] = heat[0, 5, 5] = 0.9       # both occupants found
    heat[1, 2, 2] = 0.9                       # one missed
    inst = SimpleNamespace(positions=np.array([[2, 2], [6, 6]]))
    world = SimpleNamespace(match_threshold_cells=THR)
    records = net.records(heat, inst, world)
    assert records.shape == (3, 5)
    for row, h in zip(records, heat):
        np.testing.assert_array_equal(row, ev.frame_counts(h, inst.positions, THR))
    np.testing.assert_array_equal(records[:, :4], [[2, 0, 0, 2], [1, 0, 1, 2], [0, 0, 2, 2]])
    np.testing.assert_array_equal(net.score(records), [1.0, 0.5, 0.0])
    # a frame without ground truth scores 0 instead of dividing by zero
    np.testing.assert_array_equal(net.score(np.array([[0.0, 3.0, 0.0, 0.0, 0.0]])), [0.0])
    assert net.metrics(records) == ev.detection_metrics_arrays(records[:, :4], records[:, 4])
    assert net.metrics(records)["moda"] == 0.5


# ---------------------------------------------------------------------------
# construction and persistence


@pytest.mark.parametrize("cls, flags", [
    pytest.param(MVClassifier, {}, id="MVClassifier"),
    pytest.param(MVDetector, {}, id="MVDetector"),
    pytest.param(QNetwork, {}, id="QNetwork-default-flags"),
    pytest.param(QNetwork, {"use_camera_branch": False, "use_feature_branch": True},
                 id="QNetwork-no-camera-branch"),
])
def test_task_net_is_built_from_exactly_its_dims(cls, flags):
    # every network is built from exactly its DIMS, left-out flags taking their
    # defaults, by keyword or by position, and stores them in DIMS order
    given = {"obs_dim": 5, "channels": 3, "n_cameras": 4, "feat_dim": 4, "n_classes": 3,
             "hidden": 6, "seed": 0, **flags}
    given = {name: given[name] for name in cls.DIMS if name in given}
    dims = {name: {**cls.DEFAULTS, **given}[name] for name in cls.DIMS}
    net = cls(**dict(reversed(given.items())))
    assert list(vars(net))[:len(cls.DIMS)] == list(cls.DIMS)
    assert {name: getattr(net, name) for name in cls.DIMS} == dims
    assert list(cls.param_shapes(**dims).items()) == [(n, p.shape) for n, p in net.named_params()]
    missing = {name: v for name, v in given.items() if name != "hidden"}
    with pytest.raises(TypeError, match="takes dims"):
        cls(**missing)
    with pytest.raises(TypeError, match="depth"):
        cls(**given, depth=2)
    assert pickle.dumps(cls(*dims.values())) == pickle.dumps(net)


def test_classifier_checkpoint_round_trip(tmp_path):
    net = tiny_classifier(seed=20)
    path = tmp_path / "clf.ckpt"
    atomic_write_bytes(path, net.encode("w123", {"regime": "task"}))
    loaded, meta = MVClassifier.load(path)
    assert meta["world_hash"] == "w123"
    assert meta["regime"] == "task"
    for (na, pa), (nb, pb) in zip(net.named_params(), loaded.named_params()):
        assert na == nb
        np.testing.assert_array_equal(pa, pb)
    obs = np.random.default_rng(21).normal(size=(4, 5))
    np.testing.assert_array_equal(predict(loaded, obs, [0, 2]), predict(net, obs, [0, 2]))


def test_detector_checkpoint_round_trip(tmp_path):
    net = tiny_detector(seed=22)
    path = tmp_path / "det.ckpt"
    atomic_write_bytes(path, net.encode("w9"))
    loaded, meta = MVDetector.load(path)
    assert meta["world_hash"] == "w9"
    obs = np.random.default_rng(23).normal(size=(2, 3, 4, 4))
    np.testing.assert_array_equal(predict(loaded, obs, [0, 1]), predict(net, obs, [0, 1]))


def test_kind_mismatch_rejected(tmp_path):
    net = tiny_classifier()
    path = tmp_path / "clf.ckpt"
    atomic_write_bytes(path, net.encode("w"))
    with pytest.raises(CompatibilityError):
        MVDetector.load(path)


def test_mac_counts():
    world = SimpleNamespace(config=SimpleNamespace(grid_h=4, grid_w=7))
    clf = tiny_classifier()
    assert clf.mac_counts(world) == {"f_per_view": 5 * 6 + 6 * 6 + 6 * 4, "g": 4 * 3}
    det = tiny_detector()
    # the per-cell nets run on every one of the 4 x 7 grid cells
    assert det.mac_counts(world) == {
        "f_per_view": (3 * 5 + 5 * 4) * 28,
        "g": (4 * 5 + 5 * 1) * 28,
    }
