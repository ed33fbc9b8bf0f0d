"""Selection-agent checks: rollout states, a hand-traced two-branch value
network, masked epsilon-greedy statistics, TD targets, and the RL loss
gradient against finite differences."""

import numpy as np
import pytest

from fewview.artifacts import atomic_write_bytes
from fewview.checkpoint import encode_checkpoint, load_checkpoint
from fewview.errors import CompatibilityError, ConfigError, ShapeError, StateError
from fewview.mvselect import (
    QNetwork,
    epsilon_schedule,
    rl_loss,
    rollout,
    td_targets,
)
from fewview.tasknet import MVClassifier, MVDetector, ViewFeatures
from testkit import PerInstanceQ, max_relative_error, numeric_gradient

GRAD_TOL = 1e-4


class StubNet:
    """Fixed action values for every state, with the states' leading axes."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.n_cameras = len(self.values)

    def forward_cache(self, cams, obs):
        return np.tile(self.values, cams.shape[:-1] + (1,)), None


def scripted(order, features):
    """Greedy rollout that takes ``order`` for one instance; returns the
    camera counts and observations of its states, state t after the views
    order[:t + 1]."""
    values = np.full(len(features), -100.0)
    values[list(order)] = -np.arange(len(order))   # earlier in order, higher value
    chosen, cams, obs, _, _, _ = rollout(StubNet(values), np.stack(features)[None], [[order[0]]], len(order))
    assert list(chosen[0, 0]) == list(order)
    return cams[0, 0], obs[0, 0]


# ---------------------------------------------------------------------------
# selection states, as the rollout builds them


def test_build_state_one_hot_examples():
    cams, _ = scripted([2, 0], [np.zeros(3)] * 4)
    np.testing.assert_array_equal(cams[0], [0, 0, 1, 0])
    cams, _ = scripted([0, 2, 1], [np.zeros(3)] * 4)
    np.testing.assert_array_equal(cams[1], [1, 0, 1, 0])


def test_build_state_running_max():
    _, obs = scripted([0, 1, 2], [np.array([1.0, 5.0]), np.array([3.0, 2.0]), np.zeros(2)])
    np.testing.assert_array_equal(obs[0], [1.0, 5.0])
    np.testing.assert_array_equal(obs[1], [3.0, 5.0])


def test_build_state_reduces_feature_maps():
    a = np.arange(8.0).reshape(2, 2, 2)                     # (H, W, D)
    b = a[::-1]
    _, obs = scripted([0, 1, 2], [a, b, np.zeros_like(a)])
    np.testing.assert_array_equal(obs[0], a.mean(axis=(0, 1)))
    np.testing.assert_array_equal(obs[1], np.maximum(a, b).mean(axis=(0, 1)))


def test_build_state_order_insensitive():
    feats = [np.zeros(2)] * 6
    feats[0], feats[3], feats[4] = np.array([1.0, 0.0]), np.array([0.0, 2.0]), np.array([5.0, -1.0])
    cams_a, obs_a = scripted([0, 3, 4, 1], feats)
    cams_b, obs_b = scripted([4, 0, 3, 1], feats)
    np.testing.assert_array_equal(cams_a[-1], cams_b[-1])
    np.testing.assert_array_equal(obs_a[-1], obs_b[-1])


def test_build_state_guards():
    net = StubNet([0.1, 0.9, 0.5])
    with pytest.raises(StateError):
        rollout(net, np.zeros((1, 3, 2)), [[0]], 2, disabled={1, 2})
    with pytest.raises(ShapeError):
        rollout(QNetwork(3, 4, 5, seed=0), np.zeros((1, 3, 2)), [[0]], 2)


def features_of(form):
    """Features (1, 3, 2) of one instance, as an array or as a view table."""
    net = MVClassifier(obs_dim=4, feat_dim=2, n_classes=2, hidden=3, seed=0)
    obs = np.random.default_rng(0).normal(size=(3, 4))
    return net.features_cache(obs[None])[0] if form == "array" else ViewFeatures(net, [obs], {}, False)


@pytest.mark.parametrize("form", ["array", "table"])
@pytest.mark.parametrize("initial", [[[3]], [[-1]], [[0, 4]], [[0], [1]], [0]])
def test_rollout_rejects_initial_views_outside_the_instances(form, initial):
    with pytest.raises(ShapeError):
        rollout(StubNet([0.1, 0.9, 0.5]), features_of(form), initial, 2)


@pytest.mark.parametrize("form", ["array", "table"])
def test_rollout_with_epsilon_needs_an_rng(form):
    with pytest.raises(ConfigError):
        rollout(StubNet([0.1, 0.9, 0.5]), features_of(form), [[0]], 2, epsilon=0.5)
    chosen = rollout(StubNet([0.1, 0.9, 0.5]), features_of(form), [[0]], 2, epsilon=0.0)[0]
    np.testing.assert_array_equal(chosen, [[[0, 1]]])


def test_rollout_records_each_state_once():
    net = QNetwork(n_cameras=5, feat_dim=3, hidden=6, seed=3)
    feats = np.random.default_rng(4).normal(size=(2, 5, 3))
    chosen, cams, obs, masks, values, pooled = rollout(
        net, feats, [[0, 4], [1, 2]], 4, {3}, 0.5, np.random.default_rng(1))
    assert chosen.shape == (2, 2, 4) and values.shape == (2, 2, 3, 5)
    for g in range(2):
        for t in range(3):
            np.testing.assert_array_equal(values[g, :, t], net.forward_cache(cams[g, :, t], obs[g, :, t])[0])
            for r in range(2):
                taken = set(chosen[g, r, : t + 1])
                np.testing.assert_array_equal(np.flatnonzero(masks[g, r, t]), sorted(taken | {3}))
                np.testing.assert_array_equal(obs[g, r, t], feats[g, sorted(taken)].max(axis=0))
    for g in range(2):
        for r in range(2):
            np.testing.assert_array_equal(pooled[g, r], feats[g, chosen[g, r]].max(axis=0))


def features_and_table(family, n_inst, n_cams):
    """Features (G, N[, H, W], D) of n_inst random instances, and a function
    that makes a fresh view table of the same instances: a classifier's
    one-row views are featurized at construction, a detector's 256-cell
    views each when first read."""
    rng = np.random.default_rng(8)
    if family == "classifier":
        net = MVClassifier(obs_dim=5, feat_dim=6, n_classes=2, hidden=7, seed=1)
        obs = rng.normal(size=(n_inst, n_cams, 5))
    else:
        net = MVDetector(channels=2, feat_dim=6, hidden=7, seed=1)
        obs = rng.normal(size=(n_inst, n_cams, 2, 16, 16))
    return net.features_cache(obs)[0], lambda: ViewFeatures(net, list(obs), {}, False)


@pytest.mark.parametrize("form", ["array", "table"])
@pytest.mark.parametrize("family", ["classifier", "detector"])
@pytest.mark.parametrize("n_inst, epsilon", [(8, 0.5), (1, 0.0)])
def test_rollout_values_each_step_as_one_forward_per_instance_would(form, family, n_inst, epsilon):
    # one stacked Q forward per step has, bit for bit, the values of one
    # forward per instance: G instances of one epsilon-greedy row as in
    # training, and one instance from every initial view as in evaluation
    n_cams = 5
    net = QNetwork(n_cameras=n_cams, feat_dim=6, hidden=16, seed=2)
    feats, table = features_and_table(family, n_inst, n_cams)
    initial = (np.random.default_rng(9).integers(n_cams, size=(n_inst, 1)) if epsilon
               else np.arange(n_cams)[None])
    runs = [rollout(q, feats if form == "array" else table(), initial, 4, {3}, epsilon,
                    np.random.default_rng(10)) for q in (net, PerInstanceQ(net))]
    for stacked, per_instance in zip(*runs):
        assert stacked.shape == per_instance.shape
        assert stacked.tobytes() == per_instance.tobytes()


# ---------------------------------------------------------------------------
# value network


def hand_set_qnet():
    net = QNetwork(n_cameras=2, feat_dim=2, hidden=2, seed=0)
    net.embeddings[...] = np.eye(2)
    net.camera_branch.weights[0][...] = np.eye(2)
    net.camera_branch.biases[0][...] = 0.0
    net.feature_branch.weights[0][...] = np.eye(2)
    net.feature_branch.biases[0][...] = 0.0
    net.combiner.weights[0][...] = np.eye(2)
    net.combiner.biases[0][...] = 0.0
    net.combiner.weights[1][...] = np.array([[1.0, 1.0], [2.0, -1.0]])
    net.combiner.biases[1][...] = np.array([0.5, 0.0])
    return net


def one_state(chosen, obs, n_cameras):
    """Camera counts (1, N) and observation (1, D) of a single state."""
    cam = np.zeros((1, n_cameras))
    cam[0, list(chosen)] = 1.0
    return cam, np.asarray(obs, dtype=np.float64)[None]


def test_hand_traced_two_branch_values():
    # cam [1,0] -> embedding sum [1,0] -> relu [1,0]; obs [0.3,0.7] -> relu
    # [0.3,0.7]; summed [1.3,0.7] -> relu -> rows [1.3+0.7+0.5, 2*1.3-0.7]
    net = hand_set_qnet()
    q = net.forward_cache(*one_state([0], [0.3, 0.7], 2))[0]
    np.testing.assert_allclose(q[0], [2.5, 1.9], atol=1e-15)


def test_feature_branch_off_ignores_observations():
    net = QNetwork(n_cameras=3, feat_dim=4, hidden=5, seed=1, use_feature_branch=False)
    a = one_state([1], np.full(4, 9.0), 3)
    b = one_state([1], np.full(4, -9.0), 3)
    np.testing.assert_array_equal(net.forward_cache(*a)[0], net.forward_cache(*b)[0])


def test_camera_branch_off_ignores_history_beyond_observation():
    net = QNetwork(n_cameras=4, feat_dim=3, hidden=5, seed=2, use_camera_branch=False)
    obs = np.array([0.5, -0.2, 1.0])
    a = one_state([0, 1], obs, 4)
    b = one_state([2, 3], obs, 4)
    np.testing.assert_array_equal(net.forward_cache(*a)[0], net.forward_cache(*b)[0])


def test_both_branches_off_rejected():
    with pytest.raises(ShapeError):
        QNetwork(2, 2, 2, 0, use_camera_branch=False, use_feature_branch=False)


def test_batched_values_match_singletons():
    net = QNetwork(n_cameras=5, feat_dim=3, hidden=6, seed=3)
    rng = np.random.default_rng(4)
    states = [one_state([i], rng.normal(size=3), 5) for i in range(4)]
    batch = net.forward_cache(np.concatenate([c for c, _ in states]),
                              np.concatenate([o for _, o in states]))[0]
    for i, s in enumerate(states):
        np.testing.assert_allclose(batch[i], net.forward_cache(*s)[0][0], rtol=1e-12, atol=1e-14)


def test_stacked_values_keep_leading_axes_and_per_instance_bits():
    net = QNetwork(n_cameras=5, feat_dim=3, hidden=6, seed=3)
    rng = np.random.default_rng(5)
    cams = rng.integers(0, 2, size=(2, 4, 3, 5)).astype(float)
    obs = rng.normal(size=(2, 4, 3, 3))
    q = net.forward_cache(cams, obs)[0]
    assert q.shape == (2, 4, 3, 5)
    for index in np.ndindex(2, 4):
        assert q[index].tobytes() == net.forward_cache(cams[index], obs[index])[0].tobytes()


@pytest.mark.parametrize("cams_shape, obs_shape", [
    ((4, 5), (1, 3)),        # one observation row would broadcast to every state
    ((4, 5), (2, 3)),
    ((2, 4, 5), (4, 3)),
    ((2, 4, 5), (2, 1, 3)),
])
def test_states_whose_batch_axes_disagree_are_rejected(cams_shape, obs_shape):
    net = QNetwork(n_cameras=5, feat_dim=3, hidden=6, seed=3)
    with pytest.raises(ShapeError):
        net.forward_cache(np.zeros(cams_shape), np.ones(obs_shape))


@pytest.mark.parametrize("branch", ["camera", "feature"])
def test_backward_keys_follow_named_params_with_zeros_for_a_branch_that_is_off(branch):
    net = QNetwork(n_cameras=4, feat_dim=3, hidden=5, seed=4, **{f"use_{branch}_branch": False})
    rng = np.random.default_rng(6)
    q, cache = net.forward_cache(rng.integers(0, 2, size=(3, 4)).astype(float),
                                 rng.normal(size=(3, 3)))
    grads, d_obs = net.backward(cache, rng.normal(size=q.shape))
    assert list(grads) == [name for name, _ in net.named_params()]
    off = {"camera": ["embeddings", "camera.layer0.weight", "camera.layer0.bias"],
           "feature": ["feature.layer0.weight", "feature.layer0.bias"]}[branch]
    for name, p in net.named_params():
        assert grads[name].shape == p.shape
        assert (grads[name] == 0).all() == (name in off)
    assert d_obs.shape == (3, 3) and (d_obs == 0).all() == (branch == "feature")


def test_qnetwork_checkpoint_round_trip(tmp_path):
    net = QNetwork(n_cameras=4, feat_dim=3, hidden=5, seed=9, use_camera_branch=False)
    path = tmp_path / "q.ckpt"
    atomic_write_bytes(path, net.encode("wh"))
    loaded, meta = QNetwork.load(path)
    assert meta["world_hash"] == "wh"
    assert loaded.use_camera_branch is False
    state = one_state([2], [1.0, 2.0, 3.0], 4)
    np.testing.assert_array_equal(loaded.forward_cache(*state)[0], net.forward_cache(*state)[0])


def test_qnetwork_checkpoint_with_unknown_tensor_rejected(tmp_path):
    path = tmp_path / "q.ckpt"
    atomic_write_bytes(path, QNetwork(n_cameras=4, feat_dim=3, hidden=5, seed=9).encode("wh"))
    tensors, meta = load_checkpoint(path)
    tensors["stray.weight"] = np.zeros(2)
    atomic_write_bytes(path, encode_checkpoint(tensors, meta))
    with pytest.raises(CompatibilityError, match="stray.weight"):
        QNetwork.load(path)


# ---------------------------------------------------------------------------
# action selection


def greedy_pick(values, initial, disabled=frozenset()):
    chosen = rollout(StubNet(values), np.zeros((1, len(values), 2)), [[initial]], 2, disabled)[0]
    return int(chosen[0, 0, 1])


def test_masked_argmax_examples():
    # camera 3 holds the initial view, so it is masked like any taken camera
    assert greedy_pick([0.1, 0.9, 0.5, 9.9], 3) == 1
    assert greedy_pick([0.1, 0.9, 0.5, 9.9], 3, {1}) == 2
    assert greedy_pick([0.7, 0.7, 0.1, 9.9], 3) == 0  # tie -> lowest
    with pytest.raises(StateError):
        greedy_pick([1.0, 2.0, 9.9], 2, {0, 1})


def test_select_action_greedy():
    assert greedy_pick([0.1, 0.9, 0.5, 9.9], 3) == 1
    assert greedy_pick([0.1, 0.9, 0.5, 9.9], 3, {1}) == 2


def test_select_action_all_masked():
    with pytest.raises(StateError):
        greedy_pick([0.1, 0.9, 9.9], 2, {0, 1})


def test_select_action_uniform_frequencies():
    # epsilon 1, one camera disabled and the initial view taken: the three
    # open cameras should each appear with frequency 1/3 within 3 sigma of
    # the multinomial spread
    net = StubNet([5.0, 1.0, 1.0, 1.0, 9.9])
    draws = 100_000
    chosen = rollout(net, np.zeros((1, 5, 2)), np.full((1, draws), 4), 2, {2}, 1.0,
                     np.random.default_rng(123))[0]
    counts = np.bincount(chosen[0, :, 1], minlength=5)
    assert counts[2] == 0 and counts[4] == 0
    sigma = np.sqrt((1 / 3) * (2 / 3) / draws)
    for cam in (0, 1, 3):
        assert abs(counts[cam] / draws - 1 / 3) <= 3 * sigma


def test_select_action_deterministic_given_rng_state():
    net = StubNet([0.0, 0.3, 0.0, 0.2])
    feats = np.zeros((3, 4, 2))
    initial = [[0, 1], [2, 3], [1, 0]]

    def run():
        return rollout(net, feats, initial, 3, frozenset(), 0.7, np.random.default_rng(5))[0]

    a, b = run(), run()
    np.testing.assert_array_equal(a, b)
    # replay the draw order by hand: per step and per (instance, row), the
    # coin first, then an index into the open cameras on the random arm only
    rng = np.random.default_rng(5)
    expected = np.array(initial)[..., None].tolist()
    for _ in range(2):
        for g in range(3):
            for r in range(2):
                open_cams = [c for c in range(4) if c not in expected[g][r]]
                if rng.random() < 0.7:
                    pick = open_cams[rng.integers(len(open_cams))]
                else:
                    pick = max(open_cams, key=lambda c: (net.values[c], -c))
                expected[g][r].append(pick)
    np.testing.assert_array_equal(a, expected)


def test_trajectory_validation():
    net = StubNet(np.zeros(6))
    chosen = rollout(net, np.zeros((4, 6, 2)), np.tile(np.arange(6), (4, 1)), 6, frozenset(), 1.0,
                     np.random.default_rng(9))[0]
    for row in chosen.reshape(-1, 6):
        assert sorted(row) == list(range(6))


# ---------------------------------------------------------------------------
# rewards, targets, loss


def test_terminal_reward_classification():
    net = MVClassifier(obs_dim=2, feat_dim=2, n_classes=3, hidden=2, seed=0)
    assert net.reward(np.array([0.2, 0.9, 0.1]), 1) == 1.0
    assert net.reward(np.array([0.2, 0.9, 0.1]), 0) == 0.0
    # one reward per instance of a batch
    np.testing.assert_array_equal(net.reward(np.array([[0.2, 0.9, 0.1]] * 2), [1, 0]), [1.0, 0.0])


def test_terminal_reward_detection():
    net = MVDetector(channels=1, feat_dim=2, hidden=2, seed=0)
    target = np.random.default_rng(6).uniform(size=(3, 3))
    assert net.reward(target.copy(), target) == 0.0
    assert net.reward(np.zeros((3, 3)), target) < 0.0
    # the negative loss of each instance of a batch
    both = net.reward(np.stack([target, np.zeros((3, 3))]), [target, target])
    np.testing.assert_array_equal(both, [0.0, -net.loss(np.zeros((1, 3, 3)), [target])[0]])


def two_step_states(disabled=()):
    """Values and masks of the states after views (0,) and (0, 1) of three
    cameras; every state values the cameras [9.9, 9.9, 0.8]."""
    values = np.array([[9.9, 9.9, 0.8]] * 2)
    masks = np.array([[True, False, False], [True, True, False]])
    masks[:, list(disabled)] = True
    return values, masks


def test_td_targets_terminal_and_discounted():
    # best next value must come from unmasked cameras only: cameras 0 and 1
    # are already chosen in the second state, so the 9.9 entries cannot be picked
    targets = td_targets(*two_step_states(), 1.0, gamma=0.5)
    np.testing.assert_allclose(targets, [0.5 * 0.8, 1.0], atol=1e-15)


def test_td_targets_zero_discount():
    values, masks = two_step_states()
    targets = td_targets(np.ones_like(values), masks, 1.0, gamma=0.0)
    np.testing.assert_array_equal(targets, [0.0, 1.0])


def test_td_targets_respect_disabled_cameras():
    # disabling camera 2 leaves no unmasked camera in the second state
    with pytest.raises(StateError):
        td_targets(*two_step_states(disabled=[2]), 1.0, gamma=0.5)
    # and the rollout's recorded masks carry the disabled cameras
    masks = rollout(StubNet([9.9, 9.9, 0.8, 0.1]), np.zeros((1, 4, 2)), [[0]], 3, {2})[3]
    np.testing.assert_array_equal(masks[0, 0], [[1, 0, 1, 0], [1, 1, 1, 0]])


def test_rl_loss_values():
    loss, grad = rl_loss([0.4], [0.9])
    assert abs(loss - 0.25) < 1e-15
    np.testing.assert_allclose(grad, [-1.0], atol=1e-15)
    loss, _ = rl_loss([0.3, 0.7], [0.3, 0.7])
    assert loss == 0.0


def test_rl_loss_gradient_matches_finite_differences():
    net = QNetwork(n_cameras=4, feat_dim=3, hidden=5, seed=7)
    rng = np.random.default_rng(8)
    states = [one_state([i], rng.normal(size=3), 4) for i in range(3)]
    cams = np.concatenate([c for c, _ in states])
    obs = np.concatenate([o for _, o in states])
    actions = [1, 3, 2]
    targets = rng.normal(size=3)

    def loss_fn():
        q = net.forward_cache(cams, obs)[0]
        taken = [q[i, a] for i, a in enumerate(actions)]
        return rl_loss(taken, targets)[0]

    q, cache = net.forward_cache(cams, obs)
    _, d_terms = rl_loss([q[i, a] for i, a in enumerate(actions)], targets)
    d_q = np.zeros_like(q)
    d_q[np.arange(3), actions] = d_terms
    grads, d_obs = net.backward(cache, d_q)
    for name, param in net.named_params():
        num = numeric_gradient(loss_fn, param)
        assert max_relative_error(grads[name], num) < GRAD_TOL, name
    # observation-vector gradient, probed through the state arrays
    for i in range(3):
        num = numeric_gradient(loss_fn, obs[i])
        assert max_relative_error(d_obs[i], num) < GRAD_TOL


def test_epsilon_schedule():
    assert epsilon_schedule(0, 100, 0.95, 0.05) == 0.95
    assert abs(epsilon_schedule(99, 100, 0.95, 0.05) - 0.05) < 1e-12
    assert abs(epsilon_schedule(50, 101, 0.95, 0.05) - 0.5) < 1e-12
    assert epsilon_schedule(0, 1, 0.95, 0.05) == 0.05
    assert abs(epsilon_schedule(500, 100, 0.95, 0.05) - 0.05) < 1e-12
