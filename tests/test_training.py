"""Training-regime and reference-policy tests.

Heavier end-to-end behavior (5-seed orderings, joint-vs-full margins) lives
in the acceptance suite; this file covers the per-operation contracts:
loss decrease, frozen-network hashing, degenerate-schedule equivalence,
oracle enumeration against independent brute force, policy-table formats,
budget guards, and bit-reproducibility.
"""

import copy
import itertools
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fewview import evaluation, training as tr
from fewview.envs import (
    ClassificationConfig,
    ClassificationWorld,
    DetectionConfig,
    DetectionWorld,
)
from fewview.errors import (
    BudgetError,
    ConfigError,
    NonFiniteError,
    StateError,
    TrainingDiverged,
)
from fewview.mvselect import rollout
from fewview.numcore import cross_entropy
from fewview.tasknet import MVClassifier, MVDetector
from testkit import (discriminative_views, exact_q_table, optimal_actions, paired_t_pvalue,
                     predict_sets_gathered, read_policy_table, train_joint_eager,
                     train_selector_fixed_eager)

MIX = (1, 2, 3, 4, 6, 12)


@pytest.fixture(scope="module")
def cls_world():
    return ClassificationWorld(
        ClassificationConfig(n_train=120, n_val=60, n_eval=80, seed=3)
    )


@pytest.fixture(scope="module")
def cls_net(cls_world):
    net = tr.build_classifier(cls_world, seed=3)
    tr.train_task_network(cls_world, net, tr.TrainConfig(
        regime="task", epochs=40, T=1, batch_size=8, task_lr=2e-3, seed=3,
        train_view_counts=MIX))
    return net


@pytest.fixture(scope="module")
def cls_selector(cls_world, cls_net):
    q = tr.build_selector(cls_world, cls_net, seed=3)
    tr.train_selector_fixed(cls_world, cls_net, q, tr.TrainConfig(
        regime="select-fixed", epochs=30, T=2, batch_size=8,
        selector_lr=1e-3, seed=3))
    return q


# ---------------------------------------------------------------------------
# config validation


def test_train_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        tr.TrainConfig(regime="nope", epochs=1, T=2)
    with pytest.raises(ConfigError):
        tr.TrainConfig(regime="task", epochs=0, T=1)
    with pytest.raises(ConfigError):
        tr.TrainConfig(regime="joint", epochs=1, T=1)  # selection needs T >= 2
    with pytest.raises(ConfigError):
        tr.TrainConfig(regime="task", epochs=1, T=1, gamma=1.5)


@pytest.mark.parametrize("field, value", [
    ("task_lr", 0.0), ("selector_lr", -1e-3), ("task_lr", float("nan")),
    ("epsilon_start", 3.0), ("epsilon_end", -1.0), ("epsilon_start", float("nan")),
])
def test_train_config_rejects_bad_rates_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=field):
        tr.TrainConfig(regime="joint", epochs=1, T=2, **{field: value})


def test_regime_dispatch_guards(cls_world, cls_net):
    q = tr.build_selector(cls_world, cls_net, seed=0)
    task_cfg = tr.TrainConfig(regime="task", epochs=1, T=1)
    with pytest.raises(ConfigError):
        tr.train_selector_fixed(cls_world, cls_net, q, task_cfg)
    with pytest.raises(ConfigError):
        tr.train_joint(cls_world, cls_net, q, task_cfg)
    sel_cfg = tr.TrainConfig(regime="select-fixed", epochs=1, T=2)
    with pytest.raises(ConfigError):
        tr.train_task_network(cls_world, cls_net, sel_cfg)


def test_t_larger_than_layout_rejected(cls_world, cls_net):
    q = tr.build_selector(cls_world, cls_net, seed=0)
    cfg = tr.TrainConfig(regime="select-fixed", epochs=1, T=13)
    with pytest.raises(ConfigError):
        tr.train_selector_fixed(cls_world, cls_net, q, cfg)


# ---------------------------------------------------------------------------
# task-network training


def test_task_loss_decreases_on_moving_average(cls_world):
    net = tr.build_classifier(cls_world, seed=7)
    res = tr.train_task_network(cls_world, net, tr.TrainConfig(
        regime="task", epochs=15, T=1, batch_size=8, task_lr=1e-3, seed=7))
    losses = [log["loss"] for log in res.epoch_logs]
    window = 5
    means = [np.mean(losses[i:i + window]) for i in range(len(losses) - window + 1)]
    assert all(means[i + 1] <= means[i] + 1e-9 for i in range(len(means) - 1))


def test_untrained_classifier_near_chance(cls_world):
    net = tr.build_classifier(cls_world, seed=11)
    run = tr.evaluate_policy(cls_world, net, T=cls_world.n_cameras, policy="full-views")
    assert abs(run.metrics()["accuracy"] - 1.0 / cls_world.config.n_classes) < 0.08


def test_zero_noise_fully_discriminative_world_hits_train_accuracy_one():
    world = ClassificationWorld(ClassificationConfig(
        n_views=4, n_classes=4, feat_dim=16, noise=0.0, margin=2.0,
        n_train=40, n_val=8, n_eval=8, seed=1,
        discriminative_views=((0, 1, 2, 3), (0, 1, 2, 3))))
    net = tr.build_classifier(world, hidden=32, feat_dim=16, seed=1)
    tr.train_task_network(world, net, tr.TrainConfig(
        regime="task", epochs=40, T=1, batch_size=8, task_lr=2e-3, seed=1))
    run = tr.evaluate_policy(world, net, T=4, policy="full-views", split="train")
    assert run.metrics()["accuracy"] == 1.0


def test_detection_no_occlusion_full_coverage_train_moda():
    world = DetectionWorld(DetectionConfig(
        occlusion=False, n_train=48, n_val=12, n_eval=12, seed=5))
    net = tr.build_detector(world, seed=5)
    res = tr.train_task_network(world, net, tr.TrainConfig(
        regime="task", epochs=10, T=1, batch_size=1, task_lr=1e-3, seed=5))
    assert all(np.isfinite(log["loss"]) for log in res.epoch_logs)
    run = tr.evaluate_policy(world, net, T=world.n_cameras, policy="full-views",
                             split="train")
    assert run.metrics()["moda"] >= 0.95


def test_view_count_mix_validated(cls_world):
    net = tr.build_classifier(cls_world, seed=0)
    cfg = tr.TrainConfig(regime="task", epochs=1, T=1, train_view_counts=(0, 3))
    with pytest.raises(ConfigError):
        tr.train_task_network(cls_world, net, cfg)


def test_divergence_aborts_with_diagnostics(cls_world):
    # non-finite values entering the forward pass abort training immediately
    net = tr.build_classifier(cls_world, seed=2)
    net.feature_net.weights[0][0, 0] = np.nan
    cfg = tr.TrainConfig(regime="task", epochs=1, T=1, batch_size=8, task_lr=1e-3, seed=2)
    with pytest.raises((TrainingDiverged, NonFiniteError)):
        tr.train_task_network(cls_world, net, cfg)
    # and a non-finite loss value aborts with the location in the message
    with pytest.raises(TrainingDiverged, match="epoch 7"):
        tr._require_finite_loss(float("nan"), "epoch 7")


# ---------------------------------------------------------------------------
# selector training against a frozen task network


def test_selector_fixed_keeps_task_net_byte_identical(cls_world, cls_net, cls_selector):
    # cls_selector was trained against cls_net; retrain a fresh selector and
    # verify the hash assertion holds from the outside too
    before = tr.params_hash(cls_net)
    q = tr.build_selector(cls_world, cls_net, seed=9)
    q_before = tr.params_hash(q)
    tr.train_selector_fixed(cls_world, cls_net, q, tr.TrainConfig(
        regime="select-fixed", epochs=2, T=2, selector_lr=1e-3, seed=9))
    assert tr.params_hash(cls_net) == before
    assert tr.params_hash(q) != q_before


def test_selector_picks_discriminative_views_from_ambiguous_starts(cls_world, cls_net, cls_selector):
    run = tr.evaluate_policy(cls_world, cls_net, T=2, policy="mvselect", q_net=cls_selector)
    hits = total = 0
    for i in range(len(run.chosen)):
        label = cls_world.instance("eval", i).class_id
        disc = set(discriminative_views(cls_world, label))
        for v0 in range(run.n_cameras):
            if v0 in disc:
                continue  # ambiguity already resolved by the initial view
            total += 1
            hits += int(run.chosen[i, v0, 1] in disc)
    assert total > 0
    assert hits / total >= 0.9


def test_selector_training_counts_rl_terms(cls_world, cls_net):
    q = tr.build_selector(cls_world, cls_net, seed=4)
    res = tr.train_selector_fixed(cls_world, cls_net, q, tr.TrainConfig(
        regime="select-fixed", epochs=2, T=3, batch_size=8, selector_lr=1e-3, seed=4))
    iters = 2 * ((cls_world.n_train + 7) // 8)
    assert res.total_steps == iters
    # (T-1) value-regression terms per instance, summed over the batch
    assert res.counters["rl_terms"] == 2 * cls_world.n_train * (3 - 1)
    assert res.counters["task_terms"] == 0


def test_mvselect_beats_random_with_paired_significance():
    mv_accs, rnd_accs = [], []
    for seed in range(5):
        world = ClassificationWorld(ClassificationConfig(
            n_train=120, n_val=40, n_eval=60, seed=seed))
        net = tr.build_classifier(world, seed=seed)
        tr.train_task_network(world, net, tr.TrainConfig(
            regime="task", epochs=40, T=1, batch_size=8, task_lr=2e-3,
            seed=seed, train_view_counts=MIX))
        q = tr.build_selector(world, net, seed=seed)
        tr.train_selector_fixed(world, net, q, tr.TrainConfig(
            regime="select-fixed", epochs=30, T=2, batch_size=8,
            selector_lr=1e-3, seed=seed))
        mv = tr.evaluate_policy(world, net, T=2, policy="mvselect", q_net=q)
        rnd = tr.evaluate_policy(world, net, T=2, policy="random", seed=seed)
        mv_accs.append(mv.metrics()["accuracy"])
        rnd_accs.append(rnd.metrics()["accuracy"])
    assert all(m > r for m, r in zip(mv_accs, rnd_accs))
    assert paired_t_pvalue(mv_accs, rnd_accs) < 0.01


# ---------------------------------------------------------------------------
# joint training


def test_joint_degenerate_schedule_equals_random_view_training(cls_world, cls_net):
    # with epsilon pinned to 1, rollouts select uniformly random distinct
    # views, so the terminal task loss must equal cross-entropy computed
    # directly on those same view sets
    q = tr.build_selector(cls_world, cls_net, seed=6)
    rng = np.random.default_rng(123)
    indices = np.arange(8)
    initial = rng.integers(cls_world.n_cameras, size=8)
    obs, truth = tr._batch(cls_net, cls_world, indices)
    feats, fcache = cls_net.features_cache(obs)
    chosen, _, _, _, _, pooled = rollout(q, feats, initial[:, None], 3, frozenset(), 1.0, rng)
    views = chosen[:, 0]
    for b in range(8):
        assert len(set(views[b])) == 3  # distinct by masking
        direct = feats[b, list(views[b])].max(axis=0)
        np.testing.assert_array_equal(direct, pooled[b, 0])
    outputs, hcache = cls_net.head_cache(pooled[:, 0])
    d_obs = np.zeros((8 * 2, feats.shape[-1]))
    loss, _ = tr._task_grads(cls_net, feats, fcache, views, truth, outputs, hcache, d_obs)
    logits = cls_net.head_cache(pooled[:, 0])[0]
    expected, _ = cross_entropy(logits, np.asarray(truth))
    assert loss == expected


def test_joint_counters_follow_algorithm(cls_world, cls_net):
    net = copy.deepcopy(cls_net)
    q = tr.build_selector(cls_world, net, seed=8)
    res = tr.train_joint(cls_world, net, q, tr.TrainConfig(
        regime="joint", epochs=2, T=2, batch_size=8, task_lr=1e-3,
        selector_lr=1e-3, seed=8))
    iters = 2 * ((cls_world.n_train + 7) // 8)
    assert res.counters["task_terms"] == iters          # L_task once per iteration
    assert res.counters["rl_terms"] == 2 * cls_world.n_train * (2 - 1)
    assert "task_loss" in res.epoch_logs[-1]


def test_joint_improves_or_matches_fixed_selector(cls_world, cls_net, cls_selector):
    fixed = tr.evaluate_policy(cls_world, cls_net, T=2, policy="mvselect",
                               q_net=cls_selector).metrics()["accuracy"]
    net = copy.deepcopy(cls_net)
    q = tr.build_selector(cls_world, net, seed=3)
    tr.train_joint(cls_world, net, q, tr.TrainConfig(
        regime="joint", epochs=30, T=2, batch_size=8, task_lr=2e-3,
        selector_lr=1e-3, seed=3))
    joint = tr.evaluate_policy(cls_world, net, T=2, policy="mvselect",
                               q_net=q).metrics()["accuracy"]
    assert joint >= fixed - 0.01


def test_joint_at_T_equals_N_matches_full_view_training():
    world = ClassificationWorld(ClassificationConfig(
        n_views=6, n_classes=6, n_train=96, n_val=24, n_eval=48, seed=2))
    task_only = tr.build_classifier(world, seed=2)
    tr.train_task_network(world, task_only, tr.TrainConfig(
        regime="task", epochs=25, T=1, batch_size=8, task_lr=2e-3, seed=2))
    full_acc = tr.evaluate_policy(world, task_only, T=6,
                                  policy="full-views").metrics()["accuracy"]
    joint_net = tr.build_classifier(world, seed=2)
    q = tr.build_selector(world, joint_net, seed=2)
    tr.train_joint(world, joint_net, q, tr.TrainConfig(
        regime="joint", epochs=25, T=6, batch_size=8, task_lr=2e-3,
        selector_lr=1e-3, seed=2))
    joint_acc = tr.evaluate_policy(world, joint_net, T=6, policy="mvselect",
                                   q_net=q).metrics()["accuracy"]
    assert abs(joint_acc - full_acc) <= 0.01 + 1e-12


# ---------------------------------------------------------------------------
# reference policies and oracles


def test_policies_collapse_at_T_equals_N(cls_world, cls_net):
    runs = {
        "full": tr.evaluate_policy(cls_world, cls_net, T=12, policy="full-views"),
        "random": tr.evaluate_policy(cls_world, cls_net, T=12, policy="random"),
        "dataset": tr.evaluate_policy(cls_world, cls_net, T=12, policy="dataset-oracle"),
        "instance": tr.evaluate_policy(cls_world, cls_net, T=12, policy="instance-oracle"),
        "mvselect": tr.evaluate_policy(cls_world, cls_net, T=12, policy="mvselect",
                                       q_net=tr.build_selector(cls_world, cls_net, seed=99)),
    }
    accs = {k: r.metrics()["accuracy"] for k, r in runs.items()}
    assert all(a == accs["full"] for a in accs.values())


def test_ordering_chain_random_dataset_instance(cls_world, cls_net):
    for T in (2, 3):
        rnd = tr.evaluate_policy(cls_world, cls_net, T=T, policy="random").metrics()["accuracy"]
        ds = tr.evaluate_policy(cls_world, cls_net, T=T, policy="dataset-oracle").metrics()["accuracy"]
        inst = tr.evaluate_policy(cls_world, cls_net, T=T, policy="instance-oracle").metrics()["accuracy"]
        assert rnd <= ds + 1e-12
        assert ds <= inst + 1e-12


def test_instance_oracle_dominates_mvselect(cls_world, cls_net, cls_selector):
    mv = tr.evaluate_policy(cls_world, cls_net, T=2, policy="mvselect",
                            q_net=cls_selector).metrics()["accuracy"]
    inst = tr.evaluate_policy(cls_world, cls_net, T=2,
                              policy="instance-oracle").metrics()["accuracy"]
    assert mv <= inst + 1e-12


def test_toy_oracles_match_independent_brute_force():
    world = ClassificationWorld(ClassificationConfig(
        n_views=4, n_classes=2, feat_dim=16, noise=0.05, margin=2.0,
        n_train=40, n_val=16, n_eval=24, seed=13))
    net = MVClassifier(obs_dim=16, feat_dim=16, n_classes=2, hidden=32, seed=13)
    tr.train_task_network(world, net, tr.TrainConfig(
        regime="task", epochs=30, T=1, batch_size=8, task_lr=2e-3, seed=13,
        train_view_counts=(1, 2, 3, 4)))

    # independent brute force: plain loops, direct network calls
    def correct_with(inst, views):
        feats = net.features_cache(inst.observations[list(views)])[0]
        logits = net.head_cache(feats.max(axis=0)[None])[0][0]
        return int(np.argmax(logits)) == inst.class_id

    n = world.split_size("eval")
    best_per_instance = {}
    mean_score = {}
    for pair in itertools.combinations(range(4), 2):
        scores = [correct_with(world.instance("eval", i), pair) for i in range(n)]
        mean_score[pair] = np.mean(scores)
        for i, s in enumerate(scores):
            best_per_instance.setdefault(i, {})[pair] = s

    ds_table = tr.dataset_oracle_table(world, net, T=2, split="eval")
    inst_table = tr.instance_oracle_table(world, net, T=2, split="eval")
    for v0 in range(4):
        pairs = [p for p in mean_score if v0 in p]
        best = max(pairs, key=lambda p: (mean_score[p], -pairs.index(p)))
        # ties resolve to the first subset in sorted order
        best_val = mean_score[best]
        best = min(p for p in pairs if mean_score[p] == best_val)
        expected = tuple(a for a in best if a != v0)
        assert ds_table.entries[v0] == expected
    for i in range(n):
        for v0 in range(4):
            vals = {p: best_per_instance[i][p] for p in best_per_instance[i] if v0 in p}
            best_val = max(vals.values())
            best = min(p for p, v in vals.items() if v == best_val)
            assert inst_table.entries[(i, v0)] == tuple(a for a in best if a != v0)

    ds_run = tr.evaluate_policy(world, net, T=2, policy="dataset-oracle", table=ds_table)
    inst_run = tr.evaluate_policy(world, net, T=2, policy="instance-oracle", table=inst_table)
    assert inst_run.metrics()["accuracy"] >= ds_run.metrics()["accuracy"]


def test_enumeration_budget_guard(cls_world, cls_net):
    with pytest.raises(BudgetError, match="reduce"):
        tr.dataset_oracle_table(cls_world, cls_net, T=6, split="eval", budget=100)
    with pytest.raises(BudgetError):
        tr.evaluate_policy(cls_world, cls_net, T=6, policy="instance-oracle", budget=100)


def test_policy_table_json_round_trip():
    ds = tr.PolicyTable("dataset", 3, {0: (1, 2), 1: (0, 3)})
    assert read_policy_table(ds.to_json()) == ds
    inst = tr.PolicyTable("instance", 2, {(0, 0): (3,), (0, 1): (2,)})
    assert read_policy_table(inst.to_json()) == inst


def test_random_sequences_deterministic_and_distinct():
    for i in range(5):
        for v0 in range(6):
            seq = tr.random_sequence(6, v0, 4, seed=1, instance_index=i)
            assert len(seq) == 3 and len(set(seq)) == 3 and v0 not in seq
            assert seq == tr.random_sequence(6, v0, 4, seed=1, instance_index=i)
    disabled = frozenset({2, 3})
    seq = tr.random_sequence(6, 0, 3, seed=1, instance_index=0, disabled=disabled)
    assert not set(seq) & disabled


def test_random_completions_cover_views_uniformly():
    n_cams, draws = 6, 4000
    counts = np.zeros(n_cams)
    for i in range(draws):
        seq = tr.random_sequence(n_cams, 0, 2, seed=7, instance_index=i)
        counts[seq[0]] += 1
    probs = counts[1:] / draws
    sigma = np.sqrt(0.2 * 0.8 / draws)
    assert np.all(np.abs(probs - 0.2) < 4 * sigma)


def test_evaluate_policy_guards(cls_world, cls_net):
    with pytest.raises(ConfigError):
        tr.evaluate_policy(cls_world, cls_net, T=2, policy="nonsense")
    with pytest.raises(ConfigError):
        tr.evaluate_policy(cls_world, cls_net, T=2, policy="mvselect")  # no q_net
    table = tr.PolicyTable("dataset", 3, {v: (0, 1) for v in range(12)})
    with pytest.raises(ConfigError):
        tr.evaluate_policy(cls_world, cls_net, T=2, policy="dataset-oracle", table=table)


def _bad_entries(case):
    entries = {v: ((v + 1) % 12,) for v in range(12)}
    if case == "missing entry":
        del entries[3]
    else:
        entries[3] = {"camera 99": (99,), "wrong length": (4, 5), "camera -1": (-1,),
                      "repeats initial": (3,)}[case]
    return entries


@pytest.mark.parametrize("case", ["missing entry", "camera 99", "wrong length", "camera -1",
                                  "repeats initial"])
@pytest.mark.parametrize("kind", ["dataset", "instance"])
def test_policy_table_entries_are_checked_against_the_world(cls_world, cls_net, kind, case):
    entries = _bad_entries(case)
    if kind == "instance":
        entries = {(i, v): seq for i in range(cls_world.n_eval) for v, seq in entries.items()}
    table = tr.PolicyTable(kind, 2, entries)
    with pytest.raises(ConfigError, match="policy table"):
        tr.evaluate_policy(cls_world, cls_net, T=2, policy=f"{kind}-oracle", table=table)


def test_oracles_select_only_enabled_cameras(cls_world, cls_net):
    runs = [tr.PolicyRun(policy, 2, disabled=frozenset(range(6)))
            for policy in ("dataset-oracle", "instance-oracle")]
    for run in tr.evaluate_policies(cls_world, cls_net, runs):
        assert (run.chosen[..., 1:] >= 6).all(), run.policy


@pytest.fixture(scope="module")
def six_views():
    """A 6-camera world with an untrained classifier and selector."""
    world = ClassificationWorld(ClassificationConfig(
        n_views=6, n_classes=4, feat_dim=8, n_train=4, n_val=2, n_eval=3, seed=2))
    net = tr.build_classifier(world, seed=2)
    return world, net, tr.build_selector(world, net, seed=2)


@settings(max_examples=40, deadline=None)
@given(off=st.frozensets(st.integers(0, 5), max_size=5), data=st.data())
def test_no_selecting_policy_picks_a_shut_off_camera(six_views, off, data):
    world, net, q_net = six_views
    T = data.draw(st.integers(1, 6 - len(off)), label="T")
    runs = [tr.PolicyRun(p, T, q_net, disabled=off) for p in tr.POLICIES]
    for run in tr.evaluate_policies(world, net, runs, seed=data.draw(st.integers(0, 9))):
        if run.policy == "full-views":
            assert (run.chosen == np.arange(6)).all()
        else:
            assert not np.isin(run.chosen[..., 1:], list(off)).any(), run.policy


def test_table_oracle_rejects_an_entry_that_selects_a_shut_off_camera(six_views):
    world, net, _ = six_views
    table = tr.PolicyTable("dataset", 2, {v: (0,) if v else (1,) for v in range(6)})
    run = tr.PolicyRun("dataset-oracle", 2, table=table, disabled=frozenset({1}))
    with pytest.raises(ConfigError, match=r"entry 0 \(1,\) selects shut-off cameras \[1\]"):
        tr.evaluate_policies(world, net, [run])
    # a shut-off camera still serves as an initial view
    run = tr.PolicyRun("dataset-oracle", 2, table=table, disabled=frozenset({5}))
    assert tr.evaluate_policies(world, net, [run])[0].chosen[0, 5].tolist() == [5, 0]


def test_policy_run_disabled_guards(cls_world, cls_net):
    for ids in ({12}, {-1}, {0, 13}):
        with pytest.raises(ConfigError, match="outside camera range"):
            tr.evaluate_policies(cls_world, cls_net, [tr.PolicyRun("random", 2, disabled=ids)])
    for policy in ("random", "mvselect", "dataset-oracle", "instance-oracle"):
        run = tr.PolicyRun(policy, 3, tr.build_selector(cls_world, cls_net),
                           disabled=frozenset(range(10)))
        with pytest.raises(ConfigError, match="shut-off leaves 2 usable cameras, fewer than T=3"):
            tr.evaluate_policies(cls_world, cls_net, [run])
    # a plain set is taken as a frozenset, and full-views ignores the field
    done = tr.evaluate_policies(cls_world, cls_net, [
        tr.PolicyRun("random", 2, disabled={0, 1}), tr.PolicyRun("random", 2, disabled=(1, 0)),
        tr.PolicyRun("full-views", 2, disabled=frozenset(range(11)))])
    assert done[0] is done[1]
    assert (done[2].chosen == np.arange(cls_world.n_cameras)).all()


# ---------------------------------------------------------------------------
# greedy rollout consistency and the exact solver


def test_greedy_sequences_agree_with_single_rollouts(cls_world, cls_net, cls_selector):
    inst = cls_world.instance("eval", 0)
    feats = cls_net.features_cache(inst.observations)[0]
    sets = tr.greedy_sequences(cls_selector, feats[None], 12, T=3)[0]
    for v0 in range(12):
        chosen = rollout(cls_selector, feats[None], [[v0]], 3)[0]
        assert list(sets[v0]) == list(chosen[0, 0])


def test_block_pass_equals_per_instance_calls_bit_for_bit(monkeypatch):
    # the default classification world is one block of 200 instances
    world = ClassificationWorld(ClassificationConfig(seed=1))
    net = tr.build_classifier(world, seed=1)
    tr.train_task_network(world, net, tr.TrainConfig(regime="task", epochs=2, T=12, seed=1))
    q_net = tr.build_selector(world, net, seed=1)
    tr.train_selector_fixed(world, net, q_net, tr.TrainConfig(
        regime="select-fixed", epochs=1, T=3, seed=1))
    N, blocks, logits = world.n_cameras, [], []
    features, records = net.features, net.records
    monkeypatch.setitem(vars(net), "features",
                        lambda obs: blocks.append(features(obs)) or blocks[-1])
    monkeypatch.setitem(vars(net), "records",
                        lambda out, inst, w: logits.append(out) or records(out, inst, w))
    full = tr.evaluate_policy(world, net, N, "full-views")     # logits: one row per instance
    greedy = tr.evaluate_policy(world, net, 3, "mvselect", q_net=q_net)
    assert [len(block) for block in blocks] == [world.n_eval] * 2
    for i in range(world.n_eval):
        alone = net.features_cache(world.instance("eval", i).observations)[0]
        assert blocks[0][i].tobytes() == alone.tobytes()
        assert logits[i].tobytes() == net.decode(alone, np.arange(N)[None]).tobytes()
        chosen = rollout(q_net, alone[None], np.arange(N)[None], 3)[0][0]
        assert greedy.chosen[i].tobytes() == chosen.tobytes()
    assert (full.chosen == np.arange(N)).all()


def test_full_views_runs_every_camera_of_a_shut_off_world(cls_world, cls_net):
    # shut-off cameras constrain selection only
    N, off = cls_world.n_cameras, frozenset([1, 4, 7])
    [run] = tr.evaluate_policies(cls_world, cls_net, [tr.PolicyRun("full-views", N, disabled=off)])
    want = tr.evaluate_policy(cls_world, cls_net, N, "full-views")
    assert run.chosen.tobytes() == want.chosen.tobytes()
    assert run.records.tobytes() == want.records.tobytes()
    with pytest.raises(ConfigError, match="shut-off leaves 9"):
        tr.evaluate_policies(cls_world, cls_net, [tr.PolicyRun("random", 10, disabled=off)])


def test_exact_q_table_is_td_fixed_point():
    world = ClassificationWorld(ClassificationConfig(
        n_views=4, n_classes=2, feat_dim=8, noise=0.0, margin=2.0,
        n_train=2, n_val=2, n_eval=2, seed=21))
    net = MVClassifier(obs_dim=8, feat_dim=8, n_classes=2, hidden=16, seed=21)
    tr.train_task_network(world, net, tr.TrainConfig(
        regime="task", epochs=20, T=1, batch_size=2, task_lr=2e-3, seed=21,
        train_view_counts=(1, 2, 3)))
    gamma = 0.5
    table = exact_q_table(world, net, T=3, split="train", gamma=gamma)
    # every non-terminal value must equal gamma * best next value
    for (i, chosen, action), value in table.items():
        nxt = chosen | {action}
        if len(nxt) == 3:
            continue
        best_next = max(v for (j, s, a), v in table.items() if j == i and s == nxt)
        assert abs(value - gamma * best_next) < 1e-12
    acts = optimal_actions(table, 0, frozenset({0}))
    assert acts and all(a not in {0} for a in acts)
    with pytest.raises(StateError):
        optimal_actions(table, 0, frozenset({0, 1, 2, 3}))


def test_training_is_bit_reproducible(cls_world):
    hashes = []
    for _ in range(2):
        net = tr.build_classifier(cls_world, seed=5)
        tr.train_task_network(cls_world, net, tr.TrainConfig(
            regime="task", epochs=3, T=1, batch_size=8, task_lr=1e-3, seed=5))
        q = tr.build_selector(cls_world, net, seed=5)
        tr.train_selector_fixed(cls_world, net, q, tr.TrainConfig(
            regime="select-fixed", epochs=2, T=2, selector_lr=1e-3, seed=5))
        hashes.append((tr.params_hash(net), tr.params_hash(q)))
    assert hashes[0] == hashes[1]


def test_eval_runs_are_deterministic(cls_world, cls_net, cls_selector):
    a = tr.evaluate_policy(cls_world, cls_net, T=2, policy="mvselect", q_net=cls_selector)
    b = tr.evaluate_policy(cls_world, cls_net, T=2, policy="mvselect", q_net=cls_selector)
    np.testing.assert_array_equal(a.chosen, b.chosen)
    np.testing.assert_array_equal(a.records, b.records)


# ---------------------------------------------------------------------------
# one evaluation per distinct view set


@pytest.fixture(scope="module")
def det_tiny():
    world = DetectionWorld(DetectionConfig(
        grid_h=16, grid_w=16, ring_radius=12.0, view_range=22.0, channels=4,
        min_targets=3, max_targets=6, n_train=6, n_val=4, n_eval=5, seed=3))
    net = tr.build_detector(world, hidden=8, feat_dim=6, seed=3)
    tr.train_task_network(world, net, tr.TrainConfig(
        regime="task", epochs=2, T=1, batch_size=1, task_lr=1e-3, seed=3))
    return world, net, tr.build_selector(world, net, hidden=16, seed=3)


def held_arrays(obj, seen=None) -> set[int]:
    """The ids of every array reachable from obj through object attributes,
    lists, tuples and dict values."""
    seen = set() if seen is None else seen
    if isinstance(obj, np.ndarray):
        return {id(obj)}
    if id(obj) in seen:
        return set()
    seen.add(id(obj))
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    else:
        items = vars(obj).values() if hasattr(obj, "__dict__") else ()
    return set().union(*(held_arrays(item, seen) for item in items))


@pytest.mark.parametrize("regime", ["task", "joint"])
def test_training_leaves_no_work_array_on_any_network(det_tiny, tmp_path, regime):
    # the backward work arrays live and die with the training call: after
    # it, each network holds its parameters only, a deep copy encodes to the
    # same checkpoint, and a network rebuilt from that checkpoint pickles to
    # the same bytes
    world, trained, _ = det_tiny
    net = copy.deepcopy(trained)
    q_net = tr.build_selector(world, net, hidden=16, seed=3)
    if regime == "task":
        tr.train_task_network(world, net, tr.TrainConfig(
            regime="task", epochs=1, T=1, batch_size=1, task_lr=1e-3, seed=3))
    else:
        tr.train_joint(world, net, q_net, tr.TrainConfig(regime="joint", epochs=1, T=3, seed=3))
    for model in (net, q_net):
        assert held_arrays(model) == {id(p) for _, p in model.named_params()}
        ckpt = model.encode("world")
        assert copy.deepcopy(model).encode("world") == ckpt
        path = tmp_path / f"{model.kind}.ckpt"
        path.write_bytes(ckpt)
        rebuilt, _ = type(model).load(path)
        assert pickle.dumps(rebuilt) == pickle.dumps(model)


def test_full_views_decodes_each_instance_once(det_tiny, monkeypatch):
    world, net, _ = det_tiny
    calls = []
    head_cache = net.head_cache
    monkeypatch.setitem(vars(net), "head_cache",
                        lambda pooled: calls.append(1) or head_cache(pooled))
    run = tr.evaluate_policy(world, net, T=world.n_cameras, policy="full-views")
    assert len(calls) == world.n_eval
    assert run.records.shape == (world.n_eval, world.n_cameras, 5)


@pytest.mark.parametrize("policy", tr.POLICIES)
@pytest.mark.parametrize("family", ["classification", "detection"])
def test_distinct_set_records_equal_row_by_row(family, policy, request):
    if family == "detection":
        world, net, q_net = request.getfixturevalue("det_tiny")
    else:
        world, net = request.getfixturevalue("cls_world"), request.getfixturevalue("cls_net")
        q_net = request.getfixturevalue("cls_selector")
    T = world.n_cameras if policy == "full-views" else 3
    run = tr.evaluate_policy(world, net, T=T, policy=policy, q_net=q_net)
    for i in range(world.n_eval):
        inst = world.instance("eval", i)
        feats = net.features_cache(inst.observations)[0]
        rows = net.records(net.decode(feats, run.chosen[i]), inst, world)
        # detection records are bit-equal (the head runs once per set);
        # classifier records are correctness flags, which last-bit
        # differences of its batched head leave unchanged here
        np.testing.assert_array_equal(run.records[i], rows)


def subset_rows(rng, n_views: int, k: int) -> np.ndarray:
    """Unsorted k-view rows of n_views, each set also listed again in
    another order."""
    rows = [rng.permutation(n_views)[:k] for _ in range(4)]
    return np.array(rows + [rng.permutation(row) for row in rows])


@pytest.mark.parametrize("family", ["classification", "detection"])
def test_decode_equals_the_gathered_reduce_bit_for_bit(family, request):
    if family == "detection":
        world, net, _ = request.getfixturevalue("det_tiny")
    else:
        world, net = request.getfixturevalue("cls_world"), request.getfixturevalue("cls_net")
    rng = np.random.default_rng(6)
    n_cams = world.n_cameras
    for i in range(3):
        feats = net.features_cache(world.instance("eval", i).observations)[0]
        # rounded ReLU features tie across views, at zero and above it, and
        # view 2 repeats view 0 exactly
        feats = np.round(feats, 1)
        feats[2] = feats[0]
        for k in range(1, n_cams + 1):
            rows = subset_rows(rng, n_cams, k)
            got = net.decode(feats, rows)
            want = predict_sets_gathered(net, feats, rows)
            assert got.shape == want.shape
            assert got.view(np.int64).tobytes() == want.view(np.int64).tobytes()


def test_oracle_and_policy_decodes_equal_the_gathered_reduce(det_tiny, monkeypatch):
    world, net, q_net = det_tiny

    def decode_all():
        table = tr.instance_oracle_table(world, net, 3, "eval").to_json()
        runs = [tr.evaluate_policy(world, net, T=world.n_cameras if p == "full-views" else 3,
                                   policy=p, q_net=q_net) for p in tr.POLICIES]
        return table, [(run.chosen.tobytes(), run.records.tobytes()) for run in runs]

    got = decode_all()
    monkeypatch.setitem(vars(net), "decode",
                        lambda feats, view_sets: predict_sets_gathered(net, feats, view_sets))
    assert got == decode_all()


@pytest.mark.parametrize("family", ["classification", "detection"])
def test_oracle_without_a_table_scores_each_instance_once(family, request, monkeypatch):
    if family == "detection":
        world, net, _ = request.getfixturevalue("det_tiny")
    else:
        world, net = request.getfixturevalue("cls_world"), request.getfixturevalue("cls_net")
    T, n = 3, world.n_eval
    calls = {"features": 0, "head": 0}   # featurized instances, head calls
    features, head_cache = net.features, net.head_cache

    def counted_features(obs):
        calls["features"] += len(obs)
        return features(obs)

    def counted_head(pooled):
        calls["head"] += 1
        return head_cache(pooled)

    # set in the instance's dict, so undoing them leaves no instance attribute
    monkeypatch.setitem(vars(net), "features", counted_features)
    monkeypatch.setitem(vars(net), "head_cache", counted_head)
    for policy, build in (("dataset-oracle", tr.dataset_oracle_table),
                          ("instance-oracle", tr.instance_oracle_table)):
        calls.update(features=0, head=0)
        run = tr.evaluate_policy(world, net, T=T, policy=policy)
        assert calls["features"] == n
        if family == "detection":  # one head call per decoded subset
            assert calls["head"] == n * math.comb(world.n_cameras, T)
        explicit = tr.evaluate_policy(world, net, T=T, policy=policy,
                                      table=build(world, net, T, "eval"))
        assert run.chosen.tobytes() == explicit.chosen.tobytes()
        assert run.records.tobytes() == explicit.records.tobytes()


@pytest.mark.parametrize("family", ["classification", "detection"])
def test_one_pass_equals_one_evaluate_policy_call_per_run(family, request):
    if family == "detection":
        world, net, q_net = request.getfixturevalue("det_tiny")
    else:
        world, net = request.getfixturevalue("cls_world"), request.getfixturevalue("cls_net")
        q_net = request.getfixturevalue("cls_selector")
    table = tr.dataset_oracle_table(world, net, 2, "eval")
    runs = [tr.PolicyRun(p, 3, q_net if p == "mvselect" else None) for p in tr.POLICIES]
    # full-views at another T, one budget scored for a single oracle, a
    # table-driven oracle, a repeated run and random orders cut to 1 and 2
    runs += [tr.PolicyRun("full-views", 2), tr.PolicyRun("instance-oracle", 2),
             tr.PolicyRun("dataset-oracle", 2, table=table), runs[1],
             tr.PolicyRun("random", 1), tr.PolicyRun("random", 2)]
    # two shut-off sets: every policy at T=2 under each, random orders at
    # T 1-3 that share a set (and must skip it), and full-views, which
    # ignores it; the selecting runs are checked against one-run passes
    for off in (frozenset({1, 4}), frozenset({0, 2, 3})):
        runs += [tr.PolicyRun(p, 2, q_net if p == "mvselect" else None, disabled=off)
                 for p in tr.POLICIES]
        runs += [tr.PolicyRun("random", t, disabled=off) for t in (1, 3)]
    for result, run in zip(tr.evaluate_policies(world, net, runs, seed=4), runs, strict=True):
        want = (tr.evaluate_policies(world, net, [run], seed=4)[0] if run.disabled else
                tr.evaluate_policy(world, net, run.T, run.policy, q_net=run.q_net,
                                   table=run.table, seed=4))
        if run.disabled and run.policy != "full-views":
            assert not np.isin(result.chosen[..., 1:], list(run.disabled)).any()
        assert (result.policy, result.split, result.T) == (want.policy, want.split, want.T)
        assert result.chosen.tobytes() == want.chosen.tobytes()
        assert result.records.tobytes() == want.records.tobytes()
        assert result.records.shape == want.records.shape
        if run.policy.endswith("-oracle"):
            assert result.table.to_json() == want.table.to_json()


def test_one_pass_checks_every_run_before_any_work(cls_world, cls_net, monkeypatch):
    calls = []
    features = cls_net.features
    monkeypatch.setitem(vars(cls_net), "features", lambda obs: calls.append(1) or features(obs))
    good = tr.PolicyRun("random", 2)
    for bad, error in ((tr.PolicyRun("mvselect", 2), ConfigError),
                       (tr.PolicyRun("random", 13), ConfigError),
                       (tr.PolicyRun("instance-oracle", 6), BudgetError)):
        with pytest.raises(error):
            tr.evaluate_policies(cls_world, cls_net, [good, bad], budget=10_000)
    assert calls == []


# ---------------------------------------------------------------------------
# select-fixed training featurizes only the views its rollouts visit


@pytest.mark.parametrize("family", ["classification", "detection"])
def test_select_fixed_equals_the_eager_loop(family, request):
    if family == "detection":
        world, net, _ = request.getfixturevalue("det_tiny")
    else:
        world, net = request.getfixturevalue("cls_world"), request.getfixturevalue("cls_net")
    cfg = tr.TrainConfig(regime="select-fixed", epochs=2, T=3, epsilon_start=0.9,
                         epsilon_end=0.3, seed=8)
    q_net = tr.build_selector(world, net, seed=8)
    q_eager = copy.deepcopy(q_net)
    result = tr.train_selector_fixed(world, net, q_net, cfg)
    eager = train_selector_fixed_eager(world, net, q_eager, cfg)
    assert tr.params_hash(q_net) == tr.params_hash(q_eager)
    assert result.epoch_logs == eager.epoch_logs
    assert (result.counters, result.total_steps) == (eager.counters, eager.total_steps)


def f_rows_per_step(world, net, monkeypatch, train) -> list[int]:
    """The rows f runs on in each detection step (one instance per step)
    of the training call ``train()``."""
    rows_per_step = []
    instance, forward = world.instance, net.feature_net.forward_cache

    def counted_instance(split, index):
        rows_per_step.append(0)
        return instance(split, index)

    def counted_forward(x, *args, **kwargs):
        rows_per_step[-1] += math.prod(np.shape(x)[:-1])
        return forward(x, *args, **kwargs)

    monkeypatch.setattr(world, "instance", counted_instance)
    monkeypatch.setattr(net.feature_net, "forward_cache", counted_forward)
    train()
    return rows_per_step


def test_select_fixed_featurizes_only_the_visited_views(det_tiny, monkeypatch):
    world, net, _ = det_tiny
    T, cells = 3, world.config.grid_h * world.config.grid_w
    rows = f_rows_per_step(world, net, monkeypatch, lambda: tr.train_selector_fixed(
        world, net, tr.build_selector(world, net, seed=2),
        tr.TrainConfig(regime="select-fixed", epochs=1, T=T, seed=2)))
    assert T < world.n_cameras
    assert rows == [T * cells] * world.n_train


# ---------------------------------------------------------------------------
# joint training featurizes only the views its rollouts visit


@pytest.mark.parametrize("seed, eps", [(8, (0.9, 0.3)), (5, (1.0, 0.8))],
                         ids=["seed8-decaying", "seed5-mostly-random"])
@pytest.mark.parametrize("family", ["classification", "detection"])
def test_joint_equals_the_eager_loop(family, seed, eps, request):
    # a detection step backpropagates through the table's full-frame
    # buffers, whose rows of unvisited views hold zeros or an earlier
    # step's values; both networks still equal the loop that featurizes
    # every view of the batch first, bit for bit
    if family == "detection":
        world, trained, _ = request.getfixturevalue("det_tiny")
    else:
        world, trained = request.getfixturevalue("cls_world"), request.getfixturevalue("cls_net")
    cfg = tr.TrainConfig(regime="joint", epochs=2, T=3, epsilon_start=eps[0],
                         epsilon_end=eps[1], seed=seed)
    net, net_eager = copy.deepcopy(trained), copy.deepcopy(trained)
    q_net = tr.build_selector(world, net, seed=seed)
    q_eager = copy.deepcopy(q_net)
    result = tr.train_joint(world, net, q_net, cfg)
    eager = train_joint_eager(world, net_eager, q_eager, cfg)
    assert tr.params_hash(net) != tr.params_hash(trained)
    assert tr.params_hash(net) == tr.params_hash(net_eager)
    assert tr.params_hash(q_net) == tr.params_hash(q_eager)
    assert result.epoch_logs == eager.epoch_logs
    assert (result.counters, result.total_steps) == (eager.counters, eager.total_steps)


def test_joint_featurizes_only_the_visited_views(det_tiny, monkeypatch):
    world, trained, _ = det_tiny
    net = copy.deepcopy(trained)
    T, cells = 3, world.config.grid_h * world.config.grid_w
    rows = f_rows_per_step(world, net, monkeypatch, lambda: tr.train_joint(
        world, net, tr.build_selector(world, net, seed=2),
        tr.TrainConfig(regime="joint", epochs=1, T=T, seed=2)))
    assert T < world.n_cameras
    assert rows == [T * cells] * world.n_train
