"""Training-regime and reference-policy tests.

Heavier end-to-end behavior (5-seed orderings, joint-vs-full margins) lives
in the acceptance suite; this file covers the per-operation contracts:
loss decrease, frozen-network hashing, degenerate-schedule equivalence,
oracle enumeration against independent brute force, policy-table formats,
budget guards, and bit-reproducibility.
"""

import concurrent.futures
import copy
import itertools
import math
import pickle
import sys
import threading

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
    ShapeError,
    StateError,
)
from fewview.mvselect import rollout
from fewview.numcore import cross_entropy
from fewview.tasknet import MVClassifier, MVDetector
from testkit import (discriminative_views, evaluate_reference, exact_q_table, optimal_actions,
                     paired_t_pvalue, policy_table, predict_sets_gathered, read_policy_table,
                     table_entries, train_joint_eager, train_selector_fixed_eager,
                     train_task_network_loop)

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
    ("seed", -1),
])
def test_train_config_rejects_bad_rates_naming_the_field(field, value):
    with pytest.raises(ConfigError, match=field):
        tr.TrainConfig(regime="joint", epochs=1, T=2, **{field: value})


@pytest.mark.parametrize("counts, named", [
    ([1.5, True], "train_view_counts entry 1.5"), ([2, True], "train_view_counts entry True"),
    ((1, "2"), "train_view_counts entry '2'")], ids=["float", "bool", "str"])
def test_train_config_rejects_non_integer_view_counts_naming_the_entry(counts, named):
    with pytest.raises(ConfigError, match=named):
        tr.TrainConfig(regime="task", epochs=1, T=2, train_view_counts=counts)
    # a NumPy integer is an integer, and the tuple holds it as an int
    cfg = tr.TrainConfig(regime="task", epochs=1, T=2, train_view_counts=np.array([1, 2]))
    assert cfg.train_view_counts == (1, 2) and type(cfg.train_view_counts[0]) is int


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
    # an empty mix would draw from no count: rejected with the config
    with pytest.raises(ConfigError, match="train_view_counts must name at least one"):
        tr.TrainConfig(regime="task", epochs=1, T=1, train_view_counts=())


def test_divergence_aborts_with_diagnostics(cls_world):
    # non-finite values entering the forward pass abort training immediately
    net = tr.build_classifier(cls_world, seed=2)
    net.feature_net.weights[0][0, 0] = np.nan
    cfg = tr.TrainConfig(regime="task", epochs=1, T=1, batch_size=8, task_lr=1e-3, seed=2)
    with pytest.raises(NonFiniteError):
        tr.train_task_network(cls_world, net, cfg)
    # and a non-finite loss value aborts with the location in the message
    with pytest.raises(NonFiniteError, match="non-finite loss at epoch 7"):
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
        for v0 in range(cls_world.n_cameras):
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
    assert ds_table.sets.shape == (1, 4, 2) and inst_table.sets.shape == (n, 4, 2)
    for v0 in range(4):
        pairs = [p for p in mean_score if v0 in p]
        best = max(pairs, key=lambda p: (mean_score[p], -pairs.index(p)))
        # ties resolve to the first subset in sorted order
        best_val = mean_score[best]
        best = min(p for p in pairs if mean_score[p] == best_val)
        expected = tuple(a for a in best if a != v0)
        assert ds_table.sets[0, v0].tolist() == [v0, *expected]
    for i in range(n):
        for v0 in range(4):
            vals = {p: best_per_instance[i][p] for p in best_per_instance[i] if v0 in p}
            best_val = max(vals.values())
            best = min(p for p, v in vals.items() if v == best_val)
            assert inst_table.sets[i, v0].tolist() == [v0, *(a for a in best if a != v0)]

    ds_run = tr.evaluate_policy(world, net, T=2, policy="dataset-oracle", table=ds_table)
    inst_run = tr.evaluate_policy(world, net, T=2, policy="instance-oracle", table=inst_table)
    assert inst_run.metrics()["accuracy"] >= ds_run.metrics()["accuracy"]


def test_enumeration_budget_guard(cls_world, cls_net):
    with pytest.raises(BudgetError, match="reduce"):
        tr.dataset_oracle_table(cls_world, cls_net, T=6, split="eval", budget=100)
    with pytest.raises(BudgetError):
        tr.evaluate_policy(cls_world, cls_net, T=6, policy="instance-oracle", budget=100)


def test_policy_table_json_round_trip():
    for kind, entries in (("dataset", {"0": [1, 2], "1": [0, 3]}),
                          ("instance", {"0:0": [3], "0:1": [2], "1:0": [1], "1:1": [0]})):
        table = policy_table(kind, entries)
        back = read_policy_table(table.to_json())
        assert back.kind == kind and back.T == table.T
        np.testing.assert_array_equal(back.sets, table.sets)
        assert table_entries(back) == entries


def test_policy_table_json_bytes_are_pinned():
    # keys sort as strings ("10" before "2"), and T is the sets' last axis
    ds = tr.PolicyTable("dataset", np.array([[(v, (v + 1) % 11) for v in range(11)]]))
    assert ds.to_json() == (
        '{"T":2,"entries":{"0":[1],"1":[2],"10":[0],"2":[3],"3":[4],"4":[5],"5":[6],'
        '"6":[7],"7":[8],"8":[9],"9":[10]},"kind":"dataset"}')
    inst = tr.PolicyTable("instance", np.array([[[0, 2, 1], [1, 0, 2], [2, 1, 0]],
                                                [[0, 1, 2], [1, 2, 0], [2, 0, 1]]]))
    assert inst.to_json() == (
        '{"T":3,"entries":{"0:0":[2,1],"0:1":[0,2],"0:2":[1,0],"1:0":[1,2],"1:1":[2,0],'
        '"1:2":[0,1]},"kind":"instance"}')


def test_random_sequences_deterministic_and_distinct():
    for i in range(5):
        for v0 in range(6):
            seq = tr.random_sequence(6, v0, 4, seed=1, instance_index=i)
            assert len(seq) == 3 and len(set(seq)) == 3 and v0 not in seq
            assert seq == tr.random_sequence(6, v0, 4, seed=1, instance_index=i)
    disabled = frozenset({2, 3})
    seq = tr.random_sequence(6, 0, 3, seed=1, instance_index=0, disabled=disabled)
    assert not set(seq) & disabled


def test_random_sequence_is_pinned_to_its_integer_key():
    # the order is the permutation drawn from (seed, 17, instance, initial
    # view): a change of key or generator fails here
    for seed, i, v0, off, T in ((0, 0, 0, frozenset(), 6), (7, 41, 5, frozenset({2, 9}), 3),
                                (3, 2, 11, frozenset({0}), 11)):
        open_cams = [c for c in range(12) if c != v0 and c not in off]
        picks = np.random.default_rng([seed, 17, i, v0]).permutation(len(open_cams))[:T - 1]
        assert tr.random_sequence(12, v0, T, seed, i, off) == tuple(open_cams[p] for p in picks)


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
    table = policy_table("dataset", {str(v): [(v + 1) % 12, (v + 2) % 12] for v in range(12)})
    with pytest.raises(ConfigError, match=r"policy table .* \(1, 12, 3\), not .* \(1, 12, 2\)"):
        tr.evaluate_policy(cls_world, cls_net, T=2, policy="dataset-oracle", table=table)


def _bad_entries(case, instances):
    """JSON-shaped entries for each of ``instances`` (None: a dataset table)
    on the 12-camera world at T=2, broken as ``case`` says: a missing entry
    is a table for 11 cameras or, for an instance table, one instance short
    of the split; a wrong length is a table for T=3."""
    entries = {v: [(v + 1) % 12] for v in range(12)}
    if case == "missing entry" and instances is None:
        del entries[11]
    elif case == "missing entry":
        instances = instances[:-1]
    elif case == "wrong length":
        entries = {v: [(v + 1) % 12, (v + 2) % 12] for v in range(12)}
    else:
        entries[3] = {"camera 99": [99], "camera -1": [-1], "repeats initial": [3]}[case]
    if instances is None:
        return {str(v): seq for v, seq in entries.items()}
    return {f"{i}:{v}": seq for i in instances for v, seq in entries.items()}


@pytest.mark.parametrize("case", ["missing entry", "camera 99", "wrong length", "camera -1",
                                  "repeats initial"])
@pytest.mark.parametrize("kind", ["dataset", "instance"])
def test_policy_table_entries_are_checked_against_the_world(cls_world, cls_net, kind, case):
    instances = None if kind == "dataset" else list(range(cls_world.n_eval))
    table = policy_table(kind, _bad_entries(case, instances))
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
    table = policy_table("dataset", {str(v): [0] if v else [1] for v in range(6)})
    run = tr.PolicyRun("dataset-oracle", 2, table=table, disabled=frozenset({1}))
    with pytest.raises(ConfigError, match=r"policy table entry \(0, 0\) \[0, 1\] .* none of "
                                          r"them shut off \[1\]"):
        tr.evaluate_policies(world, net, [run])
    # a shut-off camera still serves as an initial view
    run = tr.PolicyRun("dataset-oracle", 2, table=table, disabled=frozenset({5}))
    assert tr.evaluate_policies(world, net, [run])[0].chosen[0, 5].tolist() == [5, 0]


def test_a_malformed_followed_table_fails_before_any_featurization(monkeypatch):
    world = DetectionWorld(DetectionConfig(
        grid_h=16, grid_w=16, ring_radius=12.0, view_range=22.0, channels=4,
        min_targets=3, max_targets=6, n_train=2, n_val=2, n_eval=8, seed=3))
    net = tr.build_detector(world, hidden=8, feat_dim=6, seed=3)
    sets = np.array([[[v, (v + 1) % 6] for v in range(6)]] * 8)
    sets[7, 3, 1] = 3    # the last frame's row repeats its initial view
    calls = []
    features = net.features
    monkeypatch.setitem(vars(net), "features", lambda obs, work=None: calls.append(len(obs))
                        or features(obs, work))
    with pytest.raises(ConfigError, match=r"policy table entry \(7, 3\) \[3, 3\]"):
        tr.evaluate_policy(world, net, T=2, policy="instance-oracle",
                           table=tr.PolicyTable("instance", sets))
    assert calls == []


def test_an_instance_table_follows_only_a_split_of_its_size(cls_world, cls_net):
    table = tr.instance_oracle_table(cls_world, cls_net, 2, "eval")
    run = tr.evaluate_policy(cls_world, cls_net, 2, "instance-oracle", "eval", table=table)
    assert table.sets.shape == (cls_world.n_eval, 12, 2) and len(run.records) == cls_world.n_eval
    for split in ("val", "train"):   # fewer and more instances than the table's rows
        with pytest.raises(ConfigError, match=f"policy table .* for {cls_world.split_size(split)} "
                                              f"instances"):
            tr.evaluate_policy(cls_world, cls_net, 2, "instance-oracle", split, table=table)


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
                        lambda obs, work=None: blocks.append(features(obs, work)) or blocks[-1])
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


def test_an_evaluation_of_no_runs_does_no_work(det_tiny, monkeypatch):
    # a pass that serves no run generates no instance and starts no worker
    world, net, _ = det_tiny
    calls, started = [], []
    instance, start = world.instance, threading.Thread.start
    monkeypatch.setitem(vars(world), "instance", lambda *a: calls.append(a) or instance(*a))
    monkeypatch.setattr(threading.Thread, "start", lambda t: started.append(t) or start(t))
    threads = threading.active_count()
    assert tr.evaluate_policies(world, net, []) == []
    assert calls == [] and started == []
    assert threading.active_count() == threads


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

    def counted_features(obs, work=None):
        calls["features"] += len(obs)
        return features(obs, work)

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


@pytest.mark.parametrize("family", ["classification", "detection"])
def test_one_pass_equals_the_reference_evaluator(family, request):
    # a detection split is five frames, so the pass prepares four of them
    # on its worker thread; a classification split is one block
    if family == "detection":
        world, net, q_net = request.getfixturevalue("det_tiny")
    else:
        world, net = request.getfixturevalue("cls_world"), request.getfixturevalue("cls_net")
        q_net = request.getfixturevalue("cls_selector")
    off = frozenset({1, 4})
    runs = [tr.PolicyRun(p, 3, q_net if p == "mvselect" else None) for p in tr.POLICIES]
    runs += [tr.PolicyRun("random", 2), tr.PolicyRun("dataset-oracle", 2), runs[0],
             tr.PolicyRun("dataset-oracle", 3, table=tr.dataset_oracle_table(world, net, 3, "eval")),
             tr.PolicyRun("instance-oracle", 2, table=tr.instance_oracle_table(world, net, 2, "eval"))]
    runs += [tr.PolicyRun(p, 2, q_net if p == "mvselect" else None, disabled=off)
             for p in tr.POLICIES]
    for run, got in zip(runs, tr.evaluate_policies(world, net, runs, seed=4), strict=True):
        chosen, records = evaluate_reference(world, net, run, "eval", 4)
        assert got.chosen.tobytes() == chosen.tobytes(), run
        assert got.records.tobytes() == records.tobytes(), run
        if run.policy.endswith("-oracle") and run.table is None:
            rows = 1 if run.policy == "dataset-oracle" else world.n_eval
            assert got.table.sets.tobytes() == chosen[:rows].tobytes(), run


@pytest.fixture(scope="module")
def trained_worlds(cls_world, cls_net, cls_selector, det_tiny):
    """Each family's world, trained task network and selector."""
    return {"classification": (cls_world, cls_net, cls_selector), "detection": det_tiny}


@pytest.mark.parametrize("family", ["classification", "detection"])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_one_pass_over_drawn_runs_equals_the_reference_evaluator(trained_worlds, family, data):
    # 1-6 runs, repeats allowed, each a policy, a T and a shut-off set that
    # leaves T cameras to select; one pass must give each run the bytes of
    # the reference evaluator, which takes one run and one instance at a time
    world, net, q_net = trained_worlds[family]
    n_cams = world.n_cameras
    runs = []
    for _ in range(data.draw(st.integers(1, 6), label="runs")):
        if runs and data.draw(st.booleans(), label="repeat"):
            # an earlier run again, as it was or with another shut-off set
            again = data.draw(st.sampled_from(runs), label="again")
            policy, T, off = again.policy, again.T, again.disabled
        else:
            policy = data.draw(st.sampled_from(tr.POLICIES), label="policy")
            T = data.draw(st.integers(1, 4), label="T")
            off = None
        if off is None or data.draw(st.booleans(), label="new shut-off"):
            off = data.draw(st.frozensets(st.integers(0, n_cams - 1), max_size=n_cams - T),
                            label="off")
        runs.append(tr.PolicyRun(policy, T, q_net if policy == "mvselect" else None,
                                 disabled=off))
    seed = data.draw(st.integers(0, 3), label="seed")
    for run, got in zip(runs, tr.evaluate_policies(world, net, runs, seed=seed), strict=True):
        chosen, records = evaluate_reference(world, net, run, "eval", seed)
        assert got.chosen.tobytes() == chosen.tobytes(), run
        assert got.records.tobytes() == records.tobytes(), run


# the worker thread of a detection pass


def test_a_detection_pass_prepares_every_later_frame_on_one_worker(det_tiny, monkeypatch):
    world, net, q_net = det_tiny
    threads, features, callers = threading.active_count(), net.features, []
    monkeypatch.setitem(vars(net), "features", lambda obs, work=None: callers.append(
        threading.current_thread()) or features(obs, work))
    tr.evaluate_policy(world, net, 3, "mvselect", q_net=q_net)
    assert callers[0] is threading.current_thread()
    assert len(set(callers[1:])) == 1 and callers[1] is not callers[0]
    assert len(callers) == world.n_eval
    assert threading.active_count() == threads


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_an_error_mid_pass_surfaces_with_its_class_and_joins_the_worker(det_tiny, monkeypatch,
                                                                         where):
    # the third frame fails: featurized by the worker, or decoded by the caller
    world, net, q_net = det_tiny
    threads, calls = threading.active_count(), []
    name, error = ("features", NonFiniteError) if where == "worker" else ("decode", ShapeError)
    method = getattr(net, name)

    def third_fails(*args):
        calls.append(threading.current_thread())
        if len(calls) == 3:
            raise error(f"frame 2 fails on the {where}")
        return method(*args)

    monkeypatch.setitem(vars(net), name, third_fails)
    with pytest.raises(error, match=f"frame 2 fails on the {where}"):
        tr.evaluate_policy(world, net, 3, "mvselect", q_net=q_net)
    assert (calls[2] is threading.current_thread()) == (where == "caller")
    assert threading.active_count() == threads


def test_a_pass_under_frequent_thread_switches_equals_the_reference(det_tiny):
    # a block handed over early, or a buffer refilled while the caller still
    # reads it, changes bytes; a switch every microsecond gives it chances
    world, net, q_net = det_tiny
    runs = [tr.PolicyRun("mvselect", 3, q_net), tr.PolicyRun("instance-oracle", 2),
            tr.PolicyRun("full-views", 2)]
    want = [evaluate_reference(world, net, run, "eval", 0) for run in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        passes = [tr.evaluate_policies(world, net, runs) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    for done in passes:
        for got, (chosen, records) in zip(done, want, strict=True):
            assert got.chosen.tobytes() == chosen.tobytes()
            assert got.records.tobytes() == records.tobytes()


def test_a_one_block_pass_starts_no_thread(cls_world, cls_net, det_tiny, monkeypatch):
    def no_executor(*args, **kwargs):
        raise AssertionError("the pass opened a worker")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_executor)
    threads = threading.active_count()
    tr.evaluate_policies(cls_world, cls_net, [tr.PolicyRun(p, 2) for p in ("random", "full-views")])
    assert threading.active_count() == threads
    with pytest.raises(AssertionError, match="opened a worker"):   # a split of five frames
        tr.evaluate_policy(det_tiny[0], det_tiny[1], 2, "random")


def test_check_run_takes_only_integer_budgets_and_camera_ids(cls_world, cls_net):
    N = cls_world.n_cameras
    # full-views takes all N cameras, but only from a T in [1, N]
    for T in (0, N + 1, 2.5, True):
        with pytest.raises(ConfigError, match="T"):
            tr.check_run(cls_world, tr.PolicyRun("full-views", T), "eval")
    assert tr.check_run(cls_world, tr.PolicyRun("full-views", 2), "eval").T == N
    for T in (2.0, 2.7, True, "2"):
        with pytest.raises(ConfigError, match="not an integer"):
            tr.evaluate_policies(cls_world, cls_net, [tr.PolicyRun("random", T)])
    # disabled={1.5} once shut off camera 1
    for ids in ({1.5}, {True}, {0, "1"}):
        with pytest.raises(ConfigError, match="disabled id .* is not an integer"):
            tr.evaluate_policies(cls_world, cls_net, [tr.PolicyRun("random", 2, disabled=ids)])
    # NumPy integers are integers: the checked run holds ints, and evaluates as they do
    run = tr.check_run(cls_world, tr.PolicyRun("random", np.int64(2), disabled={np.int32(1)}),
                       "eval")
    assert (type(run.T), run.disabled) == (int, frozenset({1}))
    assert all(type(v) is int for v in run.disabled)
    assert tr.check_run(cls_world, tr.PolicyRun("random", 2, disabled=iter([1])),
                        "eval").disabled == frozenset({1})
    got = tr.evaluate_policies(cls_world, cls_net, [tr.PolicyRun("random", np.int64(2))])[0]
    want = tr.evaluate_policy(cls_world, cls_net, 2, "random")
    assert type(got.T) is int and got.metrics() == want.metrics()


def test_one_pass_checks_every_run_before_any_work(cls_world, cls_net, monkeypatch):
    calls = []
    features = cls_net.features
    monkeypatch.setitem(vars(cls_net), "features",
                        lambda obs, work=None: calls.append(1) or features(obs, work))
    good = tr.PolicyRun("random", 2)
    for bad, error in ((tr.PolicyRun("mvselect", 2), ConfigError),
                       (tr.PolicyRun("random", 13), ConfigError),
                       (tr.PolicyRun("instance-oracle", 6), BudgetError)):
        with pytest.raises(error):
            tr.evaluate_policies(cls_world, cls_net, [good, bad], budget=10_000)
    assert calls == []


# ---------------------------------------------------------------------------
# task training runs the one minibatch loop


@pytest.mark.parametrize("family", ["classification", "detection"])
def test_task_training_equals_the_written_out_loop(family, request):
    # a classification batch draws its views from the mix, a detection
    # batch is one frame of every view
    if family == "detection":
        world, trained, _ = request.getfixturevalue("det_tiny")
        cfg = tr.TrainConfig(regime="task", epochs=2, T=1, task_lr=1e-3, seed=6)
    else:
        world, trained = request.getfixturevalue("cls_world"), request.getfixturevalue("cls_net")
        cfg = tr.TrainConfig(regime="task", epochs=3, T=1, batch_size=8, task_lr=2e-3, seed=6,
                             train_view_counts=MIX)
    net, net_loop = copy.deepcopy(trained), copy.deepcopy(trained)
    result = tr.train_task_network(world, net, cfg)
    loop = train_task_network_loop(world, net_loop, cfg)
    assert tr.params_hash(net) != tr.params_hash(trained)
    assert tr.params_hash(net) == tr.params_hash(net_loop)
    assert result.epoch_logs == loop.epoch_logs
    assert (result.counters, result.total_steps) == (loop.counters, loop.total_steps)


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
