"""Study-level contracts: sweeps, shut-off ranking, pose randomization,
selector ablation."""

import json
import math
from collections import Counter

import numpy as np
import pytest

from fewview import evaluation, studies, training as tr
from fewview.envs import ClassificationConfig, ClassificationWorld, DetectionConfig, DetectionWorld
from fewview.errors import BudgetError, ConfigError


@pytest.fixture(scope="module")
def world():
    return ClassificationWorld(ClassificationConfig(n_train=120, n_val=60, n_eval=80, seed=3))


@pytest.fixture(scope="module")
def task_net(world):
    net = tr.build_classifier(world, seed=0)
    tr.train_task_network(world, net, tr.TrainConfig(
        regime="task", epochs=40, T=world.n_cameras, task_lr=2e-3, seed=0,
        train_view_counts=(1, 2, 3, 4, 6, 12)))
    return net


@pytest.fixture(scope="module")
def selector(world, task_net):
    q = tr.build_selector(world, task_net, seed=0)
    tr.train_selector_fixed(world, task_net, q, tr.TrainConfig(
        regime="select-fixed", epochs=30, T=2, selector_lr=1e-3, seed=0))
    return q


def constant_preference_selector(world, task_net, favored: int):
    """A selector whose Q values are state-independent: ``favored`` wins
    whenever selectable, everything else ties at zero (argmax -> lowest id)."""
    q = tr.build_selector(world, task_net, seed=0)
    q.combiner.weights[-1][:] = 0.0
    q.combiner.biases[-1][:] = 0.0
    q.combiner.biases[-1][favored] = 5.0
    return q


# ---------------------------------------------------------------------------
# view-budget sweep


def test_sweep_rows_cover_grid_and_obey_ordering(world, task_net, selector):
    rows = studies.sweep_view_budget(
        world, task_net, [2, world.n_cameras], q_nets={2: selector})
    assert len(rows) == 2 * len(studies.SWEEP_POLICIES)
    by = {(r["T"], r["policy"]): r for r in rows}
    # deployable ordering chain at T=2
    assert by[(2, "random")]["primary"] <= by[(2, "dataset-oracle")]["primary"] + 1e-12
    assert by[(2, "dataset-oracle")]["primary"] <= by[(2, "instance-oracle")]["primary"] + 1e-12
    assert by[(2, "mvselect")]["primary"] <= by[(2, "instance-oracle")]["primary"] + 1e-12


def test_sweep_at_full_budget_equals_full_view_eval(world, task_net):
    N = world.n_cameras
    rows = studies.sweep_view_budget(world, task_net, [N])
    full = tr.evaluate_policy(world, task_net, N, "full-views").metrics()
    for row in rows:
        assert row["primary"] == full["primary"]
        assert row["accuracy"] == full["accuracy"]
        assert row["cost_ratio"] == 1.0


def test_sweep_trains_no_selector_at_full_budget(world, task_net, monkeypatch):
    # masking forces all N views at T = N, so the untrained stand-in serves there
    N, built = world.n_cameras, []
    build = tr.build_selector

    def recording_build(*args, **kwargs):
        net = build(*args, **kwargs)
        built.append((net, {name: p.copy() for name, p in net.named_params()}))
        return net

    monkeypatch.setattr(tr, "build_selector", recording_build)
    cfg = tr.TrainConfig(regime="select-fixed", epochs=5, T=2, selector_lr=1e-3, seed=0)
    rows = studies.sweep_view_budget(world, task_net, [N], policies=("mvselect",),
                                     selector_cfg=cfg)
    assert rows == studies.sweep_view_budget(world, task_net, [N], policies=("mvselect",))
    (net, params), _ = built
    for name, p in net.named_params():
        np.testing.assert_array_equal(p, params[name], err_msg=name)


def test_sweep_cost_ratios(world, task_net, selector):
    from fewview import evaluation as ev
    rows = studies.sweep_view_budget(world, task_net, [2], q_nets={2: selector})
    by = {r["policy"]: r for r in rows}
    plain = ev.cost_account(world, task_net, None, 2).ratio
    with_selector = ev.cost_account(world, task_net, selector, 2).ratio
    assert by["random"]["cost_ratio"] == plain
    assert by["dataset-oracle"]["cost_ratio"] == plain
    assert by["mvselect"]["cost_ratio"] == with_selector
    assert with_selector > plain


def test_sweep_requires_selector_for_partial_budgets(world, task_net):
    with pytest.raises(ConfigError, match="selector"):
        studies.sweep_view_budget(world, task_net, [3], policies=("mvselect",))
    with pytest.raises(ConfigError, match="policy"):
        studies.sweep_view_budget(world, task_net, [2], policies=("bogus",))


def test_sweep_single_view_needs_no_selector(world, task_net):
    rows = studies.sweep_view_budget(world, task_net, [1], policies=("mvselect", "random"))
    by = {r["policy"]: r for r in rows}
    # with one view the selector never acts: both policies see only v0
    assert by["mvselect"]["primary"] == by["random"]["primary"]


def test_sweep_csv_layout(world, task_net):
    rows = studies.sweep_view_budget(world, task_net, [world.n_cameras],
                                     policies=("random",))
    text = evaluation.table_csv(rows, ("T", "policy"))
    lines = text.strip().split("\n")
    assert lines[0] == "T,policy,accuracy,cost_ratio,primary"
    assert len(lines) == 2


@pytest.fixture(scope="module")
def det_case():
    world = DetectionWorld(DetectionConfig(
        grid_h=16, grid_w=16, ring_radius=12.0, view_range=22.0, channels=4,
        min_targets=3, max_targets=6, n_train=6, n_val=4, n_eval=5, seed=3))
    net = tr.build_detector(world, hidden=8, feat_dim=6, seed=3)
    tr.train_task_network(world, net, tr.TrainConfig(
        regime="task", epochs=2, T=1, batch_size=1, task_lr=1e-3, seed=3))
    return world, net, [1, 2, 3, world.n_cameras]


@pytest.mark.parametrize("case", ["classification", "detection", "shut-off"])
def test_sweep_rows_equal_one_evaluate_policy_call_per_row(case, world, task_net, selector,
                                                           request):
    policies = tr.POLICIES
    if case == "detection":
        world, task_net, T_values = request.getfixturevalue("det_case")
    elif case == "shut-off":
        # shut-off belongs to a run: a pass that disables cameras first
        # leaves nothing on the world or the network for the sweep to see
        T_values = [1, 2, 3]
        disabled = frozenset([1, 4, 7])
        shut = tr.evaluate_policies(world, task_net, [
            tr.PolicyRun(policy, t, selector if policy == "mvselect" else None,
                         disabled=disabled)
            for t in T_values for policy in policies if policy != "full-views"])
        for run in shut:
            assert not disabled & set(np.unique(run.chosen[:, :, 1:]).tolist())
    else:
        T_values = [1, 2, 3, world.n_cameras]
    q_nets = {t: tr.build_selector(world, task_net, seed=t) for t in T_values}
    if case == "classification":
        q_nets[2] = selector
    for seed, split in ((0, "eval"), (5, "val")):
        rows = studies.sweep_view_budget(world, task_net, T_values, policies=policies,
                                         q_nets=q_nets, split=split, seed=seed)
        reference = []
        for t in T_values:
            for policy in policies:
                q_net = q_nets[t] if policy == "mvselect" else None
                run = tr.evaluate_policy(world, task_net, t, policy, split=split,
                                         q_net=q_net, seed=seed)
                row = {"T": t, "policy": policy,
                       **{k: float(v) for k, v in sorted(run.metrics().items())},
                       "cost_ratio": evaluation.cost_account(world, task_net, q_net, t).ratio}
                reference.append(row)
        # json writes every float by its shortest repr, so equal text is equal bits
        assert json.dumps(rows) == json.dumps(reference)


def test_sweep_featurizes_each_instance_once_and_scores_each_budget_once(
        world, task_net, selector, monkeypatch):
    T_values, N = [2, 3], world.n_cameras
    featurized = []       # instances of every featurized block
    decoded = Counter()   # (rows, columns) of every decoded view-set table
    features, decode = task_net.features, task_net.decode

    def counted_features(obs, work=None):
        featurized.append(len(obs))
        return features(obs, work)

    def counted_decode(feats, view_sets):
        decoded[view_sets.shape] += 1
        return decode(feats, view_sets)

    # set in the instance's dict, so undoing them leaves no instance attribute
    monkeypatch.setitem(vars(task_net), "features", counted_features)
    monkeypatch.setitem(vars(task_net), "decode", counted_decode)
    studies.sweep_view_budget(world, task_net, T_values, policies=tr.POLICIES,
                              q_nets={2: selector, 3: selector})
    assert sum(featurized) == world.n_eval
    # policies decode at most N distinct sets, so a table of C(N, T) rows
    # of T views is an oracle scoring every size-T subset
    for t in T_values:
        assert decoded[(math.comb(N, t), t)] == world.n_eval


# ---------------------------------------------------------------------------
# camera shut-off


def test_shutoff_never_selected_cameras_leave_rollouts_bit_identical(world, task_net):
    q = constant_preference_selector(world, task_net, favored=2)
    base = tr.evaluate_policy(world, task_net, 2, "mvselect", q_net=q)
    # favored camera 2 is selected from every other start; from start 2 the
    # tie goes to camera 0, so cameras 1 and 3.. are never selected
    never = sorted(set(range(world.n_cameras))
                   - set(np.unique(base.chosen[:, :, 1:]).tolist()))
    assert 3 in never
    shut = tr.PolicyRun("mvselect", 2, q, disabled=frozenset([never[0], never[-1]]))
    [after] = tr.evaluate_policies(world, task_net, [shut])
    np.testing.assert_array_equal(base.chosen, after.chosen)
    assert base.metrics() == after.metrics()


def test_shutoff_k_zero_is_a_no_op(world, task_net, selector):
    out = studies.camera_shutoff_study(world, task_net, selector, T=2, k=0, n_random=2)
    assert out["ranked"]["disabled"] == []
    assert out["ranked"]["metrics"] == out["baseline"]
    for row in out["random"]:
        assert row["disabled"] == []
        assert row["metrics"] == out["baseline"]


def count_shutoff_work(world, task_net, selector, monkeypatch, **study_args):
    """The instances a shut-off study featurizes, and its greedy rollouts of
    a block: one per distinct (split, disabled set) it evaluates."""
    featurized, rollouts = [], []
    features, greedy = task_net.features, tr.greedy_sequences

    def counted_greedy(q_net, feats, n_cams, T, disabled=frozenset()):
        rollouts.append(disabled)
        return greedy(q_net, feats, n_cams, T, disabled)

    # set in the instance's dict, so undoing it leaves no instance attribute
    monkeypatch.setitem(vars(task_net), "features",
                        lambda obs, work=None: featurized.append(len(obs))
                        or features(obs, work))
    monkeypatch.setattr(tr, "greedy_sequences", counted_greedy)
    out = studies.camera_shutoff_study(world, task_net, selector, T=2, **study_args)
    return out, sum(featurized), rollouts


def test_shutoff_k_zero_evaluates_only_baseline_and_ranking(world, task_net, selector, monkeypatch):
    _, featurized, rollouts = count_shutoff_work(world, task_net, selector, monkeypatch,
                                                 k=0, n_random=3)
    assert featurized == world.n_val + world.n_eval
    # the classification splits are one block each: the ranking, then the
    # baseline that every empty disabled set collapses into
    assert rollouts == [frozenset(), frozenset()]


def test_shutoff_study_featurizes_each_split_once(world, task_net, selector, monkeypatch):
    out, featurized, rollouts = count_shutoff_work(world, task_net, selector, monkeypatch,
                                                   k=3, n_random=2)
    assert featurized == world.n_val + world.n_eval
    sets = [out["ranked"]["disabled"]] + [row["disabled"] for row in out["random"]]
    assert rollouts == [frozenset(), frozenset()] + [frozenset(cams) for cams in sets]


def test_shutoff_ranked_beats_or_ties_random_subsets(world, task_net):
    q = constant_preference_selector(world, task_net, favored=2)
    out = studies.camera_shutoff_study(world, task_net, q, T=2, k=3, seed=0)
    # bottom-3 by usage are never-selected cameras: accuracy is untouched
    assert out["ranked"]["metrics"]["primary"] == out["baseline"]["primary"]
    assert out["ranked"]["metrics"]["primary"] >= out["random_mean_primary"] - 1e-12
    assert set(out["ranked"]["disabled"]) <= set(range(world.n_cameras)) - {0, 2}
    usage = out["usage"]
    assert usage[2] == max(usage)


def test_shutoff_guards(world, task_net, selector):
    with pytest.raises(ConfigError, match="fewer usable"):
        studies.camera_shutoff_study(world, task_net, selector, T=11, k=2)
    with pytest.raises(ConfigError, match="cannot disable"):
        studies.camera_shutoff_study(world, task_net, selector, T=2, k=13)


@pytest.mark.parametrize("k", [2.5, True], ids=["k-2.5", "k-True"])
def test_shutoff_rejects_a_non_integer_k_before_any_evaluation(world, task_net, selector,
                                                               monkeypatch, k):
    evaluated = []
    monkeypatch.setattr(tr, "evaluate_policies", lambda *args, **kw: evaluated.append(args))
    with pytest.raises(ConfigError, match="not an integer"):
        studies.camera_shutoff_study(world, task_net, selector, T=2, k=k)
    assert evaluated == []


# ---------------------------------------------------------------------------
# pose randomization


@pytest.fixture(scope="module")
def pose_world():
    return ClassificationWorld(ClassificationConfig(
        n_train=120, n_val=60, n_eval=80, seed=3, random_pose=True))


@pytest.fixture(scope="module")
def pose_task_net(pose_world):
    net = tr.build_classifier(pose_world, seed=0)
    tr.train_task_network(pose_world, net, tr.TrainConfig(
        regime="task", epochs=40, T=pose_world.n_cameras, task_lr=2e-3, seed=0,
        train_view_counts=(1, 2, 3, 4, 6, 12)))
    return net


def test_random_pose_study_requires_pose_world(world, task_net):
    with pytest.raises(ConfigError, match="random_pose"):
        studies.random_pose_study(world, task_net, 2, selector_cfg=tr.TrainConfig(
            regime="select-fixed", epochs=1, T=2))


@pytest.mark.parametrize("study, error", [
    (lambda w, net, cfg: studies.random_pose_study(w, net, 2, selector_cfg=cfg, budget=10),
     BudgetError),
    (lambda w, net, cfg: studies.sweep_view_budget(
        w, net, [2, 3], policies=("mvselect", "instance-oracle"), selector_cfg=cfg, budget=10),
     BudgetError),
    (lambda w, net, cfg: studies.sweep_view_budget(
        w, net, [2, 99], policies=("mvselect",), selector_cfg=cfg), ConfigError),
    (lambda w, net, cfg: studies.selector_ablation_study(w, net, w.n_cameras + 1,
                                                         selector_cfg=cfg), ConfigError),
    (lambda w, net, cfg: studies.sweep_view_budget(
        w, net, [2, 2.7], policies=("mvselect",), selector_cfg=cfg), ConfigError),
    (lambda w, net, cfg: studies.sweep_view_budget(
        w, net, [2], policies=("mvselect", "bogus"), selector_cfg=cfg), ConfigError),
], ids=["random-pose-budget", "sweep-budget", "sweep-T-99", "ablation-T-N+1", "sweep-T-2.7",
        "sweep-unknown-policy"])
def test_studies_check_their_input_before_any_selector_trains(pose_world, monkeypatch,
                                                              study, error):
    trained = []
    monkeypatch.setattr(tr, "train_selector_fixed", lambda *args: trained.append(args))
    cfg = tr.TrainConfig(regime="select-fixed", epochs=1, T=2)
    with pytest.raises(error):
        study(pose_world, tr.build_classifier(pose_world, seed=0), cfg)
    assert trained == []


@pytest.mark.parametrize("study, n_runs, n_trained", [
    (lambda w, net, cfg: studies.random_pose_study(w, net, 2, selector_cfg=cfg), 3, 1),
    (lambda w, net, cfg: studies.sweep_view_budget(
        w, net, [2, 3, 2], policies=tr.POLICIES, selector_cfg=cfg), 15, 2),
    (lambda w, net, cfg: studies.selector_ablation_study(w, net, 2, selector_cfg=cfg), 3, 3),
], ids=["random-pose", "sweep", "ablation"])
def test_studies_check_every_run_through_check_run_before_training(pose_world, monkeypatch,
                                                                   study, n_runs, n_trained):
    events = []
    check_run = tr.check_run
    monkeypatch.setattr(tr, "check_run", lambda *args: events.append("check") or check_run(*args))
    monkeypatch.setattr(tr, "train_selector_fixed", lambda *args: events.append("train"))
    # a stand-in for the one pass, which checks every run again itself
    monkeypatch.setattr(tr, "evaluate_policies",
                        lambda *args: events.append("evaluate") or [])
    study(pose_world, tr.build_classifier(pose_world, seed=0),
          tr.TrainConfig(regime="select-fixed", epochs=1, T=2))
    # a T the sweep names twice trains its selector once
    assert events == ["check"] * n_runs + ["train"] * n_trained + ["evaluate"]


def test_random_pose_study_three_way_comparison(pose_world, pose_task_net):
    cfg = tr.TrainConfig(regime="select-fixed", epochs=30, T=2, selector_lr=1e-3, seed=0)
    out = studies.random_pose_study(pose_world, pose_task_net, 2, selector_cfg=cfg)
    assert out["T"] == 2
    policies = [row["policy"] for row in out["rows"]]
    assert policies == ["random", "dataset-oracle", "mvselect"]
    primaries = {row["policy"]: row["primary"] for row in out["rows"]}
    print("random-pose primaries:", primaries)
    # adaptive selection must beat uninformed choice under randomized pose
    assert primaries["mvselect"] > primaries["random"]
    for row in out["rows"]:
        assert 0.0 <= row["primary"] <= 1.0


# ---------------------------------------------------------------------------
# selector ablation


def test_ablation_emits_three_deterministic_rows(world, task_net):
    cfg = tr.TrainConfig(regime="select-fixed", epochs=8, T=2, selector_lr=1e-3, seed=0)
    rows1 = studies.selector_ablation_study(world, task_net, 2, selector_cfg=cfg)
    rows2 = studies.selector_ablation_study(world, task_net, 2, selector_cfg=cfg)
    assert [r["variant"] for r in rows1] == list(studies.ABLATION_VARIANTS)
    assert rows1 == rows2
    for row in rows1:
        assert 0.0 <= row["primary"] <= 1.0


def test_ablation_variants_actually_drop_branches(world, task_net):
    q_nc = tr.build_selector(world, task_net, seed=0, use_camera_branch=False)
    q_nf = tr.build_selector(world, task_net, seed=0, use_feature_branch=False)
    assert not q_nc.use_camera_branch and q_nc.use_feature_branch
    assert q_nf.use_camera_branch and not q_nf.use_feature_branch
    from fewview.errors import ShapeError
    with pytest.raises(ShapeError):
        tr.build_selector(world, task_net, seed=0,
                          use_camera_branch=False, use_feature_branch=False)
