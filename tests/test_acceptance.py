"""Acceptance gate: eleven system-level checks, one printed PASS/FAIL line each.

Each test prints its verdict to the real terminal (bypassing capture) before
asserting, with each statistic it checks beside its bound, so a full run
always shows eleven lines and their margins. One more test, not a numbered
criterion, prints each detection seed's MODA under greedy and under optimal
matching. The two expensive
fixtures train the five-seed classification and detection suites once and
share them across the ordering, joint-gain, and shut-off checks. Both suites
train their seeds in one pool of spawned processes, one BLAS thread each.
"""

import copy
import itertools
import multiprocessing
import os
import subprocess
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.optimize import linear_sum_assignment

from fewview import studies
from fewview import training as tr
from fewview.envs import (
    ClassificationConfig,
    ClassificationWorld,
    DetectionConfig,
    DetectionWorld,
)
from fewview.evaluation import (cost_from_macs, detection_metrics_arrays, extract_peaks,
                                frame_counts)
from fewview.mvselect import QNetwork
from fewview.numcore import (
    ACTIVATIONS,
    DenseNet,
    LayerSpec,
    bev_mse,
    cross_entropy,
)
from testkit import (aggregate_max, exact_q_table, match_detections, max_relative_error,
                     numeric_gradient, optimal_actions)

N_SEEDS = 5
VIEW_MIX = (1, 2, 3, 4, 6, 12)


def _report(capsys, num: int, name: str, ok: bool, stats: str) -> bool:
    with capsys.disabled():
        print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} — {stats}")
    return ok


# ---------------------------------------------------------------------------
# shared multi-seed suites


THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def _cls_seed(seed: int) -> dict:
    """One classification seed: task net, fixed selector, joint pair."""
    t0 = time.time()
    world = ClassificationWorld(ClassificationConfig(
        n_train=120, n_val=60, n_eval=80, noise=0.3, seed=seed))
    task = tr.build_classifier(world, seed=seed)
    tr.train_task_network(world, task, tr.TrainConfig(
        regime="task", epochs=40, T=12, task_lr=2e-3, seed=seed,
        train_view_counts=VIEW_MIX))
    acc = {}
    acc["full"] = tr.evaluate_policy(
        world, task, 12, "full-views").metrics()["accuracy"]
    acc["random"] = tr.evaluate_policy(
        world, task, 2, "random", seed=seed).metrics()["accuracy"]
    q_fixed = tr.build_selector(world, task, seed=seed)
    tr.train_selector_fixed(world, task, q_fixed, tr.TrainConfig(
        regime="select-fixed", epochs=30, T=2, selector_lr=1e-3, seed=seed))
    acc["mvselect"] = tr.evaluate_policy(
        world, task, 2, "mvselect", q_net=q_fixed).metrics()["accuracy"]
    acc["dataset-oracle"] = tr.evaluate_policy(
        world, task, 2, "dataset-oracle").metrics()["accuracy"]
    acc["instance-oracle"] = tr.evaluate_policy(
        world, task, 2, "instance-oracle").metrics()["accuracy"]
    task_joint = copy.deepcopy(task)
    q_joint = tr.build_selector(world, task_joint, seed=seed)
    tr.train_joint(world, task_joint, q_joint, tr.TrainConfig(
        regime="joint", epochs=30, T=2, task_lr=2e-3, selector_lr=1e-3,
        seed=seed))
    acc["joint"] = tr.evaluate_policy(
        world, task_joint, 2, "mvselect", q_net=q_joint).metrics()["accuracy"]
    return {"seed": seed, "world": world, "task": task, "q_fixed": q_fixed,
            "acc": acc, "seconds": time.time() - t0}


def _det_seed(seed: int) -> dict:
    """One detection seed: full-view, fixed-selector, and joint MODA."""
    t0 = time.time()
    world = DetectionWorld(DetectionConfig(
        noise=0.2, half_angle_deg=60.0, view_range=50.0, seed=seed))
    task = tr.build_detector(world, seed=seed)
    tr.train_task_network(world, task, tr.TrainConfig(
        regime="task", epochs=4, T=6, task_lr=1e-3, seed=seed))
    moda = {}
    moda["full"] = tr.evaluate_policy(
        world, task, 6, "full-views").metrics()["moda"]
    # each eval frame's full-view heatmap, decoded as full-views evaluation
    # decodes it, with its occupants
    frames = []
    for i in range(world.split_size("eval")):
        inst = world.instance("eval", i)
        feats = task.features(inst.observations[None])
        frames.append((task.head_cache(feats.max(axis=1)[:, None])[0][0, 0], inst.positions))
    q_fixed = tr.build_selector(world, task, seed=seed)
    tr.train_selector_fixed(world, task, q_fixed, tr.TrainConfig(
        regime="select-fixed", epochs=10, T=3, selector_lr=1e-3, seed=seed))
    moda["mvselect"] = tr.evaluate_policy(
        world, task, 3, "mvselect", q_net=q_fixed).metrics()["moda"]
    task_joint = copy.deepcopy(task)
    q_joint = tr.build_selector(world, task_joint, seed=seed)
    tr.train_joint(world, task_joint, q_joint, tr.TrainConfig(
        regime="joint", epochs=16, T=3, task_lr=1e-3, selector_lr=1e-3,
        joint_task_lr_factor=0.5, seed=seed))
    moda["joint"] = tr.evaluate_policy(
        world, task_joint, 3, "mvselect", q_net=q_joint).metrics()["moda"]
    return {"seed": seed, "moda": moda, "seconds": time.time() - t0, "full_frames": frames,
            "threshold": world.match_threshold_cells}


# each suite's seed runner, longest first: a detection seed trains for 30-40 s,
# a classification seed for 2-3 s
SUITES = {"det_suite": _det_seed, "cls_suite": _cls_seed}


@pytest.fixture(scope="module")
def seed_pool(request):
    """The seeds of every suite a selected test uses, submitted on first use
    to one spawn pool of up to one worker per CPU, longest suite first, so
    no worker idles while seeds wait. Each worker starts with every BLAS and
    OpenMP pool pinned to one thread, before it imports NumPy, so seeds
    running side by side do not share cores. Maps each suite to its
    futures."""
    used = [name for name in SUITES
            if any(name in item.fixturenames for item in request.session.items)]
    saved = {k: os.environ.get(k) for k in THREAD_VARS}
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    pool = ProcessPoolExecutor(max_workers=min(N_SEEDS, os.cpu_count()),
                               mp_context=multiprocessing.get_context("spawn"))
    try:  # a spawn pool starts its workers as work is submitted
        futures = {name: [pool.submit(SUITES[name], seed) for seed in range(N_SEEDS)]
                   for name in used}
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    yield futures
    pool.shutdown(cancel_futures=True)


@pytest.fixture(scope="module")
def cls_suite(seed_pool):
    """Five-seed classification runs: task net, fixed selector, joint pair."""
    return [future.result() for future in seed_pool["cls_suite"]]


@pytest.fixture(scope="module")
def det_suite(seed_pool):
    """Five-seed detection runs: full-view, fixed-selector, and joint MODA."""
    return [future.result() for future in seed_pool["det_suite"]]


# ---------------------------------------------------------------------------
# 1. gradients


def test_layer_and_loss_gradients_match_finite_differences(capsys):
    rng = np.random.default_rng(11)
    t0 = time.time()
    worst = 0.0
    worst_at = ""

    def check(analytic, param, loss_only, where):
        nonlocal worst, worst_at
        numeric = numeric_gradient(loss_only, param)
        err = max_relative_error(analytic, numeric)
        if err > worst:
            worst, worst_at = err, where

    # every activation as a hidden layer, driven through both losses
    for act in ACTIVATIONS:
        for case in range(50):
            in_dim = int(rng.integers(2, 6))
            hid = int(rng.integers(2, 6))
            out_dim = int(rng.integers(2, 5))
            net = DenseNet([LayerSpec(in_dim, hid, act),
                            LayerSpec(hid, out_dim, "linear")],
                           seed=int(rng.integers(1 << 31)))
            x = rng.standard_normal((3, in_dim))
            if case % 2 == 0:
                labels = rng.integers(0, out_dim, size=3)
                loss_fn = lambda y: cross_entropy(y, labels)
            else:
                target = rng.standard_normal((3, out_dim))
                loss_fn = lambda y: bev_mse(y, target)
            y, cache = net.forward_cache(x)
            _, d_out = loss_fn(y)
            grads, d_x = net.backward(cache, d_out)
            loss_only = lambda: loss_fn(net.forward_cache(x)[0])[0]
            for name, param in net.named_params():
                check(grads[name], param, loss_only, f"{act}/{name}/case{case}")
            check(d_x, x, loss_only, f"{act}/input/case{case}")

    # both losses standalone, gradient w.r.t. their prediction argument
    for case in range(50):
        logits = rng.standard_normal((4, 6))
        labels = rng.integers(0, 6, size=4)
        _, grad = cross_entropy(logits, labels)
        check(grad, logits, lambda: cross_entropy(logits, labels)[0],
              f"cross_entropy/case{case}")
        heat = rng.standard_normal((5, 7))
        target = rng.standard_normal((5, 7))
        _, grad = bev_mse(heat, target)
        check(grad, heat, lambda: bev_mse(heat, target)[0],
              f"bev_mse/case{case}")

    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    _report(capsys, 1, "layer and loss gradients match central differences", ok,
            f"worst relative error {worst:.3e} ≤ 1e-4, {elapsed:.1f} s < 60 s")
    assert worst <= 1e-4, f"worst relative error {worst:.3e} at {worst_at}"
    assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. aggregation laws


def test_max_aggregation_laws_hold_bit_exactly(capsys):
    rng = np.random.default_rng(13)
    failures = []
    for case in range(1000):
        k = int(rng.integers(1, 7))
        if case % 3 == 2:
            shape = (int(rng.integers(1, 5)), int(rng.integers(1, 5)))
        else:
            shape = (int(rng.integers(1, 9)),)
        scale = float(rng.uniform(0.1, 100.0))
        feats = [scale * rng.standard_normal(shape) for _ in range(k)]
        pooled = aggregate_max(feats)
        perm = rng.permutation(k)
        if not np.array_equal(aggregate_max([feats[j] for j in perm]), pooled):
            failures.append((case, "permutation"))
        if not np.array_equal(aggregate_max(feats + feats), pooled):
            failures.append((case, "idempotence"))
        if not np.array_equal(aggregate_max(feats + [pooled]), pooled):
            failures.append((case, "absorb-pooled"))
        if not np.array_equal(aggregate_max([feats[0]]), feats[0]):
            failures.append((case, "singleton"))
    ok = not failures
    _report(capsys, 2, "max aggregation is permutation-invariant, idempotent, "
                       "singleton-exact", ok, f"{len(failures)} violations in 1000 cases = 0")
    assert ok, f"aggregation law violations: {failures[:10]}"


# ---------------------------------------------------------------------------
# 3. exact-MDP agreement


def test_selector_reproduces_exact_mdp_solution(capsys):
    t0 = time.time()
    toy = ClassificationWorld(ClassificationConfig(
        n_views=3, n_classes=2, feat_dim=8, noise=0.0, margin=2.0,
        discriminative_views=((1,),), n_train=12, n_val=6, n_eval=6, seed=7))
    task = tr.build_classifier(toy, hidden=16, feat_dim=8, seed=7)
    tr.train_task_network(toy, task, tr.TrainConfig(
        regime="task", epochs=30, T=3, task_lr=5e-3, seed=7,
        train_view_counts=(1, 2, 3)))
    q_net = tr.build_selector(toy, task, hidden=32, seed=7)
    tr.train_selector_fixed(toy, task, q_net, tr.TrainConfig(
        regime="select-fixed", epochs=60, T=2, selector_lr=2e-3, seed=7))
    table = exact_q_table(toy, task, T=2, split="train")
    mismatches = []
    total = 0
    for i in range(toy.n_train):
        feats = task.features_cache(toy.instance("train", i).observations)[0]
        seqs = tr.greedy_sequences(q_net, feats[None], 3, T=2)[0]
        for v0 in range(3):
            total += 1
            action = int(seqs[v0][1])
            optimal = optimal_actions(table, i, {v0})
            if action not in optimal:
                mismatches.append((i, v0, action, sorted(optimal)))
    elapsed = time.time() - t0
    ok = not mismatches and elapsed < 60.0
    _report(capsys, 3, "trained selector matches the exhaustive MDP solution", ok,
            f"{len(mismatches)}/{total} suboptimal greedy actions = 0, {elapsed:.1f} s < 60 s")
    assert not mismatches, (
        f"{len(mismatches)}/{total} greedy actions are suboptimal: {mismatches[:8]}")
    assert elapsed < 60.0, f"toy-world check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4. ordering chain


def test_policy_ordering_chain_on_classification(capsys, cls_suite):
    problems = []
    for run in cls_suite:
        a = run["acc"]
        if not a["random"] < a["mvselect"]:
            problems.append((run["seed"], "random >= mvselect", a))
        if not a["mvselect"] <= a["instance-oracle"]:
            problems.append((run["seed"], "mvselect > instance-oracle", a))
        if not a["dataset-oracle"] <= a["instance-oracle"]:
            problems.append((run["seed"], "dataset-oracle > instance-oracle", a))
        if run["seconds"] >= 600.0:
            problems.append((run["seed"], f"seed took {run['seconds']:.0f}s", {}))
    margin = (np.mean([r["acc"]["mvselect"] for r in cls_suite])
              - np.mean([r["acc"]["random"] for r in cls_suite]))
    if margin < 0.05:
        problems.append(("all", f"mvselect-random margin {margin:.4f} < 0.05", {}))
    ok = not problems
    slowest = max(run["seconds"] for run in cls_suite)
    _report(capsys, 4, "policy ordering chain holds on the classification world", ok,
            f"mvselect − random {margin:.4f} ≥ 0.05, {len(problems)} violations = 0, "
            f"slowest seed {slowest:.1f} s < 600 s")
    assert ok, f"ordering violations: {problems}"


# ---------------------------------------------------------------------------
# 5. joint-training gain


def test_joint_training_beats_fixed_and_closes_on_full(capsys, cls_suite, det_suite):
    problems, stats = [], []
    for label, runs, key in (("classification", cls_suite, "acc"),
                             ("detection", det_suite, "moda")):
        fixed = float(np.mean([r[key]["mvselect"] for r in runs]))
        joint = float(np.mean([r[key]["joint"] for r in runs]))
        full = float(np.mean([r[key]["full"] for r in runs]))
        stats.append(f"{label}: joint − fixed {joint - fixed:.4f} ≥ 0, full − joint "
                     f"{full - joint:.4f} ≤ 0.02, slowest seed "
                     f"{max(r['seconds'] for r in runs):.1f} s < 1200 s")
        if joint < fixed:
            problems.append(f"{label}: joint {joint:.4f} < fixed {fixed:.4f}")
        if full - joint > 0.02 + 1e-12:
            problems.append(
                f"{label}: joint {joint:.4f} trails full {full:.4f} by "
                f"{full - joint:.4f} > 0.02")
        slow = [r["seed"] for r in runs if r["seconds"] >= 1200.0]
        if slow:
            problems.append(f"{label}: seeds over 20 min: {slow}")
    ok = not problems
    _report(capsys, 5, "joint training beats fixed selection and closes on "
                       "full views", ok, "; ".join(stats))
    assert ok, f"joint-training guarantees violated: {problems}"


# ---------------------------------------------------------------------------
# 6. T-sweep plateau


def test_view_budget_sweep_plateaus(capsys):
    world = ClassificationWorld(ClassificationConfig(
        n_train=120, n_val=60, n_eval=80, noise=0.1, seed=0))
    task = tr.build_classifier(world, seed=0)
    tr.train_task_network(world, task, tr.TrainConfig(
        regime="task", epochs=40, T=12, task_lr=2e-3, seed=0,
        train_view_counts=VIEW_MIX))
    budgets = (1, 2, 3, 4, 6, 12)
    curve = [tr.evaluate_policy(world, task, t, "instance-oracle")
             .metrics()["accuracy"] for t in budgets]
    nondecreasing = all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))
    least_step = min(b - a for a, b in zip(curve, curve[1:]))

    full = tr.evaluate_policy(world, task, 12, "full-views").metrics()
    q_any = tr.build_selector(world, task, seed=0)  # vacuous at T = N
    at_full_T = {
        "random": tr.evaluate_policy(world, task, 12, "random", seed=0).metrics(),
        "dataset-oracle": tr.evaluate_policy(world, task, 12, "dataset-oracle").metrics(),
        "instance-oracle": tr.evaluate_policy(world, task, 12, "instance-oracle").metrics(),
        "mvselect": tr.evaluate_policy(world, task, 12, "mvselect", q_net=q_any).metrics(),
    }
    exact = {name: m == full for name, m in at_full_T.items()}
    ok = nondecreasing and all(exact.values())
    _report(capsys, 6, "instance-oracle sweep is nondecreasing with exact "
                       "plateau at T=N", ok,
            f"least step {least_step:.4f} ≥ -1e-12, {sum(exact.values())}/{len(exact)} "
            f"policies equal full views at T=N = {len(exact)}")
    assert nondecreasing, f"instance-oracle curve decreases: {list(zip(budgets, curve))}"
    assert all(exact.values()), (
        f"policies unequal to full system at T=N: "
        f"{[n for n, same in exact.items() if not same]}, full={full}, got={at_full_T}")


# ---------------------------------------------------------------------------
# 7. detection metric fidelity


def _optimal_match_count(peaks, gts, threshold) -> int:
    """Maximum one-to-one matches within the threshold, by brute force."""
    peaks = np.asarray(peaks, dtype=float).reshape(-1, 2)
    gts = np.asarray(gts, dtype=float).reshape(-1, 2)
    small, large = (peaks, gts) if len(peaks) <= len(gts) else (gts, peaks)
    if len(small) == 0:
        return 0
    feasible = np.array([[np.hypot(*(s - l)) <= threshold for l in large]
                         for s in small])
    best = 0
    for assign in itertools.permutations(range(len(large)), len(small)):
        best = max(best, sum(int(feasible[i, j]) for i, j in enumerate(assign)))
    return best


def test_detection_metric_formulas_and_matching(capsys):
    rng = np.random.default_rng(17)

    formula_ok = True
    for _ in range(20):
        tp = int(rng.integers(1, 30))
        fp = int(rng.integers(0, 20))
        fn = int(rng.integers(0, 20))
        gt = tp + fn
        credit = float(rng.uniform(0.0, tp))
        m = detection_metrics_arrays(np.array([tp, fp, fn, gt]), np.array([credit]))
        direct = {"moda": 1.0 - (fp + fn) / gt, "modp": credit / tp,
                  "precision": tp / (tp + fp) if tp + fp > 0 else 0.0,
                  "recall": tp / gt}
        if any(m[k] != direct[k] for k in direct):
            formula_ok = False

    agree = 0
    scenes = 200
    discrepancies = []
    for s in range(scenes):
        n_peaks = int(rng.integers(0, 7))
        n_gt = int(rng.integers(1, 7))
        peaks = rng.uniform(0, 10, size=(n_peaks, 2))
        gts = rng.uniform(0, 10, size=(n_gt, 2))
        greedy = match_detections(peaks, gts, 2.0).tp
        optimal = _optimal_match_count(peaks, gts, 2.0)
        if greedy == optimal:
            agree += 1
        else:
            discrepancies.append(f"scene {s}: greedy={greedy} optimal={optimal}")
    fraction = agree / scenes
    ok = formula_ok and fraction >= 0.95
    with capsys.disabled():
        for line in discrepancies:
            print(f"[criterion 07] matching discrepancy — {line}")
    _report(capsys, 7, "detection metrics match formula substitution; greedy "
                       f"matching optimal on {fraction:.1%} of scenes", ok,
            f"formulas {'exact' if formula_ok else 'off'}, greedy optimal "
            f"{fraction:.1%} ≥ 95%")
    assert formula_ok, "metric bundle deviates from direct formula substitution"
    assert fraction >= 0.95, f"greedy matching optimal on only {fraction:.1%}"


# ---------------------------------------------------------------------------
# greedy against optimal matching on the detection suite (a report, not a
# numbered criterion)


def _optimal_counts(heatmap, gts, threshold) -> np.ndarray:
    """[tp, fp, fn, gt] of one heatmap's peaks under a maximum one-to-one
    assignment to the occupants within the threshold."""
    peaks = extract_peaks(heatmap).astype(float)
    gts = np.asarray(gts, dtype=float).reshape(-1, 2)
    far = np.hypot(peaks[:, None, 0] - gts[:, 0], peaks[:, None, 1] - gts[:, 1]) > threshold
    rows, cols = linear_sum_assignment(far.astype(float))  # fewest pairs past the threshold
    tp = int((~far[rows, cols]).sum())
    return np.array([tp, len(peaks) - tp, len(gts) - tp, len(gts)], dtype=float)


def test_optimal_matching_scores_at_least_greedy_on_detection_worlds(capsys, det_suite):
    lines, worse = [], []
    for run in det_suite:
        frames, threshold = run["full_frames"], run["threshold"]
        greedy = np.array([frame_counts(heat, gts, threshold) for heat, gts in frames])
        optimal = np.array([_optimal_counts(heat, gts, threshold) for heat, gts in frames])
        moda_greedy = detection_metrics_arrays(greedy[:, :4], greedy[:, 4])["moda"]
        moda_optimal = detection_metrics_arrays(optimal, np.zeros(len(frames)))["moda"]
        # the runtime's full-views MODA is the greedy one over the same peaks
        assert moda_greedy == run["moda"]["full"], (moda_greedy, run["moda"]["full"])
        more = int((optimal[:, 0] > greedy[:, 0]).sum())
        lines.append(f"seed {run['seed']}: greedy {moda_greedy:.4f}, optimal "
                     f"{moda_optimal:.4f} ({moda_optimal - moda_greedy:+.4f}; optimal matched "
                     f"more on {more}/{len(frames)} frames)")
        if moda_optimal < moda_greedy:
            worse.append(run["seed"])
    with capsys.disabled():
        for line in lines:
            print(f"[matching] full-view MODA, {line}")
    assert not worse, f"optimal matching scored below greedy on seeds {worse}"


# ---------------------------------------------------------------------------
# 8. cost ratio


def test_cost_ratio_tracks_view_fraction(capsys):
    rng = np.random.default_rng(19)
    worst = 0.0
    worst_at = ""
    for T in (2, 3):
        for n_cams in (6, 12, 20):
            cases = [(10 * (600 + 400), 600, 400),      # boundary f = 10(g+d)
                     (10 * 1000, 0, 1000),
                     (10 * 1000, 1000, 0),
                     (10_000, 0, 0)]                    # selector-free edge
            for _ in range(50):
                g = int(rng.integers(0, 2000))
                d = int(rng.integers(0, 2000))
                mult = float(rng.uniform(10.0, 200.0))
                cases.append((int(np.ceil(mult * max(g + d, 1))), g, d))
            for f, g, d in cases:
                if f < 10 * (g + d):
                    continue
                ratio = cost_from_macs(f, g, d, T, n_cams).ratio
                target = T / n_cams
                dev = abs(ratio - target) / target
                if dev > worst:
                    worst, worst_at = dev, f"T={T} N={n_cams} f={f} g={g} d={d}"
    ok = worst <= 0.10
    _report(capsys, 8, "selected-view cost ratio tracks T/N under dominant "
                       "per-view cost", ok, f"worst deviation {worst:.4f} ≤ 0.10")
    assert ok, f"worst deviation {worst:.4f} from T/N at {worst_at}"


# ---------------------------------------------------------------------------
# 9. camera shut-off


def test_disabling_least_used_cameras_beats_random(capsys, cls_suite):
    problems, gaps = [], []
    for run in cls_suite:
        result = studies.camera_shutoff_study(
            run["world"], run["task"], run["q_fixed"], T=2, k=6,
            n_random=5, seed=run["seed"])
        ranked = result["ranked"]["metrics"]["primary"]
        random_mean = result["random_mean_primary"]
        gaps.append(ranked - random_mean)
        if ranked < random_mean:
            problems.append((run["seed"], ranked, random_mean))
    ok = not problems
    _report(capsys, 9, "usage-ranked camera shut-off beats random subsets", ok,
            f"least ranked − random mean {min(gaps):.4f} ≥ 0")
    assert ok, f"(seed, ranked, random-mean) violations: {problems}"


# ---------------------------------------------------------------------------
# 10. branch ablation contracts


def test_branch_ablations_enforce_invariances(capsys):
    rng = np.random.default_rng(23)
    n_cams, feat_dim = 5, 7

    def state(chosen, obs):
        cam = np.zeros(n_cams)
        for c in chosen:
            cam[c] += 1.0
        return cam[None], np.asarray(obs, dtype=float)[None]

    no_feat = QNetwork(n_cams, feat_dim, hidden=16, seed=3,
                       use_feature_branch=False)
    no_cam = QNetwork(n_cams, feat_dim, hidden=16, seed=3,
                      use_camera_branch=False)
    full = QNetwork(n_cams, feat_dim, hidden=16, seed=3)

    feat_dep_violations = cam_dep_violations = 0
    full_sensitive = False
    for _ in range(20):
        chosen = tuple(sorted(rng.choice(n_cams, size=2, replace=False)))
        obs_a = rng.standard_normal(feat_dim)
        obs_b = rng.standard_normal(feat_dim)
        # same history, different instances: Q must be instance-independent
        if not np.array_equal(no_feat.forward_cache(*state(chosen, obs_a))[0],
                              no_feat.forward_cache(*state(chosen, obs_b))[0]):
            feat_dep_violations += 1
        # same pooled observation, different history sets
        other = tuple(sorted(rng.choice(n_cams, size=3, replace=False)))
        if not np.array_equal(no_cam.forward_cache(*state(chosen, obs_a))[0],
                              no_cam.forward_cache(*state(other, obs_a))[0]):
            cam_dep_violations += 1
        if not np.array_equal(full.forward_cache(*state(chosen, obs_a))[0],
                              full.forward_cache(*state(other, obs_b))[0]):
            full_sensitive = True
    ok = feat_dep_violations == 0 and cam_dep_violations == 0 and full_sensitive
    _report(capsys, 10, "selector branch ablations enforce their invariances", ok,
            f"{feat_dep_violations} feature-free and {cam_dep_violations} camera-free "
            f"violations in 20 cases = 0, two-branch network "
            f"{'sensitive' if full_sensitive else 'blind'} to state changes")
    assert feat_dep_violations == 0, (
        f"feature-branch-free Q depends on the instance in "
        f"{feat_dep_violations} cases")
    assert cam_dep_violations == 0, (
        f"camera-branch-free Q depends on the history set in "
        f"{cam_dep_violations} cases")
    assert full_sensitive, "two-branch network is blind to state changes"


# ---------------------------------------------------------------------------
# 11. determinism


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "fewview.cli", *argv],
                          capture_output=True, text=True,
                          cwd=Path(__file__).resolve().parents[1],
                          env=dict(os.environ))


def _run_dir(result) -> Path:
    lines = [l for l in result.stdout.splitlines()
             if l.startswith("run directory: ")]
    assert lines, result.stdout + result.stderr
    return Path(lines[0].split(": ", 1)[1])


def test_full_pipeline_reruns_are_byte_identical(capsys, tmp_path):
    cfg = {
        "world": {"kind": "classification", "n_views": 6, "n_classes": 4,
                  "feat_dim": 12, "n_train": 40, "n_val": 24, "n_eval": 24,
                  "seed": 3},
        "train": {"regime": "task", "epochs": 8, "T": 6, "task_lr": 2e-3,
                  "train_view_counts": [1, 2, 3, 6]},
        "eval": {"T": 2, "split": "eval"},
        "seed": 0,
    }
    mismatched = []

    def both(stage_cfg: dict, *argv) -> tuple[Path, Path]:
        """Run one pipeline stage twice and byte-compare its artifacts."""
        path = tmp_path / f"{argv[0]}-{len(mismatched)}-cfg.yaml"
        path.write_text(yaml.safe_dump(stage_cfg))
        dirs = []
        for root in ("a", "b"):
            r = _cli(*argv, "--config", str(path),
                     "--out", str(tmp_path / root))
            assert r.returncode == 0, r.stderr
            dirs.append(_run_dir(r))
        for file_a in sorted(dirs[0].iterdir()):
            if file_a.name == "manifest.json":  # carries wall-clock timing
                continue
            file_b = dirs[1] / file_a.name
            if not file_b.exists():
                mismatched.append(f"{file_a.name} missing from rerun")
            elif file_a.read_bytes() != file_b.read_bytes():
                mismatched.append(file_a.name)
        return dirs[0], dirs[1]

    task_dir, _ = both(cfg, "train", "--regime", "task")
    task_ckpt = next(task_dir.glob("task-*.ckpt"))

    sel_cfg = copy.deepcopy(cfg)
    sel_cfg["train"].update({"regime": "select-fixed", "epochs": 6, "T": 2,
                             "task_checkpoint": str(task_ckpt)})
    sel_dir, _ = both(sel_cfg, "train")
    sel_ckpt = next(sel_dir.glob("selector-*.ckpt"))

    eval_cfg = copy.deepcopy(cfg)
    del eval_cfg["train"]
    eval_cfg["eval"].update({"task_checkpoint": str(task_ckpt),
                             "selector_checkpoint": str(sel_ckpt),
                             "policy": "mvselect"})
    both(eval_cfg, "eval")

    ok = not mismatched
    _report(capsys, 11, "pipeline reruns reproduce artifacts byte-for-byte", ok,
            f"{len(mismatched)} differing artifacts = 0")
    assert ok, f"artifacts differing between reruns: {mismatched}"
